//! A hand-rolled Rust surface lexer for `kite-lint`.
//!
//! The build environment has no crates.io access, so there is no `syn`, no
//! `proc-macro2`, no clippy plugin infrastructure — the same constraint that
//! produced the hand-declared epoll FFI (`kite-net/src/sys.rs`) and the
//! hand-rolled wire codec (`kite/src/wire.rs`). The linter therefore does
//! not parse Rust; it *classifies* it. [`lex`] splits a source file into,
//! per line, the **code text** (with every comment, string literal, raw
//! string, byte string and char literal blanked out to spaces, preserving
//! column positions) and the **comment text** (everything that appeared
//! inside comments on that line). Every rule in `kite-lint` then operates on
//! those two channels: `unsafe` inside a string or a doc comment is
//! invisible to the rules, while a `// SAFETY:` marker is only ever found in
//! the comment channel.
//!
//! The classifier handles the full set of Rust-2021 lexical hazards that a
//! naive substring scan trips over:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), which Rust permits and real code contains;
//! * string literals with escapes (`"\" // not a comment"`);
//! * raw strings with arbitrary hash fences (`r#"…"#`, `br##"…"##`) in
//!   which neither escapes nor quotes terminate early;
//! * byte strings (`b"…"`) and byte chars (`b'x'`);
//! * char literals vs. lifetimes: `'a'` is a literal, `'a` in `&'a str` is
//!   code, `'\''` and `'"'` are literals — disambiguated by lookahead the
//!   same way rustc's lexer does (a quote after at most one char body, or
//!   an escape, means literal).
//!
//! Column positions are preserved exactly (blanked regions become runs of
//! spaces) so brace tracking and diagnostics can refer to real columns.

/// One source line, split into its code and comment channels.
#[derive(Debug, Clone)]
pub struct LexLine {
    /// The line's code with comments and literal *contents* blanked to
    /// spaces. String/char delimiters are blanked too, so `"a"` becomes
    /// three spaces — rules never see quote characters from literals.
    pub code: String,
    /// Concatenated text of every comment region overlapping this line.
    pub comment: String,
}

impl LexLine {
    /// True if the line carries no code tokens at all (blank or pure
    /// comment) — used by rules that scan upward over a comment block.
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nested depth.
    BlockComment(u32),
    /// Plain or byte string.
    Str,
    /// Raw (byte) string with its hash-fence length.
    RawStr(u32),
    CharLit,
}

/// Lex `src` into per-line code/comment channels. Never fails: garbage in,
/// garbage-classified-as-code out — the rules are conservative about what
/// they match, so misclassification degrades to a missed diagnostic, not a
/// panic.
pub fn lex(src: &str) -> Vec<LexLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines: Vec<LexLine> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;
    let mut i = 0usize;

    macro_rules! flush_line {
        () => {{
            lines.push(LexLine { code: std::mem::take(&mut code), comment: std::mem::take(&mut comment) });
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A line comment ends at the newline; strings/blocks continue.
            if state == State::LineComment {
                state = State::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    code.push(' ');
                    i += 1;
                } else if c == 'r' && !prev_is_ident_char(&chars, i) && raw_fence_ahead(&chars, i + 1) {
                    let hashes = count_hashes(&chars, i + 1);
                    state = State::RawStr(hashes);
                    for _ in 0..(1 + hashes + 1) {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize + 1;
                } else if c == 'b' && next == Some('"') {
                    // Byte string: only when `b` is not the tail of an ident.
                    if prev_is_ident_char(&chars, i) {
                        code.push(c);
                        i += 1;
                    } else {
                        state = State::Str;
                        code.push_str("  ");
                        i += 2;
                    }
                } else if c == 'b' && next == Some('r') && raw_fence_ahead(&chars, i + 2) {
                    if prev_is_ident_char(&chars, i) {
                        code.push(c);
                        i += 1;
                    } else {
                        let hashes = count_hashes(&chars, i + 2);
                        state = State::RawStr(hashes);
                        for _ in 0..(2 + hashes + 1) {
                            code.push(' ');
                        }
                        i += 2 + hashes as usize + 1;
                    }
                } else if c == 'b' && next == Some('\'') && !prev_is_ident_char(&chars, i) {
                    state = State::CharLit;
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    if is_char_literal(&chars, i) {
                        state = State::CharLit;
                        code.push(' ');
                        i += 1;
                    } else {
                        // Lifetime or loop label: code.
                        code.push(c);
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    if depth > 1 {
                        comment.push_str("*/");
                    }
                    code.push_str("  ");
                    i += 2;
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push(' ');
                    if let Some(&n) = chars.get(i + 1) {
                        if n != '\n' {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    i += 1;
                } else if c == '"' {
                    state = State::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && fence_matches(&chars, i + 1, hashes) {
                    state = State::Code;
                    for _ in 0..(1 + hashes) {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::CharLit => {
                if c == '\\' {
                    code.push(' ');
                    if chars.get(i + 1).is_some() {
                        code.push(' ');
                        i += 1;
                    }
                    i += 1;
                } else if c == '\'' {
                    state = State::Code;
                    code.push(' ');
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // Final (unterminated) line.
    if !code.is_empty() || !comment.is_empty() || lines.is_empty() {
        flush_line!();
    }
    lines
}

/// Does a raw-string fence (`#*"`) start at `chars[i]`? Callers have
/// already consumed the `r`/`br` prefix and checked it is not the tail of
/// an identifier (`ptr"` cannot occur in valid Rust, but `for r in…` shows
/// up and must not trip this).
fn raw_fence_ahead(chars: &[char], i: usize) -> bool {
    let mut j = i;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn count_hashes(chars: &[char], mut i: usize) -> u32 {
    let mut n = 0;
    while chars.get(i) == Some(&'#') {
        n += 1;
        i += 1;
    }
    n
}

fn fence_matches(chars: &[char], i: usize, hashes: u32) -> bool {
    for k in 0..hashes as usize {
        if chars.get(i + k) != Some(&'#') {
            return false;
        }
    }
    true
}

fn prev_is_ident_char(chars: &[char], i: usize) -> bool {
    i > 0 && chars.get(i - 1).is_some_and(|p| p.is_alphanumeric() || *p == '_')
}

/// Disambiguate `'` at `chars[i]`: char literal vs lifetime/label.
///
/// A char literal is `'X'` where X is one char or an escape; a lifetime is
/// `'ident` NOT followed by a closing quote. `'a'` → literal; `&'a str` →
/// lifetime; `'\n'` → literal; `'_` → lifetime-ish (wildcard); `'('` in
/// `matches!(c, '(')` → literal.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        None => false,
        Some('\\') => true,
        Some(c) if c.is_alphanumeric() || *c == '_' => {
            // Scan the ident/char body; literal iff exactly one char then `'`.
            if chars.get(i + 2) == Some(&'\'') {
                return true;
            }
            false
        }
        // Any other single char followed by a quote: literal like '(' or '"'.
        Some(_) => chars.get(i + 2) == Some(&'\''),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comment_goes_to_comment_channel() {
        let lines = lex("let x = 1; // SAFETY: fine\n");
        assert_eq!(lines[0].code.trim_end(), "let x = 1;");
        assert!(lines[0].comment.contains("SAFETY: fine"));
    }

    #[test]
    fn unsafe_in_string_is_not_code() {
        let c = code_of("let s = \"unsafe { }\";\n");
        assert!(!c[0].contains("unsafe"), "{:?}", c);
        // Columns preserved: the trailing `;` is still at its position.
        assert!(c[0].trim_end().ends_with(';'));
    }

    #[test]
    fn unsafe_in_nested_block_comment_is_not_code() {
        let src = "/* outer /* unsafe { } */ still comment */ let y = 2;\n";
        let lines = lex(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("let y = 2;"));
        assert!(lines[0].comment.contains("unsafe"));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let src = "fn a() {}\n/* one\n   unsafe two\n*/\nfn b() {}\n";
        let lines = lex(src);
        assert!(lines[1].is_code_blank());
        assert!(lines[2].is_code_blank());
        assert!(lines[2].comment.contains("unsafe two"));
        assert!(lines[4].code.contains("fn b"));
    }

    #[test]
    fn raw_string_with_comment_markers_inside() {
        let src = "let r = r#\"// not a comment \"quoted\" unsafe\"#; let z = 3;\n";
        let lines = lex(src);
        assert!(!lines[0].code.contains("unsafe"));
        assert!(!lines[0].code.contains("not a comment"));
        assert!(lines[0].code.contains("let z = 3;"));
        assert!(lines[0].comment.is_empty());
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = "let a = b\"bytes // x\"; let b2 = br#\"raw \" bytes\"#; end();\n";
        let lines = lex(src);
        assert!(!lines[0].code.contains("bytes"));
        assert!(lines[0].code.contains("end();"));
        assert!(lines[0].comment.is_empty());
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        // '"' is a char literal; the string that follows must still lex.
        let src = "if c == '\"' { x = \"s\"; } fn f<'a>(v: &'a str) -> &'a str { v }\n";
        let lines = lex(src);
        assert!(lines[0].code.contains("fn f<'a>"), "{:?}", lines[0].code);
        assert!(lines[0].code.contains("&'a str"));
        // Char literal for a slash must not open a comment.
        let src2 = "if c == '/' { y(); } // real comment\n";
        let l2 = lex(src2);
        assert!(l2[0].code.contains("y();"));
        assert!(l2[0].comment.contains("real comment"));
    }

    #[test]
    fn escaped_quote_in_char_literal() {
        let src = "let q = '\\''; let u = unsafe_marker();\n";
        let lines = lex(src);
        assert!(lines[0].code.contains("unsafe_marker"));
    }

    #[test]
    fn escaped_quote_in_string_does_not_terminate() {
        let src = "let s = \"a\\\"b // still string\"; tail();\n";
        let lines = lex(src);
        assert!(lines[0].code.contains("tail();"));
        assert!(lines[0].comment.is_empty());
        assert!(!lines[0].code.contains("still string"));
    }

    #[test]
    fn columns_are_preserved() {
        let src = "let s = \"abc\"; let t = 1;\n";
        let lines = lex(src);
        // The source and code channel have identical lengths.
        assert_eq!(lines[0].code.chars().count(), src.trim_end().chars().count());
        let col = src.find("let t").unwrap();
        assert_eq!(&lines[0].code[col..col + 5], "let t");
    }

    #[test]
    fn doc_comments_are_comments() {
        let src = "/// has unsafe in prose\nfn g() {}\n";
        let lines = lex(src);
        assert!(lines[0].is_code_blank());
        assert!(lines[0].comment.contains("has unsafe in prose"));
    }

    #[test]
    fn lifetime_before_ident_is_code_not_char() {
        // 'static — three chars then no quote: must remain code.
        let src = "fn h(x: &'static str) -> usize { x.len() }\n";
        let lines = lex(src);
        assert!(lines[0].code.contains("&'static str"));
    }
}
