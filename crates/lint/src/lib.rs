//! `kite-lint` — the workspace's offline invariant linter.
//!
//! Seven PRs of ROADMAP prose established load-bearing contracts ("steady
//! state sends do not allocate", "every decode path returns `WireError`,
//! never panics", "the readiness loop is allocation-free") that until now
//! were enforced by convention and review. Hermes — Kite's sibling protocol
//! — leaned on machine-checked invariants (TLA+) precisely because
//! hand-audited ones rot. This crate is the repo's own checker: a
//! self-contained static-analysis pass (no syn, no clippy plugins — the
//! build environment has no registry access) that walks every `.rs` file in
//! the workspace and mechanically enforces the rules below. It runs as a
//! binary (`scripts/lint.sh`) **and** as a workspace integration test, so
//! `cargo test -q` re-checks the invariants on every build.
//!
//! # The rules
//!
//! ## `no-alloc` — annotated regions must not allocate
//!
//! Regions opened by a `// kite-lint: no-alloc` annotation line (the rule
//! attaches to the next braced item — a fn body, an impl, a block) must not
//! contain allocation constructs. Applied to `Outbox::flush`, the
//! `InFlightTable` resolve path, the epoll readiness-loop bodies in
//! `kite-net`, and the WAL `record` staging path.
//!
//! ```text
//! // BAD
//! // kite-lint: no-alloc
//! fn flush(&mut self) {
//!     let batch = Vec::new();          // no-alloc: allocation construct
//! }
//!
//! // GOOD
//! // kite-lint: no-alloc
//! fn flush(&mut self) {
//!     let batch = self.pool.pop();     // recycled, no constructor
//! }
//! ```
//!
//! ## `safety-comment` — every `unsafe` must carry its proof
//!
//! Every `unsafe` keyword (block, fn, impl) must have a `// SAFETY:`
//! comment on the same line or in the comment block immediately above.
//! The comment is the *proof obligation*: why the invariants the compiler
//! cannot check hold here.
//!
//! ```text
//! // BAD
//! let copy = unsafe { std::ptr::read_volatile(p) };
//!
//! // GOOD
//! // SAFETY: p points into the seqlock-protected payload; a racing write
//! // is detected by read_validate and the copy is discarded unread.
//! let copy = unsafe { std::ptr::read_volatile(p) };
//! ```
//!
//! ## `total-decode` — decode paths are total functions
//!
//! Regions annotated `// kite-lint: total-decode` (the wire codec's decode
//! half, the WAL segment scanner) must not contain `.unwrap()`,
//! `.expect(`, `panic!`, or slice indexing — malformed input flows to
//! `WireError`/truncation, never a worker panic. Use `get(..)`,
//! `try_into().map_err(..)`, and pattern destructuring instead.
//!
//! ```text
//! // BAD (inside a total-decode region)
//! let len = u32::from_le_bytes(data[0..4].try_into().unwrap());
//!
//! // GOOD
//! let Some(len) = le_u32_at(data, 0) else { return Err(WireError::Truncated) };
//! ```
//!
//! ## `ordering-justification` — atomics say why their ordering is enough
//!
//! A bare `Ordering::Relaxed`/`Acquire`/`Release`/`AcqRel` in
//! `crates/kvs/src`, `crates/lockfree/src`, `crates/net/src` or
//! `crates/common/src` (home of the packed membership cell every quorum
//! read goes through) requires an `// ordering:` comment on the statement,
//! immediately above it, or on the enclosing function's doc block.
//! (`SeqCst` needs no justification — it is the conservative maximum.)
//! Test modules are exempt.
//!
//! ```text
//! // BAD
//! self.seq.load(Ordering::Relaxed)
//!
//! // GOOD
//! // ordering: the read is validated by an Acquire fence + re-load in
//! // read_validate; Relaxed here cannot order the payload reads.
//! self.seq.load(Ordering::Relaxed)
//! ```
//!
//! ## `no-blocking-in-loop` — readiness loops never block
//!
//! Regions annotated `// kite-lint: event-loop` (the per-worker epoll
//! run-to-completion loop bodies) must not call `std::thread::sleep`,
//! blocking `lock()`, `.recv()`, `.join()` or direct `write_all` — a loop
//! that blocks stalls every fd it owns. Nonblocking drains and
//! `epoll_wait` are the only places a loop may rest.
//!
//! # Suppressions
//!
//! A violation is suppressed by an explicit, *reasoned* allow on or
//! immediately above the offending line:
//!
//! ```text
//! // kite-lint: allow(no-alloc) — pool-dry cold path; steady state pops.
//! let replacement = self.pool.pop().unwrap_or_else(|| Vec::with_capacity(BUF_CAP));
//! ```
//!
//! An allow without a reason is itself a violation (`allow-without-reason`).
//! There is no baseline: any violation fails the pass.

pub mod lexer;

use lexer::{lex, LexLine};
use std::fmt;
use std::path::{Path, PathBuf};

/// The enforced rules. `AllowWithoutReason` is meta: emitted when a
/// suppression comment lacks its mandatory reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    NoAlloc,
    SafetyComment,
    TotalDecode,
    OrderingJustification,
    NoBlockingInLoop,
    AllowWithoutReason,
}

impl Rule {
    /// The rule's diagnostic / annotation name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoAlloc => "no-alloc",
            Rule::SafetyComment => "safety-comment",
            Rule::TotalDecode => "total-decode",
            Rule::OrderingJustification => "ordering-justification",
            Rule::NoBlockingInLoop => "no-blocking-in-loop",
            Rule::AllowWithoutReason => "allow-without-reason",
        }
    }

    fn from_name(s: &str) -> Option<Rule> {
        Some(match s {
            "no-alloc" => Rule::NoAlloc,
            "safety-comment" => Rule::SafetyComment,
            "total-decode" => Rule::TotalDecode,
            "ordering-justification" => Rule::OrderingJustification,
            "no-blocking-in-loop" => Rule::NoBlockingInLoop,
            "allow-without-reason" => Rule::AllowWithoutReason,
            _ => return None,
        })
    }
}

/// One diagnostic. Renders rustc-style: `file:line: rule: message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// What went wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule.name(), self.message)
    }
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

const REGION_NO_ALLOC: u8 = 1 << 0;
const REGION_TOTAL_DECODE: u8 = 1 << 1;
const REGION_EVENT_LOOP: u8 = 1 << 2;

/// Metadata computed for each line by the frame pass.
#[derive(Default, Clone)]
struct LineMeta {
    /// Bitmask of annotation regions covering this line.
    regions: u8,
    /// Line is inside a `#[cfg(test)]` item.
    in_test: bool,
    /// Header-start line (0-based) of the innermost enclosing `fn`.
    fn_decl: Option<usize>,
}

struct Frame {
    regions: u8,
    is_test: bool,
    fn_decl: Option<usize>,
}

/// Track braces/items over the lexed code channel, producing [`LineMeta`]s.
///
/// The tracker is deliberately approximate: it treats every `{…}` as a
/// frame and classifies it by the *header* (the code accumulated since the
/// last `{`, `}` or `;`). A header containing the `fn` keyword opens a
/// function frame; one containing `#[cfg(test)]` opens a test frame.
/// Closures and struct literals become anonymous frames that inherit their
/// parent's classification — exactly what the rules want.
fn track(lines: &[LexLine]) -> Vec<LineMeta> {
    let mut metas: Vec<LineMeta> = vec![LineMeta::default(); lines.len()];
    let mut stack: Vec<Frame> = Vec::new();
    let mut header = String::new();
    let mut header_start: usize = 0;
    let mut header_live = false;
    let mut pending_regions: u8 = 0;

    for (ln, line) in lines.iter().enumerate() {
        // Annotations are comment lines; they arm the next opened frame.
        let c = &line.comment;
        if c.contains("kite-lint: no-alloc") {
            pending_regions |= REGION_NO_ALLOC;
        }
        if c.contains("kite-lint: total-decode") {
            pending_regions |= REGION_TOTAL_DECODE;
        }
        if c.contains("kite-lint: event-loop") {
            pending_regions |= REGION_EVENT_LOOP;
        }

        let mut meta = LineMeta::default();
        let inherit = |stack: &[Frame], meta: &mut LineMeta| {
            meta.regions |= stack.iter().fold(0, |acc, f| acc | f.regions);
            meta.in_test |= stack.iter().any(|f| f.is_test);
            if let Some(f) = stack.iter().rev().find_map(|f| f.fn_decl) {
                meta.fn_decl = Some(f);
            }
        };
        inherit(&stack, &mut meta);

        for ch in line.code.chars() {
            match ch {
                '{' => {
                    let is_fn = has_word(&header, "fn");
                    let is_test = header.contains("#[cfg(test)]");
                    let parent_fn = stack.iter().rev().find_map(|f| f.fn_decl);
                    stack.push(Frame {
                        regions: std::mem::take(&mut pending_regions),
                        is_test,
                        fn_decl: if is_fn { Some(header_start) } else { parent_fn },
                    });
                    header.clear();
                    header_live = false;
                    inherit(&stack, &mut meta);
                }
                '}' => {
                    stack.pop();
                    header.clear();
                    header_live = false;
                }
                ';' => {
                    header.clear();
                    header_live = false;
                    // A bodiless item consumes any pending annotation: the
                    // annotation was written for it, not for whatever braced
                    // thing happens to come next.
                    pending_regions = 0;
                }
                _ => {
                    if !ch.is_whitespace() {
                        if !header_live {
                            header_live = true;
                            header_start = ln;
                        }
                        header.push(ch);
                    } else if header_live {
                        header.push(' ');
                    }
                }
            }
        }
        metas[ln] = meta;
    }
    metas
}

/// Whole-word search in blanked code text.
fn has_word(code: &str, word: &str) -> bool {
    find_word(code, word).is_some()
}

fn find_word(code: &str, word: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + word.len();
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

// ---------------------------------------------------------------------------
// Rule tables
// ---------------------------------------------------------------------------

/// Allocation constructs banned inside `no-alloc` regions. Substring
/// matches over the blanked code channel; `with_capacity` catches both
/// `Vec::with_capacity` and `String::with_capacity`.
const ALLOC_CONSTRUCTS: &[&str] = &[
    "Vec::new",
    "vec![",
    "Box::new",
    "Arc::new",
    "Rc::new",
    ".to_vec(",
    "format!",
    "String::from",
    "String::new",
    ".to_string(",
    "to_owned(",
    "HashMap::",
    "BTreeMap::",
    "HashSet::",
    "with_capacity",
    ".collect(",
    ".collect::<",
];

/// Panic paths banned inside `total-decode` regions (slice indexing is
/// detected structurally, see [`find_indexing`]).
const PANIC_CONSTRUCTS: &[&str] =
    &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

/// Blocking calls banned inside `event-loop` regions.
const BLOCKING_CONSTRUCTS: &[&str] =
    &["thread::sleep", ".lock()", "write_all(", ".recv()", ".join()"];

/// Keywords that may directly precede `[` without it being an index
/// expression (`let [a, b] = …`, `&mut [0u8; 4]`, `return [x]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "as", "in", "return", "else", "match", "if", "let", "dyn", "impl", "where",
    "move", "box", "break", "continue", "loop", "while", "for", "use", "pub", "fn", "unsafe",
    "static", "const", "type", "enum", "struct", "trait", "mod", "crate", "super", "await",
];

/// Find a slice/array index expression in blanked code: a `[` whose
/// previous significant token is an identifier (non-keyword), `)`, `]` or
/// `?`. Attributes (`#[…]`), types (`&[u8]`), array literals (`= [0; 4]`)
/// and slice patterns (`let [a, b] = …`) do not match.
fn find_indexing(code: &str) -> Option<usize> {
    let chars: Vec<char> = code.chars().collect();
    for (i, &ch) in chars.iter().enumerate() {
        if ch != '[' {
            continue;
        }
        // Previous non-whitespace char.
        let mut j = i;
        let mut prev = None;
        while j > 0 {
            j -= 1;
            if !chars[j].is_whitespace() {
                prev = Some(chars[j]);
                break;
            }
        }
        let Some(p) = prev else { continue };
        if p == ')' || p == ']' || p == '?' {
            return Some(i);
        }
        if p.is_alphanumeric() || p == '_' {
            let mut k = j;
            while k > 0 && (chars[k - 1].is_alphanumeric() || chars[k - 1] == '_') {
                k -= 1;
            }
            // A lifetime before `[` is type syntax (`&'a [u8]`), never an
            // index expression.
            if k > 0 && chars[k - 1] == '\'' {
                continue;
            }
            let tok: String = chars[k..=j].iter().collect();
            if !NON_INDEX_KEYWORDS.contains(&tok.as_str()) {
                return Some(i);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// A parsed `kite-lint: allow(<rule>)` comment.
struct Allow {
    rule: Option<Rule>,
    has_reason: bool,
}

/// Parse every allow marker in a comment line.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut start = 0;
    const MARK: &str = "kite-lint: allow(";
    while let Some(pos) = comment[start..].find(MARK) {
        let at = start + pos + MARK.len();
        let rest = &comment[at..];
        if let Some(close) = rest.find(')') {
            let rule = Rule::from_name(rest[..close].trim());
            let tail = rest[close + 1..]
                .trim_start_matches([' ', '\t'])
                .trim_start_matches(['—', '-', ':', ' '])
                .trim();
            out.push(Allow { rule, has_reason: tail.chars().count() >= 3 });
            start = at + close;
        } else {
            break;
        }
    }
    out
}

/// Allow lookup for a violation at `line`: same-line comment, the comment
/// block immediately above (skipping only code-blank lines), or — when the
/// line is a continuation of a multi-line statement — the comment block
/// above the statement's first line. Returns `Some(has_reason)` when a
/// matching allow exists.
fn allow_for(lines: &[LexLine], line: usize, rule: Rule) -> Option<bool> {
    let check = |l: usize| -> Option<bool> {
        let mut hit = None;
        for a in parse_allows(&lines[l].comment) {
            if a.rule == Some(rule) {
                hit = Some(a.has_reason);
            }
        }
        hit
    };
    let scan_at = |anchor: usize| -> Option<bool> {
        if let Some(h) = check(anchor) {
            return Some(h);
        }
        let mut l = anchor;
        while l > 0 {
            l -= 1;
            if !lines[l].is_code_blank() {
                break;
            }
            if let Some(h) = check(l) {
                return Some(h);
            }
        }
        None
    };
    if let Some(h) = scan_at(line) {
        return Some(h);
    }
    let ss = statement_start(lines, line);
    if ss != line {
        return scan_at(ss);
    }
    None
}

/// Walk from `line` up to the first line of the statement it belongs to: a
/// line whose nearest code line above ends with `;`, `{` or `}` (statement
/// / block boundary). Lines ending mid-expression (`&&`, `(`, `,`, a
/// method-chain `.seq`) are continuations, so the justification comment may
/// sit above the whole statement rather than the exact line that names the
/// ordering. Bounded to 30 lines for pathological formatting.
fn statement_start(lines: &[LexLine], line: usize) -> usize {
    let mut l = line;
    for _ in 0..30 {
        // Nearest code-bearing line above `l`.
        let mut p = l;
        let mut above = None;
        while p > 0 {
            p -= 1;
            if !lines[p].is_code_blank() {
                above = Some(p);
                break;
            }
        }
        match above {
            Some(p) => {
                let t = lines[p].code.trim_end();
                if t.ends_with(';') || t.ends_with('{') || t.ends_with('}') {
                    return l;
                }
                l = p;
            }
            None => return l,
        }
    }
    l
}

/// Does the comment block on/above `line` contain `marker`? Used by
/// `safety-comment` (`SAFETY:`) and `ordering-justification` (`ordering:`).
fn comment_block_contains(lines: &[LexLine], line: usize, marker: &str) -> bool {
    if lines[line].comment.contains(marker) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        if !lines[l].is_code_blank() {
            // Trailing comment on the previous code line also counts: the
            // idiom `foo(); // SAFETY: …` above a continuation is rare but
            // a statement split across lines is not.
            return lines[l].comment.contains(marker);
        }
        if lines[l].comment.contains(marker) {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------------------
// The analysis pass
// ---------------------------------------------------------------------------

/// Is `path` inside the ordering-justification scope (the crates whose
/// atomics guard the seqlock / Merkle-lattice / fabric fast paths, plus
/// `kite-common`, whose packed membership cell gates every quorum and
/// voter-set read)?
fn in_ordering_scope(path: &str) -> bool {
    ["crates/kvs/src", "crates/lockfree/src", "crates/net/src", "crates/common/src"]
        .iter()
        .any(|p| path.contains(p))
}

/// Run every rule over one source file. `path` is the workspace-relative
/// label used for diagnostics and path-scoped rules.
pub fn analyze_source(path: &str, src: &str) -> Vec<Violation> {
    let lines = lex(src);
    let metas = track(&lines);
    let ordering_scoped = in_ordering_scope(path);
    let mut raw: Vec<Violation> = Vec::new();

    for (ln, line) in lines.iter().enumerate() {
        let meta = &metas[ln];
        let code = &line.code;
        let lineno = ln + 1;
        let mut push = |rule: Rule, message: String| {
            raw.push(Violation { file: path.to_string(), line: lineno, rule, message });
        };

        // safety-comment: everywhere, including tests.
        if has_word(code, "unsafe") && !comment_block_contains(&lines, ln, "SAFETY:") {
            push(
                Rule::SafetyComment,
                "`unsafe` without a `// SAFETY:` comment on the line or immediately above \
                 — state the proof of the invariants the compiler cannot check"
                    .to_string(),
            );
        }

        if meta.in_test {
            continue; // remaining rules are production-code rules
        }

        // no-alloc regions.
        if meta.regions & REGION_NO_ALLOC != 0 {
            for pat in ALLOC_CONSTRUCTS {
                if code.contains(pat) {
                    push(
                        Rule::NoAlloc,
                        format!(
                            "allocation construct `{pat}` inside a `kite-lint: no-alloc` region \
                             — steady-state hot paths draw from pools, they do not allocate"
                        ),
                    );
                }
            }
        }

        // total-decode regions.
        if meta.regions & REGION_TOTAL_DECODE != 0 {
            for pat in PANIC_CONSTRUCTS {
                if code.contains(pat) {
                    push(
                        Rule::TotalDecode,
                        format!(
                            "panic path `{pat}` inside a `kite-lint: total-decode` region \
                             — malformed input must flow to WireError/truncation, never a panic"
                        ),
                    );
                }
            }
            if let Some(col) = find_indexing(code) {
                push(
                    Rule::TotalDecode,
                    format!(
                        "slice indexing (col {}) inside a `kite-lint: total-decode` region \
                         — use `get(..)` / pattern destructuring so truncated input cannot panic",
                        col + 1
                    ),
                );
            }
        }

        // ordering-justification (path-scoped).
        if ordering_scoped {
            let bare = ["Ordering::Relaxed", "Ordering::Acquire", "Ordering::Release", "Ordering::AcqRel"]
                .iter()
                .any(|p| code.contains(p));
            if bare {
                let justified = comment_block_contains(&lines, ln, "ordering:")
                    || comment_block_contains(&lines, statement_start(&lines, ln), "ordering:")
                    || meta
                        .fn_decl
                        .is_some_and(|d| d > 0 && comment_block_contains(&lines, d - 1, "ordering:"))
                    || meta.fn_decl.is_some_and(|d| lines[d].comment.contains("ordering:"));
                if !justified {
                    push(
                        Rule::OrderingJustification,
                        "bare atomic ordering without an `// ordering:` justification on the \
                         statement or its enclosing function"
                            .to_string(),
                    );
                }
            }
        }

        // no-blocking-in-loop regions.
        if meta.regions & REGION_EVENT_LOOP != 0 {
            for pat in BLOCKING_CONSTRUCTS {
                if code.contains(pat) {
                    push(
                        Rule::NoBlockingInLoop,
                        format!(
                            "blocking call `{pat}` inside a `kite-lint: event-loop` region \
                             — a readiness loop that blocks stalls every fd it owns"
                        ),
                    );
                }
            }
        }
    }

    // Apply suppressions.
    let mut out = Vec::new();
    for v in raw {
        match allow_for(&lines, v.line - 1, v.rule) {
            Some(true) => {} // suppressed with reason
            Some(false) => {
                out.push(Violation {
                    message: format!(
                        "`kite-lint: allow({})` without a reason — write `allow({}) — <why>`",
                        v.rule.name(),
                        v.rule.name()
                    ),
                    rule: Rule::AllowWithoutReason,
                    ..v
                });
            }
            None => out.push(v),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Directories never descended into: build output, VCS state, and the
/// linter's own rule-violation fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Collect every workspace `.rs` file under `root`, sorted, as
/// `(relative-label, absolute-path)`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every `.rs` file under `root`. IO errors on individual files are
/// skipped (racing editors, dangling symlinks) — the workspace test runs on
/// a quiescent tree.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut all = Vec::new();
    for (rel, path) in workspace_files(root)? {
        if let Ok(src) = std::fs::read_to_string(&path) {
            all.extend(analyze_source(&rel, &src));
        }
    }
    Ok(all)
}
