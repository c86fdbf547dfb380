//! Fixture-based rule tests: for every rule, a violating snippet, a clean
//! counterpart, a reasoned suppression, and a reasonless suppression (which
//! must itself be flagged). Sources are inline strings fed straight to
//! [`kite_lint::analyze_source`] — no fixture files on disk, so the
//! workspace walk can never accidentally lint them.

use kite_lint::{analyze_source, Rule, Violation};

/// Violations of `rule` in `src`, linted under a path inside the
/// ordering-justification scope.
fn scoped(src: &str, rule: Rule) -> Vec<Violation> {
    analyze_source("crates/kvs/src/fixture.rs", src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

/// Violations of `rule` in `src`, linted under a neutral path.
fn plain(src: &str, rule: Rule) -> Vec<Violation> {
    analyze_source("crates/demo/src/fixture.rs", src)
        .into_iter()
        .filter(|v| v.rule == rule)
        .collect()
}

// ---------------------------------------------------------------------------
// no-alloc
// ---------------------------------------------------------------------------

#[test]
fn no_alloc_flags_allocation_in_annotated_region() {
    let src = r#"
// kite-lint: no-alloc
fn flush() {
    let batch: Vec<u8> = Vec::new();
    drop(batch);
}
"#;
    let v = plain(src, Rule::NoAlloc);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 4);
    assert!(v[0].message.contains("Vec::new"));
}

#[test]
fn no_alloc_ignores_unannotated_code_and_tests() {
    let src = r#"
fn unannotated() {
    let batch: Vec<u8> = Vec::new();
    drop(batch);
}

// kite-lint: no-alloc
fn hot() {
    let x = pool.pop();
}

#[cfg(test)]
mod tests {
    // kite-lint: no-alloc
    fn helper() {
        let v = vec![1, 2, 3];
    }
}
"#;
    assert!(plain(src, Rule::NoAlloc).is_empty());
}

#[test]
fn no_alloc_region_ends_at_the_closing_brace() {
    let src = r#"
// kite-lint: no-alloc
fn hot() {
    let x = 1;
}

fn cold() {
    let v = Vec::with_capacity(64);
}
"#;
    assert!(plain(src, Rule::NoAlloc).is_empty());
}

#[test]
fn no_alloc_suppression_with_reason_is_honored() {
    let src = r#"
// kite-lint: no-alloc
fn flush() {
    // kite-lint: allow(no-alloc) — pool-dry cold path; steady state pops.
    let replacement = Vec::with_capacity(64);
}
"#;
    assert!(plain(src, Rule::NoAlloc).is_empty());
    assert!(plain(src, Rule::AllowWithoutReason).is_empty());
}

#[test]
fn no_alloc_suppression_without_reason_is_flagged() {
    let src = r#"
// kite-lint: no-alloc
fn flush() {
    // kite-lint: allow(no-alloc)
    let replacement = Vec::with_capacity(64);
}
"#;
    assert!(plain(src, Rule::NoAlloc).is_empty());
    let v = plain(src, Rule::AllowWithoutReason);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn suppression_covers_a_wrapped_statement() {
    // The allow sits above the statement's first line; the violating
    // construct is on the continuation line.
    let src = r#"
// kite-lint: no-alloc
fn flush() {
    // kite-lint: allow(no-alloc) — pool-dry cold path only.
    let replacement =
        pool.pop().unwrap_or_else(|| Vec::with_capacity(64));
}
"#;
    assert!(plain(src, Rule::NoAlloc).is_empty());
}

#[test]
fn suppression_for_a_different_rule_does_not_apply() {
    let src = r#"
// kite-lint: no-alloc
fn flush() {
    // kite-lint: allow(total-decode) — wrong rule on purpose.
    let batch: Vec<u8> = Vec::new();
}
"#;
    assert_eq!(plain(src, Rule::NoAlloc).len(), 1);
}

// ---------------------------------------------------------------------------
// safety-comment
// ---------------------------------------------------------------------------

#[test]
fn unsafe_without_safety_comment_is_flagged() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let v = plain(src, Rule::SafetyComment);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 3);
}

#[test]
fn unsafe_with_safety_comment_above_is_clean() {
    let src = r#"
fn f(p: *const u8) -> u8 {
    // SAFETY: caller contract guarantees `p` is valid for reads.
    unsafe { *p }
}
"#;
    assert!(plain(src, Rule::SafetyComment).is_empty());
}

#[test]
fn safety_comment_applies_inside_tests_too() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        unsafe { core::hint::unreachable_unchecked() }
    }
}
"#;
    assert_eq!(plain(src, Rule::SafetyComment).len(), 1);
}

#[test]
fn unsafe_in_strings_and_comments_is_not_code() {
    let src = r##"
fn f() {
    let s = "unsafe";
    // unsafe in a comment
    let r = r#"unsafe"#;
}
"##;
    // The lexer must blank both literals and comments.
    assert!(plain(src, Rule::SafetyComment).is_empty());
}

// ---------------------------------------------------------------------------
// total-decode
// ---------------------------------------------------------------------------

#[test]
fn total_decode_flags_unwrap_and_indexing() {
    let src = r#"
// kite-lint: total-decode
fn decode(b: &[u8]) -> u32 {
    let x = b.first().unwrap();
    u32::from(b[0])
}
"#;
    let v = plain(src, Rule::TotalDecode);
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(v[0].message.contains(".unwrap()"));
    assert!(v[1].message.contains("indexing"));
}

#[test]
fn total_decode_allows_total_constructs() {
    let src = r#"
// kite-lint: total-decode
fn decode(b: &[u8]) -> Option<u32> {
    let arr: [u8; 4] = b.get(0..4)?.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}
"#;
    assert!(plain(src, Rule::TotalDecode).is_empty());
}

#[test]
fn total_decode_ignores_type_syntax_and_patterns() {
    // `&'a [u8]`, slice patterns and array literals are not indexing.
    let src = r#"
// kite-lint: total-decode
fn decode<'a>(buf: &'a [u8]) -> &'a [u8] {
    let [_a, _b] = [1u8, 2u8];
    let _arr = [0u8; 4];
    buf
}
"#;
    assert!(plain(src, Rule::TotalDecode).is_empty());
}

#[test]
fn total_decode_flags_panic_macros() {
    let src = r#"
// kite-lint: total-decode
fn decode(tag: u8) -> u8 {
    match tag {
        0 => 0,
        _ => unreachable!("bad tag"),
    }
}
"#;
    assert_eq!(plain(src, Rule::TotalDecode).len(), 1);
}

// ---------------------------------------------------------------------------
// ordering-justification
// ---------------------------------------------------------------------------

#[test]
fn bare_ordering_in_scoped_crate_is_flagged() {
    let src = r#"
fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    let v = scoped(src, Rule::OrderingJustification);
    assert_eq!(v.len(), 1, "{v:?}");
}

#[test]
fn ordering_comment_on_statement_or_fn_satisfies_the_rule() {
    let on_stmt = r#"
fn bump(c: &AtomicU64) {
    // ordering: monitoring counter; no payload behind it.
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    let on_fn = r#"
// ordering: everything here is a monitoring counter.
fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
"#;
    assert!(scoped(on_stmt, Rule::OrderingJustification).is_empty());
    assert!(scoped(on_fn, Rule::OrderingJustification).is_empty());
}

#[test]
fn ordering_comment_covers_multi_line_statements() {
    let src = r#"
fn claim(slot: &AtomicU64) -> bool {
    // ordering: Acquire on success pairs with the Release publish.
    slot.compare_exchange(
        0,
        1,
        Ordering::Acquire,
        Ordering::Relaxed,
    )
    .is_ok()
}
"#;
    assert!(scoped(src, Rule::OrderingJustification).is_empty());
}

#[test]
fn seqcst_needs_no_justification_and_scope_is_path_gated() {
    let seqcst = r#"
fn f(c: &AtomicU64) {
    c.store(1, Ordering::SeqCst);
}
"#;
    assert!(scoped(seqcst, Rule::OrderingJustification).is_empty());
    // Same bare Relaxed outside the scoped crates: not this rule's business.
    let bare = r#"
fn f(c: &AtomicU64) {
    c.store(1, Ordering::Relaxed);
}
"#;
    assert!(plain(bare, Rule::OrderingJustification).is_empty());
}

#[test]
fn kite_common_is_inside_the_ordering_scope() {
    // The packed membership cell (quorum/voter reads on every round) lives
    // in kite-common, so its atomics carry justifications too.
    let bare = r#"
fn epoch(cell: &AtomicU64) -> u32 {
    (cell.load(Ordering::Relaxed) >> 32) as u32
}
"#;
    let v: Vec<Violation> = analyze_source("crates/common/src/fixture.rs", bare)
        .into_iter()
        .filter(|v| v.rule == Rule::OrderingJustification)
        .collect();
    assert_eq!(v.len(), 1, "{v:?}");
}

// ---------------------------------------------------------------------------
// no-blocking-in-loop
// ---------------------------------------------------------------------------

#[test]
fn blocking_calls_in_event_loop_are_flagged() {
    let src = r#"
// kite-lint: event-loop
fn run(&mut self) {
    loop {
        std::thread::sleep(Duration::from_millis(1));
        let g = self.state.lock();
        self.stream.write_all(&buf);
    }
}
"#;
    let v = plain(src, Rule::NoBlockingInLoop);
    assert_eq!(v.len(), 3, "{v:?}");
}

#[test]
fn nonblocking_variants_are_clean() {
    let src = r#"
// kite-lint: event-loop
fn run(&mut self) {
    loop {
        while let Ok(c) = self.rx.try_recv() {
            self.register(c);
        }
        match self.poller.wait(&mut events, 0) {
            Ok(_) => {}
            Err(_) => break,
        }
    }
}
"#;
    assert!(plain(src, Rule::NoBlockingInLoop).is_empty());
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

#[test]
fn diagnostic_format_is_file_line_rule_message() {
    let src = "// kite-lint: no-alloc\nfn f() {\n    let v = Vec::new();\n}\n";
    let v = analyze_source("crates/x/src/y.rs", src);
    assert_eq!(v.len(), 1);
    let rendered = v[0].to_string();
    assert!(
        rendered.starts_with("crates/x/src/y.rs:3: no-alloc: "),
        "unexpected diagnostic: {rendered}"
    );
}
