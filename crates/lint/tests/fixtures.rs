//! Per-rule fixture tests: each rule family has one fixture that must
//! fire and one that must stay silent, so a rule change that starts
//! over- or under-firing is caught here before it hits the CI gate.

use rina_lint::lexer::{lex, strip_test_items, Token};
use rina_lint::rules::{config, determinism, panics, wire};

fn toks(src: &str) -> Vec<Token> {
    strip_test_items(&lex(src))
}

#[test]
fn d1_fires_on_clock_threads_and_stays_silent_on_virtual_time() {
    let bad = determinism::check_d1("d1_bad.rs", &toks(include_str!("fixtures/d1_bad.rs")));
    let keys: Vec<&str> = bad.iter().map(|f| f.key.as_str()).collect();
    assert!(keys.contains(&"D1|d1_bad.rs|Instant"), "{keys:?}");
    assert!(keys.contains(&"D1|d1_bad.rs|SystemTime"), "{keys:?}");
    assert!(keys.contains(&"D1|d1_bad.rs|std::thread"), "{keys:?}");

    let ok = determinism::check_d1("d1_ok.rs", &toks(include_str!("fixtures/d1_ok.rs")));
    assert!(ok.is_empty(), "clean fixture flagged: {ok:?}");
}

#[test]
fn d2_fires_on_hash_iteration_and_accepts_sorted_or_ordered() {
    let bad = determinism::check_d2("d2_bad.rs", &toks(include_str!("fixtures/d2_bad.rs")));
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].key, "D2|d2_bad.rs|table");

    let ok = determinism::check_d2("d2_ok.rs", &toks(include_str!("fixtures/d2_ok.rs")));
    assert!(ok.is_empty(), "clean fixture flagged: {ok:?}");
}

#[test]
fn w1_fires_on_missing_read_and_accepts_symmetric_codec() {
    let bad = wire::check_w1("w1_bad.rs", &toks(include_str!("fixtures/w1_bad.rs")));
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0].key.contains("Beta"), "asymmetry not localized to the Beta arm: {bad:?}");

    let ok = wire::check_w1("w1_ok.rs", &toks(include_str!("fixtures/w1_ok.rs")));
    assert!(ok.is_empty(), "clean fixture flagged: {ok:?}");
}

#[test]
fn w1_read_side_surface_fires_and_accepts_view_peek() {
    let bad = wire::check_w1("w1_peek_bad.rs", &toks(include_str!("fixtures/w1_peek_bad.rs")));
    let keys: Vec<&str> = bad.iter().map(|f| f.key.as_str()).collect();
    assert!(keys.iter().any(|k| k.contains("Frame::peek|peek-on-non-view")), "{keys:?}");
    assert!(keys.iter().any(|k| k.contains("OnlyDec::decode|unpaired-read")), "{keys:?}");
    assert!(keys.iter().any(|k| k.contains("PatchView::peek|peek-writes")), "{keys:?}");
    assert_eq!(bad.len(), 3, "{keys:?}");

    let ok = wire::check_w1("w1_peek_ok.rs", &toks(include_str!("fixtures/w1_peek_ok.rs")));
    assert!(ok.is_empty(), "read-only *View peek flagged: {ok:?}");
}

#[test]
fn w1_accepts_rib_object_view_peek_and_flags_owned_peek() {
    let fs = wire::check_w1("w1_rib_peek.rs", &toks(include_str!("fixtures/w1_rib_peek.rs")));
    let keys: Vec<&str> = fs.iter().map(|f| f.key.as_str()).collect();
    assert_eq!(keys, ["W1|w1_rib_peek.rs|RibObject::peek|peek-on-non-view"], "{keys:?}");
}

#[test]
fn r1_fires_on_each_panic_kind_and_accepts_error_returns() {
    let bad = panics::check_r1("r1_bad.rs", &toks(include_str!("fixtures/r1_bad.rs")));
    let kinds: Vec<&str> =
        bad.iter().map(|f| f.key.rsplit('|').next().unwrap_or_default()).collect();
    for k in ["unwrap", "expect", "panic", "index"] {
        assert!(kinds.contains(&k), "missing kind {k}: {kinds:?}");
    }

    let ok = panics::check_r1("r1_ok.rs", &toks(include_str!("fixtures/r1_ok.rs")));
    assert!(ok.is_empty(), "clean fixture flagged: {ok:?}");
}

#[test]
fn c1_fires_on_undocumented_field_only() {
    let design = "| `name` | the DIF name |\n| `hello_period` | keepalive |\n`reliable` too.";
    let files = vec![("c1_src.rs".to_string(), toks(include_str!("fixtures/c1_src.rs")))];
    let fs = config::check_c1(design, &files);
    let keys: Vec<&str> = fs.iter().map(|f| f.key.as_str()).collect();
    assert_eq!(keys, ["C1|DifConfig|secret_knob"], "{keys:?}");
}
