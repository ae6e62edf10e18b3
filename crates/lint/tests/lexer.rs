//! Regression tests for the lexer: nested block comments, raw strings,
//! escaped newlines in literals, and pragma parsing — all cases where a
//! mis-lexed span would make rules fire inside text or miss real code.

use oasis_lint::lexer::{lex, PragmaParse, TokKind};

fn idents(src: &str) -> Vec<(String, u32)> {
    lex(src)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| (t.text, t.line))
        .collect()
}

#[test]
fn nested_block_comments_are_skipped_entirely() {
    // Rust block comments nest; a naive scanner would resume tokenizing
    // at the first `*/` and see `still_a_comment` as code.
    let src = "before\n/* outer /* inner */ still_a_comment */ after\n";
    assert_eq!(idents(src), vec![("before".to_string(), 1), ("after".to_string(), 2)]);
}

#[test]
fn deeply_nested_block_comment_tracks_lines() {
    let src = "/* a\n/* b\n/* c */\n*/\n*/ fn tail() {}\n";
    let ids = idents(src);
    assert_eq!(ids, vec![("fn".to_string(), 5), ("tail".to_string(), 5)]);
}

#[test]
fn raw_strings_with_hashes_do_not_leak_contents() {
    // The quote inside the raw string must not terminate it early, and
    // `Instant` inside must never become an identifier token.
    let src = r###"let s = r#"Instant::now() " quoted "#; done"###;
    let ids: Vec<String> = idents(src).into_iter().map(|(t, _)| t).collect();
    assert_eq!(ids, vec!["let", "s", "done"]);
}

#[test]
fn multiline_raw_string_advances_line_counter() {
    let src = "let s = r#\"line one\nline two\nline three\"#;\nafter\n";
    let ids = idents(src);
    assert_eq!(ids.last().unwrap(), &("after".to_string(), 4));
}

#[test]
fn raw_string_with_two_hashes() {
    let src = "let s = r##\"contains \"# inside\"##; tail";
    let ids: Vec<String> = idents(src).into_iter().map(|(t, _)| t).collect();
    assert_eq!(ids, vec!["let", "s", "tail"]);
}

#[test]
fn escaped_newline_in_string_counts_lines() {
    // A backslash-newline continuation inside a string literal spans two
    // source lines; tokens after it must land on the right line.
    let src = "let s = \"one \\\ntwo\";\nafter\n";
    let ids = idents(src);
    assert_eq!(ids.last().unwrap(), &("after".to_string(), 3));
}

#[test]
fn doc_comments_never_yield_pragmas_or_tokens() {
    let src = "/// oasis-lint: allow(wall-clock, \"doc text, not a pragma\")\nfn f() {}\n";
    let lexed = lex(src);
    assert!(lexed.pragmas.is_empty(), "doc comments are prose, not pragmas");
    let ids: Vec<String> =
        lexed.tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect();
    assert_eq!(ids, vec!["fn", "f"]);
}

#[test]
fn allow_and_boundary_pragmas_parse_with_raw_text() {
    let src = "// oasis-lint: allow(wall-clock, \"reason one\")\n\
               // oasis-lint: boundary(env-read, \"reason two\")\n";
    let lexed = lex(src);
    assert_eq!(lexed.pragmas.len(), 2);
    assert_eq!(
        lexed.pragmas[0].parse,
        PragmaParse::Allow { rule: "wall-clock".into(), reason: "reason one".into() }
    );
    assert_eq!(lexed.pragmas[0].line, 1);
    assert_eq!(
        lexed.pragmas[1].parse,
        PragmaParse::Boundary { rule: "env-read".into(), reason: "reason two".into() }
    );
    assert_eq!(lexed.pragmas[1].line, 2);
}

#[test]
fn malformed_pragmas_are_reported_not_dropped() {
    for bad in [
        "// oasis-lint: allow(wall-clock)",           // no reason
        "// oasis-lint: allow(wall-clock, \"\")",     // empty reason
        "// oasis-lint: boundary(Wall_Clock, \"x\")", // bad rule id
        "// oasis-lint: suppress(wall-clock, \"x\")", // unknown verb
    ] {
        let lexed = lex(bad);
        assert_eq!(lexed.pragmas.len(), 1, "pragma not captured: {bad}");
        assert!(
            matches!(lexed.pragmas[0].parse, PragmaParse::Malformed(_)),
            "should be malformed: {bad}"
        );
    }
}

#[test]
fn float_literals_lex_as_number_dot_number() {
    // The float-energy rule depends on this exact shape.
    let toks = lex("x == 0.5").tokens;
    let shape: Vec<(TokKind, &str)> = toks.iter().map(|t| (t.kind, t.text.as_str())).collect();
    assert_eq!(
        shape,
        vec![
            (TokKind::Ident, "x"),
            (TokKind::Punct, "="),
            (TokKind::Punct, "="),
            (TokKind::Number, "0"),
            (TokKind::Punct, "."),
            (TokKind::Number, "5"),
        ]
    );
}
