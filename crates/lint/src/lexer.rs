//! A comment/string/raw-string-aware Rust tokenizer.
//!
//! Deliberately shallow: it produces just enough structure (identifiers,
//! number literals, punctuation, string/char literals, lifetimes, line
//! numbers) for token-sequence pattern matching, without building a syntax
//! tree. Comments and string literals become opaque — rule patterns can
//! never fire inside them — and `// oasis-lint: allow(...)` suppression
//! pragmas are captured while comments are skipped.

/// Token classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (raw identifiers lose their `r#` prefix).
    Ident,
    /// Integer-ish literal (digits, underscores, radix prefix, suffix).
    Number,
    /// A single punctuation character.
    Punct,
    /// String, byte-string or raw-string literal (contents opaque).
    Str,
    /// Character or byte-character literal.
    CharLit,
    /// Lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (identifier name, number digits, or the single
    /// punctuation character; empty-ish placeholder for literals).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// Result of parsing one `oasis-lint:` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PragmaParse {
    /// A well-formed `allow(<rule>, "<reason>")`: suppresses findings of
    /// the rule on the pragma's line or the line directly below.
    Allow {
        /// Rule identifier being suppressed.
        rule: String,
        /// The written justification (non-empty).
        reason: String,
    },
    /// A well-formed `boundary(<rule>, "<reason>")`: attaches to the
    /// function declared directly below, suppresses findings of the rule
    /// throughout that function, and stops determinism taint of the
    /// matching kind from propagating through it in the call graph.
    Boundary {
        /// Rule (or taint-kind) identifier the boundary justifies.
        rule: String,
        /// The written justification (non-empty).
        reason: String,
    },
    /// The comment mentioned `oasis-lint` but did not parse.
    Malformed(String),
}

/// A suppression pragma found in a comment.
#[derive(Clone, Debug)]
pub struct Pragma {
    /// Parse outcome.
    pub parse: PragmaParse,
    /// 1-based line the comment sits on.
    pub line: u32,
}

/// Tokenized source plus the pragmas its comments carried.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream.
    pub tokens: Vec<Tok>,
    /// All `oasis-lint:` pragmas, in source order.
    pub pragmas: Vec<Pragma>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Parses the body of a line comment for an `oasis-lint:` pragma.
///
/// Accepted forms: `oasis-lint: allow(<rule-id>, "<reason>")` and
/// `oasis-lint: boundary(<rule-id>, "<reason>")`, with optional
/// surrounding text before the marker and after the closing parenthesis.
fn parse_pragma(comment: &str, line: u32) -> Option<Pragma> {
    let marker = "oasis-lint";
    let at = comment.find(marker)?;
    let malformed =
        |why: &str| Some(Pragma { parse: PragmaParse::Malformed(why.to_string()), line });
    let rest = comment[at + marker.len()..].trim_start();
    let Some(rest) = rest.strip_prefix(':') else {
        return malformed("expected `oasis-lint: allow|boundary(<rule>, \"<reason>\")`");
    };
    let rest = rest.trim_start();
    let (is_boundary, rest) = if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else if let Some(r) = rest.strip_prefix("boundary(") {
        (true, r)
    } else {
        return malformed("expected `allow(<rule>, \"<reason>\")` or `boundary(<rule>, \"<reason>\")` after `oasis-lint:`");
    };
    let Some(comma) = rest.find(',') else {
        return malformed("missing `, \"<reason>\"` — every suppression needs a written reason");
    };
    let rule = rest[..comma].trim().to_string();
    if rule.is_empty()
        || !rule.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
    {
        return malformed("rule id must be a lowercase-kebab identifier");
    }
    let after = rest[comma + 1..].trim_start();
    let Some(after) = after.strip_prefix('"') else {
        return malformed("reason must be a double-quoted string");
    };
    let Some(endq) = after.find('"') else {
        return malformed("unterminated reason string");
    };
    let reason = after[..endq].trim().to_string();
    if reason.is_empty() {
        return malformed("reason must not be empty");
    }
    if !after[endq + 1..].trim_start().starts_with(')') {
        return malformed("expected `)` after the reason string");
    }
    let parse = if is_boundary {
        PragmaParse::Boundary { rule, reason }
    } else {
        PragmaParse::Allow { rule, reason }
    };
    Some(Pragma { parse, line })
}

/// Tokenizes `src`, capturing suppression pragmas along the way.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Advances past a quoted string body starting *after* the opening
    // quote, honoring backslash escapes; returns the index after the
    // closing quote and the number of newlines crossed.
    let scan_quoted = |chars: &[char], mut j: usize, quote: char| -> (usize, u32) {
        let mut newlines = 0;
        while j < chars.len() {
            match chars[j] {
                '\\' => {
                    // An escaped character still counts toward the line
                    // number when it is a newline (string continuations:
                    // `"...\` at end of line).
                    if chars.get(j + 1) == Some(&'\n') {
                        newlines += 1;
                    }
                    j += 2;
                }
                c if c == quote => return (j + 1, newlines),
                '\n' => {
                    newlines += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        (j, newlines)
    };

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment. Pragmas live in plain `//` comments only — doc
        // comments (`///`, `//!`) are documentation and may *mention*
        // pragma syntax without being one.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let doc = matches!(chars.get(i + 2), Some(&'/') | Some(&'!'));
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            if !doc {
                let text: String = chars[start..i].iter().collect();
                if let Some(p) = parse_pragma(&text, line) {
                    out.pragmas.push(p);
                }
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings, byte strings, raw identifiers: r" r#..." b" b' br" br#...
        if c == 'r' || c == 'b' {
            let mut j = i + 1;
            let mut saw_r = c == 'r';
            if c == 'b' && chars.get(j) == Some(&'r') {
                saw_r = true;
                j += 1;
            }
            if saw_r {
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    // Raw (byte) string: scan to `"` followed by `hashes` #s.
                    // A `"` followed by *fewer* hashes is string content
                    // (`r##"a "# b"##`), and escapes are inert. The token
                    // reports the line the literal *starts* on.
                    let start_line = line;
                    j += 1;
                    loop {
                        if j >= n {
                            break;
                        }
                        if chars[j] == '\n' {
                            line += 1;
                            j += 1;
                            continue;
                        }
                        if chars[j] == '"'
                            && chars[j + 1..].iter().take(hashes).filter(|&&h| h == '#').count()
                                == hashes
                        {
                            j += 1 + hashes;
                            break;
                        }
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                if c == 'r' && hashes == 1 && chars.get(j).copied().is_some_and(is_ident_start) {
                    // Raw identifier r#foo: token text keeps only `foo`.
                    let start = j;
                    while j < n && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    let text: String = chars[start..j].iter().collect();
                    out.tokens.push(Tok { kind: TokKind::Ident, text, line });
                    i = j;
                    continue;
                }
                // Fall through: plain identifier starting with r/b.
            }
            if c == 'b' && chars.get(i + 1) == Some(&'"') {
                let (end, nl) = scan_quoted(&chars, i + 2, '"');
                out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
                line += nl;
                i = end;
                continue;
            }
            if c == 'b' && chars.get(i + 1) == Some(&'\'') {
                let (end, nl) = scan_quoted(&chars, i + 2, '\'');
                out.tokens.push(Tok { kind: TokKind::CharLit, text: String::new(), line });
                line += nl;
                i = end;
                continue;
            }
        }
        if c == '"' {
            let (end, nl) = scan_quoted(&chars, i + 1, '"');
            out.tokens.push(Tok { kind: TokKind::Str, text: String::new(), line });
            line += nl;
            i = end;
            continue;
        }
        if c == '\'' {
            // Disambiguate char literal from lifetime/label: `'x'` is a
            // char, `'\...'` is a char, `'ident` (no closing quote after
            // one char) is a lifetime.
            if chars.get(i + 1) == Some(&'\\') {
                let (end, nl) = scan_quoted(&chars, i + 1, '\'');
                out.tokens.push(Tok { kind: TokKind::CharLit, text: String::new(), line });
                line += nl;
                i = end;
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                out.tokens.push(Tok { kind: TokKind::CharLit, text: String::new(), line });
                i += 3;
                continue;
            }
            let mut j = i + 1;
            while j < n && is_ident_continue(chars[j]) {
                j += 1;
            }
            let text: String = chars[i + 1..j].iter().collect();
            out.tokens.push(Tok { kind: TokKind::Lifetime, text, line });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Tok { kind: TokKind::Number, text, line });
            continue;
        }
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            out.tokens.push(Tok { kind: TokKind::Ident, text, line });
            continue;
        }
        out.tokens.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

/// `true` if the number-literal text equals `want`, honoring underscores,
/// radix prefixes and type suffixes (`4_096u64`, `0x1000`, …).
pub fn number_is(text: &str, want: u64) -> bool {
    let t = text.replace('_', "");
    let (radix, digits) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (16, h)
    } else if let Some(o) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (8, o)
    } else if let Some(b) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (2, b)
    } else {
        (10, t.as_str())
    };
    let core: String = digits.chars().take_while(|c| c.is_digit(radix)).collect();
    if core.is_empty() {
        return false;
    }
    u64::from_str_radix(&core, radix).map(|v| v == want).unwrap_or(false)
}
