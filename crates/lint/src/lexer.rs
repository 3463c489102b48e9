//! A minimal, dependency-free Rust lexer — just enough structure for the
//! determinism lint.
//!
//! The output is a flat stream of tokens (identifiers, numbers, and
//! punctuation, with `::` coalesced) carrying 1-based line numbers, plus the
//! list of line comments (where inline waivers live) and the list of string
//! literals (which the metrics-vocabulary pass inspects). Comments, string
//! literals, char literals, and raw/byte strings produce no *tokens*, so
//! `Instant::now` mentioned in a doc comment or inside an error message can
//! never fire a token rule. Raw identifiers (`r#fn`) lex as a single token
//! carrying the `r#` prefix, so they never collide with the keyword they
//! escape; a leading shebang line is skipped. [`strip_cfg_test`] then
//! removes every item annotated `#[cfg(test)]` — test modules may
//! legitimately read the host clock or temp dir.

/// One lexed token: an identifier, number, or punctuation character
/// (with `::` kept as a single token).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub text: String,
    pub line: u32,
}

/// One `//` line comment (doc comments included), without the leading `//`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineComment {
    pub text: String,
    pub line: u32,
}

/// One string literal (plain or raw; byte strings are skipped), with the
/// quotes and any `r#…#` fencing removed. Escape sequences are *not*
/// processed: the metrics-vocabulary pass only cares about plain
/// `[a-z0-9_]` names, which carry no escapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrLit {
    pub text: String,
    /// Line where the literal opens.
    pub line: u32,
}

/// The lexed form of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<LineComment>,
    pub strings: Vec<StrLit>,
}

/// Tokenize `src`. Never fails: unrecognized bytes become single-character
/// punctuation tokens, which simply never match any rule pattern.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut strings = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    // A shebang line (`#!/usr/bin/env …`) is not Rust tokens; `#![…]` inner
    // attributes are, so only skip when no `[` follows the `#!`.
    if b.first() == Some(&'#') && b.get(1) == Some(&'!') && b.get(2) != Some(&'[') {
        while i < b.len() && b[i] != '\n' {
            i += 1;
        }
    }
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && b.get(i + 1) == Some(&'/') {
            let start = i + 2;
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            comments.push(LineComment {
                text: b[start.min(i)..i].iter().collect(),
                line,
            });
        } else if c == '/' && b.get(i + 1) == Some(&'*') {
            i += 2;
            let mut depth = 1usize;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
        } else if c == '"' {
            let open_line = line;
            let end = skip_plain_string(&b, i, &mut line);
            strings.push(StrLit {
                text: b[i + 1..end.saturating_sub(1).max(i + 1)].iter().collect(),
                line: open_line,
            });
            i = end;
        } else if c == 'r'
            && b.get(i + 1) == Some(&'#')
            && b.get(i + 2).is_some_and(|&n| n.is_alphabetic() || n == '_')
        {
            // Raw identifier `r#fn`: one token, prefix kept, so it never
            // matches the keyword (or rule pattern) it escapes.
            let start = i;
            i += 2;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                text: b[start..i].iter().collect(),
                line,
            });
        } else if (c == 'r' || c == 'b') && string_prefix_len(&b, i).is_some() {
            let open_line = line;
            let start = i;
            let end = skip_prefixed_literal(&b, i, &mut line);
            if c == 'r' {
                // Raw (non-byte) string: capture the fenced content.
                let hashes = b[start + 1..end].iter().take_while(|&&h| h == '#').count();
                let body_start = start + 2 + hashes; // r, hashes, quote
                let body_end = end.saturating_sub(1 + hashes);
                if body_end > body_start {
                    strings.push(StrLit {
                        text: b[body_start..body_end].iter().collect(),
                        line: open_line,
                    });
                }
            }
            i = end;
        } else if c == '\'' {
            i = skip_char_or_lifetime(&b, i, &mut line);
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                text: b[start..i].iter().collect(),
                line,
            });
        } else if c.is_ascii_digit() {
            // Numbers (with suffixes / float dots) lex as one opaque token.
            let start = i;
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_' || b[i] == '.') {
                i += 1;
            }
            tokens.push(Token {
                text: b[start..i].iter().collect(),
                line,
            });
        } else if c == ':' && b.get(i + 1) == Some(&':') {
            tokens.push(Token {
                text: "::".to_string(),
                line,
            });
            i += 2;
        } else {
            tokens.push(Token {
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    Lexed {
        tokens,
        comments,
        strings,
    }
}

/// If position `i` starts a raw/byte string (`r"`, `r#"`, `b"`, `br#"`, …)
/// or a byte char (`b'`), return the length of the prefix before the quote.
fn string_prefix_len(b: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
        if b.get(j) == Some(&'\'') {
            return Some(j - i);
        }
    }
    let raw = b.get(j) == Some(&'r');
    if raw {
        j += 1;
        while b.get(j) == Some(&'#') {
            j += 1;
        }
    }
    (b.get(j) == Some(&'"') && (raw || j > i)).then_some(j - i)
}

/// Skip a string/char literal that starts with an `r`/`b` prefix at `i`.
fn skip_prefixed_literal(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i;
    if b.get(j) == Some(&'b') {
        j += 1;
        if b.get(j) == Some(&'\'') {
            return skip_char_or_lifetime(b, j, line);
        }
    }
    if b.get(j) == Some(&'r') {
        j += 1;
        let mut hashes = 0usize;
        while b.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
        j += 1; // opening quote
        while j < b.len() {
            if b[j] == '\n' {
                *line += 1;
                j += 1;
            } else if b[j] == '"'
                && b[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == '#')
                    .count()
                    == hashes
            {
                return j + 1 + hashes;
            } else {
                j += 1;
            }
        }
        j
    } else {
        skip_plain_string(b, j, line)
    }
}

/// Skip a `"…"` literal (escape-aware, may span lines); `i` is the quote.
fn skip_plain_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '"' => return j + 1,
            '\n' => {
                *line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    j
}

/// At a `'`: consume a char literal, or just the quote of a lifetime
/// (the lifetime's identifier then lexes as a harmless plain token).
fn skip_char_or_lifetime(b: &[char], i: usize, line: &mut u32) -> usize {
    if b.get(i + 1) == Some(&'\\') {
        let mut j = i + 2;
        while j < b.len() && b[j] != '\'' {
            if b[j] == '\n' {
                *line += 1;
            }
            j += 1;
        }
        j + 1
    } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1).is_some() {
        i + 3
    } else {
        i + 1
    }
}

/// Remove every item annotated with a plain `#[cfg(test)]` attribute: the
/// attribute tokens, the item's tokens (up to the matching `}` of its first
/// brace block, or the first top-level `;`), and any comments on the
/// item's line range. Waivers inside test code therefore neither apply nor
/// count as stale.
pub fn strip_cfg_test(lexed: Lexed) -> Lexed {
    const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let t = &lexed.tokens;
    let mut keep = vec![true; t.len()];
    let mut skipped_lines: Vec<(u32, u32)> = Vec::new();
    let mut i = 0;
    while i + ATTR.len() <= t.len() {
        if !ATTR.iter().enumerate().all(|(k, p)| t[i + k].text == *p) {
            i += 1;
            continue;
        }
        let start_line = t[i].line;
        let mut j = i + ATTR.len();
        let mut depth = 0usize;
        let mut end = t.len();
        while j < t.len() {
            match t[j].text.as_str() {
                "{" => depth += 1,
                "}" if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end_line = t.get(end.saturating_sub(1)).map_or(start_line, |x| x.line);
        for k in keep.iter_mut().take(end).skip(i) {
            *k = false;
        }
        skipped_lines.push((start_line, end_line));
        i = end;
    }
    let tokens = lexed
        .tokens
        .into_iter()
        .zip(keep)
        .filter_map(|(tok, k)| k.then_some(tok))
        .collect();
    let comments = lexed
        .comments
        .into_iter()
        .filter(|c| {
            !skipped_lines
                .iter()
                .any(|&(a, z)| c.line >= a && c.line <= z)
        })
        .collect();
    let strings = lexed
        .strings
        .into_iter()
        .filter(|s| {
            !skipped_lines
                .iter()
                .any(|&(a, z)| s.line >= a && s.line <= z)
        })
        .collect();
    Lexed {
        tokens,
        comments,
        strings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_paths() {
        assert_eq!(
            texts("let t = Instant::now();"),
            ["let", "t", "=", "Instant", "::", "now", "(", ")", ";"]
        );
    }

    #[test]
    fn strings_and_comments_produce_no_tokens() {
        let src = r##"
            // Instant::now in a line comment
            /* HashMap in /* a nested */ block comment */
            let s = "Instant::now() and HashMap";
            let r = r#"SystemTime"# ;
            let c = 'h'; let e = '\n'; let bs = b"thread_rng";
        "##;
        let toks = texts(src);
        for banned in ["Instant", "HashMap", "SystemTime", "thread_rng"] {
            assert!(
                !toks.contains(&banned.to_string()),
                "{banned} leaked: {toks:?}"
            );
        }
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("Instant::now"));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = texts("fn f<'a>(x: &'a str) { Instant::now(); }");
        assert!(toks
            .windows(3)
            .any(|w| w[0] == "Instant" && w[1] == "::" && w[2] == "now"));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\";\nlet t = Instant::now();";
        let lexed = lex(src);
        let now = lexed.tokens.iter().find(|t| t.text == "now").unwrap();
        assert_eq!(now.line, 3);
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = r#"
            pub fn live() {}
            #[cfg(test)]
            mod tests {
                // adavp-lint: allow(wallclock) — never seen
                use std::collections::HashMap;
                #[test]
                fn t() { let _ = HashMap::<u8, u8>::new(); }
            }
            pub fn also_live() {}
        "#;
        let lexed = strip_cfg_test(lex(src));
        let toks: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!toks.contains(&"HashMap"), "test body leaked: {toks:?}");
        assert!(toks.contains(&"also_live"), "code after test mod lost");
        assert!(lexed.comments.is_empty(), "comment inside test mod leaked");
    }

    #[test]
    fn cfg_test_on_single_statement_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\npub fn live() {}";
        let lexed = strip_cfg_test(lex(src));
        let toks: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!toks.contains(&"HashMap"));
        assert!(toks.contains(&"live"));
    }

    #[test]
    fn raw_identifiers_keep_their_prefix() {
        // `r#fn` is an identifier named `fn`, not the keyword; the token
        // carries the `r#` so the item indexer never misparses it, and
        // `r#unwrap` never matches a rule pattern written for `unwrap`.
        assert_eq!(
            texts("fn r#fn() { r#unwrap(); }"),
            ["fn", "r#fn", "(", ")", "{", "r#unwrap", "(", ")", ";", "}"]
        );
        // …but `r#"…"#` is still a raw string, not a raw identifier.
        let lexed = lex(r###"let s = r#"Instant"# ;"###);
        assert!(!lexed.tokens.iter().any(|t| t.text == "Instant"));
        assert_eq!(lexed.strings.len(), 1);
        assert_eq!(lexed.strings[0].text, "Instant");
    }

    #[test]
    fn shebang_is_skipped_but_inner_attrs_are_not() {
        let lexed = lex("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>(),
            ["fn", "main", "(", ")", "{", "}"]
        );
        assert_eq!(lexed.tokens[0].line, 2, "shebang still counts as a line");
        let attr = lex("#![forbid(unsafe_code)]");
        assert_eq!(attr.tokens[0].text, "#", "inner attribute survives");
        assert_eq!(attr.tokens.len(), 8);
    }

    #[test]
    fn nested_generic_close_is_two_tokens_not_a_shift() {
        let toks = texts("let v: Vec<Vec<u8>> = x >> 2;");
        let closes = toks.iter().filter(|t| *t == ">").count();
        assert_eq!(closes, 4, "both `>>` forms lex as individual `>`: {toks:?}");
        assert!(!toks.contains(&">>".to_string()));
    }

    #[test]
    fn float_literals_with_suffixes_are_one_opaque_token() {
        assert_eq!(
            texts("let x = 1.5f32 + 2e3f64 + 0x1Fu8;"),
            ["let", "x", "=", "1.5f32", "+", "2e3f64", "+", "0x1Fu8", ";"]
        );
    }

    #[test]
    fn doc_comment_markers_distinguish_inner_and_outer() {
        let lexed = lex("//! inner module doc\n/// outer item doc\n// plain\nfn f() {}\n");
        let texts: Vec<&str> = lexed.comments.iter().map(|c| c.text.as_str()).collect();
        assert_eq!(texts, ["! inner module doc", "/ outer item doc", " plain"]);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn string_literals_are_captured_with_lines() {
        let src = "fn f() {\n    let a = \"adavp_queue_depth\";\n    let b = b\"bytes\";\n}";
        let lexed = lex(src);
        assert_eq!(lexed.strings.len(), 1, "byte strings are not captured");
        assert_eq!(lexed.strings[0].text, "adavp_queue_depth");
        assert_eq!(lexed.strings[0].line, 2);
    }

    #[test]
    fn cfg_test_strips_string_literals_in_range() {
        let src = "pub fn live() { let _ = \"adavp_live\"; }\n#[cfg(test)]\nmod t {\n    fn g() { let _ = \"adavp_testonly\"; }\n}";
        let lexed = strip_cfg_test(lex(src));
        let texts: Vec<&str> = lexed.strings.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(texts, ["adavp_live"]);
    }
}
