//! Flow-aware passes: checks that need token context, item spans, or
//! string literals rather than a flat forbidden-sequence match.
//!
//! Four passes (DESIGN.md §18):
//!
//! * **panic-surface** — `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` are deny-severity inside the scoped hot paths;
//!   slice/array index expressions (`buf[i]`, `&rows[a..b]`) are
//!   warn-severity (they panic on out-of-bounds but are pervasive in
//!   kernel code, so legacy sites ride the baseline while new ones are
//!   visible).
//! * **float-determinism** — transcendental / libm-dependent float calls
//!   (`sin`, `exp`, `powf`, `mul_add`, …) whose results are *not*
//!   correctly-rounded by IEEE-754 and therefore drift across libm
//!   versions. `sqrt` and arithmetic are exact and stay legal.
//! * **cast-truncation** — `as u8`/`as i16`/… narrowing casts in the
//!   fixed-point kernels; every scoped cast must sit inside an item
//!   waiver carrying `bound=N`, and the engine machine-checks `N` against
//!   the cast target's range.
//! * **metrics-vocabulary** — `"adavp_*"` metric-name literals must come
//!   from `metrics::names`, never be ad-hoc strings.

use crate::lexer::Lexed;
use crate::rules::Severity;

/// One raw pass finding, before waiver/baseline resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassFinding {
    pub line: u32,
    /// Stable sub-kind: the matched name (`unwrap`, `index`, `powf`,
    /// `u8`, or the offending literal). Feeds the fingerprint.
    pub category: String,
    pub severity: Severity,
    pub message: String,
}

/// Methods/macros that abort the hot path. `assert!` family is exempt:
/// it is the workspace's documented invariant style and fails loudly in
/// tests first.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [a, b]`, `match x { .. }`-adjacent forms, …).
const NON_INDEX_PREV: &[&str] = &[
    "let", "mut", "ref", "return", "in", "if", "else", "match", "loop", "while", "for", "break",
    "continue", "move", "as", "dyn", "impl", "where", "use", "pub", "fn", "const", "static",
    "type", "struct", "enum", "trait", "mod", "box", "await", "yield", "unsafe", "extern",
];

/// `panic-surface`: explicit panics (deny) and index expressions (warn).
pub fn panic_surface(lexed: &Lexed) -> Vec<PassFinding> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        let text = tok.text.as_str();
        // `.unwrap(` / `.expect(`
        if PANIC_METHODS.contains(&text)
            && i > 0
            && t[i - 1].text == "."
            && t.get(i + 1).is_some_and(|n| n.text == "(")
        {
            out.push(PassFinding {
                line: tok.line,
                category: text.to_string(),
                severity: Severity::Deny,
                message: format!(
                    "`.{text}()` aborts the hot path; return the error or prove the \
                     invariant with an item waiver"
                ),
            });
        }
        // `panic!` / `unreachable!` / …
        if PANIC_MACROS.contains(&text) && t.get(i + 1).is_some_and(|n| n.text == "!") {
            out.push(PassFinding {
                line: tok.line,
                category: format!("{text}!"),
                severity: Severity::Deny,
                message: format!("`{text}!` aborts the hot path"),
            });
        }
        // Index expressions: `expr[` where expr ends in an identifier,
        // `)`, or `]`. Attributes (`#[…]`), macros (`vec![…]`), array
        // types/literals (`[u8; 4]`, `= [1, 2]`) all have a different
        // preceding token and never match.
        if text == "[" && i > 0 {
            let prev = t[i - 1].text.as_str();
            let ident_like = prev
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && !NON_INDEX_PREV.contains(&prev)
                && !prev.starts_with("r#");
            if ident_like || prev == ")" || prev == "]" {
                out.push(PassFinding {
                    line: tok.line,
                    category: "index".to_string(),
                    severity: Severity::Warn,
                    message: format!(
                        "index expression after `{prev}` can panic out-of-bounds; prefer \
                         spans/`get`/iterators in hot paths"
                    ),
                });
            }
        }
    }
    out
}

/// Float methods whose results depend on the libm implementation. `sqrt`,
/// `abs`, `floor`/`ceil`/`round`, `powi`, and plain arithmetic are
/// IEEE-exact and allowed.
const TRANSCENDENTAL: &[&str] = &[
    "sin", "cos", "tan", "asin", "acos", "atan", "atan2", "sin_cos", "sinh", "cosh", "tanh",
    "asinh", "acosh", "atanh", "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10",
    "powf", "cbrt", "hypot", "mul_add",
];

/// `float-determinism`: `.sin(`-style method calls and `f32::sin`-style
/// path calls to libm-backed functions.
pub fn float_determinism(lexed: &Lexed) -> Vec<PassFinding> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        let text = tok.text.as_str();
        if !TRANSCENDENTAL.contains(&text) {
            continue;
        }
        let method_call =
            i > 0 && t[i - 1].text == "." && t.get(i + 1).is_some_and(|n| n.text == "(");
        let path_call =
            i >= 2 && t[i - 1].text == "::" && matches!(t[i - 2].text.as_str(), "f32" | "f64");
        if method_call || path_call {
            out.push(PassFinding {
                line: tok.line,
                category: text.to_string(),
                severity: Severity::Deny,
                message: format!(
                    "`{text}` is libm-dependent and not correctly-rounded; results drift \
                     across toolchains — use fixed-point, tables, or waive with a reason"
                ),
            });
        }
    }
    out
}

/// Integer cast targets the truncation audit watches, with the largest
/// magnitude each can hold (used to machine-check waiver bounds).
pub const NARROW_CASTS: &[(&str, u64)] = &[
    ("u8", u8::MAX as u64),
    ("i8", i8::MAX as u64),
    ("u16", u16::MAX as u64),
    ("i16", i16::MAX as u64),
    ("u32", u32::MAX as u64),
    ("i32", i32::MAX as u64),
];

/// Largest magnitude a narrow cast target can represent, if it is one the
/// audit watches.
pub fn cast_target_max(target: &str) -> Option<u64> {
    NARROW_CASTS
        .iter()
        .find(|(t, _)| *t == target)
        .map(|&(_, m)| m)
}

/// `cast-truncation`: every `as <narrow-int>` in scope. The engine
/// requires an item waiver with a `bound=` that fits the target type.
pub fn cast_truncation(lexed: &Lexed) -> Vec<PassFinding> {
    let t = &lexed.tokens;
    let mut out = Vec::new();
    for w in t.windows(2) {
        if w[0].text != "as" {
            continue;
        }
        let target = w[1].text.as_str();
        if cast_target_max(target).is_some() {
            out.push(PassFinding {
                line: w[1].line,
                category: target.to_string(),
                severity: Severity::Deny,
                message: format!(
                    "`as {target}` narrowing truncates silently; cover the enclosing fn \
                     with `allow(cast-truncation, item=…, bound=N)` citing the value bound"
                ),
            });
        }
    }
    out
}

/// `metrics-vocabulary`: `"adavp_*"` string literals must be drawn from
/// the `metrics::names` constants (passed in as `vocab`).
pub fn metrics_vocabulary(lexed: &Lexed, vocab: &[String]) -> Vec<PassFinding> {
    let mut out = Vec::new();
    for s in &lexed.strings {
        let name_shaped = s.text.starts_with("adavp_")
            && s.text
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if name_shaped && !vocab.contains(&s.text) {
            out.push(PassFinding {
                line: s.line,
                category: s.text.clone(),
                severity: Severity::Deny,
                message: format!(
                    "metric name literal \"{}\" is not a `metrics::names` constant; \
                     ad-hoc names break the producer/consumer vocabulary",
                    s.text
                ),
            });
        }
    }
    out
}

/// Extract the metric-name vocabulary from `metrics/names.rs` source: the
/// value of every `pub const NAME: &str = "…";`.
pub fn extract_vocabulary(names_src: &str) -> Vec<String> {
    let lexed = crate::lexer::lex(names_src);
    // Pair each string literal with the presence of a `const` token earlier
    // on its line; names.rs is a flat list of consts, so every literal on a
    // `const` line is a vocabulary entry.
    let const_lines: std::collections::BTreeSet<u32> = lexed
        .tokens
        .windows(2)
        .filter(|w| w[0].text == "const")
        .map(|w| w[0].line)
        .collect();
    let mut vocab: Vec<String> = lexed
        .strings
        .iter()
        .filter(|s| const_lines.contains(&s.line))
        .map(|s| s.text.clone())
        .collect();
    vocab.sort();
    vocab.dedup();
    vocab
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn cats(findings: &[PassFinding]) -> Vec<&str> {
        findings.iter().map(|f| f.category.as_str()).collect()
    }

    #[test]
    fn panic_surface_flags_methods_and_macros() {
        let lexed = lex("fn f(x: Option<u8>) -> u8 {\n    let v = x.unwrap();\n    x.expect(\"y\");\n    panic!(\"no\");\n    unreachable!()\n}");
        let f = panic_surface(&lexed);
        assert_eq!(cats(&f), ["unwrap", "expect", "panic!", "unreachable!"]);
        assert!(f.iter().all(|x| x.severity == Severity::Deny));
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn panic_surface_index_is_warn_and_skips_non_index_brackets() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f(b: &[u8], i: usize) -> u8 {\n    let a = [1u8, 2];\n    let v: [u8; 2] = a;\n    let x = vec![1];\n    b[i] + v[0]\n}";
        let f = panic_surface(&lex(src));
        assert_eq!(cats(&f), ["index", "index"]);
        assert!(f.iter().all(|x| x.severity == Severity::Warn));
        assert!(f.iter().all(|x| x.line == 7));
    }

    #[test]
    fn unwrap_without_receiver_dot_is_not_flagged() {
        // A free fn named unwrap, or `Option::unwrap` used as a path value,
        // is not a `.unwrap()` call site.
        let f = panic_surface(&lex("fn g() { unwrap(); let _ = Option::<u8>::unwrap; }"));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_determinism_flags_method_and_path_calls_not_sqrt() {
        let src = "fn f(x: f32) -> f32 {\n    let a = x.sin() + x.powf(2.0) + f32::ln(x);\n    let b = x.sqrt() + x.abs() + x.powi(2);\n    a.mul_add(b, 1.0)\n}";
        let f = float_determinism(&lex(src));
        assert_eq!(cats(&f), ["sin", "powf", "ln", "mul_add"]);
    }

    #[test]
    fn float_determinism_ignores_fields_and_unrelated_idents() {
        let f = float_determinism(&lex(
            "struct P { exp: f32 }\nfn f(p: P) -> f32 { let ln = p.exp; ln }",
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cast_truncation_flags_narrowing_targets_only() {
        let src = "fn f(x: u32) -> u8 {\n    let a = x as u8;\n    let b = x as u64;\n    let c = x as f32;\n    let d = (x as i16) as usize;\n    a + (b as u8) + c as u8 + d as u8\n}";
        let f = cast_truncation(&lex(src));
        assert_eq!(cats(&f), ["u8", "i16", "u8", "u8", "u8"]);
        assert!(f.iter().all(|x| x.severity == Severity::Deny));
    }

    #[test]
    fn metrics_vocabulary_checks_adavp_literals_against_vocab() {
        let vocab = vec!["adavp_cycles_total".to_string()];
        let src = "fn f() {\n    reg.inc(\"adavp_cycles_total\");\n    reg.inc(\"adavp_made_up\");\n    log(\"not a metric\");\n    note(\"adavp mixed Case\");\n}";
        let f = metrics_vocabulary(&lex(src), &vocab);
        assert_eq!(cats(&f), ["adavp_made_up"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn vocabulary_extraction_reads_const_names() {
        let src = "/// doc\npub const A: &str = \"adavp_a\";\npub const B: &str = \"adavp_b\";\nfn not_a_const() { let _ = \"adavp_x\"; }";
        assert_eq!(extract_vocabulary(src), ["adavp_a", "adavp_b"]);
    }
}
