//! Policy: `lint.toml` parsing and the inline-waiver grammar.
//!
//! The policy file is a small TOML subset parsed by hand (the lint is
//! dependency-free by design). Two constructs exist:
//!
//! ```toml
//! [rule.wallclock]
//! include = [
//!     "crates/core/src",
//!     "src",
//! ]
//!
//! [[allow]]
//! rule = "wallclock"
//! path = "crates/bench/src"
//! reason = "harness phase timing reports host wall-clock"
//! ```
//!
//! `include` lists the workspace-relative path prefixes a rule applies to
//! (a prefix matches the exact path or any path below it). Every rule in
//! [`crate::rules::RULES`] must have a section — an empty `include` is an
//! explicit, visible disable, a missing section is an error. `[[allow]]`
//! entries scope a rule out of a file or directory and must carry a
//! non-empty reason; the engine audits them and flags any that no longer
//! suppress a real finding.
//!
//! Inline waivers are line comments:
//!
//! ```text
//! // adavp-lint: allow(wallclock) — perf counters time real kernel work
//! ```
//!
//! A waiver suppresses findings of that rule on its own line (trailing
//! comment) or the line directly below, and must carry a reason after the
//! `—` (a plain `-` or `:` separator is accepted too).

use std::collections::BTreeMap;

/// One `[[allow]]` entry from `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyAllow {
    pub rule: String,
    /// Workspace-relative file path or directory prefix.
    pub path: String,
    pub reason: String,
    /// Line in `lint.toml` where the entry starts (for diagnostics).
    pub line: u32,
}

/// The parsed policy: per-rule include scopes plus audited allows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Policy {
    /// rule name → workspace-relative path prefixes the rule applies to.
    pub includes: BTreeMap<String, Vec<String>>,
    pub allows: Vec<PolicyAllow>,
    /// Legal metric name literals, extracted from `metrics::names` by
    /// [`load_policy`]; the `metrics-vocabulary` pass checks against this.
    pub metric_vocab: Vec<String>,
}

impl Policy {
    /// Does `rule` apply to the file at workspace-relative `path`?
    pub fn applies(&self, rule: &str, path: &str) -> bool {
        self.includes
            .get(rule)
            .is_some_and(|pre| pre.iter().any(|p| prefix_matches(p, path)))
    }
}

/// `prefix` matches `path` itself or anything below it as a directory.
pub fn prefix_matches(prefix: &str, path: &str) -> bool {
    path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Load and parse `<root>/lint.toml`, plus the metric-name vocabulary from
/// `crates/core/src/metrics/names.rs` when that file exists.
pub fn load_policy(root: &std::path::Path) -> Result<Policy, String> {
    let path = root.join("lint.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut policy = parse_policy(&text, &crate::rules::rule_names())?;
    let names = root.join("crates/core/src/metrics/names.rs");
    if names.is_file() {
        let src = std::fs::read_to_string(&names)
            .map_err(|e| format!("cannot read {}: {e}", names.display()))?;
        policy.metric_vocab = crate::passes::extract_vocabulary(&src);
    }
    Ok(policy)
}

/// Parse policy text. `known_rules` validates rule names; every known rule
/// must have a `[rule.<name>]` section.
pub fn parse_policy(text: &str, known_rules: &[&str]) -> Result<Policy, String> {
    enum Ctx {
        None,
        Rule(String),
        Allow(usize),
    }
    let mut policy = Policy::default();
    let mut ctx = Ctx::None;
    // Rules whose section carried an explicit `include =` key, plus the
    // section's line for the missing-include diagnostic.
    let mut saw_include: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut section_line: BTreeMap<String, u32> = BTreeMap::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx as u32 + 1;
        let line = strip_line_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line
            .strip_prefix("[rule.")
            .and_then(|s| s.strip_suffix(']'))
        {
            let name = name.trim();
            if !known_rules.contains(&name) {
                return Err(format!(
                    "lint.toml:{lineno}: unknown rule `{name}` — known rules are: {}",
                    known_rules.join(", ")
                ));
            }
            policy.includes.entry(name.to_string()).or_default();
            section_line.insert(name.to_string(), lineno);
            ctx = Ctx::Rule(name.to_string());
        } else if line == "[[allow]]" {
            policy.allows.push(PolicyAllow {
                rule: String::new(),
                path: String::new(),
                reason: String::new(),
                line: lineno,
            });
            ctx = Ctx::Allow(policy.allows.len() - 1);
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim();
            // Multi-line arrays: keep consuming lines until brackets close.
            let mut value = value.trim().to_string();
            if value.starts_with('[') && !value.contains(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_line_comment(cont);
                    value.push(' ');
                    value.push_str(cont.trim());
                    if cont.contains(']') {
                        break;
                    }
                }
            }
            match &ctx {
                Ctx::Rule(name) if key == "include" => {
                    let prefixes = parse_string_array(&value)
                        .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                    policy.includes.insert(name.clone(), prefixes);
                    saw_include.insert(name.clone());
                }
                Ctx::Allow(i) => {
                    let v = parse_string(&value).map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                    let allow = &mut policy.allows[*i];
                    match key {
                        "rule" => allow.rule = v,
                        "path" => allow.path = v,
                        "reason" => allow.reason = v,
                        other => {
                            return Err(format!("lint.toml:{lineno}: unknown allow key `{other}`"))
                        }
                    }
                }
                _ => {
                    return Err(format!(
                        "lint.toml:{lineno}: key `{key}` outside a valid section"
                    ))
                }
            }
        } else {
            return Err(format!("lint.toml:{lineno}: unrecognized line `{line}`"));
        }
    }
    for rule in known_rules {
        if !policy.includes.contains_key(*rule) {
            return Err(format!(
                "lint.toml: rule `{rule}` has no [rule.{rule}] section; \
                 add one (an empty include list disables it explicitly)"
            ));
        }
        if !saw_include.contains(*rule) {
            let at = section_line.get(*rule).copied().unwrap_or(0);
            return Err(format!(
                "lint.toml:{at}: [rule.{rule}] section is missing its `include` key; \
                 write `include = []` to disable the rule explicitly"
            ));
        }
    }
    for allow in &policy.allows {
        if !known_rules.contains(&allow.rule.as_str()) {
            return Err(format!(
                "lint.toml:{}: allow entry names unknown rule `{}`",
                allow.line, allow.rule
            ));
        }
        if allow.path.is_empty() {
            return Err(format!("lint.toml:{}: allow entry has no path", allow.line));
        }
        if allow.reason.trim().is_empty() {
            return Err(format!(
                "lint.toml:{}: allow entry for `{}` at `{}` must carry a reason",
                allow.line, allow.rule, allow.path
            ));
        }
    }
    Ok(policy)
}

/// Drop a trailing `#` comment (quote-aware).
fn strip_line_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got `{v}`"))
}

fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"...\"] array, got `{v}`"))?;
    let mut out = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        if rest == "," {
            break;
        }
        let after_open = rest
            .strip_prefix(',')
            .unwrap_or(rest)
            .trim_start()
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted string in array near `{rest}`"))?;
        let close = after_open
            .find('"')
            .ok_or_else(|| format!("unterminated string in array near `{rest}`"))?;
        out.push(after_open[..close].to_string());
        rest = after_open[close + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim();
    }
    Ok(out)
}

/// One parsed inline waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineWaiver {
    pub rule: String,
    pub reason: String,
    pub line: u32,
    /// `item=<name>` — waive across a whole fn/impl/mod (matched against
    /// the item index) instead of the same/next line.
    pub item: Option<String>,
    /// `bound=<N>` — the asserted maximum magnitude flowing into a
    /// narrowing cast; machine-checked against the cast target's range.
    pub bound: Option<u64>,
}

/// Result of inspecting one line comment for a waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WaiverParse {
    /// Comment does not mention `adavp-lint:` at all.
    NotAWaiver,
    Waiver(InlineWaiver),
    /// Malformed waiver (missing reason, unknown rule, bad syntax).
    Invalid(String),
}

/// Parse `// adavp-lint: allow(<rule>[, item=<name>][, bound=<N>]) — <reason>`
/// from a comment body. `cast-truncation` waivers must carry `bound=` — the
/// engine machine-checks it against the cast target's range.
pub fn parse_waiver(comment: &str, line: u32, known_rules: &[&str]) -> WaiverParse {
    // Doc comments arrive as `/ ...` / `! ...`; strip the markers.
    let t = comment.trim_start_matches(['/', '!']).trim();
    let Some(rest) = t.strip_prefix("adavp-lint:") else {
        return WaiverParse::NotAWaiver;
    };
    let rest = rest.trim();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return WaiverParse::Invalid(
            "waiver must have the form `adavp-lint: allow(<rule>[, item=<name>][, bound=<N>]) \
             — <reason>`"
                .to_string(),
        );
    };
    let Some(close) = rest.find(')') else {
        return WaiverParse::Invalid("waiver is missing `)` after the rule name".to_string());
    };
    let mut args = rest[..close].split(',').map(str::trim);
    let rule = args.next().unwrap_or("");
    if !known_rules.contains(&rule) {
        return WaiverParse::Invalid(format!("waiver names unknown rule `{rule}`"));
    }
    let mut item: Option<String> = None;
    let mut bound: Option<u64> = None;
    for arg in args {
        match arg.split_once('=').map(|(k, v)| (k.trim(), v.trim())) {
            Some(("item", v)) if !v.is_empty() => item = Some(v.to_string()),
            Some(("bound", v)) => match v.parse::<u64>() {
                Ok(n) => bound = Some(n),
                Err(_) => {
                    return WaiverParse::Invalid(format!(
                        "waiver bound `{v}` is not an unsigned integer"
                    ))
                }
            },
            _ => {
                return WaiverParse::Invalid(format!(
                    "unknown waiver argument `{arg}`; valid keys are `item=` and `bound=`"
                ))
            }
        }
    }
    if rule == "cast-truncation" && bound.is_none() {
        return WaiverParse::Invalid(
            "cast-truncation waivers must carry `bound=N` justifying the value range".to_string(),
        );
    }
    let mut reason = rest[close + 1..].trim();
    for sep in ["—", "--", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim();
            break;
        }
    }
    if reason.is_empty() {
        return WaiverParse::Invalid(format!("waiver for `{rule}` must carry a reason after `—`"));
    }
    WaiverParse::Waiver(InlineWaiver {
        rule: rule.to_string(),
        reason: reason.to_string(),
        line,
        item,
        bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[&str] = &["wallclock", "env"];

    #[test]
    fn parses_scopes_and_allows() {
        let text = r#"
            # a comment
            [rule.wallclock]
            include = [
                "crates/core/src",
                "src",
            ]

            [rule.env]
            include = ["crates/core/src"]

            [[allow]]
            rule = "wallclock"
            path = "crates/bench/src"
            reason = "bench timing"
        "#;
        let p = parse_policy(text, KNOWN).expect("parses");
        assert!(p.applies("wallclock", "crates/core/src/rt.rs"));
        assert!(p.applies("wallclock", "src/bin/adavp.rs"));
        assert!(
            !p.applies("wallclock", "srcfoo/lib.rs"),
            "component-aware prefixes"
        );
        assert!(!p.applies("env", "src/bin/adavp.rs"));
        assert_eq!(p.allows.len(), 1);
        assert_eq!(p.allows[0].reason, "bench timing");
    }

    #[test]
    fn missing_rule_section_is_an_error() {
        let err = parse_policy("[rule.wallclock]\ninclude = []\n", KNOWN).unwrap_err();
        assert!(err.contains("`env`"), "{err}");
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let text = "[rule.wallclock]\ninclude = []\n[rule.env]\ninclude = []\n\
                    [[allow]]\nrule = \"env\"\npath = \"src\"\nreason = \"\"\n";
        let err = parse_policy(text, KNOWN).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_rejected() {
        let err = parse_policy("[rule.bogus]\ninclude = []\n", KNOWN).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn waiver_grammar() {
        match parse_waiver(" adavp-lint: allow(wallclock) — timers are real", 7, KNOWN) {
            WaiverParse::Waiver(w) => {
                assert_eq!(w.rule, "wallclock");
                assert_eq!(w.reason, "timers are real");
                assert_eq!(w.line, 7);
                assert_eq!(w.item, None);
                assert_eq!(w.bound, None);
            }
            other => panic!("expected waiver, got {other:?}"),
        }
        assert_eq!(
            parse_waiver(" just a comment", 1, KNOWN),
            WaiverParse::NotAWaiver
        );
        assert!(matches!(
            parse_waiver(" adavp-lint: allow(wallclock)", 1, KNOWN),
            WaiverParse::Invalid(_)
        ));
        assert!(matches!(
            parse_waiver(" adavp-lint: allow(nope) — x", 1, KNOWN),
            WaiverParse::Invalid(_)
        ));
    }

    #[test]
    fn waiver_item_and_bound_arguments() {
        let known = &["cast-truncation", "panic-surface"];
        match parse_waiver(
            " adavp-lint: allow(cast-truncation, item=blur_row, bound=4080) — acc ≤ 16*255",
            3,
            known,
        ) {
            WaiverParse::Waiver(w) => {
                assert_eq!(w.rule, "cast-truncation");
                assert_eq!(w.item.as_deref(), Some("blur_row"));
                assert_eq!(w.bound, Some(4080));
                assert_eq!(w.reason, "acc ≤ 16*255");
            }
            other => panic!("expected waiver, got {other:?}"),
        }
        // cast-truncation without bound= is rejected at parse time.
        let v = parse_waiver(" adavp-lint: allow(cast-truncation, item=f) — x", 1, known);
        assert!(
            matches!(&v, WaiverParse::Invalid(m) if m.contains("bound=")),
            "{v:?}"
        );
        // Unknown argument keys and malformed bounds are rejected.
        assert!(matches!(
            parse_waiver(" adavp-lint: allow(panic-surface, scope=f) — x", 1, known),
            WaiverParse::Invalid(_)
        ));
        assert!(matches!(
            parse_waiver(
                " adavp-lint: allow(cast-truncation, bound=lots) — x",
                1,
                known
            ),
            WaiverParse::Invalid(_)
        ));
    }

    #[test]
    fn rule_section_without_include_key_is_an_error() {
        let err = parse_policy("[rule.wallclock]\n[rule.env]\ninclude = []\n", KNOWN).unwrap_err();
        assert!(err.contains("lint.toml:1"), "{err}");
        assert!(err.contains("missing its `include` key"), "{err}");
    }

    #[test]
    fn unknown_rule_diagnostic_lists_known_rules() {
        let err = parse_policy("[rule.bogus]\ninclude = []\n", KNOWN).unwrap_err();
        assert!(err.contains("known rules are: wallclock, env"), "{err}");
    }
}
