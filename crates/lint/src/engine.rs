//! The lint engine: applies the rule table (flat token rules + flow-aware
//! passes) to one source string or to the whole workspace, resolves policy
//! allows, inline waivers (line- and item-scoped), and the checked-in debt
//! baseline, tracks waiver hit counts (a waiver that suppresses nothing is
//! *stale*), and renders the violation, waiver-audit, and `--json` reports.

use crate::baseline::{fingerprint, Baseline, BaselineEntry};
use crate::items::ItemIndex;
use crate::lexer::{self, Token};
use crate::policy::{parse_waiver, InlineWaiver, Policy, WaiverParse};
use crate::rules::{pattern_display, PassKind, RuleKind, Severity, RULES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub line: u32,
    /// Enclosing item path (`mod::fn`), `-` outside any indexed item.
    pub item: String,
    /// Stable sub-kind (matched pattern, method name, cast target, …).
    pub category: String,
    pub severity: Severity,
    /// FNV-1a over (rule, path, item, category) — line-independent, so the
    /// baseline survives reformatting. See [`crate::baseline`].
    pub fingerprint: String,
    pub message: String,
}

impl Finding {
    pub fn display(&self) -> String {
        let site = if self.item == "-" {
            String::new()
        } else {
            format!(" (in {})", self.item)
        };
        format!(
            "{}:{}: [{}/{}] {}{}",
            self.path,
            self.line,
            self.rule,
            self.severity.label(),
            self.message,
            site
        )
    }
}

/// Where a waiver was declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaiverSource {
    /// `// adavp-lint: allow(<rule>…) — <reason>` at a call site.
    Inline,
    /// `[[allow]]` entry in `lint.toml`.
    Policy,
}

/// One active waiver plus how many findings it suppressed this run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverUse {
    pub rule: String,
    /// `path:line` for inline waivers, the path prefix for policy allows.
    pub site: String,
    pub reason: String,
    pub source: WaiverSource,
    pub hits: usize,
}

/// A baseline entry tolerating more findings than the live tree has: the
/// debt shrank and the entry must be ratcheted down (fails `--fix-check`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleBaseline {
    pub entry: BaselineEntry,
    /// Findings actually matched this run (strictly less than entry.count).
    pub live: usize,
}

/// Lint result for one source file (see [`lint_source`]).
#[derive(Debug, Default)]
pub struct FileOutcome {
    pub findings: Vec<Finding>,
    pub inline_waivers: Vec<WaiverUse>,
    /// Suppression count per `policy.allows` index.
    pub policy_hits: Vec<usize>,
}

/// Aggregated result over a workspace run. `findings` is post-waiver and
/// post-baseline: what remains is live debt.
#[derive(Debug, Default)]
pub struct Outcome {
    pub findings: Vec<Finding>,
    pub waivers: Vec<WaiverUse>,
    pub files_scanned: usize,
    /// Findings absorbed by the checked-in `lint.baseline`.
    pub baseline_suppressed: usize,
    pub stale_baseline: Vec<StaleBaseline>,
}

impl Outcome {
    /// Deny-severity findings: these fail every run.
    pub fn deny_findings(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Deny)
            .collect()
    }

    /// Warn-severity findings: reported always, fatal only under `--strict`.
    pub fn warn_findings(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .collect()
    }

    /// Waivers that suppressed nothing: dead policy weight that `--fix-check`
    /// refuses, so scopes cannot silently rot wider than reality. An item
    /// waiver whose fn was deleted lands here too.
    pub fn stale_waivers(&self) -> Vec<&WaiverUse> {
        self.waivers.iter().filter(|w| w.hits == 0).collect()
    }

    /// Deny findings, stale waivers, and stale baseline entries all clean.
    pub fn fix_check_ok(&self) -> bool {
        self.deny_findings().is_empty()
            && self.stale_waivers().is_empty()
            && self.stale_baseline.is_empty()
    }

    /// One line per violation.
    pub fn violation_report(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}", f.display());
        }
        out
    }

    /// The `--report` audit table of every active waiver, followed by
    /// per-rule waiver counts with their sites.
    pub fn waiver_report(&self) -> String {
        let mut out = String::new();
        let stale = self.stale_waivers().len();
        let _ = writeln!(
            out,
            "adavp-lint waiver audit: {} active waiver(s), {} stale, {} baselined finding(s)",
            self.waivers.len(),
            stale,
            self.baseline_suppressed
        );
        let _ = writeln!(
            out,
            "  {:<20} {:<44} {:<6} {:>4}  reason",
            "rule", "site", "kind", "hits"
        );
        for w in &self.waivers {
            let kind = match w.source {
                WaiverSource::Inline => "inline",
                WaiverSource::Policy => "policy",
            };
            let _ = writeln!(
                out,
                "  {:<20} {:<44} {:<6} {:>4}  {}",
                w.rule, w.site, kind, w.hits, w.reason
            );
        }
        let mut per_rule: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for w in &self.waivers {
            per_rule.entry(&w.rule).or_default().push(&w.site);
        }
        let _ = writeln!(out, "per-rule waiver counts:");
        for (rule, sites) in &per_rule {
            let _ = writeln!(
                out,
                "  {:<20} {:>4}  {}",
                rule,
                sites.len(),
                sites.join(", ")
            );
        }
        out
    }

    /// Machine-readable report. Deterministic: findings are already sorted,
    /// nothing time- or environment-dependent is included, so two runs over
    /// the same tree are byte-identical.
    pub fn json_report(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"adavp-lint/1\",\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"counts\": {{\"deny\": {}, \"warn\": {}, \"baseline_suppressed\": {}, \
             \"stale_baseline\": {}, \"waivers\": {}, \"stale_waivers\": {}}},",
            self.deny_findings().len(),
            self.warn_findings().len(),
            self.baseline_suppressed,
            self.stale_baseline.len(),
            self.waivers.len(),
            self.stale_waivers().len()
        );
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"item\": {}, \
                 \"category\": {}, \"severity\": {}, \"fingerprint\": {}, \"message\": {}}}",
                json_str(&f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.item),
                json_str(&f.category),
                json_str(f.severity.label()),
                json_str(&f.fingerprint),
                json_str(&f.message)
            );
        }
        if self.findings.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"stale_baseline\": [");
        for (i, s) in self.stale_baseline.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"fingerprint\": {}, \"tolerated\": {}, \"live\": {}}}",
                json_str(&s.entry.fingerprint),
                s.entry.count,
                s.live
            );
        }
        if self.stale_baseline.is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One raw candidate before waiver resolution, shared by all rule kinds.
struct Candidate {
    line: u32,
    category: String,
    severity: Severity,
    message: String,
}

/// Does waiver `item=` name `name` cover the item path `item`? Matches the
/// item itself, a suffix segment (`blur_row` covers `simd::blur_row`), or
/// an ancestor (`Row` covers `Row::width`).
fn item_covers(item: &str, name: &str) -> bool {
    item == name
        || item.ends_with(&format!("::{name}"))
        || item.starts_with(&format!("{name}::"))
        || item.contains(&format!("::{name}::"))
}

/// Lint a single file's source. `rel_path` is the workspace-relative path
/// (`/`-separated) used for rule scoping and in findings.
pub fn lint_source(rel_path: &str, src: &str, policy: &Policy) -> FileOutcome {
    let known = crate::rules::rule_names();
    let lexed = lexer::strip_cfg_test(lexer::lex(src));
    let index = ItemIndex::build(&lexed.tokens);
    let enclosing = |line: u32| -> String {
        index
            .enclosing(line)
            .map(|i| i.path.clone())
            .unwrap_or_else(|| "-".to_string())
    };
    let mut out = FileOutcome {
        policy_hits: vec![0; policy.allows.len()],
        ..FileOutcome::default()
    };

    let mut waivers: Vec<(InlineWaiver, usize)> = Vec::new();
    for c in &lexed.comments {
        match parse_waiver(&c.text, c.line, &known) {
            WaiverParse::NotAWaiver => {}
            WaiverParse::Invalid(message) => {
                let item = enclosing(c.line);
                out.findings.push(Finding {
                    rule: "waiver-syntax".to_string(),
                    path: rel_path.to_string(),
                    line: c.line,
                    fingerprint: fingerprint("waiver-syntax", rel_path, &item, "syntax"),
                    item,
                    category: "syntax".to_string(),
                    severity: Severity::Deny,
                    message,
                })
            }
            WaiverParse::Waiver(w) => waivers.push((w, 0)),
        }
    }
    // (waiver line, cast target) pairs already reported as bound violations.
    let mut bound_reported: Vec<(u32, String)> = Vec::new();

    for rule in RULES {
        if !policy.applies(rule.name, rel_path) {
            continue;
        }
        let candidates: Vec<Candidate> = match rule.kind {
            RuleKind::Forbid(patterns) => patterns
                .iter()
                .flat_map(|pat| {
                    find_sequence(&lexed.tokens, pat)
                        .into_iter()
                        .map(|line| Candidate {
                            line,
                            category: pattern_display(pat),
                            severity: Severity::Deny,
                            message: format!("`{}`: {}", pattern_display(pat), rule.summary),
                        })
                })
                .collect(),
            RuleKind::RequireInCrateRoot(pat) => {
                if is_crate_root(rel_path) && find_sequence(&lexed.tokens, pat).is_empty() {
                    vec![Candidate {
                        line: 1,
                        category: "missing".to_string(),
                        severity: Severity::Deny,
                        message: rule.summary.to_string(),
                    }]
                } else {
                    Vec::new()
                }
            }
            RuleKind::Pass(kind) => {
                let pfs = match kind {
                    PassKind::PanicSurface => crate::passes::panic_surface(&lexed),
                    PassKind::FloatDeterminism => crate::passes::float_determinism(&lexed),
                    PassKind::CastTruncation => crate::passes::cast_truncation(&lexed),
                    PassKind::MetricsVocabulary => {
                        crate::passes::metrics_vocabulary(&lexed, &policy.metric_vocab)
                    }
                };
                pfs.into_iter()
                    .map(|p| Candidate {
                        line: p.line,
                        category: p.category,
                        severity: p.severity,
                        message: p.message,
                    })
                    .collect()
            }
        };
        for cand in candidates {
            if let Some(i) = policy.allows.iter().position(|a| {
                a.rule == rule.name && crate::policy::prefix_matches(&a.path, rel_path)
            }) {
                out.policy_hits[i] += 1;
                continue;
            }
            let item = enclosing(cand.line);
            // All waivers covering this finding positionally (same/next
            // line, or item scope).
            let positional: Vec<usize> = waivers
                .iter()
                .enumerate()
                .filter(|(_, (w, _))| {
                    w.rule == rule.name
                        && match &w.item {
                            None => w.line == cand.line || w.line + 1 == cand.line,
                            Some(name) => item != "-" && item_covers(&item, name),
                        }
                })
                .map(|(i, _)| i)
                .collect();
            // For cast-truncation, a waiver only justifies the cast if its
            // asserted bound fits the target type's range — a fn may carry
            // one waiver per bound class (e.g. bound=4080 for u16
            // accumulators, bound=255 for post-shift u8 stores). The first
            // fitting waiver wins; if covering waivers exist but none fits,
            // the machine check flags the first one.
            let max_for_cast = if rule.name == "cast-truncation" {
                crate::passes::cast_target_max(&cand.category)
            } else {
                None
            };
            let chosen = match max_for_cast {
                Some(max) => positional
                    .iter()
                    .copied()
                    .find(|&i| waivers[i].0.bound.unwrap_or(u64::MAX) <= max)
                    .or_else(|| positional.first().copied()),
                None => positional.first().copied(),
            };
            if let Some(i) = chosen {
                waivers[i].1 += 1;
                if let Some(max) = max_for_cast {
                    let (w, _) = &waivers[i];
                    let bound = w.bound.unwrap_or(u64::MAX);
                    let key = (w.line, cand.category.clone());
                    if bound > max && !bound_reported.contains(&key) {
                        bound_reported.push(key.clone());
                        let witem = enclosing(w.line);
                        out.findings.push(Finding {
                            rule: "waiver-bound".to_string(),
                            path: rel_path.to_string(),
                            line: w.line,
                            fingerprint: fingerprint(
                                "waiver-bound",
                                rel_path,
                                &witem,
                                &cand.category,
                            ),
                            item: witem,
                            category: cand.category.clone(),
                            severity: Severity::Deny,
                            message: format!(
                                "waiver bound={bound} exceeds `{}` max {max}; the bound \
                                 cannot justify this cast",
                                cand.category
                            ),
                        });
                    }
                }
                continue;
            }
            out.findings.push(Finding {
                rule: rule.name.to_string(),
                path: rel_path.to_string(),
                line: cand.line,
                fingerprint: fingerprint(rule.name, rel_path, &item, &cand.category),
                item,
                category: cand.category,
                severity: cand.severity,
                message: cand.message,
            });
        }
    }

    out.findings
        .sort_by(|a, b| (a.line, &a.rule, &a.category).cmp(&(b.line, &b.rule, &b.category)));
    out.inline_waivers = waivers
        .into_iter()
        .map(|(w, hits)| WaiverUse {
            rule: w.rule,
            site: format!("{rel_path}:{}", w.line),
            reason: w.reason,
            source: WaiverSource::Inline,
            hits,
        })
        .collect();
    out
}

/// Read `<root>/lint.baseline` if present.
pub fn load_baseline(root: &Path) -> Result<Option<Baseline>, String> {
    let path = root.join("lint.baseline");
    if !path.is_file() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Baseline::parse(&text).map(Some)
}

/// Lint the whole workspace rooted at `root` (must contain `lint.toml`),
/// applying `<root>/lint.baseline` when it exists.
pub fn lint_workspace(root: &Path) -> Result<Outcome, String> {
    let baseline = load_baseline(root)?;
    lint_workspace_with(root, baseline.as_ref())
}

/// Lint the workspace with an explicit (or no) baseline. Walks `src/` and
/// `crates/` (skipping `target/` and hidden directories) in sorted order,
/// so output is deterministic.
pub fn lint_workspace_with(root: &Path, baseline: Option<&Baseline>) -> Result<Outcome, String> {
    let policy = crate::policy::load_policy(root)?;
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["src", "crates"] {
        collect_rs_files(&root.join(top), &mut files).map_err(|e| format!("walking {top}: {e}"))?;
    }
    files.sort();

    let mut outcome = Outcome::default();
    let mut policy_hits = vec![0usize; policy.allows.len()];
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let fo = lint_source(&rel, &src, &policy);
        outcome.findings.extend(fo.findings);
        outcome.waivers.extend(fo.inline_waivers);
        for (acc, n) in policy_hits.iter_mut().zip(&fo.policy_hits) {
            *acc += n;
        }
        outcome.files_scanned += 1;
    }
    outcome.waivers.extend(
        policy
            .allows
            .iter()
            .zip(policy_hits)
            .map(|(a, hits)| WaiverUse {
                rule: a.rule.clone(),
                site: a.path.clone(),
                reason: a.reason.clone(),
                source: WaiverSource::Policy,
                hits,
            }),
    );
    outcome.findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.category).cmp(&(&b.path, b.line, &b.rule, &b.category))
    });
    outcome
        .waivers
        .sort_by(|a, b| (&a.site, &a.rule).cmp(&(&b.site, &b.rule)));

    if let Some(b) = baseline {
        let mut used: BTreeMap<String, usize> = BTreeMap::new();
        let mut suppressed = 0usize;
        let findings = std::mem::take(&mut outcome.findings);
        outcome.findings = findings
            .into_iter()
            .filter(|f| {
                if let Some(e) = b.entries.get(&f.fingerprint) {
                    let u = used.entry(f.fingerprint.clone()).or_insert(0);
                    if *u < e.count {
                        *u += 1;
                        suppressed += 1;
                        return false;
                    }
                }
                true
            })
            .collect();
        outcome.baseline_suppressed = suppressed;
        for e in b.entries.values() {
            let live = used.get(&e.fingerprint).copied().unwrap_or(0);
            if live < e.count {
                outcome.stale_baseline.push(StaleBaseline {
                    entry: e.clone(),
                    live,
                });
            }
        }
    }
    Ok(outcome)
}

/// Build a baseline absorbing every finding in `outcome` (which should come
/// from a run *without* a baseline). Reasons are placeholders meant to be
/// edited into real justifications.
pub fn baseline_from(outcome: &Outcome) -> Baseline {
    let mut b = Baseline::default();
    for f in &outcome.findings {
        b.entries
            .entry(f.fingerprint.clone())
            .and_modify(|e| e.count += 1)
            .or_insert_with(|| BaselineEntry {
                fingerprint: f.fingerprint.clone(),
                count: 1,
                rule: f.rule.clone(),
                path: f.path.clone(),
                item: f.item.clone(),
                reason: format!(
                    "legacy `{}` site predating the pass; audit before extending",
                    f.category
                ),
            });
    }
    b
}

/// Crate roots are the only files where `RequireInCrateRoot` rules apply.
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs" || rel_path.ends_with("/src/lib.rs")
}

/// Every line where `pat` occurs as a consecutive token sequence.
fn find_sequence(tokens: &[Token], pat: &[&str]) -> Vec<u32> {
    if pat.is_empty() || tokens.len() < pat.len() {
        return Vec::new();
    }
    tokens
        .windows(pat.len())
        .filter(|w| w.iter().zip(pat).all(|(t, p)| t.text == *p))
        .map(|w| w[0].line)
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
