//! Live-workspace tests: the committed tree must lint clean (deny, warn,
//! and stale entries all zero once the baseline is applied), the `--report`
//! audit table must list exactly the waivers the policy grants, the `--json`
//! report must be byte-stable across runs, the pass must stay fast, and
//! injected violations — including the flow-aware passes — must be caught
//! by the real policy.

use adavp_lint::{lint_source, lint_workspace, load_policy, Outcome, WaiverSource};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

fn lint_live() -> Outcome {
    lint_workspace(&workspace_root()).expect("workspace lints")
}

#[test]
fn live_workspace_is_clean_with_no_stale_waivers() {
    let outcome = lint_live();
    assert!(
        outcome.findings.is_empty(),
        "determinism violations:\n{}",
        outcome.violation_report()
    );
    let stale: Vec<String> = outcome
        .stale_waivers()
        .iter()
        .map(|w| format!("[{}] {}", w.rule, w.site))
        .collect();
    assert!(stale.is_empty(), "stale waivers: {stale:?}");
    let stale_b: Vec<String> = outcome
        .stale_baseline
        .iter()
        .map(|s| format!("{} {} live {}", s.entry.fingerprint, s.entry.path, s.live))
        .collect();
    assert!(stale_b.is_empty(), "stale baseline entries: {stale_b:?}");
    assert!(outcome.fix_check_ok());
    assert!(
        outcome.baseline_suppressed > 0,
        "the committed lint.baseline should absorb the legacy index-expression debt"
    );
    assert!(
        outcome.files_scanned >= 70,
        "suspiciously few files scanned: {}",
        outcome.files_scanned
    );
}

#[test]
fn report_lists_exactly_the_audited_waivers() {
    let outcome = lint_live();
    // (rule, file, source) for every active waiver; inline sites carry a
    // `:line` suffix which we drop so comment reflows don't churn the test.
    let mut got: Vec<(String, String, WaiverSource)> = outcome
        .waivers
        .iter()
        .map(|w| {
            let file = w.site.split(':').next().unwrap_or(&w.site).to_string();
            (w.rule.clone(), file, w.source)
        })
        .collect();
    got.sort();
    use WaiverSource::{Inline, Policy};
    let grants: &[(&str, &str, WaiverSource, usize)] = &[
        ("cast-truncation", "crates/vision/src/image.rs", Inline, 1),
        (
            "cast-truncation",
            "crates/vision/src/reference.rs",
            Inline,
            5,
        ),
        ("cast-truncation", "crates/vision/src/simd.rs", Inline, 6),
        ("env", "crates/bench/src", Policy, 1),
        ("env", "crates/vision/src/bin/kernels_bench.rs", Policy, 1),
        ("env", "src/bin/adavp.rs", Policy, 1),
        (
            "float-determinism",
            "crates/core/src/serve/stream.rs",
            Inline,
            2,
        ),
        (
            "float-determinism",
            "crates/detector/src/model.rs",
            Inline,
            1,
        ),
        (
            "float-determinism",
            "crates/vision/src/bin/kernels_bench.rs",
            Policy,
            1,
        ),
        ("panic-surface", "crates/core/src/serve/batch.rs", Inline, 1),
        ("panic-surface", "crates/core/src/serve/fleet.rs", Inline, 1),
        (
            "panic-surface",
            "crates/core/src/serve/stream.rs",
            Inline,
            1,
        ),
        ("panic-surface", "crates/vision/src/image.rs", Inline, 1),
        ("wallclock", "crates/bench/src", Policy, 1),
        (
            "wallclock",
            "crates/vision/src/bin/kernels_bench.rs",
            Policy,
            1,
        ),
        ("wallclock", "crates/vision/src/perf.rs", Inline, 1),
    ];
    let mut expected: Vec<(String, String, WaiverSource)> = grants
        .iter()
        .flat_map(|(rule, file, source, n)| {
            std::iter::repeat_n((rule.to_string(), file.to_string(), *source), *n)
        })
        .collect();
    expected.sort();
    assert_eq!(got, expected, "waiver audit drifted from the granted set");
    for w in &outcome.waivers {
        assert!(w.hits > 0, "waiver [{}] {} is stale", w.rule, w.site);
        assert!(
            !w.reason.trim().is_empty(),
            "waiver {} lost its reason",
            w.site
        );
    }
    // The rendered table carries every site and reason, plus the per-rule
    // count block.
    let report = outcome.waiver_report();
    for w in &outcome.waivers {
        assert!(report.contains(&w.site), "report missing {}", w.site);
        assert!(
            report.contains(&w.reason),
            "report missing reason for {}",
            w.site
        );
    }
    assert!(report.contains("per-rule waiver counts:"));
    assert!(report.contains("cast-truncation"));
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let a = lint_live().json_report();
    let b = lint_live().json_report();
    assert_eq!(a, b, "two --json runs over the same tree diverged");
    assert!(a.starts_with("{\n  \"schema\": \"adavp-lint/1\""));
    assert!(a.contains("\"baseline_suppressed\""));
}

#[test]
fn workspace_pass_completes_under_two_seconds() {
    let start = std::time::Instant::now();
    let _ = lint_live();
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "lint took {elapsed:?}, budget is 2 s"
    );
}

#[test]
fn injected_violations_in_deterministic_crates_are_caught() {
    let policy = load_policy(&workspace_root()).expect("lint.toml loads");
    let cases: &[(&str, &str, &str)] = &[
        (
            "wallclock",
            "crates/sim/src/time.rs",
            "pub fn t() -> u128 { std::time::Instant::now().elapsed().as_nanos() }",
        ),
        (
            "unordered-map",
            "crates/core/src/export.rs",
            "use std::collections::HashMap;\npub fn f() {}",
        ),
        (
            "ambient-rng",
            "crates/video/src/world.rs",
            "pub fn f() -> f64 { rand::random() }",
        ),
        (
            "env",
            "crates/detector/src/model.rs",
            "pub fn f() -> Option<String> { std::env::var(\"SEED\").ok() }",
        ),
        (
            "pipeline-host-state",
            "crates/core/src/pipeline/mpdt.rs",
            "pub fn f() { std::thread::yield_now(); }",
        ),
        (
            "forbid-unsafe",
            "crates/metrics/src/lib.rs",
            "pub fn crate_root_without_header() {}",
        ),
        // The flow-aware passes, against the real include scopes.
        (
            "panic-surface",
            "crates/core/src/serve/stream.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }",
        ),
        (
            "panic-surface",
            "crates/vision/src/simd.rs",
            "pub fn f() { panic!(\"kernel bug\") }",
        ),
        (
            "float-determinism",
            "crates/core/src/pipeline/mpdt.rs",
            "pub fn f(x: f64) -> f64 { x.exp() }",
        ),
        (
            "cast-truncation",
            "crates/vision/src/simd.rs",
            "pub fn f(x: u32) -> u8 { x as u8 }",
        ),
        (
            "metrics-vocabulary",
            "crates/core/src/metrics/export.rs",
            "pub fn f(reg: &mut Reg) { reg.inc(\"adavp_not_in_vocab\"); }",
        ),
    ];
    for (rule, path, src) in cases {
        let out = lint_source(path, src, &policy);
        assert!(
            out.findings.iter().any(|f| f.rule == *rule),
            "the real policy failed to catch `{rule}` injected at {path}: {:?}",
            out.findings
        );
    }
}
