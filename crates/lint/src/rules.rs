//! The determinism rule table.
//!
//! Rules come in two shapes: *forbid* rules flag any occurrence of one of a
//! set of token sequences, and *require* rules demand a token sequence in
//! every crate root (`src/lib.rs`) they are scoped to. Which files a rule
//! applies to is decided by `lint.toml` (see [`crate::policy`]), never here:
//! the same table serves the whole workspace, and the policy file is the
//! single audited place where scope is granted or waived.

/// Finding severity. `Deny` fails the run (exit 1); `Warn` is reported but
/// only fails under `--strict`. Both respect waivers and the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Deny,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// Which flow-aware pass implements a [`RuleKind::Pass`] rule (see
/// [`crate::passes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    PanicSurface,
    FloatDeterminism,
    CastTruncation,
    MetricsVocabulary,
}

/// How a rule matches.
#[derive(Debug, Clone, Copy)]
pub enum RuleKind {
    /// Flag every occurrence of any of these token sequences.
    Forbid(&'static [&'static [&'static str]]),
    /// Files named `src/lib.rs` in scope must contain this token sequence.
    RequireInCrateRoot(&'static [&'static str]),
    /// Flow-aware pass over tokens + item index (+ string literals).
    Pass(PassKind),
}

/// One named rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    pub kind: RuleKind,
}

/// The full rule table, in the order findings are reported.
pub const RULES: &[Rule] = &[
    Rule {
        name: "wallclock",
        summary: "host clock read; deterministic code must use sim time",
        kind: RuleKind::Forbid(&[&["Instant", "::", "now"], &["SystemTime"]]),
    },
    Rule {
        name: "env",
        summary: "process environment is host state; pass configuration explicitly",
        kind: RuleKind::Forbid(&[&["std", "::", "env"]]),
    },
    Rule {
        name: "ambient-rng",
        summary: "ambient RNG breaks seeded reproducibility; use a seeded adavp_rng::Rng",
        kind: RuleKind::Forbid(&[
            &["thread_rng"],
            &["rand", "::", "random"],
            &["OsRng"],
            &["from_entropy"],
        ]),
    },
    Rule {
        name: "unordered-map",
        summary: "iteration order is unspecified; use BTreeMap/BTreeSet or sorted vecs",
        kind: RuleKind::Forbid(&[&["HashMap"], &["HashSet"]]),
    },
    Rule {
        name: "cpu-probe",
        summary: "runtime CPU-feature probing; SIMD dispatch must be compile-time (DESIGN.md §14)",
        kind: RuleKind::Forbid(&[
            &["is_x86_feature_detected"],
            &["is_aarch64_feature_detected"],
            &["is_arm_feature_detected"],
            &["is_riscv_feature_detected"],
            &["std", "::", "arch"],
            &["core", "::", "arch"],
        ]),
    },
    Rule {
        name: "pipeline-host-state",
        summary: "CycleRecord-producing pipeline paths must not touch host state",
        kind: RuleKind::Forbid(&[
            &["std", "::", "fs"],
            &["std", "::", "net"],
            &["std", "::", "process"],
            &["std", "::", "thread"],
            &["std", "::", "time"],
            &["std", "::", "env"],
            &["Instant"],
            &["SystemTime"],
            &["thread_rng"],
            &["OsRng"],
        ]),
    },
    Rule {
        name: "forbid-unsafe",
        summary: "crate root is missing #![forbid(unsafe_code)]",
        kind: RuleKind::RequireInCrateRoot(&[
            "#",
            "!",
            "[",
            "forbid",
            "(",
            "unsafe_code",
            ")",
            "]",
        ]),
    },
    Rule {
        name: "panic-surface",
        summary:
            "hot paths must be panic-free: no unwrap/expect/panic!/index panics (DESIGN.md §18)",
        kind: RuleKind::Pass(PassKind::PanicSurface),
    },
    Rule {
        name: "float-determinism",
        summary:
            "libm-dependent float calls drift across toolchains; deterministic crates forbid them",
        kind: RuleKind::Pass(PassKind::FloatDeterminism),
    },
    Rule {
        name: "cast-truncation",
        summary: "narrowing `as` casts in fixed-point kernels need a machine-checked bound= waiver",
        kind: RuleKind::Pass(PassKind::CastTruncation),
    },
    Rule {
        name: "metrics-vocabulary",
        summary: "metric name literals must come from metrics::names, never ad-hoc strings",
        kind: RuleKind::Pass(PassKind::MetricsVocabulary),
    },
];

/// All rule names, for policy/waiver validation.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|r| r.name).collect()
}

/// Render a forbidden token sequence for messages (`["Instant","::","now"]`
/// → `Instant::now`).
pub fn pattern_display(pat: &[&str]) -> String {
    pat.concat()
}
