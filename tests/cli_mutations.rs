//! Seeded mutation test of the command-line parsers: `adavp`'s
//! (`adavp::cli::parse`), `bench-diff`'s (`adavp_bench::diff::parse_args`)
//! and `experiments`' (`adavp_bench::cli::parse_args`).
//! Each starts from valid argument vectors, and every mutant (flags
//! dropped, duplicated or truncated, values dropped, emptied, truncated or
//! replaced by bad numbers) must come back without a panic, in under a
//! second, and either parse or fail with a message that names a flag the
//! mutant touched. A sample of the rejected `adavp` mutants also runs the
//! binary, which must exit 2 with that message and print nothing to
//! stdout. The mutants are a pure function of the fixed seeds, so a
//! failure replays exactly.

use adavp_rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::{Duration, Instant};

/// Mutants per parser.
const MUTANTS: usize = 2000;

/// The longest one call may take on any mutant.
const LIMIT: Duration = Duration::from_secs(1);

/// Rejected `adavp` mutants that are also run through the binary.
const SPAWNED: usize = 20;

/// Values that are not valid numbers, or not valid for most numeric flags.
const BAD_NUMBERS: [&str; 10] = [
    "abc",
    "-1",
    "0",
    "nan",
    "inf",
    "1e999",
    "1.5",
    "18446744073709551616",
    "0x10",
    "+-3",
];

/// A valid command line: the leading words (the subcommand, if any), then
/// `--flag value` pairs.
struct Line {
    lead: &'static [&'static str],
    pairs: Vec<(String, String)>,
}

impl Line {
    fn new(lead: &'static [&'static str], pairs: &[(&str, &str)]) -> Self {
        let pairs = pairs
            .iter()
            .map(|(k, v)| (format!("--{k}"), v.to_string()))
            .collect();
        Self { lead, pairs }
    }
}

/// One to three edits of `line`'s flags. Returns the argument vector and
/// every token an edit touched (flag names, and values left stray), one of
/// which a rejection must name.
fn mutate(line: &Line, rng: &mut Rng) -> (Vec<String>, Vec<String>) {
    // Each slot is one pair: its flag as written in `line`, whether an edit
    // touched it, then what is left of its flag and value (`None` once
    // dropped).
    let mut slots: Vec<(&str, bool, Option<String>, Option<String>)> = line
        .pairs
        .iter()
        .map(|(k, v)| (k.as_str(), false, Some(k.clone()), Some(v.clone())))
        .collect();
    let mut touched = Vec::new();
    for _ in 0..rng.gen_range(1usize..=3) {
        if slots.is_empty() {
            break;
        }
        let i = rng.gen_range(0..slots.len());
        let (_, hit, k, v) = &mut slots[i];
        *hit = true;
        match rng.gen_range(0u32..7) {
            0 => touched.push(slots.remove(i).0.to_string()),
            1 => *v = None,
            2 => *k = None,
            3 => {
                let copy = slots[i].clone();
                slots.insert(rng.gen_range(0..=slots.len()), copy);
            }
            4 => {
                if let Some(name) = k.as_mut().filter(|n| !n.is_empty()) {
                    name.truncate(rng.gen_range(0..name.len()));
                }
            }
            5 => {
                if let Some(value) = v {
                    value.truncate(rng.gen_range(0..=value.len()));
                }
            }
            _ => *v = Some(BAD_NUMBERS[rng.gen_range(0..BAD_NUMBERS.len())].to_string()),
        }
    }
    let mut args: Vec<String> = line.lead.iter().map(|s| s.to_string()).collect();
    for (flag, hit, k, v) in slots {
        if hit {
            touched.push(flag.to_string());
            touched.extend(k.iter().chain(&v).cloned());
        }
        args.extend(k);
        args.extend(v);
    }
    (args, touched)
}

/// Feeds `MUTANTS` mutants of the `lines` to `parse` and checks the
/// contract in the module docs. Returns the rejected mutants with their
/// messages.
fn survive_mutants(
    name: &str,
    lines: &[Line],
    seed: u64,
    parse: impl Fn(&[String]) -> Result<(), String>,
) -> Vec<(Vec<String>, String)> {
    for line in lines {
        let mut valid: Vec<String> = line.lead.iter().map(|s| s.to_string()).collect();
        for (k, v) in &line.pairs {
            valid.extend([k.clone(), v.clone()]);
        }
        assert_eq!(parse(&valid), Ok(()), "{name}: {valid:?} must parse");
    }
    let mut rng = Rng::seed_from_u64(seed);
    let (mut accepted, mut rejected) = (0, Vec::new());
    for i in 0..MUTANTS {
        let line = &lines[rng.gen_range(0..lines.len())];
        let (args, touched) = mutate(line, &mut rng);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&args)))
            .unwrap_or_else(|_| panic!("{name}: mutant {i} panicked: {args:?}"));
        let took = start.elapsed();
        assert!(took < LIMIT, "{name}: mutant {i} took {took:?}: {args:?}");
        match outcome {
            Ok(()) => accepted += 1,
            Err(e) => {
                assert!(
                    touched.iter().any(|t| e.contains(t.as_str())),
                    "{name}: mutant {i} {args:?} names none of {touched:?}: {e}"
                );
                rejected.push((args, e));
            }
        }
    }
    // The edits reach both outcomes, so neither path went untested.
    assert!(
        0 < accepted && accepted < MUTANTS,
        "{name}: {accepted} accepted"
    );
    rejected
}

#[test]
fn adavp_flags_parse_or_name_the_flag() {
    let lines = [
        Line::new(
            &["run"],
            &[
                ("scenario", "highway"),
                ("seed", "7"),
                ("frames", "3"),
                ("system", "mpdt-320"),
                ("gt", "oracle"),
                ("trace-out", "trace.json"),
            ],
        ),
        Line::new(
            &["trace"],
            &[
                ("scenario", "meeting-room"),
                ("seed", "3"),
                ("frames", "4"),
                ("system", "marlin-416"),
                ("chrome", "chrome.json"),
            ],
        ),
        Line::new(
            &["generate"],
            &[
                ("scenario", "highway"),
                ("seed", "1"),
                ("frames", "2"),
                ("stride", "1"),
                ("out", "frames"),
            ],
        ),
        Line::new(
            &["serve"],
            &[
                ("streams", "1,8,24"),
                ("cycles", "6"),
                ("gpus", "2"),
                ("batch", "4"),
                ("window", "100"),
                ("jobs", "2"),
                ("seed", "5"),
                ("profile", "both"),
                ("schemes", "mpdt,ctd"),
                ("csv", "sweep.csv"),
                ("metrics-prom", "sweep.prom"),
            ],
        ),
        Line::new(
            &["metrics"],
            &[
                ("streams", "4"),
                ("cycles", "3"),
                ("gpus", "1"),
                ("batch", "2"),
                ("window", "50"),
                ("seed", "9"),
                ("scheme", "cascade"),
                ("profile", "brownout"),
                ("cadence", "100"),
                ("bucket", "500"),
                ("json", "metrics.json"),
            ],
        ),
    ];
    let rejected = survive_mutants("adavp", &lines, 31, |args| {
        adavp::cli::parse(args).map(|_| ())
    });
    // The binary turns each rejection into exit 2 with the same message.
    for (args, message) in rejected.iter().take(SPAWNED) {
        let out = Command::new(env!("CARGO_BIN_EXE_adavp"))
            .args(args)
            .output()
            .expect("run adavp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr.contains(message.as_str()), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
    }
}

#[test]
fn bench_diff_flags_parse_or_name_the_flag() {
    let lines = [
        Line::new(
            &[],
            &[
                ("baseline", "base_kernels.json"),
                ("fresh", "BENCH_kernels.json"),
                ("tolerance", "0.1"),
            ],
        ),
        Line::new(
            &[],
            &[
                ("tolerance", "0.25"),
                ("fresh", "BENCH_kernels.json"),
                ("baseline", "base_kernels.json"),
            ],
        ),
    ];
    survive_mutants("bench-diff", &lines, 32, |args| {
        adavp_bench::diff::parse_args(args).map(|_| ())
    });
}

#[test]
fn experiments_flags_parse_or_name_the_flag() {
    let lines = [
        Line::new(
            &["fig6", "table3"],
            &[("scale", "smoke"), ("out", "res"), ("jobs", "2")],
        ),
        Line::new(
            &["all"],
            &[("jobs", "1"), ("out", "results-full"), ("scale", "full")],
        ),
        Line::new(&[], &[("out", "out-dir"), ("scale", "standard")]),
    ];
    survive_mutants("experiments", &lines, 33, |args| {
        adavp_bench::cli::parse_args(args).map(|_| ())
    });
}
