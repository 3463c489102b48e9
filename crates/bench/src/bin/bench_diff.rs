//! `bench-diff`: the bench regression gate.
//!
//! ```text
//! bench-diff --baseline FILE --fresh FILE [--tolerance 0.10]
//! ```
//!
//! Compares a freshly generated `BENCH_kernels.json` against a committed
//! baseline and exits nonzero when any shared metric grew beyond the
//! tolerance (default 10%). Metrics present on only one side (schema
//! growth) are skipped. Exit codes: 0 clean, 1 regression, 2 usage or
//! unreadable/unparsable input.

use adavp_bench::diff::{compare, kernel_metrics, parse_args, parse_json, DiffArgs, Metric};
use std::process::ExitCode;

fn load(path: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(kernel_metrics(&doc))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let DiffArgs {
        baseline,
        fresh,
        tolerance,
    } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\nusage: bench-diff --baseline FILE --fresh FILE [--tolerance 0.10]");
            return ExitCode::from(2);
        }
    };
    let (baseline_metrics, fresh_metrics) = match (load(&baseline), load(&fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench-diff: {e}");
            return ExitCode::from(2);
        }
    };
    let report = compare(&baseline_metrics, &fresh_metrics, tolerance);
    println!(
        "== kernels: {baseline} vs {fresh} ==\n{}",
        report.render(tolerance)
    );
    if report.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
