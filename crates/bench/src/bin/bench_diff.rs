//! `bench-diff`: the bench regression gate.
//!
//! ```text
//! bench-diff [--baseline-serve FILE --fresh-serve FILE]
//!            [--baseline-kernels FILE --fresh-kernels FILE]
//!            [--tolerance 0.10]
//! ```
//!
//! Compares freshly generated `BENCH_serve.json` / `BENCH_kernels.json`
//! against committed baselines and exits nonzero when any shared metric
//! regressed beyond the tolerance (default 10%): latency-style metrics by
//! growing, throughput-style metrics by shrinking. Metrics present on only
//! one side (schema growth) are skipped. Exit codes: 0 clean, 1 regression,
//! 2 usage or unreadable/unparsable input.

use adavp_bench::diff::{
    compare, kernel_metrics, parse_args, parse_json, serve_metrics, DiffArgs, Metric, Value,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-diff [--baseline-serve FILE --fresh-serve FILE]\n                  \
         [--baseline-kernels FILE --fresh-kernels FILE] [--tolerance RATIO]\n\
         at least one baseline/fresh pair is required; tolerance defaults to 0.10"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let DiffArgs { pairs, tolerance } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return usage();
        }
    };

    let mut regressed = false;
    for (kind, baseline_path, fresh_path) in pairs {
        let (baseline_doc, fresh_doc) = match (load(&baseline_path), load(&fresh_path)) {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("bench-diff: {e}");
                return ExitCode::from(2);
            }
        };
        let extract: fn(&Value) -> Vec<Metric> = match kind {
            "serve" => serve_metrics,
            _ => kernel_metrics,
        };
        let report = compare(&extract(&baseline_doc), &extract(&fresh_doc), tolerance);
        println!(
            "== {kind}: {} vs {} ==\n{}",
            baseline_path,
            fresh_path,
            report.render(tolerance)
        );
        regressed |= report.regressed();
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
