//! Fleet-serving benchmark: batched vs singleton detection scheduling over
//! the shared GPU pool, across the ISSUE stream-count grid.
//!
//! ```text
//! serve_bench [--jobs N] [--cycles N] [--out BENCH_serve.json]
//! ```
//!
//! Runs the full serve sweep (profiles × stream counts × batched/unbatched)
//! twice — sequentially and with `--jobs N` — and asserts the two row sets
//! and their rendered CSV/JSON bytes are identical, so CI can run it as a
//! parity check. On the fault-free profile it then asserts the ISSUE
//! acceptance criteria: batched throughput at least 1.5x unbatched from 64
//! streams up, and batched p99 cycle latency bounded by the loosest SLO
//! deadline (admission control keeping the tail sane instead of letting
//! every stream queue). Speedup across jobs is reported, not asserted —
//! `host_cpus` is recorded so single-core hosts are readable in the JSON.

use adavp_core::serve::stream::SloClass;
use adavp_core::serve::{run_sweep, sweep_csv, sweep_json, sweep_text, SweepConfig};
use adavp_vision::exec::Executor;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = Executor::available().jobs();
    let mut out = PathBuf::from("BENCH_serve.json");
    let mut cycles = 30usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = match it.next().map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) => n,
                    other => {
                        eprintln!("--jobs expects a number, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--cycles" => {
                cycles = match it.next().map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) => n,
                    other => {
                        eprintln!("--cycles expects a number, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => match it.next() {
                Some(p) if !p.starts_with("--") => out = PathBuf::from(p),
                _ => {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = SweepConfig {
        cycles,
        ..SweepConfig::default()
    };
    println!(
        "serve_bench: streams {:?}, cycles {cycles}, gpus {}, max_batch {}, window {} ms, jobs {jobs}, host cpus {host_cpus}",
        cfg.stream_counts, cfg.gpus, cfg.max_batch, cfg.window_ms
    );

    // --- Determinism across executors: rows and rendered bytes. ---
    let t0 = Instant::now();
    let (rows, _) = run_sweep(&cfg, &Executor::sequential());
    let seq_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let (rows_par, _) = run_sweep(&cfg, &Executor::new(jobs));
    let par_s = t0.elapsed().as_secs_f64();
    assert_eq!(rows, rows_par, "sweep rows differ across jobs");
    assert_eq!(
        sweep_csv(&rows),
        sweep_csv(&rows_par),
        "sweep CSV bytes differ across jobs"
    );
    assert_eq!(
        sweep_json(&rows),
        sweep_json(&rows_par),
        "sweep JSON bytes differ across jobs"
    );
    println!(
        "sweep ({} cells): seq {seq_s:.2}s | jobs {jobs} {par_s:.2}s | speedup {:.2}x (parity OK)",
        rows.len(),
        seq_s / par_s,
    );
    print!("{}", sweep_text(&rows));

    // --- Acceptance criteria on the fault-free profile. ---
    let p99_bound = SloClass::Bronze.deadline_ms();
    let mut comparisons = String::new();
    for (i, &n) in cfg.stream_counts.iter().enumerate() {
        let find = |batched: bool| {
            rows.iter()
                .find(|r| r.profile == "none" && r.streams == n && r.batched == batched)
                .expect("grid cell missing")
        };
        let (b, u) = (find(true), find(false));
        let (b99, b50) = (b.latency_ms(99.0), b.latency_ms(50.0));
        let (b, u) = (&b.report, &u.report);
        let ratio = if u.throughput_dps > 0.0 {
            b.throughput_dps / u.throughput_dps
        } else {
            0.0
        };
        println!(
            "streams {n:>5}: batched {:.2} det/s (admitted {:>3}, p99 {:>6.1} ms) | \
             unbatched {:.2} det/s (admitted {:>3}) | ratio {ratio:.2}x",
            b.throughput_dps, b.admitted, b99, u.throughput_dps, u.admitted,
        );
        if n >= 64 {
            assert!(
                ratio >= 1.5,
                "batched throughput must be >= 1.5x unbatched at {n} streams, got {ratio:.2}x"
            );
        }
        assert!(
            b99 <= p99_bound,
            "admission control must bound p99 at {n} streams: {b99} > {p99_bound}",
        );
        comparisons.push_str(&format!(
            "    {{\"streams\": {n}, \"batched_dps\": {:.4}, \"unbatched_dps\": {:.4}, \
             \"ratio\": {ratio:.4}, \"batched_admitted\": {}, \"unbatched_admitted\": {}, \
             \"batched_p50_ms\": {:.4}, \"batched_p99_ms\": {:.4}}}{}\n",
            b.throughput_dps,
            u.throughput_dps,
            b.admitted,
            u.admitted,
            b50,
            b99,
            if i + 1 == cfg.stream_counts.len() {
                ""
            } else {
                ","
            },
        ));
    }

    let sweep = sweep_json(&rows);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve_fleet\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"jobs\": {jobs},\n",
            "  \"grid\": {{\"stream_counts\": {counts:?}, \"cycles\": {cycles}, \"gpus\": {gpus}, \
             \"max_batch\": {max_batch}, \"window_ms\": {window:.1}}},\n",
            "  \"wall\": {{\"seq_s\": {seq_s:.3}, \"par_s\": {par_s:.3}, \"speedup\": {speedup:.3}}},\n",
            "  \"parity\": {{\"rows\": true, \"csv_bytes\": true, \"json_bytes\": true}},\n",
            "  \"checks\": {{\"batched_ge_1p5x_from_64_streams\": true, \"p99_bounded_by_bronze_deadline_ms\": {bound:.1}}},\n",
            "  \"batched_vs_unbatched\": [\n{comparisons}  ],\n",
            "  \"sweep\": {sweep}}}\n",
        ),
        host_cpus = host_cpus,
        jobs = jobs,
        counts = cfg.stream_counts,
        cycles = cycles,
        gpus = cfg.gpus,
        max_batch = cfg.max_batch,
        window = cfg.window_ms,
        seq_s = seq_s,
        par_s = par_s,
        speedup = seq_s / par_s,
        bound = p99_bound,
        comparisons = comparisons,
        sweep = sweep,
    );
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {}", out.display());
}
