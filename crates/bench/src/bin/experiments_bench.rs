//! Harness parallelism benchmark: sequential vs parallel wall-clock for the
//! offline experiment pipeline, with bit-parity assertions.
//!
//! ```text
//! experiments_bench [--jobs N] [--out BENCH_experiments.json]
//! ```
//!
//! Measures, at smoke scale:
//!
//! * dataset clip rendering throughput (`render_all`, one clip per job);
//! * the full fig6 pipeline — render → train → evaluate — at `--jobs 1`
//!   vs `--jobs N`, with the per-phase wall-clock split.
//!
//! Along the way it asserts that every parallel result is byte-identical to
//! the sequential one (clip pixels, trained thresholds down to the bit, the
//! fig6 result CSV bytes) and exits non-zero on any mismatch, so CI can run
//! it as a parity check. Speedup is reported, not asserted: on a
//! single-core host the same code runs with no gain, and the JSON records
//! `host_cpus` so readers can tell the two cases apart.

use adavp_bench::context::{ExperimentContext, PhaseTimings};
use adavp_bench::figures;
use adavp_bench::report::{f3, write_csv};
use adavp_core::adaptation::AdaptationModel;
use adavp_detector::ModelSetting;
use adavp_video::dataset::{render_all, testing_set, DatasetScale};
use adavp_vision::exec::Executor;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut jobs = Executor::available().jobs();
    let mut out = PathBuf::from("BENCH_experiments.json");
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
    println!("experiments_bench: jobs {jobs}, host cpus {host_cpus}");

    // --- Dataset rendering: one clip per job. ---
    let specs = testing_set(DatasetScale::Smoke);
    let t0 = Instant::now();
    let clips_seq = render_all(&specs, &Executor::sequential());
    let render_seq_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let clips_par = render_all(&specs, &Executor::new(jobs));
    let render_par_s = t0.elapsed().as_secs_f64();
    let mut pixels: u64 = 0;
    for (a, b) in clips_seq.iter().zip(&clips_par) {
        pixels += a.len() as u64 * u64::from(a.width()) * u64::from(a.height());
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.image, fb.image, "render parity broken on {}", a.name());
        }
    }
    let mpix = pixels as f64 / 1e6;
    println!(
        "render {} clips ({mpix:.1} Mpix): seq {render_seq_s:.2}s ({:.1} Mpix/s) | jobs {jobs} {render_par_s:.2}s ({:.1} Mpix/s)",
        clips_seq.len(),
        mpix / render_seq_s,
        mpix / render_par_s,
    );

    // --- End-to-end fig6: render + train + evaluate. ---
    let (fig6_seq_s, phases_seq, model_seq, csv_seq) = fig6_run(1, "jobs1");
    let (fig6_par_s, phases_par, model_par, csv_par) = fig6_run(jobs, "jobsN");
    assert_eq!(
        model_seq, model_par,
        "trained thresholds differ across jobs"
    );
    for s in ModelSetting::ADAPTIVE {
        let (a, b) = (model_seq.thresholds_for(s), model_par.thresholds_for(s));
        for k in 0..3 {
            assert_eq!(
                a[k].to_bits(),
                b[k].to_bits(),
                "threshold bits differ at {s}[{k}]"
            );
        }
    }
    assert_eq!(csv_seq, csv_par, "fig6 CSV bytes differ across jobs");
    println!(
        "fig6 smoke end-to-end: seq {fig6_seq_s:.2}s | jobs {jobs} {fig6_par_s:.2}s | speedup {:.2}x (parity OK)",
        fig6_seq_s / fig6_par_s,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"experiments_harness\",\n",
            "  \"scale\": \"smoke\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"jobs\": {jobs},\n",
            "  \"render_dataset\": {{\"clips\": {nclips}, \"mpix\": {mpix:.2}, \"seq_s\": {rs:.3}, \"par_s\": {rp:.3}, \"speedup\": {rsp:.3}, \"mpix_per_s_seq\": {tps:.2}, \"mpix_per_s_par\": {tpp:.2}}},\n",
            "  \"fig6_end_to_end\": {{\n",
            "    \"seq_s\": {fs:.3}, \"par_s\": {fp:.3}, \"speedup\": {fsp:.3},\n",
            "    \"seq_phases\": {{\"render_s\": {sr:.3}, \"train_s\": {st:.3}, \"eval_s\": {se:.3}}},\n",
            "    \"par_phases\": {{\"render_s\": {pr:.3}, \"train_s\": {pt:.3}, \"eval_s\": {pe:.3}}}\n",
            "  }},\n",
            "  \"parity\": {{\"clip_pixels\": true, \"trained_thresholds_bitwise\": true, \"fig6_csv_bytes\": true}}\n",
            "}}\n"
        ),
        host_cpus = host_cpus,
        jobs = jobs,
        nclips = clips_seq.len(),
        mpix = mpix,
        rs = render_seq_s,
        rp = render_par_s,
        rsp = render_seq_s / render_par_s,
        tps = mpix / render_seq_s,
        tpp = mpix / render_par_s,
        fs = fig6_seq_s,
        fp = fig6_par_s,
        fsp = fig6_seq_s / fig6_par_s,
        sr = phases_seq.render_s,
        st = phases_seq.train_s,
        se = phases_seq.eval_s,
        pr = phases_par.render_s,
        pt = phases_par.train_s,
        pe = phases_par.eval_s,
    );
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {}", out.display());
}

/// One full fig6 pipeline at the given jobs count. Returns wall-clock,
/// phase split, the trained model, and the bytes of the result CSV.
fn fig6_run(jobs: usize, tag: &str) -> (f64, PhaseTimings, AdaptationModel, Vec<u8>) {
    let t0 = Instant::now();
    let mut ctx = ExperimentContext::with_jobs(DatasetScale::Smoke, jobs);
    let results = figures::fig6(&mut ctx);
    let secs = t0.elapsed().as_secs_f64();
    let timed = ctx.timings();
    ctx.note_eval_secs((secs - timed.render_s - timed.train_s).max(0.0));
    let model = ctx.adaptation_model().clone();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone(), f3(r.accuracy)];
            // Full-precision per-video accuracies: f64 Display round-trips,
            // so byte-equal CSVs mean bit-equal results.
            row.extend(r.per_video_accuracy.iter().map(|a| format!("{a}")));
            row
        })
        .collect();
    let path = std::env::temp_dir().join(format!("adavp_fig6_parity_{tag}.csv"));
    write_csv(&path, &["scheme", "accuracy"], &rows).expect("write parity csv");
    let bytes = std::fs::read(&path).expect("read parity csv");
    (secs, ctx.timings(), model, bytes)
}
