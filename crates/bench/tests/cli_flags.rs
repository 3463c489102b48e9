//! The bench binaries reject `--out` with no path with exit status 2 and an
//! error naming the flag, instead of writing to a fallback path (the
//! committed `results/` directory, or an empty path that fails only after
//! the whole bench ran). `experiments` likewise rejects an unknown
//! experiment name before it runs any of the others, and `bench-diff`
//! exits 2 naming the flag when its arguments are malformed.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory for one test case.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adavp-cli-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn out_without_a_path_exits_2_and_writes_nothing() {
    for (name, bin, args) in [
        (
            "experiments",
            env!("CARGO_BIN_EXE_experiments"),
            &["fig2", "--out"][..],
        ),
        (
            "experiments-flag",
            env!("CARGO_BIN_EXE_experiments"),
            &["fig2", "--out", "--jobs", "1"][..],
        ),
        (
            "serve_bench",
            env!("CARGO_BIN_EXE_serve_bench"),
            &["--out"][..],
        ),
        (
            "experiments_bench",
            env!("CARGO_BIN_EXE_experiments_bench"),
            &["--out"][..],
        ),
    ] {
        let dir = scratch_dir(name);
        let out = Command::new(bin)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run bench binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {out:?}");
        assert!(stderr.contains("--out"), "{name}: no --out in: {stderr}");
        let written: Vec<_> = fs::read_dir(&dir).expect("read scratch dir").collect();
        assert!(written.is_empty(), "{name}: wrote {written:?}");
        fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

#[test]
fn unknown_experiment_exits_2_before_running_the_others() {
    let dir = scratch_dir("unknown-experiment");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table2", "fig99", "--scale", "smoke", "--out", "res"])
        .current_dir(&dir)
        .output()
        .expect("run experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr.contains("fig99"), "no fig99 in: {stderr}");
    let written: Vec<_> = fs::read_dir(&dir).expect("read scratch dir").collect();
    assert!(written.is_empty(), "table2 ran first and wrote {written:?}");
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn bench_diff_rejects_malformed_flags_with_exit_2_naming_the_flag() {
    for (args, named) in [
        (&["--baseline-serve", "a.json"][..], "--fresh-serve"),
        (
            &["--baseline-serve", "--fresh-serve", "b.json"][..],
            "--baseline-serve",
        ),
        (
            &[
                "--tolerance",
                "-1",
                "--baseline-kernels",
                "a",
                "--fresh-kernels",
                "b",
            ][..],
            "--tolerance",
        ),
        (
            &[
                "--fresh-serve",
                "b",
                "--fresh-serve",
                "b",
                "--baseline-serve",
                "a",
            ][..],
            "--fresh-serve",
        ),
        (
            &["--baseline-serve", "", "--fresh-serve", "b"][..],
            "--baseline-serve",
        ),
        (&["--bogus", "x"][..], "--bogus"),
        (&[][..], "--baseline-serve"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
            .args(args)
            .output()
            .expect("run bench-diff");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr.contains(named), "{args:?}: no {named} in: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: compared anyway");
    }
}
