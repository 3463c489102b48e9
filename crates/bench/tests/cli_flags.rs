//! `experiments` checks its whole line before the first experiment runs:
//! `--out` with no path (before, it fell back to the committed `results/`
//! directory), `--jobs 0`, a retired or unknown flag and an unknown
//! experiment name after a valid one exit with status 2 and an error
//! naming the word at fault, and nothing is written. `bench-diff` likewise
//! exits 2 naming the flag when its arguments are malformed.

use std::fs;
use std::process::Command;

#[test]
fn experiments_rejects_a_bad_line_with_exit_2_before_writing() {
    let dir = std::env::temp_dir().join(format!("adavp-cli-experiments-{}", std::process::id()));
    for (args, named) in [
        (&["fig2", "--out"][..], "--out"),
        (&["fig2", "--out", "--jobs", "1"][..], "--out"),
        (&["fig2", "--jobs", "0", "--out", "res"][..], "--jobs"),
        (&["fig2", "--faults", "--out", "res"][..], "--faults"),
        (
            &["table2", "fig99", "--scale", "smoke", "--out", "res"][..],
            "fig99",
        ),
    ] {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr.contains(named), "{args:?}: no {named} in: {stderr}");
        let written: Vec<_> = fs::read_dir(&dir).expect("read scratch dir").collect();
        assert!(written.is_empty(), "{args:?}: wrote {written:?}");
    }
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

#[test]
fn bench_diff_rejects_malformed_flags_with_exit_2_naming_the_flag() {
    for (args, named) in [
        (&["--baseline", "a.json"][..], "--fresh"),
        (&["--baseline", "--fresh", "b.json"][..], "--baseline"),
        (
            &["--tolerance", "-1", "--baseline", "a", "--fresh", "b"][..],
            "--tolerance",
        ),
        (
            &["--fresh", "b", "--fresh", "b", "--baseline", "a"][..],
            "--fresh",
        ),
        (&["--baseline", "", "--fresh", "b"][..], "--baseline"),
        (
            &["--baseline-kernels", "a", "--fresh", "b"][..],
            "--baseline-kernels",
        ),
        (&["--bogus", "x"][..], "--bogus"),
        (&[][..], "--baseline"),
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
