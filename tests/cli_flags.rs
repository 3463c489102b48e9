//! The `adavp` binary rejects malformed flags with exit status 2 and an
//! error naming the flag, instead of silently running with a default.

use std::process::{Command, Output};

/// Runs `adavp` on a whitespace-separated argument line.
fn adavp(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adavp"))
        .args(line.split_whitespace())
        .output()
        .expect("run adavp")
}

#[test]
fn malformed_flags_exit_2_naming_the_flag() {
    for (line, named) in [
        ("run --scenario highway --frames abc", "--frames"),
        ("run --scenario highway --frames 3 --seed", "--seed"),
        ("run --scenario highway --seed --frames 3", "--seed"),
        ("run --scenario highway --frames 3 stray", "stray"),
        ("run --scenario highway --frames 0", "--frames"),
        ("run --scenario highway --frames 3 --gt yes", "--gt"),
        ("metrics --streams 1 --cycles 1 --gpus 0", "--gpus"),
        ("metrics --streams 1 --cycles 1 --cadence inf", "--cadence"),
        ("serve --streams 1 --cycles 1 --window -5", "--window"),
        ("serve --streams 1 --cycles 1 --window nan", "--window"),
        ("serve --streams 1,0 --cycles 1", "--streams"),
    ] {
        let out = adavp(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {out:?}");
        assert!(stderr.contains(named), "{line}: no {named} in: {stderr}");
        assert!(out.stdout.is_empty(), "{line}: ran anyway");
    }
}

#[test]
fn well_formed_flags_still_run() {
    for line in [
        "run --scenario highway --frames 3 --gt oracle",
        "serve --streams 1 --cycles 1 --window 0",
        "metrics --streams 1 --cycles 1 --gpus 1",
    ] {
        let out = adavp(line);
        assert!(out.status.success(), "{line}: {out:?}");
    }
}
