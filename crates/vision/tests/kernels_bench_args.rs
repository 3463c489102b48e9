//! `kernels_bench` takes at most one argument, its output path. A
//! flag-shaped argument (before, `kernels_bench --help` ran the whole bench
//! and wrote a file named `--help`), an empty path or a second argument
//! exits 2 naming that argument, before any kernel runs or any file is
//! written.

use std::fs;
use std::process::Command;

#[test]
fn stray_arguments_exit_2_naming_the_argument_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("adavp-kernels-args-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    for (args, named) in [
        (&["--help"][..], "`--help`"),
        (&["-o"][..], "`-o`"),
        (&[""][..], "``"),
        (&["out.json", "extra.json"][..], "`extra.json`"),
        (&["out.json", "--help"][..], "`--help`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_kernels_bench"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("run kernels_bench");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(stderr.contains(named), "{args:?}: no {named} in: {stderr}");
        let written: Vec<_> = fs::read_dir(&dir).expect("read scratch dir").collect();
        assert!(written.is_empty(), "{args:?}: wrote {written:?}");
    }
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}
