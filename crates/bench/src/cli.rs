//! Argument parsing for the `experiments` binary: every experiment name and
//! flag is checked and converted before the first experiment runs, so a
//! malformed line is one `Err` that names the word at fault (the binary
//! prints it and exits 2) and never a half-finished run.

use adavp_video::dataset::DatasetScale;
use adavp_vision::exec::Executor;
use std::path::PathBuf;

/// What `all`, or no name at all, runs.
const ALL: [&str; 13] = [
    "fig1",
    "fig2",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table3",
    "faults",
    "adaptation-audit",
];

/// The experiments `all` leaves out: the ablations and the MARLIN trigger
/// sweep.
const EXTRA: [&str; 2] = ["ablations", "marlin-sweep"];

/// A checked `experiments` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentsArgs {
    /// Experiments to run, in command-line order (`all` expanded in place,
    /// each name once).
    pub experiments: Vec<&'static str>,
    /// `--scale` (standard by default).
    pub scale: DatasetScale,
    /// `--out`, the CSV directory (`results` by default).
    pub out: PathBuf,
    /// `--jobs`, the harness concurrency (the core count by default).
    pub jobs: usize,
}

/// Splits `args` into `--flag value` pairs of the `known` flags, in order,
/// and hands every other word to `word`. An unknown `--flag`, a flag with
/// no value (the end of the line, another `--flag`, or an empty string) and
/// a flag given twice are errors naming the flag.
fn flag_values<'a>(
    args: &'a [String],
    known: &[&'static str],
    mut word: impl FnMut(&str) -> Result<(), String>,
) -> Result<Vec<(&'static str, &'a str)>, String> {
    let mut values: Vec<(&'static str, &'a str)> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(flag) = a.strip_prefix("--") else {
            word(a)?;
            continue;
        };
        let Some(&name) = known.iter().find(|n| **n == flag) else {
            return Err(format!("unknown flag: {a}"));
        };
        let Some(value) = it.next_if(|v| !v.is_empty() && !v.starts_with("--")) else {
            return Err(format!("--{name} expects a value"));
        };
        if values.iter().any(|(n, _)| *n == name) {
            return Err(format!("--{name} is given more than once"));
        }
        values.push((name, value));
    }
    Ok(values)
}

/// Parses `experiments`' arguments (without the program name): experiment
/// names and `--flag value` pairs in any order. `all` stands for every
/// experiment but the ablations and the MARLIN sweep, at its place in the
/// line, and a name already listed is skipped. An unknown experiment or
/// flag, a flag with no value or given twice, an unknown scale and a
/// `--jobs` that is not a positive integer are errors.
pub fn parse_args(args: &[String]) -> Result<ExperimentsArgs, String> {
    let mut names: Vec<&'static str> = Vec::new();
    let flags = flag_values(args, &["scale", "out", "jobs"], |a| {
        let expanded = match ALL.into_iter().chain(EXTRA).find(|n| *n == a) {
            Some(name) => vec![name],
            None if a == "all" => ALL.to_vec(),
            None => return Err(format!("unknown experiment: {a}")),
        };
        for name in expanded {
            if !names.contains(&name) {
                names.push(name);
            }
        }
        Ok(())
    })?;
    let value = |name: &str| flags.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let scale = match value("scale") {
        None | Some("standard") => DatasetScale::Standard,
        Some("smoke") => DatasetScale::Smoke,
        Some("full") => DatasetScale::Full,
        Some(v) => return Err(format!("--scale expects smoke|standard|full, got {v:?}")),
    };
    let jobs = match value("jobs") {
        None => Executor::available().jobs(),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--jobs expects a positive integer, got {v:?}"))?,
    };
    if names.is_empty() {
        names = ALL.to_vec();
    }
    Ok(ExperimentsArgs {
        experiments: names,
        scale,
        out: value("out").map_or_else(|| PathBuf::from("results"), PathBuf::from),
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<ExperimentsArgs, String> {
        let args: Vec<String> = line.split(' ').map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn names_and_flags_in_any_order() {
        let a = parse("fig6 --scale smoke table3 --jobs 2 --out res").unwrap();
        assert_eq!(a.experiments, ["fig6", "table3"]);
        assert_eq!(a.scale, DatasetScale::Smoke);
        assert_eq!(a.jobs, 2);
        assert_eq!(a.out, PathBuf::from("res"));
        let all = parse("all --jobs 1").unwrap();
        assert_eq!(all.experiments, ALL);
        assert_eq!(all.scale, DatasetScale::Standard);
        assert_eq!(all.out, PathBuf::from("results"));
        assert_eq!(parse_args(&[]).unwrap().experiments, ALL);
        // `all` expands in place: named extras around it still run, in
        // command-line order, and a repeated name runs once.
        let extras = parse("all ablations marlin-sweep").unwrap();
        assert_eq!(extras.experiments, [&ALL[..], &EXTRA[..]].concat());
        let around = parse("marlin-sweep all fig6 ablations").unwrap();
        assert_eq!(
            around.experiments,
            [&["marlin-sweep"][..], &ALL[..], &["ablations"][..]].concat()
        );
    }

    #[test]
    fn malformed_lines_name_the_word_at_fault() {
        for (line, named) in [
            ("fig6 --out", "--out expects a value"),
            ("fig6 --out --jobs 1", "--out expects a value"),
            ("fig6 --scale  --jobs 1", "--scale expects a value"),
            ("fig6 --jobs 1 --jobs 2", "--jobs is given more than once"),
            ("fig6 --jobs 0", "--jobs expects a positive integer"),
            ("fig6 --jobs -1", "--jobs expects a positive integer"),
            ("fig6 --scale huge", "--scale expects smoke|standard|full"),
            ("fig6 --bogus 1", "unknown flag: --bogus"),
            ("fig6 --faults", "unknown flag: --faults"),
            ("all fig99", "unknown experiment: fig99"),
            ("fig6 diag", "unknown experiment: diag"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(named), "{line:?}: {err}");
        }
    }
}
