//! Seeded byte-mutation test of the lint's hand-written parsers: the
//! policy (`lint.toml`), the debt baseline (`lint.baseline`) and the Rust
//! lexer. Each starts from the committed file, and every mutant (bytes
//! flipped, inserted, deleted or truncated) must come back, as `Ok` or
//! `Err` for the parsers, without a panic and in under a second. The
//! mutants are a pure function of the fixed seed, so a failure replays
//! exactly.

use adavp_lint::{lexer, parse_policy, rule_names, Baseline};
use adavp_rng::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Mutants per parser.
const MUTANTS: usize = 2000;

/// The longest one call may take on any mutant.
const LIMIT: Duration = Duration::from_secs(1);

/// One to four random edits of `input`.
fn mutate(input: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut b = input.to_vec();
    for _ in 0..rng.gen_range(1usize..=4) {
        match rng.gen_range(0u32..4) {
            0 if !b.is_empty() => {
                let i = rng.gen_range(0..b.len());
                b[i] ^= 1 << rng.gen_range(0u32..8);
            }
            1 => {
                let i = rng.gen_range(0..=b.len());
                b.insert(i, rng.gen::<u32>() as u8);
            }
            2 if !b.is_empty() => {
                b.remove(rng.gen_range(0..b.len()));
            }
            3 => {
                let n = rng.gen_range(0..=b.len());
                b.truncate(n);
            }
            _ => {}
        }
    }
    b
}

/// Feeds `MUTANTS` lossy-UTF-8 mutants of `input` to `parse` (which
/// reports whether it accepted the text) and fails on the first panic or
/// slow call, naming the mutant. Returns how many mutants were accepted.
fn survive_mutants(name: &str, input: &str, seed: u64, parse: impl Fn(&str) -> bool) -> usize {
    assert!(parse(input), "{name}: the unmutated input must parse");
    let mut rng = Rng::seed_from_u64(seed);
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let mutant = mutate(input.as_bytes(), &mut rng);
        let text = String::from_utf8_lossy(&mutant);
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| parse(&text))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!("{name}: mutant {i} panicked: {text:?}"),
        }
        let took = start.elapsed();
        assert!(took < LIMIT, "{name}: mutant {i} took {took:?}: {text:?}");
    }
    accepted
}

#[test]
fn policy_parser_returns_ok_or_err_on_mutated_input() {
    let known = rule_names();
    let accepted = survive_mutants(
        "parse_policy",
        include_str!("../../../lint.toml"),
        11,
        |t| parse_policy(t, &known).is_ok(),
    );
    // The edits reach both outcomes, so neither path went untested.
    assert!(0 < accepted && accepted < MUTANTS, "{accepted} accepted");
}

#[test]
fn baseline_parser_returns_ok_or_err_on_mutated_input() {
    let baseline = include_str!("../../../lint.baseline");
    let accepted = survive_mutants("Baseline::parse", baseline, 12, |t| {
        Baseline::parse(t).is_ok()
    });
    assert!(0 < accepted && accepted < MUTANTS, "{accepted} accepted");
}

#[test]
fn lexer_survives_mutated_source() {
    // The lexer never fails; it must only return, on a real workspace file.
    let source = include_str!("../src/policy.rs");
    survive_mutants("lexer::lex", source, 13, |t| {
        let _ = lexer::lex(t);
        true
    });
}
