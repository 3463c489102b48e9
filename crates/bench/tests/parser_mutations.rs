//! Seeded byte-mutation test of the hand-written parsers that read files
//! from disk: the PGM reader and the fault-profile fixture parser. Each
//! starts from a valid input, and every mutant (bytes flipped, inserted,
//! deleted or truncated) must come back as `Ok` or `Err`, never as a
//! panic. The mutants are a pure function of the fixed seed, so a failure
//! replays exactly.

use adavp_bench::faults::parse_profile_fixture;
use adavp_rng::Rng;
use adavp_video::export::{parse_pgm, write_pgm};
use adavp_vision::image::GrayImage;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants per parser.
const MUTANTS: usize = 2000;

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

/// Feeds `MUTANTS` mutants of `input` to `parse` (which reports whether it
/// accepted the bytes) and fails on the first panic, naming the mutant.
fn survive_mutants(name: &str, input: &[u8], seed: u64, parse: impl Fn(&[u8]) -> bool) {
    assert!(parse(input), "{name}: the unmutated input must parse");
    let mut rng = Rng::seed_from_u64(seed);
    let mut accepted = 0;
    for i in 0..MUTANTS {
        let mutant = mutate(input, &mut rng);
        match catch_unwind(AssertUnwindSafe(|| parse(&mutant))) {
            Ok(ok) => accepted += usize::from(ok),
            Err(_) => panic!(
                "{name}: mutant {i} panicked: {:?}",
                String::from_utf8_lossy(&mutant)
            ),
        }
    }
    // The edits reach both outcomes, so neither path went untested.
    assert!(
        0 < accepted && accepted < MUTANTS,
        "{name}: {accepted} of {MUTANTS} mutants accepted"
    );
}

#[test]
fn parsers_return_ok_or_err_on_mutated_input() {
    let path = std::env::temp_dir().join(format!("adavp-mutants-{}.pgm", std::process::id()));
    let image = GrayImage::from_fn(8, 8, |x, y| (x * 31 + y * 7) as u8);
    write_pgm(&image, &path).expect("write pgm");
    let pgm = std::fs::read(&path).expect("read pgm");
    std::fs::remove_file(&path).expect("remove pgm");
    survive_mutants("parse_pgm", &pgm, 2, |b| parse_pgm(b).is_ok());

    let fixture = include_str!("fixtures/stress_profile.txt");
    survive_mutants("parse_profile_fixture", fixture.as_bytes(), 3, |b| {
        parse_profile_fixture(&String::from_utf8_lossy(b)).is_ok()
    });
}
