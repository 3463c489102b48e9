//! Seeded randomness for the AdaVP workspace.
//!
//! Every random draw in the workspace comes from this crate, so a seed pins
//! every clip, detection and fleet decision on any machine:
//!
//! * [`splitmix`] — the splitmix64 hash. The order-independent models
//!   (rasterizer noise, detector jitter, fault plans, fleet streams) key it
//!   with `(seed, tag, index)` and never carry state; [`mix`] is that keyed
//!   hash and [`unit()`] maps a hash word to `[0, 1)`.
//! * [`Rng`] — a sequential splitmix64 generator for the code that draws a
//!   stream (the world simulator, the detector's per-frame error model).
//! * [`check`] — a seeded property-test loop that names the failing case's
//!   seed instead of shrinking it.
//! * [`fnv1a`] — the FNV-1a digest the golden tests pin output bytes with.
//!
//! # Example
//!
//! ```
//! use adavp_rng::Rng;
//!
//! let mut a = Rng::seed_from_u64(7);
//! let mut b = Rng::seed_from_u64(7);
//! let x: f32 = a.gen_range(0.0..10.0);
//! assert_eq!(x, b.gen_range(0.0..10.0));
//! assert!((0.0..10.0).contains(&x));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

mod check;

pub use check::check;

/// The splitmix64 increment (2^64 / golden ratio).
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Splitmix64: a cheap, well-mixed 64-bit hash.
#[inline]
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Keyed splitmix64 hash: the same `(seed, tag, a, b)` always gives the
/// same word, independent of call order. `tag` separates the streams of
/// different decisions drawn under one seed.
#[inline]
pub fn mix(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let h = splitmix(seed ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03));
    splitmix(splitmix(h ^ a) ^ b)
}

/// Uniform `f64` in `[0, 1)` from a hash word, with 53 bits of precision.
#[inline]
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The FNV-1a (64-bit) offset basis: the digest of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a (64-bit) of `bytes`, continued from the digest `h`: start from
/// [`FNV1A_OFFSET`], and feed a long stream in pieces, since
/// `fnv1a(fnv1a(h, a), b) == fnv1a(h, a ++ b)`. The golden tests pin output
/// bytes with it; it is a checksum, not a random draw.
///
/// ```
/// use adavp_rng::{fnv1a, FNV1A_OFFSET};
///
/// assert_eq!(fnv1a(FNV1A_OFFSET, b""), FNV1A_OFFSET);
/// assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(
///     fnv1a(fnv1a(FNV1A_OFFSET, b"ab"), b"c"),
///     fnv1a(FNV1A_OFFSET, b"abc")
/// );
/// ```
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seeded splitmix64 generator: the state starts at the seed and each
/// draw hashes the state, then advances it by the splitmix64 increment.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let word = splitmix(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        word
    }

    /// A value from `T`'s standard distribution: `[0, 1)` for `f32`, a
    /// fair coin for `bool`, the low 32 bits of a draw for `u32`.
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value drawn uniformly from `range` (`lo..hi` or `lo..=hi`).
    ///
    /// # Panics
    ///
    /// If the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        unit(self.next_u64())
    }
}

/// Types [`Rng::gen`] can draw.
pub trait Sample {
    /// One value from the type's standard distribution.
    fn sample(rng: &mut Rng) -> Self;
}

impl Sample for f32 {
    fn sample(rng: &mut Rng) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Sample for bool {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for u32 {
    fn sample(rng: &mut Rng) -> Self {
        rng.next_u64() as u32
    }
}

/// Ranges [`Rng::gen_range`] can draw from: `lo..hi` and `lo..=hi`.
pub trait SampleRange<T> {
    /// One value drawn uniformly from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: Uniform> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        T::between(self.start, self.end, false, rng)
    }
}

impl<T: Uniform> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        let (lo, hi) = self.into_inner();
        T::between(lo, hi, true, rng)
    }
}

/// Types [`Rng::gen_range`] can draw uniformly.
pub trait Uniform: Sized {
    /// A value in `lo..hi`, or `lo..=hi` when `inclusive`.
    fn between(lo: Self, hi: Self, inclusive: bool, rng: &mut Rng) -> Self;
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn between(lo: $t, hi: $t, inclusive: bool, rng: &mut Rng) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "empty range");
                // A span of 0 is the full 2^64 range.
                let span = (hi.wrapping_sub(lo) as u64).wrapping_add(u64::from(inclusive));
                let word = rng.next_u64();
                let off = if span == 0 { word } else { word % span };
                lo.wrapping_add(off as $t)
            }
        }
    )*};
}

int_uniform!(u32, u64, usize, i32, i64);

macro_rules! float_uniform {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            fn between(lo: $t, hi: $t, inclusive: bool, rng: &mut Rng) -> $t {
                assert!(lo < hi || (inclusive && lo == hi), "empty range");
                let v = lo + (hi - lo) * rng.unit_f64() as $t;
                // Rounding can land on `hi`; keep a half-open range half-open.
                if inclusive {
                    v.min(hi)
                } else if v < hi {
                    v
                } else {
                    lo
                }
            }
        }
    )*};
}

float_uniform!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_the_splitmix64_reference() {
        // First outputs of the splitmix64 reference generator seeded with 0.
        let mut r = Rng::seed_from_u64(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(splitmix(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn mix_is_pure_and_spreads() {
        assert_eq!(mix(1, 2, 3, 4), mix(1, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 2, 3, 5));
        assert_ne!(mix(1, 2, 3, 4), mix(2, 2, 3, 4));
        assert_ne!(mix(1, 2, 3, 4), mix(1, 3, 3, 4));
        assert!((0.0..1.0).contains(&unit(mix(9, 0x5e01, 7, 0))));
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let i: i64 = r.gen_range(-4..=4);
            assert!((-4..=4).contains(&i));
            let u: usize = r.gen_range(0..3);
            assert!(u < 3);
            let f: f32 = r.gen_range(1e-6..1.0);
            assert!((1e-6..1.0).contains(&f));
            let g: f64 = r.gen_range(-1e9..1e9);
            assert!((-1e9..1e9).contains(&g));
            let unit: f32 = r.gen();
            assert!((0.0..1.0).contains(&unit));
        }
        assert_eq!(r.gen_range(5u32..=5), 5);
        let full: u64 = r.gen_range(0..=u64::MAX);
        let _ = full;
    }

    #[test]
    fn every_residue_is_reachable() {
        let mut r = Rng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let heads = (0..1000).filter(|_| r.gen::<bool>()).count();
        assert!((400..600).contains(&heads), "{heads} heads");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_int_range_panics() {
        Rng::seed_from_u64(0).gen_range(3u32..3);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_float_range_panics() {
        Rng::seed_from_u64(0).gen_range(1.0f32..1.0);
    }
}
