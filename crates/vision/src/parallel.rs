//! Row-band splitting for the vision kernels' data-parallel fan-out.
//!
//! A kernel call that scans many pixels (or tracks many points) splits its
//! index range into contiguous bands with `band_ranges` and maps the bands
//! over an [`Executor`](crate::exec::Executor) sized by `scan_bands` or
//! [`max_threads`]. The executor returns per-band results in band order and
//! merges worker [`crate::perf`] counters into the caller, so the stitched
//! output and the counters are exactly those of the sequential scan; with
//! one band the map runs inline on the calling thread.

use std::sync::OnceLock;

/// Number of worker threads the automatic parallel paths target
/// (`std::thread::available_parallelism`, 1 when unknown).
///
/// Read once per process and cached: on Linux the query reads cgroup
/// files (tens of microseconds), and it would otherwise run once per
/// corner scan and once per large Lucas-Kanade call.
pub fn max_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Scanned pixels from which a corner scan fans out. Measured on a shared
/// 2-vCPU host (`good_features_in_boxes`, one box, alternating rounds):
/// one band against two read 0.18-0.28 vs 0.26-0.34 ms at 9 600 pixels
/// (a 120x80 box) and 0.94-1.46 vs 1.12-1.45 ms at 50 400; the two tied
/// at about 96 000 pixels, and two bands won by 10-12% at 198 000.
const FAN_OUT_PIXELS: usize = 1 << 17;

/// Number of bands a corner scan over `pixels` pixels should fan out over:
/// the available core count when the scan is large enough to pay for
/// spawning and joining the threads ([`FAN_OUT_PIXELS`]), otherwise 1
/// (inline).
pub(crate) fn scan_bands(pixels: usize) -> usize {
    if pixels >= FAN_OUT_PIXELS {
        max_threads()
    } else {
        1
    }
}

/// Splits `0..len` into at most `bands` contiguous ranges of near-equal
/// size (empty ranges are never produced). The corner scans and the
/// Lucas-Kanade point fan-out share it.
pub(crate) fn band_ranges(len: usize, bands: usize) -> Vec<(usize, usize)> {
    let bands = bands.clamp(1, len.max(1));
    let base = len / bands;
    let extra = len % bands;
    let mut out = Vec::with_capacity(bands);
    let mut start = 0usize;
    for b in 0..bands {
        let size = base + usize::from(b < extra);
        if size == 0 {
            break;
        }
        out.push((start, start + size));
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_ranges_cover_without_overlap() {
        for len in [0usize, 1, 2, 5, 16, 97] {
            for bands in [1usize, 2, 3, 7, 200] {
                let r = band_ranges(len, bands);
                let mut cursor = 0;
                for &(s, e) in &r {
                    assert_eq!(s, cursor, "len={len} bands={bands}");
                    assert!(e > s, "empty band for len={len} bands={bands}");
                    cursor = e;
                }
                assert_eq!(cursor, len, "len={len} bands={bands}");
                assert!(r.len() <= bands.max(1));
            }
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
