//! Portable, lane-width-agnostic SIMD-style row helpers.
//!
//! Every hot kernel in this crate (separable blur, 2x2 box downsample,
//! Scharr smoothing/differencing, the Lucas-Kanade bilinear window fills)
//! bottoms out in one of the element-wise row operations defined here. The
//! helpers are written in the one shape LLVM reliably auto-vectorizes
//! without `unsafe` or architecture intrinsics (the crate root carries
//! `#![forbid(unsafe_code)]`): every input is re-sliced to the *exact*
//! output length up front (or walked with `windows`/`chunks_exact`), so
//! the bounds checks vanish and the plain element loop compiles to full
//! vector lanes at whatever width the target ISA offers. The lane width is
//! never named in the source — the same code vectorizes to SSE2, AVX2 or
//! AVX-512 purely from the compile-time target baseline.
//!
//! # Deterministic dispatch
//!
//! These helpers are the only implementation the kernels run; the plain
//! scalar loops they replaced survive only as test oracles in
//! `reference`. Lane width is decided **at compile time only**,
//! by the target ISA baseline the build pins (`.cargo/config.toml`).
//! There is no runtime CPU-feature probing (the `cpu-probe` adavp-lint
//! rule rejects `is_*_feature_detected` in every deterministic crate), so
//! a given binary always takes the same code path. Vectorization here
//! always means "across independent output elements", never "reassociate a
//! reduction", so results are **bit-identical** to the oracles across
//! lane widths and hosts.
//!
//! # Exactness
//!
//! * Integer helpers ([`blur5_h_row`], [`blur5_v_row`], [`box2_row`],
//!   [`smooth313_v_row`], [`smooth313_h_row`]) use the narrowest lane type
//!   whose range provably holds every intermediate (`16 * 255 = 4080 <
//!   65535` for the 5-tap and `[3 10 3]` kernels, `4 * 255 = 1020` for the
//!   box filter), so they equal the wider scalar arithmetic exactly.
//! * `f32` helpers ([`bilinear_span_u8`], [`bilinear_span_f32`],
//!   [`diff_norm_row`], and the Lucas-Kanade summand rows [`mismatch_row`],
//!   [`abs_diff_row`], [`tensor_row`]) replicate the per-element expression
//!   of their scalar counterparts token for token; lanes are independent
//!   pixels, so per-lane operation order is unchanged. The summand rows
//!   only compute products; the caller adds them up in tap order, so no
//!   reduction is ever reassociated.

#[inline(always)]
fn bilinear(p00: f32, p10: f32, p01: f32, p11: f32, tx: f32, ty: f32) -> f32 {
    let top = p00 + (p10 - p00) * tx;
    let bottom = p01 + (p11 - p01) * tx;
    top + (bottom - top) * ty
}

/// Bilinear interpolation of a whole window row from two `u8` image rows.
///
/// `out[k]` interpolates between `r0[k]`, `r0[k + 1]`, `r1[k]`,
/// `r1[k + 1]` with per-lane horizontal fraction `tx[k]` and shared
/// vertical fraction `ty` — bit-identical to calling
/// [`crate::image::GrayImage::sample_fast`] per tap on the interior path.
///
/// # Panics
///
/// Panics unless `r0.len() == r1.len() == out.len() + 1` and
/// `tx.len() == out.len()`.
#[inline]
pub fn bilinear_span_u8(r0: &[u8], r1: &[u8], tx: &[f32], ty: f32, out: &mut [f32]) {
    let n = out.len();
    assert!(r0.len() == n + 1 && r1.len() == n + 1 && tx.len() == n);
    let (a0, a1) = (&r0[..n], &r0[1..1 + n]);
    let (b0, b1) = (&r1[..n], &r1[1..1 + n]);
    let tx = &tx[..n];
    for k in 0..n {
        out[k] = bilinear(
            a0[k] as f32,
            a1[k] as f32,
            b0[k] as f32,
            b1[k] as f32,
            tx[k],
            ty,
        );
    }
}

/// [`bilinear_span_u8`] over `f32` plane rows (gradient fields);
/// bit-identical to the interior path of
/// [`crate::gradient::GradientField::sample_gx_fast`] per tap.
///
/// # Panics
///
/// Panics unless `r0.len() == r1.len() == out.len() + 1` and
/// `tx.len() == out.len()`.
#[inline]
pub fn bilinear_span_f32(r0: &[f32], r1: &[f32], tx: &[f32], ty: f32, out: &mut [f32]) {
    let n = out.len();
    assert!(r0.len() == n + 1 && r1.len() == n + 1 && tx.len() == n);
    let (a0, a1) = (&r0[..n], &r0[1..1 + n]);
    let (b0, b1) = (&r1[..n], &r1[1..1 + n]);
    let tx = &tx[..n];
    for k in 0..n {
        out[k] = bilinear(a0[k], a1[k], b0[k], b1[k], tx[k], ty);
    }
}

/// The Lucas-Kanade Newton summands of one window row:
/// `ex[k] = (prev[k] - cur[k]) * gx[k]` and `ey[k] = (prev[k] - cur[k]) *
/// gy[k]`, each rounded exactly as the scalar `diff * g` (no fused
/// multiply-add), so summing them in tap order reproduces the scalar loop.
///
/// # Panics
///
/// Panics unless all six rows share a length.
#[inline]
pub fn mismatch_row(
    prev: &[f32],
    cur: &[f32],
    gx: &[f32],
    gy: &[f32],
    ex: &mut [f32],
    ey: &mut [f32],
) {
    let n = ex.len();
    assert!(prev.len() == n && cur.len() == n && gx.len() == n && gy.len() == n && ey.len() == n);
    let taps = prev.iter().zip(cur).zip(gx).zip(gy);
    for ((ex, ey), (((p, c), gx), gy)) in ex.iter_mut().zip(ey.iter_mut()).zip(taps) {
        let diff = p - c;
        *ex = diff * gx;
        *ey = diff * gy;
    }
}

/// `out[k] = |a[k] - b[k]|`: the residual summands of one window row.
///
/// # Panics
///
/// Panics unless `a`, `b` and `out` share a length.
#[inline]
pub fn abs_diff_row(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() == out.len() && b.len() == out.len());
    for (o, (a, b)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = (a - b).abs();
    }
}

/// The structure-tensor summands of one window row: `xx[k] = gx[k]^2`,
/// `xy[k] = gx[k] * gy[k]` and `yy[k] = gy[k]^2`.
///
/// # Panics
///
/// Panics unless all five rows share a length.
#[inline]
pub fn tensor_row(gx: &[f32], gy: &[f32], xx: &mut [f32], xy: &mut [f32], yy: &mut [f32]) {
    let n = xx.len();
    assert!(gx.len() == n && gy.len() == n && xy.len() == n && yy.len() == n);
    let outs = xx.iter_mut().zip(xy.iter_mut()).zip(yy.iter_mut());
    for (((xx, xy), yy), (gx, gy)) in outs.zip(gx.iter().zip(gy)) {
        *xx = gx * gx;
        *xy = gx * gy;
        *yy = gy * gy;
    }
}

/// If `idx` is a run of consecutive indices whose bilinear taps
/// (`idx[k]` and `idx[k] + 1`) all lie inside `0..limit`, returns the run's
/// start; otherwise `None`. Gate for the contiguous span fast paths — the
/// caller falls back to per-tap sampling (bit-identical, just slower) when
/// floating-point tap coordinates straddle a rounding edge or the border.
pub fn contiguous_start(idx: &[i64], limit: usize) -> Option<usize> {
    let &first = idx.first()?;
    if first < 0 {
        return None;
    }
    for (k, &v) in idx.iter().enumerate() {
        if v != first + k as i64 {
            return None;
        }
    }
    let last = first + idx.len() as i64 - 1;
    if (last + 1) as usize >= limit {
        return None;
    }
    Some(first as usize)
}

/// Horizontal 5-tap binomial blur (`[1 4 6 4 1] / 16`) over the row
/// interior: `dst[i]` is computed from `src[i..i + 5]` in `u16` fixed
/// point. Exact: the accumulator maxes at `16 * 255 = 4080`.
///
/// # Panics
///
/// Panics unless `src.len() == dst.len() + 4`.
// adavp-lint: allow(cast-truncation, item=blur5_h_row, bound=255) — widening u8 pixel reads; the u16 accumulator maxes at 16*255 = 4080
pub fn blur5_h_row(src: &[u8], dst: &mut [u16]) {
    let n = dst.len();
    assert!(src.len() == n + 4);
    for (d, w) in dst.iter_mut().zip(src.windows(5)) {
        let acc = w[0] as u16 + 4 * w[1] as u16 + 6 * w[2] as u16 + 4 * w[3] as u16 + w[4] as u16;
        *d = acc / 16;
    }
}

/// Vertical 5-tap binomial blur over five horizontally-blurred rows
/// (values `<= 255`, so the `u16` accumulator maxes at 4080).
///
/// # Panics
///
/// Panics unless all five rows have `dst`'s length.
// adavp-lint: allow(cast-truncation, item=blur5_v_row, bound=255) — acc <= 4080, so acc/16 <= 255 fits the u8 store exactly
pub fn blur5_v_row(r0: &[u16], r1: &[u16], r2: &[u16], r3: &[u16], r4: &[u16], dst: &mut [u8]) {
    let n = dst.len();
    assert!(
        r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n && r4.len() == n,
        "blur rows must match the output row length"
    );
    for i in 0..n {
        let acc = r0[i] + 4 * r1[i] + 6 * r2[i] + 4 * r3[i] + r4[i];
        dst[i] = (acc / 16) as u8;
    }
}

/// 2x2 box-filter decimation of two source rows into one half-width row:
/// `dst[x] = (r0[2x] + r0[2x+1] + r1[2x] + r1[2x+1]) / 4` in `u16` fixed
/// point (max sum `4 * 255 = 1020`).
///
/// # Panics
///
/// Panics unless both source rows hold at least `2 * dst.len()` pixels.
// adavp-lint: allow(cast-truncation, item=box2_row, bound=255) — sum <= 4*255 = 1020 in u16, so sum/4 <= 255 fits the u8 store
pub fn box2_row(r0: &[u8], r1: &[u8], dst: &mut [u8]) {
    let n = dst.len();
    assert!(r0.len() >= 2 * n && r1.len() >= 2 * n);
    let r0 = &r0[..2 * n];
    let r1 = &r1[..2 * n];
    for ((d, p0), p1) in dst
        .iter_mut()
        .zip(r0.chunks_exact(2))
        .zip(r1.chunks_exact(2))
    {
        let sum = p0[0] as u16 + p0[1] as u16 + p1[0] as u16 + p1[1] as u16;
        *d = (sum / 4) as u8;
    }
}

/// Vertical Scharr smoothing `3*up + 10*mid + 3*dn` into `u16`
/// (max `16 * 255 = 4080`).
///
/// # Panics
///
/// Panics unless all rows have `dst`'s length.
// adavp-lint: allow(cast-truncation, item=smooth313_v_row, bound=255) — widening u8 pixel reads; 3+10+3 taps max at 16*255 = 4080 in u16
pub fn smooth313_v_row(up: &[u8], mid: &[u8], dn: &[u8], dst: &mut [u16]) {
    let n = dst.len();
    assert!(up.len() == n && mid.len() == n && dn.len() == n);
    for x in 0..n {
        dst[x] = 3 * up[x] as u16 + 10 * mid[x] as u16 + 3 * dn[x] as u16;
    }
}

/// Horizontal Scharr smoothing over the row interior: `dst[i]` is
/// `3*mid[i] + 10*mid[i+1] + 3*mid[i+2]` in `u16` (max 4080).
///
/// # Panics
///
/// Panics unless `mid.len() == dst.len() + 2`.
// adavp-lint: allow(cast-truncation, item=smooth313_h_row, bound=255) — widening u8 pixel reads; 3+10+3 taps max at 16*255 = 4080 in u16
pub fn smooth313_h_row(mid: &[u8], dst: &mut [u16]) {
    let n = dst.len();
    assert!(mid.len() == n + 2);
    for (d, w) in dst.iter_mut().zip(mid.windows(3)) {
        *d = 3 * w[0] as u16 + 10 * w[1] as u16 + 3 * w[2] as u16;
    }
}

/// Normalized central difference of two smoothed rows:
/// `out[i] = (hi[i] - lo[i]) as f32 * norm`. The difference is an integer
/// in `[-4080, 4080]`, exactly representable in `f32`, and `norm` is a
/// power of two, so the result is exact.
///
/// # Panics
///
/// Panics unless `hi`, `lo` and `out` share a length.
// adavp-lint: allow(cast-truncation, item=diff_norm_row, bound=4080) — smoothed inputs are <= 4080, widened to i32 before the subtraction
pub fn diff_norm_row(hi: &[u16], lo: &[u16], norm: f32, out: &mut [f32]) {
    let n = out.len();
    assert!(hi.len() == n && lo.len() == n);
    let hi = &hi[..n];
    let lo = &lo[..n];
    for i in 0..n {
        out[i] = (hi[i] as i32 - lo[i] as i32) as f32 * norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern_u8(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn bilinear_span_matches_scalar_formula() {
        for n in [0usize, 1, 3, 7, 8, 9, 16, 31] {
            let r0 = pattern_u8(n + 1, 11);
            let r1 = pattern_u8(n + 1, 199);
            let tx: Vec<f32> = (0..n).map(|k| (k as f32 * 0.137) % 1.0).collect();
            let ty = 0.625;
            let mut out = vec![0.0f32; n];
            bilinear_span_u8(&r0, &r1, &tx, ty, &mut out);
            for k in 0..n {
                let expect = bilinear(
                    r0[k] as f32,
                    r0[k + 1] as f32,
                    r1[k] as f32,
                    r1[k + 1] as f32,
                    tx[k],
                    ty,
                );
                assert_eq!(out[k], expect, "lane {k} of {n}");
            }
            let f0: Vec<f32> = r0.iter().map(|&v| v as f32 * 0.25).collect();
            let f1: Vec<f32> = r1.iter().map(|&v| v as f32 * 0.25).collect();
            let mut out_f = vec![0.0f32; n];
            bilinear_span_f32(&f0, &f1, &tx, ty, &mut out_f);
            for k in 0..n {
                assert_eq!(
                    out_f[k],
                    bilinear(f0[k], f0[k + 1], f1[k], f1[k + 1], tx[k], ty)
                );
            }
        }
    }

    #[test]
    fn contiguous_start_accepts_runs_and_rejects_everything_else() {
        assert_eq!(contiguous_start(&[3, 4, 5], 7), Some(3));
        assert_eq!(contiguous_start(&[0, 1], 3), Some(0));
        // Last tap reads index 6, so limit 6 is out of bounds.
        assert_eq!(contiguous_start(&[3, 4, 5], 6), None);
        assert_eq!(contiguous_start(&[-1, 0, 1], 10), None);
        assert_eq!(contiguous_start(&[2, 4, 5], 10), None, "gap");
        assert_eq!(contiguous_start(&[], 10), None);
    }

    #[test]
    fn blur5_rows_match_u32_arithmetic() {
        for n in [1usize, 5, 8, 13, 40] {
            let src = pattern_u8(n + 4, 3);
            let mut dst = vec![0u16; n];
            blur5_h_row(&src, &mut dst);
            for i in 0..n {
                let acc: u32 = src[i] as u32
                    + 4 * src[i + 1] as u32
                    + 6 * src[i + 2] as u32
                    + 4 * src[i + 3] as u32
                    + src[i + 4] as u32;
                assert_eq!(dst[i] as u32, acc / 16);
            }
        }
        // Saturating content: every tap at 255 stays in range.
        let max = vec![255u8; 20];
        let mut dst = vec![0u16; 16];
        blur5_h_row(&max, &mut dst);
        assert!(dst.iter().all(|&v| v == 255));
        let wide = vec![4080u16; 16];
        let mut out = vec![0u8; 16];
        blur5_v_row(&wide, &wide, &wide, &wide, &wide, &mut out);
        // 16 * 4080 / 16 = 4080 -> truncates into u8 only after /16 of the
        // *horizontal* pass; rows here are raw maxima, i.e. 4080 each, and
        // the vertical accumulator would overflow u16 — which is why the
        // kernels only ever feed rows already divided by 16 (<= 255).
        // This call documents the contract with in-range rows instead:
        let rows = vec![255u16; 16];
        blur5_v_row(&rows, &rows, &rows, &rows, &rows, &mut out);
        assert!(out.iter().all(|&v| v == 255));
    }

    #[test]
    fn box2_matches_u32_arithmetic() {
        for n in [1usize, 4, 8, 9, 33] {
            let r0 = pattern_u8(2 * n + 1, 7);
            let r1 = pattern_u8(2 * n + 1, 91);
            let mut dst = vec![0u8; n];
            box2_row(&r0, &r1, &mut dst);
            for x in 0..n {
                let sum = r0[2 * x] as u32
                    + r0[2 * x + 1] as u32
                    + r1[2 * x] as u32
                    + r1[2 * x + 1] as u32;
                assert_eq!(dst[x] as u32, sum / 4);
            }
        }
        let full = vec![255u8; 8];
        let mut dst = vec![0u8; 4];
        box2_row(&full, &full, &mut dst);
        assert!(dst.iter().all(|&v| v == 255), "no saturation overflow");
    }

    #[test]
    fn scharr_rows_match_u32_arithmetic() {
        for n in [1usize, 8, 11, 64] {
            let up = pattern_u8(n, 1);
            let mid = pattern_u8(n, 2);
            let dn = pattern_u8(n, 3);
            let mut v = vec![0u16; n];
            smooth313_v_row(&up, &mid, &dn, &mut v);
            for x in 0..n {
                assert_eq!(
                    v[x] as u32,
                    3 * up[x] as u32 + 10 * mid[x] as u32 + 3 * dn[x] as u32
                );
            }
            let wide = pattern_u8(n + 2, 4);
            let mut h = vec![0u16; n];
            smooth313_h_row(&wide, &mut h);
            for i in 0..n {
                assert_eq!(
                    h[i] as u32,
                    3 * wide[i] as u32 + 10 * wide[i + 1] as u32 + 3 * wide[i + 2] as u32
                );
            }
        }
    }

    #[test]
    fn diff_rows_are_exact() {
        let hi: Vec<u16> = (0..32).map(|i| 4080 - i * 17).collect();
        let lo: Vec<u16> = (0..32).map(|i| i * 129).collect();
        let mut f = vec![0.0f32; 32];
        diff_norm_row(&hi, &lo, 1.0 / 32.0, &mut f);
        for i in 0..32 {
            let expect = (hi[i] as i32 - lo[i] as i32) as f32 * (1.0 / 32.0);
            assert_eq!(f[i], expect);
        }
    }
}
