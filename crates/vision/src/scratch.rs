//! Reusable scratch buffers for the allocation-free kernel paths.
//!
//! The hot vision kernels (Gaussian blur, downsampling, Scharr gradients,
//! pyramid construction) all need intermediate planes. Allocating those per
//! call is pure overhead in a per-frame loop, so [`ScratchPool`] owns them
//! and hands them out for reuse: the tracker keeps one pool alive across
//! frames, and every recycled buffer is counted in
//! [`crate::perf::KernelCounters::buffers_reused`] (fresh heap allocations
//! count under `buffers_allocated`), making the allocation savings directly
//! observable.
//!
//! # Example
//!
//! ```
//! use adavp_vision::{image::GrayImage, pyramid::Pyramid, scratch::ScratchPool, perf};
//! let img = GrayImage::new(64, 64);
//! let mut pool = ScratchPool::new();
//! let p1 = Pyramid::build_with(&img, 3, &mut pool);
//! p1.recycle(&mut pool); // return the level buffers
//! let before = perf::snapshot();
//! let _p2 = Pyramid::build_with(&img, 3, &mut pool);
//! let work = perf::snapshot().since(&before);
//! assert_eq!(work.buffers_allocated, 0, "second build reuses every buffer");
//! ```

use crate::image::GrayImage;
use crate::perf;

/// A pool of reusable pixel and intermediate-plane buffers.
///
/// All `take_*` methods return buffers of exactly the requested size
/// (contents unspecified); `recycle_*` methods accept buffers back for
/// later reuse. The pool never shrinks on its own; call
/// [`ScratchPool::clear`] to drop everything.
#[derive(Debug, Default, Clone)]
pub struct ScratchPool {
    gray: Vec<Vec<u8>>,
    planes_u16: Vec<Vec<u16>>,
    planes_f32: Vec<Vec<f32>>,
}

/// Takes the pooled buffer that fits `len` most tightly (the smallest
/// capacity that holds it, else the largest, which then grows), or
/// allocates fresh. Resizes to `len` either way. Best fit keeps a small
/// request (a coarse pyramid level) from taking the buffer a large one
/// needs and growing every buffer to the largest size. A reused buffer
/// that is already long enough is *truncated*, never re-zeroed: every
/// `take_*` consumer overwrites what it reads, and the clear-then-resize
/// memset this replaces made pooled pyramid builds slower than fresh
/// allocation (the OS hands out calloc'd pages for free; re-zeroing reused
/// ones is pure overhead).
fn take_sized<T: Default + Clone>(pool: &mut Vec<Vec<T>>, len: usize) -> Vec<T> {
    let fits = (0..pool.len())
        .filter(|&i| pool[i].capacity() >= len)
        .min_by_key(|&i| pool[i].capacity());
    let picked = fits.or_else(|| (0..pool.len()).max_by_key(|&i| pool[i].capacity()));
    match picked {
        Some(i) => {
            let mut buf = pool.swap_remove(i);
            perf::record(|c| c.buffers_reused += 1);
            if buf.len() >= len {
                buf.truncate(len);
            } else {
                buf.resize(len, T::default());
            }
            buf
        }
        None => {
            perf::record(|c| c.buffers_allocated += 1);
            vec![T::default(); len]
        }
    }
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.gray.len() + self.planes_u16.len() + self.planes_f32.len()
    }

    /// Drops every parked buffer.
    pub fn clear(&mut self) {
        self.gray.clear();
        self.planes_u16.clear();
        self.planes_f32.clear();
    }

    /// Takes a `width * height` grayscale image (contents unspecified).
    pub fn take_image(&mut self, width: u32, height: u32) -> GrayImage {
        let len = (width as usize)
            .checked_mul(height as usize)
            .expect("image dimensions overflow");
        let buf = take_sized(&mut self.gray, len);
        GrayImage::from_raw(width, height, buf).expect("buffer sized to len")
    }

    /// Takes a `width * height` image initialized as a copy of `src`.
    pub fn take_image_copy(&mut self, src: &GrayImage) -> GrayImage {
        let mut img = self.take_image(src.width(), src.height());
        img.as_mut_bytes().copy_from_slice(src.as_bytes());
        img
    }

    /// Returns an image's pixel buffer to the pool.
    pub fn recycle_image(&mut self, img: GrayImage) {
        self.gray.push(img.into_raw());
    }

    /// Takes a `len`-element `u16` plane (used by separable blur/gradients).
    pub fn take_u16(&mut self, len: usize) -> Vec<u16> {
        take_sized(&mut self.planes_u16, len)
    }

    /// Returns a `u16` plane to the pool.
    pub fn recycle_u16(&mut self, plane: Vec<u16>) {
        self.planes_u16.push(plane);
    }

    /// Takes a `len`-element `f32` plane (used by gradient fields).
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        take_sized(&mut self.planes_f32, len)
    }

    /// Returns an `f32` plane to the pool.
    pub fn recycle_f32(&mut self, plane: Vec<f32>) {
        self.planes_f32.push(plane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pool_allocates_then_reuses() {
        perf::reset();
        let mut pool = ScratchPool::new();
        let img = pool.take_image(8, 4);
        assert_eq!((img.width(), img.height()), (8, 4));
        let s1 = perf::snapshot();
        assert_eq!(s1.buffers_allocated, 1);
        assert_eq!(s1.buffers_reused, 0);

        pool.recycle_image(img);
        assert_eq!(pool.parked(), 1);
        let img2 = pool.take_image(4, 4); // smaller: still reuses
        assert_eq!(img2.as_bytes().len(), 16);
        let s2 = perf::snapshot();
        assert_eq!(s2.buffers_allocated, 1, "no new allocation");
        assert_eq!(s2.buffers_reused, 1);
    }

    #[test]
    fn take_image_copy_copies_pixels() {
        let src = GrayImage::from_fn(5, 3, |x, y| (x + 7 * y) as u8);
        let mut pool = ScratchPool::new();
        let copy = pool.take_image_copy(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn typed_planes_round_trip() {
        let mut pool = ScratchPool::new();
        let u = pool.take_u16(10);
        assert_eq!(u.len(), 10);
        pool.recycle_u16(u);
        let f = pool.take_f32(6);
        assert_eq!(f.len(), 6);
        pool.recycle_f32(f);
        assert_eq!(pool.parked(), 2);
        pool.clear();
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn reuse_never_rezeroes_long_enough_buffers() {
        let mut pool = ScratchPool::new();
        pool.recycle_u16(vec![7u16; 64]);
        let buf = pool.take_u16(32);
        assert_eq!(buf.len(), 32);
        assert!(
            buf.iter().all(|&v| v == 7),
            "steady-state take must truncate, not memset"
        );
        // A too-short parked buffer still grows with default fill.
        pool.recycle_u16(vec![3u16; 8]);
        let grown = pool.take_u16(16);
        assert_eq!(grown.len(), 16);
        assert_eq!(&grown[..8], &[3u16; 8]);
        assert_eq!(&grown[8..], &[0u16; 8]);
    }

    #[test]
    fn prefers_largest_parked_buffer_when_none_fits() {
        let mut pool = ScratchPool::new();
        pool.recycle_u16(Vec::with_capacity(4));
        pool.recycle_u16(Vec::with_capacity(40));
        let big = pool.take_u16(50);
        assert!(big.capacity() >= 50 && pool.parked() == 1);
        assert_eq!(pool.take_u16(1).capacity(), 4, "the grown one was taken");
    }

    #[test]
    fn takes_the_tightest_fitting_buffer() {
        let mut pool = ScratchPool::new();
        for cap in [400, 100, 4, 120] {
            pool.recycle_f32(Vec::with_capacity(cap));
        }
        assert_eq!(pool.take_f32(90).capacity(), 100);
        assert_eq!(pool.take_f32(101).capacity(), 120);
        assert_eq!(pool.take_f32(3).capacity(), 4);
        assert_eq!(pool.take_f32(3).capacity(), 400, "only the largest is left");
    }
}
