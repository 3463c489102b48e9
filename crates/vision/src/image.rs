//! Grayscale raster images.
//!
//! [`GrayImage`] is the pixel container every vision kernel in this crate
//! operates on. Pixels are `u8` intensities stored row-major; sub-pixel reads
//! use bilinear interpolation ([`GrayImage::sample`]), which is what the
//! Lucas-Kanade tracker needs to follow features at fractional coordinates.

use std::fmt;

/// A row-major, 8-bit grayscale image.
///
/// # Example
///
/// ```
/// use adavp_vision::image::GrayImage;
/// let img = GrayImage::from_fn(4, 4, |x, y| (x * 10 + y) as u8);
/// assert_eq!(img.get(2, 1), 21);
/// assert_eq!(img.sample(1.5, 0.0), 15.0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl fmt::Debug for GrayImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GrayImage")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("bytes", &self.data.len())
            .finish()
    }
}

impl GrayImage {
    /// Creates a black (all-zero) image.
    ///
    /// # Panics
    ///
    /// Panics if `width * height` overflows `usize`.
    // adavp-lint: allow(panic-surface, item=new) — documented constructor precondition; overflow here means a corrupt config, not a runtime fault
    pub fn new(width: u32, height: u32) -> Self {
        let len = (width as usize)
            .checked_mul(height as usize)
            .expect("image dimensions overflow");
        Self {
            width,
            height,
            data: vec![0; len],
        }
    }

    /// Creates an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn<F: FnMut(u32, u32) -> u8>(width: u32, height: u32, mut f: F) -> Self {
        let mut img = Self::new(width, height);
        for y in 0..height {
            for x in 0..width {
                let i = img.index(x, y);
                img.data[i] = f(x, y);
            }
        }
        img
    }

    /// Creates an image from raw row-major pixel data.
    ///
    /// Returns `None` if `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Option<Self> {
        if data.len() == (width as usize) * (height as usize) {
            Some(Self {
                width,
                height,
                data,
            })
        } else {
            None
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw pixel bytes, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw pixel bytes, row-major (for slice-based kernels writing
    /// results in place without per-pixel bounds checks).
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// One row of pixels as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= self.height()`.
    #[inline]
    pub fn row(&self, y: u32) -> &[u8] {
        let w = self.width as usize;
        let start = y as usize * w;
        &self.data[start..start + w]
    }

    /// Resizes the image to `width x height` in place, keeping its buffer
    /// when it has the room ([`crate::perf`] counts which). The pixels are
    /// left unspecified, for a kernel to overwrite.
    pub(crate) fn reshape(&mut self, width: u32, height: u32) {
        crate::perf::fit(&mut self.data, width as usize * height as usize);
        self.width = width;
        self.height = height;
    }

    /// Consumes the image and returns the raw pixel bytes.
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        y as usize * self.width as usize + x as usize
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[self.index(x, y)]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = self.index(x, y);
        self.data[i] = v;
    }

    /// Pixel value with coordinates clamped to the image border
    /// (replicate-border addressing, used by convolution kernels).
    #[inline]
    // adavp-lint: allow(cast-truncation, item=get_clamped, bound=4294967295) — coordinates are clamped to [0, dim-1] and dims are u32, so the i64 value fits by construction
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.data[self.index(cx, cy)]
    }

    /// Bilinearly-interpolated intensity at fractional coordinates.
    ///
    /// Coordinates outside the image are clamped to the border, so the
    /// function is total. The result is in `[0, 255]`.
    pub fn sample(&self, x: f32, y: f32) -> f32 {
        let xf = x.floor();
        let yf = y.floor();
        let tx = x - xf;
        let ty = y - yf;
        let x0 = xf as i64;
        let y0 = yf as i64;
        let p00 = self.get_clamped(x0, y0) as f32;
        let p10 = self.get_clamped(x0 + 1, y0) as f32;
        let p01 = self.get_clamped(x0, y0 + 1) as f32;
        let p11 = self.get_clamped(x0 + 1, y0 + 1) as f32;
        let top = p00 + (p10 - p00) * tx;
        let bottom = p01 + (p11 - p01) * tx;
        top + (bottom - top) * ty
    }

    /// Bilinearly-interpolated intensity, optimized for coordinates whose
    /// 2x2 neighborhood lies fully inside the image (single bounds test,
    /// direct indexing); falls back to [`GrayImage::sample`] at borders.
    ///
    /// Returns **bit-identical** values to `sample` for every input — the
    /// interpolation arithmetic is the same, only the addressing differs.
    #[inline]
    pub fn sample_fast(&self, x: f32, y: f32) -> f32 {
        let xf = x.floor();
        let yf = y.floor();
        let x0 = xf as i64;
        let y0 = yf as i64;
        if x0 >= 0 && y0 >= 0 && x0 + 1 < self.width as i64 && y0 + 1 < self.height as i64 {
            let tx = x - xf;
            let ty = y - yf;
            let w = self.width as usize;
            let i = y0 as usize * w + x0 as usize;
            let p00 = self.data[i] as f32;
            let p10 = self.data[i + 1] as f32;
            let p01 = self.data[i + w] as f32;
            let p11 = self.data[i + w + 1] as f32;
            let top = p00 + (p10 - p00) * tx;
            let bottom = p01 + (p11 - p01) * tx;
            top + (bottom - top) * ty
        } else {
            self.sample(x, y)
        }
    }

    /// Whether `(x, y)` lies at least `margin` pixels inside the image.
    pub fn in_bounds_with_margin(&self, x: f32, y: f32, margin: f32) -> bool {
        x >= margin
            && y >= margin
            && x < self.width as f32 - margin
            && y < self.height as f32 - margin
    }

    /// Mean intensity of the image, in `[0, 255]`.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.data.iter().map(|&v| v as u64).sum();
        sum as f32 / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = GrayImage::new(3, 2);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
        assert!(img.as_bytes().iter().all(|&v| v == 0));
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut img = GrayImage::from_fn(4, 3, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.get(3, 2), 23);
        img.set(3, 2, 99);
        assert_eq!(img.get(3, 2), 99);
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(GrayImage::from_raw(2, 2, vec![0; 4]).is_some());
        assert!(GrayImage::from_raw(2, 2, vec![0; 5]).is_none());
        let img = GrayImage::from_raw(2, 1, vec![7, 8]).unwrap();
        assert_eq!(img.into_raw(), vec![7, 8]);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn get_out_of_bounds_panics() {
        GrayImage::new(2, 2).get(2, 0);
    }

    #[test]
    fn clamped_addressing() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x + 3 * y) as u8);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(2, 2));
        assert_eq!(img.get_clamped(1, -1), img.get(1, 0));
    }

    #[test]
    fn bilinear_sampling() {
        let img = GrayImage::from_fn(2, 2, |x, y| match (x, y) {
            (0, 0) => 0,
            (1, 0) => 100,
            (0, 1) => 200,
            _ => 100,
        });
        assert_eq!(img.sample(0.0, 0.0), 0.0);
        assert_eq!(img.sample(0.5, 0.0), 50.0);
        assert_eq!(img.sample(0.0, 0.5), 100.0);
        // Centre: mean of all four corners.
        assert_eq!(img.sample(0.5, 0.5), 100.0);
        // Outside coordinates clamp.
        assert_eq!(img.sample(-3.0, -3.0), 0.0);
    }

    #[test]
    fn margin_check() {
        let img = GrayImage::new(10, 10);
        assert!(img.in_bounds_with_margin(5.0, 5.0, 2.0));
        assert!(!img.in_bounds_with_margin(1.0, 5.0, 2.0));
        assert!(!img.in_bounds_with_margin(5.0, 8.5, 2.0));
    }

    #[test]
    fn mean_intensity() {
        let img = GrayImage::from_fn(2, 2, |x, _| if x == 0 { 0 } else { 100 });
        assert_eq!(img.mean(), 50.0);
    }
}
