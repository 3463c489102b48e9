//! The camera frame buffer abstraction.
//!
//! In the real system frames arrive from the camera at a fixed rate and are
//! held in a buffer until the detector or tracker consumes them (§IV-A). In
//! the deterministic simulation, a [`FrameStream`] answers the only question
//! the pipelines ask of the buffer: *given the virtual time, which frames
//! have been captured so far?* — plus bookkeeping for the temporary buffer
//! of frames accumulated between two detections.

use crate::clip::{Frame, VideoClip};

/// Read-only, time-indexed view of a clip as a camera feed.
///
/// # Example
///
/// ```
/// use adavp_video::scenario::Scenario;
/// use adavp_video::clip::VideoClip;
/// use adavp_video::buffer::FrameStream;
/// let mut spec = Scenario::Highway.spec();
/// spec.width = 64; spec.height = 36;
/// let clip = VideoClip::generate("s", &spec, 1, 10);
/// let stream = FrameStream::new(&clip);
/// // At t = 100ms (30 FPS), frames 0..=3 have been captured.
/// assert_eq!(stream.newest_at(100.0), Some(3));
/// assert_eq!(stream.newest_at(-1.0), None);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FrameStream<'a> {
    clip: &'a VideoClip,
}

impl<'a> FrameStream<'a> {
    /// Wraps a clip as a camera feed.
    pub fn new(clip: &'a VideoClip) -> Self {
        Self { clip }
    }

    /// The underlying clip.
    pub fn clip(&self) -> &'a VideoClip {
        self.clip
    }

    /// Capture timestamp of frame `index` in milliseconds.
    pub fn arrival_ms(&self, index: u64) -> f64 {
        index as f64 * self.clip.frame_interval_ms()
    }

    /// Index of the newest frame captured at or before `t_ms`, or `None`
    /// when no frame has been captured yet (`t_ms < 0`).
    ///
    /// Saturates at the last frame of the clip.
    pub fn newest_at(&self, t_ms: f64) -> Option<u64> {
        if t_ms < 0.0 || self.clip.is_empty() {
            return None;
        }
        let idx = (t_ms / self.clip.frame_interval_ms()).floor() as u64;
        Some(idx.min(self.clip.len() as u64 - 1))
    }

    /// The frame at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn frame(&self, index: u64) -> &'a Frame {
        self.clip.frame(index as usize)
    }

    /// Number of frames in the underlying clip.
    pub fn len(&self) -> u64 {
        self.clip.len() as u64
    }

    /// Whether the stream has no frames.
    pub fn is_empty(&self) -> bool {
        self.clip.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn clip(frames: u32) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 64;
        spec.height = 36;
        spec.size_range = (10.0, 16.0);
        VideoClip::generate("b", &spec, 1, frames)
    }

    #[test]
    fn newest_at_basic() {
        let c = clip(10);
        let s = FrameStream::new(&c);
        assert_eq!(s.newest_at(0.0), Some(0));
        assert_eq!(s.newest_at(33.0), Some(0));
        assert_eq!(s.newest_at(33.4), Some(1));
        assert_eq!(s.newest_at(330.0), Some(9));
        // Saturates at the end.
        assert_eq!(s.newest_at(10_000.0), Some(9));
        assert_eq!(s.newest_at(-0.001), None);
    }

    #[test]
    fn arrival_times() {
        let c = clip(10);
        let s = FrameStream::new(&c);
        assert_eq!(s.arrival_ms(0), 0.0);
        assert!((s.arrival_ms(3) - 100.0).abs() < 0.01);
    }

    #[test]
    fn empty_clip() {
        let c = clip(0);
        let s = FrameStream::new(&c);
        assert!(s.is_empty());
        assert_eq!(s.newest_at(100.0), None);
    }
}
