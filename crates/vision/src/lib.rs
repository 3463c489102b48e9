//! Classic computer-vision kernels used by the AdaVP object tracker.
//!
//! This crate is a from-scratch implementation of the two algorithms the
//! AdaVP paper (ICDCS 2020) relies on for its lightweight object tracker:
//!
//! * **Shi-Tomasi "good features to track"**
//!   ([`features::good_features_in_boxes`]) — minimum-eigenvalue corner
//!   response inside the detected boxes, with non-maximum suppression,
//!   mirroring OpenCV's `goodFeaturesToTrack` with a region mask.
//! * **Pyramidal Lucas-Kanade optical flow** ([`flow::PyramidalLk`]) —
//!   iterative LK refined coarse-to-fine over a Gaussian image pyramid,
//!   mirroring OpenCV's `calcOpticalFlowPyrLK`.
//!
//! Supporting modules provide grayscale images ([`image::GrayImage`]),
//! spatial-gradient and blur kernels ([`gradient`]), Gaussian pyramids
//! ([`pyramid`]) and rectangle geometry ([`geometry`]).
//!
//! # Hot-path design
//!
//! The kernels are written for a per-frame tracking loop, and each has one
//! implementation:
//!
//! * every kernel writes into caller-provided buffers recycled through a
//!   [`scratch::ScratchPool`], so steady-state frame processing performs
//!   no heap allocations;
//! * each [`pyramid::Pyramid`] computes its per-level Scharr gradients on
//!   demand, one tile at a time, only where corner detection and the
//!   Lucas-Kanade windows read them
//!   ([`pyramid::Pyramid::ensure_gradients`]); no tile is computed twice;
//! * row loops run through the autovectorized [`simd`] helpers in `u16`
//!   fixed point where the range allows, and are exact;
//! * every kernel runs on its caller's thread; the [`exec::Executor`] work
//!   queue, which runs whole offline work lists (clip renders, training
//!   runs, dataset sweeps) over a jobs-bounded pool with index-ordered,
//!   bit-identical results, is the only parallelism, so `--jobs` bounds
//!   the threads;
//! * the [`perf`] module counts kernel invocations, LK iterations, buffer
//!   reuse, and per-kernel wall time on thread-local counters, so the
//!   pipeline can report exactly how much work each frame cost.
//!
//! There is no runtime CPU probing anywhere (enforced by the `cpu-probe`
//! adavp-lint rule): the core count, the default `jobs` of
//! [`exec::Executor::available`], is the only thing read from the host,
//! and it never changes a result. The plain-loop forms of the
//! kernels live on in the hidden `reference` module as test oracles.
//!
//! # Example
//!
//! ```
//! use adavp_vision::features::{good_features_in_boxes, GoodFeaturesParams};
//! use adavp_vision::flow::{LkParams, PyramidalLk};
//! use adavp_vision::geometry::{BoundingBox, Point2};
//! use adavp_vision::image::GrayImage;
//! use adavp_vision::pyramid::Pyramid;
//! use adavp_vision::scratch::ScratchPool;
//!
//! // A synthetic textured image and a copy shifted right by 2 pixels.
//! let img = GrayImage::from_fn(96, 96, |x, y| {
//!     (((x / 8 + y / 8) % 2) as u8) * 180 + ((x * 7 + y * 13) % 31) as u8
//! });
//! let shifted = GrayImage::from_fn(96, 96, |x, y| {
//!     let sx = x.saturating_sub(2);
//!     img.get(sx, y)
//! });
//!
//! // Corners inside one object box, then tracked into the next frame.
//! let lk = PyramidalLk::new(LkParams::default());
//! let mut pool = ScratchPool::new();
//! let levels = lk.params().pyramid_levels;
//! let mut prev = Pyramid::build_with(&img, levels, &mut pool);
//! let next = Pyramid::build_with(&shifted, levels, &mut pool);
//! let object = [BoundingBox::new(16.0, 16.0, 64.0, 64.0)];
//! let params = GoodFeaturesParams::default();
//! let corners = good_features_in_boxes(&mut prev, &params, &object, &mut pool);
//! assert!(!corners.is_empty());
//!
//! let pts: Vec<Point2> = corners.iter().map(|c| c.point).collect();
//! let tracked = lk.track_pyramids(&mut prev, &next, &pts, &mut pool);
//! let ok = tracked.iter().filter(|t| t.found).count();
//! assert!(ok > 0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod features;
pub mod flow;
pub mod geometry;
pub mod gradient;
pub mod image;
pub mod perf;
pub mod pyramid;
#[doc(hidden)]
pub mod reference;
pub mod scratch;
pub mod simd;

pub use exec::Executor;
pub use features::{good_features_in_boxes, Corner, GoodFeaturesParams};
pub use flow::{FlowResult, LkParams, LkParamsError, PyramidalLk};
pub use geometry::{BoundingBox, Point2, Vec2};
pub use image::GrayImage;
pub use perf::KernelCounters;
pub use pyramid::Pyramid;
pub use scratch::ScratchPool;
