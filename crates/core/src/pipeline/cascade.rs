//! CaTDet-style cascaded detection (Cai et al., MLSys 2019, via PAPERS.md).
//!
//! Every cycle starts with a cheap YOLOv3-tiny **proposal pass** (~60 ms in
//! the latency model). The full detector is invoked only when a proposal
//! needs it: a box whose confidence falls below the gate threshold, or a
//! box that overlaps nothing the pipeline previously published (a *novel*
//! region). When the gate fires, the full detector runs **region-restricted**
//! over the padded union of the gated boxes, paying the proportionally
//! reduced latency of [`crate::latency::region_scaled_ms`]; when it stays
//! closed, the cycle costs one tiny pass. The published output merges the
//! refined boxes with the confident proposals outside the refined region.
//!
//! Only the refinement goes through the shared fault layer
//! (`ClipRun::detect`) — the proposal pass is a reliable preamble,
//! analogous to feature extraction in the tracking pipelines. A refinement that degrades
//! (timeout / exhausted retries) falls back to **proposal-only output**
//! with the cycle's degraded flag set, and the next cycle's refinement
//! steps one setting lighter (transient, like every other pipeline).

use super::clip_run::{ClipRun, Shown};
use super::{step_down, FrameSource, PipelineConfig, ProcessingTrace, VideoProcessor};
use crate::telemetry::{Attr, SpanKind, Track};
use adavp_detector::{Detection, Detector, ModelSetting};
use adavp_metrics::f1::LabeledBox;
use adavp_sim::time::SimTime;
use adavp_video::clip::VideoClip;
use adavp_vision::geometry::BoundingBox;

/// Cascade gate parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeConfig {
    /// Setting of the cheap proposal pass.
    pub proposal_setting: ModelSetting,
    /// Proposals below this confidence open the gate.
    pub confidence_threshold: f32,
    /// A proposal whose best IoU against the previously published boxes is
    /// below this is *novel* and opens the gate regardless of confidence.
    pub novel_iou: f32,
    /// Padding (px) added around the union of gated boxes before the
    /// region-restricted refinement.
    pub region_pad_px: f32,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        Self {
            proposal_setting: ModelSetting::Tiny320,
            confidence_threshold: 0.35,
            novel_iou: 0.3,
            region_pad_px: 12.0,
        }
    }
}

impl CascadeConfig {
    /// The gate decision for one proposal: open when the box is
    /// under-confident or overlaps nothing previously published.
    fn gated(&self, proposal: &Detection, published: &[LabeledBox]) -> bool {
        if proposal.confidence < self.confidence_threshold {
            return true;
        }
        !published
            .iter()
            .any(|b| b.bbox.iou(&proposal.bbox) >= self.novel_iou)
    }
}

/// The cascaded proposal + region-refinement pipeline. See the module docs.
#[derive(Debug, Clone)]
pub struct CascadePipeline<D> {
    detector: D,
    setting: ModelSetting,
    config: PipelineConfig,
    cascade: CascadeConfig,
}

impl<D: Detector> CascadePipeline<D> {
    /// Creates the cascade with `setting` as the full (refinement) model.
    pub fn new(
        detector: D,
        setting: ModelSetting,
        config: PipelineConfig,
        cascade: CascadeConfig,
    ) -> Self {
        Self {
            detector,
            setting,
            config,
            cascade,
        }
    }
}

/// Padded union of the gated boxes, clipped to the frame.
fn refine_region(
    gated: &[&Detection],
    pad: f32,
    frame_w: f32,
    frame_h: f32,
) -> Option<BoundingBox> {
    let mut union: Option<BoundingBox> = None;
    for d in gated {
        union = Some(match union {
            None => d.bbox,
            Some(u) => u.union_bounds(&d.bbox),
        });
    }
    let u = union?;
    BoundingBox::new(
        u.left - pad,
        u.top - pad,
        u.width + 2.0 * pad,
        u.height + 2.0 * pad,
    )
    .clipped(frame_w, frame_h)
}

impl<D: Detector> VideoProcessor for CascadePipeline<D> {
    fn name(&self) -> String {
        format!("Cascade-{}", self.setting)
    }

    fn process(&mut self, clip: &VideoClip) -> ProcessingTrace {
        ClipRun::process(&self.config, clip, self.name(), |run, last| {
            let frame_w = clip.width() as f32;
            let frame_h = clip.height() as f32;
            let proposal_setting = self.cascade.proposal_setting;
            let mut cur: u64 = 0;
            let mut t = SimTime::ZERO;
            // What the display currently shows — the novelty reference for
            // the gate.
            let mut last_good = Shown::default();
            let mut degraded_prev = false;
            loop {
                let cycle_key = run.next_cycle();
                let full_setting = step_down(self.setting, degraded_prev);
                let arrival = run.arrive(cur);

                // --- Proposal pass: cheap, reliable, every cycle. --------
                let (proposal, ps, pe) =
                    run.detect_unfaulted(&mut self.detector, cur, proposal_setting, t.max(arrival));
                if run.rec.on() {
                    run.rec.span(
                        Track::Gpu,
                        SpanKind::Detection,
                        format!("propose {proposal_setting}"),
                        ps.as_ms(),
                        pe.as_ms(),
                        vec![
                            Attr::u64("cycle", cycle_key),
                            Attr::u64("frame", cur),
                            Attr::u64("proposals", proposal.detections.len() as u64),
                        ],
                    );
                }

                // --- Gate: which proposals demand the full detector? -----
                let gated: Vec<&Detection> = proposal
                    .detections
                    .iter()
                    .filter(|d| self.cascade.gated(d, &last_good.boxes))
                    .collect();
                let region = refine_region(&gated, self.cascade.region_pad_px, frame_w, frame_h);

                let (shown, setting, end, fault) = match region {
                    None => {
                        // Gate closed: the tiny pass is the whole cycle.
                        degraded_prev = false;
                        (Shown::detected(&proposal), proposal_setting, pe, None)
                    }
                    Some(region) => {
                        // Gate open: region-restricted refinement through
                        // the shared fault/degradation layer.
                        let outcome =
                            run.detect(&mut self.detector, cur, full_setting, pe, Some(&region));
                        if run.rec.on() {
                            let frac =
                                (region.area() as f64 / (frame_w * frame_h) as f64).clamp(0.0, 1.0);
                            run.rec.annotate_last(
                                Track::Gpu,
                                vec![
                                    Attr::f64("region_fraction", frac),
                                    Attr::u64("gated", gated.len() as u64),
                                ],
                            );
                        }
                        degraded_prev = outcome.degraded();
                        let shown = match &outcome.result {
                            Some(refined) => {
                                // Refined boxes inside the region supersede
                                // the proposals there; confident proposals
                                // outside survive unchanged.
                                let mut shown = Shown::detected(refined);
                                for d in &proposal.detections {
                                    if !region.contains(d.bbox.center()) {
                                        shown.push(d);
                                    }
                                }
                                shown
                            }
                            // Degraded refinement: fall back to the
                            // proposal-only output, flagged via the fault.
                            None => Shown::detected(&proposal),
                        };
                        (shown, full_setting, outcome.end, outcome.fault)
                    }
                };

                let (_, ov_end) = run.publish(cur, FrameSource::Detected, &shown, end);
                run.push_cycle(cur, setting, ps, end, fault);
                if cur == last {
                    break;
                }
                let next = run.next_frame(cur, end);
                run.hold(cur + 1..next, &shown, ov_end);
                if let Some(c) = run.last_cycle() {
                    c.buffered = (next - cur - 1) as u32;
                }
                last_good = shown;
                t = end;
                cur = next;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adavp_detector::{DetectorConfig, SimulatedDetector};
    use adavp_video::scenario::Scenario;

    fn clip(frames: u32) -> VideoClip {
        let mut spec = Scenario::Highway.spec();
        spec.width = 240;
        spec.height = 140;
        spec.size_range = (20.0, 36.0);
        VideoClip::generate("cascade", &spec, 41, frames)
    }

    fn pipeline(setting: ModelSetting) -> CascadePipeline<SimulatedDetector> {
        CascadePipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            setting,
            PipelineConfig::default(),
            CascadeConfig::default(),
        )
    }

    #[test]
    fn every_frame_covered_and_named() {
        let c = clip(60);
        let mut p = pipeline(ModelSetting::Yolo512);
        assert_eq!(p.name(), "Cascade-YOLOv3-512");
        let trace = p.process(&c);
        assert_eq!(trace.outputs.len(), 60);
        for (i, o) in trace.outputs.iter().enumerate() {
            assert_eq!(o.frame_index as usize, i);
            assert_eq!(o.boxes.len(), o.confidences.len());
        }
    }

    #[test]
    fn deterministic() {
        let c = clip(60);
        let a = pipeline(ModelSetting::Yolo512).process(&c);
        let b = pipeline(ModelSetting::Yolo512).process(&c);
        assert_eq!(a, b);
    }

    #[test]
    fn refinement_cycles_record_the_full_setting() {
        let c = clip(80);
        let trace = pipeline(ModelSetting::Yolo512).process(&c);
        // The default threshold sits above tiny's typical confidence on
        // these small boxes, so at least the bootstrap cycle must refine.
        assert!(
            trace
                .cycles
                .iter()
                .any(|cy| cy.setting == ModelSetting::Yolo512),
            "no cycle ever invoked the full detector"
        );
        for cy in &trace.cycles {
            assert!(
                cy.setting == ModelSetting::Yolo512 || cy.setting == ModelSetting::Tiny320,
                "unexpected setting {}",
                cy.setting
            );
        }
    }

    #[test]
    fn cheaper_per_cycle_than_detector_only() {
        let c = clip(120);
        let cascade = pipeline(ModelSetting::Yolo512).process(&c);
        let mut full = super::super::DetectorOnlyPipeline::new(
            SimulatedDetector::new(DetectorConfig::default()),
            ModelSetting::Yolo512,
            PipelineConfig::default(),
        );
        let full = full.process(&c);
        let mean_ms = |t: &ProcessingTrace| {
            t.cycles.iter().map(|c| c.end_ms - c.start_ms).sum::<f64>() / t.cycles.len() as f64
        };
        assert!(
            mean_ms(&cascade) < mean_ms(&full),
            "cascade {:.1} ms/cycle must undercut detector-only {:.1}",
            mean_ms(&cascade),
            mean_ms(&full)
        );
    }
}
