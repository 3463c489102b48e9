//! Trace analysis: the statistics the evaluation figures are built from.
//!
//! [`CycleStats`] summarizes one [`ProcessingTrace`]; the free functions
//! aggregate across traces (Fig. 7's switch-gap distribution, Fig. 8's
//! setting-usage shares).

use crate::pipeline::{ProcessingTrace, SourceFractions};
use adavp_detector::ModelSetting;

/// Summary statistics of one pipeline trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleStats {
    /// Number of detection cycles.
    pub cycles: usize,
    /// Number of setting switches.
    pub switches: usize,
    /// Mean cycle duration (detection latency) in ms.
    pub mean_cycle_ms: f64,
    /// Mean measured content velocity (over cycles that measured one).
    pub mean_velocity: Option<f64>,
    /// Fractions of frames by source.
    pub frame_sources: SourceFractions,
}

/// Computes summary statistics for a trace.
pub fn analyze(trace: &ProcessingTrace) -> CycleStats {
    let n = trace.cycles.len();
    let mut dur = 0.0;
    let mut vel_sum = 0.0;
    let mut vel_n = 0usize;
    for cy in &trace.cycles {
        dur += cy.end_ms - cy.start_ms;
        if let Some(v) = cy.velocity {
            vel_sum += v;
            vel_n += 1;
        }
    }
    let nf = n.max(1) as f64;
    CycleStats {
        cycles: n,
        switches: trace.switch_count(),
        mean_cycle_ms: dur / nf,
        mean_velocity: if vel_n > 0 {
            Some(vel_sum / vel_n as f64)
        } else {
            None
        },
        frame_sources: trace.source_fractions(),
    }
}

/// Numbers of cycles between consecutive setting switches across traces
/// (the sample Fig. 7 draws its CDF from). A gap of 1 means the system
/// switched again on the very next cycle.
pub fn switch_gaps<'a>(traces: impl IntoIterator<Item = &'a ProcessingTrace>) -> Vec<u32> {
    let mut gaps = Vec::new();
    for trace in traces {
        let mut since = 0u32;
        for cy in &trace.cycles {
            since += 1;
            if cy.switched {
                gaps.push(since);
                since = 0;
            }
        }
    }
    gaps
}

/// Fraction of detection cycles run at each adaptive setting across traces
/// (Fig. 8). Sums to 1 when any adaptive-setting cycle exists.
pub fn usage_shares<'a>(
    traces: impl IntoIterator<Item = &'a ProcessingTrace>,
) -> [(ModelSetting, f64); 4] {
    let mut counts = [0usize; 4];
    let mut total = 0usize;
    for trace in traces {
        for cy in &trace.cycles {
            if let Some(i) = cy.setting.adaptive_index() {
                counts[i] += 1;
                total += 1;
            }
        }
    }
    let mut out = [(ModelSetting::Yolo320, 0.0); 4];
    for (i, &s) in ModelSetting::ADAPTIVE.iter().enumerate() {
        out[i] = (s, counts[i] as f64 / total.max(1) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{CycleRecord, FrameOutput, FrameSource};

    fn cycle(idx: u32, setting: ModelSetting, switched: bool, vel: Option<f64>) -> CycleRecord {
        CycleRecord {
            index: idx,
            detected_frame: idx as u64 * 10,
            setting,
            start_ms: idx as f64 * 400.0,
            end_ms: idx as f64 * 400.0 + 390.0,
            buffered: 9,
            tracked: 3,
            velocity: vel,
            switched,
            fault: None,
            diverged: false,
        }
    }

    fn trace(cycles: Vec<CycleRecord>) -> ProcessingTrace {
        ProcessingTrace {
            pipeline: "t".into(),
            outputs: vec![
                FrameOutput {
                    frame_index: 0,
                    source: FrameSource::Detected,
                    boxes: vec![],
                    confidences: vec![],
                    display_ms: 0.0,
                },
                FrameOutput {
                    frame_index: 1,
                    source: FrameSource::Held,
                    boxes: vec![],
                    confidences: vec![],
                    display_ms: 0.0,
                },
            ],
            cycles,
            energy: Default::default(),
            finished_ms: 0.0,
            gpu_busy_ms: 0.0,
            cpu_busy_ms: 0.0,
            telemetry: Default::default(),
            metrics: Default::default(),
        }
    }

    #[test]
    fn analyze_basic_stats() {
        let t = trace(vec![
            cycle(0, ModelSetting::Yolo512, false, None),
            cycle(1, ModelSetting::Yolo608, true, Some(1.0)),
            cycle(2, ModelSetting::Yolo608, false, Some(3.0)),
        ]);
        let s = analyze(&t);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.switches, 1);
        assert!((s.mean_cycle_ms - 390.0).abs() < 1e-9);
        assert_eq!(s.mean_velocity, Some(2.0));
    }

    #[test]
    fn switch_gap_extraction() {
        let t = trace(vec![
            cycle(0, ModelSetting::Yolo512, false, None),
            cycle(1, ModelSetting::Yolo608, true, None),
            cycle(2, ModelSetting::Yolo608, false, None),
            cycle(3, ModelSetting::Yolo608, false, None),
            cycle(4, ModelSetting::Yolo512, true, None),
        ]);
        let gaps = switch_gaps([&t]);
        assert_eq!(gaps, vec![2, 3]);
    }

    #[test]
    fn usage_shares_sum_to_one() {
        let t = trace(vec![
            cycle(0, ModelSetting::Yolo320, false, None),
            cycle(1, ModelSetting::Yolo608, false, None),
        ]);
        let shares = usage_shares([&t]);
        let sum: f64 = shares.iter().map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(shares[0].1, 0.5);
        assert_eq!(shares[3].1, 0.5);
    }

    #[test]
    fn empty_trace_is_safe() {
        let t = ProcessingTrace {
            pipeline: "e".into(),
            outputs: vec![],
            cycles: vec![],
            energy: Default::default(),
            finished_ms: 0.0,
            gpu_busy_ms: 0.0,
            cpu_busy_ms: 0.0,
            telemetry: Default::default(),
            metrics: Default::default(),
        };
        let s = analyze(&t);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.mean_velocity, None);
        assert!(switch_gaps([&t]).is_empty());
    }
}
