//! The scheme registry: every detection scheme under evaluation, with its
//! report label, its `--system` name and the pipeline it builds. The CLI,
//! the experiment harness and the conformance tests all construct their
//! pipelines through [`Scheme::build`].

use super::{
    CascadeConfig, CascadePipeline, ContinuousPipeline, CtdConfig, CtdPipeline,
    DetectorOnlyPipeline, MarlinConfig, MarlinPipeline, MpdtPipeline, PipelineConfig,
    SettingPolicy, VideoProcessor,
};
use crate::adaptation::AdaptationModel;
use adavp_detector::{DetectorConfig, ModelSetting, SimulatedDetector};

/// A named processing scheme under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// AdaVP with a trained adaptation model.
    AdaVp(AdaptationModel),
    /// MPDT with a fixed setting.
    Mpdt(ModelSetting),
    /// MARLIN (sequential) with a fixed setting.
    Marlin(ModelSetting),
    /// Detection only, newest frame, hold between detections.
    WithoutTracking(ModelSetting),
    /// Detect every frame, ignoring real time (Table III bound).
    Continuous(ModelSetting),
    /// Cascaded detection: tiny proposal pass, region-restricted refinement.
    Cascade(ModelSetting),
    /// Confidence-triggered detection (sequential, decay-based trigger).
    Ctd(ModelSetting),
}

/// A fixed-setting scheme's constructor.
type Fixed = fn(ModelSetting) -> Scheme;

/// `--system` name prefixes of the fixed-setting schemes; each takes one of
/// the four adaptive input sizes as its suffix.
const FIXED: [(&str, Fixed); 6] = [
    ("mpdt-", Scheme::Mpdt),
    ("marlin-", Scheme::Marlin),
    ("cascade-", Scheme::Cascade),
    ("ctd-", Scheme::Ctd),
    ("without-tracking-", Scheme::WithoutTracking),
    ("continuous-", Scheme::Continuous),
];

impl Scheme {
    /// The scheme's display label (matches the paper's column names).
    pub fn label(&self) -> String {
        match self {
            Scheme::AdaVp(_) => "AdaVP".to_string(),
            Scheme::Mpdt(s) => format!("MPDT-{s}"),
            Scheme::Marlin(s) => format!("MARLIN-{s}"),
            Scheme::WithoutTracking(s) => format!("WithoutTracking-{s}"),
            Scheme::Continuous(s) => format!("{s} (continuous)"),
            Scheme::Cascade(s) => format!("Cascade-{s}"),
            Scheme::Ctd(s) => format!("CTD-{s}"),
        }
    }

    /// Parses a `--system` name: `adavp` (the default adaptation model),
    /// `tiny` (continuous Tiny YOLOv3-320), or
    /// `{mpdt,marlin,cascade,ctd,without-tracking,continuous}-{320,416,512,608}`.
    /// Returns `None` for anything else.
    pub fn parse(name: &str) -> Option<Scheme> {
        match name {
            "adavp" => return Some(Scheme::AdaVp(AdaptationModel::default_model())),
            "tiny" => return Some(Scheme::Continuous(ModelSetting::Tiny320)),
            _ => {}
        }
        FIXED.iter().find_map(|&(prefix, make)| {
            let size = name.strip_prefix(prefix)?;
            ModelSetting::ADAPTIVE
                .into_iter()
                .find(|s| s.input_size().to_string() == size)
                .map(make)
        })
    }

    /// Builds a runnable pipeline for this scheme.
    pub fn build(
        &self,
        detector: DetectorConfig,
        pipeline: PipelineConfig,
    ) -> Box<dyn VideoProcessor> {
        let det = SimulatedDetector::new(detector);
        match self {
            Scheme::AdaVp(model) => Box::new(MpdtPipeline::new(
                det,
                SettingPolicy::Adaptive(model.clone()),
                pipeline,
            )),
            Scheme::Mpdt(s) => Box::new(MpdtPipeline::new(det, SettingPolicy::Fixed(*s), pipeline)),
            Scheme::Marlin(s) => Box::new(MarlinPipeline::new(
                det,
                *s,
                pipeline,
                MarlinConfig::default(),
            )),
            Scheme::WithoutTracking(s) => Box::new(DetectorOnlyPipeline::new(det, *s, pipeline)),
            Scheme::Continuous(s) => Box::new(ContinuousPipeline::new(det, *s, pipeline)),
            Scheme::Cascade(s) => Box::new(CascadePipeline::new(
                det,
                *s,
                pipeline,
                CascadeConfig::default(),
            )),
            Scheme::Ctd(s) => Box::new(CtdPipeline::new(det, *s, pipeline, CtdConfig::default())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_paperlike() {
        assert_eq!(
            Scheme::Mpdt(ModelSetting::Yolo512).label(),
            "MPDT-YOLOv3-512"
        );
        assert_eq!(
            Scheme::Continuous(ModelSetting::Yolo320).label(),
            "YOLOv3-320 (continuous)"
        );
        assert_eq!(
            Scheme::AdaVp(AdaptationModel::default_model()).label(),
            "AdaVP"
        );
        assert_eq!(
            Scheme::Cascade(ModelSetting::Yolo512).label(),
            "Cascade-YOLOv3-512"
        );
        assert_eq!(Scheme::Ctd(ModelSetting::Yolo416).label(), "CTD-YOLOv3-416");
    }

    #[test]
    fn parse_accepts_exactly_the_system_names() {
        assert_eq!(
            Scheme::parse("adavp"),
            Some(Scheme::AdaVp(AdaptationModel::default_model()))
        );
        assert_eq!(
            Scheme::parse("tiny"),
            Some(Scheme::Continuous(ModelSetting::Tiny320))
        );
        let mut names = 0;
        for (prefix, make) in FIXED {
            for s in ModelSetting::ADAPTIVE {
                let name = format!("{prefix}{}", s.input_size());
                assert_eq!(Scheme::parse(&name), Some(make(s)), "{name}");
                names += 1;
            }
        }
        assert_eq!(names, 24);
        for bad in [
            "",
            "AdaVP",
            "mpdt",
            "mpdt-",
            "mpdt-704",
            "mpdt-512x",
            "mpdt--512",
            "ctd-tiny",
            "marlin-0320",
            "without-tracking",
            "continuous-320 ",
            "tiny-320",
            "mpdt-é",
        ] {
            assert_eq!(Scheme::parse(bad), None, "{bad:?}");
        }
    }
}
