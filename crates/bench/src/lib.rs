//! Experiment harness: regenerates every table and figure of the AdaVP
//! paper's evaluation (§III motivation + §VI evaluation).
//!
//! Each experiment lives in [`figures`] / [`tables`] and returns plain data
//! rows; the `experiments` binary renders them as aligned text tables and
//! CSV files under `results/`. [`context`] holds the datasets, the trained
//! model and each scheme's test-set run (computed once, read by every
//! figure); [`runner`] runs a scheme over any clip set, and [`report`] does
//! the formatting.
//!
//! | Paper result | function |
//! |---|---|
//! | Fig. 1 (latency/accuracy vs frame size) | [`figures::fig1`] |
//! | Fig. 2 (tracking decay, fast vs slow) | [`figures::fig2`] |
//! | Table II (component latencies) | [`tables::table2`] |
//! | Fig. 5 (MPDT-320 vs MPDT-608 frame trace) | [`figures::fig5`] |
//! | Fig. 6 (overall comparison) | [`figures::fig6`] |
//! | Fig. 7 (CDF of cycles per switch) | [`figures::fig7`] |
//! | Fig. 8 (setting usage shares) | [`figures::fig8`] |
//! | Fig. 9 (AdaVP vs MPDT-512 trace) | [`figures::fig9`] |
//! | Fig. 10 (F1-threshold sensitivity) | [`figures::fig10`] |
//! | Fig. 11 (IoU-threshold sensitivity) | [`figures::fig11`] |
//! | Table III (energy & accuracy) | [`tables::table3`] |
//! | Robustness under injected faults (ours) | [`faults::fault_sweep`] |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod cli;
pub mod context;
pub mod diff;
pub mod faults;
pub mod figures;
pub mod report;
pub mod runner;
pub mod tables;

pub use context::ExperimentContext;
