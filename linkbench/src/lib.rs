//! The parts of `linkbench` (see `main.rs` for the command line, and the
//! README for the workloads, the metrics and how to read the results).

pub mod calib;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
