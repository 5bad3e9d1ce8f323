//! The cellsim benchmark: four workloads that drive the simulator, the
//! trace store and the serve daemon from outside, through their public
//! entry points, and report end-to-end and per-layer metrics.
//!
//! See `README.md` in this directory for the workloads, the metrics,
//! the interaction table and the recorded run-to-run spread.

pub mod bench;
pub mod metrics;
pub mod oracle;
pub mod pace;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workload;
