//! Full-machine Cell Broadband Engine bandwidth simulator.
//!
//! `cellsim-core` assembles the component models — the EIB
//! ([`cellsim_eib`]), the per-SPE MFC DMA engines ([`cellsim_mfc`]), the
//! dual-bank XDR memory ([`cellsim_mem`]), the PPE pipeline
//! ([`cellsim_ppe`]) and the SPU/Local-Store model ([`cellsim_spe`]) —
//! into one simulated blade, and implements every experiment of
//! *“Performance Analysis of Cell Broadband Engine for High Memory
//! Bandwidth Applications”* (ISPASS 2007) on top of it.
//!
//! The central types are:
//!
//! * [`CellConfig`] / [`CellSystem`] — a configured machine;
//! * [`Placement`] — a logical→physical SPE mapping (the runtime decides
//!   this on real hardware; the paper samples ten random placements);
//! * [`TransferPlan`] / [`SpeScript`] — per-SPE DMA programs, including
//!   DMA-elem vs DMA-list and the tag-synchronization policy;
//! * [`FabricReport`] — the measured bandwidths and fabric statistics;
//! * [`exec::SweepExecutor`] — parallel sweep execution with a
//!   deterministic run cache (the `--jobs` machinery);
//! * [`experiments`] — one constructor per paper figure;
//! * [`report::Figure`] — rendered result tables.
//!
//! # Quickstart
//!
//! ```
//! use cellsim_core::{CellSystem, Placement, SyncPolicy, TransferPlan};
//!
//! // An out-of-the-box 2.1 GHz blade.
//! let system = CellSystem::blade();
//! // One SPE streams 1 MiB from main memory in 16 KiB DMA-elem chunks.
//! let plan = TransferPlan::builder()
//!     .get_from_memory(0, 1 << 20, 16 * 1024, SyncPolicy::AfterAll)
//!     .build()?;
//! let report = system.try_run(&Placement::identity(), &plan)?;
//! // A single SPE is latency-limited well below the 16.8 GB/s bank peak.
//! assert!(report.aggregate_gbps > 7.0 && report.aggregate_gbps < 13.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod data;
mod fabric;
mod placement;
mod plan;
mod tracing;

pub mod failure;

pub mod baseline;
pub mod diskcache;
pub mod exec;
pub mod experiments;
pub mod iofault;
pub mod latency;
pub mod metrics;
pub mod perf;
pub mod report;
pub mod tracestore;

// JSON parsing moved into the kernel crate so serde-free parsing is
// available below core (the faults crate parses `FaultPlan` files);
// `cellsim_core::json` stays a valid path for existing callers.
pub use cellsim_kernel::json;

// The fault-injection vocabulary, re-exported so callers configuring a
// degraded blade need only this crate.
pub use cellsim_faults::{
    BankFaults, DerateWindow, EibFaults, FaultPlan, FaultPlanError, MfcFaults, RetryPolicy,
    RingOutage, Window,
};

pub use config::{CellConfig, CellSystem};
pub use data::{MachineState, REGION_STRIDE};
pub use fabric::FabricReport;
pub use failure::{PacketPhase, RunFailure, SpeStall, StallDiagnosis, StallKind};
pub use latency::{DmaPathClass, LatencyHistogram, LatencyMetrics, PathLatency};
pub use metrics::{BankMetrics, FabricMetrics, FaultStats, MetricsSummary, SpeMetrics};
pub use placement::Placement;
pub use plan::{
    PlanError, Planned, SpeScript, SyncPolicy, TransferPlan, TransferPlanBuilder, LS_WINDOW,
};
pub use tracing::{FabricEvent, TraceMeta, TraceSink};

/// Number of SPEs on a CBE.
pub const SPE_COUNT: usize = 8;
