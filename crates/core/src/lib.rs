//! Mixed-signal SOC test planning — the primary contribution of the
//! reproduced paper (Sehgal, Liu, Ozev, Chakrabarty, DATE 2005).
//!
//! Given a digital SOC, a set of wrapped analog cores and an SOC-level TAM
//! width `W`, the planner decides
//!
//! 1. which analog cores share analog test wrappers
//!    ([`SharingConfig`]),
//! 2. the TAM width of every core test, and
//! 3. a test schedule in which tests sharing a wrapper never overlap,
//!
//! minimizing the total cost `C = W_T·C_T + W_A·C_A` (paper eq. 2), where
//! `C_T` is the SOC test time normalized to the most constrained
//! configuration (all analog cores on one wrapper) and `C_A` is the area
//! overhead of the analog wrappers normalized to the no-sharing case
//! (paper eq. 1).
//!
//! Two optimizers are provided:
//!
//! * [`Planner::exhaustive`] — evaluates every sharing configuration
//!   (optimal, expensive),
//! * [`Planner::cost_optimizer`] — the paper's pruning heuristic (its
//!   Fig. 3): configurations are grouped by degree of sharing, each group
//!   is represented by its preliminary-cost minimizer (a bound computable
//!   without scheduling), only surviving groups are evaluated fully.
//!
//! # Examples
//!
//! ```no_run
//! use msoc_core::{CostWeights, MixedSignalSoc, Planner};
//!
//! let soc = MixedSignalSoc::p93791m();
//! let mut planner = Planner::new(&soc);
//! let report = planner.cost_optimizer(32, CostWeights::balanced(), 0.0)?;
//! println!(
//!     "chose {} at cost {:.1} after {} evaluations",
//!     report.best.config, report.best.total_cost, report.evaluations,
//! );
//! # Ok::<(), msoc_core::PlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod metrics;
pub mod partition;
pub mod planner;
pub mod service;
pub mod soc;

pub use cost::CostWeights;
pub use metrics::LatencyHistogram;
pub use partition::SharingConfig;
pub use planner::table::{CellOutcome, TableCell, TableReport, TableStats};
pub use planner::{
    EvaluatedConfig, Interrupted, PlanError, PlanReport, PlanStats, Planner, PlannerOptions,
};
pub use service::{
    blob_name, parse_blob_name, recover, recover_with_caps, CancelToken, CoreEdit, DaemonConfig,
    DaemonStats, Deadline, DirStore, ExportCache, ExportOutcome, FaultCounters, FaultyStore, Job,
    JobBuilder, JobOutcome, JobReport, JobResult, JobSpec, MemStore, PlanService, Priority,
    RecoveryReport, SectionSizes, ServiceSnapshot, ServiceStats, ShardStats, SnapshotDaemon,
    SnapshotError, SnapshotStats, SnapshotStore, SocHandle, StoreError,
};
pub use soc::MixedSignalSoc;
