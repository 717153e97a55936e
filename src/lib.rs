//! # msoc — test planning for mixed-signal SOCs with wrapped analog cores
//!
//! A production-quality reproduction of **Sehgal, Liu, Ozev and
//! Chakrabarty, "Test Planning for Mixed-Signal SOCs with Wrapped Analog
//! Cores", DATE 2005**, as a Rust workspace. Analog cores are wrapped with
//! reconfigurable DAC/ADC test wrappers so they become *virtual digital
//! cores* testable over a digital TAM; wrappers may be shared between
//! cores to save area at the price of serialized tests; and a
//! cost-oriented planner picks the sharing configuration, TAM widths and
//! test schedule minimizing `C = W_T·C_T + W_A·C_A`.
//!
//! This crate re-exports the workspace's public API:
//!
//! * [`itc02`] — ITC'02 benchmark model, parser and synthetic SOCs,
//! * [`wrapper`] — digital test wrapper design (time/width staircases),
//! * [`tam`] — TAM scheduling (rectangle packing with wrapper
//!   serialization constraints),
//! * [`analog`] — behavioral analog substrate: DSP, circuits, data
//!   converters and specification measurements,
//! * [`awrapper`] — the analog test wrapper: configuration, area model,
//!   sharing and the DAC → core → ADC datapath,
//! * [`core`] — the planner: sharing partitions, the cost model, the
//!   exhaustive baseline and the paper's `Cost_Optimizer` heuristic,
//! * [`net`] — the `msocd` plan daemon: a length-prefixed wire
//!   protocol, tenant-sharded services with admission control, and
//!   crash-safe snapshots driven from the serving loop.
//!
//! # Quickstart
//!
//! ```no_run
//! use msoc::prelude::*;
//!
//! let soc = MixedSignalSoc::p93791m();
//! let mut planner = Planner::new(&soc);
//! let report = planner.cost_optimizer(32, CostWeights::balanced(), 0.0)?;
//! println!("best sharing: {} (cost {:.1})", report.best.config, report.best.total_cost);
//! # Ok::<(), msoc::core::PlanError>(())
//! ```
//!
//! The README's architecture map describes every crate; the `paper`
//! binary of the `msoc-bench` crate regenerates every table and figure
//! into `PAPER_tables.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use msoc_analog as analog;
pub use msoc_awrapper as awrapper;
pub use msoc_core as core;
pub use msoc_itc02 as itc02;
pub use msoc_net as net;
pub use msoc_tam as tam;
pub use msoc_wrapper as wrapper;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use msoc_analog::{paper_cores, AnalogCoreSpec, CoreId};
    pub use msoc_awrapper::{AreaModel, SharingPolicy, WrapperDatapath};
    pub use msoc_core::{
        recover, CancelToken, CoreEdit, CostWeights, Deadline, DirStore, FaultyStore, Job,
        JobBuilder, JobOutcome, JobReport, JobResult, JobSpec, MixedSignalSoc, PlanReport,
        PlanService, Planner, Priority, ServiceSnapshot, SharingConfig, SnapshotDaemon,
        SnapshotStore, SocHandle,
    };
    pub use msoc_itc02::{Module, Soc};
    pub use msoc_net::{serve, Client, ServerConfig, WireJob, WireOutcome, WireSocRef};
    pub use msoc_tam::{schedule, Schedule, ScheduleProblem, TestJob};
    pub use msoc_wrapper::{Staircase, WrapperDesign};
}
