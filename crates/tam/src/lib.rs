//! Test access mechanism (TAM) scheduling.
//!
//! The reproduced paper uses the flexible-width TAM architecture of Iyengar,
//! Chakrabarty and Marinissen ("On using rectangle packing for SOC
//! wrapper/TAM co-optimization", VTS 2002, reference \[6\]): every core test is
//! a rectangle whose height is test time and whose width is the number of
//! TAM wires it occupies, and the scheduler packs the rectangles into a strip
//! of width `W` (the SOC-level TAM width) minimizing the strip height
//! (the SOC test time).
//!
//! This crate implements the *cumulative-capacity* form of that problem (TAM
//! wires are fungible: at every instant the summed width of active tests must
//! not exceed `W`), extended with the serialization constraint the paper adds
//! for shared analog wrappers: tests assigned to the same
//! [`group`](TestJob::group) must never overlap in time.
//!
//! * [`TestJob`], [`ScheduleProblem`] — inputs,
//! * [`schedule`] — the multi-start greedy optimizer,
//! * [`Schedule`] — validated output with Gantt rendering,
//! * [`bounds`] — schedule-independent lower bounds used by the paper's
//!   `Cost_Optimizer` pruning step.
//!
//! # The event-skyline packer
//!
//! The optimizer's hot path is the placement query "earliest start whose
//! window `[t, t + d)` stays under the TAM capacity", asked for every
//! staircase point of every job in every greedy pass. The skyline engine
//! answers it from an incrementally maintained **capacity skyline**: the
//! piecewise-constant usage profile, stored as a flat, time-sorted vector
//! of `(time, usage)` capacity events. Placing a `w × d` rectangle splits
//! at most two segments and adds `w` to the segments between them. A query
//! walks the candidate starts once, skipping every candidate whose window
//! provably overlaps the same over-capacity segment or forbidden interval
//! as a blocked one, so it costs O(events + candidates) — versus the
//! O(n log n) rebuild-sort-scan per *probe* of the original packer, which
//! survives only as the reference oracle [`Engine::Naive`]: differential tests
//! compare sessions, planners and from-scratch packs against it through
//! [`schedule_with_engine`]. Everything else packs with the skyline. On
//! top of the skyline, the search layer abandons greedy passes whose
//! area/width lower bound already exceeds the incumbent makespan, and
//! fans the independent multi-start passes out across cores, reducing
//! them with a deterministic `(makespan, order index)` minimum. All three
//! mechanisms are result-preserving: the skyline and the oracle return
//! bit-identical schedules for any `(problem, effort)` pair.
//!
//! # Incremental pack sessions
//!
//! Sweeps that evaluate many scheduling problems sharing one invariant job
//! subset — the planner's 26-candidate wrapper-sharing sweep shares every
//! digital job — go through a [`PackSession`]: jobs carry a [`JobKind`]
//! splitting them into the sweep-invariant *skeleton* and the
//! per-candidate *delta*, the search packs every skeleton ordering exactly
//! once into a checkpoint (the skyline's event vector checkpoints with a
//! flat clone), and each candidate delta-packs on a restored snapshot. Session
//! packs are bit-identical to from-scratch [`schedule_with_engine`] calls,
//! and [`SessionStats`] exposes the hit/miss/prune counters that prove the
//! reuse happens.
//!
//! # Examples
//!
//! ```
//! use msoc_wrapper::{Staircase, StaircasePoint};
//! use msoc_tam::{ScheduleProblem, TestJob, schedule};
//!
//! let point = |width, time| Staircase::from_points(
//!     vec![StaircasePoint { width, time }],
//! );
//! let problem = ScheduleProblem {
//!     tam_width: 4,
//!     jobs: vec![
//!         TestJob::new("a", point(2, 100)),
//!         TestJob::new("b", point(2, 100)),
//!         TestJob::new("c", point(4, 50)),
//!     ],
//! };
//! let s = schedule(&problem)?;
//! assert_eq!(s.makespan(), 150); // a ∥ b, then c
//! # Ok::<(), msoc_tam::ScheduleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod buses;
mod fingerprint;
mod problem;
mod schedule;

pub use buses::{best_fixed_bus_schedule, schedule_fixed_buses, BusPartition};
pub use fingerprint::{
    combine_subtree_fingerprints, fingerprint_jobs, session_fingerprint, StableHasher,
};
pub use problem::{JobKind, ScheduleProblem, TestJob};
pub use schedule::{
    schedule, schedule_with_effort, schedule_with_engine, CheckpointImportStats, CheckpointNode,
    Effort, Engine, PackSession, Schedule, ScheduleError, ScheduledTest, SessionKey, SessionStats,
    TrieExport,
};
