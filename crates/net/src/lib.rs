//! `msoc_net`: the sharded multi-tenant plan daemon and its wire
//! protocol.
//!
//! The crate turns the in-process [`PlanService`](msoc_core::PlanService)
//! into a network service without changing any of its semantics:
//!
//! - [`wire`] — a hand-rolled length-prefixed binary protocol whose
//!   payloads are the planner's own types (`MixedSignalSoc`, `CoreEdit`,
//!   `JobSpec`, `SharingConfig`, …), encoded and validated by
//!   `msoc_core::service::codec`, the module that also owns the strict
//!   reader the snapshot format decodes with. Decoding untrusted bytes
//!   returns structured [`WireError`]s and never panics or allocates from
//!   an untrusted length.
//! - [`server`] — [`serve`] owns N service shards keyed by tenant
//!   fingerprint, applies admission and queue-depth backpressure
//!   (overload sheds lowest-priority work as structured `Overloaded`
//!   outcomes), drives a crash-safe
//!   [`SnapshotDaemon`](msoc_core::SnapshotDaemon) per shard from a
//!   poll ticker, and recovers every shard from its newest intact
//!   snapshot generation at boot.
//! - [`client`] — a blocking, reconnect-aware [`Client`].
//! - [`loadgen`] — a deterministic loopback load harness whose
//!   acceptance claim is byte-identity: concurrent TCP clients produce
//!   exactly the outcomes a serial in-process replay does.
//!
//! The `msocd` binary wraps [`serve`] behind a small CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::Client;
pub use loadgen::{build_trace, run_loopback, serial_replay, LoadReport};
pub use server::{execute_jobs, serve, tenant_shard, ServerConfig, ServerReport, ShardReport};
pub use wire::{
    frame_request, frame_response, read_request, read_response, write_request, write_response,
    Request, Response, WireError, WireJob, WireOutcome, WireSoc, WireSocRef, WireSpec, WireStats,
};
