//! Warm-from-disk service boot: export a snapshot to a file, import it
//! in a "new process", and replay the workload with zero cache misses
//! and zero checkpoint rebuilds.
//!
//! ```text
//! cargo run --release --example persist
//! ```
//!
//! The v2 snapshot format persists the session checkpoint tries next to
//! the schedule records, so an imported service is warm at *both*
//! levels: repeated requests are pure schedule-cache hits, and novel
//! sweep candidates restore packed skeleton/delta prefixes instead of
//! re-packing them. This example proves both properties and prints the
//! snapshot's own compression accounting. A second round trip exports a
//! service holding more sessions than its session cap and proves that the
//! booted service still finds the sessions of its most recent jobs.

use std::error::Error;

use msoc::core::planner::PlannerOptions;
use msoc::core::{ServiceSnapshot, SharingConfig};
use msoc::prelude::*;
use msoc::tam::Effort;

fn jobs() -> Result<Vec<Job>, Box<dyn Error>> {
    let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
    [16u32, 24, 32]
        .iter()
        .map(|&w| {
            Ok(JobBuilder::new(MixedSignalSoc::d695m())
                .single(w)
                .weights(CostWeights::balanced())
                .opts(opts.clone())
                .build()?)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn Error>> {
    // A service warms up on real traffic...
    let service = PlanService::new();
    let outcomes = service.submit(&jobs()?);
    assert!(outcomes.iter().all(|o| o.report().is_some()), "warmup jobs must plan");

    // ...exports its caches (schedules AND checkpoint tries) to disk...
    let snapshot = service.export_snapshot();
    let stats = snapshot.stats();
    println!(
        "exported {} sessions, {} schedules, {} trie nodes ({} checkpoints)",
        stats.sessions, stats.schedules, stats.trie_nodes, stats.checkpoints,
    );
    println!(
        "{} bytes on disk (v1 layout would need {}; {:.1}x compression on shared content)",
        stats.total_bytes, stats.v1_bytes, stats.compression_ratio,
    );
    let path = std::env::temp_dir().join("msoc_persist_example.snapshot");
    std::fs::write(&path, snapshot.to_bytes())?;

    // ...and a fresh process boots warm from the file.
    let bytes = std::fs::read(&path)?;
    let imported = PlanService::from_snapshot(&ServiceSnapshot::from_bytes(&bytes)?)?;
    let booted = imported.stats();
    assert!(booted.sessions.import_restored > 0, "boot must restore checkpoints: {booted:?}");
    assert_eq!(booted.sessions.import_dropped, 0, "own snapshots drop nothing: {booted:?}");
    println!(
        "booted warm from {}: {} checkpoints restored, {} dropped",
        path.display(),
        booted.sessions.import_restored,
        booted.sessions.import_dropped,
    );

    // Replaying the workload is pure cache service: zero schedule misses,
    // zero skeleton re-packs — warm from disk equals warm from RAM.
    let replay = imported.submit(&jobs()?);
    for (a, b) in outcomes.iter().zip(&replay) {
        let (a, b) = (a.report().expect("baseline"), b.report().expect("replay"));
        assert_eq!(
            a.result.plan().expect("plan").best,
            b.result.plan().expect("plan").best,
            "replay must be bit-identical"
        );
    }
    let after = imported.stats();
    assert_eq!(after.schedule_misses, 0, "replay must not pack: {after:?}");
    assert_eq!(
        after.sessions.skeleton_misses, booted.sessions.skeleton_misses,
        "replay must not rebuild checkpoints: {after:?}"
    );
    println!(
        "replayed {} jobs: {} schedule hits, 0 misses, 0 checkpoint rebuilds",
        replay.len(),
        after.schedule_hits,
    );

    std::fs::remove_file(&path)?;
    capped_round_trip()
}

/// Exports a service that planned more distinct sessions than its session
/// cap, boots a service with the same caps from the bytes, and replays the
/// most recent jobs: every one must find its pack session.
fn capped_round_trip() -> Result<(), Box<dyn Error>> {
    let (schedule_cap, session_cap) = (4096, 32);
    let service = PlanService::with_caps(schedule_cap, session_cap);
    // The cap holds this many sessions per shard, so the newest this many
    // jobs are live whatever shards their sessions land in.
    let recent = session_cap / service.shard_count();
    let soc = MixedSignalSoc::d695m();
    let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
    let jobs = (16..16 + 3 * session_cap as u32)
        .map(|w| {
            JobBuilder::new(soc.clone())
                .single(w)
                .configs(vec![SharingConfig::all_shared(soc.analog.len())])
                .weights(CostWeights::balanced())
                .opts(opts.clone())
                .build()
        })
        .collect::<Result<Vec<_>, _>>()?;
    for job in &jobs {
        let outcome = service.submit(std::slice::from_ref(job));
        assert!(outcome[0].report().is_some(), "capped jobs must plan");
    }
    let exported = service.stats();
    assert!(exported.session_evictions > 0, "the service must exceed its cap: {exported:?}");

    let bytes = service.export_snapshot().to_bytes();
    let snapshot = ServiceSnapshot::from_bytes(&bytes)?;
    let booted = PlanService::from_snapshot_with_caps(&snapshot, schedule_cap, session_cap)?;
    let before = booted.stats();
    for job in jobs.iter().rev().take(recent) {
        let outcome = booted.submit(std::slice::from_ref(job));
        assert!(outcome[0].report().is_some(), "recent jobs must replay");
    }
    let after = booted.stats();
    assert_eq!(
        after.session_misses, before.session_misses,
        "recent jobs must find their sessions after a capped boot: {after:?}"
    );
    assert_eq!(after.schedule_misses, 0, "recent jobs must not pack: {after:?}");
    println!(
        "capped boot: {} sessions in the snapshot over a cap of {session_cap}, {} live after \
         boot, last {recent} jobs replayed with 0 session misses",
        snapshot.session_count(),
        after.live_sessions,
    );
    Ok(())
}
