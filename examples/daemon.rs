//! The crash-safe snapshot daemon end to end, against a storage backend
//! that fails a third of the time: export with retry/backoff and
//! read-back verification, crash, corrupt the newest generation on
//! disk, and boot — recovery quarantines the damage and replays the
//! newest intact generation bit-identically.
//!
//! ```text
//! cargo run --release --example daemon
//! ```
//!
//! The daemon is a `poll()` loop, not a thread: differential (exports
//! only when the service's session tick advanced), content-addressed
//! (`gen-<generation>-<fnv>.msnap`, so unchanged content is recognized
//! from the name alone), and bounded (capped exponential backoff with
//! deterministic jitter, keep-last-K pruning).

use std::error::Error;
use std::time::Duration;

use msoc::core::planner::PlannerOptions;
use msoc::core::{parse_blob_name, DaemonConfig, ExportOutcome};
use msoc::prelude::*;
use msoc::tam::Effort;

const FAULT_PERCENT: u32 = 35;

fn warm(service: &PlanService, width: u32) -> Result<(), Box<dyn Error>> {
    let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
    let job = JobBuilder::new(MixedSignalSoc::d695m())
        .single(width)
        .weights(CostWeights::balanced())
        .opts(opts)
        .build()?;
    service.submit(&[job]).remove(0).into_result()?;
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let root = std::env::temp_dir().join(format!("msoc_daemon_example_{}", std::process::id()));
    // A file store behind a deterministic fault injector: IO errors,
    // torn writes, silent bit flips, stale reads — 35% of operations.
    let store = FaultyStore::new(DirStore::open(&root)?, 0xDAE3, FAULT_PERCENT);
    let service = PlanService::new();
    let config = DaemonConfig {
        max_attempts: 40,
        base_backoff: Duration::from_micros(50),
        max_backoff: Duration::from_millis(2),
        ..DaemonConfig::default()
    };
    let mut daemon = SnapshotDaemon::with_config(&service, &store, config);

    // Traffic rounds: each warms new content, each poll must persist a
    // generation despite the fault rate.
    for width in [16u32, 20, 24, 28] {
        warm(&service, width)?;
        match daemon.poll() {
            ExportOutcome::Persisted { generation, attempts, bytes, sections } => {
                println!(
                    "persisted generation {generation}: {bytes} bytes in {attempts} attempt(s) \
                     (content {} + sessions {} + tries {} + schedules {})",
                    sections.content_bytes,
                    sections.session_bytes,
                    sections.trie_bytes,
                    sections.schedule_bytes,
                );
                // A warm service always carries content, sessions and
                // schedules; the per-section accounting proving it rides
                // in every persisted outcome.
                assert!(sections.content_bytes > 0, "{sections:?}");
                assert!(sections.session_bytes > 0, "{sections:?}");
                assert!(sections.schedule_bytes > 0, "{sections:?}");
                assert_eq!(sections.total_bytes, bytes, "{sections:?}");
            }
            other => panic!("the backoff budget must outlast {FAULT_PERCENT}% faults: {other:?}"),
        }
    }
    let dstats = daemon.stats();
    let faults = store.fault_counters();
    println!(
        "daemon: {} generations, {} retries, {:?} total backoff",
        dstats.exports_persisted, dstats.put_retries, dstats.backoff_total,
    );
    println!(
        "injected: {} io errors, {} torn writes, {} bit flips, {} stale reads",
        faults.io_errors, faults.torn_writes, faults.flipped_writes, faults.stale_reads,
    );
    assert!(dstats.put_retries > 0, "a {FAULT_PERCENT}% fault rate must force retries");

    // Crash. Then sabotage: flip a byte in the newest generation, the
    // way a torn disk or a partial copy would.
    let _ = daemon;
    drop(service);
    let names = store.inner().list()?;
    let newest = names
        .iter()
        .filter_map(|n| parse_blob_name(n).map(|(g, _)| (g, n)))
        .max_by_key(|(g, _)| *g)
        .map(|(_, n)| n.clone())
        .expect("generations persisted");
    let mut bytes = store.inner().get(&newest)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    store.inner().put(&newest, &bytes)?;
    println!("crashed; corrupted {newest} at byte {mid}");

    // Boot through the same faulty store: the tampered generation is
    // quarantined (renamed aside), the newest intact one boots.
    let report = msoc::core::recover(&store);
    let generation = report.generation.expect("an intact generation must boot");
    println!(
        "recovered generation {generation}: scanned {}, quarantined {}, {} checkpoints restored",
        report.scanned, report.quarantined, report.import_restored,
    );
    assert!(report.quarantined >= 1, "the corrupted generation must be quarantined");
    assert_eq!(report.service.stats().quarantined_generations, report.quarantined);

    // Replay everything that generation saw: pure cache traffic,
    // bit-identical to the exporter.
    for width in [16u32, 20, 24, 28].into_iter().take(generation as usize) {
        warm(&report.service, width)?;
    }
    let stats = report.service.stats();
    assert_eq!(stats.schedule_misses, 0, "warm replay must be miss-free: {stats:?}");
    println!(
        "replayed warm: {} schedule hits, 0 misses — crash-safe boot equals warm RAM",
        stats.schedule_hits,
    );

    std::fs::remove_dir_all(&root)?;
    Ok(())
}
