//! Backward compatibility: a golden snapshot blob, committed under
//! `tests/data/`, must keep importing on every future revision of the
//! code, and its bytes pin the v2 encoding.
//!
//! The blob's content was produced by the original v1 encoder (d695m, TAM
//! widths 16 and 24, quick effort, balanced weights) and re-encoded as v2
//! (decode + re-encode, same sessions and schedules) before v1 decoding
//! was retired. It carries no checkpoint tries, so the imported sessions
//! start cold and rebuild checkpoints on first use — but every cached
//! schedule must still be served, bit-identical to a fresh computation.

use msoc::core::planner::PlannerOptions;
use msoc::core::Job;
use msoc::prelude::*;
use msoc::tam::Effort;

const GOLDEN: &[u8] = include_bytes!("data/snapshot_v2.bin");

fn golden_jobs() -> Vec<Job> {
    [16u32, 24]
        .iter()
        .map(|&w| {
            JobBuilder::new(MixedSignalSoc::d695m())
                .single(w)
                .weights(CostWeights::balanced())
                .opts(PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() })
                .build()
                .expect("valid job")
        })
        .collect()
}

#[test]
fn golden_snapshot_still_imports_and_serves_its_schedules() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN).expect("golden blob decodes");
    assert!(snapshot.session_count() > 0);
    assert!(snapshot.schedule_count() > 0);

    let imported = PlanService::from_snapshot(&snapshot).expect("golden blob imports");
    let stats = imported.stats();
    // The blob carries no tries: sessions restore cold, nothing is dropped.
    assert_eq!(stats.sessions.import_restored, 0, "{stats:?}");
    assert_eq!(stats.sessions.import_dropped, 0, "{stats:?}");

    // Replaying the exact workload that produced the blob is pure
    // schedule-cache service — no packing at all — and bit-identical to
    // computing fresh on today's code.
    let jobs = golden_jobs();
    let replay = imported.submit(&jobs);
    let fresh = PlanService::new().submit(&golden_jobs());
    for (a, b) in replay.iter().zip(&fresh) {
        let (a, b) = (a.report().expect("replay plans"), b.report().expect("fresh plans"));
        assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
    }
    let stats = imported.stats();
    assert_eq!(stats.schedule_misses, 0, "golden replay must be pure cache hits: {stats:?}");
    assert!(stats.schedule_hits > 0, "{stats:?}");
}

#[test]
fn golden_snapshot_is_a_fixed_point_of_decode_then_encode() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN).expect("golden blob decodes");
    // Any drift in the v2 encoder changes these bytes.
    assert_eq!(snapshot.to_bytes(), GOLDEN, "the v2 encoding must not change");
    let stats = snapshot.stats();
    assert_eq!(stats.sections.total_bytes, 2786, "{stats:?}");
}
