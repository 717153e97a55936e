//! The benchmark's steadiness self-test: every workload runs twice at
//! reduced size with the same seed. At pool width 1 every work counter
//! and output digest must repeat exactly (at a wider pool, the output
//! digest), and `warm-tcp` must pack nothing in its timed phase.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use msoc_perfbench::{run, Opts, RunResult, Workload};

fn once(workload: Workload, round: &str) -> RunResult {
    let scratch =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{}-{round}", workload.name()));
    let opts =
        Opts { workload, seed: 7, seconds: 1, trace: false, scale: 0.5, scratch: scratch.clone() };
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(scratch);
    assert!(result.correct(), "{} round {round}: {:?}", workload.name(), result.failures);
    assert_eq!(result.metrics.len(), 10, "every end-to-end metric is reported");
    result
}

#[test]
fn every_workload_repeats_its_work() {
    for workload in Workload::ALL {
        let (a, b) = (once(workload, "a"), once(workload, "b"));
        if workload.threads() == 1 {
            assert_eq!(a.work, b.work, "{}: work counters differ between runs", workload.name());
        } else {
            assert_eq!(a.work["outputs_digest"], b.work["outputs_digest"], "{}", workload.name());
        }
        if workload == Workload::WarmTcp {
            for r in [&a, &b] {
                assert_eq!(r.work["timed_schedule_misses"], 0, "warm timed phase packed");
                assert_eq!(r.work["service.schedule_misses"], 0, "warm timed phase packed");
            }
        }
    }
}
