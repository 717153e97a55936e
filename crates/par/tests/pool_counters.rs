//! The pool's process-global counters under parallel load.
//!
//! This test has a binary of its own: the pool's workers and counters
//! are global, and sibling tests running in the same process can hold
//! every worker, so a dispatch would claim none and the counters would
//! not move.

use msoc_par::{map, pool_stats, with_threads};

#[test]
fn pool_counters_move_under_parallel_load() {
    let before = pool_stats();
    let input: Vec<u64> = (0..512).collect();
    for _ in 0..50 {
        let out = with_threads(3, || map(&input, |_, &x| x.wrapping_mul(3)));
        assert_eq!(out[511], 511 * 3);
    }
    let after = pool_stats();
    assert!(after.dispatches >= before.dispatches + 50, "{after:?} vs {before:?}");
    assert!(after.workers >= 2, "pool must have started workers: {after:?}");
    assert!(
        after.assignments > before.assignments,
        "dispatches must inject assignments: {after:?}"
    );
}
