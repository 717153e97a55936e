//! Benchmarks for the `msoc-par` dispatch path: the persistent
//! work-stealing pool.
//!
//! The workload mirrors the planner's hot shape — a ~26-item map (one item
//! per surviving sharing configuration) whose items each do a small bounded
//! amount of arithmetic — so the numbers isolate *dispatch* cost:
//! unpark/claim/steal in the pool.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// One planner-candidate-sized work item: bounded arithmetic, no
/// allocation, long enough that the map is not pure dispatch noise.
fn evaluate(seed: u64) -> u64 {
    let mut acc = seed;
    for i in 0..2_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        acc ^= acc >> 29;
    }
    acc
}

const ITEMS: usize = 26;
const WIDTH: usize = 4;

fn items() -> Vec<u64> {
    (0..ITEMS as u64).map(|i| i * 977 + 13).collect()
}

fn dispatch(c: &mut Criterion) {
    let input = items();
    let mut group = c.benchmark_group("par/dispatch");
    group.bench_function(format!("pool_w{WIDTH}_n{ITEMS}"), |b| {
        b.iter(|| {
            msoc_par::with_threads(WIDTH, || {
                msoc_par::map(black_box(&input), |_, &seed| evaluate(seed))
            })
            .iter()
            .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, dispatch);
criterion_main!(benches);
