//! Benchmarks for the TAM scheduler: the inner loop of every planning run
//! (each cost evaluation schedules the full SOC once).
//!
//! Every scenario runs on both packer engines: the event-skyline hot path
//! and the naive rebuild-sort-scan reference produce identical schedules,
//! so the comparison isolates the data structure and the pruning.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use msoc_core::{MixedSignalSoc, Planner, SharingConfig};
use msoc_itc02::synth;
use msoc_tam::{schedule_with_engine, Effort, Engine, ScheduleProblem};

const ENGINES: [(&str, Engine); 2] = [("skyline", Engine::Skyline), ("naive", Engine::Naive)];

fn digital_scheduling(c: &mut Criterion) {
    let soc = synth::p93791s();
    let mut group = c.benchmark_group("schedule/p93791s");
    group.sample_size(20);
    for w in [16u32, 32, 64] {
        let problem = ScheduleProblem::from_soc(&soc, w);
        for (name, engine) in ENGINES {
            group.bench_with_input(BenchmarkId::new(name, w), &problem, |b, p| {
                b.iter(|| {
                    schedule_with_engine(black_box(p), Effort::Standard, engine).unwrap().makespan()
                })
            });
        }
    }
    group.finish();
}

fn mixed_signal_scheduling(c: &mut Criterion) {
    let soc = MixedSignalSoc::p93791m();
    let mut planner = Planner::new(&soc);
    let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
    let problem = planner.build_problem(&config, 48);
    let mut group = c.benchmark_group("schedule/p93791m");
    group.sample_size(20);
    for (name, engine) in ENGINES {
        group.bench_function(format!("abe_cd_w48/{name}"), |b| {
            b.iter(|| {
                schedule_with_engine(black_box(&problem), Effort::Standard, engine)
                    .unwrap()
                    .makespan()
            })
        });
    }
    group.finish();
}

fn effort_levels(c: &mut Criterion) {
    let soc = synth::d695s();
    let problem = ScheduleProblem::from_soc(&soc, 24);
    let mut group = c.benchmark_group("schedule/effort_d695s");
    for (name, effort) in
        [("quick", Effort::Quick), ("standard", Effort::Standard), ("thorough", Effort::Thorough)]
    {
        for (engine_name, engine) in ENGINES {
            group.bench_function(format!("{name}/{engine_name}"), |b| {
                b.iter(|| {
                    schedule_with_engine(black_box(&problem), effort, engine).unwrap().makespan()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, digital_scheduling, mixed_signal_scheduling, effort_levels);
criterion_main!(benches);
