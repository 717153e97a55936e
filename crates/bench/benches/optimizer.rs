//! Benchmarks for the planners: the paper's headline runtime claim is
//! `Cost_Optimizer` ≈ 3× faster than exhaustive evaluation (6 vs 20
//! minutes on the paper's 2005 workstation; milliseconds here, but the
//! *ratio* is the reproducible quantity).
//!
//! Both planners additionally run over the skyline and naive engines, so
//! the skyline path's end-to-end effect on full planning runs is tracked,
//! not just its effect on single schedules.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use msoc_core::planner::PlannerOptions;
use msoc_core::{CostWeights, MixedSignalSoc, Planner};
use msoc_tam::{Effort, Engine};

const ENGINES: [(&str, Engine); 2] = [("skyline", Engine::Skyline), ("naive", Engine::Naive)];

/// Fresh planner per iteration so caching does not hide the evaluation
/// count difference.
fn fresh(soc: &MixedSignalSoc, engine: Engine) -> Planner<'_> {
    Planner::with_options(
        soc,
        PlannerOptions { effort: Effort::Quick, engine, ..PlannerOptions::default() },
    )
}

fn heuristic_vs_exhaustive(c: &mut Criterion) {
    let soc = MixedSignalSoc::p93791m();
    let mut group = c.benchmark_group("planner/p93791m_w32");
    group.sample_size(10);
    for (name, engine) in ENGINES {
        group.bench_function(format!("exhaustive/{name}"), |b| {
            b.iter(|| {
                let mut p = fresh(&soc, engine);
                black_box(p.exhaustive(32, CostWeights::balanced()).unwrap().best.total_cost)
            })
        });
        group.bench_function(format!("cost_optimizer/{name}"), |b| {
            b.iter(|| {
                let mut p = fresh(&soc, engine);
                black_box(
                    p.cost_optimizer(32, CostWeights::balanced(), 0.0).unwrap().best.total_cost,
                )
            })
        });
    }
    group.finish();
}

fn preliminary_costs(c: &mut Criterion) {
    use msoc_awrapper::{AreaModel, SharingPolicy};
    use msoc_core::cost::preliminary_cost;
    use msoc_core::partition::enumerate_paper;

    let soc = MixedSignalSoc::p93791m();
    let configs = enumerate_paper(5, &soc.analog_equivalence_classes());
    let model = AreaModel::paper_calibrated();
    let policy = SharingPolicy::default();
    c.bench_function("planner/preliminary_costs_26", |b| {
        b.iter(|| {
            configs
                .iter()
                .map(|cfg| {
                    preliminary_cost(
                        black_box(cfg),
                        &soc.analog,
                        &model,
                        &policy,
                        CostWeights::balanced(),
                    )
                    .unwrap()
                })
                .sum::<f64>()
        })
    });
}

criterion_group!(benches, heuristic_vs_exhaustive, preliminary_costs);
criterion_main!(benches);
