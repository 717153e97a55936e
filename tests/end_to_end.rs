//! End-to-end integration tests: the full planning pipeline on the
//! paper's mixed-signal SOC.

use msoc::core::planner::PlannerOptions;
use msoc::prelude::*;
use msoc::tam::Effort;

fn planner(soc: &MixedSignalSoc) -> Planner<'_> {
    // Quick effort keeps debug-mode test time reasonable; the table
    // binaries use Thorough.
    Planner::with_options(
        soc,
        PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
    )
}

#[test]
fn heuristic_plan_for_p93791m_is_valid_and_cheap() {
    let soc = MixedSignalSoc::p93791m();
    let mut p = planner(&soc);
    let report = p.cost_optimizer(32, CostWeights::balanced(), 0.0).expect("plan");

    // The paper's evaluation accounting: 4 representatives plus the
    // surviving shape group. The blended-cost bound prune may skip
    // members that provably cannot win; evaluations + prunes recovers
    // the paper's count.
    assert_eq!(report.candidates, 26);
    let considered = report.evaluations + p.stats().cost_bound_prunes as usize;
    assert!(
        considered == 10 || considered == 7,
        "evaluations = {}, bound-pruned = {}",
        report.evaluations,
        p.stats().cost_bound_prunes
    );

    // The schedule is feasible and the chosen config actually shares.
    let problem = p.build_problem(&report.best.config, 32);
    report.schedule.validate(&problem).expect("valid schedule");
    assert!(report.best.config.has_sharing());
    assert!(report.best.area_cost < 100.0);
    assert!(report.best.time_cost <= 100.5);
}

#[test]
fn heuristic_tracks_exhaustive_across_weights() {
    let soc = MixedSignalSoc::p93791m();
    let mut p = planner(&soc);
    for weights in [CostWeights::balanced(), CostWeights::time_heavy(), CostWeights::area_heavy()] {
        let exh = p.exhaustive(32, weights).expect("exhaustive");
        let heur = p.cost_optimizer(32, weights, 0.0).expect("heuristic");
        assert_eq!(exh.evaluations, 26);
        assert!(heur.evaluations < exh.evaluations);
        assert!(heur.best.total_cost >= exh.best.total_cost - 1e-9);
        // The paper finds the heuristic optimal in all but one of 15
        // cases; allow a 3% slack per instance.
        assert!(
            heur.best.total_cost <= exh.best.total_cost * 1.03,
            "weights {weights:?}: heuristic {} vs exhaustive {}",
            heur.best.total_cost,
            exh.best.total_cost
        );
    }
}

#[test]
fn all_share_is_the_slowest_configuration_modulo_noise() {
    let soc = MixedSignalSoc::p93791m();
    let mut p = planner(&soc);
    let weights = CostWeights::balanced();
    let all = SharingConfig::all_shared(5);
    let t_all = p.evaluate(&all, 64, weights).expect("evaluate").makespan;
    for config in p.candidates() {
        let t = p.evaluate(&config, 64, weights).expect("evaluate").makespan;
        // Greedy scheduling noise can flip near-ties by a percent or so,
        // but nothing should beat the serial chain meaningfully.
        assert!(
            t as f64 <= t_all as f64 * 1.02,
            "{config} scheduled slower than all-share: {t} vs {t_all}"
        );
    }
}

#[test]
fn sharing_serialization_is_respected_in_the_winning_schedule() {
    let soc = MixedSignalSoc::p93791m();
    let mut p = planner(&soc);
    let report = p.exhaustive(48, CostWeights::area_heavy()).expect("plan");
    let problem = p.build_problem(&report.best.config, 48);

    // Collect the intervals of each wrapper group and check pairwise
    // disjointness (validate() checks this too; this is the user-visible
    // double check on the real instance).
    let mut by_group: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
    for e in report.schedule.entries() {
        if let Some(g) = problem.jobs[e.job].group {
            by_group.entry(g).or_default().push((e.start, e.end));
        }
    }
    assert!(!by_group.is_empty());
    for (g, mut ivals) in by_group {
        ivals.sort_unstable();
        for pair in ivals.windows(2) {
            assert!(pair[1].0 >= pair[0].1, "group {g} overlaps: {pair:?}");
        }
    }
}

#[test]
fn analog_chain_bound_binds_at_wide_tams() {
    // The paper's Table 3 mechanism: at W=64 the all-share makespan is
    // chain-limited, so heavy-sharing configs cost close to their T_LB.
    let soc = MixedSignalSoc::p93791m();
    let mut p = planner(&soc);
    let weights = CostWeights::balanced();
    let abcd = SharingConfig::new(5, vec![vec![0, 1, 2, 3], vec![4]]);
    let eval = p.evaluate(&abcd, 64, weights).expect("evaluate");
    // Chain of {A,B,C,D} = 628213 cycles; the schedule cannot beat it.
    assert!(eval.makespan >= 628_213);
    // And C_T approaches the paper's 98.7 for this configuration.
    assert!(eval.time_cost > 90.0, "C_T = {}", eval.time_cost);
}

/// Plans the *real* p93791 benchmark when the user points
/// `ITC02_CORPUS_DIR` at the published ITC'02 `.soc` files (they are not
/// redistributable, so the test silently passes without them) and checks
/// that the winning schedule validates against its problem.
#[test]
fn real_p93791_corpus_plans_validate_when_available() {
    use msoc::itc02::corpus;
    let Some(dir) = corpus::corpus_dir() else {
        eprintln!("skipping: {} not set", corpus::CORPUS_DIR_VAR);
        return;
    };
    let digital = corpus::load(&dir, "p93791").expect("p93791.soc parses");
    let soc = MixedSignalSoc::new("p93791", digital, paper_cores());
    let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
    let mut planner = Planner::with_options(&soc, opts);
    let report = planner.cost_optimizer(32, CostWeights::balanced(), 0.0).expect("plan p93791");
    let problem = planner.build_problem(&report.best.config, 32);
    report.schedule.validate(&problem).expect("the winning schedule validates on p93791");
    assert!(report.best.total_cost.is_finite());
}

#[test]
fn wider_tam_never_hurts_the_best_plan() {
    let soc = MixedSignalSoc::p93791m();
    let mut p = planner(&soc);
    let weights = CostWeights::balanced();
    let mut last = u64::MAX;
    for w in [32u32, 48, 64] {
        let report = p.exhaustive(w, weights).expect("plan");
        assert!(report.best.makespan <= last, "W={w} slower than the narrower TAM");
        last = report.best.makespan;
    }
}
