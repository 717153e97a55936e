//! Regenerates **Table 4** of the paper: the `Cost_Optimizer` heuristic
//! versus exhaustive evaluation across cost weights and TAM widths.
//!
//! ```text
//! cargo run --release -p msoc-bench --bin table4
//!     [--delta-sweep]    ablation: elimination threshold δ
//!     [--weight-sweep]   ablation: W_T from 0 to 1
//! ```
//!
//! For each `(W_T, W_A)` block and TAM width, the exhaustive column
//! evaluates all 26 sharing combinations; the heuristic evaluates the
//! 4 shape-group representatives plus the surviving group (δ = 0), as the
//! paper does. `ΔN%` is the reduction in TAM-optimizer evaluations.

use std::time::Instant;

use msoc_core::{CostWeights, MixedSignalSoc, Planner, PlannerOptions};
use msoc_tam::Effort;

const WIDTHS: [u32; 5] = [32, 40, 48, 56, 64];

fn main() {
    let soc = MixedSignalSoc::p93791m();
    let mut planner = Planner::with_options(
        &soc,
        PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() },
    );

    let blocks = [
        ("W_T = 0.5, W_A = 0.5", CostWeights::balanced()),
        ("W_T = 0.8, W_A = 0.2", CostWeights::time_heavy()),
        ("W_T = 0.2, W_A = 0.8", CostWeights::area_heavy()),
    ];

    println!("Table 4: Cost_Optimizer vs exhaustive evaluation (p93791m, delta = 0)\n");
    for (label, weights) in blocks {
        println!("--- {label} ---");
        let mut rows = Vec::new();
        for w in WIDTHS {
            let t0 = Instant::now();
            let exh = planner.exhaustive(w, weights).expect("exhaustive plan");
            let t_exh = t0.elapsed();
            let t0 = Instant::now();
            let heur = planner.cost_optimizer(w, weights, 0.0).expect("heuristic plan");
            let t_heur = t0.elapsed();
            let reduction =
                100.0 * (exh.evaluations - heur.evaluations) as f64 / exh.evaluations as f64;
            rows.push(vec![
                w.to_string(),
                format!("{:.1}", exh.best.total_cost),
                exh.evaluations.to_string(),
                exh.best.config.to_string(),
                format!("{:.1}", heur.best.total_cost),
                heur.evaluations.to_string(),
                heur.best.config.to_string(),
                format!("{reduction:.1}"),
                format!("{:.2}/{:.2}s", t_exh.as_secs_f64(), t_heur.as_secs_f64()),
            ]);
        }
        print!(
            "{}",
            msoc_bench::render_table(
                &["W", "C_exh", "N", "combo_exh", "C_heur", "N", "combo_heur", "dN%", "time"],
                &rows
            )
        );
        println!();
    }
    println!("paper: N_exh = 26 always; N_heur = 10 (61.5% reduction) or 7 (73.0%);");
    println!("heuristic optimal in all but one case. Wall times include cache reuse.");

    if msoc_bench::has_flag("--delta-sweep") {
        delta_sweep(&mut planner);
    }
    if msoc_bench::has_flag("--weight-sweep") {
        weight_sweep(&mut planner);
    }
}

/// Ablation: relaxing the elimination threshold δ trades evaluations for
/// a guarantee of optimality.
fn delta_sweep(planner: &mut Planner<'_>) {
    println!("\nablation: elimination threshold delta (W=48, balanced weights)");
    let weights = CostWeights::balanced();
    let exh = planner.exhaustive(48, weights).expect("exhaustive plan");
    let mut rows = Vec::new();
    for delta in [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, f64::INFINITY] {
        let heur = planner.cost_optimizer(48, weights, delta).expect("plan");
        rows.push(vec![
            if delta.is_infinite() { "inf".into() } else { format!("{delta:.1}") },
            heur.evaluations.to_string(),
            format!("{:.2}", heur.best.total_cost),
            format!("{:.2}", heur.best.total_cost - exh.best.total_cost),
        ]);
    }
    print!("{}", msoc_bench::render_table(&["delta", "N", "C_heur", "gap to optimal"], &rows));
}

/// Ablation: the full W_T spectrum at W=48.
fn weight_sweep(planner: &mut Planner<'_>) {
    println!("\nablation: weight sweep (W=48)");
    let mut rows = Vec::new();
    for wt10 in 0..=10u32 {
        let wt = f64::from(wt10) / 10.0;
        let weights = CostWeights::new(wt, 1.0 - wt);
        let exh = planner.exhaustive(48, weights).expect("plan");
        rows.push(vec![
            format!("{wt:.1}"),
            format!("{:.1}", exh.best.total_cost),
            exh.best.config.to_string(),
            format!("{:.1}", exh.best.time_cost),
            format!("{:.1}", exh.best.area_cost),
        ]);
    }
    print!("{}", msoc_bench::render_table(&["W_T", "C", "combo", "C_T", "C_A"], &rows));
    println!("(time-heavy weights pick shallow sharing, area-heavy weights deep sharing)");
}
