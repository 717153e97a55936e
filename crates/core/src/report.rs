//! Human-readable rendering of plan results.
//!
//! A [`PlanReport`] carries everything a test engineer
//! needs — the chosen wrapper sharing, the cost breakdown and the
//! schedule — and this module turns it into the kind of summary the
//! paper's tables condense, plus CSV rows for downstream tooling.

use std::fmt::Write as _;

use crate::planner::{PlanReport, Planner};

/// Renders a multi-line summary of a plan: configuration, costs,
/// evaluation effort, analog placements and TAM utilization.
///
/// `planner` must be the planner that produced the report (it rebuilds
/// the schedule problem to recover job labels).
pub fn render_plan(planner: &mut Planner<'_>, report: &PlanReport) -> String {
    let problem = planner.build_problem(&report.best.config, report.tam_width);
    let mut out = String::new();
    let _ = writeln!(out, "wrapper sharing : {}", report.best.config);
    let _ = writeln!(out, "TAM width       : {}", report.tam_width);
    let _ = writeln!(out, "test time       : {} cycles", report.best.makespan);
    let _ = writeln!(
        out,
        "costs           : C_T {:.1}, C_A {:.1}, total {:.2} (W_T {:.2}/W_A {:.2})",
        report.best.time_cost,
        report.best.area_cost,
        report.best.total_cost,
        report.weights.time(),
        report.weights.area(),
    );
    let _ = writeln!(
        out,
        "evaluations     : {} of {} candidates",
        report.evaluations, report.candidates
    );
    let _ = writeln!(out, "utilization     : {:.1}%", report.schedule.utilization() * 100.0);
    let _ = writeln!(out, "analog schedule :");
    for e in report.schedule.entries() {
        let label = &problem.jobs[e.job].label;
        if problem.jobs[e.job].group.is_some() {
            let _ = writeln!(out, "  {label:<20} w={:<3} [{:>9}, {:>9})", e.width, e.start, e.end);
        }
    }
    out
}

/// Renders a Table-3-style text table from a cross-width
/// [`TableReport`](crate::TableReport): one row per sharing
/// configuration, one column per TAM width, the normalized test time
/// `C_T` in packed cells and the prune class in pruned ones (`w-` width
/// bound, `c-` cost bound, `x-` cross-width incumbent). The footer names
/// the winning cell and the sweep counters.
pub fn render_table_report(report: &crate::TableReport) -> String {
    use crate::planner::table::CellOutcome;
    let mut out = String::new();
    let _ = write!(out, "{:<4} {:<24}", "Nw", "sharing");
    for w in &report.widths {
        let _ = write!(out, " {:>8}", format!("W={w}"));
    }
    out.push('\n');
    for (ci, config) in report.configs.iter().enumerate() {
        let _ = write!(out, "{:<4} {:<24}", config.wrapper_count(), config.to_string());
        for wi in 0..report.widths.len() {
            let cell = match report.outcome(ci, wi) {
                // A lazily swept width has no normalizer: show the raw
                // makespan (in kilocycles) instead of C_T.
                CellOutcome::Packed { makespan } => match report.time_cost(ci, wi) {
                    Some(c_t) => format!("{c_t:.1}"),
                    None => format!("{}k", makespan / 1000),
                },
                CellOutcome::WidthBoundPruned => "w-".into(),
                CellOutcome::CostBoundPruned => "c-".into(),
                CellOutcome::CrossWidthPruned => "x-".into(),
            };
            let _ = write!(out, " {cell:>8}");
        }
        out.push('\n');
    }
    let s = report.stats;
    let _ = writeln!(
        out,
        "winner: {} at W={} ({} cycles, cost {:.2}); {} packed / {} pruned of {} cells \
         (width {}, cost {}, cross-width {}) in {} waves",
        report.best.config,
        report.winner_width,
        report.winner_makespan,
        report.best.total_cost,
        s.packed,
        s.cells - s.packed,
        s.cells,
        s.width_bound_prunes,
        s.cost_bound_prunes,
        s.cross_width_prunes,
        s.waves,
    );
    out
}

/// One CSV row per schedule entry: `label,group,width,start,end`.
pub fn schedule_csv(planner: &mut Planner<'_>, report: &PlanReport) -> Vec<Vec<String>> {
    let problem = planner.build_problem(&report.best.config, report.tam_width);
    report
        .schedule
        .entries()
        .iter()
        .map(|e| {
            vec![
                problem.jobs[e.job].label.clone(),
                problem.jobs[e.job].group.map_or(String::new(), |g| g.to_string()),
                e.width.to_string(),
                e.start.to_string(),
                e.end.to_string(),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerOptions;
    use crate::{CostWeights, MixedSignalSoc};
    use msoc_tam::Effort;

    fn plan() -> (MixedSignalSoc, PlanReport) {
        let soc = MixedSignalSoc::d695m();
        let mut p = Planner::with_options(
            &soc,
            PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
        );
        let report = p.cost_optimizer(16, CostWeights::balanced(), 0.0).unwrap();
        (soc, report)
    }

    #[test]
    fn rendered_plan_mentions_all_key_facts() {
        let (soc, report) = plan();
        let mut p = Planner::with_options(
            &soc,
            PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
        );
        let text = render_plan(&mut p, &report);
        assert!(text.contains("wrapper sharing"));
        assert!(text.contains(&report.best.config.to_string()));
        assert!(text.contains(&format!("{} cycles", report.best.makespan)));
        assert!(text.contains("analog schedule"));
        // All 20 analog tests appear (6+6 for the I-Q pair, 3+3+2 for C/D/E).
        assert_eq!(text.matches(" w=").count(), 20);
    }

    #[test]
    fn rendered_table_report_shows_costs_prunes_and_the_winner() {
        let soc = MixedSignalSoc::p93791m();
        let mut p = Planner::with_options(
            &soc,
            PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
        );
        let configs: Vec<_> = p.candidates().into_iter().take(6).collect();
        let report = p.plan_table(&configs, &[16, 64], CostWeights::balanced()).unwrap();
        let text = render_table_report(&report);
        assert!(text.contains("W=16") && text.contains("W=64"));
        assert!(text.contains("winner:"));
        assert!(text.contains("cross-width"));
        // The narrow column is dominated by prune markers on this SOC.
        assert!(text.contains("x-") || text.contains("w-") || text.contains("c-"));
        assert_eq!(text.lines().count(), configs.len() + 2);
    }

    #[test]
    fn csv_covers_every_entry_with_five_fields() {
        let (soc, report) = plan();
        let mut p = Planner::with_options(
            &soc,
            PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
        );
        let rows = schedule_csv(&mut p, &report);
        assert_eq!(rows.len(), report.schedule.entries().len());
        assert!(rows.iter().all(|r| r.len() == 5));
        // Start/end parse back as numbers and are ordered.
        for r in &rows {
            let start: u64 = r[3].parse().unwrap();
            let end: u64 = r[4].parse().unwrap();
            assert!(end > start);
        }
    }
}
