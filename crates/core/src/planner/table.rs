//! The cross-width table sweep engine.
//!
//! The paper's headline results are whole *tables*: Table 3 sweeps every
//! sharing configuration across every TAM width. Evaluating that matrix as
//! `|widths|` independent candidate sweeps — the per-width loop the
//! planner ran before this module — wastes the matrix's monotone
//! structure: the schedule-independent lower bound at one width bounds
//! every *narrower* width (see [`msoc_tam::bounds::WidthBoundCurve`]), so
//! a makespan packed anywhere in the matrix rules out whole swaths of
//! cells everywhere else.
//!
//! [`Planner::plan_table`] searches the matrix as one problem:
//!
//! 1. **Baselines first.** The all-share normalization configuration is
//!    packed at every width (it defines `T_max(w)`, the cost
//!    normalization), exactly as `cost_optimizer` would.
//! 2. **Best-first cell order.** The remaining cells are sorted by their
//!    width-curve lower bound, widest widths and strongest candidates
//!    first, so the earliest packs establish a tight incumbent.
//! 3. **One shared incumbent.** A single [`AtomicU64`] holds the best
//!    makespan packed so far, shared across *configs and widths*. Cells
//!    whose lower bound strictly exceeds it are pruned without packing —
//!    the prune is exact (a pruned cell provably cannot be the table's
//!    best-makespan cell), so the winner is bit-identical to the
//!    brute-force nested loop.
//! 4. **Deterministic waves.** Cells are processed in fixed-size waves:
//!    prune decisions read the incumbent only at wave boundaries (so the
//!    set of pruned cells — and every [`TableStats`] counter — is
//!    identical regardless of thread count), while the packs inside a
//!    wave fan out over `msoc_par` and update the incumbent via
//!    `fetch_min`. The winner itself is a deterministic
//!    `(makespan, cell index)` reduction.
//! 5. **Sessions preserved.** Every pack routes through the planner's
//!    per-width [`PackSession`]s and the service's schedule cache, so
//!    skeleton checkpoints, the delta-prefix trie and cross-instance
//!    caching all keep working — a table cell costs exactly what the same
//!    `(config, width)` cost in the per-width loop, when it is packed at
//!    all.
//!
//! Pruned cells are classified by which *pre-existing* mechanism could
//! have caught them: [`CellOutcome::WidthBoundPruned`] cells lose to
//! their own config's packed best (the `best_width_for` prune),
//! [`CellOutcome::CostBoundPruned`] cells additionally lose the blended
//! cost comparison at their width (the `cost_optimizer` member prune),
//! and [`CellOutcome::CrossWidthPruned`] cells are the new power: only
//! the incumbent shared across configurations and widths rules them out.
//!
//! [`PackSession`]: msoc_tam::PackSession

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use msoc_tam::bounds::WidthBoundCurve;
use msoc_tam::PackSession;

use crate::cost::{self, CostWeights};
use crate::partition::SharingConfig;
use crate::planner::{in_batch_order, DeltaJobs, EvaluatedConfig, Pending, PlanError, Planner};

/// Cells per wave. Fixed (not the host's thread count) so the prune
/// decisions — frozen at wave boundaries — are bit-identical on every
/// machine; it only caps how many packs one barrier can overlap.
const WAVE: usize = 16;

/// What happened to one `(config, width)` cell of a table sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell was packed; its scheduled makespan (bit-identical to a
    /// per-width `schedule_batch` of the same cell).
    Packed {
        /// Scheduled SOC test time in cycles.
        makespan: u64,
    },
    /// Pruned: the cell's width-curve lower bound exceeds its own
    /// configuration's best packed makespan — the per-config width prune
    /// `best_width_for` already had. Cells a job cannot fit at all
    /// (`bound == u64::MAX`) land here too.
    WidthBoundPruned,
    /// Pruned: the bound exceeds the shared incumbent *and* the cell's
    /// blended-cost lower bound exceeds the best evaluated cost at its
    /// width — the `cost_optimizer` member prune would also have skipped
    /// it.
    CostBoundPruned,
    /// Pruned by the shared incumbent alone: only a makespan packed at a
    /// *different* configuration and/or width rules this cell out. The
    /// per-width loop had no mechanism for this.
    CrossWidthPruned,
}

/// Per-cell accounting of a [`TableReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCell {
    /// Index into [`TableReport::configs`].
    pub config: usize,
    /// TAM width of the cell.
    pub width: u32,
    /// Outcome of the cell.
    pub outcome: CellOutcome,
}

/// Aggregate counters of one [`Planner::plan_table`] run. Deterministic:
/// identical on every host and thread count for the same inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Total cells in the matrix (`configs × widths`).
    pub cells: usize,
    /// Cells actually packed (including the all-share baseline cells).
    pub packed: usize,
    /// Cells pruned by their own config's packed best (see
    /// [`CellOutcome::WidthBoundPruned`]).
    pub width_bound_prunes: usize,
    /// Cells pruned where the blended-cost bound also ruled them out (see
    /// [`CellOutcome::CostBoundPruned`]).
    pub cost_bound_prunes: usize,
    /// Cells only the shared cross-width incumbent could prune (see
    /// [`CellOutcome::CrossWidthPruned`]).
    pub cross_width_prunes: usize,
    /// Barrier waves the sweep ran.
    pub waves: usize,
    /// All-share baseline packs a lazy (pure-makespan) sweep skipped: the
    /// eager path packs `T_max` at every width up front, the lazy path
    /// packs a baseline only where the table itself demands one (an
    /// all-share cell that survives pruning, or the winner width's
    /// normalizer). Always 0 for eager sweeps.
    pub baseline_skips: usize,
}

/// The result of a [`Planner::plan_table`] sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// The candidate configurations, in input order.
    pub configs: Vec<SharingConfig>,
    /// The TAM widths, in input order.
    pub widths: Vec<u32>,
    /// The table's best cell — minimum scheduled makespan over the whole
    /// matrix, ties to the earliest cell in config-major order — fully
    /// evaluated (cost-capped makespan, `C_T`/`C_A`, blended cost) at
    /// [`Self::winner_width`].
    pub best: EvaluatedConfig,
    /// Width of the winning cell.
    pub winner_width: u32,
    /// The winning cell's *raw* scheduled makespan (the uncapped value a
    /// nested `best_width_for` loop reports).
    pub winner_makespan: u64,
    /// `T_max(w)` per width (all-share makespan, the `C_T` normalizer).
    /// Always `Some` for eager sweeps; a lazy (pure-makespan) sweep fills
    /// only the widths whose baseline it actually packed (see
    /// [`TableStats::baseline_skips`]).
    pub t_max: Vec<Option<u64>>,
    /// Every cell's outcome, config-major (`config * widths.len() +
    /// width_index`).
    pub cells: Vec<TableCell>,
    /// Deterministic sweep counters.
    pub stats: TableStats,
}

impl TableReport {
    /// The outcome of cell `(config index, width index)`.
    pub fn outcome(&self, config: usize, width_idx: usize) -> CellOutcome {
        self.cells[config * self.widths.len() + width_idx].outcome
    }

    /// The packed makespan of a cell, `None` when it was pruned.
    pub fn makespan(&self, config: usize, width_idx: usize) -> Option<u64> {
        match self.outcome(config, width_idx) {
            CellOutcome::Packed { makespan } => Some(makespan),
            _ => None,
        }
    }

    /// Normalized test time `C_T` of a packed cell (100 = the all-share
    /// baseline at the same width, the paper's Table 3 metric). `None`
    /// when the cell was pruned or the width's baseline was lazily
    /// skipped (its normalizer was never computed).
    pub fn time_cost(&self, config: usize, width_idx: usize) -> Option<f64> {
        let t_max = self.t_max[width_idx]?;
        self.makespan(config, width_idx).map(|m| cost::time_cost(m.min(t_max), t_max))
    }
}

impl<'a> Planner<'a> {
    /// Plans the full `configs × widths` matrix through one shared
    /// incumbent (see the [module docs](self)).
    ///
    /// Every packed cell's makespan is bit-identical to what
    /// [`Planner::schedule_batch`] computes for the same `(config,
    /// width)`, and the winner — the matrix's minimum-makespan cell, ties
    /// to the earliest config then the earliest width in input order — is
    /// bit-identical to the brute-force nested loop with pruning
    /// disabled. Results land in the planner's makespan/schedule caches,
    /// so follow-up [`Planner::evaluate`]/[`Planner::schedule_for`] calls
    /// on packed cells are cache hits.
    ///
    /// # Lazy baselines
    ///
    /// A pure-makespan query (`weights.area() == 0`) never needs the
    /// cost classification that the all-share `T_max` normalizers exist
    /// for, so the sweep goes *lazy*: the baseline rows — the most
    /// expensive packs of the whole matrix — are not pre-packed; all-share
    /// cells compete in the waves like any other cell (where the shared
    /// incumbent usually prunes them), and only the winner width's
    /// normalizer is packed for the final evaluation.
    /// [`TableStats::baseline_skips`] counts the avoided packs and
    /// [`TableReport::t_max`] is `None` at skipped widths. The winner and
    /// every packed cell remain bit-identical to the eager sweep.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoAnalogCores`] for an all-digital SOC,
    /// [`PlanError::Incompatible`] when a candidate violates the sharing
    /// policy, [`PlanError::Schedule`] when the all-share baseline or
    /// an unpruned cell cannot be scheduled (a width too narrow for
    /// *every* cell surfaces the earliest such cell's error), and
    /// [`PlanError::Interrupted`] when the driving job's deadline or
    /// cancellation fires at a wave boundary.
    ///
    /// [`PlanError::Interrupted`]: crate::PlanError::Interrupted
    ///
    /// # Panics
    ///
    /// Panics if `configs` or `widths` is empty, or if `widths` contains
    /// duplicates.
    pub fn plan_table(
        &mut self,
        configs: &[SharingConfig],
        widths: &[u32],
        weights: CostWeights,
    ) -> Result<TableReport, PlanError> {
        if self.soc.analog.is_empty() {
            return Err(PlanError::NoAnalogCores);
        }
        assert!(!configs.is_empty(), "plan_table needs at least one configuration");
        assert!(!widths.is_empty(), "plan_table needs at least one width");
        {
            let mut sorted = widths.to_vec();
            sorted.sort_unstable();
            assert!(sorted.windows(2).all(|p| p[0] != p[1]), "plan_table widths must be distinct");
        }
        let nw = widths.len();
        let n_cells = configs.len() * nw;

        // Exact schedule-independent ingredients, one pass each: the
        // per-candidate delta jobs, the exact area costs, and the
        // width→bound curves (built over the widest session's skeleton —
        // staircases agree on every shared point, so the curve lower-bounds
        // every narrower width too).
        let deltas: Vec<DeltaJobs> = configs.iter().map(|c| self.delta_jobs(c)).collect();
        let area_costs: Vec<f64> = configs
            .iter()
            .map(|c| {
                cost::area_cost(
                    c,
                    &self.soc.analog,
                    &self.opts.area_model,
                    &self.opts.sharing_policy,
                )
            })
            .collect::<Result<_, _>>()?;
        let sessions: Vec<Arc<PackSession>> =
            widths.iter().map(|&w| Arc::clone(self.session(w))).collect();
        let widest_idx = (0..nw).max_by_key(|&i| widths[i]).expect("widths is non-empty");
        let widest_skeleton = sessions[widest_idx].key().skeleton();
        let curves: Vec<WidthBoundCurve<'_>> = deltas
            .iter()
            .map(|d| WidthBoundCurve::new(widest_skeleton.iter().chain(d.jobs.iter())))
            .collect();
        let cell_bound = |cell: usize| curves[cell / nw].bound_at(widths[cell % nw]);
        let bounds: Vec<u64> = (0..n_cells).map(cell_bound).collect();

        // Baselines: T_max(w) per width, the C_T normalizer. The *eager*
        // path (cost-blended weights) packs all of them up front — they cap
        // every cost and classify the cost-bound prunes. A *pure-makespan*
        // query (`W_A = 0`) never needs a cost classification to pick its
        // winner, so the lazy path skips these most-expensive packs
        // entirely: all-share cells (if the baseline is in `configs`)
        // compete in the waves like any other cell — where the shared
        // incumbent usually prunes them — and only the winner width's
        // normalizer is packed at the end, for the final evaluation.
        // Winner and every packed cell stay bit-identical either way: the
        // baselines only ever *seed* the incumbent, and the prune is exact
        // with or without that seeding.
        let lazy = weights.area() == 0.0;
        let all_shared = SharingConfig::all_shared(self.soc.analog.len());
        let mut t_max: Vec<Option<u64>> = vec![None; nw];
        let mut baseline_packed = vec![false; nw];
        if !lazy {
            self.check_interrupt()?;
            let delta = self.delta_jobs(&all_shared);
            let baselines: Vec<Pending> = (0..nw)
                .map(|wi| Pending {
                    config: all_shared.clone(),
                    rank: wi,
                    session: Arc::clone(&sessions[wi]),
                    delta: delta.clone(),
                })
                .collect();
            let packed = self.lookup_then_pack(baselines, in_batch_order)?;
            for (wi, schedule) in packed.iter().enumerate() {
                t_max[wi] = Some(schedule.makespan());
                baseline_packed[wi] = true;
            }
        }

        // Best-first order: strongest bound first, widest width on ties,
        // canonical cell index last — deterministic on every host. The
        // all-share cells (if the baseline is in `configs`) are already
        // packed on the eager path and only need their outcomes recorded.
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; n_cells];
        let mut stats = TableStats { cells: n_cells, ..TableStats::default() };
        let incumbent = AtomicU64::new(u64::MAX);
        let mut per_config_best: Vec<u64> = vec![u64::MAX; configs.len()];
        let mut per_width_best: Vec<u64> = vec![u64::MAX; nw];
        let mut width_cost_best: Vec<f64> = vec![f64::INFINITY; nw];
        let base_idx = configs.iter().position(|c| *c == all_shared);
        if !lazy {
            if let Some(base_idx) = base_idx {
                for wi in 0..nw {
                    let m = t_max[wi].expect("eager sweeps pack every baseline");
                    let cell = base_idx * nw + wi;
                    outcomes[cell] = Some(CellOutcome::Packed { makespan: m });
                    stats.packed += 1;
                    incumbent.fetch_min(m, Ordering::Relaxed);
                    per_config_best[base_idx] = per_config_best[base_idx].min(m);
                    per_width_best[wi] = per_width_best[wi].min(m);
                    let c = weights.blend(cost::time_cost(m, m), area_costs[base_idx]);
                    width_cost_best[wi] = width_cost_best[wi].min(c);
                }
            }
        }

        // Structural feasibility, binary-searched per config over the
        // monotone curve: widths narrower than the first one whose bound
        // is finite cannot hold some job of the config at all — the width
        // bound in its purest form, pruned before the waves without an
        // error for the rest of the table. (Widths wider than the first
        // feasible one are feasible too, by monotonicity.)
        let mut width_order: Vec<usize> = (0..nw).collect();
        width_order.sort_by_key(|&wi| widths[wi]);
        let ascending: Vec<u32> = width_order.iter().map(|&wi| widths[wi]).collect();
        for (c, curve) in curves.iter().enumerate() {
            let first_feasible = curve.first_within(&ascending, u64::MAX - 1).unwrap_or(nw);
            for &wi in &width_order[..first_feasible] {
                let cell = c * nw + wi;
                if outcomes[cell].is_none() {
                    outcomes[cell] = Some(CellOutcome::WidthBoundPruned);
                    stats.width_bound_prunes += 1;
                }
            }
        }

        let mut order: Vec<usize> = (0..n_cells).filter(|&cell| outcomes[cell].is_none()).collect();
        order.sort_by_key(|&cell| (bounds[cell], Reverse(widths[cell % nw]), cell));

        for wave in order.chunks(WAVE) {
            // The deterministic interruption point of a table job: a
            // deadline or cancellation lands exactly between waves, so an
            // interrupted sweep abandons whole waves and every schedule it
            // already cached is a complete, bit-identical pack.
            self.check_interrupt()?;
            stats.waves += 1;
            // Freeze the incumbent (and the classification inputs) at the
            // wave boundary: decisions depend only on completed waves, so
            // they are identical regardless of how the packs below
            // interleave across threads.
            let frozen = incumbent.load(Ordering::Relaxed);
            let mut to_pack: Vec<usize> = Vec::new();
            for &cell in wave {
                let (c, wi) = (cell / nw, cell % nw);
                // Structurally infeasible cells never reach the waves
                // (the first_within pre-pass above), so a finite bound is
                // guaranteed here.
                if bounds[cell] > frozen {
                    // Exact prune: makespan(cell) >= bound > frozen >=
                    // the final minimum, so this cell cannot win (ties
                    // survive — the inequality chain is strict).
                    //
                    // Classification is pure accounting (it never decides
                    // *whether* to prune). The lazy path has no T_max to
                    // blend costs with, so its cost-bound class compares
                    // raw makespans at the cell's width — with W_A = 0 the
                    // same ordering the blended cost induces.
                    let cost_pruned = if lazy {
                        bounds[cell] > per_width_best[wi]
                    } else {
                        let t = t_max[wi].expect("eager sweeps pack every baseline");
                        let cost_lb =
                            weights.blend(cost::time_cost(bounds[cell].min(t), t), area_costs[c]);
                        cost_lb > width_cost_best[wi]
                    };
                    let outcome = if bounds[cell] > per_config_best[c] {
                        CellOutcome::WidthBoundPruned
                    } else if cost_pruned {
                        CellOutcome::CostBoundPruned
                    } else {
                        CellOutcome::CrossWidthPruned
                    };
                    outcomes[cell] = Some(outcome);
                    match outcome {
                        CellOutcome::WidthBoundPruned => stats.width_bound_prunes += 1,
                        CellOutcome::CostBoundPruned => stats.cost_bound_prunes += 1,
                        CellOutcome::CrossWidthPruned => stats.cross_width_prunes += 1,
                        CellOutcome::Packed { .. } => unreachable!("pruned cells are not packed"),
                    }
                    continue;
                }
                to_pack.push(cell);
            }
            if to_pack.is_empty() {
                continue;
            }
            // Each cell ranks by its index: the earliest failed cell wins
            // error reporting, like `schedule_batch`'s input order.
            let batch: Vec<Pending> = to_pack
                .iter()
                .map(|&cell| Pending {
                    config: configs[cell / nw].clone(),
                    rank: cell,
                    session: Arc::clone(&sessions[cell % nw]),
                    delta: deltas[cell / nw].clone(),
                })
                .collect();
            let packed = self.lookup_then_pack(batch, in_batch_order)?;
            for (&cell, schedule) in to_pack.iter().zip(packed) {
                let makespan = schedule.makespan();
                let (c, wi) = (cell / nw, cell % nw);
                outcomes[cell] = Some(CellOutcome::Packed { makespan });
                stats.packed += 1;
                incumbent.fetch_min(makespan, Ordering::Relaxed);
                per_config_best[c] = per_config_best[c].min(makespan);
                per_width_best[wi] = per_width_best[wi].min(makespan);
                if lazy {
                    // A lazily swept all-share cell that survives pruning
                    // IS the width's baseline — record its normalizer.
                    if base_idx == Some(c) {
                        t_max[wi] = Some(makespan);
                        baseline_packed[wi] = true;
                    }
                } else {
                    let t = t_max[wi].expect("eager sweeps pack every baseline");
                    let c_t = cost::time_cost(makespan.min(t), t);
                    width_cost_best[wi] =
                        width_cost_best[wi].min(weights.blend(c_t, area_costs[c]));
                }
            }
        }

        // Deterministic (makespan, cell index) reduction over the packed
        // cells: the canonical config-major index breaks ties exactly like
        // the nested reference loop.
        let winner = outcomes
            .iter()
            .enumerate()
            .filter_map(|(cell, o)| match o {
                Some(CellOutcome::Packed { makespan }) => Some((cell, *makespan)),
                _ => None,
            })
            .min_by_key(|&(cell, m)| (m, cell));
        let Some((winner_cell, winner_makespan)) = winner else {
            // Only the lazy path can get here (the eager baseline pack
            // would have errored): every cell is structurally infeasible,
            // so packing the widest width's all-share baseline — which
            // every cell's problem refines — surfaces the schedule error.
            self.t_max(widths[widest_idx])?;
            unreachable!("an all-infeasible matrix cannot pack its baseline");
        };
        let (winner_config, winner_wi) = (winner_cell / nw, winner_cell % nw);
        let winner_width = widths[winner_wi];
        let best = self.evaluate(&configs[winner_config], winner_width, weights)?;
        if lazy {
            // The final evaluation just packed (or reused) the winner
            // width's normalizer; record it. Every other width's baseline
            // stayed lazily unpacked — those are the skips.
            t_max[winner_wi] = Some(self.t_max(winner_width)?);
            baseline_packed[winner_wi] = true;
            stats.baseline_skips = baseline_packed.iter().filter(|&&p| !p).count();
        }

        // Drop the sweep's full schedules from the planner cache, exactly
        // like a `report()` sweep: only pinned entries survive. Makespans
        // stay cached (they are what post-table `evaluate` calls read),
        // and a later `schedule_for` on a packed cell is a service
        // schedule-cache hit, not a re-pack.
        let pinned = &self.pinned;
        self.schedules.retain(|key, _| pinned.contains(key));

        let cells: Vec<TableCell> = outcomes
            .into_iter()
            .enumerate()
            .map(|(cell, o)| TableCell {
                config: cell / nw,
                width: widths[cell % nw],
                outcome: o.expect("every cell is packed or pruned"),
            })
            .collect();
        Ok(TableReport {
            configs: configs.to_vec(),
            widths: widths.to_vec(),
            best,
            winner_width,
            winner_makespan,
            t_max,
            cells,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerOptions;
    use crate::soc::MixedSignalSoc;
    use msoc_tam::Effort;

    fn quick_planner(soc: &MixedSignalSoc) -> Planner<'_> {
        Planner::with_options(
            soc,
            PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() },
        )
    }

    /// The nested reference loop: every cell packed, winner by
    /// `(makespan, config index, width index)` — what `plan_table` must
    /// reproduce without packing everything.
    fn brute_force_winner(
        soc: &MixedSignalSoc,
        configs: &[SharingConfig],
        widths: &[u32],
    ) -> (SharingConfig, u32, u64) {
        let mut p = quick_planner(soc);
        let mut best: Option<(usize, usize, u64)> = None;
        for (ci, config) in configs.iter().enumerate() {
            for (wi, &w) in widths.iter().enumerate() {
                let m = p.makespan(config, w).expect("reference cell is feasible");
                if best.is_none_or(|(_, _, bm)| m < bm) {
                    best = Some((ci, wi, m));
                }
            }
        }
        let (ci, wi, m) = best.expect("non-empty matrix");
        (configs[ci].clone(), widths[wi], m)
    }

    #[test]
    fn table_winner_matches_the_brute_force_nested_loop() {
        let soc = MixedSignalSoc::d695m();
        let mut p = quick_planner(&soc);
        let configs = p.candidates();
        let widths = [16, 24];
        let report = p.plan_table(&configs, &widths, CostWeights::balanced()).unwrap();
        let (bf_config, bf_width, bf_makespan) = brute_force_winner(&soc, &configs, &widths);
        assert_eq!(report.best.config, bf_config);
        assert_eq!(report.winner_width, bf_width);
        assert_eq!(report.winner_makespan, bf_makespan);
    }

    #[test]
    fn packed_cells_are_bit_identical_to_per_width_batches() {
        let soc = MixedSignalSoc::d695m();
        let mut table_planner = quick_planner(&soc);
        let configs = table_planner.candidates();
        let widths = [16, 24];
        let report = table_planner.plan_table(&configs, &widths, CostWeights::balanced()).unwrap();

        let mut loop_planner = quick_planner(&soc);
        let mut packed = 0usize;
        for (ci, config) in configs.iter().enumerate() {
            for (wi, &w) in widths.iter().enumerate() {
                if let Some(m) = report.makespan(ci, wi) {
                    assert_eq!(
                        m,
                        loop_planner.makespan(config, w).unwrap(),
                        "cell ({config}, w={w}) diverged from the per-width loop"
                    );
                    packed += 1;
                }
            }
        }
        assert_eq!(packed, report.stats.packed);
        assert_eq!(report.cells.len(), configs.len() * widths.len());
        assert_eq!(
            report.stats.packed
                + report.stats.width_bound_prunes
                + report.stats.cost_bound_prunes
                + report.stats.cross_width_prunes,
            report.stats.cells,
            "every cell is packed or pruned exactly once: {:?}",
            report.stats
        );
    }

    #[test]
    fn cross_width_incumbent_prunes_cells_the_per_width_loop_could_not() {
        // p93791m is area-bound dominated: the widest width's makespans
        // rule out nearly every narrow-width cell before packing.
        let soc = MixedSignalSoc::p93791m();
        let mut p = quick_planner(&soc);
        let configs: Vec<SharingConfig> = p.candidates().into_iter().take(8).collect();
        let widths = [16, 32, 64];
        let report = p.plan_table(&configs, &widths, CostWeights::balanced()).unwrap();
        assert!(
            report.stats.cross_width_prunes > 0,
            "the shared incumbent must prune across configs/widths: {:?}",
            report.stats
        );
        assert!(
            report.stats.packed < report.stats.cells,
            "a table sweep must not pack every cell: {:?}",
            report.stats
        );
        // The winner is still exact.
        let (bf_config, bf_width, bf_makespan) = brute_force_winner(&soc, &configs, &widths);
        assert_eq!(
            (report.best.config.clone(), report.winner_width, report.winner_makespan),
            (bf_config, bf_width, bf_makespan)
        );
    }

    #[test]
    fn table_sweep_retains_only_pinned_schedules() {
        // Like a `report()` sweep, the table drops its losing schedules
        // from the planner cache (makespans stay for cheap evaluation,
        // and re-fetching a packed cell's schedule is a service
        // schedule-cache hit).
        let soc = MixedSignalSoc::d695m();
        let mut p = quick_planner(&soc);
        let configs = p.candidates();
        let report = p.plan_table(&configs, &[16, 24], CostWeights::balanced()).unwrap();
        assert!(p.schedules.is_empty(), "unpinned table schedules must be dropped");
        assert!(!p.makespans.is_empty(), "makespans stay cached");
        let winner = report.best.config.clone();
        let schedule = p.schedule_for(&winner, report.winner_width).unwrap();
        assert_eq!(schedule.makespan(), report.winner_makespan);
    }

    #[test]
    fn baseline_cells_report_time_cost_100() {
        let soc = MixedSignalSoc::d695m();
        let mut p = quick_planner(&soc);
        let configs = p.candidates();
        let widths = [16, 24];
        let report = p.plan_table(&configs, &widths, CostWeights::balanced()).unwrap();
        let base = configs
            .iter()
            .position(|c| *c == SharingConfig::all_shared(5))
            .expect("paper enumeration includes the all-share baseline");
        for wi in 0..widths.len() {
            assert_eq!(report.makespan(base, wi), report.t_max[wi]);
            assert!(report.t_max[wi].is_some(), "eager sweeps record every normalizer");
            let c_t = report.time_cost(base, wi).unwrap();
            assert!((c_t - 100.0).abs() < 1e-9, "baseline C_T must be 100, got {c_t}");
        }
        assert_eq!(report.stats.baseline_skips, 0, "eager sweeps never skip baselines");
    }

    #[test]
    fn lazy_pure_makespan_table_skips_baselines_and_keeps_the_winner() {
        // W_A = 0 is a pure-makespan query: the all-share baseline rows
        // are not pre-packed, the winner must still be bit-identical to
        // the eager (and brute-force) sweep, and every cell the lazy
        // sweep does pack must match the per-width loop.
        let soc = MixedSignalSoc::p93791m();
        let mut lazy = quick_planner(&soc);
        let configs = lazy.candidates();
        let widths = [16, 32, 64];
        let report = lazy.plan_table(&configs, &widths, CostWeights::new(1.0, 0.0)).unwrap();
        assert!(
            report.stats.baseline_skips > 0,
            "a pure-makespan sweep must skip baseline packs: {:?}",
            report.stats
        );
        let mut eager = quick_planner(&soc);
        let eager_report = eager.plan_table(&configs, &widths, CostWeights::balanced()).unwrap();
        assert_eq!(report.best.config, eager_report.best.config);
        assert_eq!(report.winner_width, eager_report.winner_width);
        assert_eq!(report.winner_makespan, eager_report.winner_makespan);
        // The winner width's normalizer is known; skipped widths are None.
        let winner_wi =
            widths.iter().position(|&w| w == report.winner_width).expect("winner width in set");
        assert_eq!(report.t_max[winner_wi], eager_report.t_max[winner_wi]);
        assert_eq!(report.t_max.iter().filter(|t| t.is_none()).count(), {
            // skips counted = widths whose baseline never packed
            report.stats.baseline_skips
        });
        // Packed lazy cells are bit-identical to the per-width loop.
        let mut loop_planner = quick_planner(&soc);
        for (ci, config) in configs.iter().enumerate() {
            for (wi, &w) in widths.iter().enumerate() {
                if let Some(m) = report.makespan(ci, wi) {
                    assert_eq!(m, loop_planner.makespan(config, w).unwrap());
                }
            }
        }
        // Accounting still closes.
        let s = report.stats;
        assert_eq!(
            s.packed + s.width_bound_prunes + s.cost_bound_prunes + s.cross_width_prunes,
            s.cells
        );
    }

    #[test]
    fn table_stats_are_deterministic_across_runs() {
        let soc = MixedSignalSoc::p93791m();
        let configs: Vec<SharingConfig> = quick_planner(&soc).candidates();
        let widths = [24, 48];
        let run = |soc: &MixedSignalSoc| {
            let mut p = quick_planner(soc);
            p.plan_table(&configs[..6], &widths, CostWeights::balanced()).unwrap()
        };
        let a = run(&soc);
        let b = run(&soc);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.cells, b.cells);
        assert_eq!(a, b);
    }

    #[test]
    fn width_too_narrow_for_the_baseline_is_a_schedule_error() {
        // Width 8 cannot fit core D's 10-wire IIP3 test: every cell at
        // w=8 is structurally infeasible. The all-share baseline fails
        // there too, so an explicit narrow width in the width set is an
        // error only when even the baseline cannot be packed (cells that
        // are infeasible for just one candidate are width-bound pruned
        // instead).
        let soc = MixedSignalSoc::d695m();
        let mut p = quick_planner(&soc);
        let configs = p.candidates();
        match p.plan_table(&configs, &[8, 16], CostWeights::balanced()) {
            Err(PlanError::Schedule(_)) => {}
            other => panic!("expected a baseline schedule error, got {other:?}"),
        }
    }
}
