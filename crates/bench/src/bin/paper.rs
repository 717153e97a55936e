//! The paper report: writes `PAPER_tables.json`.
//!
//! ```text
//! cargo run --release -p msoc-bench --bin paper
//! git diff --exit-code PAPER_tables.json
//! ```
//!
//! Regenerates the evaluation of the reproduced paper — Tables 1–4 and
//! Figures 4–5 on `p93791m` with its five wrapped analog cores — plus
//! the ablations. Like `BENCH_schedule.json`, the file holds integers,
//! flags and labels only: a normalized value is an integer ×100 under a
//! `_x100` key, a frequency is rounded to the hertz. Where the paper
//! publishes a value, a `paper_` key holds it next to the reproduced
//! one. The planners are deterministic at any thread count, so a rerun
//! reproduces the file byte for byte and `git diff` is its check.
//!
//! Sections:
//!
//! * `table1` — per sharing configuration, the normalized analog
//!   test-time lower bound `T̄_LB` and the area cost `C_A` under both
//!   area models; `table1_beta_sweep` is the area-optimal configuration
//!   as the routing factor β grows, under both models.
//! * `table2` — the analog cores' test specifications.
//! * `table3` — every configuration's makespan (capped at the all-share
//!   one) and `C_T` at each TAM width (`Effort::Thorough`) with the class
//!   the cross-width table engine gave the cell; `table3_columns` is each width's minimum and
//!   spread, `table3_engine` the table engine's counters and winner.
//! * `table4` — the `Cost_Optimizer` heuristic (δ = 0) against the
//!   exhaustive search per weighting and width. `evaluations` counts the
//!   TAM optimizations the heuristic ran; `considered` adds the members
//!   its cost bound ruled out before packing, which is the paper's N.
//!   `table4_paper` holds the published counts, `table4_delta_sweep` and
//!   `table4_weight_sweep` the ablations over δ and `W_T` at W = 48.
//! * `fig4` — converter hardware counts of the monolithic and modular
//!   architectures; `fig4_equivalence` counts the codes where the 8-bit
//!   flash and pipelined ADCs disagree.
//! * `fig5` — core A's cutoff frequency extracted directly and through
//!   the 8-bit wrapper, with 0.5 µm-class converter nonidealities and
//!   with ideal converters; `fig5_tones` holds the spectrum at each
//!   stimulus tone.
//! * `ablation_buses` — the flexible-width TAM schedule against the best
//!   fixed-bus schedule; `ablation_selftest` — the exhaustive optimum
//!   with and without the wrappers' self-test sessions.

use std::cmp::Reverse;

use msoc_analog::circuit::Biquad;
use msoc_analog::converter::{FlashAdc, ModularDac, PipelinedAdc, VoltageSteeringDac};
use msoc_analog::dsp::{amplitude_spectrum, magnitude_db, Window};
use msoc_analog::measure::{extract_cutoff, tone_gain};
use msoc_analog::paper_cores;
use msoc_analog::signal::MultiTone;
use msoc_awrapper::{AreaModel, SelfTestReport, SharingPolicy, WrapperDatapath};
use msoc_bench::{render_report, x100, Fields, Value};
use msoc_core::cost::{area_cost, normalized_time_bound};
use msoc_core::partition::enumerate_paper;
use msoc_core::{
    CellOutcome, CostWeights, MixedSignalSoc, PlanReport, Planner, PlannerOptions, SharingConfig,
};
use msoc_tam::{best_fixed_bus_schedule, schedule_with_effort, Effort};

/// Table 3's and Table 4's TAM widths.
const WIDTHS: [u32; 5] = [32, 40, 48, 56, 64];
/// The width of the Table 4 ablations.
const ABLATION_WIDTH: u32 = 48;

/// The Fig. 5 setup (the paper's Section 5): a three-tone stimulus,
/// 50 MHz system clock, 1.7 MHz sampling, 4551 samples, 4 V supply.
const SYSTEM_CLOCK_HZ: f64 = 50e6;
const SAMPLE_RATE_HZ: f64 = 1.7e6;
const N_SAMPLES: usize = 4551;
const SUPPLY_V: f64 = 4.0;
const CORE_FC_HZ: f64 = 61e3;
const TONES_HZ: [f64; 3] = [20e3, 50e3, 80e3];

/// `v` rounded to the nearest integer (frequencies in Hz).
fn rounded(v: f64) -> Value {
    Value::Int(v.round() as i128)
}

/// `table1`: `T̄_LB` and `C_A` per configuration, fewest shared wrappers
/// first.
fn table1(soc: &MixedSignalSoc, configs: &[SharingConfig]) -> Vec<Fields> {
    let policy = SharingPolicy::default();
    let mut configs = configs.to_vec();
    configs.sort_by_key(|c| (Reverse(c.wrapper_count()), c.clone()));
    configs
        .iter()
        .map(|config| {
            let label = config.to_string();
            let paper = msoc_bench::TABLE1_T_LB
                .iter()
                .find(|(l, _)| *l == label)
                .unwrap_or_else(|| panic!("{label} is not in the published Table 1"))
                .1;
            let c_a = |model: &AreaModel| {
                x100(area_cost(config, &soc.analog, model, &policy).expect("compatible sharing"))
            };
            vec![
                ("wrappers", config.wrapper_count().into()),
                ("config", label.into()),
                ("t_lb_x100", x100(normalized_time_bound(config, &soc.analog))),
                ("paper_t_lb_x100", x100(paper)),
                ("c_a_calibrated_x100", c_a(&AreaModel::paper_calibrated())),
                ("c_a_physical_x100", c_a(&AreaModel::physical())),
            ]
        })
        .collect()
}

/// `table1_beta_sweep`: the area-optimal configuration per routing
/// factor β; higher β penalizes deep sharing.
fn beta_sweep(soc: &MixedSignalSoc, configs: &[SharingConfig]) -> Vec<Fields> {
    let models =
        [("paper-calibrated", AreaModel::paper_calibrated()), ("physical", AreaModel::physical())];
    let mut rows = Vec::new();
    for (name, model) in &models {
        for beta10 in 0..=10u32 {
            let policy = SharingPolicy { beta: f64::from(beta10) / 10.0, max_demand: None };
            let (config, c_a) = configs
                .iter()
                .map(|c| {
                    (c, area_cost(c, &soc.analog, model, &policy).expect("compatible sharing"))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty candidate set");
            rows.push(vec![
                ("area_model", (*name).into()),
                ("beta_x100", (beta10 * 10).into()),
                ("config", config.to_string().into()),
                ("c_a_x100", x100(c_a)),
            ]);
        }
    }
    rows
}

/// `table2`: one row per analog test.
fn table2() -> Vec<Fields> {
    paper_cores()
        .iter()
        .flat_map(|core| {
            core.tests.iter().map(move |t| {
                vec![
                    ("core", core.id.to_string().into()),
                    ("name", core.name.into()),
                    ("test", t.kind.to_string().into()),
                    ("f_low_hz", rounded(t.f_low_hz)),
                    ("f_high_hz", rounded(t.f_high_hz)),
                    ("sample_rate_hz", rounded(t.sample_rate_hz)),
                    ("cycles", t.cycles.into()),
                    ("tam_width", t.tam_width.into()),
                ]
            })
        })
        .collect()
}

/// `table3`, `table3_columns` and `table3_engine`. `C_T` is normalized
/// to the all-share configuration (= 100) at each width, and a cell's
/// makespan is capped at the all-share one, as the cost model caps it.
fn table3(planner: &mut Planner<'_>) -> [Value; 3] {
    let candidates = planner.candidates();
    let weights = CostWeights::balanced(); // C_T does not depend on them
    let table = planner
        .plan_table(&candidates, &WIDTHS, weights)
        .expect("p93791m is feasible at every Table 3 width");

    // Every cell, pruned ones too: cache hits where the table packed.
    let mut cells = Vec::new();
    let mut c_t = vec![Vec::new(); WIDTHS.len()];
    for (ci, config) in candidates.iter().enumerate() {
        for (wi, &w) in WIDTHS.iter().enumerate() {
            let eval = planner.evaluate(config, w, weights).expect("feasible cell");
            let engine = match table.outcome(ci, wi) {
                CellOutcome::Packed { .. } => "packed",
                CellOutcome::WidthBoundPruned => "width_bound",
                CellOutcome::CostBoundPruned => "cost_bound",
                CellOutcome::CrossWidthPruned => "cross_width",
            };
            c_t[wi].push(eval.time_cost);
            cells.push(vec![
                ("wrappers", config.wrapper_count().into()),
                ("config", config.to_string().into()),
                ("tam_width", w.into()),
                ("makespan", eval.makespan.into()),
                ("c_t_x100", x100(eval.time_cost)),
                ("table_engine", engine.into()),
            ]);
        }
    }

    let columns = WIDTHS
        .iter()
        .zip(&c_t)
        .map(|(&w, column)| {
            let min = column.iter().copied().fold(f64::INFINITY, f64::min);
            let max = column.iter().copied().fold(0.0, f64::max);
            let mut row: Fields = vec![
                ("tam_width", w.into()),
                ("min_c_t_x100", x100(min)),
                ("spread_x100", x100(max - min)),
            ];
            if let Some(&(_, paper)) = msoc_bench::TABLE3_SPREAD.iter().find(|(pw, _)| *pw == w) {
                row.push(("paper_spread_x100", x100(paper)));
            }
            row
        })
        .collect::<Vec<_>>();

    let s = table.stats;
    let engine: Fields = vec![
        ("cells", s.cells.into()),
        ("packed", s.packed.into()),
        ("width_bound_prunes", s.width_bound_prunes.into()),
        ("cost_bound_prunes", s.cost_bound_prunes.into()),
        ("cross_width_prunes", s.cross_width_prunes.into()),
        ("waves", s.waves.into()),
        ("winner_config", table.best.config.to_string().into()),
        ("winner_width", table.winner_width.into()),
        ("winner_makespan", table.winner_makespan.into()),
        ("winner_cost_x100", x100(table.best.total_cost)),
    ];
    [cells.into(), columns.into(), engine.into()]
}

/// Runs the heuristic at `w` and returns its report with the paper's N:
/// its evaluations plus the members its cost bound pruned.
fn heuristic(
    planner: &mut Planner<'_>,
    w: u32,
    weights: CostWeights,
    delta: f64,
) -> (PlanReport, usize) {
    let prunes_before = planner.stats().cost_bound_prunes;
    let report = planner.cost_optimizer(w, weights, delta).expect("heuristic plan");
    let pruned = planner.stats().cost_bound_prunes - prunes_before;
    let considered = report.evaluations + pruned as usize;
    (report, considered)
}

/// `table4`: heuristic against exhaustive per weighting and width.
fn table4(planner: &mut Planner<'_>) -> Vec<Fields> {
    let weightings = [
        ("balanced", CostWeights::balanced()),
        ("time-heavy", CostWeights::time_heavy()),
        ("area-heavy", CostWeights::area_heavy()),
    ];
    let mut rows = Vec::new();
    for (label, weights) in weightings {
        for w in WIDTHS {
            let exh = planner.exhaustive(w, weights).expect("exhaustive plan");
            let (heur, considered) = heuristic(planner, w, weights, 0.0);
            let reduction = 100.0 * (exh.evaluations - considered) as f64 / exh.evaluations as f64;
            rows.push(vec![
                ("weights", label.into()),
                ("w_t_x100", x100(weights.time())),
                ("tam_width", w.into()),
                ("exhaustive_cost_x100", x100(exh.best.total_cost)),
                ("exhaustive_config", exh.best.config.to_string().into()),
                ("exhaustive_evaluations", exh.evaluations.into()),
                ("heuristic_cost_x100", x100(heur.best.total_cost)),
                ("heuristic_config", heur.best.config.to_string().into()),
                ("evaluations", heur.evaluations.into()),
                ("considered", considered.into()),
                ("reduction_x100", x100(reduction)),
            ]);
        }
    }
    rows
}

/// `table4_paper`: the published evaluation counts and reductions.
fn table4_paper() -> Vec<Fields> {
    let mut rows: Vec<Fields> =
        vec![vec![("search", "exhaustive".into()), ("n", msoc_bench::TABLE4_EXHAUSTIVE_N.into())]];
    for (n, reduction) in msoc_bench::TABLE4_HEURISTIC_N {
        rows.push(vec![
            ("search", "heuristic".into()),
            ("n", n.into()),
            ("reduction_x100", x100(reduction)),
        ]);
    }
    rows
}

/// `table4_delta_sweep`: relaxing the elimination threshold δ trades
/// evaluations for a guarantee of optimality.
fn delta_sweep(planner: &mut Planner<'_>) -> Vec<Fields> {
    let weights = CostWeights::balanced();
    let exh = planner.exhaustive(ABLATION_WIDTH, weights).expect("exhaustive plan");
    [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, f64::INFINITY]
        .into_iter()
        .map(|delta| {
            let (heur, considered) = heuristic(planner, ABLATION_WIDTH, weights, delta);
            let label = if delta.is_infinite() { "inf".into() } else { format!("{delta:.1}") };
            vec![
                ("delta", label.into()),
                ("evaluations", heur.evaluations.into()),
                ("considered", considered.into()),
                ("heuristic_config", heur.best.config.to_string().into()),
                ("heuristic_cost_x100", x100(heur.best.total_cost)),
                ("gap_to_optimal_x100", x100(heur.best.total_cost - exh.best.total_cost)),
            ]
        })
        .collect()
}

/// `table4_weight_sweep`: the exhaustive optimum over the whole `W_T`
/// range; time-heavy weights pick shallow sharing, area-heavy deep.
fn weight_sweep(planner: &mut Planner<'_>) -> Vec<Fields> {
    (0..=10u32)
        .map(|wt10| {
            let wt = f64::from(wt10) / 10.0;
            let exh = planner.exhaustive(ABLATION_WIDTH, CostWeights::new(wt, 1.0 - wt));
            let best = exh.expect("exhaustive plan").best;
            vec![
                ("w_t_x100", (wt10 * 10).into()),
                ("config", best.config.to_string().into()),
                ("cost_x100", x100(best.total_cost)),
                ("c_t_x100", x100(best.time_cost)),
                ("c_a_x100", x100(best.area_cost)),
            ]
        })
        .collect()
}

/// `fig4`: the modular pipelined ADC and modular DAC against their
/// monolithic flash and voltage-steering counterparts.
fn fig4() -> Vec<Fields> {
    [4u8, 6, 8, 10, 12]
        .into_iter()
        .map(|bits| {
            let flash = FlashAdc::new(bits, 0.0, 4.0).hardware_cost().comparators;
            let pipe = PipelinedAdc::new(bits, 0.0, 4.0).hardware_cost().comparators;
            let mono = VoltageSteeringDac::new(bits, 0.0, 4.0).hardware_cost().resistors;
            let modular = ModularDac::new(bits, 0.0, 4.0).hardware_cost().resistors;
            let mut row: Fields = vec![
                ("bits", u32::from(bits).into()),
                ("flash_comparators", flash.into()),
                ("pipelined_comparators", pipe.into()),
                ("comparator_saving_x100", x100(f64::from(flash) / f64::from(pipe))),
                ("monolithic_dac_resistors", mono.into()),
                ("modular_dac_resistors", modular.into()),
                ("resistor_saving_x100", x100(f64::from(mono) / f64::from(modular))),
            ];
            if bits == 8 {
                row.extend([
                    ("paper_flash_comparators", msoc_bench::FIG4_FLASH_COMPARATORS.into()),
                    ("paper_pipelined_comparators", msoc_bench::FIG4_MODULAR_COMPARATORS.into()),
                    ("paper_resistor_saving_x100", x100(msoc_bench::FIG4_RESISTOR_SAVING.into())),
                ]);
            }
            row
        })
        .collect()
}

/// `fig4_equivalence`: modularity costs no accuracy — the 8-bit flash and
/// pipelined ADCs convert a fine input sweep to the same codes.
fn fig4_equivalence() -> Fields {
    let flash = FlashAdc::new(8, 0.0, 4.0);
    let pipe = PipelinedAdc::new(8, 0.0, 4.0);
    let points = 10_001u32;
    let mismatches = (0..points)
        .filter(|&i| {
            let v = 4.0 * f64::from(i) / f64::from(points - 1);
            flash.convert(v) != pipe.convert(v)
        })
        .count();
    vec![("bits", 8u32.into()), ("points", points.into()), ("mismatches", mismatches.into())]
}

/// One Fig. 5 run: core A's cutoff test directly and through the wrapper.
/// Returns the `fig5` row and the `fig5_tones` rows.
///
/// The 0.5 µm-class converters carry comparator offsets in the pipelined
/// ADC's coarse stage (σ = 6 full-scale LSB, ~0.4 coarse-stage LSB) and
/// 4% element mismatch in the stimulus DAC, which is what produces the
/// paper-scale extraction error; ideal 8-bit quantization alone costs
/// almost nothing.
fn fig5(ideal: bool) -> (Fields, Vec<Fields>) {
    let converters = if ideal { "ideal" } else { "0.5um" };
    let mut datapath =
        WrapperDatapath::new(8, -SUPPLY_V / 2.0, SUPPLY_V / 2.0, SYSTEM_CLOCK_HZ, SAMPLE_RATE_HZ)
            .expect("valid Fig. 5 datapath");
    if !ideal {
        datapath = datapath.with_adc_offsets(6.0, 3).with_dac_mismatch(0.04, 93);
    }
    let fs = datapath.sample_rate_hz();

    // Three tones at 0.5 V each keep the multitone inside the converter
    // range with headroom, as the paper's stimulus does.
    let stimulus = MultiTone::equal_amplitude(&TONES_HZ, 0.5).generate(fs, N_SAMPLES);
    let mut direct_core = Biquad::butterworth_lowpass(CORE_FC_HZ, SYSTEM_CLOCK_HZ);
    let direct = datapath.apply_direct_block(&stimulus, |held| direct_core.process_in_place(held));
    let mut wrapped_core = Biquad::butterworth_lowpass(CORE_FC_HZ, SYSTEM_CLOCK_HZ);
    let wrapped = datapath.apply_block(&stimulus, |held| wrapped_core.process_in_place(held));

    // The three panels of Fig. 5, read at the stimulus tones.
    let [input, direct_out, wrapped_out] = [&stimulus, &direct, &wrapped.voltages]
        .map(|signal| amplitude_spectrum(signal, fs, Window::Hann));
    let tones = TONES_HZ
        .iter()
        .map(|&tone| {
            vec![
                ("converters", converters.into()),
                ("tone_hz", rounded(tone)),
                ("input_db_x100", x100(magnitude_db(input.amplitude_near(tone)))),
                ("direct_db_x100", x100(magnitude_db(direct_out.amplitude_near(tone)))),
                ("wrapped_db_x100", x100(magnitude_db(wrapped_out.amplitude_near(tone)))),
            ]
        })
        .collect();

    // Cutoff extraction from the tone gains (the paper's post-processing).
    let gains = |out: &[f64]| -> Vec<(f64, f64)> {
        TONES_HZ.iter().map(|&f| (f, tone_gain(&stimulus, out, fs, f))).collect()
    };
    let fc_direct = extract_cutoff(&gains(&direct), 2).expect("attenuated tones");
    let fc_wrapped = extract_cutoff(&gains(&wrapped.voltages), 2).expect("attenuated tones");
    let mut row: Fields = vec![
        ("converters", converters.into()),
        ("designed_fc_hz", rounded(CORE_FC_HZ)),
        ("sample_rate_hz", rounded(fs)),
        ("samples", N_SAMPLES.into()),
        ("fc_direct_hz", rounded(fc_direct)),
        ("fc_wrapped_hz", rounded(fc_wrapped)),
        ("error_x100", x100(100.0 * (fc_wrapped - fc_direct).abs() / fc_direct)),
    ];
    if !ideal {
        row.extend([
            ("paper_fc_direct_hz", rounded(msoc_bench::FIG5_FC_DIRECT_HZ)),
            ("paper_fc_wrapped_hz", rounded(msoc_bench::FIG5_FC_WRAPPED_HZ)),
            ("paper_error_x100", x100(msoc_bench::FIG5_ERROR_PERCENT)),
        ]);
    }
    (row, tones)
}

/// `ablation_buses`: Section 4 adopts flexible-width rectangle packing
/// over fixed TAM partitions because analog cores' small, rigid widths
/// waste the wires of a fixed bus. Compares the flexible schedule of the
/// Table 4 winner against its best equal-split schedule on up to 6 buses.
fn ablation_buses(soc: &MixedSignalSoc) -> Vec<Fields> {
    let mut planner = Planner::new(soc);
    let config = SharingConfig::new(5, vec![vec![0, 1, 4], vec![2, 3]]);
    [32u32, 48, 64]
        .into_iter()
        .map(|w| {
            let problem = planner.build_problem(&config, w);
            let flexible = schedule_with_effort(&problem, Effort::Standard).expect("flexible");
            let (partition, fixed) = best_fixed_bus_schedule(&problem, 6).expect("fixed buses");
            fixed.validate(&problem).expect("valid fixed-bus schedule");
            vec![
                ("config", config.to_string().into()),
                ("tam_width", w.into()),
                ("flexible_makespan", flexible.makespan().into()),
                ("fixed_makespan", fixed.makespan().into()),
                ("buses", format!("{:?}", partition.widths()).into()),
                ("penalty_x100", x100(fixed.makespan() as f64 / flexible.makespan() as f64)),
                ("flexible_utilization_percent_x100", x100(flexible.utilization() * 100.0)),
                ("fixed_utilization_percent_x100", x100(fixed.utilization() * 100.0)),
            ]
        })
        .collect()
}

/// `ablation_selftest`: the exhaustive optimum when every wrapper's
/// self-test session (the time the paper leaves out) is scheduled too.
/// The loopback screen barely registers against ~1 M-cycle makespans; a
/// histogram BIST 32× as long moves the optimum toward deeper sharing.
fn ablation_selftest(soc: &MixedSignalSoc) -> Vec<Fields> {
    let opts = |self_test_cycles| PlannerOptions {
        effort: Effort::Standard,
        self_test_cycles,
        ..PlannerOptions::default()
    };
    let weights = CostWeights::balanced();
    let mut base = Planner::with_options(soc, opts(None));
    let session = SelfTestReport::session_cycles(8, 8);
    let mut rows = Vec::new();
    for (bist, cycles) in [("loopback screen", session), ("histogram BIST", session * 32)] {
        let mut with_bist = Planner::with_options(soc, opts(Some(cycles)));
        for w in [32u32, 48, 64] {
            let plain = base.exhaustive(w, weights).expect("plan").best;
            let tested = with_bist.exhaustive(w, weights).expect("plan").best;
            rows.push(vec![
                ("bist", bist.into()),
                ("cycles_per_wrapper", cycles.into()),
                ("tam_width", w.into()),
                ("config", plain.config.to_string().into()),
                ("makespan", plain.makespan.into()),
                ("bist_config", tested.config.to_string().into()),
                ("bist_makespan", tested.makespan.into()),
            ]);
        }
    }
    rows
}

fn main() {
    let soc = MixedSignalSoc::p93791m();
    let configs = enumerate_paper(soc.analog.len(), &soc.analog_equivalence_classes());
    let mut planner = Planner::with_options(
        &soc,
        PlannerOptions { effort: Effort::Thorough, ..PlannerOptions::default() },
    );
    let [table3, table3_columns, table3_engine] = table3(&mut planner);
    let (fig5_lossy, mut fig5_tones) = fig5(false);
    let (fig5_ideal, ideal_tones) = fig5(true);
    fig5_tones.extend(ideal_tones);

    let report: Fields = vec![
        ("benchmark", "p93791m".into()),
        ("table1", table1(&soc, &configs).into()),
        ("table1_beta_sweep", beta_sweep(&soc, &configs).into()),
        ("table2", table2().into()),
        ("table3", table3),
        ("table3_columns", table3_columns),
        ("table3_engine", table3_engine),
        ("table4", table4(&mut planner).into()),
        ("table4_paper", table4_paper().into()),
        ("table4_delta_sweep", delta_sweep(&mut planner).into()),
        ("table4_weight_sweep", weight_sweep(&mut planner).into()),
        ("fig4", fig4().into()),
        ("fig4_equivalence", fig4_equivalence().into()),
        ("fig5", vec![fig5_lossy, fig5_ideal].into()),
        ("fig5_tones", fig5_tones.into()),
        ("ablation_buses", ablation_buses(&soc).into()),
        ("ablation_selftest", ablation_selftest(&soc).into()),
    ];
    std::fs::write("PAPER_tables.json", render_report(&report)).expect("write PAPER_tables.json");
    println!("wrote PAPER_tables.json");
}
