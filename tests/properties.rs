//! Property-based tests on the workspace's core invariants.

use proptest::prelude::*;

use msoc::core::cost::{analog_time_bound, area_cost, shared_time_bound};
use msoc::core::partition::enumerate_bell;
use msoc::itc02::ModuleTest;
use msoc::prelude::*;
use msoc::tam::{
    bounds, schedule_with_effort, schedule_with_engine, Effort, Engine, JobKind, PackSession,
    ScheduleProblem, TestJob,
};
use msoc::wrapper::{StaircasePoint, StaircaseScan};

/// Strategy: a plausible scan core.
fn arb_module() -> impl Strategy<Value = Module> {
    (1u32..=200, 1u32..=200, 0u32..=20, prop::collection::vec(1u32..=400, 0..=10), 1u64..=300)
        .prop_map(|(inputs, outputs, bidirs, chains, patterns)| {
            Module::new_scan_core(1, inputs, outputs, bidirs, chains, patterns)
        })
}

/// The staircase loop before the floor exit: designs every width.
fn full_scan_staircase(m: &Module, max_w: u32) -> Vec<StaircasePoint> {
    let mut points = Vec::new();
    let mut best = u64::MAX;
    for w in 1..=max_w {
        let t = WrapperDesign::design(m, w).module_test_time(m);
        if t < best {
            best = t;
            points.push(StaircasePoint { width: w, time: t });
        }
    }
    points
}

/// `for_module` equals the full scan at every `max_w` in `1..=128`. The
/// full scan over `1..=max_w` is the prefix of the scan over `1..=128`
/// up to `max_w`, so one scan serves every bound.
fn assert_floor_exit_matches_full_scan(m: &Module) {
    let full = full_scan_staircase(m, 128);
    for max_w in 1..=128 {
        let expected: Vec<_> = full.iter().copied().filter(|p| p.width <= max_w).collect();
        assert_eq!(Staircase::for_module(m, max_w).points(), expected, "{m:?} at {max_w}");
    }
}

/// The floor rule's edge modules, exhaustively over a small grid: no scan
/// chains (or only empty ones), only BIST tests (floor 0), zero-pattern
/// tests, bidir-only and one-sided I/O, and pattern counts small enough
/// that a step lands next to the floor.
#[test]
fn staircase_floor_exit_matches_the_full_scan_on_edge_modules() {
    let chain_sets: [&[u32]; 4] = [&[], &[0], &[3], &[2, 5]];
    let test_sets: [&[ModuleTest]; 7] = [
        &[],
        &[ModuleTest::scan(0)],
        &[ModuleTest::scan(1)],
        &[ModuleTest::scan(2)],
        &[ModuleTest::bist(5)],
        &[ModuleTest::scan(1), ModuleTest::scan(0)],
        &[ModuleTest::scan(3), ModuleTest::bist(2)],
    ];
    for chains in chain_sets {
        for (inputs, outputs, bidirs) in [0, 1, 3]
            .into_iter()
            .flat_map(|i| [0, 1, 3].map(|o| (i, o)))
            .flat_map(|(i, o)| [0, 2].map(|b| (i, o, b)))
        {
            for tests in test_sets {
                let mut m = Module::new_scan_core(1, inputs, outputs, bidirs, chains.to_vec(), 1);
                m.tests = tests.to_vec();
                assert_floor_exit_matches_full_scan(&m);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn staircase_floor_exit_matches_the_full_scan(m in arb_module()) {
        assert_floor_exit_matches_full_scan(&m);
    }

    #[test]
    fn staircase_scan_truncations_match_for_module_in_any_request_order(
        m in arb_module(),
        widths in prop::collection::vec(1u32..=160, 1..=12),
    ) {
        // A memoised scan serves each request by extending and truncating;
        // every width asked so far must still truncate exactly.
        let mut scan = StaircaseScan::new(&m);
        for (i, &w) in widths.iter().enumerate() {
            scan.extend_to(&m, w);
            for &seen in &widths[..=i] {
                prop_assert_eq!(scan.truncated(seen), Staircase::for_module(&m, seen));
            }
        }
        // Never scanned past the floor: no more points than the full
        // staircase holds.
        let full = Staircase::for_module(&m, 160);
        prop_assert!(scan.points().len() <= full.points().len());
    }

    #[test]
    fn wrapper_design_respects_packing_bounds(m in arb_module(), width in 1u32..=32) {
        let d = WrapperDesign::design(&m, width);
        let scan: u64 = m.scan_bits();
        let in_cells = u64::from(m.inputs) + u64::from(m.bidirs);
        let longest = m.scan_chains.iter().copied().max().unwrap_or(0);
        // si is at least the perfectly balanced load and the longest chain.
        let lb = (scan + in_cells).div_ceil(u64::from(width)).max(u64::from(longest));
        prop_assert!(d.scan_in_length() >= lb);
        // And at most everything serialized on one wire.
        prop_assert!(d.scan_in_length() <= scan + in_cells);
    }

    #[test]
    fn staircase_is_strictly_monotone(m in arb_module(), max_w in 1u32..=32) {
        let s = Staircase::for_module(&m, max_w);
        for pair in s.points().windows(2) {
            prop_assert!(pair[0].width < pair[1].width);
            prop_assert!(pair[0].time > pair[1].time);
        }
        // Widening never hurts.
        prop_assert!(s.time_at(max_w) <= s.time_at(1));
    }

    #[test]
    fn schedules_validate_and_respect_lower_bounds(
        jobs in prop::collection::vec(
            (1u32..=8, 1u64..=500, prop::option::of(0u32..4)),
            1..=24,
        ),
        tam_width in 8u32..=24,
    ) {
        let problem = ScheduleProblem {
            tam_width,
            jobs: jobs
                .into_iter()
                .enumerate()
                .map(|(i, (w, t, g))| TestJob {
                    label: format!("j{i}"),
                    staircase: Staircase::from_points(vec![StaircasePoint {
                        width: w,
                        time: t,
                    }]),
                    group: g,
                    kind: JobKind::Skeleton,
                })
                .collect(),
        };
        let s = schedule_with_effort(&problem, Effort::Quick).expect("feasible");
        prop_assert!(s.validate(&problem).is_ok(), "{:?}", s.validate(&problem));
        prop_assert!(s.makespan() >= bounds::lower_bound(&problem));
        // Serial upper bound: scheduling can never be worse than running
        // every job back to back.
        let serial: u64 = problem.jobs.iter().map(|j| j.staircase.min_time()).sum();
        prop_assert!(s.makespan() <= serial);
    }

    #[test]
    fn skyline_packer_matches_the_naive_reference(
        jobs in prop::collection::vec(
            // Multi-point staircases: width w at time t, or 2w at ~t/2,
            // plus an optional serialization group.
            (1u32..=6, 2u64..=400, prop::option::of(0u32..3), prop::option::of(0u32..2)),
            1..=20,
        ),
        tam_width in 8u32..=24,
        effort_pick in 0usize..2,
    ) {
        let problem = ScheduleProblem {
            tam_width,
            jobs: jobs
                .into_iter()
                .enumerate()
                .map(|(i, (w, t, g, wide))| {
                    let mut points = vec![StaircasePoint { width: w, time: t }];
                    if wide.is_some() {
                        points.push(StaircasePoint { width: w * 2, time: t.div_ceil(2) });
                    }
                    TestJob {
                        label: format!("j{i}"),
                        staircase: Staircase::from_points(points),
                        group: g,
                        kind: JobKind::Skeleton,
                    }
                })
                .collect(),
        };
        let effort = [Effort::Quick, Effort::Standard][effort_pick];
        let fast = schedule_with_engine(&problem, effort, Engine::Skyline).expect("feasible");
        let reference = schedule_with_engine(&problem, effort, Engine::Naive).expect("feasible");
        // The skyline packer must always emit a valid schedule and never
        // lose to the naive reference; the two engines share placement
        // policy (earliest feasible start), so they are in fact identical.
        prop_assert!(fast.validate(&problem).is_ok(), "{:?}", fast.validate(&problem));
        prop_assert!(fast.makespan() <= reference.makespan());
        prop_assert_eq!(fast, reference);
    }

    #[test]
    fn pack_sessions_are_bit_identical_to_from_scratch_packs(
        skeleton in prop::collection::vec(
            // Digital-like skeleton jobs: width w at time t, optionally a
            // second 2w point at ~t/2.
            (1u32..=5, 2u64..=400, prop::option::of(0u32..2)),
            1..=8,
        ),
        // Analog-like delta pool: every job carries its serialization
        // group under three candidate sharing configurations, so the
        // sweep re-packs an identical job set with varying grouping —
        // exactly the planner's candidate enumeration shape.
        pool in prop::collection::vec(
            (1u32..=4, 1u64..=200, 0u32..3, 0u32..3, 0u32..3),
            1..=6,
        ),
        tam_width in 6u32..=20,
    ) {
        let skeleton: Vec<TestJob> = skeleton
            .into_iter()
            .enumerate()
            .map(|(i, (w, t, wide))| {
                let mut points = vec![StaircasePoint { width: w, time: t }];
                if wide.is_some() {
                    points.push(StaircasePoint { width: w * 2, time: t.div_ceil(2) });
                }
                TestJob::new(format!("d{i}"), Staircase::from_points(points))
            })
            .collect();
        let candidates: Vec<Vec<TestJob>> = (0..3)
            .map(|c| {
                pool.iter()
                    .enumerate()
                    .map(|(i, &(w, t, g0, g1, g2))| {
                        let group = [g0, g1, g2][c];
                        TestJob::delta_in_group(
                            format!("a{i}"),
                            Staircase::from_points(vec![StaircasePoint { width: w, time: t }]),
                            group,
                        )
                    })
                    .collect()
            })
            .collect();
        // Roomy cap (prefix-trie restores), starved cap (permanent
        // eviction churn): both must match the from-scratch oracle bit for
        // bit.
        let sessions = [
            PackSession::new(tam_width, skeleton.clone(), Effort::Quick),
            PackSession::with_checkpoint_cap(tam_width, skeleton.clone(), Effort::Quick, 1),
        ];
        for session in &sessions {
            for delta in &candidates {
                let via_session = session.pack(delta).expect("feasible");
                let problem = session.key().problem_for(delta);
                let oracle =
                    schedule_with_engine(&problem, Effort::Quick, Engine::Naive).expect("feasible");
                prop_assert_eq!(&via_session, &oracle, "session diverged from the oracle");
                prop_assert!(via_session.validate(&problem).is_ok(),
                    "{:?}", via_session.validate(&problem));
            }
        }
        let stats = sessions[0].stats();
        prop_assert!(stats.skeleton_hits > 0,
            "candidates after the first must reuse checkpoints: {:?}", stats);
        prop_assert_eq!(stats.delta_packs, 3);
        prop_assert_eq!(stats.evictions, 0, "roomy cap must not evict");
    }

    #[test]
    fn plan_service_reuse_is_bit_identical_across_planner_instances(
        seed in 0u64..500,
        tam_width in 12u32..=24,
        config_pick in 0usize..52,
    ) {
        use msoc::core::{PlanService, PlannerOptions};
        use msoc::core::planner::Planner;
        use msoc::core::partition::SharingConfig;

        // A random mixed-signal SOC: synthetic digital part (kept small so
        // the property stays fast) plus the five paper analog cores.
        let digital = msoc::itc02::synth::random_soc(
            seed,
            msoc::itc02::synth::RandomSocParams { cores: 6, ..Default::default() },
        );
        let soc = MixedSignalSoc::new(format!("fleet{seed}"), digital, paper_cores());
        let opts = || PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
        let classes: Vec<usize> = (0..5).collect();
        let all = enumerate_bell(5, &classes);
        let config = all[config_pick % all.len()].clone();
        let baseline = SharingConfig::all_shared(5);

        // From-scratch reference.
        let mut fresh = Planner::with_options(&soc, opts());
        let scratch = fresh.schedule_for(&config, tam_width).expect("feasible").clone();

        // Cold service planner, then a *second* planner instance on the
        // same (now warm) service: both must serve the identical schedule.
        let service = PlanService::new();
        let mut cold = Planner::with_service(&soc, opts(), &service);
        cold.schedule_batch(&[baseline.clone(), config.clone()], tam_width).expect("feasible");
        let via_cold = cold.schedule_for(&config, tam_width).expect("cached").clone();
        prop_assert_eq!(&via_cold, &scratch, "cold service diverged from scratch");

        let mut warm = Planner::with_service(&soc, opts(), &service);
        let via_warm = warm.schedule_for(&config, tam_width).expect("warm").clone();
        prop_assert_eq!(&via_warm, &scratch, "warm service diverged from scratch");

        let stats = service.stats();
        prop_assert!(stats.session_hits >= 1, "warm planner must reuse the session: {:?}", stats);
        prop_assert!(stats.schedule_hits >= 1, "warm pack must hit the memo: {:?}", stats);
    }

    #[test]
    fn plan_table_matches_the_unpruned_nested_loop(
        seed in 0u64..500,
        width_pick in 0usize..4,
        config_picks in prop::collection::vec(0usize..52, 3..=5),
    ) {
        use msoc::core::partition::SharingConfig;
        use msoc::core::planner::Planner;
        use msoc::core::{PlannerOptions, CostWeights};

        // A random mixed-signal SOC (small digital part, paper analog
        // cores) and a random ascending width set; candidate configs are
        // random Bell-enumeration picks plus the all-share baseline.
        let digital = msoc::itc02::synth::random_soc(
            seed,
            msoc::itc02::synth::RandomSocParams { cores: 6, ..Default::default() },
        );
        let soc = MixedSignalSoc::new(format!("table{seed}"), digital, paper_cores());
        let widths: &[u32] = [&[12, 24][..], &[16, 20, 28][..], &[12, 16, 24][..], &[20, 32][..]]
            [width_pick];
        let classes: Vec<usize> = (0..5).collect();
        let all = enumerate_bell(5, &classes);
        let mut configs: Vec<SharingConfig> = vec![SharingConfig::all_shared(5)];
        for pick in config_picks {
            let c = all[pick % all.len()].clone();
            if !configs.contains(&c) {
                configs.push(c);
            }
        }

        let opts = || PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
        let mut table_planner = Planner::with_options(&soc, opts());
        let report = table_planner
            .plan_table(&configs, widths, CostWeights::balanced())
            .expect("table is feasible");

        // Brute force: every cell's problem packed from scratch by the
        // naive oracle, no pruning anywhere; winner by (makespan, config
        // order, width order).
        let mut reference = Planner::with_options(&soc, opts());
        let mut best: Option<(usize, usize, u64)> = None;
        for (ci, config) in configs.iter().enumerate() {
            for (wi, &w) in widths.iter().enumerate() {
                let problem = reference.build_problem(config, w);
                let m = schedule_with_engine(&problem, Effort::Quick, Engine::Naive)
                    .expect("cell is feasible")
                    .makespan();
                if let Some(packed) = report.makespan(ci, wi) {
                    prop_assert_eq!(packed, m, "packed cell ({}, w={}) diverged", config, w);
                }
                if best.is_none_or(|(_, _, bm)| m < bm) {
                    best = Some((ci, wi, m));
                }
            }
        }
        let (ci, wi, m) = best.expect("non-empty matrix");
        prop_assert_eq!(&report.best.config, &configs[ci], "winner config diverged");
        prop_assert_eq!(report.winner_width, widths[wi], "winner width diverged");
        prop_assert_eq!(report.winner_makespan, m, "winner makespan diverged");
        let s = report.stats;
        prop_assert_eq!(
            s.packed + s.width_bound_prunes + s.cost_bound_prunes + s.cross_width_prunes,
            s.cells, "cell accounting leaks: {:?}", s);
    }

    #[test]
    fn interrupted_jobs_never_corrupt_the_service_caches(
        seed in 0u64..500,
        budget in 0u64..12,
        cancel_instead in 0u8..2,
        width_pick in 0usize..3,
    ) {
        use msoc::core::{CancelToken, Deadline, JobBuilder, JobOutcome, PlanService, PlannerOptions};

        // A random SOC, a table job interrupted after a random number of
        // deterministic progress checks (or pre-cancelled): the same job
        // resubmitted without interruption must be bit-identical to a
        // cold service's run — partial state in the caches is only ever
        // whole, valid packs.
        let digital = msoc::itc02::synth::random_soc(
            seed,
            msoc::itc02::synth::RandomSocParams { cores: 6, ..Default::default() },
        );
        let soc = MixedSignalSoc::new(format!("intr{seed}"), digital, paper_cores());
        let widths = [&[16, 24][..], &[12, 20][..], &[16, 28][..]][width_pick].to_vec();
        let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };

        let service = PlanService::new();
        let mut interrupted = JobBuilder::new(soc.clone())
            .table(widths.clone())
            .opts(opts.clone());
        let token = CancelToken::new();
        if cancel_instead == 1 {
            token.cancel();
            interrupted = interrupted.cancel_token(&token);
        } else {
            interrupted = interrupted.deadline(Deadline::checks(budget));
        }
        let job = interrupted.build().expect("valid job");
        match service.submit(std::slice::from_ref(&job)).pop().expect("one outcome") {
            JobOutcome::Cancelled | JobOutcome::DeadlineExceeded { .. } => {}
            // A generous budget may let the job finish — equally fine; the
            // cache-integrity comparison below still applies.
            JobOutcome::Completed(_) => {}
            JobOutcome::Rejected(e) => panic!("interrupted job was rejected: {e}"),
            JobOutcome::Failed { message } => panic!("interrupted job panicked: {message}"),
        }

        let full = JobBuilder::new(soc.clone()).table(widths).opts(opts).build().unwrap();
        let warm = service.submit(std::slice::from_ref(&full)).pop().unwrap();
        let cold = PlanService::new().submit(std::slice::from_ref(&full)).pop().unwrap();
        match (warm, cold) {
            (JobOutcome::Completed(w), JobOutcome::Completed(c)) => {
                prop_assert_eq!(
                    w.result.table().expect("table job"),
                    c.result.table().expect("table job"),
                    "interrupted partial state corrupted the caches"
                );
            }
            other => panic!("both full runs must complete: {other:?}"),
        }
    }

    #[test]
    fn concurrent_submits_are_bit_identical_to_serial_replay(
        seed in 0u64..200,
        fleet_size in 2usize..4,
        submitters in 2usize..4,
    ) {
        use msoc::core::{JobBuilder, PlanService, PlannerOptions};

        // Several OS threads race the *identical* job batch into one
        // sharded service. Every outcome must match a serial replay on a
        // fresh service bit for bit (the cache is an accelerator, never an
        // answer-changer), and the stats aggregated across shards must
        // stay coherent under the race.
        let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
        let params = msoc::itc02::synth::RandomSocParams { cores: 5, ..Default::default() };
        let jobs: Vec<_> = msoc::itc02::synth::random_fleet(seed, fleet_size, params)
            .into_iter()
            .enumerate()
            .map(|(i, digital)| {
                let soc = MixedSignalSoc::new(format!("{}m", digital.name), digital, paper_cores());
                JobBuilder::new(soc)
                    .single(12 + 4 * (i as u32 % 3))
                    .opts(opts.clone())
                    .build()
                    .unwrap()
            })
            .collect();

        // Serial oracle: a fresh service, one thread.
        let serial = PlanService::new().submit(&jobs);

        let service = PlanService::new();
        let concurrent: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..submitters).map(|_| scope.spawn(|| service.submit(&jobs))).collect();
            handles.into_iter().map(|h| h.join().expect("submitter must not panic")).collect()
        });
        for outcomes in &concurrent {
            for (got, want) in outcomes.iter().zip(&serial) {
                let (got, want) = (got.report().expect("plans"), want.report().expect("plans"));
                prop_assert_eq!(
                    got.result.plan().unwrap(),
                    want.result.plan().unwrap(),
                    "concurrent submit diverged from the serial replay"
                );
            }
        }

        // Stats coherence: hit/miss splits must account for every lookup,
        // and the per-shard view must sum to the service-wide aggregate.
        let stats = service.stats();
        prop_assert_eq!(
            stats.session_hits + stats.session_misses, stats.session_lookups,
            "session lookups leak: {:?}", stats
        );
        prop_assert_eq!(
            stats.schedule_hits + stats.schedule_misses, stats.schedule_lookups,
            "schedule lookups leak: {:?}", stats
        );
        let shards = service.shard_stats();
        prop_assert_eq!(
            shards.iter().map(|s| s.live_sessions).sum::<u64>(), stats.live_sessions,
            "shard live_sessions do not sum to the aggregate"
        );
        prop_assert_eq!(
            shards.iter().map(|s| s.cached_schedules).sum::<u64>(), stats.cached_schedules,
            "shard cached_schedules do not sum to the aggregate"
        );
        prop_assert_eq!(
            shards.iter().map(|s| s.session_lookups).sum::<u64>(), stats.session_lookups,
            "shard session_lookups do not sum to the aggregate"
        );
        prop_assert_eq!(
            stats.jobs_submitted, (submitters * jobs.len()) as u64,
            "every racing job must be counted exactly once"
        );
        // Identical batches racing: at most one miss per distinct SOC, the
        // rest of the lookups must hit.
        prop_assert!(
            stats.session_hits >= ((submitters - 1) * jobs.len()) as u64,
            "racing identical batches must reuse sessions: {:?}", stats
        );
    }

    #[test]
    fn snapshot_roundtrip_replays_a_random_fleet_bit_identically(
        seed in 0u64..500,
        fleet_size in 2usize..4,
    ) {
        use msoc::core::{JobBuilder, PlanService, PlannerOptions, ServiceSnapshot};

        // Plan a random fleet, snapshot, roundtrip through bytes, and
        // replay on the imported service: bit-identical results, zero
        // packs.
        let opts = PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() };
        let params = msoc::itc02::synth::RandomSocParams { cores: 5, ..Default::default() };
        let jobs: Vec<_> = msoc::itc02::synth::random_fleet(seed, fleet_size, params)
            .into_iter()
            .map(|digital| {
                let soc = MixedSignalSoc::new(format!("{}m", digital.name), digital, paper_cores());
                JobBuilder::new(soc).single(16).opts(opts.clone()).build().unwrap()
            })
            .collect();
        let service = PlanService::new();
        let baseline = service.submit(&jobs);
        let bytes = service.export_snapshot().to_bytes();
        let snapshot = ServiceSnapshot::from_bytes(&bytes).expect("own bytes decode");
        let imported = PlanService::from_snapshot(&snapshot).expect("own snapshot imports");
        let replay = imported.submit(&jobs);
        for (a, b) in baseline.iter().zip(&replay) {
            let (a, b) = (a.report().expect("fleet plans"), b.report().expect("fleet replays"));
            prop_assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
        }
        let stats = imported.stats();
        prop_assert_eq!(stats.schedule_misses, 0, "imported replay must not pack: {:?}", stats);
        prop_assert!(stats.schedule_hits > 0, "{:?}", stats);
        prop_assert_eq!(stats.sessions.import_dropped, 0,
            "a faithful snapshot drops no checkpoints: {:?}", stats);
        // Re-exporting the imported service reproduces the original bytes:
        // session order, schedule order, trie structure and LRU ranks all
        // survive the roundtrip.
        let again = PlanService::from_snapshot(&snapshot).expect("reimport");
        prop_assert_eq!(again.export_snapshot().to_bytes(), bytes,
            "export → import → export must be a byte fixed point");
    }

    #[test]
    fn checkpoint_roundtrip_restores_prefix_reuse_on_random_sessions(
        skeleton in prop::collection::vec(
            (1u32..=5, 2u64..=400, prop::option::of(0u32..2)),
            1..=8,
        ),
        pool in prop::collection::vec(
            (1u32..=4, 1u64..=200, 0u32..3, 0u32..3, 0u32..3),
            1..=6,
        ),
        tam_width in 6u32..=20,
        starved_pick in 0u32..2,
    ) {
        let starved = starved_pick == 1;
        // The same sweep shape as the session bit-identity property:
        // shared skeleton, three candidate groupings of one delta pool.
        let skeleton: Vec<TestJob> = skeleton
            .into_iter()
            .enumerate()
            .map(|(i, (w, t, wide))| {
                let mut points = vec![StaircasePoint { width: w, time: t }];
                if wide.is_some() {
                    points.push(StaircasePoint { width: w * 2, time: t.div_ceil(2) });
                }
                TestJob::new(format!("d{i}"), Staircase::from_points(points))
            })
            .collect();
        let candidates: Vec<Vec<TestJob>> = (0..3)
            .map(|c| {
                pool.iter()
                    .enumerate()
                    .map(|(i, &(w, t, g0, g1, g2))| {
                        let group = [g0, g1, g2][c];
                        TestJob::delta_in_group(
                            format!("a{i}"),
                            Staircase::from_points(vec![StaircasePoint { width: w, time: t }]),
                            group,
                        )
                    })
                    .collect()
            })
            .collect();
        // A starved checkpoint cap must still export and import cleanly —
        // it just carries fewer checkpoints.
        let session = |cap: Option<usize>| match cap {
            None => PackSession::new(tam_width, skeleton.clone(), Effort::Quick),
            Some(c) => {
                PackSession::with_checkpoint_cap(tam_width, skeleton.clone(), Effort::Quick, c)
            }
        };
        let cap = if starved { Some(2) } else { None };
        let warm = session(cap);
        let baselines: Vec<_> =
            candidates.iter().map(|d| warm.pack(d).expect("feasible")).collect();
        let export = warm.export_checkpoints().unwrap_or_default();
        if starved {
            prop_assert!(export.checkpoint_count() <= 2, "the cap bounds the export");
        }

        let restored = session(cap);
        let import = restored.import_checkpoints(&export);
        prop_assert_eq!(import.dropped, 0, "a faithful export drops nothing");
        prop_assert_eq!(import.restored as usize, export.checkpoint_count());

        // Replaying the warming sweep on the restored session is
        // bit-identical and re-packs zero skeleton orderings.
        let before = restored.stats();
        for (delta, baseline) in candidates.iter().zip(&baselines) {
            let replay = restored.pack(delta).expect("feasible");
            prop_assert_eq!(&replay, baseline, "imported replay diverged");
        }
        let after = restored.stats();
        // A starved cap re-packs evicted checkpoints (bit-identically);
        // the zero-rebuild guarantee is the roomy cap's.
        if !starved {
            prop_assert_eq!(after.skeleton_misses, before.skeleton_misses,
                "imported replay must not rebuild skeleton packs: {:?}", after);
            // If any delta-step checkpoint survived export, the replay
            // must restore past the skeleton at least once.
            let skeleton_len = skeleton.len() as u32;
            let has_delta_checkpoint =
                export.nodes.iter().any(|n| n.stored && n.job >= skeleton_len);
            if has_delta_checkpoint {
                prop_assert!(after.prefix_hits > before.prefix_hits,
                    "restored delta checkpoints must serve prefix restores: {:?}", after);
            }
        }
    }

    #[test]
    fn itc02_roundtrip_is_lossless(seed in 0u64..1000) {
        let soc = msoc::itc02::synth::random_soc(seed, Default::default());
        let text = soc.to_string();
        let reparsed: Soc = text.parse().expect("own output parses");
        prop_assert_eq!(soc, reparsed);
    }

    #[test]
    fn partitions_cover_every_core_exactly_once(n in 1usize..=6) {
        let classes: Vec<usize> = (0..n).collect();
        for config in enumerate_bell(n, &classes) {
            let mut seen = vec![false; n];
            for group in config.groups() {
                for &c in group {
                    prop_assert!(!seen[c], "core {} twice", c);
                    seen[c] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn area_cost_is_permutation_invariant_and_bounded(
        beta in 0.0f64..=0.5,
        group_pick in 0usize..52,
    ) {
        let cores = paper_cores();
        let model = AreaModel::paper_calibrated();
        let policy = SharingPolicy { beta, max_demand: None };
        let classes: Vec<usize> = (0..5).collect();
        let all = enumerate_bell(5, &classes);
        let config = &all[group_pick % all.len()];
        let c = area_cost(config, &cores, &model, &policy).expect("compatible");
        // Always positive; the no-sharing case is exactly 100.
        prop_assert!(c > 0.0);
        if !config.has_sharing() {
            prop_assert!((c - 100.0).abs() < 1e-9);
        }
        // With zero routing overhead, sharing can only shrink the area.
        if beta == 0.0 {
            prop_assert!(c <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn shared_bound_never_exceeds_full_bound(group_pick in 0usize..52) {
        let cores = paper_cores();
        let classes: Vec<usize> = (0..5).collect();
        let all = enumerate_bell(5, &classes);
        let config = &all[group_pick % all.len()];
        prop_assert!(shared_time_bound(config, &cores) <= analog_time_bound(config, &cores));
    }

    #[test]
    fn goertzel_matches_fft_on_bin_frequencies(
        k in 1usize..30,
        amp in 0.05f64..2.0,
    ) {
        use msoc::analog::dsp::goertzel::tone_amplitude;
        let n = 256;
        let fs = 256.0;
        let f = k as f64; // exact bin
        let x: Vec<f64> = (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * f * i as f64 / fs).cos())
            .collect();
        let a = tone_amplitude(&x, fs, f);
        prop_assert!((a - amp).abs() < 1e-9 * amp.max(1.0));
    }

    #[test]
    fn adc_dac_roundtrip_error_is_bounded_by_one_lsb(
        v in -2.0f64..2.0,
        bits in (1u8..=8).prop_map(|b| b * 2),
    ) {
        use msoc::analog::converter::{ModularDac, PipelinedAdc};
        let adc = PipelinedAdc::new(bits, -2.0, 2.0);
        let dac = ModularDac::new(bits, -2.0, 2.0);
        let out = dac.convert(adc.convert(v));
        prop_assert!((out - v).abs() <= adc.lsb() / 2.0 + 1e-12);
    }
}
