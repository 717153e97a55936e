//! Calibration checks: the synthetic p93791s SOC must schedule to the
//! published makespan scale of the real p93791 benchmark (see
//! `msoc_itc02::synth`),
//! because the paper's Table 3/4 shapes depend on the relative magnitude of
//! digital and analog test times.

use msoc_itc02::synth;
use msoc_tam::{bounds, schedule_with_effort, Effort, ScheduleProblem};

#[test]
fn p93791s_digital_makespans_match_published_scale() {
    let soc = synth::p93791s();
    // (width, published-scale band in cycles)
    let bands: [(u32, std::ops::Range<u64>); 4] = [
        (16, 1_700_000..2_300_000),
        (32, 900_000..1_200_000),
        (48, 600_000..800_000),
        (64, 460_000..620_000),
    ];
    for (w, band) in bands {
        let p = ScheduleProblem::from_soc(&soc, w);
        let s = schedule_with_effort(&p, Effort::Standard).expect("feasible");
        s.validate(&p).expect("valid schedule");
        assert!(
            band.contains(&s.makespan()),
            "W={w}: makespan {} outside calibration band {band:?}",
            s.makespan()
        );
    }
}

#[test]
fn p93791s_packing_is_tight() {
    let soc = synth::p93791s();
    for w in [24, 32, 56] {
        let p = ScheduleProblem::from_soc(&soc, w);
        let s = schedule_with_effort(&p, Effort::Standard).expect("feasible");
        let lb = bounds::lower_bound(&p);
        let ratio = s.makespan() as f64 / lb as f64;
        assert!(
            ratio < 1.20,
            "W={w}: makespan {} is {ratio:.3}x the lower bound {lb}",
            s.makespan()
        );
    }
}
