//! Test-time versus TAM-width staircases and their Pareto points.

use msoc_itc02::Module;

use crate::design::{scan_test_time, WrapperDesign};

/// One Pareto-optimal `(width, time)` point of a core's staircase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaircasePoint {
    /// TAM width in wires.
    pub width: u32,
    /// Core test time in TAM clock cycles at this width.
    pub time: u64,
}

/// The Pareto-optimal test-time staircase of one core.
///
/// Digital core test time decreases step-wise with TAM width; the staircase
/// keeps only widths at which the (cumulative-minimum) test time actually
/// drops. The TAM scheduler picks one point per core.
///
/// # Examples
///
/// ```
/// use msoc_itc02::Module;
/// use msoc_wrapper::Staircase;
///
/// let m = Module::new_scan_core(1, 8, 8, 0, vec![30, 30, 30, 30], 20);
/// let s = Staircase::for_module(&m, 8);
/// assert_eq!(s.points().first().unwrap().width, 1);
/// // Width axis is strictly increasing, time strictly decreasing.
/// for pair in s.points().windows(2) {
///     assert!(pair[0].width < pair[1].width && pair[0].time > pair[1].time);
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Staircase {
    points: Vec<StaircasePoint>,
}

impl Staircase {
    /// Builds the staircase of `module` for widths `1..=max_width`.
    ///
    /// The time at width `w` is the cumulative minimum of the
    /// [`WrapperDesign`] test time over widths `1..=w`, which makes the
    /// staircase monotone even where the LPT heuristic is not.
    ///
    /// The scan stops at the first width whose time reaches the module's
    /// floor: `Σ (1 + max(si, so))·p + min(si, so)` over the TAM tests,
    /// with `si = max(longest chain, [inputs + bidirs > 0])` and
    /// `so = max(longest chain, [outputs + bidirs > 0])`. No wrapper of any
    /// width has shorter scan paths, so no wider point could join the
    /// staircase and the result equals the full scan. The floor is reached
    /// by width `chains + max(inputs, outputs) + bidirs` at the latest
    /// (every chain and cell then sits alone), so the loop designs at most
    /// that many wrappers, however large `max_width` is.
    ///
    /// # Panics
    ///
    /// Panics if `max_width == 0`.
    pub fn for_module(module: &Module, max_width: u32) -> Self {
        assert!(max_width > 0, "staircase needs at least width 1");
        let floor = time_floor(module);
        let mut points = Vec::new();
        let mut best = u64::MAX;
        for w in 1..=max_width {
            let t = WrapperDesign::design(module, w).module_test_time(module);
            if t < best {
                best = t;
                points.push(StaircasePoint { width: w, time: t });
            }
            if t <= floor {
                break;
            }
        }
        Staircase { points }
    }

    /// Builds a staircase from explicit points (used for analog cores whose
    /// time is width-independent and for tests).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, widths are not strictly increasing, or
    /// times are not strictly decreasing.
    pub fn from_points(points: Vec<StaircasePoint>) -> Self {
        assert!(!points.is_empty(), "a staircase needs at least one point");
        for pair in points.windows(2) {
            assert!(
                pair[0].width < pair[1].width && pair[0].time > pair[1].time,
                "staircase points must be strictly monotone"
            );
        }
        Staircase { points }
    }

    /// The Pareto points, ordered by increasing width.
    pub fn points(&self) -> &[StaircasePoint] {
        &self.points
    }

    /// Smallest width in the staircase (always ≥ 1).
    pub fn min_width(&self) -> u32 {
        self.points[0].width
    }

    /// Largest useful width: adding wires beyond this cannot reduce time.
    pub fn max_useful_width(&self) -> u32 {
        self.points.last().expect("staircase is non-empty").width
    }

    /// Best test time achievable with at most `width` wires.
    ///
    /// Returns `u64::MAX` when `width` is below the smallest staircase
    /// width, i.e. the core cannot be tested with that few wires.
    pub fn time_at(&self, width: u32) -> u64 {
        match self.points.binary_search_by_key(&width, |p| p.width) {
            Ok(i) => self.points[i].time,
            Err(0) => u64::MAX,
            Err(i) => self.points[i - 1].time,
        }
    }

    /// The widest point with `width ≤ limit`, if any.
    pub fn point_at(&self, limit: u32) -> Option<StaircasePoint> {
        match self.points.binary_search_by_key(&limit, |p| p.width) {
            Ok(i) => Some(self.points[i]),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1]),
        }
    }

    /// Minimum test time over the whole staircase (time at the widest point).
    pub fn min_time(&self) -> u64 {
        self.points.last().expect("staircase is non-empty").time
    }

    /// Test-data "area" lower bound: `min over points of width·time`.
    ///
    /// Any schedule must grant the core at least this many wire-cycles.
    pub fn area_lower_bound(&self) -> u64 {
        self.points
            .iter()
            .map(|p| u64::from(p.width) * p.time)
            .min()
            .expect("staircase is non-empty")
    }
}

/// The least test time any wrapper of `module` can reach (see
/// [`Staircase::for_module`]): every internal chain lies whole on one
/// wrapper chain, and a side with at least one cell is at least one long.
fn time_floor(module: &Module) -> u64 {
    let longest = u64::from(module.scan_chains.iter().copied().max().unwrap_or(0));
    let si = longest.max(u64::from(module.inputs > 0 || module.bidirs > 0));
    let so = longest.max(u64::from(module.outputs > 0 || module.bidirs > 0));
    module.tests.iter().filter(|t| t.tam_used).map(|t| scan_test_time(si, so, t.patterns)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_itc02::synth;

    fn stairs() -> Staircase {
        Staircase::from_points(vec![
            StaircasePoint { width: 2, time: 100 },
            StaircasePoint { width: 4, time: 60 },
            StaircasePoint { width: 7, time: 40 },
        ])
    }

    #[test]
    fn time_at_steps_between_points() {
        let s = stairs();
        assert_eq!(s.time_at(1), u64::MAX);
        assert_eq!(s.time_at(2), 100);
        assert_eq!(s.time_at(3), 100);
        assert_eq!(s.time_at(4), 60);
        assert_eq!(s.time_at(6), 60);
        assert_eq!(s.time_at(7), 40);
        assert_eq!(s.time_at(100), 40);
    }

    #[test]
    fn point_at_returns_widest_feasible() {
        let s = stairs();
        assert_eq!(s.point_at(1), None);
        assert_eq!(s.point_at(5).unwrap().width, 4);
    }

    #[test]
    fn extremes_are_exposed() {
        let s = stairs();
        assert_eq!(s.min_width(), 2);
        assert_eq!(s.max_useful_width(), 7);
        assert_eq!(s.min_time(), 40);
        assert_eq!(s.area_lower_bound(), 200); // min over 2x100, 4x70, 7x40
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_points_rejected() {
        Staircase::from_points(vec![
            StaircasePoint { width: 1, time: 10 },
            StaircasePoint { width: 2, time: 10 },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_points_rejected() {
        Staircase::from_points(vec![]);
    }

    #[test]
    fn staircase_of_real_core_is_monotone_and_saturates() {
        let soc = synth::d695s();
        for core in soc.cores() {
            let s = Staircase::for_module(core, 32);
            for pair in s.points().windows(2) {
                assert!(pair[0].time > pair[1].time);
            }
            // Saturation: widening past the last point changes nothing.
            assert_eq!(s.time_at(32), s.min_time());
        }
    }

    #[test]
    fn big_core_calibration_band() {
        // The dominant p93791s core should bottom out near 0.46 M cycles —
        // the calibration target of `msoc_itc02::synth::p93791s`.
        let soc = synth::p93791s();
        let big = soc.module(6).unwrap();
        let s = Staircase::for_module(big, 64);
        let t = s.min_time();
        assert!((430_000..530_000).contains(&t), "dominant core floor {t} out of calibration band");
    }
}
