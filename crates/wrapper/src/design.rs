//! Wrapper scan-chain construction for a single core at a fixed TAM width.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use msoc_itc02::Module;

/// A wrapper design for one core at one TAM width.
///
/// Construction partitions the core's internal scan chains over the wrapper
/// chains with the LPT (longest processing time first) heuristic, then
/// water-fills functional input cells onto the scan-in side and output cells
/// onto the scan-out side. Bidirectional terminals contribute a cell to both
/// sides, as in the JETTA 2002 `Design_wrapper` algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrapperDesign {
    width: u32,
    /// `chain_assignment[c]` = wrapper-chain index of internal scan chain `c`.
    chain_assignment: Vec<usize>,
    /// Scan-in length per wrapper chain (scan bits + input/bidir cells).
    in_lengths: Vec<u64>,
    /// Scan-out length per wrapper chain (scan bits + output/bidir cells).
    out_lengths: Vec<u64>,
}

impl WrapperDesign {
    /// Designs a wrapper for `module` using `width` TAM wires.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`; a zero-width wrapper cannot transport data.
    pub fn design(module: &Module, width: u32) -> Self {
        assert!(width > 0, "wrapper width must be at least 1");
        let bins = width as usize;

        // LPT partition of internal scan chains over the wrapper chains.
        let mut chains: Vec<(u32, usize)> = module.scan_chains.iter().copied().zip(0..).collect();
        chains.sort_unstable_by_key(|&(len, idx)| (Reverse(len), idx));

        let mut scan_load = vec![0u64; bins];
        let mut chain_assignment = vec![0usize; module.scan_chains.len()];
        // Min-heap over (current load, bin index) for deterministic ties.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..bins).map(|b| Reverse((0, b))).collect();
        for (len, idx) in chains {
            let Reverse((load, bin)) = heap.pop().expect("heap has `width` bins");
            chain_assignment[idx] = bin;
            let new_load = load + u64::from(len);
            scan_load[bin] = new_load;
            heap.push(Reverse((new_load, bin)));
        }

        // Water-fill IO cells. Inputs and bidirs feed the scan-in side,
        // outputs and bidirs the scan-out side.
        let in_cells = u64::from(module.inputs) + u64::from(module.bidirs);
        let out_cells = u64::from(module.outputs) + u64::from(module.bidirs);
        let in_lengths = water_fill(&scan_load, in_cells);
        let out_lengths = water_fill(&scan_load, out_cells);

        WrapperDesign { width, chain_assignment, in_lengths, out_lengths }
    }

    /// TAM width this wrapper was designed for.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Wrapper-chain index assigned to each internal scan chain, in the
    /// order the chains appear in the module description.
    pub fn chain_assignment(&self) -> &[usize] {
        &self.chain_assignment
    }

    /// Longest scan-in path over all wrapper chains (`si`).
    pub fn scan_in_length(&self) -> u64 {
        self.in_lengths.iter().copied().max().unwrap_or(0)
    }

    /// Longest scan-out path over all wrapper chains (`so`).
    pub fn scan_out_length(&self) -> u64 {
        self.out_lengths.iter().copied().max().unwrap_or(0)
    }

    /// Test application time for one test of `patterns` patterns:
    /// `(1 + max(si, so)) · p + min(si, so)`.
    pub fn test_time(&self, patterns: u64) -> u64 {
        scan_test_time(self.scan_in_length(), self.scan_out_length(), patterns)
    }

    /// Total test time of all TAM-using tests of `module` through this
    /// wrapper (each test reuses the same wrapper chains).
    pub fn module_test_time(&self, module: &Module) -> u64 {
        module.tests.iter().filter(|t| t.tam_used).map(|t| self.test_time(t.patterns)).sum()
    }
}

/// Time of one test of `patterns` patterns through scan-in/scan-out paths
/// of `si`/`so` cells: `(1 + max(si, so)) · p + min(si, so)`.
pub(crate) fn scan_test_time(si: u64, so: u64, patterns: u64) -> u64 {
    (1 + si.max(so)) * patterns + si.min(so)
}

/// Distributes `cells` unit-length items over bins with initial loads
/// `base`, minimizing the maximum resulting load (water-filling), and
/// returns the resulting loads.
fn water_fill(base: &[u64], cells: u64) -> Vec<u64> {
    let mut loads = base.to_vec();
    if loads.is_empty() || cells == 0 {
        return loads;
    }
    // Fill the valleys level by level; O(n log n), exact.
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_unstable_by_key(|&i| loads[i]);
    let mut remaining = cells;
    let mut level = loads[order[0]];
    let mut k = 0usize; // number of bins currently at `level`
    while remaining > 0 {
        // Extend the plateau to include every bin at the current level.
        while k < order.len() && loads[order[k]] <= level {
            k += 1;
        }
        let next = if k < order.len() { loads[order[k]] } else { u64::MAX };
        let gap = next.saturating_sub(level);
        let capacity = gap.saturating_mul(k as u64);
        if capacity >= remaining {
            let per_bin = remaining / k as u64;
            let extra = (remaining % k as u64) as usize;
            for (j, &i) in order[..k].iter().enumerate() {
                loads[i] = level + per_bin + u64::from(j < extra);
            }
            remaining = 0;
        } else {
            for &i in &order[..k] {
                loads[i] = next;
            }
            remaining -= capacity;
            level = next;
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use msoc_itc02::{Module, ModuleTest};

    fn core(chains: Vec<u32>, inputs: u32, outputs: u32, patterns: u64) -> Module {
        Module::new_scan_core(1, inputs, outputs, 0, chains, patterns)
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_panics() {
        WrapperDesign::design(&core(vec![10], 1, 1, 1), 0);
    }

    #[test]
    fn single_wire_serializes_everything() {
        let m = core(vec![10, 20], 5, 7, 3);
        let d = WrapperDesign::design(&m, 1);
        assert_eq!(d.scan_in_length(), 35); // 30 scan + 5 inputs
        assert_eq!(d.scan_out_length(), 37); // 30 scan + 7 outputs
        assert_eq!(d.test_time(3), (1 + 37) * 3 + 35);
    }

    #[test]
    fn lpt_balances_two_bins() {
        // Chains 40,40,20 over 2 bins -> {40, 40+20} = max 60.
        let m = core(vec![40, 40, 20], 0, 0, 1);
        let d = WrapperDesign::design(&m, 2);
        assert_eq!(d.scan_in_length(), 60);
    }

    #[test]
    fn io_cells_fill_valleys_first() {
        // Scan loads {40, 60}; 25 input cells -> {40+22=62 vs level}:
        // water level: raise 40 to 60 (20 cells), 5 left -> 63/62.
        let m = core(vec![40, 60], 25, 0, 1);
        let d = WrapperDesign::design(&m, 2);
        assert_eq!(d.scan_in_length(), 63);
        // Outputs absent: scan-out is the bare scan partition.
        assert_eq!(d.scan_out_length(), 60);
    }

    #[test]
    fn bidirs_count_on_both_sides() {
        let mut m = core(vec![10], 0, 0, 1);
        m.bidirs = 4;
        let d = WrapperDesign::design(&m, 1);
        assert_eq!(d.scan_in_length(), 14);
        assert_eq!(d.scan_out_length(), 14);
    }

    #[test]
    fn combinational_core_is_io_only() {
        let m = core(vec![], 16, 8, 10);
        let d = WrapperDesign::design(&m, 4);
        assert_eq!(d.scan_in_length(), 4); // 16 inputs over 4 chains
        assert_eq!(d.scan_out_length(), 2);
        assert_eq!(d.test_time(10), (1 + 4) * 10 + 2);
    }

    #[test]
    fn width_beyond_items_saturates() {
        let m = core(vec![30, 20], 2, 2, 5);
        let wide = WrapperDesign::design(&m, 64);
        // Longest single chain dominates once each chain sits alone.
        assert_eq!(wide.scan_in_length(), 30);
        assert_eq!(wide.scan_out_length(), 30);
    }

    #[test]
    fn test_time_is_zero_for_zero_patterns() {
        let m = core(vec![10], 0, 0, 0);
        let d = WrapperDesign::design(&m, 1);
        assert_eq!(d.test_time(0), 10); // min(si,so) shift-out remains
    }

    #[test]
    fn module_test_time_sums_tam_tests_only() {
        let mut m = core(vec![10], 0, 0, 4);
        m.tests.push(ModuleTest::bist(1_000));
        m.tests.push(ModuleTest::scan(6));
        let d = WrapperDesign::design(&m, 1);
        assert_eq!(d.module_test_time(&m), d.test_time(4) + d.test_time(6));
    }

    #[test]
    fn chain_assignment_covers_all_chains() {
        let m = core(vec![9, 8, 7, 6, 5], 3, 3, 2);
        let d = WrapperDesign::design(&m, 3);
        assert_eq!(d.chain_assignment().len(), 5);
        assert!(d.chain_assignment().iter().all(|&b| b < 3));
    }

    #[test]
    fn water_fill_exact_levels() {
        fn sorted(mut v: Vec<u64>) -> Vec<u64> {
            v.sort_unstable();
            v
        }
        assert_eq!(sorted(water_fill(&[0, 0, 0], 7)), vec![2, 2, 3]);
        assert_eq!(sorted(water_fill(&[5, 1, 1], 2)), vec![2, 2, 5]);
        assert_eq!(sorted(water_fill(&[5, 1, 1], 9)), vec![5, 5, 6]);
        assert_eq!(water_fill(&[], 3), Vec::<u64>::new());
        // Conservation: cells are neither created nor destroyed.
        assert_eq!(water_fill(&[7, 3], 11).iter().sum::<u64>(), 21);
    }

    #[test]
    fn si_lower_bound_holds() {
        // si >= ceil((scan bits + inputs) / width) and >= longest chain.
        let m = core(vec![33, 21, 17, 9], 13, 0, 1);
        for w in 1..=8u32 {
            let d = WrapperDesign::design(&m, w);
            let total = 33 + 21 + 17 + 9 + 13u64;
            let lb = total.div_ceil(u64::from(w)).max(33);
            assert!(d.scan_in_length() >= lb, "w={w}");
        }
    }
}
