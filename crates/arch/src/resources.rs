//! FPGA resource models (LUTs, DSPs).
//!
//! Two models, for two different jobs (see DESIGN.md §4 for why the paper
//! itself must use two):
//!
//! * [`FullDesignModel`] — cost of a complete deployed design including
//!   the coprocessor shell, fitted *exactly* (3 equations, 3 unknowns per
//!   resource) to the paper's Table 2;
//! * [`DseModel`] — the PE-level cost used in the design-space studies of
//!   Figs. 12/13/15/16, whose constants are chosen to satisfy every shape
//!   constraint the paper reports (Fig. 12 LUT range, Fig. 16 platform
//!   feasibility including "no design point exists for HyQ+arm on the
//!   VC707").

use crate::AcceleratorKnobs;
use core::ops::Add;

/// An FPGA resource estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resources {
    /// Look-up tables.
    pub luts: f64,
    /// DSP blocks.
    pub dsps: f64,
}

impl Resources {
    /// Creates a resource pair.
    pub fn new(luts: f64, dsps: f64) -> Resources {
        Resources { luts, dsps }
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, o: Resources) -> Resources {
        Resources {
            luts: self.luts + o.luts,
            dsps: self.dsps + o.dsps,
        }
    }
}

/// Full-design resource model, exact on the paper's Table 2.
///
/// ```text
/// LUT = 42856.882·(PEf+PEb)/2 + 2704.741·blk² + 11717.362·N²/blk
/// DSP =   68.060·(PEf²+PEb²)/2 + 25.562·blk²  +  122.937·N
/// ```
///
/// Interpretation: per-PE datapath and control (DSP cost superlinear from
/// the input-marshalling crossbar), the `blk²` MAC array of the block
/// mat-mul stage, and per-design storage/marshalling that scales with the
/// number of block-schedule entries (`N²/blk`) and per-link state (`N`).
///
/// # Examples
///
/// ```
/// use roboshape_arch::{AcceleratorKnobs, FullDesignModel};
///
/// // Table 2, iiwa: PEs = 7, block = 7 → 514 552 LUTs, 5 448 DSPs.
/// let r = FullDesignModel.estimate(7, &AcceleratorKnobs::symmetric(7, 7));
/// assert!((r.luts - 514_552.0).abs() < 1.0);
/// assert!((r.dsps - 5_448.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FullDesignModel;

impl FullDesignModel {
    const LUT_PER_PE: f64 = 42_856.882_245_439_81;
    const LUT_PER_BLK2: f64 = 2_704.740_595_151_891_3;
    const LUT_PER_SCHED: f64 = 11_717.362_159_925_52;
    const DSP_PER_PE2: f64 = 68.059_687_295_642_35;
    const DSP_PER_BLK2: f64 = 25.561_500_505_320_73;
    const DSP_PER_LINK: f64 = 122.937_399_678_972_71;

    /// Estimates a full design's resources for an `n`-link robot.
    pub fn estimate(&self, n: usize, knobs: &AcceleratorKnobs) -> Resources {
        let nf = n as f64;
        let blk2 = (knobs.block_size * knobs.block_size) as f64;
        let pe_lin = (knobs.pe_fwd + knobs.pe_bwd) as f64 / 2.0;
        let pe_quad = (knobs.pe_fwd * knobs.pe_fwd + knobs.pe_bwd * knobs.pe_bwd) as f64 / 2.0;
        let sched = nf * nf / knobs.block_size as f64;
        Resources {
            luts: Self::LUT_PER_PE * pe_lin
                + Self::LUT_PER_BLK2 * blk2
                + Self::LUT_PER_SCHED * sched,
            dsps: Self::DSP_PER_PE2 * pe_quad + Self::DSP_PER_BLK2 * blk2 + Self::DSP_PER_LINK * nf,
        }
    }
}

/// PE-level resource model for design-space exploration.
///
/// ```text
/// LUT = 20000·(PEf+PEb) + 4000·blk² + 12000·N
/// DSP =   150·(PEf+PEb) +   30·blk² +    60·N
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DseModel;

impl DseModel {
    const LUT_PER_PE: f64 = 20_000.0;
    const LUT_PER_BLK2: f64 = 4_000.0;
    const LUT_PER_LINK: f64 = 12_000.0;
    const DSP_PER_PE: f64 = 150.0;
    const DSP_PER_BLK2: f64 = 30.0;
    const DSP_PER_LINK: f64 = 60.0;

    /// Estimates the PE-level resources of a design point.
    pub fn estimate(&self, n: usize, knobs: &AcceleratorKnobs) -> Resources {
        let nf = n as f64;
        let pe = (knobs.pe_fwd + knobs.pe_bwd) as f64;
        let blk2 = (knobs.block_size * knobs.block_size) as f64;
        Resources {
            luts: Self::LUT_PER_PE * pe + Self::LUT_PER_BLK2 * blk2 + Self::LUT_PER_LINK * nf,
            dsps: Self::DSP_PER_PE * pe + Self::DSP_PER_BLK2 * blk2 + Self::DSP_PER_LINK * nf,
        }
    }
}

/// Robomorphic Computing (RC) baseline resources for an `n`-link robot.
///
/// RC parallelizes naively: one PE pair per link and full-size matrix
/// hardware (`PEs = blk = N`), without RoboShape's topology-based reuse.
/// Its cost is the full-design model at that maximal point, scaled by the
/// published overhead deltas of Sec. 5.1 (RoboShape's generalization costs
/// +2.2% DSPs and −5.5% LUTs *relative to RC* on iiwa, so RC = RoboShape ×
/// 1.1256 LUTs × 0.9730 DSPs).
///
/// # Examples
///
/// ```
/// use roboshape_arch::{rc_resources, Platform};
///
/// // RC on iiwa: 49.0% LUTs, 77.5% DSPs of the XCVU9P (paper Sec. 5.1).
/// let rc = rc_resources(7);
/// let vcu = Platform::vcu118();
/// assert!((rc.luts / vcu.luts - 0.49).abs() < 0.005);
/// assert!((rc.dsps / vcu.dsps - 0.775).abs() < 0.005);
/// // RC cannot fit the 12-link HyQ: DSPs alone exceed the chip.
/// assert!(rc_resources(12).dsps > vcu.dsps);
/// ```
pub fn rc_resources(n: usize) -> Resources {
    let maximal = FullDesignModel.estimate(n, &AcceleratorKnobs::symmetric(n, n));
    Resources {
        luts: maximal.luts * 1.125_6,
        dsps: maximal.dsps * 0.973_0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_model_reproduces_table2_exactly() {
        // (robot, N, PEs, blk, LUTs, DSPs) from the paper's Table 2.
        let rows = [
            ("iiwa", 7, 7, 7, 514_552.0, 5_448.0),
            ("HyQ", 12, 3, 6, 507_158.0, 3_008.0),
            ("Baxter", 15, 4, 4, 873_805.0, 3_342.0),
        ];
        for (name, n, pes, blk, luts, dsps) in rows {
            let r = FullDesignModel.estimate(n, &AcceleratorKnobs::symmetric(pes, blk));
            assert!(
                (r.luts - luts).abs() < 1.0,
                "{name}: LUTs {} vs {luts}",
                r.luts
            );
            assert!(
                (r.dsps - dsps).abs() < 0.5,
                "{name}: DSPs {} vs {dsps}",
                r.dsps
            );
        }
    }

    #[test]
    fn table2_utilization_percentages() {
        // Cross-check the percentage view the paper prints: 43.5%/42.9%/73.9%
        // LUTs and 79.6%/44.0%/48.9% DSPs of the XCVU9P.
        let vcu = crate::Platform::vcu118();
        let configs = [
            (7, 7, 7, 0.435, 0.796),
            (12, 3, 6, 0.429, 0.440),
            (15, 4, 4, 0.739, 0.489),
        ];
        for (n, pes, blk, lut_pct, dsp_pct) in configs {
            let r = FullDesignModel.estimate(n, &AcceleratorKnobs::symmetric(pes, blk));
            assert!((r.luts / vcu.luts - lut_pct).abs() < 0.001);
            assert!((r.dsps / vcu.dsps - dsp_pct).abs() < 0.001);
        }
    }

    #[test]
    fn models_grow_monotonically_in_pe_knobs() {
        for model_is_full in [true, false] {
            let base = AcceleratorKnobs::new(2, 3, 2);
            let est = |k: &AcceleratorKnobs| {
                if model_is_full {
                    FullDesignModel.estimate(10, k)
                } else {
                    DseModel.estimate(10, k)
                }
            };
            let r0 = est(&base);
            for grown in [
                AcceleratorKnobs::new(3, 3, 2),
                AcceleratorKnobs::new(2, 4, 2),
            ] {
                let r = est(&grown);
                assert!(r.luts > r0.luts);
                assert!(r.dsps > r0.dsps);
            }
        }
    }

    #[test]
    fn block_size_trades_mac_array_for_schedule_storage() {
        // Larger blocks grow the MAC array (DSPs strictly up) but shrink
        // the block-schedule storage (N²/blk), so full-design LUTs can go
        // *down* — this non-monotonicity is the paper's block-size tradeoff.
        let small = FullDesignModel.estimate(12, &AcceleratorKnobs::new(2, 2, 2));
        let large = FullDesignModel.estimate(12, &AcceleratorKnobs::new(2, 2, 6));
        assert!(large.dsps > small.dsps);
        assert!(large.luts < small.luts, "{} vs {}", large.luts, small.luts);
        // The DSE model keeps both monotone in block size.
        let d_small = DseModel.estimate(12, &AcceleratorKnobs::new(2, 2, 2));
        let d_large = DseModel.estimate(12, &AcceleratorKnobs::new(2, 2, 6));
        assert!(d_large.luts > d_small.luts && d_large.dsps > d_small.dsps);
    }

    #[test]
    fn rc_cannot_scale_past_iiwa() {
        let vcu = crate::Platform::vcu118();
        assert!(rc_resources(7).dsps < vcu.dsps);
        for n in [12, 15, 19] {
            assert!(
                rc_resources(n).dsps > vcu.dsps,
                "RC for N={n} should not fit the XCVU9P"
            );
        }
    }

    #[test]
    fn dse_hyq_arm_is_infeasible_on_vc707() {
        // Paper Fig. 16: no design point within the VC707 constraints
        // exists for HyQ+arm (N = 19); the other robots have points.
        let vc707 = crate::Platform::vc707();
        let min_for = |n: usize| {
            let mut best = f64::INFINITY;
            for blk in 1..=n {
                let r = DseModel.estimate(n, &AcceleratorKnobs::new(1, 1, blk));
                best = best.min(r.luts / vc707.luts);
            }
            best
        };
        let threshold = crate::UTILIZATION_THRESHOLD;
        assert!(
            min_for(19) > threshold,
            "HyQ+arm min LUT share {}",
            min_for(19)
        );
        for n in [7, 10, 12, 15] {
            assert!(min_for(n) <= threshold, "N={n} should fit: {}", min_for(n));
        }
    }

    #[test]
    fn dse_ranges_match_fig12() {
        // Fig. 12: maximum LUTs per robot range from ~507k (smallest) to
        // ~2600k (largest) across the six robots.
        let max_for = |n: usize| {
            DseModel
                .estimate(n, &AcceleratorKnobs::symmetric(n, n))
                .luts
        };
        let iiwa_max = max_for(7);
        let hyqarm_max = max_for(19);
        assert!(
            (450_000.0..650_000.0).contains(&iiwa_max),
            "iiwa max {iiwa_max}"
        );
        assert!(
            (2_000_000.0..3_000_000.0).contains(&hyqarm_max),
            "HyQ+arm max {hyqarm_max}"
        );
    }

    #[test]
    fn resources_add() {
        let r = Resources::new(10.0, 2.0) + Resources::new(5.0, 1.0);
        assert_eq!(r.luts, 15.0);
        assert_eq!(r.dsps, 3.0);
    }
}
