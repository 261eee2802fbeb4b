//! Resource-constrained design selection (paper Fig. 16, Sec. 5.5
//! Insight #3: topology-based tuning beats maximum allocation).

use crate::{pareto_frontier, DesignPoint};
use roboshape_arch::{Platform, UTILIZATION_THRESHOLD};

/// The Fig. 16 comparison for one robot on one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedSelection {
    /// The platform.
    pub platform: Platform,
    /// The utilization threshold applied (fraction of total resources).
    pub threshold: f64,
    /// The maximally-allocated feasible point (largest PE + block sum,
    /// ties by LUTs), if any point fits at all.
    pub max_allocated: Option<DesignPoint>,
    /// The minimum-latency feasible point (ties by fewest LUTs).
    pub min_latency: Option<DesignPoint>,
}

impl ConstrainedSelection {
    /// `true` when no design point fits the platform (the paper's HyQ+arm
    /// on the VC707).
    pub fn is_infeasible(&self) -> bool {
        self.min_latency.is_none()
    }

    /// Latency penalty of maximal allocation over tuned selection,
    /// `max_alloc_cycles / min_latency_cycles` (≥ 1); `None` when
    /// infeasible.
    pub fn max_allocation_penalty(&self) -> Option<f64> {
        match (&self.max_allocated, &self.min_latency) {
            (Some(max), Some(min)) => Some(max.total_cycles as f64 / min.total_cycles as f64),
            _ => None,
        }
    }
}

/// Runs the Fig. 16 selection on a swept design space: thresholds the
/// points by the platform's resources (at [`UTILIZATION_THRESHOLD`]) and
/// picks the maximally-allocated and minimum-latency feasible points.
pub fn constrained_selection(points: &[DesignPoint], platform: Platform) -> ConstrainedSelection {
    let threshold = UTILIZATION_THRESHOLD;
    let feasible: Vec<&DesignPoint> = points
        .iter()
        .filter(|p| platform.fits(&p.resources, threshold))
        .collect();

    let max_allocated = feasible
        .iter()
        .max_by(|a, b| {
            let ka = a.pe_fwd + a.pe_bwd + a.block;
            let kb = b.pe_fwd + b.pe_bwd + b.block;
            ka.cmp(&kb).then(
                a.resources
                    .luts
                    .partial_cmp(&b.resources.luts)
                    .expect("finite"),
            )
        })
        .map(|p| **p);

    let min_latency = feasible
        .iter()
        .min_by(|a, b| {
            a.total_cycles.cmp(&b.total_cycles).then(
                a.resources
                    .luts
                    .partial_cmp(&b.resources.luts)
                    .expect("finite"),
            )
        })
        .map(|p| **p);

    // Sanity: the chosen min-latency point is on the feasible Pareto front.
    debug_assert!(
        min_latency.is_none() || {
            let feas: Vec<DesignPoint> = feasible.iter().map(|p| **p).collect();
            let front = pareto_frontier(&feas);
            front
                .iter()
                .any(|f| f.total_cycles == min_latency.expect("some").total_cycles)
        }
    );

    ConstrainedSelection {
        platform,
        threshold,
        max_allocated,
        min_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_design_space_with;
    use roboshape_pipeline::Pipeline;
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn hyq_arm_is_infeasible_on_vc707() {
        // Paper Fig. 16: "no design point within the VC707 constraints
        // exists for HyQ+arm".
        let pts = sweep_design_space_with(Pipeline::global(), zoo(Zoo::HyqArm).topology());
        let sel = constrained_selection(&pts, Platform::vc707());
        assert!(sel.is_infeasible());
        assert!(sel.max_allocated.is_none());
        assert!(sel.max_allocation_penalty().is_none());
    }

    #[test]
    fn other_robots_are_feasible_on_both_platforms() {
        for which in [Zoo::Iiwa, Zoo::Hyq, Zoo::Baxter, Zoo::Jaco2, Zoo::Jaco3] {
            let pts = sweep_design_space_with(Pipeline::global(), zoo(which).topology());
            for platform in Platform::all() {
                let sel = constrained_selection(&pts, platform);
                assert!(!sel.is_infeasible(), "{which:?} on {}", platform.name);
            }
        }
    }

    #[test]
    fn maximal_allocation_fails_to_match_min_latency() {
        // Paper Insight #3: "the latency of the maximally allocated design
        // point often fails to match the minimum latency possible; the
        // minimum latency design points do so by using fewer resources".
        let mut strictly_worse = 0;
        let mut robots_checked = 0;
        for which in [
            Zoo::Iiwa,
            Zoo::Hyq,
            Zoo::Baxter,
            Zoo::Jaco2,
            Zoo::Jaco3,
            Zoo::HyqArm,
        ] {
            let pts = sweep_design_space_with(Pipeline::global(), zoo(which).topology());
            for platform in Platform::all() {
                let sel = constrained_selection(&pts, platform);
                let (Some(max), Some(min)) = (sel.max_allocated, sel.min_latency) else {
                    continue;
                };
                robots_checked += 1;
                assert!(max.total_cycles >= min.total_cycles);
                assert!(min.resources.luts <= max.resources.luts + 1e-9);
                if max.total_cycles > min.total_cycles {
                    strictly_worse += 1;
                }
            }
        }
        assert!(robots_checked >= 10);
        assert!(
            strictly_worse * 2 > robots_checked,
            "maximal allocation should often be strictly slower ({strictly_worse}/{robots_checked})"
        );
    }

    #[test]
    fn vcu118_admits_larger_designs_than_vc707() {
        let pts = sweep_design_space_with(Pipeline::global(), zoo(Zoo::Baxter).topology());
        let big = constrained_selection(&pts, Platform::vcu118());
        let small = constrained_selection(&pts, Platform::vc707());
        let bmax = big.max_allocated.unwrap();
        let smax = small.max_allocated.unwrap();
        assert!(bmax.resources.luts > smax.resources.luts);
    }
}
