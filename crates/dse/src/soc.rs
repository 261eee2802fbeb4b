//! Multi-accelerator SoC co-design (extension of paper Secs. 3.3 / 5.3).
//!
//! The paper motivates "re-scal[ing] a design to fit within area limits
//! alongside other accelerators in a larger SoC" and "co-optimiz[ing]
//! accelerator sizes ... for the design of full robotics SoCs". This
//! module implements that co-design step: given the design spaces of
//! several accelerators that must share one platform, find per-accelerator
//! knob settings minimizing the worst latency subject to the combined
//! resource budget.
//!
//! Algorithm: the candidate set per accelerator is its Pareto frontier
//! (small — tens of points). For a latency bound `L`, the cheapest
//! feasible choice per accelerator is the frontier point with
//! `cycles ≤ L` minimizing normalized resource usage; binary-searching
//! `L` over the union of frontier latencies yields the minimal worst
//! latency whose cheapest assignment fits the budget. (With a
//! two-dimensional budget the per-robot scalarized choice is a
//! heuristic; the final assignment is always verified against both
//! budget dimensions.)

use crate::{pareto_frontier, DesignPoint};
use roboshape_arch::{Platform, Resources};

/// A co-designed SoC allocation: one design point per accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct SocAllocation {
    /// Chosen design point per accelerator, in input order.
    pub assignments: Vec<DesignPoint>,
    /// Combined resources.
    pub total: Resources,
    /// The worst (maximum) latency across the accelerators, cycles.
    pub worst_latency: u64,
}

/// Co-designs accelerators for several robots sharing `platform` at
/// utilization `threshold`. Returns `None` when even the cheapest
/// assignment does not fit.
///
/// # Panics
///
/// Panics if `spaces` is empty or any space is empty.
pub fn co_design(
    spaces: &[Vec<DesignPoint>],
    platform: Platform,
    threshold: f64,
) -> Option<SocAllocation> {
    assert!(!spaces.is_empty(), "need at least one accelerator");
    let frontiers: Vec<Vec<DesignPoint>> = spaces
        .iter()
        .map(|s| {
            assert!(!s.is_empty(), "empty design space");
            pareto_frontier(s)
        })
        .collect();

    // Candidate latency bounds: all frontier latencies, sorted.
    let mut bounds: Vec<u64> = frontiers
        .iter()
        .flat_map(|f| f.iter().map(|p| p.total_cycles))
        .collect();
    bounds.sort_unstable();
    bounds.dedup();

    let budget_luts = platform.luts * threshold;
    let budget_dsps = platform.dsps * threshold;
    let cost = |r: &Resources| r.luts / platform.luts + r.dsps / platform.dsps;

    let assignment_for = |bound: u64| -> Option<Vec<DesignPoint>> {
        let mut picks = Vec::with_capacity(frontiers.len());
        for f in &frontiers {
            let best = f
                .iter()
                .filter(|p| p.total_cycles <= bound)
                .min_by(|a, b| {
                    cost(&a.resources)
                        .partial_cmp(&cost(&b.resources))
                        .expect("finite resources")
                })?;
            picks.push(*best);
        }
        let total_luts: f64 = picks.iter().map(|p| p.resources.luts).sum();
        let total_dsps: f64 = picks.iter().map(|p| p.resources.dsps).sum();
        (total_luts <= budget_luts && total_dsps <= budget_dsps).then_some(picks)
    };

    // Binary search the smallest feasible bound.
    let feasible_at = |idx: usize| assignment_for(bounds[idx]).is_some();
    if !feasible_at(bounds.len() - 1) {
        return None;
    }
    let (mut lo, mut hi) = (0usize, bounds.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible_at(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let assignments = assignment_for(bounds[lo]).expect("feasible by search");
    let total = assignments
        .iter()
        .fold(Resources::default(), |acc, p| acc + p.resources);
    let worst_latency = assignments
        .iter()
        .map(|p| p.total_cycles)
        .max()
        .expect("nonempty");
    Some(SocAllocation {
        assignments,
        total,
        worst_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_design_space_with;
    use roboshape_arch::UTILIZATION_THRESHOLD;
    use roboshape_pipeline::Pipeline;
    use roboshape_robots::{zoo, Zoo};

    fn spaces(robots: &[Zoo]) -> Vec<Vec<DesignPoint>> {
        robots
            .iter()
            .map(|&z| sweep_design_space_with(Pipeline::global(), zoo(z).topology()))
            .collect()
    }

    #[test]
    fn three_paper_robots_share_the_vcu118() {
        // A full robotics SoC hosting all three implemented accelerators.
        let spaces = spaces(&[Zoo::Iiwa, Zoo::Hyq, Zoo::Baxter]);
        let alloc = co_design(&spaces, Platform::vcu118(), UTILIZATION_THRESHOLD)
            .expect("the three paper accelerators should co-exist");
        assert_eq!(alloc.assignments.len(), 3);
        assert!(alloc.total.luts <= Platform::vcu118().luts * UTILIZATION_THRESHOLD);
        assert!(alloc.total.dsps <= Platform::vcu118().dsps * UTILIZATION_THRESHOLD);
        assert_eq!(
            alloc.worst_latency,
            alloc
                .assignments
                .iter()
                .map(|p| p.total_cycles)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn co_design_is_infeasible_on_a_tiny_budget() {
        let spaces = spaces(&[Zoo::Baxter, Zoo::HyqArm]);
        // Two large robots cannot share the small VC707 (HyQ+arm alone is
        // infeasible there).
        assert!(co_design(&spaces, Platform::vc707(), UTILIZATION_THRESHOLD).is_none());
    }

    #[test]
    fn larger_budget_never_worsens_worst_latency() {
        let spaces = spaces(&[Zoo::Iiwa, Zoo::Hyq]);
        let small = co_design(&spaces, Platform::vc707(), UTILIZATION_THRESHOLD);
        let big = co_design(&spaces, Platform::vcu118(), UTILIZATION_THRESHOLD)
            .expect("VCU118 must fit what the VC707 fits");
        if let Some(small) = small {
            assert!(big.worst_latency <= small.worst_latency);
        }
    }

    #[test]
    fn sharing_forces_smaller_designs_than_solo_deployment() {
        // Alone, each accelerator could take the whole chip; sharing, the
        // co-designed assignments must each use less than the solo
        // min-latency point's resources or match its latency.
        let robots = [Zoo::Hyq, Zoo::Baxter];
        let spaces = spaces(&robots);
        let alloc = co_design(&spaces, Platform::vcu118(), UTILIZATION_THRESHOLD).unwrap();
        for (space, pick) in spaces.iter().zip(&alloc.assignments) {
            let solo_min = space.iter().map(|p| p.total_cycles).min().unwrap();
            assert!(pick.total_cycles >= solo_min);
        }
    }

    #[test]
    #[should_panic(expected = "at least one accelerator")]
    fn empty_input_panics() {
        co_design(&[], Platform::vcu118(), 0.8);
    }
}
