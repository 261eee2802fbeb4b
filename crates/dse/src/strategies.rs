//! Resource-allocation strategies (paper Fig. 13, Sec. 5.4 Insight #1).

use roboshape_arch::{AcceleratorKnobs, DseModel, Resources};
use roboshape_pipeline::Pipeline;
use roboshape_topology::Topology;

use crate::sweep::Makespans;

/// The PE-allocation strategies the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationStrategy {
    /// One PE pair per link — the naive parallelism of prior work
    /// (Robomorphic Computing).
    TotalLinks,
    /// `PEs = round(average leaf depth)` for both directions.
    AvgLeafDepth,
    /// `PEs = max leaf depth` for both directions.
    MaxLeafDepth,
    /// `PEs = max descendants` for both directions.
    MaxDescendants,
    /// Forward = max leaf depth, backward = max descendants — the paper's
    /// recommended heuristic.
    Hybrid,
    /// Exhaustive search: minimum latency, then fewest resources.
    OptimalMinLatency,
}

impl AllocationStrategy {
    /// All strategies in the paper's presentation order.
    pub const ALL: [AllocationStrategy; 6] = [
        AllocationStrategy::TotalLinks,
        AllocationStrategy::AvgLeafDepth,
        AllocationStrategy::MaxLeafDepth,
        AllocationStrategy::MaxDescendants,
        AllocationStrategy::Hybrid,
        AllocationStrategy::OptimalMinLatency,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AllocationStrategy::TotalLinks => "Total Links",
            AllocationStrategy::AvgLeafDepth => "Avg Leaf Depth",
            AllocationStrategy::MaxLeafDepth => "Max Leaf Depth",
            AllocationStrategy::MaxDescendants => "Max Descendants",
            AllocationStrategy::Hybrid => "Hybrid",
            AllocationStrategy::OptimalMinLatency => "Optimal Min Latency",
        }
    }
}

/// The evaluated outcome of one strategy on one robot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrategyOutcome {
    /// The strategy.
    pub strategy: AllocationStrategy,
    /// Chosen forward PEs.
    pub pe_fwd: usize,
    /// Chosen backward PEs.
    pub pe_bwd: usize,
    /// Traversal makespan at that allocation, cycles.
    pub latency_cycles: u64,
    /// PE-level resources (block size 1, isolating the PE allocation).
    pub resources: Resources,
    /// Whether the allocation achieves the robot's true minimum traversal
    /// latency (exhaustive reference).
    pub achieves_min_latency: bool,
}

/// Evaluates all six strategies on a robot (paper Fig. 13).
///
/// Latency is the traversal-schedule makespan (Sec. 5.4 studies the
/// traversal patterns; the blocked mat-mul is swept separately in
/// Fig. 15), and resources use the PE-level model at block size 1 so the
/// comparison isolates the PE allocation. Makespans go through the same
/// content-addressed fragment store as the design-space sweeps, so after
/// a sweep of the same robot the exhaustive reference here reads every
/// `(PEf, PEb)` latency from cache (and vice versa: a strategy evaluation
/// pre-warms the sweep).
pub fn evaluate_strategies_with(pipeline: &Pipeline, topo: &Topology) -> Vec<StrategyOutcome> {
    let n = topo.len();
    let metrics = topo.metrics();
    let makespans = Makespans::new(pipeline, topo);
    let latency = |pe_fwd: usize, pe_bwd: usize| makespans.get(pe_fwd, pe_bwd);

    // Exhaustive reference: minimum latency, then fewest resources.
    let mut min_latency = u64::MAX;
    let mut optimal = (n, n);
    let mut optimal_luts = f64::INFINITY;
    for pe_fwd in 1..=n {
        for pe_bwd in 1..=n {
            let l = latency(pe_fwd, pe_bwd);
            let r = DseModel.estimate(n, &AcceleratorKnobs::new(pe_fwd, pe_bwd, 1));
            if l < min_latency || (l == min_latency && r.luts < optimal_luts) {
                min_latency = l;
                optimal = (pe_fwd, pe_bwd);
                optimal_luts = r.luts;
            }
        }
    }

    let avg = (metrics.avg_leaf_depth.round() as usize).max(1);
    AllocationStrategy::ALL
        .iter()
        .map(|&strategy| {
            let (pe_fwd, pe_bwd) = match strategy {
                AllocationStrategy::TotalLinks => (n, n),
                AllocationStrategy::AvgLeafDepth => (avg, avg),
                AllocationStrategy::MaxLeafDepth => {
                    (metrics.max_leaf_depth, metrics.max_leaf_depth)
                }
                AllocationStrategy::MaxDescendants => {
                    (metrics.max_descendants, metrics.max_descendants)
                }
                AllocationStrategy::Hybrid => (metrics.max_leaf_depth, metrics.max_descendants),
                AllocationStrategy::OptimalMinLatency => optimal,
            };
            let l = latency(pe_fwd, pe_bwd);
            StrategyOutcome {
                strategy,
                pe_fwd,
                pe_bwd,
                latency_cycles: l,
                resources: DseModel.estimate(n, &AcceleratorKnobs::new(pe_fwd, pe_bwd, 1)),
                achieves_min_latency: l == min_latency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_robots::{zoo, Zoo};
    use std::collections::HashMap;

    fn outcomes(which: Zoo) -> HashMap<AllocationStrategy, StrategyOutcome> {
        evaluate_strategies_with(Pipeline::global(), zoo(which).topology())
            .into_iter()
            .map(|o| (o.strategy, o))
            .collect()
    }

    #[test]
    fn hybrid_always_achieves_minimum_latency() {
        // Paper Fig. 13: the Hybrid heuristic consistently meets minimum
        // latency on all six robots.
        for which in Zoo::ALL {
            let o = outcomes(which);
            assert!(
                o[&AllocationStrategy::Hybrid].achieves_min_latency,
                "{which:?}: hybrid missed min latency"
            );
        }
    }

    #[test]
    fn total_links_achieves_min_latency_with_most_resources() {
        // Paper: naive Total Links allocation reaches min latency but
        // "vastly over-provisions resources".
        for which in Zoo::ALL {
            let o = outcomes(which);
            let total = o[&AllocationStrategy::TotalLinks];
            let hybrid = o[&AllocationStrategy::Hybrid];
            assert!(total.achieves_min_latency, "{which:?}");
            assert!(
                total.resources.luts >= hybrid.resources.luts,
                "{which:?}: total links should not use fewer resources than hybrid"
            );
        }
        // Strict over-provisioning on the larger multi-limb robots.
        for which in [Zoo::Hyq, Zoo::Baxter, Zoo::HyqArm] {
            let o = outcomes(which);
            assert!(
                o[&AllocationStrategy::TotalLinks].resources.luts
                    > 1.2 * o[&AllocationStrategy::Hybrid].resources.luts,
                "{which:?}"
            );
        }
    }

    #[test]
    fn avg_leaf_depth_only_works_on_symmetric_unbranched_robots() {
        // Paper: avg-leaf-depth gives poor latency on all robots except
        // iiwa and HyQ (where it coincides with the max metrics).
        for which in [Zoo::Iiwa, Zoo::Hyq] {
            assert!(
                outcomes(which)[&AllocationStrategy::AvgLeafDepth].achieves_min_latency,
                "{which:?}"
            );
        }
        for which in [Zoo::Baxter, Zoo::Jaco2, Zoo::Jaco3, Zoo::HyqArm] {
            assert!(
                !outcomes(which)[&AllocationStrategy::AvgLeafDepth].achieves_min_latency,
                "{which:?}: avg leaf depth should underprovision"
            );
        }
    }

    #[test]
    fn max_leaf_depth_underprovisions_jaco_backward_traversal() {
        // Paper: for the finger-branching Jaco robots, max-leaf-depth
        // underprovisions the backward pass; max-descendants does well.
        for which in [Zoo::Jaco2, Zoo::Jaco3] {
            let o = outcomes(which);
            assert!(
                !o[&AllocationStrategy::MaxLeafDepth].achieves_min_latency,
                "{which:?}: max leaf depth should miss min latency"
            );
            assert!(
                o[&AllocationStrategy::MaxDescendants].achieves_min_latency,
                "{which:?}: max descendants should achieve min latency"
            );
        }
    }

    #[test]
    fn optimal_never_uses_more_resources_than_hybrid() {
        // Paper: for asymmetric robots the scheduler squeezes PEs below
        // the hybrid's metric upper bounds.
        for which in Zoo::ALL {
            let o = outcomes(which);
            let opt = o[&AllocationStrategy::OptimalMinLatency];
            let hyb = o[&AllocationStrategy::Hybrid];
            assert!(opt.achieves_min_latency, "{which:?}");
            assert!(
                opt.resources.luts <= hyb.resources.luts + 1e-9,
                "{which:?}: optimal should not exceed hybrid resources"
            );
        }
        // Strictly fewer on the asymmetric robots.
        for which in [Zoo::Baxter, Zoo::HyqArm] {
            let o = outcomes(which);
            assert!(
                o[&AllocationStrategy::OptimalMinLatency].resources.luts
                    < o[&AllocationStrategy::Hybrid].resources.luts,
                "{which:?}: optimal should squeeze below hybrid"
            );
        }
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(AllocationStrategy::ALL.len(), 6);
        assert_eq!(AllocationStrategy::Hybrid.name(), "Hybrid");
        assert_eq!(AllocationStrategy::TotalLinks.name(), "Total Links");
    }
}
