//! Numerical verification of swept design points.
//!
//! The knobs a sweep varies — PE counts and mat-mul block size — move
//! *latency*, never *math*: every design point of a robot must compute
//! the same dynamics gradient (up to the floating-point reassociation a
//! different block size implies). [`verify_frontier`] checks that by
//! running the compiled simulator at every given point and measuring the
//! worst divergence from the first point's result.
//!
//! The work is spread over a worker pool; each worker owns one
//! persistent [`SimScratch`] arena for its whole lifetime, so rebinding
//! between the frontier's programs (all the same robot, hence the same
//! dimension) reuses the buffers instead of reallocating per point.

use roboshape_arch::KernelKind;
use roboshape_obs as obs;
use roboshape_pipeline::Pipeline;
use roboshape_sim::{SimScratch, Simulation};
use roboshape_urdf::RobotModel;

use crate::pool::par_map;
use crate::sweep::{DesignPoint, OBS_CATEGORY};

const KERNEL: KernelKind = KernelKind::DynamicsGradient;

/// The result of numerically cross-checking a set of design points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierVerification {
    /// How many points were simulated.
    pub points: usize,
    /// Worst absolute element-wise divergence (τ, ∂q̈/∂q, ∂q̈/∂q̇) of any
    /// point from the first point's result. Knob settings that share a
    /// block size are bit-identical; different block sizes reassociate
    /// the `M⁻¹` multiply, so this stays near machine epsilon but need
    /// not be exactly zero.
    pub max_divergence: f64,
}

/// Maximum absolute element-wise difference between two simulations.
fn divergence(a: &Simulation, b: &Simulation) -> f64 {
    let tau = a
        .tau
        .iter()
        .zip(&b.tau)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    let dq = a.dqdd_dq.max_abs_diff(&b.dqdd_dq).unwrap_or(f64::INFINITY);
    let dqd = a
        .dqdd_dqd
        .max_abs_diff(&b.dqdd_dqd)
        .unwrap_or(f64::INFINITY);
    tau.max(dq).max(dqd)
}

/// Simulates the dynamics-gradient kernel at every design point (a
/// frontier, typically) and returns the worst divergence from the first
/// point's result on a fixed deterministic input.
///
/// Programs come from the pipeline's Programs stage, so a frontier whose
/// points were already compiled elsewhere verifies from warm artifacts.
/// Publishes the `dse.verify.points` counter.
///
/// # Panics
///
/// Panics if `model`'s topology does not match the one the points were
/// swept from, or if any point fails to simulate (both indicate caller
/// bugs, not data-dependent failures).
pub fn verify_frontier(
    pipeline: &Pipeline,
    model: &RobotModel,
    points: &[DesignPoint],
) -> FrontierVerification {
    let _span = obs::span(OBS_CATEGORY, "verify-frontier");
    if points.is_empty() {
        return FrontierVerification {
            points: 0,
            max_divergence: 0.0,
        };
    }
    let topo = model.topology();
    let n = topo.len();
    let q: Vec<f64> = (0..n).map(|i| 0.20 * (i as f64 + 1.0) / n as f64).collect();
    let qd: Vec<f64> = (0..n).map(|i| 0.05 * (i as f64 + 1.0) / n as f64).collect();
    let tau: Vec<f64> = (0..n).map(|i| 0.40 * (i as f64 + 1.0) / n as f64).collect();

    let reference = {
        let program = pipeline.compiled_program(topo, points[0].knobs(), KERNEL);
        let mut scratch = SimScratch::default();
        program
            .execute_gradient(model, &mut scratch, &q, &qd, &tau)
            .expect("frontier reference point must simulate")
    };

    // Point 0 is the reference itself: divergence 0 by construction. One
    // persistent arena per worker: every point shares the robot's
    // dimension, so rebinding to the next point's program reuses the
    // buffers as-is.
    let max_divergence = par_map(points.len() - 1, SimScratch::default, |scratch, i| {
        let program = pipeline.compiled_program(topo, points[i + 1].knobs(), KERNEL);
        let sim = program
            .execute_gradient(model, scratch, &q, &qd, &tau)
            .expect("frontier point must simulate");
        divergence(&sim, &reference)
    })
    .results
    .into_iter()
    .fold(0.0f64, f64::max);
    obs::metrics()
        .counter("dse.verify.points")
        .add(points.len() as u64);
    FrontierVerification {
        points: points.len(),
        max_divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{pareto_frontier, sweep_design_space_with};
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn frontier_points_agree_numerically() {
        let robot = zoo(Zoo::Iiwa);
        let pipeline = Pipeline::new();
        let points = sweep_design_space_with(&pipeline, robot.topology());
        let frontier = pareto_frontier(&points);
        assert!(frontier.len() > 1, "need a non-trivial frontier");
        let v = verify_frontier(&pipeline, &robot, &frontier);
        assert_eq!(v.points, frontier.len());
        // Latency knobs never change the math; block-size reassociation
        // stays within a few ulps.
        assert!(
            v.max_divergence < 1e-12,
            "frontier diverges: {}",
            v.max_divergence
        );
    }

    #[test]
    fn empty_frontier_is_trivially_verified() {
        let robot = zoo(Zoo::Iiwa);
        let v = verify_frontier(&Pipeline::new(), &robot, &[]);
        assert_eq!(v.points, 0);
        assert_eq!(v.max_divergence, 0.0);
    }

    #[test]
    fn same_block_points_are_bit_identical() {
        // pe_fwd / pe_bwd change only the schedule's cycle placement —
        // with the block size pinned, results must match bit-for-bit.
        let robot = zoo(Zoo::Jaco2);
        let pipeline = Pipeline::new();
        let points = sweep_design_space_with(&pipeline, robot.topology());
        let same_block: Vec<DesignPoint> = points.into_iter().filter(|p| p.block == 2).collect();
        assert!(!same_block.is_empty());
        let v = verify_frontier(&pipeline, &robot, &same_block);
        assert_eq!(v.max_divergence, 0.0, "PE knobs changed the math");
    }
}
