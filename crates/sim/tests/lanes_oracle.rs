//! The lane backend must be *bit-identical* to the scalar backend — and
//! therefore to the interpreted oracle the scalar backend is already
//! pinned against — per batch entry. Every `f64` is compared with `==`,
//! not a tolerance, across the robot zoo, random robots, and batch sizes
//! 1..=8 (covering whole lane groups, scalar remainders, and mixes).
//! These tests must pass with and without `--features simd`.

use rand::{Rng, SeedableRng};
use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs, KernelKind};
use roboshape_robots::{random_robot, zoo, RandomRobotConfig, Zoo};
use roboshape_sim::{shared_program_for, BackendKind, SimScratch};

fn inputs(n: usize, rng: &mut rand::rngs::StdRng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        (0..n).map(|_| rng.gen_range(-1.2..1.2)).collect(),
        (0..n).map(|_| rng.gen_range(-0.8..0.8)).collect(),
        (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect(),
    )
}

fn random_knobs(n: usize, rng: &mut rand::rngs::StdRng) -> AcceleratorKnobs {
    AcceleratorKnobs::new(
        rng.gen_range(1..n + 1),
        rng.gen_range(1..n + 1),
        rng.gen_range(1..n + 1),
    )
}

#[test]
fn gradient_lanes_bit_identical_to_scalar_across_zoo() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6011);
    for which in Zoo::ALL {
        let robot = zoo(which);
        let n = robot.num_links();
        let design = AcceleratorDesign::generate(robot.topology(), random_knobs(n, &mut rng));
        let scalar = shared_program_for(&design, BackendKind::Scalar);
        let lanes = shared_program_for(&design, BackendKind::Lanes);
        let mut scratch_s = SimScratch::new();
        let mut scratch_l = SimScratch::new();
        for batch in 1..=8usize {
            let steps: Vec<_> = (0..batch).map(|_| inputs(n, &mut rng)).collect();
            let (ref_out, ref_mk) = scalar
                .execute_batch(&robot, &mut scratch_s, &steps)
                .unwrap();
            let (lane_out, lane_mk) = lanes.execute_batch(&robot, &mut scratch_l, &steps).unwrap();
            // Derived PartialEq compares every f64 of tau, ∂q̈/∂q,
            // ∂q̈/∂q̇, and the stats block exactly, per entry.
            assert_eq!(ref_out, lane_out, "{which:?} batch {batch}");
            assert_eq!(ref_mk, lane_mk, "{which:?} batch {batch} makespan");
        }
    }
}

#[test]
fn gradient_lanes_bit_identical_on_random_robots() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6012);
    for trial in 0..4 {
        let robot = random_robot(
            &mut rng,
            RandomRobotConfig {
                links: 3 + trial * 3,
                branch_prob: 0.35,
                new_limb_prob: 0.25,
                allow_prismatic: true,
            },
        );
        let n = robot.num_links();
        let design = AcceleratorDesign::generate(robot.topology(), random_knobs(n, &mut rng));
        let scalar = shared_program_for(&design, BackendKind::Scalar);
        let lanes = shared_program_for(&design, BackendKind::Lanes);
        let mut scratch_s = SimScratch::new();
        let mut scratch_l = SimScratch::new();
        for batch in [1, 3, 4, 5, 7, 8] {
            let steps: Vec<_> = (0..batch).map(|_| inputs(n, &mut rng)).collect();
            let (ref_out, _) = scalar
                .execute_batch(&robot, &mut scratch_s, &steps)
                .unwrap();
            let (lane_out, _) = lanes.execute_batch(&robot, &mut scratch_l, &steps).unwrap();
            assert_eq!(ref_out, lane_out, "random robot {trial} batch {batch}");
        }
    }
}

#[test]
fn inverse_dynamics_lanes_bit_identical_across_zoo() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(6013);
    for which in Zoo::ALL {
        let robot = zoo(which);
        let n = robot.num_links();
        let design = AcceleratorDesign::generate_for_kernel(
            robot.topology(),
            random_knobs(n, &mut rng),
            KernelKind::InverseDynamics,
        );
        let scalar = shared_program_for(&design, BackendKind::Scalar);
        let lanes = shared_program_for(&design, BackendKind::Lanes);
        let mut scratch_s = SimScratch::new();
        let mut scratch_l = SimScratch::new();
        for batch in 1..=8usize {
            let steps: Vec<_> = (0..batch).map(|_| inputs(n, &mut rng)).collect();
            let (ref_taus, ref_mk) = scalar
                .execute_inverse_dynamics_batch(&robot, &mut scratch_s, &steps)
                .unwrap();
            let (lane_taus, lane_mk) = lanes
                .execute_inverse_dynamics_batch(&robot, &mut scratch_l, &steps)
                .unwrap();
            assert_eq!(ref_taus, lane_taus, "{which:?} ID batch {batch}");
            assert_eq!(ref_mk, lane_mk, "{which:?} ID batch {batch} makespan");
        }
    }
}

#[test]
fn lane_groups_fall_back_to_scalar_errors_on_bad_input() {
    let robot = zoo(Zoo::Iiwa);
    let n = robot.num_links();
    let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::symmetric(2, 3));
    let scalar = shared_program_for(&design, BackendKind::Scalar);
    let lanes = shared_program_for(&design, BackendKind::Lanes);
    let mut scratch = SimScratch::new();
    let good = (vec![0.1; n], vec![0.0; n], vec![0.2; n]);
    let mut bad = good.clone();
    bad.0[1] = f64::NAN;
    // A full lane group with one poisoned entry: the group is re-run
    // through the scalar path, so the error is exactly the scalar
    // loop's first error.
    let steps = vec![good.clone(), good.clone(), bad, good];
    let lane_err = lanes
        .execute_batch(&robot, &mut scratch, &steps)
        .unwrap_err();
    let ref_err = scalar
        .execute_batch(&robot, &mut scratch, &steps)
        .unwrap_err();
    assert_eq!(format!("{lane_err:?}"), format!("{ref_err:?}"));
}
