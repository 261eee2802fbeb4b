//! The compiled fast path must be *bit-identical* to the schedule
//! interpreter it replaced — not merely close. Every `f64` out of
//! `try_simulate` / `try_simulate_batch` / the ID and FK kernels is
//! compared with `==` against the `*_interpreted` oracles across the
//! whole robot zoo, random knob settings, random inputs, and batch
//! sizes 1..4.

use rand::{Rng, SeedableRng};
use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs, KernelKind};
use roboshape_robots::{random_robot, zoo, RandomRobotConfig, Zoo};
use roboshape_sim::{
    try_simulate, try_simulate_batch, try_simulate_batch_interpreted, try_simulate_interpreted,
    try_simulate_inverse_dynamics, try_simulate_inverse_dynamics_interpreted,
    try_simulate_kinematics, try_simulate_kinematics_interpreted,
};

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
fn gradient_bit_identical_to_interpreter_across_zoo() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    for which in Zoo::ALL {
        let robot = zoo(which);
        let n = robot.num_links();
        for trial in 0..3 {
            let knobs = random_knobs(n, &mut rng);
            let design = AcceleratorDesign::generate(robot.topology(), knobs);
            let (q, qd, tau) = inputs(n, &mut rng);
            let compiled = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
            let oracle = try_simulate_interpreted(&robot, &design, &q, &qd, &tau).unwrap();
            // Derived PartialEq: every f64 of tau, ∂q̈/∂q, ∂q̈/∂q̇ and the
            // stats block compared exactly.
            assert_eq!(compiled, oracle, "{which:?} trial {trial} knobs {knobs:?}");
        }
    }
}

#[test]
fn gradient_bit_identical_on_random_robots() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for trial in 0..5 {
        let robot = random_robot(
            &mut rng,
            RandomRobotConfig {
                links: 3 + trial * 2,
                branch_prob: 0.35,
                new_limb_prob: 0.25,
                allow_prismatic: true,
            },
        );
        let n = robot.num_links();
        let design = AcceleratorDesign::generate(robot.topology(), random_knobs(n, &mut rng));
        let (q, qd, tau) = inputs(n, &mut rng);
        let compiled = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
        let oracle = try_simulate_interpreted(&robot, &design, &q, &qd, &tau).unwrap();
        assert_eq!(compiled, oracle, "random robot trial {trial}");
    }
}

#[test]
fn batches_bit_identical_for_sizes_one_to_four() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(90210);
    for which in Zoo::ALL {
        let robot = zoo(which);
        let n = robot.num_links();
        let design = AcceleratorDesign::generate(robot.topology(), random_knobs(n, &mut rng));
        for batch in 1..=4usize {
            let steps: Vec<_> = (0..batch).map(|_| inputs(n, &mut rng)).collect();
            let (compiled, makespan) = try_simulate_batch(&robot, &design, &steps).unwrap();
            let (oracle, oracle_makespan) =
                try_simulate_batch_interpreted(&robot, &design, &steps).unwrap();
            assert_eq!(compiled, oracle, "{which:?} batch {batch}");
            assert_eq!(
                makespan, oracle_makespan,
                "{which:?} batch {batch} makespan"
            );
        }
    }
}

#[test]
fn inverse_dynamics_bit_identical_across_zoo() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31337);
    for which in Zoo::ALL {
        let robot = zoo(which);
        let n = robot.num_links();
        let design = AcceleratorDesign::generate_for_kernel(
            robot.topology(),
            random_knobs(n, &mut rng),
            KernelKind::InverseDynamics,
        );
        let (q, qd, qdd) = inputs(n, &mut rng);
        let compiled = try_simulate_inverse_dynamics(&robot, &design, &q, &qd, &qdd).unwrap();
        let oracle =
            try_simulate_inverse_dynamics_interpreted(&robot, &design, &q, &qd, &qdd).unwrap();
        assert_eq!(compiled, oracle, "{which:?}");
    }
}

#[test]
fn forward_kinematics_bit_identical_across_zoo() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
    for which in Zoo::ALL {
        let robot = zoo(which);
        let n = robot.num_links();
        let design = AcceleratorDesign::generate_for_kernel(
            robot.topology(),
            random_knobs(n, &mut rng),
            KernelKind::ForwardKinematics,
        );
        let (q, _, _) = inputs(n, &mut rng);
        let compiled = try_simulate_kinematics(&robot, &design, &q).unwrap();
        let oracle = try_simulate_kinematics_interpreted(&robot, &design, &q).unwrap();
        assert_eq!(compiled, oracle, "{which:?}");
    }
}
