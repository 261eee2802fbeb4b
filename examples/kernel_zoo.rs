//! One framework, many kernels (paper Table 1 / Sec. 4).
//!
//! The paper's pitch is that topology patterns span "a broad class of
//! critical computations". This example generates accelerators for three
//! different Table 1 kernels on the same robot — forward kinematics,
//! inverse dynamics, and the full dynamics-gradient — simulates each, and
//! verifies their outputs against the reference library.
//!
//! Run with: `cargo run --release --example kernel_zoo`

use roboshape::{
    simulate, try_simulate_inverse_dynamics, try_simulate_kinematics, AcceleratorDesign,
    AcceleratorKnobs, Dynamics, KernelKind,
};
use roboshape_suite::prelude::*;

fn main() {
    let robot = zoo(Zoo::Jaco3);
    let n = robot.num_links();
    let m = robot.topology().metrics();
    let knobs = AcceleratorKnobs::new(m.max_leaf_depth, m.max_descendants, 3);
    let dynamics = Dynamics::new(&robot);
    println!(
        "robot: {} ({} links), knobs PEs=({},{})",
        robot.name(),
        n,
        knobs.pe_fwd,
        knobs.pe_bwd
    );

    let q: Vec<f64> = (0..n).map(|i| 0.3 * ((i as f64) * 0.8).sin()).collect();
    let qd: Vec<f64> = (0..n).map(|i| 0.2 - 0.02 * i as f64).collect();
    let qdd = vec![0.15; n];
    let tau: Vec<f64> = (0..n).map(|i| 0.5 * ((i % 3) as f64 - 1.0)).collect();

    // --- Kernel 1: forward kinematics (one forward traversal).
    let fk_design = AcceleratorDesign::generate_for_kernel(
        robot.topology(),
        knobs,
        KernelKind::ForwardKinematics,
    );
    let (poses, fk_stats) =
        try_simulate_kinematics(&robot, &fk_design, &q).expect("forward kinematics simulates");
    let reference_fk = dynamics.forward_kinematics(&q);
    let fk_err = poses
        .iter()
        .zip(&reference_fk.x_base)
        .map(|(a, b)| a.to_mat6().distance(&b.to_mat6()))
        .fold(0.0f64, f64::max);
    println!(
        "forward kinematics:  {:>4} tasks, {:>4} cycles, pose error {fk_err:.1e}",
        fk_stats.tasks_executed, fk_stats.cycles
    );

    // --- Kernel 2: inverse dynamics (forward + backward traversal).
    let id_design = AcceleratorDesign::generate_for_kernel(
        robot.topology(),
        knobs,
        KernelKind::InverseDynamics,
    );
    let (sim_tau, id_stats) = try_simulate_inverse_dynamics(&robot, &id_design, &q, &qd, &qdd)
        .expect("inverse dynamics simulates");
    let reference_tau = dynamics.rnea(&q, &qd, &qdd);
    let id_err = sim_tau
        .iter()
        .zip(&reference_tau)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "inverse dynamics:    {:>4} tasks, {:>4} cycles, torque error {id_err:.1e}",
        id_stats.tasks_executed, id_stats.cycles
    );

    // --- Kernel 3: the paper's dynamics-gradient kernel.
    let grad_design = AcceleratorDesign::generate(robot.topology(), knobs);
    let sim = simulate(&robot, &grad_design, &q, &qd, &tau);
    let grad_err = sim.verify(&robot, &q, &qd, &tau);
    println!(
        "dynamics gradients:  {:>4} tasks, {:>4} cycles, gradient error {grad_err:.1e}",
        sim.stats.tasks_executed, sim.stats.cycles
    );

    assert!(fk_err < 1e-12 && id_err < 1e-9 && grad_err < 1e-8);
    println!(
        "\nkernel latency ladder: FK {} < ID {} < ∇FD {} cycles — the same PEs,\nschedule tables swapped (paper Sec. 4's flexibility claim)",
        fk_stats.cycles, id_stats.cycles, sim.stats.cycles
    );
}
