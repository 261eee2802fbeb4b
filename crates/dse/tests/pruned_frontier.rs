//! Property test for the incremental + pruned sweeps: on every zoo robot
//! and a generated-morphology sample, the pruned frontier is bit-identical
//! to the exhaustive oracle's, warm re-sweeps are bit-identical and served
//! entirely from the fragment store, and `verify_frontier` cross-checks
//! the pruned frontier numerically.

use roboshape_dse::{
    pareto_frontier, sweep_design_space_exhaustive_with, sweep_design_space_pruned_with,
    sweep_design_space_with, verify_frontier,
};
use roboshape_pipeline::Pipeline;
use roboshape_robots::{zoo, Zoo};
use roboshape_topology::Topology;
use roboshape_zoo::{population, Family};

/// One full check of a topology: exhaustive oracle vs incremental vs
/// pruned, plus warm-run determinism and zero-miss warm re-sweeps.
fn check_topology(label: &str, topo: &Topology) {
    let oracle = sweep_design_space_exhaustive_with(&Pipeline::new(), topo);
    let oracle_frontier = pareto_frontier(&oracle);

    // Incremental sweep: same points, same frontier.
    let pipeline = Pipeline::new();
    let cold = sweep_design_space_with(&pipeline, topo);
    assert_eq!(cold, oracle, "{label}: incremental sweep diverged");
    assert_eq!(
        pareto_frontier(&cold),
        oracle_frontier,
        "{label}: incremental frontier diverged"
    );

    // Two consecutive warm runs: bit-identical, zero fragment misses. A
    // miss adds a fragment to this pipeline's store; the process-global
    // `dse.frag.misses` counter would also see sibling tests' sweeps.
    let fragments = || pipeline.store().stats().fragments;
    let misses_after_cold = fragments();
    let warm1 = sweep_design_space_with(&pipeline, topo);
    let warm2 = sweep_design_space_with(&pipeline, topo);
    assert_eq!(warm1, cold, "{label}: first warm run diverged");
    assert_eq!(warm1, warm2, "{label}: consecutive warm runs diverged");
    assert_eq!(
        fragments(),
        misses_after_cold,
        "{label}: warm re-sweep compiled new fragments"
    );

    // Pruned sweep on a fresh pipeline: frontier bit-identical, full
    // accounting, and warm pruned re-run also identical.
    let pruned_pipeline = Pipeline::new();
    let pruned = sweep_design_space_pruned_with(&pruned_pipeline, topo);
    assert_eq!(
        pruned.frontier, oracle_frontier,
        "{label}: pruned frontier diverged from exhaustive"
    );
    assert_eq!(
        pruned.evaluated_points + pruned.pruned_points,
        pruned.grid_points,
        "{label}: pruned accounting broken"
    );
    let pruned_warm = sweep_design_space_pruned_with(&pruned_pipeline, topo);
    assert_eq!(
        pruned_warm.frontier, pruned.frontier,
        "{label}: warm pruned frontier diverged"
    );

    // A pruned sweep over a fragment store warmed by the full sweep must
    // not compute anything new.
    let misses_before = fragments();
    let pruned_on_warm = sweep_design_space_pruned_with(&pipeline, topo);
    assert_eq!(pruned_on_warm.frontier, oracle_frontier, "{label}");
    assert_eq!(
        fragments(),
        misses_before,
        "{label}: pruned sweep over a warm store recomputed fragments"
    );
}

#[test]
fn pruned_and_incremental_frontiers_match_exhaustive_on_the_zoo() {
    for which in Zoo::ALL {
        check_topology(which.name(), zoo(which).topology());
    }
}

#[test]
fn pruned_and_incremental_frontiers_match_exhaustive_on_generated_morphologies() {
    let robots = population(0xD5E_F0A11, 20, &Family::ALL).expect("population generation");
    assert_eq!(robots.len(), 20);
    for robot in &robots {
        check_topology(&robot.name, robot.model.topology());
    }
}

#[test]
fn pruned_frontier_survives_numeric_cross_check() {
    // verify_frontier runs the compiled simulator at every frontier knob
    // setting: knobs move latency, never math.
    let robot = zoo(Zoo::Hyq);
    let pipeline = Pipeline::new();
    let pruned = sweep_design_space_pruned_with(&pipeline, robot.topology());
    let v = verify_frontier(&pipeline, &robot, &pruned.frontier);
    assert!(
        v.max_divergence < 1e-8,
        "pruned frontier failed simulation cross-check: {}",
        v.max_divergence
    );
}
