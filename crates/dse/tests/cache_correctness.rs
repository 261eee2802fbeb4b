//! Cache-correctness guarantees of the compilation pipeline: a warmed
//! artifact store must change *nothing* about the results — design
//! spaces, schedules, Pareto frontiers, strategy outcomes and
//! platform-constrained selections are bit-identical to a cold run, for
//! every zoo robot, on every repetition.

use roboshape_arch::{KernelKind, Platform};
use roboshape_dse::{
    constrained_selection, evaluate_strategies_with, pareto_frontier, sweep_design_space_with,
};
use roboshape_pipeline::Pipeline;
use roboshape_robots::{zoo, Zoo};
use roboshape_taskgraph::SchedulerConfig;

#[test]
fn warm_sweep_is_bit_identical_to_cold_for_every_zoo_robot() {
    for which in Zoo::ALL {
        let robot = zoo(which);
        let topo = robot.topology();

        let cold_pipeline = Pipeline::new();
        let cold = sweep_design_space_with(&cold_pipeline, topo);
        assert!(
            cold_pipeline.observer().report().misses() > 0,
            "{which:?}: nothing computed"
        );

        // Same pipeline again: everything served from the store.
        let warm = sweep_design_space_with(&cold_pipeline, topo);
        assert_eq!(cold, warm, "{which:?}: warm sweep diverged");

        // A different (fresh) pipeline must also agree.
        let other = sweep_design_space_with(&Pipeline::new(), topo);
        assert_eq!(cold, other, "{which:?}: fresh-store sweep diverged");

        assert_eq!(
            pareto_frontier(&cold),
            pareto_frontier(&warm),
            "{which:?}: frontier diverged"
        );
    }
}

#[test]
fn warm_schedules_are_bit_identical_to_cold() {
    for which in Zoo::ALL {
        let robot = zoo(which);
        let topo = robot.topology();
        let n = topo.len();
        let pipeline = Pipeline::new();
        let reference = Pipeline::new();
        // Warm the store with a full sweep, then check a sample of
        // schedules against a cold pipeline's.
        sweep_design_space_with(&pipeline, topo);
        for pe in [1, n / 2 + 1, n] {
            let cfg = SchedulerConfig::with_pes(pe, n + 1 - pe);
            let warm = pipeline.schedule_for(topo, KernelKind::DynamicsGradient, &cfg);
            let cold = reference.schedule_for(topo, KernelKind::DynamicsGradient, &cfg);
            assert_eq!(
                *warm,
                *cold,
                "{which:?} PEs=({pe},{}): schedule diverged",
                n + 1 - pe
            );
        }
    }
}

#[test]
fn warm_strategy_outcomes_and_selections_match_cold() {
    for which in Zoo::ALL {
        let robot = zoo(which);
        let topo = robot.topology();

        let pipeline = Pipeline::new();
        let cold_points = sweep_design_space_with(&pipeline, topo);
        let cold_strategies = evaluate_strategies_with(&pipeline, topo);

        // Everything below hits the warmed store.
        let warm_strategies = evaluate_strategies_with(&pipeline, topo);
        assert_eq!(
            cold_strategies, warm_strategies,
            "{which:?}: strategies diverged"
        );
        assert_eq!(
            evaluate_strategies_with(&Pipeline::new(), topo),
            cold_strategies,
            "{which:?}: fresh-store strategies diverged"
        );

        let warm_points = sweep_design_space_with(&pipeline, topo);
        for platform in Platform::all() {
            assert_eq!(
                constrained_selection(&cold_points, platform),
                constrained_selection(&warm_points, platform),
                "{which:?} on {}: constrained selection diverged",
                platform.name
            );
        }
    }
}

#[test]
fn repeated_sweeps_are_deterministic() {
    // Worker interleaving must never reorder or alter points: ten sweeps
    // of a branched robot on one pipeline, all identical.
    let robot = zoo(Zoo::Jaco3);
    let pipeline = Pipeline::new();
    let first = sweep_design_space_with(&pipeline, robot.topology());
    for round in 1..10 {
        let again = sweep_design_space_with(&pipeline, robot.topology());
        assert_eq!(first, again, "round {round} diverged");
    }
}

#[test]
fn warm_sweep_serves_schedules_from_the_store() {
    let robot = zoo(Zoo::Baxter);
    let topo = robot.topology();
    let n = topo.len();
    let pipeline = Pipeline::new();
    sweep_design_space_with(&pipeline, topo);
    let after_cold = pipeline.observer().report();
    // Cold pass scheduled the full N² grid once.
    assert_eq!(pipeline.store().stats().schedules, n * n);

    sweep_design_space_with(&pipeline, topo);
    let after_warm = pipeline.observer().report();
    // The warm pass added no schedule computations, only hits.
    assert_eq!(pipeline.store().stats().schedules, n * n);
    assert!(after_warm.hits() >= after_cold.hits() + (n * n) as u64);
    assert_eq!(
        after_warm.stages.iter().map(|s| s.misses).sum::<u64>(),
        after_cold.stages.iter().map(|s| s.misses).sum::<u64>(),
    );
}
