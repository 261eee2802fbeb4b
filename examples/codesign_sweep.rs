//! SoC co-design: navigating a robot's accelerator design space.
//!
//! A robotics SoC will host the dynamics-gradient accelerator next to
//! other IP, so its area budget is negotiable. This example sweeps
//! Baxter's full knob space (the paper's Fig. 12), prints the Pareto
//! frontier, compares the six allocation strategies (Fig. 13), and shows
//! what an 80%-threshold platform constraint does to the choice (Fig. 16).
//!
//! Run with: `cargo run --release --example codesign_sweep`

use roboshape::{
    constrained_selection, evaluate_strategies_with, pareto_frontier,
    sweep_design_space_pruned_with, DSE_FRAG_HITS_METRIC, DSE_FRAG_MISSES_METRIC,
};
use roboshape_suite::prelude::*;

fn main() {
    let robot = zoo(Zoo::Baxter);
    let fw = Framework::from_model(robot.clone());
    println!(
        "design space for {} ({} links)",
        robot.name(),
        robot.num_links()
    );

    // Fig. 12: the full sweep. Every point is a join of content-addressed
    // makespan + block-latency fragments, so the second sweep below is a
    // pure cache read — the fragment counters prove it.
    let m = roboshape::obs::metrics();
    let points = fw.design_space();
    let cold_misses = m.counter(DSE_FRAG_MISSES_METRIC).get();
    let warm_hits_before = m.counter(DSE_FRAG_HITS_METRIC).get();
    let warm = fw.design_space();
    assert_eq!(points, warm, "warm re-sweep must be bit-identical");
    println!(
        "swept {} design points (PEs_fwd x PEs_bwd x block); warm re-sweep: {} fragment hits, {} new compiles",
        points.len(),
        m.counter(DSE_FRAG_HITS_METRIC).get() - warm_hits_before,
        m.counter(DSE_FRAG_MISSES_METRIC).get() - cold_misses,
    );

    // The dominance-pruned sweep reaches the same frontier while skipping
    // provably dominated grid rows before scheduling them.
    let pruned = sweep_design_space_pruned_with(fw.pipeline(), robot.topology());
    println!(
        "pruned sweep: evaluated {} of {} grid points ({} pruned, {} rows never scheduled)",
        pruned.evaluated_points, pruned.grid_points, pruned.pruned_points, pruned.skipped_rows
    );
    let frontier = pareto_frontier(&points);
    assert_eq!(pruned.frontier, frontier, "pruned frontier must match");
    println!(
        "\nPareto frontier (latency vs LUTs), {} points:",
        frontier.len()
    );
    for p in &frontier {
        println!(
            "  ({:>2},{:>2}, b{:<2})  {:>5} cycles  {:>9.0} LUTs  {:>6.0} DSPs",
            p.pe_fwd, p.pe_bwd, p.block, p.total_cycles, p.resources.luts, p.resources.dsps
        );
    }

    // Fig. 13: allocation strategies.
    println!("\nallocation strategies (traversal latency):");
    for o in evaluate_strategies_with(fw.pipeline(), robot.topology()) {
        println!(
            "  {:<20} PEs=({:>2},{:>2})  {:>5} cycles  {:>9.0} LUTs  {}",
            o.strategy.name(),
            o.pe_fwd,
            o.pe_bwd,
            o.latency_cycles,
            o.resources.luts,
            if o.achieves_min_latency {
                "min latency"
            } else {
                "NON-MIN"
            }
        );
    }

    // Fig. 16: platform thresholds.
    println!("\nplatform-constrained selection (80% threshold):");
    for platform in Platform::all() {
        let sel = constrained_selection(&points, platform);
        match (sel.max_allocated, sel.min_latency) {
            (Some(max), Some(min)) => {
                println!(
                    "  {:<18} max-alloc ({:>2},{:>2},b{:<2}) {:>5} cyc | tuned ({:>2},{:>2},b{:<2}) {:>5} cyc ({:.0}% fewer LUTs)",
                    platform.name,
                    max.pe_fwd, max.pe_bwd, max.block, max.total_cycles,
                    min.pe_fwd, min.pe_bwd, min.block, min.total_cycles,
                    100.0 * (1.0 - min.resources.luts / max.resources.luts)
                );
            }
            _ => println!("  {:<18} infeasible", platform.name),
        }
    }
}
