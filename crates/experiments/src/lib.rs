//! Experiment harness for the RoboShape reproduction.
//!
//! One report function per table/figure of the paper's evaluation section;
//! each returns the formatted rows/series the paper reports, regenerated
//! from the actual framework (not hard-coded numbers — the few paper
//! values printed alongside for comparison are labelled as such). The
//! `experiments` binary exposes them as subcommands; `experiments all`
//! runs the full evaluation.

#![warn(missing_docs)]

use roboshape::kernels::{kernel_table, TraversalScaling};
use roboshape::{
    batched_computation, constrained_selection, coprocessor_roundtrip, evaluate_strategies_with,
    single_computation, sweep_design_space_with, AcceleratorDesign, AcceleratorKnobs,
    BlockMatmulPlan, BlockTiling, Constraints, Framework, IoModel, MatmulLatencyModel,
    ParallelismProfile, Pipeline, Platform, SparsityPattern, Stage,
};
use roboshape_robots::{zoo, Zoo};
use std::fmt::Write as _;

/// The paper's three implemented design points (Table 2 / Figs. 9–10).
pub fn paper_designs() -> Vec<(Zoo, AcceleratorDesign)> {
    [
        (Zoo::Iiwa, AcceleratorKnobs::symmetric(7, 7)),
        (Zoo::Hyq, AcceleratorKnobs::symmetric(3, 6)),
        (Zoo::Baxter, AcceleratorKnobs::symmetric(4, 4)),
    ]
    .into_iter()
    .map(|(z, k)| (z, AcceleratorDesign::generate(zoo(z).topology(), k)))
    .collect()
}

/// Table 1: robotics kernels vs topology patterns.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table 1 — topology patterns across robotics kernels");
    let _ = writeln!(
        out,
        "{:<46} {:<22} {:<10} {:<9} implemented in",
        "kernel", "stage", "traversal", "matrices"
    );
    for k in kernel_table() {
        let trav = match k.traversal {
            Some(TraversalScaling::Linear) => "O(N)",
            Some(TraversalScaling::Quadratic) => "O(N^2)",
            None => "-",
        };
        let _ = writeln!(
            out,
            "{:<46} {:<22} {:<10} {:<9} {}",
            k.name,
            k.pipeline_stage,
            trav,
            if k.topology_matrices { "yes" } else { "-" },
            k.implemented_in.unwrap_or("(catalogued)")
        );
    }
    out
}

/// Table 2: resource utilization of the three implemented designs.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 2 — resource utilization on the XCVU9P (VCU118)"
    );
    let vcu = Platform::vcu118();
    let paper = [
        (514_552.0, 5_448.0),
        (507_158.0, 3_008.0),
        (873_805.0, 3_342.0),
    ];
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>8} {:>12} {:>8}   paper: LUTs / DSPs",
        "robot", "LUTs", "LUT%", "DSPs", "DSP%"
    );
    for ((z, d), (p_lut, p_dsp)) in paper_designs().into_iter().zip(paper) {
        let r = d.full_resources();
        let (lu, du) = vcu.utilization(&r);
        let _ = writeln!(
            out,
            "{:<8} {:>12.0} {:>7.1}% {:>12.0} {:>7.1}%   paper: {:.0} / {:.0}",
            z.name(),
            r.luts,
            lu * 100.0,
            r.dsps,
            du * 100.0,
            p_lut,
            p_dsp
        );
    }
    out
}

/// Table 3: topology metrics for the six robots.
pub fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table 3 — topology metrics (paper Fig. 11)");
    let _ = writeln!(
        out,
        "{:<9} {:>6} {:>13} {:>13} {:>9} {:>14}",
        "robot", "links", "max leaf dep", "avg leaf dep", "max desc", "leaf dep stdev"
    );
    for which in Zoo::ALL {
        let m = zoo(which).topology().metrics();
        let _ = writeln!(
            out,
            "{:<9} {:>6} {:>13} {:>13.1} {:>9} {:>14.1}",
            which.name(),
            m.total_links,
            m.max_leaf_depth,
            m.avg_leaf_depth,
            m.max_descendants,
            m.leaf_depth_stdev
        );
    }
    out
}

/// Fig. 4: Baxter's traversal task pattern and mass-matrix sparsity.
pub fn fig4() -> String {
    let baxter = zoo(Zoo::Baxter);
    let topo = baxter.topology();
    let graph = roboshape::TaskGraph::dynamics_gradient(topo);
    let profile = ParallelismProfile::of(topo);
    let pattern = SparsityPattern::mass_matrix(topo);
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 4 — Baxter topology patterns");
    let _ = writeln!(
        out,
        "(a) topology ({} links, {} limbs):\n{}",
        topo.len(),
        topo.limbs().len(),
        topo.render()
    );
    let _ = writeln!(out, "(b) traversal tasks per stage:");
    for s in Stage::ALL {
        let _ = writeln!(out, "    {:?}: {} tasks", s, graph.stage_tasks(s).len());
    }
    let _ = writeln!(out, "    forward width profile:  {:?}", profile.forward);
    let _ = writeln!(out, "    backward width profile: {:?}", profile.backward);
    let _ = writeln!(
        out,
        "(c) mass-matrix pattern ({} nonzeros, {:.0}% sparse):\n{}",
        pattern.nnz(),
        pattern.sparsity() * 100.0,
        pattern.render()
    );
    out
}

/// Fig. 5: topology-informed data placement (storage sizing).
pub fn fig5() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 5 — branch/parent data placement (storage words)"
    );
    for (z, d) in paper_designs() {
        let s = d.storage();
        let _ = writeln!(
            out,
            "{:<8} schedule={} rnea_out={} parent={} checkpoints={} accumulators={} total={}",
            z.name(),
            s.schedule_entries,
            s.rnea_output_words,
            s.parent_value_words,
            s.checkpoint_words,
            s.accumulator_words,
            s.total_words()
        );
    }
    out
}

/// Fig. 6: Baxter's 15×15 matrix tiled with 4×4 blocks (NOP skipping).
pub fn fig6() -> String {
    let baxter = zoo(Zoo::Baxter);
    let pattern = SparsityPattern::mass_matrix(baxter.topology());
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 6 — block tiling of Baxter's mass matrix");
    let _ = writeln!(
        out,
        "(a) 15x15 pattern, {} nonzeros:\n{}",
        pattern.nnz(),
        pattern.render()
    );
    for b in [4, 6] {
        let t = BlockTiling::new(&pattern, b);
        let _ = writeln!(
            out,
            "(b) {b}x{b} blocks: {} work tiles, {} NOPs, padding waste {:.0}%:\n{}",
            t.nonzero_tiles(),
            t.nop_tiles(),
            t.padding_waste() * 100.0,
            t.render()
        );
    }
    out
}

/// Fig. 7: the framework flow on Baxter — schedules at 3 vs 4 PEs and
/// block 6×6 vs 4×4.
pub fn fig7() -> String {
    let baxter = zoo(Zoo::Baxter);
    let topo = baxter.topology();
    let fw = Framework::from_model(baxter.clone());
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 7 — framework flow (Baxter)");
    for pes in [3, 4] {
        let d = AcceleratorDesign::generate(topo, AcceleratorKnobs::symmetric(pes, 4));
        let _ = writeln!(
            out,
            "(b) schedule at {pes} forward PEs: traversal makespan {} cycles",
            d.schedule().makespan()
        );
        let _ = writeln!(out, "{}", d.schedule().render_gantt(d.task_graph(), 72));
    }
    let pattern = SparsityPattern::mass_matrix(topo);
    let model = MatmulLatencyModel::default();
    for b in [6, 4] {
        let t = BlockTiling::new(&pattern, b);
        let plan = BlockMatmulPlan::new(&pattern, 30, b, 15);
        let _ = writeln!(
            out,
            "(c) block {b}x{b}: padding waste {:.0}%, mat-mul latency {} cycles",
            t.padding_waste() * 100.0,
            plan.latency(&model)
        );
    }
    let knobs = fw.choose_knobs(Constraints::new(4, 4, 4));
    let _ = writeln!(
        out,
        "(d) generated knobs under the paper's Baxter constraints: PEs=({},{}), block={}",
        knobs.pe_fwd, knobs.pe_bwd, knobs.block_size
    );
    out
}

/// Fig. 8: the template architecture of a generated design.
pub fn fig8() -> String {
    let (z, d) = paper_designs().remove(2);
    let s = d.storage();
    let k = d.knobs();
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 8 — template architecture ({})", z.name());
    let _ = writeln!(
        out,
        "knobs: PEs_fwd={}, PEs_bwd={}, size_block={}",
        k.pe_fwd, k.pe_bwd, k.block_size
    );
    let _ = writeln!(out, "(a) schedule storage: {} entries", s.schedule_entries);
    let _ = writeln!(
        out,
        "(b) control FSMs: {} (one per PE)",
        k.pe_fwd + k.pe_bwd
    );
    let _ = writeln!(
        out,
        "(c) RNEA output storage: {} words",
        s.rnea_output_words
    );
    let _ = writeln!(
        out,
        "(d) parent-link storage: {} words",
        s.parent_value_words
    );
    let _ = writeln!(
        out,
        "(e) branch checkpoint registers: {} words",
        s.checkpoint_words
    );
    let _ = writeln!(
        out,
        "(f) mat-mul accumulators: {} words",
        s.accumulator_words
    );
    let _ = writeln!(out, "clock period (modelled): {:.1} ns", d.clock_ns());
    out
}

/// Fig. 9: single-computation latency vs CPU/GPU (and RC on iiwa).
pub fn fig9() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 9 — compute-only latency, single computation");
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>9} {:>12} {:>12} {:>9} {:>9}",
        "robot", "CPU(us)", "GPU(us)", "FPGA np(us)", "FPGA(us)", "vs CPU", "vs GPU"
    );
    for (z, d) in paper_designs() {
        let r = single_computation(&d);
        let _ = writeln!(
            out,
            "{:<8} {:>9.2} {:>9.2} {:>12.2} {:>12.2} {:>8.1}x {:>8.1}x",
            z.name(),
            r.cpu_us,
            r.gpu_us,
            r.fpga_no_pipeline_us,
            r.fpga_us,
            r.speedup_vs_cpu(),
            r.speedup_vs_gpu()
        );
    }
    let _ = writeln!(out, "paper bands: 4.0-4.4x over CPU, 8.0-15.1x over GPU");
    let _ = writeln!(
        out,
        "RC baseline (iiwa): identical latency to RoboShape by construction; cannot\nfit HyQ/Baxter on the XCVU9P (see `experiments table2` / rc_resources)"
    );
    out
}

/// Fig. 10: coprocessor batch of 4 time steps — compute-only and roundtrip.
pub fn fig10() -> String {
    let steps = 4;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 10 — coprocessor deployment, {steps} time steps"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>10} {:>8} {:>8} | {:>9} {:>9} {:>8} {:>8}",
        "robot",
        "CPU4(us)",
        "GPU4(us)",
        "FPGA4(us)",
        "vs CPU",
        "vs GPU",
        "IO(us)",
        "rt(us)",
        "vs CPU",
        "vs GPU"
    );
    for (z, d) in paper_designs() {
        let c = batched_computation(&d, steps);
        let rt = coprocessor_roundtrip(&d, steps);
        let _ = writeln!(
            out,
            "{:<8} {:>10.1} {:>10.1} {:>10.1} {:>7.2}x {:>7.2}x | {:>9.1} {:>9.1} {:>7.2}x {:>7.2}x",
            z.name(),
            c.cpu_us,
            c.gpu_us,
            c.fpga_us,
            c.speedup_vs_cpu(),
            c.speedup_vs_gpu(),
            rt.io_us + rt.stall_us,
            rt.roundtrip_us(),
            rt.speedup_vs_cpu(),
            rt.speedup_vs_gpu()
        );
    }
    let _ = writeln!(
        out,
        "\nI/O composition and sparsity compression (paper Sec. 5.2):"
    );
    for which in [Zoo::Iiwa, Zoo::Hyq, Zoo::Baxter] {
        let io = IoModel::new(SparsityPattern::mass_matrix(zoo(which).topology()));
        let _ = writeln!(
            out,
            "{:<8} matrices = {:>4.1}% of I/O bits; sparse-I/O reduction = {:.2}x",
            which.name(),
            io.matrix_fraction() * 100.0,
            io.reduction()
        );
    }
    let _ = writeln!(
        out,
        "paper: 84/90/92% matrix share; 3.1x (HyQ) and 2.1x (Baxter) reductions"
    );
    out
}

/// Fig. 11: the robot zoo rendered (including the extra Fig. 1 robots).
pub fn fig11() -> String {
    use roboshape_robots::{extra_robot, ExtraRobot};
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 11 — the robot zoo");
    for which in Zoo::ALL {
        let robot = zoo(which);
        let _ = writeln!(out, "{} ({}):", which.name(), robot.topology().metrics());
        let _ = writeln!(out, "{}", robot.topology().render());
    }
    let _ = writeln!(
        out,
        "extra Fig. 1 robots (not part of the paper's evaluation):"
    );
    for which in ExtraRobot::ALL {
        let robot = extra_robot(which);
        let _ = writeln!(out, "{} ({})", which.name(), robot.topology().metrics());
    }
    out
}

/// Fig. 12: design-space sweeps and Pareto frontiers.
pub fn fig12() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 12 — design spaces and Pareto frontiers");
    let _ = writeln!(
        out,
        "{:<9} {:>7} {:>10} {:>10} {:>12} {:>12} {:>9}",
        "robot", "points", "min cyc", "max cyc", "min LUTs", "max LUTs", "frontier"
    );
    for which in Zoo::ALL {
        let pts = sweep_design_space_with(Pipeline::global(), zoo(which).topology());
        let s = roboshape::design_space_stats(&pts);
        let _ = writeln!(
            out,
            "{:<9} {:>7} {:>10.0} {:>10.0} {:>12.0} {:>12.0} {:>9}",
            which.name(),
            s.points,
            s.latency.min,
            s.latency.max,
            s.luts.min,
            s.luts.max,
            s.frontier_size
        );
        let _ = writeln!(
            out,
            "{:<9} latency quartiles {:.0}/{:.0}/{:.0}; knee ({},{},b{}) at {} cyc / {:.0} LUTs",
            "",
            s.latency.q1,
            s.latency.median,
            s.latency.q3,
            s.knee.pe_fwd,
            s.knee.pe_bwd,
            s.knee.block,
            s.knee.total_cycles,
            s.knee.resources.luts
        );
    }
    let _ = writeln!(
        out,
        "paper: 1000s of points; max latencies 829-7230 cycles; max LUTs 507k-2600k"
    );
    out
}

/// Fig. 13: allocation strategies vs latency and resources.
pub fn fig13() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 13 — allocation strategies (latency / resources)"
    );
    for which in Zoo::ALL {
        let _ = writeln!(out, "{}:", which.name());
        for o in evaluate_strategies_with(Pipeline::global(), zoo(which).topology()) {
            let _ = writeln!(
                out,
                "  {:<20} PEs=({:>2},{:>2})  latency={:>5} cycles  LUTs={:>8.0}  {}",
                o.strategy.name(),
                o.pe_fwd,
                o.pe_bwd,
                o.latency_cycles,
                o.resources.luts,
                if o.achieves_min_latency {
                    "MIN"
                } else {
                    "x (non-min)"
                }
            );
        }
    }
    out
}

/// Fig. 14: traversal parallelism vs topology.
pub fn fig14() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Fig. 14 — traversal parallelism by topology");
    for which in Zoo::ALL {
        let topo = zoo(which);
        let p = ParallelismProfile::of(topo.topology());
        let _ = writeln!(
            out,
            "{:<9} fwd threads/step {:?} (max {}), bwd {:?} (max {})",
            which.name(),
            p.forward,
            p.max_forward(),
            p.backward,
            p.max_backward()
        );
    }
    let _ = writeln!(out, "forward parallelism scales with independent limbs; backward with\ncommon-ancestor width (leaf count at the tree bottom)");
    out
}

/// Fig. 15: block-size sweep for HyQ on 3 mat-mul units.
pub fn fig15() -> String {
    let hyq = zoo(Zoo::Hyq);
    let pattern = SparsityPattern::mass_matrix(hyq.topology());
    let model = MatmulLatencyModel::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 15 — blocked mat-mul latency vs block size (HyQ, 3 units)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>8} {:>8} {:>10}",
        "block", "ops", "NOPs", "cycles"
    );
    for b in 1..=10 {
        let plan = BlockMatmulPlan::new(&pattern, 24, b, 3);
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>10}",
            b,
            plan.ops().len(),
            plan.skipped_ops(),
            plan.latency(&model)
        );
    }
    let _ = writeln!(
        out,
        "leg-aligned block sizes (3, 6, 9) avoid zero padding; others are jagged"
    );
    out
}

/// Fig. 16: resource-constrained selection on the VCU118 and VC707.
pub fn fig16() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 16 — max allocation vs tuned min latency (80% threshold)"
    );
    // One incremental sweep per robot, shared by both platforms (the
    // constrained selection needs the full point set, not just the
    // frontier, so the platform loop reuses these).
    let spaces: Vec<(Zoo, Vec<roboshape::DesignPoint>)> = Zoo::ALL
        .into_iter()
        .map(|which| {
            (
                which,
                sweep_design_space_with(Pipeline::global(), zoo(which).topology()),
            )
        })
        .collect();
    for platform in Platform::all() {
        let _ = writeln!(out, "{}:", platform.name);
        for (which, pts) in &spaces {
            let which = *which;
            let sel = constrained_selection(pts, platform);
            match (sel.max_allocated, sel.min_latency) {
                (Some(max), Some(min)) => {
                    let _ = writeln!(
                        out,
                        "  {:<9} max-alloc ({:>2},{:>2},b{:<2}) {:>5} cyc {:>9.0} LUTs | min-lat ({:>2},{:>2},b{:<2}) {:>5} cyc {:>9.0} LUTs{}",
                        which.name(),
                        max.pe_fwd, max.pe_bwd, max.block, max.total_cycles, max.resources.luts,
                        min.pe_fwd, min.pe_bwd, min.block, min.total_cycles, min.resources.luts,
                        if max.total_cycles > min.total_cycles { "  <- max-alloc slower" } else { "" }
                    );
                }
                _ => {
                    let _ = writeln!(out, "  {:<9} NO FEASIBLE DESIGN POINT", which.name());
                }
            }
        }
    }
    let _ = writeln!(out, "paper: no VC707 design point exists for HyQ+arm");
    out
}

/// End-to-end functional verification of the three paper designs.
pub fn verify() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Functional verification — simulator vs reference library"
    );
    for (z, d) in paper_designs() {
        let robot = zoo(z);
        let n = robot.num_links();
        let q: Vec<f64> = (0..n).map(|i| (0.3 * (i as f64 + 1.0)).sin()).collect();
        let qd: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64).cos()).collect();
        let tau: Vec<f64> = (0..n).map(|i| 0.5 - 0.1 * i as f64).collect();
        let sim = roboshape::simulate(&robot, &d, &q, &qd, &tau);
        let err = sim.verify(&robot, &q, &qd, &tau);
        let _ = writeln!(
            out,
            "{:<8} max |dq̈-gradient error| = {err:.2e}  ({} tasks, {} mat-mul ops, {} cycles)",
            z.name(),
            sim.stats.tasks_executed,
            sim.stats.matmul_ops,
            sim.stats.cycles
        );
        assert!(err < 1e-8, "{z:?} verification failed: {err}");
    }
    out
}

/// Extension: the framework's kernel flexibility (paper Table 1 / Sec. 4:
/// "can flexibly implement accelerators for a broad class of robotics
/// computations") — schedules for forward kinematics, inverse dynamics,
/// and the full gradient kernel on every robot.
pub fn ext_kernels() -> String {
    use roboshape::{schedule, SchedulerConfig, TaskGraph};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Extension — multi-kernel scheduling (Table 1 families)"
    );
    let _ = writeln!(
        out,
        "{:<9} {:>14} {:>14} {:>14}   (tasks / makespan cycles at hybrid PEs)",
        "robot", "kinematics", "inv dynamics", "dyn gradients"
    );
    for which in Zoo::ALL {
        let robot = zoo(which);
        let topo = robot.topology();
        let m = topo.metrics();
        let cfg = SchedulerConfig::with_pes(m.max_leaf_depth, m.max_descendants);
        let mut cells = Vec::new();
        for graph in [
            TaskGraph::forward_kinematics(topo),
            TaskGraph::inverse_dynamics(topo),
            TaskGraph::dynamics_gradient(topo),
        ] {
            let s = schedule(&graph, &cfg);
            s.validate(&graph).expect("kernel schedule must be valid");
            cells.push(format!("{}/{}", graph.len(), s.makespan()));
        }
        let _ = writeln!(
            out,
            "{:<9} {:>14} {:>14} {:>14}",
            which.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
    out
}

/// Extension: power and energy with PE power gating (the paper's
/// dark-silicon knob, Sec. 3.3).
pub fn ext_energy() -> String {
    use roboshape::power::platform_power;
    use roboshape::PowerModel;
    let mut out = String::new();
    let _ = writeln!(out, "# Extension — power/energy and PE power gating");
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>9} {:>9} {:>11} {:>12} {:>12}",
        "robot", "static W", "dyn W", "gated W", "util", "energy uJ", "CPU/GPU uJ"
    );
    for (z, d) in paper_designs() {
        let plain = PowerModel::new().evaluate(&d);
        let gated = PowerModel::new().with_power_gating().evaluate(&d);
        let lat = roboshape::single_computation(&d);
        let cpu_uj = platform_power::CPU_W * lat.cpu_us;
        let gpu_uj = platform_power::GPU_W * lat.gpu_us;
        let _ = writeln!(
            out,
            "{:<8} {:>9.2} {:>9.2} {:>9.2} {:>10.0}% {:>12.1} {:>5.0}/{:<6.0}",
            z.name(),
            plain.static_w,
            plain.dynamic_w,
            gated.total_w(),
            plain.utilization * 100.0,
            plain.energy_per_eval_uj(),
            cpu_uj,
            gpu_uj
        );
    }
    let _ = writeln!(
        out,
        "gating reclaims idle-PE leakage; savings grow with over-provisioning"
    );
    out
}

/// Extension: SoC co-design — all three implemented accelerators sharing
/// one XCVU9P (paper Secs. 3.3/5.3 motivation).
pub fn ext_soc() -> String {
    use roboshape::co_design;
    let mut out = String::new();
    let _ = writeln!(out, "# Extension — SoC co-design (shared platform)");
    let robots = [Zoo::Iiwa, Zoo::Hyq, Zoo::Baxter];
    let spaces: Vec<_> = robots
        .iter()
        .map(|&z| sweep_design_space_with(Pipeline::global(), zoo(z).topology()))
        .collect();
    for platform in Platform::all() {
        match co_design(&spaces, platform, roboshape::UTILIZATION_THRESHOLD) {
            Some(alloc) => {
                let _ = writeln!(
                    out,
                    "{}: worst latency {} cycles, {:.0} LUTs / {:.0} DSPs total",
                    platform.name, alloc.worst_latency, alloc.total.luts, alloc.total.dsps
                );
                for (z, p) in robots.iter().zip(&alloc.assignments) {
                    let _ = writeln!(
                        out,
                        "    {:<8} ({:>2},{:>2},b{:<2}) {:>5} cycles {:>9.0} LUTs",
                        z.name(),
                        p.pe_fwd,
                        p.pe_bwd,
                        p.block,
                        p.total_cycles,
                        p.resources.luts
                    );
                }
            }
            None => {
                let _ = writeln!(out, "{}: three accelerators do not fit", platform.name);
            }
        }
    }
    out
}

/// Extension: scalability toward hyper-redundant / soft robots (paper
/// Sec. 3.3 future work: 100s of links via rigid-body approximations).
pub fn ext_scaling() -> String {
    use roboshape::{schedule, SchedulerConfig, StorageReport, TaskGraph, Topology};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Extension — scaling to hyper-redundant chains (soft-robot proxies)"
    );
    let _ = writeln!(
        out,
        "{:<7} {:>9} {:>11} {:>12} {:>14} {:>12}",
        "links", "tasks", "cycles@8PE", "LUTs (DSE)", "storage words", "checkpoints"
    );
    for n in [20usize, 50, 100] {
        let topo = Topology::chain(n);
        let graph = TaskGraph::dynamics_gradient(&topo);
        let s = schedule(&graph, &SchedulerConfig::with_pes(8, 8));
        s.validate(&graph).expect("valid");
        let knobs = AcceleratorKnobs::new(8, 8, 8);
        let storage = StorageReport::for_design(&topo, &knobs, &graph, &s);
        let r = roboshape::DseModel.estimate(n, &knobs);
        let _ = writeln!(
            out,
            "{:<7} {:>9} {:>11} {:>12.0} {:>14} {:>12}",
            n,
            graph.len(),
            s.makespan(),
            r.luts,
            storage.total_words(),
            storage.checkpoint_words
        );
    }
    let _ = writeln!(
        out,
        "gradient task count grows O(N^2): beyond ~100 links the schedule ROMs and\nRNEA buffers dominate — the paper's suggested cache-based branch-checkpoint\nplacement becomes necessary (future work)"
    );
    out
}

/// Extension: robomorphic 6×6 sparsity of the per-joint functional units
/// (paper Secs. 2 and 6: "40-60% sparse" joint/inertia matrices).
pub fn ext_robomorphic() -> String {
    use roboshape::{inertia_pattern, joint_transform_pattern};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Extension — robomorphic 6x6 functional-unit sparsity (iiwa)"
    );
    let robot = zoo(Zoo::Iiwa);
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>14}",
        "link", "X(q) sparse", "inertia sparse"
    );
    let mut x_total = 0.0;
    let mut i_total = 0.0;
    for i in 0..robot.num_links() {
        let xp = joint_transform_pattern(robot.joint(i), 16);
        let ip = inertia_pattern(&robot.link(i).inertia);
        x_total += xp.sparsity();
        i_total += ip.sparsity();
        let _ = writeln!(
            out,
            "{:<14} {:>11.0}% {:>13.0}%",
            robot.link(i).name,
            xp.sparsity() * 100.0,
            ip.sparsity() * 100.0
        );
    }
    let n = robot.num_links() as f64;
    let _ = writeln!(
        out,
        "mean: X(q) {:.0}% sparse, inertia {:.0}% sparse (paper: 40-60% band)",
        x_total / n * 100.0,
        i_total / n * 100.0
    );
    out
}

/// Extension: kernel co-scheduling on shared PEs (paper Sec. 3.3 future
/// work).
pub fn ext_coschedule() -> String {
    use roboshape::{schedule, SchedulerConfig, TaskGraph};
    let mut out = String::new();
    let _ = writeln!(out, "# Extension — co-scheduling kernels on shared PEs");
    let _ = writeln!(
        out,
        "{:<9} {:>12} {:>12} {:>14} {:>9}",
        "robot", "FK alone", "grad alone", "co-scheduled", "saved"
    );
    for which in Zoo::ALL {
        let topo = zoo(which);
        let m = topo.topology().metrics();
        let cfg = SchedulerConfig::with_pes(m.max_leaf_depth, m.max_descendants);
        let fk = TaskGraph::forward_kinematics(topo.topology());
        let grad = TaskGraph::dynamics_gradient(topo.topology());
        let s_fk = schedule(&fk, &cfg).makespan();
        let s_grad = schedule(&grad, &cfg).makespan();
        let merged = schedule(&TaskGraph::merge(&grad, &fk), &cfg).makespan();
        let saved = (s_fk + s_grad) as f64;
        let _ = writeln!(
            out,
            "{:<9} {:>12} {:>12} {:>14} {:>8.0}%",
            which.name(),
            s_fk,
            s_grad,
            merged,
            100.0 * (1.0 - merged as f64 / saved)
        );
    }
    let _ = writeln!(
        out,
        "(cycles at hybrid PE allocation; saved = vs running back-to-back)"
    );
    out
}

/// Extension: design-choice ablations the DESIGN.md calls out —
/// limb-sequential vs greedy scheduling, stage pipelining, and mat-mul
/// unit allocation.
pub fn ext_ablation() -> String {
    use roboshape::{schedule, SchedulerConfig, TaskGraph};
    let mut out = String::new();
    let _ = writeln!(out, "# Extension — ablations of the main design choices");
    let _ = writeln!(
        out,
        "{:<9} {:>12} {:>10} {:>12} | {:>10} {:>10}",
        "robot", "limb-seq", "greedy", "no-pipeline", "mm/link", "mm=3"
    );
    for which in Zoo::ALL {
        let robot = zoo(which);
        let topo = robot.topology();
        let n = topo.len();
        let m = topo.metrics();
        let graph = TaskGraph::dynamics_gradient(topo);
        let cfg = SchedulerConfig::with_pes(m.max_leaf_depth, m.max_descendants);
        let limb_seq = schedule(&graph, &cfg).makespan();
        let greedy = schedule(&graph, &cfg.fully_greedy()).makespan();
        let no_pipe = schedule(&graph, &cfg.without_pipelining()).makespan();
        let pattern = SparsityPattern::mass_matrix(topo);
        let model = MatmulLatencyModel::default();
        let best_block = (1..=n)
            .map(|b| BlockMatmulPlan::new(&pattern, 2 * n, b, n).latency(&model))
            .min()
            .expect("nonempty");
        let fixed3 = (1..=n)
            .map(|b| BlockMatmulPlan::new(&pattern, 2 * n, b, 3).latency(&model))
            .min()
            .expect("nonempty");
        let _ = writeln!(
            out,
            "{:<9} {:>12} {:>10} {:>12} | {:>10} {:>10}",
            which.name(),
            limb_seq,
            greedy,
            no_pipe,
            best_block,
            fixed3
        );
    }
    let _ = writeln!(
        out,
        "limb-seq = the paper's DFS scheduler (hardware-faithful); greedy = idealized\ncross-limb parallelism (what shared marshalling cannot do); mm columns are the\nbest-block mat-mul latency at per-link vs 3 fixed units"
    );
    out
}

/// Extension: measured multi-time-step streaming vs the analytical
/// initiation-interval model used in Fig. 10.
pub fn ext_batch() -> String {
    use roboshape::{initiation_interval_cycles, schedule, SchedulerConfig, TaskGraph};
    let mut out = String::new();
    let _ = writeln!(out, "# Extension — streaming batches: measured vs modelled");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>14} {:>12}",
        "robot", "single", "4-step model", "4-step sched", "measured II"
    );
    for (z, d) in paper_designs() {
        let graph = d.task_graph();
        let knobs = d.knobs();
        let cfg = SchedulerConfig::with_pes(knobs.pe_fwd, knobs.pe_bwd);
        let single = schedule(graph, &cfg).makespan();
        let batched = schedule(&TaskGraph::replicate(graph, 4), &cfg).makespan();
        let measured_ii = (batched - single) / 3;
        let model = single + 3 * initiation_interval_cycles(&d);
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>14} {:>14} {:>12}",
            z.name(),
            single,
            model,
            batched,
            measured_ii
        );
    }
    let _ = writeln!(
        out,
        "(traversal cycles; \"model\" is the busy-resource II bound of the Fig. 10\npipeline model, \"sched\" actually schedules 4 merged task-graph copies)"
    );
    out
}

/// Extension: throughput crossover vs the GPU (paper Sec. 5.2,
/// "Parallelism Tradeoffs vs GPU": GPUs may win on throughput for large
/// batches; I/O optimization pushes the crossover out).
pub fn ext_throughput() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Extension — batch-size throughput crossover vs GPU");
    let _ = writeln!(
        out,
        "{:<8} {:>16} {:>18}",
        "robot", "crossover (dense)", "crossover (sparse)"
    );
    for (z, d) in paper_designs() {
        let crossover = |sparse: bool| -> Option<usize> {
            (1..=256).find(|&t| {
                let rt = coprocessor_roundtrip(&d, t);
                let fpga = if sparse {
                    rt.roundtrip_sparse_us()
                } else {
                    rt.roundtrip_us()
                };
                rt.compute.gpu_us < fpga
            })
        };
        let fmt = |c: Option<usize>| match c {
            Some(t) => format!("{t} steps"),
            None => "none ≤ 256".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<8} {:>16} {:>18}",
            z.name(),
            fmt(crossover(false)),
            fmt(crossover(true))
        );
    }
    let _ = writeln!(
        out,
        "(first batch size where GPU total time beats the accelerator roundtrip;\nsparse I/O pushes the crossover to larger batches, as Sec. 5.2 argues)"
    );
    out
}

/// Extension: the accelerator-as-a-service engine (`roboshape-serve`)
/// over the full zoo, exercised in-process. One paused engine takes a
/// burst per robot so the deadline-aware scheduler coalesces ∇FD
/// requests into `try_simulate_batch` executions (per-step results are
/// bit-identical to sequential evaluation — the serve crate's property
/// test pins this). Running it also populates the `serve.*` counters
/// that `experiments all` prints in its global metrics summary.
pub fn ext_serve() -> String {
    use roboshape_serve::loadgen::request_inputs;
    use roboshape_serve::{Engine, EngineConfig, ServePayload, ServeRequest, Ticket};
    use std::time::Instant;

    const BURST: usize = 8;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Extension — accelerator-as-a-service (batched serving)"
    );
    let engine = Engine::new(EngineConfig {
        workers_per_robot: 1,
        max_batch: BURST,
        start_paused: true,
        ..EngineConfig::default()
    });
    for z in Zoo::ALL {
        engine.register(z.name(), zoo(z));
    }
    let mut per_robot: Vec<(Zoo, Vec<Ticket>)> = Vec::new();
    for z in Zoo::ALL {
        let n = engine.num_links(z.name()).expect("registered");
        let tickets = (0..BURST)
            .map(|i| {
                let (q, qd, tau) = request_inputs(n, i as u64);
                engine
                    .submit(ServeRequest::gradient(z.name(), q, qd, tau))
                    .expect("admission under capacity")
            })
            .collect();
        per_robot.push((z, tickets));
    }
    let start = Instant::now();
    engine.resume();
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>14} {:>13}",
        "robot", "requests", "mean cycles", "all ok"
    );
    for (z, tickets) in per_robot {
        let mut cycles = 0u64;
        let mut ok = 0usize;
        for t in tickets {
            if let Ok(ServePayload::Gradient { cycles: c, .. }) = t.wait() {
                cycles += c;
                ok += 1;
            }
        }
        let _ = writeln!(
            out,
            "{:<8} {:>9} {:>14} {:>13}",
            z.name(),
            BURST,
            cycles / ok.max(1) as u64,
            if ok == BURST { "yes" } else { "NO" }
        );
    }
    let wall = start.elapsed();
    engine.shutdown();
    let stats = engine.stats();
    let _ = writeln!(
        out,
        "served {} ∇FD requests in {wall:.2?} ({:.0} req/s): {} batched executions, largest batch {}, shed {}",
        stats.completed,
        stats.completed as f64 / wall.as_secs_f64().max(1e-9),
        stats.batches,
        stats.largest_batch,
        stats.shed
    );
    // Per-backend attribution of the evaluations just served: whole
    // groups of four run in the SIMD lane backend, remainders and
    // fallbacks in the scalar loop (bit-identical either way).
    let m = roboshape::obs::metrics();
    let _ = writeln!(
        out,
        "execution backends: sim.exec.lanes.evals={} sim.exec.scalar.evals={} (lane groups of 4; remainders scalar)",
        m.counter("sim.exec.lanes.evals").get(),
        m.counter("sim.exec.scalar.evals").get(),
    );
    let _ = writeln!(
        out,
        "(per-robot EDF queues; coalesced batches are bit-identical to sequential\nevaluation, so batching trades latency for throughput only — see the\n`serve.*` rows of the metrics summary below)"
    );
    out
}

/// Extension: the serve engine under deterministic chaos — worker
/// stalls, crashes, and synthetic queue pressure injected by a seeded
/// [`roboshape_serve::FaultPlan`] — with a retrying caller riding out
/// every fault. Demonstrates the resilience invariant end to end: every
/// request settles (a real answer, a degraded analytical answer while a
/// circuit is open, or a counted shed), nothing is lost, and every
/// injected fault is visible in the engine's statistics and the
/// `serve.fault.*` counters of the metrics summary.
pub fn ext_chaos() -> String {
    use roboshape_serve::loadgen::request_inputs;
    use roboshape_serve::{Engine, EngineConfig, FaultConfig, ServePayload, ServeRequest};
    use std::time::Duration;

    const PER_ROBOT: usize = 24;
    const MAX_ATTEMPTS: usize = 12;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Extension — fault injection and resilience (chaos drill)"
    );
    let engine = Engine::new(EngineConfig {
        workers_per_robot: 2,
        chaos: Some(FaultConfig {
            seed: 7,
            stall: 0.03,
            crash: 0.12,
            corrupt: 0.0, // wire corruption lives in the TCP layer, not here
            pressure: 0.06,
        }),
        circuit_threshold: 3,
        circuit_cooldown: Duration::from_millis(20),
        ..EngineConfig::default()
    });
    for z in Zoo::ALL {
        engine.register(z.name(), zoo(z));
    }
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>6} {:>9} {:>8}",
        "robot", "requests", "ok", "degraded", "retries"
    );
    for z in Zoo::ALL {
        let n = engine.num_links(z.name()).expect("registered");
        let (mut ok, mut degraded, mut retries) = (0usize, 0usize, 0usize);
        for i in 0..PER_ROBOT {
            let (q, qd, tau) = request_inputs(n, i as u64);
            let req = ServeRequest::gradient(z.name(), q, qd, tau);
            for attempt in 0..MAX_ATTEMPTS {
                retries += usize::from(attempt > 0);
                let outcome = match engine.submit(req.clone()) {
                    Ok(ticket) => ticket.wait(),
                    Err(e) => Err(e),
                };
                match outcome {
                    Ok(ServePayload::Degraded { .. }) => {
                        degraded += 1;
                        break;
                    }
                    Ok(_) => {
                        ok += 1;
                        break;
                    }
                    Err(e) if e.is_retryable() && attempt + 1 < MAX_ATTEMPTS => continue,
                    Err(_) => break,
                }
            }
        }
        let _ = writeln!(
            out,
            "{:<8} {:>9} {:>6} {:>9} {:>8}",
            z.name(),
            PER_ROBOT,
            ok,
            degraded,
            retries
        );
    }
    engine.shutdown();
    let stats = engine.stats();
    let _ = writeln!(
        out,
        "injected: stalls={} crashes={} pressure={}; worker restarts={}, circuit trips={}",
        stats.injected_stalls,
        stats.injected_crashes,
        stats.injected_pressure,
        stats.worker_restarts,
        stats.circuit_trips
    );
    let _ = writeln!(
        out,
        "(seeded chaos: the same seed injects the same faults at the same admission\nsequence numbers on every run; degraded answers come from the analytical\nclock-period model while a robot's circuit breaker is open — see\ndocs/OPERATIONS.md for the operator-facing drill)"
    );
    out
}

/// Extension: the `roboshape-zoo` parametric generator at population
/// scale, with defaults matching the paper-style sweep (120 robots,
/// master seed 42, all four morphology families). See [`ext_zoo_with`].
pub fn ext_zoo() -> String {
    ext_zoo_with(120, 42)
}

/// Extension: generates a seed-deterministic robot population across
/// every `roboshape-zoo` family, designs one accelerator per robot at a
/// fixed cheap knob setting, and reports speedup and resource-frontier
/// statistics against the paper's Table 3 topology-pattern metrics.
/// Ends with a machine-readable JSON block (no timestamps), so two runs
/// with the same `(n, seed)` are byte-identical — CI diffs them.
pub fn ext_zoo_with(n: usize, seed: u64) -> String {
    use roboshape_zoo::{population, Family, GeneratedRobot};

    // Surface the zoo.gen.* counters in `experiments all`'s metrics
    // summary even for the families/paths this run never rejects.
    roboshape_zoo::preregister_metrics();

    struct Row<'a> {
        member: &'a GeneratedRobot,
        speedup: f64,
        luts: f64,
        cycles: u64,
    }

    let members = population(seed, n, &Family::ALL).expect("non-empty family mix");
    // One cheap fixed design point per robot (no per-robot DSE): the
    // sweep measures how morphology moves the latency/resource frontier,
    // so the knobs must be held constant across the population.
    let knobs = AcceleratorKnobs::symmetric(2, 4);
    let rows: Vec<Row> = members
        .iter()
        .map(|m| {
            let design = AcceleratorDesign::generate(m.model.topology(), knobs);
            Row {
                member: m,
                speedup: single_computation(&design).speedup_vs_cpu(),
                luts: design.full_resources().luts,
                cycles: design.compute_cycles(),
            }
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Extension — parametric robot zoo ({n} generated robots, seed {seed})"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>12} {:>11} {:>12} {:>12}",
        "family", "count", "links μ", "depth μ", "speedup μ", "kLUT μ"
    );

    struct FamilyAgg {
        count: usize,
        links: f64,
        depth: f64,
        speedup: f64,
        luts: f64,
    }
    let mut aggs: Vec<(Family, FamilyAgg)> = Vec::new();
    for family in Family::ALL {
        let fam_rows: Vec<&Row> = rows.iter().filter(|r| r.member.family == family).collect();
        let count = fam_rows.len();
        let mean = |f: &dyn Fn(&Row) -> f64| -> f64 {
            fam_rows.iter().map(|r| f(r)).sum::<f64>() / count.max(1) as f64
        };
        let agg = FamilyAgg {
            count,
            links: mean(&|r| r.member.stats.metrics.total_links as f64),
            depth: mean(&|r| r.member.stats.metrics.max_leaf_depth as f64),
            speedup: mean(&|r| r.speedup),
            luts: mean(&|r| r.luts / 1000.0),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>12.1} {:>11.1} {:>12.2} {:>12.1}",
            family.name(),
            agg.count,
            agg.links,
            agg.depth,
            agg.speedup,
            agg.luts
        );
        aggs.push((family, agg));
    }

    // How the topology patterns predict the design's worth: Pearson
    // correlation of per-robot speedup against Table 3 metrics.
    let pearson = |x: &dyn Fn(&Row) -> f64, y: &dyn Fn(&Row) -> f64| -> f64 {
        let n = rows.len() as f64;
        let (mx, my) = (
            rows.iter().map(x).sum::<f64>() / n,
            rows.iter().map(y).sum::<f64>() / n,
        );
        let cov = rows.iter().map(|r| (x(r) - mx) * (y(r) - my)).sum::<f64>();
        let (vx, vy) = (
            rows.iter().map(|r| (x(r) - mx).powi(2)).sum::<f64>(),
            rows.iter().map(|r| (y(r) - my).powi(2)).sum::<f64>(),
        );
        cov / (vx * vy).sqrt().max(1e-300)
    };
    let speedup = |r: &Row| r.speedup;
    let corr_links = pearson(&|r| r.member.stats.metrics.total_links as f64, &speedup);
    let corr_depth = pearson(&|r| r.member.stats.metrics.max_leaf_depth as f64, &speedup);
    let corr_stdev = pearson(&|r| r.member.stats.metrics.leaf_depth_stdev, &speedup);
    let _ = writeln!(
        out,
        "speedup correlation: links {corr_links:+.3}, max leaf depth {corr_depth:+.3}, leaf-depth σ {corr_stdev:+.3}"
    );

    // Resource frontier: robots whose (compute cycles, LUTs) point no
    // other robot dominates — the morphology-induced Pareto front.
    let pareto = rows
        .iter()
        .filter(|a| {
            !rows.iter().any(|b| {
                (b.cycles <= a.cycles && b.luts < a.luts)
                    || (b.cycles < a.cycles && b.luts <= a.luts)
            })
        })
        .count();
    let _ = writeln!(
        out,
        "resource frontier: {pareto}/{} robots on the (cycles, LUTs) Pareto front at fixed knobs",
        rows.len()
    );
    let _ = writeln!(
        out,
        "(all robots generated by roboshape-zoo from seed {seed}; same seed → same\npopulation, same URDF-round-trippable models, same numbers below)"
    );

    // Machine-readable block: deliberately timestamp-free so CI can
    // byte-compare two same-seed runs.
    let mut json = String::new();
    json.push_str(&format!(
        "{{\"report\":\"ext_zoo\",\"n\":{n},\"seed\":{seed},\"families\":["
    ));
    for (i, (family, agg)) in aggs.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"family\":\"{}\",\"count\":{},\"links_mean\":{:.3},\"max_leaf_depth_mean\":{:.3},\"speedup_mean\":{:.4},\"luts_mean\":{:.1}}}",
            family.name(),
            agg.count,
            agg.links,
            agg.depth,
            agg.speedup,
            agg.luts * 1000.0
        ));
    }
    json.push_str(&format!(
        "],\"pareto_points\":{pareto},\"correlation\":{{\"speedup_vs_links\":{corr_links:.4},\"speedup_vs_max_leaf_depth\":{corr_depth:.4},\"speedup_vs_leaf_depth_stdev\":{corr_stdev:.4}}}}}"
    ));
    roboshape::obs::json::validate(&json).expect("ext_zoo emits well-formed JSON");
    let _ = writeln!(out, "{json}");
    out
}

/// A named report generator: renders one table or figure to a string.
pub type ReportGenerator = fn() -> String;

/// Every report as `(name, generator)`, in presentation order. The
/// generators share the process-wide compilation-pipeline store, so the
/// robots' schedules and block plans are elaborated once across the whole
/// run; the `all` runner times each generator individually.
pub fn report_generators() -> Vec<(&'static str, ReportGenerator)> {
    vec![
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("ext_kernels", ext_kernels),
        ("ext_energy", ext_energy),
        ("ext_soc", ext_soc),
        ("ext_scaling", ext_scaling),
        ("ext_robomorphic", ext_robomorphic),
        ("ext_coschedule", ext_coschedule),
        ("ext_ablation", ext_ablation),
        ("ext_batch", ext_batch),
        ("ext_throughput", ext_throughput),
        ("ext_serve", ext_serve),
        ("ext_chaos", ext_chaos),
        ("ext_zoo", ext_zoo),
        ("verify", verify),
    ]
}

/// Every report rendered, in presentation order.
pub fn all_reports() -> Vec<(&'static str, String)> {
    report_generators()
        .into_iter()
        .map(|(name, f)| (name, f()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_report_is_nonempty_and_runs() {
        for (name, body) in all_reports() {
            assert!(body.len() > 80, "{name} report too short");
        }
    }

    #[test]
    fn ext_zoo_is_seed_deterministic_and_emits_valid_json() {
        let a = ext_zoo_with(16, 7);
        assert_eq!(a, ext_zoo_with(16, 7), "same (n, seed) → same bytes");
        assert_ne!(a, ext_zoo_with(16, 8), "the seed actually matters");
        for family in ["serpentine", "humanoid", "multiarm", "random"] {
            assert!(a.contains(family), "missing {family} rows:\n{a}");
        }
        let json = a
            .lines()
            .rev()
            .find(|l| l.starts_with('{'))
            .expect("machine-readable block");
        roboshape::obs::json::validate(json).expect("well-formed JSON");
    }

    #[test]
    fn fig9_report_contains_speedups() {
        let r = fig9();
        assert!(r.contains("vs CPU"));
        assert!(r.contains("iiwa"));
        assert!(r.contains("Baxter"));
    }

    #[test]
    fn fig16_reports_hyq_arm_infeasible() {
        let r = fig16();
        assert!(r.contains("NO FEASIBLE DESIGN POINT"));
    }

    /// Calibration regression guards: the numbers the reproduction pins
    /// exactly must never drift.
    #[test]
    fn table2_reproduces_the_paper_exactly() {
        let r = table2();
        for value in ["514552", "507158", "873805", "5448", "3008", "3342"] {
            assert!(r.contains(value), "Table 2 lost `{value}`:\n{r}");
        }
        for pct in ["43.5%", "42.9%", "73.9%", "79.6%", "44.0%", "48.9%"] {
            assert!(r.contains(pct), "Table 2 lost `{pct}`");
        }
    }

    #[test]
    fn fig15_minima_sit_at_leg_aligned_blocks() {
        // Parse the block/latency table and check 3, 6, 9 are local minima.
        let r = fig15();
        let mut lat = std::collections::HashMap::new();
        for line in r.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() == 4 {
                if let (Ok(b), Ok(c)) = (fields[0].parse::<usize>(), fields[3].parse::<u64>()) {
                    lat.insert(b, c);
                }
            }
        }
        for aligned in [3usize, 6, 9] {
            let c = lat[&aligned];
            assert!(
                c < lat[&(aligned + 1)],
                "block {aligned} vs {}",
                aligned + 1
            );
            if aligned > 1 {
                assert!(
                    c < lat[&(aligned - 1)],
                    "block {aligned} vs {}",
                    aligned - 1
                );
            }
        }
    }

    #[test]
    fn fig10_io_percentages_are_the_papers() {
        let r = fig10();
        for v in ["84.0%", "90.0%", "91.8%", "3.08x", "2.06x"] {
            assert!(r.contains(v), "Fig 10 lost `{v}`:\n{r}");
        }
    }
}
