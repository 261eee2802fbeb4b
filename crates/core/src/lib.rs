//! # RoboShape
//!
//! A Rust reproduction of *RoboShape: Using Topology Patterns to Scalably
//! and Flexibly Deploy Accelerators Across Robots* (ISCA 2023).
//!
//! RoboShape generates hardware accelerators for the forward-dynamics
//! gradient kernel — the bottleneck of nonlinear optimal motion control —
//! directly from a robot's *topology*: the tree of rigid links and joints
//! described by its URDF file. Two topology-scalable computational
//! patterns drive the generator:
//!
//! 1. **topology traversals** (forward/backward sweeps over the link
//!    tree: RNEA inverse dynamics and its `O(N²)` analytical gradient),
//!    which become PE task schedules;
//! 2. **topology-based `N×N` matrices** (the mass matrix, whose block
//!    sparsity mirrors limb independence), which become NOP-skipping
//!    blocked matrix-multiply plans.
//!
//! The [`Framework`] type is the paper's Fig. 7 flow end to end: URDF in,
//! accelerator out — with the design's schedules, Verilog, resource and
//! latency estimates, a cycle-level simulation that *computes the real
//! gradients* (verified against the reference dynamics library), and the
//! CPU/GPU baseline comparisons.
//!
//! ```
//! use roboshape::{Constraints, Framework};
//!
//! // Build from a URDF document (here: the bundled Baxter-like torso).
//! let urdf = roboshape_robots::zoo_urdf(roboshape_robots::Zoo::Baxter);
//! let framework = Framework::from_urdf(&urdf)?;
//!
//! // Constrain resources like the paper's Baxter deployment and generate.
//! let accel = framework.generate(Constraints::new(4, 4, 4));
//! assert_eq!(accel.knobs().pe_fwd, 4);
//! assert!(accel.design().compute_cycles() > 0);
//!
//! // The generated accelerator computes correct dynamics gradients.
//! let n = accel.robot().num_links();
//! let (q, qd, tau) = (vec![0.2; n], vec![0.1; n], vec![0.4; n]);
//! let sim = accel.simulate(&q, &qd, &tau);
//! assert!(sim.verify(accel.robot(), &q, &qd, &tau) < 1e-8);
//! # Ok::<(), roboshape::UrdfError>(())
//! ```

#![deny(missing_docs)]

pub mod kernels;

pub use roboshape_obs as obs;

pub use roboshape_arch::{
    clock_period_ns, power, rc_design, rc_resources, AcceleratorDesign, AcceleratorKnobs, DseModel,
    FullDesignModel, KernelKind, MatmulUnits, Platform, PowerModel, PowerReport, Resources,
    StorageReport, UTILIZATION_THRESHOLD,
};
pub use roboshape_baselines::{
    batched_computation, coprocessor_roundtrip, initiation_interval_cycles, single_computation,
    LatencyReport, RoundtripReport, WorkProfile,
};
pub use roboshape_blocksparse::{
    BlockMatmulPlan, BlockTiling, FactorError, IoModel, MatmulLatencyModel, SparsityPattern,
    TopologyCholesky,
};
pub use roboshape_codegen::{check_bundle, emit_verilog, lint, VerilogBundle};
pub use roboshape_dse::{
    co_design, constrained_selection, design_space_stats, evaluate_strategies,
    evaluate_strategies_with, pareto_frontier, sweep_design_space,
    sweep_design_space_exhaustive_with, sweep_design_space_grid, sweep_design_space_grid_with,
    sweep_design_space_pruned, sweep_design_space_pruned_with, sweep_design_space_with,
    verify_frontier, AllocationStrategy, ConstrainedSelection, DesignPoint, DesignSpaceStats,
    FrontierVerification, PrunedSweep, Quartiles, SocAllocation, StrategyOutcome, SweepGrid,
    FRAG_HITS_METRIC as DSE_FRAG_HITS_METRIC, FRAG_MISSES_METRIC as DSE_FRAG_MISSES_METRIC,
};
pub use roboshape_dynamics::{Dynamics, FdDerivatives, ForwardKinematics, RneaDerivatives};
pub use roboshape_pipeline::{
    ArtifactStore, FragmentHasher, FragmentId, PatternKind, Pipeline, PipelineObserver,
    PipelineReport, PipelineStage, StageReport, StoreStats, OBS_CATEGORY as PIPELINE_OBS_CATEGORY,
    POINTS_METRIC as PIPELINE_POINTS_METRIC,
};
pub use roboshape_sim::{
    shared_program, shared_program_for, simulate, simulate_batch, simulate_inverse_dynamics,
    simulate_kinematics, try_simulate, try_simulate_batch, try_simulate_batch_interpreted,
    try_simulate_interpreted, try_simulate_inverse_dynamics, try_simulate_kinematics,
    AcceleratorGradients, BackendKind, CompiledProgram, ExecBackend, GradientProvider,
    ReferenceGradients, SimError, SimScratch, SimStats, Simulation,
};
pub use roboshape_spatial::{inertia_pattern, joint_transform_pattern, Pattern6};
pub use roboshape_taskgraph::{schedule, Schedule, SchedulerConfig, Stage, TaskCosts, TaskGraph};
pub use roboshape_topology::{ParallelismProfile, Topology, TopologyMetrics};
pub use roboshape_urdf::{parse_urdf, write_urdf, RobotBuilder, RobotModel, UrdfError};

/// Compute-resource constraints for accelerator generation (the paper's
/// second framework input, Fig. 7): the maximum forward/backward traversal
/// PEs and the maximum matrix block size the target platform affords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraints {
    /// Maximum forward-traversal PEs.
    pub max_pe_fwd: usize,
    /// Maximum backward-traversal PEs.
    pub max_pe_bwd: usize,
    /// Maximum mat-mul block size.
    pub max_block: usize,
}

impl Constraints {
    /// Creates a constraint set.
    ///
    /// # Panics
    ///
    /// Panics if any bound is zero.
    pub fn new(max_pe_fwd: usize, max_pe_bwd: usize, max_block: usize) -> Constraints {
        assert!(
            max_pe_fwd > 0 && max_pe_bwd > 0 && max_block > 0,
            "constraints must be positive"
        );
        Constraints {
            max_pe_fwd,
            max_pe_bwd,
            max_block,
        }
    }

    /// No practical limits (every knob may go up to the robot size).
    pub fn unconstrained() -> Constraints {
        Constraints {
            max_pe_fwd: usize::MAX,
            max_pe_bwd: usize::MAX,
            max_block: usize::MAX,
        }
    }
}

/// The RoboShape framework bound to one robot (paper Fig. 7).
///
/// All generation goes through a staged compilation [`Pipeline`] —
/// by default the process-wide [`Pipeline::global`], so frameworks bound
/// to the same robot (and repeated sweeps, strategy studies and report
/// generators) share one warmed artifact store. Use
/// [`Framework::with_pipeline`] to isolate a framework on its own store.
#[derive(Debug, Clone)]
pub struct Framework {
    robot: RobotModel,
    pipeline: Pipeline,
}

impl Framework {
    /// Parses a URDF document and binds the framework to it (Fig. 7a).
    ///
    /// # Errors
    ///
    /// Returns a [`UrdfError`] for malformed robot descriptions.
    pub fn from_urdf(urdf: &str) -> Result<Framework, UrdfError> {
        let _span = obs::span(
            roboshape_pipeline::OBS_CATEGORY,
            PipelineStage::Parse.name(),
        );
        let pipeline = Pipeline::global().clone();
        let robot = pipeline
            .observer()
            .time(PipelineStage::Parse, || parse_urdf(urdf))?;
        Ok(Framework { robot, pipeline })
    }

    /// Binds the framework to an already-built robot model.
    pub fn from_model(robot: RobotModel) -> Framework {
        Framework {
            robot,
            pipeline: Pipeline::global().clone(),
        }
    }

    /// Rebinds the framework to an explicit compilation pipeline (e.g. a
    /// cold one for cache-effect measurements).
    pub fn with_pipeline(mut self, pipeline: Pipeline) -> Framework {
        self.pipeline = pipeline;
        self
    }

    /// The compilation pipeline the framework generates through.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The bound robot.
    pub fn robot(&self) -> &RobotModel {
        &self.robot
    }

    /// The robot's topology metrics (Table 3).
    pub fn metrics(&self) -> TopologyMetrics {
        let _span = obs::span(
            roboshape_pipeline::OBS_CATEGORY,
            PipelineStage::Topology.name(),
        );
        self.pipeline
            .observer()
            .time(PipelineStage::Topology, || self.robot.topology().metrics())
    }

    /// Chooses knob values under the given constraints: the Hybrid
    /// heuristic of Sec. 5.4 capped by the constraints (forward PEs = max
    /// leaf depth, backward PEs = max descendants), and the latency-minimal
    /// block size within the allowed range (Sec. 4.3).
    pub fn choose_knobs(&self, constraints: Constraints) -> AcceleratorKnobs {
        let m = self.metrics();
        let pe_fwd = m.max_leaf_depth.min(constraints.max_pe_fwd).max(1);
        let pe_bwd = m.max_descendants.min(constraints.max_pe_bwd).max(1);
        // Block size: minimize the blocked-mat-mul latency (NOP skipping
        // vs padding waste), per-link units. Latencies come from the
        // pipeline's fragment store, so a prior sweep makes this a pure
        // lookup, and no block plan is built until a design needs one.
        let block = self
            .pipeline
            .fastest_block(self.robot.topology(), constraints.max_block);
        AcceleratorKnobs::new(pe_fwd, pe_bwd, block)
    }

    /// Generates an accelerator under the given resource constraints:
    /// knob selection, task-graph scheduling, blocked-mat-mul planning and
    /// architecture elaboration (Fig. 7b–d).
    pub fn generate(&self, constraints: Constraints) -> Accelerator {
        let knobs = self.choose_knobs(constraints);
        self.generate_with_knobs(knobs)
    }

    /// Generates an accelerator at an explicit knob setting. Schedules,
    /// patterns, block plans and the compiled simulation program are
    /// reused from the pipeline's artifact store when present.
    pub fn generate_with_knobs(&self, knobs: AcceleratorKnobs) -> Accelerator {
        let design =
            self.pipeline
                .design(self.robot.topology(), knobs, KernelKind::DynamicsGradient);
        // Warm the Programs stage too, so the accelerator's first
        // simulation starts from a compiled program shared with every
        // other consumer of the design.
        self.pipeline
            .compiled_program(self.robot.topology(), knobs, KernelKind::DynamicsGradient);
        Accelerator {
            robot: self.robot.clone(),
            design,
        }
    }

    /// Sweeps the robot's full design space (Fig. 12) through the
    /// framework's pipeline.
    pub fn design_space(&self) -> Vec<DesignPoint> {
        sweep_design_space_with(&self.pipeline, self.robot.topology())
    }
}

/// A generated accelerator: the elaborated design plus everything a
/// deployment needs — Verilog, simulation, baselines, I/O model.
#[derive(Debug, Clone)]
pub struct Accelerator {
    robot: RobotModel,
    design: AcceleratorDesign,
}

impl Accelerator {
    /// The robot the accelerator was generated for.
    pub fn robot(&self) -> &RobotModel {
        &self.robot
    }

    /// The elaborated design (schedules, plans, storage, resources).
    pub fn design(&self) -> &AcceleratorDesign {
        &self.design
    }

    /// The knob setting.
    pub fn knobs(&self) -> &AcceleratorKnobs {
        self.design.knobs()
    }

    /// Emits the design as structural Verilog (Fig. 7d).
    pub fn verilog(&self) -> VerilogBundle {
        emit_verilog(&self.design)
    }

    /// Runs the cycle-level simulator on one evaluation: real arithmetic
    /// through the generated schedules.
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    pub fn simulate(&self, q: &[f64], qd: &[f64], tau: &[f64]) -> Simulation {
        simulate(&self.robot, &self.design, q, qd, tau)
    }

    /// Single-computation latency comparison vs the CPU/GPU baselines
    /// (Fig. 9).
    pub fn latency_report(&self) -> LatencyReport {
        single_computation(&self.design)
    }

    /// Coprocessor roundtrip model for a batch of time steps (Fig. 10).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn roundtrip(&self, steps: usize) -> RoundtripReport {
        coprocessor_roundtrip(&self.design, steps)
    }

    /// Full-design resource estimate (Table 2 model).
    pub fn resources(&self) -> Resources {
        self.design.full_resources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_robots::{zoo, zoo_urdf, Zoo};

    #[test]
    fn urdf_to_accelerator_end_to_end() {
        let fw = Framework::from_urdf(&zoo_urdf(Zoo::Hyq)).unwrap();
        assert_eq!(fw.robot().num_links(), 12);
        let accel = fw.generate(Constraints::new(3, 3, 6));
        assert_eq!(accel.knobs().pe_fwd, 3);
        assert_eq!(accel.knobs().pe_bwd, 3);
        let v = accel.verilog();
        assert!(v.file("roboshape_top.v").is_some());
    }

    #[test]
    fn knob_choice_follows_hybrid_heuristic() {
        let fw = Framework::from_model(zoo(Zoo::Jaco3));
        let knobs = fw.choose_knobs(Constraints::unconstrained());
        // Jaco-3: max leaf depth 8 forward, max descendants 12 backward.
        assert_eq!(knobs.pe_fwd, 8);
        assert_eq!(knobs.pe_bwd, 12);
    }

    #[test]
    fn block_choice_aligns_with_limbs() {
        // HyQ's legs are 3 links: leg-aligned block sizes minimize NOP
        // padding, so the chosen block must be a multiple of 3 (or 1,
        // which also has zero padding but more ops).
        let fw = Framework::from_model(zoo(Zoo::Hyq));
        let knobs = fw.choose_knobs(Constraints::unconstrained());
        assert!(
            knobs.block_size.is_multiple_of(3),
            "expected leg-aligned block, got {}",
            knobs.block_size
        );
    }

    #[test]
    fn capped_block_choices_are_pinned() {
        // The latency-minimal block size under caps 1..=8 on a fresh
        // pipeline: the first block size reaching the minimum wins ties.
        let pinned: [(Zoo, [usize; 8]); 6] = [
            (Zoo::Iiwa, [1, 2, 3, 4, 4, 4, 7, 7]),
            (Zoo::Hyq, [1, 2, 3, 3, 3, 3, 3, 3]),
            (Zoo::Baxter, [1, 2, 3, 4, 5, 5, 5, 8]),
            (Zoo::Jaco2, [1, 2, 3, 4, 5, 5, 5, 5]),
            (Zoo::Jaco3, [1, 2, 3, 4, 4, 6, 6, 8]),
            (Zoo::HyqArm, [1, 2, 3, 3, 3, 3, 3, 3]),
        ];
        let got = pinned.map(|(robot, _)| {
            let fw = Framework::from_model(zoo(robot)).with_pipeline(Pipeline::new());
            let caps: [usize; 8] = std::array::from_fn(|i| i + 1);
            (
                robot,
                caps.map(|cap| fw.choose_knobs(Constraints::new(1, 1, cap)).block_size),
            )
        });
        assert_eq!(got, pinned);
    }

    #[test]
    fn constraints_cap_the_knobs() {
        let fw = Framework::from_model(zoo(Zoo::Baxter));
        let knobs = fw.choose_knobs(Constraints::new(2, 3, 2));
        assert!(knobs.pe_fwd <= 2 && knobs.pe_bwd <= 3 && knobs.block_size <= 2);
    }

    #[test]
    fn generated_accelerator_computes_correct_gradients() {
        let fw = Framework::from_model(zoo(Zoo::Iiwa));
        let accel = fw.generate(Constraints::new(7, 7, 7));
        let n = 7;
        let q: Vec<f64> = (0..n).map(|i| 0.2 * i as f64 - 0.5).collect();
        let qd = vec![0.3; n];
        let tau = vec![0.1; n];
        let sim = accel.simulate(&q, &qd, &tau);
        assert!(sim.verify(accel.robot(), &q, &qd, &tau) < 1e-8);
    }

    #[test]
    fn reports_are_consistent() {
        let fw = Framework::from_model(zoo(Zoo::Iiwa));
        let accel = fw.generate(Constraints::unconstrained());
        let single = accel.latency_report();
        let rt = accel.roundtrip(4);
        assert!(single.fpga_us > 0.0);
        assert!(rt.compute.fpga_us >= single.fpga_us);
        assert!(rt.roundtrip_us() > rt.compute.fpga_us);
        assert!(accel.resources().luts > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_constraint_panics() {
        Constraints::new(0, 1, 1);
    }

    #[test]
    fn design_space_size() {
        let fw = Framework::from_model(zoo(Zoo::Iiwa));
        assert_eq!(fw.design_space().len(), 343);
    }
}
