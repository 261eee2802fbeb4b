//! Cycle-level simulation of RoboShape-generated accelerators.
//!
//! This is the repository's stand-in for the paper's FPGA (see DESIGN.md's
//! substitution table): the generated design's *real schedules* are
//! executed task by task in schedule order, each task performing the same
//! per-link arithmetic the hardware PEs would (the step functions exported
//! by `roboshape-dynamics`), reading and writing the modelled storage
//! structures of the template architecture (paper Fig. 8):
//!
//! * the RNEA-output buffers (Fig. 8c) hold `X`, `v`, `a`, `f` per link;
//! * derivative state is staged per `(link, seed)` thread, with branch
//!   checkpoint traffic counted (Fig. 8e);
//! * the blocked mass-matrix multiplication executes the NOP-skipping
//!   [`roboshape_blocksparse::BlockMatmulPlan`] with its per-unit
//!   accumulators (Fig. 8f).
//!
//! The simulator *panics* if the schedule ever asks a PE to read a value
//! no earlier task produced — a dynamic re-validation of the scheduler's
//! dependency handling — and its outputs are compared against the
//! reference `Dynamics::fd_derivatives` in the test-suite (and by
//! [`Simulation::verify`]), closing the loop: cycle counts come from a
//! schedule that provably computes the right numbers.
//!
//! # Compile → execute split
//!
//! Because a design's schedule is fixed at generation time, everything
//! about *interpreting* it is computable once per design. The `try_*`
//! entry points therefore run a compiled fast path: [`shared_program`]
//! lowers each design into a [`CompiledProgram`] (flat op array,
//! pre-resolved indices, dependency checks hoisted to compile time) the
//! first time it is seen, and executions run against a per-thread
//! reusable [`SimScratch`] arena — warm evaluations allocate nothing but
//! their output buffers. The original schedule interpreters survive as
//! the `*_interpreted` functions and serve as the bit-exactness oracle:
//! the compiled path is `f64`-identical to them, not merely close.
//!
//! Every evaluation also feeds the global [`roboshape_obs::metrics`]
//! registry: per-traversal-stage cycle histograms (`sim.cycles.*`), a PE
//! occupancy histogram (`sim.pe_occupancy_pct`), and mat-mul op/NOP
//! counters — the numbers the CLI's `--metrics` snapshot and the
//! experiments summary print. Each `simulate*` entry point opens a
//! `cat = "sim"` tracing span.
//!
//! # Examples
//!
//! ```
//! use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs};
//! use roboshape_robots::{zoo, Zoo};
//! use roboshape_sim::simulate;
//!
//! let robot = zoo(Zoo::Hyq);
//! let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(3, 3, 6));
//! let n = robot.num_links();
//! let sim = simulate(&robot, &design, &vec![0.2; n], &vec![0.1; n], &vec![0.5; n]);
//! assert!(sim.verify(&robot, &vec![0.2; n], &vec![0.1; n], &vec![0.5; n]) < 1e-8);
//! ```

#![warn(missing_docs)]

use roboshape_arch::AcceleratorDesign;
use roboshape_dynamics::{bwd_link_step, fwd_link_step, Dynamics, RneaCache};
use roboshape_linalg::{Cholesky, DMat, Vec3};
use roboshape_obs as obs;
use roboshape_spatial::{ForceVec, MotionVec, Xform};
use roboshape_taskgraph::{Stage, TaskKind};
use roboshape_urdf::RobotModel;
use std::collections::HashMap;

mod deriv;
pub mod exec;
pub mod gradients;
pub mod program;
pub mod scratch;

pub use exec::{BackendKind, ExecBackend};
pub use gradients::{AcceleratorGradients, GradientProvider, ReferenceGradients};
pub use program::{shared_program, shared_program_for, CompiledProgram};
pub use scratch::SimScratch;

use std::cell::RefCell;

thread_local! {
    /// Per-thread scratch arena backing the `try_simulate*` convenience
    /// entry points, so plain callers get allocation reuse without
    /// managing a [`SimScratch`] themselves. Servers and sweeps that own
    /// worker threads should hold an explicit arena instead.
    static THREAD_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Runs `f` with this thread's shared scratch arena.
fn with_thread_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// A rejected simulation request: malformed inputs detected before any
/// accelerator work runs.
///
/// The `try_*` entry points return these instead of panicking, so a
/// serving layer can turn a bad request into a typed response without
/// killing a worker thread. The one panicking wrapper, [`simulate`],
/// formats these errors into its panic message.
///
/// Schedule dependency violations remain panics in both flavours: they
/// indicate a scheduler bug, not a bad request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// An input vector's length does not match the robot's link count.
    DimensionMismatch {
        /// Which input (`"q"`, `"qd"`, `"tau"`, `"qdd"`).
        what: &'static str,
        /// The robot's link count.
        expected: usize,
        /// The offending input's length.
        got: usize,
    },
    /// An input vector contains a NaN or infinite value.
    NonFinite {
        /// Which input (`"q"`, `"qd"`, `"tau"`, `"qdd"`).
        what: &'static str,
    },
    /// The design was generated for a different topology than the model.
    TopologyMismatch,
    /// The design was generated for a different kernel than the entry
    /// point drives.
    KernelMismatch {
        /// The kernel this entry point simulates.
        expected: roboshape_arch::KernelKind,
        /// The kernel the design was generated for.
        got: roboshape_arch::KernelKind,
    },
    /// A batched entry point was called with no time steps.
    EmptyBatch,
    /// The mass matrix at `q` is not positive-definite (degenerate or
    /// non-physical configuration).
    NotPositiveDefinite,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what} dimension mismatch: expected {expected}, got {got}"
            ),
            SimError::NonFinite { what } => write!(f, "{what} contains a non-finite value"),
            SimError::TopologyMismatch => write!(f, "design/model topology mismatch"),
            SimError::KernelMismatch { expected, got } => write!(
                f,
                "design was generated for a different kernel: {got:?} (need {expected:?})"
            ),
            SimError::EmptyBatch => write!(f, "need at least one time step"),
            SimError::NotPositiveDefinite => write!(f, "mass matrix must be positive-definite"),
        }
    }
}

impl std::error::Error for SimError {}

/// Validates one input vector: correct length and all-finite entries.
fn check_input(what: &'static str, values: &[f64], n: usize) -> Result<(), SimError> {
    if values.len() != n {
        return Err(SimError::DimensionMismatch {
            what,
            expected: n,
            got: values.len(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(SimError::NonFinite { what });
    }
    Ok(())
}

/// The tracing span/metric category every simulator event is tagged with.
pub const OBS_CATEGORY: &str = "sim";

/// Cycle-histogram bucket bounds (inclusive upper bounds): power-of-two
/// cycle counts spanning single-arm traversals to replicated batches.
const CYCLE_BOUNDS: [u64; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// PE-occupancy histogram bucket bounds: whole-percent deciles.
const OCCUPANCY_BOUNDS: [u64; 9] = [10, 20, 30, 40, 50, 60, 70, 80, 90];

/// Global histogram name for a traversal stage's scheduled cycle span.
fn stage_cycles_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::RneaFwd => "sim.cycles.rnea_fwd",
        Stage::RneaBwd => "sim.cycles.rnea_bwd",
        Stage::GradFwd => "sim.cycles.grad_fwd",
        Stage::GradBwd => "sim.cycles.grad_bwd",
    }
}

/// Records one simulated evaluation into the global metrics registry:
/// per-stage cycle histograms (from the design's schedule, paper Fig. 9's
/// phase breakdown), PE occupancy, and mat-mul op/NOP tallies.
fn record_eval_metrics(design: &AcceleratorDesign, stats: &SimStats) {
    let m = obs::metrics();
    m.counter("sim.evals").add(1);
    m.counter("sim.matmul.ops").add(stats.matmul_ops as u64);
    m.counter("sim.matmul.nops").add(stats.matmul_nops as u64);
    m.counter("sim.checkpoint_restores")
        .add(stats.checkpoint_restores as u64);
    let schedule = design.schedule();
    let graph = design.task_graph();
    for stage in Stage::ALL {
        if let Some((start, end)) = schedule.stage_span(graph, stage) {
            m.histogram(stage_cycles_metric(stage), &CYCLE_BOUNDS)
                .record(end.saturating_sub(start));
        }
    }
    let occupancy_pct = (schedule.utilization() * 100.0).round() as u64;
    m.histogram("sim.pe_occupancy_pct", &OCCUPANCY_BOUNDS)
        .record(occupancy_pct);
}

/// Execution statistics of one simulated kernel evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Compute cycles (pipelined), from the design's schedule + mat-mul.
    pub cycles: u64,
    /// Compute cycles with stage barriers.
    pub cycles_no_pipelining: u64,
    /// Traversal tasks executed.
    pub tasks_executed: usize,
    /// Block mat-mul operations executed (NOPs excluded).
    pub matmul_ops: usize,
    /// Block mat-mul operations skipped as structural NOPs.
    pub matmul_nops: usize,
    /// Branch checkpoint restores implied by the schedule.
    pub checkpoint_restores: usize,
}

/// The outputs of a simulated dynamics-gradient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulation {
    /// Joint torques from the RNEA stage (at the host-supplied q̈).
    pub tau: Vec<f64>,
    /// `∂q̈/∂q` as computed by the accelerator.
    pub dqdd_dq: DMat,
    /// `∂q̈/∂q̇` as computed by the accelerator.
    pub dqdd_dqd: DMat,
    /// Execution statistics.
    pub stats: SimStats,
}

impl Simulation {
    /// Maximum absolute deviation of the simulated gradients from the
    /// reference library's `fd_derivatives` at the same inputs.
    pub fn verify(&self, model: &RobotModel, q: &[f64], qd: &[f64], tau: &[f64]) -> f64 {
        let reference = Dynamics::new(model).fd_derivatives(q, qd, tau);
        let e1 = self
            .dqdd_dq
            .max_abs_diff(&reference.dqdd_dq)
            .unwrap_or(f64::INFINITY);
        let e2 = self
            .dqdd_dqd
            .max_abs_diff(&reference.dqdd_dqd)
            .unwrap_or(f64::INFINITY);
        e1.max(e2)
    }
}

/// Runs the generated accelerator on one dynamics-gradient evaluation.
///
/// Host-side work mirrors the paper's coprocessor deployment (Sec. 5.2):
/// the host computes `q̈ = FD(q, q̇, τ)` and the inverse mass matrix and
/// ships them with the per-link inputs; the accelerator runs the RNEA,
/// the ∇RNEA, and the blocked `M⁻¹` multiplications.
///
/// # Panics
///
/// Panics on input dimension mismatch, on a non-positive-definite mass
/// matrix, or if the design's schedule violates a data dependency (which
/// would indicate a scheduler bug — the test-suite exercises this).
pub fn simulate(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
) -> Simulation {
    try_simulate(model, design, q, qd, tau).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`simulate`]: returns a [`SimError`] instead of
/// panicking on malformed inputs (the entry point the serving layer
/// uses, so a bad request cannot kill a worker thread).
///
/// # Errors
///
/// Returns a [`SimError`] on dimension mismatch, non-finite inputs, a
/// design generated for another topology or kernel, or a
/// non-positive-definite mass matrix.
///
/// # Panics
///
/// Still panics if the design's schedule violates a data dependency —
/// that indicates a scheduler bug, not a bad request.
pub fn try_simulate(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
) -> Result<Simulation, SimError> {
    let _span = obs::span(OBS_CATEGORY, "simulate");
    let program = shared_program(design);
    with_thread_scratch(|scratch| program.execute_gradient(model, scratch, q, qd, tau))
}

/// The original schedule *interpreter* for the dynamics-gradient kernel —
/// kept as the bit-exactness oracle for the compiled fast path (the
/// property tests pin [`try_simulate`] `f64`-identical to this function).
///
/// # Errors
///
/// As [`try_simulate`].
///
/// # Panics
///
/// As [`try_simulate`] (schedule dependency violations).
pub fn try_simulate_interpreted(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
    qd: &[f64],
    tau: &[f64],
) -> Result<Simulation, SimError> {
    let _span = obs::span(OBS_CATEGORY, "simulate-interpreted");
    let n = model.num_links();
    if design.kernel() != roboshape_arch::KernelKind::DynamicsGradient {
        return Err(SimError::KernelMismatch {
            expected: roboshape_arch::KernelKind::DynamicsGradient,
            got: design.kernel(),
        });
    }
    if design.topology() != model.topology() {
        return Err(SimError::TopologyMismatch);
    }
    check_input("q", q, n)?;
    check_input("qd", qd, n)?;
    check_input("tau", tau, n)?;

    // ---- Host side: forward dynamics + inverse mass matrix.
    let dynamics = Dynamics::new(model);
    let qdd = dynamics.forward_dynamics(q, qd, tau);
    let mass = dynamics.mass_matrix(q);
    let minv = Cholesky::new(&mass)
        .map_err(|_| SimError::NotPositiveDefinite)?
        .inverse();

    // ---- Accelerator: traversal stages, executed in schedule order.
    let graph = design.task_graph();
    let topo = model.topology();
    let mut rnea = RneaInterpreter::new(model, &dynamics);
    // Derivative thread state, keyed by (link, seed).
    let mut dstate: HashMap<(usize, usize), deriv::DerivPair> = HashMap::new();
    let mut dacc: HashMap<(usize, usize), deriv::ForcePair> = HashMap::new();
    let mut dtau_dq = DMat::zeros(n, n);
    let mut dtau_dqd = DMat::zeros(n, n);

    let mut executed = 0usize;
    for entry in design.schedule().entries() {
        executed += 1;
        match graph.task(entry.task).kind {
            TaskKind::RneaFwd { link } => rnea.fwd(link, q[link], qd[link], qdd[link]),
            TaskKind::RneaBwd { link } => rnea.bwd(link),
            TaskKind::GradFwd { link, seed } => {
                assert!(rnea.fwd_done[link], "gradient step before RNEA state ready");
                let pair =
                    deriv::grad_fwd(model, topo, link, seed, &rnea.cache, rnea.a_base, &dstate);
                dstate.insert((link, seed), pair);
            }
            TaskKind::GradBwd { link, seed } => {
                assert!(
                    rnea.bwd_done[link],
                    "gradient backward before RNEA force ready"
                );
                let (dq_entry, dqd_entry) =
                    deriv::grad_bwd(topo, link, seed, &rnea.cache, &dstate, &mut dacc);
                dtau_dq[(link, seed)] = dq_entry;
                dtau_dqd[(link, seed)] = dqd_entry;
            }
        }
    }

    // ---- Accelerator: blocked M⁻¹ multiplication (pattern ②, Fig. 8f).
    let plan = design
        .matmul_plan()
        .expect("simulate() drives the dynamics-gradient kernel, which has a mat-mul stage");
    let mut b = DMat::zeros(n, 2 * n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = dtau_dq[(i, j)];
            b[(i, j + n)] = dtau_dqd[(i, j)];
        }
    }
    let c = plan.execute(&minv, &b);
    let mut dqdd_dq = DMat::zeros(n, n);
    let mut dqdd_dqd = DMat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            dqdd_dq[(i, j)] = -c[(i, j)];
            dqdd_dqd[(i, j)] = -c[(i, j + n)];
        }
    }

    Ok(Simulation {
        tau: rnea.cache.tau,
        dqdd_dq,
        dqdd_dqd,
        stats: interpreted_stats(design, executed),
    })
}

/// Simulates a streamed batch of dynamics-gradient evaluations (the
/// paper's Fig. 10 coprocessor workload): returns the per-step
/// simulations and the batched traversal makespan in cycles (add the
/// design's mat-mul latency once per step for a total-compute figure).
///
/// Each step runs through the compiled fast path, so the per-step results
/// are bit-identical to single-request evaluation; the batched makespan
/// comes from scheduling the replicated task graph, memoized per
/// `(program, batch length)` (`sim.batch_schedule.{hit,miss}`) so
/// coalesced serving stops re-running the scheduler per batch.
///
/// # Errors
///
/// Returns [`SimError::EmptyBatch`] for an empty input slice, or the
/// first step's [`SimError`] (steps are validated in order; no partial
/// results are returned).
pub fn try_simulate_batch(
    model: &RobotModel,
    design: &AcceleratorDesign,
    inputs: &[(Vec<f64>, Vec<f64>, Vec<f64>)],
) -> Result<(Vec<Simulation>, u64), SimError> {
    let _span = obs::span(OBS_CATEGORY, "simulate-batch");
    let program = shared_program(design);
    with_thread_scratch(|scratch| program.execute_batch(model, scratch, inputs))
}

/// Interpreted oracle twin of [`try_simulate_batch`]: every step runs the
/// schedule interpreter and the replicated task graph is re-scheduled
/// unconditionally (no memoization).
///
/// # Errors
///
/// As [`try_simulate_batch`].
pub fn try_simulate_batch_interpreted(
    model: &RobotModel,
    design: &AcceleratorDesign,
    inputs: &[(Vec<f64>, Vec<f64>, Vec<f64>)],
) -> Result<(Vec<Simulation>, u64), SimError> {
    let _span = obs::span(OBS_CATEGORY, "simulate-batch-interpreted");
    if inputs.is_empty() {
        return Err(SimError::EmptyBatch);
    }
    let sims: Vec<Simulation> = inputs
        .iter()
        .map(|(q, qd, tau)| try_simulate_interpreted(model, design, q, qd, tau))
        .collect::<Result<_, _>>()?;
    let knobs = design.knobs();
    let replicated = roboshape_taskgraph::TaskGraph::replicate(design.task_graph(), inputs.len());
    let cfg = roboshape_taskgraph::SchedulerConfig::with_pes(knobs.pe_fwd, knobs.pe_bwd);
    let schedule = roboshape_taskgraph::schedule(&replicated, &cfg);
    debug_assert!(schedule.validate(&replicated).is_ok());
    Ok((sims, schedule.makespan()))
}

/// Runs a generated *inverse-dynamics* accelerator
/// ([`roboshape_arch::KernelKind::InverseDynamics`]) on one evaluation:
/// returns the joint torques `τ = RNEA(q, q̇, q̈)` and the stats.
///
/// # Errors
///
/// Returns a [`SimError`] on dimension mismatch, non-finite inputs, or a
/// design generated for another topology or kernel.
pub fn try_simulate_inverse_dynamics(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
) -> Result<(Vec<f64>, SimStats), SimError> {
    let _span = obs::span(OBS_CATEGORY, "simulate-inverse-dynamics");
    let program = shared_program(design);
    with_thread_scratch(|scratch| program.execute_inverse_dynamics(model, scratch, q, qd, qdd))
}

/// Interpreted oracle twin of [`try_simulate_inverse_dynamics`].
///
/// # Errors
///
/// As [`try_simulate_inverse_dynamics`].
pub fn try_simulate_inverse_dynamics_interpreted(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
    qd: &[f64],
    qdd: &[f64],
) -> Result<(Vec<f64>, SimStats), SimError> {
    if design.kernel() != roboshape_arch::KernelKind::InverseDynamics {
        return Err(SimError::KernelMismatch {
            expected: roboshape_arch::KernelKind::InverseDynamics,
            got: design.kernel(),
        });
    }
    if design.topology() != model.topology() {
        return Err(SimError::TopologyMismatch);
    }
    let n = model.num_links();
    check_input("q", q, n)?;
    check_input("qd", qd, n)?;
    check_input("qdd", qdd, n)?;
    let _span = obs::span(OBS_CATEGORY, "simulate-inverse-dynamics-interpreted");
    let graph = design.task_graph();
    let mut rnea = RneaInterpreter::new(model, &Dynamics::new(model));
    let mut executed = 0usize;
    for entry in design.schedule().entries() {
        executed += 1;
        match graph.task(entry.task).kind {
            TaskKind::RneaFwd { link } => rnea.fwd(link, q[link], qd[link], qdd[link]),
            TaskKind::RneaBwd { link } => rnea.bwd(link),
            other => panic!("inverse-dynamics schedules cannot contain {other:?}"),
        }
    }
    debug_assert!(rnea.bwd_done.iter().all(|&b| b));
    Ok((rnea.cache.tau, interpreted_stats(design, executed)))
}

/// Runs a generated *forward-kinematics* accelerator
/// ([`roboshape_arch::KernelKind::ForwardKinematics`]): returns the
/// per-link base→link transforms and the stats.
///
/// # Errors
///
/// Returns a [`SimError`] on dimension mismatch, non-finite inputs, or a
/// design generated for another topology or kernel.
pub fn try_simulate_kinematics(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
) -> Result<(Vec<Xform>, SimStats), SimError> {
    let _span = obs::span(OBS_CATEGORY, "simulate-kinematics");
    let program = shared_program(design);
    with_thread_scratch(|scratch| program.execute_kinematics(model, scratch, q))
}

/// Interpreted oracle twin of [`try_simulate_kinematics`].
///
/// # Errors
///
/// As [`try_simulate_kinematics`].
pub fn try_simulate_kinematics_interpreted(
    model: &RobotModel,
    design: &AcceleratorDesign,
    q: &[f64],
) -> Result<(Vec<Xform>, SimStats), SimError> {
    let n = model.num_links();
    if design.kernel() != roboshape_arch::KernelKind::ForwardKinematics {
        return Err(SimError::KernelMismatch {
            expected: roboshape_arch::KernelKind::ForwardKinematics,
            got: design.kernel(),
        });
    }
    if design.topology() != model.topology() {
        return Err(SimError::TopologyMismatch);
    }
    check_input("q", q, n)?;
    let _span = obs::span(OBS_CATEGORY, "simulate-kinematics-interpreted");
    let graph = design.task_graph();
    let schedule = design.schedule();
    let topo = model.topology();
    let mut x_base = vec![Xform::identity(); n];
    let mut done = vec![false; n];
    let mut executed = 0usize;
    for entry in schedule.entries() {
        let TaskKind::RneaFwd { link } = graph.task(entry.task).kind else {
            panic!("forward-kinematics schedules contain only forward tasks");
        };
        executed += 1;
        let xi = model.joint(link).child_xform(q[link]);
        x_base[link] = match topo.parent(link) {
            Some(p) => {
                assert!(done[p], "schedule read of unready parent pose");
                xi.compose(&x_base[p])
            }
            None => xi,
        };
        done[link] = true;
    }
    Ok((x_base, interpreted_stats(design, executed)))
}

/// The RNEA storage structures (paper Fig. 8c) the interpreted kernels
/// fill as forward and backward tasks retire in schedule order, with the
/// dependency checks every schedule must pass.
struct RneaInterpreter<'a> {
    model: &'a RobotModel,
    /// The base's spatial acceleration (gravity, as a fictitious
    /// acceleration of the base).
    a_base: MotionVec,
    cache: RneaCache,
    fwd_done: Vec<bool>,
    bwd_done: Vec<bool>,
    /// Local (pre-accumulation) forces and the child-accumulation buffers.
    f_local: Vec<ForceVec>,
    f_acc: Vec<ForceVec>,
}

impl<'a> RneaInterpreter<'a> {
    fn new(model: &'a RobotModel, dynamics: &Dynamics) -> RneaInterpreter<'a> {
        let n = model.num_links();
        RneaInterpreter {
            model,
            a_base: MotionVec::from_parts(Vec3::ZERO, -dynamics.gravity()),
            cache: RneaCache {
                xup: vec![Xform::identity(); n],
                v: vec![MotionVec::ZERO; n],
                a: vec![MotionVec::ZERO; n],
                f: vec![ForceVec::ZERO; n],
                tau: vec![0.0; n],
                s: vec![MotionVec::ZERO; n],
                vj: vec![MotionVec::ZERO; n],
                h: vec![ForceVec::ZERO; n],
            },
            fwd_done: vec![false; n],
            bwd_done: vec![false; n],
            f_local: vec![ForceVec::ZERO; n],
            f_acc: vec![ForceVec::ZERO; n],
        }
    }

    /// One forward RNEA task: `link`'s transform, velocity, acceleration
    /// and local force from its parent's retired state.
    fn fwd(&mut self, link: usize, q: f64, qd: f64, qdd: f64) {
        let (model, cache) = (self.model, &mut self.cache);
        let (vp, ap) = match model.topology().parent(link) {
            Some(p) => {
                assert!(self.fwd_done[p], "schedule read of unready parent state");
                (cache.v[p], cache.a[p])
            }
            None => (MotionVec::ZERO, self.a_base),
        };
        let out = fwd_link_step(model, link, q, qd, qdd, vp, ap);
        cache.xup[link] = out.xup;
        cache.v[link] = out.v;
        cache.a[link] = out.a;
        let s = model.joint(link).motion_subspace();
        cache.s[link] = s;
        cache.vj[link] = s * qd;
        cache.h[link] = model.link(link).inertia.apply(out.v);
        self.f_local[link] = out.f;
        self.fwd_done[link] = true;
    }

    /// One backward RNEA task: `link`'s total force and torque, with the
    /// force handed on to its parent's accumulator.
    fn bwd(&mut self, link: usize) {
        let topo = self.model.topology();
        assert!(
            self.fwd_done[link],
            "backward step before forward state ready"
        );
        for &c in topo.children(link) {
            assert!(
                self.bwd_done[c],
                "parent backward step before child retired"
            );
        }
        let f_total = self.f_local[link] + self.f_acc[link];
        self.cache.f[link] = f_total;
        let (t, to_parent) = bwd_link_step(self.model, link, &self.cache.xup[link], f_total);
        self.cache.tau[link] = t;
        if let Some(p) = topo.parent(link) {
            self.f_acc[p] += to_parent;
        }
        self.bwd_done[link] = true;
    }
}

/// The stats of one interpreted evaluation that executed `tasks_executed`
/// schedule entries, recorded into the global metrics registry.
fn interpreted_stats(design: &AcceleratorDesign, tasks_executed: usize) -> SimStats {
    let plan = design.matmul_plan();
    let stats = SimStats {
        cycles: design.compute_cycles(),
        cycles_no_pipelining: design.compute_cycles_no_pipelining(),
        tasks_executed,
        matmul_ops: plan.map_or(0, |p| p.ops().len()),
        matmul_nops: plan.map_or(0, |p| p.skipped_ops()),
        checkpoint_restores: design.schedule().context_switches(design.task_graph()),
    };
    record_eval_metrics(design, &stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_arch::AcceleratorKnobs;
    use roboshape_robots::{random_robot, zoo, RandomRobotConfig, Zoo};

    fn inputs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            (0..n).map(|_| rng.gen_range(-1.2..1.2)).collect(),
            (0..n).map(|_| rng.gen_range(-0.8..0.8)).collect(),
            (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect(),
        )
    }

    #[test]
    fn matches_reference_on_paper_configurations() {
        // The three Table 2 design points.
        let configs = [
            (Zoo::Iiwa, AcceleratorKnobs::symmetric(7, 7)),
            (Zoo::Hyq, AcceleratorKnobs::symmetric(3, 6)),
            (Zoo::Baxter, AcceleratorKnobs::symmetric(4, 4)),
        ];
        for (which, knobs) in configs {
            let robot = zoo(which);
            let design = AcceleratorDesign::generate(robot.topology(), knobs);
            let n = robot.num_links();
            let (q, qd, tau) = inputs(n, 7 + which as u64);
            let sim = simulate(&robot, &design, &q, &qd, &tau);
            let err = sim.verify(&robot, &q, &qd, &tau);
            assert!(
                err < 1e-8,
                "{which:?}: simulated gradients deviate by {err}"
            );
            // The RNEA stage's torques equal the applied torques (q̈ came
            // from forward dynamics with exactly these torques).
            for (i, (simulated, applied)) in sim.tau.iter().zip(&tau).enumerate() {
                assert!((simulated - applied).abs() < 1e-7, "{which:?} τ[{i}]");
            }
        }
    }

    #[test]
    fn matches_reference_across_knob_sweep() {
        let robot = zoo(Zoo::Baxter);
        let n = robot.num_links();
        let (q, qd, tau) = inputs(n, 99);
        for pe in [1, 2, 5, 15] {
            for blk in [1, 4, 7, 15] {
                let design = AcceleratorDesign::generate(
                    robot.topology(),
                    AcceleratorKnobs::new(pe, pe, blk),
                );
                let sim = simulate(&robot, &design, &q, &qd, &tau);
                let err = sim.verify(&robot, &q, &qd, &tau);
                assert!(err < 1e-8, "pe={pe} blk={blk}: {err}");
            }
        }
    }

    #[test]
    fn matches_reference_on_random_robots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let robot = random_robot(
                &mut rng,
                RandomRobotConfig {
                    links: 2 + trial * 2,
                    branch_prob: 0.3,
                    new_limb_prob: 0.25,
                    allow_prismatic: true,
                },
            );
            let n = robot.num_links();
            let knobs = AcceleratorKnobs::new(1 + trial % 3, 1 + (trial + 1) % 3, 1 + trial % 4);
            let design = AcceleratorDesign::generate(robot.topology(), knobs);
            let (q, qd, tau) = inputs(n, 4000 + trial as u64);
            let sim = simulate(&robot, &design, &q, &qd, &tau);
            let err = sim.verify(&robot, &q, &qd, &tau);
            assert!(err < 1e-8, "trial {trial}: {err}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let robot = zoo(Zoo::Hyq);
        let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(3, 3, 3));
        let n = robot.num_links();
        let (q, qd, tau) = inputs(n, 5);
        let sim = simulate(&robot, &design, &q, &qd, &tau);
        assert_eq!(sim.stats.tasks_executed, design.task_graph().len());
        assert!(sim.stats.cycles > 0);
        assert!(sim.stats.cycles <= sim.stats.cycles_no_pipelining);
        // HyQ at block 3: 4 aligned diagonal tiles × 8 B-columns of work,
        // 12 × 8 NOPs skipped.
        assert_eq!(sim.stats.matmul_ops, 32);
        assert_eq!(sim.stats.matmul_nops, 96);
    }

    #[test]
    fn evaluations_record_global_metrics() {
        let m = roboshape_obs::metrics();
        let evals_before = m.counter("sim.evals").get();
        let robot = zoo(Zoo::Jaco3);
        let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(2, 2, 2));
        let n = robot.num_links();
        let (q, qd, tau) = inputs(n, 77);
        simulate(&robot, &design, &q, &qd, &tau);
        assert!(m.counter("sim.evals").get() > evals_before);
        let snap = m.snapshot();
        for stage in Stage::ALL {
            let (_, h) = snap
                .histograms
                .iter()
                .find(|(name, _)| name == stage_cycles_metric(stage))
                .expect("stage cycle histogram registered");
            assert!(h.count > 0, "{stage:?} histogram empty");
        }
        let (_, occ) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "sim.pe_occupancy_pct")
            .expect("occupancy histogram registered");
        assert!(occ.count > 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_length_panics() {
        let robot = zoo(Zoo::Iiwa);
        let design =
            AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::symmetric(2, 2));
        simulate(&robot, &design, &[0.0], &[0.0], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "topology mismatch")]
    fn mismatched_design_panics() {
        let robot = zoo(Zoo::Iiwa);
        let other = zoo(Zoo::Hyq);
        let design =
            AcceleratorDesign::generate(other.topology(), AcceleratorKnobs::symmetric(2, 2));
        let n = robot.num_links();
        simulate(&robot, &design, &vec![0.0; n], &vec![0.0; n], &vec![0.0; n]);
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use roboshape_arch::{AcceleratorKnobs, KernelKind};
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn try_simulate_rejects_malformed_inputs_without_panicking() {
        let robot = zoo(Zoo::Iiwa);
        let n = robot.num_links();
        let design =
            AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::symmetric(2, 2));
        assert_eq!(
            try_simulate(&robot, &design, &[0.0], &vec![0.0; n], &vec![0.0; n]),
            Err(SimError::DimensionMismatch {
                what: "q",
                expected: n,
                got: 1
            })
        );
        let mut bad = vec![0.0; n];
        bad[2] = f64::NAN;
        assert_eq!(
            try_simulate(&robot, &design, &vec![0.0; n], &bad, &vec![0.0; n]),
            Err(SimError::NonFinite { what: "qd" })
        );
        let other = zoo(Zoo::Hyq);
        let foreign =
            AcceleratorDesign::generate(other.topology(), AcceleratorKnobs::symmetric(2, 2));
        assert_eq!(
            try_simulate(
                &robot,
                &foreign,
                &vec![0.0; n],
                &vec![0.0; n],
                &vec![0.0; n]
            ),
            Err(SimError::TopologyMismatch)
        );
        // A well-formed request still succeeds through the same path.
        assert!(try_simulate(&robot, &design, &vec![0.1; n], &vec![0.0; n], &vec![0.2; n]).is_ok());
    }

    #[test]
    fn try_batch_and_kernel_errors_are_typed() {
        let robot = zoo(Zoo::Iiwa);
        let n = robot.num_links();
        let grad = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::symmetric(2, 2));
        assert_eq!(
            try_simulate_batch(&robot, &grad, &[]).unwrap_err(),
            SimError::EmptyBatch
        );
        assert_eq!(
            try_simulate_inverse_dynamics(
                &robot,
                &grad,
                &vec![0.0; n],
                &vec![0.0; n],
                &vec![0.0; n]
            )
            .unwrap_err(),
            SimError::KernelMismatch {
                expected: KernelKind::InverseDynamics,
                got: KernelKind::DynamicsGradient,
            }
        );
        assert_eq!(
            try_simulate_kinematics(&robot, &grad, &vec![0.0; n]).unwrap_err(),
            SimError::KernelMismatch {
                expected: KernelKind::ForwardKinematics,
                got: KernelKind::DynamicsGradient,
            }
        );
        // One bad step poisons the whole batch — no partial results.
        let good = (vec![0.1; n], vec![0.0; n], vec![0.0; n]);
        let bad = (vec![0.1; n - 1], vec![0.0; n], vec![0.0; n]);
        assert!(try_simulate_batch(&robot, &grad, &[good, bad]).is_err());
    }

    #[test]
    fn error_messages_match_the_legacy_panic_phrases() {
        // `simulate` formats SimError into its panic message, and the
        // `#[should_panic(expected = ...)]` tests match on these
        // substrings — keep them stable.
        let msg = SimError::DimensionMismatch {
            what: "q",
            expected: 7,
            got: 1,
        }
        .to_string();
        assert!(msg.contains("dimension mismatch"));
        assert!(SimError::TopologyMismatch
            .to_string()
            .contains("topology mismatch"));
        assert!(SimError::EmptyBatch
            .to_string()
            .contains("at least one time step"));
        let kernel = SimError::KernelMismatch {
            expected: KernelKind::InverseDynamics,
            got: KernelKind::DynamicsGradient,
        }
        .to_string();
        assert!(kernel.contains("different kernel"));
    }
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use roboshape_arch::{AcceleratorKnobs, KernelKind};
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn inverse_dynamics_kernel_matches_reference() {
        for which in Zoo::ALL {
            let robot = zoo(which);
            let n = robot.num_links();
            let m = robot.topology().metrics();
            let design = AcceleratorDesign::generate_for_kernel(
                robot.topology(),
                AcceleratorKnobs::new(m.max_leaf_depth, m.max_descendants, 1),
                KernelKind::InverseDynamics,
            );
            let q: Vec<f64> = (0..n).map(|i| (0.19 * (i as f64 + 1.0)).sin()).collect();
            let qd: Vec<f64> = (0..n).map(|i| 0.3 - 0.04 * i as f64).collect();
            let qdd: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 0.2).collect();
            let (tau, stats) =
                try_simulate_inverse_dynamics(&robot, &design, &q, &qd, &qdd).expect("simulates");
            let reference = Dynamics::new(&robot).rnea(&q, &qd, &qdd);
            for i in 0..n {
                assert!(
                    (tau[i] - reference[i]).abs() < 1e-9,
                    "{which:?} τ[{i}]: {} vs {}",
                    tau[i],
                    reference[i]
                );
            }
            assert_eq!(stats.tasks_executed, 2 * n);
            assert_eq!(stats.matmul_ops, 0);
        }
    }

    #[test]
    fn kinematics_kernel_matches_reference() {
        for which in [Zoo::Iiwa, Zoo::Baxter, Zoo::Jaco3] {
            let robot = zoo(which);
            let n = robot.num_links();
            let design = AcceleratorDesign::generate_for_kernel(
                robot.topology(),
                AcceleratorKnobs::new(3, 3, 1),
                KernelKind::ForwardKinematics,
            );
            let q: Vec<f64> = (0..n).map(|i| 0.2 * (i as f64 + 1.0).cos()).collect();
            let (poses, stats) = try_simulate_kinematics(&robot, &design, &q).expect("simulates");
            let reference = Dynamics::new(&robot).forward_kinematics(&q);
            for (i, pose) in poses.iter().enumerate() {
                let d = pose.to_mat6().distance(&reference.x_base[i].to_mat6());
                assert!(d < 1e-12, "{which:?} link {i}: pose drift {d}");
            }
            assert_eq!(stats.tasks_executed, n);
        }
    }

    #[test]
    fn kernel_designs_order_by_latency() {
        let robot = zoo(Zoo::Baxter);
        let knobs = AcceleratorKnobs::new(4, 4, 4);
        let fk = AcceleratorDesign::generate_for_kernel(
            robot.topology(),
            knobs,
            KernelKind::ForwardKinematics,
        );
        let id = AcceleratorDesign::generate_for_kernel(
            robot.topology(),
            knobs,
            KernelKind::InverseDynamics,
        );
        let grad = AcceleratorDesign::generate(robot.topology(), knobs);
        assert!(fk.compute_cycles() < id.compute_cycles());
        assert!(id.compute_cycles() < grad.compute_cycles());
        assert!(fk.matmul_plan().is_none());
        assert!(id.matmul_plan().is_none());
        assert!(grad.matmul_plan().is_some());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use roboshape_arch::AcceleratorKnobs;
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn batched_simulation_verifies_every_step_and_pipelines() {
        let robot = zoo(Zoo::Hyq);
        let n = robot.num_links();
        let design = AcceleratorDesign::generate(robot.topology(), AcceleratorKnobs::new(3, 3, 3));
        let inputs: Vec<_> = (0..4)
            .map(|k| {
                let f = k as f64;
                (
                    vec![0.1 + 0.05 * f; n],
                    vec![0.2 - 0.02 * f; n],
                    vec![0.3 * f; n],
                )
            })
            .collect();
        let (sims, batched) = try_simulate_batch(&robot, &design, &inputs).expect("simulates");
        assert_eq!(sims.len(), 4);
        for (k, ((q, qd, tau), sim)) in inputs.iter().zip(&sims).enumerate() {
            assert!(sim.verify(&robot, q, qd, tau) < 1e-8, "step {k}");
        }
        // Streaming pipelines: 4 steps take less than 4× one step but at
        // least one step.
        let single = design.schedule().makespan();
        assert!(batched >= single);
        assert!(batched < 4 * single, "batched {batched} vs 4x{single}");
    }
}
