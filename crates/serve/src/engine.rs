//! The in-process serving engine: per-robot designs and accelerator
//! instances run by one bounded executor pool, deadline-aware batching,
//! backpressure, a per-robot circuit breaker with analytical-model
//! degradation, and graceful drain. Chaos (deterministic fault
//! injection) hooks in here too.

use crate::fault::{Admission, CircuitBreaker, CircuitState, FailureOutcome, FaultPlan, FaultSite};
use crate::queue::{EdfQueue, Pending};
use crate::{
    BAD_REQUEST_METRIC, BATCHES_METRIC, BATCH_SIZE_BOUNDS, BATCH_SIZE_METRIC,
    CIRCUIT_CLOSES_METRIC, CIRCUIT_OPEN_METRIC, CIRCUIT_TRIPS_METRIC, CRASHED_METRIC,
    DEADLINE_METRIC, DEGRADED_METRIC, FAULT_CORRUPT_METRIC, FAULT_CRASH_METRIC,
    FAULT_PRESSURE_METRIC, FAULT_STALL_METRIC, LATENCY_BOUNDS_US, LATENCY_METRIC,
    MIXED_REQUESTS_METRIC, OBS_CATEGORY, QUEUE_DEPTH_METRIC, REQUESTS_METRIC, RESPONSES_METRIC,
    ROLLOUT_REQUESTS_METRIC, ROLLOUT_STEPS_METRIC, SHED_METRIC, WORKER_RESTARTS_METRIC,
};
use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs, KernelKind};
use roboshape_obs as obs;
use roboshape_pipeline::Pipeline;
use roboshape_sim::{BackendKind, CompiledProgram, SimError, SimScratch, Simulation};
use roboshape_topology::Topology;
use roboshape_urdf::RobotModel;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing, scheduling, and resilience knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Bounded per-robot queue depth; a full queue sheds new requests.
    pub queue_capacity: usize,
    /// Maximum ∇FD requests coalesced into one batched execution.
    pub max_batch: usize,
    /// Simulated accelerator instances per robot: at most this many of
    /// one robot's batches execute at once (with more than one robot
    /// registered, also at most one fewer than the pool has threads, so
    /// no robot holds them all). Instances are not threads; the engine's
    /// one executor pool runs every robot's instances and has at least
    /// this many threads.
    pub workers_per_robot: usize,
    /// Start with the executor pool paused (requests queue but do not
    /// execute until [`Engine::resume`]) — a test/bench hook that makes
    /// batch coalescing deterministic.
    pub start_paused: bool,
    /// Deadline applied at admission to requests that carry none — the
    /// per-request timeout budget. `None` leaves them best-effort.
    pub default_deadline: Option<Duration>,
    /// Consecutive failures before a robot's circuit trips open.
    pub circuit_threshold: u32,
    /// How long an open circuit waits before half-opening for a probe.
    pub circuit_cooldown: Duration,
    /// Deterministic fault injection; `None` disables chaos entirely.
    pub chaos: Option<crate::fault::FaultConfig>,
    /// Execution backend for the ∇FD and inverse-dynamics programs.
    /// [`BackendKind::Lanes`] executes coalesced batches four requests
    /// per operation (remainders fall back to scalar inside the
    /// backend, bit-identically); forward kinematics always runs the
    /// scalar path.
    pub backend: BackendKind,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            queue_capacity: 64,
            max_batch: 8,
            workers_per_robot: 2,
            start_paused: false,
            default_deadline: None,
            circuit_threshold: 3,
            circuit_cooldown: Duration::from_millis(250),
            chaos: None,
            backend: BackendKind::Lanes,
        }
    }
}

/// Why a request did not produce a payload. Overload, lateness, and
/// worker failure are first-class, typed outcomes — the engine never
/// panics at a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed before admission: queue at capacity, or engine shutting down.
    Rejected {
        /// Human-readable shed reason (e.g. `"queue full"`).
        reason: String,
    },
    /// The deadline passed while the request was still queued.
    DeadlineExceeded,
    /// No robot registered under this name.
    UnknownRobot(String),
    /// The request failed validation or simulation (dimension mismatch,
    /// non-finite input, non-positive-definite mass matrix, …).
    BadRequest(String),
    /// The accelerator instance executing this request crashed before
    /// producing a result. The request was not completed and is safe to
    /// retry; the engine replaces the instance behind the scenes.
    WorkerCrashed,
}

impl ServeError {
    /// Whether a client may safely retry the request. Sheds and worker
    /// crashes are transient (the request never completed); deadline
    /// expiry and validation errors would fail again identically.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ServeError::Rejected { .. } | ServeError::WorkerCrashed
        )
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::UnknownRobot(name) => write!(f, "unknown robot: {name}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::WorkerCrashed => write!(f, "worker crashed; retry"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> ServeError {
        ServeError::BadRequest(e.to_string())
    }
}

/// What a request asks the accelerator to run: a single kernel
/// evaluation, or a trajectory-level workload chaining kernels
/// worker-side so one ticket covers the whole horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkKind {
    /// One evaluation of one generated kernel.
    Kernel(KernelKind),
    /// `steps` sequential ∇FD evaluations with the state fed forward
    /// between steps ([`crate::workload::advance`]); MPC-style horizon.
    /// The request's deadline covers the *whole* rollout.
    Rollout {
        /// Horizon length; must be ≥ 1.
        steps: u32,
    },
    /// An ID→∇FD→FK chain on one state: torques from inverse dynamics
    /// feed the gradient kernel, whose state feeds forward kinematics.
    MixedPipeline,
}

impl WorkKind {
    /// The kernel whose accelerator design sizes, schedules, and
    /// (when degraded) prices this work. Trajectory workloads are
    /// gradient-dominated, so they bind to the ∇FD design.
    pub fn design_kernel(self) -> KernelKind {
        match self {
            WorkKind::Kernel(k) => k,
            WorkKind::Rollout { .. } | WorkKind::MixedPipeline => KernelKind::DynamicsGradient,
        }
    }

    /// Whether requests of this kind may coalesce into one batched
    /// execution. Only independent single-step ∇FD evaluations qualify:
    /// rollouts and mixed chains carry sequential dependence, so they
    /// execute alone (and, popped one at a time, cannot starve the
    /// coalescable batches queued around them).
    pub fn is_coalescable(self) -> bool {
        self == WorkKind::Kernel(KernelKind::DynamicsGradient)
    }
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkKind::Kernel(k) => write!(f, "{k:?}"),
            WorkKind::Rollout { steps } => write!(f, "Rollout({steps})"),
            WorkKind::MixedPipeline => write!(f, "MixedPipeline"),
        }
    }
}

/// One kernel evaluation request against a registered robot.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Name the robot was registered under.
    pub robot: String,
    /// Which work to run.
    pub kind: WorkKind,
    /// Joint positions (all kernels).
    pub q: Vec<f64>,
    /// Joint velocities (∇FD and inverse dynamics; empty for FK).
    pub qd: Vec<f64>,
    /// Third input: torques `τ` for ∇FD, accelerations `q̈` for inverse
    /// dynamics; empty for FK.
    pub tau: Vec<f64>,
    /// Relative deadline from submission; `None` = best effort (or the
    /// engine's [`EngineConfig::default_deadline`], if set).
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    /// A ∇FD (dynamics-gradient) request.
    pub fn gradient(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        tau: Vec<f64>,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Kernel(KernelKind::DynamicsGradient),
            q,
            qd,
            tau,
            deadline: None,
        }
    }

    /// A trajectory rollout: `steps` sequential ∇FD evaluations with
    /// state fed forward worker-side (`tau` held constant across the
    /// horizon). One ticket, one response carrying the final state.
    pub fn rollout(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        tau: Vec<f64>,
        steps: u32,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Rollout { steps },
            q,
            qd,
            tau,
            deadline: None,
        }
    }

    /// A mixed ID→∇FD→FK chain on one state (`qdd` rides in the third
    /// input slot, as for [`ServeRequest::inverse_dynamics`]).
    pub fn mixed(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        qdd: Vec<f64>,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::MixedPipeline,
            q,
            qd,
            tau: qdd,
            deadline: None,
        }
    }

    /// An inverse-dynamics request (`tau` carries `q̈`).
    pub fn inverse_dynamics(
        robot: impl Into<String>,
        q: Vec<f64>,
        qd: Vec<f64>,
        qdd: Vec<f64>,
    ) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Kernel(KernelKind::InverseDynamics),
            q,
            qd,
            tau: qdd,
            deadline: None,
        }
    }

    /// A forward-kinematics request.
    pub fn kinematics(robot: impl Into<String>, q: Vec<f64>) -> ServeRequest {
        ServeRequest {
            robot: robot.into(),
            kind: WorkKind::Kernel(KernelKind::ForwardKinematics),
            q,
            qd: Vec::new(),
            tau: Vec::new(),
            deadline: None,
        }
    }

    /// Sets a relative deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> ServeRequest {
        self.deadline = Some(deadline);
        self
    }
}

/// Health of one registered robot, as reported by [`Engine::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RobotHealth {
    /// Name the robot was registered under.
    pub name: String,
    /// Its circuit breaker's current state.
    pub circuit: CircuitState,
    /// Accelerator instances serving this robot: the configured
    /// [`EngineConfig::workers_per_robot`] while the engine runs (a
    /// crashed instance is replaced at once), 0 once it is shut down.
    pub workers_alive: u32,
}

/// Engine-wide readiness snapshot: the health endpoint's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// `true` when the engine is accepting work and every registered
    /// robot has at least one accelerator instance.
    pub ready: bool,
    /// Per-robot health, sorted by name.
    pub robots: Vec<RobotHealth>,
}

/// A successful kernel evaluation, as returned to clients.
#[derive(Debug, Clone, PartialEq)]
pub enum ServePayload {
    /// ∇FD outputs: torques plus both gradients (row-major `n × n`).
    Gradient {
        /// RNEA-stage joint torques.
        tau: Vec<f64>,
        /// `∂q̈/∂q`, row-major.
        dqdd_dq: Vec<f64>,
        /// `∂q̈/∂q̇`, row-major.
        dqdd_dqd: Vec<f64>,
        /// Simulated accelerator cycles for this evaluation.
        cycles: u64,
    },
    /// Inverse-dynamics output: `τ = RNEA(q, q̇, q̈)`.
    InverseDynamics {
        /// Joint torques.
        tau: Vec<f64>,
        /// Simulated accelerator cycles.
        cycles: u64,
    },
    /// Forward-kinematics output: base→link poses, 12 values per link
    /// (row-major 3×3 rotation, then translation x/y/z).
    Kinematics {
        /// Flattened poses, `12 × n` values.
        poses: Vec<f64>,
        /// Simulated accelerator cycles.
        cycles: u64,
    },
    /// Rollout output: the final state after `steps` integrations plus
    /// the *last* step's ∇FD outputs (the ones an MPC loop consumes).
    Rollout {
        /// Horizon actually executed.
        steps: u32,
        /// Joint positions after the final step.
        q_final: Vec<f64>,
        /// Joint velocities after the final step.
        qd_final: Vec<f64>,
        /// Last step's RNEA-stage joint torques.
        tau: Vec<f64>,
        /// Last step's `∂q̈/∂q`, row-major.
        dqdd_dq: Vec<f64>,
        /// Last step's `∂q̈/∂q̇`, row-major.
        dqdd_dqd: Vec<f64>,
        /// Simulated accelerator cycles summed over the whole horizon.
        cycles: u64,
    },
    /// Mixed-pipeline output: the ID-stage torques, the ∇FD gradients
    /// they induced, and the FK poses of the input state.
    Mixed {
        /// Inverse-dynamics joint torques (fed to the gradient stage).
        tau: Vec<f64>,
        /// `∂q̈/∂q`, row-major.
        dqdd_dq: Vec<f64>,
        /// `∂q̈/∂q̇`, row-major.
        dqdd_dqd: Vec<f64>,
        /// Flattened base→link poses, 12 values per link.
        poses: Vec<f64>,
        /// Simulated accelerator cycles summed over the three kernels.
        cycles: u64,
    },
    /// Degraded answer from the analytical clock-period model, returned
    /// while the robot's circuit is open: the design's *static* latency
    /// estimate in place of simulated outputs. Clients treat this as a
    /// valid (if lower-fidelity) response, not a retryable failure.
    Degraded {
        /// The kernel the estimate is for.
        kind: KernelKind,
        /// Analytical compute cycles (schedule makespan + mat-muls).
        cycles: u64,
        /// The design's critical-path clock period in nanoseconds.
        clock_ns: f64,
        /// Analytical end-to-end latency estimate in microseconds.
        latency_us: f64,
    },
    /// Health/readiness snapshot (the response to a health probe).
    Health(HealthReport),
}

impl ServePayload {
    /// Simulated accelerator cycles, whatever the kernel. Degraded
    /// answers report the analytical estimate; health probes report 0.
    pub fn cycles(&self) -> u64 {
        match self {
            ServePayload::Gradient { cycles, .. }
            | ServePayload::InverseDynamics { cycles, .. }
            | ServePayload::Kinematics { cycles, .. }
            | ServePayload::Rollout { cycles, .. }
            | ServePayload::Mixed { cycles, .. }
            | ServePayload::Degraded { cycles, .. } => *cycles,
            ServePayload::Health(_) => 0,
        }
    }

    /// Whether this is a degraded (analytical-model) answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, ServePayload::Degraded { .. })
    }
}

/// The outcome a [`Ticket`] resolves to.
pub type ServeResult = Result<ServePayload, ServeError>;

struct TicketCell {
    slot: Mutex<Option<ServeResult>>,
    cv: Condvar,
    resolved: AtomicBool,
    /// Set *after* the slot is written; [`Ticket::watch`] keys off this
    /// (not `resolved`, which flips before the result is readable).
    published: AtomicBool,
    watcher: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// A handle to an in-flight request; resolves exactly once.
#[derive(Clone)]
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    pub(crate) fn new() -> Ticket {
        Ticket {
            cell: Arc::new(TicketCell {
                slot: Mutex::new(None),
                cv: Condvar::new(),
                resolved: AtomicBool::new(false),
                published: AtomicBool::new(false),
                watcher: Mutex::new(None),
            }),
        }
    }

    pub(crate) fn fulfill(&self, result: ServeResult) {
        let claimed = self.claim();
        debug_assert!(claimed, "ticket fulfilled twice");
        if claimed {
            self.publish(result);
        }
    }

    /// Claims the right to resolve the ticket; returns whether *this*
    /// call won it. Crash cleanup claims first so an already-answered
    /// request is never clobbered with `WorkerCrashed`, and so it can
    /// account for the crash before [`Ticket::publish`] makes the result
    /// visible to waiters.
    pub(crate) fn claim(&self) -> bool {
        self.cell
            .resolved
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Stores the result of a ticket this caller [claimed](Ticket::claim)
    /// and wakes its waiters and watcher.
    pub(crate) fn publish(&self, result: ServeResult) {
        {
            let mut slot = self.cell.slot.lock().expect("ticket poisoned");
            *slot = Some(result);
            self.cell.cv.notify_all();
        }
        // Publish-then-notify: the flag flips only once the slot holds
        // the result, so a watcher registered concurrently either lands
        // in the mutex (and is taken below) or sees `published` and runs
        // itself — never both, never before the result is readable.
        self.cell.published.store(true, Ordering::SeqCst);
        let watcher = self
            .cell
            .watcher
            .lock()
            .expect("ticket watcher poisoned")
            .take();
        if let Some(callback) = watcher {
            callback();
        }
    }

    /// Blocks until the engine resolves this request.
    pub fn wait(&self) -> ServeResult {
        let mut slot = self.cell.slot.lock().expect("ticket poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cell.cv.wait(slot).expect("ticket poisoned");
        }
    }

    /// Non-blocking probe; `None` while still in flight.
    pub fn try_take(&self) -> Option<ServeResult> {
        self.cell.slot.lock().expect("ticket poisoned").take()
    }

    /// Registers a completion callback, invoked exactly once when the
    /// ticket resolves (immediately, on the caller's thread, if it
    /// already has). After the callback runs, [`Ticket::try_take`] is
    /// guaranteed to return the result. This is how the event-driven
    /// front-end learns of completions without parking a thread per
    /// request: the callback just enqueues a done-marker and pokes the
    /// owning loop's waker, so it must be cheap and must not block.
    ///
    /// Only one watcher is supported; a second registration replaces the
    /// first (the server registers exactly one per ticket).
    pub fn watch(&self, callback: impl FnOnce() + Send + 'static) {
        let mut watcher = self.cell.watcher.lock().expect("ticket watcher poisoned");
        if self.cell.published.load(Ordering::SeqCst) {
            drop(watcher);
            callback();
        } else {
            *watcher = Some(Box::new(callback));
        }
    }
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Ticket(..)")
    }
}

/// Point-in-time snapshot of the engine's own counters (the same events
/// also feed the global `serve.*` metrics, which aggregate across
/// engines; these are per-engine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests completed with a payload.
    pub completed: u64,
    /// Requests shed at admission (queue full / shutting down).
    pub shed: u64,
    /// Requests expired while queued.
    pub deadline_exceeded: u64,
    /// Requests failing validation or simulation.
    pub bad_requests: u64,
    /// Batched executions dispatched.
    pub batches: u64,
    /// Largest number of requests coalesced into one execution.
    pub largest_batch: u64,
    /// Tickets resolved to [`ServeError::WorkerCrashed`].
    pub crashed: u64,
    /// Requests answered from the analytical model (circuit open).
    pub degraded: u64,
    /// Crashed accelerator instances replaced (each crash drops the
    /// instance's scratch arena; the next batch binds a fresh one).
    pub worker_restarts: u64,
    /// Circuit-breaker transitions to open (trips and probe re-opens).
    pub circuit_trips: u64,
    /// Requests hit by an injected pre-execution stall.
    pub injected_stalls: u64,
    /// Requests hit by an injected worker crash.
    pub injected_crashes: u64,
    /// Admissions shed as injected queue pressure.
    pub injected_pressure: u64,
}

impl EngineStats {
    /// Total tickets resolved, successfully or not. Excludes `shed`,
    /// which never received a ticket; includes `degraded`, which
    /// resolves at admission.
    pub fn responses(&self) -> u64 {
        self.completed + self.deadline_exceeded + self.bad_requests + self.crashed + self.degraded
    }
}

#[derive(Default)]
struct StatCells {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    bad_requests: AtomicU64,
    batches: AtomicU64,
    largest_batch: AtomicU64,
    crashed: AtomicU64,
    degraded: AtomicU64,
    worker_restarts: AtomicU64,
    circuit_trips: AtomicU64,
    injected_stalls: AtomicU64,
    injected_crashes: AtomicU64,
    injected_pressure: AtomicU64,
}

/// One registered robot: its model, the three kernel designs and their
/// compiled simulation programs, its queue and accelerator instances,
/// and its circuit breaker.
struct RobotSlot {
    model: RobotModel,
    designs: HashMap<KernelKind, Arc<AcceleratorDesign>>,
    /// Compiled once at registration (through the pipeline's Programs
    /// stage, so every engine in the process shares one compile per
    /// design); instances execute these against their own scratch.
    programs: HashMap<KernelKind, Arc<CompiledProgram>>,
    lane: Mutex<Lane>,
    breaker: CircuitBreaker,
}

/// A robot's dispatch state: its bounded EDF queue and its accelerator
/// instances, under one lock so every listing decision sees both.
struct Lane {
    queue: EdfQueue,
    /// The scratch of each instance not running a batch; the others run.
    /// Filled with unbound arenas at registration (an arena binds on its
    /// first batch), so it allocates nothing until work arrives.
    idle: Vec<WorkerScratch>,
    /// The robot's entries on the engine's ready list.
    listed: usize,
}

/// An accelerator instance's persistent scratch arenas, one per kernel so a mixed
/// request stream never thrashes the program↔scratch binding (a rebind
/// reallocates; a bound arena executes allocation-free).
#[derive(Default)]
struct WorkerScratch {
    gradient: SimScratch,
    inverse_dynamics: SimScratch,
    kinematics: SimScratch,
}

impl WorkerScratch {
    fn for_kernel(&mut self, kind: KernelKind) -> &mut SimScratch {
        match kind {
            KernelKind::DynamicsGradient => &mut self.gradient,
            KernelKind::InverseDynamics => &mut self.inverse_dynamics,
            KernelKind::ForwardKinematics => &mut self.kinematics,
        }
    }
}

/// What `execute` did with a popped batch.
enum ExecOutcome {
    /// Every live ticket in the batch was resolved.
    Completed,
    /// An injected crash fired: the batch's unresolved tickets are the
    /// caller's to clean up, and the instance must be replaced.
    InjectedCrash,
}

struct EngineInner {
    cfg: EngineConfig,
    plan: Option<FaultPlan>,
    pipeline: Pipeline,
    robots: RwLock<HashMap<String, Arc<RobotSlot>>>,
    /// Robots with queued work and a free instance, in listing order; a
    /// robot at most once per free instance and per queued request.
    /// Pause and close flip under this lock.
    ready: Mutex<VecDeque<Arc<RobotSlot>>>,
    /// Wakes pool threads: a robot was listed, or pause/close changed.
    work: Condvar,
    /// The executor pool's threads, spawned with the engine; shutdown
    /// joins them.
    pool: Mutex<Vec<JoinHandle<()>>>,
    /// The pool's size.
    threads: usize,
    /// Set once a second robot registers.
    shared: AtomicBool,
    paused: AtomicBool,
    closed: AtomicBool,
    depth: AtomicU64,
    seq: AtomicU64,
    open_circuits: AtomicU64,
    stats: StatCells,
}

/// The accelerator-as-a-service runtime. Cheap to clone (a handle).
///
/// See the crate docs for the execution model; in short: registered
/// robots get kernel designs built through a warmed
/// [`roboshape_pipeline::Pipeline`] plus
/// [`EngineConfig::workers_per_robot`] simulated accelerator instances,
/// one executor pool (spawned with the engine, whatever the number of
/// robots) runs every robot's instances, and [`Engine::submit`] enqueues
/// work under EDF with explicit shedding, a per-robot circuit breaker,
/// and optional deterministic fault injection.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// An engine sharing the process-wide warmed artifact store (every
    /// engine in the process reuses cached graphs/schedules/plans).
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine::with_pipeline(cfg, Pipeline::with_store(Pipeline::global().store_handle()))
    }

    /// An engine over a caller-supplied pipeline (isolated stores in
    /// tests, or a pre-warmed one in benchmarks).
    pub fn with_pipeline(cfg: EngineConfig, pipeline: Pipeline) -> Engine {
        preregister_metrics();
        // Enough threads to keep every CPU busy, and never fewer than one
        // robot's instances so a lone robot can use all of them.
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(cfg.workers_per_robot.max(1));
        let inner = Arc::new(EngineInner {
            paused: AtomicBool::new(cfg.start_paused),
            plan: cfg.chaos.map(FaultPlan::new),
            cfg,
            pipeline,
            robots: RwLock::new(HashMap::new()),
            ready: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            pool: Mutex::new(Vec::new()),
            threads,
            shared: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            depth: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            open_circuits: AtomicU64::new(0),
            stats: StatCells::default(),
        });
        *inner.pool.lock().expect("pool poisoned") = (0..threads)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || pool_loop(&inner))
            })
            .collect();
        Engine { inner }
    }

    /// The engine's fault plan, when chaos is configured. The server
    /// front-end shares it to corrupt response frames on the wire.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.plan
    }

    /// Registers `model` under `name`: builds its ∇FD, inverse-dynamics
    /// and forward-kinematics designs through the pipeline (topology-
    /// derived default knobs). It spawns nothing: the engine's executor
    /// pool runs the robot's instances. Re-registering an existing name
    /// is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Engine::shutdown`].
    pub fn register(&self, name: impl Into<String>, model: RobotModel) {
        let name = name.into();
        let inner = &self.inner;
        assert!(
            !inner.closed.load(Ordering::SeqCst),
            "register after shutdown"
        );
        let _span = obs::span(OBS_CATEGORY, "register");
        if inner
            .robots
            .read()
            .expect("robots poisoned")
            .contains_key(&name)
        {
            return;
        }
        let topo = model.topology().clone();
        let knobs = default_knobs(&inner.pipeline, &topo);
        let kernels = [
            KernelKind::DynamicsGradient,
            KernelKind::InverseDynamics,
            KernelKind::ForwardKinematics,
        ];
        let designs = kernels
            .into_iter()
            .map(|kernel| {
                (
                    kernel,
                    Arc::new(inner.pipeline.design(&topo, knobs, kernel)),
                )
            })
            .collect();
        let programs = kernels
            .into_iter()
            .map(|kernel| {
                // The FK kernel has no batched entry point; keep it on
                // the scalar backend so its cache entry is shared with
                // direct `try_simulate_kinematics` users.
                let backend = match kernel {
                    KernelKind::ForwardKinematics => BackendKind::Scalar,
                    _ => inner.cfg.backend,
                };
                (
                    kernel,
                    inner
                        .pipeline
                        .compiled_program_for(&topo, knobs, kernel, backend),
                )
            })
            .collect();
        let slot = Arc::new(RobotSlot {
            model,
            designs,
            programs,
            lane: Mutex::new(Lane {
                queue: EdfQueue::new(inner.cfg.queue_capacity),
                idle: (0..inner.instances())
                    .map(|_| WorkerScratch::default())
                    .collect(),
                listed: 0,
            }),
            breaker: CircuitBreaker::new(inner.cfg.circuit_threshold, inner.cfg.circuit_cooldown),
        });
        // A lost register race is a no-op: the first registration wins.
        let mut robots = inner.robots.write().expect("robots poisoned");
        robots.entry(name).or_insert(slot);
        if robots.len() > 1 {
            inner.shared.store(true, Ordering::Relaxed);
        }
    }

    /// Names of all registered robots, sorted.
    pub fn robots(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .robots
            .read()
            .expect("robots poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The design a robot's `kind` requests execute on — lets tests and
    /// benchmarks re-run the exact same accelerator directly and compare
    /// served responses bit-for-bit.
    pub fn design_for(&self, robot: &str, kind: KernelKind) -> Option<Arc<AcceleratorDesign>> {
        self.inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(robot)
            .and_then(|slot| slot.designs.get(&kind).cloned())
    }

    /// Number of links of a registered robot.
    pub fn num_links(&self, robot: &str) -> Option<usize> {
        self.inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(robot)
            .map(|slot| slot.model.num_links())
    }

    /// The circuit-breaker state of a registered robot.
    pub fn circuit_state(&self, robot: &str) -> Option<CircuitState> {
        self.inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(robot)
            .map(|slot| slot.breaker.state())
    }

    /// A readiness snapshot: per-robot circuit state and accelerator
    /// instance count, plus an overall `ready` verdict. This is what the
    /// TCP front-end serves for health probes.
    pub fn health(&self) -> HealthReport {
        let closed = self.inner.closed.load(Ordering::SeqCst);
        let instances = if closed { 0 } else { self.inner.instances() };
        let mut report: Vec<RobotHealth> = self
            .inner
            .robots
            .read()
            .expect("robots poisoned")
            .iter()
            .map(|(name, slot)| RobotHealth {
                name: name.clone(),
                circuit: slot.breaker.state(),
                workers_alive: instances as u32,
            })
            .collect();
        report.sort_by(|a, b| a.name.cmp(&b.name));
        let ready = !closed && report.iter().all(|r| r.workers_alive > 0);
        HealthReport {
            ready,
            robots: report,
        }
    }

    /// Submits a request. `Ok` means the [`Ticket`] will resolve exactly
    /// once (possibly to an error, possibly immediately — a degraded
    /// answer resolves before `submit` returns). `Err` means the request
    /// never entered a queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownRobot`] for an unregistered name,
    /// [`ServeError::BadRequest`] for malformed inputs (checked here, at
    /// admission), [`ServeError::Rejected`] when the robot's queue is
    /// full, synthetic queue pressure fires, or the engine is shutting
    /// down.
    pub fn submit(&self, req: ServeRequest) -> Result<Ticket, ServeError> {
        let inner = &self.inner;
        let _span = obs::span(OBS_CATEGORY, "submit");
        if inner.closed.load(Ordering::SeqCst) {
            inner.stats.shed.fetch_add(1, Ordering::Relaxed);
            obs::metrics().counter(SHED_METRIC).add(1);
            return Err(ServeError::Rejected {
                reason: "shutting down".into(),
            });
        }
        let slot = inner
            .robots
            .read()
            .expect("robots poisoned")
            .get(&req.robot)
            .cloned()
            .ok_or_else(|| ServeError::UnknownRobot(req.robot.clone()))?;
        if let Err(e) = validate(&slot.model, &req) {
            inner.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            obs::metrics().counter(BAD_REQUEST_METRIC).add(1);
            return Err(e);
        }
        // The admission sequence number is the key for every engine-side
        // fault decision, so the schedule is a pure function of the seed.
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = inner.plan {
            if plan.fires(FaultSite::QueuePressure, seq) {
                inner
                    .stats
                    .injected_pressure
                    .fetch_add(1, Ordering::Relaxed);
                obs::metrics().counter(FAULT_PRESSURE_METRIC).add(1);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                obs::metrics().counter(SHED_METRIC).add(1);
                return Err(ServeError::Rejected {
                    reason: "chaos: injected queue pressure".into(),
                });
            }
        }
        let probe = match slot.breaker.admit() {
            Admission::Normal => false,
            Admission::Probe => true,
            Admission::Degrade => {
                inner.stats.degraded.fetch_add(1, Ordering::Relaxed);
                obs::metrics().counter(DEGRADED_METRIC).add(1);
                obs::metrics().counter(RESPONSES_METRIC).add(1);
                obs::metrics()
                    .histogram(LATENCY_METRIC, &LATENCY_BOUNDS_US)
                    .record(0);
                let ticket = Ticket::new();
                ticket.fulfill(Ok(degraded_payload(&slot, &req)));
                return Ok(ticket);
            }
        };
        let now = Instant::now();
        let deadline = req.deadline.or(inner.cfg.default_deadline);
        let pending = Pending {
            deadline: deadline.map(|d| now + d),
            seq,
            req,
            enqueued: now,
            ticket: Ticket::new(),
            probe,
        };
        let ticket = pending.ticket.clone();
        // Count the request *before* it becomes visible to the pool — a
        // pool thread may pop and decrement the instant the push lands.
        let depth = inner.depth.fetch_add(1, Ordering::Relaxed) + 1;
        let mut lane = slot.lane.lock().expect("robot lane poisoned");
        let pushed = lane.queue.try_push(pending);
        if pushed.is_ok() {
            list_if_runnable(inner, &slot, &mut lane);
        }
        drop(lane);
        match pushed {
            Ok(()) => {
                inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
                obs::metrics().counter(REQUESTS_METRIC).add(1);
                obs::metrics().gauge(QUEUE_DEPTH_METRIC).set(depth as f64);
                Ok(ticket)
            }
            Err(_shed) => {
                inner.depth.fetch_sub(1, Ordering::Relaxed);
                inner.stats.shed.fetch_add(1, Ordering::Relaxed);
                obs::metrics().counter(SHED_METRIC).add(1);
                if probe {
                    // The probe never reached an instance; release its slot
                    // (counts as a failed probe — the pool gave no
                    // evidence of health).
                    record_circuit_failure(inner, &slot, true);
                }
                Err(ServeError::Rejected {
                    reason: "queue full".into(),
                })
            }
        }
    }

    /// Pauses the executor pool: accepted requests queue but do not
    /// execute. Batches already running finish.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::SeqCst);
    }

    /// Resumes a paused executor pool.
    pub fn resume(&self) {
        self.inner
            .wake_all(|| self.inner.paused.store(false, Ordering::SeqCst));
    }

    /// Current per-engine counters.
    pub fn stats(&self) -> EngineStats {
        let s = &self.inner.stats;
        EngineStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
            deadline_exceeded: s.deadline_exceeded.load(Ordering::Relaxed),
            bad_requests: s.bad_requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            largest_batch: s.largest_batch.load(Ordering::Relaxed),
            crashed: s.crashed.load(Ordering::Relaxed),
            degraded: s.degraded.load(Ordering::Relaxed),
            worker_restarts: s.worker_restarts.load(Ordering::Relaxed),
            circuit_trips: s.circuit_trips.load(Ordering::Relaxed),
            injected_stalls: s.injected_stalls.load(Ordering::Relaxed),
            injected_crashes: s.injected_crashes.load(Ordering::Relaxed),
            injected_pressure: s.injected_pressure.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stops admitting, overrides a pause, executes
    /// everything already queued (every accepted ticket resolves — a
    /// crashed instance is replaced even mid-drain), then joins the
    /// executor pool. Idempotent; later calls wait for the first one's
    /// drain.
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.wake_all(|| inner.closed.store(true, Ordering::SeqCst));
        let _span = obs::span(OBS_CATEGORY, "shutdown");
        // Joining under the lock makes a concurrent call wait too.
        let mut pool = inner.pool.lock().expect("pool poisoned");
        for handle in pool.drain(..) {
            let _ = handle.join();
        }
        obs::metrics().gauge(QUEUE_DEPTH_METRIC).set(0.0);
    }
}

impl EngineInner {
    /// Accelerator instances per robot.
    fn instances(&self) -> usize {
        self.cfg.workers_per_robot.max(1)
    }

    /// Most batches one robot may run at once: all its instances while
    /// it is the only robot, else at most one fewer than the pool has
    /// threads, so a robot with long batches (rollouts, stalls) always
    /// leaves a thread to the others.
    fn max_running(&self) -> usize {
        if self.shared.load(Ordering::Relaxed) {
            self.instances().min(self.threads - 1).max(1)
        } else {
            self.instances()
        }
    }

    /// Instances of a robot that may start a batch now.
    fn free_instances(&self, lane: &Lane) -> usize {
        let running = self.instances() - lane.idle.len();
        self.max_running().saturating_sub(running)
    }

    /// Flips a pause/close flag under the ready-list lock, so no pool
    /// thread can check the flag and then miss the wake-up, and wakes
    /// every pool thread.
    fn wake_all(&self, flip: impl FnOnce()) {
        let ready = self.ready.lock().expect("ready list poisoned");
        flip();
        drop(ready);
        self.work.notify_all();
    }
}

/// Touch every resilience metric once so `--metrics` snapshots always
/// contain the full `serve.circuit.*` / `serve.fault.*` vocabulary, even
/// before (or without) any fault firing.
fn preregister_metrics() {
    let m = obs::metrics();
    for name in [
        CRASHED_METRIC,
        DEGRADED_METRIC,
        CIRCUIT_TRIPS_METRIC,
        CIRCUIT_CLOSES_METRIC,
        FAULT_STALL_METRIC,
        FAULT_CRASH_METRIC,
        FAULT_CORRUPT_METRIC,
        FAULT_PRESSURE_METRIC,
        WORKER_RESTARTS_METRIC,
        ROLLOUT_REQUESTS_METRIC,
        ROLLOUT_STEPS_METRIC,
        MIXED_REQUESTS_METRIC,
    ] {
        m.counter(name).add(0);
    }
    m.gauge(CIRCUIT_OPEN_METRIC).set(0.0);
}

/// Admission-time validation, so malformed requests fail fast with a
/// typed error instead of occupying queue space.
fn validate(model: &RobotModel, req: &ServeRequest) -> Result<(), ServeError> {
    let n = model.num_links();
    let check = |what: &str, values: &[f64]| -> Result<(), ServeError> {
        if values.len() != n {
            return Err(ServeError::BadRequest(format!(
                "{what} dimension mismatch: expected {n}, got {}",
                values.len()
            )));
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::BadRequest(format!(
                "{what} contains a non-finite value"
            )));
        }
        Ok(())
    };
    check("q", &req.q)?;
    if let WorkKind::Rollout { steps } = req.kind {
        if steps == 0 {
            return Err(ServeError::BadRequest(
                "rollout horizon must be at least 1 step".into(),
            ));
        }
    }
    match req.kind {
        WorkKind::Kernel(KernelKind::ForwardKinematics) => Ok(()),
        WorkKind::Kernel(KernelKind::DynamicsGradient | KernelKind::InverseDynamics)
        | WorkKind::Rollout { .. }
        | WorkKind::MixedPipeline => {
            check("qd", &req.qd)?;
            check("tau", &req.tau)
        }
    }
}

/// Topology-derived default knobs, mirroring the framework's Hybrid
/// heuristic: forward PEs track leaf depth, backward PEs track the
/// largest subtree, and the block size minimises the blocked-mat-mul
/// latency under the default model ([`Pipeline::fastest_block`]: closed
/// form through the fragment store; only the chosen block's plan is
/// built, when the design is assembled).
fn default_knobs(pipeline: &Pipeline, topo: &Topology) -> AcceleratorKnobs {
    let m = topo.metrics();
    let block = pipeline.fastest_block(topo, m.total_links);
    AcceleratorKnobs::new(m.max_leaf_depth.max(1), m.max_descendants.max(1), block)
}

/// The degraded answer: the design's analytical latency estimate (clock
/// period × schedule makespan), no simulation involved. Trajectory
/// workloads scale the estimate across their chain: a rollout multiplies
/// the ∇FD estimate by its horizon, a mixed chain sums the three
/// kernels' estimates.
fn degraded_payload(slot: &RobotSlot, req: &ServeRequest) -> ServePayload {
    match req.kind {
        WorkKind::Kernel(kind) => {
            let design = &slot.designs[&kind];
            ServePayload::Degraded {
                kind,
                cycles: design.compute_cycles(),
                clock_ns: design.clock_ns(),
                latency_us: design.compute_latency_us(),
            }
        }
        WorkKind::Rollout { steps } => {
            let design = &slot.designs[&KernelKind::DynamicsGradient];
            ServePayload::Degraded {
                kind: KernelKind::DynamicsGradient,
                cycles: design.compute_cycles() * u64::from(steps),
                clock_ns: design.clock_ns(),
                latency_us: design.compute_latency_us() * f64::from(steps),
            }
        }
        WorkKind::MixedPipeline => {
            let grad = &slot.designs[&KernelKind::DynamicsGradient];
            let (cycles, latency_us) = slot.designs.values().fold((0u64, 0.0), |(c, l), design| {
                (c + design.compute_cycles(), l + design.compute_latency_us())
            });
            ServePayload::Degraded {
                kind: KernelKind::DynamicsGradient,
                cycles,
                clock_ns: grad.clock_ns(),
                latency_us,
            }
        }
    }
}

/// Records a breaker failure and keeps the trip counter and open-robot
/// gauge consistent with the resulting transition.
fn record_circuit_failure(inner: &EngineInner, slot: &RobotSlot, probe: bool) {
    match slot.breaker.on_failure(probe) {
        FailureOutcome::Tripped => {
            inner.stats.circuit_trips.fetch_add(1, Ordering::Relaxed);
            obs::metrics().counter(CIRCUIT_TRIPS_METRIC).add(1);
            let open = inner.open_circuits.fetch_add(1, Ordering::Relaxed) + 1;
            obs::metrics().gauge(CIRCUIT_OPEN_METRIC).set(open as f64);
        }
        FailureOutcome::Reopened => {
            // The gauge never dropped while half-open; count the trip
            // only.
            inner.stats.circuit_trips.fetch_add(1, Ordering::Relaxed);
            obs::metrics().counter(CIRCUIT_TRIPS_METRIC).add(1);
        }
        FailureOutcome::Unchanged => {}
    }
}

/// Records a breaker success; a probe success closing the circuit drops
/// the open-robot gauge and counts a close.
fn record_circuit_success(inner: &EngineInner, slot: &RobotSlot, probe: bool) {
    if slot.breaker.on_success(probe) {
        obs::metrics().counter(CIRCUIT_CLOSES_METRIC).add(1);
        let open = inner
            .open_circuits
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        obs::metrics().gauge(CIRCUIT_OPEN_METRIC).set(open as f64);
    }
}

/// Lists `slot` on the ready list once per free instance and per queued
/// request, minus the entries it already has, waking one pool thread
/// per new entry: a burst arriving while the robot is listed still
/// splits over its instances. Called with the robot's lane locked (lock
/// order: lane, then ready list).
fn list_if_runnable(inner: &EngineInner, slot: &Arc<RobotSlot>, lane: &mut Lane) {
    let wanted = inner.free_instances(lane).min(lane.queue.len());
    if lane.listed >= wanted {
        return;
    }
    let mut ready = inner.ready.lock().expect("ready list poisoned");
    for _ in lane.listed..wanted {
        ready.push_back(Arc::clone(slot));
        inner.work.notify_one();
    }
    lane.listed = wanted;
}

/// One executor-pool thread: takes the next listed robot, runs one
/// batch on one of its instances, and repeats. Exits once the engine is
/// closed and nothing is listed; a robot with work left is listed again
/// by whichever thread releases its instance, so the drain completes.
fn pool_loop(inner: &EngineInner) {
    while let Some(slot) = next_listed(inner) {
        let Some((batch, scratch)) = claim_instance(inner, &slot) else {
            continue;
        };
        let scratch = run_batch(inner, &slot, scratch, batch);
        release_instance(inner, &slot, scratch);
    }
}

/// Blocks until a robot is listed (and the pool is not paused), then
/// takes it off the list; `None` once the engine is closed and the list
/// is empty.
fn next_listed(inner: &EngineInner) -> Option<Arc<RobotSlot>> {
    let mut ready = inner.ready.lock().expect("ready list poisoned");
    loop {
        let closed = inner.closed.load(Ordering::SeqCst);
        // Shutdown overrides pause so a paused engine still drains.
        if closed || !inner.paused.load(Ordering::SeqCst) {
            if let Some(slot) = ready.pop_front() {
                return Some(slot);
            }
            if closed {
                return None;
            }
        }
        ready = inner.work.wait(ready).expect("ready list poisoned");
    }
}

/// Pops a batch for one free instance of a robot just taken off the
/// ready list, and lists the robot again if work and another free
/// instance remain. Returns the batch and the instance's scratch; `None`
/// when an earlier claim already popped the work this entry was listed
/// for.
fn claim_instance(
    inner: &EngineInner,
    slot: &Arc<RobotSlot>,
) -> Option<(Vec<Pending>, WorkerScratch)> {
    let mut lane = slot.lane.lock().expect("robot lane poisoned");
    lane.listed -= 1;
    if inner.free_instances(&lane) == 0 {
        return None;
    }
    let batch = lane.queue.pop_batch(inner.cfg.max_batch)?;
    let scratch = lane.idle.pop().expect("a free instance has scratch");
    list_if_runnable(inner, slot, &mut lane);
    Some((batch, scratch))
}

/// Frees the instance a batch ran on, handing back its scratch, and
/// lists the robot again if work is waiting.
fn release_instance(inner: &EngineInner, slot: &Arc<RobotSlot>, scratch: WorkerScratch) {
    let mut lane = slot.lane.lock().expect("robot lane poisoned");
    lane.idle.push(scratch);
    list_if_runnable(inner, slot, &mut lane);
}

/// Executes one popped batch on an instance's scratch, coalescing
/// compatible ∇FD requests, and returns the scratch. When the batch
/// crashed (injected or a real panic), its unresolved tickets resolve
/// to `WorkerCrashed` and the instance is replaced: its scratch is
/// dropped, since a panic mid-evaluation may leave consumed-on-read
/// accumulators dirty, and a fresh unbound one is returned.
fn run_batch(
    inner: &EngineInner,
    slot: &RobotSlot,
    mut scratch: WorkerScratch,
    batch: Vec<Pending>,
) -> WorkerScratch {
    let depth = inner
        .depth
        .fetch_sub(batch.len() as u64, Ordering::Relaxed)
        .saturating_sub(batch.len() as u64);
    obs::metrics().gauge(QUEUE_DEPTH_METRIC).set(depth as f64);
    // Keep enough of each request to clean up after a crash: the
    // ticket, its probe flag, and its enqueue time (for latency).
    let tickets: Vec<(Ticket, bool, Instant)> = batch
        .iter()
        .map(|p| (p.ticket.clone(), p.probe, p.enqueued))
        .collect();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(inner, slot, &mut scratch, batch)
    }));
    if matches!(outcome, Ok(ExecOutcome::Completed)) {
        return scratch;
    }
    drop(scratch);
    inner.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
    obs::metrics().counter(WORKER_RESTARTS_METRIC).add(1);
    for (ticket, probe, enqueued) in tickets {
        if !ticket.claim() {
            continue;
        }
        // Account before publishing, as `submit` does: whoever wakes on
        // the ticket already sees the crash counted.
        inner.stats.crashed.fetch_add(1, Ordering::Relaxed);
        obs::metrics().counter(CRASHED_METRIC).add(1);
        obs::metrics().counter(RESPONSES_METRIC).add(1);
        let latency_us = enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
        obs::metrics()
            .histogram(LATENCY_METRIC, &LATENCY_BOUNDS_US)
            .record(latency_us);
        record_circuit_failure(inner, slot, probe);
        ticket.publish(Err(ServeError::WorkerCrashed));
    }
    WorkerScratch::default()
}

fn execute(
    inner: &EngineInner,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    batch: Vec<Pending>,
) -> ExecOutcome {
    let _span = obs::span(OBS_CATEGORY, "execute");
    let now = Instant::now();
    // Late requests are resolved without spending accelerator cycles.
    let (live, expired): (Vec<Pending>, Vec<Pending>) = batch
        .into_iter()
        .partition(|p| p.deadline.is_none_or(|d| d >= now));
    for p in expired {
        inner
            .stats
            .deadline_exceeded
            .fetch_add(1, Ordering::Relaxed);
        obs::metrics().counter(DEADLINE_METRIC).add(1);
        if p.probe {
            // An expired probe is evidence the pool is too slow: release
            // the probe slot as a failure.
            record_circuit_failure(inner, slot, true);
        }
        respond(&p, Err(ServeError::DeadlineExceeded));
    }
    if live.is_empty() {
        return ExecOutcome::Completed;
    }

    // Chaos: stall first (bounded, deterministic per request), then
    // crash. Both are keyed on the admission sequence number, so the
    // schedule is identical across same-seed runs.
    if let Some(plan) = inner.plan {
        let mut stall = Duration::ZERO;
        let mut stalled = 0u64;
        for p in &live {
            if plan.fires(FaultSite::WorkerStall, p.seq) {
                stall += plan.stall_duration(p.seq);
                stalled += 1;
            }
        }
        if stalled > 0 {
            inner
                .stats
                .injected_stalls
                .fetch_add(stalled, Ordering::Relaxed);
            obs::metrics().counter(FAULT_STALL_METRIC).add(stalled);
            std::thread::sleep(stall);
        }
        let crash_marked = live
            .iter()
            .filter(|p| plan.fires(FaultSite::WorkerCrash, p.seq))
            .count() as u64;
        if crash_marked > 0 {
            inner
                .stats
                .injected_crashes
                .fetch_add(crash_marked, Ordering::Relaxed);
            obs::metrics().counter(FAULT_CRASH_METRIC).add(crash_marked);
            // Die before dispatch: `run_batch` resolves the batch's
            // tickets to `WorkerCrashed` and replaces the instance.
            return ExecOutcome::InjectedCrash;
        }
    }

    inner.stats.batches.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .largest_batch
        .fetch_max(live.len() as u64, Ordering::Relaxed);
    obs::metrics().counter(BATCHES_METRIC).add(1);
    obs::metrics()
        .histogram(BATCH_SIZE_METRIC, &BATCH_SIZE_BOUNDS)
        .record(live.len() as u64);

    dispatch_batch(inner, slot, scratch, &live);
    ExecOutcome::Completed
}

/// The single submit/respond path every kernel shares: try the batched
/// program entry point when the kernel has one and the batch is
/// coalesced, otherwise (or on a failed batched call, so one bad input
/// cannot fail its neighbours) execute request by request. Backend
/// routing lives inside the program: a lane-backend program runs whole
/// groups of four through the SoA path and remainders through scalar,
/// bit-identically.
fn dispatch_batch(
    inner: &EngineInner,
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    live: &[Pending],
) {
    let batched: Option<Result<Vec<ServePayload>, SimError>> = if live.len() > 1 {
        // The queue only coalesces [`WorkKind::is_coalescable`] requests,
        // so a multi-request batch is homogeneous single-step work.
        let WorkKind::Kernel(kind) = live[0].req.kind else {
            unreachable!("trajectory workloads pop alone");
        };
        let program = &slot.programs[&kind];
        let arena = scratch.for_kernel(kind);
        let inputs = || -> Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> {
            live.iter()
                .map(|p| (p.req.q.clone(), p.req.qd.clone(), p.req.tau.clone()))
                .collect()
        };
        match kind {
            KernelKind::DynamicsGradient => Some(
                program
                    .execute_batch(&slot.model, arena, &inputs())
                    .map(|(sims, _makespan)| sims.into_iter().map(gradient_payload).collect()),
            ),
            KernelKind::InverseDynamics => Some(
                program
                    .execute_inverse_dynamics_batch(&slot.model, arena, &inputs())
                    .map(|(taus, _makespan)| {
                        let cycles = program.stats().cycles;
                        taus.into_iter()
                            .map(|tau| ServePayload::InverseDynamics { tau, cycles })
                            .collect()
                    }),
            ),
            // FK has no batched entry point.
            KernelKind::ForwardKinematics => None,
        }
    } else {
        None
    };
    match batched {
        Some(Ok(payloads)) => {
            for (p, payload) in live.iter().zip(payloads) {
                finish_ok(inner, slot, p, payload);
            }
        }
        // One bad input fails a whole batched call; fall back to singles
        // so its neighbours still succeed. Kernels without a batched
        // path — and all trajectory workloads — land here directly.
        Some(Err(_)) | None => {
            for p in live {
                let result = execute_single(slot, scratch, p);
                finish(inner, slot, p, result);
            }
        }
    }
}

/// Executes one request through the per-kernel scalar entry points and
/// shapes its payload — the shared fallback of [`dispatch_batch`] and
/// the only path trajectory workloads take.
fn execute_single(
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    p: &Pending,
) -> Result<ServePayload, SimError> {
    match p.req.kind {
        WorkKind::Kernel(kind) => {
            let program = &slot.programs[&kind];
            let arena = scratch.for_kernel(kind);
            match kind {
                KernelKind::DynamicsGradient => program
                    .execute_gradient(&slot.model, arena, &p.req.q, &p.req.qd, &p.req.tau)
                    .map(gradient_payload),
                KernelKind::InverseDynamics => program
                    .execute_inverse_dynamics(&slot.model, arena, &p.req.q, &p.req.qd, &p.req.tau)
                    .map(|(tau, stats)| ServePayload::InverseDynamics {
                        tau,
                        cycles: stats.cycles,
                    }),
                KernelKind::ForwardKinematics => program
                    .execute_kinematics(&slot.model, arena, &p.req.q)
                    .map(|(poses, stats)| kinematics_payload(&poses, stats.cycles)),
            }
        }
        WorkKind::Rollout { steps } => execute_rollout(slot, scratch, p, steps),
        WorkKind::MixedPipeline => execute_mixed(slot, scratch, p),
    }
}

/// Runs a whole rollout horizon worker-side: `steps` sequential ∇FD
/// evaluations through the robot's gradient program, feeding the state
/// forward with [`crate::workload::advance`] between steps. The payload
/// carries the final state plus the last step's gradients; cycles are
/// summed across the horizon.
fn execute_rollout(
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    p: &Pending,
    steps: u32,
) -> Result<ServePayload, SimError> {
    let program = &slot.programs[&KernelKind::DynamicsGradient];
    let arena = scratch.for_kernel(KernelKind::DynamicsGradient);
    let mut q = p.req.q.clone();
    let mut qd = p.req.qd.clone();
    let mut cycles = 0u64;
    let mut last: Option<Simulation> = None;
    for _ in 0..steps {
        let sim = program.execute_gradient(&slot.model, arena, &q, &qd, &p.req.tau)?;
        cycles += sim.stats.cycles;
        crate::workload::advance(&slot.model, &mut q, &mut qd, &p.req.tau);
        last = Some(sim);
    }
    let sim = last.expect("steps >= 1 validated at admission");
    obs::metrics().counter(ROLLOUT_REQUESTS_METRIC).add(1);
    obs::metrics()
        .counter(ROLLOUT_STEPS_METRIC)
        .add(u64::from(steps));
    Ok(ServePayload::Rollout {
        steps,
        q_final: q,
        qd_final: qd,
        tau: sim.tau.clone(),
        dqdd_dq: flatten_mat(&sim.dqdd_dq),
        dqdd_dqd: flatten_mat(&sim.dqdd_dqd),
        cycles,
    })
}

/// Runs the ID→∇FD→FK chain on one state: inverse dynamics turns the
/// request's `q̈` into torques, those torques drive the gradient kernel,
/// and forward kinematics poses the input configuration. Cycles are
/// summed across the three kernels.
fn execute_mixed(
    slot: &RobotSlot,
    scratch: &mut WorkerScratch,
    p: &Pending,
) -> Result<ServePayload, SimError> {
    let id_program = &slot.programs[&KernelKind::InverseDynamics];
    let id_arena = scratch.for_kernel(KernelKind::InverseDynamics);
    let (tau, id_stats) = id_program.execute_inverse_dynamics(
        &slot.model,
        id_arena,
        &p.req.q,
        &p.req.qd,
        &p.req.tau,
    )?;

    let grad_program = &slot.programs[&KernelKind::DynamicsGradient];
    let grad_arena = scratch.for_kernel(KernelKind::DynamicsGradient);
    let sim = grad_program.execute_gradient(&slot.model, grad_arena, &p.req.q, &p.req.qd, &tau)?;

    let fk_program = &slot.programs[&KernelKind::ForwardKinematics];
    let fk_arena = scratch.for_kernel(KernelKind::ForwardKinematics);
    let (poses, fk_stats) = fk_program.execute_kinematics(&slot.model, fk_arena, &p.req.q)?;

    obs::metrics().counter(MIXED_REQUESTS_METRIC).add(1);
    let ServePayload::Kinematics { poses, .. } = kinematics_payload(&poses, fk_stats.cycles) else {
        unreachable!("kinematics_payload shapes a Kinematics payload");
    };
    Ok(ServePayload::Mixed {
        tau,
        dqdd_dq: flatten_mat(&sim.dqdd_dq),
        dqdd_dqd: flatten_mat(&sim.dqdd_dqd),
        poses,
        cycles: id_stats.cycles + sim.stats.cycles + fk_stats.cycles,
    })
}

/// Row-major flattening of an `n × n` matrix.
fn flatten_mat(m: &roboshape_linalg::DMat) -> Vec<f64> {
    let n = m.rows();
    let mut out = Vec::with_capacity(n * n);
    for r in 0..n {
        for c in 0..n {
            out.push(m[(r, c)]);
        }
    }
    out
}

fn kinematics_payload(poses: &[roboshape_spatial::Xform], cycles: u64) -> ServePayload {
    let mut flat = Vec::with_capacity(poses.len() * 12);
    for x in poses {
        let rot = x.rotation();
        for r in 0..3 {
            for c in 0..3 {
                flat.push(rot.get(r, c));
            }
        }
        let t = x.translation();
        flat.extend_from_slice(&[t.x, t.y, t.z]);
    }
    ServePayload::Kinematics {
        poses: flat,
        cycles,
    }
}

fn gradient_payload(sim: Simulation) -> ServePayload {
    ServePayload::Gradient {
        tau: sim.tau.clone(),
        dqdd_dq: flatten_mat(&sim.dqdd_dq),
        dqdd_dqd: flatten_mat(&sim.dqdd_dqd),
        cycles: sim.stats.cycles,
    }
}

fn finish_ok(inner: &EngineInner, slot: &RobotSlot, p: &Pending, payload: ServePayload) {
    inner.stats.completed.fetch_add(1, Ordering::Relaxed);
    record_circuit_success(inner, slot, p.probe);
    respond(p, Ok(payload));
}

fn finish(
    inner: &EngineInner,
    slot: &RobotSlot,
    p: &Pending,
    result: Result<ServePayload, SimError>,
) {
    match result {
        Ok(payload) => finish_ok(inner, slot, p, payload),
        Err(e) => {
            inner.stats.bad_requests.fetch_add(1, Ordering::Relaxed);
            obs::metrics().counter(BAD_REQUEST_METRIC).add(1);
            // A sim error still proves the instance is alive — record a
            // success so a half-open probe releases and the streak
            // resets.
            record_circuit_success(inner, slot, p.probe);
            respond(p, Err(e.into()));
        }
    }
}

fn respond(p: &Pending, result: ServeResult) {
    obs::metrics().counter(RESPONSES_METRIC).add(1);
    let latency_us = p.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
    obs::metrics()
        .histogram(LATENCY_METRIC, &LATENCY_BOUNDS_US)
        .record(latency_us);
    p.ticket.fulfill(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use roboshape_arch::MatmulUnits;
    use roboshape_robots::{zoo, Zoo};
    use roboshape_sim::try_simulate;

    fn engine_with(robot: Zoo, cfg: EngineConfig) -> Engine {
        let engine = Engine::with_pipeline(cfg, Pipeline::new());
        engine.register(robot.name(), zoo(robot));
        engine
    }

    #[test]
    fn zoo_default_knobs_are_pinned() {
        // `(PEs_fwd, PEs_bwd, block)` each zoo robot registers with: the
        // Hybrid PE counts and the latency-minimal block size.
        let pinned = [
            (Zoo::Iiwa, (7, 7, 7)),
            (Zoo::Hyq, (3, 3, 3)),
            (Zoo::Baxter, (7, 7, 8)),
            (Zoo::Jaco2, (8, 10, 5)),
            (Zoo::Jaco3, (8, 12, 8)),
            (Zoo::HyqArm, (7, 7, 3)),
        ];
        let engine = Engine::with_pipeline(EngineConfig::default(), Pipeline::new());
        for (robot, _) in pinned {
            engine.register(robot.name(), zoo(robot));
        }
        let got: Vec<(Zoo, (usize, usize, usize))> = pinned
            .iter()
            .map(|&(robot, _)| {
                let knobs = *engine
                    .design_for(robot.name(), KernelKind::DynamicsGradient)
                    .unwrap()
                    .knobs();
                for kind in [KernelKind::InverseDynamics, KernelKind::ForwardKinematics] {
                    assert_eq!(
                        *engine.design_for(robot.name(), kind).unwrap().knobs(),
                        knobs
                    );
                }
                assert_eq!(knobs.matmul_units, MatmulUnits::PerLink);
                (robot, (knobs.pe_fwd, knobs.pe_bwd, knobs.block_size))
            })
            .collect();
        engine.shutdown();
        assert_eq!(got, pinned);
    }

    #[test]
    fn registration_builds_only_the_chosen_block_plan() {
        // Knob choice reads closed-form latencies; the one plan in the
        // store is the ∇FD design's, at the chosen block size.
        let pipeline = Pipeline::new();
        let engine = Engine::with_pipeline(EngineConfig::default(), pipeline.clone());
        engine.register(Zoo::HyqArm.name(), zoo(Zoo::HyqArm));
        engine.shutdown();
        let stats = pipeline.store().stats();
        assert_eq!(stats.block_plans, 1);
        assert_eq!(stats.fragments, zoo(Zoo::HyqArm).num_links());
    }

    #[test]
    fn gradient_round_trip_matches_direct_simulation() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let n = engine.num_links("iiwa").unwrap();
        let (q, qd, tau) = (vec![0.3; n], vec![0.1; n], vec![0.5; n]);
        let ticket = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                q.clone(),
                qd.clone(),
                tau.clone(),
            ))
            .unwrap();
        let payload = ticket.wait().unwrap();

        let robot = zoo(Zoo::Iiwa);
        let pipeline = Pipeline::new();
        let knobs = default_knobs(&pipeline, robot.topology());
        let design = pipeline.design(robot.topology(), knobs, KernelKind::DynamicsGradient);
        let reference = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
        match payload {
            ServePayload::Gradient {
                tau: t,
                dqdd_dq,
                cycles,
                ..
            } => {
                assert_eq!(t, reference.tau);
                assert_eq!(dqdd_dq[0], reference.dqdd_dq[(0, 0)]);
                assert_eq!(cycles, reference.stats.cycles);
            }
            other => panic!("wrong payload: {other:?}"),
        }
        engine.shutdown();
        assert_eq!(engine.stats().completed, 1);
    }

    #[test]
    fn unknown_robot_and_bad_dimensions_are_typed_errors() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let err = engine
            .submit(ServeRequest::kinematics("nonexistent", vec![0.0; 7]))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownRobot(_)));

        let err = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                vec![0.0; 3],
                vec![0.0; 7],
                vec![0.0; 7],
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        assert!(!err.is_retryable(), "bad requests fail identically again");

        let err = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                vec![f64::NAN; 7],
                vec![0.0; 7],
                vec![0.0; 7],
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
        assert_eq!(engine.stats().bad_requests, 2);
        engine.shutdown();
    }

    #[test]
    fn full_queue_sheds_and_shutdown_drains_accepted_requests() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                queue_capacity: 2,
                workers_per_robot: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let req = || ServeRequest::kinematics("iiwa", vec![0.1; 7]);
        let t1 = engine.submit(req()).unwrap();
        let t2 = engine.submit(req()).unwrap();
        let err = engine.submit(req()).unwrap_err();
        assert!(matches!(err, ServeError::Rejected { .. }), "{err}");
        assert!(err.is_retryable());
        assert_eq!(engine.stats().shed, 1);

        // Graceful drain: both accepted tickets resolve even though the
        // engine was paused the whole time.
        engine.shutdown();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        assert_eq!(engine.stats().completed, 2);

        let err = engine.submit(req()).unwrap_err();
        assert!(matches!(err, ServeError::Rejected { .. }));
    }

    #[test]
    fn expired_deadline_resolves_to_deadline_exceeded() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(
                ServeRequest::kinematics("iiwa", vec![0.1; 7])
                    .with_deadline(Duration::from_micros(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        engine.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        assert_eq!(engine.stats().deadline_exceeded, 1);
        engine.shutdown();
    }

    #[test]
    fn default_deadline_budget_applies_to_deadline_free_requests() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                start_paused: true,
                default_deadline: Some(Duration::from_micros(1)),
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        engine.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        engine.shutdown();
    }

    #[test]
    fn paused_engine_coalesces_gradient_requests_into_batches() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 8,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                engine
                    .submit(ServeRequest::gradient(
                        "iiwa",
                        vec![0.1 * (i + 1) as f64; 7],
                        vec![0.0; 7],
                        vec![0.4; 7],
                    ))
                    .unwrap()
            })
            .collect();
        engine.resume();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.largest_batch, 4, "all four coalesced: {stats:?}");
        assert_eq!(stats.batches, 1);
        engine.shutdown();
    }

    #[test]
    fn injected_crash_resolves_tickets_and_replaces_the_instance() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 1,
                circuit_threshold: 100, // keep the circuit out of the way
                chaos: Some(FaultConfig {
                    seed: 11,
                    stall: 0.0,
                    crash: 1.0,
                    corrupt: 0.0,
                    pressure: 0.0,
                }),
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
            .unwrap();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::WorkerCrashed);
        let stats = engine.stats();
        assert_eq!(stats.crashed, 1);
        assert_eq!(stats.injected_crashes, 1);
        // The replacement is counted before the ticket resolves.
        assert_eq!(stats.worker_restarts, 1);

        // The crashed instance is replaced: the robot keeps its one
        // instance, and the replacement takes the next request (which
        // crashes too at rate 1.0; without a replacement it would never
        // resolve). That the replacement's arena is fresh is checked by
        // `responses_after_a_crash_are_bit_exact_on_a_fresh_arena`.
        let health = engine.health();
        assert!(health.ready);
        assert_eq!(health.robots[0].workers_alive, 1);
        let again = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.2; 7]))
            .unwrap();
        assert_eq!(again.wait().unwrap_err(), ServeError::WorkerCrashed);
        assert_eq!(engine.stats().worker_restarts, 2);
        engine.shutdown();
    }

    #[test]
    fn circuit_trips_open_and_serves_degraded_answers() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 1,
                circuit_threshold: 2,
                circuit_cooldown: Duration::from_millis(20),
                chaos: Some(FaultConfig {
                    seed: 5,
                    stall: 0.0,
                    crash: 1.0, // every executed request crashes
                    corrupt: 0.0,
                    pressure: 0.0,
                }),
                ..EngineConfig::default()
            },
        );
        let req = || ServeRequest::kinematics("iiwa", vec![0.1; 7]);
        // Two crashes trip the breaker.
        for _ in 0..2 {
            let t = engine.submit(req()).unwrap();
            assert_eq!(t.wait().unwrap_err(), ServeError::WorkerCrashed);
        }
        // The ticket resolves just before the worker records the breaker
        // failure; give that last store a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.circuit_state("iiwa") != Some(CircuitState::Open) {
            assert!(Instant::now() < deadline, "breaker never tripped");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(engine.stats().circuit_trips, 1);

        // While open, answers come from the analytical model instantly.
        let payload = engine.submit(req()).unwrap().wait().unwrap();
        match payload {
            ServePayload::Degraded {
                kind,
                cycles,
                clock_ns,
                latency_us,
            } => {
                let design = engine
                    .design_for("iiwa", KernelKind::ForwardKinematics)
                    .unwrap();
                assert_eq!(kind, KernelKind::ForwardKinematics);
                assert_eq!(cycles, design.compute_cycles());
                assert_eq!(clock_ns.to_bits(), design.clock_ns().to_bits());
                assert_eq!(latency_us.to_bits(), design.compute_latency_us().to_bits());
            }
            other => panic!("expected degraded answer, got {other:?}"),
        }
        assert!(engine.stats().degraded >= 1);
        engine.shutdown();
    }

    #[test]
    fn injected_queue_pressure_sheds_with_chaos_reason() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                chaos: Some(FaultConfig {
                    seed: 1,
                    stall: 0.0,
                    crash: 0.0,
                    corrupt: 0.0,
                    pressure: 1.0,
                }),
                ..EngineConfig::default()
            },
        );
        let err = engine
            .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
            .unwrap_err();
        match err {
            ServeError::Rejected { ref reason } => {
                assert!(reason.contains("chaos"), "{reason}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(err.is_retryable());
        assert_eq!(engine.stats().injected_pressure, 1);
        engine.shutdown();
    }

    #[test]
    fn same_seed_runs_produce_identical_stats() {
        // Pinned serial execution (one worker, batch size 1, sequential
        // submits) so timing cannot perturb batch composition; under
        // that, two same-seed runs must agree on every counter.
        let run = |seed: u64| -> EngineStats {
            let engine = engine_with(
                Zoo::Iiwa,
                EngineConfig {
                    workers_per_robot: 1,
                    max_batch: 1,
                    circuit_threshold: 1000, // keep breaker state out of it
                    chaos: Some(FaultConfig {
                        seed,
                        stall: 0.05,
                        crash: 0.2,
                        corrupt: 0.0,
                        pressure: 0.2,
                    }),
                    ..EngineConfig::default()
                },
            );
            for _ in 0..40 {
                if let Ok(t) = engine.submit(ServeRequest::kinematics("iiwa", vec![0.1; 7])) {
                    let _ = t.wait();
                }
            }
            engine.shutdown();
            engine.stats()
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b, "same seed, same fault schedule, same counters");
        assert!(a.injected_crashes > 0 && a.injected_pressure > 0, "{a:?}");
    }

    #[test]
    fn rollout_matches_sequential_single_steps() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let n = engine.num_links("iiwa").unwrap();
        let q0 = vec![0.2; n];
        let qd0 = vec![0.05; n];
        let tau = vec![0.4; n];
        let steps = 3u32;

        let ticket = engine
            .submit(ServeRequest::rollout(
                "iiwa",
                q0.clone(),
                qd0.clone(),
                tau.clone(),
                steps,
            ))
            .unwrap();
        let payload = ticket.wait().unwrap();

        // Reference: N sequential single-step ∇FD calls with the state
        // advanced by the shared integrator between steps.
        let model = zoo(Zoo::Iiwa);
        let (mut q, mut qd) = (q0, qd0);
        let mut last = None;
        let mut want_cycles = 0u64;
        for _ in 0..steps {
            let t = engine
                .submit(ServeRequest::gradient(
                    "iiwa",
                    q.clone(),
                    qd.clone(),
                    tau.clone(),
                ))
                .unwrap();
            let step = t.wait().unwrap();
            crate::workload::advance(&model, &mut q, &mut qd, &tau);
            want_cycles += step.cycles();
            last = Some(step);
        }

        match (payload, last.unwrap()) {
            (
                ServePayload::Rollout {
                    steps: got_steps,
                    q_final,
                    qd_final,
                    tau: roll_tau,
                    dqdd_dq,
                    dqdd_dqd,
                    cycles,
                },
                ServePayload::Gradient {
                    tau: step_tau,
                    dqdd_dq: step_dq,
                    dqdd_dqd: step_dqd,
                    ..
                },
            ) => {
                assert_eq!(got_steps, steps);
                assert_eq!(cycles, want_cycles, "cycles sum over the horizon");
                for (a, b) in q_final.iter().zip(&q) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                for (a, b) in qd_final.iter().zip(&qd) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(roll_tau, step_tau, "final-step torques bit-equal");
                assert_eq!(dqdd_dq, step_dq);
                assert_eq!(dqdd_dqd, step_dqd);
            }
            other => panic!("wrong payloads: {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn zero_step_rollout_is_a_bad_request() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let err = engine
            .submit(ServeRequest::rollout(
                "iiwa",
                vec![0.1; 7],
                vec![0.0; 7],
                vec![0.0; 7],
                0,
            ))
            .unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)), "{err}");
        engine.shutdown();
    }

    #[test]
    fn mixed_pipeline_chains_id_gradient_and_fk() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let n = engine.num_links("iiwa").unwrap();
        let (q, qd, qdd) = (vec![0.3; n], vec![0.1; n], vec![0.2; n]);
        let ticket = engine
            .submit(ServeRequest::mixed("iiwa", q.clone(), qd.clone(), qdd))
            .unwrap();
        match ticket.wait().unwrap() {
            ServePayload::Mixed {
                tau,
                dqdd_dq,
                dqdd_dqd,
                poses,
                cycles,
            } => {
                assert_eq!(tau.len(), n, "ID stage: one torque per joint");
                assert_eq!(dqdd_dq.len(), n * n);
                assert_eq!(dqdd_dqd.len(), n * n);
                assert!(!poses.is_empty() && poses.len() % n == 0, "FK poses");
                assert!(tau.iter().all(|v| v.is_finite()));
                // Three chained kernels must cost more than any one alone.
                let fk_only = engine
                    .submit(ServeRequest::kinematics("iiwa", q))
                    .unwrap()
                    .wait()
                    .unwrap();
                assert!(cycles > fk_only.cycles(), "chain sums stage cycles");
            }
            other => panic!("wrong payload: {other:?}"),
        }
        engine.shutdown();
    }

    #[test]
    fn rollout_deadline_covers_the_whole_horizon() {
        // A deadline that expires while the rollout is queued fails the
        // whole trajectory, not a prefix of it.
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let ticket = engine
            .submit(
                ServeRequest::rollout("iiwa", vec![0.1; 7], vec![0.0; 7], vec![0.2; 7], 8)
                    .with_deadline(Duration::from_micros(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        engine.resume();
        assert_eq!(ticket.wait().unwrap_err(), ServeError::DeadlineExceeded);
        engine.shutdown();
    }

    #[test]
    fn health_reports_ready_with_live_workers() {
        let engine = engine_with(Zoo::Iiwa, EngineConfig::default());
        let health = engine.health();
        assert!(health.ready);
        assert_eq!(health.robots.len(), 1);
        assert_eq!(health.robots[0].name, "iiwa");
        assert_eq!(health.robots[0].circuit, CircuitState::Closed);
        assert_eq!(health.robots[0].workers_alive, 2);
        engine.shutdown();
        let health = engine.health();
        assert!(!health.ready, "closed engine is not ready");
        assert_eq!(
            health.robots[0].workers_alive, 0,
            "no instance after shutdown"
        );
    }

    fn slot_of(engine: &Engine, robot: &str) -> Arc<RobotSlot> {
        Arc::clone(&engine.inner.robots.read().unwrap()[robot])
    }

    #[test]
    fn a_long_rollout_on_one_robot_does_not_hold_up_another() {
        let engine = Engine::with_pipeline(EngineConfig::default(), Pipeline::new());
        engine.register("arm", zoo(Zoo::HyqArm));
        engine.register("iiwa", zoo(Zoo::Iiwa));
        assert!(engine.inner.pool.lock().unwrap().len() >= 2, "pool threads");
        let n = engine.num_links("arm").unwrap();
        let rollout = engine
            .submit(ServeRequest::rollout(
                "arm",
                vec![0.1; n],
                vec![0.0; n],
                vec![0.2; n],
                1_000,
            ))
            .unwrap();
        wait_running(&engine, "arm", 1);
        let gradient = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                vec![0.3; 7],
                vec![0.1; 7],
                vec![0.5; 7],
            ))
            .unwrap();
        assert!(gradient.wait().is_ok());
        assert!(
            rollout.try_take().is_none(),
            "the ∇FD request resolved while the rollout still ran"
        );
        assert!(rollout.wait().is_ok());
        engine.shutdown();
    }

    /// Blocks until `robot` runs `count` batches.
    fn wait_running(engine: &Engine, robot: &str, count: usize) {
        let slot = slot_of(engine, robot);
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.inner.instances() - slot.lane.lock().unwrap().idle.len() < count {
            assert!(
                Instant::now() < deadline,
                "{robot} never ran {count} batches"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn long_rollouts_filling_one_robot_leave_a_thread_to_another() {
        // As many instances as pool threads (the default on a 2-CPU
        // host): one robot's rollouts could otherwise hold every thread.
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .max(2);
        let engine = Engine::with_pipeline(
            EngineConfig {
                workers_per_robot: threads,
                ..EngineConfig::default()
            },
            Pipeline::new(),
        );
        engine.register("arm", zoo(Zoo::HyqArm));
        engine.register("iiwa", zoo(Zoo::Iiwa));
        assert_eq!(engine.inner.pool.lock().unwrap().len(), threads);
        let n = engine.num_links("arm").unwrap();
        let rollouts: Vec<Ticket> = (0..threads)
            .map(|_| {
                let (q, qd, tau) = (vec![0.1; n], vec![0.0; n], vec![0.2; n]);
                engine
                    .submit(ServeRequest::rollout("arm", q, qd, tau, 1_000))
                    .unwrap()
            })
            .collect();
        // The arm runs as many rollouts as it may; the rest wait.
        wait_running(&engine, "arm", engine.inner.max_running());
        let gradient = engine
            .submit(ServeRequest::gradient(
                "iiwa",
                vec![0.3; 7],
                vec![0.1; 7],
                vec![0.5; 7],
            ))
            .unwrap();
        assert!(gradient.wait().is_ok());
        for rollout in &rollouts {
            assert!(
                rollout.try_take().is_none(),
                "the ∇FD request resolved while every rollout still ran or waited"
            );
        }
        for rollout in &rollouts {
            assert!(rollout.wait().is_ok());
        }
        engine.shutdown();
    }

    #[test]
    fn a_robot_never_runs_more_batches_than_its_instances() {
        // Paused, the pool takes nothing: this thread plays a pool
        // thread and claims instances by hand.
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 2,
                max_batch: 1,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| {
                engine
                    .submit(ServeRequest::kinematics("iiwa", vec![0.1; 7]))
                    .unwrap()
            })
            .collect();
        let inner = &engine.inner;
        let listed = || inner.ready.lock().unwrap().len();
        let take_listed = || inner.ready.lock().unwrap().pop_front();
        assert_eq!(listed(), 2, "listed once per free instance");
        let slot = take_listed().unwrap();
        let (first, scratch_a) = claim_instance(inner, &slot).unwrap();
        // Work waits and one instance is free: its entry stays, so a
        // second pool thread can split the burst.
        assert_eq!(listed(), 1);
        let again = take_listed().unwrap();
        let (second, scratch_b) = claim_instance(inner, &again).unwrap();
        // Both instances run: not listed, however much work waits.
        assert_eq!(listed(), 0);
        {
            let lane = slot.lane.lock().unwrap();
            assert!(lane.idle.is_empty(), "both instances run");
            assert_eq!(lane.queue.len(), 2, "two requests still wait");
        }
        // Freeing an instance lists the robot again, with its arena kept.
        let scratch_a = run_batch(inner, &slot, scratch_a, first);
        release_instance(inner, &slot, scratch_a);
        assert_eq!(listed(), 1);
        let scratch_b = run_batch(inner, &slot, scratch_b, second);
        release_instance(inner, &slot, scratch_b);
        assert_eq!(listed(), 2);
        let fk = &slot.programs[&KernelKind::ForwardKinematics];
        let lane = slot.lane.lock().unwrap();
        assert_eq!(lane.idle.len(), 2);
        assert!(lane.idle.iter().all(|s| s.kinematics.is_bound_to(fk)));
        drop(lane);
        engine.resume();
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        assert_eq!(engine.stats().batches, 4);
        engine.shutdown();
    }

    #[test]
    fn an_entry_whose_work_was_coalesced_away_claims_nothing() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 2,
                start_paused: true,
                ..EngineConfig::default()
            },
        );
        let tickets: Vec<Ticket> = (0..2)
            .map(|_| {
                let (q, qd, tau) = (vec![0.3; 7], vec![0.1; 7], vec![0.5; 7]);
                engine
                    .submit(ServeRequest::gradient("iiwa", q, qd, tau))
                    .unwrap()
            })
            .collect();
        let inner = &engine.inner;
        let take_listed = || inner.ready.lock().unwrap().pop_front();
        let slot = take_listed().unwrap();
        let (batch, scratch) = claim_instance(inner, &slot).unwrap();
        assert_eq!(batch.len(), 2, "one claim coalesces both requests");
        // The second entry finds the queue empty and takes no instance.
        let stale = take_listed().unwrap();
        assert!(claim_instance(inner, &stale).is_none());
        assert_eq!(slot.lane.lock().unwrap().idle.len(), 1);
        release_instance(inner, &slot, run_batch(inner, &slot, scratch, batch));
        assert!(take_listed().is_none());
        assert_eq!(slot.lane.lock().unwrap().listed, 0);
        for t in &tickets {
            assert!(t.try_take().is_some_and(|r| r.is_ok()));
        }
        engine.shutdown();
    }

    #[test]
    fn responses_after_a_crash_are_bit_exact_on_a_fresh_arena() {
        let engine = engine_with(
            Zoo::Iiwa,
            EngineConfig {
                workers_per_robot: 1,
                max_batch: 1,
                circuit_threshold: 1_000, // keep the circuit out of the way
                chaos: Some(FaultConfig {
                    seed: 3,
                    stall: 0.0,
                    crash: 0.3,
                    corrupt: 0.0,
                    pressure: 0.0,
                }),
                ..EngineConfig::default()
            },
        );
        let robot = zoo(Zoo::Iiwa);
        let design = engine
            .design_for("iiwa", KernelKind::DynamicsGradient)
            .unwrap();
        let slot = slot_of(&engine, "iiwa");
        let program = &slot.programs[&KernelKind::DynamicsGradient];
        // Whether the instance's arena is still bound once its batch is
        // released: a crashed arena is dropped for an unbound one.
        let arena_kept = || loop {
            if let Some(scratch) = slot.lane.lock().unwrap().idle.first() {
                return scratch.gradient.is_bound_to(program);
            }
            std::thread::yield_now();
        };
        let (mut crashes, mut ok_after_crash, mut after_crash) = (0, 0, false);
        for i in 0..64 {
            let q: Vec<f64> = (0..7)
                .map(|j| 0.05 * f64::from(i) - 0.1 * j as f64)
                .collect();
            let (qd, tau) = (vec![0.1; 7], vec![0.3; 7]);
            let request = ServeRequest::gradient("iiwa", q.clone(), qd.clone(), tau.clone());
            match engine.submit(request).unwrap().wait() {
                Err(ServeError::WorkerCrashed) => {
                    assert!(!arena_kept(), "a crashed arena is dropped");
                    crashes += 1;
                    after_crash = true;
                }
                Ok(ServePayload::Gradient {
                    tau: t,
                    dqdd_dq,
                    dqdd_dqd,
                    cycles,
                }) => {
                    let reference = try_simulate(&robot, &design, &q, &qd, &tau).unwrap();
                    assert_eq!(cycles, reference.stats.cycles);
                    for j in 0..7 {
                        assert_eq!(t[j].to_bits(), reference.tau[j].to_bits());
                        for k in 0..7 {
                            assert_eq!(
                                dqdd_dq[j * 7 + k].to_bits(),
                                reference.dqdd_dq[(j, k)].to_bits()
                            );
                            assert_eq!(
                                dqdd_dqd[j * 7 + k].to_bits(),
                                reference.dqdd_dqd[(j, k)].to_bits()
                            );
                        }
                    }
                    assert!(arena_kept(), "a clean arena is kept");
                    ok_after_crash += usize::from(after_crash);
                    after_crash = false;
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        assert!(ok_after_crash > 0, "no success followed a crash");
        assert_eq!(engine.stats().worker_restarts, crashes);
        engine.shutdown();
    }

    #[test]
    fn shutdown_of_a_paused_engine_resolves_every_queued_ticket() {
        let engine = Engine::with_pipeline(
            EngineConfig {
                start_paused: true,
                ..EngineConfig::default()
            },
            Pipeline::new(),
        );
        let robots = [Zoo::Iiwa, Zoo::Hyq, Zoo::Baxter];
        for robot in robots {
            engine.register(robot.name(), zoo(robot));
        }
        let mut tickets = Vec::new();
        for robot in robots {
            let n = engine.num_links(robot.name()).unwrap();
            let state = || (vec![0.2; n], vec![0.1; n], vec![0.3; n]);
            for i in 0..12 {
                let (q, qd, tau) = state();
                let req = match i % 4 {
                    0 => ServeRequest::rollout(robot.name(), q, qd, tau, 3),
                    1 => ServeRequest::mixed(robot.name(), q, qd, tau),
                    2 => ServeRequest::kinematics(robot.name(), q),
                    _ => ServeRequest::gradient(robot.name(), q, qd, tau),
                };
                tickets.push(engine.submit(req).unwrap());
            }
        }
        engine.shutdown();
        for t in &tickets {
            assert!(t.try_take().is_some_and(|r| r.is_ok()));
        }
        assert_eq!(engine.stats().completed, tickets.len() as u64);
        assert!(engine.inner.pool.lock().unwrap().is_empty(), "pool joined");
    }
}
