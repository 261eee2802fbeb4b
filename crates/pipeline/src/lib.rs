//! The staged compilation pipeline behind the RoboShape framework.
//!
//! Accelerator generation is a chain of pure stages
//!
//! ```text
//! Parse → Topology → Ir {TaskGraph, SparsityPattern}
//!       → Schedules → BlockPlans → Design → Reports
//! ```
//!
//! whose intermediate products depend only on a robot's *topology* and a
//! few integer knobs — not on which caller asked. A design-space sweep
//! re-derives the same task graph `N²` times and the same block plans
//! once per `(PEf, PEb)` pair; the strategy study re-schedules
//! allocations the sweep already visited; the experiments binary walks
//! the same six robots a dozen times. This crate makes those products
//! shared, memoized artifacts:
//!
//! * [`ArtifactStore`] — a thread-safe store of stage products, keyed by
//!   the stage's actual inputs (task graphs and patterns per topology,
//!   schedules per `(topology, PEf, PEb, mode)`, block plans per
//!   `(topology, pattern, block)`);
//! * [`Pipeline`] — the staged accessors (compute-on-miss, `Arc`-shared
//!   on hit) plus a [`PipelineObserver`] that counts cache hits/misses,
//!   accumulates per-stage wall time and tallies evaluated design points
//!   (the `--timings` report);
//! * [`Pipeline::global`] — the process-wide warmed instance the
//!   framework, CLI, experiments and benches all default to.
//! * content-addressed **fragments** — scalar sub-artifacts (a traversal
//!   makespan, a block-plan latency) keyed by a [`FragmentId`] content
//!   hash of their full input, so incremental consumers (the DSE sweeps)
//!   can join thousands of cached fragments per point instead of
//!   re-deriving whole-stage artifacts (see [`Pipeline::fragment_u64`]).
//!
//! All stages are deterministic, so a warm store returns bit-identical
//! artifacts to a cold run — only faster.
//!
//! # Observability
//!
//! The pipeline is instrumented through [`roboshape_obs`]: every stage
//! accessor opens a `cat = "pipeline"` tracing span named after its
//! [`PipelineStage`] (so a `--trace` capture shows where compilation time
//! goes, including cache-hit lookups), and hit/miss tallies are mirrored
//! into the global [`roboshape_obs::metrics`] registry under the
//! [`PipelineStage::hits_metric`]/[`PipelineStage::misses_metric`] names.
//! [`PipelineObserver`] itself implements [`roboshape_obs::Sink`]: it
//! consumes exactly that span/counter vocabulary, so it can be driven
//! either directly (the fast path used here) or by replaying a recorded
//! trace. With no sink installed the extra cost is one relaxed atomic
//! load per stage access plus the counter adds.
//!
//! # Examples
//!
//! ```
//! use roboshape_pipeline::{PatternKind, Pipeline};
//! use roboshape_topology::Topology;
//!
//! let pipeline = Pipeline::new();
//! let topo = Topology::chain(5);
//! let a = pipeline.pattern(&topo, PatternKind::InverseMass);
//! let b = pipeline.pattern(&topo, PatternKind::InverseMass);
//! assert!(std::sync::Arc::ptr_eq(&a, &b)); // second call is a cache hit
//! assert_eq!(pipeline.observer().report().hits(), 1);
//! ```

#![deny(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs, KernelKind, MatmulUnits};
use roboshape_blocksparse::{
    block_matmul_latency, BlockMatmulPlan, MatmulLatencyModel, SparsityPattern,
};
use roboshape_obs as obs;
use roboshape_obs::hash::{FNV1A64_OFFSET, FNV1A64_PRIME};
use roboshape_obs::{Counter, Sink, SpanRecord};
use roboshape_sim::{BackendKind, CompiledProgram};
use roboshape_taskgraph::{schedule, Schedule, SchedulerConfig, TaskCosts, TaskGraph};
use roboshape_topology::Topology;

/// The tracing span/metric category every pipeline event is tagged with.
pub const OBS_CATEGORY: &str = "pipeline";

/// Global metrics counter name for the evaluated-design-point tally.
pub const POINTS_METRIC: &str = "pipeline.points_evaluated";

/// The pipeline's compilation stages, in dataflow order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// URDF text → robot model.
    Parse,
    /// Robot model → topology metrics.
    Topology,
    /// Topology → intermediate representation: task graphs and sparsity
    /// patterns.
    Ir,
    /// Task graph + PE allocation → PE schedules.
    Schedules,
    /// Sparsity pattern + block size → blocked mat-mul plans.
    BlockPlans,
    /// Cached parts → elaborated accelerator design.
    Design,
    /// Design → compiled simulation program (flat op array + scratch
    /// layout, see [`roboshape_sim::CompiledProgram`]).
    Programs,
    /// Design → storage/resource/latency reports and emitted artifacts.
    Reports,
}

impl PipelineStage {
    /// Every stage in dataflow order.
    pub const ALL: [PipelineStage; 8] = [
        PipelineStage::Parse,
        PipelineStage::Topology,
        PipelineStage::Ir,
        PipelineStage::Schedules,
        PipelineStage::BlockPlans,
        PipelineStage::Design,
        PipelineStage::Programs,
        PipelineStage::Reports,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Parse => "parse",
            PipelineStage::Topology => "topology",
            PipelineStage::Ir => "ir",
            PipelineStage::Schedules => "schedules",
            PipelineStage::BlockPlans => "block-plans",
            PipelineStage::Design => "design",
            PipelineStage::Programs => "programs",
            PipelineStage::Reports => "reports",
        }
    }

    /// The stage with [`PipelineStage::name`] equal to `name`, if any
    /// (how the observer's [`Sink`] impl attributes span records).
    pub fn from_name(name: &str) -> Option<PipelineStage> {
        PipelineStage::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Global metrics counter name for this stage's artifact-store hits.
    pub fn hits_metric(self) -> &'static str {
        match self {
            PipelineStage::Parse => "pipeline.parse.hits",
            PipelineStage::Topology => "pipeline.topology.hits",
            PipelineStage::Ir => "pipeline.ir.hits",
            PipelineStage::Schedules => "pipeline.schedules.hits",
            PipelineStage::BlockPlans => "pipeline.block-plans.hits",
            PipelineStage::Design => "pipeline.design.hits",
            PipelineStage::Programs => "pipeline.programs.hits",
            PipelineStage::Reports => "pipeline.reports.hits",
        }
    }

    /// Global metrics counter name for this stage's artifact-store misses.
    pub fn misses_metric(self) -> &'static str {
        match self {
            PipelineStage::Parse => "pipeline.parse.misses",
            PipelineStage::Topology => "pipeline.topology.misses",
            PipelineStage::Ir => "pipeline.ir.misses",
            PipelineStage::Schedules => "pipeline.schedules.misses",
            PipelineStage::BlockPlans => "pipeline.block-plans.misses",
            PipelineStage::Design => "pipeline.design.misses",
            PipelineStage::Programs => "pipeline.programs.misses",
            PipelineStage::Reports => "pipeline.reports.misses",
        }
    }

    fn index(self) -> usize {
        PipelineStage::ALL
            .iter()
            .position(|&s| s == self)
            .expect("stage in ALL")
    }
}

/// Which topology-derived sparsity pattern an artifact is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// The mass matrix `M` (nonzero where links share a root path).
    Mass,
    /// The inverse mass matrix `M⁻¹` (fills in at mid-limb branches; the
    /// left operand of the blocked multiply).
    InverseMass,
}

/// A 128-bit content address of a fine-grained pipeline sub-artifact.
///
/// Fragment ids are produced by [`FragmentHasher`]: the hash covers a
/// domain tag plus the *entire* input of the fragment (topology parent
/// vector, kernel, every knob), so — as with the coarse store keys — the
/// only invalidation rule is "never": a changed input is a different id,
/// not a stale entry. Two 64-bit FNV-1a lanes with distinct offset bases
/// make accidental collisions across a million-point sweep negligible
/// (the store is not defending against adversarial inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragmentId([u64; 2]);

/// Second-lane offset basis: the standard basis with its halves swapped,
/// so the two lanes walk different hash streams over the same bytes.
const FNV_OFFSET_ALT: u64 = FNV1A64_OFFSET.rotate_left(32) ^ 0x9e37_79b9_7f4a_7c15;

/// Incremental hasher building a [`FragmentId`] from a domain tag and a
/// stream of integers/bytes.
///
/// # Examples
///
/// ```
/// use roboshape_pipeline::FragmentHasher;
///
/// let a = FragmentHasher::new("dse.sched.makespan")
///     .usize(3)
///     .usize(4)
///     .finish();
/// let b = FragmentHasher::new("dse.sched.makespan")
///     .usize(4)
///     .usize(3)
///     .finish();
/// assert_ne!(a, b); // order is part of the content
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FragmentHasher {
    lanes: [u64; 2],
}

impl FragmentHasher {
    /// Starts a hash over the given domain tag (the tag separates key
    /// spaces: identical knob streams under different tags never collide).
    pub fn new(domain: &str) -> FragmentHasher {
        FragmentHasher {
            lanes: [FNV1A64_OFFSET, FNV_OFFSET_ALT],
        }
        .bytes(domain.as_bytes())
        .byte(0xff) // terminator: "ab" + "c" ≠ "a" + "bc"
    }

    fn byte(mut self, b: u8) -> FragmentHasher {
        for lane in &mut self.lanes {
            *lane = (*lane ^ u64::from(b)).wrapping_mul(FNV1A64_PRIME);
        }
        self
    }

    /// Feeds raw bytes.
    pub fn bytes(mut self, bytes: &[u8]) -> FragmentHasher {
        for &b in bytes {
            self = self.byte(b);
        }
        self
    }

    /// Feeds one `u64` (little-endian).
    pub fn u64(self, v: u64) -> FragmentHasher {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds one `usize` (widened to 64 bits, so ids agree across targets).
    pub fn usize(self, v: usize) -> FragmentHasher {
        self.u64(v as u64)
    }

    /// Feeds a topology parent vector (`None` encoded distinctly from any
    /// index, lengths separated by the leading count).
    pub fn parents(mut self, parents: &[Option<usize>]) -> FragmentHasher {
        self = self.usize(parents.len());
        for p in parents {
            self = match p {
                None => self.u64(u64::MAX),
                Some(i) => self.usize(*i),
            };
        }
        self
    }

    /// The finished content address.
    pub fn finish(self) -> FragmentId {
        FragmentId(self.lanes)
    }
}

/// Per-stage accumulators. All 64-bit (never `usize`): the nanosecond
/// and cycle tallies of a long sweep overflow 32 bits in seconds, so the
/// counters must not narrow on 32-bit targets.
#[derive(Default)]
struct StageStats {
    nanos: AtomicU64,
    runs: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Thread-safe per-stage instrumentation: wall time, cache hit/miss
/// counters and the number of design points evaluated. All counters are
/// monotonic `u64` atomics, safe to update from sweep worker threads;
/// `report` snapshots them.
///
/// The observer is also a [`roboshape_obs::Sink`]: span records with
/// category [`OBS_CATEGORY`] and a [`PipelineStage::name`] are attributed
/// as stage executions, and counter records named
/// [`PipelineStage::hits_metric`]/[`PipelineStage::misses_metric`]/
/// [`POINTS_METRIC`] feed the corresponding tallies. The direct methods
/// ([`time`](PipelineObserver::time), [`hit`](PipelineObserver::hit), …)
/// produce exactly those events, mirror them into the global
/// [`roboshape_obs::metrics`] registry, and forward the hit/miss counters
/// to any installed trace sink.
pub struct PipelineObserver {
    stages: [StageStats; PipelineStage::ALL.len()],
    points: AtomicU64,
    /// Cached handles into the global metrics registry (one atomic add on
    /// the hot path instead of a name lookup).
    global_hits: [Arc<Counter>; PipelineStage::ALL.len()],
    global_misses: [Arc<Counter>; PipelineStage::ALL.len()],
    global_points: Arc<Counter>,
}

impl Default for PipelineObserver {
    fn default() -> PipelineObserver {
        PipelineObserver {
            stages: Default::default(),
            points: AtomicU64::new(0),
            global_hits: std::array::from_fn(|i| {
                obs::metrics().counter(PipelineStage::ALL[i].hits_metric())
            }),
            global_misses: std::array::from_fn(|i| {
                obs::metrics().counter(PipelineStage::ALL[i].misses_metric())
            }),
            global_points: obs::metrics().counter(POINTS_METRIC),
        }
    }
}

impl std::fmt::Debug for PipelineObserver {
    // Field-complete (a derived impl would dump raw atomics; this prints
    // the same data as snapshots). Keep every counter listed here when
    // adding one.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineObserver")
            .field("stages", &self.report().stages)
            .field("points_evaluated", &self.points.load(Ordering::Relaxed))
            .field("global_points", &self.global_points.get())
            .finish()
    }
}

impl Sink for PipelineObserver {
    /// Attributes a `cat = "pipeline"` span named after a stage as one
    /// execution of that stage (other spans are ignored).
    fn span(&self, span: &SpanRecord) {
        if span.cat != OBS_CATEGORY {
            return;
        }
        if let Some(stage) = PipelineStage::from_name(span.name) {
            let s = &self.stages[stage.index()];
            s.nanos.fetch_add(span.dur_ns, Ordering::Relaxed);
            s.runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Feeds hit/miss/point counter records into the matching tallies
    /// (other counters are ignored).
    fn counter(&self, name: &str, delta: u64) {
        if name == POINTS_METRIC {
            self.points.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        for stage in PipelineStage::ALL {
            if name == stage.hits_metric() {
                self.stages[stage.index()]
                    .hits
                    .fetch_add(delta, Ordering::Relaxed);
                return;
            }
            if name == stage.misses_metric() {
                self.stages[stage.index()]
                    .misses
                    .fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
    }
}

impl PipelineObserver {
    /// A fresh observer with all counters at zero.
    pub fn new() -> PipelineObserver {
        PipelineObserver::default()
    }

    /// Runs `f` attributed to `stage`, accumulating its wall time (and
    /// delivering the timing to this observer through its [`Sink`]
    /// interface — the same record a trace replay would produce).
    pub fn time<T>(&self, stage: PipelineStage, f: impl FnOnce() -> T) -> T {
        let start_ns = obs::now_ns();
        let start = Instant::now();
        let out = f();
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.span(&SpanRecord {
            name: stage.name(),
            cat: OBS_CATEGORY,
            start_ns,
            dur_ns,
            thread: 0,
            id: 0,
            parent: None,
        });
        out
    }

    /// Records a cache hit for `stage`, mirrored to the global metrics
    /// registry and to any installed trace sink.
    pub fn hit(&self, stage: PipelineStage) {
        self.counter(stage.hits_metric(), 1);
        self.global_hits[stage.index()].add(1);
        obs::emit_counter(stage.hits_metric(), 1);
    }

    /// Records a cache miss for `stage`, mirrored to the global metrics
    /// registry and to any installed trace sink.
    pub fn miss(&self, stage: PipelineStage) {
        self.counter(stage.misses_metric(), 1);
        self.global_misses[stage.index()].add(1);
        obs::emit_counter(stage.misses_metric(), 1);
    }

    /// Adds to the evaluated-design-point tally (mirrored globally).
    pub fn add_points(&self, n: u64) {
        self.counter(POINTS_METRIC, n);
        self.global_points.add(n);
        obs::emit_counter(POINTS_METRIC, n);
    }

    /// Snapshots all counters.
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            stages: PipelineStage::ALL
                .iter()
                .map(|&stage| {
                    let s = &self.stages[stage.index()];
                    StageReport {
                        stage,
                        wall: Duration::from_nanos(s.nanos.load(Ordering::Relaxed)),
                        runs: s.runs.load(Ordering::Relaxed),
                        hits: s.hits.load(Ordering::Relaxed),
                        misses: s.misses.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            points_evaluated: self.points.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for s in &self.stages {
            s.nanos.store(0, Ordering::Relaxed);
            s.runs.store(0, Ordering::Relaxed);
            s.hits.store(0, Ordering::Relaxed);
            s.misses.store(0, Ordering::Relaxed);
        }
        self.points.store(0, Ordering::Relaxed);
    }
}

/// One stage's counters at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// The stage.
    pub stage: PipelineStage,
    /// Accumulated wall time of stage executions (cache misses).
    pub wall: Duration,
    /// Number of stage executions.
    pub runs: u64,
    /// Artifact-store hits attributed to this stage.
    pub hits: u64,
    /// Artifact-store misses attributed to this stage.
    pub misses: u64,
}

/// A full instrumentation snapshot (the `--timings` table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// Per-stage counters, in dataflow order.
    pub stages: Vec<StageReport>,
    /// Total design points evaluated through the pipeline.
    pub points_evaluated: u64,
}

impl PipelineReport {
    /// Total wall time across all stages.
    pub fn total_wall(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Total cache hits across all stages.
    pub fn hits(&self) -> u64 {
        self.stages.iter().map(|s| s.hits).sum()
    }

    /// Total cache misses across all stages.
    pub fn misses(&self) -> u64 {
        self.stages.iter().map(|s| s.misses).sum()
    }
}

impl std::fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<12} {:>6} {:>8} {:>8} {:>12}",
            "stage", "runs", "hits", "misses", "wall"
        )?;
        for s in &self.stages {
            if s.runs == 0 && s.hits == 0 && s.misses == 0 {
                continue;
            }
            writeln!(
                f,
                "{:<12} {:>6} {:>8} {:>8} {:>12}",
                s.stage.name(),
                s.runs,
                s.hits,
                s.misses,
                format!("{:.3?}", s.wall),
            )?;
        }
        write!(f, "points evaluated: {}", self.points_evaluated)
    }
}

type TopoKey = Vec<Option<usize>>;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ScheduleKey {
    topo: TopoKey,
    kernel: KernelKind,
    pe_fwd: usize,
    pe_bwd: usize,
    pipelined: bool,
    limb_sequential: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    topo: TopoKey,
    kind: PatternKind,
    b_cols: usize,
    block: usize,
    units: usize,
}

/// Cache key of the Programs stage: the backend is part of the key, so
/// scalar and lane variants of the same design stay warm side by side
/// under distinct program identities.
type ProgramKey = (TopoKey, AcceleratorKnobs, KernelKind, BackendKind);

/// Thread-safe store of compilation artifacts, keyed by the producing
/// stage's inputs. Artifacts are held behind `Arc`, so a hit shares the
/// stored product instead of recomputing or cloning it. Every stage is a
/// pure function of its key, which makes the only invalidation rule
/// "never": keys embed the full input (the topology's parent vector, PE
/// counts, scheduling mode, pattern kind, block geometry), so a changed
/// input is a different key, not a stale entry.
#[derive(Default)]
pub struct ArtifactStore {
    graphs: RwLock<HashMap<(TopoKey, KernelKind), Arc<TaskGraph>>>,
    patterns: RwLock<HashMap<(TopoKey, PatternKind), Arc<SparsityPattern>>>,
    schedules: RwLock<HashMap<ScheduleKey, Arc<Schedule>>>,
    plans: RwLock<HashMap<PlanKey, Arc<BlockMatmulPlan>>>,
    programs: RwLock<HashMap<ProgramKey, Arc<CompiledProgram>>>,
    fragments: RwLock<HashMap<FragmentId, u64>>,
}

/// Entry counts per artifact kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Cached task graphs.
    pub task_graphs: usize,
    /// Cached sparsity patterns.
    pub patterns: usize,
    /// Cached schedules.
    pub schedules: usize,
    /// Cached blocked mat-mul plans.
    pub block_plans: usize,
    /// Cached compiled simulation programs.
    pub programs: usize,
    /// Cached content-addressed scalar fragments.
    pub fragments: usize,
}

impl StoreStats {
    /// Total cached artifacts.
    pub fn total(&self) -> usize {
        self.task_graphs
            + self.patterns
            + self.schedules
            + self.block_plans
            + self.programs
            + self.fragments
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "artifact store: {} task graphs, {} patterns, {} schedules, {} block plans, {} programs, {} fragments",
            self.task_graphs, self.patterns, self.schedules, self.block_plans, self.programs,
            self.fragments
        )
    }
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> ArtifactStore {
        ArtifactStore::default()
    }

    /// Entry counts per artifact kind.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            task_graphs: self.graphs.read().len(),
            patterns: self.patterns.read().len(),
            schedules: self.schedules.read().len(),
            block_plans: self.plans.read().len(),
            programs: self.programs.read().len(),
            fragments: self.fragments.read().len(),
        }
    }

    /// Drops every cached artifact.
    pub fn clear(&self) {
        self.graphs.write().clear();
        self.patterns.write().clear();
        self.schedules.write().clear();
        self.plans.write().clear();
        self.programs.write().clear();
        self.fragments.write().clear();
    }
}

/// A handle to the staged pipeline: the shared [`ArtifactStore`] plus the
/// [`PipelineObserver`]. Cloning shares both (the handle is a pair of
/// `Arc`s), so workers of a parallel sweep and sequential callers all see
/// one store and one set of counters.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    store: Arc<ArtifactStore>,
    observer: Arc<PipelineObserver>,
}

impl Pipeline {
    /// A pipeline with a fresh (cold) store and zeroed counters.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// A pipeline over an existing store (fresh counters).
    pub fn with_store(store: Arc<ArtifactStore>) -> Pipeline {
        Pipeline {
            store,
            observer: Arc::new(PipelineObserver::new()),
        }
    }

    /// The process-wide pipeline every framework entry point defaults to.
    /// One warmed store shared by `Framework`, the design-space sweeps,
    /// the CLI, the experiments binary and the benches.
    pub fn global() -> &'static Pipeline {
        static GLOBAL: OnceLock<Pipeline> = OnceLock::new();
        GLOBAL.get_or_init(Pipeline::new)
    }

    /// The artifact store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// A shared handle to the artifact store, for building further
    /// pipelines over the same warmed artifacts (via
    /// [`Pipeline::with_store`]) — e.g. one per serving worker, so
    /// concurrent readers share products but keep separate counters.
    pub fn store_handle(&self) -> Arc<ArtifactStore> {
        Arc::clone(&self.store)
    }

    /// The instrumentation counters.
    pub fn observer(&self) -> &PipelineObserver {
        &self.observer
    }

    /// Ir stage: the traversal task graph of `(topo, kernel)`.
    pub fn task_graph(&self, topo: &Topology, kernel: KernelKind) -> Arc<TaskGraph> {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::Ir.name());
        let key = (topo.parents().to_vec(), kernel);
        if let Some(g) = self.store.graphs.read().get(&key) {
            self.observer.hit(PipelineStage::Ir);
            return Arc::clone(g);
        }
        self.observer.miss(PipelineStage::Ir);
        let g = self.observer.time(PipelineStage::Ir, || {
            Arc::new(match kernel {
                KernelKind::DynamicsGradient => TaskGraph::dynamics_gradient(topo),
                KernelKind::InverseDynamics => TaskGraph::inverse_dynamics(topo),
                KernelKind::ForwardKinematics => TaskGraph::forward_kinematics(topo),
            })
        });
        Arc::clone(self.store.graphs.write().entry(key).or_insert(g))
    }

    /// Ir stage: the `kind` sparsity pattern of `topo`.
    pub fn pattern(&self, topo: &Topology, kind: PatternKind) -> Arc<SparsityPattern> {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::Ir.name());
        let key = (topo.parents().to_vec(), kind);
        if let Some(p) = self.store.patterns.read().get(&key) {
            self.observer.hit(PipelineStage::Ir);
            return Arc::clone(p);
        }
        self.observer.miss(PipelineStage::Ir);
        let p = self.observer.time(PipelineStage::Ir, || {
            Arc::new(match kind {
                PatternKind::Mass => SparsityPattern::mass_matrix(topo),
                PatternKind::InverseMass => SparsityPattern::inverse_mass_matrix(topo),
            })
        });
        Arc::clone(self.store.patterns.write().entry(key).or_insert(p))
    }

    /// Schedules stage: the PE schedule of `(topo, kernel)` under `cfg`.
    ///
    /// Schedules are cached per `(topology, kernel, PEf, PEb, pipelined,
    /// limb-sequential)`. Non-default task costs fall outside the key
    /// space, so those configurations are computed fresh on every call
    /// (counted as misses) rather than risking a collision.
    pub fn schedule_for(
        &self,
        topo: &Topology,
        kernel: KernelKind,
        cfg: &SchedulerConfig,
    ) -> Arc<Schedule> {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::Schedules.name());
        let graph = self.task_graph(topo, kernel);
        if cfg.costs != TaskCosts::default() {
            self.observer.miss(PipelineStage::Schedules);
            return self
                .observer
                .time(PipelineStage::Schedules, || Arc::new(schedule(&graph, cfg)));
        }
        let key = ScheduleKey {
            topo: topo.parents().to_vec(),
            kernel,
            pe_fwd: cfg.pe_fwd,
            pe_bwd: cfg.pe_bwd,
            pipelined: cfg.pipelined,
            limb_sequential: cfg.limb_sequential,
        };
        if let Some(s) = self.store.schedules.read().get(&key) {
            self.observer.hit(PipelineStage::Schedules);
            return Arc::clone(s);
        }
        self.observer.miss(PipelineStage::Schedules);
        let s = self
            .observer
            .time(PipelineStage::Schedules, || Arc::new(schedule(&graph, cfg)));
        Arc::clone(self.store.schedules.write().entry(key).or_insert(s))
    }

    /// BlockPlans stage: the NOP-skipping blocked mat-mul plan over the
    /// `kind` pattern of `topo`, for a `dim×dim · dim×b_cols` product at
    /// the given block size and unit count.
    pub fn block_plan(
        &self,
        topo: &Topology,
        kind: PatternKind,
        b_cols: usize,
        block: usize,
        units: usize,
    ) -> Arc<BlockMatmulPlan> {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::BlockPlans.name());
        let key = PlanKey {
            topo: topo.parents().to_vec(),
            kind,
            b_cols,
            block,
            units,
        };
        if let Some(p) = self.store.plans.read().get(&key) {
            self.observer.hit(PipelineStage::BlockPlans);
            return Arc::clone(p);
        }
        self.observer.miss(PipelineStage::BlockPlans);
        let pattern = self.pattern(topo, kind);
        let p = self.observer.time(PipelineStage::BlockPlans, || {
            Arc::new(BlockMatmulPlan::new(&pattern, b_cols, block, units))
        });
        Arc::clone(self.store.plans.write().entry(key).or_insert(p))
    }

    /// BlockPlans stage, closed form: the latency of the ∇FD kernel's
    /// blocked `M⁻¹` multiply (`n×n · n×2n`, per-link units, default
    /// latency model) at block size `block`, through the fragment store.
    ///
    /// A miss runs [`block_matmul_latency`] over the cached pattern, so no
    /// op list is built; the plan itself is materialised only by
    /// [`Self::block_plan`], for the block a design actually uses. The
    /// fragment id is the one the DSE sweeps join on, so knob choice and
    /// sweeps share warmth both ways. Returns the latency and whether it
    /// was a fragment hit.
    pub fn matmul_latency(&self, topo: &Topology, block: usize) -> (u64, bool) {
        let n = topo.len();
        let model = MatmulLatencyModel::default();
        let units = MatmulUnits::PerLink.resolve(n);
        let id = FragmentHasher::new("dse.block.latency")
            .parents(topo.parents())
            .u64(1) // PatternKind::InverseMass
            .usize(2 * n)
            .usize(block)
            .usize(units)
            .u64(model.fill)
            .finish();
        let (v, hit) = self.fragment_u64(id, || {
            let pattern = self.pattern(topo, PatternKind::InverseMass);
            self.observer.time(PipelineStage::BlockPlans, || {
                block_matmul_latency(&pattern, 2 * n, block, units, &model)
            })
        });
        if hit {
            self.observer.hit(PipelineStage::BlockPlans);
        } else {
            self.observer.miss(PipelineStage::BlockPlans);
        }
        (v, hit)
    }

    /// The latency-minimal block size in `1..=max_block` (capped at the
    /// link count) under [`Self::matmul_latency`], the smallest on ties —
    /// the paper's Sec. 4.3 block-size choice.
    pub fn fastest_block(&self, topo: &Topology, max_block: usize) -> usize {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::BlockPlans.name());
        (1..=max_block.min(topo.len()).max(1))
            .min_by_key(|&b| self.matmul_latency(topo, b).0)
            .expect("non-empty block range")
    }

    /// Design stage: a fully-elaborated [`AcceleratorDesign`], assembled
    /// from cached parts (graph, both schedules, block plan). Produces a
    /// design identical to [`AcceleratorDesign::generate_for_kernel`].
    pub fn design(
        &self,
        topo: &Topology,
        knobs: AcceleratorKnobs,
        kernel: KernelKind,
    ) -> AcceleratorDesign {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::Design.name());
        let graph = self.task_graph(topo, kernel);
        let cfg = SchedulerConfig::with_pes(knobs.pe_fwd, knobs.pe_bwd);
        let sched = self.schedule_for(topo, kernel, &cfg);
        let sched_np = self.schedule_for(topo, kernel, &cfg.without_pipelining());
        let matmul = (kernel == KernelKind::DynamicsGradient).then(|| {
            let n = topo.len();
            let plan = self.block_plan(
                topo,
                PatternKind::InverseMass,
                2 * n,
                knobs.block_size,
                knobs.matmul_units.resolve(n),
            );
            (*plan).clone()
        });
        self.observer.time(PipelineStage::Design, || {
            AcceleratorDesign::from_parts(
                topo.clone(),
                knobs,
                kernel,
                (*graph).clone(),
                (*sched).clone(),
                (*sched_np).clone(),
                matmul,
            )
        })
    }

    /// Programs stage: the compiled simulation program of the
    /// `(topo, knobs, kernel)` design — the lowered flat op array the
    /// cycle-level simulator executes ([`roboshape_sim::CompiledProgram`]).
    ///
    /// A miss assembles the design from cached parts and delegates to the
    /// simulator's process-wide program cache
    /// ([`roboshape_sim::shared_program`]), so a program obtained here and
    /// one obtained by calling `try_simulate` directly are the same `Arc`
    /// — serving, DSE sweeps and the experiments all share one compile
    /// per design.
    pub fn compiled_program(
        &self,
        topo: &Topology,
        knobs: AcceleratorKnobs,
        kernel: KernelKind,
    ) -> Arc<CompiledProgram> {
        self.compiled_program_for(topo, knobs, kernel, BackendKind::Scalar)
    }

    /// Fragment store: the cached scalar addressed by `id`, or the result
    /// of `compute`, stored under `id` for the next caller. Returns the
    /// value and whether it was served from the store (`true` on a hit).
    ///
    /// Fragments carry no stage attribution of their own — the consumer
    /// decides which [`PipelineStage`] a hit stands in for (the DSE sweep
    /// credits a makespan-fragment hit to the Schedules stage, since
    /// that's the computation the hit avoided) and keeps its own
    /// domain-level counters (`dse.frag.{hits,misses}`). A miss runs
    /// `compute` outside any store lock, so compute paths are free to
    /// re-enter the pipeline's stage accessors.
    pub fn fragment_u64(&self, id: FragmentId, compute: impl FnOnce() -> u64) -> (u64, bool) {
        if let Some(&v) = self.store.fragments.read().get(&id) {
            return (v, true);
        }
        let v = compute();
        (*self.store.fragments.write().entry(id).or_insert(v), false)
    }

    /// [`Self::compiled_program`] for an explicit execution backend.
    /// Backends are part of the cache key: a scalar and a lane program
    /// for the same design are distinct artifacts (distinct program ids,
    /// so scratch arenas rebind correctly when switching).
    pub fn compiled_program_for(
        &self,
        topo: &Topology,
        knobs: AcceleratorKnobs,
        kernel: KernelKind,
        backend: BackendKind,
    ) -> Arc<CompiledProgram> {
        let _span = obs::span(OBS_CATEGORY, PipelineStage::Programs.name());
        let key = (topo.parents().to_vec(), knobs, kernel, backend);
        if let Some(p) = self.store.programs.read().get(&key) {
            self.observer.hit(PipelineStage::Programs);
            return Arc::clone(p);
        }
        self.observer.miss(PipelineStage::Programs);
        let design = self.design(topo, knobs, kernel);
        let p = self.observer.time(PipelineStage::Programs, || {
            roboshape_sim::shared_program_for(&design, backend)
        });
        Arc::clone(self.store.programs.write().entry(key).or_insert(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_robots::{zoo, Zoo};

    #[test]
    fn fragment_ids_are_pinned() {
        // Fragment ids key the store; a silent change to the hash would
        // only show as lost warmth, so one id is pinned exactly.
        let id = FragmentHasher::new("dse.sched.makespan")
            .parents(&[None, Some(0), Some(1), Some(1)])
            .usize(3)
            .u64(u64::MAX)
            .bytes(b"lanes")
            .finish();
        assert_eq!(
            id,
            FragmentId([0x878a_cc7c_82f9_4b7f, 0x50ea_4860_a2a1_a2eb])
        );
    }

    #[test]
    fn block_choice_reads_closed_form_latencies() {
        let model = MatmulLatencyModel::default();
        for robot in Zoo::ALL {
            let topo = zoo(robot).topology().clone();
            let n = topo.len();
            let p = Pipeline::new();
            let best = p.fastest_block(&topo, n);
            // No plan is built for the search; every block is one
            // fragment miss, and a second search is all hits.
            assert_eq!(p.store().stats().block_plans, 0);
            assert_eq!(p.store().stats().fragments, n);
            assert_eq!(p.fastest_block(&topo, n), best);
            let plans = p.observer().report().stages[PipelineStage::BlockPlans.index()];
            assert_eq!((plans.hits, plans.misses), (n as u64, n as u64));
            // The closed form agrees with the materialised plans, and the
            // first minimum wins.
            let plan_latency = |b: usize| {
                p.block_plan(&topo, PatternKind::InverseMass, 2 * n, b, n)
                    .latency(&model)
            };
            for b in 1..=n {
                assert_eq!(p.matmul_latency(&topo, b).0, plan_latency(b));
            }
            let oracle = (1..=n).min_by_key(|&b| plan_latency(b)).unwrap();
            assert_eq!(best, oracle, "{robot:?}");
        }
    }

    #[test]
    fn artifacts_hit_on_second_access() {
        let p = Pipeline::new();
        let topo = Topology::chain(4);
        let g1 = p.task_graph(&topo, KernelKind::DynamicsGradient);
        let g2 = p.task_graph(&topo, KernelKind::DynamicsGradient);
        assert!(Arc::ptr_eq(&g1, &g2));
        let s1 = p.schedule_for(
            &topo,
            KernelKind::DynamicsGradient,
            &SchedulerConfig::with_pes(2, 2),
        );
        let s2 = p.schedule_for(
            &topo,
            KernelKind::DynamicsGradient,
            &SchedulerConfig::with_pes(2, 2),
        );
        assert!(Arc::ptr_eq(&s1, &s2));
        let b1 = p.block_plan(&topo, PatternKind::InverseMass, 8, 2, 4);
        let b2 = p.block_plan(&topo, PatternKind::InverseMass, 8, 2, 4);
        assert!(Arc::ptr_eq(&b1, &b2));
        let report = p.observer().report();
        // g2, the graph lookup inside each schedule_for, s2 and b2.
        assert_eq!(report.hits(), 5);
        // graph + schedule + plan + pattern misses.
        assert!(report.misses() >= 4);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let p = Pipeline::new();
        let a = Topology::chain(4);
        let b = Topology::chain(5);
        assert_ne!(
            p.task_graph(&a, KernelKind::DynamicsGradient).tasks().len(),
            p.task_graph(&b, KernelKind::DynamicsGradient).tasks().len(),
        );
        let cfg = SchedulerConfig::with_pes(2, 2);
        let pipelined = p.schedule_for(&a, KernelKind::DynamicsGradient, &cfg);
        let barrier = p.schedule_for(&a, KernelKind::DynamicsGradient, &cfg.without_pipelining());
        assert!(pipelined.makespan() <= barrier.makespan());
        assert_ne!(
            p.pattern(&a, PatternKind::Mass).dim(),
            p.pattern(&b, PatternKind::Mass).dim()
        );
    }

    #[test]
    fn non_default_costs_bypass_the_cache() {
        let p = Pipeline::new();
        let topo = Topology::chain(3);
        let mut cfg = SchedulerConfig::with_pes(1, 1);
        cfg.costs.rnea_fwd += 7;
        let a = p.schedule_for(&topo, KernelKind::DynamicsGradient, &cfg);
        let b = p.schedule_for(&topo, KernelKind::DynamicsGradient, &cfg);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(*a, *b); // still deterministic
        assert_eq!(p.store().stats().schedules, 0);
    }

    #[test]
    fn design_matches_direct_generation() {
        let p = Pipeline::new();
        for which in [Zoo::Iiwa, Zoo::Jaco2] {
            let robot = zoo(which);
            let topo = robot.topology();
            let knobs = AcceleratorKnobs::new(3, 2, 2);
            let direct = AcceleratorDesign::generate(topo, knobs);
            for _ in 0..2 {
                // Cold then warm: both must match the uncached path.
                let piped = p.design(topo, knobs, KernelKind::DynamicsGradient);
                assert_eq!(piped.schedule(), direct.schedule());
                assert_eq!(
                    piped.schedule_without_pipelining(),
                    direct.schedule_without_pipelining()
                );
                assert_eq!(piped.matmul_plan(), direct.matmul_plan());
                assert_eq!(piped.compute_cycles(), direct.compute_cycles());
                assert_eq!(piped.storage(), direct.storage());
            }
        }
    }

    #[test]
    fn store_stats_and_clear() {
        let p = Pipeline::new();
        let topo = zoo(Zoo::Hyq);
        p.design(
            topo.topology(),
            AcceleratorKnobs::new(2, 2, 3),
            KernelKind::DynamicsGradient,
        );
        let stats = p.store().stats();
        assert_eq!(stats.task_graphs, 1);
        assert_eq!(stats.patterns, 1);
        assert_eq!(stats.schedules, 2); // pipelined + barrier
        assert_eq!(stats.block_plans, 1);
        assert_eq!(stats.total(), 5);
        p.store().clear();
        assert_eq!(p.store().stats().total(), 0);
    }

    #[test]
    fn observer_counts_points_and_resets() {
        let obs = PipelineObserver::new();
        obs.add_points(100);
        obs.add_points(25);
        obs.time(PipelineStage::Reports, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let r = obs.report();
        assert_eq!(r.points_evaluated, 125);
        assert!(r.total_wall() >= Duration::from_millis(1));
        let rendered = r.to_string();
        assert!(rendered.contains("reports"));
        assert!(rendered.contains("points evaluated: 125"));
        obs.reset();
        assert_eq!(obs.report().points_evaluated, 0);
        assert_eq!(obs.report().total_wall(), Duration::ZERO);
    }

    #[test]
    fn stage_name_and_metric_lookup_roundtrip() {
        for stage in PipelineStage::ALL {
            assert_eq!(PipelineStage::from_name(stage.name()), Some(stage));
            assert!(stage.hits_metric().ends_with(".hits"));
            assert!(stage.misses_metric().ends_with(".misses"));
            assert!(stage.hits_metric().contains(stage.name()));
        }
        assert_eq!(PipelineStage::from_name("nonsense"), None);
    }

    #[test]
    fn observer_driven_purely_through_sink_interface() {
        // The observer must be usable as a trace consumer: feed it the
        // span/counter vocabulary the accessors emit and expect the same
        // report the direct methods would produce.
        let obs = PipelineObserver::new();
        obs.span(&SpanRecord {
            name: PipelineStage::Schedules.name(),
            cat: OBS_CATEGORY,
            start_ns: 0,
            dur_ns: 1_000,
            thread: 1,
            id: 1,
            parent: None,
        });
        obs.span(&SpanRecord {
            name: "schedules",
            cat: "unrelated-category",
            start_ns: 0,
            dur_ns: 9_999_999,
            thread: 1,
            id: 2,
            parent: None,
        });
        obs.counter(PipelineStage::Schedules.hits_metric(), 3);
        obs.counter(PipelineStage::Ir.misses_metric(), 2);
        obs.counter(POINTS_METRIC, 11);
        obs.counter("some.other.metric", 99);
        let r = obs.report();
        let sched = r.stages[PipelineStage::Schedules.index()];
        assert_eq!(sched.runs, 1);
        assert_eq!(sched.wall, Duration::from_nanos(1_000));
        assert_eq!(sched.hits, 3);
        assert_eq!(r.stages[PipelineStage::Ir.index()].misses, 2);
        assert_eq!(r.points_evaluated, 11);
        assert_eq!(r.hits(), 3);
    }

    #[test]
    fn stage_accessors_emit_trace_spans() {
        let sink = Arc::new(roboshape_obs::CollectingSink::new());
        roboshape_obs::set_sink(sink.clone());
        let p = Pipeline::new();
        p.design(
            zoo(Zoo::Baxter).topology(),
            AcceleratorKnobs::new(2, 2, 2),
            KernelKind::DynamicsGradient,
        );
        roboshape_obs::clear_sink();
        let spans = sink.spans();
        for stage in [
            PipelineStage::Ir,
            PipelineStage::Schedules,
            PipelineStage::BlockPlans,
            PipelineStage::Design,
        ] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.cat == OBS_CATEGORY && s.name == stage.name()),
                "no {} span captured",
                stage.name()
            );
        }
        // Accessors called from design() nest under the design span.
        let design = spans
            .iter()
            .find(|s| s.name == PipelineStage::Design.name())
            .unwrap();
        assert!(spans
            .iter()
            .any(|s| s.name == PipelineStage::Ir.name() && s.parent == Some(design.id)));
        // Hit/miss counters reached the sink alongside the spans.
        let counters = sink.counters();
        assert!(counters
            .iter()
            .any(|c| c.name == PipelineStage::Ir.misses_metric()));
    }

    #[test]
    fn store_handle_shares_artifacts_with_fresh_counters() {
        let warm = Pipeline::new();
        let topo = Topology::chain(5);
        let g1 = warm.task_graph(&topo, KernelKind::DynamicsGradient);
        let reader = Pipeline::with_store(warm.store_handle());
        let g2 = reader.task_graph(&topo, KernelKind::DynamicsGradient);
        assert!(Arc::ptr_eq(&g1, &g2)); // same stored artifact
        assert_eq!(reader.observer().report().hits(), 1); // own counters
        assert_eq!(reader.observer().report().misses(), 0);
        assert_eq!(warm.observer().report().misses(), 1);
    }

    #[test]
    fn programs_stage_shares_one_compile_per_design() {
        let p = Pipeline::new();
        let robot = zoo(Zoo::Iiwa);
        let topo = robot.topology();
        let knobs = AcceleratorKnobs::new(4, 6, 2);
        let kernel = KernelKind::DynamicsGradient;
        let first = p.compiled_program(topo, knobs, kernel);
        let second = p.compiled_program(topo, knobs, kernel);
        assert!(Arc::ptr_eq(&first, &second), "store must hand out one Arc");
        assert_eq!(p.store().stats().programs, 1);
        // The sim crate's own process-wide cache and the pipeline store
        // resolve a matching design to the *same* compiled program, so
        // serving and direct try_simulate calls share the compile.
        let design = p.design(topo, knobs, kernel);
        let direct = roboshape_sim::shared_program(&design);
        assert!(
            Arc::ptr_eq(&first, &direct),
            "pipeline and sim-global caches diverged"
        );
        // A different knob setting compiles its own program.
        let other = p.compiled_program(topo, AcceleratorKnobs::new(1, 1, 1), kernel);
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(p.store().stats().programs, 2);
    }

    #[test]
    fn fragments_hit_on_second_access_and_clear() {
        let p = Pipeline::new();
        let id = FragmentHasher::new("test.frag").usize(7).u64(42).finish();
        let mut computes = 0;
        let (v, hit) = p.fragment_u64(id, || {
            computes += 1;
            99
        });
        assert_eq!((v, hit), (99, false));
        let (v, hit) = p.fragment_u64(id, || {
            computes += 1;
            0 // never runs
        });
        assert_eq!((v, hit), (99, true));
        assert_eq!(computes, 1);
        assert_eq!(p.store().stats().fragments, 1);
        p.store().clear();
        assert_eq!(p.store().stats().fragments, 0);
    }

    #[test]
    fn fragment_ids_separate_domains_and_content() {
        let base = FragmentHasher::new("a").usize(1).usize(2).finish();
        // Same stream under another domain tag.
        assert_ne!(base, FragmentHasher::new("b").usize(1).usize(2).finish());
        // Domain/content boundary: "ab" + nothing vs "a" + content "b".
        assert_ne!(
            FragmentHasher::new("ab").finish(),
            FragmentHasher::new("a").bytes(b"b").finish()
        );
        // Parent vectors: None is distinct from any index, and length
        // participates.
        let chain = Topology::chain(4);
        let star = Topology::new(vec![None, Some(0), Some(0), Some(0)]).unwrap();
        assert_ne!(
            FragmentHasher::new("t").parents(chain.parents()).finish(),
            FragmentHasher::new("t").parents(star.parents()).finish()
        );
        // Deterministic across calls.
        assert_eq!(base, FragmentHasher::new("a").usize(1).usize(2).finish());
    }

    #[test]
    fn fragments_are_shared_through_store_handles() {
        let warm = Pipeline::new();
        let id = FragmentHasher::new("test.shared").finish();
        warm.fragment_u64(id, || 5);
        let reader = Pipeline::with_store(warm.store_handle());
        let (v, hit) = reader.fragment_u64(id, || unreachable!("must hit"));
        assert_eq!((v, hit), (5, true));
    }

    #[test]
    fn pipeline_is_shareable_across_threads() {
        let p = Pipeline::new();
        let topo = Topology::chain(6);
        std::thread::scope(|scope| {
            for pe in 1..=6 {
                let p = p.clone();
                let topo = &topo;
                scope.spawn(move || {
                    p.schedule_for(
                        topo,
                        KernelKind::DynamicsGradient,
                        &SchedulerConfig::with_pes(pe, 1),
                    );
                });
            }
        });
        assert_eq!(p.store().stats().schedules, 6);
    }
}
