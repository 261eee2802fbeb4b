//! Design-space exploration for RoboShape accelerators
//! (paper Secs. 5.3–5.5).
//!
//! Because the architecture is parameterized by physically meaningful
//! topology knobs, the design space per robot is "tractable (1000s of
//! design points)" (paper Fig. 12): the full cross product of forward PEs
//! × backward PEs × block size is `N³`. This crate provides:
//!
//! * [`sweep_design_space`] — evaluates every knob setting (latency via
//!   the real scheduler + blocked-mat-mul plan, resources via the DSE
//!   model) over a worker pool bounded by the machine's parallelism.
//!   Every point is a *join* of two content-addressed sub-artifact
//!   fragments — a per-`(PEf, PEb)` makespan and a per-block latency —
//!   cached in the shared compilation-pipeline store
//!   (`roboshape-pipeline`), so warm re-sweeps and grid deltas
//!   ([`SweepGrid`], [`sweep_design_space_grid`]) recompile only what
//!   changed (the `dse.frag.{hits,misses}` counters prove it); `_with`
//!   variants accept an explicit
//!   [`Pipeline`](roboshape_pipeline::Pipeline);
//! * [`sweep_design_space_pruned`] — the same frontier without the full
//!   grid: a streaming Pareto skyline plus makespan monotonicity prune
//!   provably dominated rows *before* scheduling them, bit-identical to
//!   the exhaustive frontier by construction;
//! * [`pareto_frontier`] — the latency/LUT Pareto front of Fig. 12;
//! * [`AllocationStrategy`] / [`evaluate_strategies`] — the six
//!   resource-allocation strategies of Fig. 13 (Total Links, Average and
//!   Maximum Leaf Depth, Maximum Descendants, the Hybrid heuristic, and
//!   exhaustive Optimal Minimum Latency);
//! * [`constrained_selection`] — the Fig. 16 study: under a platform's
//!   80% utilization threshold, compare the maximally-allocated feasible
//!   point against the true minimum-latency feasible point;
//! * [`verify_frontier`] — numerically cross-checks a set of points with
//!   the compiled simulator (`roboshape-sim`), one persistent scratch
//!   arena per sweep worker: knobs move latency, never math.
//!
//! # Examples
//!
//! ```
//! use roboshape_dse::{pareto_frontier, sweep_design_space};
//! use roboshape_topology::Topology;
//!
//! let topo = Topology::chain(5);
//! let points = sweep_design_space(&topo);
//! assert_eq!(points.len(), 5 * 5 * 5);
//! let frontier = pareto_frontier(&points);
//! assert!(!frontier.is_empty());
//! ```

#![warn(missing_docs)]

mod constrained;
mod soc;
mod stats;
mod strategies;
mod sweep;
mod verify;

pub use constrained::{constrained_selection, ConstrainedSelection};
pub use soc::{co_design, SocAllocation};
pub use stats::{design_space_stats, DesignSpaceStats, Quartiles};
pub use strategies::{
    evaluate_strategies, evaluate_strategies_with, AllocationStrategy, StrategyOutcome,
};
pub use sweep::{
    pareto_frontier, sweep_design_space, sweep_design_space_exhaustive_with,
    sweep_design_space_grid, sweep_design_space_grid_with, sweep_design_space_pruned,
    sweep_design_space_pruned_with, sweep_design_space_with, DesignPoint, PrunedSweep, SweepGrid,
    FRAG_HITS_METRIC, FRAG_MISSES_METRIC, PRUNED_POINTS_METRIC, PRUNED_ROWS_METRIC,
};
pub use verify::{verify_frontier, FrontierVerification};
