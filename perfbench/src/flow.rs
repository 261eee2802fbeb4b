//! The offline designer flow the traced run times: URDF text to designs
//! and compiled programs, then a cold design-space sweep (which fills
//! the fragment store), a warm re-sweep (which only reads it) and a cold
//! dominance-pruned sweep, with the exhaustive sweep as the oracle.

use crate::inputs::{Rng, Robot};
use crate::report::Tally;
use roboshape::{Constraints, Framework};
use roboshape_arch::{AcceleratorKnobs, KernelKind};
use roboshape_dse::{
    pareto_frontier, sweep_design_space_exhaustive_with, sweep_design_space_pruned_with,
    sweep_design_space_with, DesignPoint, FRAG_HITS_METRIC, FRAG_MISSES_METRIC,
};
use roboshape_obs as obs;
use roboshape_pipeline::Pipeline;
use roboshape_sim::BackendKind;
use roboshape_urdf::{parse_urdf, UrdfError};
use std::hint::black_box;
use std::time::Instant;

/// Robots the exhaustive oracle re-sweeps per run, at most.
const ORACLE_ROBOTS: usize = 3;
/// The oracle is sequential and re-schedules every point, so its sample
/// is limited to robots no larger than HyQ+arm.
const ORACLE_MAX_LINKS: usize = 19;
const TAG_ORACLE: u64 = 0x0AC1E;

const KERNELS: [KernelKind; 3] = [
    KernelKind::DynamicsGradient,
    KernelKind::InverseDynamics,
    KernelKind::ForwardKinematics,
];

/// The designer's steps for one robot, the way the engine registers it:
/// knob choice, then the three kernels' designs and compiled programs
/// through the framework's pipeline.
pub fn compile(framework: &Framework) -> AcceleratorKnobs {
    let knobs = framework.choose_knobs(Constraints::unconstrained());
    let topo = framework.robot().topology();
    let pipeline = framework.pipeline();
    for kernel in KERNELS {
        black_box(pipeline.design(topo, knobs, kernel));
        let backend = if kernel == KernelKind::ForwardKinematics {
            BackendKind::Scalar
        } else {
            BackendKind::Lanes
        };
        black_box(pipeline.compiled_program_for(topo, knobs, kernel, backend));
    }
    knobs
}

/// URDF text through [`compile`] on `pipeline`.
fn compile_text(pipeline: &Pipeline, text: &str) -> Result<Framework, UrdfError> {
    let framework = Framework::from_model(parse_urdf(text)?).with_pipeline(pipeline.clone());
    compile(&framework);
    Ok(framework)
}

/// One pass of the flow over a population: every robot compiled and
/// swept cold then warm on one fresh pipeline, and swept with pruning on
/// a second fresh one.
#[derive(Default)]
pub struct Pass {
    pub cold_points: usize,
    pub cold_s: f64,
    pub warm_points: usize,
    pub warm_s: f64,
    pub grid_points: usize,
    pub evaluated_points: usize,
    pub pruned_s: f64,
    pub frontier_s: f64,
    pub frag_hits: u64,
    pub frag_misses: u64,
    /// Sum over the population of the fastest frontier point's cycles.
    pub cycles_sum: u64,
    /// Cold-sweep points of the robots the exhaustive oracle re-checks.
    pub sampled: Vec<(usize, Vec<DesignPoint>)>,
}

pub fn flow_pass(texts: &[String], sample: &[usize], tally: &mut Tally) -> Pass {
    let hits = obs::metrics().counter(FRAG_HITS_METRIC);
    let misses = obs::metrics().counter(FRAG_MISSES_METRIC);
    let (hits_before, misses_before) = (hits.get(), misses.get());
    let mut pass = Pass::default();
    let (cold, pruned_cold) = (Pipeline::new(), Pipeline::new());
    for (i, text) in texts.iter().enumerate() {
        let framework = match compile_text(&cold, text) {
            Ok(framework) => framework,
            Err(e) => {
                tally.check(false, || format!("robot {i}: {e}"));
                continue;
            }
        };
        let topo = framework.robot().topology();
        let timed = Instant::now();
        let points = sweep_design_space_with(&cold, topo);
        pass.cold_s += timed.elapsed().as_secs_f64();
        pass.cold_points += points.len();
        let timed = Instant::now();
        let again = sweep_design_space_with(&cold, topo);
        pass.warm_s += timed.elapsed().as_secs_f64();
        pass.warm_points += again.len();
        let timed = Instant::now();
        let pruned = sweep_design_space_pruned_with(&pruned_cold, topo);
        pass.pruned_s += timed.elapsed().as_secs_f64();
        pass.grid_points += pruned.grid_points;
        pass.evaluated_points += pruned.evaluated_points;
        let timed = Instant::now();
        let frontier = pareto_frontier(&points);
        pass.frontier_s += timed.elapsed().as_secs_f64();
        tally.check(again == points, || {
            format!("robot {i}: the warm re-sweep differs from the cold sweep")
        });
        tally.check(pruned.frontier == frontier, || {
            format!("robot {i}: the pruned frontier differs from the full sweep's")
        });
        pass.cycles_sum += frontier.first().map_or(0, |p| p.total_cycles);
        if sample.contains(&i) {
            pass.sampled.push((i, points));
        }
    }
    pass.frag_hits = hits.get() - hits_before;
    pass.frag_misses = misses.get() - misses_before;
    pass
}

/// Robots the exhaustive oracle re-checks: up to [`ORACLE_ROBOTS`] of at
/// most [`ORACLE_MAX_LINKS`] links, drawn from the seed.
pub fn oracle_sample(robots: &[Robot], seed: u64) -> Vec<usize> {
    let mut candidates: Vec<usize> = (0..robots.len())
        .filter(|&i| robots[i].model.num_links() <= ORACLE_MAX_LINKS)
        .collect();
    let mut rng = Rng::stream(seed, TAG_ORACLE);
    let mut picked = Vec::with_capacity(ORACLE_ROBOTS);
    while picked.len() < ORACLE_ROBOTS && !candidates.is_empty() {
        picked.push(candidates.swap_remove(rng.below(candidates.len())));
    }
    picked
}

/// Each sampled robot's cold sweep must equal the exhaustive oracle
/// point for point, and its frontier the oracle's frontier.
pub fn check_oracle(texts: &[String], pass: &Pass, tally: &mut Tally) {
    tally.check(!pass.sampled.is_empty(), || {
        "no robot was sampled for the exhaustive oracle".to_string()
    });
    for (i, points) in &pass.sampled {
        let oracle = match parse_urdf(&texts[*i]) {
            Ok(model) => sweep_design_space_exhaustive_with(&Pipeline::new(), model.topology()),
            Err(e) => {
                tally.check(false, || format!("robot {i}: {e}"));
                continue;
            }
        };
        tally.check(*points == oracle, || {
            format!("robot {i}: the sweep differs from the exhaustive oracle")
        });
        tally.check(pareto_frontier(points) == pareto_frontier(&oracle), || {
            format!("robot {i}: the frontier differs from the exhaustive oracle's")
        });
    }
}
