//! Parametric robot morphology generator: seed-deterministic *families*
//! of robots, parameterized over depth, branching factor, and DOF, each
//! sample carrying Table-3-style topology-pattern statistics.
//!
//! RoboShape's central claim is that topology patterns — not individual
//! robots — determine accelerator structure. The six hand-picked zoo
//! robots in `roboshape-robots` exercise one point per pattern; this
//! crate generates *populations* so design-space and serving experiments
//! can hold across hundreds of morphologies (`experiments ext_zoo`).
//!
//! Every generated [`RobotModel`] is well-conditioned (positive masses,
//! positive-definite rotational inertias) and flows through the existing
//! pipeline/program cache unchanged. Generation is a pure function of
//! `(family, params, seed)`: the same triple always yields the same
//! robot, bit for bit — CI asserts byte-identical `ext_zoo` reports
//! across runs.
//!
//! # Examples
//!
//! ```
//! use roboshape_zoo::{generate, Family, FamilyParams};
//!
//! let sample = generate(Family::MultiArm, FamilyParams::new(3, 2, 4), 7).unwrap();
//! assert_eq!(sample.model.num_links(), 3 + 2 * 4);
//! assert!(sample.stats.metrics.total_links > 0);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roboshape_linalg::{Mat3, Vec3};
use roboshape_obs as obs;
use roboshape_obs::hash::splitmix64;
use roboshape_spatial::{Joint, SpatialInertia, Xform};
use roboshape_topology::TopologyMetrics;
use roboshape_urdf::{LinkHandle, RobotBuilder, RobotModel};
use std::fmt;

/// Observability category for generator spans.
pub const OBS_CATEGORY: &str = "zoo";

/// Counter: robots generated successfully.
pub const GENERATED_ROBOTS_METRIC: &str = "zoo.gen.robots";
/// Counter: total links across all generated robots.
pub const GENERATED_LINKS_METRIC: &str = "zoo.gen.links";
/// Counter: generation requests rejected for degenerate parameters.
pub const REJECTED_PARAMS_METRIC: &str = "zoo.gen.rejected";

/// Touch every `zoo.gen.*` metric once so metrics snapshots surface the
/// full vocabulary even before (or without) any generation — the same
/// convention the serve crate uses for `serve.router.*`.
pub fn preregister_metrics() {
    let m = obs::metrics();
    for name in [
        GENERATED_ROBOTS_METRIC,
        GENERATED_LINKS_METRIC,
        REJECTED_PARAMS_METRIC,
    ] {
        m.counter(name).add(0);
    }
}

/// Hard cap on a single sample's link count — a typed error, not an
/// allocation hazard, when parameters multiply out too large.
pub const MAX_LINKS: usize = 256;

/// A morphology family: the structural *pattern* a sample instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A single unbranched chain (snake / manipulator pattern):
    /// `depth × dof` links deep, no branching.
    Serpentine,
    /// A torso chain with a head, two arms, and two legs (asymmetric
    /// branching, the HyQ-plus-arm pattern pushed further).
    Humanoid,
    /// A central trunk with `branching` serial arms (Baxter-style
    /// symmetric branching).
    MultiArm,
    /// A random tree grown link by link: branch probability derived from
    /// `branching`, chain runs capped at `depth`.
    RandomBranching,
}

impl Family {
    /// All families, in the canonical mix order.
    pub const ALL: [Family; 4] = [
        Family::Serpentine,
        Family::Humanoid,
        Family::MultiArm,
        Family::RandomBranching,
    ];

    /// Short lower-case name (report keys, generated robot names).
    pub fn name(self) -> &'static str {
        match self {
            Family::Serpentine => "serpentine",
            Family::Humanoid => "humanoid",
            Family::MultiArm => "multiarm",
            Family::RandomBranching => "random",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The three structural knobs every family interprets:
///
/// | family          | `depth`              | `branching`     | `dof`          |
/// |-----------------|----------------------|-----------------|----------------|
/// | serpentine      | chain segments       | (unused)        | joints/segment |
/// | humanoid        | torso links          | (unused)        | joints/limb    |
/// | multi-arm       | trunk links          | number of arms  | joints/arm     |
/// | random-branching| max unbranched run   | branch pressure | total links    |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FamilyParams {
    /// Depth knob (see the table above). Must be ≥ 1.
    pub depth: usize,
    /// Branching-factor knob. Must be ≥ 1 where the family uses it.
    pub branching: usize,
    /// DOF knob. Must be ≥ 1.
    pub dof: usize,
}

impl FamilyParams {
    /// Bundles the three knobs.
    pub fn new(depth: usize, branching: usize, dof: usize) -> FamilyParams {
        FamilyParams {
            depth,
            branching,
            dof,
        }
    }
}

/// Typed rejection of degenerate or oversized generator parameters —
/// never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZooError {
    /// A knob is below its minimum for this family (e.g. depth 0, DOF 0).
    InvalidParameter {
        /// The family being generated.
        family: Family,
        /// Which knob was rejected (`"depth"`, `"branching"`, `"dof"`).
        param: &'static str,
        /// The rejected value.
        value: usize,
        /// The minimum the family accepts.
        min: usize,
    },
    /// The knobs multiply out past [`MAX_LINKS`].
    TooManyLinks {
        /// Total links the parameters would produce.
        requested: usize,
    },
    /// [`population`] was called with an empty family mix.
    EmptyMix,
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::InvalidParameter {
                family,
                param,
                value,
                min,
            } => write!(
                f,
                "{family}: {param} = {value} is below the family minimum {min}"
            ),
            ZooError::TooManyLinks { requested } => {
                write!(f, "{requested} links exceeds the {MAX_LINKS}-link cap")
            }
            ZooError::EmptyMix => write!(f, "population needs a non-empty family mix"),
        }
    }
}

impl std::error::Error for ZooError {}

/// Per-sample topology-pattern statistics (paper Table 3 plus the
/// distributions the table aggregates away).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    /// The Table 3 metrics (total links, leaf depth max/mean/σ, largest
    /// subtree).
    pub metrics: TopologyMetrics,
    /// `branching_histogram[c]` = number of links with exactly `c`
    /// children.
    pub branching_histogram: Vec<usize>,
    /// Lengths of every maximal unbranched chain run, sorted ascending.
    pub chain_lengths: Vec<usize>,
}

impl SampleStats {
    /// Computes the statistics for a model's topology.
    pub fn of(model: &RobotModel) -> SampleStats {
        let topo = model.topology();
        let parents = topo.parents();
        let n = parents.len();
        let mut children = vec![0usize; n];
        let mut only_child = vec![usize::MAX; n];
        for (i, p) in parents.iter().enumerate() {
            if let Some(parent) = *p {
                children[parent] += 1;
                only_child[parent] = i;
            }
        }
        let max_children = children.iter().copied().max().unwrap_or(0);
        let mut branching_histogram = vec![0usize; max_children + 1];
        for &c in &children {
            branching_histogram[c] += 1;
        }
        // A chain run starts at a root or just below a branch point and
        // extends through single-child links.
        let mut chain_lengths = Vec::new();
        for (i, parent) in parents.iter().enumerate() {
            let starts = match parent {
                None => true,
                Some(p) => children[*p] != 1,
            };
            if !starts {
                continue;
            }
            let mut len = 1;
            let mut cur = i;
            while children[cur] == 1 {
                cur = only_child[cur];
                len += 1;
            }
            chain_lengths.push(len);
        }
        chain_lengths.sort_unstable();
        SampleStats {
            metrics: topo.metrics(),
            branching_histogram,
            chain_lengths,
        }
    }

    /// The longest unbranched chain run.
    pub fn max_chain_len(&self) -> usize {
        self.chain_lengths.last().copied().unwrap_or(0)
    }
}

/// One generated sample: the model plus everything needed to reproduce
/// and characterize it.
#[derive(Debug, Clone)]
pub struct GeneratedRobot {
    /// Unique, deterministic name (safe to register with a serve engine).
    pub name: String,
    /// The generated model.
    pub model: RobotModel,
    /// The family it instantiates.
    pub family: Family,
    /// The knobs it was generated with.
    pub params: FamilyParams,
    /// The per-sample seed.
    pub seed: u64,
    /// Topology-pattern statistics of the sample.
    pub stats: SampleStats,
}

fn invalid(family: Family, param: &'static str, value: usize, min: usize) -> Result<(), ZooError> {
    if value < min {
        obs::metrics().counter(REJECTED_PARAMS_METRIC).add(1);
        return Err(ZooError::InvalidParameter {
            family,
            param,
            value,
            min,
        });
    }
    Ok(())
}

fn check_total(links: usize) -> Result<(), ZooError> {
    if links > MAX_LINKS {
        obs::metrics().counter(REJECTED_PARAMS_METRIC).add(1);
        return Err(ZooError::TooManyLinks { requested: links });
    }
    Ok(())
}

/// Generates one sample. The name encodes `(family, params, seed)`, so
/// distinct triples get distinct names.
///
/// # Errors
///
/// [`ZooError::InvalidParameter`] for degenerate knobs (depth 0, DOF 0,
/// or branching 0 where the family branches); [`ZooError::TooManyLinks`]
/// past the [`MAX_LINKS`] cap.
pub fn generate(
    family: Family,
    params: FamilyParams,
    seed: u64,
) -> Result<GeneratedRobot, ZooError> {
    let name = format!(
        "zoo_{}_d{}b{}k{}_s{:x}",
        family.name(),
        params.depth,
        params.branching,
        params.dof,
        seed
    );
    generate_named(family, params, seed, name)
}

fn generate_named(
    family: Family,
    params: FamilyParams,
    seed: u64,
    name: String,
) -> Result<GeneratedRobot, ZooError> {
    let _span = obs::span(OBS_CATEGORY, "generate");
    invalid(family, "depth", params.depth, 1)?;
    invalid(family, "dof", params.dof, 1)?;
    if matches!(family, Family::MultiArm | Family::RandomBranching) {
        invalid(family, "branching", params.branching, 1)?;
    }
    // Domain-separate the RNG stream per family so two families fed the
    // same seed do not share a geometry stream.
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ (family.name().len() as u64) << 56));
    let mut tree = TreeDraft::default();
    match family {
        Family::Serpentine => {
            let total = params.depth * params.dof;
            check_total(total)?;
            let mut parent = None;
            for _ in 0..total {
                parent = Some(tree.grow(&mut rng, parent));
            }
        }
        Family::Humanoid => {
            check_total(params.depth + 1 + 4 * params.dof)?;
            let mut torso = Vec::with_capacity(params.depth);
            let mut parent = None;
            for _ in 0..params.depth {
                let h = tree.grow(&mut rng, parent);
                torso.push(h);
                parent = Some(h);
            }
            let hips = torso[0];
            let shoulders = *torso.last().expect("depth >= 1 validated");
            // Head.
            tree.grow(&mut rng, Some(shoulders));
            // Two arms off the shoulders, two legs off the hips.
            for limb_root in [shoulders, shoulders, hips, hips] {
                let mut parent = Some(limb_root);
                for _ in 0..params.dof {
                    parent = Some(tree.grow(&mut rng, parent));
                }
            }
        }
        Family::MultiArm => {
            check_total(params.depth + params.branching * params.dof)?;
            let mut trunk = Vec::with_capacity(params.depth);
            let mut parent = None;
            for _ in 0..params.depth {
                let h = tree.grow(&mut rng, parent);
                trunk.push(h);
                parent = Some(h);
            }
            for arm in 0..params.branching {
                // Arms attach round-robin along the trunk, tip first.
                let mut parent = Some(trunk[params.depth - 1 - (arm % params.depth)]);
                for _ in 0..params.dof {
                    parent = Some(tree.grow(&mut rng, parent));
                }
            }
        }
        Family::RandomBranching => {
            check_total(params.dof)?;
            let branch_prob = params.branching as f64 / (params.branching as f64 + 3.0);
            let mut run = 0usize;
            for i in 0..params.dof {
                let parent = if i == 0 {
                    None
                } else if run >= params.depth || rng.gen_bool(branch_prob) {
                    run = 0;
                    Some(rng.gen_range(0..i))
                } else {
                    Some(i - 1)
                };
                run += 1;
                tree.grow(&mut rng, parent);
            }
        }
    }
    let model = tree.build(name.clone());
    obs::metrics().counter(GENERATED_ROBOTS_METRIC).add(1);
    obs::metrics()
        .counter(GENERATED_LINKS_METRIC)
        .add(model.num_links() as u64);
    let stats = SampleStats::of(&model);
    Ok(GeneratedRobot {
        name,
        model,
        family,
        params,
        seed,
        stats,
    })
}

/// A kinematic tree under construction, decoupled from link *emission*
/// order: families grow links in whatever order is natural to express
/// (trunk, then limbs round-robin, then random branches), and
/// [`TreeDraft::build`] relabels them depth-first — the canonical order
/// [`roboshape_urdf::parse_urdf`] reconstructs — so URDF round-trips are
/// index-stable.
#[derive(Default)]
struct TreeDraft {
    parents: Vec<Option<usize>>,
    joints: Vec<Joint>,
    inertias: Vec<SpatialInertia>,
}

impl TreeDraft {
    /// Adds one well-conditioned link: random revolute axis, bounded
    /// origin, strictly positive mass and rotational inertia (so the mass
    /// matrix is positive-definite and every kernel — and its gradient —
    /// is defined). Returns the link's draft index.
    fn grow<R: Rng + ?Sized>(&mut self, rng: &mut R, parent: Option<usize>) -> usize {
        let axis = loop {
            let v = Vec3::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            if v.norm() > 0.3 {
                break v.normalized();
            }
        };
        let origin = Xform::from_origin(
            Vec3::new(
                rng.gen_range(-0.15..0.15),
                rng.gen_range(-0.15..0.15),
                rng.gen_range(-0.35..-0.05),
            ),
            [
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            ],
        );
        let mass = rng.gen_range(0.5..4.0);
        let com = Vec3::new(
            rng.gen_range(-0.04..0.04),
            rng.gen_range(-0.04..0.04),
            rng.gen_range(-0.25..-0.05),
        );
        let i_diag = Vec3::new(
            rng.gen_range(0.02..0.2),
            rng.gen_range(0.02..0.2),
            rng.gen_range(0.02..0.2),
        );
        self.parents.push(parent);
        self.joints
            .push(Joint::revolute(axis).with_tree_xform(origin));
        self.inertias.push(SpatialInertia::from_mass_com_inertia(
            mass,
            com,
            Mat3::diagonal(i_diag),
        ));
        self.parents.len() - 1
    }

    /// Finalises the draft into a [`RobotModel`], emitting links in
    /// depth-first order (children in draft order) and naming them
    /// `link<final-index>`.
    fn build(self, name: String) -> RobotModel {
        let n = self.parents.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in self.parents.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        let mut b = RobotBuilder::new(name);
        // Every family roots its tree at draft index 0.
        let mut stack = vec![0usize];
        let mut handle: Vec<Option<LinkHandle>> = vec![None; n];
        let mut emitted = 0usize;
        while let Some(i) = stack.pop() {
            let parent = self.parents[i].map(|p| handle[p].expect("DFS visits parent first"));
            handle[i] = Some(b.add_link(
                format!("link{emitted}"),
                parent,
                self.joints[i],
                self.inertias[i],
            ));
            emitted += 1;
            for &c in children[i].iter().rev() {
                stack.push(c);
            }
        }
        debug_assert_eq!(emitted, n, "draft tree is connected");
        b.build()
    }
}

/// Draws family knobs for sample `i` of a population — bounded ranges
/// that keep every sample well under [`MAX_LINKS`].
fn draw_params<R: Rng + ?Sized>(family: Family, rng: &mut R) -> FamilyParams {
    match family {
        Family::Serpentine => FamilyParams::new(rng.gen_range(1..4), 1, rng.gen_range(3..9)),
        Family::Humanoid => FamilyParams::new(rng.gen_range(1..5), 2, rng.gen_range(2..7)),
        Family::MultiArm => FamilyParams::new(
            rng.gen_range(1..4),
            rng.gen_range(2..5),
            rng.gen_range(2..7),
        ),
        Family::RandomBranching => FamilyParams::new(
            rng.gen_range(2..6),
            rng.gen_range(1..5),
            rng.gen_range(6..25),
        ),
    }
}

/// Generates a population of `n` robots, cycling through `mix` and
/// deriving one independent seed per sample (SplitMix64 over the master
/// seed). Names embed the sample index, so the whole population can be
/// registered with one serve engine.
///
/// # Errors
///
/// [`ZooError::EmptyMix`] for an empty mix; parameter errors cannot occur
/// (drawn knobs are always in-range).
pub fn population(seed: u64, n: usize, mix: &[Family]) -> Result<Vec<GeneratedRobot>, ZooError> {
    if mix.is_empty() {
        return Err(ZooError::EmptyMix);
    }
    let _span = obs::span(OBS_CATEGORY, "population");
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let family = mix[i % mix.len()];
        let sample_seed = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let params = draw_params(family, &mut rng);
        let name = format!("zoo_{}_{i:03}", family.name());
        out.push(generate_named(family, params, sample_seed, name).expect("drawn knobs in range"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serpentine_is_a_pure_chain() {
        let s = generate(Family::Serpentine, FamilyParams::new(2, 1, 5), 3).unwrap();
        assert_eq!(s.model.num_links(), 10);
        let m = &s.stats.metrics;
        assert_eq!(m.max_leaf_depth, 10);
        assert_eq!(m.leaf_depth_stdev, 0.0);
        assert_eq!(s.stats.chain_lengths, vec![10]);
        assert_eq!(s.stats.branching_histogram, vec![1, 9]);
    }

    #[test]
    fn humanoid_has_head_and_four_limbs() {
        let s = generate(Family::Humanoid, FamilyParams::new(3, 2, 4), 11).unwrap();
        assert_eq!(s.model.num_links(), 3 + 1 + 4 * 4);
        // Leaves: head + 4 limb tips.
        assert_eq!(s.model.topology().leaves().len(), 5);
        assert!(s.stats.metrics.leaf_depth_stdev > 0.0, "asymmetric: {s:?}");
    }

    #[test]
    fn multiarm_branches_symmetrically() {
        let s = generate(Family::MultiArm, FamilyParams::new(1, 4, 3), 9).unwrap();
        assert_eq!(s.model.num_links(), 1 + 4 * 3);
        assert_eq!(s.model.topology().leaves().len(), 4);
        assert_eq!(s.stats.metrics.leaf_depth_stdev, 0.0);
        // Trunk link carries all four arms.
        assert_eq!(*s.stats.branching_histogram.last().unwrap(), 1);
    }

    #[test]
    fn random_branching_actually_branches() {
        let s = generate(Family::RandomBranching, FamilyParams::new(3, 3, 30), 17).unwrap();
        assert_eq!(s.model.num_links(), 30);
        assert!(
            s.model.topology().leaves().len() > 1,
            "forced runs + p=0.5 branch pressure must branch over 30 links"
        );
        assert!(s.stats.max_chain_len() < 30, "{:?}", s.stats.chain_lengths);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = generate(Family::RandomBranching, FamilyParams::new(4, 2, 20), 5).unwrap();
        let b = generate(Family::RandomBranching, FamilyParams::new(4, 2, 20), 5).unwrap();
        assert_eq!(a.model.topology(), b.model.topology());
        assert_eq!(a.name, b.name);
        for i in 0..a.model.num_links() {
            assert!(
                a.model
                    .link(i)
                    .inertia
                    .to_mat6()
                    .distance(&b.model.link(i).inertia.to_mat6())
                    < 1e-15
            );
        }
        let c = generate(Family::RandomBranching, FamilyParams::new(4, 2, 20), 6).unwrap();
        assert_ne!(a.model.topology(), c.model.topology());
    }

    #[test]
    fn degenerate_parameters_are_typed_errors() {
        let err = generate(Family::Serpentine, FamilyParams::new(0, 1, 5), 0).unwrap_err();
        assert!(matches!(
            err,
            ZooError::InvalidParameter { param: "depth", .. }
        ));
        let err = generate(Family::Humanoid, FamilyParams::new(2, 1, 0), 0).unwrap_err();
        assert!(matches!(
            err,
            ZooError::InvalidParameter { param: "dof", .. }
        ));
        let err = generate(Family::MultiArm, FamilyParams::new(2, 0, 3), 0).unwrap_err();
        assert!(matches!(
            err,
            ZooError::InvalidParameter {
                param: "branching",
                ..
            }
        ));
        let err = generate(Family::Serpentine, FamilyParams::new(100, 1, 100), 0).unwrap_err();
        assert!(matches!(err, ZooError::TooManyLinks { requested: 10000 }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn population_cycles_mix_and_is_deterministic() {
        let a = population(42, 12, &Family::ALL).unwrap();
        let b = population(42, 12, &Family::ALL).unwrap();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.model.topology(), y.model.topology());
        }
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.family, Family::ALL[i % 4]);
        }
        // Names are unique.
        let mut names: Vec<&str> = a.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
        assert_eq!(population(1, 3, &[]).unwrap_err(), ZooError::EmptyMix);
    }

    #[test]
    fn stats_chain_lengths_cover_all_links() {
        for s in population(7, 8, &Family::ALL).unwrap() {
            let total: usize = s.stats.chain_lengths.iter().sum();
            assert_eq!(total, s.model.num_links(), "{}", s.name);
            let hist_total: usize = s.stats.branching_histogram.iter().sum();
            assert_eq!(hist_total, s.model.num_links());
        }
    }
}
