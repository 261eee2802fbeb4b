//! Task-graph IR for topology-traversal computations.

use roboshape_topology::Topology;

/// Identifier of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// The four traversal stages of the dynamics-gradient kernel
/// (paper Fig. 3 / Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// RNEA forward pass (velocities, accelerations, per-link forces).
    RneaFwd,
    /// RNEA backward pass (force accumulation, torques).
    RneaBwd,
    /// ∇RNEA forward derivative pass.
    GradFwd,
    /// ∇RNEA backward derivative pass.
    GradBwd,
}

impl Stage {
    /// All stages in dataflow order.
    pub const ALL: [Stage; 4] = [
        Stage::RneaFwd,
        Stage::RneaBwd,
        Stage::GradFwd,
        Stage::GradBwd,
    ];

    /// Whether this stage runs on the forward-traversal PEs (`true`) or the
    /// backward-traversal PEs (`false`).
    pub fn is_forward(self) -> bool {
        matches!(self, Stage::RneaFwd | Stage::GradFwd)
    }
}

/// What a task computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Forward RNEA step for `link` (computes `X`, `v`, `a`, local `f`).
    RneaFwd {
        /// The link whose state is computed.
        link: usize,
    },
    /// Backward RNEA step for `link` (torque + parent force contribution).
    RneaBwd {
        /// The link whose torque is produced.
        link: usize,
    },
    /// Forward derivative step for `link` with respect to joint `seed`
    /// (computes `∂v`, `∂a`, local `∂f` for both `∂/∂q` and `∂/∂q̇`).
    GradFwd {
        /// The link whose derivative state is computed.
        link: usize,
        /// The seed joint the derivative is taken with respect to.
        seed: usize,
    },
    /// Backward derivative step for `link` w.r.t. `seed` (derivative torque
    /// entry `(link, seed)` of `∂τ/∂q` and `∂τ/∂q̇`).
    GradBwd {
        /// The link whose derivative torque is produced.
        link: usize,
        /// The seed joint.
        seed: usize,
    },
}

impl TaskKind {
    /// The stage this task belongs to.
    pub fn stage(self) -> Stage {
        match self {
            TaskKind::RneaFwd { .. } => Stage::RneaFwd,
            TaskKind::RneaBwd { .. } => Stage::RneaBwd,
            TaskKind::GradFwd { .. } => Stage::GradFwd,
            TaskKind::GradBwd { .. } => Stage::GradBwd,
        }
    }

    /// The link the task operates on.
    pub fn link(self) -> usize {
        match self {
            TaskKind::RneaFwd { link }
            | TaskKind::RneaBwd { link }
            | TaskKind::GradFwd { link, .. }
            | TaskKind::GradBwd { link, .. } => link,
        }
    }

    /// The derivative seed, for gradient tasks.
    pub fn seed(self) -> Option<usize> {
        match self {
            TaskKind::GradFwd { seed, .. } | TaskKind::GradBwd { seed, .. } => Some(seed),
            _ => None,
        }
    }
}

/// One node of the task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// What the task computes.
    pub kind: TaskKind,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
}

/// A dependency graph of traversal tasks for one kernel evaluation.
///
/// Tasks are stored in a valid topological order (every dependency has a
/// smaller id) — guaranteed by the constructors and relied on by the
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    limb_of_link: Vec<usize>,
    num_limbs: usize,
}

impl TaskGraph {
    /// Builds the complete traversal task graph of the dynamics-gradient
    /// kernel for `topo`:
    ///
    /// * one `RneaFwd` task per link, depending on the parent's;
    /// * one `RneaBwd` task per link, depending on its `RneaFwd` and its
    ///   children's `RneaBwd`;
    /// * one `GradFwd` task per `(link, seed)` with `seed ⪯ link`,
    ///   depending on the parent's same-seed task and on the link's
    ///   `RneaFwd` (value reuse);
    /// * one `GradBwd` task per `(link, seed)` with `link` and `seed` on a
    ///   common path, depending on the matching `GradFwd` (when it exists),
    ///   the child `GradBwd`s of the same seed, and the link's `RneaBwd`
    ///   (total-force reuse).
    pub fn dynamics_gradient(topo: &Topology) -> TaskGraph {
        let n = topo.len();
        // Stages 1–2 are the inverse-dynamics passes, so the RNEA task of
        // link `l` has id `l` (forward) or `n + (n - 1 - l)` (backward).
        let mut tasks = rnea_tasks(topo, true);
        // Gradient task ids per `(link, seed)` slot, so every dependency
        // is one table lookup. A link's `GradFwd` slot for `seed` is
        // filled exactly when the link lies in the seed's subtree.
        let slot = |link: usize, seed: usize| link * n + seed;
        let mut grad_fwd: Vec<Option<TaskId>> = vec![None; n * n];
        let mut grad_bwd: Vec<Option<TaskId>> = vec![None; n * n];

        // Stage 3: gradient forward, per seed, down the seed's subtree
        // (parents precede children, so the parent's slot is final).
        for seed in 0..n {
            for link in seed..n {
                let parent_task = topo.parent(link).and_then(|p| grad_fwd[slot(p, seed)]);
                if link != seed && parent_task.is_none() {
                    continue;
                }
                grad_fwd[slot(link, seed)] = Some(TaskId(tasks.len()));
                tasks.push(Task {
                    kind: TaskKind::GradFwd { link, seed },
                    deps: std::iter::once(TaskId(link)).chain(parent_task).collect(),
                });
            }
        }
        // Stage 4: gradient backward, per seed, children first, up to
        // root, over every link on a common path with the seed: its
        // subtree (a filled `GradFwd` slot) and its ancestors.
        let mut is_ancestor = vec![false; n];
        for seed in 0..n {
            let mut cur = topo.parent(seed);
            while let Some(a) = cur {
                is_ancestor[a] = true;
                cur = topo.parent(a);
            }
            for link in (0..n).rev() {
                let fwd = grad_fwd[slot(link, seed)];
                if fwd.is_none() && !is_ancestor[link] {
                    continue;
                }
                let mut deps = vec![TaskId(n + (n - 1 - link))];
                deps.extend(fwd);
                deps.extend(
                    topo.children(link)
                        .iter()
                        .filter_map(|&c| grad_bwd[slot(c, seed)]),
                );
                grad_bwd[slot(link, seed)] = Some(TaskId(tasks.len()));
                tasks.push(Task {
                    kind: TaskKind::GradBwd { link, seed },
                    deps,
                });
                is_ancestor[link] = false;
            }
        }
        TaskGraph::with_limbs(tasks, topo)
    }

    /// Builds the task graph of plain inverse dynamics (RNEA only, paper
    /// Alg. 2): one forward and one backward task per link. This is the
    /// Table 1 "inverse dynamics" kernel — the framework's scheduling and
    /// lowering machinery applies to it unchanged (Sec. 4: "can flexibly
    /// implement accelerators for a broad class of robotics
    /// computations").
    pub fn inverse_dynamics(topo: &Topology) -> TaskGraph {
        TaskGraph::with_limbs(rnea_tasks(topo, true), topo)
    }

    /// Builds the task graph of forward kinematics (paper Table 1): a
    /// single forward traversal, one task per link. The `RneaFwd` task
    /// kind doubles as the generic "forward link op" here — the PE
    /// datapath is the same spatial-transform hardware.
    pub fn forward_kinematics(topo: &Topology) -> TaskGraph {
        TaskGraph::with_limbs(rnea_tasks(topo, false), topo)
    }

    /// Merges two task graphs over the *same topology* into one combined
    /// graph with no cross-dependencies — the two kernels compete for the
    /// same PEs and the scheduler interleaves them. This implements the
    /// paper's Sec. 3.3 future-work knob: "dynamically co-schedule
    /// different types of kernels simultaneously on processing elements".
    ///
    /// # Panics
    ///
    /// Panics if the graphs came from topologies of different limb
    /// structure.
    pub fn merge(a: &TaskGraph, b: &TaskGraph) -> TaskGraph {
        assert_eq!(
            (a.limb_of_link.as_slice(), a.num_limbs),
            (b.limb_of_link.as_slice(), b.num_limbs),
            "merged graphs must share a topology"
        );
        let offset = a.tasks.len();
        let mut tasks = a.tasks.clone();
        tasks.extend(b.tasks.iter().map(|t| Task {
            kind: t.kind,
            deps: t.deps.iter().map(|d| TaskId(d.0 + offset)).collect(),
        }));
        TaskGraph {
            tasks,
            limb_of_link: a.limb_of_link.clone(),
            num_limbs: a.num_limbs,
        }
    }

    /// `copies` independent instances of `graph` merged into one (see
    /// [`TaskGraph::merge`]) — the streaming multi-time-step workload of
    /// the paper's Fig. 10: scheduling this measures the *actual* batched
    /// makespan instead of an analytical initiation-interval bound.
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`.
    pub fn replicate(graph: &TaskGraph, copies: usize) -> TaskGraph {
        assert!(copies > 0, "need at least one copy");
        let mut merged = graph.clone();
        for _ in 1..copies {
            merged = TaskGraph::merge(&merged, graph);
        }
        merged
    }

    fn with_limbs(tasks: Vec<Task>, topo: &Topology) -> TaskGraph {
        // Limb decomposition (depth-first order by construction: limbs are
        // returned sorted by first link, and link indices are depth-first).
        let limbs = topo.limbs();
        let mut limb_of_link = vec![0usize; topo.len()];
        for (m, limb) in limbs.iter().enumerate() {
            for &l in limb {
                limb_of_link[l] = m;
            }
        }
        TaskGraph {
            tasks,
            limb_of_link,
            num_limbs: limbs.len(),
        }
    }

    /// The (depth-first) limb index of a link — the scheduler's
    /// limb-sequential mode walks these in order.
    pub fn limb_of_link(&self, link: usize) -> usize {
        self.limb_of_link[link]
    }

    /// Number of limbs in the underlying topology.
    pub fn num_limbs(&self) -> usize {
        self.num_limbs
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// All tasks in topological order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Ids of the tasks of one stage.
    pub fn stage_tasks(&self, stage: Stage) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&i| self.tasks[i].kind.stage() == stage)
            .map(TaskId)
            .collect()
    }

    /// Length of the longest dependency chain (in tasks) — the critical
    /// path with unit task costs.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![0usize; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            depth[i] = 1 + t.deps.iter().map(|d| depth[d.0]).max().unwrap_or(0);
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// The RNEA passes of `topo`: one `RneaFwd` task per link (depending on
/// its parent's), then — when `backward` — one `RneaBwd` task per link in
/// reverse link order (depending on its `RneaFwd` and its children's
/// `RneaBwd`). Link `l`'s tasks get ids `l` and `n + (n - 1 - l)`.
fn rnea_tasks(topo: &Topology, backward: bool) -> Vec<Task> {
    let n = topo.len();
    let mut tasks: Vec<Task> = Vec::with_capacity(if backward { 2 * n } else { n });
    tasks.extend((0..n).map(|link| Task {
        kind: TaskKind::RneaFwd { link },
        deps: topo.parent(link).map(TaskId).into_iter().collect(),
    }));
    if backward {
        tasks.extend((0..n).rev().map(|link| {
            Task {
                kind: TaskKind::RneaBwd { link },
                deps: std::iter::once(link)
                    .chain(topo.children(link).iter().map(|&c| n + (n - 1 - c)))
                    .map(TaskId)
                    .collect(),
            }
        }));
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Topology {
        Topology::chain(n)
    }

    fn baxter_like() -> Topology {
        let mut parents = vec![None];
        for _ in 0..2 {
            parents.push(None);
            for _ in 1..7 {
                parents.push(Some(parents.len() - 1));
            }
        }
        Topology::new(parents).unwrap()
    }

    #[test]
    fn task_counts_for_chain() {
        // Chain of n: n fwd, n bwd, n(n+1)/2 grad-fwd (all pairs seed ≤
        // link), and grad-bwd covers all supported pairs = n² for a chain.
        let n = 5;
        let g = TaskGraph::dynamics_gradient(&chain(n));
        assert_eq!(g.stage_tasks(Stage::RneaFwd).len(), n);
        assert_eq!(g.stage_tasks(Stage::RneaBwd).len(), n);
        assert_eq!(g.stage_tasks(Stage::GradFwd).len(), n * (n + 1) / 2);
        assert_eq!(g.stage_tasks(Stage::GradBwd).len(), n * n);
        assert_eq!(g.len(), n + n + n * (n + 1) / 2 + n * n);
    }

    #[test]
    fn task_counts_for_baxter() {
        // Baxter: head (1 link) + two 7-chains. Grad tasks per limb only
        // (no cross-limb support).
        let g = TaskGraph::dynamics_gradient(&baxter_like());
        assert_eq!(g.stage_tasks(Stage::RneaFwd).len(), 15);
        assert_eq!(g.stage_tasks(Stage::GradFwd).len(), 1 + 28 + 28);
        assert_eq!(g.stage_tasks(Stage::GradBwd).len(), 1 + 49 + 49);
    }

    #[test]
    fn dependencies_are_topologically_ordered() {
        for topo in [chain(7), baxter_like()] {
            let g = TaskGraph::dynamics_gradient(&topo);
            for (i, t) in g.tasks().iter().enumerate() {
                for d in &t.deps {
                    assert!(d.0 < i, "task {i} depends on later task {}", d.0);
                }
            }
        }
    }

    #[test]
    fn grad_fwd_depends_on_matching_rnea_fwd() {
        let g = TaskGraph::dynamics_gradient(&chain(3));
        for t in g.tasks() {
            if let TaskKind::GradFwd { link, .. } = t.kind {
                let has_value_dep = t
                    .deps
                    .iter()
                    .any(|d| g.task(*d).kind == TaskKind::RneaFwd { link });
                assert!(has_value_dep);
            }
        }
    }

    #[test]
    fn critical_path_scales_with_depth() {
        // For a chain, RNEA fwd alone has depth n; the full kernel's
        // critical path must be at least 2n (down then up) plus grad work.
        let g = TaskGraph::dynamics_gradient(&chain(6));
        assert!(g.critical_path_len() >= 12, "got {}", g.critical_path_len());
        // A star (all links root-attached) parallelizes almost completely.
        let star = Topology::new(vec![None, None, None, None]).unwrap();
        let gs = TaskGraph::dynamics_gradient(&star);
        assert!(
            gs.critical_path_len() <= 4,
            "got {}",
            gs.critical_path_len()
        );
    }

    #[test]
    fn inverse_dynamics_graph_is_two_passes() {
        let t = baxter_like();
        let g = TaskGraph::inverse_dynamics(&t);
        assert_eq!(g.len(), 30);
        assert_eq!(g.stage_tasks(Stage::RneaFwd).len(), 15);
        assert_eq!(g.stage_tasks(Stage::RneaBwd).len(), 15);
        assert!(g.stage_tasks(Stage::GradFwd).is_empty());
        // Deps are topologically consistent.
        for (i, task) in g.tasks().iter().enumerate() {
            for d in &task.deps {
                assert!(d.0 < i);
            }
        }
        // Backward tasks depend on their forward task and their children.
        for task in g.tasks() {
            if let TaskKind::RneaBwd { link } = task.kind {
                assert!(task
                    .deps
                    .iter()
                    .any(|d| g.task(*d).kind == TaskKind::RneaFwd { link }));
                for &c in t.children(link) {
                    assert!(task
                        .deps
                        .iter()
                        .any(|d| g.task(*d).kind == TaskKind::RneaBwd { link: c }));
                }
            }
        }
    }

    #[test]
    fn forward_kinematics_graph_is_one_pass() {
        let t = baxter_like();
        let g = TaskGraph::forward_kinematics(&t);
        assert_eq!(g.len(), 15);
        assert_eq!(g.critical_path_len(), 7); // the arm chain
    }

    #[test]
    fn merged_graphs_combine_both_kernels() {
        let t = baxter_like();
        let fk = TaskGraph::forward_kinematics(&t);
        let grad = TaskGraph::dynamics_gradient(&t);
        let merged = TaskGraph::merge(&grad, &fk);
        assert_eq!(merged.len(), grad.len() + fk.len());
        // Offsets keep dependencies internal to each half.
        for (i, task) in merged.tasks().iter().enumerate() {
            for d in &task.deps {
                assert!(d.0 < i);
                let same_half = (d.0 < grad.len()) == (i < grad.len());
                assert!(same_half, "cross-kernel dependency introduced");
            }
        }
        assert_eq!(merged.num_limbs(), grad.num_limbs());
    }

    #[test]
    #[should_panic(expected = "share a topology")]
    fn merging_different_topologies_panics() {
        let a = TaskGraph::forward_kinematics(&chain(3));
        let b = TaskGraph::forward_kinematics(&chain(4));
        TaskGraph::merge(&a, &b);
    }

    #[test]
    fn kernel_graphs_order_by_work() {
        // FK ⊂ ID ⊂ ∇FD in task count and critical path.
        let t = baxter_like();
        let fk = TaskGraph::forward_kinematics(&t);
        let id = TaskGraph::inverse_dynamics(&t);
        let grad = TaskGraph::dynamics_gradient(&t);
        assert!(fk.len() < id.len() && id.len() < grad.len());
        assert!(fk.critical_path_len() <= id.critical_path_len());
        assert!(id.critical_path_len() <= grad.critical_path_len());
    }

    #[test]
    fn stage_accessors_partition_tasks() {
        let g = TaskGraph::dynamics_gradient(&baxter_like());
        let total: usize = Stage::ALL.iter().map(|&s| g.stage_tasks(s).len()).sum();
        assert_eq!(total, g.len());
        assert!(!g.is_empty());
        assert!(Stage::RneaFwd.is_forward());
        assert!(Stage::GradFwd.is_forward());
        assert!(!Stage::RneaBwd.is_forward());
        assert!(!Stage::GradBwd.is_forward());
    }
}
