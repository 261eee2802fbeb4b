//! Output pins for the task-graph builders and the list scheduler.
//!
//! Every schedule and graph over the six zoo robots plus a 64-robot
//! generated population is folded into one FNV-1a digest per artifact
//! kind. The digests were recorded from the reference implementation;
//! any change to a task id, a dependency, a PE choice or a start cycle
//! moves them. Optimisations of the builders or the scheduler must keep
//! them fixed.

use roboshape_obs::hash::{FNV1A64_OFFSET, FNV1A64_PRIME};
use roboshape_robots::{zoo, Zoo};
use roboshape_taskgraph::{
    schedule, schedule_makespan, PeClass, SchedulerConfig, TaskGraph, TaskKind,
};
use roboshape_topology::Topology;
use roboshape_zoo::{population, Family};

/// `(PEs_fwd, PEs_bwd)` allocations every robot is scheduled at.
const PE_GRID: [(usize, usize); 6] = [(1, 1), (1, 4), (2, 2), (3, 5), (6, 3), (8, 8)];

/// A task-graph constructor.
type Builder = fn(&Topology) -> TaskGraph;

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(FNV1A64_OFFSET)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV1A64_PRIME);
        }
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
}

fn topologies() -> Vec<Topology> {
    let mut topos: Vec<Topology> = Zoo::ALL
        .iter()
        .map(|&z| zoo(z).topology().clone())
        .collect();
    let generated = population(0x000F_1EE7, 64, &Family::ALL).expect("non-empty mix");
    topos.extend(generated.iter().map(|r| r.model.topology().clone()));
    topos
}

fn graph_digest(d: &mut Digest, graph: &TaskGraph) {
    d.usize(graph.len());
    d.usize(graph.num_limbs());
    for task in graph.tasks() {
        let (tag, seed) = match task.kind {
            TaskKind::RneaFwd { .. } => (0, usize::MAX),
            TaskKind::RneaBwd { .. } => (1, usize::MAX),
            TaskKind::GradFwd { seed, .. } => (2, seed),
            TaskKind::GradBwd { seed, .. } => (3, seed),
        };
        d.u64(tag);
        d.usize(task.kind.link());
        d.usize(seed);
        d.usize(graph.limb_of_link(task.kind.link()));
        d.usize(task.deps.len());
        for dep in &task.deps {
            d.usize(dep.0);
        }
    }
}

fn schedule_digest(d: &mut Digest, graph: &TaskGraph, cfg: &SchedulerConfig) {
    let s = schedule(graph, cfg);
    assert_eq!(schedule_makespan(graph, cfg), s.makespan());
    d.u64(s.makespan());
    for e in s.entries() {
        d.usize(e.task.0);
        d.u64(u64::from(e.pe_class == PeClass::Backward));
        d.usize(e.pe);
        d.u64(e.start);
        d.u64(e.end);
    }
}

#[test]
fn kernel_task_graphs_are_pinned() {
    let kernels: [(&str, Builder, u64); 3] = [
        (
            "dynamics_gradient",
            TaskGraph::dynamics_gradient,
            0x125e_ff6e_4e8a_47e7,
        ),
        (
            "inverse_dynamics",
            TaskGraph::inverse_dynamics,
            0x2ff5_cefb_6a94_18a4,
        ),
        (
            "forward_kinematics",
            TaskGraph::forward_kinematics,
            0xa594_ac43_810d_da1a,
        ),
    ];
    let topos = topologies();
    let moved: Vec<String> = kernels
        .iter()
        .filter_map(|&(name, build, pinned)| {
            let mut d = Digest::new();
            for topo in &topos {
                graph_digest(&mut d, &build(topo));
            }
            (d.0 != pinned).then(|| format!("{name}: {:#018x}", d.0))
        })
        .collect();
    assert!(moved.is_empty(), "graphs moved: {moved:?}");
}

#[test]
fn schedules_are_pinned() {
    let mut d = Digest::new();
    for topo in topologies() {
        let graph = TaskGraph::dynamics_gradient(&topo);
        for (pe_fwd, pe_bwd) in PE_GRID {
            let base = SchedulerConfig::with_pes(pe_fwd, pe_bwd);
            for cfg in [base, base.without_pipelining(), base.fully_greedy()] {
                schedule_digest(&mut d, &graph, &cfg);
            }
        }
    }
    assert_eq!(d.0, 0xb884_1bdc_89ff_e909, "schedules moved: {:#018x}", d.0);
}

#[test]
fn replicated_schedule_is_pinned() {
    // Three merged ∇FD copies of HyQ+arm next to its forward kinematics:
    // the co-scheduled, multi-kernel shape of the Fig. 10 workload.
    let topo = zoo(Zoo::HyqArm).topology().clone();
    let grad = TaskGraph::replicate(&TaskGraph::dynamics_gradient(&topo), 3);
    let graph = TaskGraph::merge(&grad, &TaskGraph::forward_kinematics(&topo));
    let mut d = Digest::new();
    for (pe_fwd, pe_bwd) in [(2, 3), (5, 5)] {
        let base = SchedulerConfig::with_pes(pe_fwd, pe_bwd);
        for cfg in [base, base.without_pipelining(), base.fully_greedy()] {
            schedule_digest(&mut d, &graph, &cfg);
        }
    }
    assert_eq!(
        d.0, 0xf26d_4044_cd31_ff81,
        "replicated schedules moved: {:#018x}",
        d.0
    );
}
