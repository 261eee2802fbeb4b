//! A fully-elaborated accelerator design point.

use crate::{AcceleratorKnobs, DseModel, FullDesignModel, Resources, StorageReport};
use roboshape_blocksparse::{BlockMatmulPlan, MatmulLatencyModel, SparsityPattern};
use roboshape_taskgraph::{schedule, Schedule, SchedulerConfig, TaskGraph};
use roboshape_topology::Topology;

/// Which Table 1 kernel a design accelerates. The paper's evaluation
/// builds ∇FD accelerators; the same template lowers the other traversal
/// kernels (Sec. 4: "can flexibly implement accelerators for a broad
/// class of robotics computations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// Forward-dynamics gradients (paper Alg. 1) — traversals + blocked
    /// mass-matrix multiplication.
    #[default]
    DynamicsGradient,
    /// Plain inverse dynamics (RNEA, Alg. 2) — two traversals, no matrix
    /// stage.
    InverseDynamics,
    /// Forward kinematics — a single forward traversal.
    ForwardKinematics,
}

/// Synthesized-clock model: the paper's critical path runs through the
/// forward-pass input-marshalling logic, so the achievable period scales
/// with the forward schedule's length (Sec. 5.1 closes timing at 18 ns for
/// iiwa and HyQ and 22 ns for Baxter).
///
/// Model: the schedule-table depth per forward PE (total forward-stage
/// tasks ÷ `PEs_fwd`) sets the marshalling mux depth; 18 ns up to 12
/// entries, then +⅔ ns per additional entry — calibrated on the paper's
/// three implementations (iiwa 5 entries / 18 ns, HyQ 12 / 18 ns,
/// Baxter 18 / 22 ns).
pub fn clock_period_ns(fwd_schedule_slots: usize) -> f64 {
    18.0 + (2.0 / 3.0) * fwd_schedule_slots.saturating_sub(12) as f64
}

/// One complete generated accelerator: topology + knobs elaborated into
/// schedules, a blocked mat-mul plan, storage sizing, resource estimates
/// and latency — everything Fig. 7 outputs short of the Verilog text
/// (emitted by `roboshape-codegen`) and the cycle-accurate execution
/// (`roboshape-sim`).
///
/// # Examples
///
/// ```
/// use roboshape_arch::{AcceleratorDesign, AcceleratorKnobs};
/// use roboshape_topology::Topology;
///
/// let topo = Topology::chain(7); // iiwa
/// let design = AcceleratorDesign::generate(&topo, AcceleratorKnobs::symmetric(7, 7));
/// assert!(design.compute_cycles() > 0);
/// assert!(design.full_resources().luts > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorDesign {
    topo: Topology,
    knobs: AcceleratorKnobs,
    kernel: KernelKind,
    graph: TaskGraph,
    schedule: Schedule,
    schedule_no_pipeline: Schedule,
    matmul: Option<BlockMatmulPlan>,
    matmul_model: MatmulLatencyModel,
    storage: StorageReport,
}

impl AcceleratorDesign {
    /// Elaborates a design point for `topo` at the given knob setting.
    ///
    /// # Panics
    ///
    /// Panics if any knob is zero (enforced by [`AcceleratorKnobs`]).
    pub fn generate(topo: &Topology, knobs: AcceleratorKnobs) -> AcceleratorDesign {
        AcceleratorDesign::generate_for_kernel(topo, knobs, KernelKind::DynamicsGradient)
    }

    /// Elaborates a design point for any supported traversal kernel
    /// (paper Table 1): the task graph, schedules and storage follow the
    /// kernel; the blocked mass-matrix stage exists only for the
    /// dynamics-gradient kernel.
    ///
    /// # Panics
    ///
    /// Panics if any knob is zero (enforced by [`AcceleratorKnobs`]).
    pub fn generate_for_kernel(
        topo: &Topology,
        knobs: AcceleratorKnobs,
        kernel: KernelKind,
    ) -> AcceleratorDesign {
        let graph = match kernel {
            KernelKind::DynamicsGradient => TaskGraph::dynamics_gradient(topo),
            KernelKind::InverseDynamics => TaskGraph::inverse_dynamics(topo),
            KernelKind::ForwardKinematics => TaskGraph::forward_kinematics(topo),
        };
        let cfg = SchedulerConfig::with_pes(knobs.pe_fwd, knobs.pe_bwd);
        let sched = schedule(&graph, &cfg);
        let sched_np = schedule(&graph, &cfg.without_pipelining());
        let matmul = (kernel == KernelKind::DynamicsGradient).then(|| {
            // The plan's left operand is M⁻¹, whose pattern fills in
            // relative to M at mid-limb branches.
            let pattern = SparsityPattern::inverse_mass_matrix(topo);
            BlockMatmulPlan::new(
                &pattern,
                2 * topo.len(),
                knobs.block_size,
                knobs.matmul_units.resolve(topo.len()),
            )
        });
        AcceleratorDesign::from_parts(topo.clone(), knobs, kernel, graph, sched, sched_np, matmul)
    }

    /// Assembles a design from already-elaborated parts: the task graph,
    /// both schedules and (for the gradient kernel) the blocked mat-mul
    /// plan. This is the constructor the compilation pipeline uses to
    /// reuse cached artifacts; the parts must have been produced for this
    /// exact `(topo, knobs, kernel)` — mixing parts from different design
    /// points yields a design whose reports disagree with its schedules.
    /// The storage report is derived here (it is cheap relative to
    /// scheduling and depends on all the parts).
    pub fn from_parts(
        topo: Topology,
        knobs: AcceleratorKnobs,
        kernel: KernelKind,
        graph: TaskGraph,
        schedule: Schedule,
        schedule_no_pipeline: Schedule,
        matmul: Option<BlockMatmulPlan>,
    ) -> AcceleratorDesign {
        let storage = StorageReport::for_design(&topo, &knobs, &graph, &schedule);
        AcceleratorDesign {
            topo,
            knobs,
            kernel,
            graph,
            schedule,
            schedule_no_pipeline,
            matmul,
            matmul_model: MatmulLatencyModel::default(),
            storage,
        }
    }

    /// The kernel this design accelerates.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The robot topology the design was generated for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The knob setting.
    pub fn knobs(&self) -> &AcceleratorKnobs {
        &self.knobs
    }

    /// The traversal task graph.
    pub fn task_graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The pipelined traversal schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The stage-barrier (non-pipelined) schedule.
    pub fn schedule_without_pipelining(&self) -> &Schedule {
        &self.schedule_no_pipeline
    }

    /// The blocked mass-matrix multiplication plan (present only for the
    /// dynamics-gradient kernel).
    pub fn matmul_plan(&self) -> Option<&BlockMatmulPlan> {
        self.matmul.as_ref()
    }

    /// The storage sizing report (Fig. 8 structures).
    pub fn storage(&self) -> &StorageReport {
        &self.storage
    }

    /// Total compute cycles with cross-stage pipelining: traversal
    /// makespan followed by the blocked mat-mul (whose operands are only
    /// complete once the last gradient column retires).
    pub fn compute_cycles(&self) -> u64 {
        self.schedule.makespan() + self.matmul_cycles()
    }

    fn matmul_cycles(&self) -> u64 {
        self.matmul
            .as_ref()
            .map(|m| m.latency(&self.matmul_model))
            .unwrap_or(0)
    }

    /// Total compute cycles with stage barriers ("No Pipelining" in
    /// Fig. 9).
    pub fn compute_cycles_no_pipelining(&self) -> u64 {
        self.schedule_no_pipeline.makespan() + self.matmul_cycles()
    }

    /// The modelled clock period (ns) — see [`clock_period_ns`]. The slot
    /// count is the forward-PE schedule-table depth: total forward-stage
    /// tasks divided by `PEs_fwd`.
    pub fn clock_ns(&self) -> f64 {
        let fwd_tasks = self
            .graph
            .tasks()
            .iter()
            .filter(|t| t.kind.stage().is_forward())
            .count();
        clock_period_ns(fwd_tasks.div_ceil(self.knobs.pe_fwd))
    }

    /// Compute-only latency in microseconds (cycles × period), pipelined.
    pub fn compute_latency_us(&self) -> f64 {
        self.compute_cycles() as f64 * self.clock_ns() * 1e-3
    }

    /// Compute-only latency without pipelining, microseconds.
    pub fn compute_latency_no_pipelining_us(&self) -> f64 {
        self.compute_cycles_no_pipelining() as f64 * self.clock_ns() * 1e-3
    }

    /// Full-design resource estimate (Table 2 model).
    pub fn full_resources(&self) -> Resources {
        FullDesignModel.estimate(self.topo.len(), &self.knobs)
    }

    /// PE-level resource estimate (design-space model of Figs. 12–16).
    pub fn dse_resources(&self) -> Resources {
        DseModel.estimate(self.topo.len(), &self.knobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clock_model_matches_paper_points() {
        // iiwa (7 links, 7 PEs) and HyQ (12 links, 3 PEs) close at 18 ns;
        // Baxter (15 links, 4 PEs) at 22 ns.
        let iiwa =
            AcceleratorDesign::generate(&Topology::chain(7), AcceleratorKnobs::symmetric(7, 7));
        assert!(
            (iiwa.clock_ns() - 18.0).abs() < 0.01,
            "iiwa {}",
            iiwa.clock_ns()
        );

        let mut hyq_parents = Vec::new();
        for _ in 0..4 {
            hyq_parents.push(None);
            let b = hyq_parents.len() - 1;
            hyq_parents.push(Some(b));
            hyq_parents.push(Some(b + 1));
        }
        let hyq_topo = Topology::new(hyq_parents).unwrap();
        let hyq = AcceleratorDesign::generate(&hyq_topo, AcceleratorKnobs::symmetric(3, 6));
        assert!(
            (hyq.clock_ns() - 18.0).abs() < 0.01,
            "HyQ {}",
            hyq.clock_ns()
        );

        let baxter = AcceleratorDesign::generate(&baxter_like(), AcceleratorKnobs::symmetric(4, 4));
        assert!(
            (baxter.clock_ns() - 22.0).abs() < 1.01,
            "Baxter {}",
            baxter.clock_ns()
        );
    }

    #[test]
    fn pipelined_latency_is_never_worse() {
        for pes in [1, 2, 4, 7] {
            let d = AcceleratorDesign::generate(&baxter_like(), AcceleratorKnobs::new(pes, pes, 4));
            assert!(d.compute_cycles() <= d.compute_cycles_no_pipelining());
        }
    }

    #[test]
    fn schedules_are_valid() {
        let d = AcceleratorDesign::generate(&baxter_like(), AcceleratorKnobs::new(4, 4, 4));
        d.schedule().validate(d.task_graph()).unwrap();
        d.schedule_without_pipelining()
            .validate(d.task_graph())
            .unwrap();
    }

    #[test]
    fn latency_in_expected_units() {
        let d = AcceleratorDesign::generate(&Topology::chain(7), AcceleratorKnobs::symmetric(7, 7));
        let us = d.compute_latency_us();
        // cycles × ~18ns: must land in the microseconds regime.
        assert!(us > 0.5 && us < 500.0, "latency {us} µs");
    }
}
