//! On-chip storage sizing for the template architecture (paper Fig. 8).

use crate::AcceleratorKnobs;
use roboshape_taskgraph::{Schedule, TaskGraph};
use roboshape_topology::Topology;

/// Sizes (in 32-bit words) of the architecture's storage structures:
///
/// * (a) schedule ROMs — one entry per scheduled task;
/// * (c) RNEA-output buffers — `X`, `v`, `a`, `f` per link for the
///   ∇-stage to consume;
/// * (d) parent-link value registers — one spatial state per PE;
/// * (e) branch checkpoint registers — saved traversal state per branch
///   point plus one slot per context switch the schedule actually incurs;
/// * (f) block mat-mul accumulators — one `b×b` tile per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Schedule ROM entries (tasks across all PEs).
    pub schedule_entries: usize,
    /// RNEA-output buffer words.
    pub rnea_output_words: usize,
    /// Parent-value register words.
    pub parent_value_words: usize,
    /// Branch-checkpoint register words.
    pub checkpoint_words: usize,
    /// Mat-mul accumulator words.
    pub accumulator_words: usize,
}

/// Words per spatial 6-vector (single-precision).
const VEC6_WORDS: usize = 6;
/// Words for one link's forward state (v, a, f) plus its 6×6 transform.
const LINK_STATE_WORDS: usize = 3 * VEC6_WORDS + 36;

impl StorageReport {
    /// Sizes the storage for a scheduled design.
    pub fn for_design(
        topo: &Topology,
        knobs: &AcceleratorKnobs,
        graph: &TaskGraph,
        schedule: &Schedule,
    ) -> StorageReport {
        let n = topo.len();
        let branches = topo
            .branch_links()
            .len()
            .max(topo.roots().len().saturating_sub(1));
        StorageReport {
            schedule_entries: graph.len(),
            rnea_output_words: n * LINK_STATE_WORDS,
            parent_value_words: (knobs.pe_fwd + knobs.pe_bwd) * 2 * VEC6_WORDS,
            checkpoint_words: (branches + schedule.context_switches(graph).min(n)) * 2 * VEC6_WORDS,
            accumulator_words: knobs.matmul_units.resolve(n) * knobs.block_size * knobs.block_size,
        }
    }

    /// Total words across all structures.
    pub fn total_words(&self) -> usize {
        self.schedule_entries
            + self.rnea_output_words
            + self.parent_value_words
            + self.checkpoint_words
            + self.accumulator_words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboshape_taskgraph::{schedule, SchedulerConfig};

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
    fn sizes_scale_with_robot_and_knobs() {
        let topo = baxter_like();
        let graph = TaskGraph::dynamics_gradient(&topo);
        let knobs = AcceleratorKnobs::new(4, 4, 4);
        let sched = schedule(&graph, &SchedulerConfig::with_pes(4, 4));
        let report = StorageReport::for_design(&topo, &knobs, &graph, &sched);
        assert_eq!(report.schedule_entries, graph.len());
        assert_eq!(report.rnea_output_words, 15 * (18 + 36));
        // Per-link mat-mul units by default: 15 units × 4×4 accumulators.
        assert_eq!(report.accumulator_words, 15 * 16);
        assert!(
            report.checkpoint_words > 0,
            "multi-limb robot needs checkpoints"
        );
        assert!(report.total_words() > report.rnea_output_words);
    }

    #[test]
    fn chain_needs_no_branch_checkpoints_at_full_parallelism() {
        let topo = Topology::chain(7);
        let graph = TaskGraph::dynamics_gradient(&topo);
        let knobs = AcceleratorKnobs::symmetric(7, 7);
        let sched = schedule(&graph, &SchedulerConfig::with_pes(7, 7));
        let report = StorageReport::for_design(&topo, &knobs, &graph, &sched);
        // A serial chain has no branch links; checkpoints come only from
        // scheduler context switches.
        assert_eq!(topo.branch_links().len(), 0);
        assert!(report.checkpoint_words <= 7 * 12);
    }
}
