//! Blocked matrix-multiplication plans and their latency model
//! (paper Sec. 4.3, Figs. 6c and 15).

use crate::{BlockTiling, SparsityPattern};
use roboshape_linalg::DMat;

/// One block operation: multiply A-tile `(ti, tk)` by B-tile `(tk, tj)`
/// and accumulate into C-tile `(ti, tj)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOp {
    /// A-tile row.
    pub ti: usize,
    /// Contraction tile index.
    pub tk: usize,
    /// B-tile column.
    pub tj: usize,
    /// The mat-mul unit the op is assigned to.
    pub unit: usize,
}

/// Cycle-cost model for one `b×b` block operation on a block mat-mul unit.
///
/// The unit holds `b` MAC lanes (one per block row) and streams the `b`
/// columns of the B-tile through them, one column per `b`-cycle dot
/// product after a fixed pipeline-fill overhead:
/// `cycles(b) = b² + fill`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulLatencyModel {
    /// Pipeline fill/drain overhead per block op, in cycles.
    pub fill: u64,
}

impl Default for MatmulLatencyModel {
    fn default() -> Self {
        MatmulLatencyModel { fill: 2 }
    }
}

impl MatmulLatencyModel {
    /// Cycles for one block op at block size `b`.
    pub fn block_op_cycles(&self, b: usize) -> u64 {
        (b * b) as u64 + self.fill
    }
}

/// A complete plan for `C = A · B` where `A` is `N×N` with a topology
/// sparsity pattern and `B` is a dense `N×M` matrix (for the ∇FD kernel,
/// `B = [∂τ/∂q  ∂τ/∂q̇]` with `M = 2N`).
///
/// Ops over all-zero A-tiles are skipped ("NOP", Fig. 6b); the surviving
/// ops are distributed round-robin over `units` block mat-mul units
/// (Fig. 6c), each with a dedicated accumulator per C-tile (Fig. 8f), so
/// unit latency is simply its op count times the per-op cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMatmulPlan {
    n: usize,
    b_cols: usize,
    block: usize,
    units: usize,
    ops: Vec<BlockOp>,
    skipped: usize,
}

impl BlockMatmulPlan {
    /// Builds the plan for `A (n×n, pattern) · B (n×b_cols)` at block size
    /// `block` on `units` mat-mul units.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`, `units == 0`, or `b_cols == 0`.
    pub fn new(
        pattern: &SparsityPattern,
        b_cols: usize,
        block: usize,
        units: usize,
    ) -> BlockMatmulPlan {
        let _span = roboshape_obs::span("blocksparse", "block-plan");
        assert!(units > 0, "need at least one mat-mul unit");
        assert!(b_cols > 0, "B must have columns");
        let tiling = BlockTiling::new(pattern, block);
        let n = pattern.dim();
        let t = tiling.tiles_per_dim();
        let tb = b_cols.div_ceil(block);
        let mut ops = Vec::new();
        let mut skipped = 0usize;
        let mut unit = 0usize;
        for ti in 0..t {
            for tk in 0..t {
                if !tiling.tile_nonzero(ti, tk) {
                    skipped += tb;
                    continue;
                }
                for tj in 0..tb {
                    ops.push(BlockOp { ti, tk, tj, unit });
                    unit = (unit + 1) % units;
                }
            }
        }
        let m = roboshape_obs::metrics();
        m.counter("blocksparse.plans").add(1);
        m.counter("blocksparse.ops").add(ops.len() as u64);
        m.counter("blocksparse.nops").add(skipped as u64);
        BlockMatmulPlan {
            n,
            b_cols,
            block,
            units,
            ops,
            skipped,
        }
    }

    /// Matrix dimension `N`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Block size `b`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of mat-mul units.
    pub fn units(&self) -> usize {
        self.units
    }

    /// The scheduled block operations.
    pub fn ops(&self) -> &[BlockOp] {
        &self.ops
    }

    /// Number of block ops skipped thanks to the sparsity pattern (NOPs).
    pub fn skipped_ops(&self) -> usize {
        self.skipped
    }

    /// Total latency in cycles: the busiest unit's op count times the
    /// per-op cost.
    pub fn latency(&self, model: &MatmulLatencyModel) -> u64 {
        let mut per_unit = vec![0u64; self.units];
        for op in &self.ops {
            per_unit[op.unit] += 1;
        }
        let max_ops = per_unit.into_iter().max().unwrap_or(0);
        max_ops * model.block_op_cycles(self.block)
    }

    /// Executes the plan with real arithmetic: returns `C = A·B`.
    ///
    /// The computation walks the planned block ops exactly (zero-padding
    /// edge tiles), so a unit test comparing against dense multiplication
    /// validates the plan's completeness, not just the arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `a`/`b` dimensions disagree with the plan.
    pub fn execute(&self, a: &DMat, b: &DMat) -> DMat {
        assert_eq!(a.rows(), self.n, "A row mismatch");
        assert_eq!(a.cols(), self.n, "A col mismatch");
        assert_eq!(b.rows(), self.n, "B row mismatch");
        assert_eq!(b.cols(), self.b_cols, "B col mismatch");
        let bl = self.block;
        let mut c = DMat::zeros(self.n, self.b_cols);
        for op in &self.ops {
            let a_tile = a.block_padded(op.ti * bl, op.tk * bl, bl, bl);
            let b_tile = b.block_padded(op.tk * bl, op.tj * bl, bl, bl);
            let prod = a_tile.mul_mat(&b_tile);
            c.add_block(op.ti * bl, op.tj * bl, &prod);
        }
        c
    }
}

/// The latency a full [`BlockMatmulPlan`] for `(pattern, b_cols, block,
/// units)` would report under `model`, computed without materializing
/// the op list.
///
/// [`BlockMatmulPlan::new`] deals surviving ops round-robin across the
/// units, so the busiest unit runs `⌈total / units⌉` ops where
/// `total = nonzero_tiles × ⌈b_cols / block⌉`. That closed form is all a
/// latency consumer (the DSE sweep's per-block-size fragment) needs —
/// building and discarding the op vector per probe is pure overhead.
/// Pinned equal to the materialized plan's [`BlockMatmulPlan::latency`]
/// in this module's tests.
///
/// # Panics
///
/// Panics if `block == 0`, `units == 0`, or `b_cols == 0` (the same
/// contract as [`BlockMatmulPlan::new`]).
pub fn block_matmul_latency(
    pattern: &SparsityPattern,
    b_cols: usize,
    block: usize,
    units: usize,
    model: &MatmulLatencyModel,
) -> u64 {
    let _span = roboshape_obs::span("blocksparse", "block-latency");
    assert!(units > 0, "need at least one mat-mul unit");
    assert!(b_cols > 0, "B must have columns");
    let tiling = BlockTiling::new(pattern, block);
    let total = (tiling.nonzero_tiles() * b_cols.div_ceil(block)) as u64;
    total.div_ceil(units as u64) * model.block_op_cycles(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use roboshape_topology::Topology;

    fn hyq_like() -> Topology {
        let mut parents = Vec::new();
        for _ in 0..4 {
            parents.push(None);
            let b = parents.len() - 1;
            parents.push(Some(b));
            parents.push(Some(b + 1));
        }
        Topology::new(parents).unwrap()
    }

    /// A matrix filled inside the pattern with deterministic pseudo-values.
    fn patterned_matrix(p: &SparsityPattern) -> DMat {
        DMat::from_fn(p.dim(), p.dim(), |i, j| {
            if p.is_nonzero(i, j) {
                ((i * 31 + j * 17) % 13) as f64 - 6.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn blocked_equals_dense_for_all_block_sizes() {
        let topo = hyq_like();
        let p = SparsityPattern::mass_matrix(&topo);
        let n = p.dim();
        let a = patterned_matrix(&p);
        let b = DMat::from_fn(n, 2 * n, |i, j| (i as f64 + 1.0) * 0.3 - j as f64 * 0.11);
        let dense = a.mul_mat(&b);
        for block in 1..=n {
            for units in [1, 3, 5] {
                let plan = BlockMatmulPlan::new(&p, 2 * n, block, units);
                let c = plan.execute(&a, &b);
                assert!(
                    c.max_abs_diff(&dense).unwrap() < 1e-9,
                    "block {block} units {units}"
                );
            }
        }
    }

    #[test]
    fn aligned_blocks_skip_more() {
        let p = SparsityPattern::mass_matrix(&hyq_like());
        let aligned = BlockMatmulPlan::new(&p, 24, 3, 3);
        let misaligned = BlockMatmulPlan::new(&p, 24, 4, 3);
        // 3×3 blocks: 4 nonzero A-tiles × 8 B-block-cols = 32 ops, 96 skipped.
        assert_eq!(aligned.ops().len(), 32);
        assert_eq!(aligned.skipped_ops(), 96);
        // Misaligned blocks trap zeros → relatively fewer skips per tile.
        let aligned_skip_frac =
            aligned.skipped_ops() as f64 / (aligned.ops().len() + aligned.skipped_ops()) as f64;
        let misaligned_skip_frac = misaligned.skipped_ops() as f64
            / (misaligned.ops().len() + misaligned.skipped_ops()) as f64;
        assert!(aligned_skip_frac > misaligned_skip_frac);
    }

    #[test]
    fn latency_is_nonlinear_in_block_size() {
        // The Fig. 15 shape: for HyQ with 3 units, leg-aligned block sizes
        // (3, 6) beat at least one larger misaligned size (4 or 5).
        let p = SparsityPattern::mass_matrix(&hyq_like());
        let model = MatmulLatencyModel::default();
        let lat = |b: usize| BlockMatmulPlan::new(&p, 24, b, 3).latency(&model);
        assert!(
            lat(3) < lat(4),
            "block 3 ({}) should beat misaligned block 4 ({})",
            lat(3),
            lat(4)
        );
        assert!(lat(3) < lat(5), "block 3 vs 5: {} vs {}", lat(3), lat(5));
    }

    #[test]
    fn units_divide_latency() {
        let p = SparsityPattern::dense(8);
        let model = MatmulLatencyModel::default();
        let l1 = BlockMatmulPlan::new(&p, 16, 2, 1).latency(&model);
        let l4 = BlockMatmulPlan::new(&p, 16, 2, 4).latency(&model);
        assert_eq!(l1, 4 * l4);
    }

    #[test]
    fn dense_pattern_skips_nothing() {
        let p = SparsityPattern::dense(6);
        let plan = BlockMatmulPlan::new(&p, 12, 3, 2);
        assert_eq!(plan.skipped_ops(), 0);
        assert_eq!(plan.ops().len(), 2 * 2 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one mat-mul unit")]
    fn zero_units_panics() {
        BlockMatmulPlan::new(&SparsityPattern::dense(3), 3, 1, 0);
    }

    #[test]
    fn closed_form_latency_matches_materialized_plan() {
        // The fragment-granular entry point must agree with the full
        // plan everywhere: sparse and dense patterns, misaligned b_cols,
        // unit counts that don't divide the op total.
        let model = MatmulLatencyModel::default();
        let patterns = [
            SparsityPattern::mass_matrix(&hyq_like()),
            SparsityPattern::inverse_mass_matrix(&hyq_like()),
            SparsityPattern::dense(9),
        ];
        for p in &patterns {
            let n = p.dim();
            for b_cols in [1, n, 2 * n, 2 * n + 1] {
                for block in 1..=n {
                    for units in [1, 2, 3, 5, n] {
                        assert_eq!(
                            block_matmul_latency(p, b_cols, block, units, &model),
                            BlockMatmulPlan::new(p, b_cols, block, units).latency(&model),
                            "b_cols {b_cols} block {block} units {units}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn blocked_matmul_matches_dense_on_random_trees(
            picks in proptest::collection::vec(0usize..6, 1..12),
            block in 1usize..8,
            units in 1usize..5,
        ) {
            let parents: Vec<Option<usize>> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| if i == 0 || p >= i { None } else { Some(p) })
                .collect();
            let topo = Topology::new(parents).unwrap();
            let p = SparsityPattern::mass_matrix(&topo);
            let n = p.dim();
            let a = patterned_matrix(&p);
            let b = DMat::from_fn(n, 2 * n, |i, j| (i * 7 + j * 3) as f64 * 0.1 - 1.0);
            let plan = BlockMatmulPlan::new(&p, 2 * n, block, units);
            let c = plan.execute(&a, &b);
            prop_assert!(c.max_abs_diff(&a.mul_mat(&b)).unwrap() < 1e-9);
        }
    }
}
