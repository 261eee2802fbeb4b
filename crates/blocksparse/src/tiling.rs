//! Block tiling of a sparsity pattern (paper Fig. 6b, Sec. 4.3).

use crate::SparsityPattern;

/// An `N×N` pattern tiled with `b×b` blocks: each tile is either dense
/// work or an all-zero NOP that the blocked multiplication skips.
///
/// Tiles past the matrix edge are zero-padded; [`BlockTiling::padding_waste`]
/// quantifies how much of the covered area is padding + structural zeros —
/// the quantity the paper's block-size tuning minimizes ("adjust block
/// size to minimize operating on zeros", Fig. 7c).
///
/// # Examples
///
/// ```
/// use roboshape_blocksparse::{BlockTiling, SparsityPattern};
/// use roboshape_topology::Topology;
///
/// let p = SparsityPattern::mass_matrix(&Topology::chain(6));
/// // 4×4 tiles on a dense 6×6 matrix: all 4 tiles are work, half padded.
/// let t = BlockTiling::new(&p, 4);
/// assert_eq!(t.tiles_per_dim(), 2);
/// assert_eq!(t.nonzero_tiles(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTiling {
    n: usize,
    block: usize,
    tiles_per_dim: usize,
    nonzero: Vec<bool>, // row-major tiles_per_dim²
    structural_nnz: usize,
}

impl BlockTiling {
    /// Tiles `pattern` with `block × block` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(pattern: &SparsityPattern, block: usize) -> BlockTiling {
        assert!(block > 0, "block size must be positive");
        let n = pattern.dim();
        let tiles_per_dim = n.div_ceil(block);
        let mut nonzero = vec![false; tiles_per_dim * tiles_per_dim];
        for ti in 0..tiles_per_dim {
            for tj in 0..tiles_per_dim {
                nonzero[ti * tiles_per_dim + tj] =
                    pattern.region_has_nonzero(ti * block, tj * block, block, block);
            }
        }
        BlockTiling {
            n,
            block,
            tiles_per_dim,
            nonzero,
            structural_nnz: pattern.nnz(),
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

    /// Number of tiles per dimension, `⌈N/b⌉`.
    pub fn tiles_per_dim(&self) -> usize {
        self.tiles_per_dim
    }

    /// Whether tile `(ti, tj)` contains structural nonzeros.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn tile_nonzero(&self, ti: usize, tj: usize) -> bool {
        assert!(
            ti < self.tiles_per_dim && tj < self.tiles_per_dim,
            "tile out of bounds"
        );
        self.nonzero[ti * self.tiles_per_dim + tj]
    }

    /// Number of tiles carrying work.
    pub fn nonzero_tiles(&self) -> usize {
        self.nonzero.iter().filter(|&&b| b).count()
    }

    /// Number of skippable all-zero tiles (the Fig. 6b "NOP"s).
    pub fn nop_tiles(&self) -> usize {
        self.tiles_per_dim * self.tiles_per_dim - self.nonzero_tiles()
    }

    /// Fraction of the *covered* (worked-on) area that is not a structural
    /// nonzero — zero padding at the edges plus structural zeros trapped
    /// inside nonzero tiles. Lower is better; 3×3 tiles on HyQ give 0.
    pub fn padding_waste(&self) -> f64 {
        let covered = self.nonzero_tiles() * self.block * self.block;
        if covered == 0 {
            return 0.0;
        }
        1.0 - self.structural_nnz as f64 / covered as f64
    }

    /// ASCII rendering of the tile map: `W` for work tiles, `-` for NOPs
    /// (Fig. 6b style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ti in 0..self.tiles_per_dim {
            for tj in 0..self.tiles_per_dim {
                out.push(if self.tile_nonzero(ti, tj) { 'W' } else { '-' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn hyq_aligned_blocks_have_zero_waste() {
        let p = SparsityPattern::mass_matrix(&hyq_like());
        // Block sizes 3, 6 (and any multiple of a leg) align with the legs.
        let t3 = BlockTiling::new(&p, 3);
        assert_eq!(t3.nonzero_tiles(), 4);
        assert_eq!(t3.padding_waste(), 0.0);
        let t6 = BlockTiling::new(&p, 6);
        // 6×6 tiles: each diagonal tile holds two legs + their cross zeros.
        assert_eq!(t6.nonzero_tiles(), 2);
        assert!(t6.padding_waste() > 0.0); // trapped cross-leg zeros
    }

    #[test]
    fn hyq_misaligned_blocks_are_wasteful() {
        let p = SparsityPattern::mass_matrix(&hyq_like());
        let t3 = BlockTiling::new(&p, 3);
        let t4 = BlockTiling::new(&p, 4);
        // Misaligned 4×4 tiles straddle legs: more covered zeros.
        assert!(t4.padding_waste() > t3.padding_waste());
        assert!(t4.nonzero_tiles() > 4);
    }

    #[test]
    fn baxter_4x4_matches_figure6() {
        // Paper Fig. 6b: Baxter's 15×15 matrix in 4×4 blocks — 16 tiles,
        // of which the all-zero cross-limb ones are NOPs.
        let p = SparsityPattern::mass_matrix(&baxter_like());
        let t = BlockTiling::new(&p, 4);
        assert_eq!(t.tiles_per_dim(), 4);
        assert!(t.nop_tiles() >= 6, "got {} NOPs", t.nop_tiles());
        assert!(t.nonzero_tiles() + t.nop_tiles() == 16);
    }

    #[test]
    fn block_of_full_size_has_single_tile() {
        let p = SparsityPattern::mass_matrix(&baxter_like());
        let t = BlockTiling::new(&p, 15);
        assert_eq!(t.tiles_per_dim(), 1);
        assert_eq!(t.nonzero_tiles(), 1);
        assert!((t.padding_waste() - 0.56).abs() < 1e-12);
    }

    #[test]
    fn block_one_has_no_waste() {
        let p = SparsityPattern::mass_matrix(&baxter_like());
        let t = BlockTiling::new(&p, 1);
        assert_eq!(t.nonzero_tiles(), 99);
        assert_eq!(t.padding_waste(), 0.0);
    }

    #[test]
    fn render_is_tile_shaped() {
        let p = SparsityPattern::mass_matrix(&hyq_like());
        let r = BlockTiling::new(&p, 3).render();
        assert_eq!(r.lines().count(), 4);
        assert!(r.contains('W') && r.contains('-'));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_panics() {
        BlockTiling::new(&SparsityPattern::dense(3), 0);
    }
}
