//! Structural sparsity patterns of topology-based matrices.

use roboshape_linalg::DMat;
use roboshape_topology::Topology;

/// The structural nonzero pattern of an `N×N` topology-based matrix.
///
/// # Examples
///
/// ```
/// use roboshape_blocksparse::SparsityPattern;
/// use roboshape_topology::Topology;
///
/// let chain = Topology::chain(4);
/// let p = SparsityPattern::mass_matrix(&chain);
/// assert!(p.is_dense()); // a serial chain's mass matrix is fully dense
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsityPattern {
    n: usize,
    nonzero: Vec<bool>, // row-major n×n
}

impl SparsityPattern {
    /// The mass-matrix pattern of a topology: `(i, j)` is nonzero exactly
    /// when the links share a root-to-leaf path (paper Sec. 3.2).
    pub fn mass_matrix(topo: &Topology) -> SparsityPattern {
        let n = topo.len();
        let mut nonzero = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                nonzero[i * n + j] = topo.supports(i, j);
            }
        }
        SparsityPattern { n, nonzero }
    }

    /// The pattern of the *inverse* mass matrix: `(i, j)` is nonzero
    /// exactly when the links share a common ancestor (or one supports the
    /// other), i.e. hang off the same base child.
    ///
    /// `M = LᵀL` with `L` sparse along root paths, so `M⁻¹ = L⁻¹L⁻ᵀ`
    /// fills in at every pair of links connected through a shared
    /// ancestor — sibling subtrees of a mid-limb branch (e.g. two fingers
    /// on the same wrist) couple in `M⁻¹` even though their `M` entry is
    /// structurally zero. Only base-rooted limbs stay decoupled, so this
    /// pattern is block-diagonal per base subtree and is a superset of
    /// [`SparsityPattern::mass_matrix`]. Plans that multiply by `M⁻¹` must
    /// use this pattern; using the mass pattern silently drops the
    /// fill-in entries.
    pub fn inverse_mass_matrix(topo: &Topology) -> SparsityPattern {
        let n = topo.len();
        // Label every link with its base-rooted subtree; (i, j) couples in
        // M⁻¹ exactly when the labels match.
        let mut root = vec![0usize; n];
        for (i, label) in root.iter_mut().enumerate() {
            let mut cur = i;
            while let Some(p) = topo.parent(cur) {
                cur = p;
            }
            *label = cur;
        }
        let mut nonzero = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                nonzero[i * n + j] = root[i] == root[j];
            }
        }
        SparsityPattern { n, nonzero }
    }

    /// A fully dense `n×n` pattern.
    pub fn dense(n: usize) -> SparsityPattern {
        SparsityPattern {
            n,
            nonzero: vec![true; n * n],
        }
    }

    /// The pattern of the nonzero entries of a concrete matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square.
    pub fn of_matrix(m: &DMat, eps: f64) -> SparsityPattern {
        assert_eq!(m.rows(), m.cols(), "pattern requires a square matrix");
        let n = m.rows();
        let mut nonzero = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                nonzero[i * n + j] = m[(i, j)].abs() > eps;
            }
        }
        SparsityPattern { n, nonzero }
    }

    /// Matrix dimension `N`.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Whether entry `(i, j)` is structurally nonzero.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn is_nonzero(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "pattern index out of bounds");
        self.nonzero[i * self.n + j]
    }

    /// Count of structural nonzeros.
    pub fn nnz(&self) -> usize {
        self.nonzero.iter().filter(|&&b| b).count()
    }

    /// Fraction of structural zeros (the paper's "sparsity": 0.75 for HyQ,
    /// 0.56 for Baxter, 0 for iiwa).
    pub fn sparsity(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        1.0 - self.nnz() as f64 / (self.n * self.n) as f64
    }

    /// `true` when every entry is structurally nonzero.
    pub fn is_dense(&self) -> bool {
        self.nnz() == self.n * self.n
    }

    /// Whether the rectangular region `[r0, r0+h) × [c0, c0+w)` contains
    /// any structural nonzero (regions past the edge count as zero).
    pub fn region_has_nonzero(&self, r0: usize, c0: usize, h: usize, w: usize) -> bool {
        for i in r0..(r0 + h).min(self.n) {
            for j in c0..(c0 + w).min(self.n) {
                if self.nonzero[i * self.n + j] {
                    return true;
                }
            }
        }
        false
    }

    /// `true` if `m`'s numeric nonzeros all lie inside this pattern.
    pub fn contains_matrix(&self, m: &DMat, eps: f64) -> bool {
        if m.rows() != self.n || m.cols() != self.n {
            return false;
        }
        for i in 0..self.n {
            for j in 0..self.n {
                if m[(i, j)].abs() > eps && !self.is_nonzero(i, j) {
                    return false;
                }
            }
        }
        true
    }

    /// ASCII rendering: `x` for nonzero, `.` for zero (Fig. 6a style).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.n * (self.n + 1));
        for i in 0..self.n {
            for j in 0..self.n {
                out.push(if self.is_nonzero(i, j) { 'x' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn paper_sparsity_numbers() {
        assert_eq!(
            SparsityPattern::mass_matrix(&Topology::chain(7)).sparsity(),
            0.0
        );
        assert!((SparsityPattern::mass_matrix(&hyq_like()).sparsity() - 0.75).abs() < 1e-12);
        assert!((SparsityPattern::mass_matrix(&baxter_like()).sparsity() - 0.56).abs() < 1e-12);
    }

    #[test]
    fn baxter_has_99_nonzeros() {
        // Paper Sec. 3.3: Baxter's 15×15 mass matrix has 99 nonzero
        // elements (56% sparse).
        assert_eq!(SparsityPattern::mass_matrix(&baxter_like()).nnz(), 99);
    }

    #[test]
    fn inverse_pattern_fills_in_at_mid_limb_branches() {
        // Two sibling subtrees (3, 4) hang off link 2: M[3][4] is
        // structurally zero, but M⁻¹[3][4] is not (common ancestor 2).
        let topo = Topology::new(vec![None, Some(0), Some(1), Some(2), Some(2)]).unwrap();
        let mass = SparsityPattern::mass_matrix(&topo);
        let inv = SparsityPattern::inverse_mass_matrix(&topo);
        assert!(!mass.is_nonzero(3, 4));
        assert!(inv.is_nonzero(3, 4));
        // Everything here shares the single base link, so M⁻¹ is dense.
        assert!(inv.is_dense());
    }

    #[test]
    fn inverse_pattern_matches_mass_for_base_branching() {
        // Limbs that split only at the base (chains, HyQ legs, Baxter
        // arms) have no fill-in: the patterns coincide.
        for topo in [Topology::chain(7), hyq_like(), baxter_like()] {
            assert_eq!(
                SparsityPattern::inverse_mass_matrix(&topo),
                SparsityPattern::mass_matrix(&topo)
            );
        }
    }

    #[test]
    fn inverse_pattern_is_superset_of_mass_pattern() {
        let topo = Topology::new(vec![None, Some(0), Some(1), Some(1), None, Some(4)]).unwrap();
        let mass = SparsityPattern::mass_matrix(&topo);
        let inv = SparsityPattern::inverse_mass_matrix(&topo);
        for i in 0..topo.len() {
            for j in 0..topo.len() {
                assert!(!mass.is_nonzero(i, j) || inv.is_nonzero(i, j));
            }
        }
        // Separate base subtrees stay decoupled even in the inverse.
        assert!(!inv.is_nonzero(0, 4));
        assert!(!inv.is_nonzero(3, 5));
    }

    #[test]
    fn pattern_is_symmetric() {
        let p = SparsityPattern::mass_matrix(&baxter_like());
        for i in 0..p.dim() {
            for j in 0..p.dim() {
                assert_eq!(p.is_nonzero(i, j), p.is_nonzero(j, i));
            }
        }
    }

    #[test]
    fn region_query() {
        let p = SparsityPattern::mass_matrix(&hyq_like());
        // First leg occupies rows/cols 0..3.
        assert!(p.region_has_nonzero(0, 0, 3, 3));
        assert!(!p.region_has_nonzero(0, 3, 3, 3));
        // Regions entirely past the edge are zero.
        assert!(!p.region_has_nonzero(12, 12, 3, 3));
    }

    #[test]
    fn of_matrix_and_contains() {
        let mut m = DMat::zeros(3, 3);
        m[(0, 0)] = 1.0;
        m[(1, 2)] = -2.0;
        let p = SparsityPattern::of_matrix(&m, 1e-12);
        assert_eq!(p.nnz(), 2);
        assert!(p.contains_matrix(&m, 1e-12));
        m[(2, 0)] = 5.0;
        assert!(!p.contains_matrix(&m, 1e-12));
        assert!(!p.contains_matrix(&DMat::zeros(2, 2), 1e-12));
    }

    #[test]
    fn render_shape() {
        let p = SparsityPattern::mass_matrix(&hyq_like());
        let rendered = p.render();
        assert_eq!(rendered.lines().count(), 12);
        assert!(rendered.contains('x'));
        assert!(rendered.contains('.'));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        SparsityPattern::dense(2).is_nonzero(2, 0);
    }
}
