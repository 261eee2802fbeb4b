//! The paper's Table 3 topology metrics.

use crate::Topology;
use core::fmt;

/// Shape metrics of a robot topology (paper Table 3 / Fig. 11).
///
/// These are the quantities the paper's resource-allocation strategies key
/// on (Sec. 5.4): forward-traversal parallelism tracks *leaf depth*,
/// backward-traversal parallelism tracks *descendants*, and asymmetry
/// (captured by the leaf-depth standard deviation) decides whether the
/// Hybrid heuristic matches the optimal allocation.
///
/// # Examples
///
/// ```
/// use roboshape_topology::Topology;
///
/// let iiwa = Topology::chain(7);
/// let m = iiwa.metrics();
/// assert_eq!(m.total_links, 7);
/// assert_eq!(m.max_leaf_depth, 7);
/// assert_eq!(m.max_descendants, 7);
/// assert_eq!(m.leaf_depth_stdev, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyMetrics {
    /// Total number of moving links `N`.
    pub total_links: usize,
    /// Depth of the deepest leaf (longest chain).
    pub max_leaf_depth: usize,
    /// Mean leaf depth.
    pub avg_leaf_depth: f64,
    /// Largest subtree size (descendants of any link, itself included).
    pub max_descendants: usize,
    /// Population standard deviation of leaf depths (0 for symmetric
    /// robots; the paper reports 1.6 for HyQ+arm, which pins the population
    /// formula — see DESIGN.md).
    pub leaf_depth_stdev: f64,
}

impl Topology {
    /// Computes the Table 3 metrics for this topology.
    pub fn metrics(&self) -> TopologyMetrics {
        let leaves = self.leaves();
        let depths: Vec<f64> = leaves.iter().map(|&l| self.depth(l) as f64).collect();
        let max_leaf_depth = leaves.iter().map(|&l| self.depth(l)).max().unwrap_or(0);
        let avg = depths.iter().sum::<f64>() / depths.len() as f64;
        let var = depths.iter().map(|d| (d - avg) * (d - avg)).sum::<f64>() / depths.len() as f64;
        let max_descendants = (0..self.len())
            .map(|i| self.descendants(i))
            .max()
            .unwrap_or(0);
        TopologyMetrics {
            total_links: self.len(),
            max_leaf_depth,
            avg_leaf_depth: avg,
            max_descendants,
            leaf_depth_stdev: var.sqrt(),
        }
    }
}

impl fmt::Display for TopologyMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={} maxLeafDepth={} avgLeafDepth={:.1} maxDesc={} leafDepthStd={:.1}",
            self.total_links,
            self.max_leaf_depth,
            self.avg_leaf_depth,
            self.max_descendants,
            self.leaf_depth_stdev
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(parents: Vec<Option<usize>>) -> Topology {
        Topology::new(parents).unwrap()
    }

    #[test]
    fn chain_metrics() {
        let m = Topology::chain(12).metrics();
        assert_eq!(m.total_links, 12);
        assert_eq!(m.max_leaf_depth, 12);
        assert_eq!(m.avg_leaf_depth, 12.0);
        assert_eq!(m.max_descendants, 12);
        assert_eq!(m.leaf_depth_stdev, 0.0);
    }

    #[test]
    fn hyq_metrics() {
        // 4 independent legs of 3 links each.
        let mut parents = Vec::new();
        for _ in 0..4 {
            parents.push(None);
            let base = parents.len() - 1;
            parents.push(Some(base));
            parents.push(Some(base + 1));
        }
        let m = topo(parents).metrics();
        assert_eq!(m.total_links, 12);
        assert_eq!(m.max_leaf_depth, 3);
        assert_eq!(m.avg_leaf_depth, 3.0);
        assert_eq!(m.max_descendants, 3);
        assert_eq!(m.leaf_depth_stdev, 0.0);
    }

    #[test]
    fn baxter_metrics() {
        let mut parents = vec![None]; // head
        for _ in 0..2 {
            parents.push(None);
            for _ in 1..7 {
                parents.push(Some(parents.len() - 1));
            }
        }
        let m = topo(parents).metrics();
        assert_eq!(m.total_links, 15);
        assert_eq!(m.max_leaf_depth, 7);
        assert!((m.avg_leaf_depth - 5.0).abs() < 1e-12);
        assert_eq!(m.max_descendants, 7);
        // Population stdev of {1, 7, 7}: sqrt(8) ≈ 2.83 (the paper's table
        // prints 2.3; see DESIGN.md for the discrepancy note).
        assert!((m.leaf_depth_stdev - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn hyq_plus_arm_metrics_match_paper() {
        // HyQ (4 × 3-link legs) plus a 7-link arm on the trunk.
        let mut parents = Vec::new();
        for _ in 0..4 {
            parents.push(None);
            let base = parents.len() - 1;
            parents.push(Some(base));
            parents.push(Some(base + 1));
        }
        parents.push(None);
        for _ in 1..7 {
            parents.push(Some(parents.len() - 1));
        }
        let m = topo(parents).metrics();
        assert_eq!(m.total_links, 19);
        assert_eq!(m.max_leaf_depth, 7);
        // Paper Table 3: avg leaf depth 3.8, leaf-depth stdev 1.6.
        assert!((m.avg_leaf_depth - 3.8).abs() < 1e-12);
        assert!((m.leaf_depth_stdev - 1.6).abs() < 1e-12);
        assert_eq!(m.max_descendants, 7);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Topology::chain(3).metrics().to_string();
        assert!(s.contains("N=3"));
    }
}
