//! Traversal parallelism analysis (paper Fig. 14).
//!
//! The degree of parallelism a traversal pattern can exploit depends on the
//! robot's topology in opposite ways for the two directions:
//!
//! * **forward pass** — a per-link thread can launch as soon as its parent's
//!   value is ready, so the number of *simultaneously live* threads scales
//!   with the number of independent limbs at each depth;
//! * **backward pass** — a per-link thread completes once all its children
//!   have, so parallelism scales with the number of links whose subtrees
//!   are disjoint, i.e. with the width of the *bottom* of the tree (the
//!   paper phrases this as "parallel threads scale with number of common
//!   ancestors for leaf links").

use crate::Topology;

/// Per-step thread counts for forward and backward traversals of a
/// topology.
///
/// Step `k` of the forward profile counts the links at depth `k + 1`
/// (all of them may execute in parallel once their parents are done); step
/// `k` of the backward profile counts the links whose *height* is `k + 1`
/// (leaves first).
///
/// # Examples
///
/// ```
/// use roboshape_topology::{ParallelismProfile, Topology};
///
/// // HyQ-like: 4 independent 3-link legs — 4-wide at every step.
/// let mut parents = Vec::new();
/// for _ in 0..4 {
///     parents.push(None);
///     let b = parents.len() - 1;
///     parents.push(Some(b));
///     parents.push(Some(b + 1));
/// }
/// let topo = Topology::new(parents).unwrap();
/// let p = ParallelismProfile::of(&topo);
/// assert_eq!(p.forward, vec![4, 4, 4]);
/// assert_eq!(p.backward, vec![4, 4, 4]);
/// assert_eq!(p.max_forward(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelismProfile {
    /// Link count per forward step (by depth).
    pub forward: Vec<usize>,
    /// Link count per backward step (by height: leaves first).
    pub backward: Vec<usize>,
}

impl ParallelismProfile {
    /// Computes the profile for a topology.
    pub fn of(topo: &Topology) -> ParallelismProfile {
        let forward = topo.width_profile();
        // Height of a link: 1 for leaves, else 1 + max(child heights).
        let n = topo.len();
        let mut height = vec![1usize; n];
        for i in (0..n).rev() {
            for &c in topo.children(i) {
                height[i] = height[i].max(height[c] + 1);
            }
        }
        let max_h = height.iter().copied().max().unwrap_or(0);
        let mut backward = vec![0usize; max_h];
        for &h in &height {
            backward[h - 1] += 1;
        }
        ParallelismProfile { forward, backward }
    }

    /// Maximum simultaneously-live forward threads.
    pub fn max_forward(&self) -> usize {
        self.forward.iter().copied().max().unwrap_or(0)
    }

    /// Maximum simultaneously-live backward threads.
    pub fn max_backward(&self) -> usize {
        self.backward.iter().copied().max().unwrap_or(0)
    }

    /// Number of forward steps on the critical path (equals the maximum
    /// leaf depth).
    pub fn forward_steps(&self) -> usize {
        self.forward.len()
    }

    /// Number of backward steps on the critical path.
    pub fn backward_steps(&self) -> usize {
        self.backward.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_serial_both_ways() {
        let p = ParallelismProfile::of(&Topology::chain(7));
        assert_eq!(p.forward, vec![1; 7]);
        assert_eq!(p.backward, vec![1; 7]);
        assert_eq!(p.max_forward(), 1);
        assert_eq!(p.max_backward(), 1);
        assert_eq!(p.forward_steps(), 7);
    }

    #[test]
    fn jaco_like_fingers_widen_the_bottom() {
        // 4-link chain with 3 one-link fingers at the tip: forward pass is
        // narrow until the fingers (1,1,1,1,3); backward pass is wide first
        // (3 fingers + nothing else at height 1? heights: fingers 1, tip
        // link 2, ...): the backward profile leads with the finger width.
        let mut parents: Vec<Option<usize>> = vec![None, Some(0), Some(1), Some(2)];
        parents.extend([Some(3), Some(3), Some(3)]);
        let t = Topology::new(parents).unwrap();
        let p = ParallelismProfile::of(&t);
        assert_eq!(p.forward, vec![1, 1, 1, 1, 3]);
        assert_eq!(p.backward, vec![3, 1, 1, 1, 1]);
        assert_eq!(p.max_backward(), 3);
    }

    #[test]
    fn baxter_forward_tracks_limbs() {
        let mut parents = vec![None];
        for _ in 0..2 {
            parents.push(None);
            for _ in 1..7 {
                parents.push(Some(parents.len() - 1));
            }
        }
        let t = Topology::new(parents).unwrap();
        let p = ParallelismProfile::of(&t);
        assert_eq!(p.forward, vec![3, 2, 2, 2, 2, 2, 2]);
        assert_eq!(p.backward, vec![3, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn profiles_sum_to_links() {
        let t = Topology::new(vec![None, Some(0), Some(0), Some(2), Some(2)]).unwrap();
        let p = ParallelismProfile::of(&t);
        assert_eq!(p.forward.iter().sum::<usize>(), 5);
        assert_eq!(p.backward.iter().sum::<usize>(), 5);
    }
}
