//! The link tree and its structural queries.

use core::fmt;

/// Error raised when a parent array does not describe a valid link tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology has no links.
    Empty,
    /// Link `link` lists a parent with an index that is not smaller than its
    /// own (links must be topologically ordered) or out of bounds.
    BadParent {
        /// The offending link.
        link: usize,
        /// The parent index it declared.
        parent: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no links"),
            TopologyError::BadParent { link, parent } => {
                write!(
                    f,
                    "link {link} has invalid parent {parent} (parents must have smaller indices)"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A robot's kinematic tree: `n` moving links in topological order, each
/// with an optional parent (`None` = attached to the fixed base).
///
/// All derived structure (children lists, depths, subtree sizes) is computed
/// once at construction; queries are O(1) or O(result).
///
/// # Examples
///
/// ```
/// use roboshape_topology::Topology;
///
/// // A 3-link serial chain.
/// let topo = Topology::chain(3);
/// assert_eq!(topo.len(), 3);
/// assert_eq!(topo.depth(2), 3);
/// assert!(topo.is_ancestor(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    parents: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    depth: Vec<usize>,
    subtree_size: Vec<usize>,
}

impl Topology {
    /// Builds a topology from a parent array in topological order.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Empty`] for an empty array and
    /// [`TopologyError::BadParent`] when a link's parent index is not
    /// strictly smaller than its own.
    pub fn new(parents: Vec<Option<usize>>) -> Result<Topology, TopologyError> {
        if parents.is_empty() {
            return Err(TopologyError::Empty);
        }
        let n = parents.len();
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = *p {
                if p >= i {
                    return Err(TopologyError::BadParent { link: i, parent: p });
                }
            }
        }
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![1usize; n];
        for i in 0..n {
            if let Some(p) = parents[i] {
                children[p].push(i);
                depth[i] = depth[p] + 1;
            }
        }
        let mut subtree_size = vec![1usize; n];
        for i in (0..n).rev() {
            if let Some(p) = parents[i] {
                subtree_size[p] += subtree_size[i];
            }
        }
        Ok(Topology {
            parents,
            children,
            depth,
            subtree_size,
        })
    }

    /// A serial chain of `n` links (like the iiwa arm).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn chain(n: usize) -> Topology {
        assert!(n > 0, "chain must have at least one link");
        let parents = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        Topology::new(parents).expect("chain parents are valid by construction")
    }

    /// Number of links `N`.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` if the topology has no links (never true for a constructed
    /// value; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// The parent of `link`, or `None` for a branch root.
    pub fn parent(&self, link: usize) -> Option<usize> {
        self.parents[link]
    }

    /// The parent array.
    pub fn parents(&self) -> &[Option<usize>] {
        &self.parents
    }

    /// Children of `link`, in index order.
    pub fn children(&self, link: usize) -> &[usize] {
        &self.children[link]
    }

    /// Depth of `link`: a branch root has depth 1.
    pub fn depth(&self, link: usize) -> usize {
        self.depth[link]
    }

    /// Size of the subtree rooted at `link`, including `link` itself (the
    /// paper's "descendants" count — Baxter's max is 7, through an arm).
    pub fn descendants(&self, link: usize) -> usize {
        self.subtree_size[link]
    }

    /// Links with no children.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.children[i].is_empty())
            .collect()
    }

    /// Links attached directly to the fixed base.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.parents[i].is_none())
            .collect()
    }

    /// Links with more than one child — the branch points where the
    /// traversal hardware must checkpoint state (paper Fig. 5 / Fig. 8e).
    pub fn branch_links(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.children[i].len() > 1)
            .collect()
    }

    /// The chain of ancestors of `link`, nearest first (excluding `link`).
    pub fn ancestors(&self, link: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.parents[link];
        while let Some(p) = cur {
            out.push(p);
            cur = self.parents[p];
        }
        out
    }

    /// `true` if `a` is a strict ancestor of `b`.
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        let mut cur = self.parents[b];
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parents[p];
        }
        false
    }

    /// `true` if links `i` and `j` lie on a common root-to-leaf path —
    /// exactly the condition for `M[i][j]` of the mass matrix to be
    /// structurally nonzero (paper Sec. 3.2).
    pub fn supports(&self, i: usize, j: usize) -> bool {
        i == j || self.is_ancestor(i, j) || self.is_ancestor(j, i)
    }

    /// Decomposes the tree into *limbs*: maximal unbranched runs of links.
    /// A limb starts at a branch root, at a child of a branching link, and
    /// continues until a leaf or the next branching link (inclusive).
    /// Returned in topological order of their first link.
    pub fn limbs(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut starts: Vec<usize> = self.roots();
        for b in self.branch_links() {
            starts.extend(self.children(b).iter().copied());
        }
        starts.sort_unstable();
        starts.dedup();
        for s in starts {
            let mut limb = vec![s];
            let mut cur = s;
            while self.children[cur].len() == 1 {
                cur = self.children[cur][0];
                limb.push(cur);
            }
            out.push(limb);
        }
        out
    }

    /// The lowest common ancestor of `a` and `b`, or `None` when they lie
    /// on different branch roots (their limbs are fully independent — the
    /// condition behind the mass matrix's structural zeros).
    pub fn lowest_common_ancestor(&self, a: usize, b: usize) -> Option<usize> {
        let mut seen = vec![false; self.len()];
        let mut cur = Some(a);
        while let Some(x) = cur {
            seen[x] = true;
            cur = self.parents[x];
        }
        let mut cur = Some(b);
        while let Some(x) = cur {
            if seen[x] {
                return Some(x);
            }
            cur = self.parents[x];
        }
        None
    }

    /// The unique path of links from `a` to `b` through their lowest
    /// common ancestor (inclusive on both ends), or `None` when the links
    /// are on independent limbs.
    pub fn path_between(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        let lca = self.lowest_common_ancestor(a, b)?;
        let mut up = vec![a];
        let mut cur = a;
        while cur != lca {
            cur = self.parents[cur].expect("lca is an ancestor");
            up.push(cur);
        }
        let mut down = Vec::new();
        let mut cur = b;
        while cur != lca {
            down.push(cur);
            cur = self.parents[cur].expect("lca is an ancestor");
        }
        up.extend(down.into_iter().rev());
        Some(up)
    }

    /// Links in order of decreasing index — the canonical backward-pass
    /// iteration (children before parents).
    pub fn reverse_order(&self) -> impl Iterator<Item = usize> {
        (0..self.len()).rev()
    }

    /// Per-depth link counts: entry `d` is the number of links at depth
    /// `d + 1`. The maximum entry bounds forward-traversal parallelism.
    pub fn width_profile(&self) -> Vec<usize> {
        let max_d = self.depth.iter().copied().max().unwrap_or(0);
        let mut w = vec![0usize; max_d];
        for &d in &self.depth {
            w[d - 1] += 1;
        }
        w
    }

    /// An ASCII rendering of the tree, one link per line, used by the
    /// experiment binaries.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for i in 0..self.len() {
            for _ in 1..self.depth(i) {
                out.push_str("  ");
            }
            out.push_str(&format!("link {i}"));
            if self.children[i].len() > 1 {
                out.push_str(" (branch)");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn baxter_like() -> Topology {
        // head (0); arm A (1..=7); arm B (8..=14)
        let mut parents = vec![None, None];
        for i in 2..8 {
            parents.push(Some(i - 1));
        }
        parents.push(None);
        for i in 9..15 {
            parents.push(Some(i - 1));
        }
        Topology::new(parents).unwrap()
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Topology::new(vec![]), Err(TopologyError::Empty));
    }

    #[test]
    fn bad_parent_rejected() {
        assert_eq!(
            Topology::new(vec![None, Some(1)]),
            Err(TopologyError::BadParent { link: 1, parent: 1 })
        );
        assert_eq!(
            Topology::new(vec![None, Some(5)]),
            Err(TopologyError::BadParent { link: 1, parent: 5 })
        );
    }

    #[test]
    fn error_messages() {
        assert_eq!(TopologyError::Empty.to_string(), "topology has no links");
        assert!(TopologyError::BadParent { link: 2, parent: 3 }
            .to_string()
            .contains("link 2"));
    }

    #[test]
    fn chain_structure() {
        let t = Topology::chain(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.roots(), vec![0]);
        assert_eq!(t.leaves(), vec![4]);
        assert_eq!(t.depth(0), 1);
        assert_eq!(t.depth(4), 5);
        assert_eq!(t.descendants(0), 5);
        assert_eq!(t.descendants(4), 1);
        assert!(t.branch_links().is_empty());
        assert_eq!(t.limbs(), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn baxter_structure() {
        let t = baxter_like();
        assert_eq!(t.len(), 15);
        assert_eq!(t.roots(), vec![0, 1, 8]);
        assert_eq!(t.leaves(), vec![0, 7, 14]);
        assert_eq!(t.descendants(1), 7);
        assert_eq!(t.descendants(8), 7);
        assert_eq!(t.limbs().len(), 3);
        assert_eq!(t.width_profile(), vec![3, 2, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn branching_tree_with_internal_branch() {
        // 0 -> 1 -> {2, 3 -> 4}
        let t = Topology::new(vec![None, Some(0), Some(1), Some(1), Some(3)]).unwrap();
        assert_eq!(t.branch_links(), vec![1]);
        assert_eq!(t.limbs(), vec![vec![0, 1], vec![2], vec![3, 4]]);
        assert!(t.is_ancestor(0, 4));
        assert!(!t.is_ancestor(2, 4));
        assert!(t.supports(1, 4));
        assert!(!t.supports(2, 4));
        assert_eq!(t.ancestors(4), vec![3, 1, 0]);
    }

    #[test]
    fn lca_and_paths() {
        // 0 -> 1 -> {2, 3 -> 4}; separate root 5.
        let t = Topology::new(vec![None, Some(0), Some(1), Some(1), Some(3), None]).unwrap();
        assert_eq!(t.lowest_common_ancestor(2, 4), Some(1));
        assert_eq!(t.lowest_common_ancestor(4, 2), Some(1));
        assert_eq!(t.lowest_common_ancestor(0, 4), Some(0));
        assert_eq!(t.lowest_common_ancestor(3, 3), Some(3));
        assert_eq!(t.lowest_common_ancestor(2, 5), None);
        assert_eq!(t.path_between(2, 4), Some(vec![2, 1, 3, 4]));
        assert_eq!(t.path_between(0, 4), Some(vec![0, 1, 3, 4]));
        assert_eq!(t.path_between(4, 4), Some(vec![4]));
        assert_eq!(t.path_between(2, 5), None);
    }

    #[test]
    fn render_shows_every_link() {
        let t = baxter_like();
        assert_eq!(t.render().lines().count(), 15);
    }

    /// Arbitrary tree over up to `max` links: each link picks a parent among
    /// smaller indices or the base.
    pub(crate) fn arb_topology(max: usize) -> impl Strategy<Value = Topology> {
        (1..=max).prop_flat_map(|n| {
            let choices: Vec<_> = (0..n).map(|i| 0..=(i)).collect();
            choices.prop_map(move |picks| {
                let parents = picks
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| if p == i || i == 0 { None } else { Some(p) })
                    .collect();
                Topology::new(parents).unwrap()
            })
        })
    }

    proptest! {
        #[test]
        fn depths_consistent_with_parents(t in arb_topology(20)) {
            for i in 0..t.len() {
                match t.parent(i) {
                    None => prop_assert_eq!(t.depth(i), 1),
                    Some(p) => prop_assert_eq!(t.depth(i), t.depth(p) + 1),
                }
            }
        }

        #[test]
        fn subtree_sizes_sum(t in arb_topology(20)) {
            let total: usize = t.roots().iter().map(|&r| t.descendants(r)).sum();
            prop_assert_eq!(total, t.len());
        }

        #[test]
        fn limbs_partition_links(t in arb_topology(20)) {
            let mut seen = vec![false; t.len()];
            for limb in t.limbs() {
                for l in limb {
                    prop_assert!(!seen[l], "link appears in two limbs");
                    seen[l] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        #[test]
        fn supports_is_symmetric_and_reflexive(t in arb_topology(15)) {
            for i in 0..t.len() {
                prop_assert!(t.supports(i, i));
                for j in 0..t.len() {
                    prop_assert_eq!(t.supports(i, j), t.supports(j, i));
                }
            }
        }

        #[test]
        fn ancestors_have_decreasing_depth(t in arb_topology(20)) {
            for i in 0..t.len() {
                let anc = t.ancestors(i);
                prop_assert_eq!(anc.len(), t.depth(i) - 1);
                for (k, &a) in anc.iter().enumerate() {
                    prop_assert_eq!(t.depth(a), t.depth(i) - 1 - k);
                    prop_assert!(t.is_ancestor(a, i));
                }
            }
        }

        #[test]
        fn width_profile_sums_to_len(t in arb_topology(20)) {
            let sum: usize = t.width_profile().iter().sum();
            prop_assert_eq!(sum, t.len());
        }

        /// LCA exists exactly when the links support each other through a
        /// common path root, and the path passes through it.
        #[test]
        fn lca_consistent_with_supports(t in arb_topology(16)) {
            for a in 0..t.len() {
                for b in 0..t.len() {
                    let lca = t.lowest_common_ancestor(a, b);
                    match t.path_between(a, b) {
                        Some(path) => {
                            let l = lca.expect("path implies lca");
                            prop_assert!(path.contains(&l));
                            prop_assert_eq!(*path.first().unwrap(), a);
                            prop_assert_eq!(*path.last().unwrap(), b);
                            // Every path node supports both endpoints.
                            for &p in &path {
                                prop_assert!(t.supports(p, a) || t.supports(p, b));
                            }
                        }
                        None => prop_assert!(lca.is_none()),
                    }
                    // supports(a, b) ⇒ lca is one of a or b.
                    if t.supports(a, b) {
                        let l = lca.unwrap();
                        prop_assert!(l == a || l == b);
                    }
                }
            }
        }
    }
}
