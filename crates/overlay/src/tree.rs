//! Tree overlays for hierarchical atomic multicast (ByzCast-style).
//!
//! A tree is the minimum connectivity that still supports arbitrary
//! multicast workloads (§3, Figure 2b). The hierarchical baseline routes a
//! message to the *tree lowest common ancestor* of its destinations and
//! propagates it down the tree, ordering at every visited group — including
//! groups that are not destinations, which is exactly the non-genuineness
//! the paper quantifies as communication overhead (Figures 1 and 9).

use flexcast_types::{DestSet, Error, GroupId, Result};

/// A rooted tree over nodes `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    parent: Vec<Option<GroupId>>,
    children: Vec<Vec<GroupId>>,
    depth: Vec<u16>,
    root: GroupId,
}

impl Tree {
    /// Builds a tree from a parent table: `parents[i]` is the parent of
    /// node `i`, or `None` for the root. Exactly one root must exist, every
    /// parent edge must stay in range, and the structure must be connected
    /// and acyclic.
    pub fn from_parents(parents: Vec<Option<GroupId>>) -> Result<Self> {
        let n = parents.len();
        if n == 0 {
            return Err(Error::InvalidOverlay("empty tree".into()));
        }
        let mut root = None;
        for (i, p) in parents.iter().enumerate() {
            match p {
                None => {
                    if root.replace(GroupId(i as u16)).is_some() {
                        return Err(Error::InvalidOverlay("multiple roots".into()));
                    }
                }
                Some(p) => {
                    if p.index() >= n {
                        return Err(Error::InvalidOverlay(format!(
                            "parent {p} of node g{i} out of range"
                        )));
                    }
                    if p.index() == i {
                        return Err(Error::InvalidOverlay(format!(
                            "node g{i} is its own parent"
                        )));
                    }
                }
            }
        }
        let root = root.ok_or_else(|| Error::InvalidOverlay("no root".into()))?;

        let mut children = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(GroupId(i as u16));
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }

        // Depth computation doubles as the cycle/connectivity check: a BFS
        // from the root must reach every node.
        let mut depth = vec![u16::MAX; n];
        let mut queue = std::collections::VecDeque::from([root]);
        depth[root.index()] = 0;
        while let Some(v) = queue.pop_front() {
            for &c in &children[v.index()] {
                if depth[c.index()] != u16::MAX {
                    return Err(Error::InvalidOverlay(format!("node {c} reached twice")));
                }
                depth[c.index()] = depth[v.index()] + 1;
                queue.push_back(c);
            }
        }
        if depth.contains(&u16::MAX) {
            return Err(Error::InvalidOverlay(
                "tree is disconnected (cycle or unreachable node)".into(),
            ));
        }

        Ok(Tree {
            parent: parents,
            children,
            depth,
            root,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the tree is empty (never true for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root group.
    pub fn root(&self) -> GroupId {
        self.root
    }

    /// Parent of `g`, or `None` for the root.
    pub fn parent(&self, g: GroupId) -> Option<GroupId> {
        self.parent[g.index()]
    }

    /// Children of `g`, sorted by id.
    pub fn children(&self, g: GroupId) -> &[GroupId] {
        &self.children[g.index()]
    }

    /// Depth of `g` (root = 0).
    pub fn depth(&self, g: GroupId) -> u16 {
        self.depth[g.index()]
    }

    /// True if `g` is an inner (non-leaf) node. The paper relates the
    /// number of inner nodes to overhead distribution (§5.4).
    pub fn is_inner(&self, g: GroupId) -> bool {
        !self.children[g.index()].is_empty()
    }

    /// Inner nodes of the tree.
    pub fn inner_nodes(&self) -> Vec<GroupId> {
        (0..self.len() as u16)
            .map(GroupId)
            .filter(|&g| self.is_inner(g))
            .collect()
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca2(&self, mut a: GroupId, mut b: GroupId) -> GroupId {
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("non-root has a parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("non-root has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root has a parent");
            b = self.parent(b).expect("non-root has a parent");
        }
        a
    }

    /// Lowest common ancestor of a destination set — where a hierarchical
    /// protocol injects a multicast message. For a singleton set this is
    /// the destination itself.
    ///
    /// # Panics
    ///
    /// Panics on an empty set, or if a member is not a node of the tree.
    pub fn lca(&self, dst: DestSet) -> GroupId {
        let mut it = dst.iter();
        let first = it.next().expect("lca of an empty destination set");
        it.fold(first, |acc, g| self.lca2(acc, g))
    }

    /// True if `anc` is an ancestor of `g` (or equal to it).
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a node of the tree.
    pub fn is_ancestor_or_self(&self, anc: GroupId, mut g: GroupId) -> bool {
        loop {
            if g == anc {
                return true;
            }
            match self.parent(g) {
                Some(p) => g = p,
                None => return false,
            }
        }
    }

    /// The child of `from` on the path toward `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a node of the tree, or not a strict
    /// descendant of `from`.
    pub fn child_toward(&self, from: GroupId, to: GroupId) -> GroupId {
        assert!(
            from != to && self.is_ancestor_or_self(from, to),
            "{to} is not a strict descendant of {from}"
        );
        let mut cur = to;
        loop {
            let p = self.parent(cur).expect("descendant has a parent chain");
            if p == from {
                return cur;
            }
            cur = p;
        }
    }

    /// Splits destinations by the subtree they fall in below `g`: for each
    /// child subtree of `g` containing destinations, returns the child and
    /// the destinations inside it.
    ///
    /// # Panics
    ///
    /// Panics if `g` or a member of `dst` is not a node of the tree.
    pub fn route_down(&self, g: GroupId, dst: DestSet) -> Vec<(GroupId, DestSet)> {
        let mut out: Vec<(GroupId, DestSet)> = Vec::new();
        for d in dst.iter() {
            if d == g || !self.is_ancestor_or_self(g, d) {
                continue;
            }
            let c = self.child_toward(g, d);
            match out.iter_mut().find(|(cc, _)| *cc == c) {
                Some((_, set)) => set.insert(d),
                None => {
                    let mut set = DestSet::new();
                    set.insert(d);
                    out.push((c, set));
                }
            }
        }
        out
    }
}

/// Builds a parent table from `(child, parent)` pairs plus a root.
pub fn parents_of(n: usize, root: u16, edges: &[(u16, u16)]) -> Vec<Option<GroupId>> {
    let mut parents = vec![None; n];
    for &(child, parent) in edges {
        parents[child as usize] = Some(GroupId(parent));
    }
    assert!(parents[root as usize].is_none(), "root must have no parent");
    parents
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small tree:         0
    ///                      /  \
    ///                     1    2
    ///                    / \    \
    ///                   3   4    5
    fn t() -> Tree {
        Tree::from_parents(parents_of(6, 0, &[(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)])).unwrap()
    }

    fn ds(ranks: &[u16]) -> DestSet {
        DestSet::try_from_ranks(ranks.iter().copied()).unwrap()
    }

    #[test]
    fn structure_accessors() {
        let t = t();
        assert_eq!(t.root(), GroupId(0));
        assert_eq!(t.parent(GroupId(3)), Some(GroupId(1)));
        assert_eq!(t.parent(GroupId(0)), None);
        assert_eq!(t.children(GroupId(1)), &[GroupId(3), GroupId(4)]);
        assert_eq!(t.depth(GroupId(0)), 0);
        assert_eq!(t.depth(GroupId(5)), 2);
        assert!(t.is_inner(GroupId(1)));
        assert!(!t.is_inner(GroupId(3)));
        assert_eq!(t.inner_nodes(), vec![GroupId(0), GroupId(1), GroupId(2)]);
    }

    #[test]
    fn lca_pairs() {
        let t = t();
        assert_eq!(t.lca2(GroupId(3), GroupId(4)), GroupId(1));
        assert_eq!(t.lca2(GroupId(3), GroupId(5)), GroupId(0));
        assert_eq!(t.lca2(GroupId(1), GroupId(3)), GroupId(1));
        assert_eq!(t.lca2(GroupId(2), GroupId(2)), GroupId(2));
    }

    #[test]
    fn lca_sets() {
        let t = t();
        assert_eq!(t.lca(ds(&[3, 4])), GroupId(1));
        assert_eq!(t.lca(ds(&[3, 4, 5])), GroupId(0));
        assert_eq!(t.lca(ds(&[5])), GroupId(5));
        // Non-genuineness in action: lca of {3,5} is 0, not a destination.
        let l = t.lca(ds(&[3, 5]));
        assert!(!ds(&[3, 5]).contains(l));
    }

    #[test]
    fn routing_down_splits_by_subtree() {
        let t = t();
        let routes = t.route_down(GroupId(0), ds(&[3, 4, 5]));
        assert_eq!(
            routes,
            vec![(GroupId(1), ds(&[3, 4])), (GroupId(2), ds(&[5]))]
        );
        let routes = t.route_down(GroupId(1), ds(&[1, 3]));
        assert_eq!(routes, vec![(GroupId(3), ds(&[3]))]);
        assert!(t.route_down(GroupId(3), ds(&[3])).is_empty());
    }

    #[test]
    fn child_toward_descends_correctly() {
        let t = t();
        assert_eq!(t.child_toward(GroupId(0), GroupId(4)), GroupId(1));
        assert_eq!(t.child_toward(GroupId(1), GroupId(4)), GroupId(4));
    }

    #[test]
    fn ancestor_checks() {
        let t = t();
        assert!(t.is_ancestor_or_self(GroupId(0), GroupId(5)));
        assert!(t.is_ancestor_or_self(GroupId(2), GroupId(2)));
        assert!(!t.is_ancestor_or_self(GroupId(1), GroupId(5)));
    }

    #[test]
    fn invalid_trees_rejected() {
        // Two roots.
        assert!(Tree::from_parents(vec![None, None]).is_err());
        // No root.
        assert!(Tree::from_parents(vec![Some(GroupId(1)), Some(GroupId(0))]).is_err());
        // Self-parent.
        assert!(Tree::from_parents(vec![None, Some(GroupId(1))]).is_err());
        // Cycle off the root: 1→2→1 with root 0.
        assert!(Tree::from_parents(vec![None, Some(GroupId(2)), Some(GroupId(1))]).is_err());
        // Out-of-range parent.
        assert!(Tree::from_parents(vec![None, Some(GroupId(9))]).is_err());
        // Empty.
        assert!(Tree::from_parents(vec![]).is_err());
    }
}
