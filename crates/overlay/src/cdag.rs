//! Complete-DAG (C-DAG) overlays.
//!
//! FlexCast assumes a total order (rank) on groups: the C-DAG has a directed
//! edge from every group to every higher-ranked group (§4.1). The protocol
//! engine works directly in *rank space* (`GroupId(r)` = the group with rank
//! `r`), so a C-DAG overlay is fully described by the assignment of physical
//! nodes to ranks — a permutation captured by [`CDagOrder`].

use crate::LatencyMatrix;
use flexcast_types::{DestSet, Error, GroupId, Result};

/// A rank assignment defining a C-DAG overlay over physical nodes.
///
/// `node_at(rank)` gives the physical node occupying a rank; `rank_of(node)`
/// is its inverse. The paper's overlays O1 and O2 (§5.4, Figure 4) are built
/// with [`CDagOrder::nearest_neighbor_chain`]: pick a seed node, then
/// repeatedly append the node closest to the previously chosen one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CDagOrder {
    node_at: Vec<GroupId>,
    rank_of: Vec<u16>,
}

impl CDagOrder {
    /// Builds an order from an explicit rank→node list.
    ///
    /// `order[r]` is the physical node holding rank `r`. The list must be a
    /// permutation of `0..order.len()`.
    pub fn from_order(order: Vec<GroupId>) -> Result<Self> {
        let n = order.len();
        let mut rank_of = vec![u16::MAX; n];
        for (rank, node) in order.iter().enumerate() {
            if node.index() >= n {
                return Err(Error::InvalidOverlay(format!(
                    "node {node} out of range for {n} nodes"
                )));
            }
            if rank_of[node.index()] != u16::MAX {
                return Err(Error::InvalidOverlay(format!("node {node} appears twice")));
            }
            rank_of[node.index()] = rank as u16;
        }
        Ok(CDagOrder {
            node_at: order,
            rank_of,
        })
    }

    /// The identity order: node `i` holds rank `i`.
    pub fn identity(n: usize) -> Self {
        CDagOrder {
            node_at: (0..n as u16).map(GroupId).collect(),
            rank_of: (0..n as u16).collect(),
        }
    }

    /// Greedy nearest-neighbour chain: rank 0 is `seed`; each subsequent
    /// rank goes to the unranked node closest to the node ranked just
    /// before it (ties by node id). This is the construction the paper uses
    /// for overlays O1 (seed = central node) and O2 (seed = left-most node).
    pub fn nearest_neighbor_chain(matrix: &LatencyMatrix, seed: GroupId) -> Self {
        let n = matrix.len();
        assert!(seed.index() < n, "seed out of range");
        let mut chosen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        let mut current = seed;
        chosen[current.index()] = true;
        order.push(current);
        while order.len() < n {
            let next = matrix
                .nearest_order(current)
                .into_iter()
                .find(|g| !chosen[g.index()])
                .expect("some node remains unranked");
            chosen[next.index()] = true;
            order.push(next);
            current = next;
        }
        CDagOrder::from_order(order).expect("greedy construction yields a permutation")
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.node_at.len()
    }

    /// True if the overlay has no groups.
    pub fn is_empty(&self) -> bool {
        self.node_at.is_empty()
    }

    /// Physical node occupying `rank`.
    pub fn node_at(&self, rank: GroupId) -> GroupId {
        self.node_at[rank.index()]
    }

    /// Rank held by physical node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the overlay; [`CDagOrder::try_rank_of`]
    /// is the checked form for ids that arrive from outside.
    pub fn rank_of(&self, node: GroupId) -> GroupId {
        GroupId(self.rank_of[node.index()])
    }

    /// Rank held by physical node `node`, or `None` if the overlay has no
    /// such node.
    pub fn try_rank_of(&self, node: GroupId) -> Option<GroupId> {
        self.rank_of.get(node.index()).map(|&r| GroupId(r))
    }

    /// Rank→node list (the Figure 4 reading order of the overlay).
    pub fn order(&self) -> &[GroupId] {
        &self.node_at
    }

    /// Translates a destination set from node space into rank space.
    pub fn to_ranks(&self, nodes: DestSet) -> DestSet {
        nodes.iter().map(|n| self.rank_of(n)).collect()
    }

    /// [`CDagOrder::to_ranks`], or `None` if any node in `nodes` is not in
    /// the overlay.
    pub fn try_to_ranks(&self, nodes: DestSet) -> Option<DestSet> {
        nodes.iter().map(|n| self.try_rank_of(n)).collect()
    }

    /// Translates a destination set from rank space back into node space.
    pub fn to_nodes(&self, ranks: DestSet) -> DestSet {
        ranks.iter().map(|r| self.node_at(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line4() -> LatencyMatrix {
        // Nodes on a line: 0 —10— 1 —10— 2 —10— 3 (distances additive).
        let mut m = LatencyMatrix::zero(4);
        for a in 0..4usize {
            for b in (a + 1)..4usize {
                m.set_rtt(a, b, 10.0 * (b - a) as f64);
            }
        }
        m
    }

    #[test]
    fn identity_maps_ranks_to_nodes() {
        let o = CDagOrder::identity(4);
        for i in 0..4u16 {
            assert_eq!(o.node_at(GroupId(i)), GroupId(i));
            assert_eq!(o.rank_of(GroupId(i)), GroupId(i));
        }
    }

    #[test]
    fn from_order_validates_permutation() {
        assert!(CDagOrder::from_order(vec![GroupId(0), GroupId(0)]).is_err());
        assert!(CDagOrder::from_order(vec![GroupId(0), GroupId(5)]).is_err());
        let o = CDagOrder::from_order(vec![GroupId(2), GroupId(0), GroupId(1)]).unwrap();
        assert_eq!(o.node_at(GroupId(0)), GroupId(2));
        assert_eq!(o.rank_of(GroupId(2)), GroupId(0));
        assert_eq!(o.rank_of(GroupId(1)), GroupId(2));
    }

    #[test]
    fn chain_from_end_walks_the_line() {
        let o = CDagOrder::nearest_neighbor_chain(&line4(), GroupId(0));
        assert_eq!(o.order(), &[GroupId(0), GroupId(1), GroupId(2), GroupId(3)]);
    }

    #[test]
    fn chain_from_middle_spirals_outward() {
        let o = CDagOrder::nearest_neighbor_chain(&line4(), GroupId(1));
        // From 1 the closest is 0 or 2 (tie → node id 0), then from 0 the
        // closest unranked is 2, then 3.
        assert_eq!(o.order(), &[GroupId(1), GroupId(0), GroupId(2), GroupId(3)]);
    }

    #[test]
    fn rank_translation_roundtrips() {
        let o = CDagOrder::from_order(vec![GroupId(2), GroupId(0), GroupId(1)]).unwrap();
        let nodes = DestSet::from_iter([GroupId(0), GroupId(2)]);
        let ranks = o.to_ranks(nodes);
        assert_eq!(ranks, DestSet::from_iter([GroupId(1), GroupId(0)]));
        assert_eq!(o.to_nodes(ranks), nodes);
        assert_eq!(o.try_to_ranks(nodes), Some(ranks));
    }

    #[test]
    fn checked_translation_refuses_nodes_outside_the_overlay() {
        let o = CDagOrder::from_order(vec![GroupId(2), GroupId(0), GroupId(1)]).unwrap();
        assert_eq!(o.try_rank_of(GroupId(2)), Some(GroupId(0)));
        assert_eq!(o.try_rank_of(GroupId(3)), None);
        assert_eq!(o.try_rank_of(GroupId(511)), None);
        assert_eq!(
            o.try_to_ranks(DestSet::from_iter([GroupId(0), GroupId(3)])),
            None
        );
        assert_eq!(o.try_to_ranks(DestSet::EMPTY), Some(DestSet::EMPTY));
    }

    proptest! {
        #[test]
        fn prop_chain_is_a_permutation(seed in 0u16..8, n in 2usize..9) {
            prop_assume!((seed as usize) < n);
            let mut m = LatencyMatrix::zero(n);
            // Arbitrary but deterministic distances.
            for a in 0..n { for b in (a+1)..n {
                m.set_rtt(a, b, ((a * 7 + b * 13) % 50 + 1) as f64);
            }}
            let o = CDagOrder::nearest_neighbor_chain(&m, GroupId(seed));
            let mut seen: Vec<usize> = o.order().iter().map(|g| g.index()).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
            prop_assert_eq!(o.node_at(GroupId(0)), GroupId(seed));
        }

        #[test]
        fn prop_rank_of_inverts_node_at(order in Just(vec![3u16,1,0,2])) {
            let o = CDagOrder::from_order(order.into_iter().map(GroupId).collect()).unwrap();
            for r in 0..4u16 {
                prop_assert_eq!(o.rank_of(o.node_at(GroupId(r))), GroupId(r));
            }
        }
    }
}
