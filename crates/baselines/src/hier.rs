//! ByzCast-style hierarchical (non-genuine) atomic multicast.
//!
//! Groups communicate over a tree overlay. A multicast message is first
//! sent to the tree lowest-common-ancestor of its destinations — possibly
//! a group that is *not* a destination — and then flows down the tree,
//! ordered by every group it visits; lower groups preserve the order
//! induced by higher groups (the key invariant, maintained here by FIFO
//! links plus forwarding in delivery order). The protocol is simple but
//! not genuine: groups relay messages they do not deliver, which is the
//! communication overhead measured in Figures 1 and 9 of the paper.
//!
//! With single-process groups (the paper's evaluation setup) intra-group
//! ordering is trivially the arrival order; ByzCast's BFT machinery adds
//! nothing in that configuration (§5.1), so this engine matches what the
//! paper actually measured.
//!
//! The engine owns its intake rules and returns a verdict per input, as
//! FlexCast's does. It takes a client's copy only when every destination
//! is a node of the tree and this group is their tree lca, and a packet
//! only from its tree parent, when every destination is a node of the tree
//! and one of them lies in this group's subtree; either way, once per
//! multicast. Anything else is refused and changes nothing.

use flexcast_overlay::Tree;
use flexcast_types::{ClientId, DestSet, GroupId, Message, Output};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The only packet kind: the application message being routed down the
/// tree. (Ordering state is implicit in FIFO links and visit order.)
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct HierPacket(pub Message);

/// One group (single process) of the hierarchical protocol.
#[derive(Clone, Debug)]
pub struct HierGroup {
    g: GroupId,
    tree: Tree,
    /// Every node of the tree.
    nodes: DestSet,
    /// Each client's highest sequence number this group has taken. A
    /// closed-loop client's multicasts reach each group on their paths in
    /// sequence order, so one at or below it is one taken already.
    taken: BTreeMap<ClientId, u32>,
}

impl HierGroup {
    /// Creates the engine for group `g` over `tree`.
    pub fn new(g: GroupId, tree: Tree) -> Self {
        assert!(g.index() < tree.len(), "group outside the tree");
        HierGroup {
            g,
            nodes: DestSet::all(tree.len()),
            tree,
            taken: BTreeMap::new(),
        }
    }

    /// Where a client must send `m`: the tree lowest-common-ancestor of
    /// the destinations. Not necessarily a destination — that is exactly
    /// the protocol's non-genuineness.
    ///
    /// # Panics
    ///
    /// Panics if a destination is not a node of `tree`.
    pub fn entry_point(tree: &Tree, m: &Message) -> GroupId {
        tree.lca(m.dst)
    }

    /// Takes a client's copy of `m`. False if it is refused: a destination
    /// that is no node of the tree, another group as their tree lca, or a
    /// multicast this group took already.
    pub fn on_client(&mut self, m: Message, out: &mut Vec<Output<HierPacket>>) -> bool {
        m.dst.is_subset(self.nodes)
            && Self::entry_point(&self.tree, &m) == self.g
            && self.take(m, out)
    }

    /// Takes a packet from group `from`. False if it is refused: a sender
    /// other than this group's tree parent, a destination that is no node
    /// of the tree, none in this group's subtree, or a multicast this
    /// group took already.
    pub fn on_packet(
        &mut self,
        from: GroupId,
        HierPacket(m): HierPacket,
        out: &mut Vec<Output<HierPacket>>,
    ) -> bool {
        let below = |d| self.tree.is_ancestor_or_self(self.g, d);
        self.tree.parent(self.g) == Some(from)
            && m.dst.is_subset(self.nodes)
            && m.dst.iter().any(below)
            && self.take(m, out)
    }

    /// Orders `m` here unless this group took it already: delivers it if
    /// addressed here, then forwards it down every child subtree
    /// containing destinations.
    fn take(&mut self, m: Message, out: &mut Vec<Output<HierPacket>>) -> bool {
        let id = m.id;
        if self.taken.get(&id.sender).is_some_and(|&seq| id.seq <= seq) {
            return false;
        }
        self.taken.insert(id.sender, id.seq);
        if m.dst.contains(self.g) {
            out.push(Output::Deliver(m.clone()));
        }
        for (to, _) in self.tree.route_down(self.g, m.dst) {
            out.push(Output::Send {
                to,
                pkt: HierPacket(m.clone()),
            });
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::tree::parents_of;
    use flexcast_types::{ClientId, DestSet, MsgId, Payload};

    /// Tree:        0
    ///             / \
    ///            1   2
    ///           / \   \
    ///          3   4   5
    fn tree() -> Tree {
        Tree::from_parents(parents_of(6, 0, &[(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)])).unwrap()
    }

    fn msg(seq: u32, ranks: &[u16]) -> Message {
        Message::new(
            MsgId::new(ClientId(3), seq),
            DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
            Payload::empty(),
        )
        .unwrap()
    }

    fn deliveries(out: &[Output<HierPacket>]) -> Vec<MsgId> {
        out.iter()
            .filter_map(|o| match o {
                Output::Deliver(m) => Some(m.id),
                _ => None,
            })
            .collect()
    }

    fn sends(out: &[Output<HierPacket>]) -> Vec<GroupId> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send { to, .. } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn entry_point_is_tree_lca() {
        let t = tree();
        assert_eq!(HierGroup::entry_point(&t, &msg(0, &[3, 4])), GroupId(1));
        assert_eq!(HierGroup::entry_point(&t, &msg(0, &[3, 5])), GroupId(0));
        assert_eq!(HierGroup::entry_point(&t, &msg(0, &[5])), GroupId(5));
    }

    #[test]
    fn destination_delivers_and_routes_down() {
        let mut g1 = HierGroup::new(GroupId(1), tree());
        let m = msg(0, &[1, 3, 4]);
        let mut out = Vec::new();
        g1.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert_eq!(sends(&out), vec![GroupId(3), GroupId(4)]);
    }

    #[test]
    fn non_destination_relays_without_delivering() {
        // The non-genuine case: lca(3,5) = 0 which is not a destination.
        let mut root = HierGroup::new(GroupId(0), tree());
        let m = msg(0, &[3, 5]);
        let mut out = Vec::new();
        root.on_client(m.clone(), &mut out);
        assert!(deliveries(&out).is_empty(), "pure overhead at the root");
        assert_eq!(sends(&out), vec![GroupId(1), GroupId(2)]);
    }

    #[test]
    fn full_relay_reaches_all_destinations() {
        let t = tree();
        let mut engines: Vec<HierGroup> = (0..6u16)
            .map(|g| HierGroup::new(GroupId(g), t.clone()))
            .collect();
        let m = msg(0, &[3, 4, 5]);
        let entry = HierGroup::entry_point(&t, &m);
        assert_eq!(entry, GroupId(0));
        // Drive the cascade by hand: the entry takes the client's copy,
        // and each group takes the packets its parent forwards.
        let mut out = Vec::new();
        assert!(engines[entry.index()].on_client(m.clone(), &mut out));
        let mut frontier: Vec<_> = out.into_iter().map(|o| (entry, o)).collect();
        let (mut delivered_at, mut relayed) = (Vec::new(), Vec::new());
        while let Some((g, o)) = frontier.pop() {
            match o {
                Output::Deliver(d) => delivered_at.push((g, d.id)),
                Output::Send { to, pkt } => {
                    relayed.push((g.rank(), to.rank()));
                    let mut out = Vec::new();
                    assert!(engines[to.index()].on_packet(g, pkt, &mut out));
                    frontier.extend(out.into_iter().map(|o| (to, o)));
                }
            }
        }
        let mut groups: Vec<u16> = delivered_at.iter().map(|(g, _)| g.rank()).collect();
        groups.sort_unstable();
        assert_eq!(groups, vec![3, 4, 5]);
        // Overhead: 1 and 2 took the message from the root, and relayed it
        // without delivering.
        relayed.sort_unstable();
        assert_eq!(relayed, vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
    }

    #[test]
    fn single_destination_at_entry_point_has_no_sends() {
        let mut g5 = HierGroup::new(GroupId(5), tree());
        let m = msg(0, &[5]);
        let mut out = Vec::new();
        g5.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert!(sends(&out).is_empty());
    }

    /// A group takes a client's copy only as the tree lca of destinations
    /// inside the tree, and a packet only from its parent, naming nodes
    /// of the tree of which one lies in its subtree. A refused input
    /// changes nothing: nothing is received, delivered or sent.
    #[test]
    fn inputs_the_engine_cannot_order_are_refused() {
        let mut g1 = HierGroup::new(GroupId(1), tree());
        let pkt = |ranks: &[u16]| HierPacket(msg(0, ranks));
        let mut out = Vec::new();
        let refused = [
            g1.on_client(msg(0, &[3, 5]), &mut out),
            g1.on_client(msg(0, &[3, 6]), &mut out),
            g1.on_packet(GroupId(2), pkt(&[1]), &mut out),
            g1.on_packet(GroupId(3), pkt(&[1]), &mut out),
            g1.on_packet(GroupId(0), pkt(&[1, 6]), &mut out),
            g1.on_packet(GroupId(0), pkt(&[2, 5]), &mut out),
        ];
        assert_eq!(refused, [false; 6]);
        assert!(out.is_empty());
        assert!(g1.on_packet(GroupId(0), pkt(&[1, 5]), &mut out));
        assert_eq!(deliveries(&out), vec![msg(0, &[1]).id]);
        // Once per multicast, whether the copy comes again from the parent
        // or from a client.
        out.clear();
        assert!(!g1.on_packet(GroupId(0), pkt(&[1, 5]), &mut out));
        assert!(!g1.on_client(msg(0, &[1, 3]), &mut out));
        assert!(out.is_empty());
    }
}
