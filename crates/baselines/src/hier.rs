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

use flexcast_overlay::Tree;
use flexcast_types::{GroupId, Message};
use serde::{Deserialize, Serialize};

/// The only packet kind: the application message being routed down the
/// tree. (Ordering state is implicit in FIFO links and visit order.)
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct HierPacket(pub Message);

/// An action produced by the hierarchical engine.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Forward the message toward a child subtree.
    Send {
        /// The child group to forward to.
        to: GroupId,
        /// The forwarded message.
        pkt: HierPacket,
    },
    /// Deliver the message to the application.
    Deliver(Message),
}

/// One group (single process) of the hierarchical protocol.
#[derive(Clone, Debug)]
pub struct HierGroup {
    g: GroupId,
    tree: Tree,
    delivered_count: u64,
    received_payloads: u64,
}

impl HierGroup {
    /// Creates the engine for group `g` over `tree`.
    pub fn new(g: GroupId, tree: Tree) -> Self {
        assert!(g.index() < tree.len(), "group outside the tree");
        HierGroup {
            g,
            tree,
            delivered_count: 0,
            received_payloads: 0,
        }
    }

    /// This group's id.
    pub fn id(&self) -> GroupId {
        self.g
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Number of payload messages received (from clients or the tree);
    /// `1 - delivered/received` is the paper's overhead metric (§5.8).
    pub fn received_payloads(&self) -> u64 {
        self.received_payloads
    }

    /// The tree this group routes over.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Where a client must send `m`: the tree lowest-common-ancestor of
    /// the destinations. Not necessarily a destination — that is exactly
    /// the protocol's non-genuineness.
    pub fn entry_point(tree: &Tree, m: &Message) -> GroupId {
        tree.lca(m.dst)
    }

    /// Handles the message copy arriving at this group (from a client if
    /// this group is the entry point, or from the parent link otherwise):
    /// deliver if addressed here, then forward down every child subtree
    /// containing destinations.
    pub fn on_message(&mut self, m: Message, out: &mut Vec<Output>) {
        self.received_payloads += 1;
        if m.dst.contains(self.g) {
            self.delivered_count += 1;
            out.push(Output::Deliver(m.clone()));
        }
        for (child, _) in self.tree.route_down(self.g, m.dst) {
            out.push(Output::Send {
                to: child,
                pkt: HierPacket(m.clone()),
            });
        }
    }

    /// Handles a packet from the parent (same logic as a client copy).
    pub fn on_packet(&mut self, _from: GroupId, pkt: HierPacket, out: &mut Vec<Output>) {
        self.on_message(pkt.0, out);
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

    fn deliveries(out: &[Output]) -> Vec<MsgId> {
        out.iter()
            .filter_map(|o| match o {
                Output::Deliver(m) => Some(m.id),
                _ => None,
            })
            .collect()
    }

    fn sends(out: &[Output]) -> Vec<GroupId> {
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
        g1.on_message(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert_eq!(sends(&out), vec![GroupId(3), GroupId(4)]);
    }

    #[test]
    fn non_destination_relays_without_delivering() {
        // The non-genuine case: lca(3,5) = 0 which is not a destination.
        let mut root = HierGroup::new(GroupId(0), tree());
        let m = msg(0, &[3, 5]);
        let mut out = Vec::new();
        root.on_message(m.clone(), &mut out);
        assert!(deliveries(&out).is_empty(), "root only relays");
        assert_eq!(sends(&out), vec![GroupId(1), GroupId(2)]);
        assert_eq!(root.received_payloads(), 1);
        assert_eq!(root.delivered_count(), 0, "pure overhead at the root");
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
        // Drive the cascade by hand.
        let mut frontier = vec![(entry, HierPacket(m.clone()))];
        let mut delivered_at = Vec::new();
        while let Some((g, pkt)) = frontier.pop() {
            let mut out = Vec::new();
            engines[g.index()].on_packet(GroupId(0), pkt, &mut out);
            for o in out {
                match o {
                    Output::Deliver(d) => delivered_at.push((g, d.id)),
                    Output::Send { to, pkt } => frontier.push((to, pkt)),
                }
            }
        }
        let mut groups: Vec<u16> = delivered_at.iter().map(|(g, _)| g.rank()).collect();
        groups.sort_unstable();
        assert_eq!(groups, vec![3, 4, 5]);
        // Overhead: 0 and 1 and 2 relayed without delivering.
        assert_eq!(engines[0].received_payloads(), 1);
        assert_eq!(engines[0].delivered_count(), 0);
        assert_eq!(engines[1].received_payloads(), 1);
        assert_eq!(engines[1].delivered_count(), 0);
    }

    #[test]
    fn single_destination_at_entry_point_has_no_sends() {
        let mut g5 = HierGroup::new(GroupId(5), tree());
        let m = msg(0, &[5]);
        let mut out = Vec::new();
        g5.on_message(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert!(sends(&out).is_empty());
    }
}
