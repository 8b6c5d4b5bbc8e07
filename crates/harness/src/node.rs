//! The FlexCast engine placed at a node: the one place the harness maps
//! node ids to C-DAG ranks and back, reads the engine's refusal verdict,
//! and keeps the lca-entry rule. A FlexCast `ServerActor` and every
//! replica's `ReplEngine` hold one, so to the rest of the overlay a
//! replicated group is the same group as an unreplicated one (§4.4).

use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_overlay::CDagOrder;
use flexcast_types::{DestSet, GroupId, Message};

/// The FlexCast entry point for destinations `dst`: the node holding
/// their lowest rank, the message's lca. `None` if `dst` is empty or names
/// a node outside the overlay.
pub fn entry_node(order: &CDagOrder, dst: DestSet) -> Option<GroupId> {
    let lca = order.try_to_ranks(dst)?.lowest()?;
    Some(order.node_at(lca))
}

/// A [`FlexCastGroup`] and the order that places it: inputs and outputs
/// in node space, one verdict per input.
pub(crate) struct NodeEngine {
    engine: FlexCastGroup,
    order: CDagOrder,
}

impl NodeEngine {
    /// The engine of the group at `node` (which must be in `order`) in an
    /// `n`-group overlay; `advert_stride` as for
    /// [`FlexCastGroup::set_advert_stride`], `None` for the plain protocol.
    pub(crate) fn new(node: GroupId, n: u16, order: CDagOrder, advert_stride: Option<u32>) -> Self {
        let mut engine = FlexCastGroup::new(order.rank_of(node), n);
        if let Some(stride) = advert_stride {
            engine.set_advert_stride(stride);
        }
        NodeEngine { engine, order }
    }

    /// Restores an engine from its [`FlexCastGroup::snapshot`] bytes.
    pub(crate) fn restore(bytes: &[u8], order: CDagOrder) -> flexcast_types::Result<Self> {
        let engine = FlexCastGroup::restore(bytes)?;
        Ok(NodeEngine { engine, order })
    }

    /// The wrapped engine.
    pub(crate) fn engine(&self) -> &FlexCastGroup {
        &self.engine
    }

    /// True if `node` holds a rank in this engine's overlay.
    pub(crate) fn in_overlay(&self, node: GroupId) -> bool {
        self.order.try_rank_of(node).is_some()
    }

    /// Takes client message `m`. False if it is refused: a destination
    /// outside the overlay, none, or another group as its lca. A copy the
    /// engine already took is dropped, not refused: clients retry.
    pub(crate) fn on_client(&mut self, mut m: Message, out: &mut Vec<Output>) -> bool {
        let Some(ranks) = self.order.try_to_ranks(m.dst) else {
            return false;
        };
        m.dst = ranks;
        self.run(out, |engine, out| engine.on_client(m, out))
    }

    /// Takes packet `pkt` from the group at node `from`. False if it is
    /// refused: a sender outside the overlay, or a packet the engine
    /// refuses (against its C-DAG edge, or naming a group outside it).
    pub(crate) fn on_packet(&mut self, from: GroupId, pkt: Packet, out: &mut Vec<Output>) -> bool {
        let Some(from) = self.order.try_rank_of(from) else {
            return false;
        };
        self.run(out, |engine, out| engine.on_packet(from, pkt, out))
    }

    /// Feeds one input to the engine, maps the outputs it appends to `out`
    /// into node space, and reads the verdict off the reject count.
    fn run(
        &mut self,
        out: &mut Vec<Output>,
        input: impl FnOnce(&mut FlexCastGroup, &mut Vec<Output>),
    ) -> bool {
        let rejected = self.engine.reject_stats().packets;
        let start = out.len();
        input(&mut self.engine, out);
        for o in &mut out[start..] {
            match o {
                Output::Deliver(m) => m.dst = self.order.to_nodes(m.dst),
                Output::Send { to, .. } => *to = self.order.node_at(*to),
            }
        }
        self.engine.reject_stats().packets == rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::Node;
    use crate::experiment::{run_world_on, ExperimentConfig, ProtocolKind};
    use crate::layout::Layout;
    use crate::netmsg::NetMsg;
    use crate::replicated::{apply_cmd, ReplCmd, ReplEngine};
    use flexcast_core::{HistoryDelta, MsgRef};
    use flexcast_overlay::regions;
    use flexcast_sim::SimTime;
    use flexcast_types::{ClientId, MsgId, Payload};
    use std::sync::Arc;

    /// One node-space input to the group at node 0.
    enum Input {
        Client(Message),
        Packet { from: u16, pkt: Packet },
    }

    /// The same table of inputs reaches an unreplicated server and a
    /// replicated state machine, both at node 0 of a rotated overlay
    /// (node 5 holds rank 0, node 0 rank 7), and both give the same
    /// verdict on every row: they share one intake rule.
    #[test]
    fn both_stacks_refuse_the_same_inputs() {
        let order = CDagOrder::from_order((0..12).map(|r| GroupId((r + 5) % 12)).collect())
            .expect("a permutation");
        let client = |seq: u32, dst: [u16; 2]| {
            let dst = DestSet::from_iter(dst.map(GroupId));
            let id = MsgId::new(ClientId(0), 900 + seq);
            Input::Client(Message::new(id, dst, Payload::empty()).expect("destinations"))
        };
        // Packets carry rank space: ranks 7 and 8 are nodes 0 and 1.
        let notif = |from: u16, seq: u32, ranks: [u16; 2]| {
            let mref = MsgRef {
                id: MsgId::new(ClientId(1), seq),
                dst: DestSet::from_iter(ranks.map(GroupId)),
            };
            let hist = HistoryDelta::empty();
            Input::Packet {
                from,
                pkt: Packet::Notif { mref, hist },
            }
        };
        let rows = [
            (
                "a destination outside the overlay",
                client(0, [0, 12]),
                true,
            ),
            ("another group's lca", client(1, [0, 5]), true),
            ("this group's lca", client(2, [0, 1]), false),
            ("a sender outside the overlay", notif(12, 0, [7, 8]), true),
            ("against the C-DAG edge", notif(1, 1, [7, 8]), true),
            ("along the C-DAG edge", notif(5, 2, [0, 7]), false),
        ];

        let mut cfg = ExperimentConfig::latency(ProtocolKind::FlexCast(order.clone()), 0.9);
        cfg.n_clients = 1;
        cfg.duration = SimTime::from_secs(1);
        let mut world = run_world_on(&cfg, &regions::aws12());
        let refused = |world: &flexcast_sim::World<NetMsg, Node>| match world.actor(0) {
            Node::Server(s) => s.stats.refused_inputs,
            _ => panic!("pid 0 is a server"),
        };
        let mut replicated = ReplEngine::new(GroupId(0), order, None);
        for (name, input, want) in rows {
            let (msg, cmd, from) = match input {
                Input::Client(m) => {
                    let reply_to = Layout::new(12, 1).client_pid(ClientId(0));
                    let msg = NetMsg::Client {
                        msg: m.clone(),
                        reply_to,
                    };
                    (msg, ReplCmd::Client(m), reply_to)
                }
                Input::Packet { from, pkt } => {
                    let cmd = ReplCmd::Peer {
                        peer: GroupId(from),
                        seq: 0,
                        pkt: Arc::new(pkt.clone()),
                    };
                    (NetMsg::Flex(pkt), cmd, from as usize)
                }
            };
            let before = refused(&world);
            world.inject(from, 0, msg);
            world.run_to_quiescence(100_000);
            let server = refused(&world) > before;

            let before = replicated.refused_cmds();
            apply_cmd(&mut replicated, cmd, &mut Vec::new());
            let replica = replicated.refused_cmds() > before;

            assert_eq!((server, replica), (want, want), "{name}");
        }
    }
}
