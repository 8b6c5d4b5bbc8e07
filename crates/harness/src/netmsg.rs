//! The simulator's wire message: a superset of all protocol packets.

use crate::replicated::ReplCmd;
use flexcast_baselines::{HierPacket, SkeenPacket};
use flexcast_core::Packet as FlexPacket;
use flexcast_smr::{BleMsg, PaxosMsg};
use flexcast_types::{Message, MsgId};
use serde::{Deserialize, Serialize};

/// Everything that can travel between simulated processes.
///
/// The enum is serde-serializable so [`NetMsg::wire_size`] can charge each
/// message its real encoded size — that is what Figure 8's traffic
/// accounting measures. (The simulator itself passes values in memory;
/// only sizes are computed.)
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum NetMsg {
    /// A client's multicast request arriving at a protocol entry point.
    /// `reply_to` is the client's simulator process id.
    Client {
        /// The multicast message (destinations in *node* space).
        msg: Message,
        /// Simulator pid of the issuing client.
        reply_to: usize,
    },
    /// FlexCast inter-group packet.
    Flex(FlexPacket),
    /// Skeen inter-group packet.
    Skeen(SkeenPacket),
    /// Hierarchical inter-group packet.
    Hier(HierPacket),
    /// A destination's response to the client after delivering `id`.
    Reply {
        /// The delivered message.
        id: MsgId,
    },
    /// Intra-group Paxos replication traffic (replicated worlds only).
    Repl(PaxosMsg<ReplCmd>),
    /// An inter-group FlexCast packet between *replicated* groups,
    /// sequence-numbered per directed group link so receivers can
    /// reconstruct the FIFO channel the engine assumes even under
    /// retransmission and reordering.
    GroupMsg {
        /// Position on the directed group link (assigned by the sender's
        /// replicated engine).
        seq: u64,
        /// The FlexCast packet.
        pkt: FlexPacket,
    },
    /// Intra-group ballot-leader-election heartbeat traffic.
    Ble(BleMsg),
    /// A request for a state snapshot that no actor sends any more: a
    /// lagging replica asks with `LearnReq`, which a peer answers below
    /// its compaction marker with a [`NetMsg::Snapshot`]. Kept for the
    /// wire format; replicas count one as a refused input.
    SnapReq {
        /// The requester's apply cursor: a useful snapshot covers more.
        have: u64,
    },
    /// A sibling's snapshot: the serialized replicated state machine
    /// through slot `through`. Receivers discard stale or duplicate
    /// transfers (`through` at or below their own cursor), which makes the
    /// exchange loss/dup/reorder-safe.
    Snapshot {
        /// The snapshot covers slots `..through`.
        through: u64,
        /// `flexcast_wire`-encoded [`crate::replicated::ReplSnapshot`].
        state: Vec<u8>,
    },
}

impl NetMsg {
    /// Exact encoded size in bytes under the workspace wire format:
    /// [`flexcast_wire::encoded_len`], the codec's own walk over a
    /// counting sink.
    pub fn wire_size(&self) -> usize {
        flexcast_wire::encoded_len(self).expect("net messages always encode")
    }

    /// True for messages that carry an application payload (the paper's
    /// overhead metric counts payload messages only, §5.8).
    pub fn is_payload(&self) -> bool {
        match self {
            NetMsg::Client { .. } | NetMsg::Hier(_) => true,
            NetMsg::Flex(pkt) | NetMsg::GroupMsg { pkt, .. } => pkt.is_payload(),
            NetMsg::Skeen(_)
            | NetMsg::Reply { .. }
            | NetMsg::Repl(_)
            | NetMsg::Ble(_)
            | NetMsg::SnapReq { .. }
            | NetMsg::Snapshot { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, DestSet, GroupId, Payload, MAX_GROUPS};

    fn msg() -> Message {
        Message::new(
            MsgId::new(ClientId(1), 2),
            DestSet::from_iter([GroupId(0), GroupId(3)]),
            Payload(vec![7; 64].into()),
        )
        .unwrap()
    }

    #[test]
    fn wire_size_reflects_payload() {
        let small = NetMsg::Client {
            msg: Message::new(msg().id, msg().dst, Payload::empty()).unwrap(),
            reply_to: 14,
        };
        let big = NetMsg::Client {
            msg: msg(),
            reply_to: 14,
        };
        assert!(big.wire_size() > small.wire_size() + 60);
        assert!(NetMsg::Reply { id: msg().id }.wire_size() < 16);
    }

    /// The records the simulator queues and replicas log by the million
    /// stay as small as a 16-byte destination set makes them: widening
    /// one is a decision a diff of this test shows.
    #[test]
    fn hot_records_stay_within_their_sizes() {
        use crate::replicated::ReplCmd;
        use std::mem::size_of;
        assert!(
            size_of::<FlexPacket>() <= 112,
            "{}",
            size_of::<FlexPacket>()
        );
        assert!(size_of::<NetMsg>() <= 120, "{}", size_of::<NetMsg>());
        assert!(size_of::<ReplCmd>() <= 48, "{}", size_of::<ReplCmd>());
    }

    /// Every variant, randomized: the counting sink agrees with the
    /// writing sink, decoding loses nothing the encoder wrote, and
    /// `wire_size` — what traffic accounting charges — is that length.
    #[test]
    fn wire_size_is_the_encoded_length_of_every_variant() {
        use crate::replicated::InputName;
        use flexcast_core::history::{HistoryDelta, MsgRef, TaggedEdge};
        use flexcast_smr::Ballot;
        use flexcast_types::Watermarks;

        // Tiny deterministic LCG: the test needs variety, not quality.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..200u32 {
            let id = MsgId::new(ClientId(next() as u32), next() as u32);
            let dst = DestSet::from_iter(
                (0..1 + next() % 6).map(|_| GroupId((next() % MAX_GROUPS as u64) as u16)),
            );
            let msg =
                Message::new(id, dst, Payload(vec![7u8; (next() % 300) as usize].into())).unwrap();
            let mut hist = HistoryDelta::empty();
            for _ in 0..next() % 40 {
                hist.verts.push(MsgRef {
                    id: MsgId::new(ClientId(next() as u32), next() as u32),
                    dst,
                });
            }
            for _ in 0..next() % 40 {
                hist.edges.push(TaggedEdge {
                    creator: GroupId((next() % 512) as u16),
                    idx: next() as u32,
                    before: MsgId::new(ClientId(next() as u32), next() as u32),
                    after: MsgId::new(ClientId(next() as u32), next() as u32),
                });
            }
            let notif_pairs: Vec<_> = (0..next() % 5)
                .map(|_| {
                    (
                        GroupId((next() % 512) as u16),
                        GroupId((next() % 512) as u16),
                    )
                })
                .collect();
            let pkt = match round % 4 {
                0 => FlexPacket::Msg {
                    msg: msg.clone(),
                    notif_pairs,
                    hist,
                },
                1 => FlexPacket::Ack {
                    mref: MsgRef { id, dst },
                    via: GroupId((next() % 512) as u16),
                    notif_pairs,
                    hist,
                },
                2 => FlexPacket::Notif {
                    mref: MsgRef { id, dst },
                    hist,
                },
                _ => FlexPacket::Advert {
                    wm: Watermarks {
                        clients: (0..next() % 8)
                            .map(|_| (ClientId(next() as u32), next() as u32))
                            .collect(),
                        edges: (0..next() % 8)
                            .map(|_| (GroupId((next() % 512) as u16), next() as u32))
                            .collect(),
                    },
                },
            };
            let ballot = Ballot {
                round: next(),
                owner: next() as u32,
            };
            let mut single = |i: u32| match i % 5 {
                0 => ReplCmd::Client(msg.clone()),
                1 => ReplCmd::Peer {
                    peer: GroupId((next() % 512) as u16),
                    seq: next(),
                    pkt: pkt.clone().into(),
                },
                2 => ReplCmd::Named(InputName::Client(id)),
                3 => ReplCmd::Named(InputName::Peer {
                    peer: GroupId((next() % 512) as u16),
                    seq: next(),
                }),
                _ => ReplCmd::Noop {
                    proposer: next() as u32,
                },
            };
            // Every Paxos kind meets every input kind: the command turns
            // over once per seven rounds, the kind every round. Two in
            // seven commands are a batch of 0..=5 inputs.
            let cmd = match round / 7 % 7 {
                i @ 0..=4 => single(i),
                i => ReplCmd::Batch((0..(round + i) % 6).map(&mut single).collect()),
            };
            let paxos = match round % 7 {
                0 => PaxosMsg::Prepare { ballot },
                1 => PaxosMsg::Promise {
                    ballot,
                    accepted: vec![(next(), ballot, cmd.clone()); (next() % 3) as usize],
                },
                2 => PaxosMsg::Accept {
                    ballot,
                    slot: next(),
                    cmd,
                },
                3 => PaxosMsg::Accepted {
                    ballot,
                    slot: next(),
                },
                4 => PaxosMsg::Learn { slot: next(), cmd },
                5 => PaxosMsg::LearnReq { from_slot: next() },
                _ => PaxosMsg::Decide {
                    slot: next(),
                    ballot,
                },
            };
            let skeen = SkeenPacket::Ts { id, ts: next() };
            let ble = if round % 2 == 0 {
                BleMsg::HeartbeatRequest { round: next() }
            } else {
                BleMsg::HeartbeatReply {
                    round: next(),
                    ballot,
                    candidate: next() % 2 == 0,
                }
            };
            for m in [
                NetMsg::Client {
                    msg: msg.clone(),
                    reply_to: next() as usize,
                },
                NetMsg::Flex(pkt.clone()),
                NetMsg::Skeen(skeen),
                NetMsg::Hier(HierPacket(msg.clone())),
                NetMsg::Reply { id },
                NetMsg::Repl(paxos),
                NetMsg::GroupMsg { seq: next(), pkt },
                NetMsg::Ble(ble),
                NetMsg::SnapReq { have: next() },
                NetMsg::Snapshot {
                    through: next(),
                    state: vec![round as u8; (next() % 300) as usize],
                },
            ] {
                let bytes = flexcast_wire::to_bytes(&m).expect("encodes");
                assert_eq!(
                    flexcast_wire::encoded_len(&m).expect("encodes"),
                    bytes.len(),
                    "counting sink diverged from the writing sink at round {round}: {m:?}"
                );
                assert_eq!(m.wire_size(), bytes.len(), "round {round}: {m:?}");
                let back: NetMsg = flexcast_wire::from_bytes(&bytes).expect("decodes");
                assert_eq!(
                    flexcast_wire::to_bytes(&back).expect("re-encodes"),
                    bytes,
                    "round {round}: {m:?}"
                );
            }
        }
    }

    /// `Message` decodes through `Message::new`: an empty destination
    /// set is a decode error, not a message whose first `lca()` panics.
    #[test]
    fn decoding_rejects_a_message_with_no_destinations() {
        let m = Message::new(
            MsgId::new(ClientId(1), 2),
            DestSet::from_iter([GroupId(0)]),
            Payload::empty(),
        )
        .unwrap();
        // Replaces the destination set at `at` — `{g0}`, the one-byte
        // singleton header 9 — by the empty set's encoding, a bare zero
        // word count.
        fn emptied(mut bytes: Vec<u8>, at: usize) -> Vec<u8> {
            assert_eq!(bytes[at], 9, "{{g0}} is the singleton header 9");
            bytes[at] = 0;
            bytes
        }
        // Two one-byte id varints come before the set.
        let bare = emptied(flexcast_wire::to_bytes(&m).unwrap(), 2);
        assert!(flexcast_wire::from_bytes::<Message>(&bare).is_err());

        // Both enums put a one-byte variant index in front of the message.
        let client = flexcast_wire::to_bytes(&NetMsg::Client {
            msg: m.clone(),
            reply_to: 0,
        })
        .unwrap();
        assert!(flexcast_wire::from_bytes::<NetMsg>(&emptied(client, 3)).is_err());

        let pkt = flexcast_wire::to_bytes(&FlexPacket::Msg {
            msg: m,
            notif_pairs: vec![],
            hist: flexcast_core::HistoryDelta::empty(),
        })
        .unwrap();
        assert!(flexcast_wire::from_bytes::<FlexPacket>(&emptied(pkt, 3)).is_err());
    }

    #[test]
    fn payload_classification() {
        assert!(NetMsg::Client {
            msg: msg(),
            reply_to: 0
        }
        .is_payload());
        assert!(NetMsg::Hier(HierPacket(msg())).is_payload());
        assert!(!NetMsg::Skeen(SkeenPacket::Ts {
            id: msg().id,
            ts: 4
        })
        .is_payload());
        assert!(!NetMsg::Reply { id: msg().id }.is_payload());
    }
}
