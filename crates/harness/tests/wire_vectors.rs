//! The bytes of one value of every [`NetMsg`] variant, pinned.
//!
//! `wire_bytes_per_op` and Figure 8's bytes-per-message are sums of these
//! encodings, and nothing else in the suite notices when the format
//! changes: every round-trip test encodes and decodes with the same
//! code. A format change now shows up here as a reviewed diff of a hex
//! string. (`crates/wire/tests/format_vectors.rs` pins `DestSet`; the
//! other part of the format this workspace writes by hand, a history
//! delta's edge runs and the local deliveries that ride on them, is
//! pinned here by the `Flex` vectors.)

use flexcast_baselines::{HierPacket, SkeenPacket};
use flexcast_core::history::{HistoryDelta, MsgRef, TaggedEdge};
use flexcast_core::Packet;
use flexcast_harness::replicated::ReplCmd;
use flexcast_harness::NetMsg;
use flexcast_smr::{Ballot, BleMsg, PaxosMsg};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload, Watermarks};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn id(seq: u32) -> MsgId {
    MsgId::new(ClientId(1), seq)
}

fn dst(ranks: &[u16]) -> DestSet {
    DestSet::try_from_ranks(ranks.iter().copied()).expect("ranks in range")
}

/// `m1.2 → {g0, g3}`, payload `ab cd`.
fn message() -> Message {
    Message::new(id(2), dst(&[0, 3]), Payload(vec![0xab, 0xcd].into())).expect("has destinations")
}

fn edge(creator: u16, idx: u32, before: u32, after: u32) -> TaggedEdge {
    TaggedEdge {
        creator: GroupId(creator),
        idx,
        before: id(before),
        after: id(after),
    }
}

/// An ack for [`message`] whose delta holds one vertex in the second
/// destination word and one edge.
fn ack() -> Packet {
    Packet::Ack {
        mref: MsgRef::of(&message()),
        via: GroupId(1),
        notif_pairs: vec![(GroupId(0), GroupId(2))],
        hist: HistoryDelta {
            verts: vec![MsgRef {
                id: id(3),
                dst: dst(&[1, 70]),
            }],
            edges: vec![edge(1, 4, 2, 3)],
        },
    }
}

#[test]
fn net_msg_vectors() {
    let ballot = Ballot { round: 5, owner: 2 };
    let vectors = [
        (
            NetMsg::Client {
                msg: message(),
                reply_to: 14,
            },
            "00 0102 0109 02abcd 0e",
        ),
        (
            NetMsg::Flex(ack()),
            "01 01 0102 0109 01 01 0002 01 0103 020240 01 01 04 0102 01 0103",
        ),
        (
            // 128 groups: `g120` acks `m1.7 → {g120, g127}` to `g127`, its
            // delta holding its own local delivery `m1.8 → {g120}` and
            // the edge `m1.7 → m1.8`. The local rides on that edge: no
            // vertex is written (`00`), and `g120`'s run is marked — an
            // empty `afters` (`00`), its one after, and the mark `01`.
            // Written, the vertex would be `0108 8101`: its id and the
            // singleton header 9 + 120.
            NetMsg::Flex(Packet::Ack {
                mref: MsgRef {
                    id: id(7),
                    dst: dst(&[120, 127]),
                },
                via: GroupId(120),
                notif_pairs: vec![],
                hist: HistoryDelta {
                    verts: vec![MsgRef {
                        id: id(8),
                        dst: dst(&[120]),
                    }],
                    edges: vec![edge(120, 0, 7, 8)],
                },
            }),
            "01 01 0107 02 00 80808080808080808101 78 00 \
             00 01 78 00 0107 00 01 0108 01",
        ),
        (
            // A local without its in-edge stays written: `m1.3 → {g2}`
            // is `g2`'s first delivery, and the one edge, `g1`'s
            // `m1.2 → m1.4`, leads elsewhere.
            NetMsg::Flex(Packet::Notif {
                mref: MsgRef::of(&message()),
                hist: HistoryDelta {
                    verts: vec![MsgRef {
                        id: id(3),
                        dst: dst(&[2]),
                    }],
                    edges: vec![edge(1, 0, 2, 4)],
                },
            }),
            "01 02 0102 0109 01 0103 0b 01 01 00 0102 01 0104",
        ),
        (
            // Locals between written vertices: `g1` delivers `m1.3`, the
            // global `m1.4 → {g0, g1}` and `m1.5`; `m1.6 → {g3}` has no
            // edge. `m1.3` and `m1.5` ride on `g1`'s run, marked `0101`
            // on its first and third edge. `m1.4` is written with one
            // vertex left out before it — word-form header 1 + 521
            // (`8a04`) — and `m1.6` with one — singleton header 9 + 3 +
            // 521 (`9504`).
            NetMsg::Flex(Packet::Notif {
                mref: MsgRef::of(&message()),
                hist: HistoryDelta {
                    verts: vec![
                        MsgRef {
                            id: id(3),
                            dst: dst(&[1]),
                        },
                        MsgRef {
                            id: id(4),
                            dst: dst(&[0, 1]),
                        },
                        MsgRef {
                            id: id(5),
                            dst: dst(&[1]),
                        },
                        MsgRef {
                            id: id(6),
                            dst: dst(&[3]),
                        },
                    ],
                    edges: vec![edge(1, 4, 2, 3), edge(1, 5, 3, 4), edge(1, 6, 4, 5)],
                },
            }),
            "01 02 0102 0109 02 0104 8a04 03 0106 9504 \
             01 01 04 0102 00 03 0103 0104 0105 05",
        ),
        (
            // Two edge runs: `g1`'s chain #4–#6 through `m1.2 … m1.5` —
            // creator, first index, first `before`, then three `after`s —
            // and a lone `g2` edge: 26 bytes. Edge by edge, as four
            // `(creator, idx, before, after)` tuples, it was 32.
            NetMsg::Flex(Packet::Notif {
                mref: MsgRef::of(&message()),
                hist: HistoryDelta {
                    verts: vec![],
                    edges: vec![
                        edge(1, 4, 2, 3),
                        edge(1, 5, 3, 4),
                        edge(1, 6, 4, 5),
                        edge(2, 0, 3, 5),
                    ],
                },
            }),
            "01 02 0102 0109 00 02 01 04 0102 03 0103 0104 0105 02 00 0103 01 0105",
        ),
        (
            NetMsg::Skeen(SkeenPacket::Ts { id: id(2), ts: 300 }),
            "02 01 0102 ac02",
        ),
        (NetMsg::Hier(HierPacket(message())), "03 0102 0109 02abcd"),
        (NetMsg::Reply { id: id(2) }, "04 0102"),
        (
            NetMsg::Repl(PaxosMsg::Accept {
                ballot,
                slot: 9,
                cmd: ReplCmd::Client(message()),
            }),
            "05 02 0502 09 00 0102 0109 02abcd",
        ),
        (
            // A batch: variant 3, the input count, then each input as it
            // would encode on its own — the `Arc` around a packet adds
            // nothing.
            NetMsg::Repl(PaxosMsg::Accept {
                ballot,
                slot: 9,
                cmd: ReplCmd::Batch(vec![
                    ReplCmd::Client(message()),
                    ReplCmd::Peer {
                        peer: GroupId(1),
                        seq: 6,
                        pkt: ack().into(),
                    },
                ]),
            }),
            "05 02 0502 09 03 02 \
             00 0102 0109 02abcd \
             01 01 06 01 0102 0109 01 01 0002 01 0103 020240 01 01 04 0102 01 0103",
        ),
        (
            // A commit notice: variant 6, the slot, then the ballot. No
            // command, whatever its size.
            NetMsg::Repl(PaxosMsg::Decide { slot: 9, ballot }),
            "05 06 09 0502",
        ),
        (
            // A follower hands its leader a packet from group 1: variant
            // 7, then the input, 3 bytes more than the `GroupMsg` below
            // that carries the same packet.
            NetMsg::Repl(PaxosMsg::Forward {
                cmd: ReplCmd::Peer {
                    peer: GroupId(1),
                    seq: 6,
                    pkt: Packet::Advert {
                        wm: Watermarks {
                            clients: vec![(ClientId(1), 3)],
                            edges: vec![(GroupId(1), 4)],
                        },
                    }
                    .into(),
                },
            }),
            "05 07 01 01 06 03 01 0103 01 0104",
        ),
        (
            NetMsg::GroupMsg {
                seq: 6,
                pkt: Packet::Advert {
                    wm: Watermarks {
                        clients: vec![(ClientId(1), 3)],
                        edges: vec![(GroupId(1), 4)],
                    },
                },
            },
            "06 06 03 01 0103 01 0104",
        ),
        (
            NetMsg::Ble(BleMsg::HeartbeatReply {
                round: 7,
                ballot,
                candidate: true,
            }),
            "07 01 07 0502 01",
        ),
        (NetMsg::SnapReq { have: 128 }, "08 8001"),
        (
            NetMsg::Snapshot {
                through: 9,
                state: vec![1, 2, 3],
            },
            "09 09 03 010203",
        ),
    ];
    for (msg, want) in vectors {
        let want: String = want.split_whitespace().collect();
        let bytes = flexcast_wire::to_bytes(&msg).expect("encodes");
        assert_eq!(hex(&bytes), want, "{msg:?}");
        assert_eq!(msg.wire_size(), bytes.len(), "{msg:?}");
        let back: NetMsg = flexcast_wire::from_bytes(&unhex(&want)).expect("decodes");
        assert_eq!(
            flexcast_wire::to_bytes(&back).expect("re-encodes"),
            bytes,
            "{msg:?}"
        );
    }
}
