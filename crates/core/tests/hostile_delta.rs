//! Hostile bytes at the history-delta codec. A delta's edges travel as
//! chains (`HistoryDelta`'s wire form): a count of runs, each
//! `(creator, first idx, first before, afters)`; its vertices' destination
//! sets as one header each, a word count or a singleton `9 + rank`
//! (`DestSet`'s wire form). Whatever a peer sends, decoding answers `Err`
//! or a value that re-encodes to exactly the bytes it came from, never
//! panics, and never holds memory in proportion to a length the bytes
//! merely claim. A local delivery may travel as its chain edge alone, and
//! the merge rebuilds it: what an edge can make a receiver admit is
//! checked here too. So is what a client id can make a receiver hold: ids
//! are dense from 0 in an honest world, and one far past them costs no
//! more than a near one.

mod common;

use common::peak_during;
use flexcast_core::{FlexCastGroup, History, HistoryDelta, MsgRef, Packet, TaggedEdge};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload, Watermarks};
use serde::de::DeserializeOwned;
use serde::Serialize;

fn id(seq: u32) -> MsgId {
    MsgId::new(ClientId(1), seq)
}

fn te(creator: u16, idx: u32, before: u32, after: u32) -> TaggedEdge {
    TaggedEdge {
        creator: GroupId(creator),
        idx,
        before: id(before),
        after: id(after),
    }
}

/// `u32::MAX - 1` as an LEB128 varint.
const U32_MAX_MINUS_1: [u8; 5] = [0xfe, 0xff, 0xff, 0xff, 0x0f];

/// What decoding may hold at its peak for `len` input bytes: a chained
/// edge is two bytes on the wire and 24 in memory, and a growing `Vec`
/// doubles; the fixed part covers an error message.
fn allowance(len: usize) -> usize {
    2048 + 64 * len
}

/// Decodes `bytes` as a `T` (a panic fails the test), checks the peak
/// against the allowance and that an accepted value is the one spelling
/// of itself, and returns it.
fn decode_contained<T: DeserializeOwned + Serialize>(bytes: &[u8]) -> Option<T> {
    let (res, peak) = peak_during(|| flexcast_wire::from_bytes::<T>(bytes));
    assert!(
        peak <= allowance(bytes.len()),
        "{peak} bytes held for {} bytes of input",
        bytes.len()
    );
    let value = res.ok()?;
    let again = flexcast_wire::to_bytes(&value).expect("a decoded value encodes");
    assert_eq!(again, bytes, "decoding then encoding changed the bytes");
    Some(value)
}

/// The decode error for `bytes`, which must not decode.
fn delta_error(bytes: &[u8]) -> String {
    match flexcast_wire::from_bytes::<HistoryDelta>(bytes) {
        Err(flexcast_types::Error::Decode(why)) => why,
        other => panic!("{bytes:02x?} decoded to {other:?}"),
    }
}

/// No vertices, then `runs` as `(creator, idx bytes, before seq, after
/// seqs)`, every id of client 1 and every small field one byte.
fn delta_bytes(runs: &[(u8, &[u8], u8, &[u8])]) -> Vec<u8> {
    let mut b = vec![0, runs.len() as u8];
    for &(creator, idx, before, afters) in runs {
        b.extend([creator]);
        b.extend(idx);
        b.extend([1, before, afters.len() as u8]);
        for &a in afters {
            b.extend([1, a]);
        }
    }
    b
}

#[test]
fn an_empty_run_is_refused() {
    let why = delta_error(&delta_bytes(&[(1, &[0], 2, &[])]));
    assert!(why.contains("empty edge run"), "{why}");
    // The same run with one after is a one-edge delta.
    let one: HistoryDelta = decode_contained(&delta_bytes(&[(1, &[0], 2, &[3])])).unwrap();
    assert_eq!(one.edges, vec![te(1, 0, 2, 3)]);
}

#[test]
fn a_run_past_u32_max_is_refused() {
    // Starting at `u32::MAX - 1`, two edges end exactly at `u32::MAX`...
    let fits = delta_bytes(&[(1, &U32_MAX_MINUS_1, 2, &[3, 4])]);
    let d: HistoryDelta = decode_contained(&fits).unwrap();
    assert_eq!(
        d.edges,
        vec![te(1, u32::MAX - 1, 2, 3), te(1, u32::MAX, 3, 4)]
    );
    // ...and a third would need index `u32::MAX + 1`.
    let why = delta_error(&delta_bytes(&[(1, &U32_MAX_MINUS_1, 2, &[3, 4, 5])]));
    assert!(why.contains("passes u32::MAX"), "{why}");
}

#[test]
fn a_run_that_continues_its_predecessor_is_refused() {
    // `g1#4: 2 → 3`, then a second run `g1#5: 3 → 4` that the encoder
    // would have written as the first run's second after.
    let split = delta_bytes(&[(1, &[4], 2, &[3]), (1, &[5], 3, &[4])]);
    let why = delta_error(&split);
    assert!(why.contains("not canonical"), "{why}");
    let whole = delta_bytes(&[(1, &[4], 2, &[3, 4])]);
    let d: HistoryDelta = decode_contained(&whole).unwrap();
    assert_eq!(d.edges, vec![te(1, 4, 2, 3), te(1, 5, 3, 4)]);
    // Break any one of the three links and two runs are the only spelling.
    for second in [(2, &[5][..], 3), (1, &[6][..], 3), (1, &[5][..], 9)] {
        let (creator, idx, before) = second;
        let two = delta_bytes(&[(1, &[4], 2, &[3]), (creator, idx, before, &[4])]);
        let d: HistoryDelta = decode_contained(&two).unwrap();
        assert_eq!(d.edges.len(), 2);
    }
}

/// `2⁴⁰` as an LEB128 varint: six bytes.
const TWO_POW_40: [u8; 6] = [0x80, 0x80, 0x80, 0x80, 0x80, 0x20];

/// A length prefix is a claim, not a budget. A run count of `2⁴⁰` in a
/// 10-byte input, and an after count of `2⁴⁰` two bytes further in (the
/// shortest run header before it is six bytes), are refused on reading
/// the prefix, holding no more than their error message.
#[test]
fn hostile_counts_allocate_only_their_error() {
    let mut runs = vec![0];
    runs.extend(TWO_POW_40);
    runs.extend([1, 1, 1]);
    assert_eq!(runs.len(), 10);
    let mut afters = vec![0, 1, 1, 0, 1, 2];
    afters.extend(TWO_POW_40);
    for bytes in [runs, afters] {
        let (res, peak) = peak_during(|| flexcast_wire::from_bytes::<HistoryDelta>(&bytes));
        match res {
            Err(flexcast_types::Error::Decode(why)) => {
                assert!(why.contains("exceeds remaining input"), "{why}")
            }
            other => panic!("{bytes:02x?} decoded to {other:?}"),
        }
        assert!(peak <= 256, "{peak} bytes held for {bytes:02x?}");
    }
}

/// An ack whose delta holds three runs: a three-edge chain of `g1`, a
/// lone edge of `g2`, and a two-edge chain of `g1` elsewhere in its
/// stream.
fn three_run_packet() -> Packet {
    let dst = DestSet::from_iter([GroupId(0), GroupId(2)]);
    Packet::Ack {
        mref: MsgRef { id: id(9), dst },
        via: GroupId(1),
        notif_pairs: vec![(GroupId(0), GroupId(1))],
        hist: HistoryDelta {
            verts: vec![MsgRef { id: id(10), dst }, MsgRef { id: id(11), dst }],
            edges: vec![
                te(1, 7, 2, 3),
                te(1, 8, 3, 4),
                te(1, 9, 4, 5),
                te(2, 0, 3, 10),
                te(1, 20, 10, 11),
                te(1, 21, 11, 12),
            ],
        },
    }
}

/// Decodes every truncation of `pkt`'s bytes, every single-bit flip, and
/// every byte in turn replaced by each of `replacements`, all through
/// [`decode_contained`]. Flipped ids, indices and ranks are values too:
/// many mutations decode, each to the one packet those bytes spell.
fn every_mutation_is_contained(pkt: Packet, replacements: &[&[u8]]) {
    let good = flexcast_wire::to_bytes(&pkt).expect("encodes");
    let back: Packet = decode_contained(&good).expect("the unmutated packet decodes");
    assert_eq!(back, pkt);
    let mut accepted = 0;
    for at in 0..good.len() {
        assert!(
            decode_contained::<Packet>(&good[..at]).is_none(),
            "cut at {at}"
        );
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << bit;
            accepted += decode_contained::<Packet>(&bytes).is_some() as usize;
        }
        for with in replacements {
            let mut bytes = good.clone();
            bytes.splice(at..=at, with.iter().copied());
            accepted += decode_contained::<Packet>(&bytes).is_some() as usize;
        }
    }
    assert!(accepted > 0);
}

#[test]
fn every_flip_and_truncation_of_a_three_run_packet_is_contained() {
    every_mutation_is_contained(three_run_packet(), &[]);
}

/// An ack whose destination sets take both forms: the ack's own and one
/// vertex's as words, and singletons at both ends of the rank range —
/// `{g1}` is the one-byte header 10, `{g127}` the last header, 136.
fn mixed_form_packet() -> Packet {
    let two = DestSet::from_iter([GroupId(0), GroupId(2)]);
    let one = |r| DestSet::singleton(GroupId(r));
    Packet::Ack {
        mref: MsgRef {
            id: id(9),
            dst: two,
        },
        via: GroupId(2),
        notif_pairs: vec![],
        hist: HistoryDelta {
            verts: vec![
                MsgRef {
                    id: id(10),
                    dst: one(1),
                },
                MsgRef {
                    id: id(11),
                    dst: two,
                },
                MsgRef {
                    id: id(12),
                    dst: one(127),
                },
            ],
            edges: vec![te(1, 3, 10, 11), te(1, 4, 11, 12)],
        },
    }
}

/// Every single-bit flip and truncation of [`mixed_form_packet`], and
/// every byte in turn replaced by a header at a form boundary — the last
/// word count (2), the first and last refused counts (3, 8), the first
/// and last singletons (9, 136), one past them (137), the two-byte
/// threshold (127, 128) — or widened to the largest `u32` varint.
#[test]
fn every_mutation_of_a_mixed_form_packet_is_contained() {
    every_mutation_is_contained(
        mixed_form_packet(),
        &[
            &[0x02],
            &[0x03],
            &[0x08],
            &[0x09],
            &[0x7f],
            &[0x80, 0x01],
            &[0x88, 0x01],
            &[0x89, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0x0f],
        ],
    );
}

/// One vertex `m9` whose set header is `header`, as a varint, then `tail`
/// (the rest of the delta).
fn one_vertex(header: u64, tail: &[u8]) -> Vec<u8> {
    let mut b = vec![1, 1, 9];
    let mut h = header;
    while h >= 0x80 {
        b.push(h as u8 | 0x80);
        h >>= 7;
    }
    b.push(h as u8);
    b.extend(tail);
    b
}

/// Header 136, `{g127}`, is the last a destination set starts with;
/// every header above it is refused before any word is read, in the
/// first vertex or a later one, within the decoding allowance.
#[test]
fn a_delta_vertex_whose_set_header_is_above_136_is_refused() {
    let d: HistoryDelta = decode_contained(&one_vertex(136, &[0])).unwrap();
    assert_eq!(d.verts[0].dst, DestSet::singleton(GroupId(127)));
    let two = |header| {
        let mut b = one_vertex(10, &[]);
        b[0] = 2;
        b.extend(&one_vertex(header, &[0])[1..]);
        b
    };
    assert_eq!(
        decode_contained::<HistoryDelta>(&two(136))
            .unwrap()
            .verts
            .len(),
        2
    );
    for header in [
        137,
        138,
        520,
        521,
        1 << 16,
        u64::from(u32::MAX) * 137 + 1,
        u64::MAX,
    ] {
        for bytes in [one_vertex(header, &[0]), two(header)] {
            let (res, peak) = peak_during(|| flexcast_wire::from_bytes::<HistoryDelta>(&bytes));
            match res {
                Err(flexcast_types::Error::Decode(why)) => {
                    assert!(why.contains("out of range"), "{header}: {why}")
                }
                other => panic!("header {header} decoded to {other:?}"),
            }
            let most = allowance(bytes.len());
            assert!(peak <= most, "{peak} bytes held for header {header}");
        }
    }
}

/// An edge into an id the receiver has never seen rebuilds `{after,
/// {creator}}` only for a creator inside the overlay: creator 128 is past
/// every rank, and in a three-group world creator 5 is outside it. Either
/// way the edge decodes, is dropped, and admits nothing.
#[test]
fn an_in_edge_whose_creator_no_set_holds_is_refused() {
    let bytes = [0, 1, 0x80, 0x01, 0, 1, 2, 1, 1, 3];
    let d: HistoryDelta = decode_contained(&bytes).unwrap();
    assert_eq!(d.edges, vec![te(128, 0, 2, 3)]);
    let mut h = History::new();
    h.merge(&d);
    assert!(h.is_empty(), "no vertex for a creator past every rank");
    assert_eq!(h.merge_stats().verts_in, 0);

    let mut g = FlexCastGroup::new(GroupId(2), 3);
    let dst = DestSet::from_iter([GroupId(0), GroupId(2)]);
    let hist = HistoryDelta {
        verts: vec![],
        edges: vec![te(5, 0, 2, 3), te(1, 0, 2, 4)],
    };
    let pkt = Packet::Notif {
        mref: MsgRef { id: id(9), dst },
        hist,
    };
    g.on_packet(GroupId(0), pkt, &mut Vec::new());
    let h = g.history();
    assert!(
        !h.contains(id(3)),
        "no vertex for a creator outside the overlay"
    );
    assert_eq!(h.dst_of(id(4)), Some(DestSet::singleton(GroupId(1))));
}

/// What the rebuild rule can make a receiver admit is bounded by the
/// edges a delta carries: one vertex an edge at most, whatever their
/// ids. `k` edges into distinct unseen ids admit `k` vertices; the same
/// edges again, or `k` edges into ids already seen, admit none; and
/// merging holds memory in proportion to `k`.
#[test]
fn a_delta_of_k_edges_admits_at_most_k_rebuilt_vertices() {
    let k: u32 = 2_000;
    let chain = |first: u32, afters: &mut dyn Iterator<Item = u32>| -> Vec<TaggedEdge> {
        let mut before = first;
        (0..)
            .zip(afters)
            .map(|(i, a)| {
                let e = te(1, i, before, a);
                before = a;
                e
            })
            .collect()
    };
    let fresh = HistoryDelta {
        verts: vec![],
        edges: chain(0, &mut (1..=k)),
    };
    let bytes = flexcast_wire::to_bytes(&fresh).unwrap();
    let d: HistoryDelta = decode_contained(&bytes).unwrap();
    let mut h = History::new();
    let ((), peak) = peak_during(|| h.merge(&d));
    assert_eq!(h.len(), k as usize);
    assert_eq!(
        h.edge_count(),
        k as usize - 1,
        "the first edge's before is unseen"
    );
    // About 210 bytes a rebuilt vertex: its `MsgRef`, slot and links.
    assert!(peak <= 512 * k as usize, "{peak} bytes held for {k} edges");
    h.merge(&d);
    assert_eq!(h.len(), k as usize, "processed edges rebuild nothing");
    let seen = HistoryDelta {
        verts: vec![],
        edges: chain(k + 1, &mut (1..=k).rev()),
    };
    h.merge(&seen);
    assert_eq!(h.len(), k as usize, "seen ids rebuild nothing");
}

/// A client id far past any honest world's: a receiver that stretched a
/// client-indexed vector to it would hold 64 MiB, over every allowance
/// here and well within the memory a test may take.
const FAR: ClientId = ClientId(1 << 24);

fn far(seq: u32) -> MsgId {
    MsgId::new(FAR, seq)
}

/// Merges `d` into a fresh history and checks the peak against the
/// allowance for `d`'s bytes.
fn merge_contained(d: &HistoryDelta) -> History {
    let bytes = flexcast_wire::to_bytes(d).unwrap();
    let mut h = History::new();
    let ((), peak) = peak_during(|| h.merge(d));
    let most = allowance(bytes.len());
    assert!(peak <= most, "{peak} bytes held for {} bytes", bytes.len());
    h
}

#[test]
fn a_far_client_vertex_holds_no_more_than_a_near_one() {
    let dst = DestSet::singleton(GroupId(1));
    let h = merge_contained(&HistoryDelta {
        verts: vec![MsgRef { id: far(0), dst }],
        edges: vec![],
    });
    assert!(h.has_seen(far(0)) && h.contains(far(0)));
    assert_eq!(h.client_watermarks().collect::<Vec<_>>(), vec![(FAR, 0)]);
}

#[test]
fn an_edge_that_rebuilds_a_far_client_vertex_holds_no_more_than_a_near_one() {
    let edge = TaggedEdge {
        creator: GroupId(1),
        idx: 0,
        before: id(2),
        after: far(7),
    };
    let h = merge_contained(&HistoryDelta {
        verts: vec![],
        edges: vec![edge],
    });
    assert_eq!(h.dst_of(far(7)), Some(DestSet::singleton(GroupId(1))));
    assert!(h.has_seen(far(7)) && !h.has_seen(far(6)));
}

/// A client message from a far client, at its lca: delivered like any
/// other, holding what a near client's message holds. The engine has
/// taken one near message first, so its vectors are warm.
#[test]
fn a_far_client_message_holds_no_more_than_a_near_one() {
    let mut g = FlexCastGroup::new(GroupId(0), 3);
    let dst = DestSet::singleton(GroupId(0));
    let near = Message::new(id(0), dst, Payload::empty()).unwrap();
    let mut out = Vec::with_capacity(4);
    g.on_client(near, &mut out);
    let m = Message::new(far(0), dst, Payload::empty()).unwrap();
    let bytes = flexcast_wire::to_bytes(&m).unwrap();
    out.clear();
    let ((), peak) = peak_during(|| g.on_client(m, &mut out));
    let most = allowance(bytes.len());
    assert!(peak <= most, "{peak} bytes held for {} bytes", bytes.len());
    assert!(g.has_delivered(far(0)));
}

/// An advertisement naming a far client is absorbed — counted, and
/// holding what a near entry holds.
#[test]
fn a_far_client_advert_entry_holds_no_more_than_a_near_one() {
    let mut g = FlexCastGroup::new(GroupId(0), 3);
    let pkt = Packet::Advert {
        wm: Watermarks {
            clients: vec![(ClientId(1), 3), (FAR, 5)],
            edges: vec![],
        },
    };
    let bytes = flexcast_wire::to_bytes(&pkt).unwrap();
    let mut out = Vec::new();
    let ((), peak) = peak_during(|| g.on_packet(GroupId(1), pkt, &mut out));
    let most = allowance(bytes.len());
    assert!(peak <= most, "{peak} bytes held for {} bytes", bytes.len());
    assert_eq!(out, vec![]);
    assert_eq!(g.suppression_stats().adverts_received, 1);
}

/// A creator rank past every overlay's: a receiver that stretched a
/// creator-indexed table to it would hold one entry per rank below it.
const FAR_CREATOR: GroupId = GroupId(u16::MAX);

/// An edge whose creator is outside the overlay is dropped whole: it
/// rebuilds nothing, is not marked processed, and holds no more than a
/// near one.
#[test]
fn an_edge_from_a_far_creator_holds_no_more_than_a_near_one() {
    let edge = TaggedEdge {
        creator: FAR_CREATOR,
        ..te(1, 0, 2, 3)
    };
    let h = merge_contained(&HistoryDelta {
        verts: vec![],
        edges: vec![edge],
    });
    assert!(h.is_empty());
    assert!(!h.edge_processed(FAR_CREATOR, 0));
    assert_eq!(h.edge_prefixes().count(), 0);
}

/// An advertisement naming a creator outside the overlay is absorbed —
/// counted, its entry ignored, and holding what a near entry holds.
#[test]
fn a_far_creator_advert_entry_holds_no_more_than_a_near_one() {
    let mut g = FlexCastGroup::new(GroupId(0), 3);
    let pkt = Packet::Advert {
        wm: Watermarks {
            clients: vec![],
            edges: vec![(FAR_CREATOR, 5)],
        },
    };
    let bytes = flexcast_wire::to_bytes(&pkt).unwrap();
    let mut out = Vec::new();
    let ((), peak) = peak_during(|| g.on_packet(GroupId(1), pkt, &mut out));
    let most = allowance(bytes.len());
    assert!(peak <= most, "{peak} bytes held for {} bytes", bytes.len());
    assert_eq!(out, vec![]);
    assert_eq!(g.suppression_stats().adverts_received, 1);
}
