//! Hostile bytes at the history-delta codec. A delta's edges travel as
//! chains (`HistoryDelta`'s wire form): a count of runs, each
//! `(creator, first idx, first before, afters)`; its vertices' destination
//! sets as one header each, a word count or a singleton `9 + rank`
//! (`DestSet`'s wire form). A local delivery whose chain edge is in the
//! delta is not written at all: the written vertex after it carries the
//! number left out in its header (`h + 521 · tag`), and a run holding
//! such in-edges is marked — an empty `afters`, its `afters`, then one bit
//! per after, 63 to a varint. Whatever a peer sends, decoding answers
//! `Err` or a value that re-encodes to exactly the bytes it came from,
//! never panics, and never holds memory in proportion to a length or a
//! count the bytes merely claim.

mod common;

use common::peak_during;
use flexcast_core::{HistoryDelta, MsgRef, Packet, TaggedEdge};
use flexcast_types::{ClientId, DestSet, GroupId, MsgId};
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

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
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
/// `{g1}` is the one-byte header 10, `{g511}` the last header, 520.
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
                    dst: one(511),
                },
            ],
            edges: vec![te(1, 3, 10, 11), te(1, 4, 11, 12)],
        },
    }
}

/// Every single-bit flip and truncation of [`mixed_form_packet`], and
/// every byte in turn replaced by a header at a form boundary — the last
/// word count (8), the first and last singletons (9, 520), one past them
/// (521), the two-byte threshold (127, 128) — or widened to the largest
/// `u32` varint.
#[test]
fn every_mutation_of_a_mixed_form_packet_is_contained() {
    every_mutation_is_contained(
        mixed_form_packet(),
        &[
            &[0x08],
            &[0x09],
            &[0x7f],
            &[0x80, 0x01],
            &[0x88, 0x04],
            &[0x89, 0x04],
            &[0xff, 0xff, 0xff, 0xff, 0x0f],
        ],
    );
}

/// An ack whose delta leaves three of its five vertices out. `g1`'s chain
/// `m2 → m3 → m4 → m5 → m6` delivers the locals `m3`, `m5` and `m6` and
/// the global `m4`; `m10` is a local of `g2` whose only edge in the delta
/// leaves it, so it is written. On the wire: `m4` with one vertex left
/// out before it, `m10` with one, one more after them; `g1`'s run marked
/// on its first, third and fourth edge, `g2`'s lone edge plain.
fn left_out_packet() -> Packet {
    let one = |r| DestSet::singleton(GroupId(r));
    let two = DestSet::from_iter([GroupId(0), GroupId(1)]);
    Packet::Ack {
        mref: MsgRef {
            id: id(9),
            dst: two,
        },
        via: GroupId(1),
        notif_pairs: vec![],
        hist: HistoryDelta {
            verts: vec![
                MsgRef {
                    id: id(3),
                    dst: one(1),
                },
                MsgRef {
                    id: id(4),
                    dst: two,
                },
                MsgRef {
                    id: id(5),
                    dst: one(1),
                },
                MsgRef {
                    id: id(10),
                    dst: one(2),
                },
                MsgRef {
                    id: id(6),
                    dst: one(1),
                },
            ],
            edges: vec![
                te(1, 4, 2, 3),
                te(1, 5, 3, 4),
                te(1, 6, 4, 5),
                te(1, 7, 5, 6),
                te(2, 0, 10, 11),
            ],
        },
    }
}

#[test]
fn the_left_out_packet_writes_two_vertices_and_marks_three_edges() {
    let bytes = flexcast_wire::to_bytes(&left_out_packet()).unwrap();
    let hist = hex(&bytes[bytes.len() - 33..]);
    assert_eq!(
        hist,
        // Two written vertices: `m4` (header 1 + 521, word 3), `m10`
        // (header 9 + 2 + 521); then two runs, `g1`'s marked `0b1101`.
        "02 0104 8a04 03 010a 9404 02 01 04 0102 00 04 0103 0104 0105 0106 0d 02 00 010a 01 010b"
            .split_whitespace()
            .collect::<String>()
    );
    let back: Packet = decode_contained(&bytes).unwrap();
    assert_eq!(back, left_out_packet());
}

/// Every truncation and bit flip of [`left_out_packet`], and every byte
/// in turn replaced by a value at a boundary of the new form: the empty
/// `afters` that marks a run, the last bare header (520) and the first
/// tagged ones (521, 522), the last header of tag 1 and the first of tag
/// 2 (1041, 1042), the largest 63-bit mark word and one past it, and the
/// widest `u32`.
#[test]
fn every_mutation_of_a_left_out_packet_is_contained() {
    every_mutation_is_contained(
        left_out_packet(),
        &[
            &[0x00],
            &[0x88, 0x04],
            &[0x89, 0x04],
            &[0x8a, 0x04],
            &[0x91, 0x08],
            &[0x92, 0x08],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01],
            &[0xff, 0xff, 0xff, 0xff, 0x0f],
        ],
    );
}

/// No vertices written, then one `g1` run `m2 → m3` whose after is marked
/// by `bits`: the delta `{m3, {g1}}` with its in-edge when `bits` is 1.
fn marked_run(creator: &[u8], bits: &[u8]) -> Vec<u8> {
    let mut b = vec![0, 1];
    b.extend(creator);
    b.extend([0, 1, 2, 0, 1, 1, 3]);
    b.extend(bits);
    b
}

#[test]
fn a_marked_run_decodes_to_its_local() {
    let d: HistoryDelta = decode_contained(&marked_run(&[1], &[1])).unwrap();
    assert_eq!(
        d.verts,
        vec![MsgRef {
            id: id(3),
            dst: DestSet::singleton(GroupId(1))
        }]
    );
    assert_eq!(d.edges, vec![te(1, 0, 2, 3)]);
}

#[test]
fn a_written_vertex_the_rule_leaves_out_is_refused() {
    // `{m3, {g1}}` written (header 9 + 1), and its in-edge plain: the
    // encoder would have left it out.
    let why = delta_error(&[1, 1, 3, 10, 1, 1, 0, 1, 2, 1, 1, 3]);
    assert!(why.contains("not canonical"), "{why}");
}

#[test]
fn a_marked_run_that_marks_nothing_is_refused() {
    let why = delta_error(&marked_run(&[1], &[0]));
    assert!(why.contains("marks nothing"), "{why}");
}

#[test]
fn a_mark_past_its_run_is_refused() {
    let why = delta_error(&marked_run(&[1], &[3]));
    assert!(why.contains("past its run's end"), "{why}");
}

#[test]
fn a_marked_run_with_no_afters_is_refused() {
    let why = delta_error(&[0, 1, 1, 0, 1, 2, 0, 0]);
    assert!(why.contains("empty edge run"), "{why}");
}

#[test]
fn an_in_edge_whose_creator_no_set_holds_is_refused() {
    // Creator 512, one past the last rank: `{m3, {g512}}` cannot exist.
    let why = delta_error(&marked_run(&[0x80, 0x04], &[1]));
    assert!(why.contains("no destination set holds"), "{why}");
}

#[test]
fn more_left_out_vertices_than_marks_is_refused() {
    // `m9 → {g0, g2}` says two vertices were left out before it (header
    // 1 + 2 · 521 = 1043), and one edge is marked.
    let mut bytes = vec![1, 1, 9, 0x93, 0x08, 5];
    bytes.extend(&marked_run(&[1], &[1])[1..]);
    let why = delta_error(&bytes);
    assert!(why.contains("more left-out vertices than"), "{why}");
    // And a count a header merely claims — tag `u32::MAX` — holds no
    // more than its error.
    let mut bytes = vec![1, 1, 9];
    let mut header = u64::from(u32::MAX) * 521 + 1;
    while header >= 0x80 {
        bytes.push(header as u8 | 0x80);
        header >>= 7;
    }
    bytes.extend([header as u8, 5, 0]);
    let (res, peak) = peak_during(|| flexcast_wire::from_bytes::<HistoryDelta>(&bytes));
    assert!(res.is_err());
    assert!(peak <= 256, "{peak} bytes held for {bytes:02x?}");
}

#[test]
fn a_mark_the_rule_would_not_choose_is_refused() {
    // `g1`'s edge `m2 → m3` plain, then a second `g1` run `m7 → m3`
    // marked: the rule gives `{m3, {g1}}` the first edge into it.
    let bytes = [0, 2, 1, 0, 1, 2, 1, 1, 3, 1, 5, 1, 7, 0, 1, 1, 3, 1];
    let why = delta_error(&bytes);
    assert!(why.contains("not canonical"), "{why}");
}
