//! Hostile bytes at the history-delta codec. A delta's edges travel as
//! chains (`HistoryDelta`'s wire form): a count of runs, each
//! `(creator, first idx, first before, afters)`. Whatever a peer sends,
//! decoding answers `Err` or a value that re-encodes to exactly the bytes
//! it came from, never panics, and never holds memory in proportion to a
//! length the bytes merely claim.

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

#[test]
fn every_flip_and_truncation_of_a_three_run_packet_is_contained() {
    let good = flexcast_wire::to_bytes(&three_run_packet()).expect("encodes");
    let back: Packet = decode_contained(&good).expect("the unmutated packet decodes");
    assert_eq!(back, three_run_packet());
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
    }
    // Flipped ids, indices and ranks are values too: many flips decode,
    // each to the one packet those bytes spell.
    assert!(accepted > 0);
}
