//! Hostile bytes at the state-transfer seam: whatever a peer sends as a
//! snapshot, `FlexCastGroup::restore` answers `Ok` or `Err` — it never
//! panics and never allocates more than a small multiple of the bytes it
//! was handed — and an engine it accepts agrees with itself (successors
//! mirror predecessors, the edge log names exactly the links) and runs:
//! it takes the rest of the fixture's honest run without a panic.
//!
//! The inputs are mutations of one valid snapshot, so most of them get
//! deep into decoding before something is wrong: single-bit flips (a slot
//! number, a length, a client id changes), truncations, splices of random
//! bytes, and fields widened to the top of their range.

mod common;

use common::peak_during;
use flexcast_core::{FlexCastGroup, History, Output, Packet};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn msg(seq: u32, ranks: &[u16]) -> Message {
    Message::new(
        MsgId::new(ClientId(9), seq),
        DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
        Payload::empty(),
    )
    .unwrap()
}

fn send_to(out: &[Output], to: GroupId) -> Packet {
    out.iter()
        .find_map(|o| match o {
            Output::Send { to: t, pkt } if *t == to => Some(pkt.clone()),
            _ => None,
        })
        .expect("a packet for that group")
}

/// The engine unit tests' mid-protocol fixture: C of three groups with
/// `m1` delivered and `m2` queued behind B's ack, so the snapshot holds
/// vertices, a link, its edge-log entry, a queue and a pending entry. With
/// it, the rest of the run as C gets it: B's ack for `m2`, then A's flush
/// and B's ack for it, whose delivery prunes the history.
fn mid_protocol_snapshot() -> (Vec<u8>, Vec<(GroupId, Packet)>) {
    let (a_id, b_id, c_id) = (GroupId(0), GroupId(1), GroupId(2));
    let mut a = FlexCastGroup::new(a_id, 3);
    let mut b = FlexCastGroup::new(b_id, 3);
    let mut c = FlexCastGroup::new(c_id, 3);
    let mut out1 = Vec::new();
    a.on_client(msg(1, &[0, 2]), &mut out1);
    let mut out2 = Vec::new();
    a.on_client(msg(2, &[0, 1, 2]), &mut out2);
    c.on_packet(a_id, send_to(&out1, c_id), &mut Vec::new());
    c.on_packet(a_id, send_to(&out2, c_id), &mut Vec::new());
    assert_eq!((c.delivered_count(), c.backlog()), (1, 1));
    assert_eq!(c.history().edge_count(), 1);
    let snapshot = c.snapshot().expect("snapshot encodes");

    let mut out_b = Vec::new();
    b.on_packet(a_id, send_to(&out2, b_id), &mut out_b);
    let mut rest = vec![(b_id, send_to(&out_b, c_id))];
    let mut out_a = Vec::new();
    a.on_client(
        FlexCastGroup::flush_message(MsgId::new(ClientId(8), 0), 3),
        &mut out_a,
    );
    rest.push((a_id, send_to(&out_a, c_id)));
    let mut out_b = Vec::new();
    b.on_packet(a_id, send_to(&out_a, b_id), &mut out_b);
    rest.push((b_id, send_to(&out_b, c_id)));
    for (from, pkt) in &rest {
        c.on_packet(*from, pkt.clone(), &mut Vec::new());
    }
    assert_eq!((c.delivered_count(), c.history().len()), (3, 1), "pruned");
    (snapshot, rest)
}

/// What `restore` may hold at its peak for `len` input bytes. A decoded
/// value is larger than its encoding by a bounded factor — a vertex is
/// five bytes on the wire with its flag byte and 97 in memory with its
/// list ends, visit mark and index entry, an edge six bytes and 40 with
/// its link, and a growing `Vec` doubles; the valid fixture peaks at 35 ×
/// its length (3 480 bytes held for 100 — the compact destination sets
/// and prefix counts shrink a snapshot, not what it decodes to) — and the
/// fixed part covers the error string and the index's first windows.
fn allowance(len: usize) -> usize {
    2048 + 64 * len
}

/// What `restore` must guarantee about a history it accepts, whatever
/// the bytes were: `succs_of` is the exact mirror of `preds_of`, and the
/// edge log holds each of those links once and nothing else.
fn assert_self_consistent(h: &History) {
    let (mut backward, mut forward) = (BTreeSet::new(), BTreeSet::new());
    for v in h.verts() {
        for p in h.preds_of(v.id) {
            assert!(backward.insert((p, v.id)), "{p} → {} listed twice", v.id);
        }
        for s in h.succs_of(v.id) {
            assert!(forward.insert((v.id, s)), "{} → {s} listed twice", v.id);
        }
    }
    assert_eq!(forward, backward, "successors mirror predecessors");
    let log = h.edges_since(0);
    let logged: BTreeSet<(MsgId, MsgId)> = log.iter().map(|e| (e.before, e.after)).collect();
    assert_eq!(logged.len(), log.len(), "an edge logged twice");
    assert_eq!(logged, backward, "the edge log names exactly the links");
}

/// Restores from `bytes` (a panic fails the test), checks the peak
/// against the allowance and an accepted engine against itself, runs an
/// accepted engine through `rest`, and returns the retained-vertex count
/// of an accepted snapshot with the peak.
fn restore_is_contained(bytes: &[u8], rest: &[(GroupId, Packet)]) -> (Option<usize>, usize) {
    let (res, peak) = peak_during(|| FlexCastGroup::restore(bytes));
    assert!(
        peak <= allowance(bytes.len()),
        "{peak} bytes held for {} bytes of input ({:?})",
        bytes.len(),
        res.as_ref().map(|g| g.history().len())
    );
    let verts = res.ok().map(|mut g| {
        assert_self_consistent(g.history());
        let verts = g.history().len();
        for (from, pkt) in rest {
            g.on_packet(*from, pkt.clone(), &mut Vec::new());
        }
        verts
    });
    (verts, peak)
}

#[test]
fn the_fixture_restores_within_the_allowance() {
    let (snapshot, rest) = mid_protocol_snapshot();
    let (verts, peak) = restore_is_contained(&snapshot, &rest);
    assert_eq!(verts, Some(2), "the unmutated snapshot is valid");
    assert!(peak > 0, "the counting allocator is installed");
}

/// A destination set's header is the one length this workspace's own
/// `Deserialize` code reads. Whatever it claims, the words land in the
/// set's fixed array: a header of `u32::MAX` in front of two bytes (out
/// of range), and header 9 — `{g0}` — followed by nine stray words, both
/// fail holding no more than their error message.
#[test]
fn a_hostile_dest_set_length_allocates_only_its_error() {
    let claims: [&[u8]; 2] = [
        &[0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1],
        &[9, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    ];
    for bytes in claims {
        let (res, peak) = peak_during(|| flexcast_wire::from_bytes::<DestSet>(bytes));
        assert!(res.is_err(), "{bytes:?} decoded to {res:?}");
        assert!(peak <= 256, "{peak} bytes held for {bytes:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn restore_survives_hostile_bytes(
        kind in 0u8..3,
        at in any::<u32>(),
        bit in 0u32..8,
        noise in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let (mut bytes, rest) = mid_protocol_snapshot();
        let at = at as usize % bytes.len();
        match kind {
            0 => bytes[at] ^= 1 << bit,
            1 => bytes.truncate(at),
            _ => {
                // Overwrite from `at`, or insert there, by the noise's parity.
                let end = if noise[0] % 2 == 0 { (at + noise.len()).min(bytes.len()) } else { at };
                bytes.splice(at..end, noise);
            }
        }
        restore_is_contained(&bytes, &rest);
    }
}

/// Every single-bit flip and every truncation of the fixture, not a
/// sample of them (the snapshot is a few hundred bytes), and every byte
/// in turn widened to the largest `u32` varint — so each id, seq, slot
/// and length field gets a value from the top of its range.
#[test]
fn restore_survives_every_flip_truncation_and_widened_field() {
    const U32_MAX_LEB128: [u8; 5] = [0xff, 0xff, 0xff, 0xff, 0x0f];
    let (good, rest) = mid_protocol_snapshot();
    for at in 0..good.len() {
        restore_is_contained(&good[..at], &rest);
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << bit;
            restore_is_contained(&bytes, &rest);
        }
        let mut bytes = good.clone();
        bytes.splice(at..=at, U32_MAX_LEB128);
        restore_is_contained(&bytes, &rest);
    }
}
