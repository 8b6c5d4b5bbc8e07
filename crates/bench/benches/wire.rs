//! Micro-benchmarks for the wire codec used in framing and the Figure 8
//! message-size accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexcast_core::{HistoryDelta, MsgRef, Packet, TaggedEdge};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use std::hint::black_box;

fn packet(hist_len: u32) -> Packet {
    let mut hist = HistoryDelta::empty();
    for s in 0..hist_len {
        hist.verts.push(MsgRef {
            id: MsgId::new(ClientId(1), s),
            dst: DestSet::from_iter([GroupId(0), GroupId(3)]),
        });
        if s > 0 {
            hist.edges.push(TaggedEdge {
                creator: GroupId(0),
                idx: s - 1,
                before: MsgId::new(ClientId(1), s - 1),
                after: MsgId::new(ClientId(1), s),
            });
        }
    }
    Packet::Msg {
        msg: Message::new(
            MsgId::new(ClientId(9), 7),
            DestSet::from_iter([GroupId(0), GroupId(3)]),
            Payload::zeroes(96),
        )
        .expect("valid message"),
        notif_pairs: vec![(GroupId(0), GroupId(1))],
        hist,
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_encode_packet");
    for &n in &[0u32, 16, 128] {
        let p = packet(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            b.iter(|| black_box(flexcast_wire::to_bytes(black_box(p)).unwrap().len()));
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_decode_packet");
    for &n in &[0u32, 16, 128] {
        let bytes = flexcast_wire::to_bytes(&packet(n)).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &bytes, |b, bytes| {
            b.iter(|| {
                let p: Packet = flexcast_wire::from_bytes(black_box(bytes)).unwrap();
                black_box(p)
            });
        });
    }
    g.finish();
}

fn bench_size_only(c: &mut Criterion) {
    let p = packet(128);
    c.bench_function("wire_encoded_len_packet_128", |b| {
        b.iter(|| black_box(flexcast_wire::encoded_len(black_box(&p)).unwrap()));
    });
}

/// Full encode → decode round-trip: the end-to-end codec cost one packet
/// pays crossing a real network boundary (`flexcast-net` framing). Guards
/// against regressions that only show when both halves run back to back
/// (e.g. an encoder change that shifts work into the decoder).
fn bench_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_roundtrip_packet");
    for &n in &[0u32, 16, 128] {
        let p = packet(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &p, |b, p| {
            b.iter(|| {
                let bytes = flexcast_wire::to_bytes(black_box(p)).unwrap();
                let back: Packet = flexcast_wire::from_bytes(black_box(&bytes)).unwrap();
                black_box(back)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_size_only,
    bench_roundtrip
);
criterion_main!(benches);
