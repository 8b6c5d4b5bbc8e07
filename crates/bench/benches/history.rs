//! Micro-benchmarks for the history DAG — the data structure at the heart
//! of FlexCast's ordering (Strategy a) and the main cost the paper's
//! Figure 8 attributes to the protocol.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexcast_core::{History, HistoryDelta, MsgRef, TaggedEdge};
use flexcast_types::{ClientId, DestSet, GroupId, MsgId};
use std::hint::black_box;

fn id(seq: u32) -> MsgId {
    MsgId::new(ClientId(0), seq)
}

/// A chain history of `n` vertices, each addressed to two of 12 groups.
fn chain(n: u32) -> History {
    let mut h = History::new();
    for s in 0..n {
        h.record_delivery(
            MsgRef {
                id: id(s),
                dst: DestSet::from_iter([GroupId((s % 12) as u16), GroupId(((s + 1) % 12) as u16)]),
            },
            GroupId(3),
        );
    }
    h
}

fn delta(n: u32) -> HistoryDelta {
    let mut d = HistoryDelta::empty();
    for s in 0..n {
        d.verts.push(MsgRef {
            id: id(1_000_000 + s),
            dst: DestSet::from_iter([GroupId(0), GroupId(5)]),
        });
        if s > 0 {
            d.edges.push(TaggedEdge {
                creator: GroupId(7),
                idx: s - 1,
                before: id(1_000_000 + s - 1),
                after: id(1_000_000 + s),
            });
        }
    }
    d
}

fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("history_merge");
    for &n in &[64u32, 512, 2048] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = chain(256);
            let d = delta(n);
            b.iter(|| {
                let mut h = base.clone();
                h.merge(black_box(&d));
                black_box(h.len())
            });
        });
    }
    g.finish();
}

fn bench_blocking_predecessor(c: &mut Criterion) {
    let mut g = c.benchmark_group("history_blocking_predecessor");
    for &n in &[64u32, 512, 2048] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let h = chain(n);
            // `chain` delivers every vertex, so the walk cuts at the
            // direct predecessor.
            b.iter(|| black_box(h.blocking_predecessor(black_box(id(n - 1)), GroupId(3))));
        });
    }
    g.finish();
}

fn bench_reaches(c: &mut Criterion) {
    let h = chain(1024);
    c.bench_function("history_reaches_1024", |b| {
        b.iter(|| black_box(h.reaches(black_box(id(0)), black_box(id(1023)))));
    });
}

fn bench_prune(c: &mut Criterion) {
    c.bench_function("history_prune_1024", |b| {
        let base = chain(1024);
        b.iter(|| {
            let mut h = base.clone();
            let mut vc = [0usize; 4];
            let mut ec = [0usize; 4];
            black_box(h.prune_before(id(1023), &mut vc, &mut ec).len())
        });
    });
}

criterion_group!(
    benches,
    bench_merge,
    bench_blocking_predecessor,
    bench_reaches,
    bench_prune
);
criterion_main!(benches);
