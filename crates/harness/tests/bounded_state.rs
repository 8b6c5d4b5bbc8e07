//! Structures that grow for the whole run, each held to the bound its
//! documentation states.
//!
//! The replicated outbox (`Outbox`) grows by one entry per inter-group
//! send and is never truncated. What it holds per entry is stated
//! exactly: the packet's wire encoding in one byte arena, plus one index
//! record. Its heap is that, at the capacities a `Vec` grows to.

use flexcast_harness::replicated::{build_world, Outbox, ReplNode, ReplicatedConfig};
use flexcast_overlay::LatencyMatrix;
use flexcast_telemetry::Telemetry;

fn matrix(n: usize) -> LatencyMatrix {
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            m.set_rtt(a, b, 20.0 + 10.0 * ((a + b) % 3) as f64);
        }
    }
    m
}

/// Every replica of an rf = 3 world, run to quiescence under enough load
/// that outboxes outgrow one retransmission window: the arena holds
/// exactly the encodings of the entries' packets, the heap is at most
/// twice the arena and index together, and the exported gauges read the
/// same numbers.
#[test]
fn an_outbox_holds_its_packets_encodings_and_at_most_twice_that_on_the_heap() {
    let mut cfg = ReplicatedConfig::small(3, 3, 13);
    cfg.n_clients = 4;
    cfg.msgs_per_client = 40;
    let mut world = build_world(&cfg, &matrix(3));
    world.run_to_quiescence(50_000_000);

    let mut largest = 0;
    for pid in 0..world.len() {
        let ReplNode::Replica(r) = world.actor(pid) else {
            continue;
        };
        let outbox = r.state().outbox();
        let encoded: usize = outbox
            .iter()
            .map(|entry| {
                let (_, _, pkt) = entry.expect("an entry decodes");
                flexcast_wire::encoded_len(&pkt).expect("a packet sizes")
            })
            .sum();
        assert_eq!(outbox.arena_len(), encoded, "pid {pid}");
        let bound = 2 * (encoded + Outbox::INDEX_ENTRY_BYTES * outbox.len());
        assert!(
            outbox.heap_bytes() <= bound,
            "pid {pid}: {} heap bytes > {bound}",
            outbox.heap_bytes()
        );
        largest = largest.max(outbox.len());

        let tel = Telemetry::enabled();
        r.export_metrics(&tel);
        let gauges = tel.snapshot().gauges;
        let gauge = |name: &str| {
            gauges
                .iter()
                .find(|(k, _)| k.ends_with(name))
                .map(|(_, v)| *v)
        };
        assert_eq!(gauge(".outbox.entries"), Some(outbox.len() as f64));
        assert_eq!(
            gauge(".outbox.heap_bytes"),
            Some(outbox.heap_bytes() as f64)
        );
    }
    assert!(largest > 64, "an outbox outgrew one window: {largest}");
}
