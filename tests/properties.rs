//! Property-based integration tests: the five atomic multicast properties
//! (§2.2) must hold for every protocol on randomized workloads, overlays,
//! network jitter, and garbage-collection settings.
//!
//! Runs ride on the deterministic simulator through the harness, so every
//! failure proptest finds is replayable from its seed.

use flexcast_gtpcc::WorkloadMode;
use flexcast_harness::{run_on, ExperimentConfig, ProtocolKind};
use flexcast_overlay::{presets, regions, CDagOrder, Tree};
use flexcast_sim::SimTime;
use flexcast_telemetry::Telemetry;
use flexcast_types::GroupId;
use proptest::prelude::*;

fn base_config(protocol: ProtocolKind, seed: u64, locality: f64, jitter: f64) -> ExperimentConfig {
    ExperimentConfig {
        protocol,
        locality,
        mode: WorkloadMode::GlobalOnly,
        n_clients: 12,
        duration: SimTime::from_secs(2),
        seed,
        jitter_ms: jitter,
        flush_period: Some(SimTime::from_ms(400.0)),
        server_service_ms: 0.05,
        server_processing_ms: 10.0,
        advert_stride: Some(16),
        telemetry: Telemetry::disabled(),
        shards: 0,
    }
}

/// An arbitrary permutation of the 12 nodes, as a C-DAG rank order.
fn arb_order() -> impl Strategy<Value = CDagOrder> {
    Just(()).prop_perturb(|_, mut rng| {
        let mut nodes: Vec<GroupId> = (0..12u16).map(GroupId).collect();
        // Fisher–Yates with proptest's rng keeps the case reproducible.
        for i in (1..nodes.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            nodes.swap(i, j);
        }
        CDagOrder::from_order(nodes).expect("permutation")
    })
}

/// An arbitrary tree over the 12 nodes: random parent below each node in
/// a random ordering.
fn arb_tree() -> impl Strategy<Value = Tree> {
    Just(()).prop_perturb(|_, mut rng| {
        let mut nodes: Vec<u16> = (0..12).collect();
        for i in (1..nodes.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            nodes.swap(i, j);
        }
        let mut parents = vec![None; 12];
        for i in 1..nodes.len() {
            let parent = nodes[(rng.next_u32() as usize) % i];
            parents[nodes[i] as usize] = Some(GroupId(parent));
        }
        Tree::from_parents(parents).expect("rooted tree")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn flexcast_satisfies_atomic_multicast_on_any_overlay(
        order in arb_order(),
        seed in 0u64..1_000,
        locality in 0.5f64..1.0,
        jitter in 0.0f64..15.0,
    ) {
        // Jitter 0 runs every case on exact link delays as well.
        for jitter in [jitter, 0.0] {
            let cfg = base_config(ProtocolKind::FlexCast(order.clone()), seed, locality, jitter);
            let r = run_on(&cfg, &regions::aws12());
            prop_assert!(r.check.all_ok(), "{:?}", r.check);
            prop_assert!(r.completed > 0);
            // Genuineness: zero payload overhead everywhere.
            for n in &r.per_node {
                prop_assert!(n.overhead.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn hierarchical_satisfies_atomic_multicast_on_any_tree(
        tree in arb_tree(),
        seed in 0u64..1_000,
        jitter in 0.0f64..15.0,
    ) {
        for jitter in [jitter, 0.0] {
            let cfg = base_config(ProtocolKind::Hierarchical(tree.clone()), seed, 0.9, jitter);
            let r = run_on(&cfg, &regions::aws12());
            prop_assert!(r.check.all_ok(), "{:?}", r.check);
            prop_assert!(r.completed > 0);
        }
    }

    #[test]
    fn skeen_satisfies_atomic_multicast(
        seed in 0u64..1_000,
        locality in 0.5f64..1.0,
        jitter in 0.0f64..15.0,
    ) {
        for jitter in [jitter, 0.0] {
            let cfg = base_config(ProtocolKind::Distributed, seed, locality, jitter);
            let r = run_on(&cfg, &regions::aws12());
            prop_assert!(r.check.all_ok(), "{:?}", r.check);
            prop_assert!(r.completed > 0);
            for n in &r.per_node {
                prop_assert!(n.overhead.abs() < 1e-9, "Skeen is genuine");
            }
        }
    }

    #[test]
    fn flexcast_gc_never_breaks_ordering(
        seed in 0u64..1_000,
        flush_ms in 100.0f64..800.0,
    ) {
        // `None` is GC off: histories only grow, nothing is ever pruned.
        for flush_period in [Some(SimTime::from_ms(flush_ms)), None] {
            let mut cfg = base_config(ProtocolKind::FlexCast(presets::o1()), seed, 0.9, 5.0);
            cfg.flush_period = flush_period;
            let r = run_on(&cfg, &regions::aws12());
            prop_assert!(r.check.all_ok(), "{:?}", r.check);
        }
    }

    #[test]
    fn full_workload_mode_holds_properties(
        seed in 0u64..1_000,
    ) {
        for protocol in [
            ProtocolKind::FlexCast(presets::o2()),
            ProtocolKind::Hierarchical(presets::t2()),
            ProtocolKind::Distributed,
        ] {
            let mut cfg = base_config(protocol, seed, 0.95, 5.0);
            cfg.mode = WorkloadMode::Full;
            let r = run_on(&cfg, &regions::aws12());
            prop_assert!(r.check.all_ok(), "{:?}", r.check);
        }
    }
}

/// Deterministic cross-protocol comparison on identical workloads: every
/// protocol must deliver exactly the registered messages (agreement), and
/// determinism must hold run to run.
#[test]
fn identical_seeds_identical_results_per_protocol() {
    for protocol in [
        ProtocolKind::FlexCast(presets::o1()),
        ProtocolKind::Hierarchical(presets::t1()),
        ProtocolKind::Distributed,
    ] {
        let cfg = base_config(protocol, 42, 0.9, 8.0);
        let a = run_on(&cfg, &regions::aws12());
        let b = run_on(&cfg, &regions::aws12());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.stats.events, b.stats.events);
        assert_eq!(a.trace.len(), b.trace.len());
        for (ta, tb) in a.trace.iter().zip(&b.trace) {
            let ida: Vec<_> = ta.iter().map(|e| e.id).collect();
            let idb: Vec<_> = tb.iter().map(|e| e.id).collect();
            assert_eq!(ida, idb, "delivery orders must be identical");
        }
    }
}
