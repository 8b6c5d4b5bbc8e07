//! The benchmark's fixed vocabulary: workload names and why each exists,
//! every metric with its unit, direction and (for end-to-end metrics)
//! regression bound. `BENCHMARK.json` at the repository root states the
//! same thing for the driver; a unit test keeps the two in step.

/// Which way is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a workload is driven.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Unreplicated servers in the simulator.
    Sim,
    /// Paxos-replicated groups in the simulator, under a fault schedule.
    Replicated,
    /// Real sockets on loopback.
    Tcp,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it is in the set (one line).
    pub why: &'static str,
    /// Which driver runs it.
    pub kind: Kind,
}

impl Workload {
    /// True for the simulated worlds: their model-clock columns repeat
    /// exactly for a given seed, so `compare` demands equality.
    pub fn simulated(&self) -> bool {
        self.kind != Kind::Tcp
    }
}

/// The five workloads, in canonical order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "wan12",
        why: "paper deployment: 12 AWS regions, plain protocol, small deltas; per-packet engine dispatch and harness bookkeeping dominate, history merging does little",
        kind: Kind::Sim,
    },
    Workload {
        name: "wan12_sh2",
        why: "the same world through two shard queues merged on one thread: must replay wan12's columns exactly; the threaded executor's cost rides along per layer because it does not repeat on 2 cores",
        kind: Kind::Sim,
    },
    Workload {
        name: "scale128",
        why: "128 groups with suppression: ~130-entry deltas, ~250 suppressed-entry visits per event, deep queues; History merge, diff_hst filtering, wire_size and memory weigh most here",
        kind: Kind::Sim,
    },
    Workload {
        name: "repl12_crash",
        why: "rf=3 Paxos groups with the rank-0 leader crashed and recovered: the only run of accept/commit, BLE, retransmission and failover; smr and the replicated harness dominate",
        kind: Kind::Replicated,
    },
    Workload {
        name: "tcp3",
        why: "three groups over real loopback TCP: the only run of the wire codec, framing and sockets, which the simulator bypasses by passing values in memory",
        kind: Kind::Tcp,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median the metric may worsen by before it
    /// counts as a regression.
    pub bound: f64,
    /// True if the value is a pure function of the seed on simulated
    /// workloads (then `compare` demands equality there, bound or not).
    pub exact_when_simulated: bool,
}

/// The end-to-end metrics, reported by every workload with `--trace 0`.
///
/// *Model clock* means simulated time in the four simulated worlds and
/// the wall clock on `tcp3`, which has no model.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact_when_simulated: false,
    },
    EndToEnd {
        name: "model_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact_when_simulated: true,
    },
    EndToEnd {
        name: "model_lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact_when_simulated: true,
    },
    EndToEnd {
        name: "model_lat_global_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact_when_simulated: true,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
        exact_when_simulated: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact_when_simulated: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact_when_simulated: false,
    },
];

/// Looks an end-to-end metric up by name.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric: `(name, unit, direction)`. Reported by every
/// workload with `--trace 1`; a layer the workload does not exercise
/// reports 0.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer ledger. The prefix is the layer (= crate).
pub const PER_LAYER: [PerLayer; 70] = [
    // flexcast-sim and the host process around it.
    ("sim.events_per_op", "count", Lower),
    ("sim.msgs_per_op", "count", Lower),
    ("sim.peak_queue_depth", "count", Lower),
    ("sim.shard_max_share", "ratio", Lower),
    ("sim.self_us_per_event", "us", Lower),
    ("sim.relay_ns_per_event", "ns", Lower),
    ("sim.threads_wall_ratio", "ratio", Lower),
    ("sim.threads_self_us_per_event", "us", Lower),
    ("host.wall_s", "s", Lower),
    ("host.cpu_s", "s", Lower),
    // flexcast-harness: the actors between simulator and engines.
    ("harness.server_cb_us", "us", Lower),
    ("harness.server_cb_p99_us", "us", Lower),
    ("harness.client_cb_us", "us", Lower),
    ("harness.server_self_us", "us", Lower),
    ("harness.repl_cb_us.paxos", "us", Lower),
    ("harness.repl_cb_us.ble", "us", Lower),
    ("harness.repl_cb_us.groupmsg", "us", Lower),
    ("harness.repl_cb_us.client", "us", Lower),
    ("harness.repl_cb_us.snapshot", "us", Lower),
    ("harness.repl_timer_cb_us", "us", Lower),
    // flexcast-core: the protocol engine and its history.
    ("core.on_client_us", "us", Lower),
    ("core.on_packet_us.msg", "us", Lower),
    ("core.on_packet_us.ack", "us", Lower),
    ("core.on_packet_us.notif", "us", Lower),
    ("core.on_packet_us.advert", "us", Lower),
    ("core.history_merge_ns_per_entry", "ns", Lower),
    ("core.delta_entries_per_event", "count", Lower),
    ("core.dup_ratio", "ratio", Lower),
    ("core.suppressed_per_event", "count", Lower),
    ("core.adverts_per_op", "count", Lower),
    ("core.history_verts_end", "count", Lower),
    ("core.backlog_end", "count", Lower),
    // flexcast-wire: sizing and the codec.
    ("wire.size_ns_per_msg", "ns", Lower),
    ("wire.encode_ns_per_byte", "ns", Lower),
    ("wire.decode_ns_per_byte", "ns", Lower),
    ("wire.bytes_per_msg", "B", Lower),
    // flexcast-net: framing, sockets, threads.
    ("net.send_ns", "ns", Lower),
    ("net.transit_p50_us", "us", Lower),
    ("net.frame_codec_ns", "ns", Lower),
    ("net.frames_per_op", "count", Lower),
    ("net.bytes_per_frame", "B", Lower),
    ("net.lat_p99_us", "us", Lower),
    // flexcast-smr and flexcast-chaos.
    ("smr.commit_us", "us", Lower),
    ("smr.msgs_per_commit", "count", Lower),
    ("smr.ble_tick_ns", "ns", Lower),
    ("smr.elections", "count", Lower),
    ("smr.snapshot_installs", "count", Lower),
    ("smr.catch_up_bytes", "B", Lower),
    ("chaos.failover_sim_ms", "ms", Lower),
    ("chaos.outage_sim_ms", "ms", Lower),
    ("chaos.actions_fired", "count", Lower),
    ("chaos.dropped_msgs", "count", Lower),
    // flexcast-gtpcc, flexcast-overlay, and the tracing itself.
    ("gtpcc.next_txn_ns", "ns", Lower),
    ("overlay.order_build_ms", "ms", Lower),
    ("telemetry.trace_overhead_pct", "%", Lower),
    ("telemetry.spans_kept", "count", Higher),
    ("telemetry.spans_dropped", "count", Lower),
    // Tail latencies that do not repeat across seeds well enough to gate
    // (see README "Demoted metrics"); reported, not bounded.
    ("model.lat_p99_ms", "ms", Lower),
    ("model.lat_global_p99_ms", "ms", Lower),
    ("model.lat_samples", "count", Higher),
    ("model.lat_global_samples", "count", Higher),
    // Where the traced run's host time went, as shares of its wall time.
    ("share.sim_self_pct", "%", Lower),
    ("share.harness_server_self_pct", "%", Lower),
    ("share.harness_repl_pct", "%", Lower),
    ("share.core_pct", "%", Lower),
    ("share.wire_size_pct", "%", Lower),
    ("share.wire_codec_pct", "%", Lower),
    ("share.net_pct", "%", Lower),
    ("share.client_cb_pct", "%", Lower),
    ("share.accounted_pct", "%", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("string field {key}"))
    }

    #[test]
    fn benchmark_json_states_the_same_vocabulary() {
        let b = benchmark_json();
        let keys: Vec<&str> = b.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let wl = b.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(wl.len(), WORKLOADS.len());
        for (j, w) in wl.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e2e = b.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.word());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let pl = b.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(pl.len(), PER_LAYER.len());
        for (j, (name, unit, better)) in pl.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), *name);
            assert_eq!(field(j, "unit"), *unit);
            assert_eq!(field(j, "better"), better.word());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(
                ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name),
                "{}",
                m.name
            );
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(
                ok_name(name) && ok_unit(unit) && seen.insert(name),
                "{name}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    }
}
