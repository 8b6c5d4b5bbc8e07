//! Telemetry determinism: two replays of the same seeded run — fault-free
//! or under a chaos schedule — must produce byte-identical metrics
//! snapshots and span logs.
//!
//! Everything telemetry records is derived from simulated time, actor
//! state, and caller-packed span ids; nothing reads wall clocks or
//! ambient randomness. These tests pin that property end to end, so any
//! accidental wall-clock read or iteration-order leak in an exporter
//! shows up as a JSON diff.

use flexcast_chaos::{run_schedule, scenarios};
use flexcast_harness::replicated::{build_world, collect, replica_pid, ReplicatedConfig};
use flexcast_harness::{run, ExperimentConfig, ProtocolKind};
use flexcast_overlay::{presets, LatencyMatrix};
use flexcast_sim::{ProcessId, SimTime};
use flexcast_telemetry::Telemetry;
use flexcast_types::GroupId;

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

fn group_pids(g: u16, rf: u32) -> Vec<ProcessId> {
    (0..rf).map(|r| replica_pid(GroupId(g), r, rf)).collect()
}

/// One traced chaos run: leader crash plus a WAN partition, telemetry
/// fully enabled. Returns `(metrics JSON, trace JSON)`.
fn traced_chaos_run() -> (String, String) {
    let rf = 3u32;
    let mut cfg = ReplicatedConfig::small(3, rf, 40);
    cfg.n_clients = 2;
    cfg.msgs_per_client = 6;
    cfg.telemetry = Telemetry::enabled();
    let schedule = scenarios::crash_recover(replica_pid(GroupId(0), 0, rf), 150.0, 1_000.0).merge(
        scenarios::wan_partition(&group_pids(1, rf), &group_pids(2, rf), 400.0, 1_200.0),
    );
    let m = matrix(3);
    let mut world = build_world(&cfg, &m);
    run_schedule(&mut world, &schedule, 50_000_000);
    let r = collect(&cfg, &world);
    assert!(r.check.safety_ok());
    assert!(!r.metrics.is_empty(), "traced run recorded metrics");
    (r.metrics.to_json(), cfg.telemetry.trace_json())
}

/// One traced fault-free unreplicated run. Returns the same pair.
fn traced_flexcast_run() -> (String, String) {
    let cfg = ExperimentConfig {
        telemetry: Telemetry::enabled(),
        duration: SimTime::from_secs(2),
        ..ExperimentConfig::latency(ProtocolKind::FlexCast(presets::o1()), 0.9)
    };
    let r = run(&cfg);
    r.check.assert_ok();
    (r.metrics.to_json(), cfg.telemetry.trace_json())
}

#[test]
fn seeded_chaos_telemetry_is_deterministic() {
    let (m1, t1) = traced_chaos_run();
    let (m2, t2) = traced_chaos_run();
    assert_eq!(m1, m2, "metrics snapshots diverged across replays");
    assert_eq!(t1, t2, "span logs diverged across replays");
}

#[test]
fn seeded_flexcast_telemetry_is_deterministic() {
    let (m1, t1) = traced_flexcast_run();
    let (m2, t2) = traced_flexcast_run();
    assert_eq!(m1, m2, "metrics snapshots diverged across replays");
    assert_eq!(t1, t2, "span logs diverged across replays");
}

#[test]
fn trace_json_is_chrome_trace_shaped() {
    let (metrics, trace) = traced_chaos_run();
    // Trace-event JSON object format: a traceEvents array of events with
    // phase, timestamp (µs), pid, and tid fields.
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace:.60}");
    assert!(trace.trim_end().ends_with("]}"));
    assert!(trace.contains("\"ph\":\"X\""), "complete spans present");
    assert!(trace.contains("\"ph\":\"b\""), "async begins present");
    assert!(trace.contains("\"ph\":\"e\""), "async ends present");
    assert!(trace.contains("\"ts\":"));
    assert!(trace.contains("\"pid\":"));
    // The metrics snapshot carries the histogram percentiles downstream
    // consumers (BENCH artifacts, ExperimentResult) read.
    assert!(metrics.contains("\"latency.complete_ns\""));
    assert!(metrics.contains("\"p999\":"));
    assert!(metrics.contains("\"smr.commands_applied\""));
}
