//! Golden-trace determinism tests.
//!
//! These digests were recorded from the pre-optimization simulator (the
//! `BinaryHeap` + `HashMap` side-table event queue and hashed link maps)
//! and pin the exact delivered-event sequence and checker verdict of two
//! reference runs — one fault-free, one under probabilistic `LinkFault`s.
//! The hot-path overhaul (inline heap payloads, flat link state, shared
//! payload buffers) must replay both byte-identically: any change to RNG
//! draw order, queue tie-breaking, or fault sampling shows up here as a
//! digest mismatch.

use flexcast_chaos::{run_schedule, FaultSchedule};
use flexcast_harness::replicated::{build_world, collect, replica_pid, ReplicatedConfig};
use flexcast_harness::{run, CheckReport, ExperimentConfig, ProtocolKind};
use flexcast_overlay::{presets, LatencyMatrix};
use flexcast_sim::{LinkFault, SimTime};
use flexcast_telemetry::Telemetry;
use flexcast_types::GroupId;

/// FNV-1a over a stream of u64 words: tiny, dependency-free, and stable.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Folds a per-node delivery trace and the checker verdict into one value.
fn trace_digest(trace: &[Vec<flexcast_harness::DeliveryEvent>], check: &CheckReport) -> u64 {
    let mut d = Digest::new();
    for (node, log) in trace.iter().enumerate() {
        d.word(node as u64);
        d.word(log.len() as u64);
        for ev in log {
            d.word(ev.id.sender.0 as u64);
            d.word(ev.id.seq as u64);
            d.word(ev.at.as_nanos());
        }
    }
    d.word(check.acyclic as u64);
    d.word(check.validity_violations.len() as u64);
    d.word(check.prefix_violations.len() as u64);
    d.word(check.integrity_violations.len() as u64);
    d.0
}

fn golden_config() -> ExperimentConfig {
    ExperimentConfig {
        protocol: ProtocolKind::FlexCast(presets::o1()),
        locality: 0.9,
        mode: flexcast_gtpcc::WorkloadMode::GlobalOnly,
        n_clients: 12,
        duration: SimTime::from_secs(2),
        seed: 7,
        jitter_ms: 1.0,
        flush_period: Some(SimTime::from_ms(400.0)),
        server_service_ms: 0.05,
        server_processing_ms: 20.0,
        // The goldens pin the pre-suppression protocol: no advert flow.
        advert_stride: None,
        telemetry: Telemetry::disabled(),
        shards: 0,
    }
}

/// Fault-free reference run: FlexCast O1 on the 12-region AWS matrix with
/// jitter and GC flushes — the configuration every figure bin builds on.
/// With telemetry disabled (the default) this doubles as the overhead
/// guard: the instrumented code paths must replay the pre-telemetry
/// recording byte-identically.
#[test]
fn golden_trace_fault_free() {
    let r = run(&golden_config());
    r.check.assert_ok();
    assert_eq!(
        (
            r.stats.events,
            r.completed,
            trace_digest(&r.trace, &r.check)
        ),
        GOLDEN_FAULT_FREE,
        "fault-free trace diverged from the pre-refactor recording"
    );
    assert!(r.metrics.is_empty(), "disabled telemetry left residue");
}

/// Telemetry is purely observational: the same golden run with tracing
/// and metrics fully enabled must produce the identical event count,
/// completion count, and delivered-trace digest — only the snapshot and
/// span buffer differ from the disabled run.
#[test]
fn golden_trace_unperturbed_by_telemetry() {
    let mut cfg = golden_config();
    cfg.telemetry = Telemetry::enabled();
    let r = run(&cfg);
    r.check.assert_ok();
    assert_eq!(
        (
            r.stats.events,
            r.completed,
            trace_digest(&r.trace, &r.check)
        ),
        GOLDEN_FAULT_FREE,
        "enabling telemetry perturbed the simulation"
    );
    assert!(!r.metrics.is_empty(), "enabled telemetry recorded metrics");
    assert!(cfg.telemetry.trace_len() > 0, "spans were recorded");
}

/// LinkFault reference run: replicated groups under drop/dup/reorder and a
/// latency spike, driven by a chaos schedule. Retransmission absorbs the
/// losses, so the run still completes — along a fault-sampling-dependent
/// path that pins the RNG draw order of the link-fault machinery.
#[test]
fn golden_trace_link_faults() {
    let n_groups: u16 = 3;
    let rf: u32 = 3;
    let mut cfg = ReplicatedConfig::small(n_groups, rf, 40);
    cfg.n_clients = 2;
    cfg.msgs_per_client = 6;

    let mut m = LatencyMatrix::zero(n_groups as usize);
    for a in 0..n_groups as usize {
        m.set_local(a, 0.5);
        for b in (a + 1)..n_groups as usize {
            m.set_rtt(a, b, 20.0 + 10.0 * ((a + b) % 3) as f64);
        }
    }

    // Lossy, duplicating, reordering link between group 0's and group 1's
    // lead replicas in both directions, plus a spike window on 0 → 2.
    let lossy = LinkFault {
        drop: 0.15,
        dup: 0.10,
        reorder: 0.25,
        extra_delay: SimTime::ZERO,
    };
    let a0 = replica_pid(GroupId(0), 0, rf);
    let b0 = replica_pid(GroupId(1), 0, rf);
    let c0 = replica_pid(GroupId(2), 0, rf);
    let schedule = FaultSchedule::new()
        .link_fault_between(0.0, 3_000.0, a0, b0, lossy)
        .link_fault_between(0.0, 3_000.0, b0, a0, lossy)
        .link_fault_between(500.0, 1_500.0, a0, c0, LinkFault::spike_ms(40.0));

    let mut world = build_world(&cfg, &m);
    run_schedule(&mut world, &schedule, 50_000_000);
    let r = collect(&cfg, &world);
    assert!(r.check.safety_ok(), "safety violated under link faults");
    assert_eq!(
        (
            r.events,
            r.completed,
            world.dropped_messages(),
            trace_digest(&r.trace, &r.check),
        ),
        GOLDEN_LINK_FAULTS,
        "link-fault trace diverged from the pre-refactor recording"
    );
}

/// `(events, completed, trace digest)` recorded from the seed simulator.
const GOLDEN_FAULT_FREE: (u64, u64, u64) = (1519, 239, 6087929938598119994);

/// `(events, completed, dropped, trace digest)` recorded likewise.
/// Re-recorded when ballot leader election became the replicated default:
/// heartbeat traffic shifts the event count and fault sampling, but the
/// delivered-trace digest is unchanged from the timeout-election era —
/// the election mechanism moves *when* a leader emerges, never what the
/// groups deliver. Re-recorded again when leaders began batching inputs
/// into one open slot at a time: fewer Paxos messages move the event
/// count and the fault sampling, and the digest again stays put.
/// Re-recorded when a new leader began proposing the inputs it inherits
/// as one batch after its takeover `Noop` commits, instead of one slot
/// each beside it: those inputs commit a round later, and this time the
/// delivered order moves with them (`(35105, 12, 17, 10328533749801288588)`
/// before). Re-recorded when a leader began sending each inter-group
/// packet to one replica of the destination, the tick's target, and
/// again to the next tick's target, instead of to all three at once; a
/// follower forwards it to its leader. There are 5 102 fewer events,
/// and the lossy `a0 → b0` link carries group 0's packets for group 1
/// only when `b0` is a target, so fewer messages drop and the delivered
/// order moves (`(35025, 12, 16, 1190306985904263308)` before).
/// Re-recorded when a leader went back to sending each fresh packet to
/// every replica of the destination, and the `Accept` of a slot it
/// proposes from its inbox began naming the inputs instead of carrying
/// them: no forwards, no second copy a tick later, and the delivered
/// order moves (`(29923, 12, 7, 10328533749801288588)` before).
const GOLDEN_LINK_FAULTS: (u64, u64, u64, u64) = (29889, 12, 6, 14322879085045399948);
