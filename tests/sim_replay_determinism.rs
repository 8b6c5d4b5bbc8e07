//! Replay determinism suite for the simulation core.
//!
//! The contract under test: two runs of a `World` from the same seed
//! produce the *same execution* — the same delivered sequences, checker
//! verdicts, drop counts, and fired-action traces, byte for byte. Every
//! routing decision (RNG draws, sequence numbers, FIFO clamps, fault
//! sampling) comes from the world's seeded state and its one totally
//! ordered event queue. These tests run arbitrary topologies, seeds, and
//! fault schedules, and reactive adversaries, twice each and compare
//! everything.

use flexcast_chaos::{
    run_adversary, run_schedule, scenarios, Adversary, FaultCtx, FaultEvent, FaultSchedule,
    ScheduleAdversary,
};
use flexcast_gtpcc::{Generator, WorkloadConfig};
use flexcast_harness::actors::{
    ClientActor, EntryPolicy, FlushActor, Node, ServerActor, ServerStats,
};
use flexcast_harness::replicated::{
    build_world, collect, replica_pid, ReplicatedConfig, ReplicatedResult,
};
use flexcast_harness::{DeliveryEvent, NetMsg};
use flexcast_overlay::{CDagOrder, LatencyMatrix};
use flexcast_sim::{Actor, Ctx, LinkFault, LinkModel, Observation, ProcessId, SimTime, World};
use flexcast_types::{ClientId, GroupId, MsgId};
use proptest::prelude::*;

const MAX_EVENTS: u64 = 50_000_000;

/// Everything a run can disagree on, flattened for `assert_eq!`.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    events: u64,
    completed: u64,
    dropped: u64,
    issued: usize,
    trace: Vec<Vec<DeliveryEvent>>,
    replica_logs: Vec<Vec<Vec<MsgId>>>,
    check: (bool, usize, usize, usize),
}

fn fingerprint(r: ReplicatedResult) -> Fingerprint {
    Fingerprint {
        events: r.events,
        completed: r.completed,
        dropped: r.dropped,
        issued: r.issued,
        trace: r.trace,
        replica_logs: r.replica_logs,
        check: (
            r.check.acyclic,
            r.check.validity_violations.len(),
            r.check.prefix_violations.len(),
            r.check.integrity_violations.len(),
        ),
    }
}

fn matrix(n: usize) -> LatencyMatrix {
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            m.set_rtt(a, b, 18.0 + 9.0 * ((a * 5 + b) % 4) as f64);
        }
    }
    m
}

/// One arbitrary fault drawn by proptest; rendered into a
/// [`FaultSchedule`] against a concrete topology.
#[derive(Clone, Debug)]
enum Fault {
    CrashRecover {
        pid_ix: usize,
        crash_ms: f64,
        down_ms: f64,
    },
    LinkLoss {
        a_ix: usize,
        b_ix: usize,
        start_ms: f64,
        dur_ms: f64,
        drop: f64,
        dup: f64,
    },
    Spike {
        a_ix: usize,
        b_ix: usize,
        start_ms: f64,
        dur_ms: f64,
        extra_ms: f64,
    },
}

/// Draws 0–3 faults from the vendored proptest's perturb RNG (the same
/// reproducible-case pattern `tests/properties.rs` uses for overlays).
fn arb_faults() -> impl Strategy<Value = Vec<Fault>> {
    Just(()).prop_perturb(|_, mut rng| {
        let n = rng.below(4) as usize;
        (0..n)
            .map(|_| match rng.below(3) {
                0 => Fault::CrashRecover {
                    pid_ix: rng.below(64) as usize,
                    crash_ms: 40.0 + rng.next_f64() * 560.0,
                    down_ms: 150.0 + rng.next_f64() * 1_350.0,
                },
                1 => Fault::LinkLoss {
                    a_ix: rng.below(64) as usize,
                    b_ix: rng.below(64) as usize,
                    start_ms: rng.next_f64() * 400.0,
                    dur_ms: 300.0 + rng.next_f64() * 2_200.0,
                    drop: rng.next_f64() * 0.25,
                    dup: rng.next_f64() * 0.15,
                },
                _ => Fault::Spike {
                    a_ix: rng.below(64) as usize,
                    b_ix: rng.below(64) as usize,
                    start_ms: rng.next_f64() * 500.0,
                    dur_ms: 200.0 + rng.next_f64() * 1_300.0,
                    extra_ms: 5.0 + rng.next_f64() * 55.0,
                },
            })
            .collect()
    })
}

fn render(faults: &[Fault], n_pids: usize) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for f in faults {
        match *f {
            Fault::CrashRecover {
                pid_ix,
                crash_ms,
                down_ms,
            } => {
                let pid = (pid_ix % n_pids) as ProcessId;
                s = s.merge(scenarios::crash_recover(pid, crash_ms, down_ms));
            }
            Fault::LinkLoss {
                a_ix,
                b_ix,
                start_ms,
                dur_ms,
                drop,
                dup,
            } => {
                let a = (a_ix % n_pids) as ProcessId;
                let b = (b_ix % n_pids) as ProcessId;
                if a == b {
                    continue;
                }
                let fault = LinkFault {
                    drop,
                    dup,
                    reorder: 0.0,
                    extra_delay: SimTime::ZERO,
                };
                s = s.link_fault_between(start_ms, start_ms + dur_ms, a, b, fault);
            }
            Fault::Spike {
                a_ix,
                b_ix,
                start_ms,
                dur_ms,
                extra_ms,
            } => {
                let a = (a_ix % n_pids) as ProcessId;
                let b = (b_ix % n_pids) as ProcessId;
                if a == b {
                    continue;
                }
                s = s.latency_spike(start_ms, start_ms + dur_ms, &[a, b], extra_ms);
            }
        }
    }
    s
}

/// Runs one replicated scenario through `run_adversary` (so the
/// fired-action trace is captured too) and returns everything comparable.
fn run_scenario(
    n_groups: u16,
    seed: u64,
    schedule: &FaultSchedule,
) -> (Fingerprint, Vec<(SimTime, FaultEvent)>) {
    let mut cfg = ReplicatedConfig::small(n_groups, 3, seed);
    cfg.msgs_per_client = 4;
    cfg.stop_at = SimTime::from_secs(12);
    let m = matrix(n_groups as usize);
    let mut world = build_world(&cfg, &m);
    let mut adv = ScheduleAdversary::new(schedule.clone());
    let run = run_adversary(&mut world, &mut adv, MAX_EVENTS);
    let r = collect(&cfg, &world);
    (fingerprint(r), run.actions)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Arbitrary topology, seed, and fault schedule: a replay delivers
    /// byte-identical sequences, checker digests, drop counts, and
    /// fired-action traces.
    #[test]
    fn arbitrary_runs_replay_byte_for_byte(
        n_groups in 2u16..=4,
        seed in 0u64..1_000_000,
        faults in arb_faults(),
    ) {
        let n_pids = n_groups as usize * 3;
        let schedule = render(&faults, n_pids);
        let (base, base_actions) = run_scenario(n_groups, seed, &schedule);
        let (fp, actions) = run_scenario(n_groups, seed, &schedule);
        prop_assert_eq!(&fp, &base, "replay diverged");
        prop_assert_eq!(&actions, &base_actions, "replayed actions diverged");
    }
}

/// A reactive leader-hunter — crash every new leader of group 0 as it
/// emerges — fires at observation-dependent times; its fired actions and
/// the world it leaves behind must be identical on a replay.
#[test]
fn leader_hunter_trace_replays_byte_for_byte() {
    let run_hunt = || {
        let mut cfg = ReplicatedConfig::small(3, 3, 11);
        cfg.msgs_per_client = 4;
        let m = matrix(3);
        let mut world = build_world(&cfg, &m);
        let mut hunter = scenarios::leader_hunter(GroupId(0), 250.0, 3).hold_ms(1_200.0);
        let run = run_adversary(&mut world, &mut hunter, MAX_EVENTS);
        (fingerprint(collect(&cfg, &world)), run.actions)
    };
    let (base, base_actions) = run_hunt();
    assert!(
        base_actions
            .iter()
            .any(|(_, ev)| matches!(ev, FaultEvent::Crash(_))),
        "the hunter actually hunted"
    );
    let (fp, actions) = run_hunt();
    assert_eq!(fp, base, "leader-hunter world diverged on replay");
    assert_eq!(actions, base_actions, "fired actions diverged on replay");
}

/// Same for the quorum-cutter: its observation-triggered link cuts and
/// the resulting failovers replay exactly.
#[test]
fn quorum_cutter_trace_replays_byte_for_byte() {
    let run_cut = || {
        let mut cfg = ReplicatedConfig::small(3, 3, 23);
        cfg.msgs_per_client = 4;
        let m = matrix(3);
        let mut world = build_world(&cfg, &m);
        let pids: Vec<ProcessId> = (0..3).map(|r| replica_pid(GroupId(0), r, 3)).collect();
        let mut cutter = scenarios::quorum_cutter(GroupId(0), pids, 150.0, 5_000.0, 2);
        let run = run_adversary(&mut world, &mut cutter, MAX_EVENTS);
        (fingerprint(collect(&cfg, &world)), run.actions)
    };
    let (base, base_actions) = run_cut();
    assert!(
        base_actions
            .iter()
            .any(|(_, ev)| matches!(ev, FaultEvent::BlockLink { .. })),
        "the cutter actually cut"
    );
    let (fp, actions) = run_cut();
    assert_eq!(fp, base, "quorum-cutter world diverged on replay");
    assert_eq!(actions, base_actions, "fired actions diverged on replay");
}

/// A [`ScheduleAdversary`] that asks for observations, which puts
/// `run_adversary` on its per-event step loop instead of the batched
/// `run_until` path that `run_schedule` takes.
struct Stepping(ScheduleAdversary);

impl Adversary for Stepping {
    fn on_start(&mut self, ctx: &mut FaultCtx) {
        self.0.on_start(ctx);
    }

    fn on_observation(&mut self, obs: &Observation, ctx: &mut FaultCtx) {
        self.0.on_observation(obs, ctx);
    }
}

/// `run_schedule`'s batched fast path and `run_adversary`'s step loop
/// run the same schedule from the same seed into the same execution.
#[test]
fn run_schedule_matches_run_adversary() {
    let schedule = scenarios::crash_recover(replica_pid(GroupId(0), 0, 3), 120.0, 900.0).merge(
        scenarios::wan_partition(
            &[replica_pid(GroupId(1), 0, 3)],
            &[replica_pid(GroupId(2), 0, 3)],
            300.0,
            800.0,
        ),
    );
    let mut cfg = ReplicatedConfig::small(3, 3, 5);
    cfg.msgs_per_client = 4;
    let m = matrix(3);
    let mut world = build_world(&cfg, &m);
    run_schedule(&mut world, &schedule, MAX_EVENTS);
    let batched = fingerprint(collect(&cfg, &world));
    let mut world = build_world(&cfg, &m);
    let mut stepping = Stepping(ScheduleAdversary::new(schedule.clone()));
    let run = run_adversary(&mut world, &mut stepping, MAX_EVENTS);
    assert_eq!(run.actions.len(), schedule.sorted_events().len());
    assert_eq!(fingerprint(collect(&cfg, &world)), batched);
}

// ---------------------------------------------------------------------------
// Carried message sizes (a send is sized once, by its sender)
// ---------------------------------------------------------------------------

/// A [`Node`] that also adds up the encoded size of every client message
/// it is handed — the one kind of traffic no server sizes at send.
struct Tap {
    node: Node,
    client_bytes: u64,
}

impl Actor<NetMsg> for Tap {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        if matches!(msg, NetMsg::Client { .. }) {
            self.client_bytes += msg.wire_size() as u64;
        }
        self.node.on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        self.node.on_timer(token, ctx);
    }
}

/// Runs a fault-free 4-server FlexCast world (suppression on, periodic
/// flushes) and returns every server's traffic stats, the bytes of the
/// replies they sent, and the client bytes they were handed.
fn flexcast_traffic() -> (Vec<ServerStats>, u64, u64) {
    const SERVERS: usize = 4;
    const CLIENTS: usize = 8;
    let m = matrix(SERVERS);
    let order = CDagOrder::identity(SERVERS);
    let entry = EntryPolicy::Flex(order.clone());
    let stop = SimTime::from_ms(600.0);
    let mut nodes = Vec::new();
    let mut sites = Vec::new();
    for node in (0..SERVERS as u16).map(GroupId) {
        let server = ServerActor::flexcast(node, SERVERS, order.clone(), Some(4));
        nodes.push(Node::Server(server));
        sites.push(node);
    }
    for c in 0..CLIENTS {
        let home = GroupId((c % SERVERS) as u16);
        let generator = Generator::new(WorkloadConfig::full(0.5), &m, 40 + c as u64);
        let id = ClientId(c as u32);
        let client = ClientActor::new(id, home, SERVERS, generator, entry.clone(), stop);
        nodes.push(Node::Client(client));
        sites.push(home);
    }
    let flusher = FlushActor::new(
        ClientId(CLIENTS as u32),
        SERVERS,
        entry,
        SimTime::from_ms(150.0),
        stop,
    );
    nodes.push(Node::Flusher(flusher));
    sites.push(GroupId(0));

    let taps = nodes
        .into_iter()
        .map(|node| Tap {
            node,
            client_bytes: 0,
        })
        .collect();
    let mut world = World::new(taps, LinkModel::new(m, sites, 2.0), 9);
    world.run_to_quiescence(MAX_EVENTS);

    let mut stats = Vec::new();
    let (mut reply_bytes, mut client_bytes) = (0, 0);
    for pid in 0..SERVERS {
        let tap = world.actor(pid);
        let Node::Server(server) = &tap.node else {
            panic!("servers come first");
        };
        stats.push(server.stats.clone());
        client_bytes += tap.client_bytes;
        reply_bytes += server
            .deliveries
            .iter()
            .map(|d| NetMsg::Reply { id: d.id }.wire_size() as u64)
            .sum::<u64>();
    }
    (stats, reply_bytes, client_bytes)
}

/// Every byte a server charges on receive was charged once on send:
/// what the servers received is what they sent each other (their sends
/// minus the replies, which go to clients) plus what clients sent them.
/// A server reads the size its peer attached and sizes only client
/// messages itself; debug builds also assert each carried size against
/// the message. And a replay gives the same numbers.
#[test]
fn received_bytes_are_the_bytes_senders_charged() {
    let seq = flexcast_traffic();
    let (stats, reply_bytes, client_bytes) = &seq;
    let received: u64 = stats.iter().map(|s| s.received_bytes).sum();
    let sent: u64 = stats.iter().map(|s| s.sent_bytes).sum();
    assert!(stats.iter().all(|s| s.delivered > 10), "{stats:?}");
    // Servers forwarded: more messages went server to server (every
    // send but a reply) than came from clients (every receive but a
    // forwarded one). Counted in messages, not bytes: deltas that leave
    // local deliveries out send fewer bytes between servers than clients
    // send them.
    let sent_msgs: u64 = stats.iter().map(|s| s.sent_msgs).sum();
    let received_msgs: u64 = stats.iter().map(|s| s.received_msgs).sum();
    let forwarded = sent_msgs - stats.iter().map(|s| s.delivered).sum::<u64>();
    assert!(forwarded > received_msgs - forwarded, "servers forwarded");
    assert_eq!(received, sent - reply_bytes + client_bytes);
    assert_eq!(flexcast_traffic(), seq, "replay");
}

// ---------------------------------------------------------------------------
// drain_observations ordering regression (satellite: observation hazard)
// ---------------------------------------------------------------------------

/// A probe actor that publishes [`Observation::Custom`] markers with a
/// caller-chosen timestamp when its timer fires — the mechanism real
/// engines use to publish batched events whose logical time predates the
/// callback that flushes them.
struct Backdater {
    /// `(timer token, observation timestamp, value)` — the observation is
    /// published when the matching timer fires, stamped `at`. The token
    /// doubles as the fire time in milliseconds.
    emits: Vec<(u64, SimTime, u64)>,
}

impl Actor<()> for Backdater {
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for &(token, _, _) in &self.emits {
            ctx.set_timer(SimTime::from_ms(token as f64), token);
        }
    }

    fn on_message(&mut self, _from: ProcessId, _msg: (), _ctx: &mut Ctx<'_, ()>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, ()>) {
        let me = ctx.me();
        for &(t, at, value) in &self.emits {
            if t == token {
                ctx.observe(Observation::Custom {
                    pid: me,
                    tag: 7,
                    value,
                    at,
                });
            }
        }
    }
}

fn two_backdaters(a: Backdater, b: Backdater) -> World<(), Backdater> {
    let m = LatencyMatrix::zero(2);
    let sites = vec![GroupId(0), GroupId(1)];
    let mut w = World::new(vec![a, b], LinkModel::new(m, sites, 0.0), 1);
    w.enable_probes();
    w
}

/// Regression: a later-processed actor publishing an observation with an
/// *earlier* logical timestamp must not reach the adversary after
/// observations stamped later. `drain_observations` sorts by timestamp
/// (stably, so equal-time observations keep deterministic event order) —
/// without the sort, the drain below yields `[20 ms, 10 ms]` and every
/// threshold adversary sees time run backwards.
#[test]
fn drain_observations_orders_backdated_publications() {
    let mut w = two_backdaters(
        // Fires at 20 ms, stamps its observation 20 ms (honest).
        Backdater {
            emits: vec![(20, SimTime::from_ms(20.0), 1)],
        },
        // Fires at 25 ms, stamps its observation 10 ms (backdated flush).
        Backdater {
            emits: vec![(25, SimTime::from_ms(10.0), 2)],
        },
    );
    w.run_to_quiescence(1_000);

    let mut obs = Vec::new();
    w.drain_observations(&mut obs);
    let seen: Vec<(u64, u64)> = obs
        .iter()
        .map(|o| match *o {
            Observation::Custom { value, at, .. } => (at.as_nanos(), value),
            ref other => panic!("unexpected observation {other:?}"),
        })
        .collect();
    assert_eq!(
        seen,
        vec![
            (SimTime::from_ms(10.0).as_nanos(), 2),
            (SimTime::from_ms(20.0).as_nanos(), 1),
        ],
        "observations must drain in timestamp order, not publish order"
    );
}

/// Stability half of the contract: equal-timestamp observations from
/// different actors keep the deterministic event (publish) order, so the
/// sort cannot itself become a nondeterminism source.
#[test]
fn drain_observations_is_stable_for_equal_timestamps() {
    let at = SimTime::from_ms(15.0);
    let mut w = two_backdaters(
        Backdater {
            emits: vec![(10, at, 1), (30, at, 3)],
        },
        Backdater {
            emits: vec![(20, at, 2)],
        },
    );
    w.run_to_quiescence(1_000);

    let mut obs = Vec::new();
    w.drain_observations(&mut obs);
    let values: Vec<u64> = obs
        .iter()
        .map(|o| match *o {
            Observation::Custom { value, .. } => value,
            ref other => panic!("unexpected observation {other:?}"),
        })
        .collect();
    assert_eq!(
        values,
        vec![1, 2, 3],
        "equal-time observations must keep publish order"
    );
}
