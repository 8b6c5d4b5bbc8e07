//! End-to-end chaos acceptance: replicated FlexCast groups driven through
//! scripted failures *and reactive adversaries* must stay safe
//! (integrity, prefix/acyclic order, replica lockstep), complete every
//! multicast once the faults heal, and replay deterministically from the
//! seed.

use flexcast_chaos::{
    run_adversary, run_schedule, scenarios, try_apply_event, Adversary, AdversaryRun, FaultCtx,
    FaultEvent, FaultSchedule, ScheduleAdversary,
};
use flexcast_harness::replicated::{
    build_world, collect, group_of, replica_pid, ReplEngine, ReplNode, ReplSnapshot,
    ReplicatedConfig, ReplicatedResult,
};
use flexcast_overlay::LatencyMatrix;
use flexcast_sim::{Observation, ProcessId, SimTime};
use flexcast_types::{GroupId, MsgId};
use proptest::prelude::*;
use std::collections::BTreeSet;

const MAX_EVENTS: u64 = 50_000_000;

fn matrix(n: usize) -> LatencyMatrix {
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            m.set_rtt(a, b, 24.0 + 8.0 * ((a * b) % 3) as f64);
        }
    }
    m
}

fn group_pids(g: u16, rf: u32) -> Vec<ProcessId> {
    (0..rf).map(|r| replica_pid(GroupId(g), r, rf)).collect()
}

fn run_with(cfg: &ReplicatedConfig, schedule: &FaultSchedule) -> ReplicatedResult {
    let m = matrix(cfg.n_groups as usize);
    let mut world = build_world(cfg, &m);
    run_schedule(&mut world, schedule, MAX_EVENTS);
    collect(cfg, &world)
}

/// `(fire time, victim)` of every crash a reactive run fired, in firing
/// order.
fn crashes(run: &AdversaryRun) -> Vec<(SimTime, ProcessId)> {
    run.actions
        .iter()
        .filter_map(|(t, ev)| match ev {
            FaultEvent::Crash(pid) => Some((*t, *pid)),
            _ => None,
        })
        .collect()
}

/// Replays `run`'s fired actions as a plain timed schedule on a fresh
/// world and checks that the execution is the same event for event.
fn assert_replays(cfg: &ReplicatedConfig, run: &AdversaryRun, r: &ReplicatedResult) {
    let r2 = run_with(cfg, &run.to_schedule());
    assert_eq!(r.events, r2.events);
    assert_eq!(trace_ids(r), trace_ids(&r2));
    assert_eq!(r.replica_logs, r2.replica_logs);
}

fn trace_ids(r: &ReplicatedResult) -> Vec<Vec<MsgId>> {
    r.trace
        .iter()
        .map(|t| t.iter().map(|e| e.id).collect())
        .collect()
}

/// The ISSUE's acceptance scenario: crash a group's Paxos leader
/// mid-multicast, partition another group for a window, heal everything —
/// all multicasts must complete with zero invariant violations, and two
/// runs with the same seed must be identical.
#[test]
fn leader_crash_and_healed_partition_complete_all_multicasts() {
    let cfg = ReplicatedConfig::small(3, 3, 5);
    // Group 0's initial leader is replica 0 (pid 0); kill it at 120 ms,
    // while the first multicasts are in flight, and bring it back much
    // later. Meanwhile group 1 is cut off from group 2 for 1.2 s.
    let schedule = scenarios::crash_recover(replica_pid(GroupId(0), 0, 3), 120.0, 1_700.0).merge(
        scenarios::wan_partition(&group_pids(1, 3), &group_pids(2, 3), 400.0, 1_200.0),
    );

    let a = run_with(&cfg, &schedule);
    a.check.assert_ok();
    assert_eq!(a.completed as usize, a.issued, "every multicast completed");
    assert_eq!(a.availability, 1.0);
    assert!(a.dropped > 0, "the faults actually bit");

    // Determinism: an identical seeded run replays event-for-event.
    let b = run_with(&cfg, &schedule);
    assert_eq!(a.events, b.events);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(trace_ids(&a), trace_ids(&b));
    assert_eq!(a.replica_logs, b.replica_logs);
}

/// Isolating a leader from its own replicas forces a failover; the old
/// leader rejoins with a stale ballot after the heal and catches back up
/// (lockstep holds, nothing is lost or double-delivered).
#[test]
fn isolated_leader_fails_over_and_rejoins() {
    let cfg = ReplicatedConfig::small(3, 3, 9);
    let leader = replica_pid(GroupId(0), 0, 3);
    let others: Vec<ProcessId> = (0..9).filter(|&p| p != leader).collect();
    let schedule = scenarios::isolate(leader, &others, 150.0, 2_000.0);

    let m = matrix(3);
    let mut world = build_world(&cfg, &m);
    run_schedule(&mut world, &schedule, MAX_EVENTS);
    // Leadership of group 0 moved off the isolated replica.
    let leaders: Vec<u32> = (0..3)
        .filter(|&r| match world.actor(replica_pid(GroupId(0), r, 3)) {
            ReplNode::Replica(a) => a.is_leader(),
            _ => false,
        })
        .collect();
    assert!(
        leaders.iter().all(|&r| r != 0) && !leaders.is_empty(),
        "group 0 failed over away from the isolated leader, got {leaders:?}"
    );
    let r = collect(&cfg, &world);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0);
}

/// A rolling restart of every replica of every group — Byzantine-free
/// churn — completes all traffic with safety intact.
#[test]
fn rolling_restart_churn_stays_safe_and_live() {
    let cfg = ReplicatedConfig::small(3, 3, 13);
    let all: Vec<ProcessId> = (0..9).collect();
    let schedule = scenarios::rolling_restart(&all, 200.0, 150.0, 400.0);
    let r = run_with(&cfg, &schedule);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0);
}

/// Lossy, duplicating, reordering links between two groups: the per-link
/// sequence layer rebuilds the FIFO channel and the run stays clean.
#[test]
fn lossy_duplicating_reordering_links_are_survivable() {
    let cfg = ReplicatedConfig::small(3, 3, 21);
    let mut schedule = FaultSchedule::new();
    for &a in &group_pids(0, 3) {
        for &b in &group_pids(2, 3) {
            schedule = schedule.link_fault_between(
                0.0,
                2_500.0,
                a,
                b,
                flexcast_sim::LinkFault {
                    drop: 0.3,
                    dup: 0.2,
                    reorder: 0.3,
                    extra_delay: flexcast_sim::SimTime::from_ms(5.0),
                },
            );
        }
    }
    let r = run_with(&cfg, &schedule);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0);
}

/// Replies to the client are not retransmitted by replicas on their own;
/// recovery is client-driven: retries fan out to every unacked
/// destination group, whose leader re-acks anything it already
/// delivered. Blocking the entire replica→client direction for a window
/// must therefore only delay completion, not lose it.
#[test]
fn lost_replies_are_recovered_by_client_retries() {
    let cfg = ReplicatedConfig::small(3, 3, 17);
    let client = 9; // pid after 3 groups × 3 replicas
    let mut schedule = FaultSchedule::new();
    for replica in 0..9 {
        schedule = schedule.block_between(0.0, 1_500.0, replica, client);
    }
    let r = run_with(&cfg, &schedule);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0, "every ack recovered after the heal");
    assert!(r.dropped > 0, "replies were actually lost");
}

/// Delta suppression under chaos: with watermark advertisements enabled
/// (DESIGN.md §8), a leader crash plus a healed partition must still
/// complete every multicast with safety intact — advertisements ride the
/// same sequence-numbered, Paxos-committed links as every other packet,
/// so the advertised view survives the failover — and the run replays
/// deterministically.
#[test]
fn delta_suppression_survives_leader_crash_and_partition() {
    let cfg = ReplicatedConfig {
        advert_stride: Some(2),
        ..ReplicatedConfig::small(3, 3, 5)
    };
    let schedule = scenarios::crash_recover(replica_pid(GroupId(0), 0, 3), 120.0, 1_700.0).merge(
        scenarios::wan_partition(&group_pids(1, 3), &group_pids(2, 3), 400.0, 1_200.0),
    );

    // Run once, keeping the world so the advert counters can be read
    // from the same execution the assertions cover.
    let m = matrix(cfg.n_groups as usize);
    let mut world = build_world(&cfg, &m);
    run_schedule(&mut world, &schedule, MAX_EVENTS);
    let a = collect(&cfg, &world);
    a.check.assert_ok();
    assert_eq!(a.completed as usize, a.issued, "every multicast completed");
    assert_eq!(a.availability, 1.0);
    assert!(a.dropped > 0, "the faults actually bit");

    // The advertisement flow engaged (suppression itself needs rank depth
    // beyond a 3-group triangle; `flexcast-harness` covers that).
    let mut adverts = 0u64;
    for pid in 0..world.len() {
        if let ReplNode::Replica(rep) = world.actor(pid) {
            adverts += rep.state().engine().suppression_stats().adverts_sent;
        }
    }
    assert!(adverts > 0, "advertisements flowed under faults");

    // Determinism: an identical seeded run replays event-for-event.
    let b = run_with(&cfg, &schedule);
    assert_eq!(a.events, b.events);
    assert_eq!(trace_ids(&a), trace_ids(&b));
    assert_eq!(a.replica_logs, b.replica_logs);
}

/// Replication factors 1, 3, and 5 all survive a crash/recover of the
/// rank-0 group's first replica.
#[test]
fn crash_recover_across_replication_factors() {
    for rf in [1u32, 3, 5] {
        let cfg = ReplicatedConfig::small(3, rf, 31 + rf as u64);
        let schedule = scenarios::crash_recover(replica_pid(GroupId(0), 0, rf), 150.0, 1_000.0);
        let r = run_with(&cfg, &schedule);
        r.check.assert_ok();
        assert_eq!(r.availability, 1.0, "rf={rf}");
    }
}

/// The redesign's acceptance scenario: the leader hunter crashes the
/// *current* leader of group 0 a fixed delay after each failover — so at
/// least two distinct replicas of the same group die in one run — and the
/// replicated world still completes every multicast with zero checker
/// violations and the same completed-transaction count as a fault-free
/// run. The fired-action trace replays the execution as a plain timed
/// schedule, and identical seeds reproduce identical hunts.
#[test]
fn leader_hunter_kills_consecutive_leaders_and_the_world_survives() {
    let cfg = ReplicatedConfig::small(3, 3, 7);
    let m = matrix(3);

    // Fault-free baseline for the transaction count.
    let mut base = build_world(&cfg, &m);
    base.run_to_quiescence(MAX_EVENTS);
    let base_r = collect(&cfg, &base);
    base_r.check.assert_ok();

    let hunt = || {
        let mut world = build_world(&cfg, &m);
        let mut hunter = scenarios::leader_hunter(GroupId(0), 250.0, 3).hold_ms(1_200.0);
        let run = run_adversary(&mut world, &mut hunter, MAX_EVENTS);
        let r = collect(&cfg, &world);
        (r, run, hunter)
    };
    let (r, run, hunter) = hunt();
    r.check.assert_ok();
    assert_eq!(r.completed as usize, r.issued, "every multicast completed");
    assert_eq!(
        r.completed, base_r.completed,
        "completed-transaction count unchanged under the hunt"
    );

    // The hunter spent its ammo on group 0's successive leaders: at
    // least two *distinct* replicas of the same group were killed.
    let kills = crashes(&run);
    assert_eq!(kills.len(), 3, "{kills:?}");
    let victims: BTreeSet<ProcessId> = kills.iter().map(|&(_, pid)| pid).collect();
    assert!(
        victims.len() >= 2,
        "expected ≥2 distinct leaders killed, got {kills:?}"
    );
    assert!(
        victims.iter().all(|&pid| group_of(pid, 3) == GroupId(0)),
        "every victim led group 0: {victims:?}"
    );
    assert_eq!(hunter.remaining(), 0, "all 3 kills found a leader");
    // Kill times strictly increase: each kill answered a *new* election.
    let times: Vec<SimTime> = kills.iter().map(|&(t, _)| t).collect();
    assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");

    // Deterministic: the same seed reproduces the same hunt.
    let (r2, run2, _) = hunt();
    assert_eq!(run.actions, run2.actions, "same victims, same times");
    assert_eq!(r.events, r2.events);
    assert_eq!(trace_ids(&r), trace_ids(&r2));

    // Replayable: the fired-action trace *is* a timed schedule that
    // reproduces the adversarial execution event-for-event.
    assert_replays(&cfg, &run, &r);
}

/// GC under replication (ROADMAP axis): flush traffic runs concurrently
/// with a targeted leader kill; every flush completes, history gets
/// pruned, tombstones survive for every pruned id, and a survivor's
/// snapshot round-trips bit-for-bit — pruned history, tombstones, and
/// cursors included.
#[test]
fn gc_flushes_stay_consistent_under_a_leader_kill() {
    let mut cfg = ReplicatedConfig::small(3, 3, 23);
    cfg.flush_period = Some(SimTime::from_ms(600.0));
    cfg.n_flushes = 4;
    let m = matrix(3);

    let mut world = build_world(&cfg, &m);
    let mut hunter = scenarios::leader_hunter(GroupId(0), 200.0, 1).hold_ms(1_000.0);
    let run = run_adversary(&mut world, &mut hunter, MAX_EVENTS);
    assert_eq!(crashes(&run).len(), 1, "the leader kill happened");
    assert_eq!(run.actions.len(), 2, "crash + recover fired");

    let r = collect(&cfg, &world);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0);

    let ReplNode::Flusher(f) = world.actor(world.len() - 1) else {
        panic!("flusher sits last in the pid layout");
    };
    assert_eq!(f.completed, 4, "every flush acked by every group");

    // Tombstones stay consistent with pruned history on every replica:
    // anything delivered but no longer in the live history must still be
    // tombstoned (seen), or a late retransmission could re-admit it.
    let mut pruned = 0u64;
    for pid in 0..world.len() {
        if let ReplNode::Replica(rep) = world.actor(pid) {
            let engine = rep.state().engine();
            for &id in rep.state().delivery_log() {
                if !engine.history().contains(id) {
                    pruned += 1;
                    assert!(
                        engine.history().has_seen(id),
                        "pruned {id:?} lost its tombstone on pid {pid}"
                    );
                }
            }
        }
    }
    assert!(pruned > 0, "flush traffic pruned history under the kill");

    // Snapshots capture the post-GC state faithfully: restore must
    // reproduce the exact bytes (history, tombstones, cursors included),
    // including on a replica that was killed and recovered.
    for pid in [replica_pid(GroupId(0), 0, 3), replica_pid(GroupId(1), 0, 3)] {
        let ReplNode::Replica(rep) = world.actor(pid) else {
            panic!("replica pids come first");
        };
        let snap = rep.state().engine().snapshot().expect("snapshot encodes");
        let restored = flexcast_core::FlexCastGroup::restore(&snap).expect("snapshot decodes");
        assert_eq!(
            restored.snapshot().expect("re-snapshot encodes"),
            snap,
            "snapshot of pid {pid} did not round-trip bit-for-bit"
        );
        assert_eq!(
            restored.delivered_count(),
            rep.state().engine().delivered_count()
        );
    }
}

// ---------------------------------------------------------------------------
// Ballot leader election + snapshot catch-up (DESIGN.md §11).
// ---------------------------------------------------------------------------

/// Sums the per-replica election counters of one group from a telemetry
/// snapshot — how many times any replica of `g` stood for election.
fn elections_of(r: &ReplicatedResult, g: u16, rf: u32) -> u64 {
    (0..rf)
        .map(|rp| {
            r.metrics
                .counters
                .get(&format!("g{g}.r{rp}.elections"))
                .copied()
                .unwrap_or(0)
        })
        .sum()
}

/// The partial-connectivity case ballot leader election exists for: one
/// replica of group 0 goes *inbound-deaf* (it can send, but hears
/// nothing) while the quorum stays fully connected. The deaf replica
/// fails its heartbeat rounds, drops its candidate flag, and goes quiet —
/// the leader never moves. (An election that suspects on silence alone
/// would have the deaf replica demote the live leader through its open
/// outbound edge, over and over, until the heal.)
#[test]
fn inbound_deaf_replica_does_not_unseat_the_leader() {
    let mut cfg = ReplicatedConfig::small(3, 3, 11);
    cfg.telemetry = flexcast_telemetry::Telemetry::enabled();
    // Replica 1 of group 0 (pid 1) hears neither sibling for 24.8 s;
    // both of its outbound edges stay open.
    let schedule = FaultSchedule::new()
        .block_between(200.0, 25_000.0, 0, 1)
        .block_between(200.0, 25_000.0, 2, 1);
    let r = run_with(&cfg, &schedule);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0, "every multicast completed");
    let elections = elections_of(&r, 0, 3);
    assert!(
        elections <= 4,
        "BLE stays stable under an inbound-deaf minority, got {elections} elections"
    );
}

/// The ISSUE's acceptance scenario: a reactive adversary repeatedly cuts
/// the directed edge from group 0's *current* leader to one minority
/// sibling (quorum untouched). Each cut makes the victim overbid and win
/// within a bounded number of heartbeat rounds, every multicast still
/// completes, and the fired-action trace replays the execution
/// event-for-event.
#[test]
fn quorum_cutter_forces_bounded_failovers_and_the_world_survives() {
    let cfg = {
        let mut c = ReplicatedConfig::small(3, 3, 19);
        c.telemetry = flexcast_telemetry::Telemetry::enabled();
        c
    };
    let m = matrix(3);
    let hunt = || {
        let mut world = build_world(&cfg, &m);
        let mut cutter = scenarios::quorum_cutter(GroupId(0), group_pids(0, 3), 150.0, 5_000.0, 2);
        let run = run_adversary(&mut world, &mut cutter, MAX_EVENTS);
        let r = collect(&cfg, &world);
        (r, run, cutter)
    };
    let (r, run, cutter) = hunt();
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0, "every multicast completed");
    assert_eq!(cutter.remaining(), 0, "both cuts found a leader to aim at");
    // `(block time, leader, victim)` of every fired cut.
    let cuts: Vec<(SimTime, ProcessId, ProcessId)> = run
        .actions
        .iter()
        .filter_map(|(t, ev)| match ev {
            FaultEvent::BlockLink { from, to } => Some((*t, *from, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(cuts.len(), 2);
    // The second cut answers the election the first one forced: the gap
    // between them is the failover time, bounded by a handful of
    // heartbeat rounds (hb_delay 4 ticks × 40 ms ≈ 160 ms per round).
    let takeover_ms = cuts[1].0.as_ms() - cuts[0].0.as_ms();
    assert!(
        (150.0..2_000.0).contains(&takeover_ms),
        "takeover took {takeover_ms} ms — not a bounded BLE failover"
    );
    // The cuts aimed at two different leaders of the same group.
    assert_ne!(cuts[0].1, cuts[1].1, "second cut hit the *new* leader");
    // Election rounds stayed bounded for the connected majority: the
    // typical leaderless gap is a couple of heartbeat rounds. (The max
    // legitimately includes partition *span* — a replica with both its
    // roundtrips severed stays leaderless until the heal, by design.)
    let rounds = r
        .metrics
        .histograms
        .get("smr.election_rounds")
        .expect("election rounds recorded");
    assert!(rounds.count >= 9, "every replica recorded its gaps");
    assert!(
        rounds.p50 <= 8,
        "typical election took {} heartbeat rounds",
        rounds.p50
    );

    // Deterministic: the same seed reproduces the same cuts…
    let (r2, run2, _) = hunt();
    assert_eq!(run.actions, run2.actions);
    assert_eq!(trace_ids(&r), trace_ids(&r2));
    // …and the fired-action trace *is* a schedule that replays the run.
    assert_replays(&cfg, &run, &r);
}

/// Snapshot catch-up acceptance: a follower of group 0 is crashed long
/// enough that the live quorum commits — and *compacts away* — far more
/// history than the catch-up threshold. On rejoin the victim must come
/// back via a sibling snapshot (the log below the compaction marker no
/// longer exists to replay), end in lockstep, and its post-recovery
/// snapshot must round-trip bit-for-bit.
#[test]
fn rejoined_replica_catches_up_by_snapshot_not_replay() {
    let mut cfg = ReplicatedConfig::small(3, 3, 27);
    cfg.msgs_per_client = 12;
    cfg.catch_up_lag = 8; // compact aggressively so the gap exceeds it
    cfg.telemetry = flexcast_telemetry::Telemetry::enabled();
    let m = matrix(3);

    let mut world = build_world(&cfg, &m);
    let mut hunter = scenarios::rejoin_hunter(GroupId(0), group_pids(0, 3), 250.0, 6_000.0);
    let run = run_adversary(&mut world, &mut hunter, MAX_EVENTS);
    let [(_, victim)] = crashes(&run)[..] else {
        panic!("expected one follower kill, fired {:?}", run.actions);
    };
    assert_eq!(group_of(victim, 3), GroupId(0));

    let r = collect(&cfg, &world);
    r.check.assert_ok();
    assert_eq!(r.availability, 1.0, "the quorum never stopped");

    // Every group-0 replica pruned its log: the prefix the victim missed
    // is simply gone, so LearnReq replay from the gap was impossible.
    for &pid in &group_pids(0, 3) {
        let ReplNode::Replica(a) = world.actor(pid) else {
            panic!("replica pids come first");
        };
        assert!(
            a.replication().compacted_to() > 0,
            "compaction engaged on pid {pid}"
        );
    }
    let ReplNode::Replica(v) = world.actor(victim) else {
        panic!("victim is a replica");
    };
    assert!(
        v.snapshot_installs >= 1,
        "the victim recovered via snapshot transfer, not replay"
    );
    // Telemetry saw the transfer from both ends.
    assert!(r.metrics.counters.get("smr.snapshot_installs").copied() >= Some(1));
    let bytes = r
        .metrics
        .histograms
        .get("smr.catch_up_bytes")
        .expect("transfer size recorded");
    assert!(bytes.count >= 1 && bytes.min > 0);

    // Post-recovery replica snapshot round-trips bit-for-bit: engine,
    // channel cursors, held packets, outbox, delivery log.
    let snap = v.state().to_snapshot();
    let wire = flexcast_wire::to_bytes(&snap).expect("snapshot encodes");
    let decoded: ReplSnapshot = flexcast_wire::from_bytes(&wire).expect("snapshot decodes");
    let restored = ReplEngine::from_snapshot(decoded, cfg.order.clone()).expect("state restores");
    assert_eq!(
        flexcast_wire::to_bytes(&restored.to_snapshot()).expect("re-encode"),
        wire,
        "post-recovery snapshot did not round-trip bit-for-bit"
    );

    // The fired-action trace replays the catch-up run event for event.
    assert_replays(&cfg, &run, &r);
}

/// Wraps any adversary and records every observation the world publishes,
/// so tests can audit the leadership event stream itself.
struct Recording<A> {
    inner: A,
    seen: Vec<Observation>,
}

impl<A: Adversary> Adversary for Recording<A> {
    fn on_start(&mut self, ctx: &mut FaultCtx) {
        self.inner.on_start(ctx);
    }
    fn on_observation(&mut self, obs: &Observation, ctx: &mut FaultCtx) {
        self.seen.push(*obs);
        self.inner.on_observation(obs, ctx);
    }
}

/// Regression for the leadership observation stream: `LeaderLost` fires
/// exactly once per loss — never unpaired, never double — and the stream
/// ends in agreement with each replica's actual state. The symmetric
/// hazard to the restart re-announce fix: a leader that crashes, rejoins
/// still believing, re-announces, and is then demoted must publish the
/// demotion (before the `on_start` re-announce, `was_leader` was reset to
/// `false` on restart and the subsequent demotion was swallowed, leaving
/// the stream claiming leadership the replica no longer held).
#[test]
fn leadership_observations_pair_up_through_crash_rejoin_demote() {
    let cfg = ReplicatedConfig::small(3, 3, 7);
    let m = matrix(3);
    let mut world = build_world(&cfg, &m);
    // Two leader kills with slow recovery: each victim rejoins holding a
    // stale claim, re-announces, and gets demoted by the new leader.
    let mut rec = Recording {
        inner: scenarios::leader_hunter(GroupId(0), 250.0, 2).hold_ms(1_200.0),
        seen: Vec::new(),
    };
    let run = run_adversary(&mut world, &mut rec, MAX_EVENTS);
    assert_eq!(crashes(&run).len(), 2, "both kills fired");
    collect(&cfg, &world).check.assert_ok();

    // Replay the stream through a per-pid believed-leadership machine.
    // Consecutive `LeaderElected` without a `Lost` between them is legal
    // (a crash publishes nothing; the restart re-announce follows one),
    // but `LeaderLost` must always land on a believed leader.
    let mut believed: std::collections::BTreeMap<ProcessId, bool> = Default::default();
    let mut losses = 0u32;
    for obs in &rec.seen {
        match obs {
            Observation::LeaderElected { pid, .. } => {
                believed.insert(*pid, true);
            }
            Observation::LeaderLost { pid, at, .. } => {
                assert!(
                    believed.get(pid).copied().unwrap_or(false),
                    "unpaired LeaderLost for pid {pid} at {at:?}"
                );
                believed.insert(*pid, false);
                losses += 1;
            }
            _ => {}
        }
    }
    assert!(losses >= 1, "at least one demotion was published");
    // The stream's final claim matches reality on every replica — this is
    // what the swallowed-demotion bug broke: the stream ended `Elected`
    // on a replica that was actually a follower.
    for (pid, claim) in believed {
        let ReplNode::Replica(a) = world.actor(pid) else {
            continue;
        };
        assert_eq!(
            a.is_leader(),
            claim,
            "observation stream out of sync with pid {pid}"
        );
    }
}

// ---------------------------------------------------------------------------
// Compat-layer equivalence: the reactive driver must reproduce the old
// timed driver's executions exactly.
// ---------------------------------------------------------------------------

/// The pre-redesign `run_schedule` loop, reproduced verbatim as the
/// reference semantics: advance to each event time, apply, then run to
/// quiescence. The proptest below pins the adversary-driver compat layer
/// (today's `run_schedule` *is* `run_adversary` over a
/// `ScheduleAdversary`) against it.
fn reference_run_schedule<M: Clone, A: flexcast_sim::Actor<M>>(
    world: &mut flexcast_sim::World<M, A>,
    schedule: &FaultSchedule,
    max_events: u64,
) -> u64 {
    let mut n = 0;
    for (t, ev) in schedule.sorted_events() {
        n += world.run_until(t);
        try_apply_event(world, ev).expect("pids in range");
    }
    n + world.run_to_quiescence(max_events.saturating_sub(n))
}

/// Builds a randomized-but-seed-determined schedule over a 2-group,
/// rf=2 replicated world (pids 0–3 are replicas, 4 is the client).
fn random_schedule(crash_pid: usize, crash_ms: f64, down_ms: f64, fault_kind: u8) -> FaultSchedule {
    let mut s = FaultSchedule::new()
        .crash_at(crash_ms, crash_pid)
        .recover_at(crash_ms + down_ms, crash_pid);
    match fault_kind % 4 {
        0 => {}
        1 => {
            s = s.merge(scenarios::wan_partition(
                &[0, 1],
                &[2, 3],
                crash_ms + 50.0,
                700.0,
            ));
        }
        2 => {
            s = s.link_fault_between(
                0.0,
                2_000.0,
                0,
                2,
                flexcast_sim::LinkFault {
                    drop: 0.25,
                    dup: 0.2,
                    reorder: 0.2,
                    extra_delay: SimTime::from_ms(2.0),
                },
            );
        }
        _ => {
            s = s.latency_spike(100.0, 900.0, &[crash_pid], 25.0);
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `run_adversary` with a schedule-wrapping adversary reproduces the
    /// pre-redesign timed driver event-for-event: same delivered traces,
    /// same replica logs, same `processed_events`, same drop counts —
    /// across random crash/recover timings, partitions, link faults, and
    /// spikes. It does so on both of its loops: the batched one
    /// `ScheduleAdversary` runs, and the stepping one every observing
    /// adversary runs (`Recording` observes).
    #[test]
    fn schedule_adversary_matches_reference_driver(
        seed in 0u64..1_000,
        crash_pid in 0usize..4,
        crash_ms in 50.0f64..1_200.0,
        down_ms in 100.0f64..1_200.0,
        fault_kind in 0u8..4,
    ) {
        let mut cfg = ReplicatedConfig::small(2, 2, seed);
        cfg.n_clients = 1;
        cfg.msgs_per_client = 4;
        cfg.stop_at = SimTime::from_secs(12);
        let schedule = random_schedule(crash_pid, crash_ms, down_ms, fault_kind);
        let m = matrix(2);

        let mut w_ref = build_world(&cfg, &m);
        let ref_events = reference_run_schedule(&mut w_ref, &schedule, MAX_EVENTS);
        let r_ref = collect(&cfg, &w_ref);

        let mut w_adv = build_world(&cfg, &m);
        let mut adv = ScheduleAdversary::new(schedule.clone());
        let run = run_adversary(&mut w_adv, &mut adv, MAX_EVENTS);
        let r_adv = collect(&cfg, &w_adv);

        let mut w_obs = build_world(&cfg, &m);
        let mut rec = Recording {
            inner: ScheduleAdversary::new(schedule.clone()),
            seen: Vec::new(),
        };
        let run_obs = run_adversary(&mut w_obs, &mut rec, MAX_EVENTS);
        let r_obs = collect(&cfg, &w_obs);

        for (run, r) in [(&run, &r_adv), (&run_obs, &r_obs)] {
            prop_assert_eq!(run.processed_events, ref_events);
            prop_assert_eq!(r.events, r_ref.events);
            prop_assert_eq!(r.dropped, r_ref.dropped);
            prop_assert_eq!(r.completed, r_ref.completed);
            prop_assert_eq!(trace_ids(r), trace_ids(&r_ref));
            prop_assert_eq!(&r.replica_logs, &r_ref.replica_logs);
            prop_assert_eq!(run.actions.len(), schedule.len());
        }
        prop_assert_eq!(&run_obs.actions, &run.actions);
    }
}
