//! The chaos drivers: interleave simulation with fault application.
//!
//! [`run_adversary`] is the primary driver: it steps the world one event
//! at a time, drains published [`Observation`]s after each step,
//! dispatches them to an [`Adversary`], and fires the faults the
//! adversary scheduled — in `(time, scheduling order)`, exactly like a
//! [`FaultSchedule`] fires its events. [`run_schedule`] survives as the
//! compatibility surface: it wraps the schedule in a
//! [`ScheduleAdversary`] (a trivial time-triggered adversary) and runs it
//! on the same driver, which is why pre-redesign callers and golden
//! traces replay unchanged.

use crate::adversary::{Adversary, ChaosError, FaultCtx, ScheduleAdversary};
use crate::schedule::{FaultEvent, FaultSchedule};
use flexcast_sim::{Actor, LinkFault, Observation, ProcessId, SimTime, World};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Applies one fault event to the world, immediately, after validating
/// every process id in it against the world size: an event naming a pid
/// the world does not host is refused whole, with the world untouched.
///
/// Usually called through [`run_schedule`] or [`run_adversary`], which
/// handle timing; exposed for tests and custom drivers that manage time
/// themselves.
pub fn try_apply_event<M: Clone, A: Actor<M>>(
    world: &mut World<M, A>,
    ev: &FaultEvent,
) -> Result<(), ChaosError> {
    let n = world.len();
    let check = |pid: ProcessId| -> Result<(), ChaosError> {
        if pid < n {
            Ok(())
        } else {
            Err(ChaosError::PidOutOfRange { pid, n })
        }
    };
    let check_all =
        |pids: &[ProcessId]| -> Result<(), ChaosError> { pids.iter().try_for_each(|&p| check(p)) };
    match ev {
        FaultEvent::Crash(pid) | FaultEvent::Recover(pid) => check(*pid)?,
        FaultEvent::PartitionStart { a, b } | FaultEvent::PartitionEnd { a, b } => {
            check_all(a)?;
            check_all(b)?;
        }
        FaultEvent::BlockLink { from, to }
        | FaultEvent::UnblockLink { from, to }
        | FaultEvent::SetLinkFault { from, to, .. }
        | FaultEvent::ClearLinkFault { from, to } => {
            check(*from)?;
            check(*to)?;
        }
        FaultEvent::SpikeStart { pids, .. } | FaultEvent::SpikeEnd { pids } => check_all(pids)?,
    }

    match ev {
        FaultEvent::Crash(pid) => world.set_down(*pid, true),
        FaultEvent::Recover(pid) => world.set_down(*pid, false),
        FaultEvent::PartitionStart { a, b } => world.partition(a, b),
        FaultEvent::PartitionEnd { a, b } => world.heal(a, b),
        FaultEvent::BlockLink { from, to } => world.block_link(*from, *to),
        FaultEvent::UnblockLink { from, to } => world.unblock_link(*from, *to),
        FaultEvent::SetLinkFault { from, to, fault } => world.set_link_fault(*from, *to, *fault),
        FaultEvent::ClearLinkFault { from, to } => {
            world.set_link_fault(*from, *to, LinkFault::NONE)
        }
        FaultEvent::SpikeStart { pids, extra } => {
            for_links_touching(world, pids, |world, from, to| {
                let mut f = world.link_fault(from, to).unwrap_or(LinkFault::NONE);
                f.extra_delay = *extra;
                world.set_link_fault(from, to, f);
            });
        }
        FaultEvent::SpikeEnd { pids } => {
            for_links_touching(world, pids, |world, from, to| {
                if let Some(mut f) = world.link_fault(from, to) {
                    f.extra_delay = SimTime::ZERO;
                    world.set_link_fault(from, to, f);
                }
            });
        }
    }
    Ok(())
}

/// Visits every directed link with an endpoint in `pids`, exactly once.
/// Out-of-range pids are rejected by the caller ([`try_apply_event`]);
/// this keeps a defensive filter so a future direct caller gets a skip,
/// not an opaque slice panic.
fn for_links_touching<M: Clone, A: Actor<M>>(
    world: &mut World<M, A>,
    pids: &[ProcessId],
    mut visit: impl FnMut(&mut World<M, A>, ProcessId, ProcessId),
) {
    let n = world.len();
    let mut affected = vec![false; n];
    for &p in pids {
        debug_assert!(p < n, "process id {p} out of range for {n} processes");
        if p < n {
            affected[p] = true;
        }
    }
    for from in 0..n {
        for to in 0..n {
            if from != to && (affected[from] || affected[to]) {
                visit(world, from, to);
            }
        }
    }
}

/// One pending adversary fault, ordered by `(fire time, scheduling
/// order)` — the same tie-break as [`FaultSchedule::sorted_events`].
struct Pending {
    at: SimTime,
    seq: u64,
    ev: FaultEvent,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Everything a reactive run reports beyond the world itself.
#[derive(Clone, Debug)]
pub struct AdversaryRun {
    /// Simulator events processed during the run.
    pub processed_events: u64,
    /// Every fault the adversary actually fired, in firing order with
    /// simulated fire times — the replay script: feeding it to
    /// [`FaultSchedule`] via [`AdversaryRun::to_schedule`] reproduces the
    /// execution without the adversary.
    pub actions: Vec<(SimTime, FaultEvent)>,
}

impl AdversaryRun {
    /// The fired-action trace as a plain timed schedule: running it on a
    /// fresh world with the same seed replays the adversarial execution
    /// event-for-event — the replayability hook for sweep failures.
    pub fn to_schedule(&self) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        for (t, ev) in &self.actions {
            s = s.at(*t, ev.clone());
        }
        s
    }
}

/// Runs `world` under a reactive `adversary` until neither the world nor
/// the adversary has anything left to do (bounded by `max_events`).
///
/// The loop alternates two moves, always picking the earliest in
/// simulated time (a world event at the same instant as an adversary
/// fault runs first, matching the timed driver's semantics):
///
/// 1. **Step** the next world event, then drain and dispatch every
///    observation it published.
/// 2. **Fire** the earliest pending adversary fault.
///
/// The run ends when both the event queue and the fault queue are empty.
///
/// Identical `(world, adversary)` pairs — same actors, same seed, same
/// adversary state — produce identical executions: observations arrive in
/// deterministic event order and faults fire in `(time, scheduling
/// order)`.
///
/// # Panics
///
/// Panics if the world fails to quiesce within `max_events` (a livelock),
/// if the adversary fires more than `max_events` faults, or if a fault
/// references a process id outside the world (see [`try_apply_event`]).
pub fn run_adversary<M, A, Adv>(
    world: &mut World<M, A>,
    adversary: &mut Adv,
    max_events: u64,
) -> AdversaryRun
where
    M: Clone,
    A: Actor<M>,
    Adv: Adversary + ?Sized,
{
    // Purely pre-scheduled adversaries (the `run_schedule` compat path)
    // opt out of the observation plane: probes stay off and the world
    // free-runs between faults via `run_until`, which skips the
    // per-event drain/dispatch round-trip. Observing adversaries must see
    // every event boundary, so they stay on the step loop.
    let observing = adversary.wants_observations();
    if observing {
        world.enable_probes();
    }
    let mut pending: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    let mut pseq = 0u64;
    let mut fired: Vec<(SimTime, FaultEvent)> = Vec::new();
    let mut obs_buf: Vec<Observation> = Vec::new();
    let mut n = 0u64;

    let mut enqueue = |pending: &mut BinaryHeap<Reverse<Pending>>, ctx: FaultCtx| {
        for (at, ev) in ctx.queued {
            pending.push(Reverse(Pending { at, seq: pseq, ev }));
            pseq += 1;
        }
    };
    let mut fire = |world: &mut World<M, A>, p: Pending| {
        if let Err(e) = try_apply_event(world, &p.ev) {
            // An adversary's bug (a pid outside the world), never decoded
            // input; documented under `# Panics` above.
            panic!("adversary scheduled an invalid fault {:?}: {e}", p.ev);
        }
        fired.push((p.at, p.ev));
        assert!(
            fired.len() as u64 <= max_events,
            "adversary fired {} faults without the world quiescing",
            fired.len()
        );
    };

    let mut ctx = FaultCtx::new(world.now());
    adversary.on_start(&mut ctx);
    enqueue(&mut pending, ctx);

    if !observing {
        // Batched driver: free-run to each fault time (events scheduled
        // at or before it run first — the same tie-break as the stepping
        // loop below), fire the fault, repeat; finish with a plain run
        // to quiescence. Equivalent to stepping because nothing observes
        // intermediate events, and nothing is scheduled after `on_start`.
        while let Some(Reverse(p)) = pending.pop() {
            n += world.run_until(p.at);
            assert!(
                n < max_events,
                "simulation did not quiesce after {max_events} events"
            );
            fire(world, p);
        }
        n += world.run_to_quiescence(max_events - n);
    } else {
        loop {
            let next_act = pending.peek().map(|Reverse(p)| p.at);
            let next_ev = world.next_event_time();
            // A world event at the same instant is processed before the
            // fault — `run_schedule` ran events up to and including the
            // fault time before applying the fault, and equivalence
            // demands the same here.
            if next_act.is_some_and(|ta| next_ev.is_none_or(|te| ta < te)) {
                // Cannot fire: `next_act` is `Some`, so the heap is not empty.
                let Reverse(p) = pending.pop().expect("peeked above");
                // No world event is scheduled at or before `p.at`, so this
                // only advances the clock (idle gaps included).
                world.run_until(p.at);
                fire(world, p);
            } else if next_ev.is_some() {
                world.step();
                n += 1;
                assert!(
                    n < max_events,
                    "simulation did not quiesce after {max_events} events"
                );
                world.drain_observations(&mut obs_buf);
                let now = world.now();
                for obs in obs_buf.drain(..) {
                    let mut ctx = FaultCtx::new(now);
                    adversary.on_observation(&obs, &mut ctx);
                    enqueue(&mut pending, ctx);
                }
            } else {
                break;
            }
        }
    }

    AdversaryRun {
        processed_events: n,
        actions: fired,
    }
}

/// Runs `world` under `schedule`: the pre-redesign timed driver, now a
/// thin wrapper that hands the schedule to [`run_adversary`] as a
/// [`ScheduleAdversary`]. Semantics are unchanged — simulated time
/// advances to each event, the event is applied, and the world then runs
/// to quiescence (bounded by `max_events`); returns the number of events
/// processed.
///
/// Identical `(world, schedule)` pairs — same actors, same seed — produce
/// identical executions; every fault draw comes from the world's own
/// seeded RNG.
///
/// # Panics
///
/// Panics if the world fails to quiesce within `max_events` (a livelock:
/// some actor keeps re-arming timers or resending forever).
pub fn run_schedule<M: Clone, A: Actor<M>>(
    world: &mut World<M, A>,
    schedule: &FaultSchedule,
    max_events: u64,
) -> u64 {
    let mut adv = ScheduleAdversary::new(schedule.clone());
    run_adversary(world, &mut adv, max_events).processed_events
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::LatencyMatrix;
    use flexcast_sim::{Ctx, LinkModel};
    use flexcast_types::GroupId;

    /// Pings a peer every 10 ms until 100 ms; records pongs with times.
    struct Pinger {
        peer: ProcessId,
        got: Vec<(u64, SimTime)>,
        seq: u64,
    }

    impl Actor<u64> for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.set_timer(SimTime::from_ms(10.0), 0);
        }
        fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if msg.is_multiple_of(2) {
                ctx.send(self.peer, msg + 1); // pong
            } else {
                self.got.push((msg, ctx.now()));
                // Milestone probe: lets reactive tests trigger on pongs.
                ctx.observe(Observation::Custom {
                    pid: ctx.me(),
                    tag: 1,
                    value: self.got.len() as u64,
                    at: ctx.now(),
                });
            }
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, u64>) {
            ctx.send(self.peer, self.seq * 2);
            self.seq += 1;
            if ctx.now() < SimTime::from_ms(100.0) {
                ctx.set_timer(SimTime::from_ms(10.0), 0);
            }
        }
    }

    fn world() -> World<u64, Pinger> {
        let mut m = LatencyMatrix::zero(2);
        m.set_rtt(0, 1, 10.0);
        let a = Pinger {
            peer: 1,
            got: Vec::new(),
            seq: 0,
        };
        let b = Pinger {
            peer: 0,
            got: Vec::new(),
            seq: 0,
        };
        World::new(
            vec![a, b],
            LinkModel::new(m, vec![GroupId(0), GroupId(1)], 0.0),
            11,
        )
    }

    #[test]
    fn empty_schedule_equals_plain_run() {
        let mut w1 = world();
        run_schedule(&mut w1, &FaultSchedule::new(), 100_000);
        let mut w2 = world();
        w2.run_to_quiescence(100_000);
        assert_eq!(w1.actor(0).got, w2.actor(0).got);
        assert!(!w1.actor(0).got.is_empty());
    }

    #[test]
    fn partition_window_suppresses_traffic_then_heals() {
        let mut w = world();
        let s = FaultSchedule::new().partition_between(25.0, 65.0, &[0], &[1]);
        run_schedule(&mut w, &s, 100_000);
        let times: Vec<f64> = w.actor(0).got.iter().map(|&(_, t)| t.as_ms()).collect();
        // Messages already in flight when the cut lands may still complete
        // one round trip (10 ms); nothing new does until the heal.
        assert!(
            times.iter().all(|&t| t <= 35.0 || t >= 65.0),
            "no fresh pong completes inside the partition window: {times:?}"
        );
        assert!(w.dropped_messages() > 0);
        // Pings resumed after the heal.
        assert!(times.iter().any(|&t| t >= 65.0));
    }

    #[test]
    fn crash_and_recover_follow_the_schedule() {
        let mut w = world();
        let s = FaultSchedule::new().crash_at(5.0, 1).recover_at(55.0, 1);
        run_schedule(&mut w, &s, 100_000);
        // While 1 was down, 0's pings vanished; after recovery, 1's
        // on_start re-armed its timer and its own pings resumed.
        let times: Vec<f64> = w.actor(1).got.iter().map(|&(_, t)| t.as_ms()).collect();
        assert!(times.iter().all(|&t| t >= 55.0), "{times:?}");
        assert!(!times.is_empty(), "recovered process made progress");
    }

    #[test]
    fn spike_applies_and_clears_extra_delay() {
        let mut w = world();
        try_apply_event(
            &mut w,
            &FaultEvent::SpikeStart {
                pids: vec![1],
                extra: SimTime::from_ms(7.0),
            },
        )
        .expect("pids in range");
        assert_eq!(
            w.link_fault(0, 1).unwrap().extra_delay,
            SimTime::from_ms(7.0)
        );
        assert_eq!(
            w.link_fault(1, 0).unwrap().extra_delay,
            SimTime::from_ms(7.0)
        );
        try_apply_event(&mut w, &FaultEvent::SpikeEnd { pids: vec![1] }).expect("pids in range");
        assert_eq!(w.link_fault(0, 1), None, "empty fault entries cleared");
    }

    #[test]
    fn runs_are_deterministic_under_chaos() {
        let s = FaultSchedule::new()
            .link_fault_between(0.0, 80.0, 0, 1, LinkFault::dropping(0.4))
            .crash_at(30.0, 1)
            .recover_at(50.0, 1);
        let run = || {
            let mut w = world();
            run_schedule(&mut w, &s, 100_000);
            (w.actor(0).got.clone(), w.processed_events())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn out_of_range_pids_are_rejected_not_index_panics() {
        let mut w = world();
        let bad = FaultEvent::Crash(9);
        assert_eq!(
            try_apply_event(&mut w, &bad),
            Err(ChaosError::PidOutOfRange { pid: 9, n: 2 })
        );
        for ev in [
            FaultEvent::Recover(2),
            FaultEvent::PartitionStart {
                a: vec![0],
                b: vec![5],
            },
            FaultEvent::PartitionEnd {
                a: vec![7],
                b: vec![1],
            },
            FaultEvent::BlockLink { from: 0, to: 3 },
            FaultEvent::UnblockLink { from: 3, to: 0 },
            FaultEvent::SetLinkFault {
                from: 4,
                to: 0,
                fault: LinkFault::dropping(0.5),
            },
            FaultEvent::ClearLinkFault { from: 0, to: 4 },
            FaultEvent::SpikeStart {
                pids: vec![1, 6],
                extra: SimTime::from_ms(1.0),
            },
            FaultEvent::SpikeEnd { pids: vec![6] },
        ] {
            assert!(
                matches!(
                    try_apply_event(&mut w, &ev),
                    Err(ChaosError::PidOutOfRange { .. })
                ),
                "{ev:?} must be rejected"
            );
        }
        // And the world was never touched by the rejected events.
        assert!(!w.is_down(0) && !w.is_down(1));
        assert!(!w.is_blocked(0, 1));
    }

    #[test]
    fn schedule_adversary_reproduces_the_pre_redesign_loop() {
        // `run_schedule` IS `run_adversary(ScheduleAdversary)` now, so
        // comparing those two would be tautological. Compare against the
        // old timed loop instead, re-established verbatim: run to each
        // event time, apply, then run to quiescence (the workspace-level
        // proptest in `tests/chaos.rs` does the same over random
        // schedules on replicated worlds).
        let s = FaultSchedule::new()
            .crash_at(5.0, 1)
            .recover_at(55.0, 1)
            .link_fault_between(10.0, 70.0, 0, 1, LinkFault::dropping(0.3));
        let mut w1 = world();
        let mut ref_events = 0;
        for (t, ev) in s.sorted_events() {
            ref_events += w1.run_until(t);
            try_apply_event(&mut w1, ev).expect("pids in range");
        }
        ref_events += w1.run_to_quiescence(100_000);

        let mut w2 = world();
        let mut adv = ScheduleAdversary::new(s.clone());
        let run = run_adversary(&mut w2, &mut adv, 100_000);
        assert_eq!(w1.actor(0).got, w2.actor(0).got);
        assert_eq!(w1.actor(1).got, w2.actor(1).got);
        assert_eq!(w1.processed_events(), w2.processed_events());
        assert_eq!(run.processed_events, ref_events);
        assert_eq!(run.actions.len(), s.len(), "every event fired once");
    }

    #[test]
    fn reactive_rule_fires_on_a_custom_observation() {
        // Crash the ponger the moment the pinger records its third pong —
        // a state-triggered fault no timed script could place without
        // precomputing the pong schedule.
        let mut w = world();
        struct ThirdPong {
            fired: bool,
        }
        impl Adversary for ThirdPong {
            fn on_observation(&mut self, obs: &Observation, ctx: &mut FaultCtx) {
                if let Observation::Custom { value: 3, .. } = obs {
                    if !self.fired {
                        self.fired = true;
                        ctx.apply(FaultEvent::Crash(1));
                    }
                }
            }
        }
        let mut third = ThirdPong { fired: false };
        let run = run_adversary(&mut w, &mut third, 100_000);
        assert_eq!(run.actions.len(), 1);
        let (t, FaultEvent::Crash(1)) = &run.actions[0] else {
            panic!("expected the crash action, got {:?}", run.actions);
        };
        // Third pong lands at 40 ms (first ping at 10 ms + RTT, 10 ms
        // apart); the crash fired right there.
        assert_eq!(*t, SimTime::from_ms(40.0));
        assert_eq!(w.actor(0).got.len(), 3, "no pongs after the crash");
        assert!(w.is_down(1));
    }

    #[test]
    fn fired_action_trace_replays_as_a_schedule() {
        // Run a reactive adversary, then replay its fired-action trace as
        // a plain schedule on a fresh world: identical execution. The
        // pinger's second pong crashes the ponger 25 ms later; it comes
        // back 20 ms after that.
        struct SecondPong {
            done: bool,
        }
        impl Adversary for SecondPong {
            fn on_observation(&mut self, obs: &Observation, ctx: &mut FaultCtx) {
                if let Observation::Custom { value: 2, .. } = obs {
                    if !self.done {
                        self.done = true;
                        ctx.after_ms(25.0, FaultEvent::Crash(1));
                        ctx.after_ms(45.0, FaultEvent::Recover(1));
                    }
                }
            }
        }
        let mut w1 = world();
        let run = run_adversary(&mut w1, &mut SecondPong { done: false }, 100_000);
        assert_eq!(run.actions.len(), 2, "crash + recover");

        let mut w2 = world();
        run_schedule(&mut w2, &run.to_schedule(), 100_000);
        assert_eq!(w1.actor(0).got, w2.actor(0).got);
        assert_eq!(w1.actor(1).got, w2.actor(1).got);
        assert_eq!(w1.processed_events(), w2.processed_events());
    }
}
