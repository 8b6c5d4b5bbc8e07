//! Canned fault scenarios, parameterized by process sets.
//!
//! These generators know nothing about process layout — callers pass the
//! pids (e.g. from `flexcast-harness`'s replicated-world layout) and get a
//! composable [`FaultSchedule`] back. They cover the scenario axes the
//! ROADMAP asks for: crash/failover, Byzantine-free churn (rolling
//! restarts), and WAN partition sweeps.
//!
//! The scenarios no schedule can express are here too, as one reactive
//! [`Adversary`], the [`ElectionStrike`], with three presets:
//! [`leader_hunter`], [`quorum_cutter`] and [`rejoin_hunter`].

use crate::adversary::{Adversary, FaultCtx};
use crate::schedule::{FaultEvent, FaultSchedule};
use flexcast_sim::{Observation, ProcessId};
use flexcast_types::GroupId;

/// Crash `pid` at `crash_ms` and bring it back `down_ms` later.
pub fn crash_recover(pid: ProcessId, crash_ms: f64, down_ms: f64) -> FaultSchedule {
    FaultSchedule::new()
        .crash_at(crash_ms, pid)
        .recover_at(crash_ms + down_ms, pid)
}

/// Rolling restart: each process in `pids` is crashed for `down_ms`, one
/// after another, `step_ms` apart starting at `start_ms`. With `step_ms >
/// down_ms` at most one process is down at a time — the classic
/// zero-downtime upgrade drill.
pub fn rolling_restart(
    pids: &[ProcessId],
    start_ms: f64,
    down_ms: f64,
    step_ms: f64,
) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for (i, &pid) in pids.iter().enumerate() {
        let at = start_ms + step_ms * i as f64;
        s = s.crash_at(at, pid).recover_at(at + down_ms, pid);
    }
    s
}

/// WAN partition: severs `a` from `b` symmetrically for `duration_ms`
/// starting at `start_ms`.
pub fn wan_partition(
    a: &[ProcessId],
    b: &[ProcessId],
    start_ms: f64,
    duration_ms: f64,
) -> FaultSchedule {
    FaultSchedule::new().partition_between(start_ms, start_ms + duration_ms, a, b)
}

/// Isolate one process from everyone else (a total partition of `pid`)
/// for `duration_ms` — e.g. a group leader cut off from its own replicas,
/// forcing a failover, then rejoining with a stale ballot.
pub fn isolate(
    pid: ProcessId,
    others: &[ProcessId],
    start_ms: f64,
    duration_ms: f64,
) -> FaultSchedule {
    FaultSchedule::new().partition_between(start_ms, start_ms + duration_ms, &[pid], others)
}

/// What an [`ElectionStrike`] hits when its group elects `leader`: the
/// fault and the undo that ends it, or nothing if the aim finds no victim.
#[derive(Clone, Debug)]
enum Aim {
    Leader,
    Cut(Vec<ProcessId>),
    Rejoin(Vec<ProcessId>),
}

impl Aim {
    fn strike(&self, leader: ProcessId) -> Option<(FaultEvent, FaultEvent)> {
        let crash = |pid| (FaultEvent::Crash(pid), FaultEvent::Recover(pid));
        match self {
            Aim::Leader => Some(crash(leader)),
            Aim::Cut(replicas) => {
                let idx = replicas.iter().position(|&p| p == leader)?;
                let to = replicas[(idx + 1) % replicas.len()];
                // In a one-replica group the leader is its own sibling.
                (to != leader).then_some((
                    FaultEvent::BlockLink { from: leader, to },
                    FaultEvent::UnblockLink { from: leader, to },
                ))
            }
            Aim::Rejoin(replicas) => {
                let victim = *replicas.iter().rev().find(|&&p| p != leader)?;
                replicas.contains(&leader).then(|| crash(victim))
            }
        }
    }
}

/// The election-triggered adversary: on each
/// [`Observation::LeaderElected`] in its group, while budget lasts, it
/// fires a fault `delay_ms` later and its undo `hold_ms` after that. The
/// preset that built it picks the fault: [`leader_hunter`],
/// [`quorum_cutter`] or [`rejoin_hunter`]. An election that leaves the
/// aim no victim (a one-replica group, or an elected pid outside the
/// group's replicas) spends no budget.
///
/// Drive it with [`crate::run_adversary`] over a world whose replicas
/// publish `LeaderElected` (the `flexcast-harness` replicated actors do);
/// what it fired is the run's [`crate::AdversaryRun::actions`].
#[derive(Clone, Debug)]
pub struct ElectionStrike {
    group: GroupId,
    aim: Aim,
    delay_ms: f64,
    hold_ms: f64,
    remaining: u32,
}

impl ElectionStrike {
    fn new(group: GroupId, aim: Aim, delay_ms: f64, hold_ms: f64, remaining: u32) -> Self {
        ElectionStrike {
            group,
            aim,
            delay_ms,
            hold_ms,
            remaining,
        }
    }

    /// Sets how long each fault holds before its undo fires. Keep a
    /// leader kill past the group's election timeout so the failover
    /// completes while the victim is still dark.
    pub fn hold_ms(mut self, ms: f64) -> Self {
        self.hold_ms = ms;
        self
    }

    /// Strikes not yet spent.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }
}

impl Adversary for ElectionStrike {
    fn on_observation(&mut self, obs: &Observation, ctx: &mut FaultCtx) {
        let Observation::LeaderElected { group, pid, .. } = obs else {
            return;
        };
        if *group != self.group || self.remaining == 0 {
            return;
        }
        let Some((fault, undo)) = self.aim.strike(*pid) else {
            return;
        };
        self.remaining -= 1;
        ctx.after_ms(self.delay_ms, fault);
        ctx.after_ms(self.delay_ms + self.hold_ms, undo);
    }
}

/// The leader hunter: crash each newly elected leader of `group`,
/// `delay_ms` after its election, up to `k` kills — the sharpest fault
/// axis against a replicated group, because it re-aims at every failover.
/// A killed leader recovers after [`ElectionStrike::hold_ms`] (default
/// 1 500 ms), so the group keeps a quorum and each kill forces a fresh
/// election for the hunter to observe.
pub fn leader_hunter(group: GroupId, delay_ms: f64, k: u32) -> ElectionStrike {
    ElectionStrike::new(group, Aim::Leader, delay_ms, 1_500.0, k)
}

/// The quorum cutter: an *asymmetric* partitioner that aims at the
/// election mechanism itself. `delay_ms` after each election in `group`
/// it severs the single directed link leader → next sibling for `cut_ms`,
/// up to `k` cuts. The victim stops hearing the leader while everyone
/// else (including the leader's reverse path) stays connected — so a
/// quorum is connected the whole time, and the group *should* keep one
/// stable leader. Timeout-raced elections duel here (the deaf victim
/// campaigns forever against a leader it cannot hear); ballot leader
/// election moves leadership to a connected replica within a bounded
/// number of heartbeat rounds.
///
/// `replicas` is the group's full pid set in replica order (the caller
/// owns the layout, e.g. `flexcast-harness::replicated::replica_pid`).
pub fn quorum_cutter(
    group: GroupId,
    replicas: Vec<ProcessId>,
    delay_ms: f64,
    cut_ms: f64,
    k: u32,
) -> ElectionStrike {
    ElectionStrike::new(group, Aim::Cut(replicas), delay_ms, cut_ms, k)
}

/// The rejoin hunter: aims at recovery instead of leadership. `delay_ms`
/// after the first election in `group` it crashes one *follower* for
/// `down_ms` — long enough, with ongoing traffic, that the victim falls
/// further behind than any bounded replay window and must come back via
/// snapshot catch-up. One shot by design: the point is a deep, clean gap,
/// not churn.
///
/// `replicas` is the group's full pid set in replica order. The victim is
/// the last replica that is not the observed leader.
pub fn rejoin_hunter(
    group: GroupId,
    replicas: Vec<ProcessId>,
    delay_ms: f64,
    down_ms: f64,
) -> ElectionStrike {
    ElectionStrike::new(group, Aim::Rejoin(replicas), delay_ms, down_ms, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_sim::SimTime;

    #[test]
    fn rolling_restart_staggers_crashes() {
        let s = rolling_restart(&[4, 5, 6], 100.0, 20.0, 50.0);
        assert_eq!(s.len(), 6);
        let evs = s.sorted_events();
        assert_eq!(evs[0], (SimTime::from_ms(100.0), &FaultEvent::Crash(4)));
        assert_eq!(evs[1], (SimTime::from_ms(120.0), &FaultEvent::Recover(4)));
        assert_eq!(evs[2], (SimTime::from_ms(150.0), &FaultEvent::Crash(5)));
        assert_eq!(s.horizon(), SimTime::from_ms(220.0));
    }

    #[test]
    fn crash_recover_pairs_up() {
        let s = crash_recover(3, 10.0, 40.0);
        let evs = s.sorted_events();
        assert_eq!(evs[0], (SimTime::from_ms(10.0), &FaultEvent::Crash(3)));
        assert_eq!(evs[1], (SimTime::from_ms(50.0), &FaultEvent::Recover(3)));
    }

    #[test]
    fn wan_partition_and_isolate_build_windows() {
        assert_eq!(wan_partition(&[0, 1], &[2, 3], 5.0, 10.0).len(), 2);
        let s = isolate(0, &[1, 2], 0.0, 100.0);
        assert_eq!(s.horizon(), SimTime::from_ms(100.0));
    }

    /// One election of `pid` in group 0 at `ms`, handed to `strike`;
    /// returns what it queued.
    fn elect(strike: &mut ElectionStrike, pid: ProcessId, ms: f64) -> Vec<(SimTime, FaultEvent)> {
        elect_in(strike, GroupId(0), pid, ms)
    }

    fn elect_in(
        strike: &mut ElectionStrike,
        group: GroupId,
        pid: ProcessId,
        ms: f64,
    ) -> Vec<(SimTime, FaultEvent)> {
        let at = SimTime::from_ms(ms);
        let mut ctx = FaultCtx::new(at);
        let obs = Observation::LeaderElected {
            group,
            replica: pid as u32,
            pid,
            at,
        };
        strike.on_observation(&obs, &mut ctx);
        ctx.queued
    }

    fn t(ms: f64) -> SimTime {
        SimTime::from_ms(ms)
    }

    #[test]
    fn leader_hunter_shoots_each_new_leader_until_out_of_ammo() {
        // Each new leader is crashed 200 ms after its election and
        // recovered after the hold, until out of ammo.
        let mut h = leader_hunter(GroupId(0), 200.0, 2).hold_ms(1_000.0);
        assert_eq!(
            elect(&mut h, 0, 10.0),
            [
                (t(210.0), FaultEvent::Crash(0)),
                (t(1_210.0), FaultEvent::Recover(0))
            ]
        );
        assert_eq!(h.remaining(), 1);
        assert!(elect_in(&mut h, GroupId(1), 9, 50.0).is_empty());
        assert_eq!(h.remaining(), 1, "wrong group does not spend a kill");
        assert_eq!(
            elect(&mut h, 1, 600.0),
            [
                (t(800.0), FaultEvent::Crash(1)),
                (t(1_800.0), FaultEvent::Recover(1))
            ]
        );
        assert_eq!(h.remaining(), 0);
        assert!(elect(&mut h, 2, 1_200.0).is_empty(), "out of ammo");

        // No budget from the start: nothing queued.
        let mut h = leader_hunter(GroupId(0), 100.0, 0);
        assert!(elect(&mut h, 0, 10.0).is_empty());
        assert_eq!(h.remaining(), 0);
    }

    #[test]
    fn quorum_cutter_severs_one_directed_edge_per_election() {
        // Leader 0 elected cuts 0 → 1 only (quorum {0, 2} and {1, 2} both
        // stay connected; one directed edge goes dark), and the failover
        // to 1 re-aims at 1 → 2.
        let mut q = quorum_cutter(GroupId(0), vec![0, 1, 2], 100.0, 800.0, 2);
        let cut = |from, to| FaultEvent::BlockLink { from, to };
        let heal = |from, to| FaultEvent::UnblockLink { from, to };
        assert_eq!(
            elect(&mut q, 0, 10.0),
            [(t(110.0), cut(0, 1)), (t(910.0), heal(0, 1))]
        );
        assert_eq!(q.remaining(), 1);
        assert!(elect_in(&mut q, GroupId(3), 9, 300.0).is_empty());
        assert_eq!(q.remaining(), 1, "wrong group does not spend a cut");
        assert_eq!(
            elect(&mut q, 1, 900.0),
            [(t(1_000.0), cut(1, 2)), (t(1_800.0), heal(1, 2))]
        );
        assert_eq!(q.remaining(), 0);
        assert!(elect(&mut q, 2, 2_000.0).is_empty(), "out of ammo");

        // A one-replica group is never cut.
        let mut q = quorum_cutter(GroupId(0), vec![0], 100.0, 800.0, 1);
        assert!(elect(&mut q, 0, 10.0).is_empty());
        assert_eq!(q.remaining(), 1);

        // An elected pid outside `replicas` spends no budget.
        let mut q = quorum_cutter(GroupId(0), vec![0, 1, 2], 100.0, 800.0, 1);
        assert!(elect(&mut q, 7, 10.0).is_empty());
        assert_eq!(q.remaining(), 1);

        // No budget from the start: nothing queued.
        let mut q = quorum_cutter(GroupId(0), vec![0, 1, 2], 100.0, 800.0, 0);
        assert!(elect(&mut q, 0, 10.0).is_empty());
        assert_eq!(q.remaining(), 0);
    }

    #[test]
    fn rejoin_hunter_crashes_one_follower_once() {
        // The victim is the last non-leader replica, down for the long
        // haul; one shot, so the next failover is spared.
        let mut r = rejoin_hunter(GroupId(0), vec![0, 1, 2], 200.0, 5_000.0);
        assert_eq!(
            elect(&mut r, 0, 10.0),
            [
                (t(210.0), FaultEvent::Crash(2)),
                (t(5_210.0), FaultEvent::Recover(2))
            ]
        );
        assert_eq!(r.remaining(), 0);
        assert!(elect(&mut r, 1, 1_000.0).is_empty(), "one shot");

        // A one-replica group has no follower to crash.
        let mut r = rejoin_hunter(GroupId(0), vec![0], 100.0, 800.0);
        assert!(elect(&mut r, 0, 10.0).is_empty());
        assert_eq!(r.remaining(), 1);

        // An elected pid outside `replicas` spends no budget.
        let mut r = rejoin_hunter(GroupId(0), vec![0, 1, 2], 100.0, 800.0);
        assert!(elect(&mut r, 7, 10.0).is_empty());
        assert_eq!(r.remaining(), 1);
    }
}
