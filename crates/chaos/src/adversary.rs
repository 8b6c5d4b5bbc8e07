//! The reactive adversary API: fault injection driven by the simulator's
//! observation plane.
//!
//! A [`FaultSchedule`] can only say *when* to inject a fault. An
//! [`Adversary`] can say *under which execution state*: the driver
//! ([`crate::run_adversary`]) feeds it every [`Observation`] actors
//! publish (leadership transitions, application probes) and the adversary
//! answers through a [`FaultCtx`] — immediate or delayed fault events
//! scheduled on the simulated clock. The scenarios this unlocks are the
//! election strikes ([`crate::scenarios::ElectionStrike`]): answer each
//! failover with a fault aimed at whoever leads *now* — which no
//! pre-scripted timeline can express because the identity of the leader
//! is itself an outcome of the faults. Every fault an adversary fires is
//! recorded by the driver in [`crate::AdversaryRun::actions`]; an
//! adversary keeps no log of its own.
//!
//! Determinism is preserved end to end: observations are published in
//! deterministic event order, dispatched at simulated-time boundaries,
//! and actions fire in `(time, scheduling order)` — so one `(world seed,
//! adversary)` pair always produces one execution.

use crate::schedule::{FaultEvent, FaultSchedule};
use flexcast_sim::{Observation, ProcessId, SimTime};

/// An error from validating or applying a chaos action.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosError {
    /// A fault event referenced a process id the world does not host.
    PidOutOfRange {
        /// The offending process id.
        pid: ProcessId,
        /// Number of processes in the world.
        n: usize,
    },
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::PidOutOfRange { pid, n } => write!(
                f,
                "process id {pid} is out of range for a world of {n} processes"
            ),
        }
    }
}

impl std::error::Error for ChaosError {}

/// The action collector handed to every [`Adversary`] callback.
///
/// Fault events carry an *absolute* simulated fire time;
/// [`FaultCtx::apply`] and [`FaultCtx::after_ms`] express it relative to
/// [`FaultCtx::now`], the time of the observation being handled. Actions scheduled in the past are clamped
/// to fire immediately. The driver pops actions in `(time, insertion
/// order)` — the same tie-break a [`FaultSchedule`] uses — so reactive
/// runs stay deterministic.
pub struct FaultCtx {
    now: SimTime,
    pub(crate) queued: Vec<(SimTime, FaultEvent)>,
}

impl FaultCtx {
    pub(crate) fn new(now: SimTime) -> Self {
        FaultCtx {
            now,
            queued: Vec::new(),
        }
    }

    /// The simulated time of the observation being handled.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `ev` at the absolute simulated time `t` (clamped to
    /// "now" if `t` is already past). The fundamental scheduling step —
    /// the other two are sugar over it.
    pub fn at(&mut self, t: SimTime, ev: FaultEvent) {
        self.queued.push((t.max(self.now), ev));
    }

    /// Applies `ev` immediately (at the current simulated time).
    pub fn apply(&mut self, ev: FaultEvent) {
        self.at(self.now, ev);
    }

    /// Schedules `ev` to fire `ms` milliseconds from now.
    pub fn after_ms(&mut self, ms: f64, ev: FaultEvent) {
        self.at(self.now + SimTime::from_ms(ms), ev);
    }
}

/// A reactive fault injector: observes execution state, answers with
/// fault actions.
///
/// Implementations must be deterministic functions of the observation
/// sequence (no wall-clock, no unseeded randomness) — that is what keeps
/// chaotic runs exactly reproducible from `(world seed, adversary)`.
pub trait Adversary {
    /// Called once before the first simulation step; the place to
    /// schedule unconditional faults.
    fn on_start(&mut self, _ctx: &mut FaultCtx) {}

    /// Called for every observation the world publishes, in deterministic
    /// event order.
    fn on_observation(&mut self, obs: &Observation, ctx: &mut FaultCtx);

    /// Whether this adversary reacts to observations at all. The driver
    /// skips probe publishing and observation dispatch entirely when this
    /// returns `false`, so purely pre-scheduled adversaries — notably the
    /// [`ScheduleAdversary`] behind `run_schedule` — add zero overhead
    /// over the pre-redesign timed driver.
    fn wants_observations(&self) -> bool {
        true
    }
}

/// The compatibility adversary: replays a [`FaultSchedule`] verbatim,
/// ignoring every observation. [`crate::run_schedule`] is implemented as
/// `run_adversary` over this type, which is what keeps every pre-redesign
/// caller, test, and golden trace working unchanged on the reactive
/// driver.
#[derive(Clone, Debug)]
pub struct ScheduleAdversary {
    schedule: FaultSchedule,
}

impl ScheduleAdversary {
    /// Wraps a schedule for the reactive driver.
    pub fn new(schedule: FaultSchedule) -> Self {
        ScheduleAdversary { schedule }
    }
}

impl Adversary for ScheduleAdversary {
    fn on_start(&mut self, ctx: &mut FaultCtx) {
        for (t, ev) in self.schedule.sorted_events() {
            ctx.at(t, ev.clone());
        }
    }

    fn on_observation(&mut self, _obs: &Observation, _ctx: &mut FaultCtx) {}

    /// The script is fixed at `on_start`; skip the observation plane.
    fn wants_observations(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_ctx_clamps_past_times_and_orders_insertion() {
        let mut ctx = FaultCtx::new(SimTime::from_ms(100.0));
        ctx.at(SimTime::from_ms(50.0), FaultEvent::Crash(0));
        ctx.after_ms(10.0, FaultEvent::Crash(1));
        ctx.apply(FaultEvent::Crash(2));
        assert_eq!(ctx.queued[0].0, SimTime::from_ms(100.0), "clamped");
        assert_eq!(ctx.queued[1].0, SimTime::from_ms(110.0));
        assert_eq!(ctx.queued[2].0, SimTime::from_ms(100.0));
    }

    #[test]
    fn chaos_error_displays_clearly() {
        let e = ChaosError::PidOutOfRange { pid: 9, n: 4 };
        assert_eq!(
            e.to_string(),
            "process id 9 is out of range for a world of 4 processes"
        );
    }
}
