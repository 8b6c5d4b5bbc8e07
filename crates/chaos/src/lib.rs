//! Deterministic fault injection over the FlexCast simulator.
//!
//! The paper's fault-tolerance claim (§4.4) is that a FlexCast group
//! survives replica failures through state machine replication — but a
//! claim like that is only as good as the failure scenarios it has been
//! exercised under. This crate makes fault scenarios first-class,
//! explorable configurations, in two layers:
//!
//! **Timed scripts** — faults at pre-scripted simulated times:
//!
//! * [`FaultEvent`] — one fault: crash/recover a process, start/heal a
//!   symmetric or asymmetric partition, install a probabilistic
//!   [`LinkFault`](flexcast_sim::LinkFault) (drop/duplicate/reorder), or
//!   spike the latency of every link touching a set of processes.
//! * [`FaultSchedule`] — a declarative script of timed events built
//!   through a small builder DSL ([`FaultSchedule::crash_at`],
//!   [`FaultSchedule::partition_between`], ...) and composed with
//!   [`FaultSchedule::merge`].
//! * [`run_schedule`] — the timed driver (a thin compatibility wrapper
//!   over [`run_adversary`] since the reactive redesign).
//!
//! **Reactive adversaries** — faults triggered by *execution state*,
//! published through the simulator's observation plane
//! ([`flexcast_sim::Observation`], DESIGN.md §9):
//!
//! * [`Adversary`] — the one way to write an adversary: the driver feeds
//!   it every observation (leadership transitions, application probes)
//!   and it answers with immediate or delayed fault events through a
//!   [`FaultCtx`].
//! * [`run_adversary`] — the reactive driver: interleaves simulation,
//!   observation dispatch, and fault application; returns the
//!   fired-action trace ([`AdversaryRun`]) that replays the run as a
//!   plain schedule.
//! * [`scenarios::ElectionStrike`] — the one election-triggered shape:
//!   on each leader election in a group, while budget lasts, fire a fault
//!   a fixed delay later and undo it after a hold. Its presets crash the
//!   new leader ([`scenarios::leader_hunter`], the flagship), deafen the
//!   leader's next sibling ([`scenarios::quorum_cutter`]), or crash one
//!   follower for a deep catch-up gap ([`scenarios::rejoin_hunter`]).
//!   None is expressible as a schedule, because each victim is an outcome
//!   of the earlier strikes; what they fired is read from
//!   [`AdversaryRun::actions`], the record every reactive run keeps.
//!
//! Both layers sample every fault draw from the world's own seeded RNG
//! and fire actions in `(time, scheduling order)`, so every chaotic run —
//! scripted or reactive — is exactly reproducible from `(world seed,
//! schedule/adversary)`.
//!
//! The crate is protocol-agnostic: it manipulates the simulator only.
//! `flexcast-harness` supplies the replicated FlexCast worlds (and the
//! observation publishers) these drivers are pointed at, and
//! `flexcast-bench`'s `fault_sweep` binary runs scripted, target-crash and
//! election-strike cells against replication factors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod driver;
pub mod scenarios;
pub mod schedule;

pub use adversary::{Adversary, ChaosError, FaultCtx, ScheduleAdversary};
pub use driver::{run_adversary, run_schedule, try_apply_event, AdversaryRun};
pub use schedule::{FaultEvent, FaultSchedule};
