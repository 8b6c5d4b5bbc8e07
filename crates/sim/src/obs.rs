//! The observation plane: typed facts actors publish about their own
//! execution state.
//!
//! Fault drivers historically could react only to *time* — a schedule
//! fires at 150 ms whether or not the leader it meant to kill is still
//! the leader. Observations close that gap: actors publish typed state
//! transitions through [`Ctx::observe`](crate::Ctx::observe) (leadership
//! changes, domain-specific markers), the world
//! buffers them, and a reactive driver (`flexcast-chaos::run_adversary`)
//! drains and dispatches them at simulated-time boundaries. An adversary
//! can then express "kill the *current* leader 200 ms after each
//! failover" — something no timed script can say.
//!
//! Publishing is **off by default** and costs nothing until a driver
//! enables probes ([`World::enable_probes`](crate::World::enable_probes)):
//! plain `run_to_quiescence` runs — including the throughput benches —
//! never buffer anything. Observations are pure data: publishing draws no
//! randomness, schedules no events, and never perturbs the execution, so
//! a probed run replays byte-identically with probes on or off.

use crate::time::SimTime;
use crate::world::ProcessId;
use flexcast_types::GroupId;

/// One typed fact about execution state, published by an actor.
///
/// Every variant carries `at`, the simulated time at which the fact became
/// true — the time of the callback that published it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Observation {
    /// A replica assumed leadership of its group (e.g. won an election or
    /// took over after a failover).
    LeaderElected {
        /// The replicated group.
        group: GroupId,
        /// Replica index within the group.
        replica: u32,
        /// Simulator pid of the new leader.
        pid: ProcessId,
        /// When leadership was assumed.
        at: SimTime,
    },
    /// A replica stopped leading its group (demoted by a higher ballot).
    /// Crashes do *not* publish this — a crashed actor runs no callbacks;
    /// the next [`Observation::LeaderElected`] of the group marks the
    /// failover instead.
    LeaderLost {
        /// The replicated group.
        group: GroupId,
        /// Replica index within the group.
        replica: u32,
        /// Simulator pid of the demoted replica.
        pid: ProcessId,
        /// When leadership was lost.
        at: SimTime,
    },
    /// An application-defined marker for probes the built-in vocabulary
    /// does not cover. `tag` namespaces the probe; `value` is its payload.
    Custom {
        /// Simulator pid of the publishing actor.
        pid: ProcessId,
        /// Application-defined probe namespace.
        tag: u64,
        /// Application-defined value.
        value: u64,
        /// When the marker was published.
        at: SimTime,
    },
}

impl Observation {
    /// The simulated time the observed fact became true.
    pub fn at(&self) -> SimTime {
        match *self {
            Observation::LeaderElected { at, .. }
            | Observation::LeaderLost { at, .. }
            | Observation::Custom { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let t = SimTime::from_ms(3.0);
        let obs = [
            Observation::LeaderElected {
                group: GroupId(1),
                replica: 2,
                pid: 5,
                at: t,
            },
            Observation::LeaderLost {
                group: GroupId(1),
                replica: 2,
                pid: 5,
                at: t,
            },
            Observation::Custom {
                pid: 5,
                tag: 1,
                value: 2,
                at: t,
            },
        ];
        for o in obs {
            assert_eq!(o.at(), t);
        }
    }
}
