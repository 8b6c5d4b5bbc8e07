//! The fault-schedule DSL: timed fault events and their builder.

use flexcast_sim::{LinkFault, ProcessId, SimTime};

/// One fault applied to the world at a scheduled time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// Crash-stop a process: messages to it are dropped, its timers are
    /// cancelled. State is retained (fail-recover model).
    Crash(ProcessId),
    /// Bring a crashed process back up; its `on_start` re-runs so it can
    /// re-arm timers.
    Recover(ProcessId),
    /// Sever every link between the two sides, in both directions.
    PartitionStart {
        /// Processes on one side of the cut.
        a: Vec<ProcessId>,
        /// Processes on the other side.
        b: Vec<ProcessId>,
    },
    /// Heal a symmetric partition created by `PartitionStart`.
    PartitionEnd {
        /// Processes on one side of the cut.
        a: Vec<ProcessId>,
        /// Processes on the other side.
        b: Vec<ProcessId>,
    },
    /// Sever a single directed link (an *asymmetric* partition: `from` can
    /// be heard but cannot hear, or vice versa, depending on orientation).
    BlockLink {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Restore a directed link severed by `BlockLink`.
    UnblockLink {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Install (or replace) a probabilistic fault on a directed link.
    SetLinkFault {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
        /// Drop/duplicate/reorder probabilities and extra delay.
        fault: LinkFault,
    },
    /// Remove the probabilistic fault from a directed link.
    ClearLinkFault {
        /// Sending process.
        from: ProcessId,
        /// Receiving process.
        to: ProcessId,
    },
    /// Add `extra` one-way delay to every link touching any of `pids`
    /// (both directions), preserving other fault fields on those links.
    SpikeStart {
        /// Affected processes.
        pids: Vec<ProcessId>,
        /// Extra one-way delay.
        extra: SimTime,
    },
    /// Remove the extra delay installed by `SpikeStart` on links touching
    /// `pids` (other fault fields on those links are preserved).
    SpikeEnd {
        /// Affected processes.
        pids: Vec<ProcessId>,
    },
}

/// A deterministic script of timed fault events.
///
/// Events fire in time order; ties fire in insertion order, which makes a
/// schedule read top-to-bottom like a test scenario. Built through the
/// chainable `*_at` / `*_between` methods:
///
/// ```
/// use flexcast_chaos::FaultSchedule;
/// use flexcast_sim::LinkFault;
///
/// let s = FaultSchedule::new()
///     .crash_at(150.0, 0)                      // leader dies mid-stream
///     .partition_between(200.0, 800.0, &[3, 4, 5], &[6, 7, 8])
///     .link_fault_between(0.0, 500.0, 1, 2, LinkFault::dropping(0.2))
///     .recover_at(1_000.0, 0);
/// assert_eq!(s.len(), 6);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<(SimTime, FaultEvent)>,
}

impl FaultSchedule {
    /// An empty schedule (a run with no faults).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Adds one event at `t`; the fundamental builder step.
    pub fn at(mut self, t: SimTime, ev: FaultEvent) -> Self {
        self.events.push((t, ev));
        self
    }

    /// Crashes `pid` at `ms` milliseconds.
    pub fn crash_at(self, ms: f64, pid: ProcessId) -> Self {
        self.at(SimTime::from_ms(ms), FaultEvent::Crash(pid))
    }

    /// Recovers `pid` at `ms` milliseconds.
    pub fn recover_at(self, ms: f64, pid: ProcessId) -> Self {
        self.at(SimTime::from_ms(ms), FaultEvent::Recover(pid))
    }

    /// Symmetric partition between `a` and `b` from `start_ms` until
    /// `end_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `end_ms < start_ms`.
    pub fn partition_between(
        self,
        start_ms: f64,
        end_ms: f64,
        a: &[ProcessId],
        b: &[ProcessId],
    ) -> Self {
        assert!(end_ms >= start_ms, "partition must end after it starts");
        self.at(
            SimTime::from_ms(start_ms),
            FaultEvent::PartitionStart {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        )
        .at(
            SimTime::from_ms(end_ms),
            FaultEvent::PartitionEnd {
                a: a.to_vec(),
                b: b.to_vec(),
            },
        )
    }

    /// Asymmetric partition: blocks only the directed link `from → to`
    /// over the window.
    ///
    /// # Panics
    ///
    /// Panics if `end_ms < start_ms`.
    pub fn block_between(self, start_ms: f64, end_ms: f64, from: ProcessId, to: ProcessId) -> Self {
        assert!(end_ms >= start_ms, "block must end after it starts");
        self.at(
            SimTime::from_ms(start_ms),
            FaultEvent::BlockLink { from, to },
        )
        .at(
            SimTime::from_ms(end_ms),
            FaultEvent::UnblockLink { from, to },
        )
    }

    /// Installs `fault` on the directed link over the window.
    ///
    /// # Panics
    ///
    /// Panics if `end_ms < start_ms`.
    pub fn link_fault_between(
        self,
        start_ms: f64,
        end_ms: f64,
        from: ProcessId,
        to: ProcessId,
        fault: LinkFault,
    ) -> Self {
        assert!(end_ms >= start_ms, "fault must end after it starts");
        self.at(
            SimTime::from_ms(start_ms),
            FaultEvent::SetLinkFault { from, to, fault },
        )
        .at(
            SimTime::from_ms(end_ms),
            FaultEvent::ClearLinkFault { from, to },
        )
    }

    /// Latency spike: `extra_ms` of one-way delay on every link touching
    /// `pids` over the window.
    ///
    /// # Panics
    ///
    /// Panics if `end_ms < start_ms`.
    pub fn latency_spike(
        self,
        start_ms: f64,
        end_ms: f64,
        pids: &[ProcessId],
        extra_ms: f64,
    ) -> Self {
        assert!(end_ms >= start_ms, "spike must end after it starts");
        self.at(
            SimTime::from_ms(start_ms),
            FaultEvent::SpikeStart {
                pids: pids.to_vec(),
                extra: SimTime::from_ms(extra_ms),
            },
        )
        .at(
            SimTime::from_ms(end_ms),
            FaultEvent::SpikeEnd {
                pids: pids.to_vec(),
            },
        )
    }

    /// Concatenates another schedule into this one (times are absolute).
    pub fn merge(mut self, other: FaultSchedule) -> Self {
        self.events.extend(other.events);
        self
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events in firing order: by time, insertion order on ties.
    pub fn sorted_events(&self) -> Vec<(SimTime, &FaultEvent)> {
        let mut order: Vec<usize> = (0..self.events.len()).collect();
        order.sort_by_key(|&i| (self.events[i].0, i));
        order
            .into_iter()
            .map(|i| (self.events[i].0, &self.events[i].1))
            .collect()
    }

    /// The latest event time, or zero for an empty schedule.
    pub fn horizon(&self) -> SimTime {
        self.events
            .iter()
            .map(|&(t, _)| t)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let s = FaultSchedule::new()
            .crash_at(100.0, 2)
            .recover_at(50.0, 2)
            .crash_at(100.0, 3);
        let evs = s.sorted_events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].0, SimTime::from_ms(50.0));
        // Tie at 100 ms: insertion order preserved.
        assert_eq!(evs[1].1, &FaultEvent::Crash(2));
        assert_eq!(evs[2].1, &FaultEvent::Crash(3));
        assert_eq!(s.horizon(), SimTime::from_ms(100.0));
    }

    #[test]
    fn window_builders_emit_paired_events() {
        let s = FaultSchedule::new()
            .partition_between(10.0, 20.0, &[0], &[1])
            .block_between(5.0, 30.0, 1, 0)
            .latency_spike(0.0, 40.0, &[2], 15.0)
            .link_fault_between(1.0, 2.0, 0, 1, LinkFault::dropping(0.5));
        assert_eq!(s.len(), 8);
        assert_eq!(s.horizon(), SimTime::from_ms(40.0));
    }

    #[test]
    fn merge_concatenates() {
        let a = FaultSchedule::new().crash_at(1.0, 0);
        let b = FaultSchedule::new().recover_at(2.0, 0);
        let m = a.merge(b);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(FaultSchedule::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "end after it starts")]
    fn inverted_window_rejected() {
        let _ = FaultSchedule::new().partition_between(20.0, 10.0, &[0], &[1]);
    }
}
