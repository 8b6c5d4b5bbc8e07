//! A replicated FlexCast group: Paxos underneath, the protocol engine on
//! top.
//!
//! The paper's fault-tolerance story (§4.4): each group's protocol logic
//! runs as a replicated state machine, so the group survives minority
//! replica failures and, to the rest of the overlay, still behaves like a
//! single reliable process. [`ReplicatedGroup`] realizes that for any
//! deterministic engine:
//!
//! 1. every input to the group (client message or peer packet) is proposed
//!    as a Paxos command;
//! 2. replicas apply the committed command sequence, in slot order, to
//!    their local engine copy — determinism keeps all copies identical;
//! 3. only the current leader emits the engine's outputs, so the overlay
//!    sees each send exactly once in stable periods (after a leader
//!    change the new leader may resend; FlexCast's receivers are
//!    idempotent for duplicate acks and re-merged histories).

use crate::paxos::{Ballot, PaxosMsg, Replica, SmrOutput};
use flexcast_telemetry::Telemetry;

/// One replica of a replicated group, generic over the engine.
///
/// `I` is the engine input (command) type; `O` the engine output type.
/// The engine itself is any `FnMut(I, &mut Vec<O>)`-shaped apply function
/// captured in the `apply` closure at construction, which keeps this
/// wrapper decoupled from concrete protocol crates.
pub struct ReplicatedGroup<E, I> {
    replica: Replica<I>,
    engine: E,
    apply: fn(&mut E, I, &mut Vec<GroupEffect<I>>),
    emitted_up_to: u64,
    proposals: u64,
    inputs: u64,
    elections: u64,
    telemetry: Telemetry,
}

/// Outputs of a replicated group replica.
#[derive(Clone, Debug, PartialEq)]
pub enum GroupEffect<I> {
    /// A Paxos message for a peer replica of the same group.
    Replication {
        /// Destination replica id.
        to: u32,
        /// The Paxos message.
        msg: PaxosMsg<I>,
    },
    /// An engine-level side effect (send to another group / deliver),
    /// emitted only by the leader. The payload is engine-specific and
    /// produced by the `apply` function.
    Engine(I),
    /// Peer `to` asked for slots below our compaction marker: only a state
    /// snapshot through slot `through` can catch it up. The host transfers
    /// the snapshot out of band (Paxos messages never carry engine state).
    SnapshotNeeded {
        /// Replica that needs the snapshot.
        to: u32,
        /// Our compaction marker: the snapshot must cover `..through`.
        through: u64,
    },
}

impl<E, I: Clone + PartialEq> ReplicatedGroup<E, I> {
    /// Creates replica `id` of `n` for `engine`, with `apply` defining how
    /// a committed command mutates the engine and what effects it emits.
    pub fn new(id: u32, n: u32, engine: E, apply: fn(&mut E, I, &mut Vec<GroupEffect<I>>)) -> Self {
        ReplicatedGroup {
            replica: Replica::new(id, n),
            engine,
            apply,
            emitted_up_to: 0,
            proposals: 0,
            inputs: 0,
            elections: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle (disabled by default). Commands applied
    /// and slots committed are counted live; [`ReplicatedGroup::export_metrics`]
    /// publishes the totals.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Highest slot whose command this replica has applied.
    pub fn applied_slots(&self) -> u64 {
        self.emitted_up_to
    }

    /// True while some slot below the next one to assign is unapplied
    /// here — on a leader, a proposal still in flight.
    pub fn has_open_slots(&self) -> bool {
        self.replica.apply_cursor() < self.replica.next_slot()
    }

    /// Publishes this replica's replication counters under `{prefix}.`:
    /// proposals submitted (one slot each), the inputs they carried,
    /// elections started, and slots applied.
    pub fn export_metrics(&self, tel: &Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        tel.counter_set(&format!("{prefix}.proposals"), self.proposals);
        tel.counter_set(&format!("{prefix}.inputs"), self.inputs);
        tel.counter_set(&format!("{prefix}.elections"), self.elections);
        tel.counter_set(&format!("{prefix}.applied_slots"), self.emitted_up_to);
        tel.gauge_set(
            &format!("{prefix}.is_leader"),
            if self.replica.is_leader() { 1.0 } else { 0.0 },
        );
    }

    /// Access to the underlying engine (inspection/tests).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Access to the underlying Paxos replica.
    pub fn replica(&self) -> &Replica<I> {
        &self.replica
    }

    /// True if this replica leads the group.
    pub fn is_leader(&self) -> bool {
        self.replica.is_leader()
    }

    /// Starts a leader election (drive from an election timeout).
    pub fn start_election(&mut self, out: &mut Vec<GroupEffect<I>>) {
        self.elections += 1;
        let mut paxos_out = Vec::new();
        self.replica.start_election(&mut paxos_out);
        self.drain(paxos_out, out);
    }

    /// Stands for the Paxos election with an externally chosen ballot —
    /// the handoff from ballot leader election ([`crate::ble`]). Returns
    /// true if a campaign actually started (the ballot was ours and newer
    /// than anything already promised).
    pub fn handle_leader(&mut self, ballot: Ballot, out: &mut Vec<GroupEffect<I>>) -> bool {
        let mut paxos_out = Vec::new();
        let stood = self.replica.handle_leader(ballot, &mut paxos_out);
        if stood {
            self.elections += 1;
        }
        self.drain(paxos_out, out);
        stood
    }

    /// Prunes the decided log prefix below `slot` (clamped to the apply
    /// cursor). See [`Replica::compact_to`].
    pub fn compact_to(&mut self, slot: u64) {
        self.replica.compact_to(slot);
    }

    /// Slots below this are compacted away; laggards this far behind need
    /// a snapshot, not replay.
    pub fn compacted_to(&self) -> u64 {
        self.replica.compacted_to()
    }

    /// How many committed-but-unapplied slots this replica knows about
    /// (diagnostics; see [`Replica::commit_lag`]).
    pub fn commit_lag(&self) -> u64 {
        self.replica.commit_lag()
    }

    /// Installs a state snapshot covering slots `..through`: replaces the
    /// engine wholesale and fast-forwards the Paxos log. Returns false (a
    /// no-op, `engine` dropped) if we are already at or past `through` —
    /// which makes duplicate or reordered snapshot transfers safe.
    pub fn install_snapshot(&mut self, engine: E, through: u64) -> bool {
        if !self.replica.install_snapshot(through) {
            return false;
        }
        self.engine = engine;
        self.emitted_up_to = through;
        self.telemetry.counter_add("smr.snapshot_installs", 1);
        true
    }

    /// Proposes an input to the group. Only a leader proposes: elsewhere
    /// this does nothing, and the caller keeps the input until some
    /// replica leads.
    pub fn submit(&mut self, input: I, out: &mut Vec<GroupEffect<I>>) {
        self.submit_carrying(input, 1, out);
    }

    /// [`ReplicatedGroup::submit`] for an input that carries `inputs`
    /// engine commands in one slot (a batch), so the exported `inputs`
    /// counter tells commands from slots.
    pub fn submit_carrying(&mut self, input: I, inputs: u64, out: &mut Vec<GroupEffect<I>>) {
        if !self.replica.is_leader() {
            return;
        }
        self.proposals += 1;
        self.inputs += inputs;
        let mut paxos_out = Vec::new();
        self.replica.propose(input, &mut paxos_out);
        self.drain(paxos_out, out);
    }

    /// Handles a replication message from a peer replica.
    pub fn on_replication(&mut self, from: u32, msg: PaxosMsg<I>, out: &mut Vec<GroupEffect<I>>) {
        let mut paxos_out = Vec::new();
        self.replica.on_message(from, msg, &mut paxos_out);
        self.drain(paxos_out, out);
    }

    /// Periodic repair: leaders re-drive stuck slots and heartbeat the
    /// newest commit as a `Decide`; replicas that know of a commit whose
    /// command they lack ask for it with `LearnReq`. All
    /// resulting traffic is idempotent — drive this from a timer whenever
    /// the group runs over a lossy or partitionable network.
    pub fn tick_repair(&mut self, out: &mut Vec<GroupEffect<I>>) {
        let mut paxos_out = Vec::new();
        self.replica.repair(&mut paxos_out);
        self.replica.request_missing(&mut paxos_out);
        self.drain(paxos_out, out);
    }

    fn drain(&mut self, paxos_out: Vec<SmrOutput<I>>, out: &mut Vec<GroupEffect<I>>) {
        for o in paxos_out {
            match o {
                SmrOutput::Send { to, msg } => out.push(GroupEffect::Replication { to, msg }),
                SmrOutput::SnapshotNeeded { to, through } => {
                    out.push(GroupEffect::SnapshotNeeded { to, through })
                }
                // Committed outputs are consumed via take_committed below
                // so application happens in gap-free slot order.
                SmrOutput::Committed { .. } => {}
            }
        }
        let leader = self.replica.is_leader();
        for cmd in self.replica.take_committed() {
            self.emitted_up_to += 1;
            self.telemetry.counter_add("smr.commands_applied", 1);
            let mut effects = Vec::new();
            (self.apply)(&mut self.engine, cmd, &mut effects);
            if leader {
                out.extend(effects);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy engine: a counter that emits its running total on every input.
    #[derive(Default)]
    struct Counter {
        total: u32,
        applied: Vec<u32>,
    }

    fn apply(engine: &mut Counter, input: u32, out: &mut Vec<GroupEffect<u32>>) {
        engine.total += input;
        engine.applied.push(input);
        out.push(GroupEffect::Engine(engine.total));
    }

    fn route(
        groups: &mut [ReplicatedGroup<Counter, u32>],
        from: u32,
        effects: Vec<GroupEffect<u32>>,
    ) -> Vec<u32> {
        let mut emitted = Vec::new();
        for e in effects {
            match e {
                GroupEffect::Replication { to, msg } => {
                    let mut next = Vec::new();
                    groups[to as usize].on_replication(from, msg, &mut next);
                    emitted.extend(route(groups, to, next));
                }
                GroupEffect::Engine(v) => emitted.push(v),
                GroupEffect::SnapshotNeeded { .. } => {
                    unreachable!("no compaction in these tests")
                }
            }
        }
        emitted
    }

    fn replicated_counter(n: u32) -> Vec<ReplicatedGroup<Counter, u32>> {
        (0..n)
            .map(|i| ReplicatedGroup::new(i, n, Counter::default(), apply))
            .collect()
    }

    #[test]
    fn replicas_apply_identically_and_leader_emits() {
        let mut gs = replicated_counter(3);
        let mut out = Vec::new();
        gs[0].start_election(&mut out);
        let effects = route(&mut gs, 0, out);
        assert!(effects.is_empty());
        assert!(gs[0].is_leader());

        let mut out = Vec::new();
        gs[0].submit(5, &mut out);
        let mut emitted = route(&mut gs, 0, out);
        let mut out = Vec::new();
        gs[0].submit(7, &mut out);
        emitted.extend(route(&mut gs, 0, out));

        // Only the leader emitted, once per command.
        assert_eq!(emitted, vec![5, 12]);
        // All replicas applied the same sequence.
        for g in &gs {
            assert_eq!(g.engine().applied, vec![5, 7]);
            assert_eq!(g.engine().total, 12);
        }
    }

    #[test]
    fn single_replica_group_works_degenerately() {
        let mut gs = replicated_counter(1);
        let mut out = Vec::new();
        gs[0].start_election(&mut out);
        let mut out2 = Vec::new();
        gs[0].submit(3, &mut out2);
        let emitted = route(&mut gs, 0, out2);
        assert_eq!(emitted, vec![3]);
    }
}
