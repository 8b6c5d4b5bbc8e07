//! Single-leader multi-Paxos.
//!
//! The classic protocol [Lamport 1998], structured for clarity:
//!
//! * A **ballot** is `(round, replica)`, totally ordered; each replica can
//!   lead at most one ballot per round.
//! * **Phase 1** (leader election): a candidate sends `Prepare(b)`;
//!   acceptors that have not promised a higher ballot reply `Promise`
//!   carrying everything they ever accepted. With a quorum of promises
//!   the candidate becomes leader and must re-propose, per slot, the
//!   highest-ballot value reported — the invariant that makes leader
//!   changes safe.
//! * **Phase 2** (replication): the leader assigns commands to slots and
//!   sends `Accept`; acceptors log and reply `Accepted`; a quorum of
//!   votes under the leader's ballot commits the slot.
//! * **Commit notice**: the leader tells followers `Decide(slot, ballot)`,
//!   not the command. A follower commits the command it itself accepted
//!   under that ballot, so each command crosses the wire once per
//!   follower. A follower that never got the `Accept` asks for the
//!   command with `LearnReq`, and only that answer, `Learn`, carries it.
//!
//! Commands apply in slot order; [`Replica::take_committed`] hands the
//! application a gap-free committed prefix.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A Paxos ballot: `(round, replica id)`, ordered lexicographically.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct Ballot {
    /// Election round.
    pub round: u64,
    /// The replica that owns this ballot.
    pub owner: u32,
}

impl Ballot {
    /// The zero ballot (smaller than any real ballot).
    pub const ZERO: Ballot = Ballot { round: 0, owner: 0 };
}

/// Messages exchanged between replicas of one group.
///
/// Variants are only ever appended: the wire format writes the variant
/// index, so a new variant leaves every existing encoding unchanged.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum PaxosMsg<C> {
    /// Phase 1a, candidate → every peer: asks for promises. Sent when a
    /// replica stands for election.
    Prepare {
        /// The candidate's ballot.
        ballot: Ballot,
    },
    /// Phase 1b, acceptor → candidate: promises to ignore lower ballots
    /// and reports what it accepted. Sent for a `Prepare` above every
    /// ballot promised so far.
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// Every `(slot, accepted ballot, command)` the acceptor holds.
        accepted: Vec<(u64, Ballot, C)>,
    },
    /// Phase 2a, leader → every peer: proposes `cmd` at `slot`. Sent for
    /// each new slot, for each slot a new leader re-proposes, by the
    /// repair tick for slots still uncommitted, and after the repair
    /// tick's `Decide` to re-assert the leader's ballot.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// Log position.
        slot: u64,
        /// The command.
        cmd: C,
    },
    /// Phase 2b, acceptor → leader: the proposal is logged. Sent for
    /// every `Accept` at or above the acceptor's promise.
    Accepted {
        /// The ballot accepted under.
        ballot: Ballot,
        /// Log position.
        slot: u64,
    },
    /// Command-carrying commit, replica → the replica that asked: sent
    /// only in answer to a `LearnReq`, one per committed slot at or above
    /// its `from_slot`.
    Learn {
        /// Log position.
        slot: u64,
        /// The committed command.
        cmd: C,
    },
    /// Gap-fill request, lagging replica → the replica it believes leads
    /// (every peer if that is itself): it knows of commits at or above
    /// `from_slot` whose commands it lacks, and asks for them as `Learn`s.
    /// Sent by the repair tick after message loss (partitions, crashed
    /// leaders). A receiver that already compacted past `from_slot`
    /// answers the compacted prefix with [`SmrOutput::SnapshotNeeded`]
    /// instead of replaying history it no longer holds.
    LearnReq {
        /// First slot the requester is missing.
        from_slot: u64,
    },
    /// Commit notice, leader → every peer: the command accepted at `slot`
    /// under `ballot` is committed. Sent when a slot commits, and by the
    /// repair tick for the newest commit, as a heartbeat.
    ///
    /// A receiver commits the command it accepted at `slot` under exactly
    /// `ballot`. Until such an `Accept` arrives, it keeps the notice: the
    /// slot counts as a known commit, so the repair tick asks for the
    /// command with `LearnReq`.
    ///
    /// This is safe because a `(ballot, slot)` pair names at most one
    /// command. A ballot has one owner, and the owner proposes each slot
    /// at most once per ballot: every `Accept` it sends for the slot
    /// under that ballot carries the same command (the repair tick
    /// re-asserts a commit only where that holds). A leader sends
    /// `Decide` only after a quorum accepted that very pair, because its
    /// quorum tally holds votes for its current ballot alone.
    Decide {
        /// Log position.
        slot: u64,
        /// The ballot the committed command was accepted under.
        ballot: Ballot,
    },
}

/// An action produced by a replica.
#[derive(Clone, Debug, PartialEq)]
pub enum SmrOutput<C> {
    /// Send a Paxos message to a peer replica (by replica index).
    Send {
        /// Destination replica.
        to: u32,
        /// The message.
        msg: PaxosMsg<C>,
    },
    /// `slot` committed with `cmd`; commands become applicable in slot
    /// order through [`Replica::take_committed`].
    Committed {
        /// Log position.
        slot: u64,
        /// The committed command.
        cmd: C,
    },
    /// Peer `to` asked for commits below this replica's compaction marker
    /// ([`Replica::compact_to`]): the log below `through` is gone, so the
    /// wrapper must ship a state snapshot covering slots `< through`
    /// instead of `Learn` replays.
    SnapshotNeeded {
        /// The peer that needs catching up.
        to: u32,
        /// The compaction marker: the snapshot must cover all slots below
        /// this.
        through: u64,
    },
}

#[derive(Clone, Debug, PartialEq)]
enum Role {
    Follower,
    Candidate { promises: BTreeSet<u32> },
    Leader,
}

/// A multi-Paxos replica, sans-io and deterministic.
#[derive(Clone, Debug)]
pub struct Replica<C> {
    id: u32,
    n: u32,
    role: Role,
    /// Highest ballot promised (phase 1) — we reject anything lower.
    promised: Ballot,
    /// Our current candidate/leader ballot when not following.
    my_ballot: Ballot,
    /// Accepted entries: slot → (ballot, command).
    accepted: BTreeMap<u64, (Ballot, C)>,
    /// Values gathered from promises during an election.
    election_values: BTreeMap<u64, (Ballot, C)>,
    /// Quorum tally for in-flight proposals: slot → acceptors.
    tally: BTreeMap<u64, BTreeSet<u32>>,
    /// Committed commands: slot → command.
    committed: BTreeMap<u64, C>,
    /// Commit notices whose command this replica does not hold under the
    /// named ballot: slot → ballot. An entry leaves when its slot commits
    /// or a snapshot skips it, so none lies below the apply cursor.
    decided: BTreeMap<u64, Ballot>,
    /// Next slot a leader assigns.
    next_slot: u64,
    /// Next slot to hand to the application.
    apply_at: u64,
    /// Compacted-prefix marker: slots below this have been pruned from
    /// `committed`/`accepted` and are only recoverable via state snapshot.
    compacted_to: u64,
}

impl<C: Clone + PartialEq> Replica<C> {
    /// Creates replica `id` of `n` (quorum = ⌊n/2⌋ + 1).
    pub fn new(id: u32, n: u32) -> Self {
        assert!(n >= 1 && id < n, "replica id out of range");
        Replica {
            id,
            n,
            role: Role::Follower,
            promised: Ballot::ZERO,
            my_ballot: Ballot::ZERO,
            accepted: BTreeMap::new(),
            election_values: BTreeMap::new(),
            tally: BTreeMap::new(),
            committed: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_slot: 0,
            apply_at: 0,
            compacted_to: 0,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// True if this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The highest ballot this replica has promised.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Next slot to hand to the application (everything below is applied).
    pub fn apply_cursor(&self) -> u64 {
        self.apply_at
    }

    /// Next slot this replica assigns when it leads (everything below was
    /// proposed, or skipped by a snapshot).
    pub fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// The compacted-prefix marker: slots below it were pruned by
    /// [`Replica::compact_to`] (or skipped by
    /// [`Replica::install_snapshot`]) and can only be recovered via state
    /// snapshot.
    pub fn compacted_to(&self) -> u64 {
        self.compacted_to
    }

    /// How far the committed log this replica *knows about* runs ahead of
    /// what it has applied: `(highest known commit + 1) − apply cursor`.
    /// A slot is a known commit once committed here, or once a `Decide`
    /// named it, command or not. A rejoining replica learns the head via
    /// the leader's `Decide` heartbeat. A diagnostic only: catching up is
    /// [`Replica::request_missing`]'s job, whose `LearnReq` a peer answers
    /// below its compaction marker with [`SmrOutput::SnapshotNeeded`].
    pub fn commit_lag(&self) -> u64 {
        self.known_head()
            .map_or(0, |max| max.saturating_add(1).saturating_sub(self.apply_at))
    }

    /// The highest known commit: committed here, or named by a `Decide`.
    fn known_head(&self) -> Option<u64> {
        let committed = self.committed.keys().next_back();
        committed.max(self.decided.keys().next_back()).copied()
    }

    /// Prunes the log below `slot` (clamped to the apply cursor: only
    /// slots already handed to the application may be compacted away) and
    /// advances the compacted-prefix marker. After compaction, a
    /// [`PaxosMsg::LearnReq`] below the marker is answered with
    /// [`SmrOutput::SnapshotNeeded`] — never with `Learn` replays.
    pub fn compact_to(&mut self, slot: u64) {
        let upto = slot.min(self.apply_at);
        if upto <= self.compacted_to {
            return;
        }
        self.compacted_to = upto;
        self.committed = self.committed.split_off(&upto);
        self.accepted = self.accepted.split_off(&upto);
        self.tally = self.tally.split_off(&upto);
    }

    /// Fast-forwards this replica past slots `< through` after installing
    /// a state snapshot that covers them: the apply cursor jumps to
    /// `through`, the skipped prefix is dropped, and the compaction marker
    /// advances (this replica can no longer serve the prefix either).
    /// No-op when the snapshot is stale (`through` at or below the apply
    /// cursor), so duplicate or reordered snapshot deliveries are safe.
    /// Returns true iff the snapshot was actually installed.
    pub fn install_snapshot(&mut self, through: u64) -> bool {
        if through <= self.apply_at {
            return false;
        }
        self.apply_at = through;
        self.compacted_to = self.compacted_to.max(through);
        self.next_slot = self.next_slot.max(through);
        self.committed = self.committed.split_off(&through);
        self.accepted = self.accepted.split_off(&through);
        self.tally = self.tally.split_off(&through);
        self.decided = self.decided.split_off(&through);
        true
    }

    fn quorum(&self) -> usize {
        (self.n as usize / 2) + 1
    }

    fn peers(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.n).filter(move |&p| p != self.id)
    }

    /// Sends `msg` to every peer.
    fn broadcast(&self, msg: PaxosMsg<C>, out: &mut Vec<SmrOutput<C>>) {
        for to in self.peers() {
            let msg = msg.clone();
            out.push(SmrOutput::Send { to, msg });
        }
    }

    /// Starts (or retries) an election with a ballot above everything seen.
    /// Drive this from an election timeout.
    pub fn start_election(&mut self, out: &mut Vec<SmrOutput<C>>) {
        let ballot = Ballot {
            round: self.promised.round + 1,
            owner: self.id,
        };
        self.stand_with(ballot, out);
    }

    /// Handles a `Leader` event from a ballot-leader-election component
    /// ([`crate::ble::BallotLeaderElection`]): if the elected ballot is
    /// ours and higher than anything promised, stand for Paxos election
    /// *with that ballot*, so the BLE total order and the Paxos ballot
    /// order coincide. Events about other owners — or stale ballots from
    /// before a demotion — are ignored (the new leader's `Prepare` is what
    /// demotes us). Returns true iff an election was actually started.
    pub fn handle_leader(&mut self, ballot: Ballot, out: &mut Vec<SmrOutput<C>>) -> bool {
        if ballot.owner != self.id || ballot <= self.promised {
            return false;
        }
        self.stand_with(ballot, out);
        true
    }

    fn stand_with(&mut self, ballot: Ballot, out: &mut Vec<SmrOutput<C>>) {
        self.my_ballot = ballot;
        self.promised = self.my_ballot;
        self.role = Role::Candidate {
            promises: BTreeSet::from([self.id]),
        };
        // Votes count toward a quorum only under the ballot they were cast
        // for: at five replicas, votes left from an earlier ballot of ours
        // could otherwise complete a quorum that never accepted one pair.
        self.tally.clear();
        self.election_values = self.accepted.iter().map(|(&s, v)| (s, v.clone())).collect();
        self.broadcast(PaxosMsg::Prepare { ballot }, out);
        self.maybe_win(out);
    }

    /// Proposes a command at the next slot. Only a leader proposes: on any
    /// other replica this does nothing, and the caller keeps the command
    /// until some replica leads. Nor does a leader whose slots ran out
    /// (a snapshot's `through` can name the last one).
    pub fn propose(&mut self, cmd: C, out: &mut Vec<SmrOutput<C>>) {
        if self.role != Role::Leader {
            return;
        }
        let slot = self.next_slot;
        let Some(next) = slot.checked_add(1) else {
            return;
        };
        self.next_slot = next;
        self.accept_locally(self.my_ballot, slot, cmd.clone());
        self.tally.entry(slot).or_default().insert(self.id);
        let ballot = self.my_ballot;
        self.broadcast(PaxosMsg::Accept { ballot, slot, cmd }, out);
        self.maybe_commit(slot, out);
    }

    fn accept_locally(&mut self, ballot: Ballot, slot: u64, cmd: C) {
        self.accepted.insert(slot, (ballot, cmd));
    }

    fn maybe_win(&mut self, out: &mut Vec<SmrOutput<C>>) {
        let Role::Candidate { promises } = &self.role else {
            return;
        };
        if promises.len() < self.quorum() {
            return;
        }
        self.role = Role::Leader;
        // Safety: re-propose the highest-ballot value per slot reported by
        // the promise quorum, then continue after the highest slot — and
        // never below what this replica compacted or applied, which the
        // quorum may no longer report.
        let values = std::mem::take(&mut self.election_values);
        let after_values = values
            .keys()
            .next_back()
            .map_or(0, |&s| s.saturating_add(1));
        self.next_slot = after_values.max(self.compacted_to).max(self.apply_at);
        for (slot, (_, cmd)) in values {
            if self.committed.contains_key(&slot) {
                continue;
            }
            self.accept_locally(self.my_ballot, slot, cmd.clone());
            self.tally.entry(slot).or_default().insert(self.id);
            let ballot = self.my_ballot;
            self.broadcast(PaxosMsg::Accept { ballot, slot, cmd }, out);
            self.maybe_commit(slot, out);
        }
    }

    fn maybe_commit(&mut self, slot: u64, out: &mut Vec<SmrOutput<C>>) {
        if self.committed.contains_key(&slot) {
            return;
        }
        let Some(votes) = self.tally.get(&slot) else {
            return;
        };
        if votes.len() < self.quorum() {
            return;
        }
        // The leader votes only after accepting, so a quorum implies an
        // entry; without one there is nothing to commit.
        let Some((ballot, cmd)) = self.accepted.get(&slot).cloned() else {
            return;
        };
        self.commit(slot, cmd, out);
        self.broadcast(PaxosMsg::Decide { slot, ballot }, out);
    }

    /// Records `slot` as committed with `cmd`, unless it already is. The
    /// slot leaves the quorum tally and the pending notices either way.
    fn commit(&mut self, slot: u64, cmd: C, out: &mut Vec<SmrOutput<C>>) {
        self.tally.remove(&slot);
        self.decided.remove(&slot);
        if let std::collections::btree_map::Entry::Vacant(e) = self.committed.entry(slot) {
            e.insert(cmd.clone());
            out.push(SmrOutput::Committed { slot, cmd });
        }
    }

    /// Handles a message from peer `from`.
    pub fn on_message(&mut self, from: u32, msg: PaxosMsg<C>, out: &mut Vec<SmrOutput<C>>) {
        match msg {
            PaxosMsg::Prepare { ballot } => {
                if ballot > self.promised {
                    self.promised = ballot;
                    if ballot.owner != self.id {
                        self.role = Role::Follower;
                    }
                    let accepted = self
                        .accepted
                        .iter()
                        .map(|(&s, (b, c))| (s, *b, c.clone()))
                        .collect();
                    out.push(SmrOutput::Send {
                        to: from,
                        msg: PaxosMsg::Promise { ballot, accepted },
                    });
                }
                // Lower ballots are ignored: the promise already given is
                // the rejection (candidates retry on timeout).
            }
            PaxosMsg::Promise { ballot, accepted } => {
                if ballot != self.my_ballot {
                    return; // stale election
                }
                if let Role::Candidate { promises } = &mut self.role {
                    promises.insert(from);
                    for (slot, b, cmd) in accepted {
                        let better = self
                            .election_values
                            .get(&slot)
                            .is_none_or(|(cur, _)| b > *cur);
                        if better {
                            self.election_values.insert(slot, (b, cmd));
                        }
                    }
                    self.maybe_win(out);
                }
            }
            PaxosMsg::Accept { ballot, slot, cmd } => {
                if slot < self.compacted_to {
                    return; // decided and compacted away: nothing to log
                }
                // A notice that came first names this very pair, so this
                // is the committed command, whether or not the ballot is
                // still one this replica accepts.
                if self.decided.get(&slot) == Some(&ballot) {
                    self.commit(slot, cmd.clone(), out);
                }
                if ballot >= self.promised {
                    self.promised = ballot;
                    if ballot.owner != self.id {
                        self.role = Role::Follower;
                    }
                    self.accept_locally(ballot, slot, cmd);
                    out.push(SmrOutput::Send {
                        to: from,
                        msg: PaxosMsg::Accepted { ballot, slot },
                    });
                }
            }
            PaxosMsg::Accepted { ballot, slot } => {
                if slot < self.compacted_to || self.committed.contains_key(&slot) {
                    return; // late vote, or a reply to a heartbeat `Accept`
                }
                if self.role == Role::Leader && ballot == self.my_ballot {
                    self.tally.entry(slot).or_default().insert(from);
                    self.maybe_commit(slot, out);
                }
            }
            PaxosMsg::Learn { slot, cmd } => {
                if slot < self.apply_at {
                    return; // already applied (or covered by a snapshot)
                }
                self.commit(slot, cmd, out);
            }
            PaxosMsg::LearnReq { from_slot } => {
                // The compacted prefix cannot be replayed slot-by-slot:
                // flag it for state transfer. Everything at or above the
                // marker still replays as plain Learns, so a requester
                // slightly below the marker converges via snapshot +
                // replay of the retained tail.
                if from_slot < self.compacted_to {
                    out.push(SmrOutput::SnapshotNeeded {
                        to: from,
                        through: self.compacted_to,
                    });
                }
                for (&slot, cmd) in self.committed.range(from_slot..) {
                    out.push(SmrOutput::Send {
                        to: from,
                        msg: PaxosMsg::Learn {
                            slot,
                            cmd: cmd.clone(),
                        },
                    });
                }
            }
            PaxosMsg::Decide { slot, ballot } => {
                if slot < self.apply_at || self.committed.contains_key(&slot) {
                    return; // already known
                }
                match self.accepted.get(&slot) {
                    Some((b, cmd)) if *b == ballot => {
                        let cmd = cmd.clone();
                        self.commit(slot, cmd, out);
                    }
                    // The command is missing, or held under another
                    // ballot: wait for the matching `Accept`, or ask.
                    _ => {
                        self.decided.insert(slot, ballot);
                    }
                }
            }
        }
    }

    /// Leader repair tick: re-sends `Accept` for every accepted-but-
    /// uncommitted slot (recovering phase-2 traffic lost to drops or
    /// partitions), and heartbeats the newest committed slot as a `Decide`
    /// under this leader's ballot followed by the matching `Accept`. A
    /// follower that missed the commit completes it from the pair, and a
    /// deposed leader that rejoins after a partition sees the ballot and
    /// steps down. All messages are idempotent; drive this from a periodic
    /// timer. No-op on non-leaders.
    pub fn repair(&mut self, out: &mut Vec<SmrOutput<C>>) {
        if self.role != Role::Leader {
            return;
        }
        let stuck: Vec<(u64, C)> = self
            .accepted
            .iter()
            .filter(|(slot, _)| !self.committed.contains_key(slot))
            .map(|(&slot, (_, cmd))| (slot, cmd.clone()))
            .collect();
        let ballot = self.my_ballot;
        for (slot, cmd) in stuck {
            self.tally.entry(slot).or_default().insert(self.id);
            self.broadcast(PaxosMsg::Accept { ballot, slot, cmd }, out);
        }
        let Some((&slot, cmd)) = self.committed.iter().next_back() else {
            return;
        };
        // The heartbeat proposes the commit under this ballot, so it must
        // keep one command per (ballot, slot): the slot lies below every
        // fresh proposal, and this ballot holds no other command there. A
        // leader that proposed otherwise is stale (it learned the commit
        // by `LearnReq`) and stays silent until it is deposed.
        let clash = slot >= self.next_slot
            || self
                .accepted
                .get(&slot)
                .is_some_and(|(b, mine)| *b == ballot && mine != cmd);
        if clash {
            return;
        }
        for to in self.peers() {
            let (decide, cmd) = (PaxosMsg::Decide { slot, ballot }, cmd.clone());
            out.push(SmrOutput::Send { to, msg: decide });
            let msg = PaxosMsg::Accept { ballot, slot, cmd };
            out.push(SmrOutput::Send { to, msg });
        }
    }

    /// Follower repair tick: if a known commit lies at the apply cursor or
    /// above while the command at the cursor is missing (an `Accept` was
    /// lost, or a rejoining replica heard the leader's `Decide` heartbeat
    /// far ahead), asks the likely leader — the owner of the highest
    /// promised ballot, or every peer when that is this replica itself —
    /// to re-send the missing commits as `Learn`s.
    pub fn request_missing(&mut self, out: &mut Vec<SmrOutput<C>>) {
        if self.committed.contains_key(&self.apply_at) {
            return; // the application cursor is not blocked on a gap
        }
        let Some(max) = self.known_head() else {
            return;
        };
        if max < self.apply_at {
            return;
        }
        let msg = PaxosMsg::LearnReq {
            from_slot: self.apply_at,
        };
        let owner = self.promised.owner;
        if owner != self.id {
            out.push(SmrOutput::Send { to: owner, msg });
        } else {
            self.broadcast(msg, out);
        }
    }

    /// Returns the gap-free committed prefix not yet handed out, advancing
    /// the application cursor. Call after processing outputs.
    pub fn take_committed(&mut self) -> Vec<C> {
        let mut ready = Vec::new();
        // The last slot there is never applies: the cursor cannot pass it.
        while let Some(next) = self.apply_at.checked_add(1) {
            let Some(cmd) = self.committed.get(&self.apply_at) else {
                break;
            };
            ready.push(cmd.clone());
            self.apply_at = next;
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    type Cmd = u32;

    /// Delivers all in-flight messages, optionally dropping/duplicating/
    /// reordering them, until the cluster quiesces.
    struct Net {
        queue: Vec<(u32, u32, PaxosMsg<Cmd>)>,
        rng: StdRng,
        drop_rate: f64,
        dup_rate: f64,
        crashed: BTreeSet<u32>,
    }

    impl Net {
        fn new(seed: u64, drop_rate: f64, dup_rate: f64) -> Self {
            Net {
                queue: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                drop_rate,
                dup_rate,
                crashed: BTreeSet::new(),
            }
        }

        fn push_outputs(&mut self, from: u32, outs: Vec<SmrOutput<Cmd>>) {
            for o in outs {
                if let SmrOutput::Send { to, msg } = o {
                    if self.rng.random::<f64>() < self.drop_rate {
                        continue;
                    }
                    self.queue.push((from, to, msg.clone()));
                    if self.rng.random::<f64>() < self.dup_rate {
                        self.queue.push((from, to, msg));
                    }
                }
            }
        }

        fn run(&mut self, replicas: &mut [Replica<Cmd>]) {
            let mut steps = 0;
            while !self.queue.is_empty() {
                steps += 1;
                assert!(steps < 100_000, "no quiescence");
                let i = self.rng.random_range(0..self.queue.len());
                let (from, to, msg) = self.queue.swap_remove(i);
                if self.crashed.contains(&to) {
                    continue;
                }
                let mut outs = Vec::new();
                replicas[to as usize].on_message(from, msg, &mut outs);
                self.push_outputs(to, outs);
            }
        }
    }

    fn cluster(n: u32) -> Vec<Replica<Cmd>> {
        (0..n).map(|i| Replica::new(i, n)).collect()
    }

    fn elect(leader: u32, replicas: &mut [Replica<Cmd>], net: &mut Net) {
        let mut outs = Vec::new();
        replicas[leader as usize].start_election(&mut outs);
        net.push_outputs(leader, outs);
        net.run(replicas);
        assert!(replicas[leader as usize].is_leader());
    }

    #[test]
    fn single_replica_self_commits() {
        let mut r = Replica::<Cmd>::new(0, 1);
        let mut out = Vec::new();
        r.start_election(&mut out);
        assert!(r.is_leader());
        r.propose(7, &mut out);
        assert!(out
            .iter()
            .any(|o| matches!(o, SmrOutput::Committed { cmd: 7, .. })));
        assert_eq!(r.take_committed(), vec![7]);
    }

    #[test]
    fn three_replicas_commit_in_order() {
        let mut rs = cluster(3);
        let mut net = Net::new(1, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        for v in [10, 11, 12] {
            let mut outs = Vec::new();
            rs[0].propose(v, &mut outs);
            net.push_outputs(0, outs);
        }
        net.run(&mut rs);
        for r in &mut rs {
            assert_eq!(r.take_committed(), vec![10, 11, 12]);
        }
    }

    #[test]
    fn commits_survive_duplication_and_reordering() {
        let mut rs = cluster(5);
        let mut net = Net::new(99, 0.0, 0.4);
        elect(2, &mut rs, &mut net);
        for v in 0..20 {
            let mut outs = Vec::new();
            rs[2].propose(v, &mut outs);
            net.push_outputs(2, outs);
        }
        net.run(&mut rs);
        let expect: Vec<Cmd> = (0..20).collect();
        for r in &mut rs {
            assert_eq!(r.take_committed(), expect, "replica {}", r.id());
        }
    }

    #[test]
    fn leader_change_preserves_accepted_values() {
        let mut rs = cluster(3);
        let mut net = Net::new(7, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        // Leader proposes and replicates, then "crashes" before anything
        // else happens.
        let mut outs = Vec::new();
        rs[0].propose(42, &mut outs);
        net.push_outputs(0, outs);
        net.run(&mut rs);
        net.crashed.insert(0);

        // Replica 1 takes over: it must re-propose 42 into the same slot.
        let mut outs = Vec::new();
        rs[1].start_election(&mut outs);
        net.push_outputs(1, outs);
        net.run(&mut rs);
        assert!(rs[1].is_leader());
        let mut outs = Vec::new();
        rs[1].propose(43, &mut outs);
        net.push_outputs(1, outs);
        net.run(&mut rs);

        assert_eq!(rs[1].take_committed(), vec![42, 43]);
        assert_eq!(rs[2].take_committed(), vec![42, 43]);
    }

    #[test]
    fn no_two_replicas_disagree_under_drops() {
        // Chaos: lossy network, repeated elections; safety must hold.
        for seed in 0..10u64 {
            let mut rs = cluster(3);
            let mut net = Net::new(seed, 0.15, 0.2);
            for round in 0..3u32 {
                let cand = (seed as u32 + round) % 3;
                let mut outs = Vec::new();
                rs[cand as usize].start_election(&mut outs);
                net.push_outputs(cand, outs);
                net.run(&mut rs);
                if rs[cand as usize].is_leader() {
                    for v in 0..5 {
                        let mut outs = Vec::new();
                        rs[cand as usize].propose(round * 100 + v, &mut outs);
                        net.push_outputs(cand, outs);
                    }
                    net.run(&mut rs);
                }
            }
            // Safety: committed prefixes are compatible across replicas.
            let logs: Vec<Vec<Cmd>> = rs.iter_mut().map(|r| r.take_committed()).collect();
            for a in &logs {
                for b in &logs {
                    let n = a.len().min(b.len());
                    assert_eq!(&a[..n], &b[..n], "divergent prefixes (seed {seed})");
                }
            }
        }
    }

    #[test]
    fn repair_redrives_stuck_slots() {
        let mut rs = cluster(3);
        let mut net = Net::new(3, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        // Propose, but lose every outgoing message: the slot is stuck
        // accepted-but-uncommitted at the leader.
        let mut outs = Vec::new();
        rs[0].propose(7, &mut outs);
        drop(outs);
        assert_eq!(rs[0].take_committed(), Vec::<Cmd>::new());

        // A repair tick re-sends the Accept (and heartbeats nothing —
        // no commit yet); the cluster then converges normally.
        let mut outs = Vec::new();
        rs[0].repair(&mut outs);
        assert!(outs.iter().any(|o| matches!(
            o,
            SmrOutput::Send {
                msg: PaxosMsg::Accept { cmd: 7, .. },
                ..
            }
        )));
        net.push_outputs(0, outs);
        net.run(&mut rs);
        for r in &mut rs {
            assert_eq!(r.take_committed(), vec![7], "replica {}", r.id());
        }
    }

    #[test]
    fn gap_fill_recovers_lost_learns() {
        let mut rs = cluster(3);
        let mut net = Net::new(4, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        for v in [1, 2, 3] {
            let mut outs = Vec::new();
            rs[0].propose(v, &mut outs);
            net.push_outputs(0, outs);
        }
        net.run(&mut rs);
        // Simulate a lost Learn: replica 1 forgets slot 1 by rebuilding a
        // fresh replica that only saw Learns for slots 0 and 2.
        let mut r1 = Replica::<Cmd>::new(1, 3);
        let mut sink = Vec::new();
        r1.on_message(0, PaxosMsg::Learn { slot: 0, cmd: 1 }, &mut sink);
        r1.on_message(0, PaxosMsg::Learn { slot: 2, cmd: 3 }, &mut sink);
        assert_eq!(r1.take_committed(), vec![1], "stuck at the gap");

        // Repair: the gap is detected and a LearnReq goes to the leader...
        let mut req = Vec::new();
        r1.request_missing(&mut req);
        let [SmrOutput::Send { to, msg }] = &req[..] else {
            panic!("expected one LearnReq, got {req:?}");
        };
        assert!(matches!(msg, PaxosMsg::LearnReq { from_slot: 1 }));
        // ...which answers with every commit from that slot on.
        let mut reply = Vec::new();
        rs[*to as usize].on_message(1, msg.clone(), &mut reply);
        for o in reply {
            if let SmrOutput::Send { to: 1, msg } = o {
                r1.on_message(0, msg, &mut sink);
            }
        }
        assert_eq!(r1.take_committed(), vec![2, 3], "gap filled in order");
    }

    #[test]
    fn repair_heartbeats_latest_commit() {
        let mut rs = cluster(3);
        let mut net = Net::new(5, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        let mut outs = Vec::new();
        rs[0].propose(9, &mut outs);
        net.push_outputs(0, outs);
        net.run(&mut rs);
        let mut hb = Vec::new();
        rs[0].repair(&mut hb);
        let ballot = rs[0].promised();
        let count = |want: &PaxosMsg<Cmd>| {
            hb.iter()
                .filter(|o| matches!(o, SmrOutput::Send { msg, .. } if msg == want))
                .count()
        };
        let decide = PaxosMsg::Decide { slot: 0, ballot };
        let accept = PaxosMsg::Accept {
            ballot,
            slot: 0,
            cmd: 9,
        };
        assert_eq!(count(&decide), 2, "one Decide heartbeat per peer");
        assert_eq!(count(&accept), 2, "one ballot-asserting Accept per peer");
        assert_eq!(hb.len(), 4, "{hb:?}");
        // The followers' votes for the committed slot leave no tally.
        net.push_outputs(0, hb);
        net.run(&mut rs);
        assert!(rs[0].tally.is_empty(), "{:?}", rs[0].tally);
        // Followers never repair-broadcast.
        let mut f = Vec::new();
        rs[1].repair(&mut f);
        assert!(f.is_empty());
    }

    #[test]
    fn handle_leader_stands_with_the_ble_ballot() {
        let mut r = Replica::<Cmd>::new(1, 3);
        let mut out = Vec::new();
        let ballot = Ballot { round: 9, owner: 1 };
        assert!(r.handle_leader(ballot, &mut out));
        assert_eq!(r.promised(), ballot, "campaigns with the BLE ballot");
        assert_eq!(
            out.iter()
                .filter(|o| matches!(
                    o,
                    SmrOutput::Send {
                        msg: PaxosMsg::Prepare { .. },
                        ..
                    }
                ))
                .count(),
            2,
            "prepares go to both peers"
        );
        // A quorum of promises makes it leader under that exact ballot.
        let mut out2 = Vec::new();
        r.on_message(
            0,
            PaxosMsg::Promise {
                ballot,
                accepted: vec![],
            },
            &mut out2,
        );
        assert!(r.is_leader());
    }

    #[test]
    fn handle_leader_ignores_foreign_and_stale_ballots() {
        let mut r = Replica::<Cmd>::new(1, 3);
        let mut out = Vec::new();
        // Someone else's election is not ours to run.
        assert!(!r.handle_leader(Ballot { round: 5, owner: 2 }, &mut out));
        assert!(out.is_empty());
        // After promising higher, a stale BLE ballot must not regress.
        r.on_message(
            2,
            PaxosMsg::Prepare {
                ballot: Ballot { round: 8, owner: 2 },
            },
            &mut out,
        );
        let promised = r.promised();
        assert!(!r.handle_leader(Ballot { round: 7, owner: 1 }, &mut out));
        assert_eq!(r.promised(), promised);
    }

    #[test]
    fn compaction_prunes_applied_prefix_only() {
        let mut rs = cluster(3);
        let mut net = Net::new(8, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        for v in [1, 2, 3, 4] {
            let mut outs = Vec::new();
            rs[0].propose(v, &mut outs);
            net.push_outputs(0, outs);
        }
        net.run(&mut rs);
        // Nothing applied yet: compaction is clamped to the apply cursor.
        rs[0].compact_to(4);
        assert_eq!(rs[0].compacted_to(), 0);
        assert_eq!(rs[0].take_committed(), vec![1, 2, 3, 4]);
        // Applied: now the prefix can go.
        rs[0].compact_to(3);
        assert_eq!(rs[0].compacted_to(), 3);
        // Compaction never regresses.
        rs[0].compact_to(1);
        assert_eq!(rs[0].compacted_to(), 3);
    }

    #[test]
    fn learnreq_below_marker_yields_snapshot_not_replay() {
        let mut rs = cluster(3);
        let mut net = Net::new(9, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        for v in [1, 2, 3, 4] {
            let mut outs = Vec::new();
            rs[0].propose(v, &mut outs);
            net.push_outputs(0, outs);
        }
        net.run(&mut rs);
        assert_eq!(rs[0].take_committed(), vec![1, 2, 3, 4]);
        rs[0].compact_to(3);

        let mut reply = Vec::new();
        rs[0].on_message(2, PaxosMsg::LearnReq { from_slot: 0 }, &mut reply);
        // The compacted prefix is flagged for state transfer...
        assert!(
            reply.contains(&SmrOutput::SnapshotNeeded { to: 2, through: 3 }),
            "got {reply:?}"
        );
        // ...and zero Learns replay below the marker; the retained tail
        // still replays normally.
        let learn_slots: Vec<u64> = reply
            .iter()
            .filter_map(|o| match o {
                SmrOutput::Send {
                    msg: PaxosMsg::Learn { slot, .. },
                    ..
                } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(learn_slots, vec![3], "only the uncompacted tail replays");
    }

    #[test]
    fn install_snapshot_fast_forwards_and_dedups() {
        let mut r = Replica::<Cmd>::new(2, 3);
        let mut sink = Vec::new();
        // A rejoiner catches a commit far ahead.
        r.on_message(0, PaxosMsg::Learn { slot: 9, cmd: 10 }, &mut sink);
        assert_eq!(r.commit_lag(), 10);
        assert!(r.install_snapshot(8));
        assert_eq!(r.apply_cursor(), 8);
        assert_eq!(r.compacted_to(), 8);
        // The retained head applies in order right after the jump.
        r.on_message(0, PaxosMsg::Learn { slot: 8, cmd: 9 }, &mut sink);
        assert_eq!(r.take_committed(), vec![9, 10]);
        // Duplicate and stale snapshots are no-ops.
        assert!(!r.install_snapshot(8));
        assert!(!r.install_snapshot(3));
        assert_eq!(r.apply_cursor(), 10);
        // Late Learns below the cursor are dropped, not re-committed.
        let mut out = Vec::new();
        r.on_message(0, PaxosMsg::Learn { slot: 1, cmd: 2 }, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stale_ballot_messages_are_ignored() {
        let mut r = Replica::<Cmd>::new(1, 3);
        let mut out = Vec::new();
        // Promise a high ballot first.
        r.on_message(
            2,
            PaxosMsg::Prepare {
                ballot: Ballot { round: 9, owner: 2 },
            },
            &mut out,
        );
        let before = r.promised();
        // A lower Accept must be rejected silently.
        let mut out2 = Vec::new();
        r.on_message(
            0,
            PaxosMsg::Accept {
                ballot: Ballot { round: 1, owner: 0 },
                slot: 0,
                cmd: 1,
            },
            &mut out2,
        );
        assert!(out2.is_empty());
        assert_eq!(r.promised(), before);
        assert_eq!(r.take_committed(), Vec::<Cmd>::new());
    }

    /// Delivers `outs`, sent by `from`, and every message they cause, in
    /// FIFO order. A message `link` refuses is not delivered; it is
    /// returned as `(from, to, msg)`.
    fn flood(
        rs: &mut [Replica<Cmd>],
        from: u32,
        outs: Vec<SmrOutput<Cmd>>,
        link: impl Fn(u32, u32, &PaxosMsg<Cmd>) -> bool,
    ) -> Vec<(u32, u32, PaxosMsg<Cmd>)> {
        let mut queue: VecDeque<_> = outs.into_iter().map(|o| (from, o)).collect();
        let mut refused = Vec::new();
        while let Some((from, o)) = queue.pop_front() {
            let SmrOutput::Send { to, msg } = o else {
                continue;
            };
            if !link(from, to, &msg) {
                refused.push((from, to, msg));
                continue;
            }
            let mut next = Vec::new();
            rs[to as usize].on_message(from, msg, &mut next);
            queue.extend(next.into_iter().map(|o| (to, o)));
        }
        refused
    }

    /// A link filter that passes messages among `set` only.
    fn among(set: &[u32]) -> impl Fn(u32, u32, &PaxosMsg<Cmd>) -> bool + '_ {
        move |from, to, _| set.contains(&from) && set.contains(&to)
    }

    /// Leader 0 proposes `5` at slot 0 and replica 2's vote commits it;
    /// every message to replica 1 is held back. Returns them, in the
    /// order sent: the `Accept`, then the `Decide`.
    fn commit_without_replica_1(rs: &mut [Replica<Cmd>]) -> Vec<PaxosMsg<Cmd>> {
        let mut net = Net::new(10, 0.0, 0.0);
        elect(0, rs, &mut net);
        let mut outs = Vec::new();
        rs[0].propose(5, &mut outs);
        let held = flood(rs, 0, outs, |_, to, _| to != 1);
        assert_eq!(rs[0].take_committed(), vec![5]);
        held.into_iter().map(|(_, _, msg)| msg).collect()
    }

    #[test]
    fn a_decide_before_its_accept_commits_when_the_accept_arrives() {
        let mut rs = cluster(3);
        let held = commit_without_replica_1(&mut rs);
        let [accept @ PaxosMsg::Accept { .. }, decide @ PaxosMsg::Decide { .. }] = &held[..] else {
            panic!("expected an Accept and a Decide, got {held:?}");
        };
        // Reordered: the notice comes first and waits for its command.
        let mut out = Vec::new();
        rs[1].on_message(0, decide.clone(), &mut out);
        assert_eq!(rs[1].take_committed(), Vec::<Cmd>::new());
        rs[1].on_message(0, accept.clone(), &mut out);
        assert!(out.contains(&SmrOutput::Committed { slot: 0, cmd: 5 }));
        assert_eq!(rs[1].take_committed(), vec![5]);
        assert_eq!(rs[1].commit_lag(), 0);
    }

    #[test]
    fn a_follower_that_missed_the_accept_asks_for_the_command() {
        let mut rs = cluster(3);
        let held = commit_without_replica_1(&mut rs);
        let decide = held
            .into_iter()
            .find(|m| matches!(m, PaxosMsg::Decide { .. }));
        let mut sink = Vec::new();
        rs[1].on_message(0, decide.expect("a Decide"), &mut sink);
        // The notice counts as a known commit...
        assert_eq!(rs[1].commit_lag(), 1);
        assert_eq!(rs[1].take_committed(), Vec::<Cmd>::new());
        // ...so the repair tick asks the leader for the command...
        let mut req = Vec::new();
        rs[1].request_missing(&mut req);
        let want = SmrOutput::Send {
            to: 0,
            msg: PaxosMsg::LearnReq { from_slot: 0 },
        };
        assert_eq!(req, vec![want]);
        // ...and the answer carries it.
        let mut reply = Vec::new();
        rs[0].on_message(1, PaxosMsg::LearnReq { from_slot: 0 }, &mut reply);
        let want = SmrOutput::Send {
            to: 1,
            msg: PaxosMsg::Learn { slot: 0, cmd: 5 },
        };
        assert_eq!(reply, vec![want.clone()]);
        let SmrOutput::Send { msg, .. } = want else {
            unreachable!()
        };
        rs[1].on_message(0, msg, &mut sink);
        assert_eq!(rs[1].take_committed(), vec![5]);
        assert_eq!(rs[1].commit_lag(), 0);
    }

    #[test]
    fn a_decide_never_commits_a_command_accepted_under_another_ballot() {
        let old = Ballot { round: 1, owner: 0 };
        let new = Ballot { round: 2, owner: 2 };
        let mut r = Replica::<Cmd>::new(1, 3);
        let mut out = Vec::new();
        r.on_message(
            0,
            PaxosMsg::Accept {
                ballot: old,
                slot: 0,
                cmd: 7,
            },
            &mut out,
        );
        out.clear();
        r.on_message(
            2,
            PaxosMsg::Decide {
                slot: 0,
                ballot: new,
            },
            &mut out,
        );
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(r.take_committed(), Vec::<Cmd>::new());
        assert_eq!(r.commit_lag(), 1, "the slot is a known commit");
        // The new ballot's own command completes the notice.
        r.on_message(
            2,
            PaxosMsg::Accept {
                ballot: new,
                slot: 0,
                cmd: 8,
            },
            &mut out,
        );
        assert_eq!(r.take_committed(), vec![8]);
    }

    /// Five replicas A–E, one slot. At every step only the named replicas
    /// hear each other.
    #[test]
    fn votes_from_an_older_ballot_never_complete_a_quorum() {
        const A: u32 = 0;
        const B: u32 = 1;
        const C: u32 = 2;
        const D: u32 = 3;
        const E: u32 = 4;
        let mut rs = cluster(5);
        // 1. A leads b1, and its `1` at slot 0 reaches B only.
        let mut out = Vec::new();
        rs[A as usize].start_election(&mut out);
        flood(&mut rs, A, out, among(&[A, B, C]));
        let mut out = Vec::new();
        rs[A as usize].propose(1, &mut out);
        flood(&mut rs, A, out, among(&[A, B]));
        // 2. C leads b2 with {C, D, E}, and its `2` reaches nobody.
        let mut out = Vec::new();
        rs[C as usize].start_election(&mut out);
        flood(&mut rs, C, out, among(&[C, D, E]));
        assert!(rs[C as usize].is_leader());
        rs[C as usize].propose(2, &mut Vec::new());
        // 3. A re-leads b3 with {A, D, E}, and its re-proposal reaches D:
        //    A holds votes from A and D under b3, and B's under b1.
        let mut out = Vec::new();
        assert!(rs[A as usize].handle_leader(Ballot { round: 3, owner: A }, &mut out));
        flood(&mut rs, A, out, |from, to, msg| match msg {
            PaxosMsg::Prepare { .. } | PaxosMsg::Promise { .. } => among(&[A, D, E])(from, to, msg),
            _ => among(&[A, D])(from, to, msg),
        });
        assert!(rs[A as usize].is_leader());
        // 4. B leads b4 with {B, C, E}. C reports `2` under b2, the
        //    highest ballot any promise holds, so B commits `2`.
        let mut out = Vec::new();
        assert!(rs[B as usize].handle_leader(Ballot { round: 4, owner: B }, &mut out));
        flood(&mut rs, B, out, among(&[B, C, E]));
        let a = rs[A as usize].take_committed();
        let b = rs[B as usize].take_committed();
        assert_eq!(b, vec![2]);
        let k = a.len().min(b.len());
        assert_eq!(a[..k], b[..k], "A committed {a:?}, B committed {b:?}");
    }

    /// A leader still in office after a rival committed the slot it
    /// proposed (it learned the rival's command by `LearnReq`) must not
    /// heartbeat that slot: its ballot names its own command there, which
    /// a follower holding that command would commit.
    #[test]
    fn a_stale_leader_never_heartbeats_a_slot_its_ballot_proposed_otherwise() {
        let mut rs = cluster(3);
        let mut net = Net::new(11, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        let mut outs = Vec::new();
        rs[0].propose(7, &mut outs);
        // Replica 1 accepts `7`; its vote never reaches the leader.
        flood(&mut rs, 0, outs, |from, to, _| (from, to) == (0, 1));
        // A rival's `8` committed at slot 0 reaches the leader as a Learn.
        rs[0].on_message(2, PaxosMsg::Learn { slot: 0, cmd: 8 }, &mut Vec::new());
        let mut hb = Vec::new();
        rs[0].repair(&mut hb);
        assert!(hb.is_empty(), "{hb:?}");
        // A commit it learned beyond its next slot is no heartbeat either:
        // it may yet propose there.
        rs[0].on_message(2, PaxosMsg::Learn { slot: 5, cmd: 9 }, &mut Vec::new());
        rs[0].repair(&mut hb);
        assert!(hb.is_empty(), "{hb:?}");
    }

    /// Every replica applied 1–4 and compacted all four slots away, so
    /// a promise quorum reports nothing: the next leader still proposes
    /// past the compaction marker, not at slot 0, where every follower
    /// would drop its `Accept`.
    #[test]
    fn a_leader_elected_after_a_full_compaction_proposes_past_the_marker() {
        let mut rs = cluster(3);
        let mut net = Net::new(4, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        for v in [1, 2, 3, 4] {
            let mut outs = Vec::new();
            rs[0].propose(v, &mut outs);
            net.push_outputs(0, outs);
        }
        net.run(&mut rs);
        for r in &mut rs {
            assert_eq!(r.take_committed(), vec![1, 2, 3, 4]);
            r.compact_to(4);
            assert_eq!(r.compacted_to(), 4);
        }
        elect(1, &mut rs, &mut net);
        assert_eq!(rs[1].next_slot(), 4);
        let mut outs = Vec::new();
        rs[1].propose(5, &mut outs);
        net.push_outputs(1, outs);
        net.run(&mut rs);
        for (i, r) in rs.iter_mut().enumerate() {
            assert_eq!(r.take_committed(), vec![5], "replica {i}");
        }
    }

    /// A snapshot may fast-forward a leader to the last slot there is:
    /// it then proposes nothing, rather than wrap or overflow.
    #[test]
    fn a_leader_at_the_last_slot_proposes_nothing() {
        let mut rs = cluster(3);
        let mut net = Net::new(5, 0.0, 0.0);
        elect(0, &mut rs, &mut net);
        assert!(rs[0].install_snapshot(u64::MAX));
        let mut outs = Vec::new();
        rs[0].propose(7, &mut outs);
        assert!(outs.is_empty(), "{outs:?}");
        assert_eq!(rs[0].next_slot(), u64::MAX);
    }
}
