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
//!   sends `Accept`; acceptors log and reply `Accepted`; a quorum commits
//!   the slot and the leader broadcasts `Learn` so followers apply it.
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
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum PaxosMsg<C> {
    /// Phase-1a: candidate asks for promises.
    Prepare {
        /// The candidate's ballot.
        ballot: Ballot,
    },
    /// Phase-1b: acceptor promises and reports accepted entries.
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// Every `(slot, accepted ballot, command)` the acceptor holds.
        accepted: Vec<(u64, Ballot, C)>,
    },
    /// Phase-2a: leader proposes `cmd` at `slot`.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// Log position.
        slot: u64,
        /// The command.
        cmd: C,
    },
    /// Phase-2b: acceptor accepted the proposal.
    Accepted {
        /// The ballot accepted under.
        ballot: Ballot,
        /// Log position.
        slot: u64,
    },
    /// Commit notification from the leader to followers.
    Learn {
        /// Log position.
        slot: u64,
        /// The committed command.
        cmd: C,
    },
    /// Gap-fill request: the sender is missing commits at or above
    /// `from_slot` and asks the receiver to re-send its `Learn`s. Used by
    /// the repair path after message loss (partitions, crashed leaders).
    /// A receiver that already compacted past `from_slot` answers the
    /// compacted prefix with [`SmrOutput::SnapshotNeeded`] instead of
    /// replaying history it no longer holds.
    LearnReq {
        /// First slot the requester is missing.
        from_slot: u64,
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
    /// Next slot a leader assigns.
    next_slot: u64,
    /// Next slot to hand to the application.
    apply_at: u64,
    /// Compacted-prefix marker: slots below this have been pruned from
    /// `committed`/`accepted` and are only recoverable via state snapshot.
    compacted_to: u64,
    /// Commands waiting for a leader (buffered on followers/candidates).
    backlog: Vec<C>,
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
            next_slot: 0,
            apply_at: 0,
            compacted_to: 0,
            backlog: Vec::new(),
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

    /// Number of committed slots not yet taken by the application.
    pub fn committed_backlog(&self) -> usize {
        self.committed.range(self.apply_at..).count()
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
    /// what it has applied: `(highest committed slot + 1) − apply cursor`.
    /// A rejoining replica learns the head via the leader's `Learn`
    /// heartbeat, so a large lag is the trigger for snapshot catch-up
    /// instead of slot-by-slot replay.
    pub fn commit_lag(&self) -> u64 {
        self.committed
            .keys()
            .next_back()
            .map_or(0, |&max| (max + 1).saturating_sub(self.apply_at))
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
        true
    }

    fn quorum(&self) -> usize {
        (self.n as usize / 2) + 1
    }

    fn peers(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.n).filter(move |&p| p != self.id)
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
        self.election_values = self.accepted.iter().map(|(&s, v)| (s, v.clone())).collect();
        for p in self.peers().collect::<Vec<_>>() {
            out.push(SmrOutput::Send {
                to: p,
                msg: PaxosMsg::Prepare {
                    ballot: self.my_ballot,
                },
            });
        }
        self.maybe_win(out);
    }

    /// Proposes a command. Leaders replicate immediately; others buffer
    /// until a leader emerges locally (the wrapper forwards to the leader
    /// in practice).
    pub fn propose(&mut self, cmd: C, out: &mut Vec<SmrOutput<C>>) {
        if self.role == Role::Leader {
            let slot = self.next_slot;
            self.next_slot += 1;
            self.accept_locally(self.my_ballot, slot, cmd.clone());
            self.tally.entry(slot).or_default().insert(self.id);
            for p in self.peers().collect::<Vec<_>>() {
                out.push(SmrOutput::Send {
                    to: p,
                    msg: PaxosMsg::Accept {
                        ballot: self.my_ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                });
            }
            self.maybe_commit(slot, out);
        } else {
            self.backlog.push(cmd);
        }
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
        // the promise quorum, then continue after the highest slot.
        let values = std::mem::take(&mut self.election_values);
        let max_slot = values.keys().next_back().copied();
        self.next_slot = max_slot.map_or(0, |s| s + 1);
        for (slot, (_, cmd)) in values {
            if self.committed.contains_key(&slot) {
                continue;
            }
            self.accept_locally(self.my_ballot, slot, cmd.clone());
            self.tally.entry(slot).or_default().insert(self.id);
            for p in self.peers().collect::<Vec<_>>() {
                out.push(SmrOutput::Send {
                    to: p,
                    msg: PaxosMsg::Accept {
                        ballot: self.my_ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                });
            }
            self.maybe_commit(slot, out);
        }
        // Flush commands buffered while leaderless.
        for cmd in std::mem::take(&mut self.backlog) {
            self.propose(cmd, out);
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
        let (_, cmd) = self
            .accepted
            .get(&slot)
            .expect("leader accepted first")
            .clone();
        self.committed.insert(slot, cmd.clone());
        self.tally.remove(&slot);
        out.push(SmrOutput::Committed {
            slot,
            cmd: cmd.clone(),
        });
        for p in self.peers().collect::<Vec<_>>() {
            out.push(SmrOutput::Send {
                to: p,
                msg: PaxosMsg::Learn {
                    slot,
                    cmd: cmd.clone(),
                },
            });
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
                if slot < self.compacted_to {
                    return; // late vote for a slot compacted after commit
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
                if let std::collections::btree_map::Entry::Vacant(e) = self.committed.entry(slot) {
                    e.insert(cmd.clone());
                    out.push(SmrOutput::Committed { slot, cmd });
                }
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
        }
    }

    /// Leader repair tick: re-sends `Accept` for every accepted-but-
    /// uncommitted slot (recovering phase-2 traffic lost to drops or
    /// partitions) and `Learn` for the newest committed slot (which doubles
    /// as a liveness heartbeat for follower failure detectors). All
    /// messages are idempotent; drive this from a periodic timer. No-op on
    /// non-leaders.
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
        for (slot, cmd) in stuck {
            self.tally.entry(slot).or_default().insert(self.id);
            for p in self.peers().collect::<Vec<_>>() {
                out.push(SmrOutput::Send {
                    to: p,
                    msg: PaxosMsg::Accept {
                        ballot: self.my_ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                });
            }
        }
        if let Some((&slot, cmd)) = self.committed.iter().next_back() {
            let cmd = cmd.clone();
            for p in self.peers().collect::<Vec<_>>() {
                out.push(SmrOutput::Send {
                    to: p,
                    msg: PaxosMsg::Learn {
                        slot,
                        cmd: cmd.clone(),
                    },
                });
                // The Accept re-asserts this leader's ballot: a deposed
                // leader that rejoins after a partition sees it and steps
                // down, where a Learn alone would leave it stale.
                out.push(SmrOutput::Send {
                    to: p,
                    msg: PaxosMsg::Accept {
                        ballot: self.my_ballot,
                        slot,
                        cmd: cmd.clone(),
                    },
                });
            }
        }
    }

    /// Follower repair tick: if the committed log has a gap below its
    /// highest committed slot (a `Learn` was lost), asks the likely leader
    /// — the owner of the highest promised ballot, or every peer when that
    /// is this replica itself — to re-send the missing commits.
    pub fn request_missing(&mut self, out: &mut Vec<SmrOutput<C>>) {
        if self.committed.contains_key(&self.apply_at) {
            return; // the application cursor is not blocked on a gap
        }
        let Some(&max) = self.committed.keys().next_back() else {
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
            for p in self.peers().collect::<Vec<_>>() {
                out.push(SmrOutput::Send {
                    to: p,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Returns the gap-free committed prefix not yet handed out, advancing
    /// the application cursor. Call after processing outputs.
    pub fn take_committed(&mut self) -> Vec<C> {
        let mut ready = Vec::new();
        while let Some(cmd) = self.committed.get(&self.apply_at) {
            ready.push(cmd.clone());
            self.apply_at += 1;
        }
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn follower_buffers_until_leadership() {
        let mut r = Replica::<Cmd>::new(0, 3);
        let mut out = Vec::new();
        r.propose(5, &mut out);
        assert!(out.is_empty(), "no leader, no traffic");
        // Election with a quorum of promises makes it flush the backlog.
        r.start_election(&mut out);
        let promise = PaxosMsg::Promise {
            ballot: r.promised(),
            accepted: vec![],
        };
        let mut out2 = Vec::new();
        r.on_message(1, promise, &mut out2);
        assert!(r.is_leader());
        assert!(out2.iter().any(|o| matches!(
            o,
            SmrOutput::Send {
                msg: PaxosMsg::Accept { cmd: 5, .. },
                ..
            }
        )));
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
        let learns = hb
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    SmrOutput::Send {
                        msg: PaxosMsg::Learn { cmd: 9, .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(learns, 2, "one Learn heartbeat per peer");
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
        // A rejoiner hears the leader's Learn heartbeat far ahead.
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
}
