//! Property tests for the SMR substrate (paper §4.4): Paxos safety under
//! arbitrary message loss, duplication, and reordering, replica lockstep
//! for `ReplicatedGroup<FlexCastGroup>` across seeded crash/recover
//! schedules, and trace equivalence of delta-suppressed vs. plain engine
//! networks under the same chaotic delivery schedule.

use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_harness::replicated::{apply_cmd, entry_node, ReplCmd, ReplEffect, ReplEngine};
use flexcast_overlay::CDagOrder;
use flexcast_smr::{
    Ballot, BallotLeaderElection, BleMsg, BleOutput, GroupEffect, PaxosMsg, Replica,
    ReplicatedGroup, SmrOutput,
};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Part 1: bare Paxos — no two replicas ever commit different commands to
// the same slot, no matter how hostile the network.
// ---------------------------------------------------------------------------

type Cmd = u32;

/// A chaotic network: random delivery order, seeded drops and duplicates,
/// crashed replicas black-holed.
struct Net {
    queue: Vec<(u32, u32, PaxosMsg<Cmd>)>,
    rng: StdRng,
    drop: f64,
    dup: f64,
    crashed: BTreeSet<u32>,
    /// Every `Committed { slot, cmd }` each replica ever reported.
    committed: Vec<BTreeMap<u64, Cmd>>,
}

impl Net {
    fn new(n: usize, seed: u64, drop: f64, dup: f64) -> Self {
        Net {
            queue: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            drop,
            dup,
            crashed: BTreeSet::new(),
            committed: vec![BTreeMap::new(); n],
        }
    }

    fn absorb(&mut self, from: u32, outs: Vec<SmrOutput<Cmd>>) {
        for o in outs {
            match o {
                SmrOutput::Send { to, msg } => {
                    if self.rng.random::<f64>() < self.drop {
                        continue;
                    }
                    self.queue.push((from, to, msg.clone()));
                    if self.rng.random::<f64>() < self.dup {
                        self.queue.push((from, to, msg));
                    }
                }
                SmrOutput::Committed { slot, cmd } => {
                    let prev = self.committed[from as usize].insert(slot, cmd);
                    assert!(
                        prev.is_none() || prev == Some(cmd),
                        "replica {from} re-committed slot {slot} with a different command"
                    );
                }
                SmrOutput::SnapshotNeeded { .. } => {
                    unreachable!("no compaction in these properties")
                }
            }
        }
    }

    fn run(&mut self, replicas: &mut [Replica<Cmd>]) {
        let mut steps = 0u32;
        while !self.queue.is_empty() {
            steps += 1;
            assert!(steps < 500_000, "no quiescence");
            let i = self.rng.random_range(0..self.queue.len());
            let (from, to, msg) = self.queue.swap_remove(i);
            if self.crashed.contains(&to) {
                continue;
            }
            let mut outs = Vec::new();
            replicas[to as usize].on_message(from, msg, &mut outs);
            self.absorb(to, outs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Chaos Paxos: random elections, proposals through whichever replica,
    /// repair ticks, drops, duplicates, reordering, and a crash — and still
    /// no slot is ever committed with two different commands anywhere. Run
    /// at three replicas and at five, where a quorum is three votes and
    /// votes from two ballots could mix.
    #[test]
    fn paxos_never_commits_conflicting_commands(
        seed in 0u64..10_000,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.4,
        rounds in 1u32..5,
    ) {
        for n in [3u32, 5] {
            chaos_paxos(n, seed, drop, dup, rounds);
        }
    }
}

fn chaos_paxos(n: u32, seed: u64, drop: f64, dup: f64, rounds: u32) {
    let mut rs: Vec<Replica<Cmd>> = (0..n).map(|i| Replica::new(i, n)).collect();
    let mut net = Net::new(n as usize, seed, drop, dup);
    let mut driver = StdRng::seed_from_u64(seed ^ 0xD00D);
    let mut next_cmd: Cmd = 0;

    for round in 0..rounds {
        // A (possibly already-leading) replica campaigns.
        let cand = driver.random_range(0..n);
        let mut outs = Vec::new();
        rs[cand as usize].start_election(&mut outs);
        net.absorb(cand, outs);
        net.run(&mut rs);

        // Crash one replica mid-test, once; recover it a round later.
        if round == 1 {
            net.crashed.insert(driver.random_range(0..n));
        } else if round == 2 {
            net.crashed.clear();
        }

        // Propose through arbitrary replicas: a follower proposes
        // nothing, and a stale leader that missed its demotion (a
        // dropped `Prepare`) proposes into slots a rival may also
        // fill — the safety hazard to cover.
        for _ in 0..driver.random_range(1..6u32) {
            let via = driver.random_range(0..n);
            let mut outs = Vec::new();
            rs[via as usize].propose(next_cmd, &mut outs);
            next_cmd += 1;
            net.absorb(via, outs);
        }
        net.run(&mut rs);

        // One repair tick everywhere: leaders re-drive stuck slots and
        // heartbeat their newest commit as a `Decide`, and replicas that
        // hold a notice without its command ask for it.
        for r in 0..n {
            let mut outs = Vec::new();
            rs[r as usize].repair(&mut outs);
            rs[r as usize].request_missing(&mut outs);
            net.absorb(r, outs);
        }
        net.run(&mut rs);
    }

    // Agreement across replicas: any slot committed by two replicas
    // carries the same command.
    for a in 0..n as usize {
        for b in (a + 1)..n as usize {
            for (slot, cmd) in &net.committed[a] {
                if let Some(other) = net.committed[b].get(slot) {
                    prop_assert_eq!(
                        cmd,
                        other,
                        "n={n}: slot {slot} diverged between replicas {a} and {b}"
                    );
                }
            }
        }
    }
    // The applied prefixes are compatible, too.
    let logs: Vec<Vec<Cmd>> = rs.iter_mut().map(|r| r.take_committed()).collect();
    for a in &logs {
        for b in &logs {
            let k = a.len().min(b.len());
            prop_assert_eq!(&a[..k], &b[..k], "n={n}");
        }
    }
}

// ---------------------------------------------------------------------------
// Part 2: ReplicatedGroup<FlexCastGroup> — replicas applying the committed
// log stay in lockstep across a seeded crash/recover schedule.
// ---------------------------------------------------------------------------

/// A FlexCast engine with a shadow delivery log for lockstep assertions.
struct LoggedEngine {
    engine: FlexCastGroup,
    log: Vec<MsgId>,
}

/// Applies a client multicast; the engine's own outputs are the effects.
fn apply(e: &mut LoggedEngine, m: Message, out: &mut Vec<Output>) {
    let start = out.len();
    e.engine.on_client(m, out);
    for o in &out[start..] {
        if let Output::Deliver(m) = o {
            e.log.push(m.id);
        }
    }
}

type Cluster = Vec<ReplicatedGroup<LoggedEngine, Message, Output>>;

/// Stands `group` for election with a ballot above any it promised, as
/// ballot leader election would hand it one.
fn elect(
    group: &mut ReplicatedGroup<LoggedEngine, Message, Output>,
) -> Vec<GroupEffect<Message, Output>> {
    let ballot = Ballot {
        round: group.replica().promised().round + 1,
        owner: group.replica().id(),
    };
    let mut fx = Vec::new();
    assert!(group.handle_leader(ballot, &mut fx));
    fx
}

/// Routes replication traffic with seeded random ordering, dropping
/// messages to crashed replicas.
struct GroupNet {
    queue: Vec<(u32, u32, PaxosMsg<Message>)>,
    rng: StdRng,
    crashed: BTreeSet<u32>,
}

impl GroupNet {
    fn absorb(&mut self, from: u32, fx: Vec<GroupEffect<Message, Output>>) {
        for e in fx {
            if let GroupEffect::Replication { to, msg } = e {
                self.queue.push((from, to, msg));
            }
        }
    }

    fn run(&mut self, cluster: &mut Cluster) {
        let mut steps = 0u32;
        while !self.queue.is_empty() {
            steps += 1;
            assert!(steps < 500_000, "no quiescence");
            let i = self.rng.random_range(0..self.queue.len());
            let (from, to, msg) = self.queue.swap_remove(i);
            if self.crashed.contains(&to) {
                continue;
            }
            let mut fx = Vec::new();
            cluster[to as usize].on_replication(from, msg, &mut fx);
            self.absorb(to, fx);
        }
    }
}

fn msg(seq: u32) -> Message {
    Message::new(
        MsgId::new(ClientId(8), seq),
        DestSet::try_from_ranks([0u16, 1]).unwrap(),
        Payload::empty(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A replicated FlexCast group under a seeded crash/recover schedule:
    /// whichever replica leads proposes client multicasts; one replica
    /// crashes (chosen by seed), a new leader takes over, the crashed
    /// replica recovers and catches up through repair ticks. Every
    /// replica's delivery log must be a duplicate-free prefix of the most
    /// advanced log.
    #[test]
    fn replicated_flexcast_replicas_stay_in_lockstep(
        seed in 0u64..10_000,
        batches in 2u32..6,
        per_batch in 1u32..5,
    ) {
        let rf: u32 = 3;
        let mut cluster: Cluster = (0..rf)
            .map(|i| {
                ReplicatedGroup::new(
                    i,
                    rf,
                    LoggedEngine {
                        engine: FlexCastGroup::new(GroupId(0), 2),
                        log: Vec::new(),
                    },
                    apply,
                )
            })
            .collect();
        let mut net = GroupNet {
            queue: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            crashed: BTreeSet::new(),
        };
        let mut driver = StdRng::seed_from_u64(seed ^ 0xBEEF);

        // Initial leader.
        let mut leader: u32 = driver.random_range(0..rf);
        let fx = elect(&mut cluster[leader as usize]);
        net.absorb(leader, fx);
        net.run(&mut cluster);

        let crash_at = driver.random_range(0..batches);
        let victim = driver.random_range(0..rf);
        let mut seq = 0u32;
        for batch in 0..batches {
            if batch == crash_at {
                net.crashed.insert(victim);
                if victim == leader {
                    // Fail over to a survivor.
                    leader = (0..rf).find(|r| !net.crashed.contains(r)).unwrap();
                    let fx = elect(&mut cluster[leader as usize]);
                    net.absorb(leader, fx);
                    net.run(&mut cluster);
                }
            }
            for _ in 0..per_batch {
                let mut fx = Vec::new();
                cluster[leader as usize].submit(msg(seq), &mut fx);
                seq += 1;
                net.absorb(leader, fx);
            }
            net.run(&mut cluster);
        }

        // Recovery: the victim hears again; repair ticks re-drive stuck
        // slots and fill its gaps until it catches up.
        net.crashed.clear();
        for _ in 0..4 {
            for (r, group) in cluster.iter_mut().enumerate() {
                let mut fx = Vec::new();
                group.tick_repair(&mut fx);
                net.absorb(r as u32, fx);
            }
            net.run(&mut cluster);
        }

        // Lockstep: every log is a prefix of the longest, duplicate-free,
        // and the longest log holds every multicast proposed.
        let logs: Vec<&[MsgId]> = cluster.iter().map(|g| g.engine().log.as_slice()).collect();
        let longest = *logs.iter().max_by_key(|l| l.len()).unwrap();
        for (r, log) in logs.iter().enumerate() {
            prop_assert_eq!(
                *log, &longest[..log.len()],
                "replica {} diverged from the group order", r
            );
            let uniq: BTreeSet<&MsgId> = log.iter().collect();
            prop_assert_eq!(uniq.len(), log.len(), "double delivery at replica {}", r);
        }
        prop_assert_eq!(longest.len() as u32, seq, "no committed multicast lost");
    }
}

// ---------------------------------------------------------------------------
// Part 3: delta suppression (DESIGN.md §8) — a suppressed engine network
// and an unsuppressed one, driven through the SAME chaotic delivery
// schedule (random reordering, duplicated packets, client retries), must
// deliver identical sequences at every group.
//
// The networks stay in lockstep because suppression only removes delta
// entries the receiver provably already processed, and advertisements
// ride links of their own (descendant → ancestor) — so the per-link
// protocol packet streams of the two networks pair up one-to-one, and
// each paired apply must produce the same deliveries.
// ---------------------------------------------------------------------------

/// An emitted inter-group send: destination, link sequence number, packet.
type GroupSend = (GroupId, u64, Arc<Packet>);

/// Splits apply effects into delivered ids and emitted inter-group sends.
fn split_fx(fx: Vec<ReplEffect>) -> (Vec<MsgId>, Vec<GroupSend>) {
    let mut dels = Vec::new();
    let mut sends = Vec::new();
    for e in fx {
        match e {
            ReplEffect::Deliver(m) => dels.push(m.id),
            ReplEffect::Send { to, seq, pkt } => sends.push((to, seq, pkt)),
        }
    }
    (dels, sends)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Drive both networks to quiescence through one seeded schedule and
    /// assert per-apply and end-to-end delivery equality.
    #[test]
    fn suppressed_and_plain_networks_deliver_identical_sequences(
        seed in 0u64..10_000,
        n_msgs in 4u32..16,
        dup in 0.0f64..0.3,
    ) {
        const N: u16 = 5;
        let order = CDagOrder::identity(N as usize);
        // Network A: plain protocol. Network B: aggressive advertisement.
        let mut net_a: Vec<ReplEngine> = (0..N)
            .map(|g| ReplEngine::new(GroupId(g), order.clone(), None))
            .collect();
        let mut net_b: Vec<ReplEngine> = (0..N)
            .map(|g| ReplEngine::new(GroupId(g), order.clone(), Some(1)))
            .collect();

        // Pending deliveries: `(destination group, A command, B command)`.
        // Advertisements exist only in network B (`cmd_a` is `None`).
        let mut pending: Vec<(usize, Option<ReplCmd>, ReplCmd)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);

        for s in 0..n_msgs {
            let client = ClientId(s % 2);
            let k = rng.random_range(2..=3usize);
            let mut dst = DestSet::new();
            while dst.len() < k {
                dst.insert(GroupId(rng.random_range(0..N)));
            }
            let m = Message::new(MsgId::new(client, s / 2), dst, Payload::empty()).unwrap();
            let entry = entry_node(&order, dst).expect("destinations in the overlay").index();
            pending.push((entry, Some(ReplCmd::Client(m.clone())), ReplCmd::Client(m)));
        }

        let mut steps = 0u32;
        while !pending.is_empty() {
            steps += 1;
            prop_assert!(steps < 200_000, "no quiescence");
            let i = rng.random_range(0..pending.len());
            let (dst, cmd_a, cmd_b) = pending.swap_remove(i);
            // Duplicate the packet with probability `dup`: the per-link
            // sequence dedup (and client-id dedup) must absorb it. This
            // also models loss-then-retransmission.
            if rng.random::<f64>() < dup {
                pending.push((dst, cmd_a.clone(), cmd_b.clone()));
            }

            let mut fx_b = Vec::new();
            apply_cmd(&mut net_b[dst], cmd_b, &mut fx_b);
            let (dels_b, sends_b) = split_fx(fx_b);

            // A send names its destination; as the input the destination
            // consumes, `peer` is the sender (this group).
            let sender = GroupId(dst as u16);

            let Some(cmd_a) = cmd_a else {
                // A B-only advertisement: absorbing it must not deliver
                // or send anything.
                prop_assert!(dels_b.is_empty(), "advert caused a delivery");
                for (peer, seq, pkt) in sends_b {
                    prop_assert!(matches!(*pkt, Packet::Advert { .. }));
                    pending.push((
                        peer.index(),
                        None,
                        ReplCmd::Peer { peer: sender, seq, pkt },
                    ));
                }
                continue;
            };

            let mut fx_a = Vec::new();
            apply_cmd(&mut net_a[dst], cmd_a, &mut fx_a);
            let (dels_a, sends_a) = split_fx(fx_a);

            // Per-apply delivery equality: suppression is invisible to
            // the delivery sequence.
            prop_assert_eq!(&dels_a, &dels_b, "deliveries diverged at group {}", dst);

            // B's sends = A's sends (same links, same seqs, same message
            // identities; only the history deltas inside may differ) plus
            // B-only advertisements on upstream links.
            let mut protocol_b = Vec::new();
            for (peer, seq, pkt) in sends_b {
                if matches!(*pkt, Packet::Advert { .. }) {
                    pending.push((
                        peer.index(),
                        None,
                        ReplCmd::Peer { peer: sender, seq, pkt },
                    ));
                } else {
                    protocol_b.push((peer, seq, pkt));
                }
            }
            prop_assert_eq!(sends_a.len(), protocol_b.len(), "send streams diverged");
            for ((pa, sa, pkt_a), (pb, sb, pkt_b)) in sends_a.into_iter().zip(protocol_b) {
                prop_assert_eq!(pa, pb);
                prop_assert_eq!(sa, sb);
                prop_assert_eq!(pkt_a.kind(), pkt_b.kind());
                pending.push((
                    pa.index(),
                    Some(ReplCmd::Peer { peer: sender, seq: sa, pkt: pkt_a }),
                    ReplCmd::Peer { peer: sender, seq: sb, pkt: pkt_b },
                ));
            }
        }

        // End-to-end: identical per-group delivery logs, and every group
        // delivered everything addressed to it.
        for g in 0..N as usize {
            prop_assert_eq!(
                net_a[g].delivery_log(),
                net_b[g].delivery_log(),
                "group {} delivery order diverged",
                g
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Part 4: ballot leader election under arbitrary directed link blocks
// (DESIGN.md §11). A replica is *majority-roundtrip-connected* when a
// majority of replicas (itself included) can both receive its heartbeat
// requests and get replies back to it. BLE must elect exactly where such
// majorities exist: connected replicas settle on a leader, cut-off
// replicas go dark (no dueling-candidates livelock), and distinct stable
// self-leaders can only coexist across a broken roundtrip — so with full
// connectivity the leader is unique.
// ---------------------------------------------------------------------------

/// One global tick of an instantly-delivered BLE network: every replica
/// closes/opens its heartbeat round, then all traffic — requests and the
/// replies they trigger — routes to quiescence, dropping blocked edges.
fn ble_tick(nodes: &mut [BallotLeaderElection], blocked: &BTreeSet<(u32, u32)>) {
    let mut wire: Vec<(u32, u32, BleMsg)> = Vec::new();
    for node in nodes.iter_mut() {
        let mut out = Vec::new();
        node.on_tick(&mut out);
        let from = node.pid();
        for o in out {
            if let BleOutput::Send { to, msg } = o {
                wire.push((from, to, msg));
            }
        }
    }
    while let Some((from, to, msg)) = wire.pop() {
        if blocked.contains(&(from, to)) {
            continue;
        }
        let mut out = Vec::new();
        nodes[to as usize].on_message(from, msg, &mut out);
        for o in out {
            if let BleOutput::Send { to: t2, msg } = o {
                wire.push((to, t2, msg));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Arbitrary static directed block patterns over 3–5 replicas: after
    /// the rounds settle, every replica holds a leader belief iff it is
    /// majority-roundtrip-connected, every believed leader is itself
    /// electable, beliefs and ballots are stable (no livelock under a
    /// static topology), and no two stable self-leaders can hear each
    /// other.
    #[test]
    fn ble_elects_exactly_where_majorities_can_roundtrip(
        n in 3u32..=5,
        raw_edges in collection::vec(0u32..25, 0..=18),
    ) {
        // Decode edge indices into directed blocks over the n replicas.
        let blocked: BTreeSet<(u32, u32)> = raw_edges
            .into_iter()
            .map(|e| (e / 5, e % 5))
            .filter(|&(a, b)| a != b && a < n && b < n)
            .collect();
        let roundtrip = |p: u32, q: u32| {
            p == q || (!blocked.contains(&(p, q)) && !blocked.contains(&(q, p)))
        };
        let majority = (n / 2 + 1) as usize;
        let connected: Vec<bool> = (0..n)
            .map(|p| (0..n).filter(|&q| roundtrip(p, q)).count() >= majority)
            .collect();

        let mut nodes: Vec<BallotLeaderElection> = (0..n)
            .map(|p| BallotLeaderElection::new(p, n, 1, 1))
            .collect();
        for _ in 0..40 {
            ble_tick(&mut nodes, &blocked);
        }
        let settled: Vec<_> = nodes.iter().map(|b| b.leader()).collect();
        let ballots: Vec<_> = nodes.iter().map(|b| b.current_ballot()).collect();

        // Stability: a static topology means static beliefs and static
        // ballots — no flapping, no overbid churn, no livelock.
        for _ in 0..20 {
            ble_tick(&mut nodes, &blocked);
        }
        let later: Vec<_> = nodes.iter().map(|b| b.leader()).collect();
        prop_assert_eq!(&settled, &later, "beliefs flapped under a static topology");
        let later_ballots: Vec<_> = nodes.iter().map(|b| b.current_ballot()).collect();
        prop_assert_eq!(&ballots, &later_ballots, "ballots grew under a static topology");

        for p in 0..n as usize {
            // Leader belief iff the replica's own majority can roundtrip:
            // cut-off minorities go dark instead of dueling.
            prop_assert_eq!(
                settled[p].is_some(),
                connected[p],
                "replica {} has belief {:?} but connected={} (blocked: {:?})",
                p, settled[p], connected[p], &blocked
            );
            // Every believed leader earned its candidacy with completed
            // rounds of its own.
            if let Some(l) = settled[p] {
                prop_assert!(
                    connected[l.owner as usize],
                    "replica {} follows unelectable {:?} (blocked: {:?})",
                    p, l, &blocked
                );
            }
        }

        // Never two stable leaders in the same partition: if two replicas
        // both stably believe in themselves, the lower ballot would have
        // followed the higher the moment a roundtrip existed between them.
        let self_leaders: Vec<u32> = (0..n)
            .filter(|&p| settled[p as usize].is_some_and(|l| l.owner == p))
            .collect();
        for (i, &p) in self_leaders.iter().enumerate() {
            for &q in &self_leaders[i + 1..] {
                prop_assert!(
                    !roundtrip(p, q),
                    "stable leaders {} and {} hear each other (blocked: {:?})",
                    p, q, &blocked
                );
            }
        }
    }
}
