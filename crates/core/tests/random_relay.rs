//! Engine-level property tests: random multicast workloads routed with
//! FIFO-per-link but otherwise adversarial interleaving must satisfy
//! agreement, prefix order, and acyclic order at quiescence.
//!
//! This exercises the protocol without the simulator or harness in the
//! loop, so failures shrink to small engine-input sequences.
//!
//! Every engine input doubles as a snapshot check: the engine's state
//! must survive `snapshot → restore → snapshot` byte for byte, and a twin
//! restored from an earlier snapshot must emit the same outputs and
//! reach the same state for the rest of the schedule.

use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A FIFO link network with randomized scheduling: each (from, to) link
/// is a queue; each step picks a random non-empty link (or injects the
/// next client message) and delivers its head.
struct ChaosNet {
    engines: Vec<FlexCastGroup>,
    /// Per engine, a copy restored from one of its snapshots and fed the
    /// same inputs since; re-seeded from a fresh snapshot every few inputs
    /// so restores happen at many points of the schedule.
    twins: Vec<FlexCastGroup>,
    inputs: Vec<usize>,
    links: BTreeMap<(u16, u16), VecDeque<Packet>>,
    log: Vec<(GroupId, MsgId)>,
}

impl ChaosNet {
    fn new(n: u16) -> Self {
        ChaosNet {
            engines: (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect(),
            twins: (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect(),
            inputs: vec![0; n as usize],
            links: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    fn absorb(&mut self, from: GroupId, out: Vec<Output>) {
        for o in out {
            match o {
                Output::Deliver(m) => self.log.push((from, m.id)),
                Output::Send { to, pkt } => self
                    .links
                    .entry((from.rank(), to.rank()))
                    .or_default()
                    .push_back(pkt),
            }
        }
    }

    /// Applies one input to engine `g` and to its twin, checking the
    /// snapshot properties around it.
    fn feed(
        &mut self,
        g: GroupId,
        input: impl Fn(&mut FlexCastGroup, &mut Vec<Output>),
    ) -> Vec<Output> {
        let gi = g.index();
        let snap = self.engines[gi].snapshot().expect("snapshot encodes");
        let restored = FlexCastGroup::restore(&snap).expect("snapshot decodes");
        assert_eq!(
            restored.snapshot().expect("snapshot encodes"),
            snap,
            "snapshot → restore → snapshot is byte-stable at {g}"
        );
        if self.inputs[gi].is_multiple_of(5) {
            self.twins[gi] = restored;
        }
        self.inputs[gi] += 1;
        let mut out = Vec::new();
        input(&mut self.engines[gi], &mut out);
        let mut twin_out = Vec::new();
        input(&mut self.twins[gi], &mut twin_out);
        assert_eq!(out, twin_out, "restored engine diverged at {g}");
        assert_eq!(
            self.twins[gi].snapshot().expect("snapshot encodes"),
            self.engines[gi].snapshot().expect("snapshot encodes"),
            "restored engine's state diverged at {g}"
        );
        out
    }

    fn inject(&mut self, m: Message) {
        let lca = m.lca();
        let out = self.feed(lca, |e, out| e.on_client(m.clone(), out));
        self.absorb(lca, out);
    }

    /// Delivers the head of the k-th non-empty link (mod count).
    fn step(&mut self, k: usize) -> bool {
        let keys: Vec<(u16, u16)> = self
            .links
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&k, _)| k)
            .collect();
        if keys.is_empty() {
            return false;
        }
        let (from, to) = keys[k % keys.len()];
        let pkt = self
            .links
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .expect("non-empty link");
        let out = self.feed(GroupId(to), |e, out| {
            e.on_packet(GroupId(from), pkt.clone(), out)
        });
        self.absorb(GroupId(to), out);
        true
    }

    fn drain(&mut self, mut k: usize) {
        let mut steps = 0;
        while self.step(k) {
            k = k
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            steps += 1;
            assert!(steps < 1_000_000, "relay did not quiesce");
        }
    }
}

fn arb_workload(n_groups: u16) -> impl Strategy<Value = Vec<DestSet>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..n_groups, 1..=3usize),
        1..25,
    )
    .prop_map(|sets| {
        sets.into_iter()
            .map(|ranks| DestSet::try_from_ranks(ranks).unwrap())
            .collect()
    })
}

fn check_run(n_groups: u16, dsts: Vec<DestSet>, schedule_seed: usize, interleave: u8) {
    let mut net = ChaosNet::new(n_groups);
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    for (i, dst) in dsts.iter().enumerate() {
        let m = Message::new(MsgId::new(ClientId(0), i as u32), *dst, Payload::empty()).unwrap();
        registry.insert(m.id, m.dst);
        net.inject(m);
        // Interleave network steps with injections for adversarial mixes.
        for s in 0..(interleave as usize) {
            net.step(schedule_seed.wrapping_add(i * 31 + s));
        }
    }
    net.drain(schedule_seed);

    // Agreement/validity: every destination delivered every message.
    for (&id, &dst) in &registry {
        for g in dst.iter() {
            assert!(
                net.engines[g.index()].has_delivered(id),
                "{id} missing at {g}"
            );
        }
    }
    // Integrity: nothing delivered off-destination or twice.
    let mut seen: BTreeSet<(GroupId, MsgId)> = BTreeSet::new();
    for &(g, id) in &net.log {
        assert!(registry[&id].contains(g), "{id} delivered at non-dest {g}");
        assert!(seen.insert((g, id)), "{id} delivered twice at {g}");
    }
    // Prefix order + acyclic order over the union graph.
    let order_at = |g: u16| -> Vec<MsgId> {
        net.log
            .iter()
            .filter(|(h, _)| h.rank() == g)
            .map(|&(_, id)| id)
            .collect()
    };
    let orders: Vec<Vec<MsgId>> = (0..n_groups).map(order_at).collect();
    for a in 0..orders.len() {
        for b in (a + 1)..orders.len() {
            let pos_b: BTreeMap<MsgId, usize> =
                orders[b].iter().enumerate().map(|(i, &m)| (m, i)).collect();
            let shared: Vec<MsgId> = orders[a]
                .iter()
                .copied()
                .filter(|m| pos_b.contains_key(m))
                .collect();
            for w in shared.windows(2) {
                assert!(
                    pos_b[&w[0]] < pos_b[&w[1]],
                    "groups g{a}/g{b} disagree on {} vs {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
    // Acyclicity via Kahn over consecutive-delivery edges.
    let mut succs: BTreeMap<MsgId, BTreeSet<MsgId>> = BTreeMap::new();
    let mut indeg: BTreeMap<MsgId, usize> = BTreeMap::new();
    for o in &orders {
        for w in o.windows(2) {
            indeg.entry(w[0]).or_insert(0);
            if succs.entry(w[0]).or_default().insert(w[1]) {
                *indeg.entry(w[1]).or_insert(0) += 1;
            }
        }
        if let Some(&last) = o.last() {
            indeg.entry(last).or_insert(0);
        }
    }
    let mut ready: Vec<MsgId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&m, _)| m)
        .collect();
    let mut seen_count = 0;
    while let Some(v) = ready.pop() {
        seen_count += 1;
        for &s in succs.get(&v).into_iter().flatten() {
            let d = indeg.get_mut(&s).unwrap();
            *d -= 1;
            if *d == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(seen_count, indeg.len(), "global ≺ relation has a cycle");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn three_groups_hold_properties(
        dsts in arb_workload(3),
        seed in any::<usize>(),
        interleave in 0u8..4,
    ) {
        check_run(3, dsts, seed, interleave);
    }

    #[test]
    fn five_groups_hold_properties(
        dsts in arb_workload(5),
        seed in any::<usize>(),
        interleave in 0u8..4,
    ) {
        check_run(5, dsts, seed, interleave);
    }

    #[test]
    fn eight_groups_hold_properties(
        dsts in arb_workload(8),
        seed in any::<usize>(),
        interleave in 0u8..6,
    ) {
        check_run(8, dsts, seed, interleave);
    }
}

/// Flush messages interleaved with application traffic keep properties
/// intact and actually prune history.
#[test]
fn gc_under_chaotic_interleaving() {
    for seed in 0..20usize {
        let n = 4u16;
        let mut net = ChaosNet::new(n);
        let mut seq = 0u32;
        for round in 0..5 {
            for _ in 0..6 {
                let a = (seed + seq as usize) % n as usize;
                let b = (a + 1 + (seq as usize % (n as usize - 1))) % n as usize;
                let dst = DestSet::try_from_ranks([a as u16, b as u16]).unwrap();
                let m = Message::new(MsgId::new(ClientId(1), seq), dst, Payload::empty()).unwrap();
                seq += 1;
                net.inject(m);
                net.step(seed.wrapping_add(seq as usize));
            }
            // Periodic flush, as the distinguished process would issue.
            let flush = FlexCastGroup::flush_message(MsgId::new(ClientId(9), round), n);
            net.inject(flush);
            net.drain(seed.wrapping_mul(31).wrapping_add(round as usize));
        }
        for e in &net.engines {
            assert!(
                e.history().len() < 20,
                "history must stay pruned, got {}",
                e.history().len()
            );
        }
    }
}
