//! SMR integration: a FlexCast group replicated with multi-Paxos keeps
//! the protocol's guarantees through replica crashes and leader changes
//! (paper §4.4).

use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_smr::{Ballot, GroupEffect, PaxosMsg, ReplicatedGroup};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};

#[derive(Clone, PartialEq, Debug)]
enum Cmd {
    Client(Message),
    Peer(GroupId, Packet),
}

#[derive(Clone, PartialEq, Debug)]
enum Fx {
    Deliver(MsgId),
    Send(GroupId, Packet),
}

fn apply(engine: &mut FlexCastGroup, cmd: Cmd, out: &mut Vec<Fx>) {
    let mut outputs = Vec::new();
    match cmd {
        Cmd::Client(m) => engine.on_client(m, &mut outputs),
        Cmd::Peer(from, pkt) => engine.on_packet(from, pkt, &mut outputs),
    }
    out.extend(outputs.into_iter().map(|o| match o {
        Output::Deliver(m) => Fx::Deliver(m.id),
        Output::Send { to, pkt } => Fx::Send(to, pkt),
    }));
}

type Cluster = Vec<Option<ReplicatedGroup<FlexCastGroup, Cmd, Fx>>>;

/// Stands replica `r` for election with a ballot above any it promised,
/// as ballot leader election would hand it one.
fn elect(cluster: &mut Cluster, r: u32) -> Vec<GroupEffect<Cmd, Fx>> {
    let g = cluster[r as usize].as_mut().expect("a live replica");
    let ballot = Ballot {
        round: g.replica().promised().round + 1,
        owner: r,
    };
    let mut out = Vec::new();
    assert!(g.handle_leader(ballot, &mut out));
    out
}

fn settle(cluster: &mut Cluster, from: u32, effects: Vec<GroupEffect<Cmd, Fx>>) -> Vec<Fx> {
    let mut emitted = Vec::new();
    let mut queue: Vec<(u32, u32, PaxosMsg<Cmd>)> = Vec::new();
    let absorb = |src: u32,
                  fx: Vec<GroupEffect<Cmd, Fx>>,
                  queue: &mut Vec<(u32, u32, PaxosMsg<Cmd>)>,
                  emitted: &mut Vec<Fx>| {
        for e in fx {
            match e {
                GroupEffect::Engine(fx) => emitted.push(fx),
                GroupEffect::Replication { to, msg } => queue.push((src, to, msg)),
                GroupEffect::SnapshotNeeded { .. } => {
                    unreachable!("no compaction in these tests")
                }
            }
        }
    };
    absorb(from, effects, &mut queue, &mut emitted);
    while let Some((src, to, msg)) = queue.pop() {
        if let Some(r) = cluster[to as usize].as_mut() {
            let mut next = Vec::new();
            r.on_replication(src, msg, &mut next);
            absorb(to, next, &mut queue, &mut emitted);
        }
    }
    emitted
}

fn cluster_of(g: GroupId, n_groups: u16, replicas: u32) -> Cluster {
    (0..replicas)
        .map(|i| {
            Some(ReplicatedGroup::new(
                i,
                replicas,
                FlexCastGroup::new(g, n_groups),
                apply as fn(&mut FlexCastGroup, Cmd, &mut Vec<Fx>),
            ))
        })
        .collect()
}

fn msg(seq: u32, ranks: &[u16]) -> Message {
    Message::new(
        MsgId::new(ClientId(3), seq),
        DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
        Payload::empty(),
    )
    .unwrap()
}

#[test]
fn replicated_lca_forwards_exactly_once() {
    // Group A (rank 0) replicated ×3 inside a 2-group overlay.
    let mut cluster = cluster_of(GroupId(0), 2, 3);
    let out = elect(&mut cluster, 0);
    settle(&mut cluster, 0, out);

    let m = msg(1, &[0, 1]);
    let mut out = Vec::new();
    cluster[0]
        .as_mut()
        .unwrap()
        .submit(Cmd::Client(m.clone()), &mut out);
    let fx = settle(&mut cluster, 0, out);

    // The leader emits the delivery and exactly one forward to group B.
    let delivers = fx
        .iter()
        .filter(|f| matches!(f, Fx::Deliver(id) if *id == m.id))
        .count();
    let sends = fx
        .iter()
        .filter(|f| matches!(f, Fx::Send(to, Packet::Msg { .. }) if *to == GroupId(1)))
        .count();
    assert_eq!(delivers, 1, "exactly one delivery emitted");
    assert_eq!(sends, 1, "exactly one forward emitted");

    // Every replica's engine applied the same delivery.
    for r in cluster.iter().flatten() {
        assert!(r.engine().has_delivered(m.id));
        assert_eq!(r.engine().delivered_count(), 1);
    }
}

#[test]
fn minority_crash_does_not_stop_the_group() {
    let mut cluster = cluster_of(GroupId(0), 2, 3);
    let out = elect(&mut cluster, 0);
    settle(&mut cluster, 0, out);

    // One follower dies; commits still reach a quorum.
    cluster[2] = None;
    let m = msg(1, &[0, 1]);
    let mut out = Vec::new();
    cluster[0]
        .as_mut()
        .unwrap()
        .submit(Cmd::Client(m.clone()), &mut out);
    let fx = settle(&mut cluster, 0, out);
    assert!(fx.contains(&Fx::Deliver(m.id)));
    for r in cluster.iter().flatten() {
        assert!(r.engine().has_delivered(m.id));
    }
}

#[test]
fn leader_crash_and_reelection_preserve_engine_state() {
    let mut cluster = cluster_of(GroupId(1), 3, 3);
    let out = elect(&mut cluster, 0);
    settle(&mut cluster, 0, out);

    // Two inputs replicate under the first leader: a client message with
    // lca B, then the leader crashes.
    let m1 = msg(1, &[1, 2]);
    let mut out = Vec::new();
    cluster[0]
        .as_mut()
        .unwrap()
        .submit(Cmd::Client(m1.clone()), &mut out);
    settle(&mut cluster, 0, out);
    cluster[0] = None;

    // New leader; a packet from group A (rank 0) arrives for a message
    // addressed to B and C.
    let out = elect(&mut cluster, 1);
    settle(&mut cluster, 1, out);
    assert!(cluster[1].as_ref().unwrap().is_leader());

    // Build a real packet from a real group-A engine.
    let mut ga = FlexCastGroup::new(GroupId(0), 3);
    let m2 = msg(2, &[0, 1, 2]);
    let mut out_a = Vec::new();
    ga.on_client(m2.clone(), &mut out_a);
    let pkt_to_b = out_a
        .into_iter()
        .find_map(|o| match o {
            Output::Send {
                to: GroupId(1),
                pkt,
            } => Some(pkt),
            _ => None,
        })
        .expect("msg to B");

    let mut out = Vec::new();
    cluster[1]
        .as_mut()
        .unwrap()
        .submit(Cmd::Peer(GroupId(0), pkt_to_b), &mut out);
    let fx = settle(&mut cluster, 1, out);
    assert!(
        fx.contains(&Fx::Deliver(m2.id)),
        "m2 delivered after failover"
    );

    // Both survivors hold identical engine state: m1 then m2.
    for r in cluster.iter().flatten() {
        assert!(r.engine().has_delivered(m1.id));
        assert!(r.engine().has_delivered(m2.id));
        assert_eq!(r.engine().delivered_count(), 2);
    }
}
