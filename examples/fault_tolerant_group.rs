//! Fault tolerance (§4.4): a FlexCast group replicated with multi-Paxos.
//!
//! The paper evaluates single-process groups but prescribes state machine
//! replication for fault tolerance: replicate each group's protocol
//! engine, and the group keeps operating as long as a quorum of replicas
//! survives. This example replicates group B of a three-group deployment
//! across three Paxos replicas, crashes the leader mid-stream, elects a
//! new one, and shows that ordering is preserved and no input is lost.
//! Elections are started by hand here; in the simulated deployment ballot
//! leader election hands each winner its ballot.
//!
//! ```sh
//! cargo run --example fault_tolerant_group
//! ```

use flexcast_core::{FlexCastGroup, Output};
use flexcast_smr::{Ballot, GroupEffect, ReplicatedGroup};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};

/// Applies a committed client multicast to the engine (a group's other
/// input, peer packets from its ancestors, would be a second command
/// kind). The engine's outputs are the effects, which only the leader
/// emits; a real deployment would send them to the overlay.
fn apply(engine: &mut FlexCastGroup, m: Message, out: &mut Vec<Output>) {
    engine.on_client(m, out);
}

type Group = ReplicatedGroup<FlexCastGroup, Message, Output>;

/// Stands replica `r` for election with a ballot above any it promised.
fn elect(replicas: &mut [Option<Group>], r: u32) -> Vec<GroupEffect<Message, Output>> {
    let g = replicas[r as usize].as_mut().expect("a live replica");
    let ballot = Ballot {
        round: g.replica().promised().round + 1,
        owner: r,
    };
    let mut out = Vec::new();
    assert!(g.handle_leader(ballot, &mut out), "replica {r} stands");
    out
}

/// Routes replication traffic between live replicas until quiescence,
/// collecting leader-emitted engine effects.
fn settle(
    replicas: &mut [Option<Group>],
    from: u32,
    effects: Vec<GroupEffect<Message, Output>>,
) -> Vec<Output> {
    let mut emitted = Vec::new();
    let mut queue: Vec<(u32, GroupEffect<Message, Output>)> =
        effects.into_iter().map(|e| (from, e)).collect();
    while let Some((src, effect)) = queue.pop() {
        match effect {
            GroupEffect::Engine(output) => emitted.push(output),
            GroupEffect::Replication { to, msg } => {
                if let Some(r) = replicas[to as usize].as_mut() {
                    let mut next = Vec::new();
                    r.on_replication(src, msg, &mut next);
                    queue.extend(next.into_iter().map(|e| (to, e)));
                }
            }
            GroupEffect::SnapshotNeeded { .. } => {
                unreachable!("no compaction in this example")
            }
        }
    }
    emitted
}

fn main() {
    const B: GroupId = GroupId(1);
    let n_groups = 3u16;
    let n_replicas = 3u32;

    // Three replicas of group B, each holding its own engine copy.
    let mut replicas: Vec<Option<Group>> = (0..n_replicas)
        .map(|i| {
            Some(ReplicatedGroup::new(
                i,
                n_replicas,
                FlexCastGroup::new(B, n_groups),
                apply,
            ))
        })
        .collect();

    // Replica 0 becomes the initial leader.
    let out = elect(&mut replicas, 0);
    settle(&mut replicas, 0, out);
    println!("replica 0 elected leader of group B");

    let msg = |seq: u32, ranks: &[u16]| {
        Message::new(
            MsgId::new(ClientId(5), seq),
            DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
            Payload::empty(),
        )
        .unwrap()
    };

    // Two multicasts with lca B arrive and replicate.
    let m1 = msg(1, &[1, 2]);
    let m2 = msg(2, &[1, 2]);
    let mut out = Vec::new();
    replicas[0].as_mut().unwrap().submit(m1.clone(), &mut out);
    let fx1 = settle(&mut replicas, 0, out);
    println!(
        "m1 committed; leader emitted {} effects (deliver + forward to C)",
        fx1.len()
    );

    // Leader crashes before m2 is even proposed.
    replicas[0] = None;
    println!("leader (replica 0) crashed");

    // Replica 1 takes over; the group must keep working.
    let out = elect(&mut replicas, 1);
    settle(&mut replicas, 1, out);
    assert!(replicas[1].as_ref().unwrap().is_leader());
    println!("replica 1 elected leader");

    let mut out = Vec::new();
    replicas[1].as_mut().unwrap().submit(m2.clone(), &mut out);
    let fx2 = settle(&mut replicas, 1, out);
    println!("m2 committed under the new leader; {} effects", fx2.len());

    // Every surviving replica's engine delivered both, in the same order.
    for (i, r) in replicas.iter().enumerate() {
        if let Some(r) = r {
            let e = r.engine();
            assert!(e.has_delivered(m1.id), "replica {i} lost m1");
            assert!(e.has_delivered(m2.id), "replica {i} lost m2");
        }
    }
    println!("\nboth surviving replicas delivered m1 and m2 in log order —");
    println!("group B survived a leader crash without losing a message.");
}
