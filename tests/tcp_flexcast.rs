//! End-to-end FlexCast over real TCP: three groups on localhost exchange
//! wire-encoded packets through `flexcast-net` and must reproduce the
//! Figure 3(a) ordering, proving the sans-io engine + codec + runtime
//! stack composes into a working deployment.

use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_net::NodeRuntime;
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use std::time::Duration;

fn msg(seq: u32, ranks: &[u16]) -> Message {
    Message::new(
        MsgId::new(ClientId(1), seq),
        DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
        Payload(vec![seq as u8; 16].into()),
    )
    .unwrap()
}

/// A group node: engine + TCP runtime + delivery log.
struct GroupNode {
    engine: FlexCastGroup,
    net: NodeRuntime,
    delivered: Vec<MsgId>,
}

impl GroupNode {
    fn bind(g: GroupId, n: u16) -> Self {
        GroupNode {
            engine: FlexCastGroup::new(g, n),
            net: NodeRuntime::bind(g, "127.0.0.1:0".parse().unwrap()).unwrap(),
            delivered: Vec::new(),
        }
    }

    fn dispatch(&mut self, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Deliver(m) => self.delivered.push(m.id),
                Output::Send { to, pkt } => {
                    let bytes = flexcast_wire::to_bytes(&pkt).unwrap();
                    self.net.send(to, bytes).unwrap();
                }
            }
        }
        self.net.flush().unwrap();
    }

    fn pump(&mut self, timeout: Duration) {
        while let Some((from, bytes)) = self.net.recv_timeout(timeout) {
            let pkt: Packet = flexcast_wire::from_bytes(&bytes).unwrap();
            let mut out = Vec::new();
            self.engine.on_packet(from, pkt, &mut out);
            self.dispatch(out);
        }
    }
}

#[test]
fn fig3a_ordering_holds_over_tcp() {
    let n = 3u16;
    let mut a = GroupNode::bind(GroupId(0), n);
    let mut b = GroupNode::bind(GroupId(1), n);
    let mut c = GroupNode::bind(GroupId(2), n);

    // C-DAG wiring: every group dials its descendants.
    let (addr_b, addr_c) = (b.net.local_addr(), c.net.local_addr());
    a.net.connect(GroupId(1), addr_b).unwrap();
    a.net.connect(GroupId(2), addr_c).unwrap();
    b.net.connect(GroupId(2), addr_c).unwrap();

    let m1 = msg(1, &[0, 2]);
    let m2 = msg(2, &[0, 1]);
    let m3 = msg(3, &[1, 2]);

    // A receives m1 and m2 from the client (it is their lca).
    let mut out = Vec::new();
    a.engine.on_client(m1.clone(), &mut out);
    a.dispatch(out);
    let mut out = Vec::new();
    a.engine.on_client(m2.clone(), &mut out);
    a.dispatch(out);

    // B consumes its stream (delivers m2), then the client sends m3 to B.
    b.pump(Duration::from_millis(500));
    assert_eq!(b.delivered, vec![m2.id]);
    let mut out = Vec::new();
    b.engine.on_client(m3.clone(), &mut out);
    b.dispatch(out);

    // C consumes everything; regardless of arrival interleaving across
    // the two TCP links, it must deliver m1 before m3.
    for _ in 0..20 {
        c.pump(Duration::from_millis(100));
        if c.delivered.len() == 2 {
            break;
        }
    }
    assert_eq!(c.delivered, vec![m1.id, m3.id], "m1 ≺ m3 at C over TCP");
}

#[test]
fn three_destination_message_over_tcp() {
    let n = 3u16;
    let mut a = GroupNode::bind(GroupId(0), n);
    let mut b = GroupNode::bind(GroupId(1), n);
    let mut c = GroupNode::bind(GroupId(2), n);
    let (addr_b, addr_c) = (b.net.local_addr(), c.net.local_addr());
    a.net.connect(GroupId(1), addr_b).unwrap();
    a.net.connect(GroupId(2), addr_c).unwrap();
    b.net.connect(GroupId(2), addr_c).unwrap();

    let m = msg(9, &[0, 1, 2]);
    let mut out = Vec::new();
    a.engine.on_client(m.clone(), &mut out);
    a.dispatch(out);
    assert_eq!(a.delivered, vec![m.id], "lca delivers first");

    b.pump(Duration::from_millis(500));
    assert_eq!(b.delivered, vec![m.id]);
    // C needs both A's msg and B's ack; pump until both arrive.
    for _ in 0..20 {
        c.pump(Duration::from_millis(100));
        if !c.delivered.is_empty() {
            break;
        }
    }
    assert_eq!(c.delivered, vec![m.id]);
}

/// Local messages cross the sockets too, as vertices of the deltas that
/// ride on global ones — each with a one-member destination set, the
/// form the other two tests never put on the wire. A's and B's local
/// deliveries reach C's history through A's `msg` and B's ack, and every
/// group delivers in the order the protocol fixes.
#[test]
fn local_deliveries_travel_in_the_deltas_of_a_global_message() {
    let n = 3u16;
    let mut a = GroupNode::bind(GroupId(0), n);
    let mut b = GroupNode::bind(GroupId(1), n);
    let mut c = GroupNode::bind(GroupId(2), n);
    let (addr_b, addr_c) = (b.net.local_addr(), c.net.local_addr());
    a.net.connect(GroupId(1), addr_b).unwrap();
    a.net.connect(GroupId(2), addr_c).unwrap();
    b.net.connect(GroupId(2), addr_c).unwrap();

    let (l1, l2, l3) = (msg(1, &[0]), msg(2, &[0]), msg(3, &[1]));
    let m = msg(4, &[0, 1, 2]);
    fn deliver_local(node: &mut GroupNode, local: &Message) {
        let mut out = Vec::new();
        node.engine.on_client(local.clone(), &mut out);
        assert_eq!(out, vec![Output::Deliver(local.clone())], "sent nowhere");
        node.dispatch(out);
    }
    deliver_local(&mut a, &l1);
    deliver_local(&mut a, &l2);
    deliver_local(&mut b, &l3);
    let mut out = Vec::new();
    a.engine.on_client(m.clone(), &mut out);
    a.dispatch(out);

    b.pump(Duration::from_millis(500));
    for _ in 0..20 {
        c.pump(Duration::from_millis(100));
        if !c.delivered.is_empty() {
            break;
        }
    }
    assert_eq!(a.delivered, vec![l1.id, l2.id, m.id]);
    assert_eq!(b.delivered, vec![l3.id, m.id]);
    assert_eq!(c.delivered, vec![m.id]);
    for local in [&l1, &l2, &l3] {
        assert!(
            c.engine.history().contains(local.id),
            "{} reached C over TCP",
            local.id
        );
    }
    // `l1` and `l3` are their creators' first deliveries, written in the
    // deltas; `l2` rode on A's chain edge `l1 → l2` and was rebuilt from
    // it. Either way C holds each with exactly its creator as destination.
    for (local, creator) in [(&l1, 0), (&l2, 0), (&l3, 1)] {
        assert_eq!(
            c.engine.history().dst_of(local.id),
            Some(DestSet::singleton(GroupId(creator))),
            "{}",
            local.id
        );
    }
}
