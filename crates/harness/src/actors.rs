//! Simulator actors: protocol servers and closed-loop gTPC-C clients.

use crate::checker::DeliveryEvent;
use crate::netmsg::NetMsg;
use crate::node::{entry_node, NodeEngine};
use flexcast_baselines::{hier, skeen, HierGroup, SkeenGroup};
use flexcast_core::{FlexCastGroup, Output as FlexOutput};
use flexcast_gtpcc::Generator;
use flexcast_overlay::{CDagOrder, Tree};
use flexcast_sim::{Actor, Ctx, SimTime};
use flexcast_telemetry::SpanId;
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId};

/// The deterministic tracing span id of a transaction: packed from the
/// issuing client and its per-client sequence number, so replays of the
/// same workload produce identical ids.
pub fn txn_span_id(id: MsgId) -> SpanId {
    SpanId::from_parts(id.sender.0, id.seq)
}

/// Maps a client id to its simulator process id (clients sit after the
/// `n_servers` server processes).
pub fn client_pid(n_servers: usize, c: ClientId) -> usize {
    n_servers + c.0 as usize
}

/// An encoded size as [`Ctx::send_sized`] carries it.
fn carried(bytes: usize) -> u32 {
    // Cannot fire: `bytes` sizes a message the simulator holds in memory,
    // and no run comes near 4 GiB for one message.
    u32::try_from(bytes).expect("a simulated message encodes to under 4 GiB")
}

/// Per-server traffic statistics (Figure 8 and the overhead metric §5.8).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Messages received, of any kind.
    pub received_msgs: u64,
    /// Total bytes received (wire-format encoded sizes).
    pub received_bytes: u64,
    /// Payload-carrying messages received.
    pub received_payloads: u64,
    /// Messages delivered to the application.
    pub delivered: u64,
    /// Messages sent, of any kind.
    pub sent_msgs: u64,
    /// Total bytes sent.
    pub sent_bytes: u64,
    /// Inputs refused at intake: a client message the engine does not
    /// serve (a destination outside the overlay, or another group's lca),
    /// a packet from a process outside the overlay or one the engine
    /// refuses, or a message kind this server does not handle.
    pub refused_inputs: u64,
}

impl ServerStats {
    /// The paper's communication overhead: `1 − delivered ⁄ received`
    /// over payload messages, as a fraction in `[0, 1]`.
    pub fn overhead(&self) -> f64 {
        if self.received_payloads == 0 {
            0.0
        } else {
            1.0 - (self.delivered as f64 / self.received_payloads as f64)
        }
    }
}

/// Which protocol a server runs, with the per-protocol engine state.
// One value per simulated node; the size spread between engines is
// irrelevant at that cardinality and boxing would cost an indirection on
// the hot path.
#[allow(clippy::large_enum_variant)]
enum EngineKind {
    Flex(NodeEngine),
    Skeen(SkeenGroup),
    Hier(HierGroup),
}

/// A protocol server at one node (AWS region).
pub struct ServerActor {
    node: GroupId,
    n_servers: usize,
    engine: EngineKind,
    /// Traffic statistics.
    pub stats: ServerStats,
    /// Ordered delivery log for the property checker.
    pub deliveries: Vec<DeliveryEvent>,
    /// Reusable engine-output buffer: one allocation per server instead
    /// of one per handled message.
    flex_outs: Vec<FlexOutput>,
}

impl ServerActor {
    /// Creates a FlexCast server for `node`, placed in the C-DAG by
    /// `order`. `advert_stride` enables protocol-level delta suppression
    /// (watermark advertisements upstream every so many admitted history
    /// entries); `None` runs the plain protocol.
    pub fn flexcast(
        node: GroupId,
        n_servers: usize,
        order: CDagOrder,
        advert_stride: Option<u32>,
    ) -> Self {
        let engine = NodeEngine::new(node, n_servers as u16, order, advert_stride);
        Self::running(node, n_servers, EngineKind::Flex(engine))
    }

    /// Creates a Skeen server for `node`.
    pub fn skeen(node: GroupId, n_servers: usize) -> Self {
        Self::running(node, n_servers, EngineKind::Skeen(SkeenGroup::new(node)))
    }

    /// Creates a hierarchical server for `node` on `tree`.
    pub fn hier(node: GroupId, n_servers: usize, tree: Tree) -> Self {
        Self::running(
            node,
            n_servers,
            EngineKind::Hier(HierGroup::new(node, tree)),
        )
    }

    fn running(node: GroupId, n_servers: usize, engine: EngineKind) -> Self {
        ServerActor {
            node,
            n_servers,
            engine,
            stats: ServerStats::default(),
            deliveries: Vec::new(),
            flex_outs: Vec::new(),
        }
    }

    /// The node this server represents.
    pub fn node(&self) -> GroupId {
        self.node
    }

    /// The FlexCast engine, if this server runs FlexCast (diagnostics).
    pub fn flex_engine(&self) -> Option<&FlexCastGroup> {
        match &self.engine {
            EngineKind::Flex(flex) => Some(flex.engine()),
            _ => None,
        }
    }

    fn deliver(&mut self, id: MsgId, now: SimTime, ctx: &mut Ctx<'_, NetMsg>) {
        self.stats.delivered += 1;
        self.deliveries.push(DeliveryEvent {
            node: self.node,
            id,
            at: now,
        });
        ctx.telemetry().counter_add("server.delivered", 1);
        ctx.telemetry()
            .instant("server", "deliver", self.node.0 as u32, now.as_nanos());
        let reply = NetMsg::Reply { id };
        self.send_counted(client_pid(self.n_servers, id.sender), reply, ctx);
    }

    /// Sends `msg` charged to the traffic stats. The size computed here
    /// travels with the message ([`Ctx::send_sized`]), so the receiving
    /// server charges `received_bytes` without sizing it again.
    fn send_counted(&mut self, to: usize, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let bytes = msg.wire_size();
        self.stats.sent_msgs += 1;
        self.stats.sent_bytes += bytes as u64;
        ctx.send_sized(to, msg, carried(bytes));
    }

    /// Like [`ServerActor::send_counted`] but routed as control-plane
    /// traffic ([`Ctx::send_control`]): counted in the traffic stats, but
    /// not occupying the receiver's serial service slot.
    fn send_control_counted(&mut self, to: usize, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let bytes = msg.wire_size();
        self.stats.sent_msgs += 1;
        self.stats.sent_bytes += bytes as u64;
        ctx.send_control_sized(to, msg, carried(bytes));
    }

    fn handle_flex_outputs(&mut self, outs: &mut Vec<FlexOutput>, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        for o in outs.drain(..) {
            match o {
                FlexOutput::Deliver(m) => self.deliver(m.id, now, ctx),
                FlexOutput::Send { to: node, pkt } => {
                    // Watermark advertisements are tiny background
                    // messages a real deployment would piggyback on its
                    // upstream traffic (client replies, transport acks);
                    // modeling them as serial-service work would let one
                    // in-flight WAN advert head-of-line block a server.
                    if matches!(pkt, flexcast_core::Packet::Advert { .. }) {
                        ctx.telemetry().counter_add("flex.adverts_forwarded", 1);
                        ctx.telemetry().instant(
                            "flex",
                            "advert",
                            self.node.0 as u32,
                            now.as_nanos(),
                        );
                        self.send_control_counted(node.index(), NetMsg::Flex(pkt), ctx);
                    } else {
                        ctx.telemetry().counter_add("flex.forward_packets", 1);
                        ctx.telemetry().instant(
                            "flex",
                            "forward",
                            self.node.0 as u32,
                            now.as_nanos(),
                        );
                        self.send_counted(node.index(), NetMsg::Flex(pkt), ctx);
                    }
                }
            }
        }
    }

    fn handle_skeen_outputs(&mut self, outs: Vec<skeen::Output>, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        for o in outs {
            match o {
                skeen::Output::Deliver(m) => self.deliver(m.id, now, ctx),
                skeen::Output::Send { to, pkt } => {
                    self.send_counted(to.index(), NetMsg::Skeen(pkt), ctx);
                }
            }
        }
    }

    fn handle_hier_outputs(&mut self, outs: Vec<hier::Output>, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        for o in outs {
            match o {
                hier::Output::Deliver(m) => self.deliver(m.id, now, ctx),
                hier::Output::Send { to, pkt } => {
                    self.send_counted(to.index(), NetMsg::Hier(pkt), ctx);
                }
            }
        }
    }

    /// Processes an incoming simulator message.
    pub fn on_message(&mut self, from: usize, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        self.stats.received_msgs += 1;
        // Server → server messages arrive with the size their sender
        // charged; only messages nobody sized (client → server) are
        // walked here, so every message is sized exactly once.
        let bytes = match ctx.incoming_bytes() {
            Some(carried) => {
                debug_assert_eq!(carried as usize, msg.wire_size(), "carried size of {msg:?}");
                carried as u64
            }
            None => msg.wire_size() as u64,
        };
        self.stats.received_bytes += bytes;
        if msg.is_payload() {
            self.stats.received_payloads += 1;
        }
        match msg {
            NetMsg::Client { msg: m, .. } => match &mut self.engine {
                EngineKind::Flex(flex) => {
                    ctx.telemetry().instant(
                        "flex",
                        "multicast",
                        self.node.0 as u32,
                        ctx.now().as_nanos(),
                    );
                    let mut outs = std::mem::take(&mut self.flex_outs);
                    if !flex.on_client(m, &mut outs) {
                        self.stats.refused_inputs += 1;
                    }
                    self.handle_flex_outputs(&mut outs, ctx);
                    self.flex_outs = outs;
                }
                EngineKind::Skeen(engine) => {
                    let mut outs = Vec::new();
                    engine.on_client(m, &mut outs);
                    self.handle_skeen_outputs(outs, ctx);
                }
                EngineKind::Hier(engine) => {
                    let mut outs = Vec::new();
                    engine.on_message(m, &mut outs);
                    self.handle_hier_outputs(outs, ctx);
                }
            },
            NetMsg::Flex(pkt) => {
                let tel_on = ctx.telemetry().is_enabled();
                let EngineKind::Flex(flex) = &mut self.engine else {
                    self.stats.refused_inputs += 1;
                    return;
                };
                // Merge-phase span: delta of history entries admitted by
                // this packet, computed only when tracing is on.
                let before = tel_on.then(|| flex.engine().merge_stats().entries_in());
                let mut outs = std::mem::take(&mut self.flex_outs);
                // Servers sit at pids `0..n`, so a pid is its node's id.
                let accepted = u16::try_from(from)
                    .is_ok_and(|node| flex.on_packet(GroupId(node), pkt, &mut outs));
                if !accepted {
                    self.stats.refused_inputs += 1;
                }
                let merged = before.map(|b| flex.engine().merge_stats().entries_in() - b);
                self.handle_flex_outputs(&mut outs, ctx);
                self.flex_outs = outs;
                if let Some(n) = merged {
                    if n > 0 {
                        ctx.telemetry().span_with_args(
                            "flex",
                            "merge",
                            self.node.0 as u32,
                            ctx.now().as_nanos(),
                            0,
                            &[("entries", n as f64)],
                        );
                    }
                }
            }
            NetMsg::Skeen(pkt) => {
                let EngineKind::Skeen(engine) = &mut self.engine else {
                    self.stats.refused_inputs += 1;
                    return;
                };
                let mut outs = Vec::new();
                engine.on_packet(GroupId(from as u16), pkt, &mut outs);
                self.handle_skeen_outputs(outs, ctx);
            }
            NetMsg::Hier(pkt) => {
                let EngineKind::Hier(engine) = &mut self.engine else {
                    self.stats.refused_inputs += 1;
                    return;
                };
                let mut outs = Vec::new();
                engine.on_packet(GroupId(from as u16), pkt, &mut outs);
                self.handle_hier_outputs(outs, ctx);
            }
            // Replies are for clients, replication traffic for replicated
            // worlds.
            NetMsg::Reply { .. }
            | NetMsg::Repl(_)
            | NetMsg::GroupMsg { .. }
            | NetMsg::Ble(_)
            | NetMsg::SnapReq { .. }
            | NetMsg::Snapshot { .. } => self.stats.refused_inputs += 1,
        }
    }
}

/// Where clients inject multicast messages for each protocol.
#[derive(Clone, Debug)]
pub enum EntryPolicy {
    /// FlexCast: send to the node holding the lowest rank among the
    /// destinations (`m.lca()` in rank space).
    Flex(CDagOrder),
    /// Skeen: send to every destination.
    SkeenAll,
    /// Hierarchical: send to the tree-lca of the destinations.
    Hier(Tree),
}

impl EntryPolicy {
    /// The server nodes that must receive the client's copy of `m`
    /// (`m.dst` in node space). FlexCast names none for destinations
    /// outside the overlay.
    pub fn entries(&self, m: &Message) -> DestSet {
        match self {
            EntryPolicy::Flex(order) => entry_node(order, m.dst).into_iter().collect(),
            EntryPolicy::SkeenAll => m.dst,
            EntryPolicy::Hier(tree) => DestSet::singleton(tree.lca(m.dst)),
        }
    }

    /// Sends the client's copy of `msg` to its entry servers, in
    /// ascending node order. One entry — the tree's, and FlexCast's in
    /// the overlay — is a plain send; several (or none) fan out
    /// ([`Ctx::send_many`]), which schedules exactly what one send per
    /// entry would.
    fn multicast(&self, msg: Message, reply_to: usize, ctx: &mut Ctx<'_, NetMsg>) {
        let entries = self.entries(&msg);
        let msg = NetMsg::Client { msg, reply_to };
        match entries.lowest() {
            Some(only) if entries.len() == 1 => ctx.send(only.index(), msg),
            _ => ctx.send_many(entries.iter().map(GroupId::index).collect(), msg),
        }
    }
}

/// One latency sample: the k-th destination's response to one transaction.
#[derive(Clone, Copy, Debug)]
pub struct LatencySample {
    /// When the transaction was issued.
    pub sent_at: SimTime,
    /// Which response this is (1 = first destination, 2 = second, ...).
    pub rank: usize,
    /// Client-observed latency in milliseconds.
    pub latency_ms: f64,
    /// Number of destinations of the transaction.
    pub dst_count: usize,
}

struct Outstanding {
    id: MsgId,
    dst_count: usize,
    sent_at: SimTime,
    replies: usize,
}

/// A closed-loop gTPC-C client (§5.3): issues one transaction at a time,
/// records the latency of each destination's response, and issues the next
/// transaction when all destinations have replied.
pub struct ClientActor {
    client_id: ClientId,
    home: GroupId,
    n_servers: usize,
    generator: Generator,
    entry: EntryPolicy,
    stop_issuing_at: SimTime,
    seq: u32,
    outstanding: Option<Outstanding>,
    /// All latency samples collected.
    pub samples: Vec<LatencySample>,
    /// Fully acknowledged transactions.
    pub completed: u64,
    /// Destination sets of every message this client multicast (node
    /// space), for the property checker.
    pub issued: Vec<(MsgId, DestSet)>,
    /// Inputs refused: anything but a `Reply`.
    pub refused_inputs: u64,
}

impl ClientActor {
    /// Creates a client homed at `home`.
    pub fn new(
        client_id: ClientId,
        home: GroupId,
        n_servers: usize,
        generator: Generator,
        entry: EntryPolicy,
        stop_issuing_at: SimTime,
    ) -> Self {
        ClientActor {
            client_id,
            home,
            n_servers,
            generator,
            entry,
            stop_issuing_at,
            seq: 0,
            outstanding: None,
            samples: Vec::new(),
            completed: 0,
            issued: Vec::new(),
            refused_inputs: 0,
        }
    }

    /// The client's home region.
    pub fn home(&self) -> GroupId {
        self.home
    }

    fn issue(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let txn = self.generator.next_txn(self.home);
        let id = MsgId::new(self.client_id, self.seq);
        self.seq += 1;
        // Cannot fire: every generated transaction includes its home
        // warehouse.
        let m =
            Message::new(id, txn.warehouses, txn.payload()).expect("transactions have warehouses");
        self.issued.push((id, m.dst));
        self.outstanding = Some(Outstanding {
            id,
            dst_count: m.dst.len(),
            sent_at: ctx.now(),
            replies: 0,
        });
        ctx.telemetry().async_begin(
            "client",
            "txn",
            txn_span_id(id),
            ctx.me() as u32,
            ctx.now().as_nanos(),
        );
        self.entry
            .multicast(m, client_pid(self.n_servers, self.client_id), ctx);
    }

    /// Handles a reply from a destination server.
    pub fn on_message(&mut self, _from: usize, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let NetMsg::Reply { id } = msg else {
            self.refused_inputs += 1;
            return;
        };
        let Some(out) = &mut self.outstanding else {
            return; // stale reply after cutoff — ignore
        };
        if out.id != id {
            return; // reply for an older transaction
        }
        out.replies += 1;
        self.samples.push(LatencySample {
            sent_at: out.sent_at,
            rank: out.replies,
            latency_ms: ctx.now().since(out.sent_at).as_ms(),
            dst_count: out.dst_count,
        });
        if out.replies == out.dst_count {
            self.completed += 1;
            self.outstanding = None;
            ctx.telemetry().async_end(
                "client",
                "txn",
                txn_span_id(id),
                ctx.me() as u32,
                ctx.now().as_nanos(),
            );
            if ctx.now() < self.stop_issuing_at {
                self.issue(ctx);
            }
        }
    }

    /// Starts the closed loop.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.issue(ctx);
    }
}

/// Periodically multicasts FlexCast flush messages for history garbage
/// collection (§4.3: "a distinguished process periodically multicasts a
/// flush message to all groups").
pub struct FlushActor {
    client_id: ClientId,
    n_servers: usize,
    entry: EntryPolicy,
    period: SimTime,
    stop_at: SimTime,
    seq: u32,
    /// Destination sets of issued flushes, for the checker registry.
    pub issued: Vec<(MsgId, DestSet)>,
}

impl FlushActor {
    /// Creates a flusher issuing every `period` until `stop_at`.
    pub fn new(
        client_id: ClientId,
        n_servers: usize,
        entry: EntryPolicy,
        period: SimTime,
        stop_at: SimTime,
    ) -> Self {
        FlushActor {
            client_id,
            n_servers,
            entry,
            period,
            stop_at,
            seq: 0,
            issued: Vec::new(),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let id = MsgId::new(self.client_id, self.seq);
        self.seq += 1;
        let m = FlexCastGroup::flush_message(id, self.n_servers as u16);
        self.issued.push((id, m.dst));
        self.entry
            .multicast(m, client_pid(self.n_servers, self.client_id), ctx);
        if ctx.now() + self.period < self.stop_at {
            ctx.set_timer(self.period, 0);
        }
    }

    /// Starts the periodic flushing.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        ctx.set_timer(self.period, 0);
    }

    /// Timer tick: issue the next flush.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.flush(ctx);
    }
}

/// The simulator actor: a server, a client, or the flusher.
// One value per simulated node, as with `EngineKind` above.
#[allow(clippy::large_enum_variant)]
pub enum Node {
    /// A protocol server.
    Server(ServerActor),
    /// A workload client.
    Client(ClientActor),
    /// The garbage-collection flusher (FlexCast only).
    Flusher(FlushActor),
}

impl Actor<NetMsg> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        match self {
            Node::Server(_) => {}
            Node::Client(c) => c.on_start(ctx),
            Node::Flusher(f) => f.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: usize, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        match self {
            Node::Server(s) => s.on_message(from, msg, ctx),
            Node::Client(c) => c.on_message(from, msg, ctx),
            Node::Flusher(_) => {} // replies to flush messages are ignored
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        if let Node::Flusher(f) = self {
            f.on_timer(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_world_on, ExperimentConfig, ProtocolKind};
    use flexcast_core::{HistoryDelta, MsgRef, Packet};
    use flexcast_overlay::regions;
    use flexcast_sim::World;
    use flexcast_smr::{BleMsg, PaxosMsg};
    use flexcast_types::Payload;

    const SERVERS: usize = 12;

    /// A short FlexCast run on the 12-region deployment, run to its end.
    fn quiesced_world() -> World<NetMsg, Node> {
        let order = CDagOrder::identity(SERVERS);
        let mut cfg = ExperimentConfig::latency(ProtocolKind::FlexCast(order), 0.9);
        cfg.n_clients = 4;
        cfg.duration = SimTime::from_secs(1);
        run_world_on(&cfg, &regions::aws12())
    }

    /// Every server's engine snapshot and refusal count.
    fn state(world: &World<NetMsg, Node>) -> Vec<(Vec<u8>, u64)> {
        (0..SERVERS)
            .map(|pid| match world.actor(pid) {
                Node::Server(s) => {
                    let engine = s.flex_engine().expect("a FlexCast server");
                    (engine.snapshot().expect("encodes"), s.stats.refused_inputs)
                }
                _ => panic!("pid {pid} is not a server"),
            })
            .collect()
    }

    /// Injects each of `inputs` from a client's pid into server 0: no
    /// engine may change, and server 0 counts one refusal per input.
    fn assert_refused(inputs: &[NetMsg]) {
        let mut world = quiesced_world();
        let before = state(&world);
        for msg in inputs {
            world.inject(client_pid(SERVERS, ClientId(0)), 0, msg.clone());
        }
        world.run_to_quiescence(1_000);
        let after = state(&world);
        for (pid, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(a.0, b.0, "server {pid}'s engine changed");
        }
        let refusals = inputs.len() as u64;
        assert_eq!(
            after[0].1,
            before[0].1 + refusals,
            "each refusal is counted"
        );
    }

    /// A client message naming a node outside the overlay is refused, and
    /// so is one sent to a server that is not its lca: the engine's
    /// verdict, counted by the server.
    #[test]
    fn a_client_destination_outside_the_overlay_is_refused() {
        let client = |seq, dst: [u16; 2]| {
            let dst = DestSet::from_iter(dst.map(GroupId));
            let msg = Message::new(MsgId::new(ClientId(0), seq), dst, Payload::empty()).unwrap();
            let reply_to = client_pid(SERVERS, ClientId(0));
            NetMsg::Client { msg, reply_to }
        };
        assert_refused(&[client(999, [0, SERVERS as u16]), client(998, [1, 2])]);
    }

    /// A client message whose sender names no client is delivered at both
    /// destinations; the world drops and counts each reply to the pid it
    /// does not host.
    #[test]
    fn a_reply_to_a_client_the_world_does_not_host_is_dropped() {
        let mut world = quiesced_world();
        let dropped = world.dropped_messages();
        let dst = DestSet::from_iter([GroupId(0), GroupId(1)]);
        let msg = Message::new(MsgId::new(ClientId(999), 0), dst, Payload::empty()).unwrap();
        let reply_to = client_pid(SERVERS, ClientId(0));
        let id = msg.id;
        world.inject(reply_to, 0, NetMsg::Client { msg, reply_to });
        world.run_to_quiescence(1_000_000);
        for pid in [0, 1] {
            let Node::Server(s) = world.actor(pid) else {
                panic!("pid {pid} is not a server");
            };
            assert_eq!(s.deliveries.last().map(|d| d.id), Some(id), "server {pid}");
        }
        assert_eq!(world.dropped_messages(), dropped + 2);
    }

    /// Only servers send FlexCast packets; one from any other process
    /// names no rank.
    #[test]
    fn a_flex_packet_from_outside_the_overlay_is_refused() {
        let mref = MsgRef {
            id: MsgId::new(ClientId(0), 999),
            dst: DestSet::from_iter([GroupId(0), GroupId(1)]),
        };
        let hist = HistoryDelta::empty();
        assert_refused(&[NetMsg::Flex(Packet::Notif { mref, hist })]);
    }

    /// Replies are for clients, replication traffic for replicated worlds,
    /// and another protocol's packets for its own servers. A client takes
    /// replies only.
    #[test]
    fn message_kinds_a_server_does_not_handle_are_refused() {
        let id = MsgId::new(ClientId(0), 999);
        let dst = DestSet::from_iter([GroupId(0), GroupId(1)]);
        let msg = Message::new(id, dst, Payload::empty()).unwrap();
        let mref = MsgRef::of(&msg);
        let hist = HistoryDelta::empty();
        let notif = Packet::Notif { mref, hist };

        let mut world = quiesced_world();
        let client = client_pid(SERVERS, ClientId(0));
        let state = |w: &World<NetMsg, Node>| match w.actor(client) {
            Node::Client(c) => (c.completed, c.samples.len(), c.refused_inputs),
            _ => panic!("pid {client} is not a client"),
        };
        let before = state(&world);
        world.inject(0, client, NetMsg::Flex(notif.clone()));
        world.run_to_quiescence(1_000);
        assert_eq!(state(&world), (before.0, before.1, before.2 + 1));

        assert_refused(&[
            NetMsg::Reply { id },
            NetMsg::Repl(PaxosMsg::LearnReq { from_slot: 0 }),
            NetMsg::GroupMsg { seq: 0, pkt: notif },
            NetMsg::Ble(BleMsg::HeartbeatRequest { round: 1 }),
            NetMsg::SnapReq { have: 0 },
            NetMsg::Snapshot {
                through: 1,
                state: vec![],
            },
            NetMsg::Skeen(flexcast_baselines::SkeenPacket::Ts { id, ts: 1 }),
            NetMsg::Hier(flexcast_baselines::HierPacket(msg)),
        ]);
    }
}
