//! Simulator actors: protocol servers, and the closed-loop client and the
//! flushers both harness stacks run.

use crate::checker::DeliveryEvent;
use crate::layout::Layout;
use crate::netmsg::NetMsg;
use crate::node::{entry_node, NodeEngine};
use flexcast_baselines::{hier, skeen, HierGroup, SkeenGroup};
use flexcast_core::{FlexCastGroup, Output as FlexOutput};
use flexcast_gtpcc::Generator;
use flexcast_overlay::{CDagOrder, Tree};
use flexcast_sim::{Actor, Ctx, ProcessId, SimTime};
use flexcast_telemetry::SpanId;
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Deref;

/// The deterministic tracing span id of a transaction: packed from the
/// issuing client and its per-client sequence number, so replays of the
/// same workload produce identical ids.
pub fn txn_span_id(id: MsgId) -> SpanId {
    SpanId::from_parts(id.sender.0, id.seq)
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
    /// Inputs refused at intake: a client message this server does not
    /// serve (a destination outside the overlay, or one whose entry is
    /// another server: another group's lca, or for Skeen a message not
    /// addressed here),
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
    /// The `rf = 1` layout: servers at `0..n`.
    layout: Layout,
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
        let engine = EngineKind::Hier(HierGroup::new(node, tree));
        Self::running(node, n_servers, engine)
    }

    fn running(node: GroupId, n_servers: usize, engine: EngineKind) -> Self {
        ServerActor {
            node,
            layout: Layout::new(n_servers, 1),
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

    fn deliver(&mut self, id: MsgId, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
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
        self.send_counted(self.layout.client_pid(id.sender), reply, false, ctx);
    }

    /// Sends `msg` charged to the traffic stats. The size computed here
    /// travels with the message ([`Ctx::send_sized`]), so the receiving
    /// server charges `received_bytes` without sizing it again. `control`
    /// routes it as control-plane traffic ([`Ctx::send_control`]), which
    /// does not occupy the receiver's serial service slot.
    fn send_counted(&mut self, to: usize, msg: NetMsg, control: bool, ctx: &mut Ctx<'_, NetMsg>) {
        let bytes = msg.wire_size();
        self.stats.sent_msgs += 1;
        self.stats.sent_bytes += bytes as u64;
        if control {
            ctx.send_control_sized(to, msg, carried(bytes));
        } else {
            ctx.send_sized(to, msg, carried(bytes));
        }
    }

    fn handle_flex_outputs(&mut self, outs: &mut Vec<FlexOutput>, ctx: &mut Ctx<'_, NetMsg>) {
        let now = ctx.now();
        for o in outs.drain(..) {
            match o {
                FlexOutput::Deliver(m) => self.deliver(m.id, ctx),
                FlexOutput::Send { to: node, pkt } => {
                    // Watermark advertisements are tiny background
                    // messages a real deployment would piggyback on its
                    // upstream traffic (client replies, transport acks);
                    // modeling them as serial-service work would let one
                    // in-flight WAN advert head-of-line block a server.
                    let advert = matches!(pkt, flexcast_core::Packet::Advert { .. });
                    let (counter, name) = if advert {
                        ("flex.adverts_forwarded", "advert")
                    } else {
                        ("flex.forward_packets", "forward")
                    };
                    let tel = ctx.telemetry();
                    tel.counter_add(counter, 1);
                    tel.instant("flex", name, self.node.0 as u32, now.as_nanos());
                    self.send_counted(node.index(), NetMsg::Flex(pkt), advert, ctx);
                }
            }
        }
    }

    fn handle_skeen_outputs(&mut self, outs: Vec<skeen::Output>, ctx: &mut Ctx<'_, NetMsg>) {
        for o in outs {
            match o {
                skeen::Output::Deliver(m) => self.deliver(m.id, ctx),
                skeen::Output::Send { to, pkt } => {
                    self.send_counted(to.index(), NetMsg::Skeen(pkt), false, ctx);
                }
            }
        }
    }

    fn handle_hier_outputs(&mut self, outs: Vec<hier::Output>, ctx: &mut Ctx<'_, NetMsg>) {
        for o in outs {
            match o {
                hier::Output::Deliver(m) => self.deliver(m.id, ctx),
                hier::Output::Send { to, pkt } => {
                    self.send_counted(to.index(), NetMsg::Hier(pkt), false, ctx);
                }
            }
        }
    }
}

impl Actor<NetMsg> for ServerActor {
    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
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
        // A baseline client sends its copy to every destination (Skeen) or
        // to their tree lca (hierarchical): any other copy is one this
        // server cannot order. (The FlexCast engine refuses such copies
        // itself.)
        let (node, servers) = (self.node, DestSet::all(self.layout.n_groups));
        let sender = self.layout.replica_at(from).map(|(peer, _)| peer);
        match (msg, &mut self.engine, sender) {
            (NetMsg::Client { msg: m, .. }, EngineKind::Flex(flex), _) => {
                let now = ctx.now().as_nanos();
                ctx.telemetry()
                    .instant("flex", "multicast", node.0 as u32, now);
                let mut outs = std::mem::take(&mut self.flex_outs);
                if !flex.on_client(m, &mut outs) {
                    self.stats.refused_inputs += 1;
                }
                self.handle_flex_outputs(&mut outs, ctx);
                self.flex_outs = outs;
            }
            (NetMsg::Client { msg: m, .. }, EngineKind::Skeen(engine), _)
                if m.dst.is_subset(servers) && m.dst.contains(node) =>
            {
                let mut outs = Vec::new();
                engine.on_client(m, &mut outs);
                self.handle_skeen_outputs(outs, ctx);
            }
            (NetMsg::Client { msg: m, .. }, EngineKind::Hier(engine), _)
                if m.dst.is_subset(servers)
                    && HierGroup::entry_point(engine.tree(), &m) == node =>
            {
                let mut outs = Vec::new();
                engine.on_message(m, &mut outs);
                self.handle_hier_outputs(outs, ctx);
            }
            (NetMsg::Flex(pkt), EngineKind::Flex(flex), sender) => {
                // Merge-phase span: delta of history entries admitted by
                // this packet, computed only when tracing is on.
                let tel_on = ctx.telemetry().is_enabled();
                let before = tel_on.then(|| flex.engine().merge_stats().entries_in());
                let mut outs = std::mem::take(&mut self.flex_outs);
                if !sender.is_some_and(|peer| flex.on_packet(peer, pkt, &mut outs)) {
                    self.stats.refused_inputs += 1;
                }
                let merged = before.map(|b| flex.engine().merge_stats().entries_in() - b);
                self.handle_flex_outputs(&mut outs, ctx);
                self.flex_outs = outs;
                if let Some(n) = merged.filter(|&n| n > 0) {
                    let (tel, now) = (ctx.telemetry(), ctx.now().as_nanos());
                    let args = [("entries", n as f64)];
                    tel.span_with_args("flex", "merge", node.0 as u32, now, 0, &args);
                }
            }
            (NetMsg::Skeen(pkt), EngineKind::Skeen(engine), Some(peer)) => {
                let mut outs = Vec::new();
                engine.on_packet(peer, pkt, &mut outs);
                self.handle_skeen_outputs(outs, ctx);
            }
            (NetMsg::Hier(pkt), EngineKind::Hier(engine), Some(peer)) => {
                let mut outs = Vec::new();
                engine.on_packet(peer, pkt, &mut outs);
                self.handle_hier_outputs(outs, ctx);
            }
            // A client copy this server cannot order, another protocol's
            // packets, a packet from a pid that is no server, replies (for
            // clients) and replication traffic (for replicated worlds).
            _ => self.stats.refused_inputs += 1,
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
            EntryPolicy::Hier(tree) => DestSet::singleton(HierGroup::entry_point(tree, m)),
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

/// The multicast a client or flusher waits on, and the destination groups
/// that have answered it.
struct Pending {
    id: MsgId,
    dst: DestSet,
    acked: DestSet,
    sent_at: SimTime,
    /// Latency of the first answer, in milliseconds.
    first_ms: f64,
    /// The multicast itself, kept by a sender that retries it.
    msg: Option<Message>,
}

impl Pending {
    fn new(m: &Message, sent_at: SimTime, keep: bool) -> Self {
        Pending {
            id: m.id,
            dst: m.dst,
            acked: DestSet::new(),
            sent_at,
            first_ms: 0.0,
            msg: keep.then(|| m.clone()),
        }
    }

    fn done(&self) -> bool {
        self.acked == self.dst
    }

    /// Re-sends a kept multicast to every destination group that has not
    /// answered: one that delivered it but whose reply was lost re-acks.
    /// Group-side dedup makes the copy safe.
    fn resend(&self, layout: Layout, c: ClientId, ctx: &mut Ctx<'_, NetMsg>) {
        if let Some(msg) = &self.msg {
            layout.send_copy(c, msg.clone(), self.dst.difference(self.acked), ctx);
        }
    }
}

/// The one reply rule of every reply-taking actor. Anything but a `Reply`,
/// and a reply to the pending multicast from a pid that is no replica of
/// one of its destination groups ([`Layout::replica_at`]), is refused and
/// counted in `refused`. A reply with nothing pending (stale), to an older
/// multicast, or from a group that has answered already (a duplicate, as
/// after a leader change) is ignored. Returns the pending multicast when a
/// destination group answers it for the first time.
fn take_reply<'a>(
    layout: Layout,
    pending: &'a mut Option<Pending>,
    from: ProcessId,
    msg: NetMsg,
    refused: &mut u64,
) -> Option<&'a mut Pending> {
    let NetMsg::Reply { id } = msg else {
        *refused += 1;
        return None;
    };
    let p = pending.as_mut().filter(|p| p.id == id)?;
    let Some((g, _)) = layout.replica_at(from).filter(|&(g, _)| p.dst.contains(g)) else {
        *refused += 1;
        return None;
    };
    if p.acked.contains(g) {
        return None;
    }
    p.acked.insert(g);
    Some(p)
}

/// Where a client's transactions come from, fixed at construction: the
/// destinations and payload of its `seq`-th transaction, `None` once it is
/// spent.
type Source = Box<dyn FnMut(u32) -> Option<(DestSet, Payload)>>;

/// The closed-loop client of both stacks (§5.3): issues one transaction at
/// a time to its entry groups' replicas, takes one reply per destination
/// group (the one reply rule, `take_reply`), and issues the next when
/// every destination has replied. Where the stacks differ is data fixed at
/// construction: the transaction source (gTPC-C, or uniform draws), the
/// layout's `rf`, the retry period (none on the bare stack's reliable
/// links), and whether it keeps a sample per reply or the first and last
/// reply per transaction.
pub struct ClientActor {
    id: ClientId,
    layout: Layout,
    source: Source,
    entry: EntryPolicy,
    /// Re-sends an unanswered multicast to its unanswered destinations
    /// this often; `None` never re-sends.
    retry: Option<SimTime>,
    /// No transaction is issued, and none retried, from this time on.
    stop_at: SimTime,
    /// Keeps a [`LatencySample`] per reply if set, else each transaction's
    /// first-reply and completion latencies.
    per_reply: bool,
    seq: u32,
    outstanding: Option<Pending>,
    /// Every latency sample, with `per_reply`.
    pub samples: Vec<LatencySample>,
    /// Completion latency (all destinations replied) per finished
    /// transaction, without `per_reply`.
    pub completion_ms: Vec<f64>,
    /// First-reply latency per finished transaction, without `per_reply`.
    pub first_ack_ms: Vec<f64>,
    /// Fully acknowledged transactions.
    pub completed: u64,
    /// Destination sets of every message this client multicast (node
    /// space), for the property checker.
    pub issued: Vec<(MsgId, DestSet)>,
    /// Inputs the reply rule (`take_reply`) refused.
    pub refused_inputs: u64,
}

impl ClientActor {
    /// Creates a gTPC-C client homed at `home` in the `n_servers`-server
    /// world of the unreplicated stack.
    pub fn new(
        client_id: ClientId,
        home: GroupId,
        n_servers: usize,
        mut generator: Generator,
        entry: EntryPolicy,
        stop_issuing_at: SimTime,
    ) -> Self {
        let source: Source = Box::new(move |_| {
            let txn = generator.next_txn(home);
            Some((txn.warehouses, txn.payload()))
        });
        let (layout, stop) = (Layout::new(n_servers, 1), stop_issuing_at);
        Self::with(client_id, layout, source, entry, None, stop, true)
    }

    /// The client of either stack (type docs).
    fn with(
        id: ClientId,
        layout: Layout,
        source: Source,
        entry: EntryPolicy,
        retry: Option<SimTime>,
        stop_at: SimTime,
        per_reply: bool,
    ) -> Self {
        ClientActor {
            id,
            layout,
            source,
            entry,
            retry,
            stop_at,
            per_reply,
            seq: 0,
            outstanding: None,
            samples: Vec::new(),
            completion_ms: Vec::new(),
            first_ack_ms: Vec::new(),
            completed: 0,
            issued: Vec::new(),
            refused_inputs: 0,
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let Some((dst, payload)) = (self.source)(self.seq) else {
            return;
        };
        let id = MsgId::new(self.id, self.seq);
        self.seq += 1;
        // Cannot fire: every source names at least one destination.
        let m = Message::new(id, dst, payload).expect("transactions have destinations");
        self.issued.push((id, m.dst));
        ctx.telemetry().async_begin(
            "client",
            "txn",
            txn_span_id(id),
            ctx.me() as u32,
            ctx.now().as_nanos(),
        );
        self.outstanding = Some(Pending::new(&m, ctx.now(), self.retry.is_some()));
        // The retry timer carries the transaction's sequence number, so at
        // most one retry chain is live: stale chains from completed
        // transactions see a different token and die out.
        if let Some(retry) = self.retry {
            ctx.set_timer(retry, id.seq as u64);
        }
        let entries = self.entry.entries(&m);
        self.layout.send_copy(self.id, m, entries, ctx);
    }
}

impl Actor<NetMsg> for ClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.issue(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let pending = &mut self.outstanding;
        let Some(out) = take_reply(self.layout, pending, from, msg, &mut self.refused_inputs)
        else {
            return;
        };
        let elapsed = ctx.now().since(out.sent_at).as_ms();
        if out.acked.len() == 1 {
            out.first_ms = elapsed;
        }
        if self.per_reply {
            self.samples.push(LatencySample {
                sent_at: out.sent_at,
                rank: out.acked.len(),
                latency_ms: elapsed,
                dst_count: out.dst.len(),
            });
        }
        if !out.done() {
            return;
        }
        if !self.per_reply {
            self.completion_ms.push(elapsed);
            self.first_ack_ms.push(out.first_ms);
        }
        let id = out.id;
        self.completed += 1;
        self.outstanding = None;
        ctx.telemetry().async_end(
            "client",
            "txn",
            txn_span_id(id),
            ctx.me() as u32,
            ctx.now().as_nanos(),
        );
        if ctx.now() < self.stop_at {
            self.issue(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        let (Some(out), Some(retry)) = (&self.outstanding, self.retry) else {
            return;
        };
        if out.id.seq as u64 != token || ctx.now() >= self.stop_at {
            return; // stale chain from a completed transaction, or done
        }
        out.resend(self.layout, self.id, ctx);
        ctx.set_timer(retry, token);
    }
}

/// Multicasts a FlexCast flush message to all groups every `period`, for
/// history garbage collection (§4.3: "a distinguished process periodically
/// multicasts a flush message to all groups"). On the bare stack it is
/// periodic, answered or not. On the replicated stack it is acknowledged:
/// at most `n` flushes, each issued only once every group has answered the
/// last, which is re-sent each period to the groups that have not.
pub struct FlushActor {
    client_id: ClientId,
    layout: Layout,
    entry: EntryPolicy,
    period: SimTime,
    stop_at: SimTime,
    /// `Some(n)` if acknowledged, with at most `n` flushes; `None` if
    /// periodic.
    acked: Option<u32>,
    seq: u32,
    outstanding: Option<Pending>,
    /// Destination sets of issued flushes, for the checker registry.
    pub issued: Vec<(MsgId, DestSet)>,
    /// Flushes answered by every group.
    pub completed: u64,
    /// Inputs the reply rule (`take_reply`) refused.
    pub refused_inputs: u64,
}

impl FlushActor {
    /// Creates a periodic flusher issuing every `period` until `stop_at`.
    pub fn new(
        client_id: ClientId,
        n_servers: usize,
        entry: EntryPolicy,
        period: SimTime,
        stop_at: SimTime,
    ) -> Self {
        FlushActor {
            client_id,
            layout: Layout::new(n_servers, 1),
            entry,
            period,
            stop_at,
            acked: None,
            seq: 0,
            outstanding: None,
            issued: Vec::new(),
            completed: 0,
            refused_inputs: 0,
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let id = MsgId::new(self.client_id, self.seq);
        self.seq += 1;
        let m = FlexCastGroup::flush_message(id, self.layout.n_groups as u16);
        self.issued.push((id, m.dst));
        self.outstanding = Some(Pending::new(&m, ctx.now(), self.acked.is_some()));
        let entries = self.entry.entries(&m);
        self.layout.send_copy(self.client_id, m, entries, ctx);
    }
}

impl Actor<NetMsg> for FlushActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        // An acknowledged flusher arms only for a flush due before the stop.
        if (self.acked).is_none_or(|n| n > 0 && ctx.now() + self.period < self.stop_at) {
            ctx.set_timer(self.period, 0);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, _ctx: &mut Ctx<'_, NetMsg>) {
        let pending = &mut self.outstanding;
        if take_reply(self.layout, pending, from, msg, &mut self.refused_inputs)
            .is_some_and(|p| p.done())
        {
            self.completed += 1;
            self.outstanding = None;
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        match (&self.outstanding, self.acked) {
            (Some(pending), Some(_)) => pending.resend(self.layout, self.client_id, ctx),
            (_, Some(n)) if self.seq >= n => return, // every flush answered
            _ => self.flush(ctx),
        }
        if ctx.now() + self.period < self.stop_at {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// A client or the flusher of the replicated stack, under the constructors
/// the benchmark pins (`replicated::{ReplClientActor, ReplFlushActor}`);
/// reads go through to the actor.
pub struct Repl<A>(pub(crate) A);

impl<A> Deref for Repl<A> {
    type Target = A;

    fn deref(&self) -> &A {
        &self.0
    }
}

impl Repl<ClientActor> {
    /// Creates a client that issues `n_msgs` multicasts with 2..=`max_dst`
    /// destinations each.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ClientId,
        rf: u32,
        order: CDagOrder,
        n_msgs: u32,
        max_dst: usize,
        payload_bytes: usize,
        retry: SimTime,
        stop_at: SimTime,
        seed: u64,
    ) -> Self {
        let (n, mut rng) = (order.len(), StdRng::seed_from_u64(seed));
        let source: Source = Box::new(move |seq| {
            (seq < n_msgs).then(|| {
                let k = rng.random_range(2..=max_dst.min(n).max(2));
                let mut dst = DestSet::new();
                while dst.len() < k {
                    dst.insert(GroupId(rng.random_range(0..n as u16)));
                }
                (dst, vec![7u8; payload_bytes].into())
            })
        });
        let (layout, entry) = (Layout::new(n, rf), EntryPolicy::Flex(order));
        Repl(ClientActor::with(
            id,
            layout,
            source,
            entry,
            Some(retry),
            stop_at,
            false,
        ))
    }
}

impl Repl<FlushActor> {
    /// Creates a flusher issuing `n_flushes` flushes, one per `period`.
    pub fn new(
        id: ClientId,
        rf: u32,
        order: CDagOrder,
        n_flushes: u32,
        period: SimTime,
        stop_at: SimTime,
    ) -> Self {
        let n = order.len();
        let mut flusher = FlushActor::new(id, n, EntryPolicy::Flex(order), period, stop_at);
        flusher.layout = Layout::new(n, rf);
        flusher.acked = Some(n_flushes);
        Repl(flusher)
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

impl Node {
    fn actor(&mut self) -> &mut dyn Actor<NetMsg> {
        match self {
            Node::Server(s) => s,
            Node::Client(c) => c,
            Node::Flusher(f) => f,
        }
    }
}

impl Actor<NetMsg> for Node {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.actor().on_start(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        self.actor().on_message(from, msg, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        self.actor().on_timer(token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_world_on, ExperimentConfig, ProtocolKind};
    use flexcast_core::{HistoryDelta, MsgRef, Packet};
    use flexcast_gtpcc::{WorkloadConfig, WorkloadMode};
    use flexcast_overlay::{regions, LatencyMatrix};
    use flexcast_sim::{LinkModel, World};
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
            world.inject(
                Layout::new(SERVERS, 1).client_pid(ClientId(0)),
                0,
                msg.clone(),
            );
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
            let reply_to = Layout::new(SERVERS, 1).client_pid(ClientId(0));
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
        let reply_to = Layout::new(SERVERS, 1).client_pid(ClientId(0));
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

    /// Only servers send baseline packets either: a Skeen or hierarchical
    /// packet from any other pid is refused and counted, and no server
    /// delivers or sends because of it.
    #[test]
    fn a_baseline_packet_from_outside_the_overlay_is_refused() {
        let id = MsgId::new(ClientId(0), 999);
        let dst = DestSet::from_iter([GroupId(0), GroupId(1)]);
        let msg = Message::new(id, dst, Payload::empty()).unwrap();
        let ts = flexcast_baselines::SkeenPacket::Ts { id, ts: 1 };
        let cases = [
            (ProtocolKind::Distributed, NetMsg::Skeen(ts)),
            (
                ProtocolKind::Hierarchical(flexcast_overlay::presets::t1()),
                NetMsg::Hier(flexcast_baselines::HierPacket(msg)),
            ),
        ];
        for (protocol, input) in cases {
            let label = protocol.label();
            let mut cfg = ExperimentConfig::latency(protocol, 0.9);
            cfg.n_clients = 4;
            cfg.duration = SimTime::from_secs(1);
            let mut world = run_world_on(&cfg, &regions::aws12());
            let stats = |w: &World<NetMsg, Node>| -> Vec<(u64, u64, u64)> {
                (0..SERVERS)
                    .map(|pid| match w.actor(pid) {
                        Node::Server(s) => {
                            let st = &s.stats;
                            (st.delivered, st.sent_msgs, st.refused_inputs)
                        }
                        _ => panic!("pid {pid} is not a server"),
                    })
                    .collect()
            };
            let mut want = stats(&world);
            want[0].2 += 1;
            world.inject(Layout::new(SERVERS, 1).client_pid(ClientId(0)), 0, input);
            world.run_to_quiescence(1_000);
            assert_eq!(stats(&world), want, "{label}");
        }
    }

    /// A baseline server takes a client's copy only where the protocol's
    /// entry rule sends it: at every destination for Skeen, at the tree
    /// lca for the hierarchical protocol. A copy naming a node past the
    /// servers, or sent to a server that is not its entry, is refused and
    /// counted, and no server delivers or sends because of it.
    #[test]
    fn a_baseline_client_message_this_server_cannot_order_is_refused() {
        let client = |seq, ranks: &[u16]| {
            let dst = DestSet::from_iter(ranks.iter().copied().map(GroupId));
            let msg = Message::new(MsgId::new(ClientId(0), seq), dst, Payload::empty()).unwrap();
            let reply_to = Layout::new(SERVERS, 1).client_pid(ClientId(0));
            NetMsg::Client { msg, reply_to }
        };
        let past = SERVERS as u16;
        let cases = [
            (
                ProtocolKind::Distributed,
                [client(999, &[0, past]), client(998, &[1, 2])],
            ),
            (
                ProtocolKind::Hierarchical(flexcast_overlay::presets::t1()),
                [client(999, &[0, past]), client(998, &[1])],
            ),
        ];
        for (protocol, inputs) in cases {
            let label = protocol.label();
            let mut cfg = ExperimentConfig::latency(protocol, 0.9);
            cfg.n_clients = 4;
            cfg.duration = SimTime::from_secs(1);
            let mut world = run_world_on(&cfg, &regions::aws12());
            let stats = |w: &World<NetMsg, Node>| -> Vec<(u64, u64, u64)> {
                (0..SERVERS)
                    .map(|pid| match w.actor(pid) {
                        Node::Server(s) => {
                            let st = &s.stats;
                            (st.delivered, st.sent_msgs, st.refused_inputs)
                        }
                        _ => panic!("pid {pid} is not a server"),
                    })
                    .collect()
            };
            let mut want = stats(&world);
            want[0].2 += inputs.len() as u64;
            for input in inputs {
                world.inject(Layout::new(SERVERS, 1).client_pid(ClientId(0)), 0, input);
            }
            world.run_to_quiescence(1_000);
            assert_eq!(stats(&world), want, "{label}");
        }
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
        let client = Layout::new(SERVERS, 1).client_pid(ClientId(0));
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

    /// An actor that takes the next message as if `from` had sent it, and
    /// drops every other.
    struct Spoof<A> {
        inner: A,
        from: Option<ProcessId>,
    }

    impl<A: Actor<NetMsg>> Actor<NetMsg> for Spoof<A> {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
            self.inner.on_start(ctx);
        }

        fn on_message(&mut self, _: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
            if let Some(from) = self.from.take() {
                self.inner.on_message(from, msg, ctx);
            }
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
            self.inner.on_timer(token, ctx);
        }
    }

    /// A reply-taking actor's refusals, issued multicasts and completions.
    type Readback<A> = fn(&A) -> (u64, &[(MsgId, DestSet)], u64);

    /// Runs `actor` of `layout`, alone in a world where each of its sends
    /// is dropped (the ones to its own pid by [`Spoof`]), through the rows
    /// of the reply table: whether it refused each row's input. Between
    /// rows, replies from every destination complete its first two
    /// multicasts.
    fn reply_verdicts<A: Actor<NetMsg>>(
        actor: A,
        layout: Layout,
        read: Readback<A>,
    ) -> Vec<(&'static str, bool)> {
        let matrix = LatencyMatrix::zero(layout.n_groups);
        let link = LinkModel::new(matrix, vec![GroupId(0)], 0.0);
        let spoof = Spoof {
            inner: actor,
            from: None,
        };
        let mut world = World::new(vec![spoof], link, 1);
        let issued = |world: &mut World<NetMsg, Spoof<A>>, n: usize| {
            while read(&world.actor(0).inner).1.len() < n {
                assert!(world.step(), "multicast {n} is issued");
            }
            read(&world.actor(0).inner).1[n - 1]
        };
        let answer = |world: &mut World<NetMsg, Spoof<A>>, from, msg| {
            world.run_until(world.now());
            let before = read(&world.actor(0).inner).0;
            world.actor_mut(0).from = Some(from);
            world.inject(0, 0, msg);
            world.run_until(world.now());
            read(&world.actor(0).inner).0 > before
        };
        let reply = |id| NetMsg::Reply { id };
        let pid = |g| layout.replica_pid(g, 0);
        let (id0, dst0) = issued(&mut world, 1);
        let first = dst0.lowest().expect("destinations");
        let outsider = (0..).map(GroupId).find(|&g| !dst0.contains(g));
        let outsider = outsider.expect("a group that is no destination");
        let rf = layout.rf as usize;
        let mut rows = vec![
            (
                "a non-Reply kind",
                answer(&mut world, pid(first), NetMsg::SnapReq { have: 0 }),
            ),
            (
                "a non-destination group",
                answer(&mut world, pid(outsider), reply(id0)),
            ),
            (
                "a pid outside the world",
                answer(&mut world, 65_536 * rf + rf, reply(id0)),
            ),
            ("a destination", answer(&mut world, pid(first), reply(id0))),
        ];
        let last = layout.replica_pid(first, layout.rf - 1);
        rows.push(("a duplicate", answer(&mut world, last, reply(id0))));
        for g in dst0.iter().skip(1) {
            answer(&mut world, pid(g), reply(id0));
        }
        let (id1, dst1) = issued(&mut world, 2);
        rows.push(("an older id", answer(&mut world, pid(first), reply(id0))));
        // Past the bare client's stop: the second multicast is the last.
        world.run_until(world.now() + SimTime::from_ms(2.0));
        for g in dst1.iter() {
            answer(&mut world, pid(g), reply(id1));
        }
        let stale = answer(
            &mut world,
            pid(dst1.lowest().expect("destinations")),
            reply(id1),
        );
        rows.push(("a stale id", stale));
        let (_, issued, completed) = read(&world.actor(0).inner);
        assert_eq!((issued.len(), completed), (2, 2));
        rows
    }

    /// The bare client, the replicated client and the acknowledged flusher
    /// give every row of the reply table the same verdict: one reply rule.
    /// A pid past the world's, `65 536·rf + rf`, names group 1 under a
    /// truncating cast; it names no group.
    #[test]
    fn every_reply_taking_actor_gives_each_reply_the_same_verdict() {
        use crate::replicated::{ReplClientActor, ReplFlushActor, ReplNode};
        let want = vec![
            ("a non-Reply kind", true),
            ("a non-destination group", true),
            ("a pid outside the world", true),
            ("a destination", false),
            ("a duplicate", false),
            ("an older id", false),
            ("a stale id", false),
        ];
        let wl = WorkloadConfig {
            locality: 0.9,
            mode: WorkloadMode::GlobalOnly,
            max_warehouses: 3,
        };
        let generator = Generator::new(wl, &regions::aws12(), 1);
        let entry = EntryPolicy::Flex(CDagOrder::identity(SERVERS));
        let stop = SimTime::from_ms(1.0);
        let client = ClientActor::new(ClientId(0), GroupId(1), SERVERS, generator, entry, stop);
        let bare = reply_verdicts(Node::Client(client), Layout::new(SERVERS, 1), |n| match n {
            Node::Client(c) => (c.refused_inputs, &c.issued, c.completed),
            _ => unreachable!("a client"),
        });
        assert_eq!(bare, want, "ClientActor");

        // Client 0's first multicast goes to groups 1 and 3 of 4.
        let (order, retry, stop) = (
            CDagOrder::identity(4),
            SimTime::from_ms(400.0),
            SimTime::from_secs(30),
        );
        let client = ReplClientActor::new(ClientId(0), 3, order.clone(), 2, 3, 32, retry, stop, 8);
        let period = SimTime::from_ms(100.0);
        let flusher = ReplFlushActor::new(ClientId(2), 3, order, 2, period, stop);
        let read: Readback<ReplNode> = |n| match n {
            ReplNode::Client(c) => (c.refused_inputs, &c.issued, c.completed),
            ReplNode::Flusher(f) => (f.refused_inputs, &f.issued, f.completed),
            ReplNode::Replica(_) => unreachable!("a client or the flusher"),
        };
        for (name, actor) in [
            ("ReplClientActor", ReplNode::Client(client)),
            ("ReplFlushActor", ReplNode::Flusher(flusher)),
        ] {
            assert_eq!(
                reply_verdicts(actor, Layout::new(4, 3), read),
                want,
                "{name}"
            );
        }
    }
}
