//! `Traced<A>`: the benchmark's own wrapper around a simulator actor.
//!
//! Tracing inside the crates is a later change; this wrapper times every
//! callback *from outside*, classifies it by actor kind and `NetMsg`
//! variant, sizes inbound replica traffic, and — for the few sampled
//! servers — logs the inbound `(from, NetMsg)` sequence so the protocol
//! engine can be replayed off-line (see [`crate::replay`]).
//!
//! All state lives inside the wrapper (no shared sink), so the sharded
//! executor can run traced actors on its worker threads unchanged.

use crate::stats::Hist;
use flexcast_core::Packet;
use flexcast_harness::NetMsg;
use flexcast_sim::{Actor, Ctx, ProcessId};
use flexcast_types::MsgId;
use std::time::Instant;

/// What a callback was doing, as fine as the wrapper can tell from the
/// outside. The replicated world's message callbacks split by `NetMsg`
/// variant; the plain world's servers only ever see client and FlexCast
/// traffic, which the replay splits further by `Packet::kind()`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Slot {
    /// A plain-world server handling any message.
    Server,
    /// Any client callback (start, reply, retry timer).
    Client,
    /// Any flusher callback.
    Flusher,
    /// A replica handling intra-group Paxos traffic.
    ReplPaxos,
    /// A replica handling a ballot-leader-election heartbeat.
    ReplBle,
    /// A replica handling an inter-group FlexCast packet.
    ReplGroupMsg,
    /// A replica handling a client multicast request.
    ReplClient,
    /// A replica handling snapshot catch-up traffic.
    ReplSnapshot,
    /// A replica's maintenance timer (repair, retransmission, BLE tick)
    /// or its start hook.
    ReplTimer,
}

/// Number of [`Slot`] values.
pub const SLOTS: usize = 9;

impl Slot {
    /// Span name in the chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Slot::Server => "server.on_message",
            Slot::Client => "client.callback",
            Slot::Flusher => "flusher.callback",
            Slot::ReplPaxos => "replica.paxos",
            Slot::ReplBle => "replica.ble",
            Slot::ReplGroupMsg => "replica.groupmsg",
            Slot::ReplClient => "replica.client",
            Slot::ReplSnapshot => "replica.snapshot",
            Slot::ReplTimer => "replica.timer",
        }
    }
}

/// Which kind of actor a wrapper holds; fixes how callbacks classify.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A plain-world protocol server.
    Server,
    /// A workload client (either world).
    Client,
    /// A GC flusher (either world).
    Flusher,
    /// One Paxos replica of a replicated group.
    Replica,
}

impl Class {
    fn message_slot(self, msg: &NetMsg) -> Slot {
        match self {
            Class::Server => Slot::Server,
            Class::Client => Slot::Client,
            Class::Flusher => Slot::Flusher,
            Class::Replica => match msg {
                NetMsg::Repl(_) => Slot::ReplPaxos,
                NetMsg::Ble(_) => Slot::ReplBle,
                NetMsg::GroupMsg { .. } => Slot::ReplGroupMsg,
                NetMsg::SnapReq { .. } | NetMsg::Snapshot { .. } => Slot::ReplSnapshot,
                // Everything else a replica can be sent is client traffic.
                _ => Slot::ReplClient,
            },
        }
    }

    fn timer_slot(self) -> Slot {
        match self {
            Class::Server => Slot::Server,
            Class::Client => Slot::Client,
            Class::Flusher => Slot::Flusher,
            Class::Replica => Slot::ReplTimer,
        }
    }
}

/// The transaction a message belongs to — the request id shared by every
/// span of one multicast.
pub fn request_id(msg: &NetMsg) -> Option<MsgId> {
    match msg {
        NetMsg::Client { msg, .. } => Some(msg.id),
        NetMsg::Reply { id } => Some(*id),
        NetMsg::Flex(pkt) | NetMsg::GroupMsg { pkt, .. } => packet_request_id(pkt),
        _ => None,
    }
}

/// [`request_id`] for a bare FlexCast packet.
pub fn packet_request_id(pkt: &Packet) -> Option<MsgId> {
    match pkt {
        Packet::Msg { msg, .. } => Some(msg.id),
        Packet::Ack { mref, .. } | Packet::Notif { mref, .. } => Some(mref.id),
        Packet::Advert { .. } => None,
    }
}

/// One recorded callback: the "event" level of the span tree.
#[derive(Clone, Copy, Debug)]
pub struct EventSpan {
    /// Classification.
    pub slot: Slot,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Transaction this callback served, if the message names one.
    pub req: Option<MsgId>,
    /// Position in the actor's inbound capture log, if it keeps one —
    /// what replayed layer spans point back to as their parent.
    pub capture_idx: Option<u32>,
}

/// A simulator actor timed from outside.
pub struct Traced<A> {
    inner: A,
    class: Class,
    epoch: Instant,
    /// Callback durations, indexed by [`Slot`].
    pub tally: [Hist; SLOTS],
    /// Encoded size of every message delivered to this actor (replicas
    /// only: `ReplicatedActor` keeps no byte counters of its own).
    pub recv_bytes: u64,
    /// Bytes of serialized state in every `NetMsg::Snapshot` delivered to
    /// this actor (catch-up traffic; stale transfers included).
    pub snapshot_bytes: u64,
    /// Inbound `(from, message)` log; `Some` on sampled servers only.
    pub capture: Option<Vec<(ProcessId, NetMsg)>>,
    /// Raw callback spans, kept up to `span_cap`.
    pub spans: Vec<EventSpan>,
    span_cap: usize,
}

impl<A> Traced<A> {
    /// Wraps `inner`. `capture` turns on the inbound log; `span_cap`
    /// bounds the raw spans kept (histograms are never capped).
    pub fn new(inner: A, class: Class, epoch: Instant, capture: bool, span_cap: usize) -> Self {
        Traced {
            inner,
            class,
            epoch,
            tally: Default::default(),
            recv_bytes: 0,
            snapshot_bytes: 0,
            capture: capture.then(Vec::new),
            spans: Vec::new(),
            span_cap,
        }
    }

    /// The wrapped actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn finish(&mut self, slot: Slot, t0: Instant, req: Option<MsgId>, capture_idx: Option<u32>) {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.tally[slot as usize].record(dur_ns);
        if self.spans.len() < self.span_cap {
            self.spans.push(EventSpan {
                slot,
                start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
                req,
                capture_idx,
            });
        }
    }
}

impl<A: Actor<NetMsg>> Actor<NetMsg> for Traced<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let slot = self.class.timer_slot();
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.finish(slot, t0, None, None);
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let slot = self.class.message_slot(&msg);
        let req = request_id(&msg);
        if self.class == Class::Replica {
            self.recv_bytes += msg.wire_size() as u64;
            if let NetMsg::Snapshot { state, .. } = &msg {
                self.snapshot_bytes += state.len() as u64;
            }
        }
        let capture_idx = self.capture.as_mut().map(|log| {
            log.push((from, msg.clone()));
            (log.len() - 1) as u32
        });
        let t0 = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.finish(slot, t0, req, capture_idx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        let slot = self.class.timer_slot();
        let t0 = Instant::now();
        self.inner.on_timer(token, ctx);
        self.finish(slot, t0, None, None);
    }
}
