//! `tcp3`: three `FlexCastGroup`s over three `NodeRuntime`s on loopback —
//! the one workload that runs the real codec, framing and sockets. The
//! simulator passes values in memory and only *sizes* them, so
//! `flexcast-wire`'s encoder/decoder and all of `flexcast-net` do their
//! work here and nowhere else.
//!
//! One driver thread owns the three engines. It injects multicasts at
//! their lca (closed loop, fixed window), encodes every outgoing packet
//! with `flexcast_wire::to_bytes`, `send`s it, `drain`s all three
//! runtimes and decodes what arrived. The only other threads are the
//! ones `NodeRuntime` spawns itself.

use crate::spans::{SpanLog, ROOT};
use crate::stats::Hist;
use crate::traced::packet_request_id;
use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_harness::{checker, DeliveryEvent};
use flexcast_net::NodeRuntime;
use flexcast_sim::SimTime;
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Payload};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// Number of groups (and runtimes).
pub const N: usize = 3;
/// Client id of workload multicasts.
const WORK: ClientId = ClientId(1);
/// Client id of the periodic flushes.
const FLUSHER: ClientId = ClientId(2);
/// Bytes `write_frame` puts in front of every body.
const FRAME_HEADER: u64 = 4;
/// The run is declared stuck after this long without a frame arriving.
const STALL: Duration = Duration::from_secs(10);
/// The four destination sets, drawn uniformly.
const DEST_SETS: [&[u16]; 4] = [&[0, 1], &[0, 2], &[1, 2], &[0, 1, 2]];

/// The workload's knobs.
#[derive(Clone, Copy, Debug)]
pub struct Tcp3Spec {
    /// Multicasts to complete.
    pub multicasts: u32,
    /// Closed-loop window: multicasts in flight at once.
    pub window: u32,
    /// Payload bytes per multicast.
    pub payload: usize,
    /// A flush to all groups after every this many multicasts.
    pub flush_every: u32,
}

/// xorshift64*: the seeded destination-set stream.
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the stream (a zero seed is remapped; xorshift has no zero
    /// state).
    pub fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next 64 bits.
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Matches frames seen in `drain()` to their enqueue times: TCP keeps each
/// directed link FIFO, so the k-th frame out of `from → to` is the k-th
/// frame in. Timestamps are caller-supplied nanoseconds.
#[derive(Default)]
pub struct LinkFifo {
    queues: [[VecDeque<u64>; N]; N],
}

impl LinkFifo {
    /// Notes a frame enqueued on `from → to` at `at_ns`.
    pub fn sent(&mut self, from: usize, to: usize, at_ns: u64) {
        self.queues[from][to].push_back(at_ns);
    }

    /// Matches a frame that arrived on `from → to` at `at_ns`; returns its
    /// transit time, or `None` if nothing was outstanding on the link.
    pub fn received(&mut self, from: usize, to: usize, at_ns: u64) -> Option<u64> {
        let sent = self.queues[from][to].pop_front()?;
        Some(at_ns.saturating_sub(sent))
    }

    /// Frames enqueued and not yet matched.
    #[cfg(test)]
    pub fn outstanding(&self) -> usize {
        self.queues.iter().flatten().map(VecDeque::len).sum()
    }
}

/// Stopwatches of the traced pass, wrapped around the driver's own calls.
pub struct Tcp3Probe {
    /// `flexcast_wire::to_bytes` per packet.
    pub encode: Hist,
    /// Bytes those packets encoded to.
    pub encode_bytes: u64,
    /// `flexcast_wire::from_bytes` per frame.
    pub decode: Hist,
    /// Bytes decoded.
    pub decode_bytes: u64,
    /// `NodeRuntime::send` per frame.
    pub send: Hist,
    /// Enqueue → visible in `drain()`, per frame.
    pub transit: Hist,
    /// `FlexCastGroup::on_client` per injection.
    pub on_client: Hist,
    /// `FlexCastGroup::on_packet` by `Packet::kind()`.
    pub on_packet: [Hist; 4],
    fifo: LinkFifo,
    epoch: Instant,
    /// Raw spans (capped).
    pub spans: SpanLog,
}

impl Tcp3Probe {
    /// A fresh probe; spans are timed from `epoch`.
    pub fn new(epoch: Instant, span_cap: usize) -> Self {
        Tcp3Probe {
            encode: Hist::default(),
            encode_bytes: 0,
            decode: Hist::default(),
            decode_bytes: 0,
            send: Hist::default(),
            transit: Hist::default(),
            on_client: Hist::default(),
            on_packet: Default::default(),
            fifo: LinkFifo::default(),
            epoch,
            spans: SpanLog::new(span_cap),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

/// One group's engine, runtime and delivery log.
struct Node {
    engine: FlexCastGroup,
    net: NodeRuntime,
    delivered: Vec<MsgId>,
}

/// The three connected nodes, ready to run.
pub struct Tcp3World {
    nodes: Vec<Node>,
    /// Every workload multicast, in injection order.
    script: Vec<Message>,
    /// Every multicast, flushes included, with its destinations (for the
    /// checker).
    registry: BTreeMap<MsgId, DestSet>,
}

fn flush(k: u32) -> Message {
    FlexCastGroup::flush_message(MsgId::new(FLUSHER, k), N as u16)
}

/// Generates the run's inputs from `seed` (destination sets uniform over
/// [`DEST_SETS`]), binds three runtimes on `127.0.0.1:0` and dials the
/// C-DAG links 0→1, 0→2, 1→2.
pub fn setup(spec: &Tcp3Spec, seed: u64) -> flexcast_types::Result<Tcp3World> {
    let mut rng = XorShift::new(seed);
    let payload = Payload(vec![0x5Au8; spec.payload].into());
    let mut script = Vec::with_capacity(spec.multicasts as usize);
    let mut registry = BTreeMap::new();
    for seq in 0..spec.multicasts {
        let ranks = DEST_SETS[(rng.next() % DEST_SETS.len() as u64) as usize];
        let dst = DestSet::try_from_ranks(ranks.iter().copied())?;
        let m = Message::new(MsgId::new(WORK, seq), dst, payload.clone())?;
        registry.insert(m.id, dst);
        script.push(m);
    }
    for k in 0..spec.multicasts / spec.flush_every {
        let f = flush(k);
        registry.insert(f.id, f.dst);
    }

    let mut nodes = Vec::with_capacity(N);
    for g in 0..N as u16 {
        nodes.push(Node {
            engine: FlexCastGroup::new(GroupId(g), N as u16),
            net: NodeRuntime::bind(GroupId(g), "127.0.0.1:0".parse().expect("literal address"))?,
            delivered: Vec::new(),
        });
    }
    let addrs: Vec<_> = nodes.iter().map(|n| n.net.local_addr()).collect();
    for (from, node) in nodes.iter_mut().enumerate() {
        for (to, addr) in addrs.iter().enumerate().skip(from + 1) {
            node.net.connect(GroupId(to as u16), *addr)?;
        }
    }
    Ok(Tcp3World {
        nodes,
        script,
        registry,
    })
}

/// What one run produced.
#[derive(Clone, Debug)]
pub struct Tcp3Outcome {
    /// Multicasts injected.
    pub attempted: u64,
    /// Multicasts delivered at every destination.
    pub completed: u64,
    /// Inject → last destination delivered, wall milliseconds, per
    /// completed multicast.
    pub latencies_ms: Vec<f64>,
    /// Frames handed to `NodeRuntime::send`.
    pub frames: u64,
    /// Their bytes on the wire, length prefix included.
    pub frame_bytes: u64,
    /// Σ `History::merge` input over the engines.
    pub entries_in: u64,
    /// Duplicates among them.
    pub entries_dup: u64,
    /// Σ history vertices held at the end.
    pub history_verts_end: u64,
    /// Σ engine backlog at the end.
    pub backlog_end: u64,
    /// Checker and stall verdict.
    pub verdict: Result<(), String>,
}

struct Driver<'a> {
    nodes: &'a mut [Node],
    probe: Option<&'a mut Tcp3Probe>,
    /// Per workload multicast: inject time and destinations still owed.
    ops: Vec<(Instant, u8)>,
    flush_owed: u32,
    completed: u64,
    latencies_ms: Vec<f64>,
    frames: u64,
    frame_bytes: u64,
    outs: Vec<Output>,
}

impl Driver<'_> {
    /// Routes one engine call's outputs: deliveries are tallied, packets
    /// are encoded and sent. `parent` is the span the work hangs under.
    fn dispatch(&mut self, at: usize, parent: Option<u64>) {
        let mut outs = std::mem::take(&mut self.outs);
        for o in outs.drain(..) {
            match o {
                Output::Deliver(m) => {
                    self.nodes[at].delivered.push(m.id);
                    if m.id.sender == WORK {
                        let (t0, owed) = &mut self.ops[m.id.seq as usize];
                        *owed -= 1;
                        if *owed == 0 {
                            self.completed += 1;
                            self.latencies_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
                        }
                    } else {
                        self.flush_owed -= 1;
                    }
                }
                Output::Send { to, pkt } => {
                    let req = packet_request_id(&pkt);
                    let t0 = self.probe.as_ref().map(|_| Instant::now());
                    let bytes = flexcast_wire::to_bytes(&pkt).expect("packets always encode");
                    let t1 = self.probe.as_ref().map(|_| Instant::now());
                    self.frames += 1;
                    self.frame_bytes += bytes.len() as u64 + FRAME_HEADER;
                    let len = bytes.len() as u64;
                    if let (Some(p), Some(t1)) = (self.probe.as_deref_mut(), t1) {
                        let at_ns = p.ns(t1);
                        p.fifo.sent(at, to.index(), at_ns);
                    }
                    self.nodes[at]
                        .net
                        .send(to, bytes)
                        .expect("peer is connected");
                    if let (Some(p), Some(t0), Some(t1)) = (self.probe.as_deref_mut(), t0, t1) {
                        let t2 = Instant::now();
                        let enc = t1.duration_since(t0).as_nanos() as u64;
                        let snd = t2.duration_since(t1).as_nanos() as u64;
                        p.encode.record(enc);
                        p.encode_bytes += len;
                        p.send.record(snd);
                        if let Some(parent) = parent {
                            let (s0, s1) = (p.ns(t0), p.ns(t1));
                            p.spans
                                .push(parent, "wire", "encode", at as u32, s0, enc, req);
                            p.spans.push(parent, "net", "send", at as u32, s1, snd, req);
                        }
                    }
                }
            }
        }
        self.outs = outs;
    }

    fn inject(&mut self, m: Message) {
        let lca = m.lca().index();
        let req = Some(m.id);
        let t0 = Instant::now();
        self.nodes[lca].engine.on_client(m, &mut self.outs);
        let mut parent = None;
        if let Some(p) = self.probe.as_deref_mut() {
            let dur = t0.elapsed().as_nanos() as u64;
            p.on_client.record(dur);
            let s0 = p.ns(t0);
            parent = p
                .spans
                .push(ROOT, "harness", "tcp3.inject", lca as u32, s0, dur, req);
            if let Some(ev) = parent {
                p.spans
                    .push(ev, "core", "on_client", lca as u32, s0, dur, req);
            }
        }
        self.dispatch(lca, parent);
    }

    /// Drains every runtime once, decoding each frame and feeding it to
    /// its engine; returns whether anything arrived.
    fn poll(&mut self) -> bool {
        let mut got = false;
        for at in 0..N {
            for (from, bytes) in self.nodes[at].net.drain() {
                got = true;
                let t0 = Instant::now();
                let pkt: Packet = flexcast_wire::from_bytes(&bytes).expect("peer sent a packet");
                let t1 = self.probe.as_ref().map(|_| Instant::now());
                let kind = crate::replay::kind_index(&pkt);
                let req = packet_request_id(&pkt);
                self.nodes[at].engine.on_packet(from, pkt, &mut self.outs);
                let mut parent = None;
                if let (Some(p), Some(t1)) = (self.probe.as_deref_mut(), t1) {
                    let t2 = Instant::now();
                    let dec = t1.duration_since(t0).as_nanos() as u64;
                    let eng = t2.duration_since(t1).as_nanos() as u64;
                    p.decode.record(dec);
                    p.decode_bytes += bytes.len() as u64;
                    p.on_packet[kind].record(eng);
                    let (s0, s1) = (p.ns(t0), p.ns(t1));
                    if let Some(transit) = p.fifo.received(from.index(), at, s0) {
                        p.transit.record(transit);
                    }
                    parent =
                        p.spans
                            .push(ROOT, "harness", "tcp3.frame", at as u32, s0, dec + eng, req);
                    if let Some(ev) = parent {
                        p.spans.push(ev, "wire", "decode", at as u32, s0, dec, req);
                        p.spans
                            .push(ev, "core", "on_packet", at as u32, s1, eng, req);
                    }
                }
                self.dispatch(at, parent);
            }
        }
        got
    }
}

/// Runs the workload `world` was set up with to completion (or to a
/// stall).
pub fn run(world: &mut Tcp3World, spec: &Tcp3Spec, probe: Option<&mut Tcp3Probe>) -> Tcp3Outcome {
    let mut script = std::mem::take(&mut world.script).into_iter();
    let mut d = Driver {
        nodes: &mut world.nodes,
        probe,
        ops: Vec::with_capacity(spec.multicasts as usize),
        flush_owed: 0,
        completed: 0,
        latencies_ms: Vec::with_capacity(spec.multicasts as usize),
        frames: 0,
        frame_bytes: 0,
        outs: Vec::new(),
    };
    let mut injected = 0u32;
    let mut flushes = 0u32;
    let mut idle_since: Option<Instant> = None;
    let mut stalled = false;
    loop {
        while (injected as u64 - d.completed) < spec.window as u64 {
            let Some(m) = script.next() else { break };
            d.ops.push((Instant::now(), m.dst.len() as u8));
            injected += 1;
            d.inject(m);
            if injected.is_multiple_of(spec.flush_every) {
                d.flush_owed += N as u32;
                d.inject(flush(flushes));
                flushes += 1;
            }
        }
        let got = d.poll();
        if d.completed == spec.multicasts as u64 && d.flush_owed == 0 {
            break;
        }
        if got {
            idle_since = None;
        } else if idle_since.get_or_insert_with(Instant::now).elapsed() > STALL {
            stalled = true;
            break;
        } else {
            std::thread::yield_now();
        }
    }

    let (completed, latencies_ms, frames, frame_bytes) =
        (d.completed, d.latencies_ms, d.frames, d.frame_bytes);
    let trace: Vec<Vec<DeliveryEvent>> = world
        .nodes
        .iter()
        .enumerate()
        .map(|(g, n)| {
            n.delivered
                .iter()
                .map(|&id| DeliveryEvent {
                    node: GroupId(g as u16),
                    id,
                    at: SimTime::ZERO,
                })
                .collect()
        })
        .collect();
    let report = checker::check(&world.registry, &trace);
    let mut out = Tcp3Outcome {
        attempted: injected as u64,
        completed,
        latencies_ms,
        frames,
        frame_bytes,
        entries_in: 0,
        entries_dup: 0,
        history_verts_end: 0,
        backlog_end: 0,
        verdict: Ok(()),
    };
    for n in &world.nodes {
        let m = n.engine.merge_stats();
        out.entries_in += m.entries_in();
        out.entries_dup += m.entries_dup();
        out.history_verts_end += n.engine.history().len() as u64;
        out.backlog_end += n.engine.backlog() as u64;
    }
    out.verdict = if stalled {
        Err(format!(
            "no frame for {STALL:?} with {} of {} multicasts complete",
            completed, spec.multicasts
        ))
    } else if !report.all_ok() {
        Err(format!(
            "checker: validity={} integrity={} prefix={} acyclic={}",
            report.validity_violations.len(),
            report.integrity_violations.len(),
            report.prefix_violations.len(),
            report.acyclic
        ))
    } else if out.backlog_end != 0 {
        Err(format!("{} messages still queued", out.backlog_end))
    } else {
        Ok(())
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_fifo_matches_per_directed_link() {
        let mut f = LinkFifo::default();
        f.sent(0, 1, 100);
        f.sent(0, 2, 110);
        f.sent(0, 1, 120);
        f.sent(1, 2, 130);
        assert_eq!(f.outstanding(), 4);
        // Links are independent: 0→2 arriving first does not consume 0→1.
        assert_eq!(f.received(0, 2, 500), Some(390));
        assert_eq!(f.received(0, 1, 150), Some(50), "first in, first out");
        assert_eq!(f.received(0, 1, 160), Some(40));
        assert_eq!(f.received(0, 1, 170), None, "nothing outstanding");
        assert_eq!(f.received(2, 1, 170), None, "never-used link");
        // A clock read before the enqueue stamp saturates to zero.
        assert_eq!(f.received(1, 2, 5), Some(0));
        assert_eq!(f.outstanding(), 0);
    }

    #[test]
    fn xorshift_is_seeded_and_spreads() {
        let a: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = XorShift::new(7);
            (0..8).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        let mut r = XorShift::new(0);
        let mut seen = [0u32; 4];
        for _ in 0..4_000 {
            seen[(r.next() % 4) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800), "roughly uniform: {seen:?}");
    }

    #[test]
    fn small_run_completes_traced_and_untraced() {
        let spec = Tcp3Spec {
            multicasts: 600,
            window: 16,
            payload: 64,
            flush_every: 128,
        };
        let mut w = setup(&spec, 3).expect("loopback sockets");
        let plain = run(&mut w, &spec, None);
        plain.verdict.as_ref().expect("clean run");
        assert_eq!(plain.completed, 600);
        assert_eq!(plain.latencies_ms.len(), 600);
        assert!(plain.frames > 600 && plain.frame_bytes > plain.frames * 64);
        drop(w);

        let mut w = setup(&spec, 3).expect("loopback sockets");
        let epoch = Instant::now();
        let mut probe = Tcp3Probe::new(epoch, 1_000);
        let traced = run(&mut w, &spec, Some(&mut probe));
        traced.verdict.as_ref().expect("clean run");
        assert_eq!(traced.completed, 600);
        assert_eq!(probe.encode.count(), traced.frames);
        assert_eq!(probe.send.count(), traced.frames);
        assert_eq!(
            probe.encode_bytes + traced.frames * FRAME_HEADER,
            traced.frame_bytes
        );
        assert!(probe.transit.count() > 0 && probe.decode.count() > 0);
        assert_eq!(probe.on_client.count(), 600 + 600 / 128);
        assert!(probe.spans.spans().len() > 100);
    }
}
