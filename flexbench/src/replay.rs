//! Off-line replay of a sampled server's inbound log: where the per-layer
//! numbers for `flexcast-core` and `flexcast-wire` come from.
//!
//! The traced pass records, for a few servers, every `(from, NetMsg)` the
//! simulator delivered to them. A FlexCast engine is a deterministic
//! function of that sequence, so feeding it to a fresh `FlexCastGroup` —
//! with the same stride and the same node→rank mapping `ServerActor`
//! applies — re-executes exactly the protocol work the live server did,
//! this time with a stopwatch around each public call and nothing else on
//! the path. The replayed engine must end with the live engine's
//! `delivered_count()`; the caller asserts it.
//!
//! The same log then feeds three more stopwatches: a fresh `History`
//! merging every captured delta, `NetMsg::wire_size` on every message in
//! and out, and the real codec (`to_bytes` / `from_bytes`) on every
//! inbound message.

use crate::simworld::SimSpec;
use crate::spans::SpanLog;
use crate::stats::Hist;
use crate::traced::{packet_request_id, request_id, EventSpan};
use flexcast_core::{FlexCastGroup, History, Output, Packet};
use flexcast_harness::NetMsg;
use flexcast_sim::ProcessId;
use flexcast_types::{GroupId, Message};
use std::hint::black_box;
use std::time::Instant;

/// `Packet::kind()` values in report order.
pub const PACKET_KINDS: [&str; 4] = ["msg", "ack", "notif", "advert"];

/// Index of `pkt`'s kind in [`PACKET_KINDS`].
pub fn kind_index(pkt: &Packet) -> usize {
    PACKET_KINDS
        .iter()
        .position(|k| *k == pkt.kind())
        .expect("Packet::kind() returned a kind this benchmark does not know")
}

fn kind_span_name(i: usize) -> &'static str {
    [
        "on_packet.msg",
        "on_packet.ack",
        "on_packet.notif",
        "on_packet.advert",
    ][i]
}

/// Stopwatch totals of one or more replays.
#[derive(Clone, Debug, Default)]
pub struct ReplayTotals {
    /// `FlexCastGroup::on_client` call durations.
    pub on_client: Hist,
    /// `FlexCastGroup::on_packet` call durations by [`PACKET_KINDS`].
    pub on_packet: [Hist; 4],
    /// `NetMsg::wire_size` call durations, inbound and outbound.
    pub wire_size: Hist,
    /// Nanoseconds in `flexcast_wire::to_bytes` over inbound messages.
    pub encode_ns: u64,
    /// Nanoseconds in `flexcast_wire::from_bytes` over the same.
    pub decode_ns: u64,
    /// Bytes those messages encode to.
    pub codec_bytes: u64,
    /// Messages encoded.
    pub codec_msgs: u64,
    /// Nanoseconds in `History::merge` over captured deltas.
    pub merge_ns: u64,
    /// Delta entries merged.
    pub merge_entries: u64,
    /// Inbound messages replayed (= live callbacks covered).
    pub events: u64,
}

impl ReplayTotals {
    /// Folds another replay's totals in.
    pub fn merge(&mut self, o: &ReplayTotals) {
        self.on_client.merge(&o.on_client);
        for (a, b) in self.on_packet.iter_mut().zip(&o.on_packet) {
            a.merge(b);
        }
        self.wire_size.merge(&o.wire_size);
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.codec_bytes += o.codec_bytes;
        self.codec_msgs += o.codec_msgs;
        self.merge_ns += o.merge_ns;
        self.merge_entries += o.merge_entries;
        self.events += o.events;
    }
}

/// Replays `log` — the inbound sequence of the server at `pid` in the
/// world `spec` describes — and returns the stopwatch totals plus the
/// replayed engine's delivery count.
///
/// `events` are the live callback spans of that server (those with a
/// `capture_idx`); when `spans` is given, each replayed call is recorded
/// as a layer span under its live event, placed at the event's start.
pub fn replay_server(
    spec: &SimSpec,
    pid: ProcessId,
    log: &[(ProcessId, NetMsg)],
    events: &[EventSpan],
    mut spans: Option<(&mut SpanLog, &[Option<u64>])>,
) -> (ReplayTotals, u64) {
    let order = &spec.order;
    let node = GroupId(pid as u16);
    let mut engine = FlexCastGroup::new(order.rank_of(node), spec.n_servers() as u16);
    if let Some(stride) = spec.advert_stride {
        engine.set_advert_stride(stride);
    }
    let mut history = History::new();
    let mut t = ReplayTotals::default();
    let mut outs: Vec<Output> = Vec::new();
    // Where each captured message's live callback started, for placing
    // the replayed layer spans on the live timeline.
    let mut start_of: Vec<u64> = vec![0; log.len()];
    for e in events {
        if let Some(i) = e.capture_idx {
            start_of[i as usize] = e.start_ns;
        }
    }

    for (idx, (from, msg)) in log.iter().enumerate() {
        t.events += 1;
        let parent = spans
            .as_ref()
            .and_then(|(_, ids)| ids.get(idx).copied().flatten());
        let req = request_id(msg);
        let mut cursor = start_of[idx];
        let mut layer_span = |layer, name, dur: u64| {
            if let (Some((log, _)), Some(parent)) = (spans.as_mut(), parent) {
                log.push(parent, layer, name, pid as u32, cursor, dur, req);
            }
            cursor += dur;
        };

        // Receive-side sizing, as `ServerActor::on_message` does first.
        let t0 = Instant::now();
        black_box(black_box(msg).wire_size());
        let dur = t0.elapsed().as_nanos() as u64;
        t.wire_size.record(dur);
        layer_span("wire", "size.in", dur);

        // The codec on the same message (the simulator never runs it).
        let t0 = Instant::now();
        let bytes = flexcast_wire::to_bytes(black_box(msg)).expect("net messages always encode");
        t.encode_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let back: NetMsg = flexcast_wire::from_bytes(black_box(&bytes)).expect("round trip");
        t.decode_ns += t0.elapsed().as_nanos() as u64;
        black_box(back);
        t.codec_bytes += bytes.len() as u64;
        t.codec_msgs += 1;

        // The engine call itself.
        match msg.clone() {
            NetMsg::Client { msg: m, .. } => {
                let ranked = Message::new(m.id, order.to_ranks(m.dst), m.payload)
                    .expect("non-empty destinations");
                let t0 = Instant::now();
                engine.on_client(ranked, &mut outs);
                let dur = t0.elapsed().as_nanos() as u64;
                t.on_client.record(dur);
                layer_span("core", "on_client", dur);
            }
            NetMsg::Flex(pkt) => {
                if let Some(delta) = pkt.hist() {
                    let t0 = Instant::now();
                    history.merge(black_box(delta));
                    t.merge_ns += t0.elapsed().as_nanos() as u64;
                    t.merge_entries += delta.len() as u64;
                }
                let k = kind_index(&pkt);
                let from_rank = order.rank_of(GroupId(*from as u16));
                let t0 = Instant::now();
                engine.on_packet(from_rank, pkt, &mut outs);
                let dur = t0.elapsed().as_nanos() as u64;
                t.on_packet[k].record(dur);
                layer_span("core", kind_span_name(k), dur);
            }
            other => panic!("a plain-world server was sent {other:?}"),
        }

        // Send-side sizing: one `wire_size` per output, as
        // `send_counted` charges it (a delivery sends a `Reply`).
        for o in outs.drain(..) {
            let (out_msg, out_req) = match o {
                Output::Deliver(m) => (NetMsg::Reply { id: m.id }, Some(m.id)),
                Output::Send { pkt, .. } => {
                    let r = packet_request_id(&pkt);
                    (NetMsg::Flex(pkt), r)
                }
            };
            let t0 = Instant::now();
            black_box(black_box(&out_msg).wire_size());
            let dur = t0.elapsed().as_nanos() as u64;
            t.wire_size.record(dur);
            if let (Some((log, _)), Some(parent)) = (spans.as_mut(), parent) {
                log.push(parent, "wire", "size.out", pid as u32, cursor, dur, out_req);
            }
            cursor += dur;
        }
    }
    (t, engine.delivered_count())
}

/// The servers whose inbound traffic is captured: lowest, median and
/// highest *rank* — the head of the C-DAG sees client traffic and sends
/// the most, the tail receives the longest deltas. Returned as pids
/// (pid = node index), deduplicated for tiny worlds.
pub fn sampled_servers(spec: &SimSpec) -> Vec<ProcessId> {
    let n = spec.n_servers();
    let mut pids: Vec<ProcessId> = [0, n / 2, n - 1]
        .iter()
        .map(|&rank| spec.order.node_at(GroupId(rank as u16)).index())
        .collect();
    pids.sort_unstable();
    pids.dedup();
    pids
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::{CDagOrder, LatencyMatrix};
    use flexcast_sim::SimTime;
    use flexcast_types::{ClientId, DestSet, MsgId, Payload};

    fn three_groups() -> SimSpec {
        let mut m = LatencyMatrix::zero(3);
        for a in 0..3 {
            m.set_local(a, 0.5);
            for b in (a + 1)..3 {
                m.set_rtt(a, b, 10.0);
            }
        }
        SimSpec {
            matrix: m,
            order: CDagOrder::identity(3),
            advert_stride: None,
            n_clients: 1,
            issue: SimTime::from_secs(1),
            processing_ms: 0.0,
            shards: 1,
            exec: flexcast_sim::ShardExecution::Inline,
        }
    }

    fn msg(seq: u32, ranks: &[u16]) -> Message {
        Message::new(
            MsgId::new(ClientId(1), seq),
            DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
            Payload(vec![seq as u8; 16].into()),
        )
        .unwrap()
    }

    /// Figure 3(a) run live with inbound capture at every group, then
    /// replayed: each replayed engine delivers exactly what the live one
    /// did, and in the same order at C (m1 before m3).
    #[test]
    fn replay_reproduces_fig3a() {
        let spec = three_groups();
        let mut live: Vec<FlexCastGroup> =
            (0..3).map(|g| FlexCastGroup::new(GroupId(g), 3)).collect();
        let mut logs: Vec<Vec<(ProcessId, NetMsg)>> = vec![Vec::new(); 3];
        let mut delivered: Vec<Vec<MsgId>> = vec![Vec::new(); 3];
        // (to, from, message) work list, processed FIFO.
        let mut inflight: std::collections::VecDeque<(usize, usize, NetMsg)> = [
            (0, 9, msg(1, &[0, 2])),
            (0, 9, msg(2, &[0, 1])),
            (1, 9, msg(3, &[1, 2])),
        ]
        .into_iter()
        .map(|(to, from, m)| {
            (
                to,
                from,
                NetMsg::Client {
                    msg: m,
                    reply_to: 9,
                },
            )
        })
        .collect();
        while let Some((to, from, m)) = inflight.pop_front() {
            logs[to].push((from, m.clone()));
            let mut out = Vec::new();
            match m {
                NetMsg::Client { msg, .. } => live[to].on_client(msg, &mut out),
                NetMsg::Flex(pkt) => live[to].on_packet(GroupId(from as u16), pkt, &mut out),
                _ => unreachable!(),
            }
            for o in out {
                match o {
                    Output::Deliver(m) => delivered[to].push(m.id),
                    Output::Send { to: dst, pkt } => {
                        inflight.push_back((dst.index(), to, NetMsg::Flex(pkt)))
                    }
                }
            }
        }
        assert_eq!(delivered[2], vec![msg(1, &[0, 2]).id, msg(3, &[1, 2]).id]);

        let mut total = ReplayTotals::default();
        for pid in 0..3 {
            let (t, n) = replay_server(&spec, pid, &logs[pid], &[], None);
            assert_eq!(n, live[pid].delivered_count(), "group {pid}");
            assert_eq!(n as usize, delivered[pid].len());
            assert_eq!(t.events as usize, logs[pid].len());
            total.merge(&t);
        }
        assert_eq!(total.on_client.count(), 3);
        assert!(total.on_packet[0].count() >= 3, "msg packets replayed");
        assert!(total.wire_size.count() > total.events, "in and out sized");
        assert_eq!(total.codec_msgs, total.events);
        assert!(total.codec_bytes > 0 && total.on_client.sum_ns() > 0);
    }

    #[test]
    fn replay_spans_hang_under_their_event() {
        let spec = three_groups();
        let log = vec![(
            9,
            NetMsg::Client {
                msg: msg(1, &[0, 2]),
                reply_to: 9,
            },
        )];
        let events = [EventSpan {
            slot: crate::traced::Slot::Server,
            start_ns: 5_000,
            dur_ns: 900,
            req: Some(msg(1, &[0, 2]).id),
            capture_idx: Some(0),
        }];
        let mut spans = SpanLog::new(64);
        spans.root("t", 10_000);
        let ev = spans
            .push(
                crate::spans::ROOT,
                "harness",
                "server.on_message",
                0,
                5_000,
                900,
                events[0].req,
            )
            .unwrap();
        replay_server(&spec, 0, &log, &events, Some((&mut spans, &[Some(ev)][..])));
        let kids: Vec<_> = spans.spans().iter().filter(|s| s.parent == ev).collect();
        // size.in, on_client, then size.out for the forward and the reply.
        assert_eq!(kids[0].name, "size.in");
        assert_eq!(kids[1].name, "on_client");
        assert!(kids.len() >= 4 && kids[2..].iter().all(|s| s.name == "size.out"));
        assert_eq!(kids[0].start_ns, 5_000);
        assert!(kids
            .windows(2)
            .all(|w| w[1].start_ns == w[0].start_ns + w[0].dur_ns));
        assert!(kids.iter().all(|s| s.req == events[0].req));
    }

    #[test]
    fn sampled_servers_follow_ranks() {
        let spec = three_groups();
        assert_eq!(sampled_servers(&spec), vec![0, 1, 2]);
        let big = SimSpec::scale(16, 4, SimTime::from_ms(10.0), 8);
        let s = sampled_servers(&big);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&big.order.node_at(GroupId(0)).index()));
        assert!(s.contains(&big.order.node_at(GroupId(15)).index()));
    }
}
