//! Same-run calibration cells: small fixed pieces of work, one per layer
//! that the workloads only reach through other layers. They run in every
//! traced pass, whatever the workload, so a wall-clock number from one box
//! can be read against that box's own cost of an empty simulator event, a
//! Paxos commit, a frame through the framing code, and so on.

use flexcast_gtpcc::{Generator, WorkloadConfig};
use flexcast_net::{read_frame, write_frame};
use flexcast_overlay::{regions, CDagOrder, LatencyMatrix};
use flexcast_sim::{Actor, Ctx, LinkModel, ProcessId, World};
use flexcast_smr::{BallotLeaderElection, BleOutput, Replica, SmrOutput};
use flexcast_types::GroupId;
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

/// Forwards a hop counter around a ring until it reaches zero: the actor
/// body is a handful of instructions, so the cost measured is the
/// simulator's own queue push/pop, link lookup and delay sampling.
struct Relay {
    next: ProcessId,
    seeds: u32,
    hops: u32,
}

impl Actor<u32> for Relay {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        for _ in 0..self.seeds {
            ctx.send(self.next, self.hops);
        }
    }

    fn on_message(&mut self, _from: ProcessId, msg: u32, ctx: &mut Ctx<'_, u32>) {
        if msg > 0 {
            ctx.send(self.next, msg - 1);
        }
    }
}

/// The `events_sweep` 12-node relay ring (`seeds` messages per node, each
/// relayed `hops` times, 1 ms jitter so the FIFO clamp and the RNG are on
/// the path). Returns nanoseconds of wall time per simulator event.
pub fn relay_ns_per_event(seeds: u32, hops: u32) -> f64 {
    let n = 12usize;
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            m.set_rtt(a, b, 2.0 + ((a + b) % 5) as f64);
        }
    }
    let actors: Vec<Relay> = (0..n)
        .map(|i| Relay {
            next: (i + 1) % n,
            seeds,
            hops,
        })
        .collect();
    let sites: Vec<GroupId> = (0..n as u16).map(GroupId).collect();
    let mut world = World::new(actors, LinkModel::new(m, sites, 1.0), 42);
    let t0 = Instant::now();
    let events = world.run_to_quiescence(u64::MAX);
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// What the Paxos cell measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SmrCell {
    /// Wall microseconds per command, propose → applied at all three.
    pub commit_us: f64,
    /// Paxos messages exchanged per committed command.
    pub msgs_per_commit: f64,
}

/// Three in-memory `Replica<u64>`s, replica 0 elected once, then
/// `commands` proposals each driven to `take_committed` on every replica
/// before the next starts (no pipelining: this is the per-commit cost,
/// not the throughput). Logs are compacted as they go so memory stays
/// flat.
pub fn smr_commit(commands: u64) -> SmrCell {
    let n = 3u32;
    let mut replicas: Vec<Replica<u64>> = (0..n).map(|i| Replica::new(i, n)).collect();
    let mut msgs = 0u64;
    // Delivers `out` (produced by replica `from`) and everything it
    // triggers until no message is in flight.
    fn settle(replicas: &mut [Replica<u64>], from: u32, out: Vec<SmrOutput<u64>>, msgs: &mut u64) {
        let mut inflight: Vec<(u32, u32, _)> = Vec::new();
        let push = |from: u32, out: Vec<SmrOutput<u64>>, q: &mut Vec<_>| {
            for o in out {
                if let SmrOutput::Send { to, msg } = o {
                    q.push((from, to, msg));
                }
            }
        };
        push(from, out, &mut inflight);
        while !inflight.is_empty() {
            for (from, to, msg) in std::mem::take(&mut inflight) {
                *msgs += 1;
                let mut out = Vec::new();
                replicas[to as usize].on_message(from, msg, &mut out);
                push(to, out, &mut inflight);
            }
        }
    }
    let mut out = Vec::new();
    replicas[0].start_election(&mut out);
    settle(&mut replicas, 0, out, &mut msgs);
    assert!(
        replicas[0].is_leader(),
        "replica 0 wins an uncontested election"
    );

    msgs = 0;
    let mut applied = 0u64;
    let t0 = Instant::now();
    for cmd in 0..commands {
        let mut out = Vec::new();
        replicas[0].propose(black_box(cmd), &mut out);
        settle(&mut replicas, 0, out, &mut msgs);
        for r in replicas.iter_mut() {
            applied += r.take_committed().len() as u64;
        }
        if cmd % 1024 == 1023 {
            for r in replicas.iter_mut() {
                r.compact_to(cmd.saturating_sub(64));
            }
        }
    }
    let wall = t0.elapsed();
    assert_eq!(
        applied,
        commands * n as u64,
        "every replica applied every command"
    );
    SmrCell {
        commit_us: wall.as_nanos() as f64 / 1e3 / commands as f64,
        msgs_per_commit: msgs as f64 / commands as f64,
    }
}

/// Three connected `BallotLeaderElection` instances ticked `ticks` times
/// each, heartbeats delivered at once. Nanoseconds per tick (including
/// the heartbeat handling that tick causes).
pub fn ble_tick_ns(ticks: u64) -> f64 {
    let n = 3u32;
    let mut nodes: Vec<BallotLeaderElection> = (0..n)
        .map(|i| BallotLeaderElection::new(i, n, 4, 2))
        .collect();
    let mut leaders = 0u64;
    let t0 = Instant::now();
    for _ in 0..ticks {
        for i in 0..n {
            let mut out = Vec::new();
            nodes[i as usize].on_tick(&mut out);
            let mut inflight: Vec<(u32, BleOutput)> = out.into_iter().map(|o| (i, o)).collect();
            while !inflight.is_empty() {
                for (from, o) in std::mem::take(&mut inflight) {
                    match o {
                        BleOutput::Send { to, msg } => {
                            let mut out = Vec::new();
                            nodes[to as usize].on_message(from, msg, &mut out);
                            inflight.extend(out.into_iter().map(|o| (to, o)));
                        }
                        BleOutput::Leader(_) => leaders += 1,
                    }
                }
            }
        }
    }
    let wall = t0.elapsed();
    assert!(leaders > 0, "a connected trio elects a leader");
    wall.as_nanos() as f64 / (ticks * n as u64) as f64
}

/// `write_frame` + `read_frame` of a `body_len`-byte frame over an
/// in-memory cursor, nanoseconds per frame: the framing code's own cost
/// with the socket taken away.
pub fn frame_codec_ns(frames: u64, body_len: usize) -> f64 {
    let body = vec![0xA5u8; body_len];
    let mut buf: Vec<u8> = Vec::with_capacity(body_len + 8);
    let mut total = 0usize;
    let t0 = Instant::now();
    for _ in 0..frames {
        buf.clear();
        write_frame(&mut buf, black_box(&body)).expect("in-memory write");
        let mut cur = Cursor::new(&buf[..]);
        let back = read_frame(&mut cur)
            .expect("in-memory read")
            .expect("one frame");
        total += black_box(back).len();
    }
    let wall = t0.elapsed();
    assert_eq!(total, frames as usize * body_len);
    wall.as_nanos() as f64 / frames as f64
}

/// `Generator::next_txn` on the AWS matrix at `locality`, full gTPC-C
/// mix; nanoseconds per transaction (payload serialisation included — it
/// is what `ClientActor::issue` pays).
pub fn gtpcc_next_txn_ns(txns: u64, locality: f64, seed: u64) -> f64 {
    let matrix = regions::aws12();
    let mut generator = Generator::new(WorkloadConfig::full(locality), &matrix, seed);
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for i in 0..txns {
        let txn = generator.next_txn(GroupId((i % 12) as u16));
        bytes += black_box(txn.payload()).len();
    }
    let wall = t0.elapsed();
    assert!(bytes > 0);
    wall.as_nanos() as f64 / txns as f64
}

/// Building a nearest-neighbour C-DAG order over `matrix`, milliseconds.
pub fn order_build_ms(matrix: &LatencyMatrix) -> f64 {
    let t0 = Instant::now();
    let order = CDagOrder::nearest_neighbor_chain(black_box(matrix), GroupId(0));
    let ms = t0.elapsed().as_nanos() as f64 / 1e6;
    assert_eq!(black_box(order).len(), matrix.len());
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_run_and_report_sane_numbers() {
        assert!(relay_ns_per_event(4, 50) > 0.0);
        let smr = smr_commit(2_000);
        assert!(smr.commit_us > 0.0);
        // Accept to two peers, two Accepted back, Learn to two peers.
        assert_eq!(smr.msgs_per_commit, 6.0);
        assert!(ble_tick_ns(64) > 0.0);
        assert!(frame_codec_ns(100, 87) > 0.0);
        assert!(gtpcc_next_txn_ns(100, 0.95, 1) > 0.0);
        assert!(order_build_ms(&regions::aws12()) > 0.0);
    }
}
