//! The three unreplicated simulated worlds: `wan12`, `wan12_sh2`,
//! `scale128`.
//!
//! The world is assembled here from the harness's public actor
//! constructors rather than through `experiment::run_world_on`, for two
//! reasons: set-up and run can be timed apart, and the traced pass can
//! slip [`crate::traced::Traced`] around every actor. A unit test pins
//! this assembly to `run_world_on` so "the benchmark's world is the
//! harness's world" stays true.

use flexcast_gtpcc::{Generator, WorkloadConfig, WorkloadMode};
use flexcast_harness::actors::{ClientActor, EntryPolicy, FlushActor, Node, ServerActor};
use flexcast_harness::{checker, DeliveryEvent, NetMsg};
use flexcast_overlay::{presets, regions, CDagOrder, LatencyMatrix};
use flexcast_sim::{
    Actor, LinkModel, ProcessId, ShardExecution, SimStats, SimTime, Summary, World,
};
use flexcast_types::{ClientId, DestSet, GroupId, MsgId};
use std::collections::BTreeMap;

/// gTPC-C locality of every simulated workload (§5.5's middle setting).
pub const LOCALITY: f64 = 0.95;
/// Uniform link jitter bound, milliseconds.
pub const JITTER_MS: f64 = 2.0;
/// GC flush period, milliseconds.
pub const FLUSH_MS: f64 = 250.0;
/// Serial per-message service time at a server, milliseconds.
pub const SERVICE_MS: f64 = 0.05;
/// Livelock guard for `run_to_quiescence`; never reached by a correct run.
pub const MAX_EVENTS: u64 = 2_000_000_000;

/// Everything that defines one simulated world except the seed.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Inter-site latency matrix (one site per group).
    pub matrix: LatencyMatrix,
    /// C-DAG rank order.
    pub order: CDagOrder,
    /// Delta suppression stride; `None` is the plain protocol.
    pub advert_stride: Option<u32>,
    /// Closed-loop clients, homed round-robin over the sites.
    pub n_clients: usize,
    /// Clients stop issuing at this simulated time; the run then drains.
    pub issue: SimTime,
    /// Fixed per-message processing delay at servers, milliseconds.
    pub processing_ms: f64,
    /// Simulator shard count, always set explicitly.
    pub shards: usize,
    /// How a multi-shard world runs its shards, always set explicitly
    /// (`Auto` would let the host's core count pick the code path).
    pub exec: ShardExecution,
}

/// The `events_sweep` synthetic WAN ring: adjacent sites ~15 ms apart,
/// antipodal ~290 ms, with a small per-pair perturbation so no two links
/// tie. Same formula as `crates/bench/src/bin/events_sweep.rs`, so the
/// 128-group cell here is the ROADMAP's headline cell.
pub fn synthetic_matrix(n: usize) -> LatencyMatrix {
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            let ring = (b - a).min(n - (b - a)) as f64;
            let rtt = 14.0 + 275.0 * ring / (n as f64 / 2.0) + ((a * 31 + b * 17) % 7) as f64;
            m.set_rtt(a, b, rtt);
        }
    }
    m
}

impl SimSpec {
    /// The paper's deployment: 12 AWS regions, overlay O1, plain
    /// protocol, 20 ms software-path delay.
    pub fn wan12(n_clients: usize, issue: SimTime, shards: usize, exec: ShardExecution) -> Self {
        SimSpec {
            matrix: regions::aws12(),
            order: presets::o1(),
            advert_stride: None,
            n_clients,
            issue,
            processing_ms: 20.0,
            shards,
            exec,
        }
    }

    /// `n` groups on the synthetic ring, nearest-neighbour order from
    /// group 0, suppression on, zero processing delay (the host hot path
    /// is what this world is for).
    pub fn scale(n: usize, n_clients: usize, issue: SimTime, stride: u32) -> Self {
        let matrix = synthetic_matrix(n);
        let order = CDagOrder::nearest_neighbor_chain(&matrix, GroupId(0));
        SimSpec {
            matrix,
            order,
            advert_stride: Some(stride),
            n_clients,
            issue,
            processing_ms: 0.0,
            shards: 1,
            exec: ShardExecution::Inline,
        }
    }

    /// The harness configuration describing the same world (for the
    /// parity test and the README's "what this pins" list).
    #[cfg(test)]
    pub fn to_config(&self, seed: u64) -> flexcast_harness::ExperimentConfig {
        use flexcast_harness::ProtocolKind;
        use flexcast_telemetry::Telemetry;
        flexcast_harness::ExperimentConfig {
            protocol: ProtocolKind::FlexCast(self.order.clone()),
            locality: LOCALITY,
            mode: WorkloadMode::Full,
            n_clients: self.n_clients,
            duration: self.issue,
            seed,
            jitter_ms: JITTER_MS,
            flush_period: Some(SimTime::from_ms(FLUSH_MS)),
            server_service_ms: SERVICE_MS,
            server_processing_ms: self.processing_ms,
            advert_stride: self.advert_stride,
            telemetry: Telemetry::disabled(),
            shards: self.shards,
        }
    }

    /// Number of server processes (pids `0..n_servers`).
    pub fn n_servers(&self) -> usize {
        self.matrix.len()
    }
}

/// Builds the world for `spec`, passing every actor through `wrap` on
/// its way in. Layout and seeding follow `experiment::run_world_on`
/// line for line: servers `0..n`, clients `n..`, flusher last.
pub fn build<A, F>(spec: &SimSpec, seed: u64, mut wrap: F) -> World<NetMsg, A>
where
    A: Actor<NetMsg>,
    F: FnMut(ProcessId, Node) -> A,
{
    let n_servers = spec.n_servers();
    let entry = EntryPolicy::Flex(spec.order.clone());
    let mut actors: Vec<A> = Vec::new();
    let mut sites: Vec<GroupId> = Vec::new();
    let mut push = |node: Node, site: GroupId, actors: &mut Vec<A>| {
        let pid = actors.len();
        actors.push(wrap(pid, node));
        sites.push(site);
    };
    for node in (0..n_servers as u16).map(GroupId) {
        let server = ServerActor::flexcast(node, n_servers, spec.order.clone(), spec.advert_stride);
        push(Node::Server(server), node, &mut actors);
    }
    let wl = WorkloadConfig {
        locality: LOCALITY,
        mode: WorkloadMode::Full,
        max_warehouses: 3,
    };
    for c in 0..spec.n_clients {
        let home = GroupId((c % n_servers) as u16);
        let generator = Generator::new(wl.clone(), &spec.matrix, seed.wrapping_add(c as u64));
        let client = ClientActor::new(
            ClientId(c as u32),
            home,
            n_servers,
            generator,
            entry.clone(),
            spec.issue,
        );
        push(Node::Client(client), home, &mut actors);
    }
    let flusher = FlushActor::new(
        ClientId(spec.n_clients as u32),
        n_servers,
        entry,
        SimTime::from_ms(FLUSH_MS),
        spec.issue,
    );
    push(Node::Flusher(flusher), GroupId(0), &mut actors);

    let mut link = LinkModel::new(spec.matrix.clone(), sites, JITTER_MS);
    for pid in 0..n_servers {
        link.set_service_ms(pid, SERVICE_MS);
        link.set_processing_ms(pid, spec.processing_ms);
    }
    let mut world = World::new(actors, link, seed);
    world.set_shards(spec.shards);
    world.set_shard_execution(spec.exec);
    world
}

/// Every column of a simulated run that must repeat exactly for a given
/// seed: across repetitions, across shard counts, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct SimColumns {
    /// Simulator events processed.
    pub events: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Deepest event queue.
    pub peak_queue_depth: u64,
    /// Transactions issued by clients.
    pub attempted: u64,
    /// Transactions acknowledged by every destination.
    pub completed: u64,
    /// Completion samples issued in the middle 80 % of the issue window.
    pub window_samples: u64,
    /// Those among them addressed to two or more groups.
    pub global_samples: u64,
    /// Median completion latency over that window, simulated ms.
    pub lat_p50_ms: f64,
    /// p99 over the same samples.
    pub lat_p99_ms: f64,
    /// p90 over the window's multi-group transactions.
    pub lat_global_p90_ms: f64,
    /// p99 over the same.
    pub lat_global_p99_ms: f64,
    /// Window completions per simulated second of window.
    pub sim_ops_per_s: f64,
    /// Σ `ServerStats::sent_bytes`.
    pub sent_bytes: u64,
    /// Σ `MergeStats` over the engines.
    pub verts_in: u64,
    /// See `verts_in`.
    pub verts_dup: u64,
    /// See `verts_in`.
    pub edges_in: u64,
    /// See `verts_in`.
    pub edges_dup: u64,
    /// Σ suppressed delta entries.
    pub suppressed: u64,
    /// Σ advertisement packets sent.
    pub adverts_sent: u64,
    /// Σ history vertices held at quiescence.
    pub history_verts_end: u64,
    /// Σ engine backlog at quiescence (must be 0).
    pub backlog_end: u64,
    /// Σ deliveries over the servers.
    pub delivered: u64,
}

impl SimColumns {
    /// Delta entries received by `History::merge`, all engines.
    pub fn entries_in(&self) -> u64 {
        self.verts_in + self.edges_in
    }

    /// Duplicates among them.
    pub fn entries_dup(&self) -> u64 {
        self.verts_dup + self.edges_dup
    }
}

/// What [`collect`] returns: the deterministic columns plus the pieces
/// that are not compared (per-shard attribution, checker verdict).
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The exactly-repeating columns.
    pub cols: SimColumns,
    /// Events committed per shard.
    pub events_by_shard: Vec<u64>,
    /// Live `delivered_count()` of each server's engine, by pid — the
    /// replay must reproduce these.
    pub delivered_by_server: Vec<u64>,
    /// Checker and backlog verdict; `Err` carries the reason.
    pub verdict: Result<(), String>,
}

/// `(count, p50, p90, p99)` of `samples` (zeros when empty), through the
/// simulator's own `Summary` so the numbers are the harness's numbers.
pub fn latency_summary(samples: Vec<f64>) -> (u64, f64, f64, f64) {
    let mut s = Summary::new();
    for v in samples {
        s.record(v);
    }
    s.sort();
    let p = |q| s.percentile(q).unwrap_or(0.0);
    (s.len() as u64, p(50.0), p(90.0), p(99.0))
}

/// Reads a quiesced world back: deterministic columns, per-server
/// delivery counts, and the property checker's verdict.
pub fn collect<A, F>(spec: &SimSpec, world: &World<NetMsg, A>, node_of: F) -> SimOutcome
where
    A: Actor<NetMsg>,
    F: Fn(&A) -> &Node,
{
    let n_servers = spec.n_servers();
    let stats: SimStats = world.stats();
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    let mut trace: Vec<Vec<DeliveryEvent>> = vec![Vec::new(); n_servers];
    // Servers are pids `0..n_servers`, so pushing in pid order indexes by pid.
    let mut delivered_by_server = Vec::with_capacity(n_servers);
    // Completion latencies of transactions issued in the middle 80 % of
    // the issue window, as `ExperimentResult::completion` trims them; and
    // the multi-group ones among them.
    let mut window: Vec<f64> = Vec::new();
    let mut global: Vec<f64> = Vec::new();
    let lo = SimTime::from_ms(spec.issue.as_ms() * 0.10);
    let hi = SimTime::from_ms(spec.issue.as_ms() * 0.90);
    let mut c = SimColumns {
        events: stats.events,
        msgs_sent: stats.sent_messages,
        peak_queue_depth: stats.peak_queue_depth as u64,
        attempted: 0,
        completed: 0,
        window_samples: 0,
        global_samples: 0,
        lat_p50_ms: 0.0,
        lat_p99_ms: 0.0,
        lat_global_p90_ms: 0.0,
        lat_global_p99_ms: 0.0,
        sim_ops_per_s: 0.0,
        sent_bytes: 0,
        verts_in: 0,
        verts_dup: 0,
        edges_in: 0,
        edges_dup: 0,
        suppressed: 0,
        adverts_sent: 0,
        history_verts_end: 0,
        backlog_end: 0,
        delivered: 0,
    };
    for pid in 0..world.len() {
        match node_of(world.actor(pid)) {
            Node::Server(s) => {
                c.sent_bytes += s.stats.sent_bytes;
                c.delivered += s.stats.delivered;
                trace[s.node().index()] = s.deliveries.clone();
                let engine = s.flex_engine().expect("every server runs FlexCast");
                delivered_by_server.push(engine.delivered_count());
                let m = engine.merge_stats();
                c.verts_in += m.verts_in;
                c.verts_dup += m.verts_dup;
                c.edges_in += m.edges_in;
                c.edges_dup += m.edges_dup;
                let sup = engine.suppression_stats();
                c.suppressed += sup.suppressed_entries();
                c.adverts_sent += sup.adverts_sent;
                c.history_verts_end += engine.history().len() as u64;
                c.backlog_end += engine.backlog() as u64;
            }
            Node::Client(cl) => {
                c.attempted += cl.issued.len() as u64;
                c.completed += cl.completed;
                registry.extend(cl.issued.iter().copied());
                for s in &cl.samples {
                    if s.rank == s.dst_count && s.sent_at >= lo && s.sent_at <= hi {
                        window.push(s.latency_ms);
                        if s.dst_count >= 2 {
                            global.push(s.latency_ms);
                        }
                    }
                }
            }
            Node::Flusher(f) => registry.extend(f.issued.iter().copied()),
        }
    }
    (c.window_samples, c.lat_p50_ms, _, c.lat_p99_ms) = latency_summary(window);
    (
        c.global_samples,
        _,
        c.lat_global_p90_ms,
        c.lat_global_p99_ms,
    ) = latency_summary(global);
    c.sim_ops_per_s = c.window_samples as f64 / (hi.as_secs() - lo.as_secs());

    let report = checker::check(&registry, &trace);
    let verdict = if !report.all_ok() {
        Err(format!(
            "checker: validity={} integrity={} prefix={} acyclic={}",
            report.validity_violations.len(),
            report.integrity_violations.len(),
            report.prefix_violations.len(),
            report.acyclic
        ))
    } else if c.backlog_end != 0 {
        Err(format!(
            "{} messages still queued at quiescence",
            c.backlog_end
        ))
    } else {
        Ok(())
    };
    SimOutcome {
        cols: c,
        events_by_shard: stats.events_by_shard,
        delivered_by_server,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_harness::experiment::{run_on, run_world_on};

    /// The benchmark's own assembly and the harness's `run_world_on`
    /// must be the same world: same event count, same completions, same
    /// merge counters, same completion percentiles.
    #[test]
    fn benchmark_world_is_the_harness_world() {
        for spec in [
            SimSpec::wan12(24, SimTime::from_ms(600.0), 1, ShardExecution::Inline),
            SimSpec::scale(16, 32, SimTime::from_ms(300.0), 64),
        ] {
            let seed = 5;
            let mut mine = build(&spec, seed, |_, node| node);
            mine.run_to_quiescence(MAX_EVENTS);
            let got = collect(&spec, &mine, |n| n);
            got.verdict.as_ref().expect("clean run");

            let cfg = spec.to_config(seed);
            let theirs = run_world_on(&cfg, &spec.matrix);
            assert_eq!(got.cols.events, theirs.stats().events);
            assert_eq!(got.cols.msgs_sent, theirs.stats().sent_messages);
            let mut merge = (0, 0, 0, 0);
            for pid in 0..theirs.len() {
                if let Node::Server(s) = theirs.actor(pid) {
                    let m = s.flex_engine().unwrap().merge_stats();
                    merge.0 += m.verts_in;
                    merge.1 += m.verts_dup;
                    merge.2 += m.edges_in;
                    merge.3 += m.edges_dup;
                }
            }
            let c = &got.cols;
            assert_eq!((c.verts_in, c.verts_dup, c.edges_in, c.edges_dup), merge);

            let r = run_on(&cfg, &spec.matrix);
            r.check.assert_ok();
            assert_eq!(c.completed, r.completed);
            assert_eq!(c.window_samples as usize, r.completion.len());
            let p = r.completion_percentiles().expect("samples");
            assert_eq!((c.lat_p50_ms, c.lat_p99_ms), (p.p50, p.p99));
            assert!(c.global_samples > 0 && c.global_samples < c.window_samples);
            assert!(c.lat_global_p90_ms <= c.lat_global_p99_ms);
        }
    }

    #[test]
    fn two_shards_replay_the_sequential_columns() {
        let wan = |shards, exec| SimSpec::wan12(24, SimTime::from_ms(500.0), shards, exec);
        let one = wan(1, ShardExecution::Inline);
        let two = wan(2, ShardExecution::Inline);
        let threads = wan(2, ShardExecution::Threads);
        let run = |spec: &SimSpec| {
            let mut w = build(spec, 9, |_, node| node);
            w.run_to_quiescence(MAX_EVENTS);
            collect(spec, &w, |n| n)
        };
        let (a, b, c) = (run(&one), run(&two), run(&threads));
        assert_eq!(a.cols, b.cols);
        assert_eq!(a.cols, c.cols);
        assert_eq!(a.events_by_shard.len(), 1);
        assert_eq!(b.events_by_shard.len(), 2);
    }

    #[test]
    fn synthetic_ring_matches_events_sweep_shape() {
        let m = synthetic_matrix(128);
        assert_eq!(m.len(), 128);
        // Adjacent sites are close, antipodal ones far.
        assert!(m.rtt(GroupId(0), GroupId(1)) < 30.0);
        assert!(m.rtt(GroupId(0), GroupId(64)) > 280.0);
    }
}
