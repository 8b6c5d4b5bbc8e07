//! Experiment configuration and runner.

use crate::actors::{ClientActor, EntryPolicy, FlushActor, LatencySample, Node, ServerActor};
use crate::checker::{self, CheckReport, DeliveryEvent};
use crate::netmsg::NetMsg;
use flexcast_gtpcc::{Generator, WorkloadConfig, WorkloadMode};
use flexcast_overlay::{regions, CDagOrder, LatencyMatrix, Tree};
use flexcast_sim::{LinkModel, Percentiles, SimTime, Summary, World};
use flexcast_telemetry::{MetricsSnapshot, Telemetry};
use flexcast_types::{ClientId, DestSet, GroupId, MsgId};
use std::collections::BTreeMap;

/// Which protocol (and overlay) to run.
#[derive(Clone, Debug)]
pub enum ProtocolKind {
    /// FlexCast on a C-DAG rank order.
    FlexCast(CDagOrder),
    /// The hierarchical baseline on a tree.
    Hierarchical(Tree),
    /// Skeen's distributed protocol (fully connected).
    Distributed,
}

impl ProtocolKind {
    /// Short label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::FlexCast(_) => "FlexCast",
            ProtocolKind::Hierarchical(_) => "Hierarchical",
            ProtocolKind::Distributed => "Distributed",
        }
    }
}

/// One experiment: a protocol, a workload, and a client population on the
/// 12-region AWS deployment of §5.2.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Protocol and overlay under test.
    pub protocol: ProtocolKind,
    /// gTPC-C locality rate (0.90 / 0.95 / 0.99 in the paper).
    pub locality: f64,
    /// Workload mode (global-only for latency, full for throughput).
    pub mode: WorkloadMode,
    /// Number of closed-loop clients, distributed round-robin over the
    /// regions (24 machines' worth in the paper; any number here).
    pub n_clients: usize,
    /// Clients stop issuing at this simulated time.
    pub duration: SimTime,
    /// RNG seed (workload and network jitter).
    pub seed: u64,
    /// Uniform network jitter bound in milliseconds (0 = deterministic).
    pub jitter_ms: f64,
    /// FlexCast flush period for garbage collection; `None` disables GC.
    pub flush_period: Option<SimTime>,
    /// Per-message serial service time at each server, in milliseconds.
    /// Models single-threaded server capacity; produces the saturation
    /// bend of the throughput experiment (Figure 6).
    pub server_service_ms: f64,
    /// Fixed per-message processing delay at each server, in
    /// milliseconds. Models the constant software-path cost of the
    /// paper's prototype, whose reported latencies sit far above the raw
    /// RTTs (Table 2: 229 ms first-destination p90 over ~12 ms links).
    pub server_processing_ms: f64,
    /// FlexCast delta suppression: groups advertise their history
    /// watermarks upstream after this many newly admitted entries, and
    /// senders filter `diff-hst` deltas against the advertised view.
    /// `None` disables the advertisement flow entirely (the plain
    /// protocol — what the golden traces pin). Ignored by the baselines.
    pub advert_stride: Option<u32>,
    /// Telemetry handle shared with the world and its actors. Disabled by
    /// default — recording through a disabled handle is a single-branch
    /// no-op, and telemetry never perturbs the execution either way.
    /// Install [`Telemetry::enabled`] to collect a metrics snapshot (on
    /// [`ExperimentResult::metrics`]) and a chrome://tracing span log
    /// (read back through this handle's `trace_json`). Cloning the config
    /// shares the same underlying registry.
    pub telemetry: Telemetry,
    /// Simulation shard count. `0` (the default everywhere) defers to the
    /// `FLEX_SHARDS` environment variable, falling back to `1` (the
    /// sequential core). Any value is safe: the sharded core's delivered
    /// trace is bit-identical to sequential at every shard count, and the
    /// world clamps the count to the region count.
    pub shards: usize,
}

impl ExperimentConfig {
    /// A latency-experiment configuration matching §5.6: global-only
    /// gTPC-C, 240 clients.
    pub fn latency(protocol: ProtocolKind, locality: f64) -> Self {
        ExperimentConfig {
            protocol,
            locality,
            mode: WorkloadMode::GlobalOnly,
            n_clients: 240,
            duration: SimTime::from_secs(20),
            seed: 1,
            jitter_ms: 2.0,
            flush_period: Some(SimTime::from_ms(250.0)),
            server_service_ms: 0.05,
            server_processing_ms: 20.0,
            // Paper-fidelity configurations run the plain protocol; scale
            // benches and correctness tests opt into delta suppression.
            advert_stride: None,
            telemetry: Telemetry::disabled(),
            shards: 0,
        }
    }

    /// A throughput-experiment configuration matching §5.5: full gTPC-C
    /// at 99 % locality. The serial service time is sized so the server
    /// queue saturates inside the paper's client sweep (24–1440), which
    /// is what produces Figure 6's bend.
    pub fn throughput(protocol: ProtocolKind, n_clients: usize) -> Self {
        ExperimentConfig {
            protocol,
            locality: 0.99,
            mode: WorkloadMode::Full,
            n_clients,
            duration: SimTime::from_secs(10),
            seed: 1,
            jitter_ms: 2.0,
            flush_period: Some(SimTime::from_ms(250.0)),
            server_service_ms: 0.3,
            server_processing_ms: 20.0,
            advert_stride: None,
            telemetry: Telemetry::disabled(),
            shards: 0,
        }
    }
}

/// Resolves a config's shard count: an explicit value wins, `0` defers to
/// the `FLEX_SHARDS` environment variable (how CI runs the whole suite
/// sharded without touching configs), and the fallback is `1`.
pub fn resolve_shards(cfg_shards: usize) -> usize {
    if cfg_shards > 0 {
        return cfg_shards;
    }
    std::env::var("FLEX_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Per-node traffic statistics of a run.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Messages received per second.
    pub msgs_per_sec: f64,
    /// Average received message size in bytes.
    pub avg_msg_bytes: f64,
    /// Kilobytes received per second.
    pub kbytes_per_sec: f64,
    /// Payload messages received.
    pub received_payloads: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// The §5.8 communication overhead, as a fraction.
    pub overhead: f64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Latency samples per destination rank (index 0 = first response),
    /// warm-up and cool-down trimmed (§5.3 discards the first and last
    /// 10 % of the collected data).
    pub latency_by_rank: Vec<Summary>,
    /// Completed transactions per second across all clients.
    pub throughput_tps: f64,
    /// Completed transactions in total.
    pub completed: u64,
    /// Per-node traffic statistics (indexed by node).
    pub per_node: Vec<NodeStats>,
    /// Property-checker verdict for the full trace.
    pub check: CheckReport,
    /// Per-node delivery logs (delivery order preserved), for custom
    /// analyses beyond the built-in checker.
    pub trace: Vec<Vec<DeliveryEvent>>,
    /// Every multicast message and its destination set (node space).
    pub registry: BTreeMap<MsgId, DestSet>,
    /// Simulator throughput counters (total events, sends, peak queue
    /// depth); combine with a wall-clock measurement for events/s.
    pub stats: flexcast_sim::SimStats,
    /// Completion latency samples: for each finished transaction, the
    /// latency of its last destination's response (warm-up trimmed like
    /// [`ExperimentResult::latency_by_rank`]).
    pub completion: Summary,
    /// Frozen metrics registry of the run. Empty unless the config
    /// installed an enabled [`ExperimentConfig::telemetry`] handle.
    pub metrics: MetricsSnapshot,
}

impl ExperimentResult {
    /// The (p90, p95, p99) row for destination rank `k` (1-based), as the
    /// paper's Tables 2 and 3 report. `None` if no samples. Reads are
    /// `&self`: the per-rank summaries are sorted once at collect time.
    pub fn percentile_row(&self, k: usize) -> Option<(f64, f64, f64)> {
        self.latency_by_rank.get(k - 1)?.p90_p95_p99()
    }

    /// Transaction completion latency percentiles (the sample of each
    /// transaction's *last* destination response). `None` if no samples.
    pub fn completion_percentiles(&self) -> Option<Percentiles> {
        self.completion.percentiles()
    }
}

/// Runs one experiment to quiescence and returns its results.
///
/// The deployment matches §5.2: 12 server nodes, one per AWS region, and
/// `n_clients` clients homed round-robin across the regions. Clients are
/// co-located with their home region ("clients … are deployed in the same
/// region as their home warehouse").
pub fn run(cfg: &ExperimentConfig) -> ExperimentResult {
    let matrix = regions::aws12();
    run_on(cfg, &matrix)
}

/// [`run`] with an explicit latency matrix (tests use small topologies).
pub fn run_on(cfg: &ExperimentConfig, matrix: &LatencyMatrix) -> ExperimentResult {
    let world = run_world_on(cfg, matrix);
    let n_servers = matrix.len();
    collect(cfg, world, n_servers)
}

/// Runs the experiment on `matrix` and returns the quiesced world itself,
/// for diagnostics that need to inspect final actor state.
pub fn run_world_on(cfg: &ExperimentConfig, matrix: &LatencyMatrix) -> World<NetMsg, Node> {
    let n_servers = matrix.len();
    assert!(cfg.n_clients > 0, "need at least one client");
    assert!(
        cfg.locality > 0.0 && cfg.locality <= 1.0,
        "locality must be in (0, 1]"
    );

    let entry = match &cfg.protocol {
        ProtocolKind::FlexCast(order) => EntryPolicy::Flex(order.clone()),
        ProtocolKind::Hierarchical(tree) => EntryPolicy::Hier(tree.clone()),
        ProtocolKind::Distributed => EntryPolicy::SkeenAll,
    };

    // Build actors: servers 0..n, clients n.., optional flusher last.
    let mut actors: Vec<Node> = Vec::new();
    let mut sites: Vec<GroupId> = Vec::new();
    for node in 0..n_servers as u16 {
        let node = GroupId(node);
        let server = match &cfg.protocol {
            ProtocolKind::FlexCast(order) => {
                ServerActor::flexcast(node, n_servers, order.clone(), cfg.advert_stride)
            }
            ProtocolKind::Hierarchical(tree) => ServerActor::hier(node, n_servers, tree.clone()),
            ProtocolKind::Distributed => ServerActor::skeen(node, n_servers),
        };
        actors.push(Node::Server(server));
        sites.push(node);
    }

    let wl = WorkloadConfig {
        locality: cfg.locality,
        mode: cfg.mode,
        max_warehouses: 3,
    };
    for c in 0..cfg.n_clients {
        let home = GroupId((c % n_servers) as u16);
        let generator = Generator::new(wl.clone(), matrix, cfg.seed.wrapping_add(c as u64));
        actors.push(Node::Client(ClientActor::new(
            ClientId(c as u32),
            home,
            n_servers,
            generator,
            entry.clone(),
            cfg.duration,
        )));
        sites.push(home);
    }

    let use_flusher =
        matches!(cfg.protocol, ProtocolKind::FlexCast(_)) && cfg.flush_period.is_some();
    if use_flusher {
        let flush_id = ClientId(cfg.n_clients as u32);
        actors.push(Node::Flusher(FlushActor::new(
            flush_id,
            n_servers,
            entry.clone(),
            cfg.flush_period.expect("checked above"),
            cfg.duration,
        )));
        // Co-locate the flusher with node 0 (an arbitrary region).
        sites.push(GroupId(0));
    }

    let mut link = LinkModel::new(matrix.clone(), sites, cfg.jitter_ms);
    for pid in 0..n_servers {
        link.set_service_ms(pid, cfg.server_service_ms);
        link.set_processing_ms(pid, cfg.server_processing_ms);
    }
    let mut world: World<NetMsg, Node> = World::new(actors, link, cfg.seed);
    world.set_telemetry(cfg.telemetry.clone());
    world.set_shards(resolve_shards(cfg.shards));
    // A closed loop of N clients issues a bounded number of events per
    // transaction; the guard only trips on livelock bugs.
    let max_events = 2_000_000_000;
    world.run_to_quiescence(max_events);
    world
}

fn collect(
    cfg: &ExperimentConfig,
    world: World<NetMsg, Node>,
    n_servers: usize,
) -> ExperimentResult {
    let stats = world.stats();
    // Gather client samples and the multicast registry.
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    let mut samples: Vec<LatencySample> = Vec::new();
    let mut completed = 0u64;
    let mut trace: Vec<Vec<DeliveryEvent>> = vec![Vec::new(); n_servers];
    let mut per_node = Vec::with_capacity(n_servers);

    let wall_secs = cfg.duration.as_secs();
    for pid in 0..world.len() {
        match world.actor(pid) {
            Node::Server(s) => {
                let st = &s.stats;
                per_node.push(NodeStats {
                    msgs_per_sec: st.received_msgs as f64 / wall_secs,
                    avg_msg_bytes: if st.received_msgs == 0 {
                        0.0
                    } else {
                        st.received_bytes as f64 / st.received_msgs as f64
                    },
                    kbytes_per_sec: st.received_bytes as f64 / 1024.0 / wall_secs,
                    received_payloads: st.received_payloads,
                    delivered: st.delivered,
                    overhead: st.overhead(),
                });
                trace[s.node().index()] = s.deliveries.clone();
            }
            Node::Client(c) => {
                samples.extend(c.samples.iter().copied());
                completed += c.completed;
                registry.extend(c.issued.iter().copied());
            }
            Node::Flusher(f) => {
                registry.extend(f.issued.iter().copied());
            }
        }
    }

    // Trim warm-up and cool-down: keep samples issued in the middle 80 %
    // of the run (§5.3).
    let lo = SimTime::from_ms(cfg.duration.as_ms() * 0.10);
    let hi = SimTime::from_ms(cfg.duration.as_ms() * 0.90);
    let max_rank = samples.iter().map(|s| s.rank).max().unwrap_or(0);
    let mut latency_by_rank = vec![Summary::new(); max_rank.max(3)];
    let mut completion = Summary::new();
    for s in &samples {
        if s.sent_at >= lo && s.sent_at <= hi {
            latency_by_rank[s.rank - 1].record(s.latency_ms);
            if s.rank == s.dst_count {
                completion.record(s.latency_ms);
            }
        }
    }
    // Sort once here so result reads (`percentile_row` and friends) are
    // immutable and allocation-free.
    for s in &mut latency_by_rank {
        s.sort();
    }
    completion.sort();

    let check = checker::check(&registry, &trace);

    // Publish run-level metrics and freeze the snapshot. All exports are
    // absolute sets or fresh histograms, computed once per run.
    let tel = &cfg.telemetry;
    if tel.is_enabled() {
        stats.export_metrics(tel);
        for (i, s) in latency_by_rank.iter().enumerate() {
            s.export_histogram_ms(tel, &format!("latency.rank{}_ns", i + 1));
        }
        completion.export_histogram_ms(tel, "latency.complete_ns");
        let (mut merge_in, mut merge_dup) = (0u64, 0u64);
        let (mut adverts, mut suppressed) = (0u64, 0u64);
        let mut received = 0u64;
        let mut delivered = 0u64;
        // What the histories hold when the run ends: what GC buys.
        let (mut history_bytes, mut history_verts, mut residual) = (0u64, 0u64, 0u64);
        for pid in 0..world.len() {
            if let Node::Server(s) = world.actor(pid) {
                received += s.stats.received_msgs;
                delivered += s.stats.delivered;
                if let Some(engine) = s.flex_engine() {
                    let m = engine.merge_stats();
                    merge_in += m.entries_in();
                    merge_dup += m.entries_dup();
                    let sup = engine.suppression_stats();
                    adverts += sup.adverts_sent;
                    suppressed += sup.suppressed_entries();
                    let h = engine.history();
                    history_bytes += h.heap_bytes() as u64;
                    history_verts += h.len() as u64;
                    residual += h.seen_residual_len() as u64;
                }
            }
        }
        tel.counter_set("net.server_received_msgs", received);
        tel.counter_set("net.server_delivered", delivered);
        tel.counter_set("flex.merge.entries_in", merge_in);
        tel.counter_set("flex.merge.entries_dup", merge_dup);
        tel.counter_set("flex.history_bytes_end", history_bytes);
        tel.counter_set("flex.history_verts_end", history_verts);
        tel.counter_set("flex.seen_residual_end", residual);
        tel.counter_set("flex.sup.adverts_sent", adverts);
        tel.counter_set("flex.sup.suppressed_entries", suppressed);
    }
    let metrics = tel.snapshot();

    ExperimentResult {
        latency_by_rank,
        throughput_tps: completed as f64 / wall_secs,
        completed,
        per_node,
        check,
        trace,
        registry,
        stats,
        completion,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::presets;

    fn small(cfg_protocol: ProtocolKind) -> ExperimentConfig {
        ExperimentConfig {
            protocol: cfg_protocol,
            locality: 0.9,
            mode: WorkloadMode::GlobalOnly,
            n_clients: 12,
            duration: SimTime::from_secs(3),
            seed: 7,
            jitter_ms: 1.0,
            flush_period: Some(SimTime::from_ms(400.0)),
            server_service_ms: 0.05,
            server_processing_ms: 20.0,
            advert_stride: Some(16),
            telemetry: Telemetry::disabled(),
            shards: 0,
        }
    }

    #[test]
    fn flexcast_o1_runs_clean() {
        let r = run(&small(ProtocolKind::FlexCast(presets::o1())));
        r.check.assert_ok();
        assert!(
            r.completed > 20,
            "closed loop made progress: {}",
            r.completed
        );
        assert!(r.percentile_row(1).is_some());
        // Genuine: zero payload overhead at every node.
        for (i, n) in r.per_node.iter().enumerate() {
            assert!(
                n.overhead.abs() < 1e-9,
                "node {i} shows overhead {}",
                n.overhead
            );
        }
    }

    #[test]
    fn skeen_runs_clean() {
        let r = run(&small(ProtocolKind::Distributed));
        r.check.assert_ok();
        assert!(r.completed > 20);
        assert!(r.percentile_row(1).is_some());
        for n in &r.per_node {
            assert!(n.overhead.abs() < 1e-9, "Skeen is genuine");
        }
    }

    #[test]
    fn hierarchical_t1_runs_clean_with_overhead() {
        let r = run(&small(ProtocolKind::Hierarchical(presets::t1())));
        r.check.assert_ok();
        assert!(r.completed > 20);
        // Non-genuine: some inner node relays messages it does not deliver.
        let total_overhead: f64 = r.per_node.iter().map(|n| n.overhead).sum();
        assert!(
            total_overhead > 0.01,
            "hierarchical must show overhead, got {total_overhead}"
        );
        // Leaves have none.
        let t = presets::t1();
        for (i, n) in r.per_node.iter().enumerate() {
            if !t.is_inner(GroupId(i as u16)) {
                assert!(n.overhead.abs() < 1e-9, "leaf {i} has overhead");
            }
        }
    }

    #[test]
    fn throughput_scales_with_clients() {
        let mut few = small(ProtocolKind::Distributed);
        few.mode = WorkloadMode::Full;
        few.n_clients = 6;
        let mut many = few.clone();
        many.n_clients = 48;
        let r_few = run(&few);
        let r_many = run(&many);
        r_few.check.assert_ok();
        r_many.check.assert_ok();
        assert!(
            r_many.throughput_tps > r_few.throughput_tps * 3.0,
            "48 clients ({}) should far outpace 6 ({})",
            r_many.throughput_tps,
            r_few.throughput_tps
        );
    }

    #[test]
    fn identical_seeds_reproduce_results() {
        let cfg = small(ProtocolKind::FlexCast(presets::o1()));
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.stats.events, b.stats.events);
    }

    #[test]
    fn enabled_telemetry_populates_metrics_and_trace() {
        let mut cfg = small(ProtocolKind::FlexCast(presets::o1()));
        cfg.telemetry = Telemetry::enabled();
        let r = run(&cfg);
        r.check.assert_ok();
        assert!(r.metrics.histograms.contains_key("latency.complete_ns"));
        assert!(r.metrics.histograms.contains_key("latency.rank1_ns"));
        assert!(*r.metrics.counters.get("sim.events").unwrap() > 0);
        assert!(*r.metrics.counters.get("server.delivered").unwrap() > 0);
        assert!(r.metrics.counters["flex.history_bytes_end"] > 0);
        assert!(r.metrics.counters["flex.history_verts_end"] > 0);
        assert!(r.metrics.counters.contains_key("flex.seen_residual_end"));
        assert!(cfg.telemetry.trace_len() > 0, "spans were recorded");
        let p = r.completion_percentiles().expect("completion samples");
        assert!(p.p50 <= p.p99 && p.p99 <= p.p999);
        // The snapshot's p50 (ns, bucketed) should be within the bucket
        // quantization (12.5 %) of the exact sample percentile (ms).
        let h = &r.metrics.histograms["latency.complete_ns"];
        let exact_ns = p.p50 * 1e6;
        assert!(
            (h.p50 as f64 - exact_ns).abs() <= exact_ns * 0.125 + 1.0,
            "histogram p50 {} vs exact {}",
            h.p50,
            exact_ns
        );
    }

    #[test]
    fn disabled_telemetry_yields_empty_metrics() {
        let r = run(&small(ProtocolKind::FlexCast(presets::o1())));
        assert!(r.metrics.is_empty());
    }
}
