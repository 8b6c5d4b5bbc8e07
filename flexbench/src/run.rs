//! Per-workload drivers: repeat the workload until the time budget is
//! spent, check every repetition's output, and turn what was measured
//! into the metric list of [`crate::spec`].
//!
//! **One run measures several worlds.** Repetition `i` runs the world
//! generated from `sub_seed(seed, i mod K)` (`K` =
//! [`Sizes::sub_worlds`]), and every one of the `K` worlds is run at
//! least once. A simulated world's event count, and with it its host
//! cost and its simulated latencies, swings by several percent from one
//! seed to the next; reporting the median over `K` worlds derived from
//! `--seed` roughly halves that swing, which is what lets the bounds in
//! `BENCHMARK.json` be as tight as they are. Everything stays a pure
//! function of `--seed`: each of the `K` worlds must reproduce its own
//! deterministic columns on every later repetition, or the run is
//! incorrect.
//!
//! Untraced runs (`--trace 0`) produce the end-to-end metrics: each
//! repetition rebuilds its world from scratch (so set-up is measured
//! every time) and runs it with nothing wrapped around the actors.
//! Traced runs (`--trace 1`) alternate an untraced and a traced
//! repetition of world 0 — the difference is the tracing overhead — and
//! take the per-layer numbers from the last traced one, its replay, and
//! the calibration cells.

use crate::micro;
use crate::procfs;
use crate::replay::{self, ReplayTotals};
use crate::replworld::{self, RecordingAdversary, ReplColumns, ReplSpec};
use crate::simworld::{self, SimColumns, SimOutcome, SimSpec, MAX_EVENTS};
use crate::spans::{SpanLog, ROOT};
use crate::spec::{Kind, Workload, END_TO_END, PER_LAYER};
use crate::stats::{self, Hist};
use crate::tcp3::{self, Tcp3Outcome, Tcp3Probe, Tcp3Spec};
use crate::traced::{Class, EventSpan, Slot, Traced, SLOTS};
use flexcast_chaos::{run_adversary, run_schedule};
use flexcast_harness::actors::Node;
use flexcast_harness::replicated::ReplNode;
use flexcast_harness::NetMsg;
use flexcast_sim::{Actor, ProcessId, ShardExecution, SimTime, World};
use flexcast_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every size knob of the benchmark. Nothing here is read from the
/// environment or the command line except through [`Sizes::full`] /
/// [`Sizes::smoke`].
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `wan12` / `wan12_sh2`: closed-loop clients (32 per region).
    pub wan_clients: usize,
    /// `wan12` / `wan12_sh2`: simulated milliseconds of issuing.
    pub wan_issue_ms: f64,
    /// `scale128`: groups.
    pub scale_groups: usize,
    /// `scale128`: closed-loop clients.
    pub scale_clients: usize,
    /// `scale128`: simulated milliseconds of issuing.
    pub scale_issue_ms: f64,
    /// `scale128`: advertisement stride.
    pub scale_stride: u32,
    /// `repl12_crash`: closed-loop clients.
    pub repl_clients: usize,
    /// `repl12_crash`: simulated milliseconds until all timers stop.
    pub repl_stop_ms: f64,
    /// `repl12_crash`: crash instant, simulated ms.
    pub repl_crash_ms: f64,
    /// `repl12_crash`: down time, simulated ms.
    pub repl_down_ms: f64,
    /// `tcp3`: the workload's own knobs.
    pub tcp: Tcp3Spec,
    /// Relay calibration ring: messages seeded per node, hops each.
    pub relay: (u32, u32),
    /// Paxos calibration cell: commands.
    pub smr_commands: u64,
    /// Iterations of the small calibration loops (BLE ticks, frames,
    /// transactions).
    pub micro_iters: u64,
    /// Worlds derived from the seed per run (`K` in the module docs);
    /// also the least number of repetitions.
    pub sub_worlds: usize,
    /// Raw event spans kept per sampled server / per other actor.
    pub span_caps: (usize, usize),
    /// Insist that every reported percentile has at least ten samples
    /// beyond it ([`stats::tail_percentile`]); off only at smoke size.
    pub strict_samples: bool,
}

impl Sizes {
    /// The sizes every committed number is measured at.
    pub fn full() -> Self {
        Sizes {
            wan_clients: 384,
            wan_issue_ms: 4_000.0,
            scale_groups: 128,
            scale_clients: 96,
            scale_issue_ms: 1_000.0,
            scale_stride: 1024,
            repl_clients: 192,
            repl_stop_ms: 8_000.0,
            repl_crash_ms: 2_000.0,
            repl_down_ms: 3_000.0,
            tcp: Tcp3Spec {
                multicasts: 40_000,
                window: 64,
                payload: 64,
                flush_every: 512,
            },
            relay: (64, 4_000),
            smr_commands: 100_000,
            micro_iters: 200_000,
            sub_worlds: 4,
            span_caps: (1_000, 16),
            strict_samples: true,
        }
    }

    /// `--smoke`: every code path, including the traced pass and the
    /// replay, at a size where each workload takes well under two seconds.
    pub fn smoke() -> Self {
        Sizes {
            wan_clients: 96,
            wan_issue_ms: 750.0,
            scale_groups: 128,
            scale_clients: 96,
            scale_issue_ms: 60.0,
            scale_stride: 1024,
            repl_clients: 48,
            repl_stop_ms: 3_000.0,
            repl_crash_ms: 800.0,
            repl_down_ms: 1_000.0,
            tcp: Tcp3Spec {
                multicasts: 20_000,
                window: 64,
                payload: 64,
                flush_every: 512,
            },
            relay: (16, 500),
            smr_commands: 5_000,
            micro_iters: 10_000,
            sub_worlds: 1,
            span_caps: (200, 4),
            strict_samples: false,
        }
    }

    /// The knob values, for the result file's metadata.
    pub fn knobs(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("wan_clients", self.wan_clients as f64),
            ("wan_issue_ms", self.wan_issue_ms),
            ("scale_groups", self.scale_groups as f64),
            ("scale_clients", self.scale_clients as f64),
            ("scale_issue_ms", self.scale_issue_ms),
            ("scale_stride", self.scale_stride as f64),
            ("repl_clients", self.repl_clients as f64),
            ("repl_stop_ms", self.repl_stop_ms),
            ("repl_crash_ms", self.repl_crash_ms),
            ("repl_down_ms", self.repl_down_ms),
            ("tcp_multicasts", self.tcp.multicasts as f64),
            ("tcp_window", self.tcp.window as f64),
            ("tcp_payload", self.tcp.payload as f64),
            ("tcp_flush_every", self.tcp.flush_every as f64),
            ("relay_seeds", self.relay.0 as f64),
            ("relay_hops", self.relay.1 as f64),
            ("smr_commands", self.smr_commands as f64),
            ("micro_iters", self.micro_iters as f64),
            ("sub_worlds", self.sub_worlds as f64),
            ("locality", simworld::LOCALITY),
            ("jitter_ms", simworld::JITTER_MS),
            ("flush_ms", simworld::FLUSH_MS),
            ("service_ms", simworld::SERVICE_MS),
        ]
    }

    fn sim_spec(&self, workload: &str) -> SimSpec {
        let wan = |shards| {
            let issue = SimTime::from_ms(self.wan_issue_ms);
            SimSpec::wan12(self.wan_clients, issue, shards, ShardExecution::Inline)
        };
        match workload {
            "wan12" => wan(1),
            "wan12_sh2" => wan(2),
            "scale128" => SimSpec::scale(
                self.scale_groups,
                self.scale_clients,
                SimTime::from_ms(self.scale_issue_ms),
                self.scale_stride,
            ),
            other => panic!("{other} is not a plain simulated workload"),
        }
    }

    fn repl_spec(&self) -> ReplSpec {
        ReplSpec::aws12(
            self.repl_clients,
            SimTime::from_ms(self.repl_stop_ms),
            self.repl_crash_ms,
            self.repl_down_ms,
        )
    }
}

/// The seed of sub-world `k` of a run seeded `seed`: splitmix64 over the
/// pair, so the worlds of one run — and of neighbouring `--seed` values —
/// share no client generator streams (the harness seeds client `c` with
/// `seed + c`).
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((k as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one invocation measured.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload.
    pub workload: &'static Workload,
    /// The seed every input was generated from.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Output checks that failed; empty on a correct run.
    pub problems: Vec<String>,
    /// Operations issued, over all repetitions.
    pub attempted: u64,
    /// Operations issued and not completed at quiescence.
    pub failed: u64,
    /// `(name, unit, value)` in [`crate::spec`] order; `None` is a value
    /// that could not be measured on this host.
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Raw per-repetition values behind the reported medians.
    pub reps: Vec<(&'static str, Vec<f64>)>,
    /// Deterministic columns of sub-world 0, for a reader chasing a
    /// mismatch between two runs.
    pub columns: Vec<(&'static str, f64)>,
    /// chrome://tracing JSON of the traced pass.
    pub trace_json: Option<String>,
}

impl Report {
    /// True if every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Metric values by name, filled in as they are computed.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "{name} is not in the spec"
        );
        self.0.insert(name, v);
    }

    /// Sets `name` to `num / den`, or leaves it unset at a zero `den`
    /// (unset per-layer metrics report 0: layer not exercised).
    fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if den != 0.0 {
            self.set(name, num / den);
        }
    }

    /// Publishes each `(metric, nanoseconds)` part as a percentage of
    /// `wall_ns`, and their sum as `share.accounted_pct`.
    fn shares(&mut self, wall_ns: f64, parts: &[(&'static str, f64)]) {
        let mut accounted = 0.0;
        for &(name, ns) in parts {
            let pct = 100.0 * ns / wall_ns;
            self.set(name, pct);
            accounted += pct;
        }
        self.set("share.accounted_pct", accounted);
    }

    /// Mean `on_client` / `on_packet` call times; returns their total ns.
    fn engine_calls(&mut self, on_client: &Hist, on_packet: &[Hist; 4]) -> f64 {
        self.set("core.on_client_us", on_client.mean_ns() / 1e3);
        let metrics = [
            "core.on_packet_us.msg",
            "core.on_packet_us.ack",
            "core.on_packet_us.notif",
            "core.on_packet_us.advert",
        ];
        for (k, metric) in metrics.into_iter().enumerate() {
            debug_assert!(metric.ends_with(replay::PACKET_KINDS[k]));
            self.set(metric, on_packet[k].mean_ns() / 1e3);
        }
        (on_client.sum_ns() + on_packet.iter().map(Hist::sum_ns).sum::<u64>()) as f64
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, self.0.get(m.name).copied()))
            .collect()
    }

    fn per_layer(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        PER_LAYER
            .iter()
            .map(|(n, u, _)| (*n, *u, Some(self.0.get(n).copied().unwrap_or(0.0))))
            .collect()
    }
}

/// A percentile resting on fewer than ten samples beyond it is the value
/// of a few outliers; at full size that is a sizing bug, not a result.
fn check_samples(r: &mut Report, sizes: &Sizes, metric: &str, p: f64, n: u64) {
    if sizes.strict_samples && stats::tail_percentile(n as usize) < p {
        r.problems.push(format!(
            "{metric}: only {n} samples, too few to support p{p}"
        ));
    }
}

fn median(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f`, returning its result, its wall seconds, and the CPU seconds
/// (all threads) the process used meanwhile (0 without procfs).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = procfs::cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall = secs_since(t);
    let cpu = match (cpu0, procfs::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    (out, wall, cpu)
}

/// The per-repetition tallies every untraced run keeps.
#[derive(Default)]
struct Tally {
    host_ops: Vec<f64>,
    setups: Vec<f64>,
    walls: Vec<f64>,
    timed: f64,
}

impl Tally {
    fn record(&mut self, completed: u64, setup_s: f64, wall_s: f64) {
        self.host_ops.push(completed as f64 / wall_s);
        self.setups.push(setup_s);
        self.walls.push(wall_s);
        self.timed += setup_s + wall_s;
    }

    fn reps(&self) -> usize {
        self.walls.len()
    }

    /// True while the time budget is unspent or a sub-world is unvisited.
    fn wants_more(&self, seconds: f64, sizes: &Sizes) -> bool {
        self.timed < seconds || self.reps() < sizes.sub_worlds
    }

    fn publish(self, r: &mut Report, v: &mut Values, rss: Option<f64>) {
        v.set("host_ops_per_s", median(&self.host_ops));
        v.set("setup_s", median(&self.setups));
        if let Some(mb) = rss {
            v.set("peak_rss_mb", mb);
        }
        r.reps.extend([
            ("host_ops_per_s", self.host_ops),
            ("setup_s", self.setups),
            ("wall_s", self.walls),
        ]);
    }
}

/// The calibration cells, run once per traced pass.
struct Micro {
    relay_ns_per_event: f64,
    smr: micro::SmrCell,
    ble_tick_ns: f64,
    frame_codec_ns: f64,
    next_txn_ns: f64,
}

impl Micro {
    fn run(sizes: &Sizes, seed: u64) -> Self {
        Micro {
            relay_ns_per_event: micro::relay_ns_per_event(sizes.relay.0, sizes.relay.1),
            smr: micro::smr_commit(sizes.smr_commands),
            ble_tick_ns: micro::ble_tick_ns(sizes.micro_iters),
            // 85 bytes: the mean tcp3 frame body.
            frame_codec_ns: micro::frame_codec_ns(sizes.micro_iters, 85),
            next_txn_ns: micro::gtpcc_next_txn_ns(sizes.micro_iters, simworld::LOCALITY, seed),
        }
    }

    fn publish(&self, v: &mut Values) {
        v.set("sim.relay_ns_per_event", self.relay_ns_per_event);
        v.set("smr.commit_us", self.smr.commit_us);
        v.set("smr.msgs_per_commit", self.smr.msgs_per_commit);
        v.set("smr.ble_tick_ns", self.ble_tick_ns);
        v.set("net.frame_codec_ns", self.frame_codec_ns);
        v.set("gtpcc.next_txn_ns", self.next_txn_ns);
    }
}

/// One sampled server's recordings.
struct Captured {
    pid: ProcessId,
    /// Every `(from, message)` the simulator delivered to it, in order.
    inbound: Vec<(ProcessId, NetMsg)>,
    /// Its raw callback spans (capped).
    spans: Vec<EventSpan>,
    /// Its callback durations (uncapped).
    callbacks: Hist,
}

/// Everything read back out of a traced world's wrappers.
struct Harvest {
    tally: [Hist; SLOTS],
    recv_bytes: u64,
    snapshot_bytes: u64,
    /// What each sampled server recorded.
    captured: Vec<Captured>,
    /// Event spans of every other actor.
    other_spans: Vec<(ProcessId, EventSpan)>,
}

fn harvest<A: Actor<NetMsg>>(world: &mut World<NetMsg, Traced<A>>) -> Harvest {
    let mut h = Harvest {
        tally: Default::default(),
        recv_bytes: 0,
        snapshot_bytes: 0,
        captured: Vec::new(),
        other_spans: Vec::new(),
    };
    for pid in 0..world.len() {
        let a = world.actor_mut(pid);
        for (sum, mine) in h.tally.iter_mut().zip(&a.tally) {
            sum.merge(mine);
        }
        h.recv_bytes += a.recv_bytes;
        h.snapshot_bytes += a.snapshot_bytes;
        let spans = std::mem::take(&mut a.spans);
        match a.capture.take() {
            Some(inbound) => h.captured.push(Captured {
                pid,
                inbound,
                spans,
                callbacks: a.tally[Slot::Server as usize].clone(),
            }),
            None => h.other_spans.extend(spans.into_iter().map(|s| (pid, s))),
        }
    }
    h
}

impl Harvest {
    fn slot(&self, s: Slot) -> &Hist {
        &self.tally[s as usize]
    }

    fn callback_ns(&self) -> f64 {
        self.tally.iter().map(Hist::sum_ns).sum::<u64>() as f64
    }

    /// Builds the span log: root, then one event span per recorded
    /// callback. Returns, per sampled server, the span id of each
    /// captured message's event (what replayed layer spans hang under).
    fn span_log(&self, name: &'static str, wall_ns: u64) -> (SpanLog, Vec<Vec<Option<u64>>>) {
        let mut log = SpanLog::new(40_000);
        log.root(name, wall_ns);
        let mut event = |pid: ProcessId, s: &EventSpan| {
            let (name, pid) = (s.slot.name(), pid as u32);
            log.push(ROOT, "harness", name, pid, s.start_ns, s.dur_ns, s.req)
        };
        let mut ids = Vec::new();
        for c in &self.captured {
            let mut by_idx = vec![None; c.inbound.len()];
            for s in &c.spans {
                let id = event(c.pid, s);
                if let Some(i) = s.capture_idx {
                    by_idx[i as usize] = id;
                }
            }
            ids.push(by_idx);
        }
        for (pid, s) in &self.other_spans {
            event(*pid, s);
        }
        (log, ids)
    }
}

fn class_of_node(node: &Node) -> Class {
    match node {
        Node::Server(_) => Class::Server,
        Node::Client(_) => Class::Client,
        Node::Flusher(_) => Class::Flusher,
    }
}

fn class_of_repl(node: &ReplNode) -> Class {
    match node {
        ReplNode::Replica(_) => Class::Replica,
        ReplNode::Client(_) => Class::Client,
        ReplNode::Flusher(_) => Class::Flusher,
    }
}

/// Checks one repetition's verdict and that its deterministic columns
/// equal `reference` (an earlier run of the same world).
fn check_rep<C: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    verdict: &Result<(), String>,
    cols: &C,
    reference: &C,
) {
    if let Err(e) = verdict {
        problems.push(format!("{what}: {e}"));
    }
    if cols != reference {
        problems.push(format!(
            "{what}: deterministic columns differ from the reference run of the same world:\n  {cols:?}\n  {reference:?}"
        ));
    }
}

/// What the traced passes have in common once their metrics are set:
/// overhead, span counts, raw repetitions, the trace file.
fn finish_per_layer(
    r: &mut Report,
    mut v: Values,
    wall_u: Vec<f64>,
    wall_t: Vec<f64>,
    log: &SpanLog,
) {
    let (mu, mt) = (median(&wall_u), median(&wall_t));
    v.ratio("telemetry.trace_overhead_pct", 100.0 * (mt - mu), mu);
    v.set("telemetry.spans_kept", log.spans().len() as f64);
    v.set("telemetry.spans_dropped", log.dropped() as f64);
    r.metrics = v.per_layer();
    r.reps = vec![("untraced_wall_s", wall_u), ("traced_wall_s", wall_t)];
    r.trace_json = Some(log.to_chrome_json());
}

fn sim_columns(c: &SimColumns) -> Vec<(&'static str, f64)> {
    vec![
        ("events", c.events as f64),
        ("msgs_sent", c.msgs_sent as f64),
        ("peak_queue_depth", c.peak_queue_depth as f64),
        ("attempted", c.attempted as f64),
        ("completed", c.completed as f64),
        ("window_samples", c.window_samples as f64),
        ("global_samples", c.global_samples as f64),
        ("lat_p50_ms", c.lat_p50_ms),
        ("lat_p99_ms", c.lat_p99_ms),
        ("lat_global_p90_ms", c.lat_global_p90_ms),
        ("lat_global_p99_ms", c.lat_global_p99_ms),
        ("sim_ops_per_s", c.sim_ops_per_s),
        ("sent_bytes", c.sent_bytes as f64),
        ("entries_in", c.entries_in() as f64),
        ("entries_dup", c.entries_dup() as f64),
        ("suppressed", c.suppressed as f64),
        ("adverts_sent", c.adverts_sent as f64),
        ("history_verts_end", c.history_verts_end as f64),
        ("delivered", c.delivered as f64),
    ]
}

fn repl_columns(c: &ReplColumns) -> Vec<(&'static str, f64)> {
    vec![
        ("events", c.events as f64),
        ("msgs_sent", c.msgs_sent as f64),
        ("dropped", c.dropped as f64),
        ("peak_queue_depth", c.peak_queue_depth as f64),
        ("attempted", c.attempted as f64),
        ("completed", c.completed as f64),
        ("window_samples", c.window_samples as f64),
        ("lat_p50_ms", c.lat_p50_ms),
        ("lat_p90_ms", c.lat_p90_ms),
        ("lat_p99_ms", c.lat_p99_ms),
        ("sim_ops_per_s", c.sim_ops_per_s),
        ("entries_in", c.entries_in as f64),
        ("entries_dup", c.entries_dup as f64),
        ("history_verts_end", c.history_verts_end as f64),
        ("snapshot_installs", c.snapshot_installs as f64),
        ("outage_ms", c.outage_ms),
    ]
}

/// Runs `workload` for about `seconds` seconds of timed work.
pub fn run(
    workload: &'static Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Report {
    let mut report = Report {
        workload,
        seed,
        trace,
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        reps: Vec::new(),
        columns: Vec::new(),
        trace_json: None,
    };
    match (workload.kind, trace) {
        (Kind::Sim, false) => sim_end_to_end(&mut report, sizes, seconds),
        (Kind::Sim, true) => sim_per_layer(&mut report, sizes, seconds),
        (Kind::Replicated, false) => repl_end_to_end(&mut report, sizes, seconds),
        (Kind::Replicated, true) => repl_per_layer(&mut report, sizes, seconds),
        (Kind::Tcp, false) => tcp_end_to_end(&mut report, sizes, seconds),
        (Kind::Tcp, true) => tcp_per_layer(&mut report, sizes, seconds),
    }
    report
}

// ---------------------------------------------------------------------------
// wan12, wan12_sh2, scale128
// ---------------------------------------------------------------------------

struct SimRep {
    setup_s: f64,
    wall_s: f64,
    out: SimOutcome,
}

fn sim_rep_plain(spec_of: impl FnOnce() -> SimSpec, seed: u64) -> SimRep {
    let t = Instant::now();
    let spec = spec_of();
    let mut world = simworld::build(&spec, seed, |_, node| node);
    let setup_s = secs_since(t);
    let t = Instant::now();
    world.run_to_quiescence(MAX_EVENTS);
    let wall_s = secs_since(t);
    let out = simworld::collect(&spec, &world, |n| n);
    SimRep {
        setup_s,
        wall_s,
        out,
    }
}

/// A traced repetition: the spec it ran, the repetition, what the
/// wrappers recorded, and the CPU seconds the run used.
fn sim_rep_traced(
    sizes: &Sizes,
    spec_of: impl FnOnce() -> SimSpec,
    seed: u64,
) -> (SimSpec, SimRep, Harvest, f64) {
    let t = Instant::now();
    let spec = spec_of();
    let sampled = replay::sampled_servers(&spec);
    let epoch = Instant::now();
    let mut world = simworld::build(&spec, seed, |pid, node| {
        let class = class_of_node(&node);
        let capture = class == Class::Server && sampled.contains(&pid);
        let cap = if capture {
            sizes.span_caps.0
        } else {
            sizes.span_caps.1
        };
        Traced::new(node, class, epoch, capture, cap)
    });
    let setup_s = secs_since(t);
    let (_, wall_s, cpu_s) = timed(|| world.run_to_quiescence(MAX_EVENTS));
    let out = simworld::collect(&spec, &world, |t| t.inner());
    let h = harvest(&mut world);
    let rep = SimRep {
        setup_s,
        wall_s,
        out,
    };
    (spec, rep, h, cpu_s)
}

fn sim_end_to_end(r: &mut Report, sizes: &Sizes, seconds: f64) {
    let name = r.workload.name;
    let k = sizes.sub_worlds;
    let mut tally = Tally::default();
    let mut worlds: Vec<Option<SimColumns>> = vec![None; k];
    while tally.wants_more(seconds, sizes) {
        let i = tally.reps();
        let rep = sim_rep_plain(|| sizes.sim_spec(name), sub_seed(r.seed, i % k));
        let reference = worlds[i % k].get_or_insert_with(|| rep.out.cols.clone());
        let what = format!("rep {i}");
        check_rep(
            &mut r.problems,
            &what,
            &rep.out.verdict,
            &rep.out.cols,
            reference,
        );
        r.attempted += rep.out.cols.attempted;
        r.failed += rep.out.cols.attempted - rep.out.cols.completed;
        tally.record(rep.out.cols.completed, rep.setup_s, rep.wall_s);
    }
    let rss = procfs::peak_rss_mb();
    let worlds: Vec<SimColumns> = worlds.into_iter().flatten().collect();

    let spec = sizes.sim_spec(name);
    if spec.shards > 1 {
        // The sharded queues must replay the sequential world exactly.
        let sequential = SimSpec { shards: 1, ..spec };
        for (j, cols) in worlds.iter().enumerate() {
            let seq = sim_rep_plain(|| sequential.clone(), sub_seed(r.seed, j));
            let what = format!("world {j} on the sequential loop");
            check_rep(
                &mut r.problems,
                &what,
                &seq.out.verdict,
                &seq.out.cols,
                cols,
            );
        }
    }

    let over = |f: fn(&SimColumns) -> f64| median(&worlds.iter().map(f).collect::<Vec<_>>());
    let fewest = worlds.iter().map(|c| c.global_samples).min().unwrap_or(0);
    check_samples(r, sizes, "model_lat_global_p90_ms", 90.0, fewest);
    let mut v = Values::default();
    v.set("model_ops_per_s", over(|c| c.sim_ops_per_s));
    v.set("model_lat_p50_ms", over(|c| c.lat_p50_ms));
    v.set("model_lat_global_p90_ms", over(|c| c.lat_global_p90_ms));
    v.set(
        "wire_bytes_per_op",
        over(|c| c.sent_bytes as f64 / c.completed.max(1) as f64),
    );
    tally.publish(r, &mut v, rss);
    r.metrics = v.end_to_end();
    r.columns = sim_columns(&worlds[0]);
}

fn sim_per_layer(r: &mut Report, sizes: &Sizes, seconds: f64) {
    let name = r.workload.name;
    let seed = sub_seed(r.seed, 0);
    let (mut wall_u, mut wall_t) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut timed = 0.0;
    while timed < seconds || wall_t.is_empty() {
        let plain = sim_rep_plain(|| sizes.sim_spec(name), seed);
        let (spec, traced, h, cpu_s) = sim_rep_traced(sizes, || sizes.sim_spec(name), seed);
        timed += plain.setup_s + plain.wall_s + traced.setup_s + traced.wall_s;
        // Tracing must not change what the world does.
        let what = format!("traced rep {}", wall_t.len());
        check_rep(
            &mut r.problems,
            &what,
            &traced.out.verdict,
            &traced.out.cols,
            &plain.out.cols,
        );
        if let Err(e) = &plain.out.verdict {
            r.problems
                .push(format!("untraced rep {}: {e}", wall_u.len()));
        }
        for cols in [&plain.out.cols, &traced.out.cols] {
            r.attempted += cols.attempted;
            r.failed += cols.attempted - cols.completed;
        }
        wall_u.push(plain.wall_s);
        wall_t.push(traced.wall_s);
        last = Some((spec, traced, h, cpu_s));
    }
    let (spec, traced, h, cpu_s) = last.expect("at least one traced repetition");
    let cols = &traced.out.cols;
    let wall_ns = traced.wall_s * 1e9;
    let mut v = Values::default();

    if spec.shards > 1 {
        // The same shards on worker threads: the multi-core number. Its
        // wall time does not repeat well enough on a small box to be a
        // gated workload (see README), so it rides along here.
        let threads = SimSpec {
            exec: ShardExecution::Threads,
            ..spec.clone()
        };
        let (_, rep, th, _) = sim_rep_traced(sizes, || threads, seed);
        let what = "the same shards on worker threads";
        check_rep(&mut r.problems, what, &rep.out.verdict, &rep.out.cols, cols);
        v.ratio("sim.threads_wall_ratio", rep.wall_s, median(&wall_t));
        v.ratio(
            "sim.threads_self_us_per_event",
            (rep.wall_s * 1e9 - th.callback_ns()) / 1e3,
            rep.out.cols.events as f64,
        );
    }

    // Replay the sampled servers' inbound logs through fresh engines.
    let (mut log, ids) = h.span_log(name, wall_ns as u64);
    let mut rp = ReplayTotals::default();
    let mut sampled_cb = Hist::default();
    for (c, ids) in h.captured.iter().zip(&ids) {
        let spans = Some((&mut log, &ids[..]));
        let (t, delivered) = replay::replay_server(&spec, c.pid, &c.inbound, &c.spans, spans);
        let live = traced.out.delivered_by_server[c.pid];
        if delivered != live {
            r.problems.push(format!(
                "replay of server {} delivered {delivered}, the live engine {live}",
                c.pid
            ));
        }
        rp.merge(&t);
        sampled_cb.merge(&c.callbacks);
    }

    Micro::run(sizes, r.seed).publish(&mut v);
    v.set(
        "overlay.order_build_ms",
        micro::order_build_ms(&spec.matrix),
    );
    let (events, ops) = (cols.events as f64, cols.completed as f64);
    v.ratio("sim.events_per_op", events, ops);
    v.ratio("sim.msgs_per_op", cols.msgs_sent as f64, ops);
    v.set("sim.peak_queue_depth", cols.peak_queue_depth as f64);
    let max_shard = traced.out.events_by_shard.iter().copied().max();
    v.ratio("sim.shard_max_share", max_shard.unwrap_or(0) as f64, events);
    let cb_ns = h.callback_ns();
    v.ratio("sim.self_us_per_event", (wall_ns - cb_ns) / 1e3, events);
    v.set("host.wall_s", traced.wall_s);
    v.set("host.cpu_s", cpu_s);

    let server = h.slot(Slot::Server);
    let client = h.slot(Slot::Client);
    v.set("harness.server_cb_us", server.mean_ns() / 1e3);
    v.set(
        "harness.server_cb_p99_us",
        server.percentile_ns(99.0) as f64 / 1e3,
    );
    v.set("harness.client_cb_us", client.mean_ns() / 1e3);
    let live_ns = sampled_cb.sum_ns() as f64;
    let core_ns = v.engine_calls(&rp.on_client, &rp.on_packet);
    let size_ns = rp.wire_size.sum_ns() as f64;
    let self_ns = live_ns - core_ns - size_ns;
    v.ratio(
        "harness.server_self_us",
        self_ns / 1e3,
        sampled_cb.count() as f64,
    );

    v.ratio(
        "core.history_merge_ns_per_entry",
        rp.merge_ns as f64,
        rp.merge_entries as f64,
    );
    v.ratio(
        "core.delta_entries_per_event",
        cols.entries_in() as f64,
        events,
    );
    v.ratio(
        "core.dup_ratio",
        cols.entries_dup() as f64,
        cols.entries_in() as f64,
    );
    v.ratio("core.suppressed_per_event", cols.suppressed as f64, events);
    v.ratio("core.adverts_per_op", cols.adverts_sent as f64, ops);
    v.set("core.history_verts_end", cols.history_verts_end as f64);
    v.set("core.backlog_end", cols.backlog_end as f64);

    v.set("wire.size_ns_per_msg", rp.wire_size.mean_ns());
    let codec_bytes = rp.codec_bytes as f64;
    v.ratio("wire.encode_ns_per_byte", rp.encode_ns as f64, codec_bytes);
    v.ratio("wire.decode_ns_per_byte", rp.decode_ns as f64, codec_bytes);
    v.ratio("wire.bytes_per_msg", codec_bytes, rp.codec_msgs as f64);

    v.set("model.lat_p99_ms", cols.lat_p99_ms);
    v.set("model.lat_global_p99_ms", cols.lat_global_p99_ms);
    v.set("model.lat_samples", cols.window_samples as f64);
    v.set("model.lat_global_samples", cols.global_samples as f64);

    // Server callbacks split into engine, sizing and the actor's own
    // bookkeeping in the proportions the sampled servers show.
    let scale = if live_ns > 0.0 {
        server.sum_ns() as f64 / live_ns
    } else {
        0.0
    };
    v.shares(
        wall_ns,
        &[
            ("share.sim_self_pct", wall_ns - cb_ns),
            ("share.core_pct", core_ns * scale),
            ("share.wire_size_pct", size_ns * scale),
            ("share.harness_server_self_pct", self_ns * scale),
            ("share.client_cb_pct", client.sum_ns() as f64),
        ],
    );
    r.columns = sim_columns(cols);
    finish_per_layer(r, v, wall_u, wall_t, &log);
}

// ---------------------------------------------------------------------------
// repl12_crash
// ---------------------------------------------------------------------------

struct ReplRep {
    setup_s: f64,
    wall_s: f64,
    cols: ReplColumns,
    verdict: Result<(), String>,
}

fn repl_rep_plain(sizes: &Sizes, seed: u64) -> ReplRep {
    let t = Instant::now();
    let spec = sizes.repl_spec();
    let schedule = spec.schedule();
    let mut world = replworld::build(&spec, seed, |_, node| node);
    let setup_s = secs_since(t);
    let t = Instant::now();
    run_schedule(&mut world, &schedule, MAX_EVENTS);
    let wall_s = secs_since(t);
    let out = replworld::collect(&spec, &world, |n| n);
    ReplRep {
        setup_s,
        wall_s,
        cols: out.cols,
        verdict: out.verdict,
    }
}

/// What the traced replicated pass adds to a [`ReplRep`].
struct ReplTrace {
    spec: ReplSpec,
    h: Harvest,
    cpu_s: f64,
    elections: u64,
    failover_ms: Option<f64>,
    actions_fired: usize,
}

fn repl_rep_traced(sizes: &Sizes, seed: u64) -> (ReplRep, ReplTrace) {
    let t = Instant::now();
    let spec = sizes.repl_spec();
    let epoch = Instant::now();
    let mut world = replworld::build(&spec, seed, |_, node| {
        let class = class_of_repl(&node);
        Traced::new(node, class, epoch, false, sizes.span_caps.1 * 8)
    });
    let mut adversary = RecordingAdversary::new(spec.schedule());
    let setup_s = secs_since(t);
    let (run, wall_s, cpu_s) = timed(|| run_adversary(&mut world, &mut adversary, MAX_EVENTS));
    let out = replworld::collect(&spec, &world, |t| t.inner());
    // Election counts live inside `ReplicatedGroup`; its public
    // `export_metrics` into a registry of our own is the way to read them.
    let tel = Telemetry::enabled();
    for pid in 0..world.len() {
        if let ReplNode::Replica(rep) = world.actor(pid).inner() {
            rep.export_metrics(&tel);
        }
    }
    let elections = tel
        .snapshot()
        .counters
        .iter()
        .filter(|(k, _)| k.ends_with(".elections"))
        .map(|(_, n)| *n)
        .sum();
    let h = harvest(&mut world);
    let failover_ms = adversary.failover_ms(spec.victim_group(), spec.crash_ms);
    let rep = ReplRep {
        setup_s,
        wall_s,
        cols: out.cols,
        verdict: out.verdict,
    };
    let trace = ReplTrace {
        spec,
        h,
        cpu_s,
        elections,
        failover_ms,
        actions_fired: run.actions.len(),
    };
    (rep, trace)
}

fn repl_end_to_end(r: &mut Report, sizes: &Sizes, seconds: f64) {
    let k = sizes.sub_worlds;
    let mut tally = Tally::default();
    let mut worlds: Vec<Option<ReplColumns>> = vec![None; k];
    while tally.wants_more(seconds, sizes) {
        let i = tally.reps();
        let rep = repl_rep_plain(sizes, sub_seed(r.seed, i % k));
        let reference = worlds[i % k].get_or_insert_with(|| rep.cols.clone());
        let what = format!("rep {i}");
        check_rep(&mut r.problems, &what, &rep.verdict, &rep.cols, reference);
        r.attempted += rep.cols.attempted;
        r.failed += rep.cols.attempted - rep.cols.completed;
        tally.record(rep.cols.completed, rep.setup_s, rep.wall_s);
    }
    let rss = procfs::peak_rss_mb();
    let worlds: Vec<ReplColumns> = worlds.into_iter().flatten().collect();

    // `ReplicatedActor` keeps no byte counters, so each world's traffic is
    // sized by one untimed pass with the wrapper on — which must be the
    // same run.
    let mut bytes_per_op = Vec::new();
    for (j, cols) in worlds.iter().enumerate() {
        let (sized, trace) = repl_rep_traced(sizes, sub_seed(r.seed, j));
        let what = format!("sizing pass of world {j}");
        check_rep(&mut r.problems, &what, &sized.verdict, &sized.cols, cols);
        bytes_per_op.push(trace.h.recv_bytes as f64 / cols.completed.max(1) as f64);
    }

    let over = |f: fn(&ReplColumns) -> f64| median(&worlds.iter().map(f).collect::<Vec<_>>());
    let fewest = worlds.iter().map(|c| c.window_samples).min().unwrap_or(0);
    check_samples(r, sizes, "model_lat_global_p90_ms", 90.0, fewest);
    let mut v = Values::default();
    v.set("model_ops_per_s", over(|c| c.sim_ops_per_s));
    v.set("model_lat_p50_ms", over(|c| c.lat_p50_ms));
    v.set("model_lat_global_p90_ms", over(|c| c.lat_p90_ms));
    v.set("wire_bytes_per_op", median(&bytes_per_op));
    tally.publish(r, &mut v, rss);
    r.metrics = v.end_to_end();
    r.columns = repl_columns(&worlds[0]);
}

fn repl_per_layer(r: &mut Report, sizes: &Sizes, seconds: f64) {
    let seed = sub_seed(r.seed, 0);
    let (mut wall_u, mut wall_t) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut timed = 0.0;
    while timed < seconds || wall_t.is_empty() {
        let plain = repl_rep_plain(sizes, seed);
        let (traced, trace) = repl_rep_traced(sizes, seed);
        timed += plain.setup_s + plain.wall_s + traced.setup_s + traced.wall_s;
        let what = format!("traced rep {}", wall_t.len());
        check_rep(
            &mut r.problems,
            &what,
            &traced.verdict,
            &traced.cols,
            &plain.cols,
        );
        if let Err(e) = &plain.verdict {
            r.problems
                .push(format!("untraced rep {}: {e}", wall_u.len()));
        }
        for cols in [&plain.cols, &traced.cols] {
            r.attempted += cols.attempted;
            r.failed += cols.attempted - cols.completed;
        }
        wall_u.push(plain.wall_s);
        wall_t.push(traced.wall_s);
        last = Some((traced, trace));
    }
    let (traced, trace) = last.expect("at least one traced repetition");
    let (cols, h) = (&traced.cols, &trace.h);
    let wall_ns = traced.wall_s * 1e9;
    let (log, _) = h.span_log("repl12_crash", wall_ns as u64);

    let mut v = Values::default();
    Micro::run(sizes, r.seed).publish(&mut v);
    v.set(
        "overlay.order_build_ms",
        micro::order_build_ms(&trace.spec.matrix),
    );
    let (events, ops) = (cols.events as f64, cols.completed as f64);
    v.ratio("sim.events_per_op", events, ops);
    v.ratio("sim.msgs_per_op", cols.msgs_sent as f64, ops);
    v.set("sim.peak_queue_depth", cols.peak_queue_depth as f64);
    v.set("sim.shard_max_share", 1.0);
    let cb_ns = h.callback_ns();
    v.ratio("sim.self_us_per_event", (wall_ns - cb_ns) / 1e3, events);
    v.set("host.wall_s", traced.wall_s);
    v.set("host.cpu_s", trace.cpu_s);

    let repl_slots = [
        ("harness.repl_cb_us.paxos", Slot::ReplPaxos),
        ("harness.repl_cb_us.ble", Slot::ReplBle),
        ("harness.repl_cb_us.groupmsg", Slot::ReplGroupMsg),
        ("harness.repl_cb_us.client", Slot::ReplClient),
        ("harness.repl_cb_us.snapshot", Slot::ReplSnapshot),
        ("harness.repl_timer_cb_us", Slot::ReplTimer),
    ];
    let mut repl_ns = 0.0;
    for (metric, slot) in repl_slots {
        v.set(metric, h.slot(slot).mean_ns() / 1e3);
        repl_ns += h.slot(slot).sum_ns() as f64;
    }
    let client = h.slot(Slot::Client);
    v.set("harness.client_cb_us", client.mean_ns() / 1e3);

    // The engines sit behind Paxos here: what they are fed is the
    // committed command sequence, which no wrapper sees, so the engine
    // is counted, not timed.
    v.ratio(
        "core.delta_entries_per_event",
        cols.entries_in as f64,
        events,
    );
    v.ratio(
        "core.dup_ratio",
        cols.entries_dup as f64,
        cols.entries_in as f64,
    );
    v.set("core.history_verts_end", cols.history_verts_end as f64);
    v.set("core.backlog_end", cols.backlog_end as f64);

    v.set("smr.elections", trace.elections as f64);
    v.set("smr.snapshot_installs", cols.snapshot_installs as f64);
    v.set("smr.catch_up_bytes", h.snapshot_bytes as f64);
    match trace.failover_ms {
        Some(ms) => v.set("chaos.failover_sim_ms", ms),
        None => r
            .problems
            .push("no replica of the crashed group took over".into()),
    }
    v.set("chaos.outage_sim_ms", cols.outage_ms);
    v.set("chaos.actions_fired", trace.actions_fired as f64);
    v.set("chaos.dropped_msgs", cols.dropped as f64);

    v.set("model.lat_p99_ms", cols.lat_p99_ms);
    v.set("model.lat_global_p99_ms", cols.lat_p99_ms);
    v.set("model.lat_samples", cols.window_samples as f64);
    v.set("model.lat_global_samples", cols.window_samples as f64);

    v.shares(
        wall_ns,
        &[
            ("share.sim_self_pct", wall_ns - cb_ns),
            ("share.harness_repl_pct", repl_ns),
            ("share.client_cb_pct", client.sum_ns() as f64),
        ],
    );
    r.columns = repl_columns(cols);
    finish_per_layer(r, v, wall_u, wall_t, &log);
}

// ---------------------------------------------------------------------------
// tcp3
// ---------------------------------------------------------------------------

struct TcpRep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    out: Tcp3Outcome,
}

fn tcp_rep(sizes: &Sizes, seed: u64, probe: Option<&mut Tcp3Probe>) -> Result<TcpRep, String> {
    let t = Instant::now();
    let mut world =
        tcp3::setup(&sizes.tcp, seed).map_err(|e| format!("loopback set-up failed: {e}"))?;
    let setup_s = secs_since(t);
    let (out, wall_s, cpu_s) = timed(|| tcp3::run(&mut world, &sizes.tcp, probe));
    // Dropping the world joins every thread the runtimes spawned.
    drop(world);
    Ok(TcpRep {
        setup_s,
        wall_s,
        cpu_s,
        out,
    })
}

fn tcp_end_to_end(r: &mut Report, sizes: &Sizes, seconds: f64) {
    let mut tally = Tally::default();
    let (mut p50s, mut p90s, mut bytes_per_op) = (Vec::new(), Vec::new(), Vec::new());
    while tally.wants_more(seconds, sizes) {
        let i = tally.reps();
        let rep = match tcp_rep(sizes, sub_seed(r.seed, i % sizes.sub_worlds), None) {
            Ok(rep) => rep,
            Err(e) => {
                r.problems.push(e);
                break;
            }
        };
        if let Err(e) = &rep.out.verdict {
            r.problems.push(format!("rep {i}: {e}"));
        }
        r.attempted += rep.out.attempted;
        r.failed += rep.out.attempted - rep.out.completed;
        bytes_per_op.push(rep.out.frame_bytes as f64 / rep.out.completed.max(1) as f64);
        tally.record(rep.out.completed, rep.setup_s, rep.wall_s);
        let (_, p50, p90, _) = simworld::latency_summary(rep.out.latencies_ms);
        p50s.push(p50);
        p90s.push(p90);
    }
    let mut v = Values::default();
    // No model clock here: the wall clock is the model.
    v.set("model_ops_per_s", median(&tally.host_ops));
    v.set("model_lat_p50_ms", median(&p50s));
    v.set("model_lat_global_p90_ms", median(&p90s));
    v.set("wire_bytes_per_op", median(&bytes_per_op));
    tally.publish(r, &mut v, procfs::peak_rss_mb());
    r.metrics = v.end_to_end();
    r.reps.extend([
        ("model_lat_p50_ms", p50s),
        ("model_lat_global_p90_ms", p90s),
        ("wire_bytes_per_op", bytes_per_op),
    ]);
}

fn tcp_per_layer(r: &mut Report, sizes: &Sizes, seconds: f64) {
    let seed = sub_seed(r.seed, 0);
    let (mut wall_u, mut wall_t) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut timed = 0.0;
    while timed < seconds || wall_t.is_empty() {
        let plain = tcp_rep(sizes, seed, None);
        let mut probe = Tcp3Probe::new(Instant::now(), 30_000);
        let traced = tcp_rep(sizes, seed, Some(&mut probe));
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (Err(e), _) | (_, Err(e)) => {
                r.problems.push(e);
                break;
            }
        };
        timed += plain.setup_s + plain.wall_s + traced.setup_s + traced.wall_s;
        for (what, rep) in [("untraced", &plain), ("traced", &traced)] {
            if let Err(e) = &rep.out.verdict {
                r.problems.push(format!("{what} rep {}: {e}", wall_t.len()));
            }
            r.attempted += rep.out.attempted;
            r.failed += rep.out.attempted - rep.out.completed;
        }
        wall_u.push(plain.wall_s);
        wall_t.push(traced.wall_s);
        last = Some((traced, probe));
    }
    let mut v = Values::default();
    Micro::run(sizes, r.seed).publish(&mut v);
    let Some((traced, mut probe)) = last else {
        r.metrics = v.per_layer();
        return;
    };
    let mut out = traced.out;
    let wall_ns = traced.wall_s * 1e9;
    probe.spans.root("tcp3", wall_ns as u64);
    v.set("host.wall_s", traced.wall_s);
    v.set("host.cpu_s", traced.cpu_s);

    let core_ns = v.engine_calls(&probe.on_client, &probe.on_packet);
    let handled = probe.on_packet.iter().map(Hist::count).sum::<u64>() + probe.on_client.count();
    v.ratio(
        "core.delta_entries_per_event",
        out.entries_in as f64,
        handled as f64,
    );
    v.ratio(
        "core.dup_ratio",
        out.entries_dup as f64,
        out.entries_in as f64,
    );
    v.set("core.history_verts_end", out.history_verts_end as f64);
    v.set("core.backlog_end", out.backlog_end as f64);

    let (enc_ns, dec_ns) = (probe.encode.sum_ns() as f64, probe.decode.sum_ns() as f64);
    v.ratio("wire.encode_ns_per_byte", enc_ns, probe.encode_bytes as f64);
    v.ratio("wire.decode_ns_per_byte", dec_ns, probe.decode_bytes as f64);
    v.ratio(
        "wire.bytes_per_msg",
        probe.encode_bytes as f64,
        out.frames as f64,
    );

    v.set("net.send_ns", probe.send.mean_ns());
    v.set(
        "net.transit_p50_us",
        probe.transit.percentile_ns(50.0) as f64 / 1e3,
    );
    v.ratio("net.frames_per_op", out.frames as f64, out.completed as f64);
    v.ratio(
        "net.bytes_per_frame",
        out.frame_bytes as f64,
        out.frames as f64,
    );
    let latencies = std::mem::take(&mut out.latencies_ms);
    let (samples, _, _, p99_ms) = simworld::latency_summary(latencies);
    v.set("net.lat_p99_us", p99_ms * 1e3);
    v.set("model.lat_p99_ms", p99_ms);
    v.set("model.lat_global_p99_ms", p99_ms);
    v.set("model.lat_samples", samples as f64);
    v.set("model.lat_global_samples", samples as f64);

    // Shares of the driver thread's time; the rest is polling, yielding
    // and waiting on the runtimes' own threads.
    v.shares(
        wall_ns,
        &[
            ("share.core_pct", core_ns),
            ("share.wire_codec_pct", enc_ns + dec_ns),
            ("share.net_pct", probe.send.sum_ns() as f64),
        ],
    );
    finish_per_layer(r, v, wall_u, wall_t, &probe.spans);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_a_pure_function_and_do_not_collide() {
        assert_eq!(sub_seed(7, 2), sub_seed(7, 2));
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64u64 {
            for k in 0..4 {
                assert!(seen.insert(sub_seed(seed, k)), "seed {seed} world {k}");
            }
        }
        // Far enough apart that `seed + client` streams never overlap.
        let all: Vec<u64> = seen.into_iter().collect();
        assert!(all.windows(2).all(|w| w[1] - w[0] > 1_000_000));
    }

    #[test]
    fn shares_sum_to_accounted() {
        let mut v = Values::default();
        v.shares(
            1_000.0,
            &[("share.core_pct", 250.0), ("share.net_pct", 500.0)],
        );
        assert_eq!(v.0["share.core_pct"], 25.0);
        assert_eq!(v.0["share.net_pct"], 50.0);
        assert_eq!(v.0["share.accounted_pct"], 75.0);
        // Unset per-layer metrics read as 0; unset end-to-end ones as None.
        assert!(v.per_layer().iter().all(|(_, _, x)| x.is_some()));
        assert!(v.end_to_end().iter().all(|(_, _, x)| x.is_none()));
    }

    /// Smoke size end to end: every workload, both passes, correct, and
    /// every metric in the spec present with a finite value.
    #[test]
    fn smoke_runs_every_workload_both_ways() {
        let sizes = Sizes::smoke();
        for w in &crate::spec::WORKLOADS {
            for trace in [false, true] {
                let r = run(w, &sizes, 1, 0.0, trace);
                assert!(r.correct(), "{} trace={trace}: {:?}", w.name, r.problems);
                assert!(r.attempted > 0 && r.failed == 0, "{}", w.name);
                let want = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(r.metrics.len(), want);
                for (name, _, value) in &r.metrics {
                    let x = value.unwrap_or_else(|| panic!("{} {name} unmeasured", w.name));
                    assert!(x.is_finite(), "{} {name} = {x}", w.name);
                    if !trace {
                        assert!(x > 0.0, "{} {name} must never be 0", w.name);
                    }
                }
                assert_eq!(r.trace_json.is_some(), trace);
            }
        }
    }
}
