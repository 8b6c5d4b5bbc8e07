//! `repl12_crash`: twelve FlexCast groups on the AWS matrix, each a quorum
//! of three Paxos replicas, with the rank-0 group's initial leader crashed
//! mid-run and recovered later — the one workload where Paxos
//! accept/commit, BLE heartbeats, retransmission and failover execute.
//!
//! As in [`crate::simworld`], the world is assembled from the public actor
//! constructors (`replicated::build_world` returns a concrete
//! `World<NetMsg, ReplNode>`, which leaves no room for the traced
//! wrapper); a unit test pins the assembly to `build_world` + `collect`.

use crate::simworld::{latency_summary, FLUSH_MS};
use flexcast_chaos::{scenarios, Adversary, FaultCtx, FaultSchedule};
use flexcast_harness::replicated::{
    group_of, replica_pid, ReplClientActor, ReplFlushActor, ReplNode, ReplicatedActor,
};
use flexcast_harness::{checker, DeliveryEvent, NetMsg, ReplicatedConfig};
use flexcast_overlay::{regions, CDagOrder, LatencyMatrix};
use flexcast_sim::{Actor, LinkModel, Observation, ProcessId, SimTime, World};
use flexcast_types::{ClientId, DestSet, GroupId, MsgId};
use std::collections::BTreeMap;

/// Everything that defines the replicated world except the seed.
#[derive(Clone, Debug)]
pub struct ReplSpec {
    /// Inter-site latency matrix (one site per group).
    pub matrix: LatencyMatrix,
    /// C-DAG rank order.
    pub order: CDagOrder,
    /// Replicas per group.
    pub rf: u32,
    /// Closed-loop clients.
    pub n_clients: usize,
    /// All timers stop here; the run then quiesces.
    pub stop_at: SimTime,
    /// When the victim crashes, simulated ms.
    pub crash_ms: f64,
    /// How long it stays down, simulated ms.
    pub down_ms: f64,
}

impl ReplSpec {
    /// Twelve AWS regions, nearest-neighbour order from group 0, rf = 3.
    pub fn aws12(n_clients: usize, stop_at: SimTime, crash_ms: f64, down_ms: f64) -> Self {
        let matrix = regions::aws12();
        let order = CDagOrder::nearest_neighbor_chain(&matrix, GroupId(0));
        ReplSpec {
            matrix,
            order,
            rf: 3,
            n_clients,
            stop_at,
            crash_ms,
            down_ms,
        }
    }

    /// The harness configuration of this world: `ReplicatedConfig::small`
    /// with the benchmark's population, order and GC flushing laid over.
    pub fn to_config(&self, seed: u64) -> ReplicatedConfig {
        let mut cfg = ReplicatedConfig::small(self.matrix.len() as u16, self.rf, seed);
        cfg.order = self.order.clone();
        cfg.n_clients = self.n_clients;
        // Clients stop with the timers, never by count: like the plain
        // worlds, the run is bounded in simulated time.
        cfg.msgs_per_client = u32::MAX;
        cfg.stop_at = self.stop_at;
        cfg.flush_period = Some(SimTime::from_ms(FLUSH_MS));
        // The flusher stops with the other timers; never by count.
        cfg.n_flushes = u32::MAX;
        cfg.shards = 1;
        cfg
    }

    /// The group whose leader is shot: the one holding rank 0, which is
    /// the entry point of every flush and of the most multicasts.
    pub fn victim_group(&self) -> GroupId {
        self.order.node_at(GroupId(0))
    }

    /// The crashed process: replica 0 of the victim group, which the
    /// seeded ballots make the initial leader.
    pub fn victim_pid(&self) -> ProcessId {
        replica_pid(self.victim_group(), 0, self.rf)
    }

    /// Crash-then-recover of the victim.
    pub fn schedule(&self) -> FaultSchedule {
        scenarios::crash_recover(self.victim_pid(), self.crash_ms, self.down_ms)
    }
}

/// Builds the replicated world, passing every actor through `wrap`.
/// Layout and seeding follow `replicated::build_world` line for line.
pub fn build<A, F>(spec: &ReplSpec, seed: u64, mut wrap: F) -> World<NetMsg, A>
where
    A: Actor<NetMsg>,
    F: FnMut(ProcessId, ReplNode) -> A,
{
    let cfg = spec.to_config(seed);
    let mut actors: Vec<A> = Vec::new();
    let mut sites: Vec<GroupId> = Vec::new();
    let mut push = |node: ReplNode, site: GroupId, actors: &mut Vec<A>| {
        let pid = actors.len();
        actors.push(wrap(pid, node));
        sites.push(site);
    };
    for g in (0..cfg.n_groups).map(GroupId) {
        for r in 0..cfg.rf {
            push(
                ReplNode::Replica(ReplicatedActor::new(g, r, &cfg)),
                g,
                &mut actors,
            );
        }
    }
    for c in 0..cfg.n_clients {
        let client = ReplClientActor::new(
            ClientId(c as u32),
            cfg.rf,
            cfg.order.clone(),
            cfg.msgs_per_client,
            cfg.max_dst,
            cfg.payload_bytes,
            cfg.retry,
            cfg.stop_at,
            cfg.seed.wrapping_add(1).wrapping_add(c as u64),
        );
        let site = GroupId((c % cfg.n_groups as usize) as u16);
        push(ReplNode::Client(client), site, &mut actors);
    }
    let flusher = ReplFlushActor::new(
        ClientId(cfg.n_clients as u32),
        cfg.rf,
        cfg.order.clone(),
        cfg.n_flushes,
        cfg.flush_period.expect("set by to_config"),
        cfg.stop_at,
    );
    push(
        ReplNode::Flusher(flusher),
        cfg.order.node_at(GroupId(0)),
        &mut actors,
    );

    let link = LinkModel::new(spec.matrix.clone(), sites, cfg.jitter_ms);
    let mut world = World::new(actors, link, cfg.seed);
    world.set_shards(cfg.shards);
    world
}

/// Replays the spec's schedule like `run_schedule` does, but subscribes
/// to the observation plane to log leadership changes — the traced pass's
/// view of the failover. Probes never perturb the execution, so the run
/// is event-for-event the untraced one.
pub struct RecordingAdversary {
    schedule: FaultSchedule,
    /// Every `LeaderElected` seen: `(group, replica, at)`.
    pub elected: Vec<(GroupId, u32, SimTime)>,
}

impl RecordingAdversary {
    /// Wraps `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        RecordingAdversary {
            schedule,
            elected: Vec::new(),
        }
    }

    /// Crash instant → the first `LeaderElected` in `group` after it,
    /// simulated ms. `None` if nobody took over.
    pub fn failover_ms(&self, group: GroupId, crash_ms: f64) -> Option<f64> {
        self.elected
            .iter()
            .filter(|(g, _, at)| *g == group && at.as_ms() > crash_ms)
            .map(|(_, _, at)| at.as_ms() - crash_ms)
            .min_by(f64::total_cmp)
    }
}

impl Adversary for RecordingAdversary {
    fn on_start(&mut self, ctx: &mut FaultCtx) {
        for (t, ev) in self.schedule.sorted_events() {
            ctx.at(t, ev.clone());
        }
    }

    fn on_observation(&mut self, obs: &Observation, _ctx: &mut FaultCtx) {
        if let Observation::LeaderElected {
            group, replica, at, ..
        } = obs
        {
            self.elected.push((*group, *replica, *at));
        }
    }
}

/// The exactly-repeating columns of a replicated run.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplColumns {
    /// Simulator events processed.
    pub events: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages lost to the crashed replica.
    pub dropped: u64,
    /// Deepest event queue.
    pub peak_queue_depth: u64,
    /// Multicasts issued by clients.
    pub attempted: u64,
    /// Multicasts acknowledged by every destination group.
    pub completed: u64,
    /// Completion samples (every completed multicast; the client keeps no
    /// issue times to trim a window by).
    pub window_samples: u64,
    /// Median completion latency, simulated ms (every multicast here
    /// addresses two or more groups).
    pub lat_p50_ms: f64,
    /// p90 completion latency, simulated ms.
    pub lat_p90_ms: f64,
    /// p99 completion latency, simulated ms.
    pub lat_p99_ms: f64,
    /// Completions per simulated second of the run (`stop_at`): clients
    /// issue until the timers stop, so the whole run is the window.
    pub sim_ops_per_s: f64,
    /// Σ `MergeStats` over every replica's engine.
    pub entries_in: u64,
    /// Duplicates among them.
    pub entries_dup: u64,
    /// Σ history vertices held at quiescence.
    pub history_verts_end: u64,
    /// Σ engine backlog at quiescence.
    pub backlog_end: u64,
    /// Snapshots installed by lagging replicas.
    pub snapshot_installs: u64,
    /// Crash instant → first delivery at the crashed group afterwards,
    /// simulated ms (0 if the group never delivered again).
    pub outage_ms: f64,
}

/// What [`collect`] returns.
#[derive(Clone, Debug)]
pub struct ReplOutcome {
    /// The exactly-repeating columns.
    pub cols: ReplColumns,
    /// Safety + lockstep verdict; `Err` carries the reason.
    pub verdict: Result<(), String>,
}

/// Reads a quiesced replicated world back. Mirrors `replicated::collect`
/// (registry, per-group trace from the most advanced replica log,
/// lockstep) and adds what the benchmark reports on top.
pub fn collect<A, F>(spec: &ReplSpec, world: &World<NetMsg, A>, node_of: F) -> ReplOutcome
where
    A: Actor<NetMsg>,
    F: Fn(&A) -> &ReplNode,
{
    let n_groups = spec.matrix.len();
    let stats = world.stats();
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    let mut replica_logs: Vec<Vec<Vec<MsgId>>> = vec![Vec::new(); n_groups];
    let mut latencies: Vec<f64> = Vec::new();
    let crash_at = SimTime::from_ms(spec.crash_ms);
    let victim = spec.victim_group();
    let mut first_after_crash: Option<SimTime> = None;
    let mut c = ReplColumns {
        events: stats.events,
        msgs_sent: stats.sent_messages,
        dropped: stats.dropped_messages,
        peak_queue_depth: stats.peak_queue_depth as u64,
        attempted: 0,
        completed: 0,
        window_samples: 0,
        lat_p50_ms: 0.0,
        lat_p90_ms: 0.0,
        lat_p99_ms: 0.0,
        sim_ops_per_s: 0.0,
        entries_in: 0,
        entries_dup: 0,
        history_verts_end: 0,
        backlog_end: 0,
        snapshot_installs: 0,
        outage_ms: 0.0,
    };
    for pid in 0..world.len() {
        match node_of(world.actor(pid)) {
            ReplNode::Replica(r) => {
                let g = group_of(pid, spec.rf);
                replica_logs[g.index()].push(r.state().delivery_log().to_vec());
                let engine = r.state().engine();
                c.entries_in += engine.merge_stats().entries_in();
                c.entries_dup += engine.merge_stats().entries_dup();
                c.history_verts_end += engine.history().len() as u64;
                c.backlog_end += engine.backlog() as u64;
                c.snapshot_installs += r.snapshot_installs;
                if g == victim {
                    let after = r
                        .delivery_events
                        .iter()
                        .map(|d| d.at)
                        .filter(|&at| at > crash_at)
                        .min();
                    first_after_crash = match (first_after_crash, after) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
            }
            ReplNode::Client(cl) => {
                registry.extend(cl.issued.iter().copied());
                c.attempted += cl.issued.len() as u64;
                c.completed += cl.completed;
                latencies.extend(cl.completion_ms.iter().copied());
            }
            ReplNode::Flusher(f) => registry.extend(f.issued.iter().copied()),
        }
    }
    (c.window_samples, c.lat_p50_ms, c.lat_p90_ms, c.lat_p99_ms) = latency_summary(latencies);
    c.sim_ops_per_s = c.completed as f64 / spec.stop_at.as_secs();
    c.outage_ms = first_after_crash.map_or(0.0, |at| at.since(crash_at).as_ms());

    let trace: Vec<Vec<DeliveryEvent>> = replica_logs
        .iter()
        .enumerate()
        .map(|(g, logs)| {
            let longest = logs.iter().max_by_key(|l| l.len());
            longest
                .into_iter()
                .flatten()
                .map(|&id| DeliveryEvent {
                    node: GroupId(g as u16),
                    id,
                    at: SimTime::ZERO,
                })
                .collect()
        })
        .collect();
    let mut report = checker::check(&registry, &trace);
    report.lockstep_violations = checker::check_lockstep(&replica_logs);
    let verdict = if report.safety_ok() {
        Ok(())
    } else {
        Err(format!(
            "checker: integrity={} prefix={} lockstep={} acyclic={}",
            report.integrity_violations.len(),
            report.prefix_violations.len(),
            report.lockstep_violations.len(),
            report.acyclic
        ))
    };
    ReplOutcome { cols: c, verdict }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simworld::MAX_EVENTS;
    use crate::traced::{Class, Traced};
    use flexcast_chaos::{run_adversary, run_schedule};
    use flexcast_harness::replicated::{build_world, collect as harness_collect};
    use std::time::Instant;

    fn small() -> ReplSpec {
        let mut s = ReplSpec::aws12(6, SimTime::from_secs(3), 600.0, 900.0);
        // Three groups keep the test fast; the assembly is size-agnostic.
        let mut m = LatencyMatrix::zero(3);
        for a in 0..3 {
            m.set_local(a, 0.5);
            for b in (a + 1)..3 {
                m.set_rtt(a, b, 20.0 + 10.0 * ((a + b) % 3) as f64);
            }
        }
        s.order = CDagOrder::nearest_neighbor_chain(&m, GroupId(0));
        s.matrix = m;
        s
    }

    /// `Traced<ReplNode>` assembled here and `build_world` + `collect`
    /// from the harness are the same world under the same schedule.
    #[test]
    fn benchmark_replicated_world_is_the_harness_world() {
        let spec = small();
        let seed = 11;
        let epoch = Instant::now();
        let mut mine = build(&spec, seed, |_, node| {
            let class = match node {
                ReplNode::Replica(_) => Class::Replica,
                ReplNode::Client(_) => Class::Client,
                ReplNode::Flusher(_) => Class::Flusher,
            };
            Traced::new(node, class, epoch, false, 8)
        });
        let mut adv = RecordingAdversary::new(spec.schedule());
        let run = run_adversary(&mut mine, &mut adv, MAX_EVENTS);
        let got = collect(&spec, &mine, |t| t.inner());
        got.verdict.as_ref().expect("safe run");
        assert_eq!(run.actions.len(), 2, "crash and recover fired");

        let cfg = spec.to_config(seed);
        let mut theirs = build_world(&cfg, &spec.matrix);
        run_schedule(&mut theirs, &spec.schedule(), MAX_EVENTS);
        let want = harness_collect(&cfg, &theirs);
        assert!(want.check.safety_ok());
        assert_eq!(got.cols.events, want.events);
        assert_eq!(got.cols.dropped, want.dropped);
        assert_eq!(got.cols.completed, want.completed);
        assert_eq!(got.cols.attempted as usize, want.issued);
        assert_eq!(got.cols.window_samples as usize, want.latency.len());
        assert_eq!(got.cols.lat_p50_ms, want.latency.percentile(50.0).unwrap());
        assert_eq!(got.cols.lat_p90_ms, want.latency.percentile(90.0).unwrap());
        assert_eq!(got.cols.lat_p99_ms, want.latency.percentile(99.0).unwrap());
        assert!(got.cols.dropped > 0, "the crashed replica lost traffic");
        assert!(got.cols.outage_ms > 0.0, "the group delivered again");
        assert!(
            adv.failover_ms(spec.victim_group(), spec.crash_ms)
                .is_some(),
            "a sibling took over"
        );
        let recv: u64 = (0..mine.len()).map(|p| mine.actor(p).recv_bytes).sum();
        assert!(recv > 0, "replica traffic was sized");
    }
}
