//! Fault sweep: delivery latency and availability of *replicated*
//! FlexCast groups under scripted failures, sweeping crash timing ×
//! partition duration × replication factor — plus a reactive-adversary
//! axis sweeping the leader hunter's kill delay.
//!
//! Every scripted cell runs the same closed-loop multicast workload on
//! the deterministic simulator while a `flexcast-chaos` schedule crashes
//! the rank-0 group's initial Paxos leader and (optionally) partitions
//! group 1 from group 2. With `--adversary leader-hunter`, additional
//! cells drive `scenarios::leader_hunter` through `run_adversary`: the
//! adversary crashes whichever replica *currently* leads group 0 a fixed
//! delay after each failover — a state-triggered scenario no schedule can
//! script — and each cell prints the fired-action trace, which replays
//! the run as a plain schedule. `--adversary quorum-cutter` instead
//! drives `scenarios::quorum_cutter` — asymmetric partitions that deafen
//! one minority sibling to each new leader — while sweeping the ballot
//! leader election's heartbeat timing (`hb_delay`) and the snapshot
//! catch-up threshold (`catch_up_lag`), both plain `ReplicatedConfig`
//! fields. Reported per cell: availability (completed ⁄ issued by the end
//! of the run), completion-latency percentiles, and the drop count.
//! Safety — integrity, prefix/acyclic order, replica lockstep — is
//! *asserted*, not reported: any violation aborts the sweep.
//!
//! ```sh
//! cargo run --release --bin fault_sweep            # full scripted sweep
//! cargo run --release --bin fault_sweep -- --smoke # CI-sized: 1 cell/rf
//! cargo run --release --bin fault_sweep -- --smoke --adversary leader-hunter
//! cargo run --release --bin fault_sweep -- --smoke --adversary quorum-cutter \
//!     --actions-out cutter-actions.txt
//! ```

use flexcast_chaos::{run_adversary, run_schedule, scenarios, FaultSchedule};
use flexcast_harness::replicated::{build_world, collect, replica_pid, ReplicatedConfig};
use flexcast_overlay::LatencyMatrix;
use flexcast_sim::{ProcessId, SimTime};
use flexcast_telemetry::Telemetry;
use flexcast_types::GroupId;
use std::collections::BTreeSet;

const MAX_EVENTS: u64 = 200_000_000;

fn matrix(n: usize) -> LatencyMatrix {
    let mut m = LatencyMatrix::zero(n);
    for a in 0..n {
        m.set_local(a, 0.5);
        for b in (a + 1)..n {
            m.set_rtt(a, b, 24.0 + 8.0 * ((a * b) % 3) as f64);
        }
    }
    m
}

fn group_pids(g: u16, rf: u32) -> Vec<ProcessId> {
    (0..rf).map(|r| replica_pid(GroupId(g), r, rf)).collect()
}

struct Cell {
    rf: u32,
    crash_ms: f64,
    part_ms: f64,
}

fn run_cell(cell: &Cell, smoke: bool, telemetry: Telemetry) {
    let n_groups: u16 = 3;
    let mut cfg = ReplicatedConfig::small(n_groups, cell.rf, 40 + cell.rf as u64);
    cfg.telemetry = telemetry;
    if smoke {
        cfg.n_clients = 1;
        cfg.msgs_per_client = 4;
        cfg.stop_at = SimTime::from_secs(15);
    } else {
        cfg.n_clients = 2;
        cfg.msgs_per_client = 10;
    }

    // Crash the rank-0 group's initial leader at `crash_ms` for one
    // second; partition group 1 from group 2 for `part_ms` starting at
    // 300 ms. Both heal well before the timers stop.
    let mut schedule =
        scenarios::crash_recover(replica_pid(GroupId(0), 0, cell.rf), cell.crash_ms, 1_000.0);
    if cell.part_ms > 0.0 {
        schedule = schedule.merge(scenarios::wan_partition(
            &group_pids(1, cell.rf),
            &group_pids(2, cell.rf),
            300.0,
            cell.part_ms,
        ));
    }
    schedule = dedup_horizon_guard(schedule, &cfg);

    let m = matrix(n_groups as usize);
    let mut world = build_world(&cfg, &m);
    let start = std::time::Instant::now();
    run_schedule(&mut world, &schedule, MAX_EVENTS);
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = world.stats();
    let r = collect(&cfg, &world);

    assert!(
        r.check.safety_ok(),
        "safety violation at rf={} crash={} part={}: {:?}",
        cell.rf,
        cell.crash_ms,
        cell.part_ms,
        r.check
    );
    let (p50, p90, p99, p999) = latency_row(&r.latency);
    println!(
        "  rf={:<2} crash={:>5.0}ms part={:>5.0}ms  avail={:>6.1}% ({}/{})  p50={:>7.1}ms p90={:>7.1}ms p99={:>7.1}ms p999={:>7.1}ms  dropped={:<5} events={}  eps={:.0} peakq={}",
        cell.rf,
        cell.crash_ms,
        cell.part_ms,
        100.0 * r.availability,
        r.completed,
        r.issued,
        p50,
        p90,
        p99,
        p999,
        r.dropped,
        r.events,
        stats.events_per_sec(wall_secs),
        stats.peak_queue_depth,
    );
}

/// Completion-latency percentile row: `(p50, p90, p99, p999)` in ms,
/// NaN-filled when the cell completed nothing.
fn latency_row(latency: &flexcast_sim::Summary) -> (f64, f64, f64, f64) {
    match latency.percentiles() {
        Some(p) => (p.p50, p.p90, p.p99, p.p999),
        None => (f64::NAN, f64::NAN, f64::NAN, f64::NAN),
    }
}

/// Sanity guard: the schedule must finish inside the maintenance-timer
/// horizon, or the run cannot heal before retries stop.
fn dedup_horizon_guard(schedule: FaultSchedule, cfg: &ReplicatedConfig) -> FaultSchedule {
    assert!(
        schedule.horizon() < cfg.stop_at,
        "fault schedule outlives the repair timers"
    );
    schedule
}

/// One leader-hunter cell: the reactive adversary kills group 0's
/// *current* leader `delay_ms` after each failover, `k` times. Prints the
/// fired-action trace — replaying it through `run_schedule` on the same
/// seed reproduces the execution, so any failure here is a plain timed
/// schedule away from a deterministic repro.
fn run_hunter_cell(rf: u32, delay_ms: f64, k: u32, smoke: bool) {
    let n_groups: u16 = 3;
    let mut cfg = ReplicatedConfig::small(n_groups, rf, 40 + rf as u64);
    if smoke {
        cfg.n_clients = 1;
        cfg.msgs_per_client = 4;
        cfg.stop_at = SimTime::from_secs(15);
    } else {
        cfg.n_clients = 2;
        cfg.msgs_per_client = 10;
    }

    let m = matrix(n_groups as usize);
    let mut world = build_world(&cfg, &m);
    let mut hunter = scenarios::leader_hunter(GroupId(0), delay_ms, k).down_ms(1_200.0);
    let start = std::time::Instant::now();
    let run = run_adversary(&mut world, &mut hunter, MAX_EVENTS);
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = world.stats();
    let r = collect(&cfg, &world);

    assert!(
        r.check.safety_ok(),
        "safety violation at rf={rf} hunter delay={delay_ms} k={k}: {:?}",
        r.check
    );
    let victims: BTreeSet<ProcessId> = hunter.kills().iter().map(|&(_, p)| p).collect();
    let (p50, p90, p99, p999) = latency_row(&r.latency);
    println!(
        "  rf={:<2} hunt delay={:>4.0}ms k={k}  kills={} ({} distinct leaders)  avail={:>6.1}% ({}/{})  p50={:>7.1}ms p90={:>7.1}ms p99={:>7.1}ms p999={:>7.1}ms  dropped={:<5} events={}  eps={:.0}",
        rf,
        delay_ms,
        hunter.kills().len(),
        victims.len(),
        100.0 * r.availability,
        r.completed,
        r.issued,
        p50,
        p90,
        p99,
        p999,
        r.dropped,
        r.events,
        stats.events_per_sec(wall_secs),
    );
    // The replay script: every action the adversary actually fired.
    for (t, ev) in &run.actions {
        println!("      @{:>9.1}ms {:?}", t.as_ms(), ev);
    }
}

/// One quorum-cutter cell: the reactive adversary severs the directed
/// edge from group 0's *current* leader to one minority sibling for
/// `cut_ms`, `k` times — the asymmetric partial-connectivity pattern the
/// ballot leader election exists for. Sweeps ride plain config fields:
/// `hb_delay` (heartbeat-round length) and `catch_up_lag` (snapshot
/// catch-up threshold + compaction depth). Returns the fired-action
/// trace, which replays the run as a plain schedule.
fn run_cutter_cell(
    rf: u32,
    delay_ms: f64,
    cut_ms: f64,
    k: u32,
    hb_delay: u64,
    catch_up_lag: u64,
    smoke: bool,
) -> Vec<(SimTime, flexcast_chaos::FaultEvent)> {
    let n_groups: u16 = 3;
    let mut cfg = ReplicatedConfig::small(n_groups, rf, 40 + rf as u64);
    cfg.hb_delay = hb_delay;
    cfg.catch_up_lag = catch_up_lag;
    if smoke {
        cfg.n_clients = 1;
        cfg.msgs_per_client = 4;
        cfg.stop_at = SimTime::from_secs(15);
    } else {
        cfg.n_clients = 2;
        cfg.msgs_per_client = 10;
    }

    let m = matrix(n_groups as usize);
    let mut world = build_world(&cfg, &m);
    let mut cutter = scenarios::quorum_cutter(GroupId(0), group_pids(0, rf), delay_ms, cut_ms, k);
    let start = std::time::Instant::now();
    let run = run_adversary(&mut world, &mut cutter, MAX_EVENTS);
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = world.stats();
    let r = collect(&cfg, &world);

    assert!(
        r.check.safety_ok(),
        "safety violation at rf={rf} cutter hb={hb_delay} lag={catch_up_lag}: {:?}",
        r.check
    );
    let (p50, p90, p99, p999) = latency_row(&r.latency);
    println!(
        "  rf={:<2} cut delay={:>4.0}ms hb={:<2} lag={:<3} cuts={}/{}  avail={:>6.1}% ({}/{})  p50={:>7.1}ms p90={:>7.1}ms p99={:>7.1}ms p999={:>7.1}ms  dropped={:<5} events={}  eps={:.0}",
        rf,
        delay_ms,
        hb_delay,
        catch_up_lag,
        cutter.cuts().len(),
        k,
        100.0 * r.availability,
        r.completed,
        r.issued,
        p50,
        p90,
        p99,
        p999,
        r.dropped,
        r.events,
        stats.events_per_sec(wall_secs),
    );
    for (t, ev) in &run.actions {
        println!("      @{:>9.1}ms {:?}", t.as_ms(), ev);
    }
    run.actions
}

/// Which reactive adversary axis to run alongside the scripted sweep.
#[derive(Clone, Copy, PartialEq)]
enum AdversaryAxis {
    None,
    LeaderHunter,
    QuorumCutter,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let adversary = match args.iter().position(|a| a == "--adversary") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("leader-hunter") => AdversaryAxis::LeaderHunter,
            Some("quorum-cutter") => AdversaryAxis::QuorumCutter,
            which => panic!("unknown adversary {which:?}; supported: leader-hunter, quorum-cutter"),
        },
        None => AdversaryAxis::None,
    };
    let actions_out: Option<String> = args
        .iter()
        .position(|a| a == "--actions-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let trace_out: Option<String> = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let rfs = [1u32, 3, 5];
    let crashes: &[f64] = if smoke {
        &[150.0]
    } else {
        &[100.0, 400.0, 800.0]
    };
    let parts: &[f64] = if smoke {
        &[600.0]
    } else {
        &[0.0, 600.0, 1_200.0]
    };

    println!(
        "fault sweep: replicated FlexCast groups under leader crash × partition ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    for &rf in &rfs {
        for &crash_ms in crashes {
            for &part_ms in parts {
                run_cell(
                    &Cell {
                        rf,
                        crash_ms,
                        part_ms,
                    },
                    smoke,
                    Telemetry::disabled(),
                );
            }
        }
    }
    if adversary == AdversaryAxis::LeaderHunter {
        println!("adversary axis: leader hunter on group 0 (reactive, state-triggered)");
        let delays: &[f64] = if smoke {
            &[250.0]
        } else {
            &[100.0, 250.0, 500.0]
        };
        // rf = 5 even in the smoke run: only a quorum above two can mix
        // votes from two ballots of one leader.
        for rf in [3u32, 5] {
            for &delay_ms in delays {
                run_hunter_cell(rf, delay_ms, 3, smoke);
            }
        }
    }
    if adversary == AdversaryAxis::QuorumCutter {
        println!("adversary axis: quorum cutter on group 0 (asymmetric leader↛minority cuts)");
        let mut fired = Vec::new();
        // Sweep the heartbeat-round length at the default catch-up lag,
        // then the catch-up lag at the default round length — both plain
        // `ReplicatedConfig` fields.
        let cells: &[(u64, u64)] = if smoke {
            &[(4, 64)]
        } else {
            &[(2, 64), (4, 64), (8, 64), (4, 16), (4, 256)]
        };
        for &(hb, lag) in cells {
            let actions = run_cutter_cell(3, 150.0, 4_000.0, 2, hb, lag, smoke);
            fired.push(((hb, lag), actions));
        }
        if let Some(path) = &actions_out {
            // The fired-action trace artifact: each line is one applied
            // fault event; replaying a cell's lines as a timed schedule
            // reproduces its execution on the same seed.
            let mut out = String::new();
            for ((hb, lag), actions) in &fired {
                for (t, ev) in actions {
                    out.push_str(&format!("hb={hb} lag={lag} @{:.1}ms {ev:?}\n", t.as_ms()));
                }
            }
            std::fs::write(path, out).expect("write fired-action trace");
            println!("wrote {path} (quorum-cutter fired-action trace)");
        }
    }
    // One extra instrumented cell, separate from the reported sweep so
    // telemetry cost never shows up in the comparison rows.
    if let Some(path) = &trace_out {
        let tel = Telemetry::enabled();
        println!("traced cell (rf=3, crash=150ms, part=600ms):");
        run_cell(
            &Cell {
                rf: 3,
                crash_ms: 150.0,
                part_ms: 600.0,
            },
            smoke,
            tel.clone(),
        );
        std::fs::write(path, tel.trace_json()).expect("write trace JSON");
        let metrics_path = match path.strip_suffix(".json") {
            Some(stem) => format!("{stem}.metrics.json"),
            None => format!("{path}.metrics.json"),
        };
        std::fs::write(&metrics_path, tel.snapshot().to_json()).expect("write metrics JSON");
        println!(
            "wrote {} ({} trace events) and {}",
            path,
            tel.trace_len(),
            metrics_path
        );
    }
    println!("all cells safe: zero integrity/prefix/acyclic/lockstep violations");
}
