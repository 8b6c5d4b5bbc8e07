//! Fault sweep: delivery latency and availability of *replicated*
//! FlexCast groups under faults. Every run covers four axes:
//!
//! * **scripted** — a `flexcast-chaos` schedule crashes the rank-0
//!   group's initial Paxos leader and partitions group 1 from group 2,
//!   sweeping crash timing × partition duration × replication factor;
//! * **target** — a replica of group 1, a group that receives overlay
//!   packets, crashes for good or for one second under a heavier load;
//! * **hunter** — `scenarios::leader_hunter` crashes whichever replica
//!   *currently* leads group 0 a fixed delay after each failover — a
//!   state-triggered scenario no schedule can script — sweeping the delay;
//! * **cutter** — `scenarios::quorum_cutter` deafens one minority sibling
//!   to each new leader of group 0, sweeping the ballot leader election's
//!   heartbeat round (`hb_delay`) and the snapshot catch-up threshold
//!   (`catch_up_lag`), both plain `ReplicatedConfig` fields.
//!
//! Every cell takes one path: a labelled `ReplicatedConfig` and an
//! adversary (scripted and target cells wrap their schedule in a
//! `ScheduleAdversary`, which is what `run_schedule` runs) are driven by
//! `run_adversary`, and the cell prints one row: availability (completed
//! ⁄ issued by the end of the run), completion-latency p50/p90/p99/p999
//! and max (a target cell's max is the longest stall any multicast saw),
//! drop and event counts, and the number of faults fired. The hunter and
//! cutter cells also print the actions they fired, one per line;
//! replaying them as a timed schedule on the same seed reproduces the
//! cell. Safety — integrity, prefix/acyclic order, replica lockstep — is
//! *asserted*, not reported, and so is that every fault fired before the
//! repair timers stop: any violation aborts the sweep.
//!
//! ```sh
//! cargo run --release --bin fault_sweep            # full sweep
//! cargo run --release --bin fault_sweep -- --smoke # CI-sized: one cell per rf and axis point
//! cargo run --release --bin fault_sweep -- --smoke --actions-out actions.txt
//!     # also writes every hunter and cutter cell's fired actions, one labelled line each
//! cargo run --release --bin fault_sweep -- --smoke --trace-out trace.json
//!     # plus one telemetry-traced scripted cell: trace.json and trace.metrics.json
//! ```

use flexcast_chaos::{
    run_adversary, scenarios, Adversary, FaultEvent, FaultSchedule, ScheduleAdversary,
};
use flexcast_harness::replicated::{build_world, collect, replica_pid, ReplicatedConfig};
use flexcast_overlay::LatencyMatrix;
use flexcast_sim::{ProcessId, SimTime};
use flexcast_telemetry::Telemetry;
use flexcast_types::GroupId;

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

/// Three groups at replication factor `rf` under a closed-loop multicast
/// load. Target cells run a heavier one, so the senders' outboxes outgrow
/// one retransmission window, which is where a slow repair shows.
fn config(rf: u32, heavy: bool, smoke: bool) -> ReplicatedConfig {
    let mut cfg = ReplicatedConfig::small(3, rf, 40 + rf as u64);
    (cfg.n_clients, cfg.msgs_per_client) = match (heavy, smoke) {
        (false, true) => (1, 4),
        (false, false) => (2, 10),
        (true, true) => (2, 40),
        (true, false) => (6, 60),
    };
    if smoke && !heavy {
        cfg.stop_at = SimTime::from_secs(15);
    }
    cfg
}

/// The scripted cell's faults: the rank-0 group's initial leader crashes
/// at `crash_ms` for one second, and group 1 is cut off from group 2 for
/// `part_ms` from 300 ms.
fn scripted(rf: u32, crash_ms: f64, part_ms: f64) -> FaultSchedule {
    let crash = scenarios::crash_recover(replica_pid(GroupId(0), 0, rf), crash_ms, 1_000.0);
    if part_ms == 0.0 {
        return crash;
    }
    crash.merge(scenarios::wan_partition(
        &group_pids(1, rf),
        &group_pids(2, rf),
        300.0,
        part_ms,
    ))
}

/// Runs one cell: drives `cfg`'s world under `adversary`, asserts safety
/// and that no fault fired after the repair timers stopped (a later
/// recovery could not heal, so the row's availability would mislead),
/// prints the row, and returns the fired actions.
fn run_cell(
    label: &str,
    cfg: &ReplicatedConfig,
    mut adversary: Box<dyn Adversary>,
) -> Vec<(SimTime, FaultEvent)> {
    let mut world = build_world(cfg, &matrix(cfg.n_groups as usize));
    let start = std::time::Instant::now();
    let run = run_adversary(&mut world, adversary.as_mut(), MAX_EVENTS);
    let wall_secs = start.elapsed().as_secs_f64();
    let stats = world.stats();
    let r = collect(cfg, &world);

    assert!(
        r.check.safety_ok(),
        "safety violation at {label}: {:?}",
        r.check
    );
    assert!(
        run.actions.last().is_none_or(|&(t, _)| t < cfg.stop_at),
        "{label}: a fault fired after the repair timers stopped"
    );
    let (p50, p90, p99, p999) = r
        .latency
        .percentiles()
        .map_or((f64::NAN, f64::NAN, f64::NAN, f64::NAN), |p| {
            (p.p50, p.p90, p.p99, p.p999)
        });
    println!(
        "  {label}  avail={:>6.1}% ({}/{})  p50={:>7.1}ms p90={:>7.1}ms p99={:>7.1}ms p999={:>7.1}ms max={:>7.1}ms  dropped={:<5} events={}  faults={} eps={:.0} peakq={}",
        100.0 * r.availability,
        r.completed,
        r.issued,
        p50,
        p90,
        p99,
        p999,
        r.latency.max().unwrap_or(f64::NAN),
        r.dropped,
        r.events,
        run.actions.len(),
        stats.events_per_sec(wall_secs),
        stats.peak_queue_depth,
    );
    run.actions
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let value_of = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).cloned()
    };
    let actions_out = value_of("--actions-out");
    let trace_out = value_of("--trace-out");
    let scripted_cell = |rf: u32, crash_ms: f64, part_ms: f64, cfg: &ReplicatedConfig| {
        let label = format!("rf={rf:<2} crash={crash_ms:>5.0}ms part={part_ms:>5.0}ms");
        let schedule = scripted(rf, crash_ms, part_ms);
        run_cell(&label, cfg, Box::new(ScheduleAdversary::new(schedule)));
    };
    // The reactive cells' fired actions: printed under each row, and one
    // labelled line each in the `--actions-out` file.
    let mut fired = String::new();
    let mut reactive_cell =
        |label: String, cfg: ReplicatedConfig, adversary: Box<dyn Adversary>| {
            for (t, ev) in run_cell(&label, &cfg, adversary) {
                println!("      @{:>9.1}ms {:?}", t.as_ms(), ev);
                fired.push_str(&format!("{label} @{:.1}ms {ev:?}\n", t.as_ms()));
            }
        };

    println!(
        "fault sweep: replicated FlexCast groups under faults ({} mode)",
        if smoke { "smoke" } else { "full" }
    );
    println!("scripted axis: group 0's leader crashes × group 1 | group 2 partition");
    let (crashes, parts): (&[f64], &[f64]) = if smoke {
        (&[150.0], &[600.0])
    } else {
        (&[100.0, 400.0, 800.0], &[0.0, 600.0, 1_200.0])
    };
    for rf in [1u32, 3, 5] {
        for &crash_ms in crashes {
            for &part_ms in parts {
                scripted_cell(rf, crash_ms, part_ms, &config(rf, false, smoke));
            }
        }
    }

    println!("target axis: a replica of group 1, a receiving group, crashes at 300 ms");
    // Replica 0 is group 1's initial leader, replica 1 a follower.
    for rf in [3u32, 5] {
        for replica in [0, 1] {
            for down_ms in [None, Some(1_000.0)] {
                let victim = replica_pid(GroupId(1), replica, rf);
                let schedule = match down_ms {
                    Some(down) => scenarios::crash_recover(victim, 300.0, down),
                    None => FaultSchedule::new().crash_at(300.0, victim),
                };
                let down = down_ms.map_or("forever".to_string(), |d| format!("{d:.0}ms"));
                let label = format!("rf={rf:<2} crash g1/r{replica} down={down:>7}");
                let adversary = Box::new(ScheduleAdversary::new(schedule));
                run_cell(&label, &config(rf, true, smoke), adversary);
            }
        }
    }

    println!("hunter axis: leader hunter on group 0 (reactive, state-triggered)");
    let delays: &[f64] = if smoke {
        &[250.0]
    } else {
        &[100.0, 250.0, 500.0]
    };
    // rf = 5 even in the smoke run: only a quorum above two can mix votes
    // from two ballots of one leader.
    for rf in [3u32, 5] {
        for &delay_ms in delays {
            let hunter = scenarios::leader_hunter(GroupId(0), delay_ms, 3).hold_ms(1_200.0);
            let label = format!("rf={rf:<2} hunt delay={delay_ms:>4.0}ms k=3");
            reactive_cell(label, config(rf, false, smoke), Box::new(hunter));
        }
    }

    println!("cutter axis: quorum cutter on group 0 (asymmetric leader↛minority cuts)");
    // The heartbeat-round length at the default catch-up lag, then the
    // catch-up lag at the default round length.
    let hb_lags: &[(u64, u64)] = if smoke {
        &[(4, 64)]
    } else {
        &[(2, 64), (4, 64), (8, 64), (4, 16), (4, 256)]
    };
    for &(hb, lag) in hb_lags {
        let mut cfg = config(3, false, smoke);
        (cfg.hb_delay, cfg.catch_up_lag) = (hb, lag);
        let cutter = scenarios::quorum_cutter(GroupId(0), group_pids(0, 3), 150.0, 4_000.0, 2);
        let label = format!("rf=3  cut delay= 150ms hb={hb:<2} lag={lag:<3}");
        reactive_cell(label, cfg, Box::new(cutter));
    }

    if let Some(path) = &actions_out {
        std::fs::write(path, fired).expect("write fired actions");
        println!("wrote {path} (fired actions of every hunter and cutter cell)");
    }
    // One extra instrumented cell, separate from the reported sweep so
    // telemetry cost never shows up in the comparison rows.
    if let Some(path) = &trace_out {
        let tel = Telemetry::enabled();
        let mut cfg = config(3, false, smoke);
        cfg.telemetry = tel.clone();
        println!("traced cell:");
        scripted_cell(3, 150.0, 600.0, &cfg);
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
