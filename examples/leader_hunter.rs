//! Reactive adversary walkthrough: the leader hunter.
//!
//! A timed `FaultSchedule` can kill pid 0 at 150 ms — but after the
//! failover it has no idea who leads, so "kill the *current* leader a
//! fixed delay after each failover" is inexpressible as a script. The
//! reactive `Adversary` API closes that gap: replicas publish
//! `Observation::LeaderElected` at every leadership transition, and the
//! hunter answers each one with a delayed, targeted crash.
//!
//! This example hunts group 0's leadership three times, shows that at
//! least two *distinct* replicas died (the proof the adversary re-aimed),
//! verifies every multicast still completed with zero safety violations,
//! and then replays the fired-action trace the driver recorded as a plain
//! timed schedule — reproducing the adversarial execution event-for-event.
//!
//! ```sh
//! cargo run --release --example leader_hunter
//! ```

use flexcast::chaos::{run_adversary, run_schedule, scenarios, FaultEvent};
use flexcast::harness::layout::Layout;
use flexcast::harness::replicated::{build_world, collect, ReplicatedConfig};
use flexcast::overlay::LatencyMatrix;
use flexcast::types::GroupId;
use std::collections::BTreeSet;

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

fn main() {
    let cfg = ReplicatedConfig::small(3, 3, 7);
    println!(
        "leader hunter: {} groups × {} replicas, {} clients × {} multicasts",
        cfg.n_groups, cfg.rf, cfg.n_clients, cfg.msgs_per_client
    );
    println!("  adversary: crash group 0's CURRENT leader 250 ms after each election, 3 kills\n");

    let m = matrix(cfg.n_groups as usize);
    let mut world = build_world(&cfg, &m);
    let mut hunter = scenarios::leader_hunter(GroupId(0), 250.0, 3).hold_ms(1_200.0);
    let run = run_adversary(&mut world, &mut hunter, 100_000_000);
    let r = collect(&cfg, &world);

    println!("  the hunt (reacting to observed elections):");
    let kills: Vec<_> = run
        .actions
        .iter()
        .filter_map(|(t, ev)| match ev {
            FaultEvent::Crash(pid) => Some((t, *pid)),
            _ => None,
        })
        .collect();
    let layout = Layout::new(cfg.n_groups as usize, cfg.rf);
    for &(t, pid) in &kills {
        let (group, replica) = layout.replica_at(pid).expect("the hunter crashes replicas");
        let ms = t.as_ms();
        println!("    @{ms:>7.1}ms crash pid {pid} (replica {replica} of group {group:?})");
    }
    let victims: BTreeSet<usize> = kills.iter().map(|&(_, p)| p).collect();
    assert!(
        victims.len() >= 2,
        "the hunter must re-aim across failovers"
    );
    r.check.assert_ok();
    assert_eq!(r.completed as usize, r.issued);
    println!(
        "\n  {} kills across {} distinct leaders; {}/{} multicasts still completed, zero violations",
        kills.len(),
        victims.len(),
        r.completed,
        r.issued
    );

    // Replay: the fired-action trace is itself a timed schedule.
    let mut world2 = build_world(&cfg, &m);
    run_schedule(&mut world2, &run.to_schedule(), 100_000_000);
    let r2 = collect(&cfg, &world2);
    assert_eq!(r.events, r2.events);
    assert_eq!(r.replica_logs, r2.replica_logs);
    println!(
        "  replayed the {}-action trace as a plain schedule: identical execution ({} events)",
        run.actions.len(),
        r.events
    );

    println!(
        "\nthe reactive adversary expressed — and survived — a scenario no\n\
         pre-scripted timeline can state: every kill aimed at a leader whose\n\
         identity was decided by the previous kill."
    );
}
