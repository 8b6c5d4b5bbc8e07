//! Ablation: flush-based garbage collection (§4.3).
//!
//! DESIGN.md calls out two design choices worth isolating: the flush
//! period (how aggressively history is pruned) and the diff optimization
//! it composes with. This binary sweeps the flush period, GC off
//! included, and reports the bytes FlexCast puts on the wire, client
//! latency and the transactions completed. What the run shows: the
//! `diff-hst` cursors already keep a packet to the entries its receiver
//! has not seen, so GC buys memory, not bytes — and it costs throughput.
//! At full size every flush period completes 4–51 % fewer transactions
//! than GC off and ships 1.2–1.7× its bytes per completed transaction.

use flexcast_bench::quick_mode;
use flexcast_gtpcc::WorkloadMode;
use flexcast_harness::{run, ExperimentConfig, ProtocolKind};
use flexcast_overlay::presets;
use flexcast_sim::SimTime;
use flexcast_telemetry::Telemetry;

fn main() {
    let (n_clients, secs) = if quick_mode() { (24, 3) } else { (120, 8) };
    println!("# GC ablation — FlexCast O1, gTPC-C 95% locality, {n_clients} clients, {secs}s");
    println!("# flush_ms avg_KB/s_per_node 1st_dest_90p_ms completed");
    for flush_ms in [0.0, 125.0, 250.0, 500.0, 1000.0, 2000.0] {
        let cfg = ExperimentConfig {
            protocol: ProtocolKind::FlexCast(presets::o1()),
            locality: 0.95,
            mode: WorkloadMode::GlobalOnly,
            n_clients,
            duration: SimTime::from_secs(secs),
            seed: 5,
            jitter_ms: 2.0,
            flush_period: (flush_ms > 0.0).then(|| SimTime::from_ms(flush_ms)),
            server_service_ms: 0.05,
            server_processing_ms: 20.0,
            advert_stride: None,
            telemetry: Telemetry::disabled(),
            shards: 0,
        };
        let result = run(&cfg);
        result.check.assert_ok();
        let kbps: f64 = result
            .per_node
            .iter()
            .map(|n| n.kbytes_per_sec)
            .sum::<f64>()
            / result.per_node.len() as f64;
        let p90 = result
            .percentile_row(1)
            .map(|(p, _, _)| p)
            .unwrap_or(f64::NAN);
        let label = if flush_ms == 0.0 {
            "off".to_string()
        } else {
            format!("{flush_ms:.0}")
        };
        println!("{label:>8} {kbps:18.2} {p90:14.1} {:9}", result.completed);
    }
    println!("# GC off completes the most: a flush is a multicast to every group, and");
    println!("# later messages wait for it. KB/s is per second, not per completed");
    println!("# transaction: a period that completes less ships less for that reason.");
}
