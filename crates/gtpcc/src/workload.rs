//! The gTPC-C workload generator.

use crate::txn::{OrderLine, Transaction, TxnType};
use flexcast_overlay::LatencyMatrix;
use flexcast_types::{DestSet, GroupId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which part of the gTPC-C mix to generate (§5.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadMode {
    /// The full five-profile mix, including single-warehouse transactions
    /// (throughput experiment, Figure 6).
    Full,
    /// New-order and payment only, forced to touch at least two
    /// warehouses (latency experiments, Figures 5 and 7).
    GlobalOnly,
}

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// The locality rate: probability of picking the *nearest* candidate
    /// warehouse at each step of the nearest-first scan (0.90/0.95/0.99
    /// in the paper).
    pub locality: f64,
    /// Workload mode.
    pub mode: WorkloadMode,
    /// Cap on the number of distinct warehouses per transaction. The
    /// paper discards messages addressed to more than three groups.
    pub max_warehouses: usize,
}

impl WorkloadConfig {
    /// Configuration used by the paper's throughput experiment.
    pub fn full(locality: f64) -> Self {
        WorkloadConfig {
            locality,
            mode: WorkloadMode::Full,
            max_warehouses: 3,
        }
    }
}

/// A deterministic gTPC-C transaction generator.
///
/// One generator serves any number of clients; each call to
/// [`Generator::next_txn`] draws a fresh transaction for a client homed at
/// the given warehouse. Seeded: the same seed yields the same stream.
#[derive(Clone, Debug)]
pub struct Generator {
    cfg: WorkloadConfig,
    /// `nearest[w]` = other warehouses sorted by distance from `w`.
    nearest: Vec<Vec<GroupId>>,
    rng: StdRng,
}

impl Generator {
    /// Builds a generator over the warehouses of `matrix`.
    pub fn new(cfg: WorkloadConfig, matrix: &LatencyMatrix, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.locality),
            "locality is a probability"
        );
        assert!(cfg.max_warehouses >= 2, "need room for one remote");
        let nearest = (0..matrix.len() as u16)
            .map(|w| matrix.nearest_order(GroupId(w)))
            .collect();
        Generator {
            cfg,
            nearest,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the transaction profile according to the configured mode.
    fn draw_kind(&mut self) -> TxnType {
        match self.cfg.mode {
            WorkloadMode::Full => {
                // 45 / 43 / 4 / 4 / 4.
                let r: f64 = self.rng.random();
                if r < 0.45 {
                    TxnType::NewOrder
                } else if r < 0.88 {
                    TxnType::Payment
                } else if r < 0.92 {
                    TxnType::OrderStatus
                } else if r < 0.96 {
                    TxnType::Delivery
                } else {
                    TxnType::StockLevel
                }
            }
            WorkloadMode::GlobalOnly => {
                // 45:43 renormalized.
                if self.rng.random::<f64>() < 0.45 / 0.88 {
                    TxnType::NewOrder
                } else {
                    TxnType::Payment
                }
            }
        }
    }

    /// Picks a remote warehouse for `home` with the nearest-first locality
    /// scan: nearest with probability `locality`, else next nearest with
    /// the same probability, and so on; the farthest absorbs the rest.
    pub fn pick_remote(&mut self, home: GroupId) -> GroupId {
        let order = &self.nearest[home.index()];
        debug_assert!(!order.is_empty(), "need at least two warehouses");
        for &w in &order[..order.len() - 1] {
            if self.rng.random::<f64>() < self.cfg.locality {
                return w;
            }
        }
        *order.last().expect("non-empty")
    }

    /// Generates the next transaction for a client homed at `home`.
    pub fn next_txn(&mut self, home: GroupId) -> Transaction {
        let kind = self.draw_kind();
        let district = self.rng.random_range(1..=10u8);
        let customer = self.rng.random_range(1..=3000u16);
        let mut warehouses = DestSet::singleton(home);
        let mut lines = Vec::new();
        let mut amount = 0u32;

        match kind {
            TxnType::NewOrder => {
                let n_lines = self.rng.random_range(5..=15usize);
                for _ in 0..n_lines {
                    // TPC-C: 1 % remote per line; gTPC-C uses 2 % (§5.3).
                    let supply = if self.rng.random::<f64>() < 0.02 {
                        let w = self.pick_remote(home);
                        if warehouses.len() < self.cfg.max_warehouses || warehouses.contains(w) {
                            warehouses.insert(w);
                            w
                        } else {
                            home
                        }
                    } else {
                        home
                    };
                    lines.push(OrderLine {
                        item_id: self.rng.random_range(1..=100_000u32),
                        supply_warehouse: supply.rank(),
                        quantity: self.rng.random_range(1..=10u8),
                    });
                }
            }
            TxnType::Payment => {
                amount = self.rng.random_range(100..=500_000u32);
                // TPC-C: 15 % of payments hit a remote customer's warehouse.
                if self.rng.random::<f64>() < 0.15 {
                    warehouses.insert(self.pick_remote(home));
                }
            }
            _ => {}
        }

        // Global-only mode guarantees at least two warehouses.
        if self.cfg.mode == WorkloadMode::GlobalOnly && !warehouses.is_global() {
            warehouses.insert(self.pick_remote(home));
        }

        Transaction {
            kind,
            home,
            warehouses,
            district,
            customer,
            lines,
            amount,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::regions::aws12;

    fn generator(locality: f64, mode: WorkloadMode) -> Generator {
        let cfg = WorkloadConfig {
            locality,
            mode,
            max_warehouses: 3,
        };
        Generator::new(cfg, &aws12(), 42)
    }

    #[test]
    fn global_only_mix_is_new_order_and_payment() {
        let mut g = generator(0.9, WorkloadMode::GlobalOnly);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..5_000 {
            let t = g.next_txn(GroupId(0));
            *counts.entry(t.kind).or_insert(0usize) += 1;
            assert!(t.is_global(), "global-only means ≥ 2 warehouses");
            assert!(t.warehouses.len() <= 3, "capped at three warehouses");
            assert!(t.warehouses.contains(GroupId(0)), "home always included");
        }
        assert_eq!(counts.len(), 2);
        let no = counts[&TxnType::NewOrder] as f64 / 5_000.0;
        assert!(
            (no - 0.511).abs() < 0.03,
            "new-order share ≈ 45/88, got {no}"
        );
    }

    #[test]
    fn full_mix_matches_tpcc_shares() {
        let mut g = generator(0.9, WorkloadMode::Full);
        let mut counts = std::collections::HashMap::new();
        let n = 20_000;
        for _ in 0..n {
            let t = g.next_txn(GroupId(3));
            *counts.entry(t.kind).or_insert(0usize) += 1;
        }
        let share = |k: TxnType| counts.get(&k).copied().unwrap_or(0) as f64 / n as f64;
        assert!((share(TxnType::NewOrder) - 0.45).abs() < 0.02);
        assert!((share(TxnType::Payment) - 0.43).abs() < 0.02);
        assert!((share(TxnType::OrderStatus) - 0.04).abs() < 0.01);
        assert!((share(TxnType::Delivery) - 0.04).abs() < 0.01);
        assert!((share(TxnType::StockLevel) - 0.04).abs() < 0.01);
    }

    #[test]
    fn always_local_profiles_stay_local() {
        let mut g = generator(0.9, WorkloadMode::Full);
        for _ in 0..5_000 {
            let t = g.next_txn(GroupId(1));
            if t.kind.is_always_local() {
                assert_eq!(t.warehouses.len(), 1);
                assert!(t.warehouses.contains(GroupId(1)));
            }
        }
    }

    #[test]
    fn locality_concentrates_on_nearest_warehouse() {
        // At 99 % locality, the remote pick should be the nearest
        // warehouse ~99 % of the time.
        let m = aws12();
        let home = GroupId(0);
        let nearest = m.nearest(home).unwrap();
        let mut g = generator(0.99, WorkloadMode::GlobalOnly);
        let mut hit = 0usize;
        let n = 5_000;
        for _ in 0..n {
            if g.pick_remote(home) == nearest {
                hit += 1;
            }
        }
        let frac = hit as f64 / n as f64;
        assert!(frac > 0.97, "nearest fraction {frac} too low for 99 %");

        // At 90 % the second-nearest shows up noticeably more often.
        let mut g90 = generator(0.90, WorkloadMode::GlobalOnly);
        let mut hit90 = 0usize;
        for _ in 0..n {
            if g90.pick_remote(home) == nearest {
                hit90 += 1;
            }
        }
        assert!(
            (hit90 as f64) < (hit as f64),
            "lower locality spreads picks"
        );
    }

    #[test]
    fn new_order_line_counts_in_range() {
        let mut g = generator(0.9, WorkloadMode::Full);
        for _ in 0..2_000 {
            let t = g.next_txn(GroupId(5));
            if t.kind == TxnType::NewOrder {
                assert!((5..=15).contains(&t.lines.len()));
                for l in &t.lines {
                    assert!((1..=10).contains(&l.quantity));
                    assert!((1..=100_000).contains(&l.item_id));
                    assert!(t.warehouses.contains(GroupId(l.supply_warehouse)));
                }
            }
        }
    }

    #[test]
    fn most_global_messages_touch_two_warehouses() {
        // §5.3: "most messages are addressed to only two warehouses, and
        // some to three".
        let mut g = generator(0.9, WorkloadMode::GlobalOnly);
        let mut two = 0usize;
        let mut three = 0usize;
        let n = 10_000;
        for _ in 0..n {
            match g.next_txn(GroupId(7)).warehouses.len() {
                2 => two += 1,
                3 => three += 1,
                other => panic!("unexpected destination count {other}"),
            }
        }
        assert!(two > three * 5, "two-warehouse dominates: {two} vs {three}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mk = || {
            let mut g = generator(0.95, WorkloadMode::Full);
            (0..100).map(|_| g.next_txn(GroupId(2))).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
