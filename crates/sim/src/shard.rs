//! Shard map for the sharded event core.
//!
//! The sharded [`World`](crate::World) partitions its event queue by
//! process: every event targets exactly one process, every process lives
//! in exactly one shard, so per-shard `BinaryHeap`s hold disjoint slices
//! of the global queue and the global order is recovered by merging shard
//! heads on `(SimTime, seq)` — the same total order the single queue used.
//!
//! [`ShardMap`] carries the **assignment** `pid → shard`, derived from the
//! link model's site (region) of each process: site ranks are cut into
//! contiguous blocks, one block per shard, so co-located processes (a
//! group's replicas, its local clients) always share a shard.

use crate::LinkModel;

/// Process→shard assignment derived from a [`LinkModel`].
#[derive(Clone, Debug)]
pub struct ShardMap {
    shard_of: Vec<usize>,
    n_shards: usize,
}

impl ShardMap {
    /// The trivial single-shard map over `n_procs` processes — the
    /// sequential world.
    pub fn single(n_procs: usize) -> Self {
        ShardMap {
            shard_of: vec![0; n_procs],
            n_shards: 1,
        }
    }

    /// Derives an `n_shards`-way map from the link model's sites:
    /// site rank `r` (of `n_sites`) goes to shard `r * k / n_sites`,
    /// i.e. contiguous site blocks. `n_shards` is clamped to
    /// `[1, n_sites]` so no shard is empty by construction.
    pub fn from_link(link: &LinkModel, n_shards: usize) -> Self {
        let n = link.len();
        let n_sites = (0..n).map(|p| link.site(p).index() + 1).max().unwrap_or(1);
        let k = n_shards.clamp(1, n_sites);
        let shard_of = (0..n).map(|p| link.site(p).index() * k / n_sites).collect();
        Self::from_assignment(link, shard_of)
    }

    /// Builds a map from an explicit assignment (tests and experiments
    /// that want non-geographic cuts).
    ///
    /// # Panics
    ///
    /// Panics if the assignment does not cover every process or names a
    /// shard id beyond `len` (ids must be dense from 0).
    pub fn from_assignment(link: &LinkModel, shard_of: Vec<usize>) -> Self {
        assert_eq!(
            shard_of.len(),
            link.len(),
            "shard assignment must cover every process"
        );
        let n_shards = shard_of.iter().map(|&s| s + 1).max().unwrap_or(1);
        ShardMap { shard_of, n_shards }
    }

    /// Number of shards.
    pub fn count(&self) -> usize {
        self.n_shards
    }

    /// The shard owning process `pid`.
    #[inline]
    pub fn shard_of(&self, pid: usize) -> usize {
        self.shard_of[pid]
    }

    /// The full assignment, indexed by process id.
    pub fn assignment(&self) -> &[usize] {
        &self.shard_of
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::LatencyMatrix;
    use flexcast_types::GroupId;

    fn link(n_sites: usize, procs_per_site: usize, rtt_ms: f64) -> LinkModel {
        let mut m = LatencyMatrix::zero(n_sites);
        for a in 0..n_sites {
            for b in (a + 1)..n_sites {
                m.set_rtt(a, b, rtt_ms);
            }
        }
        let sites = (0..n_sites)
            .flat_map(|s| std::iter::repeat_n(GroupId(s as u16), procs_per_site))
            .collect();
        LinkModel::new(m, sites, 0.0)
    }

    #[test]
    fn single_map_is_one_shard() {
        let map = ShardMap::single(5);
        assert_eq!(map.count(), 1);
        assert!((0..5).all(|p| map.shard_of(p) == 0));
    }

    #[test]
    fn sites_split_into_contiguous_blocks() {
        let map = ShardMap::from_link(&link(4, 2, 20.0), 2);
        assert_eq!(map.count(), 2);
        assert_eq!(map.assignment(), &[0, 0, 0, 0, 1, 1, 1, 1]);
    }

    #[test]
    fn shard_count_clamps_to_sites() {
        let map = ShardMap::from_link(&link(2, 1, 20.0), 8);
        assert_eq!(map.count(), 2, "no empty shards");
        let map = ShardMap::from_link(&link(3, 1, 20.0), 0);
        assert_eq!(map.count(), 1, "zero shards means sequential");
    }

    #[test]
    fn explicit_assignment_overrides_sites() {
        let lm = link(2, 2, 20.0);
        // Cut straight through both sites.
        let map = ShardMap::from_assignment(&lm, vec![0, 1, 0, 1]);
        assert_eq!(map.count(), 2);
        assert_eq!(map.assignment(), &[0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "cover every process")]
    fn rejects_short_assignment() {
        let _ = ShardMap::from_assignment(&link(2, 1, 20.0), vec![0]);
    }
}
