//! Per-key sets of stream positions: the ids a history has seen per
//! client, the chain edges it has processed per creator, the prefixes its
//! descendants advertised and those it last advertised (DESIGN.md §3, §8).

use crate::slots::{WINDOW_PER_LIVE, WINDOW_SLACK};
use flexcast_types::MAX_GROUPS;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;
use std::mem::size_of;

/// The largest client id a vector grows to when it vouches for `held`
/// entries: ids are dense from 0, but a peer's bytes can name any.
pub(crate) fn client_reach(held: u64) -> u64 {
    WINDOW_SLACK + WINDOW_PER_LIVE * held
}

/// The largest creator rank a set grows its vector to. Callers keep
/// creators outside their overlay out.
pub(crate) const CREATOR_REACH: u64 = MAX_GROUPS as u64 - 1;

/// A set of `u32` positions per `u32` key. Streams are dense from 0 and
/// nearly always arrive in order, so key `k`'s prefix `0..dense[k]` is a
/// count in a flat vector — the duplicate probe is one indexed load — and
/// its positions past the prefix are inclusive ranges in one ordered map
/// (start ↦ end, disjoint, not touching each other or the prefix): memory
/// grows with a stream's holes, not its length. A key past the reach a
/// caller passes lives wholly in the map until the vector grows to it and
/// takes its range from 0. A count stops at `u32::MAX`, which no stream
/// reaches; an advertised prefix claiming it merges one short.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct SeenSet {
    dense: Vec<u32>,
    sparse: BTreeMap<(u32, u32), u32>,
}

impl SeenSet {
    /// True if `pos` is in `key`'s set.
    #[inline]
    pub(crate) fn contains(&self, key: u32, pos: u32) -> bool {
        (self.dense.get(key as usize)).is_some_and(|&count| pos < count)
            || (!self.sparse.is_empty()
                && (self.sparse.range(..=(key, pos)).next_back())
                    .is_some_and(|(&(k, _), &end)| k == key && pos <= end))
    }

    /// Adds `pos` to `key`'s set; the vector may grow to `reach`.
    pub(crate) fn insert(&mut self, key: u32, pos: u32, reach: u64) {
        self.insert_range(key, pos, pos, reach);
    }

    /// Max-merges an advertised prefix: adds `0..=end` to `key`'s set.
    pub(crate) fn merge_prefix(&mut self, key: u32, end: u32, reach: u64) {
        self.insert_range(key, 0, end, reach);
    }

    fn insert_range(&mut self, key: u32, mut lo: u32, mut hi: u32, reach: u64) {
        let k = key as usize;
        if k >= self.dense.len() && u64::from(key) <= reach {
            let from = self.dense.len();
            self.dense.resize(k + 1, 0);
            for far in from..=k {
                if let Some(end) = self.sparse.remove(&(far as u32, 0)) {
                    self.dense[far] = end.saturating_add(1);
                }
            }
        }
        // Absorb the ranges of `key` that overlap or touch `lo..=hi`, from
        // the last one starting at or before `hi + 1` down. With no ranges
        // at all — a stream without holes, the usual case — there is no
        // map to probe.
        while !self.sparse.is_empty() {
            let Some((&(other, start), &end)) =
                (self.sparse.range(..=(key, hi.saturating_add(1)))).next_back()
            else {
                break;
            };
            if other != key || end.saturating_add(1) < lo {
                break;
            }
            self.sparse.remove(&(key, start));
            (lo, hi) = (lo.min(start), hi.max(end));
        }
        match self.dense.get_mut(k) {
            Some(count) if lo <= *count => *count = (*count).max(hi.saturating_add(1)),
            _ => {
                self.sparse.insert((key, lo), hi);
            }
        }
    }

    /// Each key with a non-empty prefix and the prefix's last position,
    /// in ascending key order.
    pub(crate) fn prefixes(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let dense = (self.dense.iter().enumerate())
            .filter(|&(_, &count)| count > 0)
            .map(|(k, &count)| (k as u32, count - 1));
        // The reach keeps the vector far below 2^32 keys.
        let far = (self.sparse.range((self.dense.len() as u32, 0)..))
            .filter(|&(&(_, start), _)| start == 0)
            .map(|(&(k, _), &end)| (k, end));
        dense.chain(far)
    }

    /// Number of ranges held past the prefixes.
    pub(crate) fn sparse_ranges(&self) -> usize {
        self.sparse.len()
    }

    /// Heap bytes: the vector at its capacity, ranges at their own size.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.dense.capacity() * size_of::<u32>()
            + self.sparse.len() * size_of::<((u32, u32), u32)>()
    }
}

impl Serialize for SeenSet {
    /// The prefix counts, then the ranges as `(key, start, end)`.
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let ranges = self.sparse.iter().map(|(&(k, lo), &hi)| (k, lo, hi));
        (&self.dense, ranges.collect::<Vec<_>>()).serialize(s)
    }
}

impl<'de> Deserialize<'de> for SeenSet {
    /// Takes only the one spelling of a set: each range starts at or
    /// before its end, in `(key, start)` order, and touches neither the
    /// one before it nor its key's prefix.
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let mut set = SeenSet::default();
        let ranges: Vec<(u32, u32, u32)>;
        (set.dense, ranges) = Deserialize::deserialize(d)?;
        let mut last = None;
        for (k, lo, hi) in ranges {
            let after = |(pk, phi): (u32, u32)| (k, u64::from(lo)) > (pk, u64::from(phi) + 1);
            let past_prefix = set.dense.get(k as usize).is_none_or(|&count| lo > count);
            if lo > hi || !last.is_none_or(after) || !past_prefix {
                return Err(D::Error::custom("seen set: a range out of place"));
            }
            set.sparse.insert((k, lo), hi);
            last = Some((k, hi));
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl SeenSet {
        /// Number of keys the vector covers.
        pub(crate) fn dense_len(&self) -> usize {
            self.dense.len()
        }
    }

    /// A key below 12 and a position below 24, merged as a prefix end one
    /// time in four, inserted otherwise.
    fn op() -> impl Strategy<Value = (bool, u32, u32)> {
        (0u32..12 * 24 * 4).prop_map(|x| (x / (12 * 24) == 0, x % 12, x / 12 % 24))
    }

    /// The model's prefix of `key`: the last of `0, 1, …` it holds.
    fn model_prefix(model: &BTreeSet<(u32, u32)>, key: u32) -> Option<u32> {
        (0..).take_while(|&p| model.contains(&(key, p))).last()
    }

    /// The model's maximal runs of `key` past its prefix.
    fn model_runs(model: &BTreeSet<(u32, u32)>, key: u32) -> usize {
        let past = model_prefix(model, key).map_or(0, |p| p + 1);
        let ps: Vec<u32> = model
            .range((key, past)..(key + 1, 0))
            .map(|&(_, p)| p)
            .collect();
        ps.windows(2).filter(|w| w[1] != w[0] + 1).count() + usize::from(!ps.is_empty())
    }

    proptest! {
        /// Inserts and prefix merges under a reach that grows as they go
        /// (so far keys move into the vector mid-run) agree with a plain
        /// set of `(key, pos)` on membership, prefixes and range count,
        /// and the set round-trips through its bytes.
        #[test]
        fn the_set_matches_a_model(ops in proptest::collection::vec(op(), 0..64)) {
            let (mut set, mut model) = (SeenSet::default(), BTreeSet::new());
            for (i, &(merge, k, p)) in ops.iter().enumerate() {
                let reach = i as u64 / 4;
                if merge {
                    set.merge_prefix(k, p, reach);
                    model.extend((0..=p).map(|q| (k, q)));
                } else {
                    set.insert(k, p, reach);
                    model.insert((k, p));
                }
            }
            for k in 0..13 {
                for p in 0..26 {
                    prop_assert_eq!(set.contains(k, p), model.contains(&(k, p)), "{} {}", k, p);
                }
            }
            let want: Vec<(u32, u32)> = (0..13)
                .filter_map(|k| model_prefix(&model, k).map(|p| (k, p)))
                .collect();
            prop_assert_eq!(set.prefixes().collect::<Vec<_>>(), want);
            let runs: usize = (0..13).map(|k| model_runs(&model, k)).sum();
            let far_prefixes = (set.dense_len() as u32..13)
                .filter(|&k| model.contains(&(k, 0)))
                .count();
            prop_assert_eq!(set.sparse_ranges(), runs + far_prefixes);
            let bytes = flexcast_wire::to_bytes(&set).unwrap();
            prop_assert_eq!(flexcast_wire::from_bytes::<SeenSet>(&bytes).unwrap(), set);
        }
    }

    /// Loads a set whose vector covers keys 0 and 1 with prefix counts 0
    /// and 2, and whose ranges are `ranges`.
    fn load(ranges: &[(u32, u32, u32)]) -> Result<SeenSet, flexcast_types::Error> {
        let bytes = flexcast_wire::to_bytes(&(vec![0u32, 2], ranges.to_vec())).unwrap();
        flexcast_wire::from_bytes::<SeenSet>(&bytes)
    }

    #[test]
    fn a_valid_spelling_loads() {
        let set = load(&[(1, 3, 4), (1, 6, 6), (5, 0, 2)]).unwrap();
        assert_eq!(set.prefixes().collect::<Vec<_>>(), vec![(1, 1), (5, 2)]);
        assert!(set.contains(1, 6) && !set.contains(1, 5) && set.contains(5, 0));
    }

    #[test]
    fn a_range_that_ends_before_it_starts_is_refused() {
        assert!(load(&[(1, 5, 4)]).is_err());
    }

    #[test]
    fn unsorted_ranges_are_refused() {
        assert!(load(&[(5, 0, 2), (1, 4, 4)]).is_err(), "keys out of order");
        assert!(
            load(&[(1, 8, 9), (1, 4, 5)]).is_err(),
            "starts out of order"
        );
    }

    #[test]
    fn overlapping_ranges_are_refused() {
        assert!(load(&[(1, 4, 6), (1, 6, 8)]).is_err());
        assert!(load(&[(1, 4, 6), (1, 4, 6)]).is_err(), "a repeated range");
    }

    #[test]
    fn touching_ranges_are_refused() {
        assert!(load(&[(1, 4, 5), (1, 6, 8)]).is_err());
        assert!(load(&[(1, 4, 5), (1, 7, 8)]).is_ok(), "one position apart");
    }

    #[test]
    fn a_range_at_or_below_its_prefix_is_refused() {
        assert!(load(&[(1, 2, 4)]).is_err(), "touching the prefix");
        assert!(load(&[(1, 1, 1)]).is_err(), "inside the prefix");
        assert!(load(&[(0, 0, 1)]).is_err(), "from 0 with a zero prefix");
        assert!(load(&[(1, 3, 3)]).is_ok());
    }
}
