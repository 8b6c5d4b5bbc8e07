//! Destination sets (`m.dst`).
//!
//! FlexCast's ordering logic performs many small set operations on
//! destination sets: membership tests in `can-deliver`, intersections when
//! computing lowest common destinations, and iteration when forwarding to
//! descendants. Destination sets are therefore represented as a fixed-width
//! bitset over group ranks, which makes all of those O(1)/O(words).

use crate::{Error, GroupId, Result};
use serde::{Deserialize, Serialize};

/// Maximum number of groups supported by [`DestSet`].
///
/// The paper's deployments use 12 groups (one per AWS region); 512 covers
/// the scale sweeps' largest synthetic world while keeping a destination
/// set a flat 64 bytes in memory — still `Copy`, still branch-free set
/// algebra. On the wire a set costs only its significant words, and a
/// one-member set one header byte up to rank 118 and two above it (see
/// the `Serialize` impl), so the headroom is free for small worlds.
pub const MAX_GROUPS: usize = 512;

/// Bitset backing width, in 64-bit words.
const WORDS: usize = MAX_GROUPS / 64;

/// A set of destination groups, `m.dst` in the paper.
///
/// Backed by a `[u64; 8]` bitmask where bit *i* (bit `i % 64` of word
/// `i / 64`) corresponds to [`GroupId`]`(i)`. The set is value-semantic
/// (`Copy`) and iterates in ascending rank order, which is exactly the
/// C-DAG ancestor→descendant order FlexCast needs.
///
/// # Examples
///
/// ```
/// use flexcast_types::{DestSet, GroupId};
///
/// let dst = DestSet::from_iter([GroupId(2), GroupId(0), GroupId(5)]);
/// assert_eq!(dst.len(), 3);
/// assert_eq!(dst.lowest(), Some(GroupId(0))); // the lca of the message
/// assert!(dst.contains(GroupId(2)));
/// let ranks: Vec<u16> = dst.iter().map(|g| g.rank()).collect();
/// assert_eq!(ranks, vec![0, 2, 5]);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DestSet([u64; WORDS]);

/// Wire headers from here up name a one-member set: header `SINGLETON + r`
/// is `{r}` (see the `Serialize` impl).
const SINGLETON: u16 = WORDS as u16 + 1;

/// The largest header a destination set can start with: `{MAX_GROUPS − 1}`.
const MAX_HEADER: u16 = SINGLETON + MAX_GROUPS as u16 - 1;

/// The rank of the one member of `words`, whose last word must be
/// non-zero — `None` unless exactly one bit is set. One `w & (w − 1)`
/// test on the top word and a zero check below it, not a popcount pass.
#[inline]
fn sole_member(words: &[u64]) -> Option<u16> {
    let (&top, below) = words.split_last()?;
    (top & (top - 1) == 0 && below.iter().all(|&w| w == 0))
        .then(|| (below.len() * 64) as u16 + top.trailing_zeros() as u16)
}

// Wire format: one header varint, then the words if any. Header `n` in
// `0..=8` is the *word form*: the significant words follow, `n = 8 −
// (trailing zero words)` of them, least significant first, each encoded
// as the format encodes a `u64` — so in `flexcast-wire` the empty set is
// 1 byte and a larger set over 12 groups 2 or 3. Header `9 + r`
// (`9..=520`) is the *singleton form* `{r}`, with no words after it: 1
// byte for ranks up to 118, 2 up to 511. Most vertices a history delta
// relays are local deliveries with one destination, so this form carries
// most sets.
//
// The encoding is canonical: a set with exactly one member is always
// sent in the singleton form, and otherwise the last word sent is never
// zero. The decoder refuses a word form holding exactly one member, a
// zero last word and a header above 520, so decoding then encoding
// reproduces the input bytes and an all-zero set has exactly one
// spelling (the one `Message`'s empty-destination check looks for).
// Headers above 520 are the code space [`TaggedDestSet`] spends.
// Header and words travel as a tuple, not a length-prefixed sequence:
// the wire decoder checks a sequence's length against the input left,
// which a singleton header is not. Either way it is one `Serialize` walk,
// which `flexcast-wire`'s `encoded_len` sizes and `to_bytes` writes.
impl Serialize for DestSet {
    #[inline]
    fn serialize<S: serde::Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        self.serialize_tagged(0, s)
    }
}

impl<'de> Deserialize<'de> for DestSet {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        // The longest spelling: the header and all eight words.
        d.deserialize_tuple(1 + WORDS, SetVisitor { tagged: false })
            .map(|t| t.set)
    }
}

/// The number of distinct bare-set headers: header `h + HEADERS · tag`
/// is the set of header `h` carrying `tag` (see [`TaggedDestSet`]).
const HEADERS: u64 = MAX_HEADER as u64 + 1;

/// A destination set and a count written as one: on the wire the count
/// is folded into the set's header, as `h + 521 · tag` where `h ≤ 520` is
/// the bare set's header — code space a bare [`DestSet`] leaves unused,
/// and whose decoder refuses it. Tag 0 spells the bare set byte for
/// byte, and a small tag costs at most one byte more: a header of one
/// byte becomes two up to tag 31.
///
/// A history delta writes each vertex's set in this form, the tag being
/// how many vertices the delta left out just before it
/// (`flexcast_core::HistoryDelta`). `D` is the set or a reference to it,
/// so a writer need not copy the set's 64 bytes; a decoded one owns it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaggedDestSet<D = DestSet> {
    /// The destination set.
    pub set: D,
    /// The count that shares its header.
    pub tag: u32,
}

impl<D: std::borrow::Borrow<DestSet>> Serialize for TaggedDestSet<D> {
    #[inline]
    fn serialize<S: serde::Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        self.set.borrow().serialize_tagged(self.tag, s)
    }
}

impl<'de> Deserialize<'de> for TaggedDestSet {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        d.deserialize_tuple(1 + WORDS, SetVisitor { tagged: true })
    }
}

/// Decodes a header and its words; a header above 520 is refused unless
/// `tagged`, before any word is read.
struct SetVisitor {
    tagged: bool,
}

impl<'de> serde::de::Visitor<'de> for SetVisitor {
    type Value = TaggedDestSet;
    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a destination-set header of at most {MAX_HEADER}, then its words"
        )
    }
    fn visit_seq<A: serde::de::SeqAccess<'de>>(
        self,
        mut seq: A,
    ) -> std::result::Result<TaggedDestSet, A::Error> {
        use serde::de::Error as _;
        let missing = || A::Error::custom("destination set cut short");
        let header: u64 = seq.next_element()?.ok_or_else(missing)?;
        let tag = header / HEADERS;
        if tag > 0 && !self.tagged {
            return Err(A::Error::custom(format_args!(
                "destination-set header {header} out of range (at most {MAX_HEADER})"
            )));
        }
        let Ok(tag) = u32::try_from(tag) else {
            return Err(A::Error::custom(format_args!(
                "destination-set tag {tag} out of range (at most {})",
                u32::MAX
            )));
        };
        let header = (header % HEADERS) as u16;
        // The words land in the fixed array, so a hostile header
        // allocates nothing whatever it claims.
        let mut words = [0u64; WORDS];
        if header >= SINGLETON {
            let r = (header - SINGLETON) as usize;
            words[r / 64] = 1 << (r % 64);
            return Ok(TaggedDestSet {
                set: DestSet(words),
                tag,
            });
        }
        let n = header as usize;
        for w in &mut words[..n] {
            *w = seq.next_element()?.ok_or_else(missing)?;
        }
        if n > 0 && words[n - 1] == 0 {
            return Err(A::Error::custom(
                "destination set ends in a zero word (not canonical)",
            ));
        }
        if sole_member(&words[..n]).is_some() {
            return Err(A::Error::custom(
                "one-member destination set in word form (not canonical)",
            ));
        }
        Ok(TaggedDestSet {
            set: DestSet(words),
            tag,
        })
    }
}

impl DestSet {
    /// Writes the set with `tag` folded into its header: the one
    /// `Serialize` walk behind both [`DestSet`] and [`TaggedDestSet`].
    #[inline]
    fn serialize_tagged<S: serde::Serializer>(
        &self,
        tag: u32,
        s: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let base = u64::from(tag) * HEADERS;
        // A set within ranks 0..128 — every set of a world of up to 128
        // groups — takes straight-line code: one test finds the upper
        // words empty, and the one or two words left need no loop.
        // Through the general path below such sets sized up to a quarter
        // slower than a word-form-only encoder (DESIGN.md §7 "One
        // destination, one byte").
        let [w0, w1, ref upper @ ..] = self.0;
        if upper.iter().fold(0, |a, &w| a | w) == 0 {
            let x = u128::from(w1) << 64 | u128::from(w0);
            if x != 0 && x & (x - 1) == 0 {
                let mut t = s.serialize_tuple(1)?;
                t.serialize_element(
                    &(base + u64::from(SINGLETON) + u64::from(x.trailing_zeros())),
                )?;
                return t.end();
            }
            if w1 == 0 {
                let mut t = s.serialize_tuple(2)?;
                t.serialize_element(&(base + u64::from(w0 != 0)))?;
                if w0 != 0 {
                    t.serialize_element(&w0)?;
                }
                return t.end();
            }
            let mut t = s.serialize_tuple(3)?;
            t.serialize_element(&(base + 2))?;
            t.serialize_element(&w0)?;
            t.serialize_element(&w1)?;
            return t.end();
        }
        if let Some(r) = self.sole() {
            let mut t = s.serialize_tuple(1)?;
            t.serialize_element(&(base + u64::from(SINGLETON + r.0)))?;
            return t.end();
        }
        let n = (u32::BITS - self.nonzero_words().leading_zeros()) as usize;
        let words = &self.0[..n];
        let mut t = s.serialize_tuple(1 + n)?;
        t.serialize_element(&(base + n as u64))?;
        for w in words {
            t.serialize_element(w)?;
        }
        t.end()
    }

    /// The one member of a one-member set, `None` for any other set.
    #[inline]
    pub fn sole(&self) -> Option<GroupId> {
        // Ranks 0..128 — every set of a world of up to 128 groups — are
        // tested as one 128-bit word.
        let [w0, w1, ref upper @ ..] = self.0;
        if upper.iter().fold(0, |a, &w| a | w) == 0 {
            let x = u128::from(w1) << 64 | u128::from(w0);
            return (x != 0 && x & (x - 1) == 0).then(|| GroupId(x.trailing_zeros() as u16));
        }
        let nz = self.nonzero_words();
        if nz & (nz - 1) != 0 {
            return None;
        }
        let k = nz.trailing_zeros() as usize;
        let w = self.0[k];
        (w & (w - 1) == 0).then(|| GroupId((k * 64) as u16 + w.trailing_zeros() as u16))
    }

    /// Bit `k` set if word `k` is not zero: one compare a word and no
    /// branch, where a scan for the top word loops.
    #[inline]
    fn nonzero_words(&self) -> u32 {
        (0..WORDS).fold(0, |m, k| m | u32::from(self.0[k] != 0) << k)
    }
}

impl DestSet {
    /// The empty destination set.
    pub const EMPTY: DestSet = DestSet([0; WORDS]);

    /// Creates an empty destination set.
    #[inline]
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates a singleton set (a *local* message destination).
    #[inline]
    pub fn singleton(g: GroupId) -> Self {
        let mut s = Self::new();
        s.insert(g);
        s
    }

    /// Creates the full set `{0, .., n-1}` of the first `n` groups.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_GROUPS`.
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_GROUPS, "at most {MAX_GROUPS} groups supported");
        let mut words = [0u64; WORDS];
        let (full, rem) = (n / 64, n % 64);
        words[..full].fill(u64::MAX);
        if rem > 0 {
            words[full] = (1u64 << rem) - 1;
        }
        DestSet(words)
    }

    /// Builds a destination set from raw ranks, validating the bound.
    pub fn try_from_ranks<I: IntoIterator<Item = u16>>(ranks: I) -> Result<Self> {
        let mut s = Self::new();
        for r in ranks {
            if (r as usize) >= MAX_GROUPS {
                return Err(Error::GroupOutOfRange(r));
            }
            s.insert(GroupId(r));
        }
        Ok(s)
    }

    /// Inserts a group into the set.
    ///
    /// # Panics
    ///
    /// Panics if the group rank is `>= MAX_GROUPS`.
    #[inline]
    pub fn insert(&mut self, g: GroupId) {
        let i = g.index();
        assert!(i < MAX_GROUPS, "group rank out of range");
        self.0[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes a group from the set (no-op if absent).
    #[inline]
    pub fn remove(&mut self, g: GroupId) {
        let i = g.index();
        if i < MAX_GROUPS {
            self.0[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Tests membership.
    #[inline]
    pub fn contains(self, g: GroupId) -> bool {
        let i = g.index();
        i < MAX_GROUPS && (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of destinations. `len() == 1` means a *local* message,
    /// `len() > 1` a *global* message (paper §2.2).
    #[inline]
    pub fn len(self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no destinations.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == [0; WORDS]
    }

    /// True for a *global* message (two or more destination groups).
    #[inline]
    pub fn is_global(self) -> bool {
        self.len() > 1
    }

    /// The lowest-ranked group in the set: the message's `lca` in a C-DAG
    /// overlay (`m.lca()` in Algorithm 1).
    #[inline]
    pub fn lowest(self) -> Option<GroupId> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, w)| GroupId((i * 64) as u16 + w.trailing_zeros() as u16))
    }

    /// The highest-ranked group in the set.
    #[inline]
    pub fn highest(self) -> Option<GroupId> {
        self.0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, w)| GroupId((i * 64 + 63) as u16 - w.leading_zeros() as u16))
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: DestSet) -> DestSet {
        let mut w = self.0;
        for (a, b) in w.iter_mut().zip(other.0) {
            *a &= b;
        }
        DestSet(w)
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: DestSet) -> DestSet {
        let mut w = self.0;
        for (a, b) in w.iter_mut().zip(other.0) {
            *a |= b;
        }
        DestSet(w)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(self, other: DestSet) -> DestSet {
        let mut w = self.0;
        for (a, b) in w.iter_mut().zip(other.0) {
            *a &= !b;
        }
        DestSet(w)
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: DestSet) -> bool {
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a & !b == 0)
    }

    /// Members strictly lower-ranked than `g` (the *ancestors* of `g` that
    /// are in this set, in C-DAG terminology).
    #[inline]
    pub fn below(self, g: GroupId) -> DestSet {
        let i = g.index().min(MAX_GROUPS);
        let (full, rem) = (i / 64, i % 64);
        let mut w = self.0;
        for (j, word) in w.iter_mut().enumerate() {
            if j > full || (j == full && rem == 0) {
                *word = 0;
            } else if j == full {
                *word &= (1u64 << rem) - 1;
            }
        }
        DestSet(w)
    }

    /// Members strictly higher-ranked than `g` (the *descendants* of `g`
    /// that are in this set).
    #[inline]
    pub fn above(self, g: GroupId) -> DestSet {
        if g.index() >= MAX_GROUPS - 1 {
            return DestSet::EMPTY;
        }
        let i = g.index() + 1;
        let (full, rem) = (i / 64, i % 64);
        let mut w = self.0;
        for (j, word) in w.iter_mut().enumerate() {
            if j < full {
                *word = 0;
            } else if j == full && rem > 0 {
                *word &= u64::MAX << rem;
            }
        }
        DestSet(w)
    }

    /// Iterates members in ascending rank order.
    pub fn iter(self) -> Iter {
        Iter {
            words: self.0,
            w: 0,
        }
    }

    /// Raw word representation, least-significant word first (stable
    /// across serialization).
    #[inline]
    pub fn bits(self) -> [u64; WORDS] {
        self.0
    }

    /// Reconstructs a set from its raw words.
    #[inline]
    pub fn from_bits(bits: [u64; WORDS]) -> Self {
        DestSet(bits)
    }
}

impl FromIterator<GroupId> for DestSet {
    fn from_iter<I: IntoIterator<Item = GroupId>>(iter: I) -> Self {
        let mut s = DestSet::new();
        for g in iter {
            s.insert(g);
        }
        s
    }
}

impl IntoIterator for DestSet {
    type Item = GroupId;
    type IntoIter = Iter;
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Ascending-rank iterator over a [`DestSet`].
#[derive(Clone)]
pub struct Iter {
    words: [u64; WORDS],
    w: usize,
}

impl Iterator for Iter {
    type Item = GroupId;

    #[inline]
    fn next(&mut self) -> Option<GroupId> {
        while self.w < WORDS {
            let word = self.words[self.w];
            if word == 0 {
                self.w += 1;
                continue;
            }
            let tz = word.trailing_zeros();
            self.words[self.w] &= word - 1;
            return Some(GroupId((self.w * 64) as u16 + tz as u16));
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.w..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl std::fmt::Debug for DestSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ds(ranks: &[u16]) -> DestSet {
        DestSet::try_from_ranks(ranks.iter().copied()).unwrap()
    }

    #[test]
    fn empty_set_basics() {
        let s = DestSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.lowest(), None);
        assert_eq!(s.highest(), None);
        assert!(!s.is_global());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = DestSet::new();
        s.insert(GroupId(3));
        s.insert(GroupId(11));
        assert!(s.contains(GroupId(3)));
        assert!(s.contains(GroupId(11)));
        assert!(!s.contains(GroupId(4)));
        s.remove(GroupId(3));
        assert!(!s.contains(GroupId(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lowest_is_the_lca() {
        assert_eq!(ds(&[5, 2, 9]).lowest(), Some(GroupId(2)));
        assert_eq!(ds(&[0]).lowest(), Some(GroupId(0)));
        assert_eq!(ds(&[511]).lowest(), Some(GroupId(511)));
    }

    #[test]
    fn highest_member() {
        assert_eq!(ds(&[5, 2, 9]).highest(), Some(GroupId(9)));
        assert_eq!(ds(&[511, 0]).highest(), Some(GroupId(511)));
    }

    #[test]
    fn local_vs_global() {
        assert!(!ds(&[4]).is_global());
        assert!(ds(&[4, 6]).is_global());
    }

    #[test]
    fn all_builds_prefix_sets() {
        assert_eq!(DestSet::all(0), DestSet::EMPTY);
        assert_eq!(DestSet::all(3), ds(&[0, 1, 2]));
        assert_eq!(DestSet::all(64), DestSet::try_from_ranks(0..64).unwrap());
        assert_eq!(DestSet::all(200).len(), 200);
        assert_eq!(DestSet::all(MAX_GROUPS).len(), MAX_GROUPS);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn all_rejects_oversize() {
        let _ = DestSet::all(MAX_GROUPS + 1);
    }

    #[test]
    fn try_from_ranks_validates() {
        assert!(DestSet::try_from_ranks([0, 511]).is_ok());
        assert!(matches!(
            DestSet::try_from_ranks([512]),
            Err(Error::GroupOutOfRange(512))
        ));
    }

    #[test]
    fn below_and_above_split_around_pivot() {
        let s = ds(&[1, 3, 5, 7]);
        assert_eq!(s.below(GroupId(5)), ds(&[1, 3]));
        assert_eq!(s.above(GroupId(5)), ds(&[7]));
        assert_eq!(s.below(GroupId(0)), DestSet::EMPTY);
        assert_eq!(s.above(GroupId(511)), DestSet::EMPTY);
        // Splits that land on word boundaries (ranks 64/128) and straddle
        // them are the cases a multi-word mask can get wrong.
        let wide = ds(&[0, 63, 64, 65, 127, 128, 300, 511]);
        assert_eq!(wide.below(GroupId(64)), ds(&[0, 63]));
        assert_eq!(wide.above(GroupId(64)), ds(&[65, 127, 128, 300, 511]));
        assert_eq!(wide.below(GroupId(128)), ds(&[0, 63, 64, 65, 127]));
        assert_eq!(wide.above(GroupId(127)), ds(&[128, 300, 511]));
    }

    #[test]
    fn set_algebra() {
        let a = ds(&[1, 2, 3]);
        let b = ds(&[2, 3, 4]);
        assert_eq!(a.intersect(b), ds(&[2, 3]));
        assert_eq!(a.union(b), ds(&[1, 2, 3, 4]));
        assert_eq!(a.difference(b), ds(&[1]));
        assert!(ds(&[2, 3]).is_subset(a));
        assert!(!a.is_subset(b));
        // Cross-word algebra.
        let c = ds(&[10, 70, 200]);
        let d = ds(&[70, 200, 400]);
        assert_eq!(c.intersect(d), ds(&[70, 200]));
        assert_eq!(c.union(d), ds(&[10, 70, 200, 400]));
        assert_eq!(c.difference(d), ds(&[10]));
    }

    #[test]
    fn iterates_in_ascending_rank_order() {
        let s = ds(&[9, 0, 4, 100, 450]);
        let order: Vec<u16> = s.iter().map(|g| g.rank()).collect();
        assert_eq!(order, vec![0, 4, 9, 100, 450]);
        assert_eq!(s.iter().len(), 5);
    }

    #[test]
    fn debug_format_lists_members() {
        assert_eq!(format!("{:?}", ds(&[1, 3])), "{g1, g3}");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_bits(ranks in proptest::collection::vec(0u16..MAX_GROUPS as u16, 0..20)) {
            let s = DestSet::try_from_ranks(ranks.iter().copied()).unwrap();
            prop_assert_eq!(DestSet::from_bits(s.bits()), s);
        }

        #[test]
        fn prop_len_matches_iteration(ranks in proptest::collection::vec(0u16..MAX_GROUPS as u16, 0..20)) {
            let s = DestSet::try_from_ranks(ranks.iter().copied()).unwrap();
            prop_assert_eq!(s.iter().count(), s.len());
        }

        #[test]
        fn prop_below_above_partition(ranks in proptest::collection::vec(0u16..MAX_GROUPS as u16, 1..20), pivot in 0u16..MAX_GROUPS as u16) {
            let s = DestSet::try_from_ranks(ranks.iter().copied()).unwrap();
            let g = GroupId(pivot);
            let lo = s.below(g);
            let hi = s.above(g);
            // below/above partition the set minus the pivot itself.
            prop_assert_eq!(lo.intersect(hi), DestSet::EMPTY);
            let mut merged = lo.union(hi);
            if s.contains(g) { merged.insert(g); }
            prop_assert_eq!(merged, s);
            for m in lo.iter() { prop_assert!(m < g); }
            for m in hi.iter() { prop_assert!(m > g); }
        }

        #[test]
        fn prop_lowest_is_min(ranks in proptest::collection::vec(0u16..MAX_GROUPS as u16, 1..20)) {
            let s = DestSet::try_from_ranks(ranks.iter().copied()).unwrap();
            let min = ranks.iter().copied().min().unwrap();
            prop_assert_eq!(s.lowest(), Some(GroupId(min)));
        }
    }
}
