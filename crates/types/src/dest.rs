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
/// The paper's deployments use 12 groups (one per AWS region), and the
/// largest world any experiment, example or benchmark builds has 128
/// (`scale128`). At 128 a destination set is two words, 16 bytes in
/// memory: every history vertex, message, packet and replicated command
/// carries one, so the width is paid once per record, and a 512-group
/// ceiling made each of them 48 bytes larger for worlds nobody runs any
/// more (DESIGN.md §7 "What a history holds in memory"). A larger world,
/// up to 512 groups, widens this one constant: the word array, the
/// decoder's header range and the wire bytes of every smaller set follow
/// from it (see the `Serialize` impl), and the size guards next to
/// `DestSet`, `MsgRef` and `Message` fail, so the wider records are a
/// decision a diff shows.
pub const MAX_GROUPS: usize = 128;

/// Bitset backing width, in 64-bit words.
const WORDS: usize = MAX_GROUPS / 64;

/// A set of destination groups, `m.dst` in the paper.
///
/// Backed by a `[u64; 2]` bitmask where bit *i* (bit `i % 64` of word
/// `i / 64`) corresponds to [`GroupId`]`(i)`. Two words rather than a
/// `u128` keep the set 8-byte aligned, so a message reference (an 8-byte
/// id and a set) is 24 bytes rather than 32. The set is
/// value-semantic (`Copy`) and iterates in ascending rank order, which is
/// exactly the C-DAG ancestor→descendant order FlexCast needs.
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

const _: () = assert!(std::mem::size_of::<DestSet>() == 16);

/// Wire headers from here up name a one-member set: header `SINGLETON + r`
/// is `{r}` (see the `Serialize` impl). It is the literal 9, one past the
/// largest word count of the 512-group format, not `WORDS + 1`: that keeps
/// every set's bytes what they were when sets were eight words wide.
const SINGLETON: u16 = 9;

// Every word count must read as one: a header is a count or a singleton.
const _: () = assert!(WORDS < SINGLETON as usize);

/// The largest header a destination set can start with: `{MAX_GROUPS − 1}`.
const MAX_HEADER: u16 = SINGLETON + MAX_GROUPS as u16 - 1;

// Wire format: one header varint, then the words if any. Header `n` in
// `0..=2` is the *word form*: the significant words follow, `n = 2 −
// (trailing zero words)` of them, least significant first, each encoded
// as the format encodes a `u64` — so in `flexcast-wire` the empty set is
// 1 byte and a larger set over 12 groups 2 or 3. Header `9 + r`
// (`9..=136`) is the *singleton form* `{r}`, with no words after it: 1
// byte for ranks up to 118, 2 up to 127. A local delivery has one
// destination, so this form carries every local a history delta writes.
// Headers 3..=8 are the word counts of wider sets and spell nothing here.
//
// The encoding is canonical: a set with exactly one member is always
// sent in the singleton form, and otherwise the last word sent is never
// zero. The decoder refuses a word form holding exactly one member, a
// zero last word, a header in 3..=8 and a header above 136, so decoding
// then encoding reproduces the input bytes and an all-zero set has
// exactly one spelling (the one `Message`'s empty-destination check looks
// for). Header and words travel as a tuple, not a length-prefixed
// sequence: the wire decoder checks a sequence's length against the input
// left, which a singleton header is not. Either way it is one `Serialize`
// walk, which `flexcast-wire`'s `encoded_len` sizes and `to_bytes` writes.
impl Serialize for DestSet {
    #[inline]
    fn serialize<S: serde::Serializer>(&self, s: S) -> std::result::Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let [w0, w1] = self.0;
        if let Some(r) = self.sole() {
            let mut t = s.serialize_tuple(1)?;
            t.serialize_element(&(SINGLETON + r.0))?;
            return t.end();
        }
        if w1 == 0 {
            let mut t = s.serialize_tuple(2)?;
            t.serialize_element(&u16::from(w0 != 0))?;
            if w0 != 0 {
                t.serialize_element(&w0)?;
            }
            return t.end();
        }
        let mut t = s.serialize_tuple(3)?;
        t.serialize_element(&2u16)?;
        t.serialize_element(&w0)?;
        t.serialize_element(&w1)?;
        t.end()
    }
}

impl<'de> Deserialize<'de> for DestSet {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> std::result::Result<Self, D::Error> {
        struct SetVisitor;
        impl<'de> serde::de::Visitor<'de> for SetVisitor {
            type Value = DestSet;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(
                    f,
                    "a destination-set header of at most {WORDS} or {SINGLETON}..={MAX_HEADER}, then its words"
                )
            }
            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> std::result::Result<DestSet, A::Error> {
                use serde::de::Error as _;
                let missing = || A::Error::custom("destination set cut short");
                let header: u64 = seq.next_element()?.ok_or_else(missing)?;
                // Checked before any word is read or indexed: a header
                // past the word count would slice past the array.
                let Some(header) = u16::try_from(header)
                    .ok()
                    .filter(|&h| h as usize <= WORDS || (SINGLETON..=MAX_HEADER).contains(&h))
                else {
                    return Err(A::Error::custom(format_args!(
                        "destination-set header {header} out of range (at most {WORDS} or {SINGLETON}..={MAX_HEADER})"
                    )));
                };
                // The words land in the fixed array, so a hostile header
                // allocates nothing whatever it claims.
                let mut words = [0u64; WORDS];
                if header >= SINGLETON {
                    let r = (header - SINGLETON) as usize;
                    words[r / 64] = 1 << (r % 64);
                    return Ok(DestSet(words));
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
                if DestSet(words).sole().is_some() {
                    return Err(A::Error::custom(
                        "one-member destination set in word form (not canonical)",
                    ));
                }
                Ok(DestSet(words))
            }
        }
        // The longest spelling: the header and both words.
        d.deserialize_tuple(1 + WORDS, SetVisitor)
    }
}

impl DestSet {
    /// The empty destination set.
    pub const EMPTY: DestSet = DestSet([0; WORDS]);

    /// The set as one 128-bit mask, bit `i` for rank `i`.
    #[inline]
    fn mask(self) -> u128 {
        u128::from(self.0[1]) << 64 | u128::from(self.0[0])
    }

    /// The set whose members are `x`'s set bits.
    #[inline]
    fn from_mask(x: u128) -> DestSet {
        DestSet([x as u64, (x >> 64) as u64])
    }

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
        Self::from_mask(u128::MAX.checked_shl(n as u32).map_or(u128::MAX, |hi| !hi))
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
        self.mask().count_ones() as usize
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

    /// The one member of a one-member set, `None` for any other set.
    #[inline]
    pub fn sole(&self) -> Option<GroupId> {
        let x = self.mask();
        (x != 0 && x & (x - 1) == 0).then(|| GroupId(x.trailing_zeros() as u16))
    }

    /// The lowest-ranked group in the set: the message's `lca` in a C-DAG
    /// overlay (`m.lca()` in Algorithm 1).
    #[inline]
    pub fn lowest(self) -> Option<GroupId> {
        let x = self.mask();
        (x != 0).then(|| GroupId(x.trailing_zeros() as u16))
    }

    /// The highest-ranked group in the set.
    #[inline]
    pub fn highest(self) -> Option<GroupId> {
        let x = self.mask();
        (x != 0).then(|| GroupId((u128::BITS - 1 - x.leading_zeros()) as u16))
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: DestSet) -> DestSet {
        Self::from_mask(self.mask() & other.mask())
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: DestSet) -> DestSet {
        Self::from_mask(self.mask() | other.mask())
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(self, other: DestSet) -> DestSet {
        Self::from_mask(self.mask() & !other.mask())
    }

    /// True if `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: DestSet) -> bool {
        self.mask() & !other.mask() == 0
    }

    /// Members strictly lower-ranked than `g` (the *ancestors* of `g` that
    /// are in this set, in C-DAG terminology).
    #[inline]
    pub fn below(self, g: GroupId) -> DestSet {
        self.intersect(Self::all(g.index().min(MAX_GROUPS)))
    }

    /// Members strictly higher-ranked than `g` (the *descendants* of `g`
    /// that are in this set).
    #[inline]
    pub fn above(self, g: GroupId) -> DestSet {
        self.difference(Self::all((g.index() + 1).min(MAX_GROUPS)))
    }

    /// Iterates members in ascending rank order.
    pub fn iter(self) -> Iter {
        Iter { rest: self }
    }

    /// Raw word representation, least-significant word first (stable
    /// across serialization).
    #[inline]
    pub fn bits(self) -> [u64; WORDS] {
        self.0
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
    rest: DestSet,
}

impl Iterator for Iter {
    type Item = GroupId;

    #[inline]
    fn next(&mut self) -> Option<GroupId> {
        let x = self.rest.mask();
        self.rest = DestSet::from_mask(x & x.wrapping_sub(1));
        (x != 0).then(|| GroupId(x.trailing_zeros() as u16))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.rest.len();
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
        assert_eq!(ds(&[127]).lowest(), Some(GroupId(127)));
    }

    #[test]
    fn highest_member() {
        assert_eq!(ds(&[5, 2, 9]).highest(), Some(GroupId(9)));
        assert_eq!(ds(&[127, 0]).highest(), Some(GroupId(127)));
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
        assert_eq!(DestSet::all(100).len(), 100);
        assert_eq!(DestSet::all(MAX_GROUPS).len(), MAX_GROUPS);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn all_rejects_oversize() {
        let _ = DestSet::all(MAX_GROUPS + 1);
    }

    #[test]
    fn try_from_ranks_validates() {
        assert!(DestSet::try_from_ranks([0, 127]).is_ok());
        assert!(matches!(
            DestSet::try_from_ranks([128]),
            Err(Error::GroupOutOfRange(128))
        ));
    }

    #[test]
    fn below_and_above_split_around_pivot() {
        let s = ds(&[1, 3, 5, 7]);
        assert_eq!(s.below(GroupId(5)), ds(&[1, 3]));
        assert_eq!(s.above(GroupId(5)), ds(&[7]));
        assert_eq!(s.below(GroupId(0)), DestSet::EMPTY);
        assert_eq!(s.above(GroupId(127)), DestSet::EMPTY);
        // Splits that land on word boundaries (ranks 64/128) and straddle
        // them are the cases a multi-word mask can get wrong.
        let wide = ds(&[0, 63, 64, 65, 126, 127]);
        assert_eq!(wide.below(GroupId(64)), ds(&[0, 63]));
        assert_eq!(wide.above(GroupId(64)), ds(&[65, 126, 127]));
        assert_eq!(wide.below(GroupId(128)), wide);
        assert_eq!(wide.below(GroupId(127)), ds(&[0, 63, 64, 65, 126]));
        assert_eq!(wide.above(GroupId(126)), ds(&[127]));
        assert_eq!(wide.above(GroupId(63)), ds(&[64, 65, 126, 127]));
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
        let c = ds(&[10, 70, 120]);
        let d = ds(&[70, 120, 127]);
        assert_eq!(c.intersect(d), ds(&[70, 120]));
        assert_eq!(c.union(d), ds(&[10, 70, 120, 127]));
        assert_eq!(c.difference(d), ds(&[10]));
    }

    #[test]
    fn iterates_in_ascending_rank_order() {
        let s = ds(&[9, 0, 4, 100, 127]);
        let order: Vec<u16> = s.iter().map(|g| g.rank()).collect();
        assert_eq!(order, vec![0, 4, 9, 100, 127]);
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
            let bits = s.bits();
            let bit = |g: u16| bits[g as usize / 64] >> (g % 64) & 1 == 1;
            prop_assert!((0..MAX_GROUPS as u16).all(|g| bit(g) == s.contains(GroupId(g))));
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
