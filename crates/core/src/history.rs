//! The history DAG (paper Algorithm 1, type `H`).
//!
//! A history is `H = (M, D, lastDlvd)`: a set of message vertices, a set of
//! order edges, and the last message delivered locally. Vertices carry only
//! a message's id and destinations ("A vertex contains a message's id and
//! destinations", §4.1) — payloads never travel inside histories.
//!
//! Each group's own deliveries form a chain (total order); merging the
//! histories of ancestor groups turns the structure into a DAG whose paths
//! encode (transitive) delivery dependencies.

use crate::slots::SlotTable;
use flexcast_types::{DestSet, GroupId, Message, MsgId, TaggedDestSet, MAX_GROUPS};
use serde::de::{DeserializeSeed, Error as _, SeqAccess, Visitor};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A history vertex: a message's identity and destinations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MsgRef {
    /// The message's globally unique id.
    pub id: MsgId,
    /// The message's destination groups.
    pub dst: DestSet,
}

impl MsgRef {
    /// Builds a reference from a full message.
    pub fn of(m: &Message) -> Self {
        MsgRef {
            id: m.id,
            dst: m.dst,
        }
    }

    /// The lowest-ranked destination (`m.lca()`).
    pub fn lca(&self) -> GroupId {
        self.dst
            .lowest()
            .expect("history vertices have destinations")
    }
}

/// A history order edge with its provenance: which group created it and
/// at which position in that group's creation sequence.
///
/// Every edge in the system originates at exactly one group — the group
/// that delivered `after` immediately after `before` chains the pair in
/// [`History::record_delivery`]. Tagging edges with the `(creator, idx)`
/// of that event gives each one a dense, per-creator stream position, so
/// "which edges has this group processed?" compresses to one watermark
/// per creator (the same closed-prefix trick the vertex tombstones use)
/// — the representation behind protocol-level delta suppression.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TaggedEdge {
    /// The group whose delivery created this edge.
    pub creator: GroupId,
    /// Position in the creator's edge-creation sequence (dense from 0).
    pub idx: u32,
    /// The earlier message (`before → after` is a delivery-order edge).
    pub before: MsgId,
    /// The later message.
    pub after: MsgId,
}

impl TaggedEdge {
    /// True if `self` continues the chain `prev` left off: the same
    /// creator, the next index, and `before` is `prev`'s `after` — what a
    /// group's successive deliveries produce.
    #[inline]
    fn continues(&self, prev: &TaggedEdge) -> bool {
        self.creator == prev.creator
            && prev.idx.checked_add(1) == Some(self.idx)
            && self.before == prev.after
    }
}

/// The portion of a history shipped inside one packet (`diff-hst`, Alg. 3
/// line 11): only the vertices and edges the receiver has not seen from
/// this sender yet.
///
/// On the wire the edges travel as *chains*: a count of maximal runs of
/// edges each of which continues the one before it (same creator, next
/// index, `before` equal to the previous `after`), each run written
/// `(creator, first idx, first before, afters)` with `afters` a counted
/// sequence of ids. A run of `k` edges costs one header and `k` ids
/// instead of `k` four-field edges.
///
/// A *local delivery* — a vertex `{id, {c}}` whose in-edge, `c`'s edge
/// into `id`, is in the same delta — is not written at all: the edge
/// already names both halves of it. Which vertices go is one rule,
/// walked over the vertices in order with a cursor into the edges: a
/// vertex `{id, {c}}` is left out when `c`'s edge into `id` lies among
/// the 64 edges from the cursor on, ahead of any edge of `c` out of `id`;
/// that edge is its in-edge, and the cursor moves past it. A written
/// vertex carries, folded
/// into its destination set's header ([`TaggedDestSet`]), how many
/// vertices were left out just before it; a run holding in-edges is
/// *marked* — an empty `afters` (code a plain run never uses), then its
/// `afters`, then one bit per after, set on the in-edges, 63 to a varint.
/// The decoder rebuilds each left-out vertex as `{after, {creator}}` of
/// the next set bit, in order, at its place. A delta that leaves nothing
/// out encodes as it would without the rule.
///
/// The encoding is canonical: the decoder refuses an empty run, a run
/// whose indices pass `u32::MAX`, a run whose first edge continues the
/// previous run's last, a marked run that marks nothing or sets a bit past
/// its end, more left-out vertices than set bits, a rebuilt vertex whose
/// creator no [`DestSet`] holds, and any choice of left-out vertices other
/// than the rule's — so decoding then encoding reproduces the input bytes.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct HistoryDelta {
    /// New vertices.
    pub verts: Vec<MsgRef>,
    /// New order edges, each carrying its creation provenance.
    pub edges: Vec<TaggedEdge>,
}

impl HistoryDelta {
    /// An empty delta.
    pub fn empty() -> Self {
        HistoryDelta::default()
    }

    /// True if the delta carries nothing.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty() && self.edges.is_empty()
    }

    /// Total number of entries (vertices plus edges) in the delta.
    pub fn len(&self) -> usize {
        self.verts.len() + self.edges.len()
    }
}

/// How many marks one varint of a marked run carries: 63 bits fill the
/// nine bytes a varint spends on them.
const MARK_BITS: usize = 63;

/// How many edges from the cursor on a left-out vertex's in-edge may lie
/// ([`HistoryDelta`]'s rule). It bounds the rule's walk at 64 steps a
/// vertex. In the deltas `flexbench` ships at seed 1, every in-edge that
/// is in its vertex's delta lies within 16 edges of the cursor on
/// `scale128` and within 64 on `wan12`.
const IN_EDGE_WINDOW: usize = 64;

/// [`HistoryDelta`]'s rule as a walk: fed the vertices in order, it
/// answers which are left out and names their in-edges. Encoder and
/// decoder both walk it, so the decoder can refuse any other choice.
#[derive(Clone, Copy)]
struct InEdges<'a> {
    edges: &'a [TaggedEdge],
    cursor: usize,
}

impl<'a> InEdges<'a> {
    fn new(edges: &'a [TaggedEdge]) -> Self {
        InEdges { edges, cursor: 0 }
    }

    /// The index of `v`'s in-edge if the rule leaves `v` out, which moves
    /// the cursor past it, and `None` if `v` is written.
    #[inline]
    fn take(&mut self, v: &MsgRef) -> Option<usize> {
        let c = v.dst.sole()?;
        let rest = &self.edges[self.cursor..];
        let next = rest.first()?;
        // Most in-edges are the next edge; only the others cost a walk.
        let k = if next.after == v.id && next.creator == c {
            0
        } else {
            let window = &rest[..rest.len().min(IN_EDGE_WINDOW)];
            let k = window
                .iter()
                .position(|e| e.creator == c && (e.after == v.id || e.before == v.id))?;
            if window[k].after != v.id {
                return None;
            }
            k
        };
        self.cursor += k + 1;
        Some(self.cursor - 1)
    }
}

/// One bit per entry, on the stack up to 512 entries.
struct Bits {
    inline: [u64; 8],
    heap: Vec<u64>,
}

impl Bits {
    fn new(len: usize) -> Self {
        let words = len.div_ceil(64);
        Bits {
            inline: [0; 8],
            heap: if words > 8 {
                vec![0; words]
            } else {
                Vec::new()
            },
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline
        } else {
            &self.heap
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        if self.heap.is_empty() {
            &mut self.inline
        } else {
            &mut self.heap
        }
    }

    /// The first set bit at or after `from`.
    fn next_set(&self, from: usize) -> Option<usize> {
        let words = self.words();
        let mut w = from / 64;
        let mut word = words.get(w)? & (!0 << (from % 64));
        while word == 0 {
            w += 1;
            word = *words.get(w)?;
        }
        Some(w * 64 + word.trailing_zeros() as usize)
    }

    /// Bits `at..at + width` as the low bits of a word, `width ≤ 63`.
    #[inline]
    fn bits_at(&self, at: usize, width: usize) -> u64 {
        let words = self.words();
        let (w, b) = (at / 64, at % 64);
        let mut x = words[w] >> b;
        if b + width > 64 {
            x |= words[w + 1] << (64 - b);
        }
        x & ((1 << width) - 1)
    }
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// Which of a delta's vertices the rule leaves out and which edges are
/// their in-edges, from one walk of [`InEdges`].
struct Plan {
    left_out: Bits,
    in_edges: Bits,
    count: usize,
}

impl Plan {
    /// The plan, or `None` if the delta leaves nothing out.
    fn of(delta: &HistoryDelta) -> Option<Plan> {
        let mut left_out = Bits::new(delta.verts.len());
        let mut in_edges = Bits::new(delta.edges.len());
        let (lo, ie) = (left_out.words_mut(), in_edges.words_mut());
        let mut rule = InEdges::new(&delta.edges);
        let mut count = 0;
        for (i, v) in delta.verts.iter().enumerate() {
            let at = rule.cursor;
            let Some(next) = rule.edges.get(at) else {
                break;
            };
            // `InEdges::take`'s common case, the next edge, tested with
            // one branch: the vertex's kind and its edge's fit are
            // combined first.
            let next_fits = (v.dst.sole() == Some(next.creator)) & (next.after == v.id);
            let e = if next_fits {
                rule.cursor = at + 1;
                at
            } else {
                let Some(e) = rule.take(v) else {
                    continue;
                };
                e
            };
            set_bit(lo, i);
            set_bit(ie, e);
            count += 1;
        }
        (count > 0).then_some(Plan {
            left_out,
            in_edges,
            count,
        })
    }
}

#[cfg(test)]
impl HistoryDelta {
    /// How many vertices the wire form leaves out.
    pub(crate) fn left_out(&self) -> usize {
        Plan::of(self).map_or(0, |p| p.count)
    }
}

impl Serialize for HistoryDelta {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match Plan::of(self) {
            None => (&self.verts, Runs(&self.edges, None)).serialize(s),
            Some(plan) => {
                let written = Written {
                    delta: self,
                    plan: &plan,
                };
                (written, Runs(&self.edges, Some(&plan.in_edges))).serialize(s)
            }
        }
    }
}

/// The vertices a delta writes, each with the number left out just
/// before it folded into its header.
struct Written<'a> {
    delta: &'a HistoryDelta,
    plan: &'a Plan,
}

impl Serialize for Written<'_> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::ser::{Error as _, SerializeSeq};
        let verts = &self.delta.verts;
        let mut seq = s.serialize_seq(Some(verts.len() - self.plan.count))?;
        // The written vertices are the zero bits: walked a word at a time,
        // the left-out ones cost nothing here.
        let mut last = 0;
        for (w, &word) in self.plan.left_out.words().iter().enumerate() {
            let mut zeros = !word;
            while zeros != 0 {
                let i = w * 64 + zeros.trailing_zeros() as usize;
                let Some(v) = verts.get(i) else {
                    return seq.end();
                };
                let gap = u32::try_from(i - last).map_err(|_| {
                    S::Error::custom("history delta: 2³² vertices left out in a row")
                })?;
                let set = TaggedDestSet {
                    set: &v.dst,
                    tag: gap,
                };
                seq.serialize_element(&(&v.id, set))?;
                last = i + 1;
                zeros &= zeros - 1;
            }
        }
        seq.end()
    }
}

/// A delta's edges as the counted sequence of their maximal runs, and
/// the in-edges to mark among them if the delta leaves vertices out.
struct Runs<'a>(&'a [TaggedEdge], Option<&'a Bits>);

/// One run's edges, written as their `after` ids alone.
struct Afters<'a>(&'a [TaggedEdge]);

/// A marked run's bits: edge `from + i` is an in-edge if bit `i % 63`
/// of word `i / 63` is set. A word is written as a varint, so it costs a
/// byte per seven bits up to its last set one.
struct MarkBits<'a> {
    from: usize,
    to: usize,
    in_edges: &'a Bits,
}

impl Serialize for Runs<'_> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq;
        let edges = self.0;
        // The count pass records where the first 64 runs end, so the walk
        // below compares edges again only beyond them; a delta rarely
        // holds more than a few dozen runs.
        let mut breaks = [0u32; 64];
        let mut n_breaks = 0;
        for (i, w) in edges.windows(2).enumerate() {
            if !w[1].continues(&w[0]) {
                if let Some(b) = breaks.get_mut(n_breaks) {
                    *b = i as u32 + 1;
                }
                n_breaks += 1;
            }
        }
        let runs = n_breaks + usize::from(!edges.is_empty());
        let mut seq = s.serialize_seq(Some(runs))?;
        let mut from = 0;
        let mut next_mark = self.1.and_then(|b| b.next_set(0));
        for r in 0..runs {
            let to = match breaks.get(r) {
                _ if r == n_breaks => edges.len(),
                Some(&b) => b as usize,
                None => {
                    let rest = edges[from..].windows(2);
                    from + 1 + rest.take_while(|w| w[1].continues(&w[0])).count()
                }
            };
            let (first, run) = (&edges[from], &edges[from..to]);
            match (self.1, next_mark) {
                (Some(in_edges), Some(m)) if m < to => {
                    let bits = MarkBits { from, to, in_edges };
                    let no_afters: &[MsgId] = &[];
                    let head = (first.creator, first.idx, first.before);
                    seq.serialize_element(&(head, no_afters, Afters(run), bits))?;
                    next_mark = in_edges.next_set(to);
                }
                _ => {
                    seq.serialize_element(&(first.creator, first.idx, first.before, Afters(run)))?
                }
            }
            from = to;
        }
        seq.end()
    }
}

impl Serialize for Afters<'_> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeSeq;
        let mut seq = s.serialize_seq(Some(self.0.len()))?;
        // Four ids a step: sizing runs through this loop for most of a
        // delta's edges, and unrolled it measured about twice as fast.
        let mut quads = self.0.chunks_exact(4);
        for q in &mut quads {
            for e in q {
                seq.serialize_element(&e.after)?;
            }
        }
        for e in quads.remainder() {
            seq.serialize_element(&e.after)?;
        }
        seq.end()
    }
}

impl Serialize for MarkBits<'_> {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let mut t = s.serialize_tuple((self.to - self.from).div_ceil(MARK_BITS))?;
        for at in (self.from..self.to).step_by(MARK_BITS) {
            let width = (self.to - at).min(MARK_BITS);
            t.serialize_element(&self.in_edges.bits_at(at, width))?;
        }
        t.end()
    }
}

impl<'de> Deserialize<'de> for HistoryDelta {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        struct DeltaVisitor;
        impl<'de> Visitor<'de> for DeltaVisitor {
            type Value = HistoryDelta;
            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("a history delta: vertices, then edge runs")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<HistoryDelta, A::Error> {
                let short = || A::Error::custom("history delta too short");
                let mut written = Vec::new();
                let mut gaps = Vec::new();
                seq.next_element_seed(WrittenSeed {
                    verts: &mut written,
                    gaps: &mut gaps,
                })?
                .ok_or_else(short)?;
                let mut edges = EdgesIn::default();
                seq.next_element_seed(RunsSeed(&mut edges))?
                    .ok_or_else(short)?;
                let verts = rebuild(written, &gaps, &edges).map_err(A::Error::custom)?;
                Ok(HistoryDelta {
                    verts,
                    edges: edges.edges,
                })
            }
        }
        d.deserialize_tuple(2, DeltaVisitor)
    }
}

/// The written vertices in order, and `(i, k)` for each written vertex
/// `i` that `k > 0` left-out vertices precede.
struct WrittenSeed<'a> {
    verts: &'a mut Vec<MsgRef>,
    gaps: &'a mut Vec<(usize, u32)>,
}

impl<'de> DeserializeSeed<'de> for WrittenSeed<'_> {
    type Value = ();
    fn deserialize<D: serde::Deserializer<'de>>(self, d: D) -> Result<(), D::Error> {
        d.deserialize_seq(self)
    }
}

impl<'de> Visitor<'de> for WrittenSeed<'_> {
    type Value = ();
    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a sequence of vertices")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        // As serde sizes a `Vec`: from the claimed count, which the wire
        // decoder holds to the input left, and at most 1 MiB.
        let claimed = seq.size_hint().unwrap_or(0);
        self.verts
            .reserve_exact(claimed.min((1 << 20) / std::mem::size_of::<MsgRef>()));
        while let Some((id, set)) = seq.next_element::<(MsgId, TaggedDestSet)>()? {
            if set.tag > 0 {
                self.gaps.push((self.verts.len(), set.tag));
            }
            self.verts.push(MsgRef { id, dst: set.set });
        }
        Ok(())
    }
}

/// The edges a delta's runs decode to, with a bit per edge set on the
/// in-edges its marked runs name.
#[derive(Default)]
struct EdgesIn {
    edges: Vec<TaggedEdge>,
    marked: Vec<u64>,
    n_marked: usize,
}

impl EdgesIn {
    fn is_marked(&self, i: usize) -> bool {
        self.marked
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

/// Decodes the run sequence, expanding every run straight into the
/// delta's edge vector: no per-run allocation, and nothing sized from a
/// claimed length.
struct RunsSeed<'a>(&'a mut EdgesIn);

/// Decodes one run's `(creator, first idx, first before, afters)`, or a
/// marked run's `(creator, first idx, first before, [], afters, bits)`.
struct RunSeed<'a>(&'a mut EdgesIn);

/// Decodes one run's `afters`, each the next edge of the chain that
/// `head` (with its `after` not yet known) starts, and answers how many
/// there were: zero only for a marked run's leading empty `afters`.
struct AftersSeed<'a> {
    edges: &'a mut Vec<TaggedEdge>,
    head: (GroupId, u32, MsgId),
}

/// Decodes a marked run's bits for its `n` edges from `from` on.
struct MarkBitsSeed<'a> {
    edges: &'a mut EdgesIn,
    from: usize,
    n: usize,
}

impl<'de> DeserializeSeed<'de> for RunsSeed<'_> {
    type Value = ();
    fn deserialize<D: serde::Deserializer<'de>>(self, d: D) -> Result<(), D::Error> {
        d.deserialize_seq(self)
    }
}

impl<'de> Visitor<'de> for RunsSeed<'_> {
    type Value = ();
    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a sequence of edge runs")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        while seq.next_element_seed(RunSeed(&mut *self.0))?.is_some() {}
        Ok(())
    }
}

impl<'de> DeserializeSeed<'de> for RunSeed<'_> {
    type Value = ();
    fn deserialize<D: serde::Deserializer<'de>>(self, d: D) -> Result<(), D::Error> {
        d.deserialize_tuple(6, self)
    }
}

impl<'de> Visitor<'de> for RunSeed<'_> {
    type Value = ();
    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("an edge run: creator, first index, first before, afters")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let short = || A::Error::custom("edge run too short");
        let creator = seq.next_element()?.ok_or_else(short)?;
        let idx = seq.next_element()?.ok_or_else(short)?;
        let before = seq.next_element()?.ok_or_else(short)?;
        let head = (creator, idx, before);
        let edges = &mut self.0.edges;
        if seq
            .next_element_seed(AftersSeed { edges, head })?
            .ok_or_else(short)?
            > 0
        {
            return Ok(());
        }
        // An empty `afters`: the run is marked, and its `afters` follow.
        let from = self.0.edges.len();
        let edges = &mut self.0.edges;
        let n = match seq.next_element_seed(AftersSeed { edges, head }) {
            Ok(Some(n)) if n > 0 => n,
            Ok(_) => return Err(A::Error::custom("history delta: empty edge run")),
            Err(e) => {
                return Err(A::Error::custom(format_args!(
                    "history delta: empty edge run, and no marked run after it: {e}"
                )))
            }
        };
        let bits = MarkBitsSeed {
            edges: &mut *self.0,
            from,
            n,
        };
        seq.next_element_seed(bits)?.ok_or_else(short)
    }
}

impl<'de> DeserializeSeed<'de> for AftersSeed<'_> {
    type Value = usize;
    fn deserialize<D: serde::Deserializer<'de>>(self, d: D) -> Result<usize, D::Error> {
        d.deserialize_seq(self)
    }
}

impl<'de> Visitor<'de> for AftersSeed<'_> {
    type Value = usize;
    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a sequence of the run's after ids")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<usize, A::Error> {
        let Some(after) = seq.next_element()? else {
            return Ok(0);
        };
        let (creator, idx, before) = self.head;
        let mut e = TaggedEdge {
            creator,
            idx,
            before,
            after,
        };
        if self.edges.last().is_some_and(|p| e.continues(p)) {
            return Err(A::Error::custom(
                "history delta: edge run continues the run before it (not canonical)",
            ));
        }
        self.edges.push(e);
        let mut n = 1;
        while let Some(after) = seq.next_element()? {
            let Some(idx) = e.idx.checked_add(1) else {
                return Err(A::Error::custom("history delta: edge run passes u32::MAX"));
            };
            e = TaggedEdge {
                idx,
                before: e.after,
                after,
                ..e
            };
            self.edges.push(e);
            n += 1;
        }
        Ok(n)
    }
}

impl<'de> DeserializeSeed<'de> for MarkBitsSeed<'_> {
    type Value = ();
    fn deserialize<D: serde::Deserializer<'de>>(self, d: D) -> Result<(), D::Error> {
        d.deserialize_tuple(self.n.div_ceil(MARK_BITS), self)
    }
}

impl<'de> Visitor<'de> for MarkBitsSeed<'_> {
    type Value = ();
    fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a marked run's bits, 63 to a word")
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let EdgesIn {
            edges,
            marked,
            n_marked,
        } = self.edges;
        marked.resize(edges.len().div_ceil(64), 0);
        let before = *n_marked;
        for at in (0..self.n).step_by(MARK_BITS) {
            let mut bits: u64 = seq
                .next_element()?
                .ok_or_else(|| A::Error::custom("marked run's bits cut short"))?;
            if bits >> (self.n - at).min(MARK_BITS) != 0 {
                return Err(A::Error::custom(
                    "history delta: a mark past its run's end (not canonical)",
                ));
            }
            while bits != 0 {
                let i = self.from + at + bits.trailing_zeros() as usize;
                marked[i / 64] |= 1 << (i % 64);
                *n_marked += 1;
                bits &= bits - 1;
            }
        }
        if *n_marked == before {
            return Err(A::Error::custom(
                "history delta: a marked run that marks nothing (not canonical)",
            ));
        }
        Ok(())
    }
}

/// Puts a decoded delta's left-out vertices back between its written
/// ones, and checks that the rule leaves out exactly those.
fn rebuild(
    written: Vec<MsgRef>,
    gaps: &[(usize, u32)],
    edges: &EdgesIn,
) -> Result<Vec<MsgRef>, &'static str> {
    const NOT_RULE: &str = "history delta: left-out vertices other than the rule's (not canonical)";
    let placed: u64 = gaps.iter().map(|&(_, k)| u64::from(k)).sum();
    if placed > edges.n_marked as u64 {
        return Err("history delta: more left-out vertices than in-edges marked");
    }
    let mut rule = InEdges::new(&edges.edges);
    if edges.n_marked == 0 {
        // Nothing left out: the written vertices are the delta's.
        if written.iter().any(|v| rule.take(v).is_some()) {
            return Err(NOT_RULE);
        }
        return Ok(written);
    }
    let mut marks = (0..edges.edges.len()).filter(|&i| edges.is_marked(i));
    let mut left_out = |out: &mut Vec<MsgRef>, rule: &mut InEdges<'_>| {
        let i = marks.next().ok_or(NOT_RULE)?;
        let e = edges.edges[i];
        if e.creator.index() >= MAX_GROUPS {
            return Err("history delta: an in-edge's creator no destination set holds");
        }
        let v = MsgRef {
            id: e.after,
            dst: DestSet::singleton(e.creator),
        };
        if rule.take(&v) != Some(i) {
            return Err(NOT_RULE);
        }
        out.push(v);
        Ok(())
    };
    let len = written.len() + edges.n_marked;
    let mut verts = Vec::with_capacity(len);
    let mut gaps = gaps.iter().peekable();
    for (i, v) in written.into_iter().enumerate() {
        if let Some(&(_, k)) = gaps.next_if(|g| g.0 == i) {
            for _ in 0..k {
                left_out(&mut verts, &mut rule)?;
            }
        }
        if rule.take(&v).is_some() {
            return Err(NOT_RULE);
        }
        verts.push(v);
    }
    while verts.len() < len {
        left_out(&mut verts, &mut rule)?;
    }
    Ok(verts)
}

/// Counters over [`History::merge`]: how many delta entries arrived and
/// how many of them were duplicates the history had already processed.
/// At large group counts a receiver hears the same entry from up to
/// `n − 1` ancestors, so the duplicate share is the direct measure of
/// what protocol-level delta suppression can save.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MergeStats {
    /// Delta vertices received by `merge` (a vertex the engine's merge
    /// refuses for a destination outside its overlay is counted in the
    /// engine's `RejectStats` instead).
    pub verts_in: u64,
    /// Delta vertices rejected as already seen (or tombstoned).
    pub verts_dup: u64,
    /// Delta edges received by `merge`.
    pub edges_in: u64,
    /// Delta edges rejected as already processed.
    pub edges_dup: u64,
}

impl MergeStats {
    /// Total entries received.
    pub fn entries_in(&self) -> u64 {
        self.verts_in + self.edges_in
    }

    /// Total duplicate entries among them.
    pub fn entries_dup(&self) -> u64 {
        self.verts_dup + self.edges_dup
    }

    /// Duplicate share in `[0, 1]` (0 when nothing was received).
    pub fn dup_ratio(&self) -> f64 {
        if self.entries_in() == 0 {
            0.0
        } else {
            self.entries_dup() as f64 / self.entries_in() as f64
        }
    }
}

/// Per-vertex flag bits, stored beside each retained vertex in the
/// history's slot table. They travel with the vertex through log
/// compaction and vanish when it is pruned, so state keyed by "a vertex
/// this history retains" needs no id-keyed set of its own.
pub(crate) mod flag {
    /// Delivered by the owning group (set by `record_delivery`).
    pub const DELIVERED: u8 = 1 << 0;
    /// Engine: addressed to the owning group and not yet delivered — the
    /// incrementally maintained `open-dependencies` set (Alg. 3 line 9).
    pub const OPEN: u8 = 1 << 1;
    /// Engine: proven to have no open dependency among its ancestors
    /// (the `can-deliver` condition-2 memo).
    pub const CLEAN: u8 = 1 << 2;
}

/// Sentinel for "no sequence seen yet from this client" in the dense
/// per-client watermark. Chosen so `NO_WATERMARK.wrapping_add(1) == 0`,
/// the first sequence a client issues.
pub(crate) const NO_WATERMARK: u32 = u32::MAX;

/// A group's history DAG (`hst` in Algorithm 1).
///
/// Deterministic by construction: all internal collections are ordered
/// (insertion logs, `BTreeMap`/`BTreeSet`), so iteration order — and
/// therefore the bytes of every [`HistoryDelta`] — is identical across
/// runs and replicas. That determinism is what lets the engine run
/// unchanged under state machine replication.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct History {
    /// The retained vertices, each identified by its slot in the vertex
    /// insertion log, with one byte of [`flag`] bits and the lists of its
    /// direct predecessors and successors (as slots) apiece.
    verts: SlotTable,
    last_delivered: Option<MsgId>,
    /// Append-only insertion log backing `diff-hst` (the vertex log is
    /// the slot table itself): a descendant's cursor into these logs
    /// identifies exactly the history it has not been sent yet (§4.3's
    /// "last message of the local history sent to each descendant"),
    /// making diffs O(new entries) instead of O(full history).
    edge_log: Vec<TaggedEdge>,
    /// Number of retained vertices addressed to each group (indexed by
    /// group rank, grown on demand), for O(1) `contains_msg_to`
    /// (evaluated on every forward by `send-notifs`).
    addressed: Vec<u32>,
    /// Per-client contiguous-prefix watermark over every id this history
    /// has *ever* admitted — still retained or since pruned: all seqs
    /// `<= wm` have been seen. A group receives the same vertex from up
    /// to `n − 1` ancestors, so on the merge hot path almost every delta
    /// entry is a duplicate; one probe of this small, cache-hot map
    /// rejects it without walking the full vertex map. The watermark
    /// doubles as the garbage-collection tombstone: a pruned id stays
    /// seen forever, so a stale ancestor diff can never resurrect it.
    /// Ids past a client's prefix wait in `seen_residual`, and a group that
    /// never admits some seq of a client keeps every later one: the
    /// residual grows with messages, not clients (DESIGN.md §3). Client
    /// ids are dense from 0, so the watermark lives in a flat vector
    /// ([`NO_WATERMARK`] = nothing seen) — this probe runs once per delta
    /// entry and is the single hottest lookup in the whole simulator, so
    /// it must not pointer-chase.
    seen_watermark: Vec<u32>,
    seen_residual: BTreeSet<MsgId>,
    /// Per-creator record of the chain-edge indices this history has
    /// *processed* — inserted, rejected as a content duplicate, or
    /// dropped for a pruned endpoint — as sorted, disjoint, inclusive
    /// `(start, end)` ranges. The edge analogue of `seen_watermark`:
    /// since each group emits its chain edges in index order and relays
    /// preserve that order, the processed set per creator is usually one
    /// range `[0, k]`. Ranges (rather than a watermark plus a residual
    /// set) keep memory bounded by the number of *holes*: an upstream
    /// prune can drop a stream element some receiver never got, and a
    /// residual set would then grow by one entry per subsequent edge of
    /// that creator, forever. Indexed by creator rank (grown on demand;
    /// an empty range list means nothing processed) — like
    /// `seen_watermark`, this is probed per delta edge.
    edge_seen: Vec<Vec<(u32, u32)>>,
    /// Next chain index for edges created locally (`create_edge`); counts
    /// only edges actually logged, so the local creator stream is dense.
    next_edge_idx: u32,
    /// Monotone count of log admissions (vertices + edges) — unlike the
    /// log lengths it never shrinks under GC compaction, so it can drive
    /// "history grew by N entries" triggers.
    admitted: u64,
    /// Merge-path duplicate accounting.
    merge_stats: MergeStats,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Number of vertices currently retained.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// True if the history holds no vertices.
    pub fn is_empty(&self) -> bool {
        self.verts.len() == 0
    }

    /// Number of edges currently retained.
    pub fn edge_count(&self) -> usize {
        self.verts.link_count()
    }

    /// The last message delivered by this group (`hst.lastDlvd`).
    pub fn last_delivered(&self) -> Option<MsgId> {
        self.last_delivered
    }

    /// True if the history contains a vertex for `id`.
    pub fn contains(&self, id: MsgId) -> bool {
        self.verts.slot_of(id).is_some()
    }

    /// Destinations of a vertex, if present.
    pub fn dst_of(&self, id: MsgId) -> Option<DestSet> {
        self.verts.slot_of(id).map(|s| self.verts.get(s).dst)
    }

    /// Iterates all vertices, in insertion order.
    pub fn verts(&self) -> impl Iterator<Item = MsgRef> + '_ {
        self.verts.log().iter().copied()
    }

    /// True if `id` is retained and was delivered by the owning group
    /// (through [`History::record_delivery`]).
    pub fn is_delivered(&self, id: MsgId) -> bool {
        self.has_flag(id, flag::DELIVERED)
    }

    /// True if `id` is retained and has any of the [`flag`] `bits` set.
    #[inline]
    pub(crate) fn has_flag(&self, id: MsgId, bits: u8) -> bool {
        self.verts
            .slot_of(id)
            .is_some_and(|s| self.verts.flags(s) & bits != 0)
    }

    /// Sets [`flag`] `bits` on `id`; true if `id` is retained and any of
    /// them was clear before.
    pub(crate) fn set_flag(&mut self, id: MsgId, bits: u8) -> bool {
        self.verts
            .slot_of(id)
            .is_some_and(|s| self.verts.set_flags(s, bits))
    }

    /// Clears [`flag`] `bits` on `id`; true if `id` is retained and any of
    /// them was set before.
    pub(crate) fn clear_flag(&mut self, id: MsgId, bits: u8) -> bool {
        self.verts
            .slot_of(id)
            .is_some_and(|s| self.verts.clear_flags(s, bits))
    }

    /// Sets [`flag`] `bits` on every vertex inserted at or after log
    /// position `from` that is addressed to `g`; returns how many.
    pub(crate) fn flag_addressed_since(&mut self, from: usize, g: GroupId, bits: u8) -> usize {
        let mut n = 0;
        for slot in from.min(self.verts.len())..self.verts.len() {
            let slot = slot as u32;
            if self.verts.get(slot).dst.contains(g) {
                self.verts.set_flags(slot, bits);
                n += 1;
            }
        }
        n
    }

    /// Retained vertices with any of the [`flag`] `bits` set, in
    /// insertion order.
    pub(crate) fn flagged(&self, bits: u8) -> impl Iterator<Item = MsgId> + '_ {
        self.verts
            .log()
            .iter()
            .enumerate()
            .filter(move |&(s, _)| self.verts.flags(s as u32) & bits != 0)
            .map(|(_, v)| v.id)
    }

    /// Clears `bit` on `v` and, transitively, on every successor that
    /// carries it (stopping where it is already clear).
    pub(crate) fn clear_flag_downstream(&mut self, v: MsgId, bit: u8) {
        let mut stack: Vec<u32> = self.verts.slot_of(v).into_iter().collect();
        while let Some(s) = stack.pop() {
            if self.verts.clear_flags(s, bit) {
                stack.extend_from_slice(self.verts.succs(s));
            }
        }
    }

    /// Memoizing backward search from `m` (the engine's `can-deliver`
    /// condition 2): walks the strict past of `m`, not expanding vertices
    /// that carry any `cut` bit, and returns the first vertex found with
    /// a `hit` bit. When there is none, every vertex the walk expanded
    /// gets the `memo` bit — pass it in `cut` and the next search stops
    /// there. Visit order is that of [`History::blocking_predecessor`].
    pub(crate) fn find_pred_flagged(
        &mut self,
        m: MsgId,
        cut: u8,
        hit: u8,
        memo: u8,
    ) -> Option<MsgId> {
        let start = self.verts.slot_of(m)?;
        self.verts.begin_walk();
        let mut stack = Vec::new();
        let mut expanded = Vec::new();
        self.verts.push_unvisited_preds(start, &mut stack);
        while let Some(s) = stack.pop() {
            let f = self.verts.flags(s);
            if f & cut != 0 {
                continue;
            }
            if f & hit != 0 {
                return Some(self.verts.get(s).id);
            }
            expanded.push(s);
            self.verts.push_unvisited_preds(s, &mut stack);
        }
        for s in expanded {
            self.verts.set_flags(s, memo);
        }
        None
    }

    /// Iterates all edges as `(before, after)` pairs, grouped by `after`
    /// in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (MsgId, MsgId)> + '_ {
        let t = &self.verts;
        (0..t.len() as u32).flat_map(move |after| {
            let to = t.get(after).id;
            t.preds(after).iter().map(move |&b| (t.get(b).id, to))
        })
    }

    /// Direct predecessors of `id`, in the order their edges were linked.
    pub fn preds_of(&self, id: MsgId) -> impl Iterator<Item = MsgId> + '_ {
        let t = &self.verts;
        let ps = t.slot_of(id).map_or(&[][..], |s| t.preds(s));
        ps.iter().map(move |&p| t.get(p).id)
    }

    /// Direct successors of `id`, in the order their edges were linked —
    /// except that a serde round-trip, which rebuilds the lists from the
    /// predecessor lists, leaves them in slot order (the same set; nothing
    /// may depend on the order).
    pub fn succs_of(&self, id: MsgId) -> impl Iterator<Item = MsgId> + '_ {
        let t = &self.verts;
        let ss = t.slot_of(id).map_or(&[][..], |s| t.succs(s));
        ss.iter().map(move |&s| t.get(s).id)
    }

    /// True if `id` was ever admitted into this history — whether still
    /// retained or pruned since. One indexed load of the per-client
    /// watermark (plus, for out-of-prefix ids, the residual set).
    #[inline]
    pub fn has_seen(&self, id: MsgId) -> bool {
        let wm = self
            .seen_watermark
            .get(id.sender.0 as usize)
            .copied()
            .unwrap_or(NO_WATERMARK);
        (wm != NO_WATERMARK && id.seq <= wm) || self.seen_residual.contains(&id)
    }

    /// Records `id` as seen, promoting contiguous per-client prefixes into
    /// the watermark.
    fn note_seen(&mut self, id: MsgId) {
        let ci = id.sender.0 as usize;
        if ci >= self.seen_watermark.len() {
            self.seen_watermark.resize(ci + 1, NO_WATERMARK);
        }
        // `NO_WATERMARK + 1` wraps to 0: a fresh client's prefix starts
        // at sequence 0, exactly like the old `None` case.
        let next = self.seen_watermark[ci].wrapping_add(1);
        if id.seq == next {
            let mut w = id.seq;
            // Absorb any residual stragglers that are now contiguous.
            loop {
                let n = w.wrapping_add(1);
                if !self.seen_residual.remove(&MsgId::new(id.sender, n)) {
                    break;
                }
                w = n;
            }
            self.seen_watermark[ci] = w;
        } else {
            self.seen_residual.insert(id);
        }
    }

    /// True if the chain-edge stream element `(creator, idx)` has been
    /// processed by this history — inserted, rejected as a duplicate, or
    /// dropped for a pruned endpoint. One indexed load plus a binary
    /// search over that creator's (almost always one-element) range list.
    #[inline]
    pub fn edge_processed(&self, creator: GroupId, idx: u32) -> bool {
        self.edge_seen.get(creator.index()).is_some_and(|ranges| {
            match ranges.binary_search_by(|&(s, _)| s.cmp(&idx)) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => ranges[i - 1].1 >= idx,
            }
        })
    }

    /// Records `(creator, idx)` as processed, merging into the creator's
    /// range list (extending or joining neighbors where contiguous).
    fn note_edge(&mut self, creator: GroupId, idx: u32) {
        if creator.index() >= self.edge_seen.len() {
            self.edge_seen.resize(creator.index() + 1, Vec::new());
        }
        let ranges = &mut self.edge_seen[creator.index()];
        let i = match ranges.binary_search_by(|&(s, _)| s.cmp(&idx)) {
            Ok(_) => return, // a range starts exactly here: covered
            Err(i) => i,
        };
        if i > 0 && ranges[i - 1].1 >= idx {
            return; // inside the previous range
        }
        let extends_prev = i > 0 && ranges[i - 1].1.checked_add(1) == Some(idx);
        let extends_next = i < ranges.len() && idx.checked_add(1) == Some(ranges[i].0);
        match (extends_prev, extends_next) {
            (true, true) => {
                ranges[i - 1].1 = ranges[i].1;
                ranges.remove(i);
            }
            (true, false) => ranges[i - 1].1 = idx,
            (false, true) => ranges[i].0 = idx,
            (false, false) => ranges.insert(i, (idx, idx)),
        }
    }

    /// Inserts a vertex if absent. Returns true when it was new; a vertex
    /// the history has ever seen — including one pruned by garbage
    /// collection — is never re-admitted.
    pub fn insert_vert(&mut self, v: MsgRef) -> bool {
        if self.has_seen(v.id) {
            return false;
        }
        self.admit_vert(v);
        true
    }

    /// Inserts a vertex this history has never seen.
    fn admit_vert(&mut self, v: MsgRef) {
        self.note_seen(v.id);
        self.verts.push(v);
        self.admitted += 1;
        for g in v.dst.iter() {
            if g.index() >= self.addressed.len() {
                self.addressed.resize(g.index() + 1, 0);
            }
            self.addressed[g.index()] += 1;
        }
    }

    /// The slots of `before` and `after` if `before → after` can be
    /// linked: two distinct retained vertices not linked yet.
    fn linkable(&self, before: MsgId, after: MsgId) -> Option<(u32, u32)> {
        if before == after {
            return None;
        }
        let b = self.verts.slot_of(before)?;
        let a = self.verts.slot_of(after)?;
        (!self.verts.preds(a).contains(&b)).then_some((b, a))
    }

    /// Links `e.before → e.after` in the DAG; `before`/`after` are their
    /// slots, as [`History::linkable`] returned them.
    fn link(&mut self, e: TaggedEdge, before: u32, after: u32) {
        self.verts.link(before, after);
        self.edge_log.push(e);
        self.admitted += 1;
    }

    /// Creates a *new* order edge `before → after` on behalf of `creator`
    /// (the group whose delivery chained the pair), assigning it the next
    /// index in this history's creation sequence. Both endpoints must
    /// already be vertices and the content must be new; otherwise no edge
    /// (and no index) is produced, so the local creator stream stays
    /// dense.
    pub fn create_edge(&mut self, creator: GroupId, before: MsgId, after: MsgId) {
        let Some((b, a)) = self.linkable(before, after) else {
            return;
        };
        let e = TaggedEdge {
            creator,
            idx: self.next_edge_idx,
            before,
            after,
        };
        self.next_edge_idx += 1;
        self.note_edge(e.creator, e.idx);
        self.link(e, b, a);
    }

    /// Applies a *received* tagged edge (the merge path). Returns true
    /// when the edge was genuinely new. Rejections — already-processed
    /// stream element, content duplicate from another creator, or a
    /// pruned endpoint — all mark the stream element processed, because
    /// re-processing it later would be a no-op either way: that is the
    /// invariant that makes watermark-based suppression upstream safe.
    fn apply_edge(&mut self, e: TaggedEdge) -> bool {
        if self.edge_processed(e.creator, e.idx) {
            return false;
        }
        self.note_edge(e.creator, e.idx);
        // A delta always ships its vertices with (or before) its edges,
        // so a missing endpoint means the vertex was pruned here — and
        // tombstones make that permanent, so dropping is final. Content
        // duplicate: two groups can create the same `before → after` pair
        // independently; only the first is linked and logged.
        let Some((b, a)) = self.linkable(e.before, e.after) else {
            return false;
        };
        self.link(e, b, a);
        true
    }

    /// Length of the vertex insertion log (a `diff-hst` cursor bound).
    pub fn vert_log_len(&self) -> usize {
        self.verts.len()
    }

    /// Length of the edge insertion log (a `diff-hst` cursor bound).
    pub fn edge_log_len(&self) -> usize {
        self.edge_log.len()
    }

    /// Vertices inserted at or after log position `from`.
    pub fn verts_since(&self, from: usize) -> &[MsgRef] {
        &self.verts.log()[from.min(self.verts.len())..]
    }

    /// Edges inserted at or after log position `from`.
    pub fn edges_since(&self, from: usize) -> &[TaggedEdge] {
        &self.edge_log[from.min(self.edge_log.len())..]
    }

    /// Monotone count of entries (vertices + edges) ever admitted into
    /// the insertion logs. Unlike the log lengths this never decreases
    /// under GC compaction, so it can drive growth-triggered actions like
    /// watermark advertisement.
    pub fn admitted_entries(&self) -> u64 {
        self.admitted
    }

    /// The per-client vertex watermark (contiguous seen prefix per
    /// client), in ascending client order — the vertex half of a
    /// [`flexcast_types::Watermarks`] advertisement.
    pub fn client_watermarks(&self) -> impl Iterator<Item = (flexcast_types::ClientId, u32)> + '_ {
        self.seen_watermark
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != NO_WATERMARK)
            .map(|(c, &w)| (flexcast_types::ClientId(c as u32), w))
    }

    /// Number of seen ids held individually because they lie beyond their
    /// client's contiguous prefix. An entry leaves only when the prefix
    /// reaches it, so a client whose seqs arrive with permanent gaps
    /// grows this set without bound (diagnostics).
    pub fn seen_residual_len(&self) -> usize {
        self.seen_residual.len()
    }

    /// The per-creator chain-edge watermark: for each creator whose
    /// processed set includes index 0, the end of that contiguous prefix
    /// — the edge half of a [`flexcast_types::Watermarks`]
    /// advertisement. Ranges beyond the first hole are deliberately not
    /// advertised (conservative; they stay until the hole fills or
    /// forever, bounded in memory either way).
    pub fn edge_prefixes(&self) -> impl Iterator<Item = (GroupId, u32)> + '_ {
        self.edge_seen
            .iter()
            .enumerate()
            .filter_map(|(g, ranges)| match ranges.first() {
                Some(&(0, end)) => Some((GroupId(g as u16), end)),
                _ => None,
            })
    }

    /// The contiguous processed prefix for one creator (tests and
    /// diagnostics): `Some(end)` if indices `0..=end` are processed.
    pub fn edge_prefix(&self, creator: GroupId) -> Option<u32> {
        self.edge_seen
            .get(creator.index())
            .and_then(|ranges| match ranges.first() {
                Some(&(0, end)) => Some(end),
                _ => None,
            })
    }

    /// Merge-path duplicate counters.
    pub fn merge_stats(&self) -> MergeStats {
        self.merge_stats
    }

    /// Records a local delivery (`hst-add`, Alg. 3 line 4): inserts the
    /// vertex and chains it after the previous local delivery. `creator`
    /// is the delivering group — it stamps the provenance of the chain
    /// edge this delivery creates. The vertex is flagged delivered
    /// ([`History::is_delivered`]) for as long as it is retained.
    pub fn record_delivery(&mut self, v: MsgRef, creator: GroupId) {
        self.insert_vert(v);
        self.set_flag(v.id, flag::DELIVERED);
        if let Some(last) = self.last_delivered {
            self.create_edge(creator, last, v.id);
        }
        self.last_delivered = Some(v.id);
    }

    /// Merges a received delta (`update-hst`, Alg. 3 line 1). Vertices
    /// this history has garbage-collected cannot re-enter through a slow
    /// ancestor: the seen watermark rejects them in `insert_vert`, and
    /// `apply_edge` drops edges whose endpoints are missing. A vertex
    /// addressed to no group is left out. Duplicate counts accumulate in
    /// [`History::merge_stats`].
    pub fn merge(&mut self, delta: &HistoryDelta) {
        self.merge_within(delta, DestSet::all(MAX_GROUPS));
    }

    /// [`History::merge`] for an overlay whose groups are `groups`: a
    /// vertex addressed outside them, or to no group at all, is left out
    /// — not inserted, not marked seen, not counted in
    /// [`History::merge_stats`] — and the number of such vertices is
    /// returned. An edge naming one then finds no endpoint and is dropped
    /// like an edge into pruned history. (A vertex with no destination
    /// gets no edges from any honest group, so no flush's backward closure
    /// would ever reach it: admitted, it would be retained and relayed to
    /// every descendant forever.) The check runs only on a vertex about to
    /// be inserted, so a duplicate (most delta entries in a large world)
    /// never pays for it.
    pub(crate) fn merge_within(&mut self, delta: &HistoryDelta, groups: DestSet) -> u64 {
        let mut refused = 0;
        for v in &delta.verts {
            if self.has_seen(v.id) {
                self.merge_stats.verts_in += 1;
                self.merge_stats.verts_dup += 1;
            } else if !v.dst.is_empty() && v.dst.is_subset(groups) {
                self.merge_stats.verts_in += 1;
                self.admit_vert(*v);
            } else {
                refused += 1;
            }
        }
        for &e in &delta.edges {
            self.merge_stats.edges_in += 1;
            if !self.apply_edge(e) {
                self.merge_stats.edges_dup += 1;
            }
        }
        refused
    }

    /// True if the history has any vertex addressed to `g`
    /// (`hst.containsMsgTo`, Alg. 3 line 38).
    pub fn contains_msg_to(&self, g: GroupId) -> bool {
        self.addressed.get(g.index()).copied().unwrap_or(0) > 0
    }

    /// True if there is a directed path `from →* to` (strictly, length ≥ 1
    /// when `from != to`; reflexively true when `from == to`). This is the
    /// transitive `depend` test of Alg. 3 line 17 with the roles spelled
    /// out: `depend(m, m')` in the paper is `reaches(m', m)` here.
    pub fn reaches(&self, from: MsgId, to: MsgId) -> bool {
        if from == to {
            return true;
        }
        let t = &self.verts;
        let (Some(from), Some(to)) = (t.slot_of(from), t.slot_of(to)) else {
            return false;
        };
        // `&self`: the walk keeps its own visit marks.
        let mut seen = vec![false; t.len()];
        let mut stack = vec![from];
        while let Some(s) = stack.pop() {
            for &n in t.succs(s) {
                if n == to {
                    return true;
                }
                if !std::mem::replace(&mut seen[n as usize], true) {
                    stack.push(n);
                }
            }
        }
        false
    }

    /// Finds a predecessor of `m` (transitively) that is addressed to `g`
    /// and not yet delivered here — the blocking condition of
    /// `can-deliver` (Alg. 3 line 52). Walks backwards from `m`. This is
    /// the plain, memo-free statement of the condition: the engine's
    /// memoized walk is checked against it in debug builds.
    ///
    /// The walk stops at vertices already delivered at `g`: by the
    /// protocol's complete-dependency-information guarantee (the paper's
    /// Lemma 3), everything ordered before a message was resolved before
    /// that message delivered, so a delivered vertex's past cannot hold a
    /// blocker. This keeps the walk proportional to the *in-flight*
    /// history rather than everything since the last flush.
    pub fn blocking_predecessor(&self, m: MsgId, g: GroupId) -> Option<MsgId> {
        let t = &self.verts;
        // `&self`: the table's visit marks are not available, so the walk
        // keeps its own.
        let mut seen = vec![false; t.len()];
        let mut stack = Vec::new();
        let mut expand = |s: u32, stack: &mut Vec<u32>| {
            for &p in t.preds(s) {
                if !std::mem::replace(&mut seen[p as usize], true) {
                    stack.push(p);
                }
            }
        };
        expand(t.slot_of(m)?, &mut stack);
        while let Some(s) = stack.pop() {
            if t.flags(s) & flag::DELIVERED != 0 {
                continue; // resolved past: cannot block, do not expand
            }
            let v = t.get(s);
            if v.dst.contains(g) {
                return Some(v.id);
            }
            expand(s, &mut stack);
        }
        None
    }

    /// All vertices addressed to `g` that are not delivered here
    /// (`open-dependencies`, Alg. 3 line 9).
    pub fn open_dependencies(&self, g: GroupId) -> BTreeSet<MsgId> {
        self.verts()
            .filter(|v| v.dst.contains(g) && !self.is_delivered(v.id))
            .map(|v| v.id)
            .collect()
    }

    /// Removes every vertex from which `fence` is reachable (the strict
    /// past of `fence`), keeping `fence` itself. Returns the pruned ids
    /// in insertion order. This is the flush-based garbage collection of
    /// §4.3.
    ///
    /// `vert_cursors`/`edge_cursors` are per-descendant `diff-hst` cursors
    /// into the insertion logs; compaction remaps them so each cursor
    /// still covers exactly the entries its descendant has received.
    pub fn prune_before(
        &mut self,
        fence: MsgId,
        vert_cursors: &mut [usize],
        edge_cursors: &mut [usize],
    ) -> Vec<MsgId> {
        let Some(fence) = self.verts.slot_of(fence) else {
            return Vec::new();
        };
        // Mark the fence's backward closure: a visited slot is doomed.
        self.verts.begin_walk();
        let mut stack = Vec::new();
        let mut doomed = 0usize;
        self.verts.push_unvisited_preds(fence, &mut stack);
        while let Some(s) = stack.pop() {
            doomed += 1;
            self.verts.push_unvisited_preds(s, &mut stack);
        }
        if doomed == 0 {
            return Vec::new();
        }
        let mut pruned = Vec::with_capacity(doomed);
        for slot in 0..self.verts.len() as u32 {
            if !self.verts.visited(slot) {
                continue;
            }
            let MsgRef { id: v, dst } = *self.verts.get(slot);
            pruned.push(v);
            for g in dst.iter() {
                if let Some(c) = self.addressed.get_mut(g.index()) {
                    *c -= 1;
                }
            }
        }

        // Compact the logs and remap cursors: a new cursor counts the
        // retained entries among the old prefix it covered. Edges first —
        // their endpoints are looked up through the old slots and marks.
        let verts = &self.verts;
        let is_doomed = |id: MsgId| verts.slot_of(id).is_some_and(|s| verts.visited(s));
        let mut edge_prefix = Vec::with_capacity(self.edge_log.len() + 1);
        let mut kept = 0usize;
        self.edge_log.retain(|e| {
            edge_prefix.push(kept);
            let keep = !is_doomed(e.before) && !is_doomed(e.after);
            kept += keep as usize;
            keep
        });
        edge_prefix.push(kept);
        for c in edge_cursors.iter_mut() {
            *c = edge_prefix[(*c).min(edge_prefix.len() - 1)];
        }
        let vert_prefix = self.verts.remove_visited();
        for c in vert_cursors.iter_mut() {
            *c = vert_prefix[(*c).min(vert_prefix.len() - 1)];
        }
        pruned
    }

    /// Checks what deserialization cannot see from one field alone, for a
    /// history restored from a peer's snapshot: the edge log holds exactly
    /// the table's links (`diff-hst` ships the log, the walks follow the
    /// links). An edge is logged where it is linked and compaction keeps
    /// the order of both, so the entries naming one `after` are that
    /// vertex's predecessor list, in order: one counter per slot, one pass.
    pub(crate) fn check_restored(&self) -> Result<(), &'static str> {
        let t = &self.verts;
        let mut matched = vec![0u32; t.len()];
        for e in &self.edge_log {
            let (Some(b), Some(a)) = (t.slot_of(e.before), t.slot_of(e.after)) else {
                return Err("history: edge log names a vertex that is not retained");
            };
            let n = &mut matched[a as usize];
            if t.preds(a).get(*n as usize) != Some(&b) {
                return Err("history: edge log entry is not the next link of its vertex");
            }
            *n += 1;
        }
        if self.edge_log.len() != t.link_count() {
            return Err("history: a link has no edge log entry");
        }
        Ok(())
    }

    /// The edge log, for tests that corrupt a snapshot.
    #[cfg(test)]
    pub(crate) fn edge_log_mut(&mut self) -> &mut Vec<TaggedEdge> {
        &mut self.edge_log
    }

    /// Checks that the history is acyclic (test/diagnostic helper; the
    /// protocol maintains acyclicity as an invariant).
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm over the retained graph.
        let t = &self.verts;
        let slots = 0..t.len() as u32;
        let mut indegree: Vec<u32> = slots.clone().map(|s| t.preds(s).len() as u32).collect();
        let mut ready: Vec<u32> = slots.filter(|&s| indegree[s as usize] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = ready.pop() {
            seen += 1;
            for &s in t.succs(v) {
                let d = &mut indegree[s as usize];
                *d -= 1;
                if *d == 0 {
                    ready.push(s);
                }
            }
        }
        seen == t.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::ClientId;

    /// Creator used by tests for locally created edges.
    const OWNER: GroupId = GroupId(9);

    fn id(seq: u32) -> MsgId {
        MsgId::new(ClientId(0), seq)
    }

    fn vref(seq: u32, ranks: &[u16]) -> MsgRef {
        MsgRef {
            id: id(seq),
            dst: DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
        }
    }

    fn te(creator: u16, idx: u32, before: MsgId, after: MsgId) -> TaggedEdge {
        TaggedEdge {
            creator: GroupId(creator),
            idx,
            before,
            after,
        }
    }

    #[test]
    fn record_delivery_builds_a_chain() {
        let mut h = History::new();
        h.record_delivery(vref(1, &[0]), OWNER);
        h.record_delivery(vref(2, &[0, 1]), OWNER);
        h.record_delivery(vref(3, &[0]), OWNER);
        assert_eq!(h.last_delivered(), Some(id(3)));
        assert_eq!(h.len(), 3);
        assert_eq!(h.edge_count(), 2);
        assert!(h.reaches(id(1), id(3)));
        assert!(!h.reaches(id(3), id(1)));
        // Chain edges carry dense creator provenance.
        let tags: Vec<(GroupId, u32)> = h
            .edges_since(0)
            .iter()
            .map(|e| (e.creator, e.idx))
            .collect();
        assert_eq!(tags, vec![(OWNER, 0), (OWNER, 1)]);
    }

    #[test]
    fn reaches_is_reflexive_and_transitive() {
        let mut h = History::new();
        for s in 1..=4 {
            h.insert_vert(vref(s, &[0]));
        }
        h.create_edge(OWNER, id(1), id(2));
        h.create_edge(OWNER, id(2), id(3));
        assert!(h.reaches(id(1), id(1)));
        assert!(h.reaches(id(1), id(3)));
        assert!(!h.reaches(id(1), id(4)));
    }

    #[test]
    fn create_edge_requires_vertices() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.create_edge(OWNER, id(1), id(2)); // 2 unknown → dropped
        assert_eq!(h.edge_count(), 0);
        h.create_edge(OWNER, id(1), id(1)); // self loop → dropped
        assert_eq!(h.edge_count(), 0);
        // Rejected edges consume no creator index: the next real edge
        // still gets index 0.
        h.insert_vert(vref(2, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert_eq!(h.edges_since(0)[0].idx, 0);
    }

    #[test]
    fn merge_applies_delta_and_drops_dangling_edges() {
        let mut h = History::new();
        let delta = HistoryDelta {
            verts: vec![vref(1, &[0]), vref(3, &[0, 1])],
            edges: vec![
                te(3, 0, id(1), id(2)),
                te(3, 1, id(2), id(3)),
                te(3, 2, id(1), id(3)),
            ],
        };
        h.merge(&delta);
        assert!(h.contains(id(1)));
        assert!(!h.contains(id(2)), "vertex the delta never shipped");
        assert!(h.contains(id(3)));
        assert_eq!(h.edge_count(), 1, "edges touching missing vertices dropped");
        assert!(h.reaches(id(1), id(3)));
        // Dropped edges still count as processed stream elements.
        assert!(h.edge_processed(GroupId(3), 0));
        assert!(h.edge_processed(GroupId(3), 1));
        assert!(h.edge_processed(GroupId(3), 2));
        assert_eq!(h.edge_prefix(GroupId(3)), Some(2));
    }

    #[test]
    fn blocking_predecessor_walks_transitively() {
        // 1 → 2 → 3, with 1 addressed to g=5 and undelivered.
        let mut h = History::new();
        h.insert_vert(vref(1, &[5]));
        h.insert_vert(vref(2, &[1]));
        h.insert_vert(vref(3, &[5]));
        h.create_edge(OWNER, id(1), id(2));
        h.create_edge(OWNER, id(2), id(3));
        assert_eq!(h.blocking_predecessor(id(3), GroupId(5)), Some(id(1)));
        h.set_flag(id(1), flag::DELIVERED);
        assert_eq!(h.blocking_predecessor(id(3), GroupId(5)), None);
    }

    #[test]
    fn blocking_predecessor_ignores_self() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[2]));
        // m itself is undelivered and addressed to g, but only *strict*
        // predecessors can block it.
        assert_eq!(h.blocking_predecessor(id(1), GroupId(2)), None);
    }

    #[test]
    fn open_dependencies_filters_by_group_and_delivery() {
        let mut h = History::new();
        h.record_delivery(vref(1, &[3]), GroupId(3));
        h.insert_vert(vref(2, &[3]));
        h.insert_vert(vref(3, &[4]));
        assert!(h.is_delivered(id(1)) && !h.is_delivered(id(2)));
        assert_eq!(h.open_dependencies(GroupId(3)), [id(2)].into());
    }

    #[test]
    fn contains_msg_to() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[2, 4]));
        assert!(h.contains_msg_to(GroupId(2)));
        assert!(h.contains_msg_to(GroupId(4)));
        assert!(!h.contains_msg_to(GroupId(3)));
    }

    #[test]
    fn prune_before_removes_strict_past() {
        let mut h = History::new();
        for s in 1..=5 {
            h.insert_vert(vref(s, &[0]));
        }
        // 1 → 2 → 4(fence), 3 → 4, 4 → 5.
        h.create_edge(OWNER, id(1), id(2));
        h.create_edge(OWNER, id(2), id(4));
        h.create_edge(OWNER, id(3), id(4));
        h.create_edge(OWNER, id(4), id(5));
        let mut vc = [5usize];
        let mut ec = [4usize];
        let pruned = h.prune_before(id(4), &mut vc, &mut ec);
        assert_eq!(pruned, vec![id(1), id(2), id(3)]);
        assert!(h.contains(id(4)));
        assert!(h.contains(id(5)));
        assert_eq!(h.len(), 2);
        assert!(h.reaches(id(4), id(5)), "future edges survive");
        assert!(h.is_acyclic());
        // Cursor remap: the descendant had seen all 5 vertices; 3 were
        // pruned, so its cursor now covers the 2 retained ones.
        assert_eq!(vc[0], 2);
        assert_eq!(h.vert_log_len(), 2);
        assert!(h.verts_since(vc[0]).is_empty(), "nothing new to send");
        assert_eq!(h.edges_since(0).len(), h.edge_log_len());
    }

    #[test]
    fn diff_logs_track_insertion_order() {
        let mut h = History::new();
        h.record_delivery(vref(1, &[0]), OWNER);
        h.record_delivery(vref(2, &[0]), OWNER);
        assert_eq!(h.vert_log_len(), 2);
        assert_eq!(h.edge_log_len(), 1);
        assert_eq!(h.admitted_entries(), 3);
        let suffix = h.verts_since(1);
        assert_eq!(suffix.len(), 1);
        assert_eq!(suffix[0].id, id(2));
        // Duplicate inserts do not grow the logs.
        h.insert_vert(vref(1, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert_eq!(h.vert_log_len(), 2);
        assert_eq!(h.edge_log_len(), 1);
        assert_eq!(h.admitted_entries(), 3);
    }

    #[test]
    fn contains_msg_to_tracks_prune() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[3]));
        h.insert_vert(vref(2, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert!(h.contains_msg_to(GroupId(3)));
        let _ = h.prune_before(id(2), &mut [], &mut []);
        assert!(!h.contains_msg_to(GroupId(3)), "pruned vertex uncounted");
        assert!(h.contains_msg_to(GroupId(0)), "fence itself retained");
    }

    #[test]
    fn seen_watermark_rejects_duplicates_and_pruned() {
        let mut h = History::new();
        assert!(h.insert_vert(vref(0, &[0])));
        assert!(!h.insert_vert(vref(0, &[0])), "duplicate rejected");
        assert!(h.has_seen(id(0)));
        assert!(!h.has_seen(id(1)));
        // Out-of-prefix id lands in the residual, then promotes when the
        // gap fills.
        assert!(h.insert_vert(vref(2, &[0])));
        assert!(h.has_seen(id(2)));
        assert!(h.insert_vert(vref(1, &[0])));
        assert!(!h.insert_vert(vref(2, &[0])), "still seen after promotion");

        // Pruned vertices stay seen: a stale delta cannot resurrect them.
        h.create_edge(OWNER, id(0), id(2));
        let _ = h.prune_before(id(2), &mut [], &mut []);
        assert!(!h.contains(id(0)), "0 pruned");
        assert!(h.has_seen(id(0)), "tombstone survives the prune");
        assert!(!h.insert_vert(vref(0, &[0])), "no resurrection");
        let delta = HistoryDelta {
            verts: vec![vref(0, &[0])],
            edges: vec![te(4, 0, id(0), id(2))],
        };
        h.merge(&delta);
        assert!(!h.contains(id(0)), "merge respects the tombstone");
        assert_eq!(h.edge_count(), 0, "edge to pruned vertex dropped");
    }

    /// The tombstone residual is not bounded by the client count: while
    /// one seq of a client is missing, every later id of that client is
    /// held individually. Seqs 1..=N with seq 0 never admitted leave N
    /// entries; admitting seq 0 folds them all into the watermark.
    #[test]
    fn a_missing_seq_keeps_every_later_id_of_its_client_in_the_residual() {
        const N: u32 = 200;
        let mut h = History::new();
        for seq in 1..=N {
            assert!(h.insert_vert(vref(seq, &[0])));
        }
        assert!(!h.has_seen(id(0)));
        assert_eq!(h.seen_residual_len(), N as usize);
        assert!(h.insert_vert(vref(0, &[0])));
        assert_eq!(h.seen_residual_len(), 0);
        assert!(h.has_seen(id(N)));
    }

    #[test]
    fn prune_with_unknown_fence_is_noop() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        assert!(h.prune_before(id(9), &mut [], &mut []).is_empty());
        assert_eq!(h.len(), 1);
    }

    /// The sweep's hard case: survivors whose lists mix a doomed and a
    /// surviving predecessor, with the two on opposite sides of the
    /// survivor's own slot (both arrangements).
    #[test]
    fn prune_renumbers_links_that_point_both_ways_along_the_log() {
        let (d_lo, p_lo, s1, s2, p_hi, d_hi, fence) = (1, 2, 3, 4, 5, 6, 7);
        let mut h = History::new();
        for s in 1..=7 {
            h.insert_vert(vref(s, &[0]));
        }
        h.create_edge(OWNER, id(d_lo), id(s1));
        h.create_edge(OWNER, id(p_hi), id(s1));
        h.create_edge(OWNER, id(d_hi), id(s2));
        h.create_edge(OWNER, id(p_lo), id(s2));
        h.create_edge(OWNER, id(d_lo), id(fence));
        h.create_edge(OWNER, id(d_hi), id(fence));
        let pruned = h.prune_before(id(fence), &mut [], &mut []);
        assert_eq!(pruned, vec![id(d_lo), id(d_hi)]);

        let check = |h: &History| {
            assert_eq!(h.preds_of(id(s1)).collect::<Vec<_>>(), vec![id(p_hi)]);
            assert_eq!(h.preds_of(id(s2)).collect::<Vec<_>>(), vec![id(p_lo)]);
            assert_eq!(h.preds_of(id(fence)).count(), 0);
            assert_eq!(
                h.edges().collect::<Vec<_>>(),
                vec![(id(p_hi), id(s1)), (id(p_lo), id(s2))]
            );
            assert_eq!(h.edge_count(), 2);
            assert_eq!(h.succs_of(id(p_hi)).collect::<Vec<_>>(), vec![id(s1)]);
            assert_eq!(h.succs_of(id(d_lo)).count(), 0);
            assert_eq!(h.edges_since(0).len(), 2);
            assert_eq!(h.blocking_predecessor(id(s1), GroupId(0)), Some(id(p_hi)));
            assert_eq!(h.check_restored(), Ok(()));
            assert!(h.is_acyclic());
        };
        check(&h);
        let bytes = flexcast_wire::to_bytes(&h).unwrap();
        let back: History = flexcast_wire::from_bytes(&bytes).unwrap();
        check(&back);
        assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
    }

    #[test]
    fn acyclicity_detector() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.insert_vert(vref(2, &[0]));
        h.create_edge(OWNER, id(1), id(2));
        assert!(h.is_acyclic());
        h.create_edge(OWNER, id(2), id(1));
        assert!(!h.is_acyclic());
    }

    #[test]
    fn msgref_lca() {
        assert_eq!(vref(1, &[3, 7]).lca(), GroupId(3));
    }

    #[test]
    fn edge_stream_elements_are_processed_once() {
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.insert_vert(vref(2, &[0]));
        let e = te(3, 0, id(1), id(2));
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![e],
        });
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.merge_stats().edges_dup, 0);
        // The same stream element from another ancestor is a duplicate.
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![e],
        });
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.edge_log_len(), 1);
        let st = h.merge_stats();
        assert_eq!((st.edges_in, st.edges_dup), (2, 1));
    }

    #[test]
    fn cross_creator_content_duplicate_is_processed_but_not_linked() {
        // Two groups independently created the same `1 → 2` pair; the
        // second stream element is absorbed (processed, not logged) so
        // the DAG holds one edge.
        let mut h = History::new();
        h.insert_vert(vref(1, &[0]));
        h.insert_vert(vref(2, &[0]));
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![te(3, 0, id(1), id(2)), te(5, 0, id(1), id(2))],
        });
        assert_eq!(h.edge_count(), 1);
        assert_eq!(h.edge_log_len(), 1);
        assert!(h.edge_processed(GroupId(3), 0));
        assert!(h.edge_processed(GroupId(5), 0), "absorbed but processed");
        assert_eq!(h.merge_stats().edges_dup, 1);
    }

    #[test]
    fn edge_watermark_promotes_out_of_order_stream_elements() {
        let mut h = History::new();
        for s in 1..=4 {
            h.insert_vert(vref(s, &[0]));
        }
        // Index 1 arrives before index 0 (e.g. a pruning hole upstream).
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![te(3, 1, id(2), id(3))],
        });
        assert!(h.edge_processed(GroupId(3), 1));
        assert!(!h.edge_processed(GroupId(3), 0));
        assert!(h.edge_prefix(GroupId(3)).is_none());
        // The gap fills: both promote into the watermark.
        h.merge(&HistoryDelta {
            verts: vec![],
            edges: vec![te(3, 0, id(1), id(2))],
        });
        assert_eq!(h.edge_prefix(GroupId(3)), Some(1));
        assert!(h.edge_processed(GroupId(3), 0));
    }

    #[test]
    fn merge_stats_count_vertex_duplicates() {
        let mut h = History::new();
        let d = HistoryDelta {
            verts: vec![vref(0, &[0]), vref(1, &[0])],
            edges: vec![],
        };
        h.merge(&d);
        h.merge(&d);
        let st = h.merge_stats();
        assert_eq!((st.verts_in, st.verts_dup), (4, 2));
        assert_eq!(st.entries_in(), 4);
        assert_eq!(st.entries_dup(), 2);
        assert!((st.dup_ratio() - 0.5).abs() < 1e-12);
    }

    // -- model-based property test ------------------------------------

    /// The naive history the slot table replaced: id-keyed ordered sets,
    /// linear scans, no index. Flags are a per-id byte.
    #[derive(Default)]
    struct Model {
        verts: Vec<(MsgRef, u8)>,
        edges: BTreeSet<(MsgId, MsgId)>,
        edge_log: Vec<TaggedEdge>,
        seen: BTreeSet<MsgId>,
        edges_seen: BTreeSet<(GroupId, u32)>,
        next_edge_idx: u32,
        last_delivered: Option<MsgId>,
    }

    impl Model {
        fn pos(&self, id: MsgId) -> Option<usize> {
            self.verts.iter().position(|(v, _)| v.id == id)
        }

        fn insert_vert(&mut self, v: MsgRef) -> bool {
            let new = self.seen.insert(v.id);
            if new {
                self.verts.push((v, 0));
            }
            new
        }

        fn link(&mut self, e: TaggedEdge) -> bool {
            let fresh = e.before != e.after
                && !self.edges.contains(&(e.before, e.after))
                && self.pos(e.before).is_some()
                && self.pos(e.after).is_some();
            if fresh {
                self.edges.insert((e.before, e.after));
                self.edge_log.push(e);
            }
            fresh
        }

        fn create_edge(&mut self, creator: GroupId, before: MsgId, after: MsgId) {
            let e = TaggedEdge {
                creator,
                idx: self.next_edge_idx,
                before,
                after,
            };
            if self.link(e) {
                self.next_edge_idx += 1;
                self.edges_seen.insert((creator, e.idx));
            }
        }

        fn merge(&mut self, d: &HistoryDelta) {
            for v in &d.verts {
                self.insert_vert(*v);
            }
            for &e in &d.edges {
                if self.edges_seen.insert((e.creator, e.idx)) {
                    self.link(e);
                }
            }
        }

        fn record_delivery(&mut self, v: MsgRef, creator: GroupId) {
            self.insert_vert(v);
            if let Some(p) = self.pos(v.id) {
                self.verts[p].1 |= flag::DELIVERED;
            }
            if let Some(last) = self.last_delivered {
                self.create_edge(creator, last, v.id);
            }
            self.last_delivered = Some(v.id);
        }

        fn preds_of(&self, id: MsgId) -> BTreeSet<MsgId> {
            let edges = self.edges.iter();
            edges.filter(|&&(_, a)| a == id).map(|&(b, _)| b).collect()
        }

        fn succs_of(&self, id: MsgId) -> BTreeSet<MsgId> {
            let edges = self.edges.iter();
            edges.filter(|&&(b, _)| b == id).map(|&(_, a)| a).collect()
        }

        /// Everything a path of at least one edge leads to from `from`.
        fn reachable(&self, from: MsgId) -> BTreeSet<MsgId> {
            let mut seen = self.succs_of(from);
            let mut frontier: Vec<MsgId> = seen.iter().copied().collect();
            while let Some(v) = frontier.pop() {
                for s in self.succs_of(v) {
                    if seen.insert(s) {
                        frontier.push(s);
                    }
                }
            }
            seen
        }

        /// Clears `bit` on `v` and on the successors reached through
        /// vertices that carried it, stopping where it is already clear.
        fn clear_flag_downstream(&mut self, v: MsgId, bit: u8) {
            let mut frontier = vec![v];
            while let Some(v) = frontier.pop() {
                let Some(p) = self.pos(v) else { continue };
                if self.verts[p].1 & bit != 0 {
                    self.verts[p].1 &= !bit;
                    frontier.extend(self.succs_of(v));
                }
            }
        }

        /// Every answer `blocking_predecessor(m, g)` may give: the
        /// undelivered vertices addressed to `g` in the strict past of
        /// `m`, not looking behind delivered ones.
        fn blockers(&self, m: MsgId, g: GroupId) -> BTreeSet<MsgId> {
            let mut seen = self.preds_of(m);
            let mut frontier: Vec<MsgId> = seen.iter().copied().collect();
            let mut found = BTreeSet::new();
            while let Some(v) = frontier.pop() {
                let (vref, flags) = self.verts[self.pos(v).expect("edge endpoint retained")];
                if flags & flag::DELIVERED != 0 {
                    continue;
                }
                if vref.dst.contains(g) {
                    found.insert(v);
                    continue; // the walk returns here; it looks no further
                }
                for p in self.preds_of(v) {
                    if seen.insert(p) {
                        frontier.push(p);
                    }
                }
            }
            found
        }

        fn prune_before(&mut self, fence: MsgId, vc: &mut [usize], ec: &mut [usize]) -> Vec<MsgId> {
            if self.pos(fence).is_none() {
                return Vec::new();
            }
            let mut doomed = BTreeSet::new();
            let mut frontier = vec![fence];
            while let Some(v) = frontier.pop() {
                for &(b, a) in &self.edges {
                    if a == v && doomed.insert(b) {
                        frontier.push(b);
                    }
                }
            }
            let keep_v: Vec<bool> = self
                .verts
                .iter()
                .map(|(v, _)| !doomed.contains(&v.id))
                .collect();
            let keep_e: Vec<bool> = self
                .edge_log
                .iter()
                .map(|e| !doomed.contains(&e.before) && !doomed.contains(&e.after))
                .collect();
            for c in vc.iter_mut() {
                *c = keep_v.iter().take(*c).filter(|&&k| k).count();
            }
            for c in ec.iter_mut() {
                *c = keep_e.iter().take(*c).filter(|&&k| k).count();
            }
            let pruned = self
                .verts
                .iter()
                .filter(|(v, _)| doomed.contains(&v.id))
                .map(|(v, _)| v.id)
                .collect();
            self.verts.retain(|(v, _)| !doomed.contains(&v.id));
            self.edge_log
                .retain(|e| !doomed.contains(&e.before) && !doomed.contains(&e.after));
            self.edges
                .retain(|(b, a)| !doomed.contains(b) && !doomed.contains(a));
            pruned
        }
    }

    /// Seqs a client uses: dense runs, gaps, and values far enough apart
    /// to leave any dense window.
    const SEQS: [u32; 12] = [
        0,
        1,
        2,
        3,
        7,
        64,
        65,
        300,
        5_000,
        5_001,
        1 << 20,
        u32::MAX - 1,
    ];

    fn pool(word: u64) -> MsgId {
        let client = ClientId((word % 3) as u32);
        MsgId::new(client, SEQS[(word / 3 % SEQS.len() as u64) as usize])
    }

    fn pool_ref(word: u64) -> MsgRef {
        let id = pool(word);
        let a = (word >> 20) % 4;
        let b = (word >> 24) % 4;
        MsgRef {
            id,
            dst: DestSet::try_from_ranks([a as u16, b as u16]).unwrap(),
        }
    }

    fn assert_matches_model(h: &History, m: &Model) {
        assert_eq!(h.len(), m.verts.len());
        let log: Vec<MsgRef> = m.verts.iter().map(|(v, _)| *v).collect();
        assert_eq!(h.verts_since(0), &log[..]);
        assert_eq!(h.verts_since(log.len() / 2), &log[log.len() / 2..]);
        assert_eq!(h.edges_since(0), &m.edge_log[..]);
        assert_eq!(h.edge_count(), m.edges.len());
        assert_eq!(h.edges_since(0).len(), h.edge_count(), "log ≠ links");
        assert_eq!(h.last_delivered(), m.last_delivered);
        let edges: BTreeSet<(MsgId, MsgId)> = h.edges().collect();
        assert_eq!(edges, m.edges);
        assert_eq!(h.edges().count(), m.edges.len(), "an edge listed twice");
        assert_eq!(h.check_restored(), Ok(()));
        let pool_ids = || (0..3 * SEQS.len() as u64).map(pool);
        let mut acyclic = true;
        for id in pool_ids() {
            let succs: Vec<MsgId> = h.succs_of(id).collect();
            let succ_set: BTreeSet<MsgId> = succs.iter().copied().collect();
            assert_eq!(
                succ_set.len(),
                succs.len(),
                "{id}: a successor listed twice"
            );
            assert_eq!(succ_set, m.succs_of(id), "{id}");
            let reachable = m.reachable(id);
            acyclic &= !reachable.contains(&id);
            for to in pool_ids() {
                let want = to == id || reachable.contains(&to);
                assert_eq!(h.reaches(id, to), want, "{id} →* {to}");
            }
        }
        assert_eq!(h.is_acyclic(), acyclic);
        for id in pool_ids() {
            let held = m.pos(id).map(|p| m.verts[p]);
            assert_eq!(h.contains(id), held.is_some(), "{id}");
            assert_eq!(h.dst_of(id), held.map(|(v, _)| v.dst), "{id}");
            assert_eq!(h.has_seen(id), m.seen.contains(&id), "{id}");
            let preds: Vec<MsgId> = h.preds_of(id).collect();
            let pred_set: BTreeSet<MsgId> = preds.iter().copied().collect();
            assert_eq!(
                pred_set.len(),
                preds.len(),
                "{id}: a predecessor listed twice"
            );
            assert_eq!(pred_set, m.preds_of(id), "{id}");
            for g in (0..4).map(GroupId) {
                let may = m.blockers(id, g);
                match h.blocking_predecessor(id, g) {
                    None => assert!(may.is_empty(), "{id} at {g}: missed {may:?}"),
                    Some(b) => assert!(may.contains(&b), "{id} at {g}: {b} not in {may:?}"),
                }
            }
            for bit in [flag::DELIVERED, flag::OPEN, flag::CLEAN] {
                let want = held.is_some_and(|(_, f)| f & bit != 0);
                assert_eq!(h.has_flag(id, bit), want, "{id} bit {bit}");
            }
        }
        for bit in [flag::DELIVERED, flag::OPEN, flag::CLEAN] {
            let want: Vec<MsgId> = m
                .verts
                .iter()
                .filter(|(_, f)| f & bit != 0)
                .map(|(v, _)| v.id)
                .collect();
            assert_eq!(h.flagged(bit).collect::<Vec<_>>(), want);
        }
    }

    // -- the chained wire form of a delta -----------------------------

    fn size<T: Serialize>(v: &T) -> usize {
        flexcast_wire::encoded_len(v).unwrap()
    }

    /// A delta's edges from `words`, one edge per word: most continue
    /// the edge before them, the rest break the chain one way or another
    /// — another creator, an index gap, a `before` that is not the last
    /// `after`, a fresh start anywhere up to `u32::MAX` — and continuing
    /// past `u32::MAX` wraps to index 0, which breaks it too.
    fn chained_edges(words: &[u64]) -> Vec<TaggedEdge> {
        let mut edges: Vec<TaggedEdge> = Vec::new();
        for &w in words {
            let fresh = pool((w >> 8) & 0xffff);
            let e = match (edges.last(), w % 8) {
                (Some(p), 0..=4) => te(p.creator.0, p.idx.wrapping_add(1), p.after, fresh),
                (Some(p), 5) => te(p.creator.0, p.idx.wrapping_add(2), p.after, fresh),
                (Some(p), 6) => te(p.creator.0, p.idx.wrapping_add(1), pool(w >> 24), fresh),
                _ => {
                    let idx = match (w >> 40) % 3 {
                        0 => (w >> 44) as u32 % 8,
                        1 => u32::MAX - (w >> 44) as u32 % 4,
                        _ => (w >> 32) as u32,
                    };
                    te(((w >> 3) % 5 * 100) as u16, idx, pool(w >> 24), fresh)
                }
            };
            edges.push(e);
        }
        edges
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Any delta — empty, one edge, long chains, every kind of break,
        /// more runs than the encoder's count pass remembers — survives the
        /// trip, sizes to its encoding, and has one spelling.
        #[test]
        fn delta_round_trips_through_the_chained_form(
            verts in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..4),
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..400),
        ) {
            let d = HistoryDelta {
                verts: verts.into_iter().map(pool_ref).collect(),
                edges: chained_edges(&words),
            };
            let bytes = flexcast_wire::to_bytes(&d).unwrap();
            proptest::prop_assert_eq!(flexcast_wire::encoded_len(&d).unwrap(), bytes.len());
            let back: HistoryDelta = flexcast_wire::from_bytes(&bytes).unwrap();
            proptest::prop_assert_eq!(&back, &d);
            proptest::prop_assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
        }

        /// `k` chained edges of one creator spend one run header — the run
        /// count, creator, first index, first `before` and the after count
        /// — plus their `after` ids, and nothing else.
        #[test]
        fn a_chain_costs_one_header_and_its_afters(
            k in 1usize..64,
            creator in 0u16..512,
            start in proptest::prelude::any::<u32>(),
            ids in proptest::collection::vec(proptest::prelude::any::<u64>(), 65),
        ) {
            let start = start.min(u32::MAX - (k as u32 - 1));
            let edges: Vec<TaggedEdge> = (0..k)
                .map(|j| te(creator, start + j as u32, pool(ids[j]), pool(ids[j + 1])))
                .collect();
            let d = HistoryDelta { verts: vec![], edges };
            let header = size(&(1u8, GroupId(creator), start, pool(ids[0]), k));
            let afters: usize = (1..=k).map(|j| size(&pool(ids[j]))).sum();
            let edge_bytes = size(&d) - size(&d.verts);
            proptest::prop_assert_eq!(edge_bytes, header + afters);
        }
    }

    /// A delta shaped like the ones `diff-hst` relays, from `words`: four
    /// creators deliver locals and globals, each delivery adding its
    /// vertex and, from the creator's second delivery on, its chain edge.
    /// Some words disturb the shape — an in-edge left outside the delta,
    /// one moved behind later edges, a stray edge into an id the delta
    /// does not hold, a local whose in-edge names another creator — so
    /// the rule meets every case it has to refuse.
    fn relayed_delta(words: &[u64]) -> HistoryDelta {
        let mut d = HistoryDelta::default();
        let mut last: [Option<MsgId>; 4] = [None; 4];
        let mut idx = [0u32; 4];
        let mut held: Option<TaggedEdge> = None;
        for (seq, &w) in words.iter().enumerate() {
            let c = (w % 4) as usize;
            let id = MsgId::new(ClientId((w >> 2) as u32 % 3), seq as u32);
            let dst = match (w >> 4) % 8 {
                0 | 1 => DestSet::from_iter([GroupId(c as u16), GroupId(((c + 1) % 4) as u16)]),
                _ => DestSet::singleton(GroupId(c as u16)),
            };
            d.verts.push(MsgRef { id, dst });
            let creator = match (w >> 7) % 16 {
                0 => (c + 1) % 4,
                _ => c,
            };
            let edge = last[c].map(|before| te(creator as u16, idx[c], before, id));
            if edge.is_some() {
                idx[c] += 1;
            }
            last[c] = Some(id);
            match ((w >> 11) % 16, edge) {
                (0, _) | (_, None) => {}
                (1, Some(e)) => held = held.or(Some(e)),
                (2, Some(e)) => d
                    .edges
                    .push(te(e.creator.0, e.idx, e.before, pool(w >> 16))),
                (_, Some(e)) => d.edges.push(e),
            }
            if (w >> 15) % 8 == 0 {
                d.edges.extend(held.take());
            }
        }
        d.edges.extend(held);
        d
    }

    /// `d` through the wire: the same value, `encoded_len` the length
    /// `to_bytes` writes, and re-encoding the decoded value the same bytes.
    fn assert_round_trips(d: &HistoryDelta) {
        let bytes = flexcast_wire::to_bytes(d).unwrap();
        assert_eq!(flexcast_wire::encoded_len(d).unwrap(), bytes.len());
        let back: HistoryDelta = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(&back, d);
        assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
    }

    /// `k` locals of one creator chained edge to edge: `c`'s `k` edges and
    /// `k` vertices `{l_j, {c}}`.
    fn chained_locals(c: u16, k: usize) -> HistoryDelta {
        let l = |j: usize| MsgId::new(ClientId(1), 100 + j as u32);
        HistoryDelta {
            verts: (1..=k)
                .map(|j| MsgRef {
                    id: l(j),
                    dst: DestSet::singleton(GroupId(c)),
                })
                .collect(),
            edges: (1..=k).map(|j| te(c, j as u32, l(j - 1), l(j))).collect(),
        }
    }

    #[test]
    fn empty_and_one_edge_deltas_round_trip() {
        assert_round_trips(&HistoryDelta::empty());
        assert_eq!(
            flexcast_wire::to_bytes(&HistoryDelta::empty()).unwrap(),
            [0, 0]
        );
        let one = HistoryDelta {
            verts: vec![],
            edges: vec![te(1, 0, id(1), id(2))],
        };
        assert_round_trips(&one);
        // The edge's `after` as a lone local: the vertex rides on it.
        let local = HistoryDelta {
            verts: vec![vref(2, &[1])],
            ..one.clone()
        };
        assert_round_trips(&local);
        assert_eq!(local.left_out(), 1);
    }

    /// `k` chained locals cost their edges, one byte saying the run is
    /// marked and the marks — and no byte of any vertex.
    #[test]
    fn chained_locals_cost_no_vertex_bytes() {
        for k in [1, 2, 7, 62, 63, 64, 130] {
            let d = chained_locals(3, k);
            assert_eq!(d.left_out(), k);
            assert_round_trips(&d);
            let edges_alone = HistoryDelta {
                verts: vec![],
                edges: d.edges.clone(),
            };
            let marks: usize = (0..k)
                .step_by(MARK_BITS)
                .map(|at| size(&((1u64 << (k - at).min(MARK_BITS)) - 1)))
                .sum();
            assert_eq!(size(&d), size(&edges_alone) + 1 + marks, "k = {k}");
        }
    }

    /// A creator's first delivery has no in-edge: it is written, and the
    /// locals after it are not.
    #[test]
    fn a_first_delivery_stays_written() {
        let mut d = chained_locals(2, 4);
        let first = MsgRef {
            id: d.edges[0].before,
            dst: DestSet::singleton(GroupId(2)),
        };
        d.verts.insert(0, first);
        assert_eq!(d.left_out(), 4);
        assert_round_trips(&d);
    }

    /// An in-edge outside the delta, one that names another creator, and
    /// one whose vertex has two destinations each keep the vertex written.
    #[test]
    fn a_vertex_without_its_in_edge_stays_written() {
        let mut d = chained_locals(1, 3);
        d.edges.remove(1);
        assert_eq!(d.left_out(), 2);
        assert_round_trips(&d);
        let mut d = chained_locals(1, 3);
        d.edges[1].creator = GroupId(2);
        assert_eq!(d.left_out(), 2, "the middle local stays");
        assert_round_trips(&d);
        let mut d = chained_locals(1, 3);
        d.verts[1].dst.insert(GroupId(0));
        assert_eq!(d.left_out(), 2);
        assert_round_trips(&d);
    }

    /// In-edges out of order: a local whose in-edge lies behind the
    /// cursor stays written; the window ends 64 edges past the cursor;
    /// and an edge out of the vertex ends the search.
    #[test]
    fn the_rule_walks_a_bounded_window_in_order() {
        let mut d = chained_locals(1, 2);
        d.verts.swap(0, 1);
        assert_eq!(d.left_out(), 1, "l2 takes edge 1; l1's edge 0 is behind");
        assert_round_trips(&d);
        for (gap, left) in [(IN_EDGE_WINDOW - 1, 1), (IN_EDGE_WINDOW, 0)] {
            let mut d = chained_locals(1, 1);
            let strays = (0..gap).map(|j| te(2, j as u32 * 2, id(50), id(60 + j as u32)));
            d.edges.splice(0..0, strays);
            assert_eq!(d.left_out(), left, "in-edge {gap} edges past the cursor");
            assert_round_trips(&d);
        }
        let mut d = chained_locals(1, 2);
        d.edges.swap(0, 1);
        assert_eq!(
            d.left_out(),
            1,
            "l1's out-edge comes first, so only l2 goes"
        );
        assert_round_trips(&d);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Locals between globals, first deliveries, in-edges outside the
        /// delta or out of order: every delta survives the trip, sizes to
        /// its encoding, and has one spelling.
        #[test]
        fn relayed_deltas_round_trip(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300),
        ) {
            assert_round_trips(&relayed_delta(&words));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        #[test]
        fn history_matches_the_naive_model(
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..160),
        ) {
            let mut h = History::new();
            let mut m = Model::default();
            let mut vc = [0usize; 3];
            let mut ec = [0usize; 3];
            for w in ops {
                let (x, y) = (w >> 8, w >> 36);
                match w % 16 {
                    0..=3 => {
                        assert_eq!(h.insert_vert(pool_ref(x)), m.insert_vert(pool_ref(x)));
                    }
                    4..=6 => {
                        h.create_edge(OWNER, pool(x), pool(y));
                        m.create_edge(OWNER, pool(x), pool(y));
                    }
                    7 | 8 => {
                        h.record_delivery(pool_ref(x), OWNER);
                        m.record_delivery(pool_ref(x), OWNER);
                    }
                    9..=11 => {
                        let d = HistoryDelta {
                            verts: vec![pool_ref(x), pool_ref(y)],
                            edges: vec![
                                te((w % 2) as u16, (y % 6) as u32, pool(x), pool(y)),
                                te(2, (x % 6) as u32, pool(y), pool(x / 7)),
                            ],
                        };
                        h.merge(&d);
                        m.merge(&d);
                    }
                    12 | 13 => {
                        let bit = if y % 2 == 0 { flag::OPEN } else { flag::CLEAN };
                        let p = m.pos(pool(x));
                        if y % 5 == 0 {
                            h.clear_flag_downstream(pool(x), bit);
                            m.clear_flag_downstream(pool(x), bit);
                        } else if y % 3 == 0 {
                            let was = p.is_some_and(|p| m.verts[p].1 & bit != 0);
                            assert_eq!(h.clear_flag(pool(x), bit), was);
                            if let Some(p) = p {
                                m.verts[p].1 &= !bit;
                            }
                        } else {
                            let newly = p.is_some_and(|p| m.verts[p].1 & bit == 0);
                            assert_eq!(h.set_flag(pool(x), bit), newly);
                            if let Some(p) = p {
                                m.verts[p].1 |= bit;
                            }
                        }
                    }
                    14 => {
                        // A descendant catches up (`diff-hst` moves its
                        // cursors to the log ends).
                        let d = (x % 3) as usize;
                        vc[d] = h.vert_log_len();
                        ec[d] = h.edge_log_len();
                    }
                    _ => {
                        let (mut mvc, mut mec) = (vc, ec);
                        let pruned = h.prune_before(pool(x), &mut vc, &mut ec);
                        assert_eq!(pruned, m.prune_before(pool(x), &mut mvc, &mut mec));
                        assert_eq!((vc, ec), (mvc, mec), "cursors remapped");
                    }
                }
                assert_matches_model(&h, &m);
            }
            // The serialized form is canonical state only: it round-trips
            // to an equal history with a rebuilt index.
            let bytes = flexcast_wire::to_bytes(&h).unwrap();
            let back: History = flexcast_wire::from_bytes(&bytes).unwrap();
            assert_matches_model(&back, &m);
            assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
        }
    }
}
