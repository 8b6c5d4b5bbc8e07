//! The vertex slot table behind [`crate::History`].
//!
//! A retained vertex *is* its position in the vertex insertion log: slot
//! `i` is the `i`-th retained vertex in insertion order, so the table
//! doubles as the `diff-hst` log (a descendant's cursor is a slot
//! number) and as the key space for per-vertex state. Beside each vertex
//! sit one byte of flag bits (owned by the history and the engine — see
//! [`crate::history::flag`]), the ends of its predecessor and successor
//! lists, and an epoch-stamped visit mark that graph walks use in place
//! of a per-walk `BTreeSet`.
//!
//! The DAG's adjacency both ways lives in one link arena: link `i` is the
//! `i`-th edge linked (so, in a history, the `i`-th edge-log entry), with
//! the slots of its two endpoints and the next link of its `after`'s
//! predecessor list and of its `before`'s successor list. A slot keeps the
//! first and last link of each of its two lists, so linking appends to
//! both in O(1) and allocates nothing beyond the arena's own growth, and
//! every list stays in the order its edges were linked.
//!
//! Ids find their slot through a dense per-client window: client `c`'s
//! retained seqs `base..base + len` map to `slots[seq - base]` (the same
//! flat-vector idiom as the history's seen watermark). Closed-loop
//! clients issue consecutive seqs and garbage collection drops the old
//! ones, so the window stays short; it is rebuilt from the log whenever
//! the log is compacted. A seq that would stretch a window far beyond
//! the number of vertices it holds goes to an ordered spill map instead,
//! so index memory is `O(retained vertices)` whatever ids arrive.
//!
//! The table serializes its log and the flag bits a snapshot carries
//! ([`flag::SHIPPED`]) and nothing else. The adjacency is the history's
//! edge log, linked again in order when a history loads; the index and
//! the visit marks are rebuilt with the table.

use crate::history::{flag, MsgRef};
use crate::seen::client_reach;
use flexcast_types::MsgId;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::mem::size_of;

/// "No vertex at this seq" inside a client window.
const NO_SLOT: u32 = u32::MAX;

/// The end of an adjacency list: no (further) link.
const END: u32 = u32::MAX;

/// A window may span this many seqs plus [`WINDOW_PER_LIVE`] per vertex
/// it already holds; anything farther out goes to the spill map. Client
/// ids are bounded the same way, per vertex held ([`client_reach`]).
pub(crate) const WINDOW_SLACK: u64 = 64;
pub(crate) const WINDOW_PER_LIVE: u64 = 8;

/// One client's dense `seq → slot` window.
#[derive(Clone, Debug, Default)]
struct ClientWindow {
    /// Seq of `slots[0]`.
    base: u32,
    /// Entries of `slots` that hold a vertex.
    live: u32,
    slots: VecDeque<u32>,
}

/// One edge `before → after` of the DAG, in the link arena.
#[derive(Clone, Copy, Debug)]
struct Link {
    before: u32,
    after: u32,
    /// The link after this one in `after`'s predecessor list.
    next_pred: u32,
    /// The link after this one in `before`'s successor list.
    next_succ: u32,
}

/// A slot's two adjacency lists, as the first and last link of each
/// ([`END`] for an empty list).
#[derive(Clone, Copy, Debug)]
struct Ends {
    pred_head: u32,
    pred_tail: u32,
    succ_head: u32,
    succ_tail: u32,
}

const NO_LINKS: Ends = Ends {
    pred_head: END,
    pred_tail: END,
    succ_head: END,
    succ_tail: END,
};

/// The stack graph walks push slots on, kept between walks so that a
/// warm walk allocates nothing. A `Cell`, so that `&self` walks can use it
/// too; derived state, cloned and loaded empty.
#[derive(Default)]
struct WalkStack(Cell<Vec<u32>>);

impl Clone for WalkStack {
    fn clone(&self) -> Self {
        WalkStack::default()
    }
}

impl std::fmt::Debug for WalkStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalkStack")
    }
}

/// Slot-addressed vertex store: insertion log, per-slot flags and
/// adjacency lists, visit marks, and the id → slot index.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotTable {
    log: Vec<MsgRef>,
    flags: Vec<u8>,
    /// `ends[slot]`: the ends of its predecessor list (no self-link, no
    /// duplicate) and of its successor list, `preds` mirrored.
    ends: Vec<Ends>,
    /// Every link, in the order it was linked.
    links: Vec<Link>,
    /// `mark[slot] == epoch` ⇔ the current walk has visited `slot`.
    mark: Vec<u32>,
    epoch: u32,
    /// Indexed by client id (dense from 0, grown on demand).
    index: Vec<ClientWindow>,
    /// Ids outside their client's window.
    far: BTreeMap<MsgId, u32>,
    stack: WalkStack,
}

/// One adjacency list, walked through the link arena: the predecessors
/// or the successors of one slot, in link order.
pub(crate) struct Adjacent<'a> {
    links: &'a [Link],
    at: u32,
    succs: bool,
}

impl Iterator for Adjacent<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        // `END` is past every link.
        let l = self.links.get(self.at as usize)?;
        if self.succs {
            self.at = l.next_succ;
            Some(l.after)
        } else {
            self.at = l.next_pred;
            Some(l.before)
        }
    }
}

impl SlotTable {
    /// Number of retained vertices (= the next slot).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.log.len()
    }

    /// The retained vertices in slot (insertion) order.
    #[inline]
    pub(crate) fn log(&self) -> &[MsgRef] {
        &self.log
    }

    /// The vertex in `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: u32) -> &MsgRef {
        &self.log[slot as usize]
    }

    /// The slot holding `id`, if retained.
    #[inline]
    pub(crate) fn slot_of(&self, id: MsgId) -> Option<u32> {
        if let Some(w) = self.index.get(id.sender.0 as usize) {
            // A seq below `base` wraps to a huge offset and misses.
            let off = id.seq.wrapping_sub(w.base) as usize;
            if let Some(&slot) = w.slots.get(off) {
                if slot != NO_SLOT {
                    return Some(slot);
                }
            }
        }
        if self.far.is_empty() {
            None
        } else {
            self.far.get(&id).copied()
        }
    }

    /// Appends a vertex (the caller has checked it is not retained) and
    /// returns its slot, with all flags clear.
    pub(crate) fn push(&mut self, v: MsgRef) -> u32 {
        let slot = u32::try_from(self.log.len()).expect("fewer than 2^32 retained vertices");
        self.log.push(v);
        self.flags.push(0);
        self.ends.push(NO_LINKS);
        self.mark.push(0);
        self.index_insert(v.id, slot);
        slot
    }

    fn index_insert(&mut self, id: MsgId, slot: u32) {
        let ci = id.sender.0 as usize;
        if ci >= self.index.len() {
            // Client ids are dense from 0; one far beyond the vertices
            // held (a peer's bytes can name any) spills like a far seq.
            if ci as u64 > client_reach(self.log.len() as u64) {
                self.far.insert(id, slot);
                return;
            }
            self.index.resize_with(ci + 1, ClientWindow::default);
        }
        let w = &mut self.index[ci];
        if w.slots.is_empty() {
            w.base = id.seq;
        }
        let lo = u64::from(w.base.min(id.seq));
        let hi = (u64::from(w.base) + w.slots.len() as u64).max(u64::from(id.seq) + 1);
        if hi - lo > WINDOW_SLACK + WINDOW_PER_LIVE * u64::from(w.live) {
            self.far.insert(id, slot);
            return;
        }
        for _ in id.seq..w.base {
            w.slots.push_front(NO_SLOT);
        }
        w.base = w.base.min(id.seq);
        let off = (id.seq - w.base) as usize;
        if off >= w.slots.len() {
            w.slots.resize(off + 1, NO_SLOT);
        }
        w.slots[off] = slot;
        w.live += 1;
    }

    /// The flag byte of `slot`.
    #[inline]
    pub(crate) fn flags(&self, slot: u32) -> u8 {
        self.flags[slot as usize]
    }

    /// Sets `bits` on `slot`; true if any of them was clear before.
    #[inline]
    pub(crate) fn set_flags(&mut self, slot: u32, bits: u8) -> bool {
        let f = &mut self.flags[slot as usize];
        let newly = *f & bits != bits;
        *f |= bits;
        newly
    }

    /// Clears `bits` on `slot`; true if any of them was set before.
    #[inline]
    pub(crate) fn clear_flags(&mut self, slot: u32, bits: u8) -> bool {
        let f = &mut self.flags[slot as usize];
        let was = *f & bits != 0;
        *f &= !bits;
        was
    }

    /// The direct predecessors of `slot`, in link order.
    #[inline]
    pub(crate) fn preds(&self, slot: u32) -> Adjacent<'_> {
        Adjacent {
            links: &self.links,
            at: self.ends[slot as usize].pred_head,
            succs: false,
        }
    }

    /// The direct successors of `slot`, in link order.
    #[inline]
    pub(crate) fn succs(&self, slot: u32) -> Adjacent<'_> {
        Adjacent {
            links: &self.links,
            at: self.ends[slot as usize].succ_head,
            succs: true,
        }
    }

    /// Links `before → after` (the caller has checked the two are
    /// distinct and not linked yet), appending to both lists.
    #[inline]
    pub(crate) fn link(&mut self, before: u32, after: u32) {
        let l = u32::try_from(self.links.len()).expect("fewer than 2^32 links");
        self.links.push(Link {
            before,
            after,
            next_pred: END,
            next_succ: END,
        });
        let a = &mut self.ends[after as usize];
        match a.pred_tail {
            END => a.pred_head = l,
            t => self.links[t as usize].next_pred = l,
        }
        a.pred_tail = l;
        let b = &mut self.ends[before as usize];
        match b.succ_tail {
            END => b.succ_head = l,
            t => self.links[t as usize].next_succ = l,
        }
        b.succ_tail = l;
    }

    /// Number of links (edges of the DAG).
    #[inline]
    pub(crate) fn link_count(&self) -> usize {
        self.links.len()
    }

    /// True if link `l` (its position in the arena) has an endpoint the
    /// current walk visited.
    #[inline]
    pub(crate) fn link_visited(&self, l: usize) -> bool {
        let l = self.links[l];
        self.visited(l.before) || self.visited(l.after)
    }

    /// Starts a new graph walk: every slot becomes unvisited.
    pub(crate) fn begin_walk(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    /// Pushes the direct predecessors of `slot` that the current walk has
    /// not visited yet, marking them visited.
    #[inline]
    pub(crate) fn push_unvisited_preds(&mut self, slot: u32, stack: &mut Vec<u32>) {
        let mut at = self.ends[slot as usize].pred_head;
        while let Some(l) = self.links.get(at as usize) {
            let m = &mut self.mark[l.before as usize];
            if *m != self.epoch {
                *m = self.epoch;
                stack.push(l.before);
            }
            at = l.next_pred;
        }
    }

    /// True if the current walk has visited `slot`.
    #[inline]
    pub(crate) fn visited(&self, slot: u32) -> bool {
        self.mark[slot as usize] == self.epoch
    }

    /// The table's walk stack, empty; hand it back with
    /// [`SlotTable::put_stack`] so the next walk reuses its capacity.
    #[inline]
    pub(crate) fn take_stack(&self) -> Vec<u32> {
        self.stack.0.take()
    }

    /// Returns a stack taken with [`SlotTable::take_stack`].
    #[inline]
    pub(crate) fn put_stack(&self, mut stack: Vec<u32>) {
        stack.clear();
        self.stack.0.set(stack);
    }

    /// Removes every slot the current walk visited, compacting log, flags,
    /// adjacency lists and link arena and rebuilding the index in one
    /// sweep, and ends the walk. Survivors forget removed neighbours;
    /// their other links are renumbered and keep their order, in the lists
    /// and in the arena. Returns the old → new prefix table: entry `i` is
    /// the number of retained slots among the old slots `0..i` (so it
    /// remaps cursors).
    pub(crate) fn remove_visited(&mut self) -> Vec<usize> {
        for w in &mut self.index {
            w.slots.clear();
            w.live = 0;
        }
        self.far.clear();
        let n = self.log.len();
        let (mark, epoch) = (&self.mark, self.epoch);
        let keep = |l: &Link| mark[l.before as usize] != epoch && mark[l.after as usize] != epoch;
        // Survivors' lists drop their removed links first, while the
        // lists are still addressed by old slot and old link.
        for (slot, e) in self.ends.iter_mut().enumerate() {
            if mark[slot] != epoch {
                (e.pred_head, e.pred_tail) = retain_list(&mut self.links, e.pred_head, pred, keep);
                (e.succ_head, e.succ_tail) = retain_list(&mut self.links, e.succ_head, succ, keep);
            }
        }
        let mut new_of = vec![END; self.links.len()];
        let mut kept_links = 0u32;
        for (l, new) in self.links.iter().zip(&mut new_of) {
            if keep(l) {
                *new = kept_links;
                kept_links += 1;
            }
        }
        let mut prefix = Vec::with_capacity(n + 1);
        let mut kept = 0usize;
        for old in 0..n {
            prefix.push(kept);
            if self.mark[old] == self.epoch {
                continue;
            }
            let v = self.log[old];
            self.log[kept] = v;
            self.flags[kept] = self.flags[old];
            self.ends[kept] = self.ends[old];
            self.index_insert(v.id, kept as u32);
            kept += 1;
        }
        prefix.push(kept);
        // A link can point either way along the arena and the log, so
        // links are renumbered only once both tables exist.
        let renum = |x: u32| if x == END { END } else { new_of[x as usize] };
        for (old, &new) in new_of.iter().enumerate() {
            if new != END {
                let l = self.links[old];
                self.links[new as usize] = Link {
                    before: prefix[l.before as usize] as u32,
                    after: prefix[l.after as usize] as u32,
                    next_pred: renum(l.next_pred),
                    next_succ: renum(l.next_succ),
                };
            }
        }
        for e in &mut self.ends[..kept] {
            for end in [
                &mut e.pred_head,
                &mut e.pred_tail,
                &mut e.succ_head,
                &mut e.succ_tail,
            ] {
                *end = renum(*end);
            }
        }
        // What a sweep removes it gives back, past twice what is left: a
        // history would otherwise hold, after every flush, the capacity
        // of its largest size so far.
        shrink(&mut self.links, kept_links as usize);
        shrink(&mut self.log, kept);
        shrink(&mut self.flags, kept);
        shrink(&mut self.ends, kept);
        shrink(&mut self.mark, kept);
        // Marks were not moved with their slots; a fresh epoch voids them.
        self.begin_walk();
        prefix
    }

    /// Heap bytes the table holds, by the capacity of each vector: the
    /// vertex log, the per-slot flags, list ends and visit marks, the
    /// link arena, the id index (spill-map entries at their own size,
    /// without tree overhead) and the walk stack.
    pub(crate) fn heap_bytes(&self) -> usize {
        let stack = self.stack.0.take();
        let stack_bytes = stack.capacity() * size_of::<u32>();
        self.stack.0.set(stack);
        let windows: usize = self.index.iter().map(|w| w.slots.capacity()).sum();
        self.log.capacity() * size_of::<MsgRef>()
            + self.flags.capacity()
            + self.ends.capacity() * size_of::<Ends>()
            + self.links.capacity() * size_of::<Link>()
            + self.mark.capacity() * size_of::<u32>()
            + self.index.capacity() * size_of::<ClientWindow>()
            + windows * size_of::<u32>()
            + self.far.len() * size_of::<(MsgId, u32)>()
            + stack_bytes
    }

    /// Of [`SlotTable::heap_bytes`], what the adjacency holds: the list
    /// ends and the link arena.
    pub(crate) fn adjacency_bytes(&self) -> usize {
        self.ends.capacity() * size_of::<Ends>() + self.links.capacity() * size_of::<Link>()
    }
}

/// Truncates `v` to `len` and lets it keep at most twice that.
pub(crate) fn shrink<T>(v: &mut Vec<T>, len: usize) {
    v.truncate(len);
    v.shrink_to(2 * len);
}

/// The next-link field of a predecessor list.
fn pred(l: &mut Link) -> &mut u32 {
    &mut l.next_pred
}

/// The next-link field of a successor list.
fn succ(l: &mut Link) -> &mut u32 {
    &mut l.next_succ
}

/// Drops from the list starting at `head` (threaded through `next`) every
/// link `keep` refuses, keeping the order of the rest; returns the new
/// first and last link.
fn retain_list(
    links: &mut [Link],
    head: u32,
    next: fn(&mut Link) -> &mut u32,
    keep: impl Fn(&Link) -> bool,
) -> (u32, u32) {
    let (mut first, mut last) = (END, END);
    let mut at = head;
    while at != END {
        let following = *next(&mut links[at as usize]);
        if keep(&links[at as usize]) {
            match last {
                END => first = at,
                l => *next(&mut links[l as usize]) = at,
            }
            last = at;
        }
        at = following;
    }
    if last != END {
        *next(&mut links[last as usize]) = END;
    }
    (first, last)
}

impl Serialize for SlotTable {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let flags: Vec<u8> = self.flags.iter().map(|f| f & flag::SHIPPED).collect();
        (&self.log, flags).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SlotTable {
    /// Rebuilds the index, with no links; refuses what a later walk would
    /// index out of range with, and bits only the engine's walks may set.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (log, flags) = <(Vec<MsgRef>, Vec<u8>)>::deserialize(deserializer)?;
        let err = |what| Err(serde::de::Error::custom(what));
        if flags.len() != log.len() {
            return err("slot table: one flag byte per vertex");
        }
        if flags.iter().any(|f| f & !flag::SHIPPED != 0) {
            return err("slot table: a flag bit a snapshot does not carry");
        }
        let mut t = SlotTable {
            mark: vec![0; log.len()],
            ends: vec![NO_LINKS; log.len()],
            log,
            flags,
            ..SlotTable::default()
        };
        for slot in 0..t.log.len() {
            let id = t.log[slot].id;
            if t.slot_of(id).is_some() {
                return err("slot table: duplicate vertex id");
            }
            t.index_insert(id, slot as u32);
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::History;
    use flexcast_types::{ClientId, DestSet, GroupId};

    impl SlotTable {
        /// [`SlotTable::preds`], collected.
        fn pred_vec(&self, slot: u32) -> Vec<u32> {
            self.preds(slot).collect()
        }

        /// [`SlotTable::succs`], collected.
        fn succ_vec(&self, slot: u32) -> Vec<u32> {
            self.succs(slot).collect()
        }
    }

    fn vref(client: u32, seq: u32) -> MsgRef {
        MsgRef {
            id: MsgId::new(ClientId(client), seq),
            dst: DestSet::try_from_ranks([0u16]).unwrap(),
        }
    }

    #[test]
    fn far_apart_seqs_spill_instead_of_stretching_the_window() {
        let mut t = SlotTable::default();
        let seqs = [5u32, 4_000_000_000, 6, 0, 70, 1_000];
        for (slot, &s) in seqs.iter().enumerate() {
            assert_eq!(t.push(vref(2, s)), slot as u32);
        }
        for (slot, &s) in seqs.iter().enumerate() {
            assert_eq!(t.slot_of(vref(2, s).id), Some(slot as u32), "seq {s}");
        }
        assert_eq!(t.slot_of(vref(2, 7).id), None);
        assert_eq!(t.slot_of(vref(1, 5).id), None);
        assert!(
            t.index[2].slots.len() as u64 <= WINDOW_SLACK + WINDOW_PER_LIVE * seqs.len() as u64,
            "window bounded by what it holds"
        );
        assert_eq!(t.far.len(), 2, "the two outliers spilled");
    }

    #[test]
    fn remove_visited_compacts_and_reindexes() {
        let mut t = SlotTable::default();
        for s in 0..6 {
            t.push(vref(0, s));
        }
        t.set_flags(4, 0b10);
        // 0 → 3 → 5, and 4 hears from 3 (doomed) and 5 (survivor).
        t.link(0, 3);
        t.link(3, 5);
        t.link(3, 4);
        t.link(5, 4);
        t.begin_walk();
        let mut stack = Vec::new();
        t.push_unvisited_preds(5, &mut stack);
        assert_eq!(stack, vec![3]);
        t.push_unvisited_preds(3, &mut stack);
        t.push_unvisited_preds(4, &mut stack);
        assert_eq!(stack, vec![3, 0, 5], "3 is not pushed twice");
        // A fresh walk marks only the strict past of 5: slots 3 and 0.
        t.begin_walk();
        stack.clear();
        t.push_unvisited_preds(5, &mut stack);
        t.push_unvisited_preds(3, &mut stack);
        let prefix = t.remove_visited();
        assert_eq!(prefix, vec![0, 0, 1, 2, 2, 3, 4]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.slot_of(vref(0, 0).id), None);
        assert_eq!(t.slot_of(vref(0, 4).id), Some(2));
        assert_eq!(t.flags(2), 0b10, "flags travel with their vertex");
        assert_eq!(
            t.pred_vec(2),
            [3],
            "4 forgot 3 and still names 5, renumbered"
        );
        assert!(t.pred_vec(3).is_empty(), "5 forgot 3");
        assert_eq!(t.link_count(), 1);
        assert!((0..4).all(|s| !t.visited(s)), "the walk is over");
    }

    /// Successor links pointing both ways along the log survive a sweep
    /// (a history's prune) that shifts their endpoints by different
    /// amounts, and a history's load rebuilds every list in link order.
    #[test]
    fn successor_lists_are_renumbered_by_the_sweep_and_rebuilt_on_load() {
        let mut h = History::new();
        for s in 0..7 {
            h.insert_vert(vref(0, s));
        }
        // Doomed: 1 → 4 → 6 (the fence), and 1 → 2. Survivors: 0 → 5 and
        // 0 → 3 → 5 → 2 point up and down the log, 6 → 0 points down.
        for (b, a) in [
            (1, 4),
            (4, 6),
            (1, 2),
            (0, 5),
            (0, 3),
            (3, 5),
            (5, 2),
            (6, 0),
        ] {
            h.create_edge(GroupId(0), vref(0, b).id, vref(0, a).id);
        }
        assert_eq!(h.slots().succ_vec(1), [4, 2]);
        assert_eq!(h.slots().succ_vec(0), [5, 3], "link order");
        // Old slots 0, 2, 3, 5, 6 become 0, 1, 2, 3, 4.
        let mut cursors: Vec<usize> = (0..=7).collect();
        let pruned = h.prune_before(vref(0, 6).id, &mut cursors, &mut []);
        assert_eq!(pruned, [vref(0, 1).id, vref(0, 4).id]);
        assert_eq!(cursors, [0, 1, 1, 2, 3, 3, 4, 5]);
        let t = h.slots();
        let succs: Vec<Vec<u32>> = (0..5).map(|s| t.succ_vec(s)).collect();
        assert_eq!(succs, [&[3, 2][..], &[], &[3], &[1], &[0]]);
        let preds: Vec<Vec<u32>> = (0..5).map(|s| t.pred_vec(s)).collect();
        assert_eq!(preds, [&[4][..], &[3], &[0], &[0, 2], &[]]);

        let back = round_trip(&h);
        for slot in 0..5 {
            assert_eq!(back.slots().succ_vec(slot), t.succ_vec(slot), "slot {slot}");
            assert_eq!(back.slots().pred_vec(slot), t.pred_vec(slot));
        }
    }

    /// A visited set that is not closed under predecessors (prune's
    /// always is): a survivor then forgets a removed successor too.
    #[test]
    fn a_survivor_forgets_a_removed_successor() {
        let mut t = SlotTable::default();
        for s in 0..4 {
            t.push(vref(0, s));
        }
        for (b, a) in [(0, 1), (0, 2), (2, 1), (1, 3)] {
            t.link(b, a);
        }
        // Visits 1 alone.
        t.begin_walk();
        t.push_unvisited_preds(3, &mut Vec::new());
        t.remove_visited();
        assert_eq!(t.succ_vec(0), [1], "0 forgot old 1 and names old 2");
        assert!(t.succ_vec(1).is_empty() && t.pred_vec(2).is_empty());
        assert_eq!(t.link_count(), 1);
    }

    /// `h` through its snapshot bytes and back; the bytes are stable.
    fn round_trip(h: &History) -> History {
        let bytes = flexcast_wire::to_bytes(h).unwrap();
        let back: History = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
        back
    }

    /// A history's load rebuilds the table's index and its lists; the
    /// memo bit is not shipped.
    #[test]
    fn serde_roundtrip_rebuilds_the_index() {
        let mut h = History::new();
        let log = [vref(0, 3), vref(1, 9), vref(0, 900_000), vref(0, 4)];
        for v in log {
            h.insert_vert(v);
        }
        h.set_flag(log[1].id, flag::DELIVERED | flag::CLEAN);
        h.create_edge(GroupId(0), log[3].id, log[1].id);
        h.create_edge(GroupId(0), log[0].id, log[1].id);
        let back = round_trip(&h);
        let (t, b) = (h.slots(), back.slots());
        assert_eq!(b.log(), t.log());
        assert_eq!(b.flags(1), flag::DELIVERED, "the memo starts cold");
        for slot in 0..4u32 {
            assert_eq!(b.flags(slot) & flag::SHIPPED, t.flags(slot) & flag::SHIPPED);
            assert_eq!(b.pred_vec(slot), t.pred_vec(slot));
            assert_eq!(b.slot_of(t.get(slot).id), Some(slot));
        }
        assert_eq!(b.pred_vec(1), [3, 0]);
    }

    /// Decodes a table from hand-built parts.
    fn decode(log: &[MsgRef], flags: &[u8]) -> flexcast_types::Result<SlotTable> {
        flexcast_wire::from_bytes(&flexcast_wire::to_bytes(&(log, flags)).unwrap())
    }

    /// The error text of a table that must not decode.
    fn rejected(log: &[MsgRef], flags: &[u8]) -> String {
        decode(log, flags).expect_err("malformed table").to_string()
    }

    #[test]
    fn deserialize_rejects_a_flag_vector_of_the_wrong_length() {
        let log = [vref(0, 0), vref(0, 1)];
        assert!(rejected(&log, &[0; 3]).contains("one flag byte per vertex"));
    }

    #[test]
    fn deserialize_rejects_a_duplicate_vertex_id() {
        let log = [vref(0, 0), vref(0, 0)];
        assert!(rejected(&log, &[0; 2]).contains("duplicate vertex id"));
    }

    #[test]
    fn deserialize_rejects_a_flag_bit_a_snapshot_does_not_carry() {
        let log = [vref(0, 0), vref(0, 1)];
        assert!(rejected(&log, &[0, flag::CLEAN]).contains("flag bit"));
        assert!(rejected(&log, &[0x80, 0]).contains("flag bit"));
        assert!(decode(&log, &[flag::SHIPPED, 0]).is_ok());
    }

    /// The error a history with vertices `(0, 0..k)` and edges `links` (by
    /// seq), which loads, gives on load once `extra` ends its edge log.
    fn load_error(k: u32, links: &[(u32, u32)], extra: (MsgId, MsgId)) -> String {
        let mut h = History::new();
        for s in 0..k {
            h.insert_vert(vref(0, s));
        }
        for &(b, a) in links {
            h.create_edge(GroupId(0), vref(0, b).id, vref(0, a).id);
        }
        round_trip(&h);
        let mut e = h.edges_since(0)[0];
        (e.before, e.after) = extra;
        h.edge_log_mut().push(e);
        let bytes = flexcast_wire::to_bytes(&h).unwrap();
        let err = flexcast_wire::from_bytes::<History>(&bytes).expect_err("malformed edge log");
        err.to_string()
    }

    const UNLINKABLE: &str = "edge-log entry cannot be linked";

    #[test]
    fn deserialize_rejects_an_edge_into_a_vertex_not_retained() {
        let id = |s| vref(0, s).id;
        assert!(load_error(2, &[(0, 1)], (id(0), id(2))).contains(UNLINKABLE));
        assert!(load_error(2, &[(0, 1)], (id(0), vref(5, 0).id)).contains(UNLINKABLE));
    }

    /// An edge out of an id no slot holds: the old list form's predecessor
    /// slot out of range.
    #[test]
    fn deserialize_rejects_a_predecessor_slot_out_of_range() {
        let id = |s| vref(0, s).id;
        assert!(load_error(2, &[(0, 1)], (id(2), id(1))).contains(UNLINKABLE));
        assert!(load_error(2, &[(0, 1)], (id(u32::MAX), id(0))).contains(UNLINKABLE));
    }

    #[test]
    fn deserialize_rejects_a_self_link() {
        let id = |s| vref(0, s).id;
        assert!(load_error(2, &[(0, 1)], (id(1), id(1))).contains(UNLINKABLE));
    }

    #[test]
    fn deserialize_rejects_a_duplicate_link() {
        let id = |s| vref(0, s).id;
        assert!(load_error(3, &[(0, 2), (1, 2)], (id(0), id(2))).contains(UNLINKABLE));
        // The same predecessor under two different vertices is no duplicate.
        let mut h = History::new();
        for s in 0..3 {
            h.insert_vert(vref(0, s));
        }
        h.create_edge(GroupId(0), id(0), id(1));
        h.create_edge(GroupId(0), id(0), id(2));
        assert_eq!(round_trip(&h).slots().succ_vec(0), [1, 2]);
    }

    #[test]
    fn a_client_id_far_beyond_the_table_spills() {
        let mut t = SlotTable::default();
        t.push(vref(u32::MAX, 7));
        t.push(vref(3, 7));
        assert_eq!(t.slot_of(vref(u32::MAX, 7).id), Some(0));
        assert_eq!(t.slot_of(vref(3, 7).id), Some(1));
        assert_eq!(t.index.len(), 4, "no window vector stretched to the far id");
        assert_eq!(t.far.len(), 1);
    }

    /// The adjacency as `Vec<Vec<u32>>` lists, the layout the arena
    /// replaced: what every list must read as, step after step.
    #[derive(Default)]
    struct Model {
        preds: Vec<Vec<u32>>,
        succs: Vec<Vec<u32>>,
    }

    impl Model {
        fn remove(&mut self, gone: &[bool]) -> Vec<usize> {
            let mut prefix = vec![0];
            for &g in gone {
                prefix.push(prefix.last().unwrap() + usize::from(!g));
            }
            let renumber = |lists: &mut Vec<Vec<u32>>| {
                let mut slot = 0;
                lists.retain(|_| {
                    slot += 1;
                    !gone[slot - 1]
                });
                for list in lists {
                    list.retain(|&s| !gone[s as usize]);
                    for s in list {
                        *s = prefix[*s as usize] as u32;
                    }
                }
            };
            renumber(&mut self.preds);
            renumber(&mut self.succs);
            prefix
        }
    }

    fn assert_matches(t: &SlotTable, m: &Model) {
        assert_eq!(t.len(), m.preds.len());
        for slot in 0..t.len() as u32 {
            assert_eq!(t.pred_vec(slot), m.preds[slot as usize], "preds of {slot}");
            assert_eq!(t.succ_vec(slot), m.succs[slot as usize], "succs of {slot}");
        }
        assert_eq!(t.link_count(), m.preds.iter().map(Vec::len).sum::<usize>());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random pushes, links, sweeps of random visited sets and loads
        /// keep every list and the link count those of the `Vec<Vec<u32>>`
        /// model. A load is a history's: the table's own bytes, then its
        /// links again in arena order, which is edge-log order.
        #[test]
        fn the_link_arena_reads_as_vec_lists(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
        ) {
            let mut t = SlotTable::default();
            let mut m = Model::default();
            let mut seq = 0;
            for w in words {
                let n = t.len() as u64;
                match w % 8 {
                    0 | 1 => {
                        t.push(vref((w >> 8) as u32 % 3, seq));
                        seq += 1;
                        m.preds.push(Vec::new());
                        m.succs.push(Vec::new());
                    }
                    2..=4 if n >= 2 => {
                        let (b, a) = ((w >> 8) % n, (w >> 24) % n);
                        let (b, a) = (b as u32, a as u32);
                        if b != a && !m.preds[a as usize].contains(&b) {
                            t.link(b, a);
                            m.preds[a as usize].push(b);
                            m.succs[b as usize].push(a);
                        }
                    }
                    5 if n > 0 => {
                        // Visits the predecessors of up to three slots.
                        t.begin_walk();
                        let mut stack = Vec::new();
                        for k in 0..3 {
                            t.push_unvisited_preds(((w >> (8 + 8 * k)) % n) as u32, &mut stack);
                        }
                        let gone: Vec<bool> = (0..n as u32).map(|s| t.visited(s)).collect();
                        assert_eq!(t.remove_visited(), m.remove(&gone));
                        assert!((0..t.len() as u32).all(|s| !t.visited(s)));
                    }
                    6 | 7 => {
                        let bytes = flexcast_wire::to_bytes(&t).unwrap();
                        let mut back: SlotTable = flexcast_wire::from_bytes(&bytes).unwrap();
                        for l in &t.links {
                            back.link(l.before, l.after);
                        }
                        t = back;
                    }
                    _ => {}
                }
                assert_matches(&t, &m);
            }
        }
    }
}
