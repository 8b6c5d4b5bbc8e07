//! The vertex slot table behind [`crate::History`].
//!
//! A retained vertex *is* its position in the vertex insertion log: slot
//! `i` is the `i`-th retained vertex in insertion order, so the table
//! doubles as the `diff-hst` log (a descendant's cursor is a slot
//! number) and as the key space for per-vertex state. Beside each vertex
//! sit one byte of flag bits (owned by the history and the engine — see
//! [`crate::history::flag`]), the slots of its direct predecessors and of
//! its direct successors (the DAG's adjacency both ways, in the order the
//! edges were linked) and an epoch-stamped visit mark that graph walks use
//! in place of a per-walk `BTreeSet`.
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
//! The log, the flags and the predecessor lists are canonical state. The
//! successor lists (their mirror), the index and the visit marks are
//! derived, never serialized, and rebuilt on load.

use crate::history::MsgRef;
use flexcast_types::MsgId;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{BTreeMap, VecDeque};

/// "No vertex at this seq" inside a client window.
const NO_SLOT: u32 = u32::MAX;

/// A window may span this many seqs plus [`WINDOW_PER_LIVE`] per vertex
/// it already holds; anything farther out goes to the spill map.
const WINDOW_SLACK: u64 = 64;
const WINDOW_PER_LIVE: u64 = 8;

/// One client's dense `seq → slot` window.
#[derive(Clone, Debug, Default)]
struct ClientWindow {
    /// Seq of `slots[0]`.
    base: u32,
    /// Entries of `slots` that hold a vertex.
    live: u32,
    slots: VecDeque<u32>,
}

/// Slot-addressed vertex store: insertion log, per-slot flags and
/// adjacency lists, visit marks, and the id → slot index.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotTable {
    log: Vec<MsgRef>,
    flags: Vec<u8>,
    /// `preds[slot]`: the slots of its direct predecessors, in link order
    /// (no self-link, no duplicate).
    preds: Vec<Vec<u32>>,
    /// `succs[slot]`: its direct successors, likewise — `preds` mirrored.
    succs: Vec<Vec<u32>>,
    /// `mark[slot] == epoch` ⇔ the current walk has visited `slot`.
    mark: Vec<u32>,
    epoch: u32,
    /// Indexed by client id (dense from 0, grown on demand).
    index: Vec<ClientWindow>,
    /// Ids outside their client's window.
    far: BTreeMap<MsgId, u32>,
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
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
        self.mark.push(0);
        self.index_insert(v.id, slot);
        slot
    }

    fn index_insert(&mut self, id: MsgId, slot: u32) {
        let ci = id.sender.0 as usize;
        if ci >= self.index.len() {
            // Client ids are dense from 0; one far beyond the vertices
            // held (a peer's bytes can name any) spills like a far seq.
            if ci as u64 > WINDOW_SLACK + WINDOW_PER_LIVE * self.log.len() as u64 {
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
    pub(crate) fn preds(&self, slot: u32) -> &[u32] {
        &self.preds[slot as usize]
    }

    /// The direct successors of `slot`, in link order (slot order in a
    /// table as loaded).
    #[inline]
    pub(crate) fn succs(&self, slot: u32) -> &[u32] {
        &self.succs[slot as usize]
    }

    /// Links `before → after` (the caller has checked the two are
    /// distinct and not linked yet).
    #[inline]
    pub(crate) fn link(&mut self, before: u32, after: u32) {
        self.preds[after as usize].push(before);
        self.succs[before as usize].push(after);
    }

    /// Number of links (edges of the DAG).
    pub(crate) fn link_count(&self) -> usize {
        self.preds.iter().map(Vec::len).sum()
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
        for &p in &self.preds[slot as usize] {
            let m = &mut self.mark[p as usize];
            if *m != self.epoch {
                *m = self.epoch;
                stack.push(p);
            }
        }
    }

    /// True if the current walk has visited `slot`.
    #[inline]
    pub(crate) fn visited(&self, slot: u32) -> bool {
        self.mark[slot as usize] == self.epoch
    }

    /// Removes every slot the current walk visited, compacting log, flags
    /// and adjacency lists and rebuilding the index in one sweep, and
    /// ends the walk. Survivors forget removed neighbours; their other
    /// links are renumbered. Returns the old → new prefix table: entry
    /// `i` is the number of retained slots among the old slots `0..i` (so
    /// it remaps cursors).
    pub(crate) fn remove_visited(&mut self) -> Vec<usize> {
        for w in &mut self.index {
            w.slots.clear();
            w.live = 0;
        }
        self.far.clear();
        let n = self.log.len();
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
            self.preds.swap(kept, old);
            self.succs.swap(kept, old);
            self.index_insert(v.id, kept as u32);
            kept += 1;
        }
        prefix.push(kept);
        // A link can point either way along the log, so the lists are
        // renumbered only once the whole prefix table exists.
        let (mark, epoch) = (&self.mark, self.epoch);
        for list in self.preds[..kept].iter_mut().chain(&mut self.succs[..kept]) {
            list.retain_mut(|s| {
                let old = *s as usize;
                *s = prefix[old] as u32;
                mark[old] != epoch
            });
        }
        self.log.truncate(kept);
        self.flags.truncate(kept);
        self.preds.truncate(kept);
        self.succs.truncate(kept);
        self.mark.truncate(kept);
        // Marks were not moved with their slots; a fresh epoch voids them.
        self.begin_walk();
        prefix
    }
}

impl Serialize for SlotTable {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (&self.log, &self.flags, &self.preds).serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SlotTable {
    /// Rebuilds the derived state and checks everything a walk later
    /// indexes with: a peer's snapshot must not be able to cause a panic.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (log, flags, preds) =
            <(Vec<MsgRef>, Vec<u8>, Vec<Vec<u32>>)>::deserialize(deserializer)?;
        let err = |what| Err(serde::de::Error::custom(what));
        if flags.len() != log.len() {
            return err("slot table: one flag byte per vertex");
        }
        if preds.len() != log.len() {
            return err("slot table: one predecessor list per vertex");
        }
        let mut t = SlotTable {
            mark: vec![0; log.len()],
            succs: vec![Vec::new(); log.len()],
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
        for (slot, ps) in preds.iter().enumerate() {
            // One walk per list: a mark seen twice is a duplicate link.
            t.begin_walk();
            t.mark[slot] = t.epoch;
            for &p in ps {
                let Some(m) = t.mark.get_mut(p as usize) else {
                    return err("slot table: predecessor slot out of range");
                };
                if *m == t.epoch {
                    return err(if p as usize == slot {
                        "slot table: vertex linked to itself"
                    } else {
                        "slot table: duplicate link"
                    });
                }
                *m = t.epoch;
                t.succs[p as usize].push(slot as u32);
            }
        }
        t.preds = preds;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, DestSet};

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
        assert_eq!(t.preds(2), [3], "4 forgot 3 and still names 5, renumbered");
        assert!(t.preds(3).is_empty(), "5 forgot 3");
        assert_eq!(t.link_count(), 1);
        assert!((0..4).all(|s| !t.visited(s)), "the walk is over");
    }

    /// Successor links pointing both ways along the log survive a sweep
    /// that shifts their endpoints by different amounts, and loading
    /// derives the same successor sets from the predecessor lists.
    #[test]
    fn successor_lists_are_renumbered_by_the_sweep_and_rebuilt_on_load() {
        let mut t = SlotTable::default();
        for s in 0..7 {
            t.push(vref(0, s));
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
            t.link(b, a);
        }
        assert_eq!(t.succs(1), [4, 2]);
        assert_eq!(t.succs(0), [5, 3], "link order");
        t.begin_walk();
        let mut stack = Vec::new();
        t.push_unvisited_preds(6, &mut stack);
        t.push_unvisited_preds(4, &mut stack);
        assert_eq!(stack, vec![4, 1]);
        // Old slots 0, 2, 3, 5, 6 become 0, 1, 2, 3, 4.
        assert_eq!(t.remove_visited(), vec![0, 1, 1, 2, 3, 3, 4, 5]);
        let succs: Vec<&[u32]> = (0..5).map(|s| t.succs(s)).collect();
        assert_eq!(succs, [&[3, 2][..], &[], &[3], &[1], &[0]]);
        let preds: Vec<&[u32]> = (0..5).map(|s| t.preds(s)).collect();
        assert_eq!(preds, [&[4][..], &[3], &[0], &[0, 2], &[]]);

        let bytes = flexcast_wire::to_bytes(&t).unwrap();
        let back: SlotTable = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.succs(0), [2, 3], "slot order after a load");
        for slot in 0..5 {
            let mut want = t.succs(slot).to_vec();
            want.sort_unstable();
            assert_eq!(back.succs(slot), want, "slot {slot}");
            assert_eq!(back.preds(slot), t.preds(slot));
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
        assert_eq!(t.succs(0), [1], "0 forgot old 1 and names old 2");
        assert!(t.succs(1).is_empty() && t.preds(2).is_empty());
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn serde_roundtrip_rebuilds_the_index() {
        let mut t = SlotTable::default();
        for &(c, s) in &[(0, 3), (1, 9), (0, 900_000), (0, 4)] {
            t.push(vref(c, s));
        }
        t.set_flags(1, 0b101);
        t.link(3, 1);
        t.link(0, 1);
        let bytes = flexcast_wire::to_bytes(&t).unwrap();
        let back: SlotTable = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.log(), t.log());
        for slot in 0..4u32 {
            assert_eq!(back.flags(slot), t.flags(slot));
            assert_eq!(back.preds(slot), t.preds(slot));
            assert_eq!(back.slot_of(t.get(slot).id), Some(slot));
        }
        assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
    }

    /// Decodes a table from hand-built parts.
    fn decode(log: &[MsgRef], flags: &[u8], preds: &[&[u32]]) -> flexcast_types::Result<SlotTable> {
        flexcast_wire::from_bytes(&flexcast_wire::to_bytes(&(log, flags, preds)).unwrap())
    }

    /// The error text of a table that must not decode.
    fn rejected(log: &[MsgRef], flags: &[u8], preds: &[&[u32]]) -> String {
        decode(log, flags, preds)
            .expect_err("malformed table")
            .to_string()
    }

    #[test]
    fn deserialize_rejects_a_flag_vector_of_the_wrong_length() {
        let log = [vref(0, 0), vref(0, 1)];
        assert!(rejected(&log, &[0; 3], &[&[], &[]]).contains("one flag byte per vertex"));
    }

    #[test]
    fn deserialize_rejects_a_duplicate_vertex_id() {
        let log = [vref(0, 0), vref(0, 0)];
        assert!(rejected(&log, &[0; 2], &[&[], &[]]).contains("duplicate vertex id"));
    }

    #[test]
    fn deserialize_rejects_a_list_count_other_than_the_log_length() {
        let log = [vref(0, 0), vref(0, 1)];
        assert!(rejected(&log, &[0; 2], &[&[]]).contains("one predecessor list per vertex"));
        assert!(rejected(&log, &[0; 2], &[&[], &[], &[]]).contains("one predecessor list"));
    }

    #[test]
    fn deserialize_rejects_a_predecessor_slot_out_of_range() {
        let log = [vref(0, 0), vref(0, 1)];
        assert!(rejected(&log, &[0; 2], &[&[], &[2]]).contains("out of range"));
        assert!(rejected(&log, &[0; 2], &[&[u32::MAX], &[]]).contains("out of range"));
    }

    #[test]
    fn deserialize_rejects_a_self_link() {
        let log = [vref(0, 0), vref(0, 1)];
        assert!(rejected(&log, &[0; 2], &[&[], &[0, 1]]).contains("linked to itself"));
    }

    #[test]
    fn deserialize_rejects_a_duplicate_link() {
        let log = [vref(0, 0), vref(0, 1), vref(0, 2)];
        assert!(rejected(&log, &[0; 3], &[&[], &[], &[0, 1, 0]]).contains("duplicate link"));
        // The same predecessor under two different vertices is no duplicate.
        assert!(decode(&log, &[0; 3], &[&[], &[0], &[0]]).is_ok());
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
}
