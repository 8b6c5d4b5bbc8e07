//! The FlexCast group engine (Algorithms 1–3 of the paper).
//!
//! One [`FlexCastGroup`] instance embodies one group of the C-DAG overlay,
//! identified by its rank. The engine is sans-io and deterministic: every
//! input (client message or peer packet) produces a list of [`Output`]
//! actions, and identical input sequences produce identical outputs. All
//! maps and sets are ordered so replicas of the same group stay in
//! lockstep under state machine replication.
//!
//! # Correctness deviation from the paper's pseudocode
//!
//! Algorithm 1 tracks `m.notifList` as a *set of groups* and
//! `ancestors-that-acked` as a *set of groups*. That bookkeeping has a
//! race: a group `X` can be notified about `m` twice — first by the lca,
//! later by a destination that ordered new messages in between — and only
//! the ack responding to the *second* notifier is guaranteed to carry the
//! dependency that closes a potential cycle. With plain sets, a
//! destination cannot tell which notif an ack answers, accepts the early
//! ack, and can deliver into a cycle (found by the property checker on
//! overlay O2; see DESIGN.md for the four-group counterexample). The fix
//! keeps the paper's message flow and genuineness untouched but makes the
//! bookkeeping precise: notifications are `(notifier, notified)` pairs,
//! acks carry the prompting notifier (`via`), and `can-deliver` requires
//! one ack per pair rather than one per group.

use crate::history::{flag, History, HistoryDelta, MergeStats, MsgRef, TaggedEdge};
use crate::packet::{NotifPair, Packet};
use crate::seen::{client_reach, SeenSet, CREATOR_REACH};
use flexcast_telemetry::Telemetry;
use flexcast_types::{DestSet, GroupId, Message, MsgId, Watermarks, MAX_GROUPS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem::size_of;

/// Payload marking a garbage-collection flush message (§4.3). A flush must
/// be multicast to *all* groups; delivering it prunes all history that
/// precedes it.
pub const FLUSH_PAYLOAD: &[u8] = b"__flexcast_flush__";

/// An action produced by the engine. Protocol packets (msg/ack/notif)
/// always travel down the C-DAG to a descendant; watermark advertisements
/// ([`Packet::Advert`]) are the one kind that travels *up*, to an ancestor
/// this group receives from.
pub type Output = flexcast_types::Output<Packet>;

/// Counters for the protocol-level delta-suppression machinery: how many
/// watermark advertisements this engine exchanged and how many history
/// entries it withheld from outgoing deltas because the receiver had
/// advertised them as already processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuppressionStats {
    /// Advertisement packets emitted (to upstream neighbors).
    pub adverts_sent: u64,
    /// Advertisement packets received (from downstream neighbors).
    pub adverts_received: u64,
    /// Vertices omitted from outgoing deltas as receiver-covered.
    pub suppressed_verts: u64,
    /// Edges omitted from outgoing deltas as receiver-covered.
    pub suppressed_edges: u64,
}

impl SuppressionStats {
    /// Total entries suppressed from outgoing deltas.
    pub fn suppressed_entries(&self) -> u64 {
        self.suppressed_verts + self.suppressed_edges
    }
}

/// What the engine refused at its input boundary since it was created or
/// restored: input naming a group outside `0..n`, which the per-group
/// tables cannot index, and messages this group is not placed to order.
/// Packets and client messages come from decoded bytes, so a peer can
/// send any rank a [`DestSet`] can hold.
///
/// A diagnostic, not protocol state: it takes no bytes in a snapshot and
/// restores as zero, so refusing input leaves
/// [`FlexCastGroup::snapshot`] byte-for-byte unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectStats {
    /// Client messages and packets dropped whole: their own destination
    /// set (`msg.dst` / `mref.dst`) is empty or names a group `≥ n`, a
    /// client message has another group as its lca, a `msg` packet claims
    /// an lca at or above this group, or a packet travels against its
    /// C-DAG edge.
    pub packets: u64,
    /// Delta vertices left out of the history for a destination `≥ n` or
    /// for having none (the rest of their packet is processed).
    pub verts: u64,
}

/// What an engine keeps out of its snapshot: it takes no bytes there.
/// [`FlexCastGroup::restore`] recounts `open_count` and starts the memo
/// cold; the refused-input counters restore as zero.
#[derive(Clone, Debug, Default)]
struct Local {
    /// Number of vertices flagged [`flag::OPEN`].
    open_count: usize,
    /// Negative memo for condition 2: `m → o` means the last walk found
    /// open dependency `o` above `m`; while `o` is still open there is no
    /// point re-walking. Cleared when `o` delivers.
    blocked_by: BTreeMap<MsgId, MsgId>,
    rejected: RejectStats,
}

impl Serialize for Local {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ().serialize(s)
    }
}

impl<'de> Deserialize<'de> for Local {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        <()>::deserialize(d).map(|()| Local::default())
    }
}

/// Per-message bookkeeping while a message awaits delivery (Alg. 1 lines
/// 5–6, with the pair-precise notifList described in the module docs).
/// The message itself is `Some` once its `msg` packet has arrived; acks
/// can overtake the msg on a different C-DAG edge, so either may arrive
/// first.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct PendingEntry {
    msg: Option<Message>,
    /// Received acks as `(acker, via)` — `via` is the acker itself for
    /// destination acks, or the notifier it responded to.
    acks: BTreeSet<(GroupId, GroupId)>,
    /// Notification pairs `(notifier, notified)` learned so far.
    required: BTreeSet<NotifPair>,
}

/// A FlexCast group: the per-group state of Algorithm 1 plus the event
/// handlers of Algorithms 2 and 3.
///
/// The engine works in *rank space*: `GroupId(r)` is the group with rank
/// `r` in the C-DAG; ancestors are lower ranks and descendants higher
/// ranks. Mapping physical nodes to ranks is the overlay's job
/// (`flexcast_overlay::CDagOrder`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlexCastGroup {
    g: GroupId,
    n: u16,
    /// The history DAG. Its per-vertex [`flag`] bits also hold this
    /// engine's per-message sets: delivered ([`flag::DELIVERED`]), the
    /// incrementally maintained `open-dependencies` (Alg. 3 line 9,
    /// [`flag::OPEN`]) and the `can-deliver` memo ([`flag::CLEAN`]).
    ///
    /// The memo marks vertices proven to have no open dependency among
    /// their ancestors: a blocking-predecessor walk cuts at clean (and
    /// delivered) vertices and marks everything it cleared, so repeated
    /// checks cost O(new history), not O(history). It is invalidated
    /// transitively when an edge from an unclean source vertex arrives.
    hst: History,
    /// What a snapshot leaves out.
    local: Local,
    /// One FIFO queue per ancestor (`queues` in Alg. 1): index = lca rank.
    queues: Vec<VecDeque<MsgId>>,
    pending: BTreeMap<MsgId, PendingEntry>,
    /// Notifications waiting on open dependencies (`pendNotif`), with the
    /// notifier that sent them.
    pend_notif: Vec<(MsgRef, GroupId, BTreeSet<MsgId>)>,
    /// Groups this group has itself notified, per message (the local
    /// slice of `m.notifList`); prevents duplicate notifs.
    my_notifs: BTreeMap<MsgId, DestSet>,
    /// Client messages deferred while this group has open dependencies
    /// (see `on_client` — the lca-insertion fix).
    client_backlog: VecDeque<Message>,

    /// `hst(h)` tracking for `diff-hst`: per-descendant cursors into the
    /// history's insertion logs (everything below the cursor was already
    /// sent). Indexed by descendant rank.
    vert_cursor: Vec<usize>,
    edge_cursor: Vec<usize>,
    delivered_count: u64,

    /// Advertise watermarks upstream after this many newly admitted
    /// history entries; `0` disables advertisement entirely (and with no
    /// group advertising, the engine behaves exactly as before the
    /// delta-suppression protocol existed).
    advert_stride: u32,
    /// `admitted_entries` at the last advertisement round (the stride
    /// trigger). One value, not one per ancestor: every round tests and
    /// marks all ancestors together.
    advert_mark: u64,
    /// The watermarks last advertised, so advertisements ship only
    /// changed entries. Shared by all ancestors: each round sends every
    /// ancestor the same client entries, and the edge entries of creators
    /// ranked at or below it.
    advert_sent_clients: SeenSet,
    advert_sent_edges: SeenSet,
    /// Per-descendant view of the watermarks it advertised to us
    /// (max-merged — advertisements are monotone), indexed by rank and
    /// probed by `diff_hst` once per candidate log entry.
    advertised_clients: Vec<SeenSet>,
    advertised_edges: Vec<SeenSet>,
    /// Advertisement / suppression counters.
    sup: SuppressionStats,
}

impl FlexCastGroup {
    /// Creates the engine for group `g` in a C-DAG of `n` groups.
    ///
    /// # Panics
    ///
    /// Panics if `g` is not a valid rank below `n`.
    pub fn new(g: GroupId, n: u16) -> Self {
        assert!(g.rank() < n, "group rank {g} out of range for {n} groups");
        FlexCastGroup {
            g,
            n,
            hst: History::new(),
            local: Local::default(),
            queues: (0..g.rank()).map(|_| VecDeque::new()).collect(),
            pending: BTreeMap::new(),
            pend_notif: Vec::new(),
            my_notifs: BTreeMap::new(),
            client_backlog: VecDeque::new(),
            vert_cursor: vec![0; n as usize],
            edge_cursor: vec![0; n as usize],
            delivered_count: 0,
            advert_stride: 0,
            advert_mark: 0,
            advert_sent_clients: SeenSet::default(),
            advert_sent_edges: SeenSet::default(),
            advertised_clients: vec![SeenSet::default(); n as usize],
            advertised_edges: vec![SeenSet::default(); n as usize],
            sup: SuppressionStats::default(),
        }
    }

    /// Enables protocol-level delta suppression: the engine piggybacks a
    /// watermark advertisement ([`Packet::Advert`]) to every ancestor it
    /// receives from whenever its history has grown by at least `stride`
    /// entries since the last advertisement round, and filters
    /// outgoing `diff-hst` deltas against the watermarks its descendants
    /// advertise back. `0` (the default) disables advertising; received
    /// advertisements are always honored.
    pub fn set_advert_stride(&mut self, stride: u32) {
        self.advert_stride = stride;
    }

    /// The configured advertisement stride (`0` = advertising disabled).
    pub fn advert_stride(&self) -> u32 {
        self.advert_stride
    }

    /// Advertisement/suppression counters for this engine.
    pub fn suppression_stats(&self) -> SuppressionStats {
        self.sup
    }

    /// Input refused at the boundary ([`RejectStats`]).
    pub fn reject_stats(&self) -> RejectStats {
        self.local.rejected
    }

    /// Merge-path duplicate counters of the underlying history
    /// (convenience passthrough of [`History::merge_stats`]).
    pub fn merge_stats(&self) -> MergeStats {
        self.hst.merge_stats()
    }

    /// This group's rank.
    pub fn id(&self) -> GroupId {
        self.g
    }

    /// Number of groups in the overlay.
    pub fn group_count(&self) -> u16 {
        self.n
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Read-only view of the history DAG (diagnostics and tests).
    pub fn history(&self) -> &History {
        &self.hst
    }

    /// True if `id` has been delivered at this group.
    pub fn has_delivered(&self, id: MsgId) -> bool {
        self.hst.is_delivered(id)
    }

    /// True if [`FlexCastGroup::on_client`] would drop client message `id`
    /// as already taken: it waits in the client backlog, or the history
    /// has seen it (delivered, or pruned since).
    pub fn has_taken(&self, id: MsgId) -> bool {
        self.hst.has_seen(id) || self.client_backlog.iter().any(|m| m.id == id)
    }

    /// Publishes this engine's counters into a telemetry registry under
    /// `{prefix}.`: merge-path duplicate accounting, advertisement
    /// suppression, deliveries, and backlog/history gauges. Absolute
    /// sets, so re-exporting overwrites rather than double-counts; pass
    /// a shared prefix (e.g. `"flex"`) to aggregate externally instead.
    pub fn export_metrics(&self, tel: &Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        let m = self.merge_stats();
        tel.counter_set(&format!("{prefix}.merge.verts_in"), m.verts_in);
        tel.counter_set(&format!("{prefix}.merge.verts_dup"), m.verts_dup);
        tel.counter_set(&format!("{prefix}.merge.edges_in"), m.edges_in);
        tel.counter_set(&format!("{prefix}.merge.edges_dup"), m.edges_dup);
        let s = self.suppression_stats();
        tel.counter_set(&format!("{prefix}.sup.adverts_sent"), s.adverts_sent);
        tel.counter_set(
            &format!("{prefix}.sup.adverts_received"),
            s.adverts_received,
        );
        tel.counter_set(
            &format!("{prefix}.sup.suppressed_verts"),
            s.suppressed_verts,
        );
        tel.counter_set(
            &format!("{prefix}.sup.suppressed_edges"),
            s.suppressed_edges,
        );
        let rejected = self.local.rejected;
        tel.counter_set(&format!("{prefix}.rejected_packets"), rejected.packets);
        tel.counter_set(&format!("{prefix}.rejected_verts"), rejected.verts);
        tel.counter_set(&format!("{prefix}.delivered"), self.delivered_count);
        tel.gauge_set(&format!("{prefix}.backlog"), self.backlog() as f64);
        tel.gauge_set(&format!("{prefix}.pending"), self.pending.len() as f64);
        tel.gauge_set(
            &format!("{prefix}.seen_residual"),
            self.hst.seen_residual_len() as f64,
        );
        tel.gauge_set(&format!("{prefix}.history_verts"), self.hst.len() as f64);
        tel.gauge_set(
            &format!("{prefix}.history_bytes"),
            self.hst.heap_bytes() as f64,
        );
        tel.gauge_set(
            &format!("{prefix}.history_edges"),
            self.hst.edge_count() as f64,
        );
    }

    /// Heap bytes this engine holds: its history
    /// ([`History::heap_bytes`]) plus its own per-message and per-group
    /// tables, by the same rule — vectors at their capacity, tree entries
    /// at their own size without node overhead, payloads at their length.
    pub fn heap_bytes(&self) -> usize {
        let msg = |m: &Message| m.payload.as_slice().len();
        let queues: usize = self.queues.iter().map(VecDeque::capacity).sum();
        let pending: usize = self
            .pending
            .values()
            .map(|e| {
                size_of::<(MsgId, PendingEntry)>()
                    + e.msg.as_ref().map_or(0, msg)
                    + (e.acks.len() + e.required.len()) * size_of::<NotifPair>()
            })
            .sum();
        let notif_deps: usize = self.pend_notif.iter().map(|(_, _, d)| d.len()).sum();
        let backlog: usize = self.client_backlog.iter().map(msg).sum();
        let seen: usize = (self.advertised_clients.iter())
            .chain(&self.advertised_edges)
            .chain([&self.advert_sent_clients, &self.advert_sent_edges])
            .map(SeenSet::heap_bytes)
            .sum();
        self.hst.heap_bytes()
            + self.queues.capacity() * size_of::<VecDeque<MsgId>>()
            + queues * size_of::<MsgId>()
            + pending
            + self.pend_notif.capacity() * size_of::<(MsgRef, GroupId, BTreeSet<MsgId>)>()
            + notif_deps * size_of::<MsgId>()
            + self.my_notifs.len() * size_of::<(MsgId, DestSet)>()
            + self.local.blocked_by.len() * size_of::<(MsgId, MsgId)>()
            + self.client_backlog.capacity() * size_of::<Message>()
            + backlog
            + (self.vert_cursor.capacity() + self.edge_cursor.capacity()) * size_of::<usize>()
            + (self.advertised_clients.capacity() + self.advertised_edges.capacity())
                * size_of::<SeenSet>()
            + seen
    }

    /// Messages queued but not yet deliverable (diagnostics).
    pub fn backlog(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Diagnostic snapshot of why queue heads are stuck: for each queued
    /// head, the ack pairs still missing and the blocking predecessor (if
    /// any). Also reports deferred notifications and their open deps.
    pub fn stuck_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for q in &self.queues {
            if let Some(&head) = q.front() {
                let entry = &self.pending[&head];
                let mut missing = Vec::new();
                if let Some(m) = &entry.msg {
                    let mut lower = m.dst.below(self.g);
                    lower.remove(m.lca());
                    for h in lower.iter() {
                        if !entry.acks.contains(&(h, h)) {
                            missing.push(format!("({h} as dest)"));
                        }
                    }
                    for &(n, x) in &entry.required {
                        if x < self.g && !entry.acks.contains(&(x, n)) {
                            missing.push(format!("({x} via {n})"));
                        }
                    }
                    let blocker = self.hst.blocking_predecessor(head, self.g);
                    let _ = writeln!(
                        out,
                        "  head {head} dst={:?} missing=[{}] blocker={blocker:?} qlen={}",
                        m.dst,
                        missing.join(" "),
                        q.len()
                    );
                } else {
                    let _ = writeln!(out, "  head {head}: msg not arrived");
                }
            }
        }
        for (nref, via, deps) in &self.pend_notif {
            let _ = writeln!(
                out,
                "  pend_notif {} via {via}: waiting on {:?}",
                nref.id, deps
            );
        }
        out
    }

    /// Handles a client multicast. Clients must address the message's lca
    /// (Alg. 2 line 1).
    ///
    /// # Correctness deviation (lca-insertion fix)
    ///
    /// The paper's lca delivers client messages *unconditionally* on
    /// reception. That is unsafe when the lca has a backlog: delivering a
    /// brand-new message while older messages addressed to this group are
    /// still undelivered inserts the new message *before* them in the
    /// local chain — and those older messages may already be ordered
    /// elsewhere, so the insertion retroactively places the new message
    /// into the global past of in-flight messages. No ack or notif then
    /// forces the in-flight messages' destinations to wait for the
    /// insertion to propagate, and the global order can cycle (found by
    /// the checker under GC-induced backlogs; see DESIGN.md). The fix:
    /// defer client deliveries until this group has no open dependencies,
    /// so a new message is always ordered *after* everything this group
    /// knows — and, inductively, its msg packet carries its complete
    /// global past. With an empty backlog this is exactly the paper's
    /// immediate delivery.
    ///
    /// A message addressed to a group outside the overlay, or one whose
    /// lca is another group (routing to the lca is the client's job), is
    /// dropped and counted in [`FlexCastGroup::reject_stats`]. A copy of
    /// one already taken ([`FlexCastGroup::has_taken`]) is dropped
    /// uncounted: client retries are expected input.
    pub fn on_client(&mut self, m: Message, out: &mut Vec<Output>) {
        if !self.in_overlay(m.dst) || m.lca() != self.g {
            self.local.rejected.packets += 1;
            return;
        }
        if self.has_taken(m.id) {
            return;
        }
        self.client_backlog.push_back(m);
        self.drain_client_backlog(out);
        self.maybe_advertise(out);
    }

    /// Delivers deferred client messages while the group is current
    /// (no open dependencies).
    fn drain_client_backlog(&mut self, out: &mut Vec<Output>) {
        while self.local.open_count == 0 {
            let Some(m) = self.client_backlog.pop_front() else {
                return;
            };
            self.a_deliver(m, out);
        }
    }

    /// True if `dst` names at least one group and only groups of this
    /// overlay — the ranks the per-group tables (`queues`, the `diff-hst`
    /// cursors, the advertised watermarks) can be indexed with. No honest
    /// message has no destination (`Message::new` refuses one).
    fn in_overlay(&self, dst: DestSet) -> bool {
        !dst.is_empty() && dst.is_subset(DestSet::all(self.n as usize))
    }

    /// Handles a packet from another group (Algorithm 2, plus the
    /// upstream advertisement flow of the delta-suppression protocol).
    ///
    /// The packet is decoded peer input. One that travels against its
    /// C-DAG edge or comes from a rank outside the overlay, whose own
    /// destination set names a group outside the overlay, or a `msg`
    /// whose lca is not an ancestor of this group (there is no queue for
    /// it), is dropped before it touches any state and counted in
    /// [`FlexCastGroup::reject_stats`]; the vertices of its history delta
    /// are checked where the history admits them (`update_hst`).
    pub fn on_packet(&mut self, from: GroupId, pkt: Packet, out: &mut Vec<Output>) {
        // C-DAG edges point to higher ranks. Advertisements are the one
        // packet kind that flows against them: a descendant telling this
        // group what it has seen.
        let acceptable = match &pkt {
            Packet::Advert { .. } => from > self.g && from.rank() < self.n,
            _ if from >= self.g => false,
            Packet::Msg { msg, .. } => self.in_overlay(msg.dst) && msg.lca() < self.g,
            Packet::Ack { mref, .. } | Packet::Notif { mref, .. } => self.in_overlay(mref.dst),
        };
        if !acceptable {
            self.local.rejected.packets += 1;
            return;
        }
        match pkt {
            Packet::Advert { wm } => {
                // The history is as it was: no advertisement of ours is due.
                self.on_advert(from, wm);
                return;
            }
            Packet::Msg {
                msg,
                notif_pairs,
                hist,
            } => {
                self.update_hst(&hist);
                let entry = self.pending.entry(msg.id).or_default();
                entry.required.extend(notif_pairs);
                entry.msg = Some(msg.clone());
                self.queues[msg.lca().index()].push_back(msg.id);
                self.reprocess_queues(out);
                self.drain_client_backlog(out);
            }
            Packet::Ack {
                mref,
                via,
                notif_pairs,
                hist,
            } => {
                self.update_hst(&hist);
                // An ack can trail the delivery it answers, even past the
                // flush that pruned the message: seen but no longer
                // retained, and only delivered messages are pruned here.
                // Either way there is nothing left to wait for.
                let settled = if self.hst.contains(mref.id) {
                    self.hst.is_delivered(mref.id)
                } else {
                    self.hst.has_seen(mref.id)
                };
                if !settled {
                    let entry = self.pending.entry(mref.id).or_default();
                    entry.acks.insert((from, via));
                    entry.required.extend(notif_pairs);
                }
                self.reprocess_queues(out);
                self.drain_client_backlog(out);
            }
            Packet::Notif { mref, hist } => {
                self.update_hst(&hist);
                if self.local.open_count == 0 {
                    // Not a destination: acknowledge straight away so the
                    // destinations above learn our dependencies.
                    self.send_descendants(mref, None, from, out);
                } else {
                    let open = self.hst.flagged(flag::OPEN).collect();
                    self.pend_notif.push((mref, from, open));
                }
            }
        }
        self.maybe_advertise(out);
    }

    /// Absorbs a descendant's watermark advertisement: max-merge into the
    /// per-descendant advertised view (watermarks are monotone, so a
    /// stale or reordered advertisement can only be a no-op, never a
    /// regression). An entry for a creator outside the overlay is
    /// dropped: an advertisement only lets this group leave entries out
    /// of a delta, so ignoring one is always safe (DESIGN.md §8).
    fn on_advert(&mut self, from: GroupId, wm: Watermarks) {
        self.sup.adverts_received += 1;
        let di = from.index();
        let reach = client_reach(self.hst.admitted_entries());
        for (c, w) in wm.clients {
            self.advertised_clients[di].merge_prefix(c.0, w, reach);
        }
        for (g, w) in wm.edges.into_iter().filter(|&(g, _)| g.rank() < self.n) {
            self.advertised_edges[di].merge_prefix(g.rank().into(), w, CREATOR_REACH);
        }
    }

    /// Emits watermark advertisements to every ancestor, once this
    /// group's history has grown by at least `advert_stride` entries
    /// since the last round. Every ancestor is a potential sender in the
    /// complete C-DAG, and covering a link *before* its first packet
    /// matters most — the first `diff-hst` on a never-used link would
    /// otherwise ship the entire retained log. Advertisements are
    /// incremental: only watermark entries that changed since the
    /// previous round are shipped (the engine's channels are reliable
    /// FIFO, re-established under faults by the replication layer, so
    /// increments compose losslessly).
    fn maybe_advertise(&mut self, out: &mut Vec<Output>) {
        if self.advert_stride == 0 || self.g.rank() == 0 {
            return;
        }
        let total = self.hst.admitted_entries();
        if total < self.advert_mark + self.advert_stride as u64 {
            return;
        }
        self.advert_mark = total;
        let sent = &self.advert_sent_clients;
        let clients: Vec<_> = (self.hst.client_watermarks())
            .filter(|&(c, w)| !sent.contains(c.0, w))
            .collect();
        // An ancestor's log only holds edges created by ranks at or below
        // its own (packets flow strictly downward), so prefixes of
        // higher-ranked creators could never match its diff filter — dead
        // advert bytes; no ancestor is sent this group's or a descendant's.
        let sent = &self.advert_sent_edges;
        let edges: Vec<_> = (self.hst.edge_prefixes())
            .filter(|&(g, w)| g < self.g && !sent.contains(g.rank().into(), w))
            .collect();
        for &(c, w) in &clients {
            (self.advert_sent_clients).merge_prefix(c.0, w, client_reach(total));
        }
        for &(g, w) in &edges {
            (self.advert_sent_edges).merge_prefix(g.rank().into(), w, CREATOR_REACH);
        }
        for u in (0..self.g.rank()).map(GroupId) {
            let wm = Watermarks {
                clients: clients.clone(),
                edges: edges.iter().copied().filter(|&(g, _)| g <= u).collect(),
            };
            if wm.is_empty() {
                continue;
            }
            self.sup.adverts_sent += 1;
            out.push(Output::Send {
                to: u,
                pkt: Packet::Advert { wm },
            });
        }
    }

    /// `update-hst` (Alg. 3 line 1).
    ///
    /// Garbage-collection safety is the history's own job: its seen set
    /// never re-admits a pruned vertex, and the merge drops edges with
    /// pruned endpoints. Post-merge maintenance (open dependencies,
    /// clean-set invalidation) runs over the entries the merge *actually
    /// inserted* — the tails of the insertion logs — so a duplicate, most
    /// entries at large group counts, costs one probe and nothing after.
    fn update_hst(&mut self, delta: &HistoryDelta) {
        let pre_verts = self.hst.vert_log_len();
        let pre_edges = self.hst.edge_log_len();
        self.local.rejected.verts += self.hst.merge_within(delta, DestSet::all(self.n as usize));
        self.post_merge_since(pre_verts, pre_edges);
    }

    /// Open-dependency and clean-memo maintenance for the history entries
    /// inserted after the given log positions.
    fn post_merge_since(&mut self, pre_verts: usize, pre_edges: usize) {
        // A vertex new to the history cannot have been delivered here.
        self.local.open_count += self.hst.flag_addressed_since(pre_verts, self.g, flag::OPEN);
        // Memo invalidation: a new edge whose source is neither clean nor
        // delivered may put an open dependency above its target.
        let purge: Vec<MsgId> = self
            .hst
            .edges_since(pre_edges)
            .iter()
            .filter(|e| !self.hst.has_flag(e.before, flag::CLEAN | flag::DELIVERED))
            .map(|e| e.after)
            .collect();
        for b in purge {
            self.hst.clear_flag_downstream(b, flag::CLEAN);
        }
    }

    /// Condition 2 of `can-deliver` with memoization: true if some open
    /// dependency (undelivered message addressed to this group) precedes
    /// `m` transitively.
    fn cond2_blocked(&mut self, m: MsgId) -> bool {
        let blocked = self.cond2_blocked_memo(m);
        debug_assert_eq!(
            blocked,
            self.hst.blocking_predecessor(m, self.g).is_some(),
            "condition-2 memo disagrees with the plain walk for {m}"
        );
        blocked
    }

    fn cond2_blocked_memo(&mut self, m: MsgId) -> bool {
        if self.local.open_count == 0 {
            self.local.blocked_by.remove(&m);
            return false;
        }
        // Negative memo: the previously found blocker is still open.
        if let Some(&o) = self.local.blocked_by.get(&m) {
            if self.hst.has_flag(o, flag::OPEN) {
                return true;
            }
            self.local.blocked_by.remove(&m);
        }
        let blocker =
            self.hst
                .find_pred_flagged(m, flag::DELIVERED | flag::CLEAN, flag::OPEN, flag::CLEAN);
        if let Some(o) = blocker {
            self.local.blocked_by.insert(m, o);
        }
        blocker.is_some()
    }

    /// `a-deliver` (Alg. 3 line 20).
    fn a_deliver(&mut self, m: Message, out: &mut Vec<Output>) {
        debug_assert!(!self.hst.is_delivered(m.id), "integrity: deliver once");
        let mref = MsgRef::of(&m);
        self.hst.record_delivery(mref, self.g);
        debug_assert!(self.hst.is_delivered(m.id), "delivered after its own GC");
        if self.hst.clear_flag(m.id, flag::OPEN) {
            self.local.open_count -= 1;
        }
        self.local.blocked_by.remove(&m.id);
        self.delivered_count += 1;
        out.push(Output::Deliver(m.clone()));

        if self.g == m.lca() {
            self.send_descendants(mref, Some(&m), self.g, out);
        } else {
            let q = &mut self.queues[m.lca().index()];
            let head = q.pop_front();
            debug_assert_eq!(head, Some(m.id), "deliver only the queue head");
            self.pending.remove(&m.id);
            // A destination ack is tagged with the destination itself.
            self.send_descendants(mref, None, self.g, out);
        }

        // Unblock pending notifications waiting on this delivery
        // (Alg. 3 lines 27–31).
        let mut ready = Vec::new();
        self.pend_notif.retain_mut(|(nref, via, deps)| {
            deps.remove(&m.id);
            if deps.is_empty() {
                ready.push((*nref, *via));
                false
            } else {
                true
            }
        });
        for (nref, via) in ready {
            self.send_descendants(nref, None, via, out);
        }

        // Flush-based garbage collection (§4.3).
        if m.payload.as_slice() == FLUSH_PAYLOAD && m.dst == DestSet::all(self.n as usize) {
            self.prune(m.id);
        }
    }

    /// `send-descendants` (Alg. 3 line 32). `payload` is `Some` at the lca
    /// (send `msg` packets) and `None` elsewhere (send `ack` packets
    /// tagged with `via`: the sender itself for destination acks, or the
    /// notifier being answered).
    fn send_descendants(
        &mut self,
        mref: MsgRef,
        payload: Option<&Message>,
        via: GroupId,
        out: &mut Vec<Output>,
    ) {
        let newly = self.send_notifs(mref, out);
        let new_pairs: Vec<NotifPair> = newly.iter().map(|x| (self.g, x)).collect();

        for d in mref.dst.above(self.g) {
            let hist = self.diff_hst(d);
            let pkt = match payload {
                Some(m) => Packet::Msg {
                    msg: m.clone(),
                    notif_pairs: new_pairs.clone(),
                    hist,
                },
                None => Packet::Ack {
                    mref,
                    via,
                    notif_pairs: new_pairs.clone(),
                    hist,
                },
            };
            out.push(Output::Send { to: d, pkt });
        }
    }

    /// `send-notifs` (Alg. 3 line 36): Strategy (c). Notifies descendants
    /// that are not destinations of `mref` but (i) sit below some
    /// destination and (ii) appear in this group's history — they may hold
    /// dependencies the destinations cannot otherwise see. Each group is
    /// notified at most once per message *by this group*; distinct
    /// notifiers notify independently (that is the point of the pair
    /// bookkeeping). Returns the newly notified groups.
    fn send_notifs(&mut self, mref: MsgRef, out: &mut Vec<Output>) -> DestSet {
        let mut newly = DestSet::EMPTY;
        let Some(highest_dst) = mref.dst.highest() else {
            return newly;
        };
        let mine = self
            .my_notifs
            .get(&mref.id)
            .copied()
            .unwrap_or(DestSet::EMPTY);
        for d in (self.g.rank() + 1)..highest_dst.rank() {
            let d = GroupId(d);
            if mref.dst.contains(d) || mine.contains(d) || newly.contains(d) {
                continue;
            }
            // ∃ d' ∈ m.dst with d an ancestor of d' — guaranteed by the
            // loop bound (d < highest destination) — and history holds a
            // message addressed to d.
            if self.hst.contains_msg_to(d) {
                let hist = self.diff_hst(d);
                out.push(Output::Send {
                    to: d,
                    pkt: Packet::Notif { mref, hist },
                });
                newly.insert(d);
            }
        }
        if !newly.is_empty() {
            let entry = self.my_notifs.entry(mref.id).or_default();
            *entry = entry.union(newly);
        }
        newly
    }

    /// `diff-hst(h)` (Alg. 3 line 11): the history not yet sent to `d` —
    /// the log suffix past the descendant's cursor — advancing the cursor
    /// as a side effect. O(new entries), per §4.3's diff optimization.
    ///
    /// With the delta-suppression protocol, the suffix is additionally
    /// filtered against the watermarks `d` has advertised: a vertex whose
    /// `(client, seq)` is covered, or an edge whose `(creator, idx)` is
    /// covered, was already processed at `d` — re-merging it there is a
    /// guaranteed no-op (the seen watermark and edge-stream dedup reject
    /// it without touching any other state), so omitting it changes
    /// nothing about `d`'s behavior while saving the encode, clone, and
    /// probe per duplicate. The cursor advances past suppressed entries
    /// permanently; watermarks are monotone, so they stay covered.
    ///
    /// Last, a vertex `{id, {c}}` is left out when the delta keeps `c`'s
    /// edge into `id`: the edge carries the local delivery, and `d`'s
    /// merge rebuilds the vertex from it. A suppressed edge carries
    /// nothing, so its local stays in the delta unless it is suppressed
    /// itself.
    fn diff_hst(&mut self, d: GroupId) -> HistoryDelta {
        let di = d.index();
        let from = self.vert_cursor[di];
        let verts = self.hst.verts_since(from);
        let edges = self.hst.edges_since(self.edge_cursor[di]);
        // Each half of the delta is counted before it is collected, so it
        // holds exactly its length while it is in flight.
        let ewm = &self.advertised_edges[di];
        let fresh = |e: &&TaggedEdge| !ewm.contains(e.creator.rank().into(), e.idx);
        let mut kept_edges = Vec::with_capacity(edges.iter().filter(fresh).count());
        kept_edges.extend(edges.iter().filter(fresh));
        // A local delivery `{id, {c}}` whose in-edge from `c` the delta
        // keeps travels as that edge alone; the receiver's merge rebuilds
        // it (`HistoryDelta`). One flag a vertex, allocated on the first.
        let mut rides = Vec::new();
        for e in &kept_edges {
            if let Some(i) = self.hst.local_into(e).and_then(|s| s.checked_sub(from)) {
                if rides.is_empty() {
                    rides.resize(verts.len(), false);
                }
                rides[i] = true;
            }
        }
        let cwm = &self.advertised_clients[di];
        let sup = |v: &MsgRef| cwm.contains(v.id.sender.0, v.id.seq);
        let rides = |i: usize| rides.get(i).is_some_and(|&r| r);
        let (mut sup_v, mut n_kept) = (0u64, 0usize);
        for (i, v) in verts.iter().enumerate() {
            if sup(v) {
                sup_v += 1;
            } else if !rides(i) {
                n_kept += 1;
            }
        }
        let mut kept_verts = Vec::with_capacity(n_kept);
        let keep = |&(i, v): &(usize, &MsgRef)| !sup(v) && !rides(i);
        kept_verts.extend(verts.iter().enumerate().filter(keep).map(|(_, v)| *v));
        self.sup.suppressed_verts += sup_v;
        self.sup.suppressed_edges += (edges.len() - kept_edges.len()) as u64;
        self.vert_cursor[di] = self.hst.vert_log_len();
        self.edge_cursor[di] = self.hst.edge_log_len();
        HistoryDelta {
            verts: kept_verts,
            edges: kept_edges,
        }
    }

    /// `reprocess-queues` (Alg. 3 line 41): delivers queue heads until no
    /// further progress is possible.
    fn reprocess_queues(&mut self, out: &mut Vec<Output>) {
        // Only arrivals enqueue (in `on_packet`), so within this fixpoint
        // loop the set of non-empty queues can only shrink: computing it
        // once turns each pass from O(rank) into O(non-empty queues).
        // Most of a high-rank group's queues sit empty, and this scan ran
        // on every packet in large-world profiles.
        let mut live: Vec<usize> = (0..self.queues.len())
            .filter(|&lca| !self.queues[lca].is_empty())
            .collect();
        loop {
            let mut delivered = false;
            for &lca in &live {
                if let Some(&head) = self.queues[lca].front() {
                    if self.can_deliver(head) {
                        // Cannot fire: `on_packet` queues an id only after
                        // storing its message in the id's pending entry,
                        // and the entry leaves `pending` only as the id
                        // leaves its queue (`a_deliver`) or in a flush,
                        // which prunes delivered vertices only.
                        let m = self.pending[&head]
                            .msg
                            .clone()
                            .expect("queued messages have arrived");
                        self.a_deliver(m, out);
                        delivered = true;
                    }
                }
            }
            if !delivered {
                break;
            }
            live.retain(|&lca| !self.queues[lca].is_empty());
        }
    }

    /// `can-deliver` (Alg. 3 line 49) for a queued message, with the
    /// pair-precise ack requirement (module docs). Split into the ack
    /// check (`&self`) and the memoizing dependency check (`&mut self`).
    fn can_deliver(&mut self, id: MsgId) -> bool {
        // Condition 2 last: it mutates the memo, so only run it when the
        // ack requirement already holds.
        self.acks_satisfied(id) && !self.cond2_blocked(id)
    }

    /// Condition 1 of `can-deliver`: one ack per requirement.
    fn acks_satisfied(&self, id: MsgId) -> bool {
        let entry = &self.pending[&id];
        let Some(m) = &entry.msg else {
            return false;
        };
        // Condition 1: one ack per requirement. Destination ancestors
        // (except the lca, whose msg packet is its ordering statement)
        // must ack as themselves; every notified ancestor must ack once
        // per notifier we know about.
        let mut lower_dst = m.dst.below(self.g);
        lower_dst.remove(m.lca());
        for h in lower_dst.iter() {
            if !entry.acks.contains(&(h, h)) {
                return false;
            }
        }
        for &(notifier, notified) in &entry.required {
            if notified < self.g && !entry.acks.contains(&(notified, notifier)) {
                return false;
            }
        }
        true
    }

    /// Flush garbage collection: prunes everything that precedes `fence`.
    /// The pruned vertices take their flag bits with them.
    fn prune(&mut self, fence: MsgId) {
        let pruned = self
            .hst
            .prune_before(fence, &mut self.vert_cursor, &mut self.edge_cursor);
        for id in &pruned {
            self.pending.remove(id);
            self.my_notifs.remove(id);
            self.local.blocked_by.remove(id);
        }
        // Nothing the flush's delivery waited on was still open.
        debug_assert_eq!(self.hst.flagged(flag::OPEN).count(), self.local.open_count);
    }

    /// Serializes the engine's complete state to bytes (§4.4 state
    /// transfer): a replica joining a replicated group — or recovering
    /// after losing its local state — restores from a peer's snapshot and
    /// continues from there instead of replaying the input log from the
    /// beginning. The snapshot carries each fact once — history, queues,
    /// pending acks, GC tombstones, diff cursors — and nothing derived
    /// from them: a restored engine is interchangeable with the original
    /// in every output, and its caches start cold.
    pub fn snapshot(&self) -> flexcast_types::Result<Vec<u8>> {
        flexcast_wire::to_bytes(self)
    }

    /// Reconstructs an engine from a [`FlexCastGroup::snapshot`], which
    /// may come from a peer: what a later input indexes with or takes from
    /// the engine's tables is checked first (`validate`). Then every
    /// retained vertex addressed here and not delivered is flagged open.
    pub fn restore(bytes: &[u8]) -> flexcast_types::Result<FlexCastGroup> {
        let mut g: FlexCastGroup = flexcast_wire::from_bytes(bytes)?;
        let invalid = |what: &str| flexcast_types::Error::Decode(what.into());
        g.validate().map_err(invalid)?;
        g.local.open_count = g.hst.flag_addressed_since(0, g.g, flag::OPEN);
        Ok(g)
    }

    /// The invariants [`FlexCastGroup::restore`] checks: a rank of a
    /// supported overlay, per-rank tables of `n` entries, one queue per
    /// ancestor, cursors within their logs, an acyclic history (the load
    /// links any edge log); each queued id once, its
    /// message pending from that queue's lca and its vertex retained and
    /// not delivered; waiting client messages this group may take and has
    /// not seen, each once; pending notifications inside the overlay.
    fn validate(&self) -> Result<(), &'static str> {
        let n = self.n as usize;
        if n > MAX_GROUPS || self.g.rank() >= self.n {
            return Err("the group is not a rank of a supported overlay");
        }
        let per_rank = [
            self.vert_cursor.len(),
            self.edge_cursor.len(),
            self.advertised_clients.len(),
            self.advertised_edges.len(),
        ];
        if per_rank.iter().any(|&len| len != n) {
            return Err("a per-rank table does not have one entry per group");
        }
        if self.queues.len() != self.g.index() {
            return Err("the queues are not one per ancestor");
        }
        let (verts, edges) = (self.hst.vert_log_len(), self.hst.edge_log_len());
        if self.vert_cursor.iter().any(|&c| c > verts)
            || self.edge_cursor.iter().any(|&c| c > edges)
        {
            return Err("a diff cursor points past its log");
        }
        if !self.hst.is_acyclic() {
            return Err("the history has a cycle");
        }
        let mut ids = BTreeSet::new();
        for (lca, q) in self.queues.iter().enumerate() {
            for &id in q {
                let ours =
                    |m: &Message| m.id == id && m.lca().index() == lca && self.in_overlay(m.dst);
                let pending = self.pending.get(&id).and_then(|e| e.msg.as_ref());
                let open = self.hst.contains(id) && !self.hst.is_delivered(id);
                if !pending.is_some_and(ours) || !open || !ids.insert(id) {
                    return Err("a queued id is no open message pending from its lca");
                }
            }
        }
        for m in &self.client_backlog {
            let new = !self.hst.has_seen(m.id) && ids.insert(m.id);
            if !self.in_overlay(m.dst) || m.lca() != self.g || !new {
                return Err("a waiting client message is not one this group may take");
            }
        }
        let notifs_inside = self.pend_notif.iter().all(|(n, ..)| self.in_overlay(n.dst));
        notifs_inside
            .then_some(())
            .ok_or("a pending notification names a group outside the overlay")
    }

    /// Builds the flush message used for garbage collection; multicast it
    /// like any application message (its lca is rank 0).
    ///
    /// # Panics
    ///
    /// Panics if `n_groups` is 0 or above [`MAX_GROUPS`]: no overlay has
    /// that many groups ([`FlexCastGroup::new`] needs a rank below `n`).
    pub fn flush_message(id: MsgId, n_groups: u16) -> Message {
        Message::new(
            id,
            DestSet::all(n_groups as usize),
            FLUSH_PAYLOAD.to_vec().into(),
        )
        // Cannot fire for an overlay: all of its `n_groups ≥ 1` groups
        // are a non-empty set.
        .expect("flush has destinations")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, Payload};

    const A: GroupId = GroupId(0);
    const B: GroupId = GroupId(1);
    const C: GroupId = GroupId(2);

    fn msg(seq: u32, ranks: &[u16]) -> Message {
        Message::new(
            MsgId::new(ClientId(9), seq),
            DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
            Payload::empty(),
        )
        .unwrap()
    }

    fn deliveries(out: &[Output]) -> Vec<MsgId> {
        out.iter()
            .filter_map(|o| match o {
                Output::Deliver(m) => Some(m.id),
                _ => None,
            })
            .collect()
    }

    fn sends(out: &[Output]) -> Vec<(GroupId, Packet)> {
        out.iter()
            .filter_map(|o| match o {
                Output::Send { to, pkt } => Some((*to, pkt.clone())),
                _ => None,
            })
            .collect()
    }

    /// `pkt` through the wire and back: the same value, the size
    /// `encoded_len` charges, and one spelling.
    fn assert_round_trips(pkt: &Packet) {
        let bytes = flexcast_wire::to_bytes(pkt).expect("packets encode");
        assert_eq!(flexcast_wire::encoded_len(pkt).unwrap(), bytes.len());
        let back: Packet = flexcast_wire::from_bytes(&bytes).expect("packets decode");
        assert_eq!(&back, pkt);
        assert_eq!(flexcast_wire::to_bytes(&back).unwrap(), bytes);
    }

    /// Local deliveries `delta` carries as vertices though it keeps their
    /// in-edges: `diff_hst` leaves every one out, so none.
    fn carried_riders(delta: &HistoryDelta) -> Vec<MsgRef> {
        let rides = |v: &&MsgRef| {
            (delta.edges.iter()).any(|e| e.after == v.id && v.dst.sole() == Some(e.creator))
        };
        delta.verts.iter().filter(rides).copied().collect()
    }

    /// Routes `out` from group `from` into the right engine, collecting
    /// transitively produced outputs. Delivery order per group recorded.
    /// Every packet is checked to survive the wire first, to carry no
    /// local delivery whose in-edge it carries, and to hold its delta in
    /// exactly the memory the delta's length needs.
    fn route(
        engines: &mut [FlexCastGroup],
        from: GroupId,
        out: Vec<Output>,
        log: &mut Vec<(GroupId, MsgId)>,
    ) {
        for o in out {
            match o {
                Output::Deliver(m) => log.push((from, m.id)),
                Output::Send { to, pkt } => {
                    assert_round_trips(&pkt);
                    if let Some(hist) = pkt.hist() {
                        assert_eq!(carried_riders(hist), vec![], "{from} → {to}");
                        assert_eq!(hist.verts.capacity(), hist.verts.len(), "{from} → {to}");
                        assert_eq!(hist.edges.capacity(), hist.edges.len(), "{from} → {to}");
                    }
                    let mut next = Vec::new();
                    engines[to.index()].on_packet(from, pkt, &mut next);
                    route(engines, to, next, log);
                }
            }
        }
    }

    #[test]
    fn lca_delivers_immediately_and_forwards() {
        let mut a = FlexCastGroup::new(A, 3);
        let m = msg(0, &[0, 2]);
        let mut out = Vec::new();
        a.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        let s = sends(&out);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, C);
        match &s[0].1 {
            Packet::Msg { msg, hist, .. } => {
                assert_eq!(msg.id, m.id);
                // The delta carries the lca's own delivery of m.
                assert!(hist.verts.iter().any(|v| v.id == m.id));
            }
            other => panic!("expected msg packet, got {other:?}"),
        }
        assert!(a.has_delivered(m.id));
        assert_eq!(a.delivered_count(), 1);
    }

    /// A client message at a group that is not its lca is refused and
    /// counted, leaving the group as it was.
    #[test]
    fn client_must_target_lca() {
        let mut b = FlexCastGroup::new(B, 3);
        let fresh = b.snapshot().expect("snapshot encodes");
        let mut out = Vec::new();
        b.on_client(msg(0, &[0, 1]), &mut out);
        assert_eq!(out, vec![]);
        assert_eq!(b.reject_stats().packets, 1);
        assert_eq!(b.snapshot().expect("snapshot encodes"), fresh);
    }

    #[test]
    fn local_message_has_no_sends() {
        let mut b = FlexCastGroup::new(B, 3);
        let m = msg(0, &[1]);
        let mut out = Vec::new();
        b.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert!(sends(&out).is_empty());
    }

    #[test]
    fn non_lca_destination_delivers_and_acks_upward() {
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let m = msg(0, &[0, 1, 2]);
        let mut out_a = Vec::new();
        a.on_client(m.clone(), &mut out_a);
        // Feed B its copy.
        let (to, pkt) = sends(&out_a)
            .into_iter()
            .find(|(to, _)| *to == B)
            .expect("msg to B");
        assert_eq!(to, B);
        let mut out_b = Vec::new();
        b.on_packet(A, pkt, &mut out_b);
        assert_eq!(deliveries(&out_b), vec![m.id]);
        // B acknowledges to C (its only higher destination), as itself.
        let s = sends(&out_b);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].0, C);
        assert!(matches!(&s[0].1, Packet::Ack { mref, via, .. } if mref.id == m.id && *via == B));
    }

    #[test]
    fn highest_destination_waits_for_middle_ack() {
        // m to {A, B, C}: C must not deliver on A's msg alone.
        let mut a = FlexCastGroup::new(A, 3);
        let mut c = FlexCastGroup::new(C, 3);
        let m = msg(0, &[0, 1, 2]);
        let mut out_a = Vec::new();
        a.on_client(m.clone(), &mut out_a);
        let pkt_to_c = sends(&out_a)
            .into_iter()
            .find(|(to, _)| *to == C)
            .unwrap()
            .1;
        let mut out_c = Vec::new();
        c.on_packet(A, pkt_to_c, &mut out_c);
        assert!(deliveries(&out_c).is_empty(), "B has not acked yet");
        assert_eq!(c.backlog(), 1);

        // Now simulate B's ack.
        let mut b = FlexCastGroup::new(B, 3);
        let pkt_to_b = {
            let mut out_a2 = Vec::new();
            let mut a2 = FlexCastGroup::new(A, 3);
            a2.on_client(m.clone(), &mut out_a2);
            sends(&out_a2)
                .into_iter()
                .find(|(to, _)| *to == B)
                .unwrap()
                .1
        };
        let mut out_b = Vec::new();
        b.on_packet(A, pkt_to_b, &mut out_b);
        let ack_to_c = sends(&out_b)
            .into_iter()
            .find(|(to, _)| *to == C)
            .unwrap()
            .1;
        let mut out_c2 = Vec::new();
        c.on_packet(B, ack_to_c, &mut out_c2);
        assert_eq!(deliveries(&out_c2), vec![m.id]);
        assert_eq!(c.backlog(), 0);
    }

    #[test]
    fn ack_arriving_before_msg_is_buffered() {
        let mut c = FlexCastGroup::new(C, 3);
        let m = msg(0, &[0, 1, 2]);
        // Build A's outputs, derive B's ack, deliver the ack to C first.
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let mut out_a = Vec::new();
        a.on_client(m.clone(), &mut out_a);
        let pkt_to_b = sends(&out_a)
            .iter()
            .find(|(t, _)| *t == B)
            .unwrap()
            .1
            .clone();
        let pkt_to_c = sends(&out_a)
            .iter()
            .find(|(t, _)| *t == C)
            .unwrap()
            .1
            .clone();
        let mut out_b = Vec::new();
        b.on_packet(A, pkt_to_b, &mut out_b);
        let ack_to_c = sends(&out_b).into_iter().find(|(t, _)| *t == C).unwrap().1;

        let mut out_c = Vec::new();
        c.on_packet(B, ack_to_c, &mut out_c);
        assert!(deliveries(&out_c).is_empty(), "msg not here yet");
        let mut out_c2 = Vec::new();
        c.on_packet(A, pkt_to_c, &mut out_c2);
        assert_eq!(deliveries(&out_c2), vec![m.id], "ack was buffered");
    }

    /// Figure 3(a): histories propagate indirect dependencies.
    /// m1 → {A,C}, m2 → {A,B}, m3 → {B,C}; C must deliver m1 before m3
    /// even though m3 arrives first.
    #[test]
    fn fig3a_histories_order_indirect_dependencies() {
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let mut c = FlexCastGroup::new(C, 3);
        let m1 = msg(1, &[0, 2]);
        let m2 = msg(2, &[0, 1]);
        let m3 = msg(3, &[1, 2]);

        // A delivers m1 then m2.
        let mut out_a1 = Vec::new();
        a.on_client(m1.clone(), &mut out_a1);
        let m1_to_c = sends(&out_a1).into_iter().find(|(t, _)| *t == C).unwrap().1;
        let mut out_a2 = Vec::new();
        a.on_client(m2.clone(), &mut out_a2);
        let m2_to_b = sends(&out_a2).into_iter().find(|(t, _)| *t == B).unwrap().1;

        // B delivers m2 (from A), then m3 (client), forwarding m3 to C.
        let mut out_b1 = Vec::new();
        b.on_packet(A, m2_to_b, &mut out_b1);
        assert_eq!(deliveries(&out_b1), vec![m2.id]);
        let mut out_b2 = Vec::new();
        b.on_client(m3.clone(), &mut out_b2);
        let m3_to_c = sends(&out_b2).into_iter().find(|(t, _)| *t == C).unwrap().1;

        // Adversarial order: C receives m3 before m1.
        let mut out_c1 = Vec::new();
        c.on_packet(B, m3_to_c, &mut out_c1);
        assert!(
            deliveries(&out_c1).is_empty(),
            "m3 must wait: B's history says m1 → m2 → m3 and m1 is ours"
        );
        let mut out_c2 = Vec::new();
        c.on_packet(A, m1_to_c, &mut out_c2);
        assert_eq!(deliveries(&out_c2), vec![m1.id, m3.id], "m1 then m3");
    }

    /// Figure 3(b): ack messages carry dependencies created at a middle
    /// destination. m1 → {B,C}, m2 → {A,B,C}; C must deliver m1 before m2.
    #[test]
    fn fig3b_acks_carry_middle_dependencies() {
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let mut c = FlexCastGroup::new(C, 3);
        let m1 = msg(1, &[1, 2]);
        let m2 = msg(2, &[0, 1, 2]);

        // B delivers m1 (it is m1's lca) and forwards to C.
        let mut out_b1 = Vec::new();
        b.on_client(m1.clone(), &mut out_b1);
        let m1_to_c = sends(&out_b1).into_iter().find(|(t, _)| *t == C).unwrap().1;

        // A delivers m2 and forwards to B and C.
        let mut out_a = Vec::new();
        a.on_client(m2.clone(), &mut out_a);
        let m2_to_b = sends(&out_a)
            .iter()
            .find(|(t, _)| *t == B)
            .unwrap()
            .1
            .clone();
        let m2_to_c = sends(&out_a)
            .iter()
            .find(|(t, _)| *t == C)
            .unwrap()
            .1
            .clone();

        // C sees m2 first: must block on B's ack (condition 1).
        let mut out_c1 = Vec::new();
        c.on_packet(A, m2_to_c, &mut out_c1);
        assert!(deliveries(&out_c1).is_empty());

        // B delivers m2 after m1 and acks to C with the m1 → m2 edge.
        let mut out_b2 = Vec::new();
        b.on_packet(A, m2_to_b, &mut out_b2);
        assert_eq!(deliveries(&out_b2), vec![m2.id]);
        let ack_to_c = sends(&out_b2).into_iter().find(|(t, _)| *t == C).unwrap().1;

        // FIFO on the B→C link: m1's msg precedes the ack. Delivering m1
        // alone must not release m2 (B's ack is still required).
        let mut out_c2 = Vec::new();
        c.on_packet(B, m1_to_c, &mut out_c2);
        assert_eq!(
            deliveries(&out_c2),
            vec![m1.id],
            "m1 deliverable, m2 still awaiting B's ack"
        );
        let mut out_c3 = Vec::new();
        c.on_packet(B, ack_to_c, &mut out_c3);
        assert_eq!(deliveries(&out_c3), vec![m2.id], "m1 before m2 at C");
    }

    /// Figure 3(c): notif messages flush dependencies a destination never
    /// sees. m1 → {B,C}, m2 → {A,B}, m3 → {A,C}; C must deliver m1 before
    /// m3 although the m1 → m2 dependency lives only at B.
    #[test]
    fn fig3c_notifs_flush_hidden_dependencies() {
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let mut c = FlexCastGroup::new(C, 3);
        let m1 = msg(1, &[1, 2]);
        let m2 = msg(2, &[0, 1]);
        let m3 = msg(3, &[0, 2]);

        // B delivers m1, sends msg to C (hold it back).
        let mut out_b1 = Vec::new();
        b.on_client(m1.clone(), &mut out_b1);
        let m1_to_c = sends(&out_b1).into_iter().find(|(t, _)| *t == C).unwrap().1;

        // A delivers m2, sends to B; B delivers m2 after m1.
        let mut out_a1 = Vec::new();
        a.on_client(m2.clone(), &mut out_a1);
        let m2_to_b = sends(&out_a1).into_iter().find(|(t, _)| *t == B).unwrap().1;
        let mut out_b2 = Vec::new();
        b.on_packet(A, m2_to_b, &mut out_b2);
        assert_eq!(deliveries(&out_b2), vec![m2.id]);
        assert!(sends(&out_b2).is_empty(), "no destination above B in m2");

        // A delivers m3. Strategy (c): A must notif B (B holds a message
        // addressed to it in A's history, and B < C ∈ m3.dst).
        let mut out_a2 = Vec::new();
        a.on_client(m3.clone(), &mut out_a2);
        let s = sends(&out_a2);
        let notif_to_b = s
            .iter()
            .find(|(t, p)| *t == B && matches!(p, Packet::Notif { .. }))
            .expect("A must notify B about m3")
            .1
            .clone();
        let m3_to_c = s
            .iter()
            .find(|(t, p)| *t == C && matches!(p, Packet::Msg { .. }))
            .unwrap()
            .1
            .clone();
        match &m3_to_c {
            Packet::Msg { notif_pairs, .. } => {
                assert!(
                    notif_pairs.contains(&(A, B)),
                    "msg carries the (notifier, notified) pair"
                )
            }
            _ => unreachable!(),
        }

        // Adversarial cross-link order: C receives m3 (link A→C) first —
        // it must wait for the notified group B to ack.
        let mut out_c1 = Vec::new();
        c.on_packet(A, m3_to_c, &mut out_c1);
        assert!(deliveries(&out_c1).is_empty(), "waits for notified B");

        // B processes the notif: all its deps are delivered, so it acks C
        // carrying the m1 → m2 → m3 history, tagged via=A.
        let mut out_b3 = Vec::new();
        b.on_packet(A, notif_to_b, &mut out_b3);
        let ack_to_c = sends(&out_b3)
            .into_iter()
            .find(|(t, p)| *t == C && matches!(p, Packet::Ack { via, .. } if *via == A))
            .expect("notified group acks the destinations, via the notifier")
            .1;

        // FIFO on the B→C link: the m1 msg precedes B's ack. m1 delivers,
        // but m3 still lacks B's ack.
        let mut out_c2 = Vec::new();
        c.on_packet(B, m1_to_c, &mut out_c2);
        assert_eq!(deliveries(&out_c2), vec![m1.id]);
        // B's ack closes the loop: the m1 → m2 → m3 path is now visible
        // and satisfied, so m3 delivers after m1.
        let mut out_c3 = Vec::new();
        c.on_packet(B, ack_to_c, &mut out_c3);
        assert_eq!(deliveries(&out_c3), vec![m3.id], "m1 before m3 at C");
    }

    /// A notified group with open dependencies defers its acks until the
    /// dependencies are delivered (Alg. 2 lines 14–16, Alg. 3 lines 27–31).
    #[test]
    fn notif_with_open_dependencies_is_deferred() {
        // Four groups 0 < 1 < 2 < 3. Group 2 learns about m0 (addressed to
        // it, still in flight on the 0→2 link) through group 1's notif for
        // m2 — and must defer its ack until m0 is delivered.
        let g0 = GroupId(0);
        let g1 = GroupId(1);
        let g2 = GroupId(2);
        let g3 = GroupId(3);
        let mut e0 = FlexCastGroup::new(g0, 4);
        let mut e1 = FlexCastGroup::new(g1, 4);
        let mut e2 = FlexCastGroup::new(g2, 4);
        let m0 = msg(1, &[0, 2]);
        let m1 = msg(2, &[0, 1]);
        let m2 = msg(3, &[1, 3]);

        // Group 0 delivers m0 (msg to 2 stays in flight) and m1 (msg to 1
        // carries m0's vertex in the history delta).
        let mut out_01 = Vec::new();
        e0.on_client(m0.clone(), &mut out_01);
        let m0_to_2 = sends(&out_01)
            .into_iter()
            .find(|(t, _)| *t == g2)
            .unwrap()
            .1;
        let mut out_02 = Vec::new();
        e0.on_client(m1.clone(), &mut out_02);
        let m1_to_1 = sends(&out_02)
            .into_iter()
            .find(|(t, _)| *t == g1)
            .unwrap()
            .1;

        // Group 1 delivers m1, then m2 (it is m2's lca). Forwarding m2 it
        // must notif group 2: 2 < 3 ∈ m2.dst, 2 ∉ m2.dst, and group 1's
        // history holds m0 addressed to 2.
        let mut out_11 = Vec::new();
        e1.on_packet(g0, m1_to_1, &mut out_11);
        assert_eq!(deliveries(&out_11), vec![m1.id]);
        let mut out_12 = Vec::new();
        e1.on_client(m2.clone(), &mut out_12);
        let notif_to_2 = sends(&out_12)
            .into_iter()
            .find(|(t, p)| *t == g2 && matches!(p, Packet::Notif { .. }))
            .expect("group 1 must notify group 2")
            .1;

        // The notif reaches group 2 while m0 is still in flight (different
        // link) → open dependency → defer the ack.
        let mut out_21 = Vec::new();
        e2.on_packet(g1, notif_to_2, &mut out_21);
        assert!(sends(&out_21).is_empty(), "ack deferred on open deps");

        // Delivering m0 releases the pending notification, tagged with
        // the original notifier.
        let mut out_22 = Vec::new();
        e2.on_packet(g0, m0_to_2, &mut out_22);
        assert_eq!(deliveries(&out_22), vec![m0.id]);
        let acked: Vec<(GroupId, GroupId)> = sends(&out_22)
            .into_iter()
            .filter_map(|(t, p)| match p {
                Packet::Ack { mref, via, .. } if mref.id == m2.id => Some((t, via)),
                _ => None,
            })
            .collect();
        assert_eq!(acked, vec![(g3, g1)], "ack m2 to its high destination");
    }

    /// Regression for the double-notification race (module docs): a group
    /// notified early (by the lca) and late (by a destination) must ack
    /// twice, and the final destination must wait for the *second* ack —
    /// the one that carries the dependency created in between.
    #[test]
    fn double_notification_requires_an_ack_per_notifier() {
        let g0 = GroupId(0); // A
        let g1 = GroupId(1); // B
        let g2 = GroupId(2); // C
        let g3 = GroupId(3); // D
        let mut a = FlexCastGroup::new(g0, 4);
        let mut b = FlexCastGroup::new(g1, 4);
        let mut c = FlexCastGroup::new(g2, 4);
        let mut d = FlexCastGroup::new(g3, 4);

        // Seed: mac {A,C} gives A a history entry addressed to C (so A
        // will notify C directly) and leaves C with no open deps.
        let mac = msg(10, &[0, 2]);
        let mut out = Vec::new();
        a.on_client(mac.clone(), &mut out);
        let mac_to_c = sends(&out).into_iter().find(|(t, _)| *t == g2).unwrap().1;
        let mut out = Vec::new();
        c.on_packet(g0, mac_to_c, &mut out);
        assert_eq!(deliveries(&out), vec![mac.id]);

        // B delivers m3 {B,C} (lca B); its msg to C stays in flight.
        let m3 = msg(3, &[1, 2]);
        let mut out = Vec::new();
        b.on_client(m3.clone(), &mut out);
        let m3_to_c = sends(&out).into_iter().find(|(t, _)| *t == g2).unwrap().1;

        // A delivers m1 {A,B}; B delivers it after m3 (order m3 ≺ m1).
        let m1 = msg(1, &[0, 1]);
        let mut out = Vec::new();
        a.on_client(m1.clone(), &mut out);
        let m1_to_b = sends(&out).into_iter().find(|(t, _)| *t == g1).unwrap().1;
        let mut out = Vec::new();
        b.on_packet(g0, m1_to_b, &mut out);
        assert_eq!(deliveries(&out), vec![m1.id]);

        // A delivers m0 {A,D}: it notifies BOTH B (m1 in history) and C
        // (mac in history); the msg to D carries both pairs.
        let m0 = msg(0, &[0, 3]);
        let mut out_a = Vec::new();
        a.on_client(m0.clone(), &mut out_a);
        let s = sends(&out_a);
        let notif_a_to_b = s
            .iter()
            .find(|(t, p)| *t == g1 && matches!(p, Packet::Notif { .. }))
            .expect("A notifies B")
            .1
            .clone();
        let notif_a_to_c = s
            .iter()
            .find(|(t, p)| *t == g2 && matches!(p, Packet::Notif { .. }))
            .expect("A notifies C")
            .1
            .clone();
        let m0_to_d = s
            .iter()
            .find(|(t, p)| *t == g3 && matches!(p, Packet::Msg { .. }))
            .unwrap()
            .1
            .clone();
        match &m0_to_d {
            Packet::Msg { notif_pairs, .. } => {
                assert!(notif_pairs.contains(&(g0, g1)));
                assert!(notif_pairs.contains(&(g0, g2)));
            }
            _ => unreachable!(),
        }

        // C answers A's notif *early* — before delivering m2 and m3.
        let mut out = Vec::new();
        c.on_packet(g0, notif_a_to_c, &mut out);
        let c_ack_via_a = sends(&out)
            .into_iter()
            .find(|(t, p)| *t == g3 && matches!(p, Packet::Ack { via, .. } if *via == g0))
            .expect("C acks D via A")
            .1;

        // Now C delivers m2 {C,D} (client) and m3 (from B): creates the
        // m2 → m3 dependency that D must respect before m0.
        let m2 = msg(2, &[2, 3]);
        let mut out = Vec::new();
        c.on_client(m2.clone(), &mut out);
        let m2_to_d = sends(&out).into_iter().find(|(t, _)| *t == g3).unwrap().1;
        let mut out = Vec::new();
        c.on_packet(g1, m3_to_c, &mut out);
        assert_eq!(deliveries(&out), vec![m3.id]);

        // B answers A's notif: acks D via A and — the induction — also
        // notifies C (pair (B, C)), because m3 in B's history is
        // addressed to C.
        let mut out = Vec::new();
        b.on_packet(g0, notif_a_to_b, &mut out);
        let b_ack_via_a = sends(&out)
            .iter()
            .find(|(t, p)| *t == g3 && matches!(p, Packet::Ack { via, .. } if *via == g0))
            .expect("B acks D via A")
            .1
            .clone();
        let notif_b_to_c = sends(&out)
            .into_iter()
            .find(|(t, p)| *t == g2 && matches!(p, Packet::Notif { .. }))
            .expect("B must notify C (induction)")
            .1;
        match &b_ack_via_a {
            Packet::Ack { notif_pairs, .. } => {
                assert!(notif_pairs.contains(&(g1, g2)), "ack announces (B → C)")
            }
            _ => unreachable!(),
        }

        // D receives, FIFO-legal: m0's msg, C's early ack, B's ack.
        // The old set-based bookkeeping would deliver m0 here — C and B
        // have both acked — re-creating the cycle. Pair bookkeeping keeps
        // m0 blocked: requirement (B → C) has no matching ack yet.
        let mut out = Vec::new();
        d.on_packet(g0, m0_to_d, &mut out);
        assert!(deliveries(&out).is_empty());
        let mut out = Vec::new();
        d.on_packet(g2, c_ack_via_a, &mut out);
        assert!(deliveries(&out).is_empty());
        let mut out = Vec::new();
        d.on_packet(g1, b_ack_via_a, &mut out);
        assert!(
            deliveries(&out).is_empty(),
            "m0 must wait for C's ack via B"
        );

        // m2's msg arrives (C→D FIFO: after C's early ack): delivers.
        let mut out = Vec::new();
        d.on_packet(g2, m2_to_d, &mut out);
        assert_eq!(deliveries(&out), vec![m2.id]);

        // C answers B's notif with the fresh history (m2 → m3 edge).
        let mut out = Vec::new();
        c.on_packet(g1, notif_b_to_c, &mut out);
        let c_ack_via_b = sends(&out)
            .into_iter()
            .find(|(t, p)| *t == g3 && matches!(p, Packet::Ack { via, .. } if *via == g1))
            .expect("C acks D via B")
            .1;
        let mut out = Vec::new();
        d.on_packet(g2, c_ack_via_b, &mut out);
        assert_eq!(deliveries(&out), vec![m0.id], "m2 before m0 at D");
    }

    /// Local deliveries between global messages, on four groups: the
    /// deltas the run emits leave the locals out and carry them on their
    /// chain edges (`route` checks that no delta carries a local whose
    /// in-edge it carries, and that every one survives the wire), and
    /// every group's history rebuilds each local with exactly its creator
    /// as destination.
    #[test]
    fn locals_ride_on_their_chain_edges_through_a_four_group_run() {
        let n = 4u16;
        let mut engines: Vec<FlexCastGroup> =
            (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect();
        let mut log = Vec::new();
        let mut rode = 0;
        let mut seq = 0;
        for round in 0..6u16 {
            for g in 0..n {
                for _ in 0..=(round + g) % 3 {
                    seq += 1;
                    let local = msg(seq, &[g]);
                    let mut out = Vec::new();
                    engines[g as usize].on_client(local, &mut out);
                    route(&mut engines, GroupId(g), out, &mut log);
                }
            }
            seq += 1;
            let global = msg(seq, &[round % 2, 2 + round % 2, 3]);
            let lca = global.lca();
            let mut out = Vec::new();
            engines[lca.index()].on_client(global, &mut out);
            let h = engines[lca.index()].history();
            rode += out
                .iter()
                .filter_map(|o| match o {
                    Output::Send { pkt, .. } => pkt.hist(),
                    _ => None,
                })
                .flat_map(|d| &d.edges)
                .filter(|e| h.dst_of(e.after) == Some(DestSet::singleton(e.creator)))
                .count();
            route(&mut engines, lca, out, &mut log);
        }
        assert!(rode > 10, "only {rode} locals rode on their edges");
        let mut foreign = 0;
        for (g, e) in engines.iter().enumerate() {
            for v in e.history().verts() {
                if let Some(&(creator, _)) = log.iter().find(|&&(_, id)| id == v.id) {
                    if v.dst.len() == 1 {
                        assert_eq!(v.dst, DestSet::singleton(creator), "{v:?}");
                        foreign += usize::from(creator.index() != g);
                    }
                }
            }
        }
        assert!(
            foreign > 10,
            "only {foreign} locals held away from their creators"
        );
    }

    /// With adverts on, a local whose in-edge the descendant advertised
    /// is shipped as a vertex: the suppressed edge carries nothing, so
    /// the vertex is left out only while its edge travels with it.
    #[test]
    fn a_local_whose_in_edge_is_suppressed_is_shipped_as_a_vertex() {
        let run = |advert: Option<Watermarks>| {
            let mut a = FlexCastGroup::new(A, 2);
            for seq in 1..=3 {
                a.on_client(msg(seq, &[0]), &mut Vec::new());
            }
            if let Some(wm) = advert {
                a.on_packet(B, Packet::Advert { wm }, &mut Vec::new());
            }
            let mut out = Vec::new();
            a.on_client(msg(4, &[0, 1]), &mut out);
            let (to, pkt) = sends(&out).pop().expect("the global goes to B");
            assert_eq!(to, B);
            let hist = pkt.hist().expect("a msg packet carries a delta").clone();
            assert_eq!(carried_riders(&hist), vec![]);
            (hist, a.suppression_stats())
        };
        let ids = |d: &HistoryDelta| d.verts.iter().map(|v| v.id.seq).collect::<Vec<_>>();
        // A's chain 1 → 2 → 3 → 4: locals 2 and 3 ride on edges #0, #1.
        let (plain, _) = run(None);
        assert_eq!(ids(&plain), vec![1, 4]);
        assert_eq!(plain.edges.len(), 3);
        // B advertises edge #0 alone: local 2 loses its edge and ships.
        let wm = Watermarks {
            clients: vec![],
            edges: vec![(A, 0)],
        };
        let (lean, st) = run(Some(wm));
        assert_eq!((st.suppressed_verts, st.suppressed_edges), (0, 1));
        assert_eq!(ids(&lean), vec![1, 2, 4]);
        assert_eq!(lean.verts[1].dst, DestSet::singleton(A));
        assert_eq!(lean.edges.len(), 2);
    }

    /// With stride-1 advertisements most of a delta is suppressed, so
    /// both its halves are shorter than the log suffix they are cut from;
    /// `route` checks that each is held at exactly its length.
    #[test]
    fn suppressed_deltas_hold_exactly_their_length() {
        let n = 4u16;
        let mut engines: Vec<FlexCastGroup> = (0..n)
            .map(|g| {
                let mut e = FlexCastGroup::new(GroupId(g), n);
                e.set_advert_stride(1);
                e
            })
            .collect();
        let mut log = Vec::new();
        // D learns m0, m1 and A's chain edge m0 → m1 from A, and says so,
        // before C — which learns them from A too — forwards m4 to D.
        let workload = [
            msg(0, &[0, 3]),
            msg(1, &[0, 3]),
            msg(2, &[0, 2]),
            msg(3, &[2]),
            msg(4, &[2, 3]),
        ];
        for m in workload {
            let lca = m.lca();
            let mut out = Vec::new();
            engines[lca.index()].on_client(m, &mut out);
            route(&mut engines, lca, out, &mut log);
        }
        let sup = |f: fn(&SuppressionStats) -> u64| -> u64 {
            engines.iter().map(|e| f(&e.suppression_stats())).sum()
        };
        assert!(sup(|s| s.suppressed_verts) > 0);
        assert!(sup(|s| s.suppressed_edges) > 0);
    }

    /// End-to-end sanity on four groups with randomized-ish interleaving
    /// through the router helper: prefix and acyclic order hold.
    #[test]
    fn four_group_relay_is_consistent() {
        let n = 4u16;
        let mut engines: Vec<FlexCastGroup> =
            (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect();
        let mut log = Vec::new();
        let workload = [
            msg(1, &[0, 1, 2]),
            msg(2, &[1, 3]),
            msg(3, &[0, 2, 3]),
            msg(4, &[2, 3]),
            msg(5, &[0, 1, 2, 3]),
        ];
        for m in &workload {
            let lca = m.lca();
            let mut out = Vec::new();
            engines[lca.index()].on_client(m.clone(), &mut out);
            route(&mut engines, lca, out, &mut log);
        }
        // Everyone delivered everything addressed to them.
        for m in &workload {
            for g in m.dst.iter() {
                assert!(
                    engines[g.index()].has_delivered(m.id),
                    "{m:?} missing at {g}"
                );
            }
        }
        // Pairwise prefix order: shared destinations agree on order.
        let order_at = |g: GroupId| -> Vec<MsgId> {
            log.iter()
                .filter(|(h, _)| *h == g)
                .map(|&(_, id)| id)
                .collect()
        };
        for x in 0..n {
            for y in (x + 1)..n {
                let (ox, oy) = (order_at(GroupId(x)), order_at(GroupId(y)));
                let shared: Vec<MsgId> = ox.iter().copied().filter(|id| oy.contains(id)).collect();
                let oy_shared: Vec<MsgId> =
                    oy.iter().copied().filter(|id| ox.contains(id)).collect();
                assert_eq!(shared, oy_shared, "groups g{x} and g{y} disagree");
            }
        }
    }

    #[test]
    fn flush_prunes_history_everywhere_it_is_delivered() {
        let n = 3u16;
        let mut engines: Vec<FlexCastGroup> =
            (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect();
        let mut log = Vec::new();
        for seq in 1..=6 {
            let m = msg(seq, &[0, 1, 2]);
            let mut out = Vec::new();
            engines[0].on_client(m, &mut out);
            route(&mut engines, A, out, &mut log);
        }
        let before: Vec<usize> = engines.iter().map(|e| e.history().len()).collect();
        assert!(before.iter().all(|&l| l >= 6));

        let flush = FlexCastGroup::flush_message(MsgId::new(ClientId(0), 100), n);
        let mut out = Vec::new();
        engines[0].on_client(flush.clone(), &mut out);
        route(&mut engines, A, out, &mut log);

        for e in &engines {
            assert!(e.has_delivered(flush.id));
            assert!(
                e.history().len() <= 2,
                "history pruned to the fence (got {})",
                e.history().len()
            );
        }

        // The system still works after pruning.
        let m = msg(200, &[0, 1, 2]);
        let mut out = Vec::new();
        engines[0].on_client(m.clone(), &mut out);
        route(&mut engines, A, out, &mut log);
        for e in &engines {
            assert!(e.has_delivered(m.id));
        }
    }

    /// Regression: an ack that arrives after its message was delivered
    /// *and* garbage-collected used to open a `pending` entry that
    /// nothing ever removed (the delivered set forgets pruned ids).
    #[test]
    fn late_ack_after_gc_leaves_no_pending_entry() {
        let n = 3u16;
        let mut engines: Vec<FlexCastGroup> =
            (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect();
        let mut log = Vec::new();
        let m = msg(1, &[0, 1, 2]);
        let mut out = Vec::new();
        engines[0].on_client(m.clone(), &mut out);
        route(&mut engines, A, out, &mut log);
        let late_ack = Packet::Ack {
            mref: MsgRef::of(&m),
            via: B,
            notif_pairs: vec![(A, B)],
            hist: HistoryDelta::empty(),
        };

        // Delivered, not yet pruned: nothing to book.
        let c = &mut engines[2];
        let mut out = Vec::new();
        c.on_packet(B, late_ack.clone(), &mut out);
        assert!(out.is_empty() && c.pending.is_empty());

        let flush = FlexCastGroup::flush_message(MsgId::new(ClientId(0), 100), n);
        let mut out = Vec::new();
        engines[0].on_client(flush, &mut out);
        route(&mut engines, A, out, &mut log);

        // Delivered and pruned: still nothing to book, and no output.
        let c = &mut engines[2];
        assert!(!c.has_delivered(m.id) && c.history().has_seen(m.id));
        let mut out = Vec::new();
        c.on_packet(B, late_ack, &mut out);
        assert!(out.is_empty());
        assert!(c.pending.is_empty(), "late ack leaked {:?}", c.pending);
    }

    /// C of three groups left mid-protocol — `m1` delivered, `m2` queued
    /// and blocked waiting for B's ack — with `m2`, A's packet to B, and
    /// the rest of the run as C gets it: B's ack for `m2`, then A's flush
    /// and B's ack for it, whose delivery prunes `m1` and `m2`.
    fn mid_protocol() -> (FlexCastGroup, Message, Packet, Vec<(GroupId, Packet)>) {
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let mut c = FlexCastGroup::new(C, 3);
        let m1 = msg(1, &[0, 2]);
        let m2 = msg(2, &[0, 1, 2]);
        let mut out_a = Vec::new();
        a.on_client(m1.clone(), &mut out_a);
        let m1_to_c = sends(&out_a).into_iter().find(|(t, _)| *t == C).unwrap().1;
        let mut out_a = Vec::new();
        a.on_client(m2.clone(), &mut out_a);
        let s = sends(&out_a);
        let m2_to_b = s.iter().find(|(t, _)| *t == B).unwrap().1.clone();
        let m2_to_c = s.iter().find(|(t, _)| *t == C).unwrap().1.clone();
        c.on_packet(A, m1_to_c, &mut Vec::new());
        c.on_packet(A, m2_to_c, &mut Vec::new());
        assert_eq!(c.backlog(), 1, "m2 parked awaiting B's ack");

        let to_c = |out: &[Output]| sends(out).into_iter().find(|(t, _)| *t == C).unwrap().1;
        let mut out_b = Vec::new();
        b.on_packet(A, m2_to_b.clone(), &mut out_b);
        let mut rest = vec![(B, to_c(&out_b))];
        let mut out_a = Vec::new();
        let flush = FlexCastGroup::flush_message(MsgId::new(ClientId(8), 0), 3);
        a.on_client(flush, &mut out_a);
        rest.push((A, to_c(&out_a)));
        let flush_to_b = sends(&out_a).into_iter().find(|(t, _)| *t == B).unwrap().1;
        let mut out_b = Vec::new();
        b.on_packet(A, flush_to_b, &mut out_b);
        rest.push((B, to_c(&out_b)));
        (c, m2, m2_to_b, rest)
    }

    /// Feeds `inputs` to `c`; its outputs, one list per input.
    fn run(c: &mut FlexCastGroup, inputs: &[(GroupId, Packet)]) -> Vec<Vec<Output>> {
        let outs = inputs.iter().map(|(from, pkt)| {
            let mut out = Vec::new();
            c.on_packet(*from, pkt.clone(), &mut out);
            out
        });
        outs.collect()
    }

    /// Snapshot/restore: a restored engine is interchangeable with the
    /// original — same observable state, identical outputs on the same
    /// subsequent inputs.
    #[test]
    fn snapshot_restore_roundtrips_mid_protocol() {
        let (mut c, m2, m2_to_b, _) = mid_protocol();

        let bytes = c.snapshot().expect("snapshot encodes");
        let mut c2 = FlexCastGroup::restore(&bytes).expect("snapshot decodes");
        assert_eq!(c2.id(), c.id());
        assert_eq!(c2.group_count(), c.group_count());
        assert_eq!(c2.delivered_count(), c.delivered_count());
        assert_eq!(c2.backlog(), c.backlog());
        assert_eq!(c2.history().len(), c.history().len());

        // Feed B's ack to both; they must behave identically.
        let mut b = FlexCastGroup::new(B, 3);
        let mut out_b = Vec::new();
        b.on_packet(A, m2_to_b, &mut out_b);
        let ack_to_c = sends(&out_b).into_iter().find(|(t, _)| *t == C).unwrap().1;
        let mut out_c = Vec::new();
        c.on_packet(B, ack_to_c.clone(), &mut out_c);
        let mut out_c2 = Vec::new();
        c2.on_packet(B, ack_to_c, &mut out_c2);
        assert_eq!(out_c, out_c2, "restored engine emits identical outputs");
        assert_eq!(deliveries(&out_c2), vec![m2.id]);
    }

    /// A history's heap bytes are the sum of its parts, each non-zero
    /// once it holds linked vertices; the engine's add its own tables —
    /// here, the queue and pending entry of the parked `m2`.
    #[test]
    fn heap_bytes_cover_the_history_and_the_engine_tables() {
        let (c, ..) = mid_protocol();
        let h = c.history();
        let parts = h.heap_parts();
        assert!(parts.iter().all(|&(_, b)| b > 0), "{parts:?}");
        assert_eq!(h.heap_bytes(), parts.iter().map(|&(_, b)| b).sum::<usize>());
        assert!(c.heap_bytes() > h.heap_bytes());
    }

    /// The error `restore` gives for `c`'s snapshot.
    fn restore_error(c: &FlexCastGroup) -> String {
        let bytes = c.snapshot().expect("snapshot encodes");
        FlexCastGroup::restore(&bytes)
            .expect_err("corrupt snapshot")
            .to_string()
    }

    /// A rank-0 engine whose `vert_cursor` was emptied would index it on
    /// its first forward; `restore` refuses the snapshot instead.
    #[test]
    fn restore_rejects_a_cleared_vert_cursor() {
        let mut a = FlexCastGroup::new(A, 3);
        a.vert_cursor.clear();
        assert!(restore_error(&a).contains("per-rank table"));
    }

    /// Every per-rank table must hold `n` entries, the queues one per
    /// ancestor, and every diff cursor must stay within its log.
    #[test]
    fn restore_rejects_per_rank_tables_of_another_length_and_cursors_past_the_log() {
        type Corrupt = fn(&mut FlexCastGroup);
        let corruptions: [(Corrupt, &str); 7] = [
            (|c| c.edge_cursor.truncate(2), "per-rank table"),
            (
                |c| c.advertised_clients.push(SeenSet::default()),
                "per-rank table",
            ),
            (|c| c.advertised_edges.truncate(2), "per-rank table"),
            (|c| c.vert_cursor.push(0), "per-rank table"),
            (|c| c.queues.push(VecDeque::new()), "one per ancestor"),
            (|c| c.vert_cursor[0] = c.hst.vert_log_len() + 1, "past"),
            (|c| c.edge_cursor[1] = c.hst.edge_log_len() + 1, "past"),
        ];
        for (i, (corrupt, want)) in corruptions.into_iter().enumerate() {
            let (mut c, ..) = mid_protocol();
            corrupt(&mut c);
            let err = restore_error(&c);
            assert!(err.contains(want), "case {i}: {err}");
        }
    }

    #[test]
    fn restore_rejects_an_edge_log_entry_with_an_endpoint_not_retained() {
        let (mut c, m2, ..) = mid_protocol();
        let edge_log = c.hst.edge_log_mut();
        let mut e = edge_log[0];
        e.before = m2.id;
        e.after = msg(7, &[0]).id;
        edge_log.push(e);
        assert!(restore_error(&c).contains("edge-log entry cannot be linked"));
    }

    #[test]
    fn restore_rejects_an_edge_log_entry_that_is_not_a_link() {
        // m1 → m2 is linked; m2 → m1 joins two retained vertices into a cycle.
        let (mut c, ..) = mid_protocol();
        let edge_log = c.hst.edge_log_mut();
        let mut e = edge_log[0];
        (e.before, e.after) = (e.after, e.before);
        edge_log.push(e);
        assert!(restore_error(&c).contains("the history has a cycle"));
    }

    #[test]
    fn restore_rejects_an_edge_log_entry_listed_twice() {
        let (mut c, ..) = mid_protocol();
        let edge_log = c.hst.edge_log_mut();
        edge_log.push(edge_log[0]);
        assert!(restore_error(&c).contains("edge-log entry cannot be linked"));
    }

    /// Restores `c`'s snapshot after `corrupt` has damaged what the
    /// snapshot no longer carries, and runs both through the rest of the
    /// run: the same outputs, and the same state after.
    fn assert_restores_as_honest(corrupt: fn(&mut FlexCastGroup)) {
        let (mut c, _, _, rest) = mid_protocol();
        let mut damaged = c.clone();
        corrupt(&mut damaged);
        let bytes = damaged.snapshot().expect("snapshot encodes");
        let mut back = FlexCastGroup::restore(&bytes).expect("snapshot decodes");
        let outs = run(&mut back, &rest);
        assert_eq!(run(&mut c, &rest), outs);
        assert_eq!(deliveries(&outs.concat()).len(), 2, "m2 and the flush");
        assert_eq!(c.history().len(), 1, "the flush pruned m1 and m2");
        assert_eq!(back.snapshot().unwrap(), c.snapshot().unwrap());
    }

    /// A zero open-dependency count beside `m2`'s OPEN flag would wrap on
    /// `m2`'s delivery; the count is recounted from the flags instead.
    #[test]
    fn restore_recounts_a_zeroed_open_count() {
        assert_restores_as_honest(|c| c.local.open_count = 0);
    }

    /// Zeroed per-group counts would wrap when the flush prunes; they are
    /// recounted from the vertex log instead.
    #[test]
    fn restore_recounts_zeroed_addressed_counts() {
        assert_restores_as_honest(|c| c.hst.addressed_mut().fill(0));
    }

    /// A message reference for client 7 (the fixtures use client 9).
    fn stray(seq: u32, ranks: &[u16]) -> MsgRef {
        MsgRef {
            id: MsgId::new(ClientId(7), seq),
            dst: DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
        }
    }

    /// Bytes off a socket decode to any rank a `DestSet` can hold. Input
    /// whose own destinations name group 100 of a 3-group overlay — which
    /// would index `vert_cursor[100]` on the next forward — a `msg` with
    /// no queue to wait in, a packet that travels against its C-DAG edge,
    /// and an advertisement from a rank past the overlay (which would
    /// index `advertised_clients[7]`) are dropped at the boundary: no
    /// output, the snapshot byte for byte what it was, one count each.
    #[test]
    fn input_outside_the_overlay_or_against_a_c_dag_edge_is_dropped_without_a_trace() {
        let (mut c, ..) = mid_protocol();
        let before = c.snapshot().expect("snapshot encodes");
        let wild = stray(0, &[0, 2, 100]);
        let wild_msg = Message::new(wild.id, wild.dst, Payload::empty()).unwrap();
        let m1 = MsgRef::of(&msg(1, &[0, 2]));
        let packets = [
            Packet::Msg {
                msg: wild_msg.clone(),
                notif_pairs: vec![],
                hist: HistoryDelta::empty(),
            },
            Packet::Ack {
                mref: wild,
                via: B,
                notif_pairs: vec![],
                hist: HistoryDelta::empty(),
            },
            Packet::Notif {
                mref: wild,
                hist: HistoryDelta::empty(),
            },
            // In range, but C is its lca: only a client sends C that.
            Packet::Msg {
                msg: msg(8, &[2]),
                notif_pairs: vec![],
                hist: HistoryDelta::empty(),
            },
            // Nothing wrong with the ack (a late one for `m1`, delivered
            // here long ago); its delta brings one vertex addressed out
            // of range.
            Packet::Ack {
                mref: m1,
                via: A,
                notif_pairs: vec![],
                hist: HistoryDelta {
                    verts: vec![stray(1, &[2, 100])],
                    edges: vec![],
                },
            },
        ];
        let mut out = Vec::new();
        for pkt in packets {
            c.on_packet(A, pkt, &mut out);
        }
        // A `msg` from C itself, and an advert from an ancestor.
        let from_self = Packet::Msg {
            msg: msg(9, &[0, 2]),
            notif_pairs: vec![],
            hist: HistoryDelta::empty(),
        };
        c.on_packet(C, from_self, &mut out);
        let wm = Watermarks {
            clients: vec![(ClientId(9), 5)],
            edges: vec![],
        };
        c.on_packet(B, Packet::Advert { wm: wm.clone() }, &mut out);
        c.on_packet(GroupId(7), Packet::Advert { wm }, &mut out);
        assert_eq!(out, vec![], "nothing delivered, nothing sent");
        assert_eq!(c.snapshot().expect("snapshot encodes"), before);
        assert_eq!(c.reject_stats().packets, 7);
        assert_eq!(c.reject_stats().verts, 1);
        assert_eq!(c.suppression_stats().adverts_received, 0);

        let mut a = FlexCastGroup::new(A, 3);
        let fresh = a.snapshot().expect("snapshot encodes");
        a.on_client(wild_msg, &mut out);
        // An ack from a descendant.
        let ack = Packet::Ack {
            mref: m1,
            via: B,
            notif_pairs: vec![],
            hist: HistoryDelta::empty(),
        };
        a.on_packet(B, ack, &mut out);
        assert_eq!(out, vec![]);
        assert_eq!(a.reject_stats().packets, 2);
        assert_eq!(a.snapshot().expect("snapshot encodes"), fresh);
    }

    /// No honest group sends a vertex or a packet with no destination. A
    /// delta vertex with none would get no edges, so no flush's backward
    /// closure would reach it: admitted, it stayed in the history — and
    /// in every delta to a descendant — for good. Both are refused and
    /// counted; the ack they arrive with, and the flush after, do all
    /// they otherwise would.
    #[test]
    fn input_with_no_destination_is_refused_and_leaves_no_vertex_behind() {
        let n = 3u16;
        let mut engines: Vec<FlexCastGroup> =
            (0..n).map(|g| FlexCastGroup::new(GroupId(g), n)).collect();
        let mut log = Vec::new();
        let m = msg(1, &[0, 1, 2]);
        let mut out = Vec::new();
        engines[0].on_client(m.clone(), &mut out);
        route(&mut engines, A, out, &mut log);

        let nowhere = stray(1, &[]);
        let c = &mut engines[2];
        let mut out = Vec::new();
        // A late ack for `m` whose delta carries the vertex...
        let ack = Packet::Ack {
            mref: MsgRef::of(&m),
            via: B,
            notif_pairs: vec![],
            hist: HistoryDelta {
                verts: vec![nowhere],
                edges: vec![],
            },
        };
        c.on_packet(B, ack, &mut out);
        // ...and packets about a message addressed nowhere.
        let ack = Packet::Ack {
            mref: nowhere,
            via: B,
            notif_pairs: vec![],
            hist: HistoryDelta::empty(),
        };
        let notif = Packet::Notif {
            mref: nowhere,
            hist: HistoryDelta::empty(),
        };
        c.on_packet(B, ack, &mut out);
        c.on_packet(A, notif, &mut out);
        assert_eq!(out, vec![]);
        let rejected = c.reject_stats();
        assert_eq!((rejected.packets, rejected.verts), (2, 1));
        assert!(!c.history().has_seen(nowhere.id));

        let flush = FlexCastGroup::flush_message(MsgId::new(ClientId(0), 100), n);
        let mut out = Vec::new();
        engines[0].on_client(flush.clone(), &mut out);
        route(&mut engines, A, out, &mut log);
        let c = &engines[2];
        assert!(c.has_delivered(flush.id));
        assert!(!c.history().contains(nowhere.id), "retained past the flush");
        assert!(c.history().len() <= 2, "history pruned to the fence");
    }

    /// A client message the group has already taken is dropped, whether
    /// it was delivered (its id is in the history) or still waits in the
    /// client backlog behind an open dependency (its id is in no history
    /// yet). Either way it is delivered once, and a retry is no refusal.
    #[test]
    fn a_client_message_the_group_already_took_is_delivered_once() {
        let mut a = FlexCastGroup::new(A, 3);
        let m = msg(1, &[0, 2]);
        let mut out = Vec::new();
        a.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        let mut dup = Vec::new();
        a.on_client(m, &mut dup);
        assert_eq!(dup, vec![], "the delivered copy's duplicate");
        assert_eq!((a.delivered_count(), a.reject_stats().packets), (1, 0));

        // C waits for B's ack on m2, so a message C is the lca of waits too.
        let (mut c, m2, m2_to_b, _) = mid_protocol();
        let local = msg(10, &[2]);
        for _ in 0..2 {
            let mut out = Vec::new();
            c.on_client(local.clone(), &mut out);
            assert_eq!(out, vec![], "backlogged, then dropped");
        }
        let mut b = FlexCastGroup::new(B, 3);
        let mut out_b = Vec::new();
        b.on_packet(A, m2_to_b, &mut out_b);
        let ack_to_c = sends(&out_b).into_iter().find(|(t, _)| *t == C).unwrap().1;
        let mut out = Vec::new();
        c.on_packet(B, ack_to_c, &mut out);
        assert_eq!(deliveries(&out), vec![m2.id, local.id]);
        assert_eq!(c.reject_stats().packets, 0);
    }

    /// A refused delta vertex takes nothing else of its packet with it:
    /// the history ends up as if the sender had left the vertex (and the
    /// edge hanging off it) out.
    #[test]
    fn a_refused_delta_vertex_leaves_the_rest_of_its_delta_in_force() {
        let (good, bad) = (stray(1, &[1, 2]), stray(2, &[2, 100]));
        let edge = |idx, before: MsgRef, after: MsgRef| TaggedEdge {
            creator: B,
            idx,
            before: before.id,
            after: after.id,
        };
        let notif = |verts, edges| Packet::Notif {
            mref: stray(3, &[0, 1]),
            hist: HistoryDelta { verts, edges },
        };
        let (mut with, m2, ..) = mid_protocol();
        let mut without = with.clone();
        let (mut out_with, mut out_without) = (Vec::new(), Vec::new());
        with.on_packet(
            B,
            notif(
                vec![good, bad],
                vec![edge(0, MsgRef::of(&m2), good), edge(1, good, bad)],
            ),
            &mut out_with,
        );
        without.on_packet(
            B,
            notif(vec![good], vec![edge(0, MsgRef::of(&m2), good)]),
            &mut out_without,
        );
        assert_eq!(with.reject_stats().verts, 1);
        assert_eq!(out_with, out_without);
        let h = with.history();
        assert!(h.contains(good.id) && !h.contains(bad.id));
        assert!(!h.has_seen(bad.id), "not tombstoned either");
        assert_eq!(
            h.verts().collect::<Vec<_>>(),
            without.history().verts().collect::<Vec<_>>()
        );
        assert_eq!(
            h.edges().collect::<Vec<_>>(),
            without.history().edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn histories_are_diffed_not_resent() {
        let mut a = FlexCastGroup::new(A, 2);
        let m1 = msg(1, &[0, 1]);
        let m2 = msg(2, &[0, 1]);
        let mut out1 = Vec::new();
        a.on_client(m1.clone(), &mut out1);
        let mut out2 = Vec::new();
        a.on_client(m2.clone(), &mut out2);
        let h1 = sends(&out1)[0].1.hist().unwrap().clone();
        let h2 = sends(&out2)[0].1.hist().unwrap().clone();
        assert!(h1.verts.iter().any(|v| v.id == m1.id));
        assert!(
            !h2.verts.iter().any(|v| v.id == m1.id),
            "m1's vertex already sent to B, diff must exclude it"
        );
        assert!(h2.verts.iter().any(|v| v.id == m2.id));
        assert!(
            h2.edges
                .iter()
                .any(|e| (e.before, e.after) == (m1.id, m2.id)),
            "new edge still sent"
        );
        // The edge carries its provenance: created by A, its first edge.
        let e = &h2.edges[0];
        assert_eq!((e.creator, e.idx), (A, 0));
    }

    /// One advertisement round serves every ancestor from one copy of
    /// the last-advertised watermarks: all of them get the same client
    /// entries, and the edge entries of creators ranked at or below them
    /// — never this group's own or a repeat of an unchanged entry.
    #[test]
    fn adverts_share_client_entries_and_filter_edges_by_rank() {
        let mut d = FlexCastGroup::new(GroupId(3), 4);
        d.set_advert_stride(1);
        let other = |seq| MsgRef {
            id: MsgId::new(ClientId(4), seq),
            dst: DestSet::try_from_ranks([0, 1, 2]).unwrap(),
        };
        let edge = |creator, idx, before: &MsgRef, after: MsgId| TaggedEdge {
            creator: GroupId(creator),
            idx,
            before: before.id,
            after,
        };
        let mut round = |m: Message, mut verts: Vec<MsgRef>, edges: Vec<TaggedEdge>| {
            verts.push(MsgRef {
                id: m.id,
                dst: m.dst,
            });
            let pkt = Packet::Msg {
                msg: m,
                notif_pairs: vec![],
                hist: HistoryDelta { verts, edges },
            };
            let mut out = Vec::new();
            d.on_packet(A, pkt, &mut out);
            let adverts: Vec<_> = sends(&out)
                .into_iter()
                .filter_map(|(to, p)| match p {
                    Packet::Advert { wm } => Some((to, wm)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                adverts.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
                vec![A, B, C],
                "one advert per ancestor"
            );
            adverts.into_iter().map(|(_, wm)| wm).collect::<Vec<_>>()
        };

        // Round 1: one chain edge from each ancestor; D delivers m0 and
        // so logs an edge of its own, which no ancestor could use.
        let m0 = msg(0, &[0, 3]);
        let wms = round(
            m0.clone(),
            vec![other(0), other(1), other(2)],
            vec![
                edge(0, 0, &other(0), m0.id),
                edge(1, 0, &other(1), m0.id),
                edge(2, 0, &other(2), m0.id),
            ],
        );
        let clients = vec![(ClientId(4), 2), (ClientId(9), 0)];
        let edges = [(A, 0), (B, 0), (C, 0)];
        for (u, wm) in wms.iter().enumerate() {
            assert_eq!(wm.clients, clients, "to rank {u}");
            assert_eq!(wm.edges, edges[..=u], "to rank {u}");
        }

        // Round 2: only B's prefix and the two clients moved.
        let m1 = msg(1, &[0, 3]);
        let wms = round(
            m1.clone(),
            vec![other(3)],
            vec![edge(1, 1, &other(3), m1.id)],
        );
        let clients = vec![(ClientId(4), 3), (ClientId(9), 1)];
        for (u, wm) in wms.iter().enumerate() {
            assert_eq!(wm.clients, clients, "to rank {u}");
            let expect: &[(GroupId, u32)] = if u == 0 { &[] } else { &[(B, 1)] };
            assert_eq!(wm.edges, expect, "to rank {u}");
        }
    }

    /// The delta-suppression worked example (DESIGN.md §8): three groups,
    /// stride-1 advertisement, and the third message's ack crossing the
    /// B → C link with an *empty* history delta because C advertised
    /// everything B would have re-sent.
    #[test]
    fn advertised_watermarks_suppress_cross_link_duplicates() {
        let mut a = FlexCastGroup::new(A, 3);
        let mut b = FlexCastGroup::new(B, 3);
        let mut c = FlexCastGroup::new(C, 3);
        for e in [&mut a, &mut b, &mut c] {
            e.set_advert_stride(1);
        }
        let m0 = msg(0, &[0, 1, 2]);
        let m1 = msg(1, &[0, 1, 2]);

        // A (the lca) delivers m0 and forwards it to B and C.
        let mut out_a = Vec::new();
        a.on_client(m0.clone(), &mut out_a);
        let s = sends(&out_a);
        let m0_to_b = s.iter().find(|(t, _)| *t == B).unwrap().1.clone();
        let m0_to_c = s.iter().find(|(t, _)| *t == C).unwrap().1.clone();

        // C receives the msg (can't deliver yet — B has not acked) and
        // advertises its freshly admitted history to both ancestors —
        // every ancestor is a potential sender, and covering a link
        // before its first packet is what de-fangs cold full-log sends.
        let mut out_c = Vec::new();
        c.on_packet(A, m0_to_c, &mut out_c);
        assert!(deliveries(&out_c).is_empty());
        let s = sends(&out_c);
        let advert_c_to_a = s
            .iter()
            .find(|(t, p)| *t == A && matches!(p, Packet::Advert { .. }))
            .expect("C advertises to A")
            .1
            .clone();
        let advert_c_to_b = s
            .iter()
            .find(|(t, p)| *t == B && matches!(p, Packet::Advert { .. }))
            .expect("C advertises to B unprompted")
            .1
            .clone();
        let mut out = Vec::new();
        a.on_packet(C, advert_c_to_a, &mut out);
        assert!(out.is_empty(), "adverts produce no engine output");

        // B delivers m0 and acks to C; its delta still carries m0's
        // vertex (C's advertisement has not reached B yet — the fresh
        // same-wave duplicate no advertisement can beat).
        let mut out_b = Vec::new();
        b.on_packet(A, m0_to_b, &mut out_b);
        let ack_b_to_c = sends(&out_b)
            .into_iter()
            .find(|(t, p)| *t == C && matches!(p, Packet::Ack { .. }))
            .unwrap()
            .1;
        assert_eq!(ack_b_to_c.hist().unwrap().len(), 1, "vertex re-sent");

        // C delivers m0.
        let mut out_c = Vec::new();
        c.on_packet(B, ack_b_to_c, &mut out_c);
        assert_eq!(deliveries(&out_c), vec![m0.id]);

        // Round 2: A delivers m1; its delta to B and C carries the new
        // vertex plus A's chain edge m0 → m1.
        let mut out_a = Vec::new();
        a.on_client(m1.clone(), &mut out_a);
        let s = sends(&out_a);
        let m1_to_b = s.iter().find(|(t, _)| *t == B).unwrap().1.clone();
        let m1_to_c = s.iter().find(|(t, _)| *t == C).unwrap().1.clone();
        assert_eq!(m1_to_b.hist().unwrap().len(), 2);

        // C merges A's copy first and advertises the growth to both
        // upstream neighbors.
        let mut out_c = Vec::new();
        c.on_packet(A, m1_to_c, &mut out_c);
        let advert2_c_to_b = sends(&out_c)
            .into_iter()
            .find(|(t, p)| *t == B && matches!(p, Packet::Advert { .. }))
            .expect("C advertises the m1 entries")
            .1;
        b.on_packet(C, advert_c_to_b, &mut Vec::new());
        b.on_packet(C, advert2_c_to_b, &mut Vec::new());

        // The advertised view is replicated engine state: a restored
        // snapshot of B suppresses exactly where the original would —
        // what a failed-over leader inherits.
        let mut b2 = FlexCastGroup::restore(&b.snapshot().expect("snapshot encodes"))
            .expect("snapshot decodes");

        // B delivers m1 and acks to C — and now the whole history suffix
        // (m1's vertex and A's chain edge) is suppressed: C advertised
        // both, so the ack crosses the link with an empty delta where an
        // unsuppressed engine would have re-sent 2 entries.
        let mut out_b = Vec::new();
        b.on_packet(A, m1_to_b.clone(), &mut out_b);
        let mut out_b2 = Vec::new();
        b2.on_packet(A, m1_to_b, &mut out_b2);
        assert_eq!(out_b, out_b2, "restored engine emits identical outputs");
        assert_eq!(b2.suppression_stats(), b.suppression_stats());
        let ack2_b_to_c = sends(&out_b)
            .into_iter()
            .find(|(t, p)| *t == C && matches!(p, Packet::Ack { .. }))
            .unwrap()
            .1;
        assert!(
            ack2_b_to_c.hist().unwrap().is_empty(),
            "delta fully suppressed: C advertised every entry"
        );
        let st = b.suppression_stats();
        assert_eq!(st.suppressed_verts, 1);
        assert_eq!(st.suppressed_edges, 1);

        // Suppression is a receiver no-op: C still delivers m1 exactly as
        // an unsuppressed run would.
        let mut out_c = Vec::new();
        c.on_packet(B, ack2_b_to_c, &mut out_c);
        assert_eq!(deliveries(&out_c), vec![m1.id]);
        assert!(c.suppression_stats().adverts_sent >= 3);
    }
}
