//! Replicated FlexCast groups as simulator actors (paper §4.4).
//!
//! The unreplicated harness runs one engine per group and assumes the
//! simulator's reliable FIFO links. This module finally connects
//! `flexcast-smr` into the experiment DAG: each group becomes a quorum of
//! Paxos replicas ([`ReplicatedActor`]) driving a shared
//! [`ReplicatedGroup`]`<`[`ReplEngine`]`, `[`ReplCmd`]`, `[`ReplEffect`]`>`,
//! so the group keeps multicasting through replica crashes, leader
//! failovers, partitions, and lossy links injected by `flexcast-chaos`.
//! Applying a [`ReplCmd`] (one input) emits [`ReplEffect`]s, and the
//! FlexCast engine inside is the node engine an unreplicated server holds.
//!
//! # How the paper's channel assumptions are re-established
//!
//! The FlexCast engine requires reliable FIFO channels between *groups*
//! (§2.1). Under faults the raw links offer neither, so the replication
//! layer rebuilds both guarantees end to end:
//!
//! * **Exactly-once input**: every group input (client message or peer
//!   packet) is proposed as a Paxos command and deduplicated at apply
//!   time — client messages by id in the engine itself
//!   ([`FlexCastGroup::has_taken`]), peer packets by per-link sequence
//!   number in the [`ReplEngine`] — so client retries, leader
//!   re-emissions, and outbox retransmissions are all safe.
//! * **FIFO per group link**: every inter-group packet carries a sequence
//!   number assigned deterministically at apply time by the *sending*
//!   replicated engine; the receiving engine applies packets from each
//!   ancestor strictly in sequence (holding back out-of-order arrivals),
//!   which reconstructs exactly the channel the engine's history diffs
//!   assume.
//! * **Reliability**: actors retry on timers — clients re-send unacked
//!   multicasts, leaders re-drive stuck Paxos slots and periodically
//!   retransmit the replicated outbox, and replicas request gap-fills
//!   (answered with a snapshot below the peer's compaction marker) — so
//!   anything lost to a crash, drop, or partition is eventually
//!   re-delivered once connectivity returns.
//!
//! # One inbox, one proposal rule
//!
//! A replica keeps every input it took from the network in one inbox,
//! keyed by the input's [`InputName`], until it sees the input applied.
//! Whenever it leads and no Paxos slot is open, it proposes every
//! unapplied inbox input as the next slot, in name order — one input as
//! itself, several as one [`ReplCmd::Batch`] — so a slot's six
//! `Accept`/`Accepted`/`Decide` messages are paid once per round, not
//! once per input, and the inputs a new leader inherits ride one slot
//! after its takeover `Noop`. A command holds its packet behind an
//! [`Arc`], so the copies in a replica's Paxos log, outbox, snapshots and
//! effects are all one allocation.
//!
//! # Every replica hears each packet; an `Accept` names it
//!
//! A leader sends each fresh inter-group packet to every replica of the
//! destination group, as clients send to every replica of the entry
//! group, so a crashed replica delays nothing while a quorum is up. The
//! rotating outbox window, 64 entries a round to replica `k mod rf` at
//! round `k`, is the repair path. The `Accept`s of a slot proposed from
//! the inbox carry each input as its [`InputName`]; a follower resolves
//! the names from its own inbox before Paxos sees the `Accept`, and holds
//! one it cannot resolve yet for the next input it takes in; an input
//! that never comes is covered by `LearnReq` or the repair tick's whole
//! re-drive. `(peer, seq)` names one packet because the sender's outbox
//! is replicated deterministic state; a client id names one message
//! because a client sends one message under an id.
//!
//! Only the current leader emits engine effects; after a failover the new
//! leader may re-emit, and every re-emission is absorbed by the dedup
//! layer above. Replica delivery logs are replicated state, so any
//! survivor can serve the group's delivery order and the checker can
//! assert the replicas never diverged (lockstep).
//!
//! Delta-suppression advertisements (`Packet::Advert`, DESIGN.md §8) need
//! no extra machinery here: they are ordinary inter-group packets, so they
//! ride the same sequence-numbered links, are committed through Paxos like
//! every input, and the advertised-watermark view they build lives inside
//! the replicated engine state — a leader elected after a failover
//! inherits it and keeps suppressing exactly where its predecessor
//! stopped, instead of conservatively re-sending full deltas.

use crate::checker::{self, CheckReport, DeliveryEvent};
use crate::netmsg::NetMsg;
pub use crate::node::entry_node;
use crate::node::NodeEngine;
use flexcast_core::{FlexCastGroup, Output, Packet};
use flexcast_overlay::{CDagOrder, LatencyMatrix};
use flexcast_sim::{Actor, Ctx, LinkModel, Observation, ProcessId, SimTime, Summary, World};
use flexcast_smr::{BallotLeaderElection, BleOutput, GroupEffect, PaxosMsg, ReplicatedGroup};
use flexcast_telemetry::{MetricsSnapshot, Telemetry};
use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// One input to a group: a command proposed to (and committed by) the
/// group's Paxos log.
#[derive(Clone, PartialEq, Debug, Serialize)]
pub enum ReplCmd {
    /// A client multicast (destinations in node space).
    Client(Message),
    /// Packet `pkt` is the `seq`-th message on the directed group link
    /// from `peer` to this group.
    Peer {
        /// The sending group.
        peer: GroupId,
        /// Position on the directed group link, starting at 0.
        seq: u64,
        /// The FlexCast packet, shared by every copy of the command.
        pkt: Arc<Packet>,
    },
    /// No-op, proposed once at leadership take-over so the log is never
    /// empty and the leader's `Decide` heartbeat has a commit to name.
    Noop {
        /// The replica that proposed it (debugging only).
        proposer: u32,
    },
    /// Inputs the leader held while a slot was open, committed in one
    /// slot and applied in order. Never nested: the decoder refuses a
    /// batch inside a batch, so no input can make decoding recurse.
    Batch(Vec<ReplCmd>),
    /// An input by its name alone, as a fresh `Accept` carries it (module
    /// docs); [`apply_cmd`] refuses one that commits.
    Named(InputName),
}

/// The identity of a group input: the inbox's key, and what a fresh
/// `Accept` carries in its place.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum InputName {
    /// A client message, by its id.
    Client(MsgId),
    /// The `seq`-th packet on the directed group link from `peer`.
    Peer {
        /// The sending group.
        peer: GroupId,
        /// Position on the link.
        seq: u64,
    },
}

impl ReplCmd {
    /// The input's name; `None` for a no-op or a batch.
    pub fn name(&self) -> Option<InputName> {
        match *self {
            ReplCmd::Client(ref m) => Some(InputName::Client(m.id)),
            ReplCmd::Peer { peer, seq, .. } => Some(InputName::Peer { peer, seq }),
            ReplCmd::Named(name) => Some(name),
            ReplCmd::Noop { .. } | ReplCmd::Batch(_) => None,
        }
    }

    /// Replaces every input of this command by its name.
    fn name_inputs(&mut self) {
        if let ReplCmd::Batch(cmds) = self {
            cmds.iter_mut().for_each(ReplCmd::name_inputs);
        } else if let Some(name) = self.name() {
            *self = ReplCmd::Named(name);
        }
    }
}

/// Decodes like the derived impl would, except that a `Batch` element is
/// decoded as a [`ReplCmd`] whose `Batch` variant fails at once: a nested
/// batch is refused after one level.
impl<'de> Deserialize<'de> for ReplCmd {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        enum Nested {}
        impl<'de> Deserialize<'de> for Nested {
            fn deserialize<D: serde::Deserializer<'de>>(_: D) -> Result<Self, D::Error> {
                Err(serde::de::Error::custom("a batch inside a batch"))
            }
        }
        #[derive(Deserialize)]
        enum Wire<B> {
            Client(Message),
            Peer {
                peer: GroupId,
                seq: u64,
                pkt: Arc<Packet>,
            },
            Noop {
                proposer: u32,
            },
            Batch(B),
            Named(InputName),
        }
        fn single<B>(w: Wire<B>, batch: impl FnOnce(B) -> ReplCmd) -> ReplCmd {
            match w {
                Wire::Client(m) => ReplCmd::Client(m),
                Wire::Peer { peer, seq, pkt } => ReplCmd::Peer { peer, seq, pkt },
                Wire::Noop { proposer } => ReplCmd::Noop { proposer },
                Wire::Batch(b) => batch(b),
                Wire::Named(name) => ReplCmd::Named(name),
            }
        }
        let top = Wire::<Vec<Wire<Nested>>>::deserialize(deserializer)?;
        Ok(single(top, |cmds| {
            let inner = cmds.into_iter().map(|w| single(w, |n: Nested| match n {}));
            ReplCmd::Batch(inner.collect())
        }))
    }
}

/// What applying a command emits; only the leader acts on it.
#[derive(Clone, PartialEq, Debug)]
pub enum ReplEffect {
    /// The engine delivered this message (destinations in node space).
    Deliver(Message),
    /// Send `pkt` as the `seq`-th message on the directed group link to
    /// group `to`.
    Send {
        /// The receiving group.
        to: GroupId,
        /// Position on the directed group link, starting at 0.
        seq: u64,
        /// The FlexCast packet, shared with the outbox.
        pkt: Arc<Packet>,
    },
}

/// A serialized [`ReplEngine`]: what one replica ships to a lagging
/// sibling during snapshot catch-up. The engine itself travels as its own
/// [`FlexCastGroup::snapshot`] bytes; the C-DAG order is *not* part of the
/// snapshot — it is static per run, so the receiver re-supplies its own
/// copy at restore.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplSnapshot {
    /// [`FlexCastGroup::snapshot`] of the wrapped engine.
    pub engine: Vec<u8>,
    /// The bookkeeping around the engine, as the state machine holds it.
    pub links: ReplLinks,
}

/// The dedup and FIFO-reconstruction bookkeeping around a replicated
/// engine (module docs), and its delivery log.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplLinks {
    /// Next expected sequence number per inbound group link.
    pub next_in: BTreeMap<GroupId, u64>,
    /// Out-of-order inbound packets held until their turn.
    pub held: BTreeMap<(GroupId, u64), Arc<Packet>>,
    /// Every inter-group send ever emitted, in emission order, each with
    /// its position on its link: 0, 1, 2, … per destination. Replicated
    /// state: any leader can retransmit the whole channel history.
    pub outbox: Vec<(GroupId, u64, Arc<Packet>)>,
    /// Delivery log in commit order (identical across replicas).
    pub log: Vec<MsgId>,
    /// Slots applied, one per [`apply_cmd`]: the only `through` a
    /// snapshot of this state is adopted under.
    pub slots: u64,
}

/// The replicated state machine: a FlexCast engine plus its
/// [`ReplLinks`]. All fields evolve deterministically from the committed
/// command sequence, so every replica holds an identical copy.
pub struct ReplEngine {
    node: NodeEngine,
    links: ReplLinks,
    /// Next sequence number per outbound group link: the number of outbox
    /// entries to it, which is never truncated. Not in [`ReplSnapshot`];
    /// recounted on restore.
    next_out: BTreeMap<GroupId, u64>,
    /// See [`ReplEngine::refused_cmds`]; not in [`ReplSnapshot`].
    refused_cmds: u64,
}

impl ReplEngine {
    /// Creates the state machine for the group at `node`. `advert_stride`
    /// enables protocol-level delta suppression; the advertised view is
    /// part of the replicated engine state (advertisements arrive as
    /// committed `Peer` commands), so a new leader after failover
    /// inherits it rather than resetting suppression coverage.
    pub fn new(node: GroupId, order: CDagOrder, advert_stride: Option<u32>) -> Self {
        ReplEngine {
            node: NodeEngine::new(node, order.len() as u16, order, advert_stride),
            links: ReplLinks::default(),
            next_out: BTreeMap::new(),
            refused_cmds: 0,
        }
    }

    /// The wrapped FlexCast engine.
    pub fn engine(&self) -> &FlexCastGroup {
        self.node.engine()
    }

    /// The delivery log in commit order.
    pub fn delivery_log(&self) -> &[MsgId] {
        &self.links.log
    }

    /// The replicated outbox of inter-group sends.
    pub fn outbox(&self) -> &[(GroupId, u64, Arc<Packet>)] {
        &self.links.outbox
    }

    /// Committed commands [`apply_cmd`] skipped for naming a group outside
    /// the overlay or for carrying an input by its name alone, and inputs
    /// the engine refused (a client message whose lca is another group, a
    /// packet against its C-DAG edge); like the engine's `RejectStats`,
    /// not snapshot state.
    pub fn refused_cmds(&self) -> u64 {
        self.refused_cmds
    }

    /// True if the input `name` names is already in the state machine: a
    /// client message the engine took, or an inbound packet applied or
    /// held until the gap before it closes.
    pub fn has_applied(&self, name: InputName) -> bool {
        match name {
            InputName::Client(id) => self.engine().has_taken(id),
            InputName::Peer { peer, seq } => {
                seq < self.links.next_in.get(&peer).copied().unwrap_or(0)
                    || self.links.held.contains_key(&(peer, seq))
            }
        }
    }

    /// Serializes the full replicated state for transfer to a lagging
    /// sibling. Deterministic: two replicas with identical state produce
    /// byte-identical snapshots, which is what the lockstep checker's
    /// bit-for-bit round-trip assertion leans on.
    pub fn to_snapshot(&self) -> ReplSnapshot {
        ReplSnapshot {
            // Cannot fire: the wire encoder fails only on a sequence of
            // unknown length, and an engine snapshot holds none.
            engine: self.engine().snapshot().expect("engines always serialize"),
            links: self.links.clone(),
        }
    }

    /// Reconstructs the state machine from a sibling's snapshot. `order`
    /// is the receiver's own copy of the (static, per-run) C-DAG order.
    /// The snapshot may come from any peer, so its links are checked
    /// before they are adopted: the outbox numbers each destination's
    /// packets 0, 1, 2, … in order, held packets wait past their link's
    /// next expected seq, and both name only groups of the overlay.
    pub fn from_snapshot(snap: ReplSnapshot, order: CDagOrder) -> flexcast_types::Result<Self> {
        let node = NodeEngine::restore(&snap.engine, order)?;
        let links = snap.links;
        let refuse = |what: &str| Err(flexcast_types::Error::Decode(what.into()));
        let mut next_out = BTreeMap::new();
        for &(to, seq, _) in &links.outbox {
            if !node.in_overlay(to) {
                return refuse("an outbox entry names a group outside the overlay");
            }
            let next = next_out.entry(to).or_insert(0);
            if seq != *next {
                return refuse("an outbox entry is out of its link's sequence");
            }
            *next += 1;
        }
        for &(peer, seq) in links.held.keys() {
            if !node.in_overlay(peer) {
                return refuse("a held packet's peer is outside the overlay");
            }
            if seq <= links.next_in.get(&peer).copied().unwrap_or(0) {
                return refuse("a held packet is not past its link's next seq");
            }
        }
        Ok(ReplEngine {
            node,
            links,
            next_out,
            refused_cmds: 0,
        })
    }

    /// Logs the engine's deliveries and numbers its sends on their links
    /// into the outbox, emitting both.
    fn absorb(&mut self, outputs: Vec<Output>, out: &mut Vec<ReplEffect>) {
        for o in outputs {
            match o {
                Output::Deliver(m) => {
                    self.links.log.push(m.id);
                    out.push(ReplEffect::Deliver(m));
                }
                Output::Send { to, pkt } => {
                    let next = self.next_out.entry(to).or_insert(0);
                    let seq = *next;
                    *next += 1;
                    let pkt = Arc::new(pkt);
                    self.links.outbox.push((to, seq, Arc::clone(&pkt)));
                    out.push(ReplEffect::Send { to, seq, pkt });
                }
            }
        }
    }
}

/// The `apply` function handed to [`ReplicatedGroup`]: how one committed
/// command mutates the state machine and which effects the leader emits.
///
/// A command naming a group outside the overlay, a client message whose
/// lca is another group, or a name can still commit (intake guards run
/// only on the proposer); every replica skips it alike and counts it in
/// [`ReplEngine::refused_cmds`].
pub fn apply_cmd(e: &mut ReplEngine, cmd: ReplCmd, out: &mut Vec<ReplEffect>) {
    e.links.slots += 1;
    match cmd {
        ReplCmd::Batch(cmds) => {
            for cmd in cmds {
                apply_input(e, cmd, out);
            }
        }
        cmd => apply_input(e, cmd, out),
    }
}

/// Applies one input of a committed slot.
fn apply_input(e: &mut ReplEngine, cmd: ReplCmd, out: &mut Vec<ReplEffect>) {
    let mut outputs = Vec::new();
    match cmd {
        ReplCmd::Noop { .. } => {}
        ReplCmd::Batch(_) | ReplCmd::Named(_) => e.refused_cmds += 1,
        // The engine drops a copy it already took: a client retry, or a dual leader's proposal.
        ReplCmd::Client(m) => {
            if !e.node.on_client(m, &mut outputs) {
                e.refused_cmds += 1;
            }
        }
        // A sender outside the overlay is refused before it opens a link.
        ReplCmd::Peer { peer, .. } if !e.node.in_overlay(peer) => e.refused_cmds += 1,
        ReplCmd::Peer { peer, seq, pkt } => {
            let next = *e.links.next_in.entry(peer).or_insert(0);
            if seq < next {
                return; // duplicate (retransmission)
            }
            if seq > next {
                e.links.held.insert((peer, seq), pkt);
                return; // out of order: hold until the gap closes
            }
            // Apply it, then every held packet that follows it.
            let (mut at, mut cur) = (seq, Some(pkt));
            while let Some(pkt) = cur {
                at += 1;
                e.links.next_in.insert(peer, at);
                let pkt = Arc::unwrap_or_clone(pkt);
                if !e.node.on_packet(peer, pkt, &mut outputs) {
                    e.refused_cmds += 1;
                }
                cur = e.links.held.remove(&(peer, at));
            }
        }
    }
    e.absorb(outputs, out);
}

/// Simulator pid of replica `r` of the group at `node` (replicas are laid
/// out group-major: pids `[node·rf, node·rf + rf)`).
pub fn replica_pid(node: GroupId, r: u32, rf: u32) -> ProcessId {
    node.index() * rf as usize + r as usize
}

/// Simulator pid of a client (clients sit after all replicas).
pub fn client_pid(n_groups: usize, rf: u32, c: ClientId) -> ProcessId {
    n_groups * rf as usize + c.0 as usize
}

/// The group a replica pid belongs to.
pub fn group_of(pid: ProcessId, rf: u32) -> GroupId {
    GroupId((pid / rf as usize) as u16)
}

/// The replica index of a replica pid within its group.
pub fn replica_of(pid: ProcessId, rf: u32) -> u32 {
    (pid % rf as usize) as u32
}

/// One replica of a replicated FlexCast group, as a simulator actor.
///
/// Responsibilities beyond feeding the [`ReplicatedGroup`]: routing
/// replication traffic to sibling pids, sending each leader-emitted packet
/// to every replica of the destination group, naming and resolving the
/// inputs of `Accept`s, answering clients, pumping the
/// ballot-leader-election oracle, and the periodic repair/retransmission
/// ticks that give the system liveness under faults.
pub struct ReplicatedActor {
    node: GroupId,
    replica: u32,
    rf: u32,
    rg: ReplicatedGroup<ReplEngine, ReplCmd, ReplEffect>,
    /// The (static, per-run) C-DAG order — kept so a received snapshot can
    /// be restored without shipping the order over the wire.
    order: CDagOrder,
    /// Inputs seen on the network and not yet observed applied: the only
    /// buffer of unproposed input ([`ReplicatedActor::propose_inbox`]).
    inbox: HashMap<InputName, ReplCmd>,
    /// The `Accept` whose names do not resolve yet, and its sender. A
    /// leader keeps one slot open, so one is enough.
    held_accept: Option<(u32, PaxosMsg<ReplCmd>)>,
    /// Unapplied inbox inputs held at each takeover: the only inputs an
    /// old leader may have proposed already.
    reproposals: u64,
    /// Inputs refused at intake: a client destination or a group
    /// message's sender outside the overlay, or a message kind replicas
    /// do not handle.
    refused_inputs: u64,
    was_leader: bool,
    tick: SimTime,
    stop_at: SimTime,
    retransmit_every: u64,
    ticks: u64,
    /// The ballot-leader-election oracle.
    ble: BallotLeaderElection,
    /// BLE round at which the previous `Leader` event fired here (feeds
    /// the `smr.election_rounds` histogram).
    last_leader_round: u64,
    /// Compaction distance, in slots ([`ReplicatedConfig::catch_up_lag`]).
    catch_up_lag: u64,
    /// When this replica first noticed its current excessive lag (opens
    /// the `catch_up` async span; closed and cleared at install).
    catch_up_started: Option<SimTime>,
    /// Snapshots this replica installed (diagnostics and tests).
    pub snapshot_installs: u64,
    /// Rotating cursor into the outbox for bounded retransmission rounds.
    retransmit_cursor: usize,
    /// Leader-side delivery emissions with simulated times (diagnostics;
    /// the authoritative per-group order is the replicated delivery log).
    pub delivery_events: Vec<DeliveryEvent>,
    /// When this replica last started an election it has not yet won
    /// (tracing: closes the `election` span at the leadership flip).
    election_started: Option<SimTime>,
    /// Client commands first seen here and not yet committed, keyed by
    /// `(sender, seq)` — populated only when telemetry is enabled, feeds
    /// the `smr.commit_ns` histogram and `commit` spans.
    pending_since: BTreeMap<(u32, u32), SimTime>,
}

impl ReplicatedActor {
    /// Creates replica `replica` of the group at `node`, taking timers,
    /// heartbeat/catch-up tuning, and the telemetry handle
    /// from `cfg` (committed commands are counted live; a disabled handle
    /// makes the replica uninstrumented).
    pub fn new(node: GroupId, replica: u32, cfg: &ReplicatedConfig) -> Self {
        let mut rg = ReplicatedGroup::new(
            replica,
            cfg.rf,
            ReplEngine::new(node, cfg.order.clone(), cfg.advert_stride),
            apply_cmd,
        );
        rg.set_telemetry(cfg.telemetry.clone());
        ReplicatedActor {
            node,
            replica,
            rf: cfg.rf,
            rg,
            order: cfg.order.clone(),
            inbox: HashMap::new(),
            held_accept: None,
            reproposals: 0,
            refused_inputs: 0,
            was_leader: false,
            tick: cfg.tick,
            stop_at: cfg.stop_at,
            retransmit_every: cfg.retransmit_every.max(1),
            ticks: 0,
            ble: BallotLeaderElection::new(replica, cfg.rf, cfg.hb_delay, cfg.hb_increment),
            last_leader_round: 0,
            catch_up_lag: cfg.catch_up_lag.max(1),
            catch_up_started: None,
            snapshot_installs: 0,
            retransmit_cursor: 0,
            delivery_events: Vec::new(),
            election_started: None,
            pending_since: BTreeMap::new(),
        }
    }

    /// Publishes this replica's replication and engine counters under the
    /// `g{group}.r{replica}.` prefix (slots applied, elections,
    /// re-proposals, merge and suppression stats, ...).
    pub fn export_metrics(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let prefix = format!("g{}.r{}", self.node.0, self.replica);
        self.rg.export_metrics(tel, &prefix);
        tel.counter_set(&format!("{prefix}.reproposals"), self.reproposals);
        tel.counter_set(&format!("{prefix}.refused_inputs"), self.refused_inputs);
        tel.counter_set(
            &format!("{prefix}.refused_cmds"),
            self.rg.engine().refused_cmds(),
        );
        self.rg.engine().engine().export_metrics(tel, &prefix);
    }

    /// The replicated state machine (for collection and diagnostics).
    pub fn state(&self) -> &ReplEngine {
        self.rg.engine()
    }

    /// The replication layer itself (compaction marker, apply cursor,
    /// commit lag — catch-up diagnostics for tests and tools).
    pub fn replication(&self) -> &ReplicatedGroup<ReplEngine, ReplCmd, ReplEffect> {
        &self.rg
    }

    /// True if this replica currently leads its group.
    pub fn is_leader(&self) -> bool {
        self.rg.is_leader()
    }

    /// Drops the inbox inputs the group has applied since they arrived.
    fn prune_inbox(&mut self) {
        let state = self.rg.engine();
        self.inbox.retain(|&name, _| !state.has_applied(name));
    }

    /// Sends an inter-group packet to `replicas` of the destination group
    /// (module docs). The packet leaves its `Arc` once.
    fn send_group(
        &self,
        (to, seq, pkt): (GroupId, u64, Arc<Packet>),
        replicas: Range<u32>,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let pkt = Arc::unwrap_or_clone(pkt);
        let pids = replicas.map(|r| replica_pid(to, r, self.rf)).collect();
        ctx.send_many(pids, NetMsg::GroupMsg { seq, pkt });
    }

    /// Replaces every name in `cmd` by its input from the inbox; false if
    /// one is missing (the names resolved so far stay resolved).
    fn resolve(&self, cmd: &mut ReplCmd) -> bool {
        match cmd {
            ReplCmd::Batch(cmds) => cmds.iter_mut().all(|c| self.resolve(c)),
            ReplCmd::Named(name) => self.inbox.get(name).map(|i| *cmd = i.clone()).is_some(),
            _ => true,
        }
    }

    /// Hands a replication message from sibling `from` to the Paxos
    /// replica once the names in an `Accept` resolve, or holds the
    /// `Accept`. One released late is harmless: its `(ballot, slot)`
    /// names the command the slot has, if any.
    fn replicate(&mut self, from: u32, mut msg: PaxosMsg<ReplCmd>, ctx: &mut Ctx<'_, NetMsg>) {
        if let PaxosMsg::Accept { cmd, .. } = &mut msg {
            if !self.resolve(cmd) {
                self.held_accept = Some((from, msg));
                return;
            }
        }
        let mut fx = Vec::new();
        self.rg.on_replication(from, msg, &mut fx);
        self.emit(fx, ctx);
        self.check_transition(ctx);
        self.propose_inbox(ctx);
    }

    /// Ships this replica's full state to sibling `to` (snapshot catch-up
    /// serving side). Any replica can serve; the receiver discards stale
    /// or duplicate transfers, so serving is always safe.
    fn send_snapshot(&self, to: u32, ctx: &mut Ctx<'_, NetMsg>) {
        let through = self.rg.applied_slots();
        // Cannot fire: a `ReplSnapshot` is bytes and plain data, all of
        // known length, which is all the wire encoder asks.
        let state = flexcast_wire::to_bytes(&self.rg.engine().to_snapshot())
            .expect("snapshots always encode");
        ctx.telemetry().instant(
            "smr",
            "snapshot_sent",
            self.node.0 as u32,
            ctx.now().as_nanos(),
        );
        ctx.send(
            replica_pid(self.node, to, self.rf),
            NetMsg::Snapshot { through, state },
        );
    }

    /// Applies a batch of BLE outputs: heartbeat traffic goes on the wire;
    /// a `Leader` event for *this* replica stands for the Paxos election
    /// with the elected ballot (the BLE → Paxos handoff). The new leader's
    /// `Prepare` demotes any stale claimant.
    fn pump_ble(&mut self, outs: Vec<BleOutput>, ctx: &mut Ctx<'_, NetMsg>) {
        for o in outs {
            match o {
                BleOutput::Send { to, msg } => {
                    ctx.send(replica_pid(self.node, to, self.rf), NetMsg::Ble(msg));
                }
                BleOutput::Leader(ballot) => {
                    let rounds = self.ble.hb_round().saturating_sub(self.last_leader_round);
                    self.last_leader_round = self.ble.hb_round();
                    ctx.telemetry().record("smr.election_rounds", rounds);
                    if ballot.owner == self.replica {
                        self.election_started.get_or_insert(ctx.now());
                        let mut fx = Vec::new();
                        self.rg.handle_leader(ballot, &mut fx);
                        self.emit(fx, ctx);
                        self.check_transition(ctx);
                    }
                }
            }
        }
    }

    /// Emits a batch of group effects into the network. Never proposes.
    fn emit(&mut self, fx: Vec<GroupEffect<ReplCmd, ReplEffect>>, ctx: &mut Ctx<'_, NetMsg>) {
        for e in fx {
            match e {
                GroupEffect::Replication { to, msg } => {
                    ctx.send(replica_pid(self.node, to, self.rf), NetMsg::Repl(msg));
                }
                GroupEffect::SnapshotNeeded { to, .. } => {
                    // A sibling's LearnReq dipped below our compaction
                    // marker: replay cannot help it, a snapshot can.
                    self.send_snapshot(to, ctx);
                }
                GroupEffect::Engine(ReplEffect::Deliver(m)) => {
                    self.delivery_events.push(DeliveryEvent {
                        node: self.node,
                        id: m.id,
                        at: ctx.now(),
                    });
                    // Commit span: from first intake of the command at
                    // this replica to its leader-side emission.
                    if let Some(t0) = self.pending_since.remove(&(m.id.sender.0, m.id.seq)) {
                        let dur = ctx.now().since(t0);
                        ctx.telemetry().span(
                            "smr",
                            "commit",
                            self.node.0 as u32,
                            t0.as_nanos(),
                            dur.as_nanos(),
                        );
                        ctx.telemetry().record("smr.commit_ns", dur.as_nanos());
                    }
                    ctx.telemetry().instant(
                        "smr",
                        "deliver",
                        self.node.0 as u32,
                        ctx.now().as_nanos(),
                    );
                    ctx.send(
                        client_pid(self.order.len(), self.rf, m.id.sender),
                        NetMsg::Reply { id: m.id },
                    );
                }
                GroupEffect::Engine(ReplEffect::Send { to, seq, pkt }) => {
                    self.send_group((to, seq, pkt), 0..self.rf, ctx);
                }
            }
        }
    }

    /// After any interaction with the replication layer: if this replica
    /// just became leader, seed the log with a no-op, then propose the
    /// inputs it has been holding as a follower. Leadership flips are
    /// published to the observation plane right here — the one place the
    /// actor already detects them — so reactive adversaries
    /// (`flexcast-chaos::run_adversary`) can target the *current* leader
    /// without reaching into actor internals.
    fn check_transition(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if self.rg.is_leader() && !self.was_leader {
            self.was_leader = true;
            // Close the election span opened when this replica last stood
            // for election (if it won without standing — e.g. a restart
            // re-claim — there is nothing to close).
            if let Some(t0) = self.election_started.take() {
                let dur = ctx.now().since(t0);
                ctx.telemetry().span(
                    "smr",
                    "election",
                    self.node.0 as u32,
                    t0.as_nanos(),
                    dur.as_nanos(),
                );
                ctx.telemetry().record("smr.election_ns", dur.as_nanos());
            }
            ctx.observe(Observation::LeaderElected {
                group: self.node,
                replica: self.replica,
                pid: ctx.me(),
                at: ctx.now(),
            });
            self.prune_inbox();
            self.reproposals += self.inbox.len() as u64;
            let mut fx = Vec::new();
            self.rg.submit(
                ReplCmd::Noop {
                    proposer: self.replica,
                },
                &mut fx,
            );
            self.emit(fx, ctx);
            self.propose_inbox(ctx);
        } else if !self.rg.is_leader() {
            if self.was_leader {
                ctx.observe(Observation::LeaderLost {
                    group: self.node,
                    replica: self.replica,
                    pid: ctx.me(),
                    at: ctx.now(),
                });
            }
            self.was_leader = false;
        }
    }

    /// Takes one input from the network into the group, and releases the
    /// held `Accept` once every input it names is in.
    fn intake(&mut self, cmd: ReplCmd, ctx: &mut Ctx<'_, NetMsg>) {
        let Some(name) = cmd.name() else { return };
        if self.rg.engine().has_applied(name) || self.inbox.contains_key(&name) {
            return;
        }
        if ctx.telemetry().is_enabled() {
            if let ReplCmd::Client(m) = &cmd {
                self.pending_since
                    .entry((m.id.sender.0, m.id.seq))
                    .or_insert_with(|| ctx.now());
            }
        }
        self.inbox.insert(name, cmd);
        if let Some((from, msg)) = self.held_accept.take() {
            self.replicate(from, msg, ctx);
        }
        self.propose_inbox(ctx);
    }

    /// The one proposal rule: whenever this replica leads and no slot is
    /// open — so nothing unapplied is in flight — it proposes every
    /// unapplied inbox input as the next slot, one as itself, several as
    /// one [`ReplCmd::Batch`]. Runs after intake, after every replication
    /// message (a commit closes the round), at each tick and right after
    /// a takeover's `Noop`. The slot's `Accept`s name the inputs: every
    /// follower took them from the network too.
    fn propose_inbox(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if !self.rg.is_leader() || self.rg.has_open_slots() {
            return;
        }
        self.prune_inbox();
        // In name order, which every replica would pick alike.
        let mut inputs: Vec<(&InputName, &ReplCmd)> = self.inbox.iter().collect();
        inputs.sort_unstable_by_key(|&(name, _)| name);
        let cmd = match inputs.as_slice() {
            [] => return,
            [(_, one)] => (*one).clone(),
            all => ReplCmd::Batch(all.iter().map(|&(_, c)| c.clone()).collect()),
        };
        let mut fx = Vec::new();
        self.rg
            .submit_carrying(cmd, self.inbox.len() as u64, &mut fx);
        for e in &mut fx {
            if let GroupEffect::Replication {
                msg: PaxosMsg::Accept { cmd, .. },
                ..
            } = e
            {
                cmd.name_inputs();
            }
        }
        self.emit(fx, ctx);
    }

    /// Per-tick catch-up bookkeeping: compact the local log to
    /// `catch_up_lag` slots behind the apply cursor, and open the
    /// `catch_up` span when this replica's commit lag exceeds that
    /// distance. The catch-up itself is the repair tick's `LearnReq`,
    /// which a peer answers below its compaction marker with a snapshot.
    fn tick_catch_up(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let applied = self.rg.applied_slots();
        if applied > self.catch_up_lag {
            self.rg.compact_to(applied - self.catch_up_lag);
        }
        if self.rg.commit_lag() > self.catch_up_lag && self.catch_up_started.is_none() {
            self.catch_up_started = Some(ctx.now());
            ctx.telemetry().async_begin(
                "smr",
                "catch_up",
                flexcast_telemetry::SpanId::from_parts(self.node.0 as u32, self.replica),
                self.node.0 as u32,
                ctx.now().as_nanos(),
            );
        }
    }

    fn on_tick(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        self.ticks += 1;
        self.prune_inbox();

        let mut ble_out = Vec::new();
        self.ble.on_tick(&mut ble_out);
        self.pump_ble(ble_out, ctx);
        if self.ble.leader().is_some() {
            // Rounds spent *with* a known leader are not part of any
            // election; keeping the cursor fresh makes the
            // `smr.election_rounds` histogram measure leaderless gaps
            // only. For a majority-connected replica that is the
            // failover time; for a cut-off replica it includes the
            // partition span (it stays leaderless until the heal).
            self.last_leader_round = self.ble.hb_round();
        }
        self.tick_catch_up(ctx);

        let mut fx = Vec::new();
        if self.rg.is_leader() {
            self.propose_inbox(ctx);
            // Re-drive stuck slots, heartbeat the newest commit.
            self.rg.tick_repair(&mut fx);
            self.emit(fx, ctx);
            // Periodically retransmit a bounded, rotating window of the
            // replicated outbox, to one replica of each destination per
            // round (replica `k mod rf` at the `k`-th round): receivers
            // discard what they already applied, successive rounds cover
            // the full channel history, and steady-state traffic stays
            // linear in the outbox size. It repairs what a partition or a
            // lossy link kept from every replica.
            if self.ticks.is_multiple_of(self.retransmit_every) {
                const WINDOW: usize = 64;
                let round = self.ticks / self.retransmit_every;
                let target = (round % u64::from(self.rf)) as u32;
                let outbox = self.rg.engine().outbox();
                let len = outbox.len();
                if len > 0 {
                    let start = if self.retransmit_cursor >= len {
                        0
                    } else {
                        self.retransmit_cursor
                    };
                    let end = (start + WINDOW).min(len);
                    let window = outbox[start..end].to_vec();
                    self.retransmit_cursor = if end >= len { 0 } else { end };
                    for entry in window {
                        self.send_group(entry, target..target + 1, ctx);
                    }
                }
            }
        } else {
            // Followers: request gap-fills.
            self.rg.tick_repair(&mut fx);
            let repairs = fx.len();
            self.emit(fx, ctx);
            if repairs > 0 {
                ctx.telemetry().span_with_args(
                    "smr",
                    "repair",
                    self.node.0 as u32,
                    ctx.now().as_nanos(),
                    0,
                    &[("msgs", repairs as f64)],
                );
            }
        }
        self.check_transition(ctx);
        if ctx.now() + self.tick < self.stop_at {
            ctx.set_timer(self.tick, 0);
        }
    }
}

impl Actor<NetMsg> for ReplicatedActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        // A restart is a leadership transition from the outside: a
        // replica that led before the crash and still *believes* it leads
        // (its persisted ballot state is local — a rival elected during
        // the downtime is unknown until its higher ballot arrives)
        // re-assumes leadership rather than silently continuing, so reset
        // the transition detector. The next `check_transition` then
        // re-publishes `LeaderElected` (and re-seeds the log with a
        // no-op): the probe reports leadership *claims*, so under a dual
        // claim both claimants are observable and a reactive adversary
        // may well shoot the stale one — an honest hazard of failover,
        // not a probe bug (DESIGN.md §9.5). At first boot the flag is
        // already false.
        self.was_leader = false;
        // Run the transition detector *now*, not at the first tick or
        // message: a bare flag reset left a window where a demotion (a
        // rival's higher-ballot Prepare) arriving before the first
        // callback found `was_leader == false` and was swallowed — the
        // restart claim went unpublished and the eventual loss unpaired.
        // Publishing the claim synchronously keeps the Elected/Lost
        // stream exactly-once per transition in both directions.
        if self.rg.is_leader() {
            self.check_transition(ctx);
        }
        // First boot needs no election here: BLE's seeded ballots elect
        // replica 0 in the first completed heartbeat round.
        if ctx.now() + self.tick < self.stop_at {
            ctx.set_timer(self.tick, 0);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        match msg {
            NetMsg::GroupMsg { .. } if from >= self.order.len() * self.rf as usize => {
                self.refused_inputs += 1;
            }
            NetMsg::Client { msg: m, .. } => {
                // An input naming a node outside the overlay is refused
                // here, before it is proposed: committed, every replica
                // would skip it.
                let Some(entry) = entry_node(&self.order, m.dst) else {
                    self.refused_inputs += 1;
                    return;
                };
                // Re-ack path: if this destination already delivered `m`,
                // the original Reply may have been lost — the leader
                // re-sends it. Client retries fan out to every destination
                // group precisely so each can recover its own lost ack.
                if self.rg.engine().engine().has_delivered(m.id) {
                    if self.rg.is_leader() {
                        ctx.send(
                            client_pid(self.order.len(), self.rf, m.id.sender),
                            NetMsg::Reply { id: m.id },
                        );
                    }
                    return;
                }
                // Only the entry (lca) group orders client messages;
                // other destinations learn of `m` through the overlay.
                if entry == self.node {
                    self.intake(ReplCmd::Client(m), ctx);
                }
            }
            NetMsg::GroupMsg { seq, pkt } => {
                let peer = group_of(from, self.rf);
                let pkt = Arc::new(pkt);
                self.intake(ReplCmd::Peer { peer, seq, pkt }, ctx);
            }
            NetMsg::Repl(pm) => self.replicate(replica_of(from, self.rf), pm, ctx),
            NetMsg::Ble(bm) => {
                let mut ble_out = Vec::new();
                self.ble
                    .on_message(replica_of(from, self.rf), bm, &mut ble_out);
                self.pump_ble(ble_out, ctx);
            }
            NetMsg::Snapshot { through, state } => {
                if through <= self.rg.applied_slots() {
                    return; // stale or duplicate transfer
                }
                // Bytes that do not decode, an engine that does not
                // restore, and a state that took another number of slots
                // than `through` claims are refused: the replica keeps its
                // state, and its gap keeps it asking.
                let restored = flexcast_wire::from_bytes::<ReplSnapshot>(&state)
                    .and_then(|snap| ReplEngine::from_snapshot(snap, self.order.clone()));
                let Some(engine) = restored.ok().filter(|e| e.links.slots == through) else {
                    ctx.telemetry().counter_add("smr.snapshot_refused", 1);
                    return;
                };
                if self.rg.install_snapshot(engine, through) {
                    self.snapshot_installs += 1;
                    ctx.telemetry()
                        .record("smr.catch_up_bytes", state.len() as u64);
                    if let Some(t0) = self.catch_up_started.take() {
                        ctx.telemetry().async_end(
                            "smr",
                            "catch_up",
                            flexcast_telemetry::SpanId::from_parts(
                                self.node.0 as u32,
                                self.replica,
                            ),
                            self.node.0 as u32,
                            ctx.now().as_nanos(),
                        );
                        ctx.telemetry()
                            .record("smr.catch_up_ns", ctx.now().since(t0).as_nanos());
                    }
                }
            }
            // Replies are for clients, bare protocol packets for
            // unreplicated worlds; snapshots are asked for by `LearnReq`.
            NetMsg::Reply { .. }
            | NetMsg::Flex(_)
            | NetMsg::Skeen(_)
            | NetMsg::Hier(_)
            | NetMsg::SnapReq { .. } => self.refused_inputs += 1,
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        self.on_tick(ctx);
    }
}

/// Sends a client-path message to every replica of each group in
/// `targets`, cloning only for links that will deliver
/// ([`Ctx::send_many`]). Shared by clients and the GC flusher so the
/// envelope and pid layout are encoded once.
fn send_msg_to_groups(
    n_groups: usize,
    rf: u32,
    reply_client: ClientId,
    m: &Message,
    targets: &[GroupId],
    ctx: &mut Ctx<'_, NetMsg>,
) {
    let pids: Vec<ProcessId> = targets
        .iter()
        .flat_map(|&g| (0..rf).map(move |r| replica_pid(g, r, rf)))
        .collect();
    ctx.send_many(
        pids,
        NetMsg::Client {
            msg: m.clone(),
            reply_to: client_pid(n_groups, rf, reply_client),
        },
    );
}

struct OutstandingTxn {
    /// The multicast, kept for retries.
    msg: Message,
    acked: DestSet,
    sent_at: SimTime,
    first_ack_ms: Option<f64>,
}

/// A closed-loop client for replicated worlds: issues one multicast at a
/// time to every replica of the message's lca group, collects one ack per
/// destination group (duplicates from leader changes are ignored), and
/// retries unacked messages on a timer — the client-side half of the
/// end-to-end reliability story.
pub struct ReplClientActor {
    id: ClientId,
    rf: u32,
    order: CDagOrder,
    rng: StdRng,
    n_msgs: u32,
    max_dst: usize,
    payload_bytes: usize,
    retry: SimTime,
    stop_at: SimTime,
    seq: u32,
    outstanding: Option<OutstandingTxn>,
    /// Every multicast issued, with its destination set (node space).
    pub issued: Vec<(MsgId, DestSet)>,
    /// Completion latency (all destinations acked) per finished multicast.
    pub completion_ms: Vec<f64>,
    /// Latency of the first destination ack per finished multicast.
    pub first_ack_ms: Vec<f64>,
    /// Fully acknowledged multicasts.
    pub completed: u64,
    /// Inputs refused: anything but a `Reply`, and a reply to the
    /// outstanding multicast from a process that is no replica of one
    /// of its destination groups.
    pub refused_inputs: u64,
}

impl ReplClientActor {
    /// Creates a client that issues `n_msgs` multicasts with 2..=`max_dst`
    /// destinations each.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ClientId,
        rf: u32,
        order: CDagOrder,
        n_msgs: u32,
        max_dst: usize,
        payload_bytes: usize,
        retry: SimTime,
        stop_at: SimTime,
        seed: u64,
    ) -> Self {
        ReplClientActor {
            id,
            rf,
            order,
            rng: StdRng::seed_from_u64(seed),
            n_msgs,
            max_dst,
            payload_bytes,
            retry,
            stop_at,
            seq: 0,
            outstanding: None,
            issued: Vec::new(),
            completion_ms: Vec::new(),
            first_ack_ms: Vec::new(),
            completed: 0,
            refused_inputs: 0,
        }
    }

    fn next_dst(&mut self) -> DestSet {
        let n = self.order.len();
        let k = self.rng.random_range(2..=self.max_dst.min(n).max(2));
        let mut dst = DestSet::new();
        while dst.len() < k {
            dst.insert(GroupId(self.rng.random_range(0..n as u16)));
        }
        dst
    }

    /// Sends `m` to every replica of each group in `targets`
    /// ([`send_msg_to_groups`]).
    fn send_to_groups(&self, m: &Message, targets: &[GroupId], ctx: &mut Ctx<'_, NetMsg>) {
        send_msg_to_groups(self.order.len(), self.rf, self.id, m, targets, ctx);
    }

    fn issue(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let dst = self.next_dst();
        let id = MsgId::new(self.id, self.seq);
        self.seq += 1;
        // Cannot fire: `next_dst` inserts until the set has at least two
        // members.
        let m = Message::new(id, dst, vec![7u8; self.payload_bytes].into())
            .expect("generated destinations are non-empty");
        self.issued.push((id, dst));
        ctx.telemetry().async_begin(
            "client",
            "txn",
            crate::actors::txn_span_id(id),
            ctx.me() as u32,
            ctx.now().as_nanos(),
        );
        // First attempt: the entry group only. Retries fan out wider.
        self.send_to_groups(&m, entry_node(&self.order, dst).as_slice(), ctx);
        self.outstanding = Some(OutstandingTxn {
            msg: m,
            acked: DestSet::new(),
            sent_at: ctx.now(),
            first_ack_ms: None,
        });
        // The retry timer carries the transaction's sequence number, so
        // at most one retry chain is live: stale chains from completed
        // transactions see a different token and die out.
        ctx.set_timer(self.retry, id.seq as u64);
    }
}

impl Actor<NetMsg> for ReplClientActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if self.n_msgs > 0 {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        let NetMsg::Reply { id } = msg else {
            self.refused_inputs += 1;
            return;
        };
        let Some(out) = &mut self.outstanding else {
            return; // late duplicate for a finished multicast
        };
        if out.msg.id != id {
            return; // ack for an older multicast
        }
        let group = group_of(from, self.rf);
        if !out.msg.dst.contains(group) {
            self.refused_inputs += 1;
            return;
        }
        if out.acked.contains(group) {
            return; // duplicate ack after a leader change
        }
        out.acked.insert(group);
        let elapsed = ctx.now().since(out.sent_at).as_ms();
        let first_ack = *out.first_ack_ms.get_or_insert(elapsed);
        if out.acked == out.msg.dst {
            self.completion_ms.push(elapsed);
            self.first_ack_ms.push(first_ack);
            self.completed += 1;
            self.outstanding = None;
            ctx.telemetry().async_end(
                "client",
                "txn",
                crate::actors::txn_span_id(id),
                ctx.me() as u32,
                ctx.now().as_nanos(),
            );
            if self.seq < self.n_msgs && ctx.now() < self.stop_at {
                self.issue(ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        // Retry: re-send the outstanding multicast; the group-side dedup
        // makes this safe, and it is what restores lost client traffic.
        let Some(out) = &self.outstanding else { return };
        if out.msg.id.seq as u64 != token || ctx.now() >= self.stop_at {
            return; // stale chain from a completed transaction, or done
        }
        // Fan out to every unacked destination group (not just the entry):
        // a destination that delivered but whose Reply was lost re-acks.
        let targets: Vec<GroupId> = out.msg.dst.difference(out.acked).iter().collect();
        self.send_to_groups(&out.msg, &targets, ctx);
        ctx.set_timer(self.retry, token);
    }
}

/// A periodic garbage-collection flusher for replicated worlds (§4.3
/// under replication — the ROADMAP's "GC under replication" axis): every
/// `period` it multicasts one FlexCast flush message to all groups
/// through the normal replicated entry path, waits for every group's ack
/// (retrying unacked destinations like [`ReplClientActor`] does), then
/// issues the next — up to `n_flushes`. Each delivered flush makes every
/// engine prune its history up to the flush fence and rotate tombstones,
/// so chaos runs exercise GC against crashes and failovers.
pub struct ReplFlushActor {
    id: ClientId,
    rf: u32,
    order: CDagOrder,
    n_flushes: u32,
    period: SimTime,
    stop_at: SimTime,
    seq: u32,
    outstanding: Option<(MsgId, DestSet)>,
    /// Every flush issued, with its (all-groups) destination set.
    pub issued: Vec<(MsgId, DestSet)>,
    /// Flushes acked by every group.
    pub completed: u64,
    /// Inputs refused: anything but a `Reply`, and a reply to the
    /// outstanding flush from a process that is no replica of a group.
    pub refused_inputs: u64,
}

impl ReplFlushActor {
    /// Creates a flusher issuing `n_flushes` flushes, one per `period`.
    pub fn new(
        id: ClientId,
        rf: u32,
        order: CDagOrder,
        n_flushes: u32,
        period: SimTime,
        stop_at: SimTime,
    ) -> Self {
        ReplFlushActor {
            id,
            rf,
            order,
            n_flushes,
            period,
            stop_at,
            seq: 0,
            outstanding: None,
            issued: Vec::new(),
            completed: 0,
            refused_inputs: 0,
        }
    }

    fn flush_msg(&self, id: MsgId) -> Message {
        FlexCastGroup::flush_message(id, self.order.len() as u16)
    }

    /// Sends the flush to every replica of each group in `targets`
    /// ([`send_msg_to_groups`]).
    fn send_to_groups(&self, m: &Message, targets: &[GroupId], ctx: &mut Ctx<'_, NetMsg>) {
        send_msg_to_groups(self.order.len(), self.rf, self.id, m, targets, ctx);
    }

    /// The flush entry point: a flush targets every group, so its lca
    /// is the node holding rank 0. `None` in an overlay with no groups.
    fn entry(&self) -> Option<GroupId> {
        entry_node(&self.order, DestSet::all(self.order.len()))
    }
}

impl Actor<NetMsg> for ReplFlushActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        if self.n_flushes > 0 && ctx.now() + self.period < self.stop_at {
            ctx.set_timer(self.period, 0);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, _ctx: &mut Ctx<'_, NetMsg>) {
        let NetMsg::Reply { id } = msg else {
            self.refused_inputs += 1;
            return;
        };
        let Some((out_id, acked)) = &mut self.outstanding else {
            return; // late duplicate for a completed flush
        };
        if *out_id != id {
            return; // ack for an older flush
        }
        let group = group_of(from, self.rf);
        let all = DestSet::all(self.order.len());
        if !all.contains(group) {
            self.refused_inputs += 1;
            return;
        }
        acked.insert(group);
        if *acked == all {
            self.completed += 1;
            self.outstanding = None;
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        match &self.outstanding {
            Some((id, acked)) => {
                // Retry to every unacked group; replicated dedup absorbs
                // duplicates and leaders re-ack delivered flushes.
                let m = self.flush_msg(*id);
                let targets: Vec<GroupId> = m.dst.difference(*acked).iter().collect();
                self.send_to_groups(&m, &targets, ctx);
            }
            None if self.seq < self.n_flushes => {
                let id = MsgId::new(self.id, self.seq);
                self.seq += 1;
                let m = self.flush_msg(id);
                self.issued.push((id, m.dst));
                self.outstanding = Some((id, DestSet::new()));
                self.send_to_groups(&m, self.entry().as_slice(), ctx);
            }
            None => return, // all flushes issued and completed
        }
        if ctx.now() + self.period < self.stop_at {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// An actor in a replicated world: a group replica, a client, or the GC
/// flusher.
#[allow(clippy::large_enum_variant)]
pub enum ReplNode {
    /// One Paxos replica of a FlexCast group.
    Replica(ReplicatedActor),
    /// A closed-loop multicast client.
    Client(ReplClientActor),
    /// The periodic garbage-collection flusher.
    Flusher(ReplFlushActor),
}

impl Actor<NetMsg> for ReplNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        match self {
            ReplNode::Replica(r) => r.on_start(ctx),
            ReplNode::Client(c) => c.on_start(ctx),
            ReplNode::Flusher(f) => f.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
        match self {
            ReplNode::Replica(r) => r.on_message(from, msg, ctx),
            ReplNode::Client(c) => c.on_message(from, msg, ctx),
            ReplNode::Flusher(f) => f.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
        match self {
            ReplNode::Replica(r) => r.on_timer(token, ctx),
            ReplNode::Client(c) => c.on_timer(token, ctx),
            ReplNode::Flusher(f) => f.on_timer(token, ctx),
        }
    }
}

/// Configuration of a replicated-group experiment.
#[derive(Clone, Debug)]
pub struct ReplicatedConfig {
    /// Number of FlexCast groups (one per site).
    pub n_groups: u16,
    /// Replication factor: Paxos replicas per group.
    pub rf: u32,
    /// C-DAG rank order over the groups.
    pub order: CDagOrder,
    /// Number of closed-loop clients.
    pub n_clients: usize,
    /// Multicasts each client issues.
    pub msgs_per_client: u32,
    /// Maximum destinations per multicast (at least 2).
    pub max_dst: usize,
    /// Payload size in bytes.
    pub payload_bytes: usize,
    /// RNG seed (workload, jitter, and fault sampling).
    pub seed: u64,
    /// Uniform network jitter bound in milliseconds.
    pub jitter_ms: f64,
    /// Replica maintenance-timer period.
    pub tick: SimTime,
    /// Client retry period.
    pub retry: SimTime,
    /// Outbox retransmission period, in ticks.
    pub retransmit_every: u64,
    /// All timers stop at this simulated time; choose it past the fault
    /// schedule's horizon with room for recovery, or the run cannot heal.
    pub stop_at: SimTime,
    /// FlexCast delta suppression (watermark advertisements upstream)
    /// for the replicated engines; `None` runs the plain protocol. The
    /// advertised view lives inside the replicated state machine, so it
    /// survives leader failover.
    pub advert_stride: Option<u32>,
    /// GC flush traffic: `Some(period)` adds a [`ReplFlushActor`] issuing
    /// [`ReplicatedConfig::n_flushes`] flush multicasts, one per period.
    /// `None` (the default) runs without GC, preserving pre-existing
    /// executions bit-for-bit.
    pub flush_period: Option<SimTime>,
    /// Number of flushes the flusher issues (ignored without
    /// [`ReplicatedConfig::flush_period`]).
    pub n_flushes: u32,
    /// Heartbeat-round length for ballot leader election, in maintenance
    /// ticks. Shorter rounds fail over faster; longer rounds tolerate more
    /// jitter without false suspicion. Sweepable via `fault_sweep`.
    pub hb_delay: u64,
    /// How many ticks a BLE round grows by when replies arrive late
    /// (adaptive timeout; capped at 8× [`ReplicatedConfig::hb_delay`]).
    pub hb_increment: u64,
    /// Compaction distance, in Paxos slots: every replica compacts its log
    /// to this many slots behind its apply cursor, so a replica further
    /// behind than that catches up by snapshot — a peer answers its
    /// `LearnReq` below the compaction marker with one — not by replay.
    pub catch_up_lag: u64,
    /// Telemetry handle, disabled by default. Clones share one registry
    /// and tracer; [`collect`] snapshots it into the result.
    pub telemetry: Telemetry,
    /// Simulation shard count; `0` defers to `FLEX_SHARDS` then `1` (see
    /// [`crate::experiment::resolve_shards`]). Delivered traces are
    /// bit-identical at every value.
    pub shards: usize,
}

impl ReplicatedConfig {
    /// A small default configuration: `n_groups` groups replicated `rf`
    /// ways, 2 clients × 8 multicasts, timers sized for sub-minute runs.
    pub fn small(n_groups: u16, rf: u32, seed: u64) -> Self {
        ReplicatedConfig {
            n_groups,
            rf,
            order: CDagOrder::identity(n_groups as usize),
            n_clients: 2,
            msgs_per_client: 8,
            max_dst: 3,
            payload_bytes: 32,
            seed,
            jitter_ms: 1.0,
            tick: SimTime::from_ms(40.0),
            retry: SimTime::from_ms(400.0),
            retransmit_every: 8,
            stop_at: SimTime::from_secs(30),
            advert_stride: None,
            flush_period: None,
            n_flushes: 0,
            hb_delay: 4,
            hb_increment: 2,
            catch_up_lag: 64,
            telemetry: Telemetry::disabled(),
            shards: 0,
        }
    }
}

/// Everything a replicated run produces.
#[derive(Debug)]
pub struct ReplicatedResult {
    /// Property-checker verdict, including replica lockstep.
    pub check: CheckReport,
    /// Fully acknowledged multicasts across all clients.
    pub completed: u64,
    /// Multicasts issued across all clients.
    pub issued: usize,
    /// `completed / issued` — the availability the fault sweep reports.
    pub availability: f64,
    /// Completion latency (all destinations acked) in milliseconds.
    pub latency: Summary,
    /// First-destination ack latency in milliseconds.
    pub first_ack: Summary,
    /// Per-group delivery order (from the most advanced replica log).
    pub trace: Vec<Vec<DeliveryEvent>>,
    /// Per-group, per-replica delivery logs (lockstep evidence).
    pub replica_logs: Vec<Vec<Vec<MsgId>>>,
    /// Total simulator events processed.
    pub events: u64,
    /// Messages lost to faults, partitions, and crashes.
    pub dropped: u64,
    /// Metrics snapshot (empty unless the config enabled telemetry).
    pub metrics: MetricsSnapshot,
}

/// Builds the world for a replicated experiment on `matrix` (one site per
/// group; a group's replicas are co-located at its site). Drive it with
/// `flexcast_chaos::run_schedule` — or plain `run_to_quiescence` for a
/// fault-free run — then hand it to [`collect`].
pub fn build_world(cfg: &ReplicatedConfig, matrix: &LatencyMatrix) -> World<NetMsg, ReplNode> {
    assert_eq!(
        matrix.len(),
        cfg.n_groups as usize,
        "one latency-matrix site per group"
    );
    assert_eq!(
        cfg.order.len(),
        cfg.n_groups as usize,
        "order covers all groups"
    );
    assert!(cfg.rf >= 1, "need at least one replica per group");
    assert!(
        cfg.max_dst >= 2,
        "multicasts need at least two destinations"
    );

    let mut actors: Vec<ReplNode> = Vec::new();
    let mut sites: Vec<GroupId> = Vec::new();
    for g in 0..cfg.n_groups {
        for r in 0..cfg.rf {
            actors.push(ReplNode::Replica(ReplicatedActor::new(GroupId(g), r, cfg)));
            sites.push(GroupId(g));
        }
    }
    for c in 0..cfg.n_clients {
        actors.push(ReplNode::Client(ReplClientActor::new(
            ClientId(c as u32),
            cfg.rf,
            cfg.order.clone(),
            cfg.msgs_per_client,
            cfg.max_dst,
            cfg.payload_bytes,
            cfg.retry,
            cfg.stop_at,
            cfg.seed.wrapping_add(1).wrapping_add(c as u64),
        )));
        sites.push(GroupId((c % cfg.n_groups as usize) as u16));
    }
    if let Some(period) = cfg.flush_period {
        // The flusher is client n_clients in the pid layout, co-located
        // with the flush entry group (the rank-0 node).
        let flusher = ReplFlushActor::new(
            ClientId(cfg.n_clients as u32),
            cfg.rf,
            cfg.order.clone(),
            cfg.n_flushes,
            period,
            cfg.stop_at,
        );
        sites.push(flusher.entry().unwrap_or(GroupId(0)));
        actors.push(ReplNode::Flusher(flusher));
    }

    let link = LinkModel::new(matrix.clone(), sites, cfg.jitter_ms);
    let mut world = World::new(actors, link, cfg.seed);
    world.set_telemetry(cfg.telemetry.clone());
    world.set_shards(crate::experiment::resolve_shards(cfg.shards));
    world
}

/// Collects results from a quiesced replicated world: the multicast
/// registry, the per-group delivery traces, replica lockstep, and the
/// client-observed latency/availability numbers.
pub fn collect(cfg: &ReplicatedConfig, world: &World<NetMsg, ReplNode>) -> ReplicatedResult {
    let n_groups = cfg.n_groups as usize;
    let mut registry: BTreeMap<MsgId, DestSet> = BTreeMap::new();
    let mut replica_logs: Vec<Vec<Vec<MsgId>>> = vec![Vec::new(); n_groups];
    let mut latency = Summary::new();
    let mut first_ack = Summary::new();
    let mut completed = 0u64;
    let mut issued = 0usize;

    for pid in 0..world.len() {
        match world.actor(pid) {
            ReplNode::Replica(r) => {
                replica_logs[r.node.index()].push(r.state().delivery_log().to_vec());
            }
            ReplNode::Client(c) => {
                registry.extend(c.issued.iter().copied());
                issued += c.issued.len();
                completed += c.completed;
                for &ms in &c.completion_ms {
                    latency.record(ms);
                }
                for &ms in &c.first_ack_ms {
                    first_ack.record(ms);
                }
            }
            // Flushes join the registry (the checker must accept their
            // deliveries and require them at every group) but stay out of
            // the transaction counts the availability metric reports.
            ReplNode::Flusher(f) => registry.extend(f.issued.iter().copied()),
        }
    }

    // Per-group delivery order: the most advanced replica's log. Lockstep
    // (checked below) guarantees every other log is a prefix of it.
    let mut trace: Vec<Vec<DeliveryEvent>> = Vec::with_capacity(n_groups);
    for (g, logs) in replica_logs.iter().enumerate() {
        let node = GroupId(g as u16);
        let longest = logs.iter().max_by_key(|l| l.len());
        trace.push(
            longest
                .map(|log| {
                    log.iter()
                        .map(|&id| DeliveryEvent {
                            node,
                            id,
                            at: SimTime::ZERO,
                        })
                        .collect()
                })
                .unwrap_or_default(),
        );
    }

    let mut check = checker::check(&registry, &trace);
    check.lockstep_violations = checker::check_lockstep(&replica_logs);

    latency.sort();
    first_ack.sort();

    let tel = &cfg.telemetry;
    if tel.is_enabled() {
        latency.export_histogram_ms(tel, "latency.complete_ns");
        first_ack.export_histogram_ms(tel, "latency.first_ack_ns");
        tel.counter_set("sim.events", world.processed_events());
        tel.counter_set("sim.dropped_messages", world.dropped_messages());
        for pid in 0..world.len() {
            if let ReplNode::Replica(r) = world.actor(pid) {
                r.export_metrics(tel);
            }
        }
    }
    let metrics = tel.snapshot();

    ReplicatedResult {
        check,
        completed,
        issued,
        availability: if issued == 0 {
            1.0
        } else {
            completed as f64 / issued as f64
        },
        latency,
        first_ack,
        trace,
        replica_logs,
        events: world.processed_events(),
        dropped: world.dropped_messages(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_overlay::LatencyMatrix;

    fn matrix(n: usize) -> LatencyMatrix {
        let mut m = LatencyMatrix::zero(n);
        for a in 0..n {
            m.set_local(a, 0.5);
            for b in (a + 1)..n {
                m.set_rtt(a, b, 20.0 + 10.0 * ((a + b) % 3) as f64);
            }
        }
        m
    }

    fn run_clean(n_groups: u16, rf: u32, seed: u64) -> ReplicatedResult {
        let cfg = ReplicatedConfig::small(n_groups, rf, seed);
        let m = matrix(n_groups as usize);
        let mut world = build_world(&cfg, &m);
        world.run_to_quiescence(20_000_000);
        collect(&cfg, &world)
    }

    #[test]
    fn fault_free_replicated_run_is_clean() {
        let r = run_clean(3, 3, 7);
        r.check.assert_ok();
        assert_eq!(r.completed as usize, r.issued);
        assert_eq!(r.availability, 1.0);
        assert!(!r.latency.is_empty());
    }

    #[test]
    fn single_replica_groups_degenerate_to_unreplicated() {
        let r = run_clean(4, 1, 3);
        r.check.assert_ok();
        assert_eq!(r.availability, 1.0);
    }

    #[test]
    fn five_way_replication_still_agrees() {
        let r = run_clean(3, 5, 11);
        r.check.assert_ok();
        assert_eq!(r.availability, 1.0);
        for logs in &r.replica_logs {
            assert_eq!(logs.len(), 5);
        }
    }

    #[test]
    fn replicated_runs_are_deterministic() {
        let a = run_clean(3, 3, 42);
        let b = run_clean(3, 3, 42);
        assert_eq!(a.events, b.events);
        assert_eq!(a.completed, b.completed);
        let ta: Vec<Vec<MsgId>> = a
            .trace
            .iter()
            .map(|t| t.iter().map(|e| e.id).collect())
            .collect();
        let tb: Vec<Vec<MsgId>> = b
            .trace
            .iter()
            .map(|t| t.iter().map(|e| e.id).collect())
            .collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn suppressed_replicated_run_is_clean_and_suppresses() {
        // Suppression needs rank depth to win the advertisement race: an
        // entry reaches a far group via slow multi-hop relays while the
        // receiver's advert races straight back, so a 3-group triangle
        // (every path one hop) suppresses nothing — 8 groups do.
        let mut cfg = ReplicatedConfig {
            advert_stride: Some(2),
            ..ReplicatedConfig::small(8, 2, 7)
        };
        cfg.msgs_per_client = 24;
        cfg.max_dst = 4;
        cfg.stop_at = SimTime::from_secs(120);
        let m = matrix(8);
        let mut world = build_world(&cfg, &m);
        world.run_to_quiescence(80_000_000);
        let r = collect(&cfg, &world);
        r.check.assert_ok();
        assert_eq!(r.availability, 1.0);
        let mut suppressed = 0u64;
        let mut adverts = 0u64;
        for pid in 0..world.len() {
            if let ReplNode::Replica(rep) = world.actor(pid) {
                let st = rep.state().engine().suppression_stats();
                suppressed += st.suppressed_entries();
                adverts += st.adverts_sent;
            }
        }
        assert!(adverts > 0, "advertisement flow engaged under replication");
        assert!(suppressed > 0, "cross-link duplicates were suppressed");
    }

    #[test]
    fn flusher_runs_gc_under_replication() {
        let mut cfg = ReplicatedConfig::small(3, 3, 19);
        cfg.flush_period = Some(SimTime::from_ms(600.0));
        cfg.n_flushes = 4;
        let m = matrix(3);
        let mut world = build_world(&cfg, &m);
        world.run_to_quiescence(40_000_000);
        let r = collect(&cfg, &world);
        r.check.assert_ok();
        assert_eq!(r.availability, 1.0);

        let ReplNode::Flusher(f) = world.actor(world.len() - 1) else {
            panic!("flusher sits last in the pid layout");
        };
        assert_eq!(f.completed, 4, "every flush acked by every group");
        assert_eq!(f.issued.len(), 4);

        // GC engaged: at least one engine's live history is smaller than
        // its delivery log, and every pruned id stays tombstoned (seen).
        let mut pruned_somewhere = false;
        for pid in 0..world.len() {
            if let ReplNode::Replica(rep) = world.actor(pid) {
                let engine = rep.state().engine();
                for &id in rep.state().delivery_log() {
                    if !engine.history().contains(id) {
                        pruned_somewhere = true;
                        assert!(
                            engine.history().has_seen(id),
                            "pruned {id:?} lost its tombstone"
                        );
                    }
                }
            }
        }
        assert!(pruned_somewhere, "flush traffic pruned some history");
    }

    #[test]
    fn pid_layout_roundtrips() {
        assert_eq!(replica_pid(GroupId(2), 1, 3), 7);
        assert_eq!(group_of(7, 3), GroupId(2));
        assert_eq!(replica_of(7, 3), 1);
        assert_eq!(client_pid(4, 3, ClientId(2)), 14);
    }

    fn replica(world: &World<NetMsg, ReplNode>, pid: ProcessId) -> &ReplicatedActor {
        match world.actor(pid) {
            ReplNode::Replica(r) => r,
            _ => panic!("pid {pid} is not a replica"),
        }
    }

    /// `name` summed over every replica's exported counters.
    fn counter(world: &World<NetMsg, ReplNode>, name: &str) -> u64 {
        counter_of(world, 0..world.len(), name)
    }

    /// `name` summed over the exported counters of the replicas in `pids`.
    fn counter_of(
        world: &World<NetMsg, ReplNode>,
        pids: impl IntoIterator<Item = ProcessId>,
        name: &str,
    ) -> u64 {
        let tel = Telemetry::enabled();
        for pid in pids {
            if let ReplNode::Replica(r) = world.actor(pid) {
                r.export_metrics(&tel);
            }
        }
        let snap = tel.snapshot();
        let suffix = format!(".{name}");
        snap.counters
            .iter()
            .filter(|(k, _)| k.ends_with(&suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// With one round open at the leader, ten more client inputs queue up
    /// and commit as one batch slot; every replica applies the same order.
    #[test]
    fn inputs_arriving_during_an_open_round_commit_as_one_batch() {
        let mut cfg = ReplicatedConfig::small(2, 3, 5);
        cfg.msgs_per_client = 0; // the test injects every multicast
        let mut world = build_world(&cfg, &matrix(2));
        world.run_until(SimTime::from_ms(1_000.0));
        let leader = replica_pid(GroupId(0), 0, 3);
        assert!(replica(&world, leader).is_leader());
        assert!(!replica(&world, leader).replication().has_open_slots());
        let slots = |w: &World<NetMsg, ReplNode>| (counter(w, "proposals"), counter(w, "inputs"));
        let before = slots(&world);

        let client = client_pid(2, 3, ClientId(0));
        let inject = |world: &mut World<NetMsg, ReplNode>, seq: u32| {
            let msg = Message::new(
                MsgId::new(ClientId(0), seq),
                DestSet::from_iter([GroupId(0)]),
                vec![seq as u8].into(),
            )
            .expect("one destination");
            for r in 0..3 {
                world.inject(
                    client,
                    replica_pid(GroupId(0), r, 3),
                    NetMsg::Client {
                        msg: msg.clone(),
                        reply_to: client,
                    },
                );
            }
        };
        // Hold the first round open: the leader's Accepts take 30 ms.
        for r in 1..3 {
            let spike = flexcast_sim::LinkFault::spike_ms(30.0);
            world.set_link_fault(leader, replica_pid(GroupId(0), r, 3), spike);
        }
        inject(&mut world, 0);
        world.run_until(SimTime::from_ms(1_005.0));
        assert!(replica(&world, leader).replication().has_open_slots());
        for seq in 1..=10 {
            inject(&mut world, seq);
        }
        world.run_until(SimTime::from_ms(1_010.0));
        assert!(replica(&world, leader).replication().has_open_slots());
        world.clear_link_faults();
        world.run_to_quiescence(20_000_000);

        let want: Vec<MsgId> = (0..=10).map(|s| MsgId::new(ClientId(0), s)).collect();
        for r in 0..3 {
            let log = replica(&world, replica_pid(GroupId(0), r, 3))
                .state()
                .delivery_log();
            assert_eq!(log, &want[..], "replica {r}");
        }
        let after = slots(&world);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (2, 11),
            "one slot for the first input, one batch for the other ten"
        );
        assert_eq!(counter(&world, "reproposals"), 0);
    }

    /// A notice from group 0 to group 1 about a message neither group
    /// has seen: a packet both engines accept on the 0 → 1 link.
    fn stray_packet() -> Packet {
        Packet::Notif {
            mref: flexcast_core::MsgRef {
                id: MsgId::new(ClientId(0), 999),
                dst: DestSet::from_iter([GroupId(0), GroupId(1)]),
            },
            hist: flexcast_core::HistoryDelta::empty(),
        }
    }

    /// A two-group world with leaders elected and no client traffic, in
    /// which group 0's leader has just sent `stray_packet` to replica
    /// `to` of group 1 as the first packet on the link. Returns the world
    /// and the name of the input group 1 must apply.
    fn world_with_a_packet_for(to: u32) -> (World<NetMsg, ReplNode>, InputName) {
        let mut cfg = ReplicatedConfig::small(2, 3, 5);
        cfg.msgs_per_client = 0;
        let mut world = build_world(&cfg, &matrix(2));
        world.run_until(SimTime::from_ms(1_000.0));
        let leader = replica_pid(GroupId(1), 0, 3);
        assert!(replica(&world, leader).is_leader());
        let (sender, pkt) = (replica_pid(GroupId(0), 0, 3), stray_packet());
        world.inject(
            sender,
            replica_pid(GroupId(1), to, 3),
            NetMsg::GroupMsg { seq: 0, pkt },
        );
        let peer = GroupId(0);
        (world, InputName::Peer { peer, seq: 0 })
    }

    /// Replica 1 of groups 1 and 2, a follower, crashes for good while
    /// multicasts are in flight, under enough load that the senders'
    /// outboxes outgrow one retransmission window. Every packet reaches
    /// the two live replicas of its group straight from its sender, so
    /// the slowest multicasts are as slow as with every replica up.
    #[test]
    fn a_crashed_replica_of_a_receiving_group_delays_no_packet() {
        let mut cfg = ReplicatedConfig::small(3, 3, 13);
        cfg.n_clients = 4;
        cfg.msgs_per_client = 40;
        let run = |crash: bool| {
            let mut world = build_world(&cfg, &matrix(3));
            world.run_until(SimTime::from_ms(300.0));
            for g in [1, 2] {
                world.set_down(replica_pid(GroupId(g), 1, 3), crash);
            }
            world.run_to_quiescence(50_000_000);
            let sender = replica(&world, replica_pid(GroupId(0), 0, 3));
            assert!(sender.state().outbox().len() > 64);
            collect(&cfg, &world)
        };
        let (up, crashed) = (run(false), run(true));
        crashed.check.assert_ok();
        assert_eq!(crashed.availability, 1.0);
        let p99 = |r: &ReplicatedResult| r.latency.percentiles().expect("completions").p99;
        // An eighth of a tick: no packet waits for a tick.
        let bound = p99(&up) + cfg.tick.as_ms() / 8.0;
        assert!(p99(&crashed) <= bound, "p99 {} > {bound}", p99(&crashed));
    }

    /// Fault-free, inputs are proposed twice only at takeover: a group's
    /// first leader proposes its `Noop`, then one batch carrying every
    /// input it inherited. Nothing is re-proposed after the first
    /// elections, and slots carry more than one input on average.
    #[test]
    fn fault_free_leaders_batch_and_never_repropose() {
        let mut cfg = ReplicatedConfig::small(3, 3, 9);
        cfg.n_clients = 12;
        let m = matrix(3);
        let mut world = build_world(&cfg, &m);
        // Per group, once its first leader has proposed two slots: the
        // slots and inputs it proposed, and the inputs it inherited.
        let mut first: Vec<Option<(u64, u64, u64)>> = vec![None; 3];
        while first.contains(&None) {
            assert!(world.step(), "every first leader proposes twice");
            for (g, seen) in first.iter_mut().enumerate().filter(|(_, s)| s.is_none()) {
                let mut pids = (0..3).map(|r| replica_pid(GroupId(g as u16), r, 3));
                let Some(pid) =
                    pids.find(|&pid| replica(&world, pid).replication().replica().next_slot() >= 2)
                else {
                    continue;
                };
                let count = |name| counter_of(&world, [pid], name);
                let inherited = replica(&world, pid).reproposals;
                *seen = Some((count("proposals"), count("inputs"), inherited));
            }
        }
        for (g, seen) in first.into_iter().enumerate() {
            let (slots, inputs, inherited) = seen.expect("recorded above");
            assert_eq!(slots, 2, "group {g}: a Noop and one batch");
            assert!(
                inputs > inherited,
                "group {g}: {inputs} inputs, {inherited} inherited"
            );
            // The last rank is no multicast's lca, so it inherits nothing.
            assert!(g == 2 || inherited > 1, "group {g} inherited {inherited}");
        }
        let at_election = counter(&world, "reproposals");
        world.run_to_quiescence(20_000_000);
        let r = collect(&cfg, &world);
        r.check.assert_ok();
        assert_eq!(r.availability, 1.0);
        assert_eq!(counter(&world, "reproposals"), at_election);
        let (slots, inputs) = (counter(&world, "proposals"), counter(&world, "inputs"));
        assert!(slots < inputs, "{slots} slots carried {inputs} inputs");
    }

    /// A snapshot that does not decode, and one whose engine bytes do not
    /// restore, are both refused and counted; the replica is unchanged.
    #[test]
    fn malformed_snapshots_are_refused() {
        let mut cfg = ReplicatedConfig::small(3, 3, 7);
        cfg.telemetry = Telemetry::enabled();
        let mut world = build_world(&cfg, &matrix(3));
        world.run_to_quiescence(20_000_000);
        let (victim, sibling) = (replica_pid(GroupId(0), 1, 3), replica_pid(GroupId(0), 2, 3));
        let state = |w: &World<NetMsg, ReplNode>| {
            let r = replica(w, victim);
            let bytes = flexcast_wire::to_bytes(&r.state().to_snapshot()).expect("encodes");
            (r.replication().applied_slots(), r.snapshot_installs, bytes)
        };
        let before = state(&world);

        let mut bad_engine = replica(&world, sibling).state().to_snapshot();
        bad_engine.engine = vec![0xde, 0xad, 0xbe, 0xef];
        for state in [
            vec![0xde, 0xad, 0xbe, 0xef],
            flexcast_wire::to_bytes(&bad_engine).expect("encodes"),
        ] {
            let through = 1_000_000;
            world.inject(sibling, victim, NetMsg::Snapshot { through, state });
        }
        world.run_to_quiescence(1_000);

        assert_eq!(state(&world), before);
        let refused = cfg.telemetry.snapshot().counters["smr.snapshot_refused"];
        assert_eq!(refused, 2);
    }

    /// Injects each of `inputs` from a client's pid into every replica of
    /// group 0 of a quiesced world: nothing is proposed, no replica's
    /// state changes, and each replica counts one refusal per input.
    fn assert_refused(inputs: &[NetMsg]) {
        let cfg = ReplicatedConfig::small(3, 3, 7);
        let mut world = build_world(&cfg, &matrix(3));
        world.run_to_quiescence(20_000_000);
        let replicas: Vec<ProcessId> = (0..3).map(|r| replica_pid(GroupId(0), r, 3)).collect();
        let state = |w: &World<NetMsg, ReplNode>| {
            let snapshot = |&pid: &ProcessId| {
                let r = replica(w, pid);
                let bytes = flexcast_wire::to_bytes(&r.state().to_snapshot()).expect("encodes");
                (r.replication().applied_slots(), bytes)
            };
            let snapshots: Vec<_> = replicas.iter().map(snapshot).collect();
            (
                snapshots,
                counter(w, "proposals"),
                counter(w, "refused_inputs"),
            )
        };
        let before = state(&world);
        for msg in inputs {
            for &pid in &replicas {
                world.inject(client_pid(3, 3, ClientId(0)), pid, msg.clone());
            }
        }
        world.run_to_quiescence(1_000);
        let after = state(&world);
        assert_eq!(after.0, before.0, "a replica's state changed");
        assert_eq!(after.1, before.1, "an input was proposed");
        let refusals = 3 * inputs.len() as u64;
        assert_eq!(
            after.2,
            before.2 + refusals,
            "each replica counts each refusal"
        );
    }

    #[test]
    fn a_client_destination_outside_the_overlay_is_refused_at_intake() {
        let dst = DestSet::from_iter([GroupId(0), GroupId(5)]);
        let msg = Message::new(MsgId::new(ClientId(0), 999), dst, vec![1].into()).unwrap();
        let reply_to = client_pid(3, 3, ClientId(0));
        assert_refused(&[NetMsg::Client { msg, reply_to }]);
    }

    /// A client's pid maps to no group; committed, its packet would be a
    /// poison pill every replica panics on applying.
    #[test]
    fn a_group_message_from_outside_the_overlay_is_refused_at_intake() {
        let mref = flexcast_core::MsgRef {
            id: MsgId::new(ClientId(0), 999),
            dst: DestSet::from_iter([GroupId(0), GroupId(1)]),
        };
        let hist = flexcast_core::HistoryDelta::empty();
        let pkt = Packet::Notif { mref, hist };
        assert_refused(&[NetMsg::GroupMsg { seq: 0, pkt }]);
    }

    /// Replies are for clients, bare protocol packets for unreplicated
    /// worlds, and snapshots are asked for by `LearnReq`; a replica
    /// counts them and changes nothing. Clients and the flusher take
    /// replies only.
    #[test]
    fn message_kinds_a_replica_does_not_handle_are_refused() {
        let id = MsgId::new(ClientId(0), 999);
        let dst = DestSet::from_iter([GroupId(0), GroupId(1)]);
        let msg = Message::new(id, dst, vec![1].into()).unwrap();
        let mref = flexcast_core::MsgRef::of(&msg);
        let hist = flexcast_core::HistoryDelta::empty();
        let notif = Packet::Notif { mref, hist };
        assert_refused(&[
            NetMsg::Reply { id },
            NetMsg::Flex(notif.clone()),
            NetMsg::Skeen(flexcast_baselines::SkeenPacket::Ts { id, ts: 1 }),
            NetMsg::Hier(flexcast_baselines::HierPacket(msg)),
            NetMsg::SnapReq { have: 0 },
        ]);

        let mut cfg = ReplicatedConfig::small(3, 3, 7);
        cfg.flush_period = Some(SimTime::from_ms(600.0));
        cfg.n_flushes = 1;
        let mut world = build_world(&cfg, &matrix(3));
        world.run_to_quiescence(20_000_000);
        let (client, flusher) = (client_pid(3, 3, ClientId(0)), world.len() - 1);
        let leader = replica_pid(GroupId(0), 0, 3);
        let state = |w: &World<NetMsg, ReplNode>| match (w.actor(client), w.actor(flusher)) {
            (ReplNode::Client(c), ReplNode::Flusher(f)) => (
                (c.completed, c.issued.len(), c.completion_ms.len()),
                (f.completed, f.issued.len()),
                (c.refused_inputs, f.refused_inputs),
            ),
            _ => panic!("a client and the flusher"),
        };
        let before = state(&world);
        for pid in [client, flusher] {
            let pkt = notif.clone();
            world.inject(leader, pid, NetMsg::GroupMsg { seq: 0, pkt });
        }
        world.run_to_quiescence(1_000);
        let after = state(&world);
        assert_eq!((after.0, after.1), (before.0, before.1));
        assert_eq!(after.2, (before.2 .0 + 1, before.2 .1 + 1));
    }

    /// A client counts a reply only from a replica of one of the
    /// outstanding multicast's destination groups. One from a replica of
    /// `g0` while the destinations are `{g1, g3}` is refused; taken, it
    /// would put `g0` among the acks, so the acks could never equal the
    /// destinations and the client would stall on its first multicast.
    #[test]
    fn a_reply_from_a_group_that_is_no_destination_is_refused() {
        let cfg = ReplicatedConfig::small(4, 3, 7);
        let mut world = build_world(&cfg, &matrix(4));
        world.run_until(SimTime::ZERO);
        let client = client_pid(4, 3, ClientId(0));
        let clients = |w: &World<NetMsg, ReplNode>| -> Vec<(u64, usize, u64)> {
            (client..client + 2)
                .map(|pid| match w.actor(pid) {
                    ReplNode::Client(c) => (c.completed, c.issued.len(), c.refused_inputs),
                    _ => panic!("pid {pid} is not a client"),
                })
                .collect()
        };
        let ReplNode::Client(c) = world.actor(client) else {
            panic!("pid {client} is not a client");
        };
        let (id, dst) = c.issued[0];
        assert_eq!(dst, DestSet::from_iter([GroupId(1), GroupId(3)]));
        world.inject(replica_pid(GroupId(0), 0, 3), client, NetMsg::Reply { id });
        world.run_to_quiescence(20_000_000);
        assert_eq!(clients(&world), vec![(8, 8, 1), (8, 8, 0)]);
    }

    /// A client message whose sender names no client is delivered at
    /// both destinations; the world drops and counts each leader's reply
    /// to the pid it does not host.
    #[test]
    fn a_reply_to_a_client_the_world_does_not_host_is_dropped() {
        let cfg = ReplicatedConfig::small(3, 3, 7);
        let mut world = build_world(&cfg, &matrix(3));
        world.run_to_quiescence(20_000_000);
        let dropped = world.dropped_messages();
        let dst = DestSet::from_iter([GroupId(0), GroupId(1)]);
        let msg = Message::new(MsgId::new(ClientId(999), 0), dst, vec![1].into()).unwrap();
        let reply_to = client_pid(3, 3, ClientId(0));
        for r in 0..3 {
            let to = replica_pid(GroupId(0), r, 3);
            world.inject(
                reply_to,
                to,
                NetMsg::Client {
                    msg: msg.clone(),
                    reply_to,
                },
            );
        }
        world.run_to_quiescence(1_000_000);
        for g in [0, 1] {
            let log = replica(&world, replica_pid(GroupId(g), 0, 3))
                .state()
                .delivery_log();
            assert_eq!(log.last(), Some(&msg.id), "group {g}");
        }
        assert_eq!(world.dropped_messages(), dropped + 2);
    }

    /// Intake guards run only where a command is proposed, so a hostile
    /// sibling leader can still commit one naming a group outside the
    /// overlay, or a client message whose lca is another group. Applying
    /// it — alone or inside a batch, in order or ahead of its turn on the
    /// link — changes nothing and emits nothing.
    #[test]
    fn a_committed_command_outside_the_overlay_is_skipped_by_every_replica() {
        let order = CDagOrder::from_order((0..3).map(GroupId).collect()).expect("permutation");
        let mut e = ReplEngine::new(GroupId(0), order, None);
        let peer = |seq| ReplCmd::Peer {
            peer: GroupId(300),
            seq,
            pkt: Arc::new(Packet::Notif {
                mref: flexcast_core::MsgRef {
                    id: MsgId::new(ClientId(0), 998),
                    dst: DestSet::from_iter([GroupId(0), GroupId(1)]),
                },
                hist: flexcast_core::HistoryDelta::empty(),
            }),
        };
        let client = |seq, dst: [u16; 2]| {
            let dst = DestSet::from_iter(dst.map(GroupId));
            ReplCmd::Client(
                Message::new(MsgId::new(ClientId(0), seq), dst, vec![1].into()).unwrap(),
            )
        };
        // Outside the overlay, and inside it with group 1 as the lca.
        let (outside, elsewhere) = (client(999, [0, 5]), client(997, [1, 2]));
        // Every slot counts, refused or not.
        let snapshot = |e: &ReplEngine| {
            let mut snap = e.to_snapshot();
            snap.links.slots = 0;
            flexcast_wire::to_bytes(&snap).expect("encodes")
        };
        let before = snapshot(&e);
        for cmd in [
            peer(0),
            outside.clone(),
            elsewhere.clone(),
            ReplCmd::Batch(vec![peer(1), outside, elsewhere]),
        ] {
            let mut out = Vec::new();
            apply_cmd(&mut e, cmd, &mut out);
            assert!(out.is_empty(), "an effect was emitted");
            assert_eq!(snapshot(&e), before, "the state machine changed");
        }
        assert_eq!(e.refused_cmds(), 6);
    }

    /// The state machine at node 0 of three groups after two client
    /// messages to all three (outbox: seqs 0 and 1 to each of nodes 1 and
    /// 2) and a packet from node 1 held at seq 2, ahead of its turn.
    fn engine_with_links() -> ReplSnapshot {
        let order = CDagOrder::from_order((0..3).map(GroupId).collect()).expect("permutation");
        let mut e = ReplEngine::new(GroupId(0), order, None);
        let all = DestSet::from_iter((0..3).map(GroupId));
        for seq in 0..2 {
            let m = Message::new(MsgId::new(ClientId(0), seq), all, vec![1].into()).unwrap();
            apply_cmd(&mut e, ReplCmd::Client(m), &mut Vec::new());
        }
        let pkt = Arc::new(Packet::Advert {
            wm: flexcast_types::Watermarks::default(),
        });
        let held = ReplCmd::Peer {
            peer: GroupId(1),
            seq: 2,
            pkt,
        };
        apply_cmd(&mut e, held, &mut Vec::new());
        let snap = e.to_snapshot();
        assert_eq!(snap.links.outbox.len(), 4);
        assert_eq!(snap.links.held.len(), 1);
        snap
    }

    /// The error `from_snapshot` gives once `corrupt` has changed the
    /// links of [`engine_with_links`]; the honest links restore.
    fn links_error(corrupt: fn(&mut ReplLinks)) -> String {
        let order = || CDagOrder::from_order((0..3).map(GroupId).collect()).expect("permutation");
        let mut snap = engine_with_links();
        let back = ReplEngine::from_snapshot(snap.clone(), order()).expect("honest links");
        assert_eq!(back.to_snapshot().links.outbox.len(), 4);
        corrupt(&mut snap.links);
        match ReplEngine::from_snapshot(snap, order()) {
            Ok(_) => panic!("corrupt links adopted"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn from_snapshot_refuses_outbox_seqs_out_of_order() {
        // Node 1's packets as seqs 1, 0; then as seqs 0, 2.
        let err = links_error(|l| l.outbox.swap(0, 2));
        assert!(err.contains("out of its link's sequence"), "{err}");
        let err = links_error(|l| l.outbox[2].1 = 2);
        assert!(err.contains("out of its link's sequence"), "{err}");
    }

    #[test]
    fn from_snapshot_refuses_an_outbox_entry_outside_the_overlay() {
        let err = links_error(|l| l.outbox[3].0 = GroupId(3));
        assert!(err.contains("outbox entry names a group outside"), "{err}");
    }

    #[test]
    fn from_snapshot_refuses_a_held_packet_at_or_below_its_next_seq() {
        let err = links_error(|l| {
            l.next_in.insert(GroupId(1), 2);
        });
        assert!(err.contains("held packet is not past"), "{err}");
        let err = links_error(|l| {
            let pkt = l.held.pop_first().expect("one held").1;
            l.held.insert((GroupId(2), 0), pkt);
        });
        assert!(err.contains("held packet is not past"), "{err}");
    }

    #[test]
    fn from_snapshot_refuses_a_held_packet_from_outside_the_overlay() {
        let err = links_error(|l| {
            let pkt = l.held.pop_first().expect("one held").1;
            l.held.insert((GroupId(7), 5), pkt);
        });
        assert!(err.contains("peer is outside the overlay"), "{err}");
    }

    /// A batch inside a batch is refused where it starts, so a million
    /// nesting levels fail at the second, without recursing.
    #[test]
    fn nested_batches_do_not_decode() {
        let mut bytes = [3u8, 1].repeat(1_000_000);
        bytes.extend([2, 0]); // Noop { proposer: 0 } at the bottom
        let err = flexcast_wire::from_bytes::<ReplCmd>(&bytes).expect_err("nesting refused");
        assert!(matches!(err, flexcast_types::Error::Decode(_)), "{err:?}");
        let flat = flexcast_wire::from_bytes::<ReplCmd>(&bytes[bytes.len() - 4..]);
        assert_eq!(
            flat.expect("one level decodes"),
            ReplCmd::Batch(vec![ReplCmd::Noop { proposer: 0 }])
        );
    }

    /// A replicated world's actor with a tap on what it receives: every
    /// `Accept` as `(slot, wire size, command)` and the sender pid of
    /// every `GroupMsg`.
    struct Tap {
        node: ReplNode,
        accepts: Vec<(u64, usize, ReplCmd)>,
        group_msgs: Vec<ProcessId>,
    }

    impl Actor<NetMsg> for Tap {
        fn on_start(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
            self.node.on_start(ctx);
        }

        fn on_message(&mut self, from: ProcessId, msg: NetMsg, ctx: &mut Ctx<'_, NetMsg>) {
            match &msg {
                NetMsg::Repl(PaxosMsg::Accept { slot, cmd, .. }) => {
                    self.accepts.push((*slot, msg.wire_size(), cmd.clone()));
                }
                NetMsg::GroupMsg { .. } => self.group_msgs.push(from),
                _ => {}
            }
            self.node.on_message(from, msg, ctx);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, NetMsg>) {
            self.node.on_timer(token, ctx);
        }
    }

    /// [`build_world`]'s replicas, each behind a [`Tap`], and no clients.
    fn tapped_world(cfg: &ReplicatedConfig) -> World<NetMsg, Tap> {
        let mut actors = Vec::new();
        let mut sites = Vec::new();
        for g in (0..cfg.n_groups).map(GroupId) {
            for r in 0..cfg.rf {
                actors.push(Tap {
                    node: ReplNode::Replica(ReplicatedActor::new(g, r, cfg)),
                    accepts: Vec::new(),
                    group_msgs: Vec::new(),
                });
                sites.push(g);
            }
        }
        let link = LinkModel::new(matrix(cfg.n_groups as usize), sites, cfg.jitter_ms);
        World::new(actors, link, cfg.seed)
    }

    fn tapped(world: &World<NetMsg, Tap>, pid: ProcessId) -> (&Tap, &ReplicatedActor) {
        match world.actor(pid) {
            tap @ Tap {
                node: ReplNode::Replica(r),
                ..
            } => (tap, r),
            _ => panic!("pid {pid} is not a replica"),
        }
    }

    /// A client multicast with a `len`-byte payload, injected into every
    /// replica of its entry group.
    fn inject_multicast<A: Actor<NetMsg>>(
        world: &mut World<NetMsg, A>,
        cfg: &ReplicatedConfig,
        seq: u32,
        dst: &[u16],
        len: usize,
    ) -> Message {
        let dst = DestSet::from_iter(dst.iter().copied().map(GroupId));
        let msg = Message::new(MsgId::new(ClientId(0), seq), dst, vec![1; len].into())
            .expect("has destinations");
        let entry = entry_node(&cfg.order, dst).expect("in the overlay");
        let reply_to = client_pid(cfg.n_groups as usize, cfg.rf, ClientId(0));
        for r in 0..cfg.rf {
            // From the replica itself: the world may host no client.
            let pid = replica_pid(entry, r, cfg.rf);
            let msg = msg.clone();
            world.inject(pid, pid, NetMsg::Client { msg, reply_to });
        }
        msg
    }

    /// Two groups, rf = 3, leaders elected, no clients, and no outbox
    /// retransmission: group 0's packets reach group 1 only as fresh sends.
    fn quiet_config() -> ReplicatedConfig {
        let mut cfg = ReplicatedConfig::small(2, 3, 5);
        cfg.n_clients = 0;
        cfg.retransmit_every = 1_000_000;
        cfg
    }

    /// Every replica of group 1 takes each of group 0's packets from
    /// group 0's leader itself, once, even with group 1's replicas cut
    /// off from each other.
    #[test]
    fn every_replica_of_a_receiving_group_takes_each_packet_from_its_sender() {
        let cfg = quiet_config();
        let mut world = tapped_world(&cfg);
        world.run_until(SimTime::from_ms(1_000.0));
        let g1: Vec<ProcessId> = (0..3).map(|r| replica_pid(GroupId(1), r, 3)).collect();
        for &a in &g1 {
            for &b in &g1 {
                if a != b {
                    world.block_link(a, b);
                }
            }
        }
        for seq in 0..4 {
            inject_multicast(&mut world, &cfg, seq, &[0, 1], 16);
        }
        world.run_until(SimTime::from_ms(1_500.0));
        let sender = replica_pid(GroupId(0), 0, 3);
        let (_, leader) = tapped(&world, sender);
        let sent: Vec<u64> = (leader.state().outbox().iter())
            .filter(|(to, _, _)| *to == GroupId(1))
            .map(|&(_, seq, _)| seq)
            .collect();
        assert!(sent.len() >= 4, "{sent:?}");
        for &pid in &g1 {
            let (tap, replica) = tapped(&world, pid);
            assert_eq!(tap.group_msgs, vec![sender; sent.len()], "pid {pid}");
            for &seq in &sent {
                let name = InputName::Peer {
                    peer: GroupId(0),
                    seq,
                };
                assert!(replica.inbox.contains_key(&name), "pid {pid} seq {seq}");
            }
        }
    }

    /// The first `Accept` of every slot after the takeover `Noop` names
    /// its inputs: 1 000-byte client messages and the packets that carry
    /// them cost the followers a few bytes each, and every replica
    /// applies them all.
    #[test]
    fn a_fresh_accept_whose_inputs_every_follower_holds_carries_no_packet_bytes() {
        let cfg = quiet_config();
        let mut world = tapped_world(&cfg);
        world.run_until(SimTime::from_ms(1_000.0));
        let msgs: Vec<Message> = (0..3)
            .map(|seq| inject_multicast(&mut world, &cfg, seq, &[0, 1], 1_000))
            .collect();
        world.run_until(SimTime::from_ms(1_500.0));
        let mut fresh = 0;
        for g in 0..2 {
            for r in 1..3 {
                let (tap, replica) = tapped(&world, replica_pid(GroupId(g), r, 3));
                for m in &msgs {
                    assert!(replica.state().engine().has_delivered(m.id), "g{g} r{r}");
                }
                let mut first = BTreeMap::new();
                for (slot, size, cmd) in &tap.accepts {
                    first.entry(*slot).or_insert((*size, cmd));
                }
                for (slot, (size, cmd)) in first {
                    if matches!(cmd, ReplCmd::Noop { .. }) {
                        continue;
                    }
                    fresh += 1;
                    assert!(size < 64, "g{g} r{r} slot {slot}: {size} B, {cmd:?}");
                }
            }
        }
        assert!(fresh >= 4, "{fresh} fresh Accepts");
    }

    /// Group 0's packet reaches group 1's leader and one follower (15 ms
    /// away): the other follower holds the leader's `Accept`, and accepts
    /// it as soon as the packet arrives, before the next tick at 1 040 ms
    /// could repair anything.
    #[test]
    fn a_follower_missing_one_named_input_holds_the_accept_until_the_packet_arrives() {
        let (mut world, cmd) = world_with_a_packet_for(0);
        let (sender, late) = (replica_pid(GroupId(0), 0, 3), replica_pid(GroupId(1), 2, 3));
        let packet = || NetMsg::GroupMsg {
            seq: 0,
            pkt: stray_packet(),
        };
        world.inject(sender, replica_pid(GroupId(1), 1, 3), packet());
        world.run_until(SimTime::from_ms(1_018.0));
        for r in 0..2 {
            let state = replica(&world, replica_pid(GroupId(1), r, 3)).state();
            assert!(state.has_applied(cmd), "replica {r}");
        }
        let held = |w: &World<NetMsg, ReplNode>| replica(w, late).held_accept.is_some();
        assert!(held(&world));
        assert!(!replica(&world, late).state().has_applied(cmd));
        world.inject(sender, late, packet());
        world.run_until(SimTime::from_ms(1_038.0));
        assert!(!held(&world));
        assert!(replica(&world, late).state().has_applied(cmd));
    }

    /// With group 1's other follower down, the leader needs the vote of a
    /// follower that never gets the packet: that follower holds the
    /// named `Accept`, and the leader's repair tick re-sends it whole.
    #[test]
    fn a_follower_that_never_gets_the_packet_commits_through_the_repair_redrive() {
        let (mut world, cmd) = world_with_a_packet_for(0);
        world.set_down(replica_pid(GroupId(1), 1, 3), true);
        let follower = replica_pid(GroupId(1), 2, 3);
        world.run_until(SimTime::from_ms(1_030.0));
        assert!(replica(&world, follower).held_accept.is_some());
        for r in [0, 2] {
            let state = replica(&world, replica_pid(GroupId(1), r, 3)).state();
            assert!(!state.has_applied(cmd), "replica {r}");
        }
        world.run_until(SimTime::from_ms(1_100.0));
        for r in [0, 2] {
            let state = replica(&world, replica_pid(GroupId(1), r, 3)).state();
            assert!(state.has_applied(cmd), "replica {r}");
        }
    }

    /// A name reaches `apply_cmd` only if a hostile leader commits one.
    /// Alone or inside a batch, every replica refuses it alike: no
    /// effect, no state change beyond the slot count, one refusal each.
    #[test]
    fn a_committed_command_that_carries_a_name_is_refused_alike_by_every_replica() {
        let order = || CDagOrder::from_order((0..3).map(GroupId).collect()).expect("permutation");
        let packet = |seq| {
            ReplCmd::Named(InputName::Peer {
                peer: GroupId(1),
                seq,
            })
        };
        let client = ReplCmd::Named(InputName::Client(MsgId::new(ClientId(0), 0)));
        let cmds = [
            packet(0),
            client.clone(),
            ReplCmd::Batch(vec![packet(1), client]),
        ];
        let snapshot = |e: &ReplEngine| flexcast_wire::to_bytes(&e.to_snapshot()).expect("encodes");
        let mut fresh = ReplEngine::new(GroupId(0), order(), None);
        let mut replicas: Vec<ReplEngine> = (0..3)
            .map(|_| ReplEngine::new(GroupId(0), order(), None))
            .collect();
        for e in &mut replicas {
            for cmd in cmds.clone() {
                let mut out = Vec::new();
                apply_cmd(e, cmd, &mut out);
                assert!(out.is_empty(), "an effect was emitted");
            }
            assert_eq!(e.refused_cmds(), 4);
        }
        fresh.links.slots = 3;
        for e in &replicas {
            assert_eq!(snapshot(e), snapshot(&fresh));
        }
    }

    /// A sitting leader is sent its sibling's honest state under a
    /// `through` no log can reach: it refuses the transfer, and the next
    /// input commits in the very next slot at every replica.
    #[test]
    fn a_snapshot_whose_through_is_not_its_slot_count_is_refused() {
        let mut cfg = ReplicatedConfig::small(3, 3, 7);
        cfg.telemetry = Telemetry::enabled();
        let mut world = build_world(&cfg, &matrix(3));
        world.run_to_quiescence(20_000_000);
        let (leader, sibling) = (replica_pid(GroupId(0), 0, 3), replica_pid(GroupId(0), 1, 3));
        assert!(replica(&world, leader).is_leader());
        let slots = replica(&world, leader).replication().applied_slots();
        let snap = replica(&world, sibling).state().to_snapshot();
        assert_eq!(snap.links.slots, slots);
        let state = flexcast_wire::to_bytes(&snap).expect("encodes");
        let through = u64::MAX;
        world.inject(sibling, leader, NetMsg::Snapshot { through, state });
        world.run_to_quiescence(1_000);
        assert_eq!(replica(&world, leader).snapshot_installs, 0);
        assert_eq!(cfg.telemetry.snapshot().counters["smr.snapshot_refused"], 1);

        let msg = inject_multicast(&mut world, &cfg, 999, &[0], 8);
        world.run_to_quiescence(1_000_000);
        for r in 0..3 {
            let rep = replica(&world, replica_pid(GroupId(0), r, 3));
            assert_eq!(rep.replication().applied_slots(), slots + 1, "replica {r}");
            assert_eq!(
                rep.state().delivery_log().last(),
                Some(&msg.id),
                "replica {r}"
            );
        }
    }
}
