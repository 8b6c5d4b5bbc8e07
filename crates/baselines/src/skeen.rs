//! Skeen's genuine distributed atomic multicast.
//!
//! The protocol attributed to D. Skeen (via Birman & Joseph, reference 2
//! in the paper's bibliography): a multicast message is sent to all
//! destinations;
//! each destination stamps it with a logical-clock timestamp and exchanges
//! the stamp with the other destinations; the message's *final* timestamp
//! is the maximum of the stamps, and destinations deliver messages in
//! final-timestamp order (ties broken by message id). Genuine — only the
//! destinations communicate — and delivers in two communication steps,
//! the proven optimum for this class.
//!
//! This implementation uses single-process groups, matching the paper's
//! evaluation setup (§5.1); fault tolerance would replicate each group
//! with `flexcast-smr` exactly as for FlexCast.

use flexcast_types::{GroupId, Message, MsgId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Packets exchanged by Skeen's protocol.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum SkeenPacket {
    /// The application message, sent by the client to every destination.
    Msg(Message),
    /// A local timestamp for message `id`, sent between destinations.
    Ts {
        /// The message being stamped.
        id: MsgId,
        /// The sender's local logical timestamp for it.
        ts: u64,
    },
}

/// An action produced by the Skeen engine (mirrors `flexcast_core::Output`).
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// Send a packet to another destination group.
    Send {
        /// Receiving group.
        to: GroupId,
        /// The packet.
        pkt: SkeenPacket,
    },
    /// Deliver a message to the application.
    Deliver(Message),
}

/// Per-message ordering state.
#[derive(Clone, Debug)]
struct PendingMsg {
    msg: Message,
    /// Local timestamp assigned by this group.
    local_ts: u64,
    /// Timestamps received so far (keyed by group), including our own.
    stamps: BTreeMap<GroupId, u64>,
    /// The final timestamp, once all stamps are in.
    final_ts: Option<u64>,
}

impl PendingMsg {
    /// The smallest (timestamp, id) key this message can end up with:
    /// its final key when committed, otherwise its local-stamp key (the
    /// final timestamp is a maximum, so it can only be larger).
    fn lower_bound(&self) -> (u64, MsgId) {
        (self.final_ts.unwrap_or(self.local_ts), self.msg.id)
    }
}

/// One group (single process) running Skeen's protocol.
#[derive(Clone, Debug)]
pub struct SkeenGroup {
    g: GroupId,
    clock: u64,
    pending: BTreeMap<MsgId, PendingMsg>,
    /// Stamps that arrived before the message itself (links from different
    /// groups are not mutually ordered).
    early: BTreeMap<MsgId, BTreeMap<GroupId, u64>>,
    delivered_count: u64,
}

impl SkeenGroup {
    /// Creates the engine for group `g`.
    pub fn new(g: GroupId) -> Self {
        SkeenGroup {
            g,
            clock: 0,
            pending: BTreeMap::new(),
            early: BTreeMap::new(),
            delivered_count: 0,
        }
    }

    /// This group's id.
    pub fn id(&self) -> GroupId {
        self.g
    }

    /// Current logical clock (diagnostics).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Messages stamped but not yet delivered.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Number of messages delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.delivered_count
    }

    /// Handles the client's copy of a multicast message. Clients send the
    /// message to *every* destination (this group must be one of them).
    pub fn on_client(&mut self, m: Message, out: &mut Vec<Output>) {
        debug_assert!(m.dst.contains(self.g), "not a destination");
        debug_assert!(!self.pending.contains_key(&m.id), "duplicate multicast");
        self.clock += 1;
        let local_ts = self.clock;
        let mut entry = PendingMsg {
            local_ts,
            stamps: BTreeMap::from([(self.g, local_ts)]),
            final_ts: None,
            msg: m.clone(),
        };
        for d in m.dst.iter().filter(|&d| d != self.g) {
            out.push(Output::Send {
                to: d,
                pkt: SkeenPacket::Ts {
                    id: m.id,
                    ts: local_ts,
                },
            });
        }
        if entry.stamps.len() == m.dst.len() {
            // Single-destination message: committed immediately.
            entry.final_ts = Some(local_ts);
        }
        self.pending.insert(m.id, entry);
        self.drain_early(m.id);
        self.try_deliver(out);
    }

    /// Handles a peer packet.
    pub fn on_packet(&mut self, from: GroupId, pkt: SkeenPacket, out: &mut Vec<Output>) {
        match pkt {
            // Some deployments relay the message between groups instead of
            // relying on the client; stamping logic is identical.
            SkeenPacket::Msg(m) => self.on_client(m, out),
            SkeenPacket::Ts { id, ts } => {
                // Lamport receive rule keeps future local stamps above
                // everything we have observed.
                self.clock = self.clock.max(ts);
                let Some(entry) = self.pending.get_mut(&id) else {
                    // The stamp beat the client's message copy here: record
                    // it once the message arrives. Buffer as a bare stamp.
                    self.early_stamp(id, from, ts);
                    return;
                };
                // Only a destination stamps: another group's stamp could
                // complete the set early and fix a wrong final timestamp.
                if !entry.msg.dst.contains(from) {
                    return;
                }
                entry.stamps.insert(from, ts);
                if entry.stamps.len() == entry.msg.dst.len() {
                    let f = *entry.stamps.values().max().expect("non-empty stamps");
                    entry.final_ts = Some(f);
                }
                self.try_deliver(out);
            }
        }
    }

    /// Buffered stamps for messages whose client copy has not arrived yet.
    fn early_stamp(&mut self, id: MsgId, from: GroupId, ts: u64) {
        self.early.entry(id).or_default().insert(from, ts);
    }

    /// Delivers every committed message whose (final, id) key is below the
    /// lower bound of all other pending messages.
    fn try_deliver(&mut self, out: &mut Vec<Output>) {
        loop {
            // Candidate: the committed pending message with the smallest
            // (final_ts, id) key.
            let candidate = self
                .pending
                .values()
                .filter(|p| p.final_ts.is_some())
                .min_by_key(|p| p.lower_bound())
                .map(|p| (p.lower_bound(), p.msg.id));
            let Some((key, id)) = candidate else { return };
            // Safe only if every other pending message is guaranteed to
            // end up with a larger key.
            let blocked = self
                .pending
                .values()
                .any(|p| p.msg.id != id && p.lower_bound() < key);
            if blocked {
                return;
            }
            let entry = self.pending.remove(&id).expect("candidate is pending");
            self.delivered_count += 1;
            out.push(Output::Deliver(entry.msg));
        }
    }
}

impl SkeenGroup {
    /// Applies buffered early stamps when the message copy arrives.
    fn drain_early(&mut self, id: MsgId) {
        if let Some(stamps) = self.early.remove(&id) {
            if let Some(entry) = self.pending.get_mut(&id) {
                let dst = entry.msg.dst;
                for (g, ts) in stamps.into_iter().filter(|&(g, _)| dst.contains(g)) {
                    entry.stamps.insert(g, ts);
                }
                if entry.stamps.len() == entry.msg.dst.len() {
                    let f = *entry.stamps.values().max().expect("non-empty");
                    entry.final_ts = Some(f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, DestSet, Payload};

    fn msg(seq: u32, ranks: &[u16]) -> Message {
        Message::new(
            MsgId::new(ClientId(7), seq),
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

    #[test]
    fn local_message_delivers_immediately() {
        let mut g = SkeenGroup::new(GroupId(0));
        let m = msg(0, &[0]);
        let mut out = Vec::new();
        g.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert_eq!(g.backlog(), 0);
        assert_eq!(g.delivered_count(), 1);
    }

    #[test]
    fn global_message_waits_for_all_stamps() {
        let mut a = SkeenGroup::new(GroupId(0));
        let mut b = SkeenGroup::new(GroupId(1));
        let m = msg(0, &[0, 1]);
        let mut out_a = Vec::new();
        a.on_client(m.clone(), &mut out_a);
        assert!(deliveries(&out_a).is_empty(), "needs B's stamp");
        // A sent its stamp to B.
        let ts_to_b = out_a
            .iter()
            .find_map(|o| match o {
                Output::Send { to, pkt } if *to == GroupId(1) => Some(pkt.clone()),
                _ => None,
            })
            .unwrap();
        let mut out_b = Vec::new();
        b.on_client(m.clone(), &mut out_b);
        let ts_to_a = out_b
            .iter()
            .find_map(|o| match o {
                Output::Send { to, pkt } if *to == GroupId(0) => Some(pkt.clone()),
                _ => None,
            })
            .unwrap();
        let mut out_b2 = Vec::new();
        b.on_packet(GroupId(0), ts_to_b, &mut out_b2);
        assert_eq!(deliveries(&out_b2), vec![m.id]);
        let mut out_a2 = Vec::new();
        a.on_packet(GroupId(1), ts_to_a, &mut out_a2);
        assert_eq!(deliveries(&out_a2), vec![m.id]);
    }

    #[test]
    fn delivery_follows_final_timestamp_order() {
        // Two messages to {0,1}; interleave so final timestamps differ.
        let mut a = SkeenGroup::new(GroupId(0));
        let mut b = SkeenGroup::new(GroupId(1));
        let m1 = msg(1, &[0, 1]);
        let m2 = msg(2, &[0, 1]);

        let mut o = Vec::new();
        a.on_client(m1.clone(), &mut o); // A stamps m1 with 1
        a.on_client(m2.clone(), &mut o); // A stamps m2 with 2
        b.on_client(m2.clone(), &mut o); // B stamps m2 with 1
        b.on_client(m1.clone(), &mut o); // B stamps m1 with 2

        // Exchange all stamps. Finals: m1 = max(1,2)=2, m2 = max(2,1)=2;
        // tie broken by id → m1 (seq 1) first everywhere.
        let mut out_a = Vec::new();
        a.on_packet(GroupId(1), SkeenPacket::Ts { id: m1.id, ts: 2 }, &mut out_a);
        a.on_packet(GroupId(1), SkeenPacket::Ts { id: m2.id, ts: 1 }, &mut out_a);
        let mut out_b = Vec::new();
        b.on_packet(GroupId(0), SkeenPacket::Ts { id: m1.id, ts: 1 }, &mut out_b);
        b.on_packet(GroupId(0), SkeenPacket::Ts { id: m2.id, ts: 2 }, &mut out_b);

        assert_eq!(deliveries(&out_a), vec![m1.id, m2.id]);
        assert_eq!(deliveries(&out_b), vec![m1.id, m2.id]);
    }

    #[test]
    fn committed_message_blocked_by_uncommitted_lower_stamp() {
        let mut a = SkeenGroup::new(GroupId(0));
        let m1 = msg(1, &[0, 1]);
        let m2 = msg(2, &[0, 1]);
        let mut o = Vec::new();
        a.on_client(m1.clone(), &mut o); // lts 1
        a.on_client(m2.clone(), &mut o); // lts 2

        // m2 commits with final 2 but m1 (lts 1, uncommitted) could still
        // commit below 2 → m2 must wait.
        let mut out = Vec::new();
        a.on_packet(GroupId(1), SkeenPacket::Ts { id: m2.id, ts: 1 }, &mut out);
        assert!(deliveries(&out).is_empty(), "m1 could still commit first");
        // m1 commits with final 3 → order m2 (2) then m1 (3).
        let mut out2 = Vec::new();
        a.on_packet(GroupId(1), SkeenPacket::Ts { id: m1.id, ts: 3 }, &mut out2);
        assert_eq!(deliveries(&out2), vec![m2.id, m1.id]);
    }

    #[test]
    fn clock_follows_received_stamps() {
        let mut a = SkeenGroup::new(GroupId(0));
        let m1 = msg(1, &[0, 1]);
        let mut o = Vec::new();
        a.on_client(m1.clone(), &mut o);
        a.on_packet(GroupId(1), SkeenPacket::Ts { id: m1.id, ts: 50 }, &mut o);
        assert!(a.clock() >= 50, "Lamport rule");
        // The next message must stamp above everything observed.
        let m2 = msg(2, &[0]);
        let mut out = Vec::new();
        a.on_client(m2.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m2.id]);
    }

    #[test]
    fn stamp_arriving_before_message_is_buffered() {
        let mut a = SkeenGroup::new(GroupId(0));
        let m = msg(1, &[0, 1]);
        let mut o = Vec::new();
        // B's stamp arrives before the client's copy of m.
        a.on_packet(GroupId(1), SkeenPacket::Ts { id: m.id, ts: 4 }, &mut o);
        assert!(deliveries(&o).is_empty());
        let mut o2 = Vec::new();
        a.on_client(m.clone(), &mut o2);
        assert_eq!(deliveries(&o2), vec![m.id], "buffered stamp applied");
    }

    /// A stamp from a group outside the message's destinations does not
    /// count: `m → {0, 1, 2}` at group 0 with stamps from groups 1 and 5
    /// has three stamps but not its three destinations' — whether the
    /// stamps come before the message or after it.
    #[test]
    fn a_stamp_from_outside_the_destinations_is_ignored() {
        let m = msg(1, &[0, 1, 2]);
        let ts = |g: u16, ts| (GroupId(g), SkeenPacket::Ts { id: m.id, ts });
        let mut after = SkeenGroup::new(GroupId(0));
        let mut out = Vec::new();
        after.on_client(m.clone(), &mut out);
        for (from, pkt) in [ts(1, 2), ts(5, 9)] {
            after.on_packet(from, pkt, &mut out);
        }
        assert!(deliveries(&out).is_empty(), "group 2 has not stamped");
        let mut before = SkeenGroup::new(GroupId(0));
        let mut out = Vec::new();
        for (from, pkt) in [ts(1, 2), ts(5, 9)] {
            before.on_packet(from, pkt, &mut out);
        }
        before.on_client(m.clone(), &mut out);
        assert!(deliveries(&out).is_empty(), "group 2 has not stamped");
        // Group 2's stamp completes the set, and group 5's never counted.
        for g in [&mut after, &mut before] {
            let mut out = Vec::new();
            let (from, pkt) = ts(2, 3);
            g.on_packet(from, pkt, &mut out);
            assert_eq!(deliveries(&out), vec![m.id]);
        }
    }
}
