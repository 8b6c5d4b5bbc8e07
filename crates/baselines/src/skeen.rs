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
//!
//! The engine owns its intake rules and returns a verdict per input, as
//! FlexCast's does. It takes a client's copy of a multicast once, and only
//! when every destination is inside the overlay and this group is one of
//! them; it takes a stamp only from another group of the overlay, once per
//! destination of a pending message, and never for a message it has
//! delivered. Anything else is refused and changes nothing.

use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId, Output};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Packets exchanged by Skeen's protocol. Clients send their copies of a
/// multicast as client messages, to every destination, so the only packet
/// between groups is a stamp.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum SkeenPacket {
    /// A local timestamp for message `id`, sent between destinations.
    Ts {
        /// The message being stamped.
        id: MsgId,
        /// The sender's local logical timestamp for it.
        ts: u64,
    },
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

    /// Commits the message once every destination has stamped it: its
    /// final timestamp is the largest stamp.
    fn settle(&mut self) {
        if self.stamps.len() == self.msg.dst.len() {
            self.final_ts = self.stamps.values().max().copied();
        }
    }
}

/// One group (single process) running Skeen's protocol.
#[derive(Clone, Debug)]
pub struct SkeenGroup {
    g: GroupId,
    /// Every group of the overlay.
    groups: DestSet,
    clock: u64,
    pending: BTreeMap<MsgId, PendingMsg>,
    /// Stamps that arrived before the message itself (links from different
    /// groups are not mutually ordered).
    early: BTreeMap<MsgId, BTreeMap<GroupId, u64>>,
    /// Each client's highest sequence number this group has taken. A
    /// closed-loop client's copies reach each group in sequence order, so
    /// a copy at or below it is one this group took already.
    taken: BTreeMap<ClientId, u32>,
}

impl SkeenGroup {
    /// Creates the engine for group `g` of an `n`-group overlay.
    pub fn new(g: GroupId, n: usize) -> Self {
        assert!(g.index() < n, "group outside the overlay");
        SkeenGroup {
            g,
            groups: DestSet::all(n),
            clock: 0,
            pending: BTreeMap::new(),
            early: BTreeMap::new(),
            taken: BTreeMap::new(),
        }
    }

    /// Current logical clock (diagnostics).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Messages stamped but not yet delivered.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// True if this group has taken a client copy of `id`, pending or
    /// delivered.
    fn took(&self, id: MsgId) -> bool {
        self.taken.get(&id.sender).is_some_and(|&seq| id.seq <= seq)
    }

    /// Takes the client's copy of multicast `m`: clients send one to
    /// *every* destination. False if it is refused: a destination outside
    /// the overlay, a message not addressed here, a copy of a multicast
    /// this group already took, or a clock with no stamp left.
    pub fn on_client(&mut self, m: Message, out: &mut Vec<Output<SkeenPacket>>) -> bool {
        if !m.dst.is_subset(self.groups) || !m.dst.contains(self.g) || self.took(m.id) {
            return false;
        }
        let Some(local_ts) = self.clock.checked_add(1) else {
            return false;
        };
        self.clock = local_ts;
        self.taken.insert(m.id.sender, m.id.seq);
        for to in m.dst.iter().filter(|&d| d != self.g) {
            let pkt = SkeenPacket::Ts {
                id: m.id,
                ts: local_ts,
            };
            out.push(Output::Send { to, pkt });
        }
        // Stamps that beat the client's copy here count now, those of
        // destinations only.
        let mut stamps = BTreeMap::from([(self.g, local_ts)]);
        let early = self.early.remove(&m.id).unwrap_or_default();
        stamps.extend(early.into_iter().filter(|&(g, _)| m.dst.contains(g)));
        let mut entry = PendingMsg {
            local_ts,
            stamps,
            final_ts: None,
            msg: m,
        };
        entry.settle();
        self.pending.insert(entry.msg.id, entry);
        self.try_deliver(out);
        true
    }

    /// Takes a stamp from group `from`. False if it is refused: a sender
    /// that is this group or outside the overlay, a second stamp from one
    /// group, a stamp from a group that is no destination of the pending
    /// message, or one for a message this group has delivered. Only a
    /// destination stamps: another group's stamp could complete the set
    /// early and fix a wrong final timestamp.
    pub fn on_packet(
        &mut self,
        from: GroupId,
        pkt: SkeenPacket,
        out: &mut Vec<Output<SkeenPacket>>,
    ) -> bool {
        let SkeenPacket::Ts { id, ts } = pkt;
        if from == self.g || !self.groups.contains(from) {
            return false;
        }
        let took = self.took(id);
        match self.pending.get_mut(&id) {
            Some(entry) => {
                if !entry.msg.dst.contains(from) || entry.stamps.contains_key(&from) {
                    return false;
                }
                entry.stamps.insert(from, ts);
                entry.settle();
            }
            // Taken and no longer pending: delivered.
            None if took => return false,
            // The stamp beat the client's copy here: it counts once the
            // copy arrives.
            None => {
                let early = self.early.entry(id).or_default();
                if early.contains_key(&from) {
                    return false;
                }
                early.insert(from, ts);
            }
        }
        // Lamport receive rule keeps future local stamps above everything
        // we have observed.
        self.clock = self.clock.max(ts);
        self.try_deliver(out);
        true
    }

    /// Delivers every committed message whose (final, id) key is below the
    /// lower bound of all other pending messages.
    fn try_deliver(&mut self, out: &mut Vec<Output<SkeenPacket>>) {
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
            // Cannot fire: `id` was read off `pending` just above.
            let entry = self.pending.remove(&id).expect("candidate is pending");
            out.push(Output::Deliver(entry.msg));
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

    fn deliveries(out: &[Output<SkeenPacket>]) -> Vec<MsgId> {
        out.iter()
            .filter_map(|o| match o {
                Output::Deliver(m) => Some(m.id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn local_message_delivers_immediately() {
        let mut g = SkeenGroup::new(GroupId(0), 6);
        let m = msg(0, &[0]);
        let mut out = Vec::new();
        g.on_client(m.clone(), &mut out);
        assert_eq!(deliveries(&out), vec![m.id]);
        assert_eq!(g.backlog(), 0);
    }

    #[test]
    fn global_message_waits_for_all_stamps() {
        let mut a = SkeenGroup::new(GroupId(0), 6);
        let mut b = SkeenGroup::new(GroupId(1), 6);
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
        let mut a = SkeenGroup::new(GroupId(0), 6);
        let mut b = SkeenGroup::new(GroupId(1), 6);
        let m1 = msg(1, &[0, 1]);
        // From another client: one client's copies reach each group in
        // sequence order, and B takes m2 first.
        let m2 = Message {
            id: MsgId::new(ClientId(8), 2),
            ..msg(2, &[0, 1])
        };

        let mut o = Vec::new();
        a.on_client(m1.clone(), &mut o); // A stamps m1 with 1
        a.on_client(m2.clone(), &mut o); // A stamps m2 with 2
        b.on_client(m2.clone(), &mut o); // B stamps m2 with 1
        b.on_client(m1.clone(), &mut o); // B stamps m1 with 2

        // Exchange all stamps. Finals: m1 = max(1,2)=2, m2 = max(2,1)=2;
        // tie broken by id → m1 (client 7) first everywhere.
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
        let mut a = SkeenGroup::new(GroupId(0), 6);
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
        let mut a = SkeenGroup::new(GroupId(0), 6);
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
        let mut a = SkeenGroup::new(GroupId(0), 6);
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
        let mut after = SkeenGroup::new(GroupId(0), 6);
        let mut out = Vec::new();
        after.on_client(m.clone(), &mut out);
        for (from, pkt) in [ts(1, 2), ts(5, 9)] {
            after.on_packet(from, pkt, &mut out);
        }
        assert!(deliveries(&out).is_empty(), "group 2 has not stamped");
        let mut before = SkeenGroup::new(GroupId(0), 6);
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

    /// A group takes each multicast once, only when it is a destination
    /// inside the overlay, and a stamp only once per destination, from
    /// another group, for a message it has not delivered. Each refusal
    /// changes nothing: the clock does not move and nothing is sent.
    #[test]
    fn inputs_the_engine_cannot_order_are_refused() {
        let mut a = SkeenGroup::new(GroupId(0), 6);
        let m = msg(1, &[0, 1]);
        let mut out = Vec::new();
        assert!(a.on_client(m.clone(), &mut out));
        let ts = |id, ts| SkeenPacket::Ts { id, ts };
        let mut refused = vec![
            a.on_client(m.clone(), &mut out),
            a.on_client(msg(0, &[0, 1]), &mut out),
            a.on_client(msg(2, &[1, 2]), &mut out),
            a.on_client(msg(3, &[0, 6]), &mut out),
            a.on_packet(GroupId(0), ts(m.id, 9), &mut out),
            a.on_packet(GroupId(6), ts(m.id, 9), &mut out),
            a.on_packet(GroupId(2), ts(m.id, 9), &mut out),
        ];
        assert_eq!((a.clock(), out.len()), (1, 1), "one stamp sent, to B");
        assert!(a.on_packet(GroupId(1), ts(m.id, 4), &mut out));
        assert_eq!(deliveries(&out), vec![m.id]);
        // Delivered: a late stamp for it is refused, and so is a second
        // early one from one group.
        refused.push(a.on_packet(GroupId(1), ts(m.id, 5), &mut out));
        let next = msg(4, &[0, 1]).id;
        assert!(a.on_packet(GroupId(1), ts(next, 6), &mut out));
        refused.push(a.on_packet(GroupId(1), ts(next, 7), &mut out));
        assert_eq!(refused, vec![false; 9]);
        assert_eq!(a.clock(), 6);
    }

    /// A stamp at the top of the clock is taken, but leaves no stamp for
    /// another multicast: the next client copy is refused, not stamped
    /// with a wrapped or repeated timestamp.
    #[test]
    fn a_multicast_past_the_last_stamp_is_refused() {
        let mut a = SkeenGroup::new(GroupId(0), 6);
        let mut out = Vec::new();
        let far = msg(1, &[0, 1]).id;
        assert!(a.on_packet(
            GroupId(1),
            SkeenPacket::Ts {
                id: far,
                ts: u64::MAX
            },
            &mut out
        ));
        assert!(!a.on_client(msg(2, &[0]), &mut out));
        assert_eq!((a.clock(), a.backlog()), (u64::MAX, 0));
    }
}
