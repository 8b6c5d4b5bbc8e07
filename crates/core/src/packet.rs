//! Inter-group packets (the three message kinds of Algorithm 2).

use crate::history::{HistoryDelta, MsgRef};
use flexcast_types::{GroupId, Message, Watermarks};
use serde::{Deserialize, Serialize};

/// A `(notifier, notified)` pair: `notifier` sent a notif about a message
/// to `notified`, so destinations must collect an ack from `notified`
/// *responding to that notifier*.
///
/// The paper's Algorithm 1 keeps `m.notifList` as a plain set of groups,
/// but a set is not enough: a group can be notified by several groups at
/// different times, and only the ack responding to the *later* notifier
/// is guaranteed to carry the dependencies that notifier knew about. (See
/// `DESIGN.md` §"Correctness deviation" for the counterexample.) Tracking
/// pairs — and tagging acks with the prompting notifier ([`Packet::Ack`]'s
/// `via`) — closes that race while keeping the protocol's message flow,
/// genuineness, and communication pattern identical.
pub type NotifPair = (GroupId, GroupId);

/// A packet exchanged between FlexCast groups over the C-DAG edges.
///
/// Every packet carries a [`HistoryDelta`]: the part of the sender's
/// history the receiver has not yet seen from this sender (`diff-hst`).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Packet {
    /// An application message forwarded by its lca to another destination
    /// (`[msg, m, history]`).
    Msg {
        /// The full application message (with payload).
        msg: Message,
        /// Notification pairs issued so far for this message (the richer
        /// `m.notifList`); receivers must collect matching acks.
        notif_pairs: Vec<NotifPair>,
        /// The sender's history diff.
        hist: HistoryDelta,
    },
    /// An acknowledgement — from a lower destination, or from a notified
    /// non-destination — to a higher destination (`[ack, m, history]`).
    Ack {
        /// Which message is being acknowledged (id + destinations).
        mref: MsgRef,
        /// What prompted this ack: the sender itself for destination
        /// acks, or the group whose notif the sender is responding to.
        via: GroupId,
        /// Notification pairs the sender issued while acking (merged into
        /// the receiver's requirements, Alg. 2 line 10).
        notif_pairs: Vec<NotifPair>,
        /// The sender's history diff.
        hist: HistoryDelta,
    },
    /// A notification asking a non-destination group to propagate its
    /// dependencies for `mref` down the C-DAG (`[notif, m, history]`).
    Notif {
        /// The message the notification concerns.
        mref: MsgRef,
        /// The sender's history diff.
        hist: HistoryDelta,
    },
    /// A watermark advertisement — the only packet that travels *against*
    /// the C-DAG edges, from a group to an ancestor it receives from. It
    /// summarizes which history entries the sender has already processed
    /// ([`Watermarks`]), so the ancestor can suppress them from future
    /// `diff-hst` deltas on that link. Advertisements carry no history
    /// and affect no ordering decision; losing or reordering them only
    /// costs suppression coverage, never correctness.
    Advert {
        /// The advertised per-client vertex and per-creator edge
        /// watermarks (incremental: only entries that changed since the
        /// sender's previous advertisement on this link).
        wm: Watermarks,
    },
}

impl Packet {
    /// The history delta carried by this packet, if any (advertisements
    /// carry none).
    pub fn hist(&self) -> Option<&HistoryDelta> {
        match self {
            Packet::Msg { hist, .. } | Packet::Ack { hist, .. } | Packet::Notif { hist, .. } => {
                Some(hist)
            }
            Packet::Advert { .. } => None,
        }
    }

    /// A short tag for logging and traffic accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            Packet::Msg { .. } => "msg",
            Packet::Ack { .. } => "ack",
            Packet::Notif { .. } => "notif",
            Packet::Advert { .. } => "advert",
        }
    }

    /// True for packets that carry an application payload (used by the
    /// overhead metric of §5.8, which counts payload messages only).
    pub fn is_payload(&self) -> bool {
        matches!(self, Packet::Msg { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcast_types::{ClientId, DestSet, GroupId, MsgId, Payload};

    fn mref() -> MsgRef {
        MsgRef {
            id: MsgId::new(ClientId(1), 2),
            dst: DestSet::from_iter([GroupId(0), GroupId(1)]),
        }
    }

    #[test]
    fn kinds_and_payload_flags() {
        let msg = Packet::Msg {
            msg: Message::new(mref().id, mref().dst, Payload::empty()).unwrap(),
            notif_pairs: vec![],
            hist: HistoryDelta::empty(),
        };
        let ack = Packet::Ack {
            mref: mref(),
            via: GroupId(0),
            notif_pairs: vec![],
            hist: HistoryDelta::empty(),
        };
        let notif = Packet::Notif {
            mref: mref(),
            hist: HistoryDelta::empty(),
        };
        let advert = Packet::Advert {
            wm: Watermarks::default(),
        };
        assert_eq!(msg.kind(), "msg");
        assert_eq!(ack.kind(), "ack");
        assert_eq!(notif.kind(), "notif");
        assert_eq!(advert.kind(), "advert");
        assert!(msg.is_payload());
        assert!(!ack.is_payload());
        assert!(!notif.is_payload());
        assert!(!advert.is_payload());
        assert!(msg.hist().expect("msg carries a delta").is_empty());
        assert!(advert.hist().is_none(), "adverts carry no history");
    }

    #[test]
    fn packets_roundtrip_on_the_wire() {
        let ack = Packet::Ack {
            mref: mref(),
            via: GroupId(2),
            notif_pairs: vec![(GroupId(1), GroupId(2))],
            hist: HistoryDelta::empty(),
        };
        let bytes = flexcast_wire::to_bytes(&ack).unwrap();
        let back: Packet = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, ack);
    }

    #[test]
    fn adverts_roundtrip_on_the_wire() {
        use flexcast_types::ClientId;
        let advert = Packet::Advert {
            wm: Watermarks {
                clients: vec![(ClientId(3), 17), (ClientId(9), 0)],
                edges: vec![(GroupId(0), 4), (GroupId(7), 123_456)],
            },
        };
        let bytes = flexcast_wire::to_bytes(&advert).unwrap();
        let back: Packet = flexcast_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, advert);
        assert_eq!(
            flexcast_wire::encoded_len(&advert).unwrap(),
            bytes.len(),
            "encoded_len matches the real encoding for adverts"
        );
    }
}
