//! Multicast messages and their identifiers.

use crate::{DestSet, Error, GroupId, Result};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Identifier of a client process (`m.sender` in the paper).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Globally unique message identifier (`m.id`).
///
/// Uniqueness is structural: each client stamps its messages with a local
/// sequence number, so `(sender, seq)` never collides across the system.
/// Ordering on `MsgId` is lexicographic and used only for deterministic
/// tie-breaking in data structures, never for delivery order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MsgId {
    /// The issuing client.
    pub sender: ClientId,
    /// Client-local sequence number.
    pub seq: u32,
}

impl MsgId {
    /// Creates a message id from a client id and sequence number.
    #[inline]
    pub fn new(sender: ClientId, seq: u32) -> Self {
        MsgId { sender, seq }
    }
}

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}.{}", self.sender.0, self.seq)
    }
}

/// Application payload carried by a message.
///
/// The protocols never inspect the payload; it only contributes to wire
/// size (Figure 8 measures bytes on the wire). The wrapper is backed by a
/// reference-counted [`Bytes`] buffer, so cloning a message — which the
/// engine does on every deliver, forward, and replicated-outbox entry —
/// bumps a refcount instead of copying the buffer.
///
/// On the wire a payload encodes as raw length-prefixed bytes (not a
/// serde sequence), which both shrinks the encoding and skips the
/// per-element dispatch on the codec hot path.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Payload(pub Bytes);

impl Payload {
    /// Creates an empty payload.
    pub fn empty() -> Self {
        Payload(Bytes::new())
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        self.0.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(v.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload(Bytes::copy_from_slice(v))
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload(b)
    }
}

impl Serialize for Payload {
    fn serialize<S: serde::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.0.as_slice())
    }
}

impl<'de> Deserialize<'de> for Payload {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        struct PayloadVisitor;
        impl<'de> serde::de::Visitor<'de> for PayloadVisitor {
            type Value = Payload;
            fn expecting(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
                f.write_str("a byte buffer")
            }
            fn visit_bytes<E: serde::de::Error>(self, v: &[u8]) -> std::result::Result<Payload, E> {
                Ok(Payload(Bytes::copy_from_slice(v)))
            }
            fn visit_byte_buf<E: serde::de::Error>(
                self,
                v: Vec<u8>,
            ) -> std::result::Result<Payload, E> {
                Ok(Payload(v.into()))
            }
        }
        deserializer.deserialize_byte_buf(PayloadVisitor)
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({}B)", self.0.len())
    }
}

/// A watermark advertisement: the compact summary of history knowledge a
/// group sends *upstream* (against the C-DAG edge direction) so ancestors
/// can suppress history entries the group provably already processed.
///
/// Two vectors, both meaning "everything up to and including this
/// sequence number, per key" — the prefixes of the per-key seen sets in
/// `flexcast-core`, which keep whatever lies past a prefix (a hole's far
/// side) to themselves:
///
/// * `clients` — per [`ClientId`], the contiguous prefix of message
///   sequence numbers whose history *vertices* this group has admitted
///   (or tombstoned after garbage collection). Matches
///   `History::client_watermarks` in `flexcast-core`.
/// * `edges` — per creator [`GroupId`], the contiguous prefix of that
///   group's chain-edge indices this group has processed. Every history
///   edge is created by exactly one group (the group that delivered the
///   edge's target right after its source) and carries that creator's
///   index, so edge knowledge compresses the same way vertex knowledge
///   does. A receiver ignores an entry for a creator outside its
///   overlay.
///
/// Advertisements are *monotone* and *conservative*: watermarks only
/// ever advance, receivers merge them by taking the per-key maximum, and
/// a lost or stale advertisement merely makes upstream suppression less
/// effective — never incorrect. Entries are `(key, watermark)` pairs
/// rather than a map so incremental advertisements (only the keys that
/// changed since the last one) stay cheap on the wire.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Watermarks {
    /// Per-client vertex watermark: all seqs `<= wm` have been admitted.
    pub clients: Vec<(ClientId, u32)>,
    /// Per-creator chain-edge watermark: all indices `<= wm` processed.
    pub edges: Vec<(GroupId, u32)>,
}

impl Watermarks {
    /// True if the advertisement carries no entries.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty() && self.edges.is_empty()
    }

    /// Number of `(key, watermark)` entries carried.
    pub fn len(&self) -> usize {
        self.clients.len() + self.edges.len()
    }
}

/// An application multicast message (paper Algorithm 1, lines 1–7).
///
/// A message knows its unique [`MsgId`], its destination groups `dst`, and
/// an opaque payload. `lca()` returns the lowest-ranked destination, which
/// in FlexCast's C-DAG overlay is where the message enters the overlay.
///
/// # Examples
///
/// ```
/// use flexcast_types::{ClientId, DestSet, GroupId, Message, MsgId};
///
/// let m = Message::new(
///     MsgId::new(ClientId(7), 0),
///     DestSet::from_iter([GroupId(1), GroupId(4)]),
///     b"new-order".as_slice().into(),
/// ).unwrap();
/// assert_eq!(m.lca(), GroupId(1));
/// assert!(m.is_global());
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Message {
    /// Globally unique identifier.
    pub id: MsgId,
    /// Destination groups (`m.dst`).
    pub dst: DestSet,
    /// Opaque application payload.
    pub payload: Payload,
}

const _: () = assert!(std::mem::size_of::<Message>() == 40);

/// Decoding goes through [`Message::new`]: bytes off a socket must not
/// yield a message whose [`Message::lca`] panics.
impl<'de> Deserialize<'de> for Message {
    fn deserialize<D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Unchecked {
            id: MsgId,
            dst: DestSet,
            payload: Payload,
        }
        let Unchecked { id, dst, payload } = Unchecked::deserialize(deserializer)?;
        Message::new(id, dst, payload).map_err(serde::de::Error::custom)
    }
}

impl Message {
    /// Creates a message, rejecting empty destination sets.
    pub fn new(id: MsgId, dst: DestSet, payload: Payload) -> Result<Self> {
        if dst.is_empty() {
            return Err(Error::EmptyDestinations);
        }
        Ok(Message { id, dst, payload })
    }

    /// The lowest common ancestor of the destinations: the lowest-ranked
    /// group in `dst` (`m.lca()` in Algorithm 1).
    ///
    /// # Panics
    ///
    /// Never panics for messages built through [`Message::new`] — which
    /// decoding also goes through — since it rejects empty destination
    /// sets.
    #[inline]
    pub fn lca(&self) -> GroupId {
        self.dst
            .lowest()
            .expect("Message::new guarantees a non-empty destination set")
    }

    /// True if the message is addressed to two or more groups.
    #[inline]
    pub fn is_global(&self) -> bool {
        self.dst.is_global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(sender: u32, seq: u32, ranks: &[u16]) -> Message {
        Message::new(
            MsgId::new(ClientId(sender), seq),
            DestSet::try_from_ranks(ranks.iter().copied()).unwrap(),
            Payload::empty(),
        )
        .unwrap()
    }

    #[test]
    fn msg_id_uniqueness_is_structural() {
        let a = MsgId::new(ClientId(1), 0);
        let b = MsgId::new(ClientId(1), 1);
        let c = MsgId::new(ClientId(2), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, MsgId::new(ClientId(1), 0));
    }

    #[test]
    fn lca_is_lowest_destination() {
        assert_eq!(msg(0, 0, &[4, 2, 9]).lca(), GroupId(2));
        assert_eq!(msg(0, 0, &[7]).lca(), GroupId(7));
    }

    #[test]
    fn empty_destinations_rejected() {
        let r = Message::new(MsgId::new(ClientId(0), 0), DestSet::EMPTY, Payload::empty());
        assert!(matches!(r, Err(Error::EmptyDestinations)));
    }

    #[test]
    fn local_vs_global_classification() {
        assert!(!msg(0, 0, &[3]).is_global());
        assert!(msg(0, 0, &[3, 5]).is_global());
    }

    #[test]
    fn payload_helpers() {
        assert!(Payload::empty().is_empty());
        let p: Payload = vec![1, 2, 3].into();
        assert_eq!(p.len(), 3);
        assert_eq!(format!("{:?}", p), "Payload(3B)");
    }

    #[test]
    fn display_formats() {
        assert_eq!(MsgId::new(ClientId(3), 9).to_string(), "m3.9");
        assert_eq!(ClientId(3).to_string(), "c3");
    }

    #[test]
    fn watermarks_empty_and_len() {
        let mut w = Watermarks::default();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        w.clients.push((ClientId(1), 7));
        w.edges.push((GroupId(0), 3));
        w.edges.push((GroupId(2), 0));
        assert!(!w.is_empty());
        assert_eq!(w.len(), 3);
    }
}
