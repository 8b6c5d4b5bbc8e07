//! Core identifiers and message types shared by every crate in the FlexCast
//! workspace.
//!
//! The paper ("FlexCast: genuine overlay-based atomic multicast",
//! MIDDLEWARE 2023) models a system of client processes that multicast
//! messages to *groups* of server processes. This crate defines:
//!
//! * [`GroupId`] — a dense numeric group identifier (the paper's rank space),
//! * [`DestSet`] — the destination set `m.dst`, a compact bitset over groups,
//! * [`MsgId`] / [`Message`] — a multicast message with a globally unique id,
//! * [`ClientId`] — identifier of a message sender,
//! * [`Watermarks`] — the per-client / per-creator watermark advertisement
//!   groups send upstream for protocol-level history-delta suppression.
//!
//! All types are plain data: they serialize with `serde` (the wire format
//! lives in `flexcast-wire`) and carry no interior mutability, so protocol
//! engines built on them stay deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dest;
pub mod error;
pub mod message;

pub use bytes::Bytes;
pub use dest::{DestSet, TaggedDestSet, MAX_GROUPS};
pub use error::{Error, Result};
pub use message::{ClientId, Message, MsgId, Payload, Watermarks};

use serde::{Deserialize, Serialize};

/// Identifier of a server group.
///
/// Groups are the unit of addressing in atomic multicast: a message is
/// multicast to a set of groups and every (correct) process in each
/// destination group delivers it. FlexCast additionally assumes a total
/// order on groups — the *rank* — and this crate uses the numeric value of
/// the `GroupId` as that rank (`0` is the lowest/most-ancestral group).
///
/// `GroupId` is a dense index in `0..MAX_GROUPS`; see [`DestSet`] for the
/// compact destination-set representation this enables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u16);

impl GroupId {
    /// Returns the numeric rank of this group (identity on the inner value).
    #[inline]
    pub fn rank(self) -> u16 {
        self.0
    }

    /// Returns the group as a `usize` index, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u16> for GroupId {
    fn from(v: u16) -> Self {
        GroupId(v)
    }
}

impl std::fmt::Debug for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_id_orders_by_rank() {
        assert!(GroupId(0) < GroupId(1));
        assert!(GroupId(3) > GroupId(2));
        assert_eq!(GroupId(7).rank(), 7);
        assert_eq!(GroupId(7).index(), 7);
    }

    #[test]
    fn group_id_display() {
        assert_eq!(GroupId(4).to_string(), "g4");
        assert_eq!(format!("{:?}", GroupId(4)), "g4");
    }

    #[test]
    fn group_id_from_u16() {
        let g: GroupId = 9u16.into();
        assert_eq!(g, GroupId(9));
    }
}
