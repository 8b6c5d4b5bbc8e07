//! Baseline atomic multicast protocols from the paper's evaluation (§5.1).
//!
//! The paper compares FlexCast against one representative of each other
//! protocol class in Table 1:
//!
//! * [`skeen`] — Skeen's protocol, the classic *genuine distributed*
//!   atomic multicast: destinations exchange logical timestamps and
//!   deliver in final-timestamp order. With single-process groups,
//!   FastCast and WhiteBox behave like Skeen, which makes it the right
//!   stand-in for the whole family. Two communication steps, which is
//!   optimal for this class.
//! * [`hier`] — a ByzCast-style *non-genuine hierarchical* protocol:
//!   messages go to the tree lowest-common-ancestor of their destinations
//!   and flow down the tree, ordered at every visited group — including
//!   groups that are not destinations, which is the communication
//!   overhead quantified in Figures 1 and 9.
//!
//! Both engines are sans-io state machines that keep FlexCast's contract:
//! each input — a client's copy of a multicast, or a packet from a peer
//! group — appends [`flexcast_types::Output`]s over the engine's own packet
//! type and returns whether the engine took it. The engines own their
//! intake rules, so the harness's server drives all three protocols
//! through one path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hier;
pub mod skeen;

pub use hier::{HierGroup, HierPacket};
pub use skeen::{SkeenGroup, SkeenPacket};
