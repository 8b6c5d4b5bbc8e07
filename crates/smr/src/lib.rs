//! State machine replication substrate (paper §4.4).
//!
//! FlexCast tolerates failures "using the same approach used in other
//! atomic multicast protocols": processes within a group stay consistent
//! through state machine replication, so a group acts as one reliable
//! entity as long as a quorum of its replicas survives. The paper names
//! Paxos as the canonical choice; this crate implements single-leader
//! multi-Paxos:
//!
//! * [`Replica`] — a sans-io Paxos replica: ballots, prepare/promise,
//!   accept/accepted, commit learning, and leader election on timeout.
//! * [`BallotLeaderElection`] — an Omni-Paxos-style heartbeat-round
//!   leader oracle that elects exactly one stable leader whenever some
//!   replica is quorum-connected, feeding [`Replica::handle_leader`].
//! * [`ReplicatedGroup`] — glues a quorum of replicas to any deterministic
//!   group engine (e.g. `flexcast_core::FlexCastGroup`): the leader
//!   proposes inputs as commands (elsewhere nothing is proposed, and the
//!   host keeps the input), and each replica applies the committed command
//!   sequence to its local engine copy, keeping all replicas in lockstep.
//!
//! Safety holds under arbitrary message loss, duplication, and reordering;
//! liveness needs a quorum and eventual timely delivery (the standard
//! partially-synchronous assumption of §2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ble;
pub mod group;
pub mod paxos;

pub use ble::{BallotLeaderElection, BleMsg, BleOutput};
pub use group::{GroupEffect, ReplicatedGroup};
pub use paxos::{Ballot, PaxosMsg, Replica, SmrOutput};
