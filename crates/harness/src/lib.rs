//! Experiment harness: runs any of the three atomic multicast protocols on
//! the deterministic simulator under the gTPC-C workload, validates the
//! atomic multicast properties on the resulting trace, and reports the
//! statistics the paper plots.
//!
//! The moving parts:
//!
//! * [`netmsg`] — the simulator message type wrapping each protocol's
//!   packets plus client traffic, with wire-size accounting.
//! * [`actors`] — simulator actors: protocol servers (adapting the sans-io
//!   engines) and closed-loop gTPC-C clients that measure per-destination
//!   response latency exactly as the paper does (§5.3: "upon delivering a
//!   message, each message destination replies to the message's sender").
//! * [`checker`] — validates Validity, Agreement, Integrity, Prefix order,
//!   and Acyclic order on the delivery trace of a run (§2.2), plus the
//!   payload-overhead metric used to quantify (non-)genuineness (§5.8).
//! * [`experiment`] — configuration and runner gluing it all together;
//!   every figure/table binary in `flexcast-bench` is a thin loop over
//!   [`experiment::run`].
//! * [`replicated`] — FlexCast groups as quorums of Paxos replicas
//!   (`flexcast-smr`), surviving crashes, failovers, and partitions
//!   injected by `flexcast-chaos`; the checker gains a replica-lockstep
//!   property for these runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actors;
pub mod checker;
pub mod experiment;
pub mod netmsg;
pub mod replicated;

pub use checker::{CheckReport, DeliveryEvent};
pub use experiment::{run, run_on, ExperimentConfig, ExperimentResult, NodeStats, ProtocolKind};
pub use netmsg::NetMsg;
pub use replicated::{ReplicatedConfig, ReplicatedResult};
