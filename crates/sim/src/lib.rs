//! Deterministic discrete-event simulator.
//!
//! The paper evaluates FlexCast on an emulated WAN (CloudLab machines with
//! AWS-derived latencies, §5.2). This crate replaces that testbed with a
//! deterministic discrete-event simulation: actors exchange messages over
//! FIFO links whose delays come from a [`LinkModel`] built on the same
//! AWS latency matrix. Determinism (a seeded RNG and a totally ordered
//! event queue) makes every experiment exactly reproducible, which the
//! paper's physical testbed cannot offer.
//!
//! The simulator is protocol-agnostic: protocol engines plug in through the
//! [`Actor`] trait and an arbitrary message type `M`. Time is modelled in
//! nanoseconds ([`SimTime`]) so that sub-millisecond local latencies and
//! multi-second WAN experiments coexist without rounding.
//!
//! A [`World`] keeps one event queue. [`World::set_shards`] only labels
//! each process with a block of sites, so that
//! [`SimStats::events_by_shard`] can say how the events split across
//! regions; labels never change the execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod link;
pub mod linkstate;
pub mod obs;
pub mod stats;
pub mod time;
pub mod world;

pub use fault::LinkFault;
pub use link::LinkModel;
pub use linkstate::LinkState;
pub use obs::Observation;
pub use stats::{Percentiles, SimStats, Summary};
pub use time::SimTime;
pub use world::{Actor, Ctx, ProcessId, ShardExecution, World};
