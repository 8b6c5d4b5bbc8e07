//! Thread-based TCP runtime for the protocol engines.
//!
//! The simulator (`flexcast-sim`) is the primary evaluation substrate, but
//! a reproduction a downstream user can adopt needs to run on a real
//! network too. This crate provides that: length-prefixed framing over
//! TCP ([`framing`]), a per-node runtime ([`runtime::NodeRuntime`]) with
//! an acceptor thread and one reader thread per inbound connection, and
//! FIFO reliable delivery per link — the channel model the paper assumes
//! — courtesy of TCP itself.
//!
//! Writes run on the caller's thread: `send` appends a frame to the
//! peer's buffer, and the buffer goes out in one write when the caller
//! next polls (`drain`, `recv_timeout`), calls `flush`, fills 64 KiB, or
//! drops the runtime.
//!
//! The runtime is engine-agnostic: it moves opaque byte frames tagged with
//! the sender's node id. Callers encode protocol packets with
//! `flexcast-wire` (see `tests/tcp_flexcast.rs` in the workspace root).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
pub mod runtime;

pub use framing::{read_frame, write_frame, MAX_FRAME};
pub use runtime::NodeRuntime;
