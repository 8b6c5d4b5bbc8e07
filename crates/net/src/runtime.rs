//! Per-node TCP runtime.

use crate::framing::{append_frame, read_frame, write_frame};
use crossbeam::channel::{unbounded, Receiver, Sender};
use flexcast_types::{Error, GroupId, Result};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pending bytes per peer at which [`NodeRuntime::send`] writes them out
/// itself instead of waiting for the next poll; also the reader's buffer.
const SEND_BUF: usize = 64 * 1024;

/// The handshake/header frame identifying the sender of a connection.
#[derive(Serialize, Deserialize)]
struct Hello {
    from: u16,
}

/// A received frame: the sending node and the opaque body.
pub type Incoming = (GroupId, Vec<u8>);

/// One outbound connection and the frames queued on it.
struct Peer {
    stream: TcpStream,
    /// Encoded frames not yet written to `stream`.
    buf: Vec<u8>,
    /// A write failed: the connection is unusable.
    closed: bool,
}

impl Peer {
    /// Writes every pending byte in one `write_all`. A failure marks the
    /// peer closed; writing to a closed peer is an error.
    fn flush(&mut self, peer: GroupId) -> Result<()> {
        if !self.closed && !self.buf.is_empty() {
            self.closed = self.stream.write_all(&self.buf).is_err();
            self.buf.clear();
        }
        if self.closed {
            return Err(closed(peer));
        }
        Ok(())
    }
}

fn closed(peer: GroupId) -> Error {
    Error::Config(format!("connection to {peer} closed"))
}

/// A node endpoint: accepts inbound connections, dials peers, and moves
/// opaque frames with FIFO-per-link reliability (TCP's own guarantee —
/// exactly the channel model of the paper's §2.1).
///
/// Threads: one acceptor and one reader per inbound connection. Writes
/// run on the caller's thread. All incoming frames funnel into a single
/// channel consumed via [`NodeRuntime::recv_timeout`] or
/// [`NodeRuntime::drain`], so the caller can run its protocol engine
/// single-threaded — matching the engines' deterministic, sans-io design.
///
/// Sending: [`NodeRuntime::send`] appends the frame to the peer's buffer.
/// The buffer reaches the socket, in one write, at the caller's next
/// [`drain`](NodeRuntime::drain), [`recv_timeout`](NodeRuntime::recv_timeout)
/// or [`flush`](NodeRuntime::flush), or when it holds 64 KiB, or on drop.
/// An event loop that returns to receiving after it dispatches therefore
/// needs no explicit flush; a caller that sends on one runtime and then
/// waits on another from the same thread calls `flush` in between.
/// Backpressure: at most 64 KiB plus one frame wait per peer; past that
/// `send` blocks in the kernel write until the peer's socket takes it.
///
/// The inbound channel is unbounded on purpose. A single thread that
/// owns both ends of a link — a driver sending on one runtime and
/// draining another — would deadlock on a bounded one: its write blocks
/// on a full socket whose reader blocks on a full channel that only the
/// writing thread empties.
///
/// Shutdown is complete, not best-effort: `Drop` writes out every pending
/// frame, closes the outbound connections, shuts down every inbound one
/// (unblocking its reader), nudges the acceptor out of `accept`, and
/// joins all threads. Nothing is detached, so dropping a runtime cannot
/// leak a blocked thread.
pub struct NodeRuntime {
    id: GroupId,
    addr: SocketAddr,
    incoming_rx: Receiver<Incoming>,
    /// Outbound connections.
    outgoing: Mutex<HashMap<GroupId, Peer>>,
    /// The acceptor thread, joined on drop after a wake-up nudge.
    acceptor: Option<JoinHandle<()>>,
    /// One reader thread per inbound connection (shared with the acceptor,
    /// which spawns them).
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Stream clones for every inbound connection; shut down on drop to
    /// unblock readers parked in blocking reads.
    conns: Arc<Mutex<Vec<TcpStream>>>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
}

impl NodeRuntime {
    /// Binds a node runtime on `addr` (use port 0 for an ephemeral port;
    /// the bound address is available via [`NodeRuntime::local_addr`]).
    pub fn bind(id: GroupId, addr: SocketAddr) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (in_tx, in_rx) = unbounded::<Incoming>();
        let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor_tx = in_tx.clone();
        let stop = shutdown.clone();
        let reader_handles = readers.clone();
        let conn_registry = conns.clone();
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                // The flag is checked the moment `accept` returns: the
                // shutdown nudge connection trips it without ever being
                // served, so no reader is spawned for it.
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Ok(clone) = stream.try_clone() {
                    conn_registry.lock().push(clone);
                }
                let tx = acceptor_tx.clone();
                let handle = std::thread::spawn(move || {
                    let _ = reader_loop(stream, tx);
                });
                reader_handles.lock().push(handle);
            }
        });

        Ok(NodeRuntime {
            id,
            addr: local,
            incoming_rx: in_rx,
            outgoing: Mutex::new(HashMap::new()),
            acceptor: Some(acceptor),
            readers,
            conns,
            shutdown,
        })
    }

    /// This node's id.
    pub fn id(&self) -> GroupId {
        self.id
    }

    /// The address this runtime listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Dials a peer and registers it for [`NodeRuntime::send`]. The
    /// connection announces this node's id so the peer can attribute
    /// frames.
    pub fn connect(&mut self, peer: GroupId, addr: SocketAddr) -> Result<()> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let hello = flexcast_wire::to_bytes(&Hello {
            from: self.id.rank(),
        })?;
        write_frame(&mut stream, &hello)?;
        self.outgoing.lock().insert(
            peer,
            Peer {
                stream,
                buf: Vec::new(),
                closed: false,
            },
        );
        Ok(())
    }

    /// Queues a frame to `peer` (must be connected). Frames to one peer
    /// are delivered in send order. A body over
    /// [`MAX_FRAME`](crate::MAX_FRAME) is an [`Error::Encode`] and leaves
    /// the link as it was; a link whose last write failed is an error.
    pub fn send(&self, peer: GroupId, body: Vec<u8>) -> Result<()> {
        let mut guard = self.outgoing.lock();
        let p = guard
            .get_mut(&peer)
            .ok_or_else(|| Error::Config(format!("no connection to {peer}")))?;
        if p.closed {
            return Err(closed(peer));
        }
        append_frame(&mut p.buf, &body)?;
        if p.buf.len() >= SEND_BUF {
            p.flush(peer)?;
        }
        Ok(())
    }

    /// Writes every peer's pending frames to its socket, one write per
    /// peer. Every peer is attempted; the first failure is returned.
    pub fn flush(&self) -> Result<()> {
        let mut first = Ok(());
        for (&peer, p) in self.outgoing.lock().iter_mut() {
            let res = p.flush(peer);
            if first.is_ok() {
                first = res;
            }
        }
        first
    }

    /// Flushes pending sends (see [`NodeRuntime::flush`]), then receives
    /// the next frame from any peer, or `None` on timeout. A failed write
    /// surfaces at the next `send` or `flush` to that peer.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Incoming> {
        let _ = self.flush();
        self.incoming_rx.recv_timeout(timeout).ok()
    }

    /// Flushes pending sends (see [`NodeRuntime::flush`]), then drains any
    /// frames already queued, without blocking.
    pub fn drain(&self) -> Vec<Incoming> {
        let _ = self.flush();
        self.incoming_rx.try_iter().collect()
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        self.shutdown
            .store(true, std::sync::atomic::Ordering::Relaxed);
        // Write out what was sent, then close the outbound connections:
        // the peer reads every frame before the end of the stream.
        let _ = self.flush();
        self.outgoing.lock().clear();
        // Shut down every inbound connection: readers blocked in
        // `read_frame` return immediately.
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Nudge the acceptor out of `accept` by dialing ourselves; the
        // nudge connection trips the flag check and is never served. Only
        // join if the nudge landed — if the dial failed the acceptor may
        // still be parked, and detaching beats deadlocking the caller.
        let nudged = TcpStream::connect(self.addr).is_ok();
        if let Some(acceptor) = self.acceptor.take() {
            if nudged {
                let _ = acceptor.join();
            }
        }
        // The acceptor may have accepted one last connection concurrently
        // with the first drain (registered after we shut the others down);
        // close any such stragglers before joining readers.
        for conn in self.conns.lock().drain(..) {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // The acceptor has exited (or been abandoned): no new readers can
        // appear, so draining the list now joins every reader there is.
        let readers = std::mem::take(&mut *self.readers.lock());
        for reader in readers {
            let _ = reader.join();
        }
    }
}

fn reader_loop(stream: TcpStream, tx: Sender<Incoming>) -> Result<()> {
    stream.set_nodelay(true).ok();
    let mut stream = BufReader::with_capacity(SEND_BUF, stream);
    // First frame is the hello header.
    let Some(hello_bytes) = read_frame(&mut stream)? else {
        return Ok(());
    };
    let hello: Hello = flexcast_wire::from_bytes(&hello_bytes)?;
    let from = GroupId(hello.from);
    while let Some(body) = read_frame(&mut stream)? {
        if tx.send((from, body)).is_err() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ephemeral(id: u16) -> NodeRuntime {
        NodeRuntime::bind(GroupId(id), "127.0.0.1:0".parse().unwrap()).unwrap()
    }

    /// `a` (rank 0) dialled to `b` (rank 1).
    fn linked_pair() -> (NodeRuntime, NodeRuntime) {
        let mut a = ephemeral(0);
        let b = ephemeral(1);
        a.connect(GroupId(1), b.local_addr()).unwrap();
        (a, b)
    }

    /// Receives `n` frames on `rt` and checks they carry `0..n` in order.
    fn expect_sequence(rt: &NodeRuntime, n: u32) {
        for i in 0..n {
            let (_, body) = rt.recv_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(u32::from_le_bytes(body.try_into().unwrap()), i);
        }
    }

    #[test]
    fn frames_flow_between_two_nodes() {
        let a = ephemeral(0);
        let b = ephemeral(1);
        let mut a = a;
        a.connect(GroupId(1), b.local_addr()).unwrap();
        a.send(GroupId(1), b"ping".to_vec()).unwrap();
        a.flush().unwrap();
        let (from, body) = b.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(from, GroupId(0));
        assert_eq!(body, b"ping");
    }

    #[test]
    fn per_link_fifo_order() {
        let mut a = ephemeral(0);
        let b = ephemeral(1);
        a.connect(GroupId(1), b.local_addr()).unwrap();
        for i in 0..100u32 {
            a.send(GroupId(1), i.to_le_bytes().to_vec()).unwrap();
        }
        a.flush().unwrap();
        for i in 0..100u32 {
            let (_, body) = b.recv_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(u32::from_le_bytes(body.try_into().unwrap()), i);
        }
    }

    #[test]
    fn fifo_holds_across_flush_boundaries() {
        let (a, b) = linked_pair();
        for i in 0..300u32 {
            a.send(GroupId(1), i.to_le_bytes().to_vec()).unwrap();
            if i % 7 == 0 {
                a.flush().unwrap();
            }
            if i % 50 == 0 {
                let _ = a.drain();
            }
        }
        a.flush().unwrap();
        expect_sequence(&b, 300);
    }

    #[test]
    fn a_full_buffer_goes_out_without_a_flush() {
        // 1 MiB of 1 KiB frames (header included), and the sender never
        // polls or flushes: every 64 frames fill the bound exactly, so
        // all of them must reach the peer through the bound alone.
        let (a, b) = linked_pair();
        let frames = 1024u32;
        for i in 0..frames {
            let mut body = vec![0u8; 1020];
            body[..4].copy_from_slice(&i.to_le_bytes());
            a.send(GroupId(1), body).unwrap();
        }
        for i in 0..frames {
            let (_, body) = b.recv_timeout(Duration::from_secs(5)).expect("frame");
            assert_eq!(body.len(), 1020);
            assert_eq!(u32::from_le_bytes(body[..4].try_into().unwrap()), i);
        }
    }

    #[test]
    fn drain_alone_drives_a_ping_pong() {
        let mut a = ephemeral(0);
        let mut b = ephemeral(1);
        a.connect(GroupId(1), b.local_addr()).unwrap();
        b.connect(GroupId(0), a.local_addr()).unwrap();
        a.send(GroupId(1), 0u32.to_le_bytes().to_vec()).unwrap();
        let (mut turn, rounds) = (0u32, 100u32);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while turn < rounds {
            assert!(std::time::Instant::now() < deadline, "stuck at {turn}");
            for (me, rt, peer) in [(0, &a, GroupId(1)), (1, &b, GroupId(0))] {
                for (_, body) in rt.drain() {
                    let n = u32::from_le_bytes(body.try_into().unwrap());
                    assert_eq!((n, n % 2), (turn, 1 - me), "alternating hits");
                    turn += 1;
                    rt.send(peer, (n + 1).to_le_bytes().to_vec()).unwrap();
                }
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn frames_sent_before_drop_arrive() {
        for _ in 0..20 {
            let (a, b) = linked_pair();
            for i in 0..2_000u32 {
                a.send(GroupId(1), i.to_le_bytes().to_vec()).unwrap();
            }
            drop(a);
            expect_sequence(&b, 2_000);
        }
    }

    #[test]
    fn an_oversized_send_errors_and_keeps_the_link() {
        let (a, b) = linked_pair();
        let res = a.send(GroupId(1), vec![0; crate::MAX_FRAME + 1]);
        assert!(matches!(res, Err(Error::Encode(_))), "{res:?}");
        a.send(GroupId(1), vec![7]).unwrap();
        a.flush().unwrap();
        let (_, body) = b.recv_timeout(Duration::from_secs(5)).expect("frame");
        assert_eq!(body, [7]);
    }

    #[test]
    fn a_dropped_peer_fails_later_sends() {
        let (a, b) = linked_pair();
        drop(b);
        // The first writes may still land in the kernel's buffer; once the
        // peer's reset arrives, `send`/`flush` must error, not hang.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let failed = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "writes kept succeeding"
            );
            let sent = a.send(GroupId(1), vec![1; 1024]);
            if sent.is_err() {
                break sent;
            }
            if let Err(e) = a.flush() {
                break Err(e);
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(failed.is_err());
        assert!(a.send(GroupId(1), vec![1]).is_err(), "closed stays closed");
        assert!(a.flush().is_err());
    }

    #[test]
    fn flush_without_peers_is_ok() {
        ephemeral(0).flush().unwrap();
    }

    #[test]
    fn send_to_unknown_peer_errors() {
        let a = ephemeral(0);
        assert!(a.send(GroupId(9), vec![1]).is_err());
    }

    #[test]
    fn recv_timeout_expires() {
        let a = ephemeral(0);
        assert!(a.recv_timeout(Duration::from_millis(50)).is_none());
    }

    #[test]
    fn shutdown_joins_cleanly_with_live_connections() {
        // Drop joins every thread: a hang here (readers parked in
        // read_frame, acceptor parked in accept) fails the test run.
        let mut a = ephemeral(0);
        let b = ephemeral(1);
        a.connect(GroupId(1), b.local_addr()).unwrap();
        a.send(GroupId(1), b"live".to_vec()).unwrap();
        a.flush().unwrap();
        assert!(b.recv_timeout(Duration::from_secs(5)).is_some());
        drop(b); // inbound side first: readers + acceptor
        drop(a); // outbound side: acceptor
    }

    #[test]
    fn three_node_fanin() {
        let c = ephemeral(2);
        let mut a = ephemeral(0);
        let mut b = ephemeral(1);
        a.connect(GroupId(2), c.local_addr()).unwrap();
        b.connect(GroupId(2), c.local_addr()).unwrap();
        a.send(GroupId(2), b"from-a".to_vec()).unwrap();
        b.send(GroupId(2), b"from-b".to_vec()).unwrap();
        a.flush().unwrap();
        b.flush().unwrap();
        let mut got = Vec::new();
        for _ in 0..2 {
            got.push(c.recv_timeout(Duration::from_secs(5)).expect("frame"));
        }
        got.sort_by_key(|(from, _)| *from);
        assert_eq!(got[0], (GroupId(0), b"from-a".to_vec()));
        assert_eq!(got[1], (GroupId(1), b"from-b".to_vec()));
    }
}
