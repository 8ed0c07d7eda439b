//! The socket transport: a fabric whose nodes are split across two TCP
//! connection ends, so two OS processes can each host half of a machine.
//!
//! Each side hosts a contiguous [`NodeRange`]. A batch addressed inside
//! the local range goes, as a `(dst, batch)` frame, to that node's
//! one-member [`Endpoint`]; a batch addressed outside it is encoded as a
//! length-prefixed frame (see [`crate::wire`]) and written to the peer
//! stream, where a reader thread decodes it and delivers it to the
//! destination's local inbox. Self-sends therefore never touch
//! the wire *or* the fault layer — the check sits in [`crate::fabric::Net`],
//! above the transport, identical on every backend.
//!
//! Two construction modes:
//!
//! * [`pair`] — a **loopback pair** inside one process: all `n`
//!   endpoints are returned, but every batch crossing the configured
//!   split traverses a real TCP socket, full codec and framing included.
//!   This is what the backend-equivalence suite and the perf gate run,
//!   since the machine layer's barrier/allreduce/recovery facilities are
//!   shared-memory and cannot span processes.
//! * [`SocketHost::accept`] / [`connect`] — a **genuine two-process**
//!   fabric: each process builds only its own range's endpoints after a
//!   rendezvous handshake keyed by node range. The `socket_smoke` bench
//!   binary drives protocol traffic across two processes this way.
//!
//! Teardown accounting matches the in-process backend: a batch that
//! cannot be delivered because its destination inbox is gone is counted
//! via [`FabricCtl::count_teardown_drop`], whether the failure happens at
//! the sender (local channel closed, peer stream closed) or on the
//! receiving side's reader thread (local delivery after the endpoint
//! dropped). Either way each lost envelope is counted exactly once.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fabric::{
    fault_layer, make_net, BatchConfig, Endpoint, FabricCtl, Frame, Transport, Undeliverable,
    WireBatch,
};
use crate::faults::{FaultHook, FaultPlan};
use crate::stats::FaultStats;
use crate::sync::{channel, Mutex, Sender};
use crate::wire::{read_frame, read_hello, write_frame, write_hello, WireCodec};
use crate::{NodeId, MAX_NODES};

/// A contiguous range of node ids hosted by one connection end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRange {
    /// First node of the range.
    pub start: NodeId,
    /// Number of nodes in the range.
    pub len: u16,
}

impl NodeRange {
    /// The range `start..start + len`.
    pub fn new(start: NodeId, len: u16) -> NodeRange {
        NodeRange { start, len }
    }

    /// One past the last node.
    pub fn end(&self) -> NodeId {
        self.start + self.len
    }

    /// Is `node` inside the range?
    pub fn contains(&self, node: NodeId) -> bool {
        node >= self.start && node < self.end()
    }
}

/// The transport of one connection end: local nodes by channel, the rest
/// by frame over the peer stream.
struct SocketTransport<M> {
    total: usize,
    range: NodeRange,
    local: Arc<[Sender<Frame<M>>]>,
    writer: Mutex<BufWriter<TcpStream>>,
}

impl<M: Send + WireCodec> Transport<M> for SocketTransport<M> {
    fn deliver(&self, dst: NodeId, batch: WireBatch<M>) -> Result<(), Undeliverable> {
        if self.range.contains(dst) {
            return self.local[(dst - self.range.start) as usize]
                .send((dst, batch))
                .map_err(|_| Undeliverable);
        }
        let mut w = self.writer.lock();
        write_frame(&mut *w, dst, &batch).and_then(|_| w.flush()).map_err(|_| Undeliverable)
    }

    fn nodes(&self) -> usize {
        self.total
    }
}

/// Owns a socket fabric's connection plumbing: keeps the reader threads
/// and stream handles alive while the machine runs, and tears them down
/// (mark closing, shut the streams, join the readers) on drop. Hold it
/// for as long as any endpoint of the fabric is in use.
pub struct SocketGuard {
    ctl: Arc<FabricCtl>,
    faults: Option<Arc<FaultStats>>,
    streams: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
}

impl SocketGuard {
    /// The fabric's shared teardown state.
    pub fn ctl(&self) -> &Arc<FabricCtl> {
        &self.ctl
    }

    /// Per-link fault counters, when the fabric was built with a plan.
    pub fn fault_stats(&self) -> Option<&Arc<FaultStats>> {
        self.faults.as_ref()
    }

    /// Tear the connection down: signal teardown, shut both directions of
    /// every stream (unblocking the readers), and join the readers.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.ctl.mark_closing();
        for s in &self.streams {
            let _ = s.shutdown(Shutdown::Both);
        }
        for j in self.readers.drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Build one connection end: the endpoints of `range` plus the reader
/// thread pumping inbound frames into their channels.
fn build_side<M: Send + WireCodec + 'static>(
    total: usize,
    range: NodeRange,
    stream: TcpStream,
    faults: Option<Arc<dyn FaultHook<M>>>,
    batch: BatchConfig,
    ctl: Arc<FabricCtl>,
) -> io::Result<(Vec<Endpoint<M>>, JoinHandle<()>, TcpStream)> {
    stream.set_nodelay(true)?;
    let rstream = stream.try_clone()?;
    let wstream = stream.try_clone()?;
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..range.len).map(|_| channel::<Frame<M>>()).unzip();
    let local: Arc<[Sender<Frame<M>>]> = txs.into();
    let transport: Arc<dyn Transport<M>> = Arc::new(SocketTransport {
        total,
        range,
        local: Arc::clone(&local),
        writer: Mutex::new(BufWriter::new(wstream)),
    });
    let reader_ctl = Arc::clone(&ctl);
    let reader = std::thread::Builder::new()
        .name(format!("sock-rx-{}-{}", range.start, range.end()))
        .spawn(move || {
            let mut r = BufReader::new(rstream);
            loop {
                match read_frame::<M, _>(&mut r) {
                    Ok(Some((dst, batch))) => {
                        if !range.contains(dst) {
                            eprintln!(
                                "socket fabric: peer sent a frame for node {dst}, \
                                 outside local range {}..{}",
                                range.start,
                                range.end()
                            );
                            continue;
                        }
                        let n = batch.msgs.len() as u64;
                        if local[(dst - range.start) as usize].send((dst, batch)).is_err() {
                            // The endpoint is gone; same accounting as a
                            // failed in-process delivery.
                            reader_ctl.count_teardown_drop(n, dst);
                        }
                    }
                    Ok(None) => break, // peer closed cleanly between frames
                    Err(e) => {
                        if !reader_ctl.is_closing() && !reader_ctl.is_aborting() {
                            eprintln!("socket fabric reader: {e}");
                        }
                        break;
                    }
                }
            }
        })
        .expect("spawn socket reader");
    let eps = rxs
        .into_iter()
        .enumerate()
        .map(|(i, rx)| {
            let me = range.start + i as NodeId;
            let net = make_net(
                me,
                total,
                Arc::clone(&transport),
                Arc::clone(&ctl),
                faults.clone(),
                batch,
            );
            Endpoint::new(rx, vec![net])
        })
        .collect();
    Ok((eps, reader, stream))
}

/// Build a loopback socket-pair fabric inside one process: `n` endpoints
/// where nodes `0..split` and `split..n` sit on opposite ends of a real
/// TCP connection over `127.0.0.1`. Traffic within a half stays on
/// channels; traffic across the split is framed, written, read back and
/// decoded — the full socket path, minus the second process. Given a
/// plan, inter-node links run through the fault layer exactly as
/// in-process (faults fire at egress-flush time, above the transport);
/// its per-link counters are [`SocketGuard::fault_stats`].
pub fn pair<M: Send + Clone + WireCodec + 'static>(
    n: usize,
    split: usize,
    batch: BatchConfig,
    faults: Option<FaultPlan>,
) -> io::Result<(Vec<Endpoint<M>>, SocketGuard)> {
    assert!(n <= MAX_NODES, "egress dirty mask caps the fabric at {MAX_NODES} nodes");
    assert!(split > 0 && split < n, "split must partition 0..{n} into two non-empty halves");
    let (faults, stats) = faults.map(|plan| fault_layer(n, plan)).unzip();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let a = TcpStream::connect(addr)?;
    let (b, _) = listener.accept()?;
    let ctl = Arc::new(FabricCtl::default());
    let lo = NodeRange::new(0, split as u16);
    let hi = NodeRange::new(split as u16, (n - split) as u16);
    let (mut eps, rd_lo, st_lo) = build_side(n, lo, a, faults.clone(), batch, Arc::clone(&ctl))?;
    let (eps_hi, rd_hi, st_hi) = build_side(n, hi, b, faults, batch, Arc::clone(&ctl))?;
    eps.extend(eps_hi);
    let streams = vec![st_lo, st_hi];
    Ok((eps, SocketGuard { ctl, faults: stats, streams, readers: vec![rd_lo, rd_hi] }))
}

/// The listening side of a genuine two-process rendezvous.
pub struct SocketHost {
    listener: TcpListener,
}

impl SocketHost {
    /// Bind the rendezvous listener (use port 0 to let the OS pick, then
    /// pass [`SocketHost::local_addr`] to the peer process).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<SocketHost> {
        Ok(SocketHost { listener: TcpListener::bind(addr)? })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept one peer and handshake. `range` is the node range *this*
    /// process hosts; the peer must host exactly the complement of
    /// `0..total`. Returns this side's endpoints only.
    pub fn accept<M: Send + WireCodec + 'static>(
        self,
        total: usize,
        range: NodeRange,
        batch: BatchConfig,
    ) -> io::Result<(Vec<Endpoint<M>>, SocketGuard)> {
        let (stream, _) = self.listener.accept()?;
        handshake_and_build(stream, total, range, batch)
    }
}

/// The connecting side of a two-process rendezvous: retries until the
/// host is listening (up to `wait`), then handshakes. `range` is the
/// node range *this* process hosts.
pub fn connect<M: Send + WireCodec + 'static>(
    addr: &str,
    total: usize,
    range: NodeRange,
    batch: BatchConfig,
    wait: Duration,
) -> io::Result<(Vec<Endpoint<M>>, SocketGuard)> {
    let deadline = Instant::now() + wait;
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    };
    handshake_and_build(stream, total, range, batch)
}

fn handshake_and_build<M: Send + WireCodec + 'static>(
    stream: TcpStream,
    total: usize,
    range: NodeRange,
    batch: BatchConfig,
) -> io::Result<(Vec<Endpoint<M>>, SocketGuard)> {
    assert!(total <= MAX_NODES, "egress dirty mask caps the fabric at {MAX_NODES} nodes");
    write_hello(&mut &stream, total as u16, range.start, range.len)?;
    let (p_total, p_start, p_len) = read_hello(&mut &stream)?;
    let peer = NodeRange::new(p_start, p_len);
    validate_peer(total as u16, range, p_total, peer)?;
    let ctl = Arc::new(FabricCtl::default());
    let (eps, reader, stream) = build_side(total, range, stream, None, batch, Arc::clone(&ctl))?;
    Ok((eps, SocketGuard { ctl, faults: None, streams: vec![stream], readers: vec![reader] }))
}

/// The rendezvous key: both sides must agree on the machine size and
/// their ranges must exactly partition it.
fn validate_peer(total: u16, ours: NodeRange, p_total: u16, peer: NodeRange) -> io::Result<()> {
    let bad = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    if p_total != total {
        return bad(format!(
            "machine size mismatch: peer hosts a {p_total}-node machine, we {total}"
        ));
    }
    let (lo, hi) = if ours.start <= peer.start { (ours, peer) } else { (peer, ours) };
    if lo.start != 0 || lo.end() != hi.start || hi.end() != total {
        return bad(format!(
            "node ranges {}..{} and {}..{} do not partition 0..{total}",
            ours.start,
            ours.end(),
            peer.start,
            peer.end()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Envelope, TryRecv};
    use crate::wire::{put_u64, WireDecoder, WireError};

    // u64 implements WireCodec in crate::wire's test module; that impl is
    // not visible here, so give the tests their own payload type.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct P(u64);

    impl WireCodec for P {
        fn encode(&self, out: &mut Vec<u8>) {
            put_u64(out, self.0);
        }
        fn decode(d: &mut WireDecoder<'_>) -> Result<P, WireError> {
            d.take_u64().map(P)
        }
    }

    #[test]
    fn cross_split_traffic_keeps_per_link_fifo() {
        let (eps, _guard) = pair::<P>(4, 2, BatchConfig::new(8), None).unwrap();
        for i in 0..300 {
            eps[0].net().send(3, P(i));
        }
        eps[0].net().flush_all();
        for i in 0..300 {
            let env = eps[3].recv().unwrap();
            assert_eq!((env.src, env.dst), (0, 3));
            assert_eq!(env.msg, P(i));
        }
    }

    #[test]
    fn singleton_batches_cross_the_wire_as_singletons() {
        let (eps, _guard) = pair::<P>(2, 1, BatchConfig::off(), None).unwrap();
        eps[0].net().send(1, P(7));
        eps[0].net().flush_all();
        let env = eps[1].recv().unwrap();
        assert_eq!(env.msg, P(7));
    }

    #[test]
    fn self_sends_skip_wire_and_fault_layer_on_socket_backend() {
        // Drop every inter-node message: self-sends must still arrive
        // (unbuffered, unfaulted, never framed) while cross-split sends
        // all die in the fault layer before reaching the stream.
        let plan = FaultPlan::new(1).dropping(1000);
        let (eps, guard) = pair::<P>(2, 1, BatchConfig::new(4), Some(plan)).unwrap();
        let stats = guard.fault_stats().expect("faulty fabric");
        for i in 0..50 {
            eps[1].net().send(1, P(i)); // self-send on the remote half
            eps[1].net().send(0, P(1000 + i)); // cross-split, will be dropped
        }
        eps[1].net().flush_all();
        let mut got = Vec::new();
        while let TryRecv::Msg(env) = eps[1].try_recv() {
            got.push(env.msg);
        }
        assert_eq!(got, (0..50).map(P).collect::<Vec<_>>());
        assert_eq!(stats.total().dropped, 50);
        // Nothing survived to cross the wire.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(eps[0].try_recv(), TryRecv::Empty));
    }

    #[test]
    fn teardown_drops_counted_when_remote_endpoint_gone() {
        // The sender's write succeeds (the stream is alive); the loss is
        // detected by the receiving side's reader thread and must be
        // counted on the shared ctl, exactly like an in-process drop.
        let (mut eps, guard) = pair::<P>(2, 1, BatchConfig::off(), None).unwrap();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let net0 = e0.net().clone();
        net0.ctl().mark_closing();
        drop(e1);
        net0.send(1, P(42));
        net0.flush_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        while guard.ctl().teardown_drops() < 1 {
            assert!(Instant::now() < deadline, "teardown drop never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(guard.ctl().teardown_drops(), 1);
        drop(e0);
    }

    #[test]
    fn two_process_style_rendezvous_rejects_mismatched_ranges() {
        let host = SocketHost::bind("127.0.0.1:0").unwrap();
        let addr = host.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            // Peer claims 1..4 of a 5-node machine: does not complement 0..2 of 4.
            connect::<P>(&addr, 5, NodeRange::new(1, 3), BatchConfig::off(), Duration::from_secs(5))
        });
        let host_res = host.accept::<P>(4, NodeRange::new(0, 2), BatchConfig::off());
        assert!(host_res.is_err(), "host must reject a mismatched peer");
        assert!(t.join().unwrap().is_err(), "peer must reject a mismatched host");
    }

    #[test]
    fn two_process_style_rendezvous_carries_traffic_both_ways() {
        let host = SocketHost::bind("127.0.0.1:0").unwrap();
        let addr = host.local_addr().unwrap().to_string();
        let t = std::thread::spawn(move || {
            let (eps, guard) = connect::<P>(
                &addr,
                4,
                NodeRange::new(2, 2),
                BatchConfig::new(8),
                Duration::from_secs(5),
            )
            .unwrap();
            // Echo every message from node 0 back to it, +1000.
            for _ in 0..100 {
                let Envelope { src, msg, .. } = eps[0].recv().unwrap();
                assert_eq!(src, 0);
                eps[0].net().send(0, P(msg.0 + 1000));
            }
            eps[0].net().flush_all();
            // Hold the connection open until the peer read everything.
            let Envelope { msg, .. } = eps[1].recv().unwrap();
            assert_eq!(msg, P(0xF1));
            (eps, guard)
        });
        let (eps, _guard) = host.accept::<P>(4, NodeRange::new(0, 2), BatchConfig::new(8)).unwrap();
        for i in 0..100 {
            eps[0].net().send(2, P(i));
        }
        eps[0].net().flush_all();
        for i in 0..100 {
            let env = eps[0].recv().unwrap();
            assert_eq!((env.src, env.msg), (2, P(i + 1000)));
        }
        eps[1].net().send(3, P(0xF1));
        eps[1].net().flush_all();
        let (peer_eps, mut peer_guard) = t.join().unwrap();
        peer_guard.shutdown();
        drop(peer_eps);
    }

    #[test]
    fn wire_counters_still_fire_on_socket_backend() {
        let (eps, guard) = pair::<P>(2, 1, BatchConfig::new(4), None).unwrap();
        for i in 0..8 {
            eps[0].net().send(1, P(i));
        }
        eps[0].net().flush_all();
        for _ in 0..8 {
            eps[1].recv().unwrap();
        }
        let w = guard.ctl().wire();
        assert_eq!(w.envelopes, 8);
        assert!(w.batches >= 2);
    }
}
