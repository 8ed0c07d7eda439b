//! End-to-end tests of the Stache write-invalidate protocol on a small
//! emulated machine: coherence, sequential-consistency-visible values, hop
//! accounting, waiter queueing, and a false-sharing stress.

use std::sync::Arc;
use std::thread::JoinHandle;

use prescient_stache::{fetch, spawn_protocol, Hooks, Msg, NoHooks, NodeShared, Wake};
use prescient_tempest::fabric::{BatchConfig, Fabric};
use prescient_tempest::sync::{channel, Mutex, Receiver};
use prescient_tempest::tag::Tag;
use prescient_tempest::{CostModel, GAddr, GlobalLayout, Prim, VBarrier};

struct TestNode {
    shared: Arc<NodeShared>,
    wake_rx: Receiver<Wake>,
    stash: Vec<Wake>,
}

struct TestMachine {
    nodes: Vec<TestNode>,
    joins: Vec<JoinHandle<()>>,
}

fn machine(n: usize, block_size: usize) -> TestMachine {
    let layout = GlobalLayout::new(n, block_size);
    let cost = CostModel::default();
    let mut nodes = Vec::new();
    let mut joins = Vec::new();
    for ep in Fabric::new::<Msg>(n) {
        let (wake_tx, wake_rx) = channel();
        let shared = Arc::new(NodeShared::new(layout, cost, ep.net().clone(), wake_tx));
        joins.push(spawn_protocol(vec![(Arc::clone(&shared), Arc::new(NoHooks))], ep));
        nodes.push(TestNode { shared, wake_rx, stash: Vec::new() });
    }
    TestMachine { nodes, joins }
}

impl TestMachine {
    fn shutdown(self) {
        for n in &self.nodes {
            n.shared.send(n.shared.me, Msg::Shutdown);
        }
        for j in self.joins {
            j.join().unwrap();
        }
    }
}

/// Retry-loop read through the DSM, mirroring the runtime's access path.
/// Returns the value and the number of faults taken.
fn read_u64(tn: &mut TestNode, addr: GAddr) -> (u64, u32) {
    let mut faults = 0;
    loop {
        let mut buf = [0u8; 8];
        let r = tn.shared.mem.lock().read_in_block(addr, &mut buf);
        match r {
            Ok(()) => return (u64::load(&buf), faults),
            Err(f) => {
                faults += 1;
                fetch(&tn.shared, &tn.wake_rx, f.fault().block, false, &mut tn.stash);
            }
        }
    }
}

fn write_u64(tn: &mut TestNode, addr: GAddr, v: u64) -> u32 {
    let mut faults = 0;
    let mut buf = [0u8; 8];
    v.store(&mut buf);
    loop {
        let r = tn.shared.mem.lock().write_in_block(addr, &buf);
        match r {
            Ok(()) => return faults,
            Err(f) => {
                faults += 1;
                fetch(&tn.shared, &tn.wake_rx, f.fault().block, true, &mut tn.stash);
            }
        }
    }
}

/// An envelope that reaches a shard loop for a member that has already
/// stopped is a teardown drop, counted just as a send to an exited
/// one-member loop's closed inbox is.
#[test]
fn shard_loop_counts_drops_for_stopped_members() {
    let layout = GlobalLayout::new(2, 32);
    let (eps, _) = Fabric::build::<Msg>(2, 1, BatchConfig::default_for_fabric(), None);
    let ep = eps.into_iter().next().expect("one shard");
    let shareds: Vec<Arc<NodeShared>> = ep
        .members()
        .iter()
        .map(|&me| {
            let net = ep.net_of(me).clone();
            Arc::new(NodeShared::new(layout, CostModel::default(), net, channel().0))
        })
        .collect();
    let ctl = Arc::clone(ep.ctl());
    let members = shareds.iter().map(|s| (Arc::clone(s), Arc::new(NoHooks) as Arc<dyn Hooks>));
    let join = spawn_protocol(members.collect(), ep);
    ctl.mark_closing();
    shareds[0].send(0, Msg::Shutdown);
    shareds[1].send(0, Msg::Fence);
    shareds[1].flush_net();
    shareds[1].send(1, Msg::Shutdown);
    join.join().unwrap();
    assert_eq!(ctl.teardown_drops(), 1);
}

#[test]
fn remote_read_fetches_home_data() {
    let mut m = machine(2, 32);
    // Node 0 writes into its own home memory; node 1 reads it remotely.
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    assert_eq!(write_u64(&mut m.nodes[0], addr, 0xabcd), 0, "home write must hit");
    let (v, faults) = read_u64(&mut m.nodes[1], addr);
    assert_eq!(v, 0xabcd);
    assert_eq!(faults, 1);
    // Second read hits the cached copy.
    let (v2, faults2) = read_u64(&mut m.nodes[1], addr);
    assert_eq!(v2, 0xabcd);
    assert_eq!(faults2, 0);
    m.shutdown();
}

#[test]
fn write_invalidates_remote_readers() {
    let mut m = machine(3, 32);
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    write_u64(&mut m.nodes[0], addr, 1);
    // Nodes 1 and 2 cache read-only copies.
    assert_eq!(read_u64(&mut m.nodes[1], addr).0, 1);
    assert_eq!(read_u64(&mut m.nodes[2], addr).0, 1);
    // Home writes a new value: must invalidate both sharers first.
    let faults = write_u64(&mut m.nodes[0], addr, 2);
    assert_eq!(faults, 1, "home write to shared block faults once");
    // Readers fault again and observe the new value.
    let (v1, f1) = read_u64(&mut m.nodes[1], addr);
    let (v2, f2) = read_u64(&mut m.nodes[2], addr);
    assert_eq!((v1, v2), (2, 2));
    assert_eq!((f1, f2), (1, 1));
    let s1 = m.nodes[1].shared.stats.snapshot();
    assert_eq!(s1.invals_in, 1);
    m.shutdown();
}

#[test]
fn producer_consumer_four_hop() {
    // Producer (node 1) and consumer (node 2) of data homed at node 0:
    // each transfer costs extra hops (recall), the §3.2 inefficiency.
    let mut m = machine(3, 32);
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    for round in 0..5u64 {
        write_u64(&mut m.nodes[1], addr, round * 10);
        let (v, faults) = read_u64(&mut m.nodes[2], addr);
        assert_eq!(v, round * 10);
        assert_eq!(faults, 1, "every consume misses under write-invalidate");
    }
    // The producer's writes after round 0 must recall/invalidate the
    // consumer's copy each round.
    let s2 = m.nodes[2].shared.stats.snapshot();
    assert!(s2.invals_in + s2.recalls_in >= 4, "consumer copies must be torn down each round");
    m.shutdown();
}

#[test]
fn read_of_exclusive_block_downgrades_owner() {
    let mut m = machine(3, 64);
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    write_u64(&mut m.nodes[1], addr, 77); // node 1 becomes exclusive owner
    let (v, _) = read_u64(&mut m.nodes[2], addr);
    assert_eq!(v, 77);
    // Owner was downgraded, not invalidated: its next read hits.
    let (v1, f1) = read_u64(&mut m.nodes[1], addr);
    assert_eq!(v1, 77);
    assert_eq!(f1, 0);
    assert_eq!(m.nodes[1].shared.stats.snapshot().recalls_in, 1);
    m.shutdown();
}

#[test]
fn upgrade_moves_no_data() {
    let mut m = machine(2, 32);
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    write_u64(&mut m.nodes[0], addr, 5);
    let (v, _) = read_u64(&mut m.nodes[1], addr);
    assert_eq!(v, 5);
    // Node 1 upgrades its read-only copy to writable: grant without data.
    let mut buf = [0u8; 8];
    9u64.store(&mut buf);
    let fault = m.nodes[1].shared.mem.lock().write_in_block(addr, &buf).unwrap_err();
    let tn = &mut m.nodes[1];
    let info = fetch(&tn.shared, &tn.wake_rx, fault.fault().block, true, &mut tn.stash);
    assert_eq!(info.bytes, 0, "upgrade grant carries no data");
    assert_eq!(write_u64(&mut m.nodes[1], addr, 9), 0);
    assert_eq!(read_u64(&mut m.nodes[0], addr).0, 9);
    m.shutdown();
}

#[test]
fn home_read_of_remote_exclusive_recalls() {
    let mut m = machine(2, 32);
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    write_u64(&mut m.nodes[1], addr, 1234); // remote node owns home's block
    assert_eq!(m.nodes[0].shared.mem.lock().probe(addr.block(32)), Tag::Invalid);
    let (v, faults) = read_u64(&mut m.nodes[0], addr);
    assert_eq!(v, 1234);
    assert_eq!(faults, 1, "home read of remotely owned block faults");
    m.shutdown();
}

#[test]
fn contended_exclusive_serializes() {
    // Many nodes hammer exclusive writes to one block; the waiter queue
    // must serialize them and every increment must survive.
    let n = 8;
    let m = machine(n, 32);
    let addr = m.nodes[0].shared.mem.lock().alloc(8, 8);
    let rounds = 20;

    let mut handles = vec![];
    for tn in m.nodes.into_iter() {
        handles.push(std::thread::spawn(move || {
            let mut tn = tn;
            for _ in 0..rounds {
                // read-modify-write; each iteration re-acquires exclusivity
                loop {
                    // hold the mem lock across the RMW so the local copy
                    // can't be recalled mid-update
                    let mut mem = tn.shared.mem.lock();
                    let mut buf = [0u8; 8];
                    if mem.read_in_block(addr, &mut buf).is_ok()
                        && mem.probe(addr.block(32)).writable()
                    {
                        let v = u64::load(&buf) + 1;
                        v.store(&mut buf);
                        mem.write_in_block(addr, &buf).unwrap();
                        break;
                    }
                    drop(mem);
                    fetch(&tn.shared, &tn.wake_rx, addr.block(32), true, &mut tn.stash);
                }
            }
            tn
        }));
    }
    let mut nodes: Vec<TestNode> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let (total, _) = read_u64(&mut nodes[0], addr);
    assert_eq!(total, (n * rounds) as u64);
    for tn in &nodes {
        tn.shared.send(tn.shared.me, Msg::Shutdown);
    }
}

#[test]
fn distinct_blocks_are_independent() {
    let mut m = machine(2, 32);
    let a = m.nodes[0].shared.mem.lock().alloc(8, 8);
    let b = m.nodes[0].shared.mem.lock().alloc(32, 32); // next block
    assert_ne!(a.block(32), b.block(32));
    write_u64(&mut m.nodes[0], a, 1);
    write_u64(&mut m.nodes[1], b, 2);
    assert_eq!(read_u64(&mut m.nodes[1], a).0, 1);
    assert_eq!(read_u64(&mut m.nodes[0], b).0, 2);
    // Writing b again on node 1 must not disturb node 1's copy of a.
    write_u64(&mut m.nodes[1], b, 3);
    assert_eq!(read_u64(&mut m.nodes[1], a).1, 0, "block a still cached");
    m.shutdown();
}

#[test]
fn false_sharing_within_block_pingpongs() {
    // Two nodes write different words of the same 32-byte block: the block
    // must ping-pong (correct but slow — motivates small blocks).
    let mut m = machine(3, 32);
    let base = m.nodes[0].shared.mem.lock().alloc(32, 32);
    let w0 = base;
    let w1 = base.add(8);
    for i in 0..4u64 {
        write_u64(&mut m.nodes[1], w0, i);
        write_u64(&mut m.nodes[2], w1, 100 + i);
    }
    assert_eq!(read_u64(&mut m.nodes[0], w0).0, 3);
    assert_eq!(read_u64(&mut m.nodes[0], w1).0, 103);
    let s1 = m.nodes[1].shared.stats.snapshot();
    assert!(s1.recalls_in + s1.invals_in >= 3, "false sharing forces repeated teardown");
    m.shutdown();
}

/// Regression stress for the self-grant/waiter-queue race: three nodes
/// concurrently upgrade distinct words of one falsely shared block, then
/// all read every word back. Before the fix in `Engine::on_grant`, a home
/// node's queued self-grant could resurrect a revoked writable tag after
/// the block had been re-granted to a waiter, silently losing the home's
/// writes.
#[test]
fn false_sharing_stress() {
    for round in 0..6 {
        let mut m = machine(3, 64);
        let base = m.nodes[2].shared.mem.lock().alloc(8 * 4, 8);
        let barrier = VBarrier::new(3);
        // Failures are collected, not asserted in place: a panicking node
        // would leave the others waiting at the barrier forever.
        let fails = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for (me, tn) in m.nodes.iter_mut().enumerate() {
                let (barrier, fails) = (&barrier, &fails);
                s.spawn(move || {
                    for iter in 0..6u64 {
                        // write phase: node k writes word k
                        write_u64(tn, base.add(8 * me as u64), 1000 * iter + me as u64);
                        barrier.wait(0);
                        // read phase: everyone reads all three words
                        for k in 0..3u64 {
                            let (got, _) = read_u64(tn, base.add(8 * k));
                            let want = 1000 * iter + k;
                            if got != want {
                                fails.lock().push(format!(
                                    "round {round} iter {iter}: node {me} word {k}: got {got} want {want}"
                                ));
                            }
                        }
                        barrier.wait(0);
                    }
                });
            }
        });
        m.shutdown();
        let f = fails.into_inner();
        assert!(f.is_empty(), "{f:#?}");
    }
}
