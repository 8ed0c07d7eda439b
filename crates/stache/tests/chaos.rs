//! Chaos harness: phase-structured programs run on a fabric that delays,
//! duplicates, and drops messages (seeded, reproducible fault schedules).
//! Every run must observe exactly the values the sequential model
//! predicts, finish (liveness under drops comes from the retry machinery),
//! and leave the machine in a state that passes the whole-machine
//! coherence check — i.e. results are bit-equal to a fault-free run.
//!
//! Programs are sequences of *phases* (barrier-separated), each phase
//! either a write round (each address written by at most one node) or a
//! read round (arbitrary nodes read arbitrary addresses) — the
//! data-parallel discipline under which sequential consistency makes the
//! outcome deterministic. Besides fixed seeds and pinned regressions, the
//! seeded property checks draw random programs on 3 nodes, clean and
//! faulty.
//!
//! Every fault-injecting case runs twice: with one inbox and handler loop
//! per node, and with the nodes multiplexed onto two shard loops (see
//! [`shardings`]), so the multi-member loop's teardown and dispatch paths
//! see the same chaos as the per-node default.
//!
//! All tests use [`FifoMode::Preserving`] delays: Stache's grant/recall
//! ordering requires point-to-point FIFO (see `faults.rs` for the tests
//! that document what the `Violating` discipline breaks).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use prescient_stache::{fetch, spawn_protocol, Hooks, Msg, NoHooks, NodeShared, RetryConfig, Wake};
use prescient_tempest::fabric::{BatchConfig, Fabric};
use prescient_tempest::rng::check;
use prescient_tempest::sync::{channel, Mutex, Receiver};
use prescient_tempest::{
    CostModel, FaultPlan, FaultStats, GAddr, GlobalLayout, NodeId, Prim, SmallRng, SplitMix64,
    VBarrier,
};

/// Fast wall-clock retry policy for tests: dropped messages are re-issued
/// quickly so drop-heavy runs stay fast.
fn test_retry() -> RetryConfig {
    RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 }
}

#[derive(Debug, Clone)]
enum Phase {
    /// `(address index, writer node, value)` — one writer per address.
    Writes(Vec<(usize, NodeId, u64)>),
    /// `(address index, reader node)`.
    Reads(Vec<(usize, NodeId)>),
}

/// Deterministic random phase program: alternating write/read rounds over
/// a small address pool, drawn from a seeded stream.
fn random_program(seed: u64, nodes: u16, n_addrs: usize, n_phases: usize) -> Vec<Phase> {
    let mut rng = SplitMix64::new(seed);
    let mut phases = Vec::with_capacity(n_phases);
    for pi in 0..n_phases {
        if pi % 2 == 0 {
            // Distinct addresses, each with one writer.
            let count = 1 + (rng.next_u64() % 5) as usize;
            let mut ws: Vec<(usize, NodeId, u64)> = Vec::new();
            for _ in 0..count {
                let a = (rng.next_u64() % n_addrs as u64) as usize;
                if ws.iter().all(|&(b, _, _)| b != a) {
                    let w = (rng.next_u64() % u64::from(nodes)) as NodeId;
                    ws.push((a, w, rng.next_u64()));
                }
            }
            phases.push(Phase::Writes(ws));
        } else {
            let count = 1 + (rng.next_u64() % 8) as usize;
            let rs = (0..count)
                .map(|_| {
                    let a = (rng.next_u64() % n_addrs as u64) as usize;
                    let r = (rng.next_u64() % u64::from(nodes)) as NodeId;
                    (a, r)
                })
                .collect();
            phases.push(Phase::Reads(rs));
        }
    }
    phases
}

/// `min..max` random phases over 12 address indices and 3 nodes: half
/// write rounds of 1..6 distinct addresses, half read rounds of 1..10
/// accesses.
fn rand_phases(rng: &mut SmallRng, min: u64, max: u64) -> Vec<Phase> {
    (0..min + rng.below(max - min))
        .map(|_| {
            if rng.coin() {
                let len = 1 + rng.below(5) as usize;
                let mut ws: BTreeMap<usize, (NodeId, u64)> = BTreeMap::new();
                while ws.len() < len {
                    ws.insert(rng.below(12) as usize, (rng.below(3) as NodeId, rng.next_u64()));
                }
                Phase::Writes(ws.into_iter().map(|(a, (w, v))| (a, w, v)).collect())
            } else {
                Phase::Reads(
                    (0..1 + rng.below(9))
                        .map(|_| (rng.below(12) as usize, rng.below(3) as NodeId))
                        .collect(),
                )
            }
        })
        .collect()
}

struct TestNode {
    shared: Arc<NodeShared>,
    wake_rx: Receiver<Wake>,
    stash: Vec<Wake>,
}

/// The shard counts every fault-injecting case runs at: one inbox per
/// node (the default topology) and two multi-member shard loops.
fn shardings(nodes: usize) -> [usize; 2] {
    [nodes, 2]
}

/// `nodes` nodes whose inboxes sit on `shards` handler loops; the
/// returned test nodes are in node order.
fn build_machine(
    nodes: usize,
    shards: usize,
    block_size: usize,
    plan: Option<FaultPlan>,
) -> (Vec<TestNode>, Vec<JoinHandle<()>>, Option<Arc<FaultStats>>) {
    let layout = GlobalLayout::new(nodes, block_size);
    let plan = plan.filter(FaultPlan::is_active);
    let (eps, fstats) =
        Fabric::build::<Msg>(nodes, shards, BatchConfig::default_for_fabric(), plan);
    let mut tns = Vec::new();
    let mut joins = Vec::new();
    for ep in eps {
        let mut members: Vec<(Arc<NodeShared>, Arc<dyn Hooks>)> = Vec::new();
        for &me in ep.members() {
            let (wake_tx, wake_rx) = channel();
            let shared = Arc::new(NodeShared::new_with_retry(
                layout,
                CostModel::default(),
                ep.net_of(me).clone(),
                wake_tx,
                test_retry(),
            ));
            members.push((Arc::clone(&shared), Arc::new(NoHooks)));
            tns.push(TestNode { shared, wake_rx, stash: Vec::new() });
        }
        joins.push(spawn_protocol(members, ep));
    }
    tns.sort_by_key(|tn| tn.shared.me);
    (tns, joins, fstats)
}

/// Outcome of one program run: every read observation in a canonical
/// order, plus protocol-level stat totals for the fault-activity asserts.
struct RunOutcome {
    /// `(phase, addr index, reader, value)` sorted — deterministic given
    /// the program, independent of interleaving.
    observations: Vec<(usize, usize, NodeId, u64)>,
    retries: u64,
    dup_reqs_in: u64,
    faults: Option<Arc<FaultStats>>,
}

/// Run `phases` on a live machine of `nodes` nodes on `shards` handler
/// loops (optionally faulty), check every read
/// against the sequential model and the quiescent machine against the
/// coherence invariants, and return the canonical observations.
fn run_program(
    nodes: usize,
    shards: usize,
    block_size: usize,
    plan: Option<FaultPlan>,
    phases: Vec<Phase>,
) -> RunOutcome {
    let (mut tns, _joins, faults) = build_machine(nodes, shards, block_size, plan);

    // Address pool: 4 words homed on every node (some share a block).
    let mut addrs: Vec<GAddr> = Vec::new();
    for tn in &tns {
        let base = tn.shared.mem.lock().alloc(8 * 4, 8);
        for k in 0..4 {
            addrs.push(base.add(8 * k));
        }
    }
    let n_addrs = addrs.len();
    let addrs = Arc::new(addrs);

    let phases: Vec<Phase> = phases
        .into_iter()
        .map(|p| match p {
            Phase::Writes(ws) => {
                Phase::Writes(ws.into_iter().map(|(a, w, v)| (a % n_addrs, w, v)).collect())
            }
            Phase::Reads(rs) => {
                Phase::Reads(rs.into_iter().map(|(a, r)| (a % n_addrs, r)).collect())
            }
        })
        .collect();

    // Sequential model: expected memory after each phase.
    let mut model = vec![0u64; n_addrs];
    let mut expects: Vec<Vec<u64>> = Vec::with_capacity(phases.len());
    for p in &phases {
        if let Phase::Writes(ws) = p {
            for &(a, _, v) in ws {
                model[a] = v;
            }
        }
        expects.push(model.clone());
    }

    let barrier = Arc::new(VBarrier::new(nodes));
    #[allow(clippy::type_complexity)]
    let observations: Arc<Mutex<Vec<(usize, usize, NodeId, u64)>>> =
        Arc::new(Mutex::new(Vec::new()));
    let phases = Arc::new(phases);
    let expects = Arc::new(expects);

    std::thread::scope(|scope| {
        for tn in tns.iter_mut() {
            let me = tn.shared.me;
            let phases = Arc::clone(&phases);
            let expects = Arc::clone(&expects);
            let addrs = Arc::clone(&addrs);
            let barrier = Arc::clone(&barrier);
            let observations = Arc::clone(&observations);
            let shared = Arc::clone(&tn.shared);
            let wake_rx = &tn.wake_rx;
            scope.spawn(move || {
                let mut stash = Vec::new();
                for (pi, phase) in phases.iter().enumerate() {
                    match phase {
                        Phase::Writes(ws) => {
                            for &(a, w, v) in ws {
                                if w == me {
                                    let mut buf = [0u8; 8];
                                    v.store(&mut buf);
                                    loop {
                                        let r = shared.mem.lock().write_in_block(addrs[a], &buf);
                                        match r {
                                            Ok(()) => break,
                                            Err(f) => {
                                                fetch(&shared, wake_rx, f.fault().block, true, &mut stash);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        Phase::Reads(rs) => {
                            for &(a, r) in rs {
                                if r == me {
                                    let mut buf = [0u8; 8];
                                    loop {
                                        let res =
                                            shared.mem.lock().read_in_block(addrs[a], &mut buf);
                                        match res {
                                            Ok(()) => break,
                                            Err(f) => {
                                                fetch(&shared, wake_rx, f.fault().block, false, &mut stash);
                                            }
                                        }
                                    }
                                    let got = u64::load(&buf);
                                    let want = expects[pi][a];
                                    assert_eq!(
                                        got, want,
                                        "phase {pi}: node {me} read addr[{a}] = {got}, expected {want}"
                                    );
                                    observations.lock().push((pi, a, me, got));
                                }
                            }
                        }
                    }
                    barrier.wait(0);
                }
            });
        }
    });

    // Quiescent: every invariant must hold machine-wide.
    let shareds: Vec<_> = tns.iter().map(|tn| Arc::clone(&tn.shared)).collect();
    let violations = prescient_stache::check_coherence(&shareds);
    assert!(violations.is_empty(), "invariant violations: {violations:#?}");

    let (mut retries, mut dup_reqs_in) = (0, 0);
    for tn in &tns {
        let s = tn.shared.stats.snapshot();
        retries += s.retries;
        dup_reqs_in += s.dup_reqs_in;
        tn.shared.send(tn.shared.me, Msg::Shutdown);
    }
    let mut observations = Arc::try_unwrap(observations)
        .unwrap_or_else(|_| panic!("observation log still shared"))
        .into_inner();
    observations.sort_unstable();
    RunOutcome { observations, retries, dup_reqs_in, faults }
}

const NODES: usize = 8;

/// Random programs under the full chaos mix (delay + duplicate + drop,
/// FIFO-preserving): results bit-equal to the fault-free run, coherence
/// intact, and the fault layer demonstrably active.
#[test]
fn random_programs_survive_chaos() {
    for seed in [0xC0FFEE_u64, 17, 9001] {
        let program = random_program(seed, NODES as u16, 32, 14);
        let clean = run_program(NODES, NODES, 32, None, program.clone());
        for shards in shardings(NODES) {
            let plan = Some(FaultPlan::chaos(seed));
            let chaos = run_program(NODES, shards, 32, plan, program.clone());
            assert_eq!(
                clean.observations, chaos.observations,
                "seed {seed}, {shards} shards: chaos run diverged from fault-free run"
            );
            let f = chaos.faults.expect("fault layer active").total();
            assert!(
                f.delayed + f.duplicated + f.dropped > 0,
                "seed {seed}: the chaos plan must actually inject faults"
            );
        }
    }
}

/// Every inter-node message duplicated: duplicate fetches must be
/// absorbed by the home's (requester, seq) watermark — no double grant,
/// no directory divergence — and duplicate recalls/grants by op ids and
/// epoch checks. The contended counter is the sharpest probe: a granted
/// duplicate would double-apply an increment or wedge the waiter queue.
#[test]
fn duplicated_requests_are_idempotent() {
    for shards in shardings(NODES) {
        duplicated_requests_are_idempotent_on(shards);
    }
}

fn duplicated_requests_are_idempotent_on(shards: usize) {
    let plan = FaultPlan::new(7).duplicating(1000);
    let (tns, _joins, fstats) = build_machine(NODES, shards, 32, Some(plan));
    let addr = tns[0].shared.mem.lock().alloc(8, 8);
    let rounds = 12u64;

    let mut handles = vec![];
    for tn in tns.into_iter() {
        handles.push(std::thread::spawn(move || {
            let mut tn = tn;
            for _ in 0..rounds {
                loop {
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
    let mut tns: Vec<TestNode> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Every increment applied exactly once.
    let mut buf = [0u8; 8];
    loop {
        let r = tns[0].shared.mem.lock().read_in_block(addr, &mut buf);
        match r {
            Ok(()) => break,
            Err(f) => {
                let tn = &mut tns[0];
                fetch(&tn.shared, &tn.wake_rx, f.fault().block, true, &mut tn.stash);
            }
        }
    }
    assert_eq!(u64::load(&buf), NODES as u64 * rounds);

    let shareds: Vec<_> = tns.iter().map(|tn| Arc::clone(&tn.shared)).collect();
    let violations = prescient_stache::check_coherence(&shareds);
    assert!(violations.is_empty(), "invariant violations: {violations:#?}");

    let duplicated = fstats.expect("fault layer active").total().duplicated;
    assert!(duplicated > 50, "every message is duplicated, got {duplicated}");
    let dup_reqs: u64 = shareds.iter().map(|s| s.stats.snapshot().dup_reqs_in).sum();
    assert!(dup_reqs > 0, "homes must observe and absorb duplicate requests");
    for tn in &tns {
        tn.shared.send(tn.shared.me, Msg::Shutdown);
    }
}

/// Drop-heavy fabric: liveness comes from timeouts and re-issued
/// requests; the run completes with fault-free-equal results.
#[test]
fn drop_heavy_runs_complete_via_retry() {
    let seed = 0xD20FF_u64;
    let plan = FaultPlan::new(seed).dropping(180).delaying(80, 2);
    let program = random_program(seed, NODES as u16, 24, 10);
    let clean = run_program(NODES, NODES, 32, None, program.clone());
    assert_eq!(clean.retries, 0, "the fault-free run never needs to retry");
    for shards in shardings(NODES) {
        let chaos = run_program(NODES, shards, 32, Some(plan), program.clone());
        assert_eq!(clean.observations, chaos.observations, "drop-heavy run diverged ({shards})");
        let f = chaos.faults.expect("fault layer active").total();
        assert!(f.dropped > 0, "an 18% drop rate must drop something");
        assert!(
            chaos.retries > 0,
            "dropped requests are only survivable by re-issuing; got {} retries",
            chaos.retries
        );
        assert!(clean.dup_reqs_in <= chaos.dup_reqs_in, "retries surface as duplicates at homes");
    }
}

/// Regression cases distilled from chaos-run shrinking: fixed programs and
/// plans that once exposed ordering/dedup bugs stay pinned here.
#[test]
fn regression_duplicated_recall_round() {
    // Producer/consumer of one block homed at a third node, with every
    // message duplicated and mild delays: exercises duplicate recalls and
    // duplicate grants across repeated recall rounds.
    let phases = vec![
        Phase::Writes(vec![(0, 1, 11)]),
        Phase::Reads(vec![(0, 2), (0, 3)]),
        Phase::Writes(vec![(0, 1, 22)]),
        Phase::Reads(vec![(0, 4), (0, 2)]),
        Phase::Writes(vec![(0, 5, 33), (1, 6, 44)]),
        Phase::Reads(vec![(0, 0), (1, 7), (1, 1)]),
    ];
    let plan = FaultPlan::new(3).duplicating(1000).delaying(120, 2);
    let clean = run_program(NODES, NODES, 32, None, phases.clone());
    for shards in shardings(NODES) {
        let chaos = run_program(NODES, shards, 32, Some(plan), phases.clone());
        assert_eq!(clean.observations, chaos.observations, "{shards} shards");
    }
}

#[test]
fn regression_false_sharing_under_drops() {
    // Two writers in different words of one block while the fabric drops:
    // a lost invalidate acknowledgment must not wedge the busy entry.
    let phases = vec![
        Phase::Writes(vec![(0, 1, 1), (1, 2, 2)]),
        Phase::Reads(vec![(0, 3), (1, 3)]),
        Phase::Writes(vec![(0, 2, 3), (1, 1, 4)]),
        Phase::Reads(vec![(0, 1), (1, 2), (0, 5), (1, 6)]),
    ];
    let plan = FaultPlan::new(41).dropping(250);
    let clean = run_program(NODES, NODES, 32, None, phases.clone());
    for shards in shardings(NODES) {
        let chaos = run_program(NODES, shards, 32, Some(plan), phases.clone());
        assert_eq!(clean.observations, chaos.observations, "{shards} shards");
    }
}

#[test]
fn coherence_holds_under_random_phase_programs() {
    check(24, 31, |rng| {
        let block_size = [32, 64, 128][rng.below(3) as usize];
        run_program(3, 3, block_size, None, rand_phases(rng, 1, 14));
    });
}

/// Duplicated delivery: every protocol message may arrive twice, in order.
/// The (requester, seq) watermark, recall-round op ids, and epoch-stamped
/// pre-sends must make all of them idempotent.
#[test]
fn coherence_holds_under_duplicated_delivery() {
    check(24, 32, |rng| {
        let phases = rand_phases(rng, 1, 10);
        let plan = FaultPlan::new(rng.next_u64()).duplicating(100 + rng.below(901) as u16);
        for shards in shardings(3) {
            run_program(3, shards, 32, Some(plan), phases.clone());
        }
    });
}

/// Delayed (FIFO-preserving) delivery plus duplicates: stalled links
/// release under later traffic and retries; values never diverge.
#[test]
fn coherence_holds_under_delayed_delivery() {
    check(24, 33, |rng| {
        let phases = rand_phases(rng, 1, 10);
        let plan = FaultPlan::new(rng.next_u64())
            .delaying(50 + rng.below(350) as u16, 1 + rng.below(3) as u32)
            .duplicating(60);
        for shards in shardings(3) {
            run_program(3, shards, 32, Some(plan), phases.clone());
        }
    });
}

/// A counterexample an earlier randomized search shrank to: a 12-phase
/// program at 64-byte blocks, where reads of addresses written in earlier
/// phases share blocks with later writers.
#[test]
fn pinned_twelve_phase_case_at_64b_blocks() {
    let phases = vec![
        Phase::Reads(vec![(3, 0), (5, 0)]),
        Phase::Writes(vec![(5, 0, 18427189421063975524)]),
        Phase::Writes(vec![
            (8, 2, 13426523303742176575),
            (9, 1, 12082817195746022718),
            (11, 0, 2860813970261959552),
        ]),
        Phase::Reads(vec![(6, 2), (5, 2), (9, 1), (6, 0), (6, 0), (6, 2), (3, 2), (7, 0)]),
        Phase::Writes(vec![
            (3, 2, 7223228280769112191),
            (4, 0, 16201217000018916851),
            (5, 2, 7404519436462015783),
            (9, 1, 9720883561445607880),
        ]),
        Phase::Reads(vec![(6, 2), (4, 2), (1, 0), (5, 0), (7, 1), (4, 0), (9, 0), (0, 0)]),
        Phase::Reads(vec![(9, 0), (9, 1), (4, 0), (6, 2), (11, 0)]),
        Phase::Reads(vec![(6, 0), (2, 0), (6, 2)]),
        Phase::Reads(vec![(1, 1), (1, 2)]),
        Phase::Reads(vec![(0, 0), (8, 2)]),
        Phase::Reads(vec![(9, 1), (7, 1), (11, 1), (9, 1)]),
        Phase::Writes(vec![
            (0, 1, 17084951859056702892),
            (3, 1, 13259948890354677059),
            (4, 1, 12751160706609448220),
            (6, 0, 8647870685506600900),
        ]),
    ];
    run_program(3, 3, 64, None, phases);
}

/// A regression-style deterministic case: interleaved writers and readers
/// with false sharing inside one block.
#[test]
fn deterministic_false_sharing_case() {
    let phases = vec![
        Phase::Writes(vec![(0, 0, 11), (1, 1, 22), (2, 2, 33)]),
        Phase::Reads(vec![(0, 2), (1, 0), (2, 1)]),
        Phase::Writes(vec![(0, 2, 44), (3, 0, 55)]),
        Phase::Reads(vec![(0, 0), (0, 1), (3, 2), (1, 2)]),
        Phase::Writes(vec![(1, 0, 66)]),
        Phase::Reads(vec![(1, 1), (0, 1)]),
    ];
    run_program(3, 3, 32, None, phases);
}

/// Pinned fault-injection case (regression seed): the same false-sharing
/// program with every message duplicated and links stalling — the shape
/// that exercises duplicate recalls against a busy directory entry.
#[test]
fn deterministic_false_sharing_case_under_faults() {
    let phases = vec![
        Phase::Writes(vec![(0, 0, 11), (1, 1, 22), (2, 2, 33)]),
        Phase::Reads(vec![(0, 2), (1, 0), (2, 1)]),
        Phase::Writes(vec![(0, 2, 44), (3, 0, 55)]),
        Phase::Reads(vec![(0, 0), (0, 1), (3, 2), (1, 2)]),
        Phase::Writes(vec![(1, 0, 66)]),
        Phase::Reads(vec![(1, 1), (0, 1)]),
    ];
    let plan = FaultPlan::new(0xC0FFEE).duplicating(1000).delaying(150, 3).dropping(60);
    for shards in shardings(3) {
        run_program(3, shards, 32, Some(plan), phases.clone());
    }
}
