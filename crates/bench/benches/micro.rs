//! Microbenches for the mechanisms the host-time benchmark's per-layer
//! probes do not cover:
//!
//! * `access/local_hit` — the fine-grain access-control check + copy on the
//!   hot (hit) path, through a running machine;
//! * `compiler/compile_jacobi` — the whole mini-C\*\* pipeline;
//! * `dataflow/solve_32aggs_6deep` — the bit-vector fixpoint on a deep
//!   loop nest;
//! * `mem/iter_blocks_1k_resident` — the dense block walk of the flat
//!   paged arena;
//! * `check/coherence_32x10k` — one whole-machine coherence check
//!   (`stache::check_coherence`, what every validated run pays after its
//!   last phase) over 32 nodes holding ~10 000 blocks each.
//!
//! Run with `cargo bench -p prescient-bench --bench micro`. Each bench runs
//! once to warm up, then reports the median time per iteration of
//! [`SAMPLES`] timed samples.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prescient_cstar::cfg::CfgBuilder;
use prescient_cstar::dataflow::ReachingUnstructured;
use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx};
use prescient_stache::{check_coherence, DirState, Msg, NodeShared};
use prescient_tempest::fabric::{BatchConfig, Fabric};
use prescient_tempest::sync::channel;
use prescient_tempest::{CostModel, GlobalLayout, NodeId, NodeMem, NodeSet, SmallRng, Tag};

const SAMPLES: usize = 11;

/// Print the median per-iteration time of `run(iters)`, which returns the
/// time `iters` iterations took.
fn bench(name: &str, iters: u64, mut run: impl FnMut(u64) -> Duration) {
    run(iters);
    let mut ns: Vec<f64> =
        (0..SAMPLES).map(|_| run(iters).as_nanos() as f64 / iters as f64).collect();
    ns.sort_by(f64::total_cmp);
    println!("{name:<30} {:>12.1} ns/iter (median of {SAMPLES})", ns[SAMPLES / 2]);
}

/// A `run` for [`bench`] that times `iters` calls of `f`.
fn timed<R>(mut f: impl FnMut() -> R) -> impl FnMut(u64) -> Duration {
    move |iters| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }
}

fn bench_access() {
    let mut machine = Machine::new(MachineConfig::stache(2, 64));
    let a = Agg1D::<f64>::new(&machine, 64, Dist1D::Block);
    bench("access/local_hit", 100_000, |iters| {
        let (durs, _) = machine.run(|ctx: &mut NodeCtx| {
            let start = Instant::now();
            if ctx.me() == 0 {
                let addr = a.addr(0);
                for i in 0..iters {
                    ctx.write(addr, i as f64);
                    let _: f64 = ctx.read(addr);
                }
            }
            let d = start.elapsed();
            ctx.barrier();
            d
        });
        durs[0] / 2 // two accesses per iter
    });
}

fn bench_compiler() {
    const SRC: &str = r#"
        aggregate G[64][64] of float;
        aggregate H[64][64] of float;
        parallel fn sweep(g, h) {
            h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
        }
        fn main() {
            for it in 0 .. 100 { sweep(G, H); sweep(H, G); }
        }
    "#;
    bench(
        "compiler/compile_jacobi",
        1_000,
        timed(|| prescient_cstar::compile::compile(black_box(SRC)).unwrap()),
    );
}

fn bench_dataflow() {
    // A deep loop nest with many aggregates: stress the fixpoint.
    let aggs: Vec<String> = (0..32).map(|i| format!("A{i}")).collect();
    let mut b = CfgBuilder::new(aggs.clone());
    for depth in 0..6 {
        b.begin_loop(&format!("l{depth}"));
    }
    for i in 0..32 {
        let name = format!("A{i}");
        b.call(&format!("f{i}"), &[(name.as_str(), false, i % 3 == 0, i % 2 == 0, i % 5 == 0)]);
    }
    for _ in 0..6 {
        b.end_loop();
    }
    let cfg = b.finish();
    bench(
        "dataflow/solve_32aggs_6deep",
        1_000,
        timed(|| ReachingUnstructured::solve(black_box(&cfg)).unwrap()),
    );
}

fn bench_mem() {
    // A store with 1024 resident home blocks (4 arena pages), written so
    // every slot is materialized.
    let mut mem = NodeMem::new(GlobalLayout::new(4, 32), 0);
    let base = mem.alloc(1024 * 32, 32);
    for i in 0..1024u64 {
        mem.write_in_block(base.add(i * 32), &[i as u8; 8]).unwrap();
    }
    bench("mem/iter_blocks_1k_resident", 10_000, timed(|| mem.iter_blocks().count()));
}

/// A quiescent, coherent 32-node machine (no protocol threads) in a
/// barnes-like mix: each node homes 3 000 blocks of 128 B, of which 70 %
/// are shared by three nearby readers, 20 % owned by one nearby writer,
/// and 10 % uncached. That is ~10 000 materialized blocks per node.
fn coherent_machine() -> Vec<Arc<NodeShared>> {
    const NODES: usize = 32;
    const BS: usize = 128;
    const HOME_BLOCKS: u64 = 3_000;
    let layout = GlobalLayout::new(NODES, BS);
    let nodes: Vec<Arc<NodeShared>> = Fabric::new_with::<Msg>(NODES, BatchConfig::new(1))
        .into_iter()
        .map(|ep| {
            let (wake_tx, _) = channel();
            Arc::new(NodeShared::new(layout, CostModel::default(), ep.net().clone(), wake_tx))
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(0xc4ec);
    for h in 0..NODES {
        let mut dir = nodes[h].dir.lock();
        for i in 0..HOME_BLOCKS {
            let block = layout.heap_base(h as NodeId).add(i * BS as u64).block(BS);
            let bytes = [i as u8; BS];
            let put = |p: usize, tag| nodes[p].mem.lock().install(block, &bytes, tag, false);
            let near = |rng: &mut SmallRng| (h + 1 + rng.below(4) as usize) % NODES;
            dir.entry(block).state = match rng.below(10) {
                0..=6 => {
                    put(h, Tag::ReadOnly);
                    let mut readers = NodeSet::EMPTY;
                    while readers.len() < 3 {
                        readers.insert(near(&mut rng) as NodeId);
                    }
                    for r in readers.iter() {
                        put(r as usize, Tag::ReadOnly);
                    }
                    DirState::Shared(readers)
                }
                7..=8 => {
                    put(h, Tag::Invalid);
                    let owner = near(&mut rng);
                    put(owner, Tag::ReadWrite);
                    DirState::Exclusive(owner as NodeId)
                }
                _ => {
                    put(h, Tag::ReadWrite);
                    DirState::Uncached
                }
            };
        }
    }
    nodes
}

fn bench_check() {
    let nodes = coherent_machine();
    assert!(check_coherence(&nodes).is_empty(), "the bench state must be coherent");
    bench("check/coherence_32x10k", 1, timed(|| check_coherence(&nodes)));
}

fn main() {
    bench_access();
    bench_compiler();
    bench_dataflow();
    bench_mem();
    bench_check();
}
