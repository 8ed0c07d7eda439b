//! Seeded property checks for the substrate primitives: NodeSet vs a model
//! set, address/block math, allocator invariants, Prim roundtrips, and
//! per-link FIFO through a batched faulty fabric.

use std::collections::BTreeSet;

use prescient_tempest::rng::check;
use prescient_tempest::{
    BatchConfig, Fabric, FaultPlan, GAddr, GlobalLayout, NodeMem, NodeSet, Prim, SmallRng, TryRecv,
};

const CASES: u32 = 256;

/// Up to 31 node ids drawn from `0..64`.
fn node_set(rng: &mut SmallRng) -> BTreeSet<u16> {
    (0..rng.below(32)).map(|_| rng.below(64) as u16).collect()
}

#[test]
fn nodeset_matches_btreeset_model() {
    check(CASES, 1, |rng| {
        let mut s = NodeSet::EMPTY;
        let mut model = BTreeSet::new();
        for _ in 0..rng.below(200) {
            let n = rng.below(64) as u16;
            if rng.coin() {
                s.insert(n);
                model.insert(n);
            } else {
                s.remove(n);
                model.remove(&n);
            }
            assert_eq!(s.len(), model.len());
            assert_eq!(s.is_empty(), model.is_empty());
        }
        let collected: Vec<u16> = s.iter().collect();
        let expected: Vec<u16> = model.into_iter().collect();
        assert_eq!(collected, expected, "iteration ascending and complete");
    });
}

#[test]
fn nodeset_algebra_matches_model() {
    check(CASES, 2, |rng| {
        let (a, b) = (node_set(rng), node_set(rng));
        let sa: NodeSet = a.iter().copied().collect();
        let sb: NodeSet = b.iter().copied().collect();
        let union: BTreeSet<u16> = a.union(&b).copied().collect();
        let inter: BTreeSet<u16> = a.intersection(&b).copied().collect();
        let minus: BTreeSet<u16> = a.difference(&b).copied().collect();
        assert_eq!(sa.union(sb).iter().collect::<BTreeSet<_>>(), union);
        assert_eq!(sa.intersect(sb).iter().collect::<BTreeSet<_>>(), inter);
        assert_eq!(sa.minus(sb).iter().collect::<BTreeSet<_>>(), minus);
    });
}

#[test]
fn block_math_consistent() {
    check(CASES, 3, |rng| {
        let a = GAddr(1 + rng.below((1 << 40) - 1));
        let bs = 1usize << (3 + rng.below(8)); // block sizes 8..1024
        let b = a.block(bs);
        let base = b.base(bs);
        assert!(base.0 <= a.0);
        assert!(a.0 < base.0 + bs as u64);
        assert_eq!(base.offset_in_block(bs), 0);
        assert_eq!(a.offset_in_block(bs) as u64, a.0 - base.0);
        // Neighboring block bases differ by exactly the block size.
        assert_eq!(b.next().base(bs).0, base.0 + bs as u64);
    });
}

#[test]
fn allocator_never_overlaps_or_straddles() {
    check(CASES, 4, |rng| {
        let bs = 1usize << (5 + rng.below(4));
        let layout = GlobalLayout::new(3, bs);
        let mut mem = NodeMem::new(layout, 1);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for _ in 0..1 + rng.below(39) {
            let bytes = 1 + rng.below(99);
            let align = 1u64 << rng.below(4);
            let a = mem.alloc(bytes, align);
            assert_eq!(a.0 % align, 0, "alignment respected");
            assert_eq!(layout.home_of(a), 1, "allocation homed locally");
            // Small allocations never straddle a block boundary.
            if bytes as usize <= bs {
                let end = a.0 + bytes - 1;
                assert_eq!(a.block(bs), GAddr(end).block(bs), "no straddle");
            }
            for &(s, e) in &regions {
                assert!(a.0 + bytes <= s || a.0 >= e, "no overlap");
            }
            regions.push((a.0, a.0 + bytes));
        }
    });
}

#[test]
fn prim_f64_roundtrip() {
    check(CASES, 5, |rng| {
        // Random bit patterns cover NaNs, infinities and subnormals.
        let v = f64::from_bits(rng.next_u64());
        let mut buf = [0u8; 8];
        v.store(&mut buf);
        // NaN-safe comparison via bits.
        assert_eq!(f64::load(&buf).to_bits(), v.to_bits());
    });
}

#[test]
fn prim_u64_i64_roundtrip() {
    check(CASES, 6, |rng| {
        let (v, w) = (rng.next_u64(), rng.next_u64() as i64);
        let mut buf = [0u8; 8];
        v.store(&mut buf);
        assert_eq!(u64::load(&buf), v);
        w.store(&mut buf);
        assert_eq!(i64::load(&buf), w);
    });
}

/// A batched faulty fabric in FIFO-preserving mode keeps per-link order
/// (after collapsing back-to-back duplicates, survivors are strictly
/// ascending), delivers only messages that were sent, and — because fault
/// fates are drawn per-envelope at flush time — the per-link survivor
/// sequence is bit-identical to an unbatched (`max_batch = 1`) fabric with
/// the same seed and send sequence.
#[test]
fn batched_faulty_fabric_keeps_per_link_fifo() {
    check(CASES, 7, |rng| {
        let batch = 1 + rng.below(64) as usize;
        let plan = FaultPlan::new(rng.next_u64())
            .delaying(rng.below(300) as u16, 4)
            .duplicating(rng.below(200) as u16)
            .dropping(rng.below(150) as u16);
        let count = 1 + rng.below(159);
        // Two sources fan in to one destination; the payload tags the
        // source so each link's stream can be recovered at the receiver.
        let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
        for max in [1usize, batch] {
            let (eps, _stats) = Fabric::build::<u64>(3, 3, BatchConfig::new(max), Some(plan));
            for seq in 0..count {
                eps[0].net().send(2, seq);
                eps[1].net().send(2, (1 << 32) | seq);
            }
            eps[0].net().flush_all();
            eps[1].net().flush_all();
            let mut per_src = vec![Vec::new(), Vec::new()];
            while let TryRecv::Msg(env) = eps[2].try_recv() {
                per_src[(env.msg >> 32) as usize].push(env.msg & 0xffff_ffff);
            }
            for stream in &mut per_src {
                // Preserving mode delivers duplicates back-to-back on
                // their link, so collapsing adjacent repeats leaves the
                // surviving sends, which must still be in send order.
                stream.dedup();
                let mut sorted = stream.clone();
                sorted.sort_unstable();
                assert_eq!(stream, &sorted, "per-link FIFO must survive batching");
                assert!(stream.iter().all(|&q| q < count), "only sent messages arrive");
            }
            runs.push(per_src);
        }
        assert_eq!(runs[0], runs[1], "survivors must not depend on batch size");
    });
}
