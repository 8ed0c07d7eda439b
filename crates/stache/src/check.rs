//! Whole-machine coherence invariant checking.
//!
//! Intended to run while the machine is *quiesced* (all compute threads at
//! a barrier, all protocol queues drained — e.g. between
//! [`prescient runtime runs`](crate) or at test checkpoints). Verifies, for
//! every block any node holds:
//!
//! * the home directory entry is stable (no busy op, no waiters);
//! * `Uncached` ⇒ home tag is `ReadWrite` (or `ReadOnly` after a tolerant
//!   home read) and no remote copy is readable;
//! * `Shared(S)` ⇒ home tag is readable but not writable is allowed to be
//!   `ReadOnly`; every readable remote copy belongs to `S`; no remote copy
//!   is writable; **every read-only copy's bytes equal the home bytes**;
//! * `Exclusive(o)` ⇒ home tag is `Invalid`, `o` holds the only writable
//!   copy, and no third node holds a readable copy.
//!
//! The single-writer/multi-reader property plus data agreement is exactly
//! what sequential consistency needs from the protocol layer; the
//! `self-grant` regression this suite guards against was a violation of
//! the `Exclusive` clause.
//!
//! Cost: each node's `(block, tag)` table is read once under its `mem`
//! lock, and the tables (already ascending by block) are walked in one
//! k-way merge, so a check is O(B · log n) for B materialized blocks on n
//! nodes, plus one home-directory lookup per distinct block and one byte
//! comparison per read-only copy of a `Shared` block. At paper scale
//! (barnes, 32 nodes, 322 000 materialized blocks) one check takes ~32 ms
//! on a 2-core host.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::Arc;

use prescient_tempest::tag::Tag;
use prescient_tempest::{BlockId, NodeId};

use crate::dir::DirState;
use crate::node::NodeShared;

/// Check every coherence invariant across `nodes` (one entry per node, in
/// id order). Returns a list of human-readable violations (empty = clean),
/// ordered by block, then by clause.
///
/// The caller must guarantee quiescence; otherwise transient states will
/// be reported as violations.
pub fn check_coherence(nodes: &[Arc<NodeShared>]) -> Vec<String> {
    // The tag of every materialized block on every node, ascending by id.
    let tables: Vec<Vec<(BlockId, Tag)>> = nodes
        .iter()
        .map(|node| {
            let table: Vec<_> = node.mem.lock().iter_blocks().collect();
            debug_assert!(
                table.windows(2).all(|w| w[0].0 < w[1].0),
                "iter_blocks must yield strictly ascending ids"
            );
            table
        })
        .collect();
    let mut violations = Vec::new();
    let mut home_bytes = Vec::new();
    for_each_block(&tables, |block, holders| {
        check_block(nodes, block, holders, &mut home_bytes, &mut violations);
    });
    violations
}

/// Merge the per-node tables: call `f` once per block held anywhere, in
/// ascending block order, with the `(node, tag)` list of the nodes that
/// materialize it, ascending by node.
fn for_each_block(tables: &[Vec<(BlockId, Tag)>], mut f: impl FnMut(BlockId, &[(usize, Tag)])) {
    let mut cursors = vec![0usize; tables.len()];
    let mut heap: BinaryHeap<Reverse<(BlockId, usize)>> = tables
        .iter()
        .enumerate()
        .filter_map(|(p, t)| t.first().map(|&(b, _)| Reverse((b, p))))
        .collect();
    let mut holders = Vec::new();
    while let Some(&Reverse((block, _))) = heap.peek() {
        holders.clear();
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((b, p)) = *top;
            if b != block {
                break;
            }
            holders.push((p, tables[p][cursors[p]].1));
            cursors[p] += 1;
            match tables[p].get(cursors[p]) {
                Some(&(next, _)) => *top = Reverse((next, p)),
                None => drop(PeekMut::pop(top)),
            }
        }
        f(block, &holders);
    }
}

/// Resolve `block`'s live home: start from node 0's view and follow
/// forwarding stubs (the stub at the current home is always cleared on
/// arrival, so the chain terminates).
fn resolve_home(nodes: &[Arc<NodeShared>], block: BlockId, violations: &mut Vec<String>) -> NodeId {
    let mut h = nodes[0].homes.home_of_block(block);
    let mut hops = 0;
    while let Some(next) = nodes[h as usize].placement.as_ref().and_then(|p| p.lock().stub(block)) {
        h = next;
        hops += 1;
        if hops > nodes.len() {
            violations.push(format!("{block:?}: forwarding-stub chain does not resolve"));
            break;
        }
    }
    h
}

/// Every invariant of one block. `holders` lists the nodes that
/// materialize it (ascending); every other node's tag is `Invalid`.
/// `home_bytes` is scratch space reused across blocks.
fn check_block(
    nodes: &[Arc<NodeShared>],
    block: BlockId,
    holders: &[(usize, Tag)],
    home_bytes: &mut Vec<u8>,
    violations: &mut Vec<String>,
) {
    let home = resolve_home(nodes, block, violations);
    let home_node = &nodes[home as usize];
    // Placement-acted blocks relax the home-tag side of the invariants:
    // a freshly migrated-in home's own copy starts Invalid even while its
    // home memory is current.
    let identity = home_node.homes.is_identity_block(block);
    let state = {
        let dir = home_node.dir.lock();
        match dir.get(block) {
            Some(e) => {
                if e.is_busy() {
                    violations.push(format!("{block:?}: home {home} entry busy at quiescence"));
                }
                if !e.waiters.is_empty() {
                    violations
                        .push(format!("{block:?}: home {home} has queued waiters at quiescence"));
                }
                e.state
            }
            None => DirState::Uncached,
        }
    };
    let remote = holders.iter().copied().filter(|&(p, _)| p != home as usize);

    match state {
        DirState::Uncached => {
            let home_tag = home_node.mem.lock().probe(block);
            if !home_tag.readable() && identity {
                violations.push(format!("{block:?}: Uncached but home {home} tag is {home_tag:?}"));
            }
            for (p, t) in remote.filter(|(_, t)| t.readable()) {
                violations.push(format!("{block:?}: Uncached but node {p} holds a {t:?} copy"));
            }
        }
        DirState::Shared(s) => {
            let (home_tag, has_home_bytes) = {
                let mem = home_node.mem.lock();
                home_bytes.clear();
                let data = mem.data(block);
                home_bytes.extend_from_slice(data.unwrap_or_default());
                (mem.probe(block), data.is_some())
            };
            if home_tag.writable() || (!home_tag.readable() && identity) {
                violations.push(format!("{block:?}: Shared but home {home} tag is {home_tag:?}"));
            }
            for (p, t) in remote {
                if t.writable() {
                    violations
                        .push(format!("{block:?}: Shared but node {p} holds a writable copy"));
                }
                if t.readable() && !s.contains(p as NodeId) {
                    violations.push(format!(
                        "{block:?}: node {p} holds a readable copy but is not in sharers {s:?}"
                    ));
                }
                // Data agreement: every valid copy equals home memory.
                if t.readable()
                    && has_home_bytes
                    && nodes[p].mem.lock().data(block).is_some_and(|c| c != home_bytes.as_slice())
                {
                    violations.push(format!(
                        "{block:?}: node {p}'s read-only copy diverges from home data"
                    ));
                }
            }
        }
        DirState::Exclusive(o) => {
            let home_tag = home_node.mem.lock().probe(block);
            if home_tag.readable() {
                violations
                    .push(format!("{block:?}: Exclusive({o}) but home {home} tag is {home_tag:?}"));
            }
            let owner_tag =
                holders.iter().find(|&&(p, _)| p == o as usize).map_or(Tag::Invalid, |&(_, t)| t);
            if !owner_tag.writable() {
                violations
                    .push(format!("{block:?}: Exclusive({o}) but owner's tag is {owner_tag:?}"));
            }
            for &(p, t) in holders.iter().filter(|&&(p, t)| p != o as usize && t.readable()) {
                violations
                    .push(format!("{block:?}: Exclusive({o}) but node {p} holds a {t:?} copy"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use prescient_tempest::fabric::{BatchConfig, Fabric};
    use prescient_tempest::rng::check;
    use prescient_tempest::sync::channel;
    use prescient_tempest::{CostModel, GlobalLayout, HomeView, NodeSet, SmallRng};

    use super::*;
    use crate::dir::{Busy, PendingReq};
    use crate::msg::Msg;
    use crate::node::RetryConfig;
    use crate::placement::PlacementConfig;

    const BS: usize = 16;

    /// The original linear-scan checker, kept verbatim as the oracle the
    /// merge-based one must match element for element.
    fn reference(nodes: &[Arc<NodeShared>]) -> Vec<String> {
        let mut violations = Vec::new();
        let n = nodes.len();

        // Collect the tag of every materialized block on every node.
        let mut tags: Vec<Vec<(BlockId, Tag)>> = Vec::with_capacity(n);
        for node in nodes {
            let mem = node.mem.lock();
            tags.push(mem.iter_blocks().collect());
        }

        // Union of all blocks seen anywhere.
        let mut all_blocks: Vec<BlockId> = tags.iter().flatten().map(|(b, _)| *b).collect();
        all_blocks.sort_unstable();
        all_blocks.dedup();

        for block in all_blocks {
            let home = {
                let mut h = nodes[0].homes.home_of_block(block);
                let mut hops = 0;
                while let Some(next) =
                    nodes[h as usize].placement.as_ref().and_then(|p| p.lock().stub(block))
                {
                    h = next;
                    hops += 1;
                    if hops > n {
                        violations
                            .push(format!("{block:?}: forwarding-stub chain does not resolve"));
                        break;
                    }
                }
                h
            };
            let home_node = &nodes[home as usize];
            let identity = home_node.homes.is_identity_block(block);
            let state = {
                let dir = home_node.dir.lock();
                match dir.get(block) {
                    Some(e) => {
                        if e.is_busy() {
                            violations
                                .push(format!("{block:?}: home {home} entry busy at quiescence"));
                        }
                        if !e.waiters.is_empty() {
                            violations.push(format!(
                                "{block:?}: home {home} has queued waiters at quiescence"
                            ));
                        }
                        e.state
                    }
                    None => DirState::Uncached,
                }
            };
            let tag_of = |p: usize| -> Tag {
                tags[p].iter().find(|(b, _)| *b == block).map(|(_, t)| *t).unwrap_or(Tag::Invalid)
            };
            let home_tag = {
                let mem = home_node.mem.lock();
                mem.probe(block)
            };

            match state {
                DirState::Uncached => {
                    if !home_tag.readable() && identity {
                        violations.push(format!(
                            "{block:?}: Uncached but home {home} tag is {home_tag:?}"
                        ));
                    }
                    for p in 0..n {
                        if p != home as usize && tag_of(p).readable() {
                            violations.push(format!(
                                "{block:?}: Uncached but node {p} holds a {:?} copy",
                                tag_of(p)
                            ));
                        }
                    }
                }
                DirState::Shared(s) => {
                    if home_tag.writable() || (!home_tag.readable() && identity) {
                        violations
                            .push(format!("{block:?}: Shared but home {home} tag is {home_tag:?}"));
                    }
                    let home_data = home_node.mem.lock().data(block).map(<[u8]>::to_vec);
                    #[allow(clippy::needless_range_loop)]
                    for p in 0..n {
                        if p == home as usize {
                            continue;
                        }
                        let t = tag_of(p);
                        if t.writable() {
                            violations.push(format!(
                                "{block:?}: Shared but node {p} holds a writable copy"
                            ));
                        }
                        if t.readable() && !s.contains(p as u16) {
                            violations.push(format!(
                                "{block:?}: node {p} holds a readable copy but is not in sharers {s:?}"
                            ));
                        }
                        if t.readable() {
                            let copy = nodes[p].mem.lock().data(block).map(<[u8]>::to_vec);
                            if let (Some(h), Some(c)) = (&home_data, &copy) {
                                if h != c {
                                    violations.push(format!(
                                        "{block:?}: node {p}'s read-only copy diverges from home data"
                                    ));
                                }
                            }
                        }
                    }
                }
                DirState::Exclusive(o) => {
                    if home_tag.readable() {
                        violations.push(format!(
                            "{block:?}: Exclusive({o}) but home {home} tag is {home_tag:?}"
                        ));
                    }
                    if !tag_of(o as usize).writable() {
                        violations.push(format!(
                            "{block:?}: Exclusive({o}) but owner's tag is {:?}",
                            tag_of(o as usize)
                        ));
                    }
                    for p in 0..n {
                        if p != o as usize && tag_of(p).readable() {
                            violations.push(format!(
                                "{block:?}: Exclusive({o}) but node {p} holds a {:?} copy",
                                tag_of(p)
                            ));
                        }
                    }
                }
            }
        }
        violations
    }

    /// `n` quiescent nodes with no protocol threads, online placement
    /// (forwarding stubs) enabled when `placement` is set.
    fn machine(n: usize, placement: bool) -> Vec<Arc<NodeShared>> {
        let layout = GlobalLayout::new(n, BS);
        Fabric::new_with::<Msg>(n, BatchConfig::new(1))
            .into_iter()
            .map(|ep| {
                let (wake_tx, _) = channel();
                Arc::new(NodeShared::new_with_placement(
                    layout,
                    CostModel::default(),
                    ep.net().clone(),
                    wake_tx,
                    RetryConfig::default(),
                    Arc::new(HomeView::identity(layout)),
                    placement.then(PlacementConfig::default),
                ))
            })
            .collect()
    }

    /// The `i`-th block of `home`'s heap segment.
    fn block(nodes: &[Arc<NodeShared>], home: NodeId, i: u64) -> BlockId {
        nodes[0].layout.heap_base(home).add(i * BS as u64).block(BS)
    }

    fn req(requester: NodeId) -> PendingReq {
        PendingReq { requester, excl: false, recorded: false, seq: 1 }
    }

    fn random_tag(rng: &mut SmallRng) -> Tag {
        [Tag::Invalid, Tag::ReadOnly, Tag::ReadWrite][rng.below(3) as usize]
    }

    /// A random quiesced state. Half the cases hold only coherent blocks
    /// (an `Uncached`, `Shared` or `Exclusive` block with matching tags
    /// and bytes). In the other half every block is random: materialized
    /// copies with random tags (agreeing with the home bytes or diverged,
    /// some flagged as unread pre-sends), a random directory entry
    /// (sometimes busy or with waiters, sometimes at a node that is not
    /// the block's home), overlay re-homes, and forwarding stubs.
    fn random_state(rng: &mut SmallRng) -> Vec<Arc<NodeShared>> {
        let n = 3 + rng.below(6) as usize;
        let nodes = machine(n, rng.coin());
        let noisy = rng.coin();
        let any = |rng: &mut SmallRng| rng.below(n as u64) as NodeId;
        for seg in 0..n as NodeId {
            for i in 0..8 {
                if rng.coin() {
                    continue;
                }
                let b = block(&nodes, seg, i);
                let bytes = [rng.below(4) as u8; BS];
                if !noisy {
                    coherent_block(rng, &nodes, b, seg, bytes);
                    continue;
                }
                let home = if rng.below(4) == 0 { any(rng) } else { seg };
                for node in &nodes {
                    if rng.coin() {
                        continue;
                    }
                    let tag = random_tag(rng);
                    let data = if rng.below(4) == 0 { [rng.below(4) as u8; BS] } else { bytes };
                    node.mem.lock().install(b, &data, tag, rng.coin());
                }
                if rng.below(4) != 0 {
                    let mut dir = nodes[home as usize].dir.lock();
                    let e = dir.entry(b);
                    e.state = match rng.below(3) {
                        0 => DirState::Uncached,
                        1 => DirState::Shared(NodeSet(rng.next_u64() & ((1 << n) - 1))),
                        _ => DirState::Exclusive(any(rng)),
                    };
                    if rng.below(8) == 0 {
                        e.busy = Some(Busy::Recall { req: req(any(rng)), owner: any(rng), op: 1 });
                    }
                    if rng.below(8) == 0 {
                        e.waiters = VecDeque::from([req(any(rng))]);
                    }
                }
                let rehome = rng.below(6) == 0;
                for node in &nodes {
                    if rehome && rng.coin() {
                        node.homes.set(b, home);
                    }
                    if let Some(pl) = node.placement.as_ref() {
                        if rng.below(6) == 0 {
                            pl.lock().set_stub(b, any(rng));
                        }
                    }
                }
            }
        }
        nodes
    }

    /// Make `b` (homed at `home`) coherent in a random stable state.
    fn coherent_block(
        rng: &mut SmallRng,
        nodes: &[Arc<NodeShared>],
        b: BlockId,
        home: NodeId,
        bytes: [u8; BS],
    ) {
        let put = |p: usize, tag: Tag| nodes[p].mem.lock().install(b, &bytes, tag, false);
        let remote: Vec<usize> = (0..nodes.len()).filter(|&p| p != home as usize).collect();
        let state = match rng.below(3) {
            0 => {
                put(home as usize, Tag::ReadWrite);
                DirState::Uncached
            }
            1 => {
                put(home as usize, Tag::ReadOnly);
                let mut s =
                    NodeSet::single(remote[rng.below(remote.len() as u64) as usize] as NodeId);
                for &p in &remote {
                    if rng.coin() {
                        s.insert(p as NodeId);
                    }
                }
                for p in s.iter() {
                    put(p as usize, Tag::ReadOnly);
                }
                DirState::Shared(s)
            }
            _ => {
                put(home as usize, Tag::Invalid);
                let o = remote[rng.below(remote.len() as u64) as usize];
                put(o, Tag::ReadWrite);
                DirState::Exclusive(o as NodeId)
            }
        };
        nodes[home as usize].dir.lock().entry(b).state = state;
    }

    #[test]
    fn matches_the_linear_scan_reference() {
        let (mut clean, mut dirty) = (0, 0);
        check(256, 0xc0e4e7, |rng| {
            let nodes = random_state(rng);
            let got = check_coherence(&nodes);
            assert_eq!(got, reference(&nodes));
            if got.is_empty() {
                clean += 1;
            } else {
                dirty += 1;
            }
        });
        assert!(clean > 0 && dirty > 0, "{clean} clean vs {dirty} dirty cases");
    }

    /// Three nodes, no placement; block `b` is homed at node 1.
    fn three() -> (Vec<Arc<NodeShared>>, BlockId) {
        let nodes = machine(3, false);
        let b = block(&nodes, 1, 0);
        (nodes, b)
    }

    fn put(nodes: &[Arc<NodeShared>], p: usize, b: BlockId, tag: Tag, byte: u8) {
        nodes[p].mem.lock().install(b, &[byte; BS], tag, false);
    }

    fn set_state(nodes: &[Arc<NodeShared>], b: BlockId, state: DirState) {
        nodes[1].dir.lock().entry(b).state = state;
    }

    /// The checker (and the reference) report exactly `msg` for `b`.
    fn reports_only(nodes: &[Arc<NodeShared>], b: BlockId, msg: &str) {
        let got = check_coherence(nodes);
        assert_eq!(got, vec![format!("{b:?}: {msg}")]);
        assert_eq!(got, reference(nodes));
    }

    #[test]
    fn busy_entry() {
        let (nodes, b) = three();
        put(&nodes, 1, b, Tag::ReadWrite, 0);
        nodes[1].dir.lock().entry(b).busy = Some(Busy::Recall { req: req(0), owner: 2, op: 1 });
        reports_only(&nodes, b, "home 1 entry busy at quiescence");
    }

    #[test]
    fn queued_waiters() {
        let (nodes, b) = three();
        put(&nodes, 1, b, Tag::ReadWrite, 0);
        nodes[1].dir.lock().entry(b).waiters.push_back(req(2));
        reports_only(&nodes, b, "home 1 has queued waiters at quiescence");
    }

    #[test]
    fn unresolvable_stub_chain() {
        let nodes = machine(3, true);
        let b = block(&nodes, 1, 0);
        put(&nodes, 1, b, Tag::ReadWrite, 0);
        nodes[1].placement.as_ref().unwrap().lock().set_stub(b, 2);
        nodes[2].placement.as_ref().unwrap().lock().set_stub(b, 1);
        reports_only(&nodes, b, "forwarding-stub chain does not resolve");
    }

    #[test]
    fn uncached_with_bad_home_tag() {
        let (nodes, b) = three();
        put(&nodes, 1, b, Tag::Invalid, 0);
        reports_only(&nodes, b, "Uncached but home 1 tag is Invalid");
    }

    #[test]
    fn uncached_with_remote_copy() {
        let (nodes, b) = three();
        put(&nodes, 1, b, Tag::ReadWrite, 0);
        put(&nodes, 2, b, Tag::ReadOnly, 0);
        reports_only(&nodes, b, "Uncached but node 2 holds a ReadOnly copy");
    }

    #[test]
    fn shared_with_bad_home_tag() {
        let (nodes, b) = three();
        set_state(&nodes, b, DirState::Shared(NodeSet::single(2)));
        put(&nodes, 1, b, Tag::ReadWrite, 0);
        put(&nodes, 2, b, Tag::ReadOnly, 0);
        reports_only(&nodes, b, "Shared but home 1 tag is ReadWrite");
    }

    #[test]
    fn shared_with_writable_copy() {
        let (nodes, b) = three();
        set_state(&nodes, b, DirState::Shared(NodeSet::single(2)));
        put(&nodes, 1, b, Tag::ReadOnly, 0);
        put(&nodes, 2, b, Tag::ReadWrite, 0);
        reports_only(&nodes, b, "Shared but node 2 holds a writable copy");
    }

    #[test]
    fn shared_with_readable_non_sharer() {
        let (nodes, b) = three();
        let s = NodeSet::single(2);
        set_state(&nodes, b, DirState::Shared(s));
        put(&nodes, 1, b, Tag::ReadOnly, 0);
        put(&nodes, 0, b, Tag::ReadOnly, 0);
        reports_only(
            &nodes,
            b,
            &format!("node 0 holds a readable copy but is not in sharers {s:?}"),
        );
    }

    #[test]
    fn shared_with_diverged_copy() {
        let (nodes, b) = three();
        set_state(&nodes, b, DirState::Shared(NodeSet::single(2)));
        put(&nodes, 1, b, Tag::ReadOnly, 0);
        put(&nodes, 2, b, Tag::ReadOnly, 9);
        reports_only(&nodes, b, "node 2's read-only copy diverges from home data");
    }

    #[test]
    fn exclusive_with_readable_home() {
        let (nodes, b) = three();
        set_state(&nodes, b, DirState::Exclusive(2));
        // The home never materialized the block: it probes as ReadWrite.
        put(&nodes, 2, b, Tag::ReadWrite, 0);
        reports_only(&nodes, b, "Exclusive(2) but home 1 tag is ReadWrite");
    }

    #[test]
    fn exclusive_with_non_writable_owner() {
        let (nodes, b) = three();
        set_state(&nodes, b, DirState::Exclusive(2));
        put(&nodes, 1, b, Tag::Invalid, 0);
        put(&nodes, 2, b, Tag::ReadOnly, 0);
        reports_only(&nodes, b, "Exclusive(2) but owner's tag is ReadOnly");
    }

    #[test]
    fn exclusive_with_third_reader() {
        let (nodes, b) = three();
        set_state(&nodes, b, DirState::Exclusive(2));
        put(&nodes, 1, b, Tag::Invalid, 0);
        put(&nodes, 2, b, Tag::ReadWrite, 0);
        put(&nodes, 0, b, Tag::ReadOnly, 0);
        reports_only(&nodes, b, "Exclusive(2) but node 0 holds a ReadOnly copy");
    }
}
