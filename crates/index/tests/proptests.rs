//! Property tests: posting-list algebra must match naive set algebra, all
//! four closure strategies must agree on arbitrary DAGs, and the
//! persistent containers (time-index runs, `ChunkVec`, `PMap`) must match
//! brute force / std models while clones taken earlier keep answering as
//! they did when taken.

use pass_index::closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
use pass_index::{
    AncestryGraph, ChunkVec, Direction, IntervalClosure, PMap, PostingList, TimeIndex,
};
use pass_model::{TimeRange, Timestamp, TupleSetId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::{Bound, RangeBounds};

fn arb_list() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..200, 0..60)
}

/// Singleton-list counts for [`arb_lists`]; smaller under Miri, where the
/// quadratic reference fold would dominate the run.
const SINGLETONS: std::ops::Range<usize> = if cfg!(miri) { 100..300 } else { 1_000..4_000 };

/// Lists to union: random (overlapping over a small domain), empty, or
/// thousands of singletons — the shape a wide range lookup produces.
fn arb_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop_oneof![
        proptest::collection::vec(prop_oneof![Just(Vec::new()), arb_list()], 0..12),
        proptest::collection::vec(0u32..5_000, SINGLETONS)
            .prop_map(|vs| vs.into_iter().map(|v| vec![v]).collect()),
    ]
}

/// A random DAG: each node links to a random subset of lower-numbered
/// nodes (guarantees acyclicity), with some edges marked abstracted.
fn arb_dag() -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..1000, any::<bool>(), 1u32..4), 0..4),
        1..40,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, parents)| {
                parents
                    .into_iter()
                    .filter(|_| i > 0)
                    .map(|(p, abs, _)| (p % i.max(1), abs))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect()
            })
            .collect()
    })
}

fn build_graph(dag: &[Vec<(usize, bool)>]) -> AncestryGraph {
    let mut g = AncestryGraph::new();
    for (i, parents) in dag.iter().enumerate() {
        let edges: Vec<(TupleSetId, bool)> =
            parents.iter().map(|&(p, abs)| (TupleSetId(p as u128 + 1), abs)).collect();
        g.insert(TupleSetId(i as u128 + 1), &edges);
    }
    g
}

proptest! {
    #[test]
    fn posting_algebra_matches_sets(a in arb_list(), b in arb_list()) {
        let pa = PostingList::from_iter(a.iter().copied());
        let pb = PostingList::from_iter(b.iter().copied());
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();

        let inter: Vec<u32> = sa.intersection(&sb).copied().collect();
        let got_inter = pa.intersect(&pb);
        prop_assert_eq!(got_inter.as_slice(), inter.as_slice());

        let uni: Vec<u32> = sa.union(&sb).copied().collect();
        let got_uni = pa.union(&pb);
        prop_assert_eq!(got_uni.as_slice(), uni.as_slice());

        let diff: Vec<u32> = sa.difference(&sb).copied().collect();
        let got_diff = pa.difference(&pb);
        prop_assert_eq!(got_diff.as_slice(), diff.as_slice());
    }

    #[test]
    fn union_all_equals_pairwise_fold(lists in arb_lists()) {
        let lists: Vec<PostingList> =
            lists.iter().map(|l| PostingList::from_iter(l.iter().copied())).collect();
        let fold = lists.iter().fold(PostingList::new(), |acc, l| acc.union(l));
        let got = PostingList::union_all(lists.iter().collect());
        prop_assert_eq!(got.as_slice(), fold.as_slice());
    }

    #[test]
    fn intersect_is_commutative_and_bounded(a in arb_list(), b in arb_list()) {
        let pa = PostingList::from_iter(a.iter().copied());
        let pb = PostingList::from_iter(b.iter().copied());
        let ab = pa.intersect(&pb);
        let ba = pb.intersect(&pa);
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
        prop_assert!(ab.len() <= pa.len().min(pb.len()));
    }

    #[test]
    fn closure_strategies_agree_on_random_dags(dag in arb_dag()) {
        let g = build_graph(&dag);
        let memo = MemoClosure::build(&g, false).unwrap();
        let interval = IntervalClosure::build(&g, false).unwrap();
        let opts = TraverseOpts::unbounded();
        for node in 0..g.node_count() as u32 {
            for dir in [Direction::Ancestors, Direction::Descendants] {
                let want = BfsClosure.reachable(&g, node, dir, &opts);
                let naive = NaiveJoinClosure.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&naive, &want, "naive vs bfs at {} {:?}", node, dir);
                let m = memo.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&m, &want, "memo vs bfs at {} {:?}", node, dir);
                let iv = interval.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&iv, &want, "interval vs bfs at {} {:?}", node, dir);
            }
        }
    }

    #[test]
    fn closure_strategies_agree_with_abstraction(dag in arb_dag()) {
        let g = build_graph(&dag);
        let memo = MemoClosure::build(&g, true).unwrap();
        let interval = IntervalClosure::build(&g, true).unwrap();
        let opts = TraverseOpts { stop_at_abstraction: true, ..TraverseOpts::default() };
        for node in (0..g.node_count() as u32).step_by(3) {
            for dir in [Direction::Ancestors, Direction::Descendants] {
                let want = BfsClosure.reachable(&g, node, dir, &opts);
                prop_assert_eq!(&NaiveJoinClosure.reachable(&g, node, dir, &opts), &want);
                prop_assert_eq!(&memo.reachable(&g, node, dir, &opts), &want);
                prop_assert_eq!(&interval.reachable(&g, node, dir, &opts), &want);
            }
        }
    }

    #[test]
    fn depth_limited_bfs_is_prefix_of_unbounded(dag in arb_dag(), depth in 1u32..5) {
        let g = build_graph(&dag);
        for node in (0..g.node_count() as u32).step_by(2) {
            let full = BfsClosure.reachable(&g, node, Direction::Ancestors, &TraverseOpts::unbounded());
            let limited = BfsClosure.reachable(&g, node, Direction::Ancestors, &TraverseOpts::depth(depth));
            // Depth-limited results are a subset of the full closure.
            let full_set: BTreeSet<u32> = full.into_iter().collect();
            prop_assert!(limited.iter().all(|n| full_set.contains(n)));
        }
    }

    #[test]
    fn interval_point_queries_match_set_queries(dag in arb_dag()) {
        let g = build_graph(&dag);
        let interval = IntervalClosure::build(&g, false).unwrap();
        for node in (0..g.node_count() as u32).step_by(2) {
            let set: BTreeSet<u32> = interval
                .reachable(&g, node, Direction::Ancestors, &TraverseOpts::unbounded())
                .into_iter()
                .collect();
            for target in 0..g.node_count() as u32 {
                prop_assert_eq!(
                    interval.contains(node, Direction::Ancestors, target),
                    set.contains(&target),
                    "node {} target {}", node, target
                );
            }
        }
    }
}

/// Cases for the persistent-container properties; Miri runs a handful.
const CONTAINER_CASES: u32 = if cfg!(miri) { 4 } else { 64 };

/// One time-index batch: `(start, len, node)` triples in arrival order.
fn arb_time_batches() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    let batch = prop_oneof![
        // Roughly in order: near the front of the stream, short spans.
        proptest::collection::vec((0u64..50, 0u64..8), 1..12),
        // Anywhere in the timeline, out of order.
        proptest::collection::vec((0u64..1_000, 0u64..30), 1..12),
        // Long intervals that start early and span most queries.
        proptest::collection::vec((0u64..20, 300u64..1_000), 1..3),
        // Duplicates: one interval many times.
        (0u64..1_000, 0u64..30, 1usize..6).prop_map(|(s, l, n)| vec![(s, l); n]),
    ];
    proptest::collection::vec(batch, 1..40)
}

/// Closed query windows `[a, a + len]`.
fn arb_windows() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..1_100, 0u64..120), 1..8)
}

fn brute_overlap(all: &[(u64, u64, u32)], a: u64, b: u64) -> Vec<u32> {
    let mut out: Vec<u32> =
        all.iter().filter(|&&(s, e, _)| s <= b && e >= a).map(|&(_, _, n)| n).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn brute_covered(all: &[(u64, u64, u32)], a: u64, b: u64) -> Vec<u32> {
    let mut out: Vec<u32> =
        all.iter().filter(|&&(s, e, _)| s >= a && e <= b).map(|&(_, _, n)| n).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn window(a: u64, len: u64) -> TimeRange {
    TimeRange::new(Timestamp(a), Timestamp(a + len))
}

/// A container operation against its std model.
#[derive(Debug, Clone)]
enum Op {
    /// Push (vector) or insert (map) this value / key.
    Add(u32),
    /// Overwrite the element at (index mod len) / under this key.
    Set(u32, u32),
    /// Take a clone to check later.
    Snapshot,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        6 => (0u32..2_000).prop_map(Op::Add),
        2 => (0u32..2_000, any::<u32>()).prop_map(|(i, v)| Op::Set(i, v)),
        1 => Just(Op::Snapshot),
    ];
    proptest::collection::vec(op, 0..if cfg!(miri) { 200 } else { 3_000 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CONTAINER_CASES))]

    #[test]
    fn time_index_matches_brute_force_under_any_arrival_order(
        batches in arb_time_batches(),
        windows in arb_windows(),
    ) {
        let mut ix = TimeIndex::new();
        let mut all: Vec<(u64, u64, u32)> = Vec::new();
        let mut held: Vec<(TimeIndex, usize)> = Vec::new();
        let mut node = 0u32;
        for (b, batch) in batches.iter().enumerate() {
            for &(start, len) in batch {
                ix.insert(node, window(start, len));
                all.push((start, start + len, node));
                node += 1;
            }
            ix.build();
            // Hold every third version, as a live snapshot would.
            if b % 3 == 0 {
                held.push((ix.clone(), all.len()));
            }
            for &(a, len) in &windows {
                let got = ix.overlapping(window(a, len));
                prop_assert_eq!(got.as_slice(), brute_overlap(&all, a, a + len).as_slice());
                let got = ix.covered_by(window(a, len));
                prop_assert_eq!(got.as_slice(), brute_covered(&all, a, a + len).as_slice());
            }
        }
        prop_assert_eq!(ix.len(), all.len());
        prop_assert!(ix.runs() <= 2 + (usize::BITS - all.len().leading_zeros()) as usize);
        for (old, seen) in &held {
            prop_assert_eq!(old.len(), *seen);
            for &(a, len) in &windows {
                let got = old.overlapping(window(a, len));
                prop_assert_eq!(got.as_slice(), brute_overlap(&all[..*seen], a, a + len).as_slice());
            }
        }
    }

    #[test]
    fn chunk_vec_matches_vec_and_clones_keep_their_version(ops in arb_ops()) {
        let mut v: ChunkVec<u32> = ChunkVec::new();
        let mut model: Vec<u32> = Vec::new();
        let mut held: Vec<(ChunkVec<u32>, Vec<u32>)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Add(x) => {
                    v.push(x);
                    model.push(x);
                }
                Op::Set(i, x) if !model.is_empty() => {
                    let i = i as usize % model.len();
                    *v.get_mut(i).unwrap() = x;
                    model[i] = x;
                }
                Op::Set(..) => prop_assert!(v.get_mut(0).is_none()),
                Op::Snapshot => held.push((v.clone(), model.clone())),
            }
        }
        prop_assert_eq!(v.len(), model.len());
        prop_assert!(v.iter().eq(model.iter()));
        for (i, x) in model.iter().enumerate() {
            prop_assert_eq!(v.get(i), Some(x));
        }
        prop_assert_eq!(v.get(model.len()), None);
        prop_assert_eq!(v.last(), model.last());
        for (old, want) in &held {
            prop_assert!(old.iter().eq(want.iter()));
            prop_assert_eq!(old.len(), want.len());
        }
    }

    #[test]
    fn pmap_matches_btree_map_and_clones_keep_their_version(
        ops in arb_ops(),
        bounds in proptest::collection::vec((0u32..2_100, 0u32..2_100, 0u8..9), 1..10),
    ) {
        let mut m: PMap<u32, u32> = PMap::new();
        let mut model: BTreeMap<u32, u32> = BTreeMap::new();
        let mut held: Vec<(PMap<u32, u32>, BTreeMap<u32, u32>)> = Vec::new();
        for op in &ops {
            match *op {
                Op::Add(k) => {
                    prop_assert_eq!(m.insert(k, k), model.insert(k, k));
                }
                Op::Set(k, v) => {
                    let got = m.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                    let want = model.get_mut(&k).map(|slot| std::mem::replace(slot, v));
                    prop_assert_eq!(got, want);
                }
                Op::Snapshot => held.push((m.clone(), model.clone())),
            }
        }
        prop_assert_eq!(m.len(), model.len());
        prop_assert!(m.iter().eq(model.iter()));
        // The model map also answers "as std HashMap would": point lookups.
        let hashed: HashMap<u32, u32> = model.iter().map(|(k, v)| (*k, *v)).collect();
        for k in 0..2_100u32 {
            prop_assert_eq!(m.get(&k), hashed.get(&k));
        }
        for &(a, b, shape) in &bounds {
            let low = match shape % 3 {
                0 => Bound::Included(&a),
                1 => Bound::Excluded(&a),
                _ => Bound::Unbounded,
            };
            let high = match shape / 3 {
                0 => Bound::Included(&b),
                1 => Bound::Excluded(&b),
                _ => Bound::Unbounded,
            };
            let got: Vec<(u32, u32)> = m.range(low, high).map(|(k, v)| (*k, *v)).collect();
            // A filter, not `BTreeMap::range`, which panics on inverted bounds.
            let want: Vec<(u32, u32)> = model
                .iter()
                .filter(|(k, _)| (low, high).contains(k))
                .map(|(k, v)| (*k, *v))
                .collect();
            prop_assert_eq!(got, want);
        }
        for (old, want) in &held {
            prop_assert_eq!(old.len(), want.len());
            prop_assert!(old.iter().eq(want.iter()));
        }
    }
}
