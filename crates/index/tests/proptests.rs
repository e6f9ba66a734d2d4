//! Property tests: posting-list algebra must match naive set algebra, and
//! all four closure strategies must agree on arbitrary DAGs.

use pass_index::closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
use pass_index::{AncestryGraph, Direction, IntervalClosure, PostingList};
use pass_model::TupleSetId;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
