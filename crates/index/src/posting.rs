//! Sorted posting lists and their set algebra.
//!
//! Multi-attribute queries (§II-B: "efficient lookups in many dimensions")
//! reduce to intersections and unions of per-attribute posting lists.
//! Intersection uses galloping search, so `rare ∩ common` costs
//! `O(|rare| · log |common|)`.

use crate::arena::NodeIdx;
use crate::chunkvec::ChunkVec;

/// A sorted, deduplicated list of dense node indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    items: Vec<NodeIdx>,
}

impl PostingList {
    /// An empty list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Builds from a vector already sorted and deduplicated (debug-checked).
    pub fn from_sorted(items: Vec<NodeIdx>) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0] < w[1]), "input must be strictly sorted");
        PostingList { items }
    }

    /// Inserts one index, keeping order (O(log n) search + O(n) shift; the
    /// common ingest path appends monotonically growing indexes, which is
    /// O(1) amortized).
    pub fn insert(&mut self, idx: NodeIdx) {
        match self.items.last() {
            Some(&last) if last < idx => self.items.push(idx),
            _ => {
                if let Err(pos) = self.items.binary_search(&idx) {
                    self.items.insert(pos, idx);
                }
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, idx: NodeIdx) -> bool {
        self.items.binary_search(&idx).is_ok()
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The postings as a sorted slice.
    pub fn as_slice(&self) -> &[NodeIdx] {
        &self.items
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.items.iter().copied()
    }

    /// Galloping intersection: iterate the shorter list, gallop in the
    /// longer one.
    pub fn intersect(&self, other: &PostingList) -> PostingList {
        let (small, large) = if self.len() <= other.len() {
            (&self.items, &other.items)
        } else {
            (&other.items, &self.items)
        };
        let mut out = Vec::with_capacity(small.len().min(large.len()));
        let mut lo = 0usize;
        for &x in small {
            lo = gallop_to(large, lo, x);
            if lo >= large.len() {
                break;
            }
            if large[lo] == x {
                out.push(x);
                lo += 1;
            }
        }
        PostingList { items: out }
    }

    /// Linear-merge union.
    pub fn union(&self, other: &PostingList) -> PostingList {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (&self.items, &other.items);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        PostingList { items: out }
    }

    /// `self \ other`.
    pub fn difference(&self, other: &PostingList) -> PostingList {
        let mut out = Vec::with_capacity(self.len());
        let mut j = 0usize;
        for &x in &self.items {
            while j < other.items.len() && other.items[j] < x {
                j += 1;
            }
            if j >= other.items.len() || other.items[j] != x {
                out.push(x);
            }
        }
        PostingList { items: out }
    }

    /// Intersects many lists, cheapest-first so intermediate results stay
    /// small. Returns the empty list when `lists` is empty.
    pub fn intersect_all(mut lists: Vec<&PostingList>) -> PostingList {
        if lists.is_empty() {
            return PostingList::new();
        }
        lists.sort_by_key(|l| l.len());
        let mut acc = lists[0].clone();
        for l in &lists[1..] {
            if acc.is_empty() {
                break;
            }
            acc = acc.intersect(l);
        }
        acc
    }

    /// Unions many lists in one pass: concatenate, sort, dedup. The
    /// stable sort finds the sorted input runs and merges them, so this
    /// stays near-linear in the total postings where a pairwise fold
    /// costs O(lists × postings) (a range over 4 000 distinct values).
    pub fn union_all(lists: Vec<&PostingList>) -> PostingList {
        PostingList::union_runs(lists.into_iter().map(PostingList::as_slice))
    }

    /// [`PostingList::union_all`] over sorted runs given as slices.
    pub(crate) fn union_runs<'a>(runs: impl IntoIterator<Item = &'a [NodeIdx]>) -> PostingList {
        let mut items = Vec::new();
        for run in runs {
            items.extend_from_slice(run);
        }
        items.sort();
        items.dedup();
        PostingList { items }
    }

    /// Merges a sorted (ascending, possibly duplicated) run of indexes in
    /// one pass — the bulk-build primitive behind `AttrIndex::insert_bulk`.
    /// Runs that extend past the current tail (the batched-ingest common
    /// case: node indexes grow monotonically) append in O(run).
    pub fn extend_sorted(&mut self, run: &[NodeIdx]) {
        debug_assert!(run.windows(2).all(|w| w[0] <= w[1]), "run must be sorted");
        if run.is_empty() {
            return;
        }
        // Fast path: the whole run lands after the current tail. Dedup
        // only while appending — a whole-list `dedup()` here would make
        // the "O(run)" append O(list) per batch.
        if self.items.last().is_none_or(|&last| last < run[0]) {
            self.items.reserve(run.len());
            for &idx in run {
                if self.items.last() != Some(&idx) {
                    self.items.push(idx);
                }
            }
            return;
        }
        // General path: linear merge.
        let old = std::mem::take(&mut self.items);
        self.items = Vec::with_capacity(old.len() + run.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < old.len() && j < run.len() {
            match old[i].cmp(&run[j]) {
                std::cmp::Ordering::Less => {
                    self.items.push(old[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.items.push(run[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.items.push(old[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.items.extend_from_slice(&old[i..]);
        for &x in &run[j..] {
            if self.items.last() != Some(&x) {
                self.items.push(x);
            }
        }
        self.items.dedup();
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<NodeIdx>()
    }
}

/// The posting storage inside [`crate::AttrIndex`] and
/// [`crate::KeywordIndex`]: the same sorted, deduplicated node list as a
/// [`PostingList`]. A list of one node (a unique value: an id, a sequence
/// number, a creation time) is held inline. Longer lists live in a
/// [`ChunkVec`], so that a commit appending to a list every record joins
/// (`origin.site`, a common `domain`) copies one chunk path, not the
/// list. Lookups materialize a fresh [`PostingList`].
#[derive(Debug, Clone)]
pub(crate) enum Postings {
    One(NodeIdx),
    Many(ChunkVec<NodeIdx>),
}

impl Postings {
    /// The postings of a sorted, non-empty (possibly duplicated) run.
    pub(crate) fn from_run(run: &[NodeIdx]) -> Postings {
        match run {
            [first, rest @ ..] if rest.iter().all(|idx| idx == first) => Postings::One(*first),
            _ => {
                let mut many = Postings::Many(ChunkVec::new());
                many.extend_sorted(run);
                many
            }
        }
    }

    /// Merges a sorted (possibly duplicated) run, as
    /// [`PostingList::extend_sorted`]. A run past the tail (node indexes
    /// grow with ingest) appends in O(run). Otherwise the list is rebuilt
    /// in O(list): that takes a placeholder ancestor whose record arrives
    /// after later nodes were indexed under the same key.
    pub(crate) fn extend_sorted(&mut self, run: &[NodeIdx]) {
        let Some(&first) = run.first() else { return };
        if let Postings::One(only) = *self {
            *self = Postings::Many(std::iter::once(only).collect());
        }
        let Postings::Many(items) = self else { return };
        if items.last().is_none_or(|&last| last < first) {
            for &idx in run {
                if items.last() != Some(&idx) {
                    items.push(idx);
                }
            }
            return;
        }
        let mut list = self.to_list();
        list.extend_sorted(run);
        *self = Postings::Many(list.iter().collect());
    }

    /// The postings as sorted chunks.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[NodeIdx]> + '_ {
        let (one, many) = match self {
            Postings::One(idx) => (Some(std::slice::from_ref(idx)), None),
            Postings::Many(items) => (None, Some(items.chunks())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// A contiguous copy.
    pub(crate) fn to_list(&self) -> PostingList {
        let mut items = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            items.extend_from_slice(chunk);
        }
        PostingList { items }
    }

    /// Number of postings.
    pub(crate) fn len(&self) -> usize {
        match self {
            Postings::One(_) => 1,
            Postings::Many(items) => items.len(),
        }
    }

    /// Heap bytes used (approximate).
    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            Postings::One(_) => 0,
            Postings::Many(items) => items.size_bytes(),
        }
    }
}

/// Index of the first element `>= x` in `sorted[from..]`, found by
/// exponential (galloping) search followed by binary search.
fn gallop_to(sorted: &[NodeIdx], from: usize, x: NodeIdx) -> usize {
    if from >= sorted.len() || sorted[from] >= x {
        return from;
    }
    // Invariant: sorted[prev] < x.
    let mut prev = from;
    let mut step = 1usize;
    let mut hi = from + 1;
    while hi < sorted.len() && sorted[hi] < x {
        prev = hi;
        step *= 2;
        hi += step;
    }
    let end = hi.min(sorted.len());
    prev + 1 + sorted[prev + 1..end].partition_point(|&y| y < x)
}

impl FromIterator<NodeIdx> for PostingList {
    /// Builds from any iterator (sorts and dedups).
    fn from_iter<I: IntoIterator<Item = NodeIdx>>(iter: I) -> Self {
        let mut items: Vec<NodeIdx> = iter.into_iter().collect();
        items.sort_unstable();
        items.dedup();
        PostingList { items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(v: &[u32]) -> PostingList {
        PostingList::from_iter(v.iter().copied())
    }

    #[test]
    fn insert_maintains_sorted_dedup() {
        let mut l = PostingList::new();
        for i in [5u32, 1, 3, 5, 2, 10, 1] {
            l.insert(i);
        }
        assert_eq!(l.as_slice(), &[1, 2, 3, 5, 10]);
        assert!(l.contains(3));
        assert!(!l.contains(4));
    }

    #[test]
    fn intersect_basic_and_asymmetric() {
        assert_eq!(pl(&[1, 3, 5, 7]).intersect(&pl(&[3, 4, 5, 6])).as_slice(), &[3, 5]);
        // Rare ∩ common with galloping.
        let common: Vec<u32> = (0..10_000).collect();
        let rare = [17u32, 4_096, 9_999];
        assert_eq!(pl(&rare).intersect(&pl(&common)).as_slice(), &rare);
        assert_eq!(pl(&common).intersect(&pl(&rare)).as_slice(), &rare);
    }

    #[test]
    fn intersect_empty_and_disjoint() {
        assert!(pl(&[]).intersect(&pl(&[1, 2])).is_empty());
        assert!(pl(&[1, 2]).intersect(&pl(&[])).is_empty());
        assert!(pl(&[1, 3]).intersect(&pl(&[2, 4])).is_empty());
    }

    #[test]
    fn union_merges_with_dedup() {
        assert_eq!(pl(&[1, 3]).union(&pl(&[2, 3, 4])).as_slice(), &[1, 2, 3, 4]);
        assert_eq!(pl(&[]).union(&pl(&[7])).as_slice(), &[7]);
    }

    #[test]
    fn difference_removes_matches() {
        assert_eq!(pl(&[1, 2, 3, 4]).difference(&pl(&[2, 4, 6])).as_slice(), &[1, 3]);
        assert_eq!(pl(&[1, 2]).difference(&pl(&[])).as_slice(), &[1, 2]);
    }

    #[test]
    fn intersect_all_orders_by_cost() {
        let a = pl(&(0..1000).collect::<Vec<_>>());
        let b = pl(&[5, 500, 999]);
        let c = pl(&(0..1000).filter(|x| x % 5 == 0).collect::<Vec<_>>());
        assert_eq!(PostingList::intersect_all(vec![&a, &b, &c]).as_slice(), &[5, 500]);
        assert!(PostingList::intersect_all(vec![]).is_empty());
    }

    #[test]
    fn union_all_accumulates() {
        let got = PostingList::union_all(vec![&pl(&[1]), &pl(&[3]), &pl(&[2, 3])]);
        assert_eq!(got.as_slice(), &[1, 2, 3]);
    }
}
