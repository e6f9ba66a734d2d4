//! Time-interval index.
//!
//! Tuple sets carry `[time.start, time.end]` windows; the dominant sensor
//! query shape is "overlaps `[a, b]`" (§III: commuters query by location,
//! planners by time). Each sorted run of intervals keeps a parallel
//! prefix-maximum of ends, so an overlap query binary-searches the start
//! bound and then scans only a bounded tail of each run.

use crate::arena::NodeIdx;
use crate::posting::PostingList;
use pass_model::TimeRange;
use std::sync::Arc;

type Interval = (u64, u64, NodeIdx);

/// One sorted run: intervals ordered by `(start, end, node)` and the
/// running maximum of their ends.
#[derive(Debug, Default, Clone)]
struct Run {
    intervals: Vec<Interval>,
    /// `prefix_max_end[i]` = max end among `intervals[..=i]`.
    prefix_max_end: Vec<u64>,
}

impl Run {
    /// Appends intervals that sort after every interval already here,
    /// extending the prefix maximum from where it stopped.
    fn append(&mut self, sorted: impl IntoIterator<Item = Interval>) {
        let mut max_end = self.prefix_max_end.last().copied().unwrap_or(0);
        for interval in sorted {
            max_end = max_end.max(interval.1);
            self.intervals.push(interval);
            self.prefix_max_end.push(max_end);
        }
    }

    /// True when `next` sorts after every interval of this run.
    fn precedes(&self, next: &Interval) -> bool {
        self.intervals.last().is_none_or(|last| last <= next)
    }

    /// Merges two runs into one. When `newer` sorts entirely after
    /// `older` and nothing else shares `older`, this appends in place.
    fn merge(mut older: Arc<Run>, newer: &Run) -> Arc<Run> {
        if newer.intervals.first().is_none_or(|first| older.precedes(first)) {
            if let Some(run) = Arc::get_mut(&mut older) {
                run.append(newer.intervals.iter().copied());
                return older;
            }
        }
        let (a, b) = (&older.intervals, &newer.intervals);
        let mut merged = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                merged.push(a[i]);
                i += 1;
            } else {
                merged.push(b[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        let mut run = Run::default();
        run.append(merged);
        Arc::new(run)
    }

    fn overlapping(&self, query: TimeRange, out: &mut Vec<NodeIdx>) {
        // Candidates must have start <= query.end.
        let upper = self.intervals.partition_point(|&(start, _, _)| start <= query.end.0);
        // Walk backwards; once the prefix max end drops below query.start,
        // nothing earlier can overlap.
        for i in (0..upper).rev() {
            if self.prefix_max_end[i] < query.start.0 {
                break;
            }
            let (_, end, node) = self.intervals[i];
            if end >= query.start.0 {
                out.push(node);
            }
        }
    }

    fn covered_by(&self, query: TimeRange, out: &mut Vec<NodeIdx>) {
        let lower = self.intervals.partition_point(|&(start, _, _)| start < query.start.0);
        let upper = self.intervals.partition_point(|&(start, _, _)| start <= query.end.0);
        out.extend(
            self.intervals[lower..upper]
                .iter()
                .filter(|&&(_, end, _)| end <= query.end.0)
                .map(|&(_, _, node)| node),
        );
    }
}

/// An index over closed time intervals.
///
/// Intervals live in a few sorted runs whose sizes shrink geometrically
/// from oldest to newest, so there are O(log n) of them. [`TimeIndex::build`]
/// sorts only the new intervals. It appends them to the newest run when
/// they sort after it and no clone shares that run. Otherwise they become
/// a run of their own, and runs then merge like a binary counter: while the
/// newest run holds at least half as many intervals as the one before it,
/// the two merge. Each interval is therefore copied O(log n) times over the
/// index's life, never re-sorted. Runs are `Arc`'d, so a clone of the index
/// (a published snapshot) shares them and no commit copies a run that it
/// does not merge. A query walks every run.
#[derive(Debug, Default, Clone)]
pub struct TimeIndex {
    /// Oldest (largest) first.
    runs: Vec<Arc<Run>>,
    /// Inserted intervals not yet folded into a run.
    pending: Vec<Interval>,
}

impl TimeIndex {
    /// An empty index.
    pub fn new() -> Self {
        TimeIndex::default()
    }

    /// Adds an interval. It is queryable at once, by a linear scan of the
    /// not-yet-built intervals, until the next [`TimeIndex::build`].
    pub fn insert(&mut self, idx: NodeIdx, range: TimeRange) {
        self.pending.push((range.start.0, range.end.0, idx));
    }

    /// Folds the intervals inserted since the last build into the sorted
    /// runs (see the type docs), making queries `O(runs · log n + answer)`.
    /// Costs O(new · log new) plus the amortized merges. The batched ingest
    /// path calls this once per commit, so shared (snapshot) readers never
    /// need a write lock.
    pub fn build(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.pending);
        batch.sort_unstable();
        let mut fresh = Run::default();
        fresh.append(batch);
        match self.runs.pop() {
            Some(newest) => {
                let owned = Arc::strong_count(&newest) == 1;
                if owned && newest.precedes(&fresh.intervals[0]) {
                    self.runs.push(Run::merge(newest, &fresh));
                } else {
                    self.runs.push(newest);
                    self.runs.push(Arc::new(fresh));
                }
            }
            None => self.runs.push(Arc::new(fresh)),
        }
        while let [.., older, newer] = self.runs.as_slice() {
            if older.intervals.len() > 2 * newer.intervals.len() {
                break;
            }
            let (Some(newer), Some(older)) = (self.runs.pop(), self.runs.pop()) else { break };
            self.runs.push(Run::merge(older, &newer));
        }
    }

    /// Nodes whose interval overlaps `query` (closed-interval semantics).
    pub fn overlapping(&self, query: TimeRange) -> PostingList {
        let mut out = Vec::new();
        for run in &self.runs {
            run.overlapping(query, &mut out);
        }
        out.extend(
            self.pending
                .iter()
                .filter(|&&(start, end, _)| start <= query.end.0 && end >= query.start.0)
                .map(|&(_, _, node)| node),
        );
        PostingList::from_iter(out)
    }

    /// Nodes whose interval lies entirely within `query`.
    pub fn covered_by(&self, query: TimeRange) -> PostingList {
        let mut out = Vec::new();
        for run in &self.runs {
            run.covered_by(query, &mut out);
        }
        out.extend(
            self.pending
                .iter()
                .filter(|&&(start, end, _)| start >= query.start.0 && end <= query.end.0)
                .map(|&(_, _, node)| node),
        );
        PostingList::from_iter(out)
    }

    /// Number of indexed intervals.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|run| run.intervals.len()).sum::<usize>() + self.pending.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sorted runs (O(log n); exposed for tests and benches).
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Rough heap footprint.
    pub fn size_bytes(&self) -> usize {
        let run_bytes: usize = self
            .runs
            .iter()
            .map(|run| {
                run.intervals.capacity() * std::mem::size_of::<Interval>()
                    + run.prefix_max_end.capacity() * 8
            })
            .sum();
        run_bytes + self.pending.capacity() * std::mem::size_of::<Interval>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::Timestamp;

    fn range(a: u64, b: u64) -> TimeRange {
        TimeRange::new(Timestamp(a), Timestamp(b))
    }

    fn sample() -> TimeIndex {
        let mut ix = TimeIndex::new();
        ix.insert(0, range(0, 10));
        ix.insert(1, range(5, 15));
        ix.insert(2, range(20, 30));
        ix.insert(3, range(0, 100)); // long interval spanning everything
        ix
    }

    #[test]
    fn overlap_queries() {
        let ix = sample();
        assert_eq!(ix.overlapping(range(12, 18)).as_slice(), &[1, 3]);
        assert_eq!(ix.overlapping(range(10, 10)).as_slice(), &[0, 1, 3]);
        assert_eq!(ix.overlapping(range(16, 19)).as_slice(), &[3]);
        assert_eq!(ix.overlapping(range(0, 100)).len(), 4);
        assert!(ix.overlapping(range(101, 200)).as_slice() == &[] as &[u32]);
    }

    #[test]
    fn long_interval_found_despite_early_start() {
        // The prefix-max walk must not stop early and miss node 3.
        let mut ix = TimeIndex::new();
        ix.insert(0, range(0, 1000));
        for i in 1..100u32 {
            ix.insert(i, range(u64::from(i) * 2, u64::from(i) * 2 + 1));
        }
        let got = ix.overlapping(range(500, 501));
        assert!(got.contains(0), "long early interval must be found");
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn covered_by_requires_full_containment() {
        let ix = sample();
        assert_eq!(ix.covered_by(range(0, 15)).as_slice(), &[0, 1]);
        assert_eq!(ix.covered_by(range(0, 100)).len(), 4);
        assert!(ix.covered_by(range(6, 9)).is_empty());
    }

    #[test]
    fn inserts_after_query_are_visible() {
        let mut ix = sample();
        assert_eq!(ix.overlapping(range(50, 60)).as_slice(), &[3]);
        ix.insert(9, range(55, 56));
        assert_eq!(ix.overlapping(range(50, 60)).as_slice(), &[3, 9]);
    }

    #[test]
    fn instant_intervals() {
        let mut ix = TimeIndex::new();
        ix.insert(0, range(5, 5));
        assert_eq!(ix.overlapping(range(5, 5)).as_slice(), &[0]);
        assert!(ix.overlapping(range(4, 4)).is_empty());
        assert!(ix.overlapping(range(6, 6)).is_empty());
    }
}
