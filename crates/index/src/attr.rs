//! The attribute index: per-attribute sorted value maps over posting
//! lists. This is the "efficient lookups in many dimensions" structure of
//! §II-B: any attribute can be queried by equality or range, with no
//! significance ordering among attributes (the failure §IV-B pins on
//! hierarchical namespaces).

use crate::arena::NodeIdx;
use crate::pmap::PMap;
use crate::posting::{PostingList, Postings};
use pass_model::{Attributes, Value};
use std::ops::Bound;

/// An inverted index from `(attribute, value)` to posting lists, with
/// ordered values per attribute so range predicates are index-served.
/// Maps and postings are persistent containers: a clone shares them, and
/// an insert copies only the paths it touches.
#[derive(Debug, Default, Clone)]
pub struct AttrIndex {
    by_attr: PMap<String, PMap<Value, Postings>>,
    entries: u64,
}

impl AttrIndex {
    /// An empty index.
    pub fn new() -> Self {
        AttrIndex::default()
    }

    /// Indexes every attribute of a record.
    pub fn insert_attrs(&mut self, idx: NodeIdx, attrs: &Attributes) {
        for (name, value) in attrs.iter() {
            self.insert(idx, name, value.clone());
        }
    }

    /// Indexes a single `(attribute, value)` pair.
    pub fn insert(&mut self, idx: NodeIdx, name: &str, value: Value) {
        self.insert_bulk(vec![(idx, name.to_owned(), value)]);
    }

    /// Bulk-indexes `(node, attribute, value)` triples from a whole ingest
    /// batch. Entries are sorted once and merged group-by-group into the
    /// posting lists (`PostingList::extend_sorted`), so index maintenance
    /// costs one sort plus one merge per touched `(attr, value)` pair
    /// instead of one ordered insert per triple.
    pub fn insert_bulk(&mut self, mut entries: Vec<(NodeIdx, String, Value)>) {
        self.entries += entries.len() as u64;
        entries.sort_unstable_by(|a, b| {
            a.1.cmp(&b.1).then_with(|| a.2.cmp(&b.2)).then_with(|| a.0.cmp(&b.0))
        });
        let mut entries = entries.into_iter().peekable();
        let mut run: Vec<NodeIdx> = Vec::new();
        while let Some((idx, name, value)) = entries.next() {
            run.clear();
            run.push(idx);
            while let Some((nidx, _, _)) = entries.next_if(|(_, n, v)| *n == name && *v == value) {
                run.push(nidx);
            }
            if !self.by_attr.contains_key(&name) {
                self.by_attr.insert(name.clone(), PMap::new());
            }
            let Some(values) = self.by_attr.get_mut(&name) else { continue };
            match values.get_mut(&value) {
                Some(postings) => postings.extend_sorted(&run),
                None => {
                    values.insert(value, Postings::from_run(&run));
                }
            }
        }
    }

    /// Posting list for `attr = value` (empty when absent).
    pub fn eq(&self, name: &str, value: &Value) -> PostingList {
        self.by_attr.get(name).and_then(|m| m.get(value)).map(Postings::to_list).unwrap_or_default()
    }

    /// Posting list for `low <op> attr <op> high` with inclusive/exclusive
    /// bounds. `None` bounds are unbounded.
    pub fn range(&self, name: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        let Some(m) = self.by_attr.get(name) else {
            return PostingList::new();
        };
        // Guard inverted bounds: BTreeMap::range panics on start > end.
        if let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
            (&low, &high)
        {
            if l > h {
                return PostingList::new();
            }
        }
        PostingList::union_runs(m.range(low, high).flat_map(|(_, postings)| postings.chunks()))
    }

    /// Posting list of every node that *has* the attribute, any value.
    pub fn has_attr(&self, name: &str) -> PostingList {
        let Some(m) = self.by_attr.get(name) else {
            return PostingList::new();
        };
        PostingList::union_runs(m.values().flat_map(Postings::chunks))
    }

    /// Number of distinct values recorded for an attribute (selectivity
    /// statistics for the planner).
    pub fn distinct_values(&self, name: &str) -> usize {
        self.by_attr.get(name).map_or(0, PMap::len)
    }

    /// Total postings under an attribute (≈ how many records carry it).
    pub fn attr_cardinality(&self, name: &str) -> usize {
        self.by_attr.get(name).map_or(0, |m| m.values().map(Postings::len).sum())
    }

    /// Attribute names present in the index.
    pub fn attr_names(&self) -> impl Iterator<Item = &str> {
        self.by_attr.keys().map(String::as_str)
    }

    /// Total `(attr, value, node)` entries indexed.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Rough heap footprint, for the E1 index-size series.
    pub fn size_bytes(&self) -> usize {
        self.by_attr
            .iter()
            .map(|(name, m)| {
                name.len()
                    + m.iter().map(|(v, pl)| value_size(v) + pl.size_bytes() + 32).sum::<usize>()
            })
            .sum()
    }
}

fn value_size(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(vs) => vs.iter().map(value_size).sum(),
            _ => 0,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::Timestamp;

    fn sample() -> AttrIndex {
        let mut ix = AttrIndex::new();
        for (i, (domain, count)) in
            [("traffic", 10i64), ("traffic", 20), ("weather", 30), ("medical", 20)]
                .iter()
                .enumerate()
        {
            let attrs = Attributes::new().with("domain", *domain).with("count", *count);
            ix.insert_attrs(i as NodeIdx, &attrs);
        }
        ix
    }

    #[test]
    fn eq_lookup() {
        let ix = sample();
        assert_eq!(ix.eq("domain", &Value::from("traffic")).as_slice(), &[0, 1]);
        assert_eq!(ix.eq("domain", &Value::from("weather")).as_slice(), &[2]);
        assert!(ix.eq("domain", &Value::from("volcano")).is_empty());
        assert!(ix.eq("missing", &Value::from("x")).is_empty());
    }

    #[test]
    fn range_lookup_inclusive_exclusive() {
        let ix = sample();
        let got =
            ix.range("count", Bound::Included(&Value::Int(20)), Bound::Included(&Value::Int(30)));
        assert_eq!(got.as_slice(), &[1, 2, 3]);
        let got = ix.range("count", Bound::Excluded(&Value::Int(20)), Bound::Unbounded);
        assert_eq!(got.as_slice(), &[2]);
    }

    #[test]
    fn inverted_range_is_empty_not_panic() {
        let ix = sample();
        let got =
            ix.range("count", Bound::Included(&Value::Int(30)), Bound::Included(&Value::Int(10)));
        assert!(got.is_empty());
    }

    #[test]
    fn has_attr_unions_all_values() {
        let ix = sample();
        assert_eq!(ix.has_attr("domain").len(), 4);
        assert!(ix.has_attr("nope").is_empty());
    }

    #[test]
    fn has_attr_over_many_values_is_sorted_and_deduplicated() {
        let mut ix = AttrIndex::new();
        let mut want = Vec::new();
        // 3 000 distinct values; nodes out of order, some carrying the
        // attribute under several values.
        for v in 0..3_000i64 {
            let node = ((v * 7_919) % 2_000) as NodeIdx;
            ix.insert(node, "k", Value::Int(v));
            want.push(node);
        }
        want.sort_unstable();
        want.dedup();
        assert_eq!(ix.has_attr("k").as_slice(), want.as_slice());
    }

    #[test]
    fn selectivity_stats() {
        let ix = sample();
        assert_eq!(ix.distinct_values("domain"), 3);
        assert_eq!(ix.attr_cardinality("domain"), 4);
        assert_eq!(ix.distinct_values("missing"), 0);
    }

    #[test]
    fn values_of_mixed_types_coexist_under_one_attr() {
        let mut ix = AttrIndex::new();
        ix.insert(0, "k", Value::Int(5));
        ix.insert(1, "k", Value::Str("five".into()));
        ix.insert(2, "k", Value::Time(Timestamp(5)));
        assert_eq!(ix.eq("k", &Value::Int(5)).as_slice(), &[0]);
        assert_eq!(ix.eq("k", &Value::from("five")).as_slice(), &[1]);
        assert_eq!(ix.has_attr("k").len(), 3);
    }

    #[test]
    fn size_bytes_is_nonzero_once_populated() {
        assert_eq!(AttrIndex::new().size_bytes(), 0);
        assert!(sample().size_bytes() > 0);
    }
}
