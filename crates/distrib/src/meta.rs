//! The per-site metadata index.
//!
//! §IV-A is explicit that index sites hold provenance, not readings
//! ("the warehouse would not store actual sensor data"), so architecture
//! nodes carry this lightweight record index instead of a full
//! `pass_core::Pass`: the same `pass-index` structures and the same
//! `pass-query` executor, minus the storage engine.

use parking_lot::Mutex;
use pass_index::{
    AncestryGraph, AttrIndex, BfsClosure, KeywordIndex, NodeIdx, PostingList, ReachStrategy,
    TimeIndex,
};
use pass_model::{keys, ProvenanceRecord, TimeRange, Timestamp, TupleSetId, Value};
use pass_query::{Cursor, LineageClause, PreparedQuery, Provider, Query, QueryEngine, QueryResult};
use std::collections::HashMap;
use std::ops::Bound;

/// Created-order scans cached between inserts (inserts are append-only,
/// so the record count keys validity).
#[derive(Default)]
struct CreatedScanCache {
    len: usize,
    asc: Option<std::sync::Arc<[NodeIdx]>>,
    desc: Option<std::sync::Arc<[NodeIdx]>>,
}

/// An in-memory provenance index for one site (or catalog, or shard).
#[derive(Default)]
pub struct MetaIndex {
    graph: AncestryGraph,
    attrs: AttrIndex,
    keywords: KeywordIndex,
    time: Mutex<TimeIndex>,
    records: HashMap<TupleSetId, ProvenanceRecord>,
    created_scans: Mutex<CreatedScanCache>,
}

impl std::fmt::Debug for MetaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaIndex").field("records", &self.records.len()).finish()
    }
}

impl MetaIndex {
    /// An empty index.
    pub fn new() -> Self {
        MetaIndex::default()
    }

    /// Indexes one record; idempotent on duplicate ids.
    pub fn insert(&mut self, record: &ProvenanceRecord) {
        if self.records.contains_key(&record.id) {
            return;
        }
        let parents: Vec<(TupleSetId, bool)> =
            record.ancestry.iter().map(|d| (d.parent, d.tool.abstracted)).collect();
        let idx = self.graph.insert(record.id, &parents);
        self.attrs.insert_attrs(idx, &record.attributes);
        for (name, value) in pass_query::ast::multi_valued_attrs(record) {
            self.attrs.insert(idx, name, value);
        }
        self.attrs.insert(idx, "origin.site", Value::Int(i64::from(record.origin.0)));
        self.attrs.insert(idx, "created_at", Value::Time(record.created_at));
        self.attrs.insert(idx, "ancestry.parents", Value::Int(record.ancestry.len() as i64));
        for ann in &record.annotations {
            self.keywords.insert(idx, &ann.text);
        }
        if let Some(desc) = record.attributes.get_str(keys::DESCRIPTION) {
            self.keywords.insert(idx, desc);
        }
        if let Some(range) = record.time_range() {
            self.time.lock().insert(idx, range);
        }
        self.records.insert(record.id, record.clone());
    }

    /// Number of records indexed.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record lookup.
    pub fn get(&self, id: TupleSetId) -> Option<&ProvenanceRecord> {
        self.records.get(&id)
    }

    /// True when the record is indexed here.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.records.contains_key(&id)
    }

    /// Runs a query locally (drains a cursor).
    pub fn query(&self, query: &Query) -> pass_query::Result<QueryResult> {
        pass_query::execute(query, self)
    }

    /// Runs a query bounded for one remote page: at most `limit` ids,
    /// resuming strictly after `after`'s position in result order.
    /// This is the server half of the `SubQueryPage` protocol — the
    /// limit is pushed into the cursor, so a bounded page touches
    /// ~`limit` records regardless of store size.
    pub fn query_page(
        &self,
        query: &Query,
        after: Option<TupleSetId>,
        limit: usize,
    ) -> pass_query::Result<Vec<TupleSetId>> {
        let mut page = query.clone();
        page.limit = Some(limit);
        page.after = after;
        Ok(self.open_query(&page)?.map(|r| r.id).collect())
    }

    /// Direct parents of an id, when known here.
    pub fn parents_of(&self, id: TupleSetId) -> Option<Vec<TupleSetId>> {
        self.records.get(&id).map(|r| r.parents().collect())
    }

    /// Drops everything (crash simulation for soft state).
    pub fn clear(&mut self) {
        *self = MetaIndex::new();
    }
}

impl Provider for MetaIndex {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        self.attrs.eq(attr, value)
    }
    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        self.attrs.range(attr, low, high)
    }
    fn time_overlap(&self, range: TimeRange) -> PostingList {
        // Build lazily at first query after inserts: a no-op when clean,
        // and it keeps per-record insert O(1) while queries get the
        // sorted prefix-max path instead of the linear-scan fallback.
        let mut time = self.time.lock();
        time.build();
        time.overlapping(range)
    }
    fn keyword_lookup(&self, phrase: &str) -> PostingList {
        self.keywords.lookup_all(phrase)
    }
    fn has_attr(&self, attr: &str) -> PostingList {
        self.attrs.has_attr(attr)
    }
    fn all_nodes(&self) -> PostingList {
        PostingList::from_iter(self.records.keys().filter_map(|id| self.graph.lookup(*id)))
    }
    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        let root = self.graph.lookup(clause.root)?;
        let reach =
            BfsClosure.reachable(&self.graph, root, clause.direction, &clause.traverse_opts());
        Some(PostingList::from_iter(reach))
    }
    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.graph.lookup(id)
    }
    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        let id = self.graph.resolve(idx)?;
        self.records.get(&id).cloned()
    }
    fn created_key(&self, idx: NodeIdx) -> Option<(Timestamp, TupleSetId)> {
        let id = self.graph.resolve(idx)?;
        self.records.get(&id).map(|r| (r.created_at, id))
    }
    fn created_scan(&self, desc: bool) -> Option<std::sync::Arc<[NodeIdx]>> {
        let mut cache = self.created_scans.lock();
        if cache.len != self.records.len() {
            *cache = CreatedScanCache { len: self.records.len(), asc: None, desc: None };
        }
        let slot = if desc { &mut cache.desc } else { &mut cache.asc };
        Some(
            slot.get_or_insert_with(|| {
                let keyed = self
                    .records
                    .iter()
                    .filter_map(|(id, r)| {
                        self.graph.lookup(*id).map(|idx| (r.created_at, *id, idx))
                    })
                    .collect();
                pass_query::created_order_scan(keyed, desc)
            })
            .clone(),
        )
    }
}

impl QueryEngine for MetaIndex {
    fn open(&self, prepared: &PreparedQuery) -> pass_query::Result<Cursor<'_>> {
        Cursor::over(self, prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{Digest128, ProvenanceBuilder, SiteId, ToolDescriptor};

    fn record(domain: &str, n: u8) -> ProvenanceRecord {
        ProvenanceBuilder::new(SiteId(1), Timestamp(u64::from(n)))
            .attr("domain", domain)
            .build(Digest128::of(&[n]))
    }

    #[test]
    fn insert_and_query() {
        let mut m = MetaIndex::new();
        let a = record("traffic", 1);
        let b = record("weather", 2);
        m.insert(&a);
        m.insert(&b);
        m.insert(&a); // idempotent
        assert_eq!(m.len(), 2);
        let res = m.query(&pass_query::parse(r#"FIND WHERE domain = "traffic""#).unwrap()).unwrap();
        assert_eq!(res.ids(), vec![a.id]);
    }

    #[test]
    fn lineage_through_provider() {
        let mut m = MetaIndex::new();
        let root = record("x", 1);
        let child = ProvenanceBuilder::new(SiteId(1), Timestamp(9))
            .attr("domain", "x")
            .derived_from(root.id, ToolDescriptor::new("t", "1"))
            .build(Digest128::of(b"c"));
        m.insert(&root);
        m.insert(&child);
        let q =
            pass_query::parse(&format!("FIND ANCESTORS OF ts:{}", child.id.full_hex())).unwrap();
        let res = m.query(&q).unwrap();
        assert_eq!(res.ids(), vec![root.id]);
        assert_eq!(m.parents_of(child.id), Some(vec![root.id]));
        assert_eq!(m.parents_of(TupleSetId(999)), None);
    }

    #[test]
    fn filtered_order_by_pages_in_created_order() {
        let mut m = MetaIndex::new();
        let recs: Vec<_> =
            (0..12).map(|n| record(if n % 3 == 0 { "x" } else { "y" }, 20 - n)).collect();
        for r in &recs {
            m.insert(r);
        }
        let mut want: Vec<_> =
            recs.iter().filter(|r| r.attributes.get_str("domain") == Some("y")).collect();
        want.sort_by_key(|r| std::cmp::Reverse(r.created_at));
        let want: Vec<_> = want.iter().map(|r| r.id).collect();
        let q = pass_query::parse(r#"FIND WHERE domain = "y" ORDER BY created DESC"#).unwrap();
        assert_eq!(m.query(&q).unwrap().ids(), want);
        let mut paged = Vec::new();
        let mut after = None;
        loop {
            let page = m.query_page(&q, after, 3).unwrap();
            let Some(&last) = page.last() else { break };
            paged.extend(page);
            after = Some(last);
        }
        assert_eq!(paged, want);
    }
}
