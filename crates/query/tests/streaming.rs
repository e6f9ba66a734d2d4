//! Streaming-execution integration tests: limit/order/keyset pushdown
//! and lineage scopes must keep per-query work proportional to what the
//! caller consumes, measured with a counting provider over a 100k-record
//! store.

use pass_index::{AncestryGraph, AttrIndex, BfsClosure, NodeIdx, PostingList, ReachStrategy};
use pass_model::{
    Digest128, ProvenanceBuilder, ProvenanceRecord, SiteId, TimeRange, Timestamp, ToolDescriptor,
    TupleSetId, Value,
};
use pass_query::{parse, LineageClause, Provider, QueryEngine};
use std::ops::Bound;
use std::sync::atomic::{AtomicUsize, Ordering};

const STORE_SIZE: usize = 100_000;

/// Records `1..CHAIN` each derive from the record before them, so record
/// `CHAIN - 1` has `CHAIN - 1` ancestors.
const CHAIN: usize = 40;

/// A large in-memory provider that counts every record fetch and every
/// whole-store candidate list it hands out.
struct BigStore {
    records: Vec<ProvenanceRecord>,
    by_id: std::collections::HashMap<TupleSetId, usize>,
    attrs: AttrIndex,
    graph: AncestryGraph,
    fetches: AtomicUsize,
    all_nodes_calls: AtomicUsize,
}

impl BigStore {
    fn build(n: usize) -> BigStore {
        let mut attrs = AttrIndex::new();
        let mut graph = AncestryGraph::new();
        let mut records: Vec<ProvenanceRecord> = Vec::with_capacity(n);
        let mut by_id = std::collections::HashMap::with_capacity(n);
        for i in 0..n {
            let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp(i as u64))
                .attr("domain", if i % 2 == 0 { "traffic" } else { "weather" })
                .attr("zone", (i % 64) as i64);
            let mut parents = Vec::new();
            if (1..CHAIN).contains(&i) {
                let parent = records[i - 1].id;
                builder = builder.derived_from(parent, ToolDescriptor::new("step", "1"));
                parents.push((parent, false));
            }
            let record = builder.build(Digest128::of(&(i as u64).to_be_bytes()));
            let idx = graph.insert(record.id, &parents);
            attrs.insert_attrs(idx, &record.attributes);
            attrs.insert(idx, "created_at", Value::Time(record.created_at));
            by_id.insert(record.id, i);
            records.push(record);
        }
        BigStore {
            records,
            by_id,
            attrs,
            graph,
            fetches: AtomicUsize::new(0),
            all_nodes_calls: AtomicUsize::new(0),
        }
    }

    fn fetches(&self) -> usize {
        self.fetches.load(Ordering::Relaxed)
    }

    fn all_nodes_calls(&self) -> usize {
        self.all_nodes_calls.load(Ordering::Relaxed)
    }
}

impl Provider for BigStore {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        self.attrs.eq(attr, value)
    }
    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        self.attrs.range(attr, low, high)
    }
    fn time_overlap(&self, _range: TimeRange) -> PostingList {
        PostingList::new()
    }
    fn keyword_lookup(&self, _phrase: &str) -> PostingList {
        PostingList::new()
    }
    fn has_attr(&self, attr: &str) -> PostingList {
        self.attrs.has_attr(attr)
    }
    fn all_nodes(&self) -> PostingList {
        self.all_nodes_calls.fetch_add(1, Ordering::Relaxed);
        PostingList::from_iter(self.records.iter().filter_map(|r| self.graph.lookup(r.id)))
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
        self.fetches.fetch_add(1, Ordering::Relaxed);
        let id = self.graph.resolve(idx)?;
        self.by_id.get(&id).map(|&at| self.records[at].clone())
    }
    /// Reads the key without counting a fetch, as a store that keeps
    /// records in memory would.
    fn created_key(&self, idx: NodeIdx) -> Option<(Timestamp, TupleSetId)> {
        let id = self.graph.resolve(idx)?;
        self.by_id.get(&id).map(|&at| (self.records[at].created_at, id))
    }
    fn created_scan(&self, desc: bool) -> Option<std::sync::Arc<[NodeIdx]>> {
        let keyed = self
            .records
            .iter()
            .filter_map(|r| self.graph.lookup(r.id).map(|idx| (r.created_at, r.id, idx)))
            .collect();
        Some(pass_query::created_order_scan(keyed, desc))
    }
}

impl QueryEngine for BigStore {
    fn open(
        &self,
        prepared: &pass_query::PreparedQuery,
    ) -> pass_query::Result<pass_query::Cursor<'_>> {
        pass_query::Cursor::over(self, prepared)
    }
}

/// The headline acceptance criterion: a `LIMIT 10` attribute query over
/// a 100k-record store fetches ≤ ~10 records.
#[test]
fn limit_10_over_100k_touches_10_records() {
    let store = BigStore::build(STORE_SIZE);
    let before = store.fetches();
    let mut cursor =
        store.open_query(&parse(r#"FIND WHERE domain = "traffic" LIMIT 10"#).unwrap()).unwrap();
    let got: Vec<_> = cursor.by_ref().collect();
    assert_eq!(got.len(), 10);
    let stats = cursor.stats();
    assert_eq!(stats.candidates_scanned, 10, "pushdown must stop at the limit");
    assert_eq!(stats.returned, 10);
    assert!(
        store.fetches() - before <= 10,
        "fetched {} records for a LIMIT 10 query",
        store.fetches() - before
    );
}

/// Limit pushdown holds through a lazy conjunction too.
#[test]
fn conjunctive_limit_is_bounded() {
    let store = BigStore::build(STORE_SIZE);
    let before = store.fetches();
    let query = parse(r#"FIND WHERE domain = "traffic" AND zone = 0 LIMIT 5"#).unwrap();
    let mut cursor = store.open_query(&query).unwrap();
    let got: Vec<_> = cursor.by_ref().collect();
    assert_eq!(got.len(), 5);
    assert_eq!(cursor.stats().candidates_scanned, 5);
    assert!(store.fetches() - before <= 5);
}

/// ORDER BY + LIMIT over the whole store streams from the created-order
/// scan instead of fetching everything.
#[test]
fn order_by_limit_is_bounded() {
    let store = BigStore::build(STORE_SIZE);
    let before = store.fetches();
    let got: Vec<_> =
        store.open_query(&parse("FIND ORDER BY created DESC LIMIT 10").unwrap()).unwrap().collect();
    assert_eq!(got.len(), 10);
    assert_eq!(got[0].created_at, Timestamp((STORE_SIZE - 1) as u64), "newest first");
    assert!(
        store.fetches() - before <= 10,
        "ordered pushdown fetched {} records",
        store.fetches() - before
    );
}

/// Keyset paging walks the store in bounded steps, and the concatenated
/// pages equal the one-shot result.
#[test]
fn keyset_pages_are_bounded_and_lossless() {
    let store = BigStore::build(10_000);
    let full: Vec<TupleSetId> = store
        .open_query(&parse(r#"FIND WHERE zone = 3"#).unwrap())
        .unwrap()
        .map(|r| r.id)
        .collect();
    assert!(!full.is_empty());

    let mut paged = Vec::new();
    let mut after: Option<TupleSetId> = None;
    loop {
        let mut q = parse(r#"FIND WHERE zone = 3 LIMIT 37"#).unwrap();
        q.after = after;
        let before = store.fetches();
        let page: Vec<TupleSetId> = store.open_query(&q).unwrap().map(|r| r.id).collect();
        assert!(store.fetches() - before <= 37, "page fetches stay bounded");
        if page.is_empty() {
            break;
        }
        after = Some(*page.last().unwrap());
        paged.extend(page);
    }
    assert_eq!(full, paged);
}

/// `execute()` (the compatibility wrapper) returns byte-identical
/// records to draining the cursor.
#[test]
fn execute_equals_cursor_drain_on_big_store() {
    let store = BigStore::build(10_000);
    for text in [
        r#"FIND WHERE zone = 9"#,
        r#"FIND WHERE domain = "weather" AND zone = 11 ORDER BY created DESC"#,
        r#"FIND WHERE zone = 9 LIMIT 17"#,
    ] {
        let query = parse(text).unwrap();
        let executed = pass_query::execute(&query, &store).unwrap().records;
        let drained: Vec<_> = store.open_query(&query).unwrap().collect();
        assert_eq!(executed, drained, "{text}");
    }
}

/// A lineage scope takes its candidates from the closure alone: no
/// whole-store list, and exactly one fetch per closure member — also
/// when a filter no index serves is re-checked on top.
#[test]
fn lineage_scope_fetches_only_the_closure() {
    let store = BigStore::build(STORE_SIZE);
    let tip = store.records[CHAIN - 1].id.full_hex();
    for (text, closure, returned) in [
        (format!("FIND ANCESTORS OF ts:{tip}"), CHAIN - 1, CHAIN - 1),
        (format!("FIND ANCESTORS OF ts:{tip} DEPTH <= 3"), 3, 3),
        (format!("FIND ANCESTORS OF ts:{tip} WITH SELF"), CHAIN, CHAIN),
        // Ancestors 0..CHAIN-1; the traffic ones have even indexes.
        (format!(r#"FIND ANCESTORS OF ts:{tip} WHERE domain != "weather""#), CHAIN - 1, CHAIN / 2),
    ] {
        let (fetches, calls) = (store.fetches(), store.all_nodes_calls());
        let mut cursor = store.open_query(&parse(&text).unwrap()).unwrap();
        let got: Vec<_> = cursor.by_ref().collect();
        assert_eq!(got.len(), returned, "{text}");
        assert_eq!(store.all_nodes_calls() - calls, 0, "{text}: whole-store list built");
        assert_eq!(store.fetches() - fetches, closure, "{text}: fetched beyond the closure");
        assert_eq!(cursor.stats().candidates_scanned, closure, "{text}");
    }
}

/// `ORDER BY` over a selective source sorts keys and fetches only the
/// records it emits.
#[test]
fn filtered_order_by_limit_fetches_only_the_page() {
    let store = BigStore::build(STORE_SIZE);
    let before = store.fetches();
    let got: Vec<_> = store
        .open_query(&parse("FIND WHERE zone = 5 ORDER BY created DESC LIMIT 20").unwrap())
        .unwrap()
        .collect();
    assert_eq!(store.fetches() - before, 20, "fetches exactly the page");
    let want: Vec<Timestamp> = (0..STORE_SIZE)
        .rev()
        .filter(|i| i % 64 == 5)
        .take(20)
        .map(|i| Timestamp(i as u64))
        .collect();
    assert_eq!(
        got.iter().map(|r| r.created_at).collect::<Vec<_>>(),
        want,
        "newest 20, newest first"
    );
    assert_eq!(store.all_nodes_calls(), 0);
}

/// Keyset pages of a filtered `ORDER BY` query, with and without a
/// residual re-check, concatenate to the unpaged result; pages of the
/// exact query fetch no more than their limit.
#[test]
fn filtered_order_by_keyset_pages_are_lossless() {
    let store = BigStore::build(10_000);
    for (base, exact) in [
        ("FIND WHERE zone BETWEEN 2 AND 5 ORDER BY created DESC", true),
        ("FIND WHERE zone BETWEEN 2 AND 5 ORDER BY created ASC", true),
        (r#"FIND WHERE zone BETWEEN 2 AND 5 AND domain != "weather" ORDER BY created DESC"#, false),
        (r#"FIND WHERE zone BETWEEN 2 AND 5 AND domain != "weather" ORDER BY created ASC"#, false),
    ] {
        let full: Vec<TupleSetId> =
            store.open_query(&parse(base).unwrap()).unwrap().map(|r| r.id).collect();
        assert!(!full.is_empty(), "{base}");

        let mut paged = Vec::new();
        let mut after: Option<TupleSetId> = None;
        loop {
            let mut q = parse(base).unwrap().with_limit(37);
            q.after = after;
            let before = store.fetches();
            let page: Vec<TupleSetId> = store.open_query(&q).unwrap().map(|r| r.id).collect();
            if exact {
                assert!(store.fetches() - before <= 37, "{base}: page fetches stay bounded");
            }
            let Some(&last) = page.last() else { break };
            after = Some(last);
            paged.extend(page);
        }
        assert_eq!(full, paged, "paging diverges on {base}");
    }
}
