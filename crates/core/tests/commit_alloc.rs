//! A commit costs its batch, not the store, while a snapshot is live.
//!
//! A counting global allocator measures the bytes one 16-set commit
//! allocates with one snapshot held. If the commit copied the published
//! index state, that figure would grow with the store (×4 from 10k to
//! 40k records); sharing everything the commit does not touch keeps it
//! near flat. The second test checks the other half of the bargain: the
//! held snapshot keeps reading exactly its own version across every kind
//! of shared commit.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code asserts by panicking

use pass_core::Pass;
use pass_index::{Direction, TraverseOpts};
use pass_model::{
    keys, Annotation, Attributes, Reading, SensorId, SiteId, Timestamp, ToolDescriptor, TupleSet,
    TupleSetId,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts bytes requested by threads that opted in.
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `work` runs.
fn bytes_during(work: impl FnOnce()) -> usize {
    let before = BYTES.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    work();
    COUNTING.with(|c| c.set(false));
    BYTES.load(Ordering::Relaxed) - before
}

fn item(i: u64) -> (Attributes, Vec<Reading>, Timestamp) {
    let at = Timestamp(i * 1_000);
    let attrs = Attributes::new()
        .with(keys::DOMAIN, "traffic")
        .with(keys::REGION, format!("zone-{}", i % 8))
        .with("seq", i as i64)
        .with(keys::TIME_START, at)
        .with(keys::TIME_END, Timestamp(at.0 + 500));
    (attrs, vec![Reading::new(SensorId(i % 64), at).with("speed", (i % 90) as i64)], at)
}

/// An in-memory store of `records` captured sets.
fn store(records: u64) -> (Pass, Vec<TupleSetId>) {
    let pass = Pass::open_memory(SiteId(1));
    let mut ids = Vec::new();
    for start in (0..records).step_by(1_000) {
        ids.extend(pass.capture_batch((start..(start + 1_000).min(records)).map(item)).unwrap());
    }
    (pass, ids)
}

/// Bytes one 16-set commit allocates with one snapshot held: twelve
/// fresh captures and four sets derived from old records, so the commit
/// also touches the adjacency of nodes deep in the store.
fn commit_bytes(pass: &Pass, ids: &[TupleSetId]) -> usize {
    let next = ids.len() as u64;
    let tool = ToolDescriptor::new("calibrate", "1");
    let mut sets: Vec<TupleSet> = (next..next + 12)
        .map(|i| {
            let (attrs, readings, at) = item(i);
            let record = pass_model::ProvenanceBuilder::new(SiteId(1), at)
                .attrs(&attrs)
                .build(TupleSet::content_digest_of(&readings));
            TupleSet::new(record, readings).unwrap()
        })
        .collect();
    for k in 0..4u64 {
        let parent = ids[(k as usize * 2_477) % ids.len()];
        let (attrs, readings, at) = item(next + 12 + k);
        let record = pass_model::ProvenanceBuilder::new(SiteId(1), at)
            .attrs(&attrs)
            .derived_from(parent, tool.clone())
            .build(TupleSet::content_digest_of(&readings));
        sets.push(TupleSet::new(record, readings).unwrap());
    }
    let snapshot = pass.snapshot();
    let bytes = bytes_during(|| {
        pass.ingest_batch(&sets).unwrap();
    });
    assert_eq!(snapshot.len(), ids.len(), "the held snapshot still sees its version");
    bytes
}

#[test]
fn commit_with_live_snapshot_allocates_by_batch_not_store() {
    let (small, small_ids) = store(10_000);
    let at_10k = commit_bytes(&small, &small_ids);
    drop(small);
    let (large, large_ids) = store(40_000);
    let at_40k = commit_bytes(&large, &large_ids);
    println!("16-set commit under a live snapshot: {at_10k} B at 10k records, {at_40k} B at 40k");
    assert!(
        at_40k <= 2 * at_10k,
        "a 16-set commit under a live snapshot allocated {at_40k} B at 40k records \
         vs {at_10k} B at 10k: the commit copies state that grows with the store"
    );
}

#[test]
fn held_snapshot_reads_its_own_version_across_shared_commits() {
    let (pass, ids) = store(3_000);
    let tool = ToolDescriptor::new("calibrate", "1");
    let root = ids[10];
    let child = pass
        .derive(&[root], &tool, Attributes::new().with("seq", -1i64), vec![], Timestamp(1))
        .unwrap();
    let victim = ids[20];
    let annotated = ids[30];

    let snapshot = pass.snapshot();
    let eq = r#"FIND WHERE region = "zone-3""#;
    let range = "FIND WHERE seq BETWEEN 100 AND 199";
    let window = "FIND WHERE time OVERLAPS [2000000, 2999999]";
    let answers = |s: &pass_core::Snapshot| {
        let mut out = Vec::new();
        for q in [eq, range, window] {
            let mut got = s.query_text(q).unwrap().ids();
            got.sort_unstable();
            out.push(got);
        }
        out
    };
    let before = answers(&snapshot);
    let record_before = snapshot.get_record(annotated).unwrap();
    let lineage_before =
        snapshot.lineage(child, Direction::Ancestors, TraverseOpts::unbounded()).unwrap();
    assert!(snapshot.has_data(victim));

    // Every kind of commit, each sharing the state the snapshot holds.
    let more: Vec<TupleSet> = (3_000..3_016)
        .map(|i| {
            let (attrs, readings, at) = item(i);
            let record = pass_model::ProvenanceBuilder::new(SiteId(1), at)
                .attrs(&attrs)
                .derived_from(root, tool.clone())
                .build(TupleSet::content_digest_of(&readings));
            TupleSet::new(record, readings).unwrap()
        })
        .collect();
    pass.ingest_batch(&more).unwrap();
    pass.annotate(annotated, Annotation::new(Timestamp(9), "ops", "recalibrated")).unwrap();
    let mut merged = pass.get_record(annotated).unwrap();
    merged.annotate(Annotation::new(Timestamp(10), "ops", "second opinion"));
    pass.ingest_record(&merged).unwrap();
    let remote = pass_model::ProvenanceBuilder::new(SiteId(2), Timestamp(2_500_000))
        .attrs(&item(7).0)
        .build(TupleSet::content_digest_of(&[]));
    pass.ingest_record(&remote).unwrap();
    let readings = pass.get_data(victim).unwrap().unwrap();
    let victim_record = pass.get_record(victim).unwrap();
    assert!(pass.remove_data(victim).unwrap());
    assert!(!pass.has_data(victim));

    // The snapshot answers exactly as before.
    assert_eq!(answers(&snapshot), before);
    assert_eq!(snapshot.get_record(annotated).unwrap(), record_before);
    assert_eq!(snapshot.len(), ids.len() + 1);
    assert!(snapshot.has_data(victim));
    assert!(!snapshot.contains(remote.id));
    assert_eq!(
        snapshot.lineage(child, Direction::Ancestors, TraverseOpts::unbounded()).unwrap(),
        lineage_before
    );
    assert_eq!(
        snapshot.lineage(root, Direction::Descendants, TraverseOpts::unbounded()).unwrap().len(),
        1,
        "the sixteen new children of root are invisible to the snapshot"
    );

    // A second snapshot pins the removal; restoring data leaves it alone.
    let removed = pass.snapshot();
    assert!(pass.restore_data(&TupleSet::new_unchecked(victim_record, readings)).unwrap());
    assert!(pass.has_data(victim));
    assert!(!removed.has_data(victim));
    assert!(snapshot.has_data(victim));

    // And the live store sees every commit.
    let now = pass.snapshot();
    assert_eq!(now.len(), ids.len() + 1 + 16 + 1);
    assert_eq!(now.get_record(annotated).unwrap().annotations.len(), 2);
    assert_eq!(
        now.query_text(r#"FIND WHERE ANNOTATION CONTAINS "opinion""#).unwrap().ids(),
        vec![annotated]
    );
    assert_ne!(answers(&now), before);
}
