//! The local Provenance-Aware Storage System.
//!
//! §V's four PASS properties, and where this module enforces them:
//!
//! 1. **Provenance is a first-class object** — records live under their
//!    own storage prefix, are indexed independently of readings, and stay
//!    resident in memory ("provenance metadata is accessed more
//!    frequently than its data", §IV).
//! 2. **Provenance can be queried** — [`Pass::query`] /
//!    [`Pass::query_text`] run the full `pass-query` language over the
//!    attribute, time, keyword, and ancestry indexes.
//! 3. **Nonidentical data items do not have identical provenance** —
//!    [`Pass::ingest`] verifies the record's content digest against the
//!    readings and rejects identity collisions with differing content.
//! 4. **Provenance is not lost if ancestor objects are removed** —
//!    [`Pass::remove_data`] deletes readings only; records, indexes, and
//!    ancestry edges survive, and lineage queries keep answering.
//!
//! # Group commit and the atomicity contract
//!
//! Writes couple `{record, data, marker}` in one atomic storage batch, so
//! a crash can never leave a record without its data or vice versa — the
//! consistency the paper demands of a reliable provenance store (§IV) and
//! the property experiment E10 injects faults against.
//!
//! [`Pass::ingest_batch`] extends that coupling to a whole stream of
//! tuple sets: N sets are validated up front, written as **one**
//! [`WriteBatch`] (a single `KvStore::apply`, hence a single WAL append
//! and atomicity domain), and indexed in one bulk pass. The contract is
//! all-or-nothing at two levels:
//!
//! * *validation*: if any set in the batch fails identity/digest
//!   verification or collides with an existing identity, the whole batch
//!   is rejected and **no** storage or index state changes;
//! * *durability*: after a crash, either every set of the batch is
//!   visible or none is (WAL replay applies batches atomically).
//!
//! # Snapshot-isolated reads
//!
//! All in-memory index state lives in one immutable `State` behind an
//! `Arc`. Readers call [`Pass::snapshot`] — an O(1) `Arc` clone — and
//! query the snapshot lock-free with repeatable-read semantics; writers
//! never block them. Writers publish a new state via copy-on-write
//! (`Arc::make_mut`), and a commit costs its batch whether or not a
//! snapshot is alive. Every part of `State` is a persistent structure
//! from `pass-index`: records and per-node columns in chunked-`Arc`
//! vectors ([`ChunkVec`]), keyed lookups in path-copying maps, the time
//! index in `Arc`'d sorted runs. When a snapshot still holds the
//! published state, `make_mut` clones only the top level (a few `Arc`
//! bumps), and the commit then copies just the chunks and map paths it
//! writes; everything else stays shared with the snapshot. With no
//! snapshot alive, nothing is shared and everything mutates in place.
//! [`Pass::query`] itself runs against a fresh snapshot, so a single
//! query never observes a half-applied batch.
//!
//! # Sharded multi-writer commits
//!
//! With `shards = N` ([`PassConfig::with_shards`]) the keyspace is
//! hash-partitioned over `TupleSetId` and each shard owns its own commit
//! lock and storage engine (own WAL and memtable on disk) — see
//! [`crate::shard`]. A batch takes only the locks of the shards it
//! touches, so writers on disjoint shards run their validation, WAL
//! appends, and fsyncs fully in parallel; cross-shard batches stay
//! atomic through a roll-forward intent log. What stays global is
//! *visibility*: every commit publishes one new state under the global
//! version counter inside a short, serialized publish+broadcast
//! section, so snapshot isolation, the version-keyed closure cache, and
//! the subscription handoff are exactly as strong as in the single-lock
//! store. `shards = 1` (the default) *is* the single-lock store, same
//! on-disk layout byte for byte.

use crate::archive::{AgeReport, ArchiveExport, ImportStats};
use crate::config::{Backend, ClosureStrategy, PassConfig};
use crate::error::{PassError, Result};
use crate::keyspace;
use crate::pins::{PinGuard, PinRegistry};
use crate::shard::{self, Sharding};
use crate::subscribe::{Hub, Subscription, WatchState, DEFAULT_SUBSCRIPTION_CAPACITY};
use parking_lot::{Mutex, RwLock};
use pass_index::{
    AncestryGraph, AttrIndex, BfsClosure, ChunkVec, IntervalClosure, KeywordIndex, MemoClosure,
    NaiveJoinClosure, NodeIdx, PostingList, ReachStrategy, TimeIndex, TraverseOpts,
};
use pass_model::codec::{Decode, Encode};
use pass_model::{
    keys, Annotation, Attributes, ModelError, ProvenanceBuilder, ProvenanceRecord, Reading, SiteId,
    TimeRange, Timestamp, ToolDescriptor, TupleSet, TupleSetId, Value,
};
use pass_query::{Cursor, LineageClause, PreparedQuery, Provider, Query, QueryEngine, QueryResult};
use pass_storage::{
    spawn_engine_worker, spawn_task_worker, KvStore, MaintenanceHandle, MaintenanceOptions,
    WriteBatch,
};
use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lazily-built created-order scans, shared by every cursor opened on
/// one published [`State`]. Cloning (the copy-on-write path) and
/// in-place mutation both reset it — see [`Pass::publish`].
#[derive(Default)]
struct CreatedScanCache {
    asc: std::sync::OnceLock<std::sync::Arc<[NodeIdx]>>,
    desc: std::sync::OnceLock<std::sync::Arc<[NodeIdx]>>,
}

impl Clone for CreatedScanCache {
    fn clone(&self) -> Self {
        CreatedScanCache::default()
    }
}

/// In-memory index state: immutable once published, shared by snapshots.
///
/// Every field is a persistent container ([`ChunkVec`], the `PMap`s
/// inside the indexes, the time index's `Arc`'d runs), so cloning a
/// `State` costs a few `Arc` bumps whatever the store's size, and a
/// commit that finds its predecessor still held by a snapshot copies
/// only the chunks and paths it changes.
#[derive(Clone)]
struct State {
    graph: AncestryGraph,
    attrs: AttrIndex,
    keywords: KeywordIndex,
    time: TimeIndex,
    /// Records by node; `None` for placeholder ancestors. Each record is
    /// one allocation, shared with the subscription changelogs.
    records: ChunkVec<Option<Arc<ProvenanceRecord>>>,
    record_count: usize,
    /// Whether each node's readings are present.
    data_present: ChunkVec<bool>,
    data_count: usize,
    created_scans: CreatedScanCache,
    /// Commit sequence number, assigned under the state write lock so a
    /// snapshot's state and version can never disagree (the shared
    /// closure cache is keyed on it).
    version: u64,
}

impl State {
    /// Dense indexes of every record in creation-time order (ties by
    /// tuple set id, ids ascending even under `desc`) — the `ORDER BY`
    /// pushdown scan behind [`Provider::created_scan`]. Built once per
    /// published state and shared by every cursor (O(n log n) on the
    /// first ordered query after a commit, an `Arc` clone afterwards).
    fn created_scan(&self, desc: bool) -> std::sync::Arc<[NodeIdx]> {
        let cell = if desc { &self.created_scans.desc } else { &self.created_scans.asc };
        cell.get_or_init(|| {
            let keyed = self.records().map(|(idx, r)| (r.created_at, r.id, idx)).collect();
            pass_query::created_order_scan(keyed, desc)
        })
        .clone()
    }

    fn empty() -> Self {
        State {
            graph: AncestryGraph::new(),
            attrs: AttrIndex::new(),
            keywords: KeywordIndex::new(),
            time: TimeIndex::new(),
            records: ChunkVec::new(),
            record_count: 0,
            data_present: ChunkVec::new(),
            data_count: 0,
            created_scans: CreatedScanCache::default(),
            version: 0,
        }
    }

    /// Every record with its node, in node order.
    fn records(&self) -> impl Iterator<Item = (NodeIdx, &Arc<ProvenanceRecord>)> + '_ {
        self.records
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|r| (idx as NodeIdx, r)))
    }

    fn record_at(&self, idx: NodeIdx) -> Option<&Arc<ProvenanceRecord>> {
        self.records.get(idx as usize)?.as_ref()
    }

    fn record(&self, id: TupleSetId) -> Option<&Arc<ProvenanceRecord>> {
        self.record_at(self.graph.lookup(id)?)
    }

    fn readings_present(&self, id: TupleSetId) -> bool {
        self.graph.lookup(id).and_then(|idx| self.data_present.get(idx as usize)) == Some(&true)
    }

    /// Marks `id`'s readings present or absent; unknown ids are ignored.
    fn set_data_present(&mut self, id: TupleSetId, present: bool) {
        if let Some(idx) = self.graph.lookup(id) {
            self.set_data_at(idx, present);
        }
    }

    fn set_data_at(&mut self, idx: NodeIdx, present: bool) {
        if self.data_present.get(idx as usize) == Some(&present) {
            return;
        }
        if let Some(flag) = self.data_present.get_mut(idx as usize) {
            *flag = present;
            if present {
                self.data_count += 1;
            } else {
                self.data_count -= 1;
            }
        }
    }

    /// Replaces an existing record (annotation merges) and indexes the
    /// annotation texts it gained. Callers validated presence under the
    /// record's shard lock; a miss means the state diverged, so skip
    /// rather than poison every later commit by panicking mid-publish.
    fn replace_record(&mut self, record: ProvenanceRecord, new_texts: &[&str]) {
        let Some(idx) = self.graph.lookup(record.id) else { return };
        let Some(Some(slot)) = self.records.get_mut(idx as usize) else { return };
        *slot = Arc::new(record);
        for text in new_texts {
            self.keywords.insert(idx, text);
        }
    }

    /// Applies a pre-extracted [`IndexDelta`] of records not yet held,
    /// whose readings are present when `with_data`, and returns the
    /// records for the changelog. Only the parts that need `&mut self`
    /// happen here — graph interning (which assigns the `NodeIdx` every
    /// other entry is remapped onto) and the sorted bulk merges — so
    /// shard-parallel writers keep the serialized publish section as
    /// short as possible. Ends with one time-index build, so the state it
    /// leaves is ready to publish.
    fn apply_delta(&mut self, delta: IndexDelta, with_data: bool) -> Vec<Arc<ProvenanceRecord>> {
        let IndexDelta { records, parents, attrs, docs, ranges } = delta;
        let mut idxs = Vec::with_capacity(records.len());
        for (record, parents) in records.iter().zip(&parents) {
            // Interning assigns the record's node before its parents'.
            let idx = self.graph.insert(record.id, parents);
            idxs.push(idx);
            if idx as usize == self.records.len() {
                self.records.push(Some(Arc::clone(record)));
                self.data_present.push(false);
            } else if let Some(slot) = self.records.get_mut(idx as usize) {
                // A placeholder ancestor gaining its record.
                *slot = Some(Arc::clone(record));
            }
            self.record_count += 1;
            if with_data {
                self.set_data_at(idx, true);
            }
            let nodes = self.graph.node_count();
            self.records.resize(nodes, None);
            self.data_present.resize(nodes, false);
        }
        self.attrs.insert_bulk(
            attrs.into_iter().map(|(slot, name, value)| (idxs[slot], name, value)).collect(),
        );
        self.keywords.insert_bulk(docs.iter().map(|(slot, text)| (idxs[*slot], text.as_str())));
        for (slot, range) in ranges {
            self.time.insert(idxs[slot], range);
        }
        self.time.build();
        records
    }
}

/// Everything a batch contributes to the in-memory indexes, extracted
/// ahead of the publish critical section: the shared records, parent
/// edge lists, attribute rows, keyword documents, and time ranges, each
/// keyed by the record's *slot* (position in the batch). Slots are
/// remapped to `NodeIdx` under the state lock — node indices are
/// assigned by graph interning (placeholder reuse makes them
/// non-monotone), so they cannot be precomputed outside it.
struct IndexDelta {
    records: Vec<Arc<ProvenanceRecord>>,
    parents: Vec<Vec<(TupleSetId, bool)>>,
    attrs: Vec<(usize, String, Value)>,
    docs: Vec<(usize, String)>,
    ranges: Vec<(usize, TimeRange)>,
}

impl IndexDelta {
    fn prepare(records: Vec<Arc<ProvenanceRecord>>) -> IndexDelta {
        let mut delta = IndexDelta {
            records: Vec::new(),
            parents: Vec::with_capacity(records.len()),
            attrs: Vec::new(),
            docs: Vec::new(),
            ranges: Vec::new(),
        };
        for (slot, record) in records.iter().enumerate() {
            delta
                .parents
                .push(record.ancestry.iter().map(|d| (d.parent, d.tool.abstracted)).collect());
            for (name, value) in record.attributes.iter() {
                delta.attrs.push((slot, name.to_owned(), value.clone()));
            }
            for (name, value) in pass_query::ast::multi_valued_attrs(record) {
                delta.attrs.push((slot, name.to_owned(), value));
            }
            // Pseudo-attributes, indexed so the planner can serve them.
            delta.attrs.push((
                slot,
                "origin.site".to_owned(),
                Value::Int(i64::from(record.origin.0)),
            ));
            delta.attrs.push((slot, "created_at".to_owned(), Value::Time(record.created_at)));
            delta.attrs.push((
                slot,
                "ancestry.parents".to_owned(),
                Value::Int(record.ancestry.len() as i64),
            ));
            for ann in &record.annotations {
                delta.docs.push((slot, ann.text.clone()));
            }
            if let Some(desc) = record.attributes.get_str(keys::DESCRIPTION) {
                delta.docs.push((slot, desc.to_owned()));
            }
            if let Some(range) = record.time_range() {
                delta.ranges.push((slot, range));
            }
        }
        delta.records = records;
        delta
    }
}

/// Built closure structure, tagged with the graph version it reflects.
enum BuiltClosure {
    None,
    Memo(MemoClosure),
    Interval(IntervalClosure),
}

struct ClosureCache {
    built: BuiltClosure,
    version: u64,
}

/// Cumulative operation counters.
#[derive(Debug, Default)]
struct Metrics {
    ingests: AtomicU64,
    batches: AtomicU64,
    queries: AtomicU64,
    annotations: AtomicU64,
    removals: AtomicU64,
}

/// A snapshot of store statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Provenance records held.
    pub records: usize,
    /// Tuple sets whose readings are still present.
    pub data_blobs: usize,
    /// Ancestry graph nodes (placeholders included).
    pub graph_nodes: usize,
    /// Ancestry graph edges.
    pub graph_edges: usize,
    /// Total `(attr, value, node)` index entries.
    pub attr_entries: u64,
    /// Approximate bytes held by the in-memory indexes.
    pub index_bytes: usize,
    /// Ingests since open (tuple sets, not batches).
    pub ingests: u64,
    /// Group commits since open (an N-set `ingest_batch` counts once).
    pub batches: u64,
    /// Queries since open.
    pub queries: u64,
}

/// Result of a full storage/index consistency audit (experiment E10).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Records found in storage.
    pub records: usize,
    /// Reading blobs found in storage.
    pub data_blobs: usize,
    /// Records whose stored identity does not match their content
    /// (forged or corrupted records).
    pub identity_failures: Vec<TupleSetId>,
    /// Data blobs whose digest does not match their record.
    pub digest_mismatches: Vec<TupleSetId>,
    /// Data blobs with no owning record — the broken index↔data linkage
    /// §IV-A warns about. Must be empty after any crash.
    pub orphan_data: Vec<TupleSetId>,
    /// Presence markers disagreeing with actual data blobs.
    pub marker_mismatches: Vec<TupleSetId>,
}

impl ConsistencyReport {
    /// True when no violations were found.
    pub fn is_consistent(&self) -> bool {
        self.identity_failures.is_empty()
            && self.digest_mismatches.is_empty()
            && self.orphan_data.is_empty()
            && self.marker_mismatches.is_empty()
    }
}

/// A local provenance-aware store.
pub struct Pass {
    config: PassConfig,
    store: Arc<dyn KvStore>,
    /// Published index state. Readers `Arc`-clone it (O(1)); writers
    /// replace it copy-on-write, sharing what they do not touch.
    state: RwLock<Arc<State>>,
    /// Per-shard commit locks (one lock — the old global commit mutex —
    /// when `shards = 1`) plus the direct shard handles the commit path
    /// writes through. A commit holds the locks of exactly the shards it
    /// touches, across storage I/O, so the state write lock itself is
    /// only taken for the brief in-memory publish step and writers on
    /// disjoint shards overlap their WAL appends and fsyncs.
    sharding: Sharding,
    /// Serializes the publish+broadcast step across shard-parallel
    /// writers so subscription changelogs leave in version order (the
    /// PR 3 handoff relies on it). Held only around the in-memory
    /// publish and the broadcast — never across storage I/O — so it
    /// costs a short critical section, not commit-wide serialization.
    publish_order: Mutex<()>,
    closure: Arc<Mutex<ClosureCache>>,
    /// Global commit version. Shared (`Arc`) because disk engines hold a
    /// clone as their seal clock: every SSTable flush is stamped with
    /// the version it was sealed at, which is what lets background
    /// compaction compare tables against the snapshot pin floor.
    version: Arc<AtomicU64>,
    /// Commit versions still pinned by live snapshots/subscriptions —
    /// the read-side state the storage GC consults (see [`crate::pins`]).
    pins: Arc<PinRegistry>,
    metrics: Metrics,
    /// Live-subscription registry. Commits broadcast a per-commit
    /// changelog through it — one relaxed atomic load when nobody is
    /// subscribed (see [`crate::subscribe`]).
    hub: Arc<Hub>,
    /// Background maintenance workers (one per disk shard when
    /// [`crate::config::MaintenanceConfig::enabled`]); dropped — and
    /// therefore joined — when the store drops.
    maintenance: Vec<MaintenanceHandle>,
}

impl std::fmt::Debug for Pass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pass")
            .field("site", &self.config.site)
            .field("records", &self.state.read().record_count)
            .finish()
    }
}

impl Pass {
    /// Opens a store per `config`, rebuilding in-memory indexes from the
    /// backend's contents. Disk engines get the global commit version as
    /// their seal clock, and — when maintenance is enabled — one
    /// background compaction worker per shard, wired to the snapshot pin
    /// floor for version GC.
    pub fn open(config: PassConfig) -> Result<Pass> {
        let requested = config.shards.max(1);
        let version = Arc::new(AtomicU64::new(1));
        let pins = Arc::new(PinRegistry::default());
        let (store, sharding, engines) = match &config.backend {
            Backend::Memory => {
                let (store, sharding) = shard::open_memory(requested)?;
                (store, sharding, Vec::new())
            }
            Backend::Disk { dir, options } => {
                let mut options = options.clone();
                options.seal_clock = Some(Arc::clone(&version));
                shard::open_disk(dir, &options, requested)?
            }
        };
        let mut maintenance = Vec::new();
        if config.maintenance.enabled {
            for engine in &engines {
                let registry = Arc::clone(&pins);
                maintenance.push(spawn_engine_worker(
                    Arc::clone(engine),
                    MaintenanceOptions {
                        tick: config.maintenance.tick,
                        pin_floor: Some(Arc::new(move || registry.floor())),
                    },
                ));
            }
        }
        Pass::open_internal(store, sharding, config, version, pins, maintenance)
    }

    /// Opens a store over a caller-supplied storage engine. This is the
    /// embedding/testing hook: counting doubles, fault-injecting wrappers,
    /// or alternative engines all enter here. The engine is treated as a
    /// single commit shard regardless of `config.shards` — sharding is a
    /// layout `Pass::open` builds, not a property an arbitrary engine
    /// has.
    pub fn open_with_store(store: Arc<dyn KvStore>, config: PassConfig) -> Result<Pass> {
        Pass::open_internal(
            store,
            Sharding::single(),
            config,
            Arc::new(AtomicU64::new(1)),
            Arc::new(PinRegistry::default()),
            Vec::new(),
        )
    }

    /// Lock order: constructor — creates the `publish_order` mutex and
    /// shard locks before any commit path can run; takes none of them.
    fn open_internal(
        store: Arc<dyn KvStore>,
        sharding: Sharding,
        config: PassConfig,
        version: Arc<AtomicU64>,
        pins: Arc<PinRegistry>,
        maintenance: Vec<MaintenanceHandle>,
    ) -> Result<Pass> {
        let pass = Pass {
            config,
            store,
            state: RwLock::new(Arc::new(State::empty())),
            sharding,
            publish_order: Mutex::new(()),
            closure: Arc::new(Mutex::new(ClosureCache { built: BuiltClosure::None, version: 0 })),
            version,
            pins,
            metrics: Metrics::default(),
            hub: Arc::new(Hub::default()),
            maintenance,
        };
        pass.rebuild_indexes()?;
        Ok(pass)
    }

    /// Volatile store for `site`.
    #[allow(clippy::expect_used)] // volatile open has no I/O failure mode
    pub fn open_memory(site: SiteId) -> Pass {
        Pass::open(PassConfig::memory(site)).expect("memory backend cannot fail to open")
    }

    /// This store's site identity.
    pub fn site(&self) -> SiteId {
        self.config.site
    }

    /// Number of commit shards actually in effect (for an existing
    /// on-disk store, the persisted layout — not necessarily what the
    /// config asked for).
    pub fn shards(&self) -> usize {
        self.sharding.count()
    }

    /// The commit shard that owns `id` — the routing writers use to
    /// build single-shard batches (see [`pass_sensor`-style pipelines]
    /// and the E20 concurrent-writer series).
    ///
    /// [`pass_sensor`-style pipelines]: crate::shard
    pub fn shard_of(&self, id: TupleSetId) -> usize {
        self.sharding.shard_of(id)
    }

    fn rebuild_indexes(&self) -> Result<()> {
        let mut state = State::empty();
        let mut records = Vec::new();
        for (key, value) in self.store.scan_prefix(&[keyspace::RECORD])? {
            let Some((_, id)) = keyspace::parse(&key) else {
                continue;
            };
            let record = ProvenanceRecord::decode_all(&value)?;
            debug_assert_eq!(record.id, id, "key/record id agreement");
            records.push(Arc::new(record));
        }
        // Open-time rebuild is the largest batch of all — one bulk pass.
        state.apply_delta(IndexDelta::prepare(records), false);
        for (key, _) in self.store.scan_prefix(&[keyspace::MARKER])? {
            if let Some((_, id)) = keyspace::parse(&key) {
                state.set_data_present(id, true);
            }
        }
        let mut guard = self.state.write();
        state.version = self.next_version();
        *guard = Arc::new(state);
        Ok(())
    }

    /// Allocates the next commit sequence number. Must be called with the
    /// state write lock held so version order matches publication order.
    fn next_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Runs an in-memory state mutation under copy-on-write: clones the
    /// published state's top level only when snapshots still reference
    /// it (the mutation then copies just the parts it writes), then
    /// publishes the mutated state. The write lock is held only for the
    /// mutation itself, never across storage I/O. The new version is
    /// assigned inside the lock, atomically with publication — otherwise
    /// a racing snapshot could pair the old state with the new version
    /// and poison the version-keyed closure cache. Returns the mutation
    /// result and the version the commit was published under (writers
    /// broadcast subscription changelogs tagged with it).
    fn publish<R>(&self, mutate: impl FnOnce(&mut State) -> R) -> (R, u64) {
        let mut guard = self.state.write();
        let state = Arc::make_mut(&mut guard);
        let out = mutate(state);
        // `make_mut` mutates in place when no snapshot holds the state,
        // so the derived-scan cache must be reset explicitly (the
        // copy-on-write path resets it via `Clone`).
        state.created_scans = CreatedScanCache::default();
        state.version = self.next_version();
        (out, state.version)
    }

    // -- Snapshot reads ------------------------------------------------

    /// An O(1), repeatable-read view of the store. The snapshot
    /// implements the query [`Provider`] and [`QueryEngine`] traits and
    /// keeps answering consistently while ingest proceeds. It holds its
    /// version of the index state alive until dropped; commits meanwhile
    /// share every part of that state they do not write, so holding a
    /// snapshot costs a commit only the chunks and paths it copies, not
    /// a copy of the store. It also pins its commit version in the GC
    /// registry, so background compaction keeps every storage version
    /// the snapshot can still read.
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.read().clone();
        let pin = self.pins.pin(state.version);
        Snapshot {
            version: state.version,
            state,
            _pin: pin,
            store: Arc::clone(&self.store),
            closure: Arc::clone(&self.closure),
            strategy: self.config.closure,
            counters: SnapshotCounters {
                ingests: self.metrics.ingests.load(Ordering::Relaxed),
                batches: self.metrics.batches.load(Ordering::Relaxed),
                queries: self.metrics.queries.load(Ordering::Relaxed),
            },
        }
    }

    // -- Ingest --------------------------------------------------------

    /// Ingests a complete tuple set (provenance + readings).
    ///
    /// Verifies identity and content binding; writes record, data, and
    /// marker in one atomic batch. Re-ingesting an identical tuple set is
    /// idempotent; a colliding identity with different content is
    /// rejected.
    pub fn ingest(&self, ts: &TupleSet) -> Result<TupleSetId> {
        self.ingest_batch(std::slice::from_ref(ts)).map(|ids| ids[0])
    }

    /// Group-commits a whole stream of tuple sets as **one** atomic unit:
    /// a single [`WriteBatch`] (one `KvStore::apply`, one WAL append, one
    /// crash-atomicity domain) and one bulk index pass.
    ///
    /// Validation is all-or-nothing: every set's identity and content
    /// digest are checked — and checked against both the store and the
    /// rest of the batch — before any byte is written. On error, no
    /// storage or index state changes. Sets identical to already-present
    /// ones are skipped idempotently (their ids still appear in the
    /// returned vector, in input order).
    ///
    /// Lock order: delegates to the shared batch commit, which takes the
    /// touched shard commit locks (ascending) and then `publish_order`.
    pub fn ingest_batch(&self, sets: &[TupleSet]) -> Result<Vec<TupleSetId>> {
        self.ingest_batch_inner(sets, true)
    }

    /// Shared batch commit. `verify` re-checks identity and content
    /// binding per set; [`Pass::capture_batch`] passes `false` because it
    /// built (and therefore already hashed) the records itself one line
    /// earlier. Collision and duplicate checks always run.
    ///
    /// Lock order: shard commit locks (ascending, via
    /// [`Sharding::lock_many`]) → intent-log mutex (inside
    /// `apply_parts`, storage only) → `publish_order` → the state write
    /// lock inside `publish`. Strictly this sequence; never backwards.
    fn ingest_batch_inner(&self, sets: &[TupleSet], verify: bool) -> Result<Vec<TupleSetId>> {
        if sets.is_empty() {
            return Ok(Vec::new());
        }
        // Take the commit locks of exactly the shards this batch touches,
        // in ascending index order (the deadlock-free total order shared
        // by every multi-shard committer). Writers whose shard sets are
        // disjoint proceed fully in parallel from here on.
        let mut involved: Vec<usize> =
            sets.iter().map(|ts| self.sharding.shard_of(ts.provenance.id)).collect();
        involved.sort_unstable();
        involved.dedup();
        let _commit = self.sharding.lock_many(&involved);
        // Phase 1: validate everything against the published state and
        // the batch itself. Every id in the batch routes to a locked
        // shard, and an id's record can only be created or changed under
        // its shard's lock — so this read is stable for our ids even
        // while other shards keep committing. Validation borrows the
        // state through the read guard rather than cloning the `Arc`: a
        // cloned handle held here would make every concurrent
        // publisher's `Arc::make_mut` copy the state's top level and the
        // paths it writes, work no snapshot needs.
        let current = self.state.read();
        let mut fresh: Vec<&TupleSet> = Vec::with_capacity(sets.len());
        let mut seen: HashMap<TupleSetId, pass_model::Digest128> = HashMap::new();
        let mut ids = Vec::with_capacity(sets.len());
        for ts in sets {
            let record = &ts.provenance;
            if verify {
                if !record.verify_identity() {
                    return Err(PassError::Model(ModelError::Invalid(format!(
                        "record {} fails identity verification",
                        record.id
                    ))));
                }
                let digest = TupleSet::content_digest_of(&ts.readings);
                if digest != record.content_digest {
                    return Err(PassError::Model(ModelError::Invalid(format!(
                        "content digest mismatch for {}",
                        record.id
                    ))));
                }
            }
            ids.push(record.id);
            // PASS property 3: identical id ⇒ identical provenance.
            // Identity binds the content digest, so matching ids with
            // matching digests are the same tuple set.
            if let Some(existing) = current.record(record.id) {
                if existing.content_digest == record.content_digest {
                    continue; // idempotent re-ingest
                }
                return Err(PassError::IdentityCollision(record.id));
            }
            match seen.get(&record.id) {
                Some(d) if *d == record.content_digest => continue, // intra-batch dup
                Some(_) => return Err(PassError::IdentityCollision(record.id)),
                None => {
                    seen.insert(record.id, record.content_digest);
                    fresh.push(ts);
                }
            }
        }
        if fresh.is_empty() {
            return Ok(ids);
        }
        // Release the read guard: `publish` takes the write side of the
        // same lock, and holding the guard across Phase 2 would stall
        // every other shard's publish behind our storage fsync.
        drop(current);

        // Phase 2: one storage sub-batch per participating shard. A
        // single-shard batch is one engine apply — one WAL append, one
        // fsync, exactly the old single-store commit. A cross-shard
        // batch goes through the intent-log protocol, which keeps the
        // multi-WAL write all-or-nothing across crashes (see
        // [`pass_storage::sharded`]).
        let mut parts: Vec<(usize, WriteBatch)> = Vec::new();
        let mut slot_of: HashMap<usize, usize> = HashMap::new();
        for ts in &fresh {
            let record = &ts.provenance;
            let shard = self.sharding.shard_of(record.id);
            let slot = *slot_of.entry(shard).or_insert_with(|| {
                parts.push((shard, WriteBatch::new()));
                parts.len() - 1
            });
            let batch = &mut parts[slot].1;
            let mut data_buf = Vec::with_capacity(ts.readings.len() * 24 + 8);
            ts.readings.encode_into(&mut data_buf);
            batch.put(keyspace::key(keyspace::RECORD, record.id).to_vec(), record.encode_to_vec());
            batch.put(keyspace::key(keyspace::DATA, record.id).to_vec(), data_buf);
            batch.put(keyspace::key(keyspace::MARKER, record.id).to_vec(), vec![1u8]);
        }
        self.sharding.apply_parts(&self.store, parts)?;

        // Phase 3: one bulk index publish under the global version. The
        // delta (one shared record allocation each, attribute rows,
        // tokenized docs) is extracted *before* the serialized section;
        // only graph interning, the sorted merges, and the broadcast sit
        // inside it.
        let delta =
            IndexDelta::prepare(fresh.iter().map(|ts| Arc::new(ts.provenance.clone())).collect());
        let order = self.publish_order.lock();
        let (records, version) = self.publish(|state| state.apply_delta(delta, true));
        // Broadcast while still holding the publish-order lock so
        // subscribers receive changelogs in version order even under
        // shard-parallel writers. The changelog shares the records the
        // state holds.
        self.hub.broadcast(version, || records);
        drop(order);
        self.metrics.ingests.fetch_add(fresh.len() as u64, Ordering::Relaxed);
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        Ok(ids)
    }

    /// Captures a raw tuple set produced at this site.
    pub fn capture(
        &self,
        attrs: Attributes,
        readings: Vec<Reading>,
        at: Timestamp,
    ) -> Result<TupleSetId> {
        self.capture_batch([(attrs, readings, at)]).map(|ids| ids[0])
    }

    /// Captures a whole stream of raw tuple sets in one group commit.
    /// Each `(attributes, readings, timestamp)` item becomes a tuple set
    /// with this site's provenance; the batch then follows the
    /// [`Pass::ingest_batch`] atomicity contract.
    ///
    /// Lock order: delegates to the shared batch commit — shard commit
    /// locks (ascending), then `publish_order`.
    pub fn capture_batch(
        &self,
        items: impl IntoIterator<Item = (Attributes, Vec<Reading>, Timestamp)>,
    ) -> Result<Vec<TupleSetId>> {
        let sets: Vec<TupleSet> = items
            .into_iter()
            .map(|(attrs, readings, at)| {
                let record = ProvenanceBuilder::new(self.config.site, at)
                    .attrs(&attrs)
                    .build(TupleSet::content_digest_of(&readings));
                TupleSet::new_unchecked(record, readings)
            })
            .collect();
        // Identity and digest hold by construction (the digest was hashed
        // into the identity one line up); skip the re-verification pass.
        self.ingest_batch_inner(&sets, false)
    }

    /// Derives a new tuple set from `parents` using `tool`, ingesting the
    /// result with full ancestry recorded. Parents need not be present
    /// locally (they may live at other sites or have been removed).
    pub fn derive(
        &self,
        parents: &[TupleSetId],
        tool: &ToolDescriptor,
        attrs: Attributes,
        readings: Vec<Reading>,
        at: Timestamp,
    ) -> Result<TupleSetId> {
        let mut builder = ProvenanceBuilder::new(self.config.site, at).attrs(&attrs);
        for &parent in parents {
            builder = builder.derived_from(parent, tool.clone());
        }
        let record = builder.build(TupleSet::content_digest_of(&readings));
        let ts = TupleSet::new(record, readings)?;
        self.ingest(&ts)
    }

    /// Attaches an annotation to an existing record (identity unchanged).
    ///
    /// Lock order: takes one shard commit lock, then publishes; never
    /// holds more than one shard lock.
    pub fn annotate(&self, id: TupleSetId, annotation: Annotation) -> Result<()> {
        let _commit = self.sharding.lock_one(self.sharding.shard_of(id));
        // Borrow the published state through the read guard, as ingest
        // does: a cloned `Arc<State>` held here would make any commit on
        // another shard copy the state's top level.
        let current = self.state.read();
        let Some(existing) = current.record(id) else {
            return Err(PassError::NotFound(id));
        };
        let mut record = ProvenanceRecord::clone(existing);
        drop(current);
        record.annotate(annotation.clone());
        let encoded = record.encode_to_vec();
        self.store.put(&keyspace::key(keyspace::RECORD, id), &encoded)?;
        // The shard lock pins the record between the read above and this
        // publish, so replacing it loses no concurrent change.
        self.publish(|state| state.replace_record(record, &[annotation.text.as_str()]));
        self.metrics.annotations.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    // -- Retrieval -----------------------------------------------------

    /// The provenance record for `id`, if present.
    pub fn get_record(&self, id: TupleSetId) -> Option<ProvenanceRecord> {
        self.state.read().record(id).map(|r| ProvenanceRecord::clone(r))
    }

    /// The readings for `id`: `Ok(None)` when the data was removed (the
    /// record may well still exist — PASS property 4).
    pub fn get_data(&self, id: TupleSetId) -> Result<Option<Vec<Reading>>> {
        match self.store.get(&keyspace::key(keyspace::DATA, id))? {
            Some(bytes) => Ok(Some(Vec::<Reading>::decode_all(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Record + readings together, when both exist.
    pub fn get_tuple_set(&self, id: TupleSetId) -> Result<Option<TupleSet>> {
        let Some(record) = self.get_record(id) else {
            return Ok(None);
        };
        let Some(readings) = self.get_data(id)? else {
            return Ok(None);
        };
        Ok(Some(TupleSet::new_unchecked(record, readings)))
    }

    /// True when the record exists here.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.state.read().record(id).is_some()
    }

    /// True when the readings are still present.
    pub fn has_data(&self, id: TupleSetId) -> bool {
        self.state.read().readings_present(id)
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.state.read().record_count
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All record ids (unordered).
    pub fn ids(&self) -> Vec<TupleSetId> {
        self.state.read().records().map(|(_, r)| r.id).collect()
    }

    // -- Removal (PASS property 4) --------------------------------------

    /// Deletes the *readings* of a tuple set; the provenance record and
    /// every index entry survive. Returns whether data was present.
    ///
    /// Lock order: takes one shard commit lock, then publishes; never
    /// holds more than one shard lock.
    pub fn remove_data(&self, id: TupleSetId) -> Result<bool> {
        let _commit = self.sharding.lock_one(self.sharding.shard_of(id));
        let current = self.state.read();
        if current.record(id).is_none() {
            return Err(PassError::NotFound(id));
        }
        let had = current.readings_present(id);
        drop(current);
        if had {
            let mut batch = WriteBatch::new();
            batch.delete(keyspace::key(keyspace::DATA, id).to_vec());
            batch.delete(keyspace::key(keyspace::MARKER, id).to_vec());
            self.store.apply(batch)?;
            self.publish(|state| state.set_data_present(id, false));
            self.metrics.removals.fetch_add(1, Ordering::Relaxed);
        }
        Ok(had)
    }

    // -- Archive exchange (§V: merging local PASS installations) --------

    /// Ingests a bare provenance record — no readings. This is the
    /// federation primitive: metadata replicas from other installations
    /// merge without shipping sensor data.
    ///
    /// Identity is verified. If the record already exists with the same
    /// identity, its annotations (the only post-hoc, identity-free
    /// field) are unioned in; an identity match with a different content
    /// digest is a forgery and is rejected.
    pub fn ingest_record(&self, record: &ProvenanceRecord) -> Result<TupleSetId> {
        self.merge_record(record).map(|_| record.id)
    }

    /// Merge core shared by [`Pass::ingest_record`] and
    /// [`Pass::import_archive`]. Returns `(was_new, annotations_merged)`.
    ///
    /// Lock order: one shard commit lock, then `publish_order` (new
    /// records only), then the state write lock inside `publish`.
    fn merge_record(&self, record: &ProvenanceRecord) -> Result<(bool, usize)> {
        if !record.verify_identity() {
            return Err(PassError::Model(ModelError::Invalid(format!(
                "record {} fails identity verification",
                record.id
            ))));
        }
        let _commit = self.sharding.lock_one(self.sharding.shard_of(record.id));
        // Borrow through the read guard (see `annotate`).
        let current = self.state.read();
        if let Some(existing) = current.record(record.id) {
            if existing.content_digest != record.content_digest {
                return Err(PassError::IdentityCollision(record.id));
            }
            let fresh: Vec<Annotation> = record
                .annotations
                .iter()
                .filter(|a| !existing.annotations.contains(a))
                .cloned()
                .collect();
            if fresh.is_empty() {
                return Ok((false, 0));
            }
            let mut merged = ProvenanceRecord::clone(existing);
            drop(current);
            merged.annotations.extend(fresh.iter().cloned());
            let encoded = merged.encode_to_vec();
            self.store.put(&keyspace::key(keyspace::RECORD, record.id), &encoded)?;
            let texts: Vec<&str> = fresh.iter().map(|a| a.text.as_str()).collect();
            self.publish(|state| state.replace_record(merged, &texts));
            self.metrics.annotations.fetch_add(fresh.len() as u64, Ordering::Relaxed);
            return Ok((false, fresh.len()));
        }
        // New record: persist and index, with no DATA/MARKER keys — the
        // readings live elsewhere (or were removed; PASS property 4).
        drop(current);
        self.store.put(&keyspace::key(keyspace::RECORD, record.id), &record.encode_to_vec())?;
        let delta = IndexDelta::prepare(vec![Arc::new(record.clone())]);
        let order = self.publish_order.lock();
        let (records, version) = self.publish(|state| state.apply_delta(delta, false));
        self.hub.broadcast(version, || records);
        drop(order);
        self.metrics.ingests.fetch_add(1, Ordering::Relaxed);
        Ok((true, 0))
    }

    /// Re-attaches readings to a record whose data is absent here.
    /// Verifies the content digest against the record's identity.
    /// Returns `false` when the data was already present.
    ///
    /// Removal (property 4) is deliberate but not a tombstone: an
    /// archive that still holds the readings re-supplies them.
    ///
    /// Lock order: takes one shard commit lock, then publishes; never
    /// holds more than one shard lock.
    pub fn restore_data(&self, ts: &TupleSet) -> Result<bool> {
        let record = &ts.provenance;
        let _commit = self.sharding.lock_one(self.sharding.shard_of(record.id));
        {
            let state = self.state.read();
            let existing = state.record(record.id).ok_or(PassError::NotFound(record.id))?;
            if existing.content_digest != record.content_digest {
                return Err(PassError::IdentityCollision(record.id));
            }
            if state.readings_present(record.id) {
                return Ok(false);
            }
        }
        if TupleSet::content_digest_of(&ts.readings) != record.content_digest {
            return Err(PassError::Model(ModelError::Invalid(format!(
                "content digest mismatch for {}",
                record.id
            ))));
        }
        let mut data_buf = Vec::with_capacity(ts.readings.len() * 24 + 8);
        ts.readings.encode_into(&mut data_buf);
        let mut batch = WriteBatch::new();
        batch.put(keyspace::key(keyspace::DATA, record.id).to_vec(), data_buf);
        batch.put(keyspace::key(keyspace::MARKER, record.id).to_vec(), vec![1u8]);
        self.store.apply(batch)?;
        self.publish(|state| state.set_data_present(record.id, true));
        Ok(true)
    }

    /// Exports everything this store holds, split into full tuple sets
    /// and records whose data is absent. Deterministically ordered by
    /// id, so equal stores export equal archives.
    pub fn export_archive(&self) -> Result<ArchiveExport> {
        let snapshot = self.snapshot();
        let mut out = ArchiveExport::default();
        for (_, record) in snapshot.state.records() {
            let readings = if snapshot.state.readings_present(record.id) {
                self.get_data(record.id)?
            } else {
                None
            };
            let record = ProvenanceRecord::clone(record);
            match readings {
                Some(readings) => out.tuple_sets.push(TupleSet::new_unchecked(record, readings)),
                None => out.records_only.push(record),
            }
        }
        out.tuple_sets.sort_by_key(|t| t.provenance.id);
        out.records_only.sort_by_key(|r| r.id);
        Ok(out)
    }

    /// Merges another installation's archive into this store (§V:
    /// "merging collections of local PASS installations into single
    /// globally searchable data archives").
    ///
    /// Content-addressed identity makes this a conflict-free, idempotent
    /// set union: re-importing is a no-op, and importing A into B yields
    /// the same record set as importing B into A. Annotations union;
    /// archives that carry readings restore them on records whose data
    /// is absent here.
    pub fn import_archive(&self, archive: &ArchiveExport) -> Result<ImportStats> {
        let mut stats = ImportStats::default();
        // Group commit: every tuple set not yet present lands in one
        // atomic batch; the rest follow the per-record merge path.
        let fresh: Vec<TupleSet> = archive
            .tuple_sets
            .iter()
            .filter(|ts| !self.contains(ts.provenance.id))
            .cloned()
            .collect();
        let fresh_ids: HashSet<TupleSetId> = fresh.iter().map(|ts| ts.provenance.id).collect();
        if !fresh.is_empty() {
            self.ingest_batch(&fresh)?;
            stats.tuple_sets_added = fresh.len();
        }
        for ts in &archive.tuple_sets {
            if fresh_ids.contains(&ts.provenance.id) {
                continue;
            }
            let (_, anns) = self.merge_record(&ts.provenance)?;
            stats.annotations_merged += anns;
            let restored =
                if self.has_data(ts.provenance.id) { false } else { self.restore_data(ts)? };
            if restored {
                stats.data_restored += 1;
            } else if anns == 0 {
                stats.already_present += 1;
            }
        }
        for record in &archive.records_only {
            let (was_new, anns) = self.merge_record(record)?;
            stats.annotations_merged += anns;
            if was_new {
                stats.records_added += 1;
            } else if anns == 0 {
                stats.already_present += 1;
            }
        }
        Ok(stats)
    }

    // -- Query ---------------------------------------------------------

    /// Executes a parsed query against a fresh snapshot (repeatable
    /// reads: concurrent ingests cannot change the result set mid-query).
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        Ok(pass_query::execute(query, &self.snapshot())?)
    }

    /// Parses and executes query text (snapshot semantics as
    /// [`Pass::query`]).
    pub fn query_text(&self, text: &str) -> Result<QueryResult> {
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        Ok(pass_query::execute_text(text, &self.snapshot())?)
    }

    /// Lineage closure of `id` as full records, nearest-first order not
    /// guaranteed (sorted by internal index). Runs against a fresh
    /// snapshot; see [`Snapshot::lineage`] for the repeatable-read form.
    pub fn lineage(
        &self,
        id: TupleSetId,
        direction: pass_index::Direction,
        opts: TraverseOpts,
    ) -> Result<Vec<ProvenanceRecord>> {
        self.snapshot().lineage(id, direction, opts)
    }

    // -- Subscriptions (continuous queries) ------------------------------

    /// Opens a live subscription on `query`: one API for one-shot and
    /// continuous consumption. The returned [`Subscription`] first
    /// drains a *catch-up* phase — exactly the records `query` would
    /// return from [`Pass::query`] at this moment, in the same order —
    /// then emits [`crate::Event::CaughtUp`] and *tails* live commits,
    /// delivering every subsequent matching record exactly once, in
    /// commit order. There is no gap and no duplicate at the handoff:
    /// catch-up covers commit versions ≤ the pinned snapshot's version,
    /// the tail starts at the next version (see [`crate::subscribe`] for
    /// the protocol).
    ///
    /// A `DESCENDANTS OF` lineage scope subscribes to the growing taint
    /// closure (the `WATCH` query form); `ANCESTORS OF` scopes are
    /// rejected — ancestor closures of a fixed root do not grow with new
    /// commits, so a one-shot query answers them.
    ///
    /// `ORDER BY`, `LIMIT`, and `AFTER` shape the catch-up phase exactly
    /// as they shape `execute()`; the tail is always unbounded and in
    /// commit order.
    ///
    /// The tail fires on record **additions** (each record delivered at
    /// most once, keyed by identity). Annotation merges mutate an
    /// existing record and are not replayed — see the
    /// [`crate::subscribe`] module docs for why and what that means for
    /// `ANNOTATION CONTAINS` filters.
    pub fn subscribe(&self, query: &Query) -> Result<Subscription> {
        self.subscribe_with(query, DEFAULT_SUBSCRIPTION_CAPACITY)
    }

    /// [`Pass::subscribe`] with an explicit changelog-queue bound (in
    /// commits). When the consumer falls more than `capacity` commits
    /// behind, the oldest changelogs are discarded and the consumer
    /// receives [`crate::Event::Lagged`] — ingest never blocks on a
    /// stalled subscriber.
    pub fn subscribe_with(&self, query: &Query, capacity: usize) -> Result<Subscription> {
        if let Some(clause) = &query.lineage {
            if clause.direction != pass_index::Direction::Descendants {
                return Err(PassError::Query(pass_query::QueryError::Provider(
                    "SUBSCRIBE supports DESCENDANTS lineage scopes only: the ancestor \
                     closure of a fixed root does not grow with new commits"
                        .to_owned(),
                )));
            }
        }
        let channel = Subscription::make_channel(capacity);
        // Register BEFORE snapshotting: a commit the snapshot misses is
        // then guaranteed to reach the channel (writers publish through
        // the state lock before broadcasting) — the no-gap half of the
        // handoff. The version filter inside the subscription provides
        // the no-duplicate half.
        Subscription::register(&self.hub, &channel);
        let snapshot = self.snapshot();
        let armed =
            (|| -> Result<(std::collections::VecDeque<ProvenanceRecord>, Option<WatchState>)> {
                let catch_up: std::collections::VecDeque<ProvenanceRecord> =
                    snapshot.open_query(query)?.collect();
                let watch = match &query.lineage {
                    Some(clause) => {
                        // Watch membership is filter-independent: seed from
                        // the raw closure, not the filtered catch-up output.
                        let members = snapshot.lineage(
                            clause.root,
                            clause.direction,
                            clause.traverse_opts(),
                        )?;
                        Some(WatchState::init(clause.root, &members, clause))
                    }
                    None => None,
                };
                Ok((catch_up, watch))
            })();
        let (catch_up, watch) = match armed {
            Ok(parts) => parts,
            Err(e) => {
                self.hub.unregister(&channel);
                return Err(e);
            }
        };
        // The subscription outlives the snapshot it was armed from, so
        // it takes its own pin on the same version: storage GC must not
        // reclaim versions the tail consumer may still read through.
        let pin = self.pins.pin(snapshot.version());
        Ok(Subscription::new(
            Arc::clone(&self.hub),
            channel,
            catch_up,
            snapshot.version(),
            query.filter.clone(),
            watch,
            pin,
        ))
    }

    /// Parses and opens a subscription statement: `SUBSCRIBE <query>` or
    /// `WATCH DESCENDANTS OF ts:HEX …` (see the `pass-query` grammar).
    pub fn subscribe_text(&self, text: &str) -> Result<Subscription> {
        let statement = pass_query::parse_subscribe(text).map_err(PassError::Query)?;
        self.subscribe(&statement.query)
    }

    /// Number of live subscriptions (dropped subscribers are swept
    /// lazily, so this may briefly over-count).
    pub fn subscriber_count(&self) -> usize {
        self.hub.subscriber_count()
    }

    // -- Maintenance ---------------------------------------------------

    /// Forces buffered writes to stable storage.
    pub fn flush(&self) -> Result<()> {
        Ok(self.store.flush()?)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> PassStats {
        let state = self.state.read().clone();
        PassStats {
            records: state.record_count,
            data_blobs: state.data_count,
            graph_nodes: state.graph.node_count(),
            graph_edges: state.graph.edge_count(),
            attr_entries: state.attrs.len(),
            index_bytes: state.attrs.size_bytes()
                + state.keywords.size_bytes()
                + state.graph.size_bytes()
                + state.time.size_bytes(),
            ingests: self.metrics.ingests.load(Ordering::Relaxed),
            batches: self.metrics.batches.load(Ordering::Relaxed),
            queries: self.metrics.queries.load(Ordering::Relaxed),
        }
    }

    /// The oldest commit version still pinned by a live snapshot or
    /// subscription, or `None` when nothing is pinned. This is the GC
    /// floor the background maintenance workers consult: tombstones in
    /// SSTables sealed after it are retained by compaction.
    pub fn pin_floor(&self) -> Option<u64> {
        self.pins.floor()
    }

    /// Nudges every background maintenance worker outside its tick
    /// (tests, or a caller that just deleted a lot of data).
    pub fn wake_maintenance(&self) {
        for worker in &self.maintenance {
            worker.wake();
        }
    }

    /// Total background maintenance errors across all shard workers.
    /// Maintenance failure never fails a commit; poll this to surface
    /// trouble.
    pub fn maintenance_errors(&self) -> u64 {
        self.maintenance.iter().map(|w| w.errors()).sum()
    }

    /// Ages cold readings out of local storage: every record created
    /// before `older_than` whose data is still present has its readings
    /// exported and then removed (PASS property 4 — the provenance
    /// record stays and keeps answering queries). The returned
    /// [`AgeReport`] carries the export; feeding it to another
    /// installation's [`Pass::import_archive`] makes aging a *move* into
    /// a long-term archive rather than a loss, and re-importing it here
    /// restores the readings.
    pub fn age_data(&self, older_than: Timestamp) -> Result<AgeReport> {
        let victims: Vec<(TupleSetId, Vec<Reading>)> = {
            let snapshot = self.snapshot();
            let mut cold = Vec::new();
            for (_, record) in snapshot.state.records() {
                if record.created_at < older_than && snapshot.state.readings_present(record.id) {
                    if let Some(readings) = snapshot.get_data(record.id)? {
                        cold.push((record.id, readings));
                    }
                }
            }
            cold
            // Snapshot (and its GC pin) drops here, before the removals
            // below start generating garbage versions.
        };
        let mut export = ArchiveExport::default();
        let mut aged = 0;
        for (id, readings) in victims {
            // Re-check under the commit path: a concurrent remove_data
            // already did the work, and records can never un-exist.
            if self.remove_data(id)? {
                let Some(record) = self.get_record(id) else { continue };
                export.tuple_sets.push(TupleSet::new_unchecked(record, readings));
                aged += 1;
            }
        }
        export.tuple_sets.sort_by_key(|t| t.provenance.id);
        Ok(AgeReport { aged, export })
    }

    /// Spawns a background worker that periodically ages cold readings
    /// (see [`Pass::age_data`]): every `tick` it computes `cutoff()` and
    /// hands the resulting non-empty exports to `sink` — typically an
    /// uplink that ships them to an archive installation. The worker
    /// holds only a weak reference, so it never keeps the store alive;
    /// it idles once the `Pass` drops and stops when the returned handle
    /// drops.
    pub fn spawn_aging(
        self: &Arc<Self>,
        tick: std::time::Duration,
        cutoff: impl Fn() -> Timestamp + Send + 'static,
        mut sink: impl FnMut(ArchiveExport) + Send + 'static,
    ) -> MaintenanceHandle {
        let weak = Arc::downgrade(self);
        spawn_task_worker("pass-aging", tick, move || {
            let Some(pass) = weak.upgrade() else { return };
            // A failed sweep (e.g. storage error mid-removal) is retried
            // on the next tick; aging is idempotent over what remains.
            if let Ok(report) = pass.age_data(cutoff()) {
                if !report.export.is_empty() {
                    sink(report.export);
                }
            }
        })
    }

    /// Audits storage against the invariants (see [`ConsistencyReport`]).
    pub fn verify_consistency(&self) -> Result<ConsistencyReport> {
        let mut report = ConsistencyReport::default();
        let mut record_ids = HashSet::new();
        let mut digests: HashMap<TupleSetId, pass_model::Digest128> = HashMap::new();
        for (key, value) in self.store.scan_prefix(&[keyspace::RECORD])? {
            let Some((_, id)) = keyspace::parse(&key) else { continue };
            report.records += 1;
            record_ids.insert(id);
            match ProvenanceRecord::decode_all(&value) {
                Ok(record) => {
                    if !record.verify_identity() || record.id != id {
                        report.identity_failures.push(id);
                    }
                    digests.insert(id, record.content_digest);
                }
                Err(_) => report.identity_failures.push(id),
            }
        }
        let mut data_ids = HashSet::new();
        for (key, value) in self.store.scan_prefix(&[keyspace::DATA])? {
            let Some((_, id)) = keyspace::parse(&key) else { continue };
            report.data_blobs += 1;
            data_ids.insert(id);
            if !record_ids.contains(&id) {
                report.orphan_data.push(id);
                continue;
            }
            match Vec::<Reading>::decode_all(&value) {
                Ok(readings) => {
                    if digests.get(&id) != Some(&TupleSet::content_digest_of(&readings)) {
                        report.digest_mismatches.push(id);
                    }
                }
                Err(_) => report.digest_mismatches.push(id),
            }
        }
        let mut marker_ids = HashSet::new();
        for (key, _) in self.store.scan_prefix(&[keyspace::MARKER])? {
            if let Some((_, id)) = keyspace::parse(&key) {
                marker_ids.insert(id);
            }
        }
        for id in marker_ids.symmetric_difference(&data_ids) {
            report.marker_mismatches.push(*id);
        }
        Ok(report)
    }
}

/// Operation counters captured at snapshot creation (see
/// [`Snapshot::stats`]).
#[derive(Debug, Clone, Copy)]
struct SnapshotCounters {
    ingests: u64,
    batches: u64,
    queries: u64,
}

/// An immutable view of a [`Pass`] at one version.
///
/// Obtained from [`Pass::snapshot`] (an O(1) `Arc` clone plus one pin
/// registration — see below; reads themselves take no locks). Implements
/// the query [`Provider`] and [`QueryEngine`] traits, so the executor —
/// and any caller — gets repeatable reads: every lookup answers from the
/// same index state no matter how much ingest has happened since, and
/// cursors opened on a snapshot stay valid under concurrent ingest.
/// While it lives, commits share with it every part of the state they do
/// not write; dropping it lets the next write mutate in place again.
///
/// The snapshot carries the full read surface of [`Pass`] — record
/// retrieval, data reads, queries, statistics — so read-only callers
/// never need to fall back to a `&Pass`. One caveat: reading bytes
/// ([`Snapshot::get_data`]) go to shared storage, which is not
/// versioned; [`Snapshot::has_data`] answers from the pinned index
/// state, so after a concurrent [`Pass::remove_data`] the two can
/// briefly disagree.
///
/// While the snapshot lives it also pins its commit version for the
/// storage GC: background compaction will not drop tombstones from
/// SSTables sealed after the oldest pinned version, so the shared
/// storage caveat above never extends to *resurrecting* data the
/// snapshot should not see.
pub struct Snapshot {
    state: Arc<State>,
    store: Arc<dyn KvStore>,
    closure: Arc<Mutex<ClosureCache>>,
    strategy: ClosureStrategy,
    version: u64,
    counters: SnapshotCounters,
    /// Keeps `version` in the GC pin registry until the snapshot drops.
    _pin: PinGuard,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.version)
            .field("records", &self.state.record_count)
            .finish()
    }
}

impl Snapshot {
    /// The store version this snapshot reflects (monotonically increasing
    /// across commits).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of records visible.
    pub fn len(&self) -> usize {
        self.state.record_count
    }

    /// True when no records are visible.
    pub fn is_empty(&self) -> bool {
        self.state.record_count == 0
    }

    /// True when the record is visible in this snapshot.
    pub fn contains(&self, id: TupleSetId) -> bool {
        self.state.record(id).is_some()
    }

    /// The provenance record for `id`, if visible.
    pub fn get_record(&self, id: TupleSetId) -> Option<ProvenanceRecord> {
        self.state.record(id).map(|r| ProvenanceRecord::clone(r))
    }

    /// The readings for `id`: `Ok(None)` when the data was removed (the
    /// record may well still exist — PASS property 4). Reading bytes
    /// come from shared storage, which is not versioned; the index
    /// state this snapshot pins is.
    pub fn get_data(&self, id: TupleSetId) -> Result<Option<Vec<Reading>>> {
        match self.store.get(&keyspace::key(keyspace::DATA, id))? {
            Some(bytes) => Ok(Some(Vec::<Reading>::decode_all(&bytes)?)),
            None => Ok(None),
        }
    }

    /// True when the readings were present at snapshot time.
    pub fn has_data(&self, id: TupleSetId) -> bool {
        self.state.readings_present(id)
    }

    /// Record + readings together, when both exist — the snapshot twin
    /// of [`Pass::get_tuple_set`]. The record comes from the pinned
    /// index state; the readings come from shared storage, which is
    /// *not* versioned. After a concurrent [`Pass::remove_data`] this
    /// returns `Ok(None)` even though [`Snapshot::has_data`] (pinned)
    /// still answers `true` — the same divergence documented on
    /// [`Snapshot::get_data`].
    pub fn get_tuple_set(&self, id: TupleSetId) -> Result<Option<TupleSet>> {
        let Some(record) = self.get_record(id) else {
            return Ok(None);
        };
        let Some(readings) = self.get_data(id)? else {
            return Ok(None);
        };
        Ok(Some(TupleSet::new_unchecked(record, readings)))
    }

    /// Lineage closure of `id` as full records — the snapshot twin of
    /// [`Pass::lineage`], with repeatable reads: the closure is computed
    /// entirely from the pinned index state, so concurrent ingest can
    /// neither grow nor reorder the answer.
    pub fn lineage(
        &self,
        id: TupleSetId,
        direction: pass_index::Direction,
        opts: TraverseOpts,
    ) -> Result<Vec<ProvenanceRecord>> {
        let clause = LineageClause {
            root: id,
            direction,
            max_depth: opts.max_depth,
            stop_at_abstraction: opts.stop_at_abstraction,
            include_root: false,
        };
        let posting = self.lineage_posting(&clause).ok_or(PassError::NotFound(id))?;
        Ok(posting
            .iter()
            .filter_map(|idx| self.state.record_at(idx))
            .map(|r| ProvenanceRecord::clone(r))
            .collect())
    }

    /// All record ids visible in this snapshot (unordered).
    pub fn ids(&self) -> Vec<TupleSetId> {
        self.state.records().map(|(_, r)| r.id).collect()
    }

    /// Store statistics as of this snapshot. Index sizes reflect the
    /// pinned state; the operation counters (`ingests`, `batches`,
    /// `queries`) were captured when the snapshot was taken.
    pub fn stats(&self) -> PassStats {
        let state = &self.state;
        PassStats {
            records: state.record_count,
            data_blobs: state.data_count,
            graph_nodes: state.graph.node_count(),
            graph_edges: state.graph.edge_count(),
            attr_entries: state.attrs.len(),
            index_bytes: state.attrs.size_bytes()
                + state.keywords.size_bytes()
                + state.graph.size_bytes()
                + state.time.size_bytes(),
            ingests: self.counters.ingests,
            batches: self.counters.batches,
            queries: self.counters.queries,
        }
    }

    /// Executes a parsed query against this snapshot.
    pub fn query(&self, query: &Query) -> Result<QueryResult> {
        Ok(pass_query::execute(query, self)?)
    }

    /// Parses and executes query text against this snapshot.
    pub fn query_text(&self, text: &str) -> Result<QueryResult> {
        Ok(pass_query::execute_text(text, self)?)
    }

    fn lineage_posting(&self, clause: &LineageClause) -> Option<PostingList> {
        let root = self.state.graph.lookup(clause.root)?;
        let opts = clause.traverse_opts();
        let graph = &self.state.graph;
        let reach: Vec<NodeIdx> = match self.strategy {
            ClosureStrategy::Bfs => BfsClosure.reachable(graph, root, clause.direction, &opts),
            ClosureStrategy::NaiveJoin => {
                NaiveJoinClosure.reachable(graph, root, clause.direction, &opts)
            }
            ClosureStrategy::Memo | ClosureStrategy::Interval => {
                let mut cache = self.closure.lock();
                let needs_rebuild = cache.version != self.version
                    || !matches!(
                        (&cache.built, self.strategy),
                        (BuiltClosure::Memo(_), ClosureStrategy::Memo)
                            | (BuiltClosure::Interval(_), ClosureStrategy::Interval)
                    );
                if needs_rebuild {
                    cache.built = match self.strategy {
                        ClosureStrategy::Memo => match MemoClosure::build(graph, false) {
                            Ok(m) => BuiltClosure::Memo(m),
                            Err(_) => BuiltClosure::None, // cyclic: fall back below
                        },
                        ClosureStrategy::Interval => match IntervalClosure::build(graph, false) {
                            Ok(i) => BuiltClosure::Interval(i),
                            Err(_) => BuiltClosure::None,
                        },
                        _ => unreachable!("outer match restricts to Memo/Interval"),
                    };
                    cache.version = self.version;
                }
                match &cache.built {
                    BuiltClosure::Memo(m) => m.reachable(graph, root, clause.direction, &opts),
                    BuiltClosure::Interval(i) => i.reachable(graph, root, clause.direction, &opts),
                    BuiltClosure::None => {
                        BfsClosure.reachable(graph, root, clause.direction, &opts)
                    }
                }
            }
        };
        Some(PostingList::from_iter(reach))
    }
}

impl Provider for Snapshot {
    fn eq_lookup(&self, attr: &str, value: &Value) -> PostingList {
        self.state.attrs.eq(attr, value)
    }

    fn range_lookup(&self, attr: &str, low: Bound<&Value>, high: Bound<&Value>) -> PostingList {
        self.state.attrs.range(attr, low, high)
    }

    fn time_overlap(&self, range: TimeRange) -> PostingList {
        self.state.time.overlapping(range)
    }

    fn keyword_lookup(&self, phrase: &str) -> PostingList {
        self.state.keywords.lookup_all(phrase)
    }

    fn has_attr(&self, attr: &str) -> PostingList {
        self.state.attrs.has_attr(attr)
    }

    fn all_nodes(&self) -> PostingList {
        PostingList::from_sorted(self.state.records().map(|(idx, _)| idx).collect())
    }

    fn lineage(&self, clause: &LineageClause) -> Option<PostingList> {
        self.lineage_posting(clause)
    }

    fn node_of(&self, id: TupleSetId) -> Option<NodeIdx> {
        self.state.graph.lookup(id)
    }

    fn fetch(&self, idx: NodeIdx) -> Option<ProvenanceRecord> {
        self.state.record_at(idx).map(|r| ProvenanceRecord::clone(r))
    }

    fn created_key(&self, idx: NodeIdx) -> Option<(Timestamp, TupleSetId)> {
        self.state.record_at(idx).map(|r| (r.created_at, r.id))
    }

    fn created_scan(&self, desc: bool) -> Option<std::sync::Arc<[NodeIdx]>> {
        Some(self.state.created_scan(desc))
    }
}

/// Snapshots open cursors that borrow the snapshot itself — its state is
/// already immutable, so no extra pinning is needed.
impl QueryEngine for Snapshot {
    fn open(&self, prepared: &PreparedQuery) -> pass_query::Result<Cursor<'_>> {
        Cursor::over(self, prepared)
    }
}

/// `Pass` cursors pin their own snapshot at open: the cursor stays
/// valid — and keeps yielding exactly its snapshot's records — while
/// concurrent `ingest_batch` commits proceed.
impl QueryEngine for Pass {
    fn open(&self, prepared: &PreparedQuery) -> pass_query::Result<Cursor<'_>> {
        Cursor::over_owned(Box::new(self.snapshot()), prepared)
    }
}
