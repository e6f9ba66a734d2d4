//! Live subscriptions: snapshot-then-tail continuous queries.
//!
//! A [`Subscription`] makes one-shot and continuous consumption the same
//! API: it is obtained from the same query machinery (`prepare` →
//! subscribe), first drains a **catch-up** phase — a streaming cursor
//! over the snapshot pinned at subscribe time, so its output is
//! byte-identical to `execute()` — and then **tails** live commits,
//! delivering every subsequent matching record exactly once, in commit
//! order.
//!
//! # The handoff invariant
//!
//! The seam between catch-up and tail is where naive designs drop or
//! duplicate records. Here it is closed with the commit version that
//! lives inside the published state:
//!
//! 1. The subscriber **registers its channel first**, then takes a
//!    snapshot at version *V*. Writers publish a new state (assigning
//!    *V+1* under the state write lock) *before* they broadcast, so any
//!    commit the snapshot missed broadcasts to the already-registered
//!    channel — no gap.
//! 2. The tail **filters changelogs with version ≤ V**: a commit that
//!    both made it into the snapshot and reached the channel (the
//!    overlap window) is delivered once, by catch-up — no duplicate.
//! 3. Writers broadcast while still holding the **publish-order lock**
//!    (the short serialized section where the global commit version is
//!    assigned and the new state published), so changelogs arrive in
//!    version order — commit order is preserved. This holds under
//!    sharded multi-writer ingest too: shard-parallel writers overlap
//!    their storage I/O but funnel publish+broadcast through that one
//!    section, so no interleaving can reorder or skip a version in the
//!    stream a subscriber sees. Versions consumed by non-broadcasting
//!    commits (annotation merges, data removal/restore) appear to
//!    subscribers as benign gaps in the tag sequence, exactly as in the
//!    single-lock store.
//!
//! # Flow control
//!
//! Each subscription owns a bounded queue of per-commit changelogs.
//! When a consumer stalls, ingest **never blocks**: the oldest queued
//! changelog is discarded and the consumer receives [`Event::Lagged`]
//! with the number of committed records it missed. A lagged stream is no
//! longer gap-free — re-subscribe to re-synchronize (the fresh catch-up
//! phase is the re-sync).
//!
//! # What the tail delivers: record *additions*
//!
//! A record is delivered at most once, keyed by its content-addressed
//! identity, when the commit that **adds** it matches the subscription.
//! Annotations are the model's one post-hoc mutable field; an
//! [`annotate`](crate::Pass::annotate) or annotation-union merge mutates
//! an *existing* record's searchable text and is deliberately not
//! replayed into tails — re-delivering would break exactly-once, and
//! suppressing re-delivery would require every subscription to remember
//! every id it ever matched. Consequence: a subscription whose filter is
//! `ANNOTATION CONTAINS …` sees records whose annotations matched *when
//! they were added*; text added later is visible to re-queries but does
//! not fire the tail (tested in `subscribe_tests`).
//!
//! With zero subscribers the whole path costs one relaxed atomic load
//! per commit (measured by the `e22_live_notify` bench).
//!
//! # Lineage-aware subscriptions
//!
//! A `DESCENDANTS OF root` scope (the `WATCH` sugar) is evaluated
//! incrementally in the tail: the watched set is seeded from the
//! snapshot's closure and a freshly committed record joins it — and
//! fires — when it derives from any watched node through an eligible
//! edge (respecting `DEPTH <=` and `ABSTRACTED`). Membership is
//! filter-independent: a descendant that fails the `WHERE` filter still
//! propagates the taint to *its* descendants, exactly as a re-query
//! would. The incremental step assumes parents are committed before
//! children (always true for local capture/derive); archives merged out
//! of creation order may connect a subtree retroactively, which the tail
//! does not revisit — re-subscribe to pick those up.

use pass_model::{ProvenanceRecord, TupleSetId};
use pass_query::{LineageClause, Predicate};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Default bound on a subscription's changelog queue, in commits.
pub const DEFAULT_SUBSCRIPTION_CAPACITY: usize = 64;

/// One delivery from a [`Subscription`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A record matched the subscription (catch-up or live tail).
    Match(ProvenanceRecord),
    /// The catch-up phase is complete: every match so far was visible in
    /// the pinned snapshot (commit versions ≤ the carried version);
    /// everything after this event comes from live commits.
    CaughtUp {
        /// The pinned snapshot's commit version.
        version: u64,
    },
    /// The consumer fell behind: `n` committed records were discarded
    /// unexamined rather than blocking ingest. The stream is no longer
    /// gap-free; re-subscribe to re-synchronize.
    Lagged(u64),
}

impl Event {
    /// The matched record, when this is a [`Event::Match`].
    pub fn into_match(self) -> Option<ProvenanceRecord> {
        match self {
            Event::Match(record) => Some(record),
            _ => None,
        }
    }
}

/// One commit's worth of change, built once per commit (only when
/// subscribers exist) and shared by every subscriber behind an `Arc`.
#[derive(Debug)]
pub(crate) struct Changelog {
    /// The commit version the records were published under.
    pub(crate) version: u64,
    /// The records the commit added, in batch order — the same
    /// allocations the published index state holds.
    pub(crate) records: Vec<Arc<ProvenanceRecord>>,
}

struct ChannelState {
    queue: VecDeque<Arc<Changelog>>,
    /// Records discarded by overflow since the consumer last looked.
    dropped: u64,
}

/// The bounded per-subscription queue the commit path pushes into.
pub(crate) struct Channel {
    state: Mutex<ChannelState>,
    readable: Condvar,
    capacity: usize,
}

impl Channel {
    fn new(capacity: usize) -> Channel {
        Channel {
            state: Mutex::new(ChannelState { queue: VecDeque::new(), dropped: 0 }),
            readable: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a changelog, discarding the oldest entry when full —
    /// ingest never blocks on a stalled consumer.
    fn push(&self, log: Arc<Changelog>) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.queue.len() >= self.capacity {
            if let Some(oldest) = state.queue.pop_front() {
                state.dropped += oldest.records.len() as u64;
            }
        }
        state.queue.push_back(log);
        drop(state);
        self.readable.notify_all();
    }

    /// `(lag to report, next changelog)`. Lag is surfaced *before* any
    /// newer changelog so the consumer learns where the hole sits in
    /// stream order.
    fn try_pull(&self) -> (u64, Option<Arc<Changelog>>) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let dropped = std::mem::take(&mut state.dropped);
        if dropped > 0 {
            return (dropped, None);
        }
        (0, state.queue.pop_front())
    }

    /// Blocking [`Channel::try_pull`]: waits until something is
    /// available or `deadline` passes.
    fn pull_until(&self, deadline: Instant) -> (u64, Option<Arc<Changelog>>) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            let dropped = std::mem::take(&mut state.dropped);
            if dropped > 0 {
                return (dropped, None);
            }
            if let Some(log) = state.queue.pop_front() {
                return (0, Some(log));
            }
            let now = Instant::now();
            if now >= deadline {
                return (0, None);
            }
            let (guard, _) = self
                .readable
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }
}

/// The per-store subscriber registry the commit path broadcasts through.
#[derive(Default)]
pub(crate) struct Hub {
    channels: Mutex<Vec<Weak<Channel>>>,
    /// Registered-channel count, kept in step with `channels` so the
    /// zero-subscriber commit path is a single relaxed load. Visibility
    /// to writers is guaranteed by the state lock: a subscriber
    /// registers *before* snapshotting, a writer publishes (through the
    /// same lock) *before* broadcasting, so a commit the snapshot
    /// missed always observes the registration.
    live: AtomicUsize,
}

impl Hub {
    /// Delivers one commit's changelog to every live subscriber.
    /// `records` is only invoked — and the changelog only built — when a
    /// subscriber exists; with none this is one atomic load.
    pub(crate) fn broadcast(
        &self,
        version: u64,
        records: impl FnOnce() -> Vec<Arc<ProvenanceRecord>>,
    ) {
        if self.live.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut channels = self.channels.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if channels.is_empty() {
            self.live.store(0, Ordering::Relaxed);
            return;
        }
        let log = Arc::new(Changelog { version, records: records() });
        channels.retain(|weak| match weak.upgrade() {
            Some(channel) => {
                channel.push(Arc::clone(&log));
                true
            }
            None => false,
        });
        self.live.store(channels.len(), Ordering::Relaxed);
    }

    fn register(&self, channel: &Arc<Channel>) {
        let mut channels = self.channels.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        channels.push(Arc::downgrade(channel));
        self.live.store(channels.len(), Ordering::Relaxed);
    }

    pub(crate) fn unregister(&self, channel: &Arc<Channel>) {
        let target = Arc::downgrade(channel);
        let mut channels = self.channels.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        channels.retain(|weak| !weak.ptr_eq(&target));
        self.live.store(channels.len(), Ordering::Relaxed);
    }

    /// Live subscriber count (for stats and tests).
    pub(crate) fn subscriber_count(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }
}

/// Incremental `DESCENDANTS OF` state for the tail phase.
pub(crate) struct WatchState {
    /// Watched closure members → depth from the root (root = 0).
    depths: HashMap<TupleSetId, u32>,
    max_depth: Option<u32>,
    stop_at_abstraction: bool,
}

impl WatchState {
    /// Seeds the watched set from the snapshot-time closure `members`
    /// (filter-independent — callers pass the raw closure, not the
    /// filtered catch-up output). Depths are recovered from the members'
    /// own ancestry edges, iterating to a fixpoint so archives merged
    /// out of creation order still settle on minimal depths.
    pub(crate) fn init(
        root: TupleSetId,
        members: &[ProvenanceRecord],
        clause: &LineageClause,
    ) -> WatchState {
        let mut watch = WatchState {
            depths: HashMap::from([(root, 0)]),
            max_depth: clause.max_depth,
            stop_at_abstraction: clause.stop_at_abstraction,
        };
        loop {
            let mut changed = false;
            for record in members {
                if let Some(depth) = watch.join_depth(record) {
                    let better = match watch.depths.get(&record.id) {
                        Some(&existing) => depth < existing,
                        None => true,
                    };
                    if better {
                        watch.depths.insert(record.id, depth);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        watch
    }

    /// Depth at which `record` joins the watched closure via its
    /// ancestry, or `None` when no eligible edge reaches a watched
    /// parent within the depth budget.
    fn join_depth(&self, record: &ProvenanceRecord) -> Option<u32> {
        let mut best: Option<u32> = None;
        for derivation in &record.ancestry {
            if self.stop_at_abstraction && derivation.tool.abstracted {
                continue;
            }
            if let Some(&parent_depth) = self.depths.get(&derivation.parent) {
                let depth = parent_depth.saturating_add(1);
                if self.max_depth.is_none_or(|max| depth <= max) {
                    best = Some(best.map_or(depth, |b| b.min(depth)));
                }
            }
        }
        best
    }

    /// Tail admission: true when a freshly committed record joins the
    /// closure (and is therefore a candidate for delivery). Admitted
    /// records extend the watched set so *their* descendants fire too.
    fn admit(&mut self, record: &ProvenanceRecord) -> bool {
        if self.depths.contains_key(&record.id) {
            // Already watched (idempotent re-broadcast): not a new match.
            return false;
        }
        match self.join_depth(record) {
            Some(depth) => {
                self.depths.insert(record.id, depth);
                true
            }
            None => false,
        }
    }
}

/// A live continuous query over a `Pass`: catch-up, then tail.
///
/// Obtained from `Pass::subscribe` / `Pass::subscribe_text` (or the
/// policy layer's guarded variant). Consume with [`Subscription::try_next`]
/// (non-blocking) or [`Subscription::next_timeout`] (bounded blocking);
/// the stream is: zero or more catch-up [`Event::Match`]es (exactly the
/// records `execute()` would have returned at subscribe time, in the
/// same order), one [`Event::CaughtUp`], then live [`Event::Match`]es in
/// commit order — with [`Event::Lagged`] interposed wherever overflow
/// discarded commits.
///
/// Dropping the subscription unregisters it; a dropped subscriber costs
/// writers nothing.
pub struct Subscription {
    hub: Arc<Hub>,
    channel: Arc<Channel>,
    catch_up: VecDeque<ProvenanceRecord>,
    caught_up_sent: bool,
    /// The pinned snapshot's commit version: the tail ignores changelogs
    /// at or below it (they are covered by catch-up).
    from_version: u64,
    filter: Predicate,
    watch: Option<WatchState>,
    /// Matches decoded from absorbed changelogs, not yet delivered.
    pending: VecDeque<ProvenanceRecord>,
    /// Pins `from_version` in the storage-GC registry for the life of
    /// the subscription (see [`crate::pins`]).
    _pin: crate::pins::PinGuard,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("from_version", &self.from_version)
            .field("catch_up_remaining", &self.catch_up.len())
            .finish()
    }
}

impl Subscription {
    pub(crate) fn new(
        hub: Arc<Hub>,
        channel: Arc<Channel>,
        catch_up: VecDeque<ProvenanceRecord>,
        from_version: u64,
        filter: Predicate,
        watch: Option<WatchState>,
        pin: crate::pins::PinGuard,
    ) -> Subscription {
        Subscription {
            hub,
            channel,
            catch_up,
            caught_up_sent: false,
            from_version,
            filter,
            watch,
            pending: VecDeque::new(),
            _pin: pin,
        }
    }

    pub(crate) fn make_channel(capacity: usize) -> Arc<Channel> {
        Arc::new(Channel::new(capacity))
    }

    pub(crate) fn register(hub: &Arc<Hub>, channel: &Arc<Channel>) {
        hub.register(channel);
    }

    /// The commit version the catch-up phase reflects: catch-up covers
    /// versions ≤ this, the tail starts strictly after it.
    pub fn catch_up_version(&self) -> u64 {
        self.from_version
    }

    /// Non-blocking: the next event, if one is ready now.
    pub fn try_next(&mut self) -> Option<Event> {
        if let Some(event) = self.next_buffered() {
            return Some(event);
        }
        loop {
            let (lag, log) = self.channel.try_pull();
            if lag > 0 {
                return Some(Event::Lagged(lag));
            }
            let log = log?;
            self.absorb(&log);
            if let Some(record) = self.pending.pop_front() {
                return Some(Event::Match(record));
            }
        }
    }

    /// Blocking receive with a timeout; `None` means the timeout passed
    /// with nothing to deliver (the subscription stays usable).
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<Event> {
        let deadline = Instant::now() + timeout;
        if let Some(event) = self.next_buffered() {
            return Some(event);
        }
        loop {
            let (lag, log) = self.channel.pull_until(deadline);
            if lag > 0 {
                return Some(Event::Lagged(lag));
            }
            let log = log?; // deadline passed
            self.absorb(&log);
            if let Some(record) = self.pending.pop_front() {
                return Some(Event::Match(record));
            }
        }
    }

    /// Catch-up records, then the one-shot `CaughtUp` marker, then any
    /// already-absorbed tail matches.
    fn next_buffered(&mut self) -> Option<Event> {
        if let Some(record) = self.catch_up.pop_front() {
            return Some(Event::Match(record));
        }
        if !self.caught_up_sent {
            self.caught_up_sent = true;
            return Some(Event::CaughtUp { version: self.from_version });
        }
        self.pending.pop_front().map(Event::Match)
    }

    /// Applies one commit's changelog: skip if the snapshot already
    /// covered it, otherwise admit through the lineage watch (which
    /// grows regardless of the filter) and the filter.
    fn absorb(&mut self, log: &Changelog) {
        if log.version <= self.from_version {
            return;
        }
        for record in &log.records {
            let in_scope = match &mut self.watch {
                Some(watch) => watch.admit(record),
                None => true,
            };
            if in_scope && self.filter.matches(record) {
                self.pending.push_back(ProvenanceRecord::clone(record));
            }
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.hub.unregister(&self.channel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pass_model::{Digest128, ProvenanceBuilder, SiteId, Timestamp, ToolDescriptor};

    fn record(n: u8, parents: &[(TupleSetId, bool)]) -> ProvenanceRecord {
        let mut builder = ProvenanceBuilder::new(SiteId(1), Timestamp(u64::from(n)));
        for (parent, abstracted) in parents {
            let tool = if *abstracted {
                ToolDescriptor::abstracted("t", "1")
            } else {
                ToolDescriptor::new("t", "1")
            };
            builder = builder.derived_from(*parent, tool);
        }
        builder.build(Digest128::of(&[n]))
    }

    fn clause(max_depth: Option<u32>, stop_at_abstraction: bool) -> LineageClause {
        LineageClause {
            root: TupleSetId(0),
            direction: pass_index::Direction::Descendants,
            max_depth,
            stop_at_abstraction,
            include_root: false,
        }
    }

    #[test]
    fn channel_overflow_counts_dropped_records() {
        let channel = Channel::new(2);
        for v in 1..=4u64 {
            channel.push(Arc::new(Changelog {
                version: v,
                records: vec![Arc::new(record(v as u8, &[]))],
            }));
        }
        let (lag, log) = channel.try_pull();
        assert_eq!(lag, 2, "two single-record commits were discarded");
        assert!(log.is_none(), "lag is reported before newer data");
        let (lag, log) = channel.try_pull();
        assert_eq!(lag, 0);
        assert_eq!(log.expect("oldest surviving commit").version, 3);
    }

    #[test]
    fn hub_broadcast_skips_work_with_no_subscribers() {
        let hub = Hub::default();
        let mut built = false;
        hub.broadcast(1, || {
            built = true;
            Vec::new()
        });
        assert!(!built, "changelog must not be built without subscribers");
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn hub_drops_dead_channels() {
        let hub = Hub::default();
        let channel = Arc::new(Channel::new(4));
        hub.register(&channel);
        assert_eq!(hub.subscriber_count(), 1);
        drop(channel);
        hub.broadcast(1, || vec![Arc::new(record(1, &[]))]);
        assert_eq!(hub.subscriber_count(), 0, "dead weak refs are swept on broadcast");
    }

    #[test]
    fn watch_depth_and_abstraction_gate_admission() {
        let root = TupleSetId(7);
        let mut watch = WatchState::init(root, &[], &clause(Some(2), true));

        let child = record(1, &[(root, false)]);
        assert!(watch.admit(&child), "direct descendant joins at depth 1");
        let grandchild = record(2, &[(child.id, false)]);
        assert!(watch.admit(&grandchild), "depth 2 is within the budget");
        let great = record(3, &[(grandchild.id, false)]);
        assert!(!watch.admit(&great), "depth 3 exceeds DEPTH <= 2");

        let abstracted = record(4, &[(child.id, true)]);
        assert!(!watch.admit(&abstracted), "ABSTRACTED stops at the boundary edge");
        let unrelated = record(5, &[(TupleSetId(99), false)]);
        assert!(!watch.admit(&unrelated), "no watched parent, no admission");
        assert!(!watch.admit(&child), "re-admission of a watched id is not a new match");
    }

    #[test]
    fn watch_init_recovers_depths_from_unordered_members() {
        let root = TupleSetId(7);
        let a = record(1, &[(root, false)]);
        let b = record(2, &[(a.id, false)]);
        let c = record(3, &[(b.id, false)]);
        // Members listed deepest-first: the fixpoint pass must still
        // settle a=1, b=2, c=3.
        let watch =
            WatchState::init(root, &[c.clone(), b.clone(), a.clone()], &clause(Some(3), false));
        assert_eq!(watch.depths[&a.id], 1);
        assert_eq!(watch.depths[&b.id], 2);
        assert_eq!(watch.depths[&c.id], 3);
    }
}
