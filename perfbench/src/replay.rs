//! The in-process replay of a workload's op stream against `Pass`,
//! timing the core, query and index layers from outside their public
//! functions.

use crate::gen::WATCHED_GROUP;
use crate::queries::{Class, Deck, Paging, QueryOp};
use crate::served::{
    config, fresh_dir, preload, remove, schedule, Inputs, Opts, Step, Workload, SUBSCRIPTION,
};
use crate::trace::{Span, Tracer};
use pass_core::{Event, Pass};
use pass_index::{Direction, TraverseOpts};
use pass_loadgen::Histogram;
use pass_model::TupleSetId;
use pass_query::QueryEngine;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer timings (histograms in ns) and query counters.
#[derive(Default)]
pub struct Layers {
    pub commit: Histogram,
    pub snapshot: Histogram,
    pub sub_delivery: Histogram,
    pub parse: Histogram,
    pub plan: Histogram,
    pub exec: [Histogram; 6],
    pub scanned: [u64; 6],
    pub fetched: [u64; 6],
    pub returned: [u64; 6],
    pub lineage: Histogram,
    pub closure_sum: u64,
    pub closure_n: u64,
    /// Latency of the headline operation (publishes, or `ANCESTORS` pages
    /// in `lineage_read`), µs, measured like the served run's.
    pub ops: Histogram,
    pub failures: u64,
}

impl Layers {
    fn merge(&mut self, o: &Layers) {
        for (a, b) in [
            (&mut self.commit, &o.commit),
            (&mut self.snapshot, &o.snapshot),
            (&mut self.sub_delivery, &o.sub_delivery),
            (&mut self.parse, &o.parse),
            (&mut self.plan, &o.plan),
            (&mut self.lineage, &o.lineage),
            (&mut self.ops, &o.ops),
        ] {
            a.merge(b);
        }
        for c in 0..6 {
            self.exec[c].merge(&o.exec[c]);
            self.scanned[c] += o.scanned[c];
            self.fetched[c] += o.fetched[c];
            self.returned[c] += o.returned[c];
        }
        self.closure_sum += o.closure_sum;
        self.closure_n += o.closure_n;
        self.failures += o.failures;
    }
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

fn us(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_micros() as u64
}

/// A root span whose id is known before its children are recorded.
fn root(tracer: &Tracer, name: String, start: Instant, end: Instant, id: u64, op: u64) {
    tracer.push(Span { name, start: tracer.ns(start), end: tracer.ns(end), id, parent: 0, op });
}

/// Replays the workload in-process against a fresh store built the same
/// way the served run's was.
pub fn replay(opts: &Opts, tracer: &Arc<Tracer>) -> Result<Layers, String> {
    let dir = opts.root.join("replay");
    fresh_dir(&dir)?;
    let inputs = Inputs::generate(opts);
    let pass = Pass::open(config(&dir)).map_err(|e| format!("replay open: {e}"))?;
    let mut layers = Layers::default();
    for (a, b) in preload(&pass, inputs.preload_sets())? {
        // Only `lineage_read` commits nothing but its preload.
        let name = if opts.workload == Workload::LineageRead {
            layers.commit.record(ns(a, b));
            "core.commit"
        } else {
            "setup.preload_commit"
        };
        tracer.record(name, a, b, 0, 0);
    }
    match opts.workload {
        Workload::Ingest | Workload::Mixed => {
            open_replay(opts, &pass, &inputs, tracer, &mut layers)?
        }
        Workload::LineageRead => {
            let Inputs::Lineage(pipe) = &inputs else { unreachable!("lineage inputs") };
            let end = Instant::now() + opts.window();
            let parts: Vec<Layers> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..crate::served::CLIENTS as u64)
                    .map(|c| {
                        let pass = &pass;
                        scope.spawn(move || {
                            let mut layers = Layers::default();
                            let mut deck = Deck::new(crate::gen::Rng::new(opts.seed, 1_000 + c));
                            let mut op = c << 32;
                            while Instant::now() < end {
                                let q = deck.deal(pipe);
                                run_query_op(pass, &q, tracer, &mut op, &mut layers);
                            }
                            layers
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("replay client panicked")).collect()
            });
            for part in &parts {
                layers.merge(part);
            }
        }
    }
    drop(pass);
    remove(&dir)?;
    Ok(layers)
}

/// Runs one query operation (every page of it) the way the server
/// would: snapshot, parse, plan, execute.
fn run_query_op(pass: &Pass, q: &QueryOp, tracer: &Tracer, op: &mut u64, layers: &mut Layers) {
    let mut paging = Paging::default();
    let mut after = None;
    loop {
        *op += 1;
        let id = tracer.fresh_id();
        let start = Instant::now();
        let ids = exec_page(pass, q, after, tracer, id, *op, layers);
        let end = Instant::now();
        root(tracer, format!("replay.query.{}", q.class.name()), start, end, id, *op);
        if q.class == Class::Lineage {
            layers.ops.record(us(start, end));
        }
        let Some(ids) = ids else {
            layers.failures += 1;
            return;
        };
        if q.class != Class::Paging {
            if !q.expect.check(&ids, q.limit as usize) {
                layers.failures += 1;
            }
            return;
        }
        let done = (ids.len() as u64) < q.limit;
        after = paging.push(&ids);
        if done || after.is_none() {
            if !paging.complete(&q.expect) {
                layers.failures += 1;
            }
            return;
        }
    }
}

/// One page; `None` when the query fails.
fn exec_page(
    pass: &Pass,
    q: &QueryOp,
    after: Option<TupleSetId>,
    tracer: &Tracer,
    parent: u64,
    op: u64,
    layers: &mut Layers,
) -> Option<Vec<TupleSetId>> {
    let t0 = Instant::now();
    let snap = pass.snapshot();
    let t1 = Instant::now();
    let mut query = pass_query::parse(&q.text).ok()?;
    let t2 = Instant::now();
    query.limit = Some(q.limit as usize);
    if after.is_some() {
        query.after = after;
    }
    let prepared = pass_query::prepare(&query);
    let t3 = Instant::now();
    let mut cursor = snap.open(&prepared).ok()?;
    let ids: Vec<TupleSetId> = cursor.by_ref().map(|r| r.id).collect();
    let stats = cursor.stats().clone();
    drop(cursor);
    let t4 = Instant::now();
    let c = q.class.index();
    layers.snapshot.record(ns(t0, t1));
    layers.parse.record(ns(t1, t2));
    layers.plan.record(ns(t2, t3));
    layers.exec[c].record(ns(t3, t4));
    layers.scanned[c] += stats.candidates_scanned as u64;
    layers.fetched[c] += stats.fetched as u64;
    layers.returned[c] += stats.returned as u64;
    tracer.record("core.snapshot", t0, t1, parent, op);
    tracer.record("query.parse", t1, t2, parent, op);
    tracer.record("query.plan", t2, t3, parent, op);
    tracer.record("query.exec", t3, t4, parent, op);
    if let Some(clause) = &query.lineage {
        let opts = TraverseOpts { max_depth: clause.max_depth, stop_at_abstraction: false };
        let t5 = Instant::now();
        let closure = snap.lineage(clause.root, Direction::Ancestors, opts).ok()?;
        let t6 = Instant::now();
        layers.lineage.record(ns(t5, t6));
        layers.closure_sum += closure.len() as u64;
        layers.closure_n += 1;
        tracer.record("index.lineage", t5, t6, parent, op);
    }
    Some(ids)
}

/// `ingest` and `mixed`: the open-loop schedule, with publishes and
/// queries on their own threads (as on their own connections) and, in
/// `mixed`, a subscriber thread.
fn open_replay(
    opts: &Opts,
    pass: &Pass,
    inputs: &Inputs,
    tracer: &Tracer,
    layers: &mut Layers,
) -> Result<(), String> {
    let plan = schedule(opts, inputs);
    let mut sub = None;
    if opts.workload == Workload::Mixed {
        let mut s = pass.subscribe_text(SUBSCRIPTION).map_err(|e| format!("subscribe: {e}"))?;
        loop {
            match s.next_timeout(Duration::from_secs(30)) {
                Some(Event::CaughtUp { .. }) => break,
                Some(_) => {}
                None => return Err("replay subscription never caught up".into()),
            }
        }
        sub = Some(s);
    }
    let start = Instant::now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    let wait = |due: Duration| {
        let at = start + due;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        at
    };
    let (pub_layers, committed, query_layers, received) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            let mut l = Layers::default();
            let mut committed: Vec<(TupleSetId, u64, u64, Instant)> = Vec::new();
            for (i, step) in plan.iter().enumerate() {
                let Step::Publish { sets, info } = &step.step else { continue };
                let op = i as u64 + 1;
                let due = wait(step.due);
                let id = tracer.fresh_id();
                let t0 = Instant::now();
                let ok = pass.ingest_batch(sets).is_ok();
                let t1 = Instant::now();
                l.commit.record(ns(t0, t1));
                tracer.record("core.commit", t0, t1, id, op);
                if !ok {
                    l.failures += 1;
                }
                for set in info.iter().filter(|s| s.group == WATCHED_GROUP) {
                    committed.push((set.id, op, id, t1));
                }
                if opts.workload == Workload::Ingest && op.is_multiple_of(16) {
                    // Probe between commits: no reader overlaps a commit.
                    let t2 = Instant::now();
                    drop(pass.snapshot());
                    let t3 = Instant::now();
                    l.snapshot.record(ns(t2, t3));
                    tracer.record("core.snapshot", t2, t3, id, op);
                }
                let end = Instant::now();
                root(tracer, "replay.publish".into(), due, end, id, op);
                // From the call, like the served headline from its send.
                l.ops.record(us(t0, end));
            }
            stop.store(true, Ordering::Release);
            (l, committed)
        });
        let querier = scope.spawn(|| {
            let mut l = Layers::default();
            for (i, step) in plan.iter().enumerate() {
                let Step::Query(q) = &step.step else { continue };
                let mut op = i as u64;
                wait(step.due);
                run_query_op(pass, q, tracer, &mut op, &mut l);
            }
            l
        });
        let subscriber = scope.spawn(|| {
            let mut received: Vec<(TupleSetId, Instant)> = Vec::new();
            let Some(mut s) = sub else { return received };
            let mut idle_after_stop = 0;
            while idle_after_stop < 10 {
                match s.next_timeout(Duration::from_millis(50)) {
                    Some(Event::Match(record)) => received.push((record.id, Instant::now())),
                    Some(_) => {}
                    None if stop.load(Ordering::Acquire) => idle_after_stop += 1,
                    None => {}
                }
            }
            received
        });
        let (pl, committed) = publisher.join().expect("replay publisher panicked");
        let ql = querier.join().expect("replay querier panicked");
        let received = subscriber.join().expect("replay subscriber panicked");
        (pl, committed, ql, received)
    });
    layers.merge(&pub_layers);
    layers.merge(&query_layers);
    if opts.workload == Workload::Mixed {
        let got: HashMap<TupleSetId, Instant> = received.into_iter().collect();
        for (id, op, parent, returned) in committed {
            match got.get(&id) {
                Some(&at) => {
                    layers.sub_delivery.record(ns(returned, at));
                    tracer.record("core.sub_delivery", returned.min(at), at, parent, op);
                }
                None => layers.failures += 1,
            }
        }
    }
    Ok(())
}
