//! The served workloads: set-up of a disk-backed `Pass` behind a real
//! `pass-server`, the measured window, and the output checks.

use crate::gen::{Pipeline, Rng, SetInfo, Stream, WATCHED_GROUP};
use crate::net::{open_loop, Planned, Wire};
use crate::queries::{mixed_query, Class, Deck, Paging, QueryOp};
use crate::sys;
use crate::trace::{TimingKv, Tracer};
use pass_core::{Pass, PassConfig};
use pass_distrib::wire::{StatsBody, WireMsg};
use pass_loadgen::{poisson_offsets, Histogram};
use pass_model::{SiteId, TupleSet, TupleSetId};
use pass_server::frame::encode_msg;
use pass_server::{serve, ServerConfig, ServerHandle};
use pass_storage::{
    spawn_engine_worker, EngineOptions, KvStore, LsmEngine, MaintenanceHandle, MaintenanceOptions,
};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    Mixed,
    LineageRead,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "mixed" => Some(Workload::Mixed),
            "lineage_read" => Some(Workload::LineageRead),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Mixed => "mixed",
            Workload::LineageRead => "lineage_read",
        }
    }
}

/// Open-loop publish rate of `ingest`, per second.
pub const INGEST_RATE: f64 = 1_000.0;
/// `mixed` publish rate on connection A, per second.
pub const MIXED_PUBLISH_RATE: f64 = 45.0;
/// `mixed` query-page rate on connection B, per second.
pub const MIXED_QUERY_RATE: f64 = 30.0;
/// Sets per `ingest` publish (4 readings each).
pub const SETS_PER_PUBLISH: usize = 4;
/// Sets per `mixed` publish.
pub const MIXED_SETS_PER_PUBLISH: usize = 12;
/// Sets per preload commit.
pub const PRELOAD_BATCH: usize = 512;
/// Closed-loop clients in `lineage_read`, one per connection.
pub const CLIENTS: usize = 2;
/// Time after the window for straggler replies.
pub const DRAIN: Duration = Duration::from_secs(5);
/// The `mixed` subscription's op id.
const SUB_OP: u64 = 1 << 40;
pub const SUBSCRIPTION: &str = "SUBSCRIBE FIND WHERE group = 3";
/// Distinct `sensor` values in the publish streams.
const STREAM_SENSORS: i64 = 64;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Small preloads for the self-test.
    pub tiny: bool,
    /// Where store directories and span files go.
    pub root: PathBuf,
}

impl Opts {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn preload(&self) -> usize {
        match (self.workload, self.tiny) {
            (Workload::Ingest, _) => 0,
            (Workload::Mixed, false) => 20_000,
            (Workload::Mixed, true) => 2_000,
            (Workload::LineageRead, false) => 100_000,
            (Workload::LineageRead, true) => 3_000,
        }
    }

    pub fn connections(&self) -> usize {
        match self.workload {
            Workload::Ingest => 1,
            Workload::Mixed | Workload::LineageRead => 2,
        }
    }
}

/// The store every workload runs against: disk, one shard, background
/// maintenance, default engine options (4 MiB memtable, WAL fsync on
/// every commit, no block cache).
pub fn config(dir: &Path) -> PassConfig {
    PassConfig::disk(SiteId(1), dir).with_maintenance()
}

/// Generated state a workload starts from.
pub enum Inputs {
    Ingest,
    Mixed { sets: Vec<TupleSet>, info: Vec<SetInfo> },
    Lineage(Pipeline),
}

impl Inputs {
    pub fn generate(opts: &Opts) -> Inputs {
        match opts.workload {
            Workload::Ingest => Inputs::Ingest,
            Workload::Mixed => {
                let (sets, info) = Stream::new(opts.seed, 0, STREAM_SENSORS).batch(opts.preload());
                Inputs::Mixed { sets, info }
            }
            Workload::LineageRead => Inputs::Lineage(Pipeline::build(
                opts.seed,
                opts.preload(),
                crate::gen::PIPELINE_SENSORS,
            )),
        }
    }

    pub fn preload_sets(&self) -> &[TupleSet] {
        match self {
            Inputs::Ingest => &[],
            Inputs::Mixed { sets, .. } => sets,
            Inputs::Lineage(p) => &p.sets,
        }
    }

    /// Frees the preload's readings once ingested; the expectations keep
    /// only ids and attributes.
    pub fn drop_sets(&mut self) {
        match self {
            Inputs::Ingest => {}
            Inputs::Mixed { sets, .. } => *sets = Vec::new(),
            Inputs::Lineage(p) => p.sets = Vec::new(),
        }
    }

    pub fn preload_ids(&self) -> Vec<TupleSetId> {
        let info = match self {
            Inputs::Ingest => return Vec::new(),
            Inputs::Mixed { info, .. } => info,
            Inputs::Lineage(p) => &p.info,
        };
        info.iter().map(|i| i.id).collect()
    }
}

pub enum Step {
    Publish { sets: Vec<TupleSet>, info: Vec<SetInfo> },
    Query(QueryOp),
}

/// One open-loop request; op id = index in the schedule + 1.
pub struct Scheduled {
    pub due: Duration,
    pub conn: usize,
    pub step: Step,
}

/// The open-loop schedule of `ingest` and `mixed` (empty for the
/// closed-loop `lineage_read`): Poisson publishes on connection 0 and,
/// in `mixed`, Poisson query pages on connection 1, merged by due time.
pub fn schedule(opts: &Opts, inputs: &Inputs) -> Vec<Scheduled> {
    let (rate, per_publish, queries) = match (opts.workload, inputs) {
        (Workload::Ingest, _) => (INGEST_RATE, SETS_PER_PUBLISH, None),
        (Workload::Mixed, Inputs::Mixed { info, .. }) => {
            (MIXED_PUBLISH_RATE, MIXED_SETS_PER_PUBLISH, Some((MIXED_QUERY_RATE, info)))
        }
        _ => return Vec::new(),
    };
    let mut stream = Stream::new(opts.seed, 1, STREAM_SENSORS);
    let mut out: Vec<Scheduled> = poisson_offsets(rate, opts.window(), opts.seed ^ 0xA11CE)
        .into_iter()
        .map(|due| {
            let (sets, info) = stream.batch(per_publish);
            Scheduled { due, conn: 0, step: Step::Publish { sets, info } }
        })
        .collect();
    if let Some((qrate, preload)) = queries {
        let mut rng = Rng::new(opts.seed, 0xB0B);
        let offsets = poisson_offsets(qrate, opts.window(), opts.seed ^ 0xB0B);
        out.extend(offsets.into_iter().enumerate().map(|(k, due)| Scheduled {
            due,
            conn: 1,
            step: Step::Query(mixed_query(&mut rng, preload, k as u64)),
        }));
        out.sort_by_key(|s| s.due);
    }
    out
}

/// Ingests the preload in commits of [`PRELOAD_BATCH`] sets; returns
/// each commit's start and end.
pub fn preload(pass: &Pass, sets: &[TupleSet]) -> Result<Vec<(Instant, Instant)>, String> {
    let mut commits = Vec::with_capacity(sets.len() / PRELOAD_BATCH + 1);
    for chunk in sets.chunks(PRELOAD_BATCH) {
        let t0 = Instant::now();
        pass.ingest_batch(chunk).map_err(|e| format!("preload commit: {e}"))?;
        commits.push((t0, Instant::now()));
    }
    Ok(commits)
}

/// The traced store: an `LsmEngine` the benchmark opens itself, behind
/// the timing wrapper, with its own maintenance worker.
pub struct TracedStore {
    pub engine: Arc<LsmEngine>,
    pub timing: Arc<TimingKv>,
    _maintenance: MaintenanceHandle,
}

/// A served store, ready for its window.
pub struct Setup {
    pub dir: PathBuf,
    pub inputs: Inputs,
    pub plan: Vec<Scheduled>,
    pub frames: Vec<Planned>,
    pub pass: Arc<Pass>,
    pub server: ServerHandle,
    pub wires: Vec<Wire>,
    pub catch_up: Vec<TupleSetId>,
    pub reopen_s: f64,
    pub setup_s: f64,
    pub traced: Option<TracedStore>,
}

/// Start → ready for the first scheduled request: input generation,
/// preload ingest, reopen, server start, connects, and (in `mixed`) the
/// subscription's catch-up.
pub fn setup(opts: &Opts, dir: PathBuf, tracer: Option<&Arc<Tracer>>) -> Result<Setup, String> {
    let t0 = Instant::now();
    fresh_dir(&dir)?;
    let mut inputs = Inputs::generate(opts);
    if !inputs.preload_sets().is_empty() {
        let pass = Pass::open(config(&dir)).map_err(|e| format!("open: {e}"))?;
        preload(&pass, inputs.preload_sets())?;
        inputs.drop_sets();
    }
    let mut plan = schedule(opts, &inputs);
    // Only the encoded frames are sent; the sets themselves are dropped
    // so the load generator's memory does not inflate `rss_peak_mb`.
    let frames = plan
        .iter_mut()
        .enumerate()
        .map(|(i, s)| {
            let op = i as u64 + 1;
            let msg = match &mut s.step {
                Step::Publish { sets, .. } => WireMsg::Publish { op, sets: std::mem::take(sets) },
                Step::Query(q) => {
                    WireMsg::QueryPage { op, query: q.text.clone(), after: None, limit: q.limit }
                }
            };
            Planned { due: s.due, conn: s.conn, frame: encode_msg(&msg) }
        })
        .collect();

    let reopen = Instant::now();
    let (pass, traced) = match tracer {
        None => (Pass::open(config(&dir)).map_err(|e| format!("reopen: {e}"))?, None),
        Some(tracer) => {
            let engine = Arc::new(
                LsmEngine::open(dir.clone(), EngineOptions::default())
                    .map_err(|e| format!("engine open: {e}"))?,
            );
            let timing = Arc::new(TimingKv::new(Arc::clone(&engine), Arc::clone(tracer)));
            let maintenance =
                spawn_engine_worker(Arc::clone(&engine), MaintenanceOptions::default());
            let store: Arc<dyn KvStore> = timing.clone();
            let pass =
                Pass::open_with_store(store, config(&dir)).map_err(|e| format!("reopen: {e}"))?;
            (pass, Some(TracedStore { engine, timing, _maintenance: maintenance }))
        }
    };
    let reopen_s = reopen.elapsed().as_secs_f64();
    let pass = Arc::new(pass);
    let server = serve("127.0.0.1:0", Arc::clone(&pass), ServerConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let mut wires = Vec::new();
    for _ in 0..opts.connections() {
        wires.push(Wire::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    let mut catch_up = Vec::new();
    if opts.workload == Workload::Mixed {
        let sub = &mut wires[1];
        sub.send(&WireMsg::Subscribe { op: SUB_OP, statement: SUBSCRIPTION.into() })
            .map_err(|e| format!("subscribe: {e}"))?;
        loop {
            match sub.recv(Duration::from_secs(30)).map_err(|e| format!("catch-up: {e}"))? {
                WireMsg::Notify { ids, .. } => catch_up.extend(ids),
                WireMsg::SubCaughtUp { .. } => break,
                other => return Err(format!("catch-up: unexpected frame {other:?}")),
            }
        }
    }
    Ok(Setup {
        dir,
        inputs,
        plan,
        frames,
        pass,
        server,
        wires,
        catch_up,
        reopen_s,
        setup_s: t0.elapsed().as_secs_f64(),
        traced,
    })
}

/// One answered request, for spans and overhead numbers.
pub struct OpRecord {
    pub op: u64,
    pub name: &'static str,
    /// Scheduled instant (open loop) or send instant (closed loop).
    pub start: Instant,
    pub sent: Instant,
    pub end: Instant,
}

/// Raw latencies in ns, for exact quantiles at full resolution.
#[derive(Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn record(&mut self, latency: Duration) {
        self.0.push(latency.as_nanos() as u64);
    }

    pub fn count(&self) -> u64 {
        self.0.len() as u64
    }

    /// Nearest-rank quantile, in ms (0 when empty).
    pub fn ms(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
        v.get(rank - 1).map_or(0.0, |&ns| ns as f64 / 1e6)
    }
}

/// What one measured window observed and checked.
#[derive(Default)]
pub struct Outcome {
    pub window_s: f64,
    pub publish: Histogram,
    pub query: Histogram,
    pub notify: Histogram,
    /// Latency of the headline operation from its actual send:
    /// publishes in `ingest` and `mixed`, `ANCESTORS` pages in
    /// `lineage_read`.
    pub primary: Samples,
    pub class: [Histogram; 6],
    pub send_late: Histogram,
    pub attempted: u64,
    pub errors: u64,
    pub overloaded: u64,
    pub unanswered: u64,
    pub checks_failed: u64,
    pub lagged_ids: u64,
    pub committed: u64,
    pub acked: Vec<TupleSetId>,
    pub user_bytes: u64,
    pub stats_before: StatsBody,
    pub stats_after: StatsBody,
    pub write_bytes: u64,
    pub ops: Vec<OpRecord>,
    /// Request frames and reply messages, kept only when tracing.
    pub requests: Vec<Vec<u8>>,
    pub replies: Vec<WireMsg>,
    /// Concatenated keyset pages per paging query text.
    pub paged: Vec<(String, Vec<TupleSetId>)>,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Operations that failed: error and shed replies, unanswered
    /// requests, failed checks and subscription ids lost to `Lagged`.
    pub fn failed(&self) -> u64 {
        self.errors + self.overloaded + self.unanswered + self.checks_failed + self.lagged_ids
    }

    fn fail(&mut self, what: String) {
        self.checks_failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Runs the measured window on a set-up store.
pub fn window(opts: &Opts, s: &mut Setup, keep_frames: bool) -> Result<Outcome, String> {
    let mut out = Outcome { window_s: opts.seconds, ..Outcome::default() };
    out.stats_before = s.server.stats();
    let writes_before = sys::write_bytes();
    match opts.workload {
        Workload::Ingest | Workload::Mixed => open_window(opts, s, &mut out, keep_frames)?,
        Workload::LineageRead => closed_window(opts, s, &mut out, keep_frames)?,
    }
    out.write_bytes = sys::write_bytes().saturating_sub(writes_before);
    out.stats_after = s.server.stats();
    Ok(out)
}

fn open_window(opts: &Opts, s: &mut Setup, out: &mut Outcome, keep: bool) -> Result<(), String> {
    // Ids the subscription must deliver live, and which op carried each.
    let mut carrier: HashMap<TupleSetId, usize> = HashMap::new();
    if opts.workload == Workload::Mixed {
        for (i, step) in s.plan.iter().enumerate() {
            if let Step::Publish { info, .. } = &step.step {
                for set in info.iter().filter(|set| set.group == WATCHED_GROUP) {
                    carrier.insert(set.id, i);
                }
            }
        }
        let mut want: Vec<TupleSetId> = match &s.inputs {
            Inputs::Mixed { info, .. } => {
                info.iter().filter(|i| i.group == WATCHED_GROUP).map(|i| i.id).collect()
            }
            _ => Vec::new(),
        };
        let mut got = s.catch_up.clone();
        want.sort();
        got.sort();
        if got != want {
            out.fail(format!("catch-up delivered {} ids, expected {}", got.len(), want.len()));
        }
    }
    let run = open_loop(&mut s.wires, &s.frames, opts.window(), DRAIN, carrier.len())
        .map_err(|e| format!("open loop: {e}"))?;
    out.attempted = s.plan.len() as u64;
    out.errors += run.transport_errors;
    let mut answered: HashSet<TupleSetId> = HashSet::new();
    for (i, step) in s.plan.iter().enumerate() {
        let due = run.start + step.due;
        let Some(sent) = run.sent[i] else {
            out.unanswered += 1;
            continue;
        };
        out.send_late.record(micros(sent.saturating_duration_since(due)));
        let Some((at, reply)) = &run.replies[i] else {
            out.unanswered += 1;
            continue;
        };
        let lat = micros(at.saturating_duration_since(due));
        let name = match (&step.step, reply) {
            (Step::Publish { info, .. }, WireMsg::PublishOk { ids, .. }) => {
                if ids.iter().ne(info.iter().map(|i| &i.id)) {
                    out.fail(format!("op {}: PublishOk ids differ from the generator's", i + 1));
                } else {
                    out.committed += 1;
                    out.publish.record(lat);
                    out.primary.record(at.saturating_duration_since(sent));
                    out.acked.extend_from_slice(ids);
                    answered.extend(ids.iter().copied());
                    out.user_bytes += s.frames[i].frame.len() as u64;
                }
                "client.publish"
            }
            (Step::Query(q), WireMsg::ResultPage { ids, .. }) => {
                if !q.expect.check(ids, q.limit as usize) {
                    out.fail(format!("op {}: `{}` returned a wrong page", i + 1, q.text));
                } else {
                    out.query.record(lat);
                    out.class[q.class.index()].record(lat);
                }
                "client.query"
            }
            (_, WireMsg::Overloaded { .. }) => {
                out.overloaded += 1;
                continue;
            }
            (_, WireMsg::Error { message, .. }) => {
                out.errors += 1;
                if out.failures.len() < 10 {
                    out.failures.push(format!("op {}: error reply: {message}", i + 1));
                }
                continue;
            }
            (_, other) => {
                out.fail(format!("op {}: unexpected reply {other:?}", i + 1));
                continue;
            }
        };
        out.ops.push(OpRecord { op: i as u64 + 1, name, start: due, sent, end: *at });
        if keep {
            out.requests.push(s.frames[i].frame.clone());
            out.replies.push(reply.clone());
        }
    }
    if opts.workload == Workload::Mixed {
        out.lagged_ids = run.lagged;
        let mut seen: HashSet<TupleSetId> = HashSet::new();
        for (at, ids) in &run.notifies {
            for id in ids {
                match carrier.get(id) {
                    Some(&i) if seen.insert(*id) => {
                        out.notify.record(micros(
                            at.saturating_duration_since(run.start + s.plan[i].due),
                        ));
                    }
                    Some(_) => out.fail(format!("subscription delivered {id:?} twice")),
                    None => out.fail(format!("subscription delivered unexpected {id:?}")),
                }
            }
        }
        let missing =
            carrier.keys().filter(|id| answered.contains(id) && !seen.contains(id)).count();
        if missing as u64 > run.lagged {
            out.fail(format!("subscription missed {missing} acknowledged ids"));
        }
    }
    Ok(())
}

/// One closed-loop client's view of its pages.
#[derive(Default)]
struct ClientLog {
    pages: Vec<(Class, Instant, Instant, bool, u64)>,
    gaps: Vec<u64>,
    errors: u64,
    checks_failed: u64,
    failures: Vec<String>,
    requests: Vec<Vec<u8>>,
    replies: Vec<WireMsg>,
    paged: Vec<(String, Vec<TupleSetId>)>,
}

fn closed_window(opts: &Opts, s: &mut Setup, out: &mut Outcome, keep: bool) -> Result<(), String> {
    let Inputs::Lineage(pipe) = &s.inputs else {
        return Err("lineage_read needs the pipeline preload".into());
    };
    let start = Instant::now();
    let end = start + opts.window();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .wires
            .iter_mut()
            .enumerate()
            .map(|(c, wire)| {
                scope.spawn(move || closed_client(wire, pipe, opts.seed, c as u64, end, keep))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    out.window_s = start.elapsed().as_secs_f64();
    for log in logs {
        out.errors += log.errors;
        out.checks_failed += log.checks_failed;
        out.failures.extend(log.failures);
        for gap in log.gaps {
            out.send_late.record(gap);
        }
        for (class, sent, recv, ok, op) in log.pages {
            out.attempted += 1;
            if !ok {
                out.checks_failed += 1;
                continue;
            }
            let lat = micros(recv - sent);
            out.query.record(lat);
            if class == Class::Lineage {
                out.primary.record(recv - sent);
            }
            out.class[class.index()].record(lat);
            out.ops.push(OpRecord { op, name: class_span(class), start: sent, sent, end: recv });
        }
        out.requests.extend(log.requests);
        out.replies.extend(log.replies);
        out.paged.extend(log.paged);
    }
    out.attempted += out.errors;
    // Concatenated keyset pages must equal the unpaged result.
    let snap = s.pass.snapshot();
    let mut unpaged: HashMap<String, Vec<TupleSetId>> = HashMap::new();
    for (text, ids) in &out.paged {
        if !unpaged.contains_key(text) {
            let all = snap.query_text(text).map_err(|e| format!("unpaged `{text}`: {e}"))?;
            unpaged.insert(text.clone(), all.ids());
        }
        if unpaged[text] != *ids {
            out.checks_failed += 1;
            out.failures.push(format!("keyset pages of `{text}` differ from the unpaged result"));
        }
    }
    Ok(())
}

fn class_span(class: Class) -> &'static str {
    match class {
        Class::Point => "client.query.point",
        Class::Range => "client.query.range",
        Class::Latest => "client.query.latest",
        Class::Lineage => "client.query.lineage",
        Class::Window => "client.query.window",
        Class::Paging => "client.query.paging",
    }
}

fn closed_client(
    wire: &mut Wire,
    pipe: &Pipeline,
    seed: u64,
    client: u64,
    end: Instant,
    keep: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut deck = Deck::new(Rng::new(seed, 1_000 + client));
    let mut op = client << 32;
    let mut last_reply: Option<Instant> = None;
    while Instant::now() < end {
        let q = deck.deal(pipe);
        let mut paging = Paging::default();
        let mut after = None;
        loop {
            op += 1;
            let msg = WireMsg::QueryPage { op, query: q.text.clone(), after, limit: q.limit };
            let frame = encode_msg(&msg);
            let reply = wire.request(&frame, op, Duration::from_secs(30));
            let (sent, recv, reply) = match reply {
                Ok(r) => r,
                Err(e) => {
                    log.errors += 1;
                    log.failures.push(format!("client {client}: {e}"));
                    return log;
                }
            };
            if let Some(prev) = last_reply {
                log.gaps.push(micros(sent.saturating_duration_since(prev)));
            }
            last_reply = Some(recv);
            let (ok, next) = match &reply {
                WireMsg::ResultPage { ids, done, .. } if q.class == Class::Paging => {
                    let after = paging.push(ids);
                    (true, (!done).then_some(after).flatten())
                }
                WireMsg::ResultPage { ids, .. } => (q.expect.check(ids, q.limit as usize), None),
                _ => (false, None),
            };
            if !ok && log.failures.len() < 10 {
                log.failures.push(format!("`{}` returned a wrong page: {reply:?}", q.text));
            }
            log.pages.push((q.class, sent, recv, ok, op));
            if keep {
                log.requests.push(frame);
                log.replies.push(reply);
            }
            match next {
                Some(token) => after = Some(token),
                None => break,
            }
        }
        if q.class == Class::Paging {
            if !paging.complete(&q.expect) {
                log.checks_failed += 1;
                log.failures.push(format!("keyset pages of `{}` are incomplete", q.text));
            }
            log.paged.push((q.text.clone(), paging.ids));
        }
    }
    log
}

/// After the window: shut the server down, measure the directory, and
/// reopen to check every acknowledged id survived.
pub struct Teardown {
    pub dir_bytes: u64,
    pub reopen_after_s: f64,
    pub missing_after_reopen: u64,
    pub index_bytes: usize,
}

pub fn teardown(s: Setup, acked: &[TupleSetId]) -> Result<Teardown, String> {
    let index_bytes = s.pass.stats().index_bytes;
    let (dir, inputs) = stop(s)?;
    let dir_bytes = sys::dir_bytes(&dir);
    let t0 = Instant::now();
    let reopened = Pass::open(config(&dir)).map_err(|e| format!("verification reopen: {e}"))?;
    let reopen_after_s = t0.elapsed().as_secs_f64();
    let snap = reopened.snapshot();
    let preload = inputs.preload_ids();
    let missing = acked.iter().chain(&preload).filter(|id| !snap.contains(**id)).count();
    drop(snap);
    drop(reopened);
    remove(&dir)?;
    Ok(Teardown { dir_bytes, reopen_after_s, missing_after_reopen: missing as u64, index_bytes })
}

/// Shuts a set-up store down without running it (extra set-up rounds).
pub fn discard(s: Setup) -> Result<(), String> {
    let (dir, _) = stop(s)?;
    remove(&dir)
}

/// Drains the server and closes the store; returns its directory and
/// the inputs it was built from.
fn stop(s: Setup) -> Result<(PathBuf, Inputs), String> {
    let Setup { dir, inputs, pass, server, wires, traced, .. } = s;
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    drop(wires);
    drop(pass);
    drop(traced);
    Ok((dir, inputs))
}

pub fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// An empty directory at `dir`, cleared if it exists.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        remove(dir)?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}
