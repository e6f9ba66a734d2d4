//! Spans for the traced run, recorded from the benchmark's own files
//! around calls into each layer, plus the timing `KvStore` wrapper that
//! gives the storage layer its spans.
//!
//! Spans stay in memory and are written once, at the end of the run,
//! as tab-separated `name start_ns end_ns id parent op` lines (times
//! from the run's epoch; `parent` 0 is a root).

use pass_storage::{KvStore, LsmEngine, Op, WriteBatch};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
}

/// The run's span sink.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer { epoch, next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) })
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span; returns its id so children can name it.
    pub fn record(&self, name: &str, start: Instant, end: Instant, parent: u64, op: u64) -> u64 {
        let id = self.fresh_id();
        self.push(Span {
            name: name.to_owned(),
            start: self.ns(start),
            end: self.ns(end),
            id,
            parent,
            op,
        });
        id
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Writes spans as TSV.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tid\tparent\top")?;
    for s in spans {
        writeln!(out, "{}\t{}\t{}\t{}\t{}\t{}", s.name, s.start, s.end, s.id, s.parent, s.op)?;
    }
    out.flush()
}

/// Checks a span file: every parent exists and every child carries its
/// parent's op id. Returns the number of spans.
pub fn check_span_file(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut ops = std::collections::HashMap::new();
    let mut rows = Vec::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
        let (Some(start), Some(end), Some(id), Some(parent), Some(op)) =
            (num(1), num(2), num(3), num(4), num(5))
        else {
            return Err(format!("line {}: malformed span `{line}`", n + 1));
        };
        if end < start {
            return Err(format!("line {}: span ends before it starts", n + 1));
        }
        if ops.insert(id, op).is_some() {
            return Err(format!("line {}: duplicate span id {id}", n + 1));
        }
        rows.push((n + 1, parent, op));
    }
    for (line, parent, op) in &rows {
        if *parent == 0 {
            continue;
        }
        match ops.get(parent) {
            None => return Err(format!("line {line}: parent {parent} does not exist")),
            Some(p) if p != op => {
                return Err(format!("line {line}: op {op} differs from its parent's op {p}"))
            }
            Some(_) => {}
        }
    }
    Ok(rows.len())
}

/// Per span name: (total self time ns, span count). Self time is a
/// span's duration minus the part of it that its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut by_name: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let entry = by_name.entry(s.name.clone()).or_default();
        entry.0 += (s.end - s.start).saturating_sub(covered);
        entry.1 += 1;
    }
    by_name.into_iter().map(|(name, (ns, n))| (name, ns, n)).collect()
}

/// A `KvStore` over an `LsmEngine` that times every apply and scan.
/// Applies are recorded as unattributed `storage.apply` spans while
/// `recording` is on; the run attributes them to client ops afterwards.
pub struct TimingKv {
    inner: Arc<LsmEngine>,
    tracer: Arc<Tracer>,
    pub recording: AtomicBool,
    deletes: AtomicU64,
    scan_ns: AtomicU64,
}

impl TimingKv {
    pub fn new(inner: Arc<LsmEngine>, tracer: Arc<Tracer>) -> TimingKv {
        TimingKv {
            inner,
            tracer,
            recording: AtomicBool::new(false),
            deletes: AtomicU64::new(0),
            scan_ns: AtomicU64::new(0),
        }
    }

    /// Delete operations seen; the traced run asserts this stays 0.
    pub fn deletes(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }

    /// Seconds spent in `scan_range`.
    pub fn scan_s(&self) -> f64 {
        self.scan_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl KvStore for TimingKv {
    fn get(&self, key: &[u8]) -> pass_storage::Result<Option<Vec<u8>>> {
        self.inner.get(key)
    }

    fn apply(&self, batch: WriteBatch) -> pass_storage::Result<()> {
        let deletes = batch.ops().iter().filter(|op| matches!(op, Op::Delete { .. })).count();
        self.deletes.fetch_add(deletes as u64, Ordering::Relaxed);
        let start = Instant::now();
        let out = self.inner.apply(batch);
        if self.recording.load(Ordering::Relaxed) {
            self.tracer.record("storage.apply", start, Instant::now(), 0, 0);
        }
        out
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
    ) -> pass_storage::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let t0 = Instant::now();
        let out = self.inner.scan_range(start, end);
        self.scan_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn flush(&self) -> pass_storage::Result<()> {
        self.inner.flush()
    }
}
