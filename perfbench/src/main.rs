//! `perfbench` — the served end-to-end benchmark for PASS.
//!
//! Runs one named workload (`ingest`, `mixed` or `lineage_read`)
//! against a real `pass-server` in front of a disk-backed `Pass`,
//! checks every answer, prints each metric by name with its unit, and
//! ends with one JSON line. `--trace 1` runs the traced variant instead
//! and prints the per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed --seed 1 --seconds 20 --trace 0
//! ```

mod gen;
mod net;
mod queries;
mod replay;
mod served;
mod sys;
mod trace;

use pass_distrib::wire::WireMsg;
use pass_loadgen::Histogram;
use pass_server::frame::{encode_msg, FrameDecoder};
use queries::Class;
use served::{Opts, Outcome, Setup, Teardown, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-up rounds per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// A run is flagged when the load generator sent this late (p99, ms).
const MAX_SEND_LATE_P99_MS: f64 = 10.0;
/// A p99 needs this many samples (10 beyond it).
const MIN_P99_SAMPLES: u64 = 1_000;
/// Applies slower than this count as stalls.
const STALL_US: u64 = 10_000;
const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, flag, file] = args.as_slice() {
        if flag == "--check-spans" {
            match trace::check_span_file(Path::new(file)) {
                Ok(n) => {
                    println!("{n} spans well-formed");
                    std::process::exit(0);
                }
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

struct Args {
    opts: Opts,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!(
                        "unknown workload `{name}` (ingest, mixed, lineage_read)"
                    ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let root =
        PathBuf::from(".perfbench").join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Args { opts: Opts { workload, seed, seconds, tiny, root }, trace })
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..40.min(l.len())].to_owned())
        }),
        None if !head.is_empty() => Some(head.to_owned()),
        None => None,
    };
    resolved.map_or("unknown (not a git checkout)".into(), |c| c.trim().to_owned())
}

fn header(a: &Args) {
    let o = &a.opts;
    let engine = pass_storage::EngineOptions::default();
    let server = pass_server::ServerConfig::default();
    println!(
        "# perfbench workload={} seed={} window_s={} trace={} tiny={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(a.trace),
        o.tiny
    );
    println!("# nproc={} commit={}", sys::nproc(), git_commit());
    println!(
        "# store: PassConfig::disk(..).with_maintenance(), shards=1, memtable_bytes={}, \
         sync={:?}, block_cache={}",
        engine.memtable_bytes,
        engine.sync,
        if engine.cache.is_some() { "on" } else { "none" }
    );
    println!(
        "# server: ServerConfig::default() max_connections={} max_in_flight_bytes={} \
         max_queued_frames={} send_queue_frames={}",
        server.admission.max_connections,
        server.admission.max_in_flight_bytes,
        server.admission.max_queued_frames,
        server.conn.send_queue_frames
    );
    let load = match o.workload {
        Workload::Ingest => format!(
            "open loop, 1 connection, Poisson publishes {}/s x {} sets x {} readings, empty store",
            served::INGEST_RATE,
            served::SETS_PER_PUBLISH,
            gen::READINGS
        ),
        Workload::Mixed => format!(
            "open loop, preload {} records; conn A Poisson publishes {}/s x {} sets; conn B \
             Poisson query pages {}/s + `{}`",
            o.preload(),
            served::MIXED_PUBLISH_RATE,
            served::MIXED_SETS_PER_PUBLISH,
            served::MIXED_QUERY_RATE,
            served::SUBSCRIPTION
        ),
        Workload::LineageRead => format!(
            "closed loop, preload {} records (raw -> calibrated -> aggregate), {} clients, \
             read-only",
            o.preload(),
            served::CLIENTS
        ),
    };
    println!("# load: {load}");
}

fn ms(h: &Histogram, q: f64) -> f64 {
    h.quantile(q) as f64 / 1_000.0
}

/// Printed metrics and the JSON ones.
#[derive(Default)]
struct Sheet {
    json: Vec<(String, f64, &'static str)>,
    /// Reasons to read the run's numbers with care; printed, never fatal.
    warnings: Vec<String>,
}

impl Sheet {
    fn line(&self, kind: &str, name: &str, value: f64, unit: &str, samples: Option<u64>) {
        match samples {
            Some(n) => println!("{kind} {name} {value:.6} {unit} samples={n}"),
            None => println!("{kind} {name} {value:.6} {unit}"),
        }
    }

    /// A named end-to-end metric, printed.
    fn metric(&mut self, name: &str, value: f64, unit: &str, samples: Option<u64>) {
        self.line("metric", name, value, unit, samples);
    }

    /// The median and the tail: p99 when ten samples lie beyond it,
    /// otherwise the highest whole percentile that has ten beyond it. A
    /// tail below p90 is flagged.
    fn pct(&mut self, base: &str, h: &Histogram, tiny: bool) {
        let n = h.count();
        self.metric(&format!("{base}_p50_ms"), ms(h, 0.5), "ms", Some(n));
        let q = if n >= MIN_P99_SAMPLES { 99 } else { 100u64.saturating_sub((999 + n) / n.max(1)) };
        if q < 99 {
            println!("# {base}: {n} samples put ten beyond p{q}, not p99");
        }
        self.metric(&format!("{base}_p{q}_ms"), ms(h, q as f64 / 100.0), "ms", Some(n));
        if q < 90 && !tiny {
            self.warnings.push(format!("{base} tail rests on {n} samples"));
        }
    }

    fn json(&mut self, name: &str, value: f64, unit: &'static str) {
        self.json.push((name.to_owned(), value, unit));
    }

    /// A per-layer metric: printed and part of the traced JSON.
    fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.line("layer", name, value, unit, None);
        self.json(name, value, unit);
    }
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    header(&args);
    let opts = &args.opts;
    let outcome = if args.trace { traced(opts) } else { untraced(opts) };
    // Leave nothing behind but span files, whatever happened.
    if opts.root.exists() {
        let _ = std::fs::remove_dir_all(&opts.root);
    }
    let (sheet, correct, attempted, failed, failures) = outcome?;
    for f in &failures {
        println!("# check failed: {f}");
    }
    println!("# correct={correct} attempted={attempted} failed={failed}");
    // A flagged run still reports: the open-loop percentiles run from the
    // scheduled send, so they charge a late send, and a sender blocked by
    // a server that stopped reading is the program's own backpressure.
    for why in &sheet.warnings {
        println!("# warning: {why}");
        eprintln!("perfbench: warning: {why}");
    }
    println!("{}", json_line(correct, attempted, failed, &sheet.json));
    Ok(if correct { 0 } else { 1 })
}

type RunResult = Result<(Sheet, bool, u64, u64, Vec<String>), String>;

/// One served run: set up (`rounds` times, keeping the last), window,
/// teardown with the reopen check.
fn served_run(
    opts: &Opts,
    rounds: usize,
    tracer: Option<&std::sync::Arc<trace::Tracer>>,
    keep: bool,
) -> Result<(Vec<f64>, Setup, Outcome), String> {
    let mut setup_s = Vec::with_capacity(rounds);
    let mut kept = None;
    for round in 0..rounds {
        let tag = if tracer.is_some() { "traced" } else { "plain" };
        let s = served::setup(opts, opts.root.join(format!("{tag}-{round}")), tracer)?;
        setup_s.push(s.setup_s);
        if round + 1 < rounds {
            served::discard(s)?;
        } else {
            kept = Some(s);
        }
    }
    let mut s = kept.ok_or("no set-up round ran")?;
    println!(
        "# rss after set-up: peak {:.1} MiB, now {:.1} MiB",
        sys::rss_peak_mb(),
        sys::rss_mb()
    );
    if let Some(t) = &s.traced {
        t.timing.recording.store(true, Ordering::Relaxed);
    }
    let out = served::window(opts, &mut s, keep)?;
    if let Some(t) = &s.traced {
        t.timing.recording.store(false, Ordering::Relaxed);
    }
    Ok((setup_s, s, out))
}

fn correctness(out: &Outcome, td: &Teardown) -> (bool, u64, u64, Vec<String>) {
    let mut failures = out.failures.clone();
    if td.missing_after_reopen > 0 {
        failures.push(format!("{} acknowledged ids missing after reopen", td.missing_after_reopen));
    }
    let correct = out.checks_failed == 0 && td.missing_after_reopen == 0;
    (correct, out.attempted, out.failed() + td.missing_after_reopen, failures)
}

fn untraced(opts: &Opts) -> RunResult {
    let rounds = if opts.tiny { 1 } else { SETUP_ROUNDS };
    let (setup_s, s, out) = served_run(opts, rounds, None, false)?;
    // Peak RSS through set-up and window, before the verification reopen.
    let rss = sys::rss_peak_mb();
    println!("# rss after the window: now {:.1} MiB", sys::rss_mb());
    let td = served::teardown(s, &out.acked)?;
    let (correct, attempted, failed, failures) = correctness(&out, &td);
    let mut sheet = Sheet::default();
    let w = opts.workload;
    let secs = out.window_s;
    if w != Workload::LineageRead {
        sheet.pct("publish", &out.publish, opts.tiny);
        sheet.metric("publish_goodput_per_s", out.committed as f64 / secs, "1/s", None);
    }
    if w != Workload::Ingest {
        sheet.pct("query", &out.query, opts.tiny);
    }
    if w == Workload::LineageRead {
        sheet.metric("query_per_s", out.query.count() as f64 / secs, "1/s", None);
        let latest = &out.class[Class::Latest.index()];
        let lineage = &out.class[Class::Lineage.index()];
        sheet.metric("latest_p50_ms", ms(latest, 0.5), "ms", Some(latest.count()));
        sheet.metric("lineage_p50_ms", ms(lineage, 0.5), "ms", Some(lineage.count()));
    }
    if w == Workload::Mixed {
        sheet.pct("notify_lag", &out.notify, opts.tiny);
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    sheet.metric("failed_frac", failed_frac, "ratio", Some(attempted));
    let setup = median(setup_s.clone());
    let rounds: Vec<String> = setup_s.iter().map(|v| format!("{v:.3}")).collect();
    println!("# setup rounds (s): {}", rounds.join(" "));
    sheet.metric("setup_s", setup, "s", Some(setup_s.len() as u64));
    sheet.metric("rss_peak_mb", rss, "MiB", None);
    if w == Workload::Ingest {
        let user = out.user_bytes.max(1) as f64;
        sheet.metric("space_amp", td.dir_bytes as f64 / user, "ratio", None);
        sheet.metric("write_amp", out.write_bytes as f64 / user, "ratio", None);
    }
    send_lateness(&mut sheet, &out, opts.tiny);
    // The gated metrics (`BENCHMARK.json`) carry the same names on every
    // workload. `op_p50_ms` is the headline operation's median at full
    // resolution: publishes in `ingest` and `mixed`, `ANCESTORS` pages in
    // `lineage_read`. It runs from the actual send, so the load
    // generator's own wake-up delays stay out of the gate; the printed
    // open-loop percentiles run from the scheduled send and keep them.
    // Tails and throughput are printed but not gated: on `mixed` the
    // tails swing with copy-on-write cascades, and closed-loop throughput
    // with the host's speed.
    let op_p50 = out.primary.ms(0.5);
    sheet.metric("op_p50_ms", op_p50, "ms", Some(out.primary.count()));
    sheet.json("op_p50_ms", op_p50, "ms");
    sheet.json("setup_s", setup, "s");
    sheet.json("rss_peak_mb", rss, "MiB");
    Ok((sheet, correct, attempted, failed, failures))
}

/// How late the load generator sent: behind schedule in an open loop, the gap
/// from a reply to the next request in a closed loop.
fn send_lateness(sheet: &mut Sheet, out: &Outcome, tiny: bool) {
    let late = ms(&out.send_late, 0.99);
    println!("metric driver.send_late_p99_ms {late:.6} ms samples={}", out.send_late.count());
    if late > MAX_SEND_LATE_P99_MS && !tiny {
        sheet.warnings.push(format!("load generator fell behind: send_late_p99 {late:.3} ms"));
    }
}

/// Mean µs to decode the run's request frames and to encode its
/// replies, over at most `limit` of each.
fn codec_us(out: &Outcome, limit: usize) -> (f64, f64) {
    let mut decode_ns = 0u128;
    let mut n_dec = 0u32;
    for frame in out.requests.iter().take(limit) {
        let mut decoder = FrameDecoder::new();
        decoder.extend(frame);
        let t0 = Instant::now();
        let msg = decoder
            .next_frame()
            .ok()
            .flatten()
            .and_then(|f| WireMsg::decode_body(f.kind, &f.payload).ok());
        decode_ns += t0.elapsed().as_nanos();
        if std::hint::black_box(msg).is_some() {
            n_dec += 1;
        }
    }
    let mut encode_ns = 0u128;
    let mut n_enc = 0u32;
    for reply in out.replies.iter().take(limit) {
        let t0 = Instant::now();
        let bytes = encode_msg(std::hint::black_box(reply));
        encode_ns += t0.elapsed().as_nanos();
        std::hint::black_box(bytes);
        n_enc += 1;
    }
    let mean = |ns: u128, n: u32| if n == 0 { 0.0 } else { ns as f64 / f64::from(n) / 1_000.0 };
    (mean(decode_ns, n_dec), mean(encode_ns, n_enc))
}

fn us_q(h: &Histogram, q: f64) -> f64 {
    h.quantile(q) as f64 / 1_000.0
}

fn traced(opts: &Opts) -> RunResult {
    // Untraced reference for the tracing overhead, then the traced
    // served run, then the in-process replay.
    let (_, s, plain) = served_run(opts, 1, None, false)?;
    let plain_td = served::teardown(s, &plain.acked)?;
    let tracer = trace::Tracer::new(Instant::now());
    let (_, s, out) = served_run(opts, 1, Some(&tracer), true)?;
    let traced_store = s.traced.as_ref().ok_or("traced store missing")?;
    let engine_end = traced_store.engine.stats();
    let scan_s = traced_store.timing.scan_s();
    let deletes = traced_store.timing.deletes();
    let reopen_s = s.reopen_s;
    let td = served::teardown(s, &out.acked)?;
    let layers = replay::replay(opts, &tracer)?;

    let (mut correct, attempted, mut failed, mut failures) = correctness(&out, &td);
    let (plain_ok, _, _, plain_failures) = correctness(&plain, &plain_td);
    if !plain_ok {
        correct = false;
        failures.extend(plain_failures);
    }
    if layers.failures > 0 {
        correct = false;
        failed += layers.failures;
        failures.push(format!("{} replay operations failed their checks", layers.failures));
    }
    // `Pass::open_with_store` has no seal clock; that only matters to
    // tombstone GC, so the traced store must never see a delete.
    if deletes > 0 {
        correct = false;
        failures.push(format!("the traced store saw {deletes} deletes"));
    }

    let mut spans = tracer.take();
    let apply = attribute_spans(&tracer, &out, &mut spans);
    let mut sheet = Sheet::default();
    let st = (&out.stats_before, &out.stats_after);
    let shed = st.1.publishes_rejected - st.0.publishes_rejected;
    let offered = shed + st.1.publishes_ok - st.0.publishes_ok;
    sheet.layer("server.shed_frac", shed as f64 / offered.max(1) as f64, "ratio");
    sheet.layer("server.queue_shed", (st.1.queue_shed - st.0.queue_shed) as f64, "count");
    let bytes_out = (st.1.bytes_out - st.0.bytes_out) as f64;
    sheet.layer("server.bytes_out_per_op", bytes_out / out.ops.len().max(1) as f64, "B");
    let (dec, enc) = codec_us(&out, 20_000);
    sheet.layer("server.decode_us", dec, "us");
    sheet.layer("server.encode_us", enc, "us");
    let overhead = out.primary.ms(0.5) - ms(&layers.ops, 0.5);
    sheet.layer("server.overhead_p50_ms", overhead, "ms");
    sheet.layer("core.commit_p50_us", us_q(&layers.commit, 0.5), "us");
    sheet.layer("core.commit_p99_us", us_q(&layers.commit, 0.99), "us");
    sheet.layer("core.snapshot_p99_us", us_q(&layers.snapshot, 0.99), "us");
    sheet.layer("core.sub_delivery_p99_us", us_q(&layers.sub_delivery, 0.99), "us");
    let reopen = if opts.preload() > 0 { reopen_s } else { td.reopen_after_s };
    sheet.layer("core.reopen_s", reopen, "s");
    sheet.layer("core.index_mb", td.index_bytes as f64 / MIB, "MiB");
    sheet.layer("query.parse_us", us_q(&layers.parse, 0.5), "us");
    sheet.layer("query.plan_us", us_q(&layers.plan, 0.5), "us");
    for c in Class::ALL {
        let i = c.index();
        sheet.layer(&format!("query.exec_us.{}", c.name()), us_q(&layers.exec[i], 0.5), "us");
    }
    for c in Class::ALL {
        let i = c.index();
        let r = layers.returned[i].max(1) as f64;
        let name = format!("query.scanned_per_returned.{}", c.name());
        sheet.layer(&name, layers.scanned[i] as f64 / r, "ratio");
        let name = format!("query.fetched_per_returned.{}", c.name());
        sheet.layer(&name, layers.fetched[i] as f64 / r, "ratio");
    }
    sheet.layer("index.lineage_us", us_q(&layers.lineage, 0.5), "us");
    let closure = layers.closure_sum as f64 / layers.closure_n.max(1) as f64;
    sheet.layer("index.closure_size", closure, "count");
    sheet.layer("storage.apply_p50_us", us_q(&apply, 0.5), "us");
    sheet.layer("storage.apply_p99_us", us_q(&apply, 0.99), "us");
    let stalls = spans
        .iter()
        .filter(|s| s.name == "storage.apply" && s.end - s.start > STALL_US * 1_000)
        .count();
    sheet.layer("storage.apply_stalls", stalls as f64, "count");
    sheet.layer("storage.flushes", engine_end.flushes as f64, "count");
    sheet.layer("storage.compactions", engine_end.compactions as f64, "count");
    sheet.layer("storage.tables_end", engine_end.num_tables as f64, "count");
    sheet.layer("storage.scan_s", scan_s, "s");
    sheet.layer("storage.write_mb", out.write_bytes as f64 / MIB, "MiB");
    sheet.layer("driver.send_late_p99_ms", ms(&out.send_late, 0.99), "ms");
    let overhead = out.primary.ms(0.5) - plain.primary.ms(0.5);
    sheet.layer("trace.overhead_p50_ms", overhead, "ms");
    println!(
        "# tracing overhead: traced op p50 {:.4} ms vs untraced {:.4} ms",
        out.primary.ms(0.5),
        plain.primary.ms(0.5)
    );

    for (name, self_ns, n) in trace::self_times(&spans) {
        println!("self {name} {:.3} ms n={n}", self_ns as f64 / 1e6);
    }
    let file = PathBuf::from(".perfbench").join("spans").join(format!(
        "{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    trace::write_spans(&file, &spans).map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("# spans: {} written to {}", spans.len(), file.display());
    Ok((sheet, correct, attempted, failed, failures))
}

/// Adds the served run's client spans (one root per op, a `client.send_late`
/// child for open-loop send lateness) and hangs each storage apply under
/// the publish its connection was serving. Returns the apply-time
/// histogram (ns).
fn attribute_spans(
    tracer: &trace::Tracer,
    out: &Outcome,
    spans: &mut Vec<trace::Span>,
) -> Histogram {
    let mut roots: Vec<(u64, u64, u64, u64, bool)> = Vec::with_capacity(out.ops.len());
    for rec in &out.ops {
        let id = tracer.record(rec.name, rec.start, rec.end, 0, rec.op);
        if rec.sent > rec.start {
            tracer.record("client.send_late", rec.start, rec.sent, id, rec.op);
        }
        roots.push((
            tracer.ns(rec.sent),
            tracer.ns(rec.end),
            id,
            rec.op,
            rec.name == "client.publish",
        ));
    }
    let client = tracer.take();
    let mut publishes: Vec<_> = roots.into_iter().filter(|r| r.4).collect();
    publishes.sort_unstable();
    let mut apply = Histogram::new();
    let mut applies: Vec<&mut trace::Span> =
        spans.iter_mut().filter(|s| s.name == "storage.apply").collect();
    applies.sort_by_key(|s| s.start);
    let mut j = 0;
    for span in applies {
        apply.record(span.end - span.start);
        while j < publishes.len() && publishes[j].1 < span.start {
            j += 1;
        }
        if let Some(&(sent, _, id, op, _)) = publishes.get(j) {
            if sent <= span.start {
                span.parent = id;
                span.op = op;
            }
        }
    }
    spans.extend(client);
    apply
}
