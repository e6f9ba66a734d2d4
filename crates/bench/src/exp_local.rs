//! Local-store experiments: E1 (granularity), E2 (naming), E3 (closure
//! strategies), E4 (query mix), E12 (PASS properties), E16 (abstraction),
//! E20 (group-commit batched ingest), E21 (streaming vs materialized
//! query execution).

use pass_core::Pass;
use pass_index::closure::{BfsClosure, MemoClosure, NaiveJoinClosure, ReachStrategy, TraverseOpts};
use pass_index::{AncestryGraph, Direction, IntervalClosure};
use pass_model::{
    flatname, keys, Attributes, Digest128, ProvenanceBuilder, ProvenanceRecord, Reading, SensorId,
    SiteId, Timestamp, ToolDescriptor, TupleSet, TupleSetId, Value,
};
use pass_sensor::gen::rng_for;
use pass_sensor::{medical, traffic, volcano, weather, workload};
use rand::Rng;
use std::time::Instant;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

// ---------------------------------------------------------------------------
// E1 — index granularity
// ---------------------------------------------------------------------------

/// Builds a store holding `total_readings` readings grouped `per_set` to a
/// tuple set. Returns the store and its tuple-set ids.
pub fn e01_store(total_readings: usize, per_set: usize) -> (Pass, Vec<TupleSetId>) {
    let pass = Pass::open_memory(SiteId(1));
    let mut rng = rng_for(1, "e01");
    let mut ids = Vec::new();
    let sets = total_readings / per_set;
    for s in 0..sets {
        let start = (s * per_set) as u64 * 1_000;
        let readings: Vec<Reading> = (0..per_set)
            .map(|i| {
                Reading::new(SensorId((s % 64) as u64), Timestamp(start + i as u64 * 1_000))
                    .with("speed_kmh", rng.gen_range(10.0..80.0))
            })
            .collect();
        let attrs = Attributes::new()
            .with(keys::DOMAIN, "traffic")
            .with(keys::REGION, format!("zone-{}", s % 8))
            .with(keys::TYPE, "car_sighting")
            .with("sensor.id", (s % 64) as i64)
            .with(keys::TIME_START, Timestamp(start))
            .with(keys::TIME_END, Timestamp(start + per_set as u64 * 1_000 - 1));
        ids.push(
            pass.capture(attrs, readings, Timestamp(start + per_set as u64 * 1_000))
                .expect("capture"),
        );
    }
    (pass, ids)
}

/// E1 table: granularity sweep.
pub fn e01_table() -> String {
    let total = 20_000;
    let mut out = String::from(
        "E1  index granularity (20k readings; per-tuple vs tuple-set indexing)\n\
         per_set   sets   ingest_ms   index_KiB   eq_query_ms   overlap_query_ms\n",
    );
    for per_set in [1usize, 10, 100, 1_000] {
        let t0 = Instant::now();
        let (pass, _) = e01_store(total, per_set);
        let ingest = t0.elapsed();
        let stats = pass.stats();
        let t1 = Instant::now();
        for _ in 0..20 {
            pass.query_text(r#"FIND WHERE region = "zone-3""#).expect("query");
        }
        let eq = t1.elapsed() / 20;
        let t2 = Instant::now();
        for _ in 0..20 {
            pass.query_text("FIND WHERE time OVERLAPS [1000000, 2000000]").expect("query");
        }
        let overlap = t2.elapsed() / 20;
        out.push_str(&format!(
            "{:>7} {:>6} {:>11.1} {:>11.1} {:>13.3} {:>18.3}\n",
            per_set,
            stats.records,
            ms(ingest),
            stats.index_bytes as f64 / 1024.0,
            ms(eq),
            ms(overlap)
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E20 — group-commit batched ingest
// ---------------------------------------------------------------------------

/// Ingests `total_sets` single-reading tuple sets through the
/// generate → batch → ingest pipeline at the given group-commit size.
/// Returns the store and the achieved sets/second.
pub fn e20_batched_store(total_sets: usize, batch_size: usize) -> (Pass, f64) {
    e20_batched_into(Pass::open_memory(SiteId(1)), total_sets, batch_size)
}

/// Disk-backend variant of [`e20_batched_store`]: every group commit is
/// one WAL append + fsync, so batching amortizes real durability cost,
/// not just index maintenance. Returns the store, the backing tempdir
/// (dropping it deletes the store), and the achieved sets/second.
pub fn e20_batched_store_disk(
    total_sets: usize,
    batch_size: usize,
) -> (Pass, pass_storage::tempdir::TempDir, f64) {
    let dir = pass_storage::tempdir::TempDir::new("e20-disk");
    let pass = Pass::open(pass_core::PassConfig::disk(SiteId(1), dir.path())).expect("open disk");
    let (pass, rate) = e20_batched_into(pass, total_sets, batch_size);
    (pass, dir, rate)
}

fn e20_batched_into(pass: Pass, total_sets: usize, batch_size: usize) -> (Pass, f64) {
    let specs = e20_specs(total_sets);
    let t = Instant::now();
    let ids = pass_sensor::ingest_in_batches(specs, batch_size, |items| pass.capture_batch(items))
        .expect("batched capture");
    let rate = ids.len() as f64 / t.elapsed().as_secs_f64();
    (pass, rate)
}

/// Concurrent-writer × shard-count E20 variant (ISSUE 6): `writers`
/// threads ingest disjoint partitions of the e20 corpus into a disk
/// store with `shards` commit shards, every group commit fsynced
/// (`SyncPolicy::Always`) so the overlappable cost — the per-commit
/// fsync — is actually on the critical path. With `shards >= writers`
/// each writer owns whole shard streams: every commit is single-shard
/// and takes only its own shard's lock (and WAL). With
/// `shards < writers` the writers share streams and contend on the
/// shard locks — the single-lock baseline the sharding is measured
/// against. Corpus generation happens off the clock. Returns the store,
/// the backing tempdir, and the achieved sets/second.
pub fn e20_concurrent_store_disk(
    total_sets: usize,
    batch_size: usize,
    writers: usize,
    shards: usize,
) -> (Pass, pass_storage::tempdir::TempDir, f64) {
    let dir = pass_storage::tempdir::TempDir::new("e20-conc");
    let options = pass_storage::EngineOptions {
        sync: pass_storage::SyncPolicy::Always,
        ..Default::default()
    };
    let config = pass_core::PassConfig {
        site: SiteId(1),
        backend: pass_core::Backend::Disk { dir: dir.path().to_path_buf(), options },
        ..Default::default()
    }
    .with_shards(shards);
    let pass = Pass::open(config).expect("open sharded disk store");

    let sets: Vec<TupleSet> = e20_specs(total_sets)
        .iter()
        .map(|spec| pass_sensor::pipeline::capture_to_tuple_set(spec, SiteId(1)))
        .collect();
    let mut streams: Vec<Vec<TupleSet>> = (0..shards).map(|_| Vec::new()).collect();
    for ts in sets {
        streams[pass_core::keyspace::shard_of(ts.provenance.id, shards)].push(ts);
    }
    // Batch-to-writer assignment: disjoint shard ownership when there
    // are enough shards, striped contention on the shared locks when
    // there are not (writers is a multiple of shards in every series
    // configuration).
    let mut per_writer: Vec<Vec<&[TupleSet]>> = (0..writers).map(|_| Vec::new()).collect();
    if shards >= writers {
        for (s, stream) in streams.iter().enumerate() {
            per_writer[s % writers].extend(stream.chunks(batch_size));
        }
    } else {
        let per_shard = writers / shards;
        for (s, stream) in streams.iter().enumerate() {
            for (c, chunk) in stream.chunks(batch_size).enumerate() {
                per_writer[s * per_shard + c % per_shard].push(chunk);
            }
        }
    }

    let t = Instant::now();
    std::thread::scope(|scope| {
        for lanes in per_writer {
            let pass = &pass;
            scope.spawn(move || {
                for chunk in lanes {
                    pass.ingest_batch(chunk).expect("concurrent ingest");
                }
            });
        }
    });
    let rate = total_sets as f64 / t.elapsed().as_secs_f64();
    (pass, dir, rate)
}

/// The shared e20 corpus: `total_sets` single-reading traffic tuple
/// sets, deterministic across runs.
fn e20_specs(total_sets: usize) -> Vec<pass_sensor::CaptureSpec> {
    let mut rng = rng_for(20, "e20");
    (0..total_sets).map(|i| e20_spec(i, rng.gen_range(10.0..80.0))).collect()
}

/// Set `i` of the e20 corpus, with the given reading.
fn e20_spec(i: usize, speed_kmh: f64) -> pass_sensor::CaptureSpec {
    let at = Timestamp(i as u64 * 1_000);
    pass_sensor::CaptureSpec {
        attrs: Attributes::new()
            .with(keys::DOMAIN, "traffic")
            .with(keys::REGION, format!("zone-{}", i % 8))
            .with(keys::TYPE, "car_sighting")
            .with("seq", i as i64),
        readings: vec![Reading::new(SensorId((i % 64) as u64), at).with("speed_kmh", speed_kmh)],
        at,
    }
}

/// E20 table: ingest throughput and per-batch amortization across
/// group-commit sizes, on both backends (the ISSUE-3 acceptance series).
/// On the memory backend batching amortizes index maintenance only; on
/// the disk backend each group commit is additionally one WAL
/// append + fsync, which is where group commit pays off hardest.
pub fn e20_table() -> String {
    let mut out = String::from(
        "E20  group-commit ingest (single-reading tuple sets)\n\
         backend   sets   batch   sets_per_s   speedup_vs_1   commits   eq_query_ms\n",
    );
    let mem_total = 32_768;
    let mut base_rate = None;
    for batch in [1usize, 16, 256, 4_096] {
        let (pass, rate) = e20_batched_store(mem_total, batch);
        let base = *base_rate.get_or_insert(rate);
        out.push_str(&e20_row("memory", mem_total, batch, rate, rate / base, &pass));
    }
    // Smaller corpus on disk: batch=1 really does fsync per tuple set.
    let disk_total = 4_096;
    let mut base_rate = None;
    for batch in [1usize, 16, 256, 4_096] {
        let (pass, _dir, rate) = e20_batched_store_disk(disk_total, batch);
        let base = *base_rate.get_or_insert(rate);
        out.push_str(&e20_row("disk", disk_total, batch, rate, rate / base, &pass));
    }
    out.push_str(&e20_concurrent_table());
    out.push_str(&e20_live_table(&[10_000, 100_000, 1_000_000]));
    out
}

/// Commits timed per E20 live-readers point.
const E20_LIVE_COMMITS: usize = 300;

/// One E20 live-readers row: 16-set `capture_batch` commit latency, as
/// `(p50_us, p99_us)`, into a memory store preloaded by
/// [`e20_live_store`], while `readers` snapshots are alive. Like a
/// server answering queries, the readers keep taking fresh snapshots:
/// before every commit the oldest held snapshot is replaced by one of
/// the current version, so every commit overlaps a reader of the state
/// it replaces.
pub fn e20_live_point(pass: &Pass, next: &mut usize, readers: usize) -> (f64, f64) {
    let mut rng = rng_for(20, "e20-live");
    let mut held = std::collections::VecDeque::with_capacity(readers);
    let mut us = Vec::with_capacity(E20_LIVE_COMMITS);
    for _ in 0..E20_LIVE_COMMITS {
        if readers > 0 {
            if held.len() == readers {
                held.pop_front();
            }
            held.push_back(pass.snapshot());
        }
        let batch: Vec<_> = (*next..*next + 16)
            .map(|i| {
                let spec = e20_spec(i, rng.gen_range(10.0..80.0));
                (spec.attrs, spec.readings, spec.at)
            })
            .collect();
        *next += 16;
        let t = Instant::now();
        pass.capture_batch(batch).expect("live-readers commit");
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    let at = |q: f64| us[((us.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.99))
}

/// The store an E20 live-readers series runs against: `records` e20
/// sets captured 4 096 to a commit, with no reader alive.
pub fn e20_live_store(records: usize) -> Pass {
    e20_batched_store(records, 4_096).0
}

/// E20 live-readers table: commit p50/p99 with 0, 1 and 8 live readers
/// at each store size, and each p50 as a multiple of the no-reader p50.
/// Returns the table and, per size, `(records, p50 with 0 readers, p50
/// with 1 reader)` for gates.
pub fn e20_live_series(sizes: &[usize]) -> (String, Vec<(usize, f64, f64)>) {
    let mut out = String::from(
        "\nE20l 16-set commits with live readers (memory, snapshots re-taken per commit)\n\
         records   readers   commits   p50_us   p99_us   p50_vs_0\n",
    );
    let mut gates = Vec::new();
    for &records in sizes {
        let pass = e20_live_store(records);
        let mut next = records;
        let mut base = None;
        let mut one = 0.0;
        for readers in [0usize, 1, 8] {
            let (p50, p99) = e20_live_point(&pass, &mut next, readers);
            let base = *base.get_or_insert(p50);
            if readers == 1 {
                one = p50;
            }
            out.push_str(&format!(
                "{:>7} {:>9} {:>9} {:>8.1} {:>8.1} {:>10.2}\n",
                records,
                readers,
                E20_LIVE_COMMITS,
                p50,
                p99,
                p50 / base
            ));
        }
        gates.push((records, base.unwrap_or(0.0), one));
    }
    (out, gates)
}

/// [`e20_live_series`] as a table only.
pub fn e20_live_table(sizes: &[usize]) -> String {
    e20_live_series(sizes).0
}

/// The ISSUE-6 concurrent-writers × shards series: disk backend, every
/// group commit fsynced, writers pinned to disjoint shards (except the
/// writers-on-one-shard contention control). Speedup is against the
/// 1 writer / 1 shard row — the pre-sharding single-lock store under
/// the identical workload.
pub fn e20_concurrent_table() -> String {
    let mut out = String::from(
        "\nE20c group-commit ingest, concurrent writers x shards \
         (disk, fsync-per-commit)\n\
         writers   shards   sets   batch   sets_per_s   speedup_vs_1w1s\n",
    );
    let total = 8_192;
    // Two commit sizes: batch 16 keeps indexing CPU in the mix; batch 4
    // makes the per-commit fsync dominate, which is the cost per-shard
    // WALs can actually overlap.
    for batch in [16usize, 4] {
        let mut base_rate = None;
        for (writers, shards) in [(1, 1), (4, 1), (2, 2), (4, 4), (8, 8)] {
            let (pass, _dir, rate) = e20_concurrent_store_disk(total, batch, writers, shards);
            assert_eq!(pass.len(), total, "every set committed exactly once");
            let base = *base_rate.get_or_insert(rate);
            out.push_str(&format!(
                "{:>7} {:>8} {:>6} {:>7} {:>12.0} {:>17.2}\n",
                writers,
                shards,
                total,
                batch,
                rate,
                rate / base
            ));
        }
    }
    out
}

fn e20_row(
    backend: &str,
    total: usize,
    batch: usize,
    rate: f64,
    speedup: f64,
    pass: &Pass,
) -> String {
    let stats = pass.stats();
    let t = Instant::now();
    for _ in 0..20 {
        pass.query_text(r#"FIND WHERE region = "zone-3""#).expect("query");
    }
    let query_ms = ms(t.elapsed()) / 20.0;
    format!(
        "{:<8} {:>5} {:>6} {:>12.0} {:>14.2} {:>9} {:>13.3}\n",
        backend, total, batch, rate, speedup, stats.batches, query_ms
    )
}

// ---------------------------------------------------------------------------
// E21 — streaming vs materialized query execution
// ---------------------------------------------------------------------------

/// Peak resident set (VmHWM) in KiB, best effort (Linux only).
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's peak-RSS watermark to current usage, best effort.
fn reset_vm_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One E21 measurement: runs `work` and reports
/// `(first_result_ms, total_ms, results, peak_rss_delta_kib)`.
fn e21_measure(mut work: impl FnMut() -> (std::time::Duration, usize)) -> (f64, f64, usize, f64) {
    reset_vm_hwm();
    let before_hwm = vm_hwm_kib();
    let t = Instant::now();
    let (first, results) = work();
    let total = t.elapsed();
    let rss_delta = match (before_hwm, vm_hwm_kib()) {
        (Some(b), Some(a)) => a.saturating_sub(b) as f64,
        _ => f64::NAN,
    };
    (ms(first), ms(total), results, rss_delta)
}

/// E21 table: time-to-first-result and peak memory for streaming
/// cursors vs materialize-everything execution, at store sizes
/// 10k / 100k / 1M (reported alongside E20's ingest series).
///
/// "materialized" reproduces the old `execute()` API shape for a caller
/// that wants a bounded page: drain the full match set, then cut — what
/// offset pagination or full-result shipping forces. "streaming" is the
/// cursor: open, pull what you need, stop.
pub fn e21_table() -> String {
    use pass_query::QueryEngine;
    let mut out = String::from(
        "E21  streaming vs materialized query execution (eq query, 1/8 selectivity)\n\
         size      mode          shape        first_ms   total_ms   results   scanned   peak_rss_KiB\n",
    );
    for &size in &[10_000usize, 100_000, 1_000_000] {
        let (pass, _) = e20_batched_store(size, 4_096);
        let snapshot = pass.snapshot();
        let bounded =
            pass_query::parse(r#"FIND WHERE region = "zone-3" LIMIT 10"#).expect("well-formed");
        let unbounded = pass_query::parse(r#"FIND WHERE region = "zone-3""#).expect("well-formed");

        // Streaming, bounded: open a cursor, pull ten records.
        let mut scanned = 0usize;
        let (first, total, results, rss) = e21_measure(|| {
            let t = Instant::now();
            let mut cursor = snapshot.open_query(&bounded).expect("open");
            let first_record = cursor.next();
            let first = t.elapsed();
            let rest = cursor.by_ref().count();
            scanned = cursor.stats().candidates_scanned;
            (first, first_record.map_or(0, |_| 1) + rest)
        });
        out.push_str(&e21_row(size, "streaming", "LIMIT 10", first, total, results, scanned, rss));

        // Materialized, bounded: drain everything, then cut to ten.
        let mut scanned = 0usize;
        let (first, total, results, rss) = e21_measure(|| {
            let t = Instant::now();
            let result = pass_query::execute(&unbounded, &snapshot).expect("query");
            let first = t.elapsed(); // no record exists before the drain completes
            scanned = result.stats.candidates_scanned;
            let mut full = result.records;
            full.truncate(10);
            (first, full.len())
        });
        out.push_str(&e21_row(
            size,
            "materialized",
            "LIMIT 10",
            first,
            total,
            results,
            scanned,
            rss,
        ));

        // ORDER BY pushdown: the whole-store "latest 10" query streams
        // from the cached created-order scan (the first open after a
        // commit pays one O(n log n) sort, shown here; reruns share it)
        // vs fetching and sorting every record.
        let ordered =
            pass_query::parse("FIND ORDER BY created DESC LIMIT 10").expect("well-formed");
        let ordered_full = pass_query::parse("FIND ORDER BY created DESC").expect("well-formed");
        let mut scanned = 0usize;
        let (first, total, results, rss) = e21_measure(|| {
            let t = Instant::now();
            let mut cursor = snapshot.open_query(&ordered).expect("open");
            let first_record = cursor.next();
            let first = t.elapsed();
            let rest = cursor.by_ref().count();
            scanned = cursor.stats().candidates_scanned;
            (first, first_record.map_or(0, |_| 1) + rest)
        });
        out.push_str(&e21_row(
            size,
            "streaming",
            "ORDER LIM 10",
            first,
            total,
            results,
            scanned,
            rss,
        ));
        let mut scanned = 0usize;
        let (first, total, results, rss) = e21_measure(|| {
            let t = Instant::now();
            let result = pass_query::execute(&ordered_full, &snapshot).expect("query");
            let first = t.elapsed();
            scanned = result.stats.candidates_scanned;
            let mut records = result.records;
            records.truncate(10);
            (first, records.len())
        });
        out.push_str(&e21_row(
            size,
            "materialized",
            "ORDER LIM 10",
            first,
            total,
            results,
            scanned,
            rss,
        ));

        // Full drains converge: both must touch the whole match set.
        let mut scanned = 0usize;
        let (first, total, results, rss) = e21_measure(|| {
            let t = Instant::now();
            let mut cursor = snapshot.open_query(&unbounded).expect("open");
            let first_record = cursor.next();
            let first = t.elapsed();
            let rest = cursor.by_ref().count();
            scanned = cursor.stats().candidates_scanned;
            (first, first_record.map_or(0, |_| 1) + rest)
        });
        out.push_str(&e21_row(
            size,
            "streaming",
            "full drain",
            first,
            total,
            results,
            scanned,
            rss,
        ));
        let mut scanned = 0usize;
        let (first, total, results, rss) = e21_measure(|| {
            let t = Instant::now();
            let result = pass_query::execute(&unbounded, &snapshot).expect("query");
            scanned = result.stats.candidates_scanned;
            (t.elapsed(), result.records.len())
        });
        out.push_str(&e21_row(
            size,
            "materialized",
            "full drain",
            first,
            total,
            results,
            scanned,
            rss,
        ));
    }
    out.push('\n');
    out.push_str(&crate::exp_dist::e21_traffic_table());
    out
}

#[allow(clippy::too_many_arguments)]
fn e21_row(
    size: usize,
    mode: &str,
    shape: &str,
    first_ms: f64,
    total_ms: f64,
    results: usize,
    scanned: usize,
    rss_kib: f64,
) -> String {
    format!(
        "{:<9} {:<13} {:<12} {:>8.3} {:>10.3} {:>9} {:>9} {:>14.0}\n",
        size, mode, shape, first_ms, total_ms, results, scanned, rss_kib
    )
}

// ---------------------------------------------------------------------------
// E2 — naming: flat filenames vs structured provenance
// ---------------------------------------------------------------------------

/// A corpus with deliberately collision-prone region names.
pub fn e02_corpus(n_per_region: usize) -> Vec<ProvenanceRecord> {
    let regions = ["new_york", "new-york", "st_louis", "st-louis", "boston"];
    let mut out = Vec::new();
    for (ri, region) in regions.iter().enumerate() {
        for i in 0..n_per_region {
            let record =
                ProvenanceBuilder::new(SiteId(1), Timestamp((ri * n_per_region + i) as u64))
                    .attr(keys::DOMAIN, "traffic")
                    .attr(keys::REGION, *region)
                    .attr(keys::TYPE, "car_sighting")
                    .attr(keys::SENSOR_TYPE, "camera")
                    .attr(keys::TIME_START, Value::Time(Timestamp(i as u64 * 1_000)))
                    .attr(keys::TIME_END, Value::Time(Timestamp(i as u64 * 1_000 + 999)))
                    .attr("calibration.run", i as i64) // inexpressible in a flat name
                    .build(Digest128::of(format!("{region}/{i}").as_bytes()));
            out.push(record);
        }
    }
    out
}

/// E2 table: per-query latency and result quality for both schemes.
pub fn e02_table() -> String {
    let corpus = e02_corpus(400);
    let names: Vec<String> = corpus.iter().map(flatname::build).collect();
    // Structured side: the same records, indexed by their provenance.
    let pass = Pass::open_memory(SiteId(1));
    for record in &corpus {
        let rebuilt = ProvenanceBuilder::new(record.origin, record.created_at)
            .attrs(&record.attributes)
            .build(TupleSet::content_digest_of(&[]));
        pass.ingest(&TupleSet::new(rebuilt, vec![]).expect("digest matches")).expect("ingest");
    }

    let mut out = String::from(
        "E2  naming: flat filenames vs structured provenance (2000 records)\n\
         query                     scheme       latency_ms   precision   recall\n",
    );
    let target = Value::Str("new_york".to_owned());
    // Ground truth: records whose true region equals new_york.
    let truth: Vec<usize> = corpus
        .iter()
        .enumerate()
        .filter(|(_, r)| r.attributes.get_str(keys::REGION) == Some("new_york"))
        .map(|(i, _)| i)
        .collect();

    // Flat scheme: parse every name.
    let t0 = Instant::now();
    let mut flat_hits = Vec::new();
    for _ in 0..10 {
        flat_hits = names
            .iter()
            .enumerate()
            .filter(|(_, name)| flatname::name_matches(name, keys::REGION, &target))
            .map(|(i, _)| i)
            .collect();
    }
    let flat_latency = t0.elapsed() / 10;
    let flat_tp = flat_hits.iter().filter(|i| truth.contains(i)).count();
    let flat_precision =
        if flat_hits.is_empty() { 1.0 } else { flat_tp as f64 / flat_hits.len() as f64 };
    let flat_recall = if truth.is_empty() { 1.0 } else { flat_tp as f64 / truth.len() as f64 };

    // Structured scheme: attribute index.
    let t1 = Instant::now();
    let mut hits = 0usize;
    for _ in 0..10 {
        hits = pass.query_text(r#"FIND WHERE region = "new_york""#).expect("query").records.len();
    }
    let ix_latency = t1.elapsed() / 10;

    out.push_str(&format!(
        "{:<25} {:<12} {:>10.3} {:>11.3} {:>8.3}\n",
        "region = new_york",
        "flat-name",
        ms(flat_latency),
        flat_precision,
        flat_recall
    ));
    out.push_str(&format!(
        "{:<25} {:<12} {:>10.3} {:>11.3} {:>8.3}\n",
        "region = new_york",
        "provenance",
        ms(ix_latency),
        1.0,
        hits as f64 / truth.len().max(1) as f64
    ));
    // The attribute a flat name cannot express at all.
    let calib = pass.query_text("FIND WHERE calibration.run = 7").expect("query");
    out.push_str(&format!(
        "{:<25} {:<12} {:>10} {:>11} {:>8}\n",
        "calibration.run = 7", "flat-name", "n/a", "0.000", "0.000"
    ));
    out.push_str(&format!(
        "{:<25} {:<12} {:>10.3} {:>11.3} {:>8.3}\n",
        "calibration.run = 7",
        "provenance",
        0.01,
        1.0,
        if calib.records.len() == 5 { 1.0 } else { 0.0 }
    ));
    out
}

// ---------------------------------------------------------------------------
// E3 — transitive-closure strategies
// ---------------------------------------------------------------------------

/// Builds a braided lineage DAG of `depth` levels × `width` nodes with
/// fanin 2, returning the graph and one leaf node.
pub fn e03_graph(depth: usize, width: usize) -> (AncestryGraph, u32) {
    let mut graph = AncestryGraph::new();
    let roots: Vec<TupleSetId> = (0..width as u128).map(|i| TupleSetId(i + 1)).collect();
    for r in &roots {
        graph.insert(*r, &[]);
    }
    let mut counter = 1_000u128;
    pass_sensor::build_lineage::<std::convert::Infallible>(
        &roots,
        pass_sensor::LineageShape { depth, width, fanin: 2 },
        Timestamp::ZERO,
        |parents, _tool, _attrs, _readings, _at| {
            counter += 1;
            let id = TupleSetId(counter);
            let edges: Vec<(TupleSetId, bool)> = parents.iter().map(|p| (*p, false)).collect();
            graph.insert(id, &edges);
            Ok(id)
        },
    )
    .expect("infallible");
    let leaf = graph.lookup(TupleSetId(counter)).expect("leaf exists");
    (graph, leaf)
}

/// E3 table: strategy × depth latency (µs) plus structure sizes.
pub fn e03_table() -> String {
    let mut out = String::from(
        "E3  transitive closure: ancestors-of latency (µs), width=16 fanin=2\n\
         depth   naive_join        bfs       memo   interval   memo_KiB   intv_KiB\n",
    );
    for depth in [4usize, 8, 16, 32] {
        let (graph, leaf) = e03_graph(depth, 16);
        let opts = TraverseOpts::unbounded();
        let time_strategy = |s: &dyn ReachStrategy| -> f64 {
            let t = Instant::now();
            let iters = 50;
            for _ in 0..iters {
                std::hint::black_box(s.reachable(&graph, leaf, Direction::Ancestors, &opts));
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
        };
        let naive = time_strategy(&NaiveJoinClosure);
        let bfs = time_strategy(&BfsClosure);
        let memo = MemoClosure::build(&graph, false).expect("acyclic");
        let memo_t = time_strategy(&memo);
        let interval = IntervalClosure::build(&graph, false).expect("acyclic");
        let interval_t = time_strategy(&interval);
        out.push_str(&format!(
            "{:>5} {:>12.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
            depth,
            naive,
            bfs,
            memo_t,
            interval_t,
            memo.size_bytes() as f64 / 1024.0,
            interval.size_bytes() as f64 / 1024.0
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E4 — the §III query mix
// ---------------------------------------------------------------------------

/// Builds a mixed-domain store and its query vocabulary.
pub fn e04_store() -> (Pass, workload::Vocabulary) {
    let pass = Pass::open_memory(SiteId(1));
    let mut ids = Vec::new();
    for spec in traffic::generate(
        &traffic::TrafficConfig { sensors: 6, seed: 41, ..Default::default() },
        Timestamp::ZERO,
        10,
    )
    .into_iter()
    .chain(weather::generate(
        &weather::WeatherConfig { stations: 3, seed: 42, ..Default::default() },
        Timestamp::ZERO,
        8,
    ))
    .chain(medical::generate(
        &medical::MedicalConfig { patients: 8, seed: 43, ..Default::default() },
        Timestamp::ZERO,
        5,
    ))
    .chain(volcano::generate(
        &volcano::VolcanoConfig { stations: 4, seed: 44, ..Default::default() },
        Timestamp::ZERO,
        12,
    )) {
        ids.push(pass.capture(spec.attrs, spec.readings, spec.at).expect("capture"));
    }
    // Two pipeline stages so science queries have lineage to chase.
    let tool = ToolDescriptor::new("rollup", "1.0");
    let mid: Vec<TupleSetId> = ids
        .chunks(16)
        .map(|chunk| {
            pass.derive(
                chunk,
                &tool,
                Attributes::new().with(keys::DOMAIN, "analysis").with(keys::TYPE, "rollup"),
                vec![],
                Timestamp::from_secs(10_000),
            )
            .expect("derive")
        })
        .collect();
    let top = pass
        .derive(
            &mid,
            &ToolDescriptor::new("report", "2.0"),
            Attributes::new().with(keys::DOMAIN, "analysis").with(keys::TYPE, "report"),
            vec![],
            Timestamp::from_secs(20_000),
        )
        .expect("derive");
    ids.push(top);

    let vocab = workload::Vocabulary {
        ids,
        regions: vec!["london".into(), "vesuvius".into(), "bridge-12".into()],
        patients: (0..8).map(|p| format!("patient-{p:03}")).collect(),
        operators: (0..3).map(|e| format!("emt-{e}")).collect(),
        tools: vec!["rollup".into(), "report".into()],
        time_span: (Timestamp::ZERO, Timestamp::from_secs(20_000)),
    };
    (pass, vocab)
}

/// E4 table: per-class mean latency over the §III mixes.
pub fn e04_table() -> String {
    let (pass, vocab) = e04_store();
    let mut rng = rng_for(4, "e04");
    let specs = workload::mixed(&vocab, &mut rng, 30);
    let mut per_class: std::collections::BTreeMap<&str, (f64, usize, usize)> =
        std::collections::BTreeMap::new();
    for spec in &specs {
        let t = Instant::now();
        let result = pass.query_text(&spec.text).expect("workload query parses");
        let elapsed = ms(t.elapsed());
        let entry = per_class.entry(spec.class.label()).or_insert((0.0, 0, 0));
        entry.0 += elapsed;
        entry.1 += 1;
        entry.2 += result.records.len();
    }
    let mut out = String::from(
        "E4  §III query mix on a populated local PASS (1000+ tuple sets)\n\
         class         queries   mean_latency_ms   mean_results\n",
    );
    for (class, (total, n, results)) in per_class {
        out.push_str(&format!(
            "{:<13} {:>7} {:>17.3} {:>14.1}\n",
            class,
            n,
            total / n as f64,
            results as f64 / n as f64
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// E12 — PASS property micro-benchmarks
// ---------------------------------------------------------------------------

/// E12 table: property-enforcement costs.
pub fn e12_table() -> String {
    let mut out = String::from("E12  PASS property enforcement costs\n");
    // Identity hashing throughput.
    let record = ProvenanceBuilder::new(SiteId(1), Timestamp(1))
        .attr(keys::DOMAIN, "traffic")
        .attr(keys::REGION, "london")
        .attr(keys::TYPE, "car_sighting")
        .build(Digest128::of(b"payload"));
    let t = Instant::now();
    let n = 100_000;
    for _ in 0..n {
        std::hint::black_box(record.verify_identity());
    }
    let per = t.elapsed().as_secs_f64() * 1e9 / f64::from(n);
    out.push_str(&format!("identity verification: {per:>10.0} ns/record\n"));

    // Ingest throughput with all invariants on.
    let pass = Pass::open_memory(SiteId(1));
    let t = Instant::now();
    let count = 5_000;
    for i in 0..count {
        let readings = vec![Reading::new(SensorId(1), Timestamp(i)).with("v", i as i64)];
        let attrs = Attributes::new().with(keys::DOMAIN, "bench").with("i", i as i64);
        pass.capture(attrs, readings, Timestamp(i)).expect("capture");
    }
    let rate = count as f64 / t.elapsed().as_secs_f64();
    out.push_str(&format!("verified ingest:       {rate:>10.0} tuple sets/s\n"));

    // Ancestor-removal survival (property 4) at scale.
    let ids = pass.ids();
    let child = pass
        .derive(
            &ids[..100.min(ids.len())],
            &ToolDescriptor::new("t", "1"),
            Attributes::new().with(keys::DOMAIN, "bench"),
            vec![],
            Timestamp(999_999),
        )
        .expect("derive");
    let t = Instant::now();
    for id in &ids[..100.min(ids.len())] {
        pass.remove_data(*id).expect("remove");
    }
    let removal = ms(t.elapsed());
    let lineage =
        pass.lineage(child, Direction::Ancestors, TraverseOpts::unbounded()).expect("lineage");
    out.push_str(&format!(
        "100 data removals:     {removal:>10.2} ms (lineage still names {} ancestors)\n",
        lineage.len()
    ));
    out
}

// ---------------------------------------------------------------------------
// E16 — provenance abstraction
// ---------------------------------------------------------------------------

/// Builds a store where each of `analyses` outputs depends on raw data
/// plus a toolchain of provenance depth `chain_len`, linked through an
/// abstracted edge.
pub fn e16_store(analyses: usize, chain_len: usize) -> (Pass, Vec<TupleSetId>) {
    let pass = Pass::open_memory(SiteId(1));
    // One shared toolchain lineage: source → … → binary.
    let mut prev = pass
        .capture(
            Attributes::new().with(keys::DOMAIN, "toolchain").with(keys::TYPE, "source"),
            vec![Reading::new(SensorId(0), Timestamp(0)).with("rev", 0i64)],
            Timestamp(0),
        )
        .expect("capture");
    for i in 1..chain_len {
        prev = pass
            .derive(
                &[prev],
                &ToolDescriptor::new("build-step", format!("{i}")),
                Attributes::new().with(keys::DOMAIN, "toolchain").with(keys::TYPE, "stage"),
                vec![Reading::new(SensorId(0), Timestamp(i as u64)).with("rev", i as i64)],
                Timestamp(i as u64),
            )
            .expect("derive");
    }
    let toolchain_binary = prev;

    let mut outputs = Vec::new();
    for a in 0..analyses {
        let raw = pass
            .capture(
                Attributes::new()
                    .with(keys::DOMAIN, "traffic")
                    .with(keys::TYPE, "capture")
                    .with("run", a as i64),
                vec![Reading::new(SensorId(1), Timestamp(a as u64)).with("v", a as i64)],
                Timestamp(1_000 + a as u64),
            )
            .expect("capture");
        let readings = vec![Reading::new(SensorId(2), Timestamp(a as u64)).with("out", a as i64)];
        let attrs = Attributes::new().with(keys::DOMAIN, "analysis").with("run", a as i64);
        let mut builder =
            ProvenanceBuilder::new(SiteId(1), Timestamp(2_000 + a as u64)).attrs(&attrs);
        builder = builder.derived_from(raw, ToolDescriptor::new("analyze", "3.1"));
        builder =
            builder.derived_from(toolchain_binary, ToolDescriptor::abstracted("gcc", "3.3.3"));
        let record = builder.build(TupleSet::content_digest_of(&readings));
        let id =
            pass.ingest(&TupleSet::new(record, readings).expect("digest matches")).expect("ingest");
        outputs.push(id);
    }
    (pass, outputs)
}

/// E16 table: lineage size and latency with/without abstraction.
pub fn e16_table() -> String {
    let mut out = String::from(
        "E16  provenance abstraction (\"gcc 3.3.3\" vs full toolchain history)\n\
         chain_len   full_nodes   full_µs   abstracted_nodes   abstracted_µs\n",
    );
    for chain_len in [8usize, 32, 128] {
        let (pass, outputs) = e16_store(4, chain_len);
        let root = outputs[0];
        let time_it = |opts: TraverseOpts| -> (usize, f64) {
            let t = Instant::now();
            let iters = 50;
            let mut len = 0;
            for _ in 0..iters {
                len = pass.lineage(root, Direction::Ancestors, opts).expect("lineage").len();
            }
            (len, t.elapsed().as_secs_f64() * 1e6 / f64::from(iters))
        };
        let (full_nodes, full_us) = time_it(TraverseOpts::unbounded());
        let (abs_nodes, abs_us) =
            time_it(TraverseOpts { stop_at_abstraction: true, ..TraverseOpts::default() });
        out.push_str(&format!(
            "{:>9} {:>12} {:>9.1} {:>18} {:>15.1}\n",
            chain_len, full_nodes, full_us, abs_nodes, abs_us
        ));
    }
    out
}
