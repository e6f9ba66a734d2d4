//! E20 live-readers series: 16-set commit latency with 0, 1 and 8 live
//! snapshots, re-taken before every commit, at several store sizes
//! (memory backend). Prints the table.
//!
//! Knobs:
//! * `E20_LIVE_RECORDS` — comma-separated store sizes (default
//!   `10000,100000,1000000`);
//! * `E20_LIVE_ASSERT=1` — assert that at every size the commit p50 with
//!   one live snapshot is at most 3× the p50 with none. This is the CI
//!   smoke gate: a commit that copied the published index state would
//!   cost ~2 µs per stored record instead.

use pass_bench::exp_local::e20_live_series;

fn main() {
    let sizes: Vec<usize> = std::env::var("E20_LIVE_RECORDS")
        .unwrap_or_else(|_| "10000,100000,1000000".to_owned())
        .split(',')
        .map(|n| n.trim().parse().expect("E20_LIVE_RECORDS: comma-separated record counts"))
        .collect();
    let (table, gates) = e20_live_series(&sizes);
    println!("{table}");
    if std::env::var("E20_LIVE_ASSERT").as_deref() == Ok("1") {
        for (records, none, one) in gates {
            assert!(
                one <= 3.0 * none,
                "at {records} records a commit with one live snapshot took p50 {one:.1}us \
                 vs {none:.1}us with none"
            );
            println!("e20 live smoke ok at {records} records: p50 {one:.1}us vs {none:.1}us");
        }
    }
}
