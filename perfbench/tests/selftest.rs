//! Self-test: tiny sizes of every workload pass every output check,
//! every metric prints with its unit, the JSON line carries exactly the
//! metrics `BENCHMARK.json` names, and the traced run's span file is
//! well-formed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["ingest", "mixed", "lineage_read"];

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\":")
        .skip(1)
        .map(|rest| rest.trim().trim_start_matches('"').split('"').next().unwrap_or("").to_owned())
        .collect()
}

fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("selftest-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

fn run(dir: &Path, workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--tiny"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Checks the output's metric lines and final JSON line; returns the
/// names in the JSON.
fn check_output(stdout: &str, workload: &str) -> Vec<String> {
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if matches!(f.first(), Some(&"metric" | &"layer")) {
            assert!(f.len() >= 4, "{workload}: metric line without a unit: {line}");
            assert!(f[2].parse::<f64>().is_ok(), "{workload}: bad value: {line}");
            assert!(!f[3].is_empty() && f[3].parse::<f64>().is_err(), "{workload}: unit: {line}");
        }
    }
    assert!(!stdout.contains("# check failed"), "{workload}: a check failed:\n{stdout}");
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, "), "{workload}: {last}");
    assert!(last.contains("\"failed\": 0"), "{workload}: {last}");
    let mut rest = &last[last.find("\"metrics\"").expect("metrics key")..];
    let mut names = Vec::new();
    while let Some(at) = rest.find("\": {\"value\"") {
        let head = &rest[..at];
        names.push(head[head.rfind('"').expect("quoted name") + 1..].to_owned());
        rest = &rest[at + 1..];
    }
    names
}

#[test]
fn untraced_runs_pass_checks_and_print_the_gated_metrics() {
    let mut want = listed("end_to_end");
    want.sort();
    assert!(want.contains(&"setup_s".to_owned()));
    for workload in WORKLOADS {
        let stdout = run(&workload_dir(workload, 0), workload, 0);
        let mut got = check_output(&stdout, workload);
        got.sort();
        assert_eq!(got, want, "{workload}: JSON metrics differ from BENCHMARK.json");
        assert!(stdout.contains("# nproc="), "{workload}: header");
        assert!(stdout.contains("metric setup_s "), "{workload}: setup_s line");
        assert!(stdout.contains("metric failed_frac 0.000000 ratio"), "{workload}: failed_frac");
    }
}

#[test]
fn traced_runs_print_layers_and_write_well_formed_spans() {
    let mut want = listed("per_layer");
    want.sort();
    for workload in WORKLOADS {
        let dir = workload_dir(workload, 1);
        let stdout = run(&dir, workload, 1);
        let mut got = check_output(&stdout, workload);
        got.sort();
        assert_eq!(got, want, "{workload}: JSON metrics differ from BENCHMARK.json");
        let spans = dir.join(".perfbench/spans").join(format!("{workload}-seed7.tsv"));
        let check = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("--check-spans")
            .arg(&spans)
            .output()
            .expect("span check runs");
        assert!(check.status.success(), "{workload}: {}", String::from_utf8_lossy(&check.stderr));
        let leftovers: Vec<_> = std::fs::read_dir(dir.join(".perfbench"))
            .expect("work dir")
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| n != "spans")
            .collect();
        assert!(leftovers.is_empty(), "{workload}: store dirs left behind: {leftovers:?}");
    }
}

fn workload_dir(workload: &str, trace: u8) -> PathBuf {
    workdir(&format!("{workload}-{trace}"))
}

#[test]
fn a_corrupt_span_file_is_refused() {
    let dir = workdir("spans");
    let file = dir.join("bad.tsv");
    std::fs::write(&file, "name\tstart_ns\tend_ns\tid\tparent\top\nq\t1\t5\t2\t9\t1\n").unwrap();
    let check = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--check-spans")
        .arg(&file)
        .output()
        .expect("span check runs");
    assert!(!check.status.success(), "a missing parent must be refused");
}
