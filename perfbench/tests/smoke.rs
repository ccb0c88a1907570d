//! Small-scale smoke runs of every workload, untraced and traced: each
//! must pass its output checks and print every metric `BENCHMARK.json`
//! names, with its unit, on its last line.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Debug, Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct Workload {
    name: String,
}

#[derive(Debug, Deserialize)]
struct Bench {
    workloads: Vec<Workload>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(Debug, Deserialize)]
struct Value {
    value: f64,
    unit: String,
}

#[derive(Debug, Deserialize)]
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Value>,
}

fn bench() -> Bench {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs the benchmark at small scale from a scratch directory and
/// returns its parsed last line.
fn run(workload: &str, traced: bool) -> RunResult {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-smoke-{workload}-{}-{}",
        u8::from(traced),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_fisql-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--scale",
            "small",
        ])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} (traced {traced}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line {last:?}: {e}"))
}

fn assert_metrics(defs: &[MetricDef], result: &RunResult, what: &str) {
    assert_eq!(
        result.metrics.len(),
        defs.len(),
        "{what}: printed {:?}",
        result.metrics.keys().collect::<Vec<_>>()
    );
    for def in defs {
        let got = result
            .metrics
            .get(&def.name)
            .unwrap_or_else(|| panic!("{what}: metric {} missing", def.name));
        assert_eq!(got.unit, def.unit, "{what}: unit of {}", def.name);
        assert!(got.value.is_finite(), "{what}: {} is not finite", def.name);
    }
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let b = bench();
    let mut seen = std::collections::BTreeSet::new();
    let names = b
        .workloads
        .iter()
        .map(|w| &w.name)
        .chain(b.end_to_end.iter().map(|m| &m.name))
        .chain(b.per_layer.iter().map(|m| &m.name));
    for name in names {
        assert!(valid_name(name), "bad name {name:?}");
        assert!(seen.insert(name.clone()), "duplicate name {name:?}");
    }
    assert!(b
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let b = bench();
    for w in &b.workloads {
        let e2e = run(&w.name, false);
        assert!(e2e.correct && e2e.attempted >= 1, "{}: {e2e:?}", w.name);
        assert_eq!(e2e.failed, 0, "{}", w.name);
        assert_metrics(&b.end_to_end, &e2e, &w.name);
        for def in &b.end_to_end {
            assert!(
                e2e.metrics[&def.name].value > 0.0,
                "{}: {} is 0",
                w.name,
                def.name
            );
        }
        // The traced run also holds each eval replay to the runner's
        // reports and each served transcript to its in-process replay.
        let layers = run(&w.name, true);
        assert!(layers.correct, "{} traced: {layers:?}", w.name);
        assert_metrics(&b.per_layer, &layers, &format!("{} traced", w.name));
    }
}
