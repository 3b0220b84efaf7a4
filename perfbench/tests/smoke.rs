//! Runs every workload at smoke scale and checks the benchmark's
//! contract: each metric `BENCHMARK.json` names is printed, with its unit
//! and a finite value; decorating a stack for tracing changes nothing it
//! computes; and a corrupt journal fails the recover workload.

use cubefit_durability::frame::{FRAME_OVERHEAD, HEADER_LEN};
use cubefit_durability::WAL_FILE;
use cubefit_perfbench::{churn, recover, trace, Ctx, Workload};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()))
}

fn object(value: &Value) -> &serde_json::Map {
    match value {
        Value::Object(map) => map,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    object(value).get(key).unwrap_or_else(|| panic!("missing {key:?} in {value:?}"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::String(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let bench: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");
    match field(&bench, section) {
        Value::Array(items) => items
            .iter()
            .map(|m| (text(field(m, "name")).to_owned(), text(field(m, "unit")).to_owned()))
            .collect(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn run_perf(workload: Workload, trace: bool) -> Value {
    let out = scratch(&format!("out-{}-{trace}", workload.name()));
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--workload", workload.name(), "--seed", "3", "--seconds", "0.5", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{} (trace {trace}) failed: {}\n{stdout}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    if trace {
        let spans = out.join(format!("trace_{}.jsonl", workload.name()));
        let lines = std::fs::read_to_string(&spans).expect("the trace file is written");
        for line in lines.lines() {
            let span: Value = serde_json::from_str(line).expect("each span line is JSON");
            field(&span, "start_ns");
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .expect("out dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch journals are removed: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&out);
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

#[test]
fn every_declared_metric_is_printed_for_every_workload() {
    let valid = |name: &str| {
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for trace in [false, true] {
        let declared = declared(if trace { "per_layer" } else { "end_to_end" });
        for workload in Workload::ALL {
            let result = run_perf(workload, trace);
            assert_eq!(field(&result, "correct"), &Value::Bool(true));
            let metrics = object(field(&result, "metrics"));
            assert_eq!(metrics.len(), declared.len(), "{}: {metrics:?}", workload.name());
            for (name, unit) in &declared {
                assert!(valid(name), "metric name {name:?}");
                let metric = metrics.get(name).unwrap_or_else(|| {
                    panic!("{} (trace {trace}) does not print {name}", workload.name())
                });
                assert_eq!(text(field(metric, "unit")), unit, "{name}");
                match field(metric, "value") {
                    Value::Number(n) => assert!(n.as_f64().is_finite(), "{name}"),
                    other => panic!("{name} is not a number: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn per_layer_metrics_all_have_a_layer_and_a_target() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("metrics.json");
    let map: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("metrics.json is readable"))
            .expect("metrics.json parses");
    let mapped = object(&map);
    let declared = declared("per_layer");
    assert_eq!(mapped.len(), declared.len());
    for (name, _) in declared {
        let entry = mapped.get(&name).unwrap_or_else(|| panic!("{name} is not mapped"));
        let layer = text(field(entry, "layer"));
        assert!(trace::LAYERS.contains(&layer), "{name}: unknown layer {layer}");
        match field(entry, "moves") {
            Value::Array(targets) => assert!(!targets.is_empty(), "{name} moves nothing"),
            other => panic!("{name}: moves is not a list: {other:?}"),
        }
    }
}

#[test]
fn decorated_churn_stack_ends_in_the_undecorated_state() {
    let dir = scratch("decorated");
    let ctx = |traced| Ctx { seed: 11, smoke: true, traced, rep: 1, dir: dir.clone() };
    let plain = churn::run_rep(&ctx(false)).expect("untraced churn runs");
    trace::start(1 << 16);
    let decorated = churn::run_rep(&ctx(true));
    let spans = trace::finish();
    let decorated = decorated.expect("traced churn runs");
    assert!(spans.iter().any(|s| s.name == "durability.place"));
    assert!(spans.iter().any(|s| s.name == "core.place"));
    assert!(plain.final_state.is_some());
    assert_eq!(plain.final_state, decorated.final_state, "dump fingerprints differ");
    assert_eq!(plain.servers_used, decorated.servers_used);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flipped_wal_payload_byte_fails_recovery() {
    let dir = scratch("flipped");
    let params = recover::Params::new(true);
    let crashed = recover::crash(&params, 5, &dir, false).expect("the journal is written");
    assert!(crashed.tail_frames > 1);
    assert!(recover::replay(&dir).is_ok(), "the intact journal recovers");
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).expect("the log is readable");
    bytes[HEADER_LEN + FRAME_OVERHEAD] ^= 0x40;
    std::fs::write(&wal, bytes).expect("the log is writable");
    let error = recover::replay(&dir).expect_err("a corrupt frame must not recover");
    assert!(error.contains("recover"), "{error}");
    let _ = std::fs::remove_dir_all(&dir);
}
