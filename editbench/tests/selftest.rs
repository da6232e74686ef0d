//! Self-tests of the benchmark, run at a small scale: the stream is a
//! function of the seed, each run emits the metrics `BENCHMARK.json`
//! declares with their units, and the traced layers nest.

use editbench::run::{run, Outcome};
use editbench::setup::{Spec, Workload};
use serde::Value;
use std::path::PathBuf;

fn small(workload: Workload) -> Spec {
    Spec {
        scale: 0.01,
        setup_reps: 1,
        epilogue_reps: 1,
        ..Spec::of(workload)
    }
}

fn run_small(workload: Workload, seed: u64, seconds: f64, trace: bool, tag: &str) -> Outcome {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".stores")
        .join(format!(
            "test-{tag}-{}-{}",
            workload.name(),
            std::process::id()
        ));
    let out = run(&small(workload), seed, seconds, trace, &root);
    assert!(out.correct, "{} seed {seed} trace {trace}", workload.name());
    assert_eq!(out.failed, 0, "{}: err replies", workload.name());
    out
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, k: &str| -> String {
        serde::obj_get(v.as_obj().expect("object"), k)
            .and_then(Value::as_str)
            .expect("string field")
            .to_string()
    };
    serde::obj_get(root.as_obj().expect("object"), section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn same_seed_sends_the_same_stream() {
    for w in Workload::ALL {
        let a = run_small(w, 7, 1.0, false, "a").stream;
        let b = run_small(w, 7, 1.0, false, "b").stream;
        let c = run_small(w, 8, 1.0, false, "c").stream;
        // Runs are time-bounded, so compare the common prefix.
        let n = a.len().min(b.len());
        assert!(n >= 20, "{}: only {n} lines", w.name());
        assert_eq!(a[..n], b[..n], "{}: seed 7 twice", w.name());
        let n = a.len().min(c.len());
        assert_ne!(a[..n], c[..n], "{}: seeds 7 and 8", w.name());
    }
}

/// Every emitted metric is declared, and every declared metric is
/// emitted: a run's last line carries all the metrics of its mode, on
/// every workload.
#[test]
fn every_metric_is_declared_with_its_unit() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    let workloads: Vec<String> = {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let root: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("read")).expect("parse");
        serde::obj_get(root.as_obj().expect("object"), "workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                serde::obj_get(w.as_obj().expect("object"), "name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    assert!(!workloads.is_empty());
    for name in &workloads {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
    for w in Workload::ALL {
        let untraced = run_small(w, 3, 1.0, false, "e2e");
        assert_eq!(emitted(&untraced), e2e, "{}: end-to-end metrics", w.name());
        let traced = run_small(w, 3, 1.0, true, "layers");
        assert_eq!(emitted(&traced), layers, "{}: per-layer metrics", w.name());
        for m in untraced.metrics.iter().chain(&traced.metrics) {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_layers_nest_exec_manager_round_trip() {
    for w in Workload::ALL {
        let out = run_small(w, 5, 2.0, true, "nest");
        let get = |name: &str| out.metric(name).expect(name);
        let (exec, manager, round_trip) = (
            get("server.exec.execute_p50_us"),
            get("server.manager.p50_us"),
            get("server.round_trip_p50_us"),
        );
        assert!(
            exec <= manager && manager <= round_trip,
            "{}: exec {exec} manager {manager} round trip {round_trip}",
            w.name()
        );
    }
}
