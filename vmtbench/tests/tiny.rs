//! Every workload at a small size: each prints all its metrics by name
//! with their units, passes its output checks, and its traced run
//! reaches the untraced run's state on the default and the held-out
//! seed.

use serde::Value;
use vmt_perfbench::{
    measure, trace, Outcome, Spec, Workload, DEFAULT_SEED, END_TO_END, HELD_OUT_SEED, PER_LAYER,
};

/// 1,000 servers over 2 simulated hours: big enough that every replayed
/// layer has work at both captured ticks, small enough for a test.
fn tiny(workload: Workload) -> Spec {
    workload.tiny(1_000, 2.0)
}

fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    value
        .get_field(name)
        .unwrap_or_else(|| panic!("missing `{name}`"))
}

/// Parses the result line and checks it names exactly `expected`.
fn check_result(outcome: &Outcome, expected: &[(&str, &str)]) {
    assert!(outcome.correct, "checks failed: {:?}", outcome.notes);
    assert_eq!(outcome.failed, 0);
    let line: Value = serde_json::from_str(&outcome.json()).expect("result line is JSON");
    let Value::Object(top) = &line else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(field(&line, "correct"), Value::Bool(true)));
    let Value::Object(metrics) = field(&line, "metrics") else {
        panic!("metrics is not an object")
    };
    assert_eq!(metrics.len(), expected.len());
    for ((name, metric), (want_name, want_unit)) in metrics.iter().zip(expected) {
        assert_eq!(name, want_name);
        assert!(
            matches!(field(metric, "unit"), Value::Str(unit) if unit == want_unit),
            "{name} unit"
        );
        assert!(
            matches!(field(metric, "value"), Value::F64(v) if v.is_finite()),
            "{name} value"
        );
    }
}

#[test]
fn every_workload_reports_its_end_to_end_metrics() {
    for workload in Workload::ALL {
        let outcome = measure(&tiny(workload), DEFAULT_SEED, 0.0);
        check_result(&outcome, &END_TO_END);
        assert!(outcome.attempted > 0, "{}", workload.name());
    }
}

#[test]
fn traced_runs_match_untraced_on_both_seeds() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let outcome = trace(&tiny(workload), seed, None);
            check_result(&outcome, &PER_LAYER);
        }
    }
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        let Value::Array(items) = field(&json, key) else {
            panic!("`{key}` is not a list")
        };
        items
            .iter()
            .map(|item| {
                let Value::Str(name) = field(item, "name") else {
                    panic!("`{key}` entry without a name")
                };
                let unit = match item.get_field("unit") {
                    Some(Value::Str(unit)) => Some(unit.clone()),
                    _ => None,
                };
                (name.clone(), unit)
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(&END_TO_END));
    assert_eq!(names("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);
}
