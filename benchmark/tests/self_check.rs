//! Tests of the benchmark itself, at a tiny scale:
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use anomex_e2e_bench::gate::{check, Outcome};
use anomex_e2e_bench::replay::replay;
use anomex_e2e_bench::trace::self_times;
use anomex_e2e_bench::workload::{generate, Workload};
use anomex_e2e_bench::{run, window_medians, Args, REPLAY_SLACK};
use serde_json::Value;

fn tiny(workload: Workload, trace: bool) -> Args {
    Args { workload, seed: 3, seconds: 0.0, trace, tiny: true, spans_dir: None }
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let fields = root.as_object().expect("an object");
    Value::field(fields, list)
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|metric| {
            let metric = metric.as_object().expect("a metric object");
            let text = |key| Value::field(metric, key).as_str().expect("a string").to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric on the printed result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let root: Value = serde_json::from_str(line).expect("the result line parses");
    let fields = root.as_object().expect("an object");
    assert_eq!(Value::field(fields, "correct"), &Value::Bool(true));
    Value::field(fields, "metrics")
        .as_object()
        .expect("a metrics object")
        .iter()
        .map(|(name, metric)| {
            let unit = Value::field(metric.as_object().expect("a metric"), "unit");
            (name.clone(), unit.as_str().expect("a unit").to_string())
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let workloads: Vec<String> = {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let root: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        Value::field(root.as_object().unwrap(), "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| Value::field(w.as_object().unwrap(), "name").as_str().unwrap().to_string())
            .collect()
    };
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let output = run(&tiny(workload, trace)).expect("tiny run passes its gate");
            assert_eq!(printed(&output.json_line()), declared(list), "{workload:?} trace={trace}");
            assert!(output.attempted > 0);
            assert_eq!(output.failed, 0);
            for metric in &output.metrics {
                assert!(metric.value.is_finite(), "{} = {}", metric.name, metric.value);
            }
        }
    }
}

#[test]
fn gate_trips_on_an_altered_report_stream() {
    let inputs = generate(Workload::AlarmDense, Workload::AlarmDense.shape(2).tiny(), 3).remove(0);
    let truth = replay(&inputs, false).outcome;
    assert!(!truth.reports.is_empty(), "the tiny alarm-dense replay must report");
    assert_eq!(check(&truth.clone(), &truth), Ok(()));

    let mut fewer_itemsets = truth.clone();
    if let anomex_stream::StreamReport::Alarm(report) = &mut fewer_itemsets.reports[0] {
        report.extraction.itemsets.pop();
    }
    assert!(check(&fewer_itemsets, &truth).is_err());

    let mut rescored = truth.clone();
    if let anomex_stream::StreamReport::Alarm(report) = &mut rescored.reports[0] {
        report.alarm.score += 1.0;
    }
    assert!(check(&rescored, &truth).is_err());

    let mut missing = truth.clone();
    missing.reports.pop();
    assert!(check(&missing, &truth).is_err());

    let extra_window = Outcome { windows: truth.windows + 1, ..truth.clone() };
    assert!(check(&extra_window, &truth).is_err());
}

#[test]
fn replay_spans_account_for_its_wall_time() {
    for workload in Workload::ALL {
        let inputs = generate(workload, workload.shape(2).tiny(), 5).remove(0);
        let result = replay(&inputs, true);
        let root = &result.spans[0];
        assert_eq!(root.name, "replay");
        assert_eq!(root.duration_ns(), result.wall_ns);
        // Self times of every span, the root's own included, add up to
        // the replay's wall time; the root's is the unattributed part.
        let times = self_times(&result.spans);
        assert_eq!(times.iter().sum::<u64>(), result.wall_ns, "{workload:?}");
        assert_eq!(times[0], result.unattributed_ns(), "{workload:?}");
        let share = result.unattributed_ns() as f64 / result.wall_ns as f64;
        assert!(share < REPLAY_SLACK, "{workload:?}: unattributed share {share}");
    }
}

#[test]
fn every_argument_is_required_and_checked() {
    let args = |list: &[&str]| Args::parse(list.iter().map(|s| s.to_string()));
    let full = ["--workload", "wire-v9", "--seed", "9", "--seconds", "2.5", "--trace", "0"];
    let parsed = args(&full).expect("a full argument list parses");
    assert_eq!((parsed.workload, parsed.seed, parsed.seconds), (Workload::WireV9, 9, 2.5));
    assert!(!parsed.trace && parsed.spans_dir.is_none());
    assert!(args(&full[..6]).is_err(), "--trace missing");
    assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]).is_err());
    assert!(
        args(&["--workload", "wire-v9", "--seed", "1", "--seconds", "1", "--trace", "2"]).is_err()
    );
}

#[test]
fn window_medians_drop_a_delay_that_hits_one_run_in_three() {
    // Window 0 costs 4 ms, window 1 costs 2 ms; one run delays window 0
    // by 20 ms and another window 1 by 9 ms.
    let runs = [
        [(0, 4_000_000), (1, 2_000_000)],
        [(0, 24_000_000), (1, 2_100_000)],
        [(0, 4_200_000), (1, 11_000_000)],
    ];
    assert_eq!(window_medians(runs.iter().flatten()), vec![4_200_000, 2_100_000]);
}
