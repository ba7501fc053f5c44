//! Detector-equivalence guarantees across the PR-4 detection-engine
//! refactor:
//!
//! 1. exact-threshold `KlOnline` stays **bit-identical** with batch
//!    `detect_series` under arbitrary traffic (the seed guarantee);
//! 2. Welford threshold state agrees with the exact two-pass statistics
//!    within floating-point tolerance, and the two modes raise the same
//!    alarms on generated scenarios;
//! 3. incremental (rank-one update/downdate) `PcaSliding` raises the
//!    same alarms as the leave-one-out refit reference on random
//!    series, divergence allowed only on exact decision boundaries;
//! 4. a KL+PCA ensemble pipeline reproduces the committed golden
//!    fixture byte-for-byte (`tests/fixtures/ensemble_alarms_golden
//!    .json`, regenerate with `cargo run --release --example
//!    golden_gen -- ensemble`).

use anomex::prelude::*;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const WIDTH_MS: u64 = 60_000;

/// Random-but-seeded traffic over `intervals` one-minute intervals.
fn random_flows(seed: u64, n_flows: usize, intervals: u64) -> (Vec<FlowRecord>, TimeRange) {
    let span = TimeRange::new(0, intervals * WIDTH_MS);
    let mut rng = Xoshiro256::seeded(seed);
    let flows = (0..n_flows)
        .map(|_| {
            let start = rng.next_below(intervals * WIDTH_MS);
            FlowRecord::builder()
                .time(start, (start + rng.next_below(8_000)).min(span.to_ms))
                .src(
                    Ipv4Addr::from(0x0A00_0000 + rng.next_below(512) as u32),
                    1_024 + rng.next_below(50_000) as u16,
                )
                .dst(
                    Ipv4Addr::from(0xAC10_0000 + rng.next_below(32) as u32),
                    if rng.next_f64() < 0.6 { 80 } else { 1 + rng.next_below(9_000) as u16 },
                )
                .volume(1 + rng.next_below(200), 64 + rng.next_below(50_000))
                .build()
        })
        .collect();
    (flows, span)
}

proptest! {
    #![proptest_config(ProptestConfig::profile_cases(48))]

    /// Seed guarantee: with the exact threshold mode, pushing a series
    /// interval by interval is bit-identical with batch detection —
    /// same alarms, same scores, same ids.
    #[test]
    fn exact_kl_online_is_bit_identical_with_batch(
        seed in any::<u64>(),
        n_flows in 100usize..800,
        intervals in 6u64..14,
    ) {
        let (flows, span) = random_flows(seed, n_flows, intervals);
        let series = IntervalSeries::cut(&flows, span, WIDTH_MS);
        let config = KlConfig {
            interval_ms: WIDTH_MS,
            threshold: ThresholdMode::Exact,
            ..KlConfig::default()
        };
        let mut batch = KlDetector::new(config);
        let batch_alarms = batch.detect_series(&series, &flows);
        let mut online = KlOnline::new(config);
        let records = series.records(&flows);
        let online_alarms: Vec<Alarm> = series
            .intervals
            .iter()
            .enumerate()
            .filter_map(|(t, stat)| online.push(stat, &records.interval(t)))
            .collect();
        prop_assert_eq!(batch_alarms, online_alarms);
    }

    /// Welford running moments track the exact two-pass threshold to
    /// floating-point tolerance over arbitrary score sequences.
    #[test]
    fn welford_threshold_matches_exact_within_tolerance(
        scores in prop::collection::vec(0.0f64..50.0, 1..300),
        sigma in 1.0f64..4.0,
    ) {
        let mut exact = ThresholdState::new(ThresholdMode::Exact);
        let mut welford = ThresholdState::new(ThresholdMode::Welford);
        for &score in &scores {
            exact.push(score);
            welford.push(score);
            let te = exact.threshold(sigma, 0.05);
            let tw = welford.threshold(sigma, 0.05);
            prop_assert!(
                (te - tw).abs() <= 1e-9 * te.abs().max(1.0),
                "thresholds drifted after {} scores: exact {} vs welford {}",
                exact.len(), te, tw
            );
        }
        prop_assert_eq!(welford.retained(), 3, "Welford must stay O(1)");
    }

    /// Incremental sliding PCA raises the same alarms as the refit
    /// reference; where they disagree, the interval must sit on the
    /// exact SPE-vs-limit decision boundary (floating-point coin flip).
    #[test]
    fn incremental_pca_matches_refit_alarms(
        seed in any::<u64>(),
        n_flows in 300usize..1_200,
        history in 8usize..20,
    ) {
        let (flows, span) = random_flows(seed, n_flows, 24);
        let series = IntervalSeries::cut(&flows, span, WIDTH_MS);
        let config = PcaConfig { interval_ms: WIDTH_MS, ..PcaConfig::default() };
        let mut incremental = PcaSliding::with_mode(config, history, PcaMode::Incremental);
        // Cross several rebuild/re-anchor boundaries per case instead
        // of the production cadence (1024 evictions) no 24-interval
        // series can reach.
        incremental.set_rebuild_every(3);
        let mut refit = PcaSliding::with_mode(config, history, PcaMode::Refit);
        for stat in &series.intervals {
            let a = incremental.push(stat);
            let b = refit.push(stat);
            if a.is_some() == b.is_some() {
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a.window, b.window);
                }
                continue;
            }
            // Divergence is only legitimate on the decision boundary.
            let on_boundary = [incremental.last_diag(), refit.last_diag()]
                .iter()
                .flatten()
                .any(|&(spe, limit)| {
                    limit.is_finite() && (spe - limit).abs() <= 1e-6 * limit.abs().max(1.0)
                });
            prop_assert!(
                on_boundary,
                "alarm disagreement off the boundary at {:?}: incremental {:?}, refit {:?}",
                stat.range, incremental.last_diag(), refit.last_diag()
            );
        }
    }
}

/// The two threshold modes agree alarm-for-alarm on generated
/// scenarios (clear signals, far from the decision boundary).
#[test]
fn welford_and_exact_agree_on_generated_scenarios() {
    for seed in [3u64, 17, 99, 2024] {
        let mut scenario = Scenario::new("kl-mode-eq", seed, Backbone::Switch);
        scenario.background.flows = 9_000;
        scenario.background.duration_ms = 12 * WIDTH_MS;
        let mut spec = AnomalySpec::template(
            AnomalyKind::PortScan,
            "10.44.0.5".parse().unwrap(),
            "172.20.3.3".parse().unwrap(),
        );
        spec.flows = 3_000;
        spec.start_ms = 9 * WIDTH_MS;
        spec.duration_ms = WIDTH_MS;
        let built = scenario.with_anomaly(spec).build();
        let flows = built.store.snapshot();
        let span = TimeRange::new(0, 12 * WIDTH_MS);

        let mut alarms_by_mode = Vec::new();
        for mode in [ThresholdMode::Exact, ThresholdMode::Welford] {
            let config = KlConfig { interval_ms: WIDTH_MS, threshold: mode, ..KlConfig::default() };
            let mut detector = KlDetector::new(config);
            alarms_by_mode.push(detector.detect(&flows, span));
        }
        let (exact, welford) = (&alarms_by_mode[0], &alarms_by_mode[1]);
        assert!(!exact.is_empty(), "seed {seed}: scenario must trip the detector");
        assert_eq!(exact.len(), welford.len(), "seed {seed}");
        for (a, b) in exact.iter().zip(welford) {
            assert_eq!(a.window, b.window, "seed {seed}");
            assert_eq!(a.hints, b.hints, "seed {seed}");
            assert!(
                (a.score - b.score).abs() <= 1e-9 * a.score.abs().max(1.0),
                "seed {seed}: scores drifted: {} vs {}",
                a.score,
                b.score
            );
        }
    }
}

// One pipeline definition shared with the fixture regenerator.
include!("fixtures/ensemble_corpus.rs");

/// Structural JSON equality with relative tolerance on floats: detector
/// scores shift at the ~1e-12 level between debug and release builds
/// (`powf`/`powi` lowering), so the golden check cannot be
/// byte-identical across profiles the way the integer-support miner
/// fixture is. Everything that is not a float must match exactly.
fn assert_json_approx_eq(got: &serde::Value, want: &serde::Value, path: &str) {
    use serde::Value;
    match (got, want) {
        (Value::F64(a), Value::F64(b)) => {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{path}: {a} != {b} beyond float tolerance"
            );
        }
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: array length");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_json_approx_eq(x, y, &format!("{path}[{i}]"));
            }
        }
        (Value::Object(a), Value::Object(b)) => {
            assert_eq!(
                a.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                b.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                "{path}: object keys"
            );
            for ((k, x), (_, y)) in a.iter().zip(b) {
                assert_json_approx_eq(x, y, &format!("{path}/{k}"));
            }
        }
        (a, b) => assert_eq!(a, b, "{path}"),
    }
}

#[test]
fn ensemble_pipeline_reproduces_the_golden_fixture() {
    let expected = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/ensemble_alarms_golden.json"
    ))
    .expect("golden fixture present (regenerate: cargo run --example golden_gen -- ensemble)");
    let got = ensemble_golden_json();
    let got: serde::Value = serde_json::from_str(&got).expect("run output parses");
    let want: serde::Value = serde_json::from_str(&expected).expect("fixture parses");
    assert_json_approx_eq(&got, &want, "");
}
