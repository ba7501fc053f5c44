//! Property tests for the detectors: entropy bounds, eigendecomposition
//! invariants, and detector sanity under arbitrary traffic.

use anomex_detect::interval::{bin_of, mining_values};
use anomex_detect::prelude::*;
use anomex_flow::prelude::*;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// The map-based KL path the bin-count summary replaced, kept as the
/// oracle: exact [`ValueDist`]s per feature, histograms re-binned from
/// them on every push, hint values picked from them.
mod reference {
    use super::*;

    /// Normalized histogram of a value distribution.
    pub fn histogram(dist: &ValueDist, bins_log2: u8) -> Vec<f64> {
        let mut h = vec![0.0f64; 1 << bins_log2];
        for (value, count) in dist.iter() {
            h[bin_of(value, bins_log2)] += count as f64;
        }
        let total: f64 = h.iter().sum();
        if total > 0.0 {
            for x in &mut h {
                *x /= total;
            }
        }
        h
    }

    fn kl_divergence(p: &[f64], q: &[f64]) -> f64 {
        let uniform = 1.0 / p.len() as f64;
        let mut kl = 0.0;
        for (&pi, &qi) in p.iter().zip(q) {
            if pi > 0.0 {
                let qi = (1.0 - 1e-3) * qi + 1e-3 * uniform;
                kl += pi * (pi / qi).log2();
            }
        }
        kl.max(0.0)
    }

    /// Values of the distribution inside the bins with the largest
    /// positive KL contribution.
    pub fn top_deviating_values(
        dist: &ValueDist,
        current: &[f64],
        baseline: &[f64],
        feature: Feature,
        bins_log2: u8,
        max: usize,
    ) -> Vec<FeatureItem> {
        let uniform = 1.0 / current.len() as f64;
        let mut contributions: Vec<(usize, f64)> = (0..current.len())
            .filter_map(|b| {
                let p = current[b];
                if p <= 0.0 {
                    return None;
                }
                let q = (1.0 - 1e-3) * baseline[b] + 1e-3 * uniform;
                let c = p * (p / q).log2();
                (c > 0.0).then_some((b, c))
            })
            .collect();
        contributions.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        contributions.truncate(max);
        let flagged: Vec<usize> = contributions.iter().map(|&(b, _)| b).collect();
        let mut candidates: Vec<(u32, u64)> =
            dist.iter().filter(|&(v, _)| flagged.contains(&bin_of(v, bins_log2))).collect();
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(max);
        candidates
            .into_iter()
            .filter_map(|(raw, _)| {
                FeatureItem::checked(feature, FeatureValue::from_raw(feature, raw)?)
            })
            .collect()
    }

    /// What one alarm carries: the worst flagged feature's
    /// `(score, threshold)`, the kind its flagged features imply, and
    /// the hints.
    pub type Verdict = (f64, f64, &'static str, Vec<FeatureItem>);

    /// The label `KlOnline` guesses from the flagged feature indices.
    fn kind(flagged: &[usize]) -> &'static str {
        let has = |f: usize| flagged.contains(&f);
        let (src_ip, dst_ip, dst_port) = (0, 1, 3);
        if has(dst_port) && has(src_ip) && !has(dst_ip) {
            "port scan"
        } else if has(dst_ip) && !has(dst_port) {
            "network scan"
        } else if has(src_ip) && has(dst_ip) {
            "flood"
        } else {
            "distribution change"
        }
    }

    /// `KlOnline` over exact distributions.
    pub struct Kl {
        config: KlConfig,
        recent: VecDeque<[Vec<f64>; 4]>,
        history: [ThresholdState; 4],
        t: usize,
    }

    impl Kl {
        pub fn new(config: KlConfig) -> Kl {
            Kl {
                config,
                recent: VecDeque::new(),
                history: std::array::from_fn(|_| ThresholdState::new(config.threshold)),
                t: 0,
            }
        }

        pub fn push(&mut self, dists: &[ValueDist; 4]) -> Option<Verdict> {
            let b = self.config.bins_log2;
            let hist: [Vec<f64>; 4] = std::array::from_fn(|f| histogram(&dists[f], b));
            let baselines: [Vec<f64>; 4] = std::array::from_fn(|f| {
                let mut avg = vec![0.0f64; 1 << b];
                for h in &self.recent {
                    for (a, &x) in avg.iter_mut().zip(&h[f]) {
                        *a += x;
                    }
                }
                if !self.recent.is_empty() {
                    for a in &mut avg {
                        *a /= self.recent.len() as f64;
                    }
                }
                avg
            });
            let kls: [f64; 4] = std::array::from_fn(|f| kl_divergence(&hist[f], &baselines[f]));
            let verdict = if self.t < self.config.min_training {
                if self.t > 0 {
                    for (history, &kl) in self.history.iter_mut().zip(&kls) {
                        history.push(kl);
                    }
                }
                None
            } else {
                let mut flagged: Vec<(usize, f64, f64)> = Vec::new();
                for (f, &kl) in kls.iter().enumerate() {
                    let threshold = self.history[f].threshold(self.config.sigma, self.config.floor);
                    if kl > threshold {
                        flagged.push((f, kl, threshold));
                    }
                }
                if flagged.is_empty() {
                    for (history, &kl) in self.history.iter_mut().zip(&kls) {
                        history.push(kl);
                    }
                    None
                } else {
                    let mut hints = Vec::new();
                    for &(f, _, _) in &flagged {
                        hints.extend(top_deviating_values(
                            &dists[f],
                            &hist[f],
                            &baselines[f],
                            Feature::MINING[f],
                            b,
                            self.config.hints_per_feature,
                        ));
                    }
                    let worst = flagged
                        .iter()
                        .max_by(|x, y| (x.1 / x.2).partial_cmp(&(y.1 / y.2)).unwrap())
                        .unwrap();
                    let features: Vec<usize> = flagged.iter().map(|&(f, _, _)| f).collect();
                    Some((worst.1, worst.2, kind(&features), hints))
                }
            };
            self.recent.push_back(hist);
            if self.recent.len() > self.config.window {
                self.recent.pop_front();
            }
            self.t += 1;
            verdict
        }
    }
}

/// Intervals of small-domain traffic (many values share a bin, many
/// counts tie), the last `anomalous` of them carrying a burst of
/// `burst_values` destination ports — each exactly `repeat` flows from
/// one source, so their counts tie too.
fn tie_heavy_intervals(
    seed: u64,
    intervals: usize,
    flows: u64,
    anomalous: usize,
    burst_values: u32,
    repeat: u32,
) -> Vec<Vec<FlowRecord>> {
    let mut rng = Xoshiro256::seeded(seed);
    (0..intervals)
        .map(|t| {
            let base = t as u64 * 60_000;
            let mut records: Vec<FlowRecord> = (0..flows + rng.next_below(flows / 4 + 1))
                .map(|i| {
                    FlowRecord::builder()
                        .time(base + i, base + i + 10)
                        .src(
                            Ipv4Addr::from(0x0A00_0000 + rng.next_below(24) as u32),
                            1_024 + rng.next_below(40) as u16,
                        )
                        .dst(
                            Ipv4Addr::from(0xAC10_0000 + rng.next_below(6) as u32),
                            [80, 443, 53, 8080][rng.next_below(4) as usize],
                        )
                        .volume(1, 100)
                        .build()
                })
                .collect();
            if t + anomalous >= intervals {
                for p in 0..burst_values {
                    for r in 0..repeat {
                        records.push(
                            FlowRecord::builder()
                                .time(base + 5 + r as u64, base + 6 + r as u64)
                                .src(Ipv4Addr::new(10, 66, 66, 66), 55_548)
                                .dst(Ipv4Addr::new(172, 16, 0, 99), 2_000 + p as u16)
                                .volume(1, 44)
                                .build(),
                        );
                    }
                }
            }
            records
        })
        .collect()
}

/// Feed `intervals` through `KlOnline` over a bins-only summary kept
/// at `bins_log2 + fold` bits and through the map-based oracle; every
/// histogram and every alarm — worst KL score, threshold (through the
/// severity), flagged features (through the kind) and hints — must
/// agree bit for bit. Returns the number of alarms raised.
fn assert_kl_matches_oracle(
    intervals: &[Vec<FlowRecord>],
    config: KlConfig,
    fold: u8,
) -> Result<usize, TestCaseError> {
    let spec = SummarySpec::bins(config.bins_log2 + fold);
    let mut online = KlOnline::new(config);
    let mut oracle = reference::Kl::new(config);
    let mut alarms = 0;
    for (t, records) in intervals.iter().enumerate() {
        let range = TimeRange::window_at(t as u64, 0, 60_000);
        let mut stat = IntervalStat::new(range, spec);
        let mut dists: [ValueDist; 4] = Default::default();
        for r in records {
            stat.add(r);
            for (dist, value) in dists.iter_mut().zip(mining_values(r)) {
                dist.add(value, 1);
            }
        }
        prop_assert!(stat.dists().is_none(), "a bins-only summary keeps no maps");
        for (f, dist) in dists.iter().enumerate() {
            let ours: Vec<u64> =
                stat.histogram(f, config.bins_log2).iter().map(|x| x.to_bits()).collect();
            let theirs: Vec<u64> =
                reference::histogram(dist, config.bins_log2).iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(ours, theirs, "histogram of feature {} interval {}", f, t);
        }
        match (online.push(&stat, records), oracle.push(&dists)) {
            (None, None) => {}
            (Some(alarm), Some((score, threshold, kind, hints))) => {
                prop_assert_eq!(alarm.window, range);
                prop_assert_eq!(alarm.score.to_bits(), score.to_bits());
                let expected = Alarm::new(0, "kl", range).with_score(score, threshold);
                prop_assert_eq!(alarm.severity, expected.severity);
                prop_assert_eq!(alarm.kind_hint.as_deref(), Some(kind));
                prop_assert_eq!(alarm.hints, hints, "hints of interval {}", t);
                alarms += 1;
            }
            (ours, theirs) => {
                prop_assert!(false, "alarm mismatch at interval {t}: {ours:?} vs {theirs:?}");
            }
        }
    }
    Ok(alarms)
}

proptest! {
    #![proptest_config(ProptestConfig::profile_cases(48))]

    /// 0 <= H <= log2(distinct); normalized entropy in [0, 1].
    #[test]
    fn entropy_bounds(values in prop::collection::vec((any::<u16>(), 1u64..1_000), 1..200)) {
        let mut d = ValueDist::new();
        for (v, w) in &values {
            d.add(*v as u32, *w);
        }
        let h = d.entropy();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (d.distinct() as f64).log2() + 1e-9, "H={h} distinct={}", d.distinct());
        let nh = d.normalized_entropy();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&nh));
    }

    /// Entropy is permutation-invariant in the value labels.
    #[test]
    fn entropy_label_invariant(weights in prop::collection::vec(1u64..500, 2..50), shift in any::<u32>()) {
        let mut a = ValueDist::new();
        let mut b = ValueDist::new();
        for (i, w) in weights.iter().enumerate() {
            a.add(i as u32, *w);
            b.add((i as u32).wrapping_add(shift), *w);
        }
        prop_assert!((a.entropy() - b.entropy()).abs() < 1e-9);
    }

    /// Jacobi reconstructs arbitrary symmetric matrices and returns an
    /// orthonormal eigenbasis.
    #[test]
    fn jacobi_invariants(seed in prop::collection::vec(-10.0f64..10.0, 10)) {
        // Build a symmetric 4x4 from 10 free coefficients.
        let mut m = Matrix::zeros(4, 4);
        let mut it = seed.iter();
        for r in 0..4 {
            for c in r..4 {
                let v = *it.next().unwrap();
                m.set(r, c, v);
                m.set(c, r, v);
            }
        }
        let (vals, vecs) = jacobi_eigen(&m);
        // Sorted descending.
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        // V D V^T == M.
        let mut d = Matrix::zeros(4, 4);
        for (i, &v) in vals.iter().enumerate() {
            d.set(i, i, v);
        }
        let rebuilt = vecs.matmul(&d).matmul(&vecs.transpose());
        for r in 0..4 {
            for c in 0..4 {
                prop_assert!((rebuilt.get(r, c) - m.get(r, c)).abs() < 1e-7);
            }
        }
        // Orthonormal columns.
        let gram = vecs.transpose().matmul(&vecs);
        for r in 0..4 {
            for c in 0..4 {
                let expect = if r == c { 1.0 } else { 0.0 };
                prop_assert!((gram.get(r, c) - expect).abs() < 1e-7);
            }
        }
    }

    /// Alarms (if any) always point inside the analyzed span and carry
    /// well-formed metadata, for arbitrary traffic.
    #[test]
    fn alarms_stay_in_span(
        seed in any::<u64>(),
        n_flows in 50usize..400,
        intervals in 6u64..12,
    ) {
        let width = 60_000u64;
        let span = TimeRange::new(0, intervals * width);
        let mut rng = Xoshiro256::seeded(seed);
        let flows: Vec<FlowRecord> = (0..n_flows)
            .map(|_| {
                let start = rng.next_below(intervals * width);
                FlowRecord::builder()
                    .time(start, (start + rng.next_below(5_000)).min(span.to_ms))
                    .src(Ipv4Addr::from(0x0A00_0000 + rng.next_below(256) as u32), 1024 + rng.next_below(60_000) as u16)
                    .dst(Ipv4Addr::from(0xAC10_0000 + rng.next_below(16) as u32), if rng.next_f64() < 0.5 { 80 } else { 443 })
                    .volume(1 + rng.next_below(100), 64 + rng.next_below(100_000))
                    .build()
            })
            .collect();

        let mut kl = KlDetector::new(KlConfig { interval_ms: width, ..KlConfig::default() });
        let mut pca = PcaDetector::new(PcaConfig { interval_ms: width, min_intervals: 6, ..PcaConfig::default() });
        for alarm in kl.detect(&flows, span).into_iter().chain(pca.detect(&flows, span)) {
            prop_assert!(alarm.window.from_ms >= span.from_ms);
            prop_assert!(alarm.window.to_ms <= span.to_ms);
            prop_assert!(alarm.score >= 0.0);
            for hint in &alarm.hints {
                // Hints must be internally consistent (feature/value kinds).
                prop_assert!(FeatureItem::checked(hint.feature, hint.value).is_some());
            }
        }
    }

    /// The interval series conserves flow and packet counts.
    #[test]
    fn series_conserves_volume(
        seed in any::<u64>(),
        n_flows in 1usize..300,
    ) {
        let span = TimeRange::new(0, 600_000);
        let mut rng = Xoshiro256::seeded(seed);
        let flows: Vec<FlowRecord> = (0..n_flows)
            .map(|_| {
                let start = rng.next_below(600_000);
                FlowRecord::builder()
                    .time(start, start)
                    .src(Ipv4Addr::from(rng.next_below(u32::MAX as u64 + 1) as u32), 1)
                    .dst(Ipv4Addr::from(1u32), 2)
                    .volume(1 + rng.next_below(1_000), 64)
                    .build()
            })
            .collect();
        let series = IntervalSeries::cut(&flows, span, 60_000);
        let total_flows: u64 = series.intervals.iter().map(|i| i.flows).sum();
        let total_packets: u64 = series.intervals.iter().map(|i| i.packets).sum();
        prop_assert_eq!(total_flows, n_flows as u64);
        prop_assert_eq!(total_packets, flows.iter().map(|f| f.packets).sum::<u64>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::profile_cases(48))]

    /// KL over bin counts is the map-based detector, bit for bit: at
    /// 4, 128 and 1024 bins, read directly or folded down from a finer
    /// summary, histograms, alarms with their scores and the hint
    /// values recovered from the records (ties included) all match the
    /// oracle.
    #[test]
    fn kl_on_bin_counts_matches_the_value_map_oracle(
        seed in any::<u64>(),
        resolution in 0usize..3,
        fold in 0u8..4,
        intervals in 6usize..12,
        flows in 20u64..160,
        anomalous in 0usize..3,
        burst_values in 1u32..12,
        repeat in 1u32..40,
        exact_threshold in any::<bool>(),
    ) {
        let config = KlConfig {
            interval_ms: 60_000,
            bins_log2: [2u8, 7, 10][resolution],
            threshold: if exact_threshold { ThresholdMode::Exact } else { ThresholdMode::Welford },
            ..KlConfig::default()
        };
        let intervals = tie_heavy_intervals(seed, intervals, flows, anomalous, burst_values, repeat);
        assert_kl_matches_oracle(&intervals, config, fold)?;
    }
}

/// The oracle comparison above is only as strong as the alarms it
/// sees: pin cases that do alarm, with a tie among the flagged bins'
/// candidates deciding which values make the hint cut.
#[test]
fn oracle_cases_alarm_and_break_ties_by_value() {
    for (bins_log2, fold) in [(2u8, 0u8), (7, 0), (7, 3), (10, 0), (4, 6)] {
        let config = KlConfig { interval_ms: 60_000, bins_log2, ..KlConfig::default() };
        // 8 burst ports x 25 flows each: every port ties at 25.
        let intervals = tie_heavy_intervals(11, 9, 120, 1, 8, 25);
        let alarms = assert_kl_matches_oracle(&intervals, config, fold).unwrap();
        assert!(alarms >= 1, "bins_log2={bins_log2} fold={fold}: the burst must alarm");
    }
    // Tie-break made visible: ports 2000..2008 tie; the hint cut keeps
    // the lowest ports among those sharing the flagged bins.
    let config = KlConfig { interval_ms: 60_000, bins_log2: 2, ..KlConfig::default() };
    let mut online = KlOnline::new(config);
    let mut last = None;
    for (t, records) in tie_heavy_intervals(11, 9, 120, 1, 8, 25).iter().enumerate() {
        let mut stat =
            IntervalStat::new(TimeRange::window_at(t as u64, 0, 60_000), config.summary());
        records.iter().for_each(|r| stat.add(r));
        last = online.push(&stat, records).or(last);
    }
    let alarm = last.expect("the burst alarms");
    let ports: Vec<u16> = alarm
        .hints
        .iter()
        .filter_map(|h| match (h.feature, h.value) {
            (Feature::DstPort, FeatureValue::Port(p)) if p >= 2_000 => Some(p),
            _ => None,
        })
        .collect();
    assert!(!ports.is_empty(), "burst ports missing from hints: {:?}", alarm.hints);
    let mut sorted = ports.clone();
    sorted.sort_unstable();
    assert_eq!(ports, sorted, "equal counts must break ties by ascending value");
}

/// End-to-end: both detectors flag a generated port scan embedded in
/// generated background, and the PCA meta-data names the victim or the
/// scanner.
#[test]
fn detectors_catch_generated_scan() {
    use anomex_gen::prelude::*;

    let width = 60_000u64;
    let intervals = 12u64;
    // Background across the whole window, scan confined to interval 9.
    let mut scenario = Scenario::new("det-e2e", 77, Backbone::Switch);
    scenario.background.duration_ms = intervals * width;
    scenario.background.flows = 12_000;
    let mut spec = AnomalySpec::template(
        AnomalyKind::PortScan,
        "10.103.0.66".parse().unwrap(),
        "172.20.1.40".parse().unwrap(),
    );
    spec.flows = 4_000;
    spec.start_ms = 9 * width;
    spec.duration_ms = width;
    let built = scenario.with_anomaly(spec).build();

    let flows = built.store.snapshot();
    let span = TimeRange::new(0, intervals * width);

    let mut kl = KlDetector::new(KlConfig { interval_ms: width, ..KlConfig::default() });
    let kl_alarms = kl.detect(&flows, span);
    assert!(
        kl_alarms.iter().any(|a| a.window.contains(9 * width)),
        "KL missed the scan: {:?}",
        kl_alarms.iter().map(|a| a.describe()).collect::<Vec<_>>()
    );

    let mut pca = PcaDetector::new(PcaConfig { interval_ms: width, ..PcaConfig::default() });
    let pca_alarms = pca.detect(&flows, span);
    let hit =
        pca_alarms.iter().find(|a| a.window.contains(9 * width)).expect("PCA missed the scan");
    let scanner: std::net::Ipv4Addr = "10.103.0.66".parse().unwrap();
    let victim: std::net::Ipv4Addr = "172.20.1.40".parse().unwrap();
    assert!(
        hit.hints.iter().any(|h| *h == FeatureItem::src_ip(scanner)
            || *h == FeatureItem::dst_ip(victim)
            || *h == FeatureItem::src_port(55_548)),
        "PCA meta-data useless: {:?}",
        hit.hints
    );
}
