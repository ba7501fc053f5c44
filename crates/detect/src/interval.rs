//! Per-interval traffic summaries.
//!
//! Both detectors consume the same shape of input: the trace cut into
//! fixed-width intervals, each summarized by volume counters and by the
//! per-feature counts its detectors read (srcIP, dstIP, srcPort,
//! dstPort). What a summary keeps is set by a [`SummarySpec`]: fixed
//! per-feature bin counts for the histogram (KL) detector — O(bins),
//! whatever the traffic's diversity — and, only when an entropy
//! detector needs them, the exact [`ValueDist`] per feature.
//! [`IntervalSeries`] is the cut; [`IntervalRecords`] is how a detector
//! reaches the records behind a summary when it must name concrete
//! values.

use std::cell::OnceCell;
use std::collections::HashMap;

use anomex_flow::feature::Feature;
use anomex_flow::record::FlowRecord;
use anomex_flow::store::TimeRange;

use crate::fasthash::FxBuildHasher;

/// Bin resolution of the default KL configuration (128 bins, the
/// TNSM range).
pub const DEFAULT_BINS_LOG2: u8 = 7;

/// Finest bin resolution a summary may keep (65 536 bins per feature).
pub const MAX_BINS_LOG2: u8 = 16;

/// Multiply-shift hash of a feature value into `2^bins_log2` bins.
///
/// The bin index is the top `bins_log2` bits of one 32-bit product, so
/// a coarser resolution is the finer bin shifted right:
/// `bin_of(v, b - k) == bin_of(v, b) >> k`. That is what lets one
/// summary at the finest registered resolution serve every coarser
/// histogram exactly.
#[inline]
pub fn bin_of(value: u32, bins_log2: u8) -> usize {
    debug_assert!((1..=MAX_BINS_LOG2).contains(&bins_log2), "bins_log2 out of range");
    (value.wrapping_mul(0x9E37_79B1) >> (32 - u32::from(bins_log2))) as usize
}

/// The four mining-feature values of a record, indexed like
/// [`Feature::MINING`] (`FeatureValue::raw` of each).
#[inline]
pub fn mining_values(r: &FlowRecord) -> [u32; 4] {
    [u32::from(r.src_ip), u32::from(r.dst_ip), u32::from(r.src_port), u32::from(r.dst_port)]
}

/// What an [`IntervalStat`] keeps beyond its volume counters.
///
/// Detectors declare the summary they read; a pipeline keeps the
/// [`union`](SummarySpec::union) of its detectors' specs, so the
/// per-record cost is what the registered detectors need and no more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SummarySpec {
    /// log2 of the bin count kept per feature; 0 keeps no bins.
    pub bins_log2: u8,
    /// Keep the exact value → count map of every feature
    /// ([`ValueDist`]).
    pub exact: bool,
}

impl SummarySpec {
    /// Volume counters only.
    pub const VOLUMES: SummarySpec = SummarySpec { bins_log2: 0, exact: false };

    /// Exact per-value distributions, no bins — what entropy detectors
    /// read.
    pub const EXACT: SummarySpec = SummarySpec { bins_log2: 0, exact: true };

    /// `2^bins_log2` bin counts per feature, no exact distributions —
    /// what a histogram detector reads.
    pub const fn bins(bins_log2: u8) -> SummarySpec {
        SummarySpec { bins_log2, exact: false }
    }

    /// The smallest summary that serves readers of both specs: the
    /// finer bin resolution, exact maps if either needs them.
    pub fn union(self, other: SummarySpec) -> SummarySpec {
        SummarySpec {
            bins_log2: self.bins_log2.max(other.bins_log2),
            exact: self.exact || other.exact,
        }
    }
}

impl Default for SummarySpec {
    /// Everything the built-in detectors read at their default
    /// settings: [`DEFAULT_BINS_LOG2`] bins and the exact maps.
    fn default() -> SummarySpec {
        SummarySpec { bins_log2: DEFAULT_BINS_LOG2, exact: true }
    }
}

/// Empirical distribution of one feature over one interval: raw feature
/// value (`FeatureValue::raw`) → flow count.
///
/// Kept only when a detector reads per-value probabilities (the
/// entropy-PCA detector); histogram detectors read
/// [`IntervalStat::bin_counts`] instead. The map hashes with
/// [`crate::fasthash`] rather than SipHash — the values are plain
/// feature words, not attacker-supplied keys worth DoS-hardening at
/// 4× the per-record cost.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValueDist {
    counts: HashMap<u32, u64, FxBuildHasher>,
    total: u64,
}
impl ValueDist {
    /// Empty distribution.
    pub fn new() -> ValueDist {
        ValueDist::default()
    }

    /// Count one observation of `value` with weight `w`.
    pub fn add(&mut self, value: u32, w: u64) {
        *self.counts.entry(value).or_default() += w;
        self.total += w;
    }

    /// Total weight observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Weight of one value.
    pub fn count(&self, value: u32) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Iterate `(value, count)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&v, &c)| (v, c))
    }

    /// Sample entropy `H = -Σ p_i log2 p_i` in bits.
    ///
    /// Returns 0 for empty and single-value distributions.
    pub fn entropy(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        let mut h = 0.0;
        for &c in self.counts.values() {
            if c > 0 {
                let p = c as f64 / total;
                h -= p * p.log2();
            }
        }
        h.max(0.0)
    }

    /// Entropy normalized into `[0, 1]` by `log2(distinct)` — the form
    /// Lakhina et al. use so dimensions are comparable.
    pub fn normalized_entropy(&self) -> f64 {
        let n = self.distinct();
        if n <= 1 {
            return 0.0;
        }
        self.entropy() / (n as f64).log2()
    }

    /// The `n` heaviest values, descending by weight (ties by value for
    /// determinism).
    pub fn top_n(&self, n: usize) -> Vec<(u32, u64)> {
        let mut all: Vec<(u32, u64)> = self.iter().collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Probability of one value (0 when the distribution is empty).
    pub fn probability(&self, value: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(value) as f64 / self.total as f64
        }
    }

    /// Fold another distribution into this one (counts add).
    pub fn merge(&mut self, other: &ValueDist) {
        for (&value, &count) in &other.counts {
            *self.counts.entry(value).or_default() += count;
        }
        self.total += other.total;
    }
}

/// One interval's summary: volumes plus the per-feature counts its
/// [`SummarySpec`] keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStat {
    /// The interval.
    pub range: TimeRange,
    /// Flow records observed (start falling in the interval).
    pub flows: u64,
    /// Packet total.
    pub packets: u64,
    /// Byte total.
    pub bytes: u64,
    bins_log2: u8,
    /// `4 << bins_log2` flow counts, feature-major in
    /// [`Feature::MINING`] order; empty when no bins are kept.
    bins: Vec<u64>,
    /// Exact distribution per mining feature, when kept.
    dists: Option<Box<[ValueDist; 4]>>,
}

impl IntervalStat {
    /// Empty summary of `range` keeping what `spec` asks for.
    ///
    /// # Panics
    /// Panics if `spec.bins_log2` exceeds [`MAX_BINS_LOG2`].
    pub fn new(range: TimeRange, spec: SummarySpec) -> IntervalStat {
        assert!(spec.bins_log2 <= MAX_BINS_LOG2, "bins_log2 out of range");
        let bins = if spec.bins_log2 == 0 { Vec::new() } else { vec![0; 4 << spec.bins_log2] };
        IntervalStat {
            range,
            flows: 0,
            packets: 0,
            bytes: 0,
            bins_log2: spec.bins_log2,
            bins,
            dists: spec.exact.then(Box::default),
        }
    }

    /// Empty summary of `range` under the default [`SummarySpec`]
    /// (everything the built-in detectors read at default settings).
    pub fn empty(range: TimeRange) -> IntervalStat {
        IntervalStat::new(range, SummarySpec::default())
    }

    /// What this summary keeps.
    pub fn spec(&self) -> SummarySpec {
        SummarySpec { bins_log2: self.bins_log2, exact: self.dists.is_some() }
    }

    /// Account one record (flow-weighted counts, as in the paper's
    /// detectors): volumes, then one bin increment — plus one map
    /// insert when exact distributions are kept — per mining feature.
    #[inline]
    pub fn add(&mut self, r: &FlowRecord) {
        self.flows += 1;
        self.packets += r.packets;
        self.bytes += r.bytes;
        for (f, value) in mining_values(r).into_iter().enumerate() {
            self.add_value(f, value, 1);
        }
    }

    /// Count `weight` observations of raw value `value` of mining
    /// feature `feature` (an index into [`Feature::MINING`]) without
    /// touching the volume counters — for summaries built from
    /// pre-aggregated counts rather than records.
    #[inline]
    pub fn add_value(&mut self, feature: usize, value: u32, weight: u64) {
        if self.bins_log2 > 0 {
            self.bins[(feature << self.bins_log2) | bin_of(value, self.bins_log2)] += weight;
        }
        if let Some(dists) = &mut self.dists {
            dists[feature].add(value, weight);
        }
    }

    /// Fold another shard's summary of the **same** interval into this
    /// one — how the window manager combines per-shard partials into
    /// the full interval summary without re-scanning any flow. With no
    /// exact maps kept this is a vector add over the bin counts.
    ///
    /// # Panics
    /// Panics if the two summaries keep different [`SummarySpec`]s.
    pub fn merge(&mut self, other: &IntervalStat) {
        debug_assert_eq!(self.range, other.range, "merging different intervals");
        assert_eq!(self.spec(), other.spec(), "merging summaries of different specs");
        self.flows += other.flows;
        self.packets += other.packets;
        self.bytes += other.bytes;
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        if let (Some(mine), Some(theirs)) = (&mut self.dists, &other.dists) {
            for (mine, theirs) in mine.iter_mut().zip(theirs.iter()) {
                mine.merge(theirs);
            }
        }
    }

    /// Flow counts per bin of mining feature `feature` (an index into
    /// [`Feature::MINING`]), at the kept resolution; empty when no
    /// bins are kept.
    pub fn bin_counts(&self, feature: usize) -> &[u64] {
        let n = if self.bins_log2 == 0 { 0 } else { 1usize << self.bins_log2 };
        &self.bins[feature * n..(feature + 1) * n]
    }

    /// Normalized `2^bins_log2`-bin histogram of mining feature
    /// `feature`, folded down from the kept resolution (bin `b` at the
    /// kept resolution lands in `b >> shift`). Counts are summed as
    /// integers and converted once, so the result is exact whatever
    /// the fold.
    ///
    /// # Panics
    /// Panics if `bins_log2` is 0 or finer than the kept resolution.
    pub fn histogram(&self, feature: usize, bins_log2: u8) -> Vec<f64> {
        assert!(
            bins_log2 >= 1 && bins_log2 <= self.bins_log2,
            "a {bins_log2}-bit histogram needs a summary keeping at least that many bin bits \
             (this one keeps {})",
            self.bins_log2
        );
        let shift = self.bins_log2 - bins_log2;
        let mut counts = vec![0u64; 1usize << bins_log2];
        for (b, &c) in self.bin_counts(feature).iter().enumerate() {
            counts[b >> shift] += c;
        }
        let mut h: Vec<f64> = counts.into_iter().map(|c| c as f64).collect();
        let total: f64 = h.iter().sum();
        if total > 0.0 {
            for x in &mut h {
                *x /= total;
            }
        }
        h
    }

    /// The exact distributions, indexed like [`Feature::MINING`], when
    /// kept.
    pub fn dists(&self) -> Option<&[ValueDist; 4]> {
        self.dists.as_deref()
    }

    /// The exact distribution of `feature`, if it is a mining feature
    /// and exact distributions are kept.
    pub fn dist(&self, feature: Feature) -> Option<&ValueDist> {
        let dists = self.dists()?;
        Feature::MINING.iter().position(|&f| f == feature).map(|i| &dists[i])
    }

    /// Entropy vector over the four mining features (normalized).
    ///
    /// # Panics
    /// Panics when the summary keeps no exact distributions.
    pub fn entropy_vector(&self) -> [f64; 4] {
        let dists = self.dists().expect("entropy needs a summary keeping the exact distributions");
        std::array::from_fn(|f| dists[f].normalized_entropy())
    }
}

/// The flow records an interval summary was built from: where a
/// detector that keeps only bin counts goes back for concrete values
/// when it alarms.
pub trait IntervalRecords {
    /// Visit every record of the interval.
    fn for_each_record(&self, visit: &mut dyn FnMut(&FlowRecord));
}

impl<T: AsRef<[FlowRecord]>> IntervalRecords for T {
    fn for_each_record(&self, visit: &mut dyn FnMut(&FlowRecord)) {
        self.as_ref().iter().for_each(visit);
    }
}

/// The records behind an [`IntervalSeries`], reached interval by
/// interval ([`interval`](SeriesRecords::interval)).
///
/// The trace is grouped by interval once, on the first read — a
/// counting sort of record positions under the rule the cut applied —
/// so every read after it visits that interval's records alone, not the
/// whole trace. A series that never alarms never pays for the grouping.
#[derive(Debug)]
pub struct SeriesRecords<'a> {
    flows: &'a [FlowRecord],
    base: u64,
    width_ms: u64,
    intervals: usize,
    /// `(starts, order)`: interval `t`'s records sit at positions
    /// `order[starts[t]..starts[t + 1]]` of `flows`.
    grouped: OnceCell<(Vec<usize>, Vec<usize>)>,
}

impl<'a> SeriesRecords<'a> {
    /// The records of interval `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn interval(&self, index: usize) -> SeriesInterval<'_> {
        assert!(index < self.intervals, "interval {index} out of range");
        SeriesInterval { records: self, index }
    }

    /// The interval `f` was counted in, if any.
    fn interval_of(&self, f: &FlowRecord) -> Option<usize> {
        let idx = f.start_ms.checked_sub(self.base)? / self.width_ms;
        (idx < self.intervals as u64).then_some(idx as usize)
    }

    fn grouped(&self) -> &(Vec<usize>, Vec<usize>) {
        self.grouped.get_or_init(|| {
            let mut starts = vec![0usize; self.intervals + 1];
            for f in self.flows {
                if let Some(t) = self.interval_of(f) {
                    starts[t + 1] += 1;
                }
            }
            for t in 0..self.intervals {
                starts[t + 1] += starts[t];
            }
            let mut next = starts.clone();
            let mut order = vec![0usize; starts[self.intervals]];
            for (i, f) in self.flows.iter().enumerate() {
                if let Some(t) = self.interval_of(f) {
                    order[next[t]] = i;
                    next[t] += 1;
                }
            }
            (starts, order)
        })
    }
}

/// The records of one interval of an [`IntervalSeries`], in trace
/// order; see [`SeriesRecords::interval`].
#[derive(Debug, Clone, Copy)]
pub struct SeriesInterval<'s> {
    records: &'s SeriesRecords<'s>,
    index: usize,
}

impl IntervalRecords for SeriesInterval<'_> {
    fn for_each_record(&self, visit: &mut dyn FnMut(&FlowRecord)) {
        let (starts, order) = self.records.grouped();
        for &i in &order[starts[self.index]..starts[self.index + 1]] {
            visit(&self.records.flows[i]);
        }
    }
}

/// A trace cut into fixed-width intervals.
#[derive(Debug, Clone)]
pub struct IntervalSeries {
    /// Interval width, milliseconds.
    pub width_ms: u64,
    /// Per-interval summaries, in time order, gapless across the span.
    pub intervals: Vec<IntervalStat>,
}

impl IntervalSeries {
    /// Cut `flows` into `width_ms` intervals across `span`, each
    /// summarized under the default [`SummarySpec`].
    ///
    /// Records are assigned to the interval containing their start
    /// timestamp — the NetFlow convention for 5-minute bins. Records
    /// outside `span` are ignored.
    ///
    /// # Panics
    /// Panics if `width_ms == 0`.
    pub fn cut(flows: &[FlowRecord], span: TimeRange, width_ms: u64) -> IntervalSeries {
        IntervalSeries::cut_with(flows, span, width_ms, SummarySpec::default())
    }

    /// [`cut`](IntervalSeries::cut) keeping only what `spec` asks for.
    ///
    /// # Panics
    /// Panics if `width_ms == 0`.
    pub fn cut_with(
        flows: &[FlowRecord],
        span: TimeRange,
        width_ms: u64,
        spec: SummarySpec,
    ) -> IntervalSeries {
        assert!(width_ms > 0, "interval width must be positive");
        let ranges = span.intervals(width_ms);
        let mut intervals: Vec<IntervalStat> =
            ranges.iter().map(|r| IntervalStat::new(*r, spec)).collect();
        if intervals.is_empty() {
            return IntervalSeries { width_ms, intervals };
        }
        let base = span.from_ms;
        for f in flows {
            if f.start_ms < base {
                continue;
            }
            let idx = ((f.start_ms - base) / width_ms) as usize;
            if let Some(slot) = intervals.get_mut(idx) {
                slot.add(f);
            }
        }
        IntervalSeries { width_ms, intervals }
    }

    /// The records behind this series within `flows`, the trace it was
    /// cut from.
    pub fn records<'a>(&self, flows: &'a [FlowRecord]) -> SeriesRecords<'a> {
        SeriesRecords {
            flows,
            base: self.intervals.first().map_or(0, |s| s.range.from_ms),
            width_ms: self.width_ms,
            intervals: self.intervals.len(),
            grouped: OnceCell::new(),
        }
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when the series holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomex_flow::record::FlowRecord;
    use std::net::Ipv4Addr;

    fn flow(start: u64, src: &str, dport: u16, packets: u64) -> FlowRecord {
        FlowRecord::builder()
            .time(start, start + 100)
            .src(src.parse::<Ipv4Addr>().unwrap(), 4000)
            .dst("172.16.0.1".parse().unwrap(), dport)
            .volume(packets, packets * 100)
            .build()
    }

    #[test]
    fn entropy_of_uniform_is_log2_n() {
        let mut d = ValueDist::new();
        for v in 0..8 {
            d.add(v, 5);
        }
        assert!((d.entropy() - 3.0).abs() < 1e-12);
        assert!((d.normalized_entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        let mut d = ValueDist::new();
        d.add(42, 1000);
        assert_eq!(d.entropy(), 0.0);
        assert_eq!(d.normalized_entropy(), 0.0);
    }

    #[test]
    fn entropy_of_empty_is_zero() {
        assert_eq!(ValueDist::new().entropy(), 0.0);
    }

    #[test]
    fn entropy_decreases_with_concentration() {
        let mut flat = ValueDist::new();
        let mut spiky = ValueDist::new();
        for v in 0..100 {
            flat.add(v, 10);
            spiky.add(v, 1);
        }
        spiky.add(7, 900);
        assert!(spiky.normalized_entropy() < flat.normalized_entropy());
    }

    #[test]
    fn top_n_orders_by_weight_then_value() {
        let mut d = ValueDist::new();
        d.add(5, 10);
        d.add(3, 10);
        d.add(9, 50);
        assert_eq!(d.top_n(2), vec![(9, 50), (3, 10)]);
    }

    #[test]
    fn probability_sums_to_one() {
        let mut d = ValueDist::new();
        d.add(1, 3);
        d.add(2, 7);
        let sum: f64 = d.iter().map(|(v, _)| d.probability(v)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_assigns_by_start_time() {
        let flows = vec![
            flow(0, "10.0.0.1", 80, 2),
            flow(59_999, "10.0.0.2", 80, 2),
            flow(60_000, "10.0.0.3", 53, 4),
        ];
        let series = IntervalSeries::cut(&flows, TimeRange::new(0, 120_000), 60_000);
        assert_eq!(series.len(), 2);
        assert_eq!(series.intervals[0].flows, 2);
        assert_eq!(series.intervals[1].flows, 1);
        assert_eq!(series.intervals[1].packets, 4);
    }

    #[test]
    fn cut_ignores_out_of_span_records() {
        let flows = vec![flow(500_000, "10.0.0.1", 80, 1)];
        let series = IntervalSeries::cut(&flows, TimeRange::new(0, 120_000), 60_000);
        assert_eq!(series.intervals.iter().map(|i| i.flows).sum::<u64>(), 0);
    }

    #[test]
    fn interval_stat_tracks_all_four_features() {
        let mut stat = IntervalStat::empty(TimeRange::new(0, 1000));
        stat.add(&flow(10, "10.0.0.1", 80, 3));
        stat.add(&flow(20, "10.0.0.2", 80, 3));
        assert_eq!(stat.dist(Feature::SrcIp).unwrap().distinct(), 2);
        assert_eq!(stat.dist(Feature::DstPort).unwrap().distinct(), 1);
        assert_eq!(stat.dist(Feature::Proto), None, "proto is not a mining feature");
    }

    #[test]
    fn merged_shard_stats_equal_unsharded_stat() {
        let flows: Vec<FlowRecord> = (0..40)
            .map(|i| flow(i, &format!("10.0.0.{}", i % 7), 80 + (i % 3) as u16, 2))
            .collect();
        let range = TimeRange::new(0, 1000);
        let mut whole = IntervalStat::empty(range);
        let mut shards = [IntervalStat::empty(range), IntervalStat::empty(range)];
        for f in &flows {
            whole.add(f);
            shards[(f.key().stable_hash() % 2) as usize].add(f);
        }
        let mut merged = shards[0].clone();
        merged.merge(&shards[1]);
        assert_eq!(merged, whole);
    }

    #[test]
    fn coarser_bin_is_the_finer_bin_shifted() {
        for v in [0u32, 1, 80, 443, 65_535, 0x0A00_0001, u32::MAX] {
            for fine in 2..=MAX_BINS_LOG2 {
                for coarse in 1..=fine {
                    assert_eq!(bin_of(v, coarse), bin_of(v, fine) >> (fine - coarse));
                }
            }
        }
    }

    #[test]
    fn bins_only_summary_keeps_no_maps_and_merges_as_a_vector_add() {
        let range = TimeRange::new(0, 1000);
        let spec = SummarySpec::bins(7);
        let mut whole = IntervalStat::new(range, spec);
        let mut shards = [IntervalStat::new(range, spec), IntervalStat::new(range, spec)];
        for i in 0..50u64 {
            let f = flow(i, &format!("10.0.0.{}", i % 9), 80 + (i % 4) as u16, 1);
            whole.add(&f);
            shards[(i % 2) as usize].add(&f);
        }
        assert!(whole.dists().is_none() && whole.dist(Feature::SrcIp).is_none());
        assert_eq!(whole.spec(), spec);
        assert_eq!(whole.bin_counts(0).iter().sum::<u64>(), 50);
        let mut merged = shards[0].clone();
        merged.merge(&shards[1]);
        assert_eq!(merged, whole);
    }

    #[test]
    fn folded_histogram_equals_one_cut_at_the_coarse_resolution() {
        let range = TimeRange::new(0, 1000);
        let mut fine = IntervalStat::new(range, SummarySpec::bins(10));
        let mut coarse = IntervalStat::new(range, SummarySpec::bins(4));
        for i in 0..300u64 {
            let f = flow(i, &format!("10.{}.0.{}", i % 5, i % 61), (i * 37 % 1000) as u16, 1);
            fine.add(&f);
            coarse.add(&f);
        }
        for feature in 0..4 {
            assert_eq!(fine.histogram(feature, 4), coarse.histogram(feature, 4));
        }
    }

    #[test]
    fn spec_union_takes_the_finer_bins_and_any_exact_need() {
        let both = SummarySpec::bins(7).union(SummarySpec::EXACT).union(SummarySpec::bins(4));
        assert_eq!(both, SummarySpec { bins_log2: 7, exact: true });
        assert_eq!(SummarySpec::VOLUMES.union(SummarySpec::bins(4)), SummarySpec::bins(4));
    }

    #[test]
    fn series_records_are_the_records_each_interval_counted() {
        let mut flows: Vec<FlowRecord> =
            (0..90u64).map(|i| flow(i * 2_000 + 5, "10.0.0.1", 80, 1)).collect();
        flows.insert(0, flow(0, "10.0.0.1", 80, 1));
        flows.push(flow(180_005, "10.0.0.1", 80, 1));
        let span = TimeRange::new(5, 180_005);
        let series = IntervalSeries::cut_with(&flows, span, 60_000, SummarySpec::VOLUMES);
        let records = series.records(&flows);
        let mut seen = Vec::new();
        for (t, stat) in series.intervals.iter().enumerate() {
            let mut n = 0u64;
            records.interval(t).for_each_record(&mut |r| {
                assert!(stat.range.contains(r.start_ms));
                seen.push(r.start_ms);
                n += 1;
            });
            assert_eq!(n, stat.flows);
        }
        // Trace order within and across intervals; the records before
        // and after the span belong to no interval.
        let expected: Vec<u64> = flows[1..91].iter().map(|f| f.start_ms).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn entropy_vector_reacts_to_port_scan_shape() {
        // Scan: one src, one dst, many dst ports -> dstPort entropy up.
        let mut normal = IntervalStat::empty(TimeRange::new(0, 1000));
        let mut scan = IntervalStat::empty(TimeRange::new(0, 1000));
        for i in 0..200u16 {
            normal.add(&flow(1, &format!("10.0.{}.{}", i % 4, i % 50), 80, 1));
            scan.add(&flow(1, "10.0.0.9", i + 1, 1));
        }
        let n = normal.entropy_vector();
        let s = scan.entropy_vector();
        assert!(s[3] > n[3], "dstPort entropy should spike: {s:?} vs {n:?}");
        assert!(s[0] < n[0], "srcIP entropy should collapse");
    }
}
