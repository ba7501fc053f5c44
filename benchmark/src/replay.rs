//! The single-threaded replay: the same job as a threaded run, driven
//! through each layer's public functions in pipeline order — decode →
//! route → `ShardWindows` → `WindowManager` → `DetectorBank` →
//! `ContinuousExtractor` — with a span around every call.
//!
//! It is the baseline the threaded run's speed-up is measured against,
//! the oracle of the correctness gate, and the source of the per-layer
//! time shares. Its spans are timed from here, outside the program.

use std::time::Instant;

use anomex_flow::record::FlowRecord;
use anomex_flow::v9;
use anomex_obs::{MetricDef, MetricKind, Registry};
use anomex_stream::prelude::*;

use crate::gate::Outcome;
use crate::trace::{ns_since, Span};
use crate::workload::{stream_config, Inputs, Payload};

/// The layers a replay times. `Encode` and `Mine` run inside `Extract`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `flow::v9::decode`.
    Decode,
    /// Shard choice (`FlowKey::shard`) into per-shard buffers.
    Route,
    /// `ShardWindows::push`.
    Apply,
    /// `ShardWindows::close_up_to` / `flush`.
    Close,
    /// `WindowManager::offer` / `finish`.
    Merge,
    /// `DetectorBank::push_window`.
    Detect,
    /// `ContinuousExtractor::push_window`.
    Extract,
    /// Candidate encoding inside `Extract` (its `instrument` hook).
    Encode,
    /// Itemset mining inside `Extract` (its `instrument` hook).
    Mine,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 9] = [
        Layer::Decode,
        Layer::Route,
        Layer::Apply,
        Layer::Close,
        Layer::Merge,
        Layer::Detect,
        Layer::Extract,
        Layer::Encode,
        Layer::Mine,
    ];

    /// Span name (the `obs` catalog's stage name where it has one).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Decode => "flow.decode",
            Layer::Route => "ingest.route",
            Layer::Apply => "shard.apply",
            Layer::Close => "shard.close",
            Layer::Merge => "merge.offer",
            Layer::Detect => "detect.kl.push",
            Layer::Extract => "extract.push",
            Layer::Encode => "extract.encode",
            Layer::Mine => "extract.mine",
        }
    }

    /// True for the layers nested inside another.
    pub fn is_nested(self) -> bool {
        matches!(self, Layer::Encode | Layer::Mine)
    }
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Windows, alarms, drops and reports, for the gate.
    pub outcome: Outcome,
    /// Records replayed.
    pub records: u64,
    /// Records in packets that failed to decode.
    pub undecoded: u64,
    /// Wall time of the whole replay.
    pub wall_ns: u64,
    /// Total time per layer, indexed like [`Layer::ALL`].
    pub layer_ns: [u64; 9],
    /// Warm-dictionary hits and misses over every encoding.
    pub dict_hits: u64,
    /// See `dict_hits`.
    pub dict_misses: u64,
    /// The spans, when kept; the first is the replay itself.
    pub spans: Vec<Span>,
}

impl Replay {
    /// Total time of one layer.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer as usize]
    }

    /// `Extract`'s self time: candidate selection, retention and
    /// report assembly.
    pub fn extract_self_ns(&self) -> u64 {
        self.ns(Layer::Extract).saturating_sub(self.ns(Layer::Encode) + self.ns(Layer::Mine))
    }

    /// The replays of several segments as one: counts, times and
    /// reports summed in segment order; the spans are the first's.
    pub fn total(replays: &[Replay]) -> Replay {
        let mut total = replays[0].clone();
        for r in &replays[1..] {
            total.outcome.windows += r.outcome.windows;
            total.outcome.alarms += r.outcome.alarms;
            total.outcome.dropped += r.outcome.dropped;
            total.outcome.reports.extend_from_slice(&r.outcome.reports);
            total.records += r.records;
            total.undecoded += r.undecoded;
            total.wall_ns += r.wall_ns;
            for (sum, ns) in total.layer_ns.iter_mut().zip(r.layer_ns) {
                *sum += ns;
            }
            total.dict_hits += r.dict_hits;
            total.dict_misses += r.dict_misses;
        }
        total
    }

    /// Wall time no layer span covers (loop glue in the replay itself).
    pub fn unattributed_ns(&self) -> u64 {
        let covered: u64 = Layer::ALL.iter().filter(|l| !l.is_nested()).map(|&l| self.ns(l)).sum();
        self.wall_ns.saturating_sub(covered)
    }
}

/// Span bookkeeping: per-layer totals always, individual spans on request.
struct Ledger {
    origin: Instant,
    keep: bool,
    totals: [u64; 9],
    spans: Vec<Span>,
}

impl Ledger {
    fn add(&mut self, layer: Layer, start: Instant, end: Instant, parent: Option<usize>) -> usize {
        let (start_ns, end_ns) = (ns_since(self.origin, start), ns_since(self.origin, end));
        self.add_ns(layer, start_ns, end_ns, parent)
    }

    fn add_ns(&mut self, layer: Layer, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.totals[layer as usize] += end_ns - start_ns;
        if self.keep {
            self.spans.push(Span { name: layer.name(), start_ns, end_ns, thread: 0, parent });
        }
        self.spans.len().saturating_sub(1)
    }

    fn root(&self) -> Option<usize> {
        self.keep.then_some(0)
    }
}

fn def(name: &'static str, kind: MetricKind, unit: &'static str) -> MetricDef {
    MetricDef { name, kind, unit, stage: "extract", help: "benchmark replay hook" }
}

/// The detector and extractor stages of a replay.
struct Tail {
    bank: DetectorBank,
    extractor: ContinuousExtractor,
    encode: anomex_obs::StageTimer,
    mine: anomex_obs::StageTimer,
    hits: anomex_obs::Counter,
    misses: anomex_obs::Counter,
    windows: u64,
    alarms: u64,
    reports: Vec<StreamReport>,
}

impl Tail {
    fn process(&mut self, ledger: &mut Ledger, ready: Vec<ClosedWindow>) {
        for window in ready {
            self.windows += 1;
            let t0 = Instant::now();
            let alarms = self.bank.push_window(&window);
            let t1 = Instant::now();
            ledger.add(Layer::Detect, t0, t1, ledger.root());
            self.alarms += alarms.len() as u64;
            let (encode0, mine0) = (self.encode.histogram().sum(), self.mine.histogram().sum());
            let t2 = Instant::now();
            let reports = self.extractor.push_window(window, &alarms);
            let t3 = Instant::now();
            let parent = ledger.add(Layer::Extract, t2, t3, ledger.root());
            // The hooks give durations, not positions: the children are
            // laid out back to back from the parent's start.
            let start = ns_since(ledger.origin, t2);
            let encode = self.encode.histogram().sum() - encode0;
            let mine = self.mine.histogram().sum() - mine0;
            let parent = ledger.keep.then_some(parent);
            ledger.add_ns(Layer::Encode, start, start + encode, parent);
            ledger.add_ns(Layer::Mine, start + encode, start + encode + mine, parent);
            self.reports.extend(reports);
        }
    }
}

/// Replay `inputs` on one thread. `keep_spans` keeps every span in
/// memory (per-layer totals are kept either way).
pub fn replay(inputs: &Inputs, keep_spans: bool) -> Replay {
    let config = stream_config(inputs.span);
    let shards = config.shards;
    let window_config = config.window_config();
    let registry = Registry::new();
    let mut extractor = ContinuousExtractor::new(config.extractor, config.retain_windows);
    let encode = registry.timer(&def("bench.replay.encode_ns", MetricKind::Histogram, "ns"));
    let mine = registry.timer(&def("bench.replay.mine_ns", MetricKind::Histogram, "ns"));
    let hits = registry.counter(&def("bench.replay.dict_hits", MetricKind::Counter, "items"));
    let misses = registry.counter(&def("bench.replay.dict_misses", MetricKind::Counter, "items"));
    extractor.instrument(encode.clone(), mine.clone());
    extractor.instrument_dict(hits.clone(), misses.clone());
    let mut tail = Tail {
        bank: config.detectors.build_bank(),
        extractor,
        encode,
        mine,
        hits,
        misses,
        windows: 0,
        alarms: 0,
        reports: Vec::new(),
    };
    let mut windows: Vec<ShardWindows> =
        (0..shards).map(|s| ShardWindows::new(s, window_config)).collect();
    let mut manager = WindowManager::new(shards, window_config);

    // Inputs are copied before the clock starts, as a threaded run's are.
    let mut owned: Vec<Vec<Option<Vec<FlowRecord>>>> = inputs
        .feeds
        .iter()
        .map(|feed| {
            feed.chunks
                .iter()
                .map(|chunk| match &chunk.payload {
                    Payload::Records(records) => Some(records.clone()),
                    Payload::Packet(_) => None,
                })
                .collect()
        })
        .collect();
    let feeds = inputs.feeds.len();
    let mut cursor = vec![0usize; feeds];
    let mut frontier: Vec<Option<u64>> = vec![Some(0); feeds];
    let mut caches: Vec<v9::TemplateCache> = (0..feeds).map(|_| v9::TemplateCache::new()).collect();
    let mut buffers: Vec<Vec<FlowRecord>> = vec![Vec::new(); shards];
    let tick = config.watermark_every.max(1);
    let mut undecoded = 0u64;

    let origin = Instant::now();
    let mut ledger = Ledger { origin, keep: keep_spans, totals: [0; 9], spans: Vec::new() };
    if keep_spans {
        ledger.spans.push(Span { name: "replay", start_ns: 0, end_ns: 0, thread: 0, parent: None });
    }
    while frontier.iter().any(Option::is_some) {
        for f in 0..feeds {
            let Some(front) = frontier[f] else { continue };
            let chunks = &inputs.feeds[f].chunks;
            if cursor[f] >= chunks.len() {
                // Exhausted: the feed leaves the min-over-feeds watermark,
                // as a closed ingest handle does.
                frontier[f] = None;
                advance(&mut windows, &mut manager, &mut tail, &mut ledger, &frontier);
                continue;
            }
            // One tick: a record chunk, or packets up to the watermark cadence.
            let records = if let Some(records) = owned[f][cursor[f]].take() {
                cursor[f] += 1;
                records
            } else {
                let t0 = Instant::now();
                let mut decoded = Vec::with_capacity(tick + 64);
                while decoded.len() < tick && cursor[f] < chunks.len() {
                    let chunk = &chunks[cursor[f]];
                    cursor[f] += 1;
                    let Payload::Packet(packet) = &chunk.payload else { break };
                    match v9::decode(packet, &mut caches[f]) {
                        Ok(packet) => decoded.extend(packet.records),
                        Err(_) => undecoded += chunk.records as u64,
                    }
                }
                ledger.add(Layer::Decode, t0, Instant::now(), ledger.root());
                decoded
            };
            let t0 = Instant::now();
            let mut max_start = front;
            for record in records {
                max_start = max_start.max(record.start_ms);
                buffers[record.key().shard(shards)].push(record);
            }
            ledger.add(Layer::Route, t0, Instant::now(), ledger.root());
            frontier[f] = Some(max_start);
            for (shard, buffer) in buffers.iter_mut().enumerate() {
                let t0 = Instant::now();
                for record in buffer.drain(..) {
                    windows[shard].push(record);
                }
                ledger.add(Layer::Apply, t0, Instant::now(), ledger.root());
            }
            advance(&mut windows, &mut manager, &mut tail, &mut ledger, &frontier);
        }
    }
    // Stream end: every shard flushes, then the merger drains.
    for (shard, w) in windows.iter_mut().enumerate() {
        let t0 = Instant::now();
        let closed = w.flush();
        ledger.add(Layer::Close, t0, Instant::now(), ledger.root());
        let t0 = Instant::now();
        let ready = manager.offer(shard, w.frontier(), closed);
        ledger.add(Layer::Merge, t0, Instant::now(), ledger.root());
        tail.process(&mut ledger, ready);
    }
    let t0 = Instant::now();
    let ready = manager.finish();
    ledger.add(Layer::Merge, t0, Instant::now(), ledger.root());
    tail.process(&mut ledger, ready);
    let wall_ns = ns_since(origin, Instant::now());
    if keep_spans {
        ledger.spans[0].end_ns = wall_ns;
    }

    let dropped = windows.iter().map(|w| w.late_dropped() + w.out_of_span()).sum();
    Replay {
        outcome: Outcome {
            windows: tail.windows,
            alarms: tail.alarms,
            dropped,
            reports: tail.reports,
        },
        records: inputs.records(),
        undecoded,
        wall_ns,
        layer_ns: ledger.totals,
        dict_hits: tail.hits.get(),
        dict_misses: tail.misses.get(),
        spans: ledger.spans,
    }
}

/// Apply the current min-over-feeds watermark: close what it passed on
/// every shard and merge, detect and extract whatever became ready.
fn advance(
    windows: &mut [ShardWindows],
    manager: &mut WindowManager,
    tail: &mut Tail,
    ledger: &mut Ledger,
    frontier: &[Option<u64>],
) {
    let Some(min) = frontier.iter().flatten().min() else { return };
    let watermark = min.saturating_sub(crate::workload::LATENESS_MS);
    for (shard, w) in windows.iter_mut().enumerate() {
        let before = w.frontier();
        let t0 = Instant::now();
        let closed = w.close_up_to(watermark);
        ledger.add(Layer::Close, t0, Instant::now(), ledger.root());
        if closed.is_empty() && w.frontier() == before {
            continue;
        }
        let t0 = Instant::now();
        let ready = manager.offer(shard, w.frontier(), closed);
        ledger.add(Layer::Merge, t0, Instant::now(), ledger.root());
        tail.process(ledger, ready);
    }
}
