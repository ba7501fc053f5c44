//! Workload inputs, made only from the seed.
//!
//! Every workload is a replay span of one-minute windows of GEANT-like
//! background traffic from `anomex-gen`, with labelled anomalies
//! injected into chosen windows. The program under test sees only the
//! generated records (or the NetFlow v9 packets encoding them); the
//! labels stay here, for scoring.

use std::time::Duration;

use anomex_detect::kl::KlConfig;
use anomex_flow::feature::FeatureItem;
use anomex_flow::record::FlowRecord;
use anomex_flow::sampling::Xoshiro256;
use anomex_flow::store::TimeRange;
use anomex_flow::v5::ExportBase;
use anomex_flow::v9;
use anomex_gen::prelude::*;
use anomex_stream::prelude::*;

/// Window width: the detector interval every workload runs with.
pub const WIDTH_MS: u64 = 60_000;

/// Records per NetFlow v9 packet on the wire workload (a 1500-byte
/// export MTU holds the template plus about this many records).
pub const RECORDS_PER_PACKET: usize = 28;

/// Active timeout of the simulated exporters: a flow still running this
/// long after its start is exported anyway. Export order is by
/// `min(end, start + timeout)`, so out-of-orderness stays below the
/// pipeline's 30 s lateness bound.
pub const ACTIVE_TIMEOUT_MS: u64 = 20_000;

/// The anomaly classes injected, in rotation.
pub const ROTATION: [AnomalyKind; 5] = [
    AnomalyKind::PortScan,
    AnomalyKind::NetworkScan,
    AnomalyKind::SynFlood,
    AnomalyKind::UdpDdos,
    AnomalyKind::IcmpFlood,
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one producer, anomaly-free background records.
    QuietReplay,
    /// Open loop at a fixed record rate; every other window is attacked.
    AlarmDense,
    /// Closed loop, one exporter thread per core, NetFlow v9 packets.
    WireV9,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::QuietReplay, Workload::AlarmDense, Workload::WireV9];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuietReplay => "quiet-replay",
            Workload::AlarmDense => "alarm-dense",
            Workload::WireV9 => "wire-v9",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark-size shape of this workload on a host with
    /// `cores` CPUs.
    pub fn shape(self, cores: usize) -> Shape {
        match self {
            Workload::QuietReplay => Shape {
                windows: 32,
                segments: 1,
                background_flows: 20_700,
                anomaly_every: 0,
                anomaly_flows: 0,
                producers: 1,
                rate_rps: None,
                wire: false,
            },
            Workload::AlarmDense => Shape {
                windows: 80,
                segments: 3,
                background_flows: 3_500,
                anomaly_every: 2,
                anomaly_flows: 1_000,
                producers: 1,
                rate_rps: Some(500_000.0),
                wire: false,
            },
            Workload::WireV9 => Shape {
                windows: 64,
                segments: 1,
                background_flows: 20_700,
                anomaly_every: 16,
                anomaly_flows: 5_000,
                producers: cores.max(1),
                rate_rps: None,
                wire: true,
            },
        }
    }
}

/// Size and loop kind of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// One-minute windows in the replay span of one segment.
    pub windows: u64,
    /// Independent segments, each generated from its own sub-seed and
    /// replayed through a freshly launched pipeline in turn. The KL
    /// detector trains afresh on each, so how often it follows an
    /// injected window with a false alarm, which its first few windows
    /// decide, averages over the segments instead of being one draw per
    /// seed.
    pub segments: usize,
    /// Background request flows per window (replies add about half).
    pub background_flows: usize,
    /// Inject an anomaly into every `anomaly_every`-th window, half a
    /// period in, after the warm-up windows (0 = none).
    pub anomaly_every: u64,
    /// Flows per injected anomaly.
    pub anomaly_flows: usize,
    /// Producer threads (one ingest handle each).
    pub producers: usize,
    /// Open loop at this many records per second; `None` = closed loop.
    pub rate_rps: Option<f64>,
    /// Feed NetFlow v9 packets instead of records.
    pub wire: bool,
}

impl Shape {
    /// A small version of the shape for the benchmark's own tests.
    pub fn tiny(self) -> Shape {
        Shape {
            windows: if self.anomaly_every == 2 { 12 } else { 10 },
            background_flows: 1_500,
            anomaly_every: self.anomaly_every.min(4),
            anomaly_flows: 600,
            ..self
        }
    }
}

/// The pipeline's lateness bound in every run.
pub const LATENESS_MS: u64 = 30_000;

/// Windows at the start of a span that never carry an anomaly: the KL
/// detector trains on its first three windows and cannot alarm there.
pub const WARMUP_WINDOWS: u64 = 4;

/// The pipeline configuration every run uses: the defaults, with only
/// the span, the detector interval and the lateness bound set.
pub fn stream_config(span: TimeRange) -> StreamConfig {
    StreamConfig {
        span: Some(span),
        detectors: DetectorRegistry::kl(KlConfig { interval_ms: WIDTH_MS, ..KlConfig::default() }),
        lateness_ms: LATENESS_MS,
        ..StreamConfig::default()
    }
}

/// What one chunk of a feed carries.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Flow records, pushed with `IngestHandle::push_batch`.
    Records(Vec<FlowRecord>),
    /// One encoded NetFlow v9 packet, pushed with `IngestHandle::push_v9`.
    Packet(Vec<u8>),
}

/// One push call's worth of input.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The input itself.
    pub payload: Payload,
    /// Records the chunk carries.
    pub records: usize,
    /// Windows whose close threshold (window end + lateness) this
    /// feed's event-time frontier first reaches inside this chunk.
    pub closes: Vec<u64>,
}

/// Everything one producer pushes, in order.
#[derive(Debug, Clone, Default)]
pub struct Feed {
    /// The chunks, in push order.
    pub chunks: Vec<Chunk>,
    /// Records over all chunks.
    pub records: usize,
}

/// One workload's inputs plus its ground truth.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// Its shape.
    pub shape: Shape,
    /// Which of the shape's segments these inputs are.
    pub segment: usize,
    /// The replay span.
    pub span: TimeRange,
    /// One feed per producer.
    pub feeds: Vec<Feed>,
    /// Per window: the injected anomaly, if any.
    pub injected: Vec<Option<AnomalySpec>>,
}

impl Inputs {
    /// Records over every feed.
    pub fn records(&self) -> u64 {
        self.feeds.iter().map(|f| f.records as u64).sum()
    }

    /// The signature of the anomaly injected into window `index`.
    pub fn signature(&self, index: u64) -> Option<Vec<FeatureItem>> {
        self.injected.get(index as usize)?.as_ref().map(AnomalySpec::signature)
    }

    /// Index of the window a report's alarm belongs to.
    pub fn window_of(&self, range: TimeRange) -> u64 {
        (range.from_ms - self.span.from_ms) / WIDTH_MS
    }

    /// Offset of chunk `records_before` records into the open-loop
    /// schedule.
    pub fn due_offset(&self, records_before: usize) -> Option<Duration> {
        self.shape.rate_rps.map(|rate| Duration::from_secs_f64(records_before as f64 / rate))
    }
}

/// Build every segment of `workload` with `shape` from `seed`.
pub fn generate(workload: Workload, shape: Shape, seed: u64) -> Vec<Inputs> {
    (0..shape.segments).map(|segment| generate_segment(workload, shape, seed, segment)).collect()
}

/// Build segment `segment` of `workload` with `shape` from `seed`; each
/// segment draws from its own sub-seed (segment 0's is `seed` itself).
fn generate_segment(workload: Workload, shape: Shape, seed: u64, segment: usize) -> Inputs {
    let seed = seed ^ (segment as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let span = TimeRange::new(0, shape.windows * WIDTH_MS);
    let topology = Topology::geant();
    let mut rng = Xoshiro256::seeded(seed ^ 0xB3_4C_11_E5);
    let mut records = Vec::new();
    let mut injected = Vec::with_capacity(shape.windows as usize);
    let mut attacks = 0usize;
    for w in 0..shape.windows {
        let background = BackgroundConfig {
            start_ms: w * WIDTH_MS,
            duration_ms: WIDTH_MS,
            flows: shape.background_flows,
            ..BackgroundConfig::default()
        };
        records.extend(generate_background(&background, &topology, &mut rng));
        let attacked = shape.anomaly_every > 0
            && w >= WARMUP_WINDOWS
            && w % shape.anomaly_every == shape.anomaly_every / 2;
        let spec = attacked.then(|| {
            let spec = anomaly(ROTATION[attacks % ROTATION.len()], w, shape, &mut rng);
            attacks += 1;
            records.extend(spec.inject(&mut rng));
            spec
        });
        injected.push(spec);
    }
    let feeds = if shape.wire {
        wire_feeds(records, shape, span)
    } else {
        records.sort_by_key(|r| r.start_ms);
        vec![record_feed(records, shape, span)]
    };
    Inputs { workload, shape, segment, span, feeds, injected }
}

/// One anomaly of `kind` filling window `w`, sized to `shape`, between
/// seeded hosts: attackers in client space, victims on a PoP's servers.
fn anomaly(kind: AnomalyKind, w: u64, shape: Shape, rng: &mut Xoshiro256) -> AnomalySpec {
    let byte = |rng: &mut Xoshiro256, lo: u64, span: u64| (lo + rng.next_below(span)) as u8;
    let attacker =
        std::net::Ipv4Addr::new(10, byte(rng, 100, 100), byte(rng, 0, 256), byte(rng, 1, 254));
    let victim = std::net::Ipv4Addr::new(172, 16, byte(rng, 0, 18), byte(rng, 1, 254));
    let mut spec = AnomalySpec::template(kind, attacker, victim);
    let template_flows = spec.flows.max(1) as u64;
    spec.packets = (spec.packets * shape.anomaly_flows as u64 / template_flows).max(1);
    spec.flows = shape.anomaly_flows;
    spec.start_ms = w * WIDTH_MS;
    spec.duration_ms = WIDTH_MS;
    spec.pop = rng.next_below(18) as u16;
    spec
}

/// The close threshold of window `w`: the event time a frontier must
/// reach before the watermark passes the window's end.
fn threshold(span: TimeRange, w: u64) -> u64 {
    span.from_ms + (w + 1) * WIDTH_MS + LATENESS_MS
}

/// Tracks which window thresholds a feed's running frontier crosses.
struct Frontier {
    span: TimeRange,
    windows: u64,
    next: u64,
    max_start: u64,
}

impl Frontier {
    fn new(span: TimeRange, windows: u64) -> Frontier {
        Frontier { span, windows, next: 0, max_start: 0 }
    }

    /// Advance by one record; returns the windows it makes closable.
    fn advance(&mut self, start_ms: u64, closes: &mut Vec<u64>) {
        self.max_start = self.max_start.max(start_ms);
        while self.next < self.windows && self.max_start >= threshold(self.span, self.next) {
            closes.push(self.next);
            self.next += 1;
        }
    }

    /// Would this record close a window?
    fn crosses(&self, start_ms: u64) -> bool {
        self.next < self.windows && start_ms.max(self.max_start) >= threshold(self.span, self.next)
    }
}

/// A time-ordered record feed, cut into push chunks: a new chunk starts
/// every `chunk_records` and at each record that makes a window
/// closable, so the chunk's push time is that record's send time.
fn record_feed(records: Vec<FlowRecord>, shape: Shape, span: TimeRange) -> Feed {
    // Open loop: one millisecond of schedule per chunk.
    let chunk_records = shape.rate_rps.map_or(1_024, |rate| (rate / 1_000.0).max(1.0) as usize);
    let mut frontier = Frontier::new(span, shape.windows);
    let mut feed = Feed { chunks: Vec::new(), records: records.len() };
    let mut current =
        Chunk { payload: Payload::Records(Vec::new()), records: 0, closes: Vec::new() };
    for record in records {
        if current.records > 0
            && (current.records >= chunk_records || frontier.crosses(record.start_ms))
        {
            feed.chunks.push(std::mem::replace(
                &mut current,
                Chunk { payload: Payload::Records(Vec::new()), records: 0, closes: Vec::new() },
            ));
        }
        frontier.advance(record.start_ms, &mut current.closes);
        if let Payload::Records(batch) = &mut current.payload {
            batch.push(record);
        }
        current.records += 1;
    }
    if current.records > 0 {
        feed.chunks.push(current);
    }
    feed
}

/// One feed per exporter: each record goes to the exporter of its PoP,
/// which exports it in active-timeout order as v9 packets carrying the
/// template plus [`RECORDS_PER_PACKET`] records, `source_id` = exporter.
fn wire_feeds(records: Vec<FlowRecord>, shape: Shape, span: TimeRange) -> Vec<Feed> {
    let exporters = shape.producers.max(1);
    let mut per_exporter: Vec<Vec<FlowRecord>> = vec![Vec::new(); exporters];
    for mut record in records {
        let exporter = usize::from(record.pop) % exporters;
        // The decoder stamps `pop` from the header's source id; stamp it
        // here too, so the labels and the decoded records agree.
        record.pop = exporter as u16;
        per_exporter[exporter].push(record);
    }
    per_exporter
        .into_iter()
        .enumerate()
        .map(|(exporter, mut records)| {
            records.sort_by_key(|r| (r.end_ms.min(r.start_ms + ACTIVE_TIMEOUT_MS), r.start_ms));
            let mut frontier = Frontier::new(span, shape.windows);
            let mut feed = Feed { chunks: Vec::new(), records: records.len() };
            for (sequence, packet) in records.chunks(RECORDS_PER_PACKET).enumerate() {
                let mut closes = Vec::new();
                for record in packet {
                    frontier.advance(record.start_ms, &mut closes);
                }
                let bytes =
                    v9::encode(packet, ExportBase::epoch(), sequence as u32, exporter as u32);
                feed.chunks.push(Chunk {
                    payload: Payload::Packet(bytes.to_vec()),
                    records: packet.len(),
                    closes,
                });
            }
            feed
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_chunks_close_each_window_once() {
        for workload in Workload::ALL {
            let shape = workload.shape(2).tiny();
            let segments = generate(workload, shape, 7);
            assert_eq!(segments.len(), shape.segments);
            let again = generate(workload, shape, 7);
            let (a, b) = (&segments[0], &again[0]);
            assert_eq!(a.records(), b.records());
            for (fa, fb) in a.feeds.iter().zip(&b.feeds) {
                for (ca, cb) in fa.chunks.iter().zip(&fb.chunks) {
                    assert_eq!(ca.closes, cb.closes);
                    match (&ca.payload, &cb.payload) {
                        (Payload::Records(x), Payload::Records(y)) => assert_eq!(x, y),
                        (Payload::Packet(x), Payload::Packet(y)) => assert_eq!(x, y),
                        _ => panic!("payload kinds differ"),
                    }
                }
                let closes: Vec<u64> = fa.chunks.iter().flat_map(|c| c.closes.clone()).collect();
                assert!(closes.windows(2).all(|p| p[1] == p[0] + 1), "{closes:?}");
            }
            assert_ne!(a.records(), generate(workload, shape, 8)[0].records());
            for (i, segment) in segments.iter().enumerate().skip(1) {
                assert_eq!(segment.segment, i);
                assert_ne!(segment.records(), a.records());
            }
        }
    }
}
