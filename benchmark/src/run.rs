//! One threaded run of a workload through the real pipeline:
//! `launch`, one `IngestHandle` per producer thread, the report and
//! metrics subscriptions drained on their own threads, `finish`.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use anomex_flow::record::FlowRecord;
use anomex_stream::prelude::*;

use crate::gate::Outcome;
use crate::trace::{ns_since, Span};
use crate::workload::{stream_config, Feed, Inputs, Payload, Workload};

/// Which subscriber event ends a latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySource {
    /// Each alarm report, against its window's close.
    AlarmReports,
    /// Each window's first metrics report (emitted once the window is
    /// merged, judged and mined), against the window's close.
    WindowReports,
}

impl LatencySource {
    /// Alarm reports where nearly every window alarms; elsewhere too few
    /// windows alarm for a percentile, so every window counts.
    pub fn of(workload: Workload) -> LatencySource {
        match workload {
            Workload::AlarmDense => LatencySource::AlarmReports,
            Workload::QuietReplay | Workload::WireV9 => LatencySource::WindowReports,
        }
    }
}

/// What one threaded run measured.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// The segment of the inputs it pushed.
    pub segment: usize,
    /// Records offered.
    pub offered: u64,
    /// Records in packets that failed to decode.
    pub undecoded: u64,
    /// First push until `finish` returned and both subscriptions drained.
    pub elapsed: Duration,
    /// The pipeline's statistics.
    pub stats: StreamStats,
    /// What the gate compares.
    pub outcome: Outcome,
    /// Close-to-subscriber latency samples: (window, ns), windows
    /// numbered across segments.
    pub latencies: Vec<(u64, u64)>,
    /// Heap-probe runs: peak heap bytes above the level at `launch`.
    pub heap_peak_bytes: u64,
    /// Open loop: how late each chunk was pushed after it was due, ns.
    pub late_ns: Vec<u64>,
    /// Traced runs: duration of every push call, ns.
    pub push_ns: Vec<u64>,
    /// Traced runs: the longest `finish` call over the producers, ns.
    pub finish_ns: u64,
    /// Traced runs: the spans.
    pub spans: Vec<Span>,
    /// CPU time the hypervisor gave other guests while this run's
    /// vCPUs wanted to run, ms over all CPUs (`/proc/stat` steal).
    pub steal_ms: u64,
}

impl Cycle {
    /// Records per second over the run.
    pub fn rate(&self) -> f64 {
        self.offered as f64 / self.elapsed.as_secs_f64()
    }
}

/// What one producer thread brings back.
struct Produced {
    first_push: Instant,
    closes_at: Vec<Option<Instant>>,
    stats: StreamStats,
    undecoded: u64,
    late_ns: Vec<u64>,
    push_ns: Vec<u64>,
    finish_ns: u64,
    spans: Vec<Span>,
}

/// How a threaded run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing beyond the latency stamps: the end-to-end figures.
    Plain,
    /// A span around every call into the ingest handle.
    Traced,
    /// Heap accounting on. Records are cloned at each push instead of
    /// consumed from a copy made beforehand, so the inputs' own bytes
    /// stay constant; one thread drives every handle round robin.
    HeapProbe,
}

/// Run `inputs` once through a freshly launched pipeline.
///
/// # Errors
/// A fault notice on the report stream.
pub fn run_cycle(inputs: &Inputs, mode: Mode) -> Result<Cycle, String> {
    let source = LatencySource::of(inputs.workload);
    // The producers' copies are made before the clock starts.
    let owned: Vec<Vec<Option<Vec<FlowRecord>>>> = inputs
        .feeds
        .iter()
        .map(|feed| {
            feed.chunks
                .iter()
                .map(|chunk| match &chunk.payload {
                    Payload::Records(records) if mode != Mode::HeapProbe => Some(records.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let traced = mode == Mode::Traced;
    if mode == Mode::HeapProbe {
        crate::heap::start();
    }
    let steal_before = host_steal_ms();
    let origin = Instant::now();
    let (ingest, reports) = launch(stream_config(inputs.span));
    let metrics = ingest.metrics_reports().ok_or("metrics subscription already taken")?;
    let handles = ingest.split(inputs.feeds.len());
    let threads = if mode == Mode::HeapProbe { 1 } else { handles.len() };
    let barrier = Barrier::new(threads);
    let windows = inputs.shape.windows as usize;

    let (produced, received, window_done, end) = std::thread::scope(|scope| {
        let report_thread = scope.spawn(move || {
            reports.iter().map(|report| (Instant::now(), report)).collect::<Vec<_>>()
        });
        let metrics_thread = scope.spawn(move || {
            let mut done = Vec::new();
            let mut seen = 0u64;
            for report in metrics.iter() {
                if report.windows > seen {
                    seen = report.windows;
                    done.push((Instant::now(), report.windows));
                }
            }
            done
        });
        // One lane per handle; the heap probe drives every lane from one
        // thread, round robin, so exporter skew cannot vary between probes.
        let mut lanes: Vec<Vec<Lane<'_>>> = handles
            .into_iter()
            .zip(owned)
            .zip(&inputs.feeds)
            .map(|((handle, owned), feed)| vec![Lane { handle, feed, owned }])
            .collect();
        if mode == Mode::HeapProbe {
            lanes = vec![lanes.into_iter().flatten().collect()];
        }
        let barrier = &barrier;
        let producers: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(thread, lanes)| {
                scope.spawn(move || {
                    let ctx = Producer { inputs, windows, traced, origin, thread: thread as u32 };
                    ctx.produce(lanes, barrier)
                })
            })
            .collect();
        let produced: Vec<Produced> =
            producers.into_iter().map(|p| p.join().expect("producer thread panicked")).collect();
        let received = report_thread.join().expect("report subscriber panicked");
        let window_done = metrics_thread.join().expect("metrics subscriber panicked");
        (produced, received, window_done, Instant::now())
    });
    let heap_peak_bytes = if mode == Mode::HeapProbe { crate::heap::stop() } else { 0 };
    let steal_ms = host_steal_ms().saturating_sub(steal_before);

    let first_push = produced.iter().map(|p| p.first_push).min().expect("at least one producer");
    // A window can close once every producer's frontier passed its
    // threshold: the latest of the producers' crossing times.
    let closes_at: Vec<Instant> = (0..windows)
        .map(|w| {
            produced.iter().filter_map(|p| p.closes_at[w]).max().expect("every window is closed")
        })
        .collect();
    let mut outcome_reports = Vec::with_capacity(received.len());
    let mut latencies = Vec::new();
    let first_window = inputs.segment as u64 * inputs.shape.windows;
    for (at, report) in received {
        let Some(alarm) = report.alarm() else {
            return Err(format!("fault notice on the report stream: {report:?}"));
        };
        if source == LatencySource::AlarmReports {
            let w = inputs.window_of(alarm.window);
            let closed = closes_at[w as usize];
            latencies
                .push((first_window + w, at.saturating_duration_since(closed).as_nanos() as u64));
        }
        outcome_reports.push(report);
    }
    if source == LatencySource::WindowReports {
        for (at, n) in window_done {
            if let Some(&closed) = closes_at.get(n as usize - 1) {
                let ns = at.saturating_duration_since(closed).as_nanos() as u64;
                latencies.push((first_window + n - 1, ns));
            }
        }
    }
    let stats = produced[0].stats.clone();
    let mut spans = Vec::new();
    let (mut late_ns, mut push_ns) = (Vec::new(), Vec::new());
    for p in &produced {
        late_ns.extend_from_slice(&p.late_ns);
        push_ns.extend_from_slice(&p.push_ns);
        spans.extend_from_slice(&p.spans);
    }
    Ok(Cycle {
        segment: inputs.segment,
        offered: inputs.records(),
        undecoded: produced.iter().map(|p| p.undecoded).sum(),
        elapsed: end.saturating_duration_since(first_push),
        outcome: Outcome {
            windows: stats.windows,
            alarms: stats.alarms,
            dropped: stats.late_dropped + stats.out_of_span,
            reports: outcome_reports,
        },
        stats,
        latencies,
        heap_peak_bytes,
        late_ns,
        push_ns,
        finish_ns: produced.iter().map(|p| p.finish_ns).max().unwrap_or(0),
        spans,
        steal_ms,
    })
}

/// One ingest handle with the feed it pushes.
struct Lane<'a> {
    handle: IngestHandle,
    feed: &'a Feed,
    /// Record chunks copied before the run (`None`: push from `feed`).
    owned: Vec<Option<Vec<FlowRecord>>>,
}

/// One producer thread's view of the run.
struct Producer<'a> {
    inputs: &'a Inputs,
    windows: usize,
    traced: bool,
    origin: Instant,
    thread: u32,
}

impl Producer<'_> {
    /// Push every lane's chunks, round robin, then close the lanes.
    fn produce(&self, lanes: Vec<Lane<'_>>, barrier: &Barrier) -> Produced {
        let mut closes_at = vec![None; self.windows];
        let (mut late_ns, mut push_ns, mut spans) = (Vec::new(), Vec::new(), Vec::new());
        let mut undecoded = 0u64;
        let mut sent = 0usize;
        let mut lanes: Vec<_> = lanes
            .into_iter()
            .map(|lane| (lane.handle, lane.feed.chunks.iter().zip(lane.owned)))
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut live = lanes.len();
        while live > 0 {
            live = 0;
            for (handle, chunks) in &mut lanes {
                let Some((chunk, records)) = chunks.next() else { continue };
                live += 1;
                let due = self.inputs.due_offset(sent).map(|offset| t0 + offset);
                let mut now = Instant::now();
                if let Some(due) = due {
                    if now < due {
                        std::thread::sleep(due - now);
                        now = Instant::now();
                    }
                    late_ns.push(now.saturating_duration_since(due).as_nanos() as u64);
                }
                // Open loop: a chunk counts from when it was due.
                let stamp = due.unwrap_or(now);
                for &w in &chunk.closes {
                    closes_at[w as usize] = Some(stamp);
                }
                match (records, &chunk.payload) {
                    (Some(records), _) => handle.push_batch(records),
                    (None, Payload::Records(records)) => handle.push_batch(records.iter().cloned()),
                    (None, Payload::Packet(packet)) => {
                        if handle.push_v9(packet).is_err() {
                            undecoded += chunk.records as u64;
                        }
                    }
                }
                if self.traced {
                    let end = Instant::now();
                    push_ns.push(end.saturating_duration_since(now).as_nanos() as u64);
                    spans.push(self.span("ingest.push", now, end));
                }
                sent += chunk.records;
            }
        }
        // Open loop: the stream ends at its scheduled end.
        let end_due = self.inputs.due_offset(sent).map(|offset| t0 + offset);
        if let Some(due) = end_due {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
        }
        let f0 = Instant::now();
        // Windows no record made closable close when the stream ends.
        for slot in closes_at.iter_mut().filter(|slot| slot.is_none()) {
            *slot = Some(end_due.unwrap_or(f0));
        }
        // `finish` waits for every other handle: close this thread's
        // other lanes first.
        let (last, _) = lanes.pop().expect("a producer has at least one lane");
        drop(lanes);
        let stats = last.finish();
        let f1 = Instant::now();
        if self.traced {
            spans.push(self.span("ingest.finish", f0, f1));
        }
        Produced {
            first_push: t0,
            closes_at,
            stats,
            undecoded,
            late_ns,
            push_ns,
            finish_ns: f1.saturating_duration_since(f0).as_nanos() as u64,
            spans,
        }
    }

    fn span(&self, name: &'static str, start: Instant, end: Instant) -> Span {
        Span {
            name,
            start_ns: ns_since(self.origin, start),
            end_ns: ns_since(self.origin, end),
            thread: self.thread,
            parent: None,
        }
    }
}

/// Steal time of the whole host so far, ms summed over CPUs (0 where
/// `/proc/stat` is unavailable). Its unit is the kernel's clock tick,
/// 10 ms.
pub fn host_steal_ms() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0 };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * 10)
}
