//! End-to-end and per-layer benchmark of the anomex streaming pipeline.
//!
//! `run` executes one workload for a fixed time and returns every
//! metric by name with its unit, after the correctness gate passed.
//! See `README.md` next to this crate for what each workload and
//! metric is for.

#![warn(missing_docs)]

pub mod gate;
pub mod heap;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use anomex_stream::prelude::*;

use crate::replay::{Layer, Replay};
use crate::run::{run_cycle, Cycle, LatencySource, Mode};
use crate::workload::{generate, stream_config, Inputs, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Times the inputs are built (and the pipeline launched) per run;
/// `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Share of the threaded runs, those with the least host steal, that
/// throughput and generator lateness are computed from.
pub const CALM_SHARE: f64 = 0.25;

/// Heap-probe runs per benchmark run; `pipeline_heap_mb` is the median
/// of their peaks.
pub const HEAP_PROBES: usize = 3;

/// Seed kept out of development, for checking a claimed gain on inputs
/// nobody tuned against (development used seeds 1 to 10).
pub const HOLDOUT_SEED: u64 = 7_919;

/// The largest share of the replay's wall time its layer spans may
/// leave uncovered.
pub const REPLAY_SLACK: f64 = 0.05;

/// Latency samples a full-size run needs before its p95 counts.
pub const MIN_LATENCY_SAMPLES: usize = 200;

/// Threaded runs made before the clock starts. They pass the gate but
/// feed no metric: the first pipeline a process launches runs on a
/// fresh heap and reports measurably sooner than every later one.
pub const WARMUP_RUNS: usize = 1;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs (the benchmark's own tests).
    pub tiny: bool,
    /// Where a traced run writes its spans (`None` = keep them in memory
    /// only); a parsed `--trace 1` writes them to `benchmark/out/`.
    pub spans_dir: Option<PathBuf>,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// A usage message.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        const USAGE: &str = "usage: --workload <quiet-replay|alarm-dense|wire-v9> --seed <n> \
                             --seconds <s> --trace <0|1>";
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    });
                }
                other => return Err(format!("unknown argument {other:?}; {USAGE}")),
            }
        }
        let (Some(workload), Some(seed), Some(seconds), Some(trace)) =
            (workload, seed, seconds, trace)
        else {
            return Err(USAGE.to_string());
        };
        // A traced run writes its spans next to this package.
        let spans_dir = trace.then(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
        Ok(Args { workload, seed, seconds, trace, tiny: false, spans_dir })
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, value, unit }
}

/// A run's result: the final JSON line plus the details printed before it.
#[derive(Debug, Clone)]
pub struct Output {
    /// Records offered over every threaded run.
    pub attempted: u64,
    /// Records lost over every threaded run.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Context for reading the metrics: host, run length, sample counts.
    pub details: Vec<(&'static str, String)>,
}

impl Output {
    /// The last line the benchmark prints.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(metrics, r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#, m.name, m.value, m.unit)
                .expect("writing to a String cannot fail");
        }
        format!(
            r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.attempted, self.failed
        )
    }

    /// The details as one JSON object.
    pub fn details_line(&self) -> String {
        let fields: Vec<String> =
            self.details.iter().map(|(k, v)| format!(r#""{k}": {v}"#)).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// How well a run's reports match the injected anomalies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scores {
    /// Share of injected anomalies whose window produced a report (1 when none).
    pub recall: f64,
    /// Share of injected anomalies whose report holds an itemset
    /// containing the anomaly's signature (1 when none).
    pub hit_rate: f64,
    /// Share of reports whose window holds an injected anomaly (1 when none).
    pub precision: f64,
    /// Alarmed windows without an injected anomaly, over those windows.
    pub false_alarm_rate: f64,
    /// Itemsets containing their window's signature, over all itemsets (0 when none).
    pub useful_ratio: f64,
}

/// Score each segment's `reports` against its inputs' labels, pooling
/// the counts over the segments.
pub fn score<'a>(segments: impl IntoIterator<Item = (&'a Inputs, &'a [StreamReport])>) -> Scores {
    let (mut injected, mut clean, mut recalled, mut hits, mut false_alarms) = (0, 0, 0, 0, 0);
    let (mut reported, mut itemsets, mut useful, mut true_reports) = (0, 0, 0, 0);
    for (inputs, reports) in segments {
        let windows = inputs.injected.len();
        let mut alarmed = vec![false; windows];
        let mut hit = vec![false; windows];
        for report in reports {
            let (Some(alarm), Some(extraction)) = (report.alarm(), report.extraction()) else {
                continue;
            };
            let w = inputs.window_of(alarm.window) as usize;
            alarmed[w] = true;
            itemsets += extraction.itemsets.len();
            if let Some(signature) = inputs.signature(w as u64) {
                true_reports += 1;
                let matching = extraction
                    .itemsets
                    .iter()
                    .filter(|set| signature.iter().all(|item| set.items.contains(item)))
                    .count();
                useful += matching;
                hit[w] |= matching > 0;
            }
        }
        reported += reports.len();
        for (w, spec) in inputs.injected.iter().enumerate() {
            if spec.is_some() {
                injected += 1;
                recalled += usize::from(alarmed[w]);
                hits += usize::from(hit[w]);
            } else {
                clean += 1;
                false_alarms += usize::from(alarmed[w]);
            }
        }
    }
    let share =
        |n: usize, of: usize, empty: f64| if of == 0 { empty } else { n as f64 / of as f64 };
    Scores {
        recall: share(recalled, injected, 1.0),
        hit_rate: share(hits, injected, 1.0),
        precision: share(true_reports, reported, 1.0),
        false_alarm_rate: share(false_alarms, clean, 0.0),
        useful_ratio: share(useful, itemsets, 0.0),
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=1) of `values` (0 when empty).
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Each window's median latency, ns, over its `(window, ns)` samples
/// from every run, in window order. Host noise (steal, other tenants'
/// bursts) hits a window in some runs and not in others; the median
/// keeps what the window costs in most runs.
pub fn window_medians<'a>(samples: impl IntoIterator<Item = &'a (u64, u64)>) -> Vec<u64> {
    let mut per_window: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(window, ns) in samples {
        per_window.entry(window).or_default().push(ns as f64);
    }
    per_window.values().map(|samples| median(samples).round() as u64).collect()
}

/// The [`CALM_SHARE`] of `runs` (rounded up) with the least host
/// steal, in run order. Steal is time the hypervisor ran other guests
/// while this one's vCPUs were ready: it slows whatever runs, so the
/// runs it hit least measure the program rather than its neighbours.
pub fn calmest(runs: &[Cycle]) -> Vec<&Cycle> {
    let share = |c: &Cycle| c.steal_ms as f64 / c.elapsed.as_secs_f64().max(1e-9);
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_by(|&a, &b| share(&runs[a]).total_cmp(&share(&runs[b])));
    let keep = ((runs.len() as f64 * CALM_SHARE).ceil() as usize).clamp(1, runs.len().max(1));
    let mut keep: Vec<usize> = order.into_iter().take(keep).collect();
    keep.sort_unstable();
    keep.into_iter().map(|i| &runs[i]).collect()
}

/// Steal time over the wall time of `runs` on `cores` CPUs.
fn steal_share<'a>(runs: impl Iterator<Item = &'a Cycle>, cores: usize) -> f64 {
    let (steal, wall) = runs.fold((0u64, 0.0f64), |(s, w), c| {
        (s + c.steal_ms, w + c.elapsed.as_secs_f64() * 1e3 * cores as f64)
    });
    if wall > 0.0 {
        steal as f64 / wall
    } else {
        0.0
    }
}

/// Run one workload and check it.
///
/// # Errors
/// A correctness-gate failure or an unmeasurable run; no metrics then.
pub fn run(args: &Args) -> Result<Output, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shape = args.workload.shape(cores);
    if args.tiny {
        shape = shape.tiny();
    }

    // Set-up: every segment's inputs from the seed, packet encoding, launch.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let segments = generate(args.workload, shape, args.seed);
        let (handle, reports) = launch(stream_config(segments[0].span));
        setup_s.push(t0.elapsed().as_secs_f64());
        drop(reports);
        handle.finish();
        built = Some(segments);
    }
    let segments = built.expect("at least one set-up");
    // Threaded runs take the segments in turn.
    let segment = |n: usize| &segments[n % segments.len()];

    let source = LatencySource::of(args.workload);
    let warmup = (0..WARMUP_RUNS)
        .map(|n| run_cycle(segment(n), Mode::Plain))
        .collect::<Result<Vec<_>, _>>()?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    loop {
        plain.push(run_cycle(segment(plain.len()), Mode::Plain)?);
        if args.trace {
            traced.push(run_cycle(segment(traced.len()), Mode::Traced)?);
        }
        if clock.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let measured_s = clock.elapsed().as_secs_f64();
    let probes = (0..HEAP_PROBES)
        .map(|n| run_cycle(segment(n), Mode::HeapProbe))
        .collect::<Result<Vec<_>, _>>()?;
    let replays: Vec<Replay> = segments.iter().map(|s| replay::replay(s, args.trace)).collect();

    // The gate: every threaded run against the replay of its segment.
    for (i, cycle) in warmup.iter().chain(&plain).chain(&traced).chain(&probes).enumerate() {
        let replay = &replays[cycle.segment];
        gate::check_accounting(cycle.offered, &cycle.stats, cycle.undecoded)
            .and_then(|()| gate::check(&cycle.outcome, &replay.outcome))
            .and_then(|()| {
                if cycle.undecoded == replay.undecoded {
                    Ok(())
                } else {
                    Err(format!(
                        "{} undecodable records, the replay {}",
                        cycle.undecoded, replay.undecoded
                    ))
                }
            })
            .map_err(|e| format!("correctness gate, threaded run {i}: {e}"))?;
    }
    // A traced run prints no latency, so it needs no minimum sample count.
    let min_samples = if args.tiny || args.trace { 1 } else { MIN_LATENCY_SAMPLES };
    let calm = calmest(&plain);
    let samples: usize = plain.iter().map(|c| c.latencies.len()).sum();
    if samples < min_samples {
        return Err(format!(
            "{samples} latency samples, fewer than the {min_samples} a p95 needs; run longer"
        ));
    }
    let latencies = window_medians(plain.iter().flat_map(|c| &c.latencies));

    let scores = score(segments.iter().zip(&replays).map(|(s, r)| (s, &r.outcome.reports[..])));
    let replay = Replay::total(&replays);
    let runs = || warmup.iter().chain(&plain).chain(&traced).chain(&probes);
    let attempted: u64 = runs().map(|c| c.offered).sum();
    let failed: u64 = runs().map(|c| gate::lost(&c.stats, c.undecoded)).sum();
    let late: Vec<u64> = calm.iter().flat_map(|c| c.late_ns.iter().copied()).collect();
    let ms = |ns: u64| ns as f64 / 1e6;

    let metrics = if args.trace {
        write_spans(args, &replay, &traced)?;
        per_layer(&replay, &calm, &calmest(&traced), &late, scores)
    } else {
        let heap_peaks: Vec<f64> = probes.iter().map(|c| c.heap_peak_bytes as f64).collect();
        vec![
            metric(
                "throughput_rps",
                "rec/s",
                median(&calm.iter().map(|c| c.rate()).collect::<Vec<_>>()),
            ),
            metric("report_latency_p50_ms", "ms", ms(percentile(&latencies, 0.50))),
            metric("report_latency_p95_ms", "ms", ms(percentile(&latencies, 0.95))),
            metric("setup_s", "s", median(&setup_s)),
            metric("pipeline_heap_mb", "MB", median(&heap_peaks) / 1e6),
            metric("record_delivery_rate", "ratio", 1.0 - failed as f64 / attempted as f64),
            metric("alarm_recall", "ratio", scores.recall),
            metric("extraction_hit_rate", "ratio", scores.hit_rate),
            metric("alarm_precision", "ratio", scores.precision),
        ]
    };

    let details = vec![
        ("workload", format!("{:?}", args.workload.name())),
        ("seed", args.seed.to_string()),
        ("holdout_seed", HOLDOUT_SEED.to_string()),
        ("nproc", cores.to_string()),
        ("trace", args.trace.to_string()),
        ("run_seconds_requested", args.seconds.to_string()),
        ("run_seconds_measured", format!("{measured_s:.3}")),
        ("warmup_runs", warmup.len().to_string()),
        ("threaded_runs", plain.len().to_string()),
        ("calm_runs", calm.len().to_string()),
        ("steal_share_all_runs", steal_share(plain.iter(), cores).to_string()),
        ("steal_share_calm_runs", steal_share(calm.iter().copied(), cores).to_string()),
        ("heap_probes", probes.len().to_string()),
        ("traced_runs", traced.len().to_string()),
        ("producers", segments[0].feeds.len().to_string()),
        ("segments", segments.len().to_string()),
        (
            "records_per_segment",
            format!("{:?}", segments.iter().map(Inputs::records).collect::<Vec<_>>()),
        ),
        ("windows_all_segments", replay.outcome.windows.to_string()),
        ("reports_all_segments", replay.outcome.reports.len().to_string()),
        ("latency_source", format!("\"{source:?}\"")),
        ("latency_samples", samples.to_string()),
        ("latency_windows", latencies.len().to_string()),
        ("setup_samples", setup_s.len().to_string()),
        ("generator_late_samples", late.len().to_string()),
        ("generator_late_p99_ms", ms(percentile(&late, 0.99)).to_string()),
        ("generator_late_max_ms", ms(late.iter().copied().max().unwrap_or(0)).to_string()),
        ("false_alarm_rate", scores.false_alarm_rate.to_string()),
        (
            "replay_unattributed_share",
            (replay.unattributed_ns() as f64 / replay.wall_ns as f64).to_string(),
        ),
    ];
    Ok(Output { attempted, failed, metrics, details })
}

/// The per-layer metrics of a traced run.
fn per_layer(
    replay: &Replay,
    plain: &[&Cycle],
    traced: &[&Cycle],
    late: &[u64],
    scores: Scores,
) -> Vec<Metric> {
    let records = replay.records.max(1) as f64;
    let windows = replay.outcome.windows.max(1) as f64;
    let reports = &replay.outcome.reports;
    let per_alarm =
        |total: f64| if reports.is_empty() { 0.0 } else { total / reports.len() as f64 };
    let extraction_sum = |f: &dyn Fn(&anomex_core::extract::Extraction) -> usize| {
        per_alarm(reports.iter().filter_map(StreamReport::extraction).map(f).sum::<usize>() as f64)
    };
    let wall = replay.wall_ns.max(1) as f64;
    let share = |ns: u64| ns as f64 / wall;
    let lookups = replay.dict_hits + replay.dict_misses;
    let push: Vec<u64> = traced.iter().flat_map(|c| c.push_ns.iter().copied()).collect();
    let plain_rate = median(&plain.iter().map(|c| c.rate()).collect::<Vec<_>>());
    let traced_rate = median(&traced.iter().map(|c| c.rate()).collect::<Vec<_>>());
    let replay_rps = replay.records as f64 / (wall / 1e9);
    vec![
        metric("flow.decode_ns_per_record", "ns", replay.ns(Layer::Decode) as f64 / records),
        metric("ingest.route_ns_per_record", "ns", replay.ns(Layer::Route) as f64 / records),
        metric("shard.apply_ns_per_record", "ns", replay.ns(Layer::Apply) as f64 / records),
        metric("shard.close_us_per_window", "us", replay.ns(Layer::Close) as f64 / windows / 1e3),
        metric("merge.offer_us_per_window", "us", replay.ns(Layer::Merge) as f64 / windows / 1e3),
        metric(
            "detect.kl.push_us_per_window",
            "us",
            replay.ns(Layer::Detect) as f64 / windows / 1e3,
        ),
        metric(
            "extract.encode_us_per_alarm",
            "us",
            per_alarm(replay.ns(Layer::Encode) as f64 / 1e3),
        ),
        metric("extract.mine_us_per_alarm", "us", per_alarm(replay.ns(Layer::Mine) as f64 / 1e3)),
        metric(
            "extract.select_us_per_alarm",
            "us",
            per_alarm(replay.extract_self_ns() as f64 / 1e3),
        ),
        metric(
            "extract.rounds_per_alarm",
            "count",
            extraction_sum(&|e| e.tuning.iter().map(|t| t.rounds).sum()),
        ),
        metric("extract.candidates_per_alarm", "count", extraction_sum(&|e| e.candidate_flows)),
        metric("extract.itemsets_per_alarm", "count", extraction_sum(&|e| e.itemsets.len())),
        metric("extract.useful_ratio", "ratio", scores.useful_ratio),
        metric(
            "extract.dict_hit_rate",
            "ratio",
            if lookups == 0 { 0.0 } else { replay.dict_hits as f64 / lookups as f64 },
        ),
        metric("ingest.push_call_p50_us", "us", percentile(&push, 0.50) as f64 / 1e3),
        metric("ingest.push_call_p99_us", "us", percentile(&push, 0.99) as f64 / 1e3),
        metric(
            "ingest.finish_ms",
            "ms",
            median(&traced.iter().map(|c| c.finish_ns as f64 / 1e6).collect::<Vec<_>>()),
        ),
        metric("loadgen.late_p99_ms", "ms", percentile(late, 0.99) as f64 / 1e6),
        metric("loadgen.late_max_ms", "ms", late.iter().copied().max().unwrap_or(0) as f64 / 1e6),
        metric(
            "stream.reports_dropped",
            "count",
            plain.iter().chain(traced).map(|c| c.stats.reports_dropped).sum::<u64>() as f64,
        ),
        metric("stream.windows", "count", replay.outcome.windows as f64),
        metric("replay.rps", "rec/s", replay_rps),
        metric("replay.share.flow.decode", "ratio", share(replay.ns(Layer::Decode))),
        metric("replay.share.ingest.route", "ratio", share(replay.ns(Layer::Route))),
        metric("replay.share.shard.apply", "ratio", share(replay.ns(Layer::Apply))),
        metric("replay.share.shard.close", "ratio", share(replay.ns(Layer::Close))),
        metric("replay.share.merge.offer", "ratio", share(replay.ns(Layer::Merge))),
        metric("replay.share.detect.kl.push", "ratio", share(replay.ns(Layer::Detect))),
        metric("replay.share.extract.encode", "ratio", share(replay.ns(Layer::Encode))),
        metric("replay.share.extract.mine", "ratio", share(replay.ns(Layer::Mine))),
        metric("replay.share.extract.select", "ratio", share(replay.extract_self_ns())),
        metric("replay.unattributed_share", "ratio", share(replay.unattributed_ns())),
        metric("parallel_speedup", "ratio", plain_rate / replay_rps),
        metric("tracing_overhead_share", "ratio", 1.0 - traced_rate / plain_rate),
    ]
}

/// Write a traced run's spans: the first segment's replay's, and the
/// first traced threaded run's.
fn write_spans(args: &Args, replay: &Replay, traced: &[Cycle]) -> Result<(), String> {
    let Some(dir) = &args.spans_dir else { return Ok(()) };
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    trace::write_spans(&dir.join(format!("{stem}-replay.jsonl")), &replay.spans)
        .and_then(|()| {
            let threaded = traced.first().map_or(&[][..], |c| &c.spans[..]);
            trace::write_spans(&dir.join(format!("{stem}-threaded.jsonl")), threaded)
        })
        .map_err(|e| format!("writing spans to {}: {e}", dir.display()))
}
