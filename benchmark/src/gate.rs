//! The correctness gate: a threaded run must close the same windows,
//! raise the same alarms and mine the same itemsets as the
//! single-threaded replay, and account for every record it was offered.

use anomex_stream::prelude::*;

/// What a run produced, as far as the gate compares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Windows closed and judged.
    pub windows: u64,
    /// Merged alarms raised.
    pub alarms: u64,
    /// Records dropped as late or out of span.
    pub dropped: u64,
    /// Alarm reports, in window order.
    pub reports: Vec<StreamReport>,
}

/// Compare a threaded run's outcome with the replay's.
///
/// # Errors
/// A description of the first difference.
pub fn check(threaded: &Outcome, replay: &Outcome) -> Result<(), String> {
    let counts = [
        ("windows", threaded.windows, replay.windows),
        ("alarms", threaded.alarms, replay.alarms),
        ("late or out-of-span records", threaded.dropped, replay.dropped),
        ("reports", threaded.reports.len() as u64, replay.reports.len() as u64),
    ];
    for (what, got, want) in counts {
        if got != want {
            return Err(format!("threaded run has {got} {what}, the replay {want}"));
        }
    }
    for (i, (got, want)) in threaded.reports.iter().zip(&replay.reports).enumerate() {
        if got != want {
            let window = |r: &StreamReport| r.alarm().map(|a| a.window.from_ms);
            return Err(format!(
                "report {i} differs: threaded run window {:?} with {} itemsets, replay window \
                 {:?} with {} itemsets",
                window(got),
                got.extraction().map_or(0, |e| e.itemsets.len()),
                window(want),
                want.extraction().map_or(0, |e| e.itemsets.len()),
            ));
        }
    }
    Ok(())
}

/// Records lost on the way in: never ingested (undecodable packets),
/// or ingested and then dropped, shed or lost to a dead worker.
pub fn lost(stats: &StreamStats, undecoded: u64) -> u64 {
    undecoded
        + stats.send_failures
        + stats.health.shed_records
        + stats.late_dropped
        + stats.out_of_span
}

/// Every offered record must be ingested or counted as undecodable,
/// and the run must end healthy.
///
/// # Errors
/// A description of the imbalance or degradation.
pub fn check_accounting(offered: u64, stats: &StreamStats, undecoded: u64) -> Result<(), String> {
    if stats.ingested + undecoded != offered {
        return Err(format!(
            "offered {offered} records, but {} were ingested and {undecoded} undecodable",
            stats.ingested
        ));
    }
    if !stats.health.healthy() {
        return Err(format!("pipeline degraded: {:?}", stats.health));
    }
    if stats.reports_dropped > 0 {
        return Err(format!("{} reports dropped at the subscriber queue", stats.reports_dropped));
    }
    Ok(())
}
