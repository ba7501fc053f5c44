//! In-memory spans, written out when the benchmark ends.
//!
//! A span is one timed call from the benchmark into a layer of the
//! program: its name, start and end (nanoseconds since the run's
//! origin), the thread that made it, and the span it ran inside.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, named after the program's metric catalog where one exists.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Recording thread (0 = the replay or the first producer).
    pub thread: u32,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds from `origin` to `t`.
pub fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children never overlap one another.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut times: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            times[parent] = times[parent].saturating_sub(span.duration_ns());
        }
    }
    times
}

/// Write `spans` as JSON lines to `path`, creating its directory.
///
/// # Errors
/// Any I/O error from creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            text,
            r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"thread":{},"parent":{parent}}}"#,
            s.name, s.start_ns, s.end_ns, s.thread
        )
        .expect("writing to a String cannot fail");
    }
    let mut file = std::fs::File::create(path)?;
    file.write_all(text.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span =
            |name, start_ns, end_ns, parent| Span { name, start_ns, end_ns, thread: 0, parent };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a.child", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }
}
