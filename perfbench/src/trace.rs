//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), the id of the operation it
//! belongs to, its parent span, and start/end times in nanoseconds since
//! the tracer was created. Spans are kept in memory and written out once,
//! when the run ends. A disabled tracer records nothing and adds only a
//! branch per call.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// Operation id of work done during set-up rather than by an operation.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.truth.vote`.
    pub name: &'static str,
    /// The operation this span belongs to ([`SETUP_OP`] for set-up).
    pub op: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, passing it the new span's id
    /// so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                op,
                parent,
                start: self.now(),
                end: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children running in parallel count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| span.duration() - covered(kids, span.start, span.end))
        .collect()
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = if s.op == SETUP_OP {
            "\"setup\"".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("op", None, 0, 100),
            span("core.a", Some(0), 10, 30),
            span("core.b", Some(0), 40, 90),
            span("core.c", Some(2), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn parallel_children_count_once() {
        let spans = [
            span("op", None, 0, 100),
            span("core.shard", Some(0), 10, 60),
            span("core.shard", Some(0), 20, 80),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn covered_clips_to_the_window() {
        assert_eq!(covered(&[(0, 50), (40, 70), (90, 200)], 10, 100), 60 + 10);
        assert_eq!(covered(&[], 0, 10), 0);
        assert_eq!(covered(&[(5, 5)], 0, 10), 0);
    }

    #[test]
    fn tracer_records_nesting_and_layers() {
        let tracer = Tracer::new(true);
        tracer.span("op", 7, None, |root| {
            tracer.span("persist.get", 7, root, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "persist");
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let off = Tracer::new(false);
        assert_eq!(off.span("op", 1, None, |parent| parent.map_or(5, |_| 0)), 5);
        assert!(off.spans().is_empty());
    }
}
