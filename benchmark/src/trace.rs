//! The benchmark's own span recorder.
//!
//! Spans are recorded from this package's files, around the calls into
//! each layer (`<crate>.<call>`); no product file carries one. They are
//! kept in memory and written to `trace-<workload>.jsonl` when the run
//! ends. With the tracer off a span costs one branch, which is what the
//! untraced (end-to-end) run pays.

use crate::json::Json;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>` of the layer boundary the span wraps.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one
    /// started.
    pub parent: Option<usize>,
    /// Spans of one request (one edit, one compile) share this id.
    pub request: u64,
}

thread_local! {
    /// Innermost open span of this thread.
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// In-memory span sink shared by every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` inside a span. A no-op wrapper when the tracer is off.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = CURRENT.get();
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        CURRENT.set(Some(id));
        let out = f();
        CURRENT.set(parent);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.lock().expect("no span holder panics")[id].end_ns = end;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// Per-name totals, with each span's self time being its duration
    /// minus its direct children's (children of one span run one after
    /// another on its thread, so their durations add).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write one JSON object per span, in start order of recording.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("request", Json::Num(s.request as f64)),
            ]);
            writeln!(file, "{}", line.render())?;
        }
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::new(true);
        t.span("outer.call", 7, || {
            t.span("inner.call", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner.call", 7, || ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let times = t.layer_times();
        let (outer, inner) = (times["outer.call"], times["inner.call"]);
        assert_eq!(inner.count, 2);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x.y", 0, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
