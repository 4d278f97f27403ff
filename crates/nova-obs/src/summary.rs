//! Aggregated views of a recorded trace.

use std::time::Duration;

/// All spans with one name, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// How many spans closed under this name.
    pub count: usize,
    /// Total wall time across them, in nanoseconds.
    pub total_ns: u64,
}

impl SpanSummary {
    /// Total wall time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }
}

/// One counter's total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSummary {
    /// Counter name.
    pub name: String,
    /// Sum of all recorded deltas.
    pub total: u64,
}

/// One histogram's reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSummary {
    /// Histogram name.
    pub name: String,
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

/// An aggregated trace: what [`crate::MemoryRecorder::summary`] returns
/// and what `nova::CompileReport` carries back to callers. Entries keep
/// first-appearance order, which for spans is pipeline order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Spans, summed by name.
    pub spans: Vec<SpanSummary>,
    /// Counters, totalled by name.
    pub counters: Vec<CounterSummary>,
    /// Histograms, reduced by name.
    pub samples: Vec<SampleSummary>,
}

impl Summary {
    /// The summed span named `name`, if any closed.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total wall time of span `name` (zero when absent).
    pub fn span_total(&self, name: &str) -> Duration {
        self.span(name).map(SpanSummary::total).unwrap_or_default()
    }

    /// The counter named `name`'s total, if it was ever incremented.
    pub fn counter_total(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.total)
    }

    /// The histogram named `name`, if it has samples.
    pub fn sample(&self, name: &str) -> Option<&SampleSummary> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Render a compact human-readable report (one line per entry) of
    /// the summary `bench phases` tabulates; handy in tests and when
    /// debugging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "span    {:<32} {:>4}x {:>12.3?}\n",
                s.name,
                s.count,
                s.total()
            ));
        }
        for c in &self.counters {
            out.push_str(&format!("counter {:<32} {:>17}\n", c.name, c.total));
        }
        for h in &self.samples {
            out.push_str(&format!(
                "hist    {:<32} {:>4} samples  min {:.4}  mean {:.4}  p95 {:.4}  max {:.4}\n",
                h.name, h.count, h.min, h.mean, h.p95, h.max
            ));
        }
        out
    }
}
