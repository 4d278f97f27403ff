//! Compile-service benchmark harness: a seeded rule-update stream
//! through a [`nova_server::Server`] over one shared compile session.
//!
//! The workload models a network operator pushing classifier rule
//! updates: `total` compile requests over `distinct` rule-set variants
//! (request `i` carries variant `i % distinct`), every variant sharing
//! one program structure and differing only in `const` values. A warm
//! session therefore sees three regimes, all with exactly predictable
//! cache counters at one worker:
//!
//! * the stream's very first variant — a full compile (`alloc_misses`
//!   = 1);
//! * the first occurrence of every later variant — frontend, CPS and
//!   isel re-run, but the immediate-masked allocation key hits and the
//!   MILP solve is skipped (`alloc_hits` = `distinct` − 1);
//! * every repeat of a variant — a whole-image hit (`output_hits` =
//!   `total` − `distinct`).
//!
//! The cold baseline compiles a sample of the same stream through fresh
//! throwaway sessions. Warm and cold artifacts are compared with
//! [`CompileOutput::artifact_eq`]; any mismatch is reported (and gated
//! to zero) because incremental recompilation must be bit-identical to
//! a cold build.

use crate::json::Json;
use nova::{CacheStats, CompileConfig, CompileOutput, CompileReport, Compiler};
use nova_server::{CompileRequest, Server, ServerConfig};
use std::time::{Duration, Instant};
use workloads::{classifier_rules, classifier_source, CLASSIFIER_RULES};

/// Stream seed shared by the full and smoke scales so their rule
/// sets — and therefore their cache counters — are reproducible.
pub const SERVICE_SEED: u64 = 0x00C0_FFEE;

/// The seeded rule-update stream: `total` requests over `distinct`
/// variants, request `i` carrying variant `i % distinct`.
pub fn service_stream(total: usize, distinct: usize) -> Vec<CompileRequest> {
    (0..total)
        .map(|i| {
            let rules = classifier_rules(SERVICE_SEED, (i % distinct) as u64, CLASSIFIER_RULES);
            CompileRequest::new(i as u64, classifier_source(&rules))
        })
        .collect()
}

/// Measured outcome of one service bench run.
#[derive(Debug)]
pub struct ServiceRun {
    /// Requests in the warm stream.
    pub total: usize,
    /// Distinct rule-set variants in the stream.
    pub distinct: usize,
    /// Cold one-shot compiles sampled for the baseline rate.
    pub cold_samples: usize,
    /// Worker threads the server ran.
    pub workers: usize,
    /// Wall time of the warm batch.
    pub warm_wall: Duration,
    /// Wall time of the cold sample.
    pub cold_wall: Duration,
    /// The shared session's cache counters after the stream.
    pub stats: CacheStats,
    /// Warm responses whose artifact differed from the cold compile of
    /// the same source (must be zero: warm must be bit-identical).
    pub mismatches: usize,
    /// Warm requests that failed to compile (must be zero).
    pub failures: usize,
}

impl ServiceRun {
    /// Warm compiles per second over the whole stream.
    pub fn warm_rate(&self) -> f64 {
        self.total as f64 / self.warm_wall.as_secs_f64().max(1e-9)
    }

    /// Cold one-shot compiles per second over the sample.
    pub fn cold_rate(&self) -> f64 {
        self.cold_samples as f64 / self.cold_wall.as_secs_f64().max(1e-9)
    }

    /// Warm-over-cold throughput ratio — the headline the ≥5× acceptance
    /// floor gates.
    pub fn speedup(&self) -> f64 {
        self.warm_rate() / self.cold_rate().max(1e-9)
    }
}

/// Run the service bench: a cold one-shot baseline over the first
/// `cold_samples` requests, then the full `total`-request stream through
/// a one-worker server (one worker keeps the cache counters exactly
/// deterministic; the server tests cover multi-worker sharing).
///
/// # Panics
///
/// Panics if a cold compile fails — the generated sources are known-good,
/// so a cold failure is harness breakage, not a measurement.
pub fn run_service(total: usize, distinct: usize, cold_samples: usize) -> ServiceRun {
    let stream = service_stream(total, distinct);

    // Cold baseline: every request through a fresh throwaway session.
    let cold_start = Instant::now();
    let cold: Vec<CompileOutput> = stream
        .iter()
        .take(cold_samples)
        .map(|r| {
            Compiler::new(CompileConfig::default())
                .compile_output(&r.source)
                .unwrap_or_else(|e| panic!("cold compile of request {}: {e}", r.id))
        })
        .collect();
    let cold_wall = cold_start.elapsed();

    // Warm: the whole stream as one batch through the shared session.
    let server = Server::new(ServerConfig {
        workers: 1,
        compile: CompileConfig::default(),
        ..ServerConfig::default()
    });
    let warm_start = Instant::now();
    let responses = server.submit_batch(stream);
    let warm_wall = warm_start.elapsed();
    let stats = server.cache_stats();

    let failures = responses.iter().filter(|r| r.result.is_err()).count();
    let mismatches = responses
        .iter()
        .zip(&cold)
        .filter(|(warm, cold)| match &warm.result {
            Ok(out) => !out.artifact_eq(cold),
            Err(_) => true,
        })
        .count();

    ServiceRun {
        total,
        distinct,
        cold_samples,
        workers: server.workers(),
        warm_wall,
        cold_wall,
        stats,
        mismatches,
        failures,
    }
}

/// JSON view of an [`AllocQuality`](nova::AllocQuality): which ladder
/// rung produced the code and how far from proven-optimal it is.
pub fn quality_json(q: &nova::AllocQuality) -> Json {
    Json::obj([
        ("stage", Json::int(q.stage as usize)),
        ("proven_optimal", Json::Bool(q.proven_optimal)),
        ("gap", Json::Num(q.gap)),
        ("spills", Json::int(q.spills)),
    ])
}

/// JSON view of a [`CompileOutput`]'s headline numbers — the shared
/// shape server responses and bench artifacts render compiles with.
pub fn output_json(out: &CompileOutput) -> Json {
    Json::obj([
        ("code_size", Json::int(out.code_size)),
        ("moves", Json::int(out.alloc_stats.moves)),
        ("spills", Json::int(out.alloc_stats.spills)),
        ("objective", Json::Num(out.alloc_stats.objective)),
        ("quality", quality_json(&out.alloc_quality)),
    ])
}

/// JSON view of a full [`CompileReport`]: the artifact's headline
/// numbers plus per-phase wall time from the aggregated trace.
pub fn report_json(report: &CompileReport) -> Json {
    let mut doc = match output_json(&report.artifact) {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("output_json returns an object"),
    };
    let phases: Vec<Json> = report
        .trace
        .spans
        .iter()
        .filter(|s| s.name.starts_with("phase."))
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name.trim_start_matches("phase."))),
                ("wall_ms", Json::Num(s.total_ns as f64 / 1e6)),
                ("count", Json::int(s.count)),
            ])
        })
        .collect();
    doc.push(("phases".to_string(), Json::Arr(phases)));
    Json::Obj(doc)
}

/// JSON view of one server [`CompileResponse`](nova_server::CompileResponse):
/// the echoed id and latency plus, per outcome, the artifact render or
/// the structured error.
pub fn response_json(r: &nova_server::CompileResponse) -> Json {
    let mut pairs = vec![
        ("id".to_string(), Json::int(r.id as usize)),
        ("ok".to_string(), Json::Bool(r.result.is_ok())),
        (
            "latency_us".to_string(),
            Json::Num(r.latency.as_secs_f64() * 1e6),
        ),
    ];
    match &r.result {
        Ok(out) => pairs.push(("artifact".to_string(), output_json(out))),
        Err(e) => pairs.push((
            "error".to_string(),
            Json::obj([
                ("phase", Json::str(format!("{:?}", e.phase).to_lowercase())),
                ("code", Json::str(e.code)),
                ("message", Json::str(e.message.clone())),
            ]),
        )),
    }
    Json::Obj(pairs)
}

/// JSON view of the session cache counters and derived hit rates.
pub fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj([
        ("alloc_hits", Json::int(s.alloc_hits as usize)),
        ("alloc_misses", Json::int(s.alloc_misses as usize)),
        ("output_hits", Json::int(s.output_hits as usize)),
        ("output_misses", Json::int(s.output_misses as usize)),
        (
            "refinish_fallbacks",
            Json::int(s.refinish_fallbacks as usize),
        ),
        ("evict_count", Json::int(s.evict_count as usize)),
        ("evict_bytes", Json::int(s.evict_bytes as usize)),
        ("disk_hits", Json::int(s.disk_hits as usize)),
        ("disk_misses", Json::int(s.disk_misses as usize)),
        ("disk_rejects", Json::int(s.disk_rejects as usize)),
    ])
}

/// The `BENCH_service.json` document for one run.
pub fn service_json(run: &ServiceRun) -> Json {
    Json::obj([
        ("bench", Json::str("service")),
        (
            "stream",
            Json::obj([
                ("total", Json::int(run.total)),
                ("distinct", Json::int(run.distinct)),
                ("cold_samples", Json::int(run.cold_samples)),
                ("workers", Json::int(run.workers)),
                ("seed", Json::int(SERVICE_SEED as usize)),
                ("rules", Json::int(CLASSIFIER_RULES)),
            ]),
        ),
        ("counters", cache_stats_json(&run.stats)),
        (
            "rates",
            Json::obj([
                ("warm_compiles_per_sec", Json::Num(run.warm_rate())),
                ("cold_compiles_per_sec", Json::Num(run.cold_rate())),
                ("speedup", Json::Num(run.speedup())),
                (
                    "output_hit_rate",
                    Json::Num(run.stats.output_hit_rate().unwrap_or(0.0)),
                ),
                (
                    "alloc_hit_rate",
                    Json::Num(run.stats.alloc_hit_rate().unwrap_or(0.0)),
                ),
            ]),
        ),
        ("mismatches", Json::int(run.mismatches)),
        ("failures", Json::int(run.failures)),
        ("warm_wall_ms", Json::Num(run.warm_wall.as_secs_f64() * 1e3)),
        ("cold_wall_ms", Json::Num(run.cold_wall.as_secs_f64() * 1e3)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_counters_are_exactly_predictable() {
        // A miniature stream with the same shape as the bench: the
        // counter algebra in the module doc must hold exactly.
        let (total, distinct) = (12, 4);
        let run = run_service(total, distinct, 2);
        assert_eq!(run.failures, 0);
        assert_eq!(run.mismatches, 0);
        let s = &run.stats;
        assert_eq!(s.output_misses, distinct as u64);
        assert_eq!(s.output_hits, (total - distinct) as u64);
        assert_eq!(s.alloc_misses, 1);
        assert_eq!(s.alloc_hits, distinct as u64 - 1);
        assert_eq!(s.refinish_fallbacks, 0);
    }

    #[test]
    fn service_json_round_trips_and_carries_the_gated_keys() {
        let run = run_service(6, 2, 1);
        let doc = Json::parse(&service_json(&run).pretty()).unwrap();
        let counters = doc.get("counters").expect("counters");
        assert_eq!(counters.num("output_hits"), Some(4.0));
        assert_eq!(counters.num("alloc_misses"), Some(1.0));
        let rates = doc.get("rates").expect("rates");
        assert!(rates.num("warm_compiles_per_sec").unwrap() > 0.0);
        assert!(rates.num("speedup").unwrap() > 0.0);
        assert_eq!(doc.num("mismatches"), Some(0.0));
    }

    #[test]
    fn response_json_renders_success_and_failure() {
        let server = Server::new(ServerConfig {
            workers: 1,
            compile: CompileConfig::default(),
            ..ServerConfig::default()
        });
        let ok = server.submit(CompileRequest::new(
            7,
            "fun main() { let (a, b) = sram(0); sram(8) <- (a + b, a); 0 }",
        ));
        let doc = Json::parse(&response_json(&ok).pretty()).unwrap();
        assert_eq!(doc.num("id"), Some(7.0));
        assert!(doc.get("artifact").is_some());
        let bad = server.submit(CompileRequest::new(8, "fun main() { y }"));
        let doc = Json::parse(&response_json(&bad).pretty()).unwrap();
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("E-TYPE")
        );
    }
}
