//! `bench service` (E15) — compilation as a service. Replays the seeded
//! rule-update stream ([`bench::service`]) through a one-worker
//! `nova-server` over one shared compile session, next to a cold
//! one-shot baseline, and records warm/cold compiles per second, the
//! warm-over-cold speedup, and the session's cache counters
//! (`BENCH_service.json`). The counters (and the zero-mismatch
//! bit-identity of warm vs cold artifacts) are deterministic and gated
//! exactly, the rates get floors.
//!
//! One worker keeps the counter algebra exact.

use bench::json::Json;
use bench::service::{run_service, service_json};
use bench::table;

/// (requests, distinct rule-set variants, cold one-shot samples): request
/// `i` carries variant `i % distinct`. Every distinct variant cold would
/// dominate wall time; a sample is enough for a stable rate.
const FULL: (usize, usize, usize) = (1000, 250, 25);
const SMOKE: (usize, usize, usize) = (60, 20, 5);

pub fn run(smoke: bool, violations: &mut Vec<String>) -> Json {
    let (total, distinct, cold_samples) = if smoke { SMOKE } else { FULL };
    println!(
        "Compile service: {total} requests over {distinct} rule-set variants, \
         {cold_samples} cold one-shot samples\n"
    );
    let run = run_service(total, distinct, cold_samples);
    let s = &run.stats;
    println!(
        "{}",
        table(
            &["side", "compiles", "wall ms", "compiles/s"],
            &[
                vec![
                    "cold".into(),
                    format!("{}", run.cold_samples),
                    format!("{:.0}", run.cold_wall.as_secs_f64() * 1e3),
                    format!("{:.0}", run.cold_rate()),
                ],
                vec![
                    "warm".into(),
                    format!("{}", run.total),
                    format!("{:.0}", run.warm_wall.as_secs_f64() * 1e3),
                    format!("{:.0}", run.warm_rate()),
                ],
            ],
        )
    );
    println!(
        "speedup: {:.1}x   image hits {}/{}   solve-free recompiles {}/{} \
         (refinish fallbacks {})",
        run.speedup(),
        s.output_hits,
        s.output_hits + s.output_misses,
        s.alloc_hits,
        s.alloc_hits + s.alloc_misses,
        s.refinish_fallbacks,
    );
    println!(
        "warm vs cold artifacts: {} compared, {} mismatches, {} failures",
        run.cold_samples, run.mismatches, run.failures
    );
    // The counter algebra of the stream (see `bench::service`).
    crate::expect_counts(
        violations,
        &[
            ("image hits (every repeat)", s.output_hits, total - distinct),
            ("image misses (every first)", s.output_misses, distinct),
            ("MILP solves (one shared structure)", s.alloc_misses, 1),
            ("solve-free re-finishes", s.alloc_hits, distinct - 1),
            ("refinish fallbacks", s.refinish_fallbacks, 0),
        ],
    );
    service_json(&run)
}
