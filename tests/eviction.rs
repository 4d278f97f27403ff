//! Bounded-cache contracts: eviction changes *retention*, never
//! *content*. A session squeezed to a one-entry budget recompiles
//! evicted revisions from scratch and lands bit-identical artifacts; the
//! evict counters move deterministically and stay at exactly zero for
//! the unbounded default.

use nova::{CacheBudget, CacheStats, CompileConfig, Compiler};
use workloads::{classifier_rules, classifier_source, CLASSIFIER_RULES};

/// Seed for the generated rule sets.
const STREAM_SEED: u64 = 0x0E51_C7ED;

fn classifier(variant: u64, rules: usize) -> String {
    classifier_source(&classifier_rules(STREAM_SEED, variant, rules))
}

fn cfg(budget: Option<CacheBudget>) -> CompileConfig {
    let b = CompileConfig::builder();
    match budget {
        Some(budget) => b.cache_budget(budget).build(),
        None => b.build(),
    }
}

/// Compile `sources` through one session; return its artifacts + stats.
fn run_stream(
    config: &CompileConfig,
    sources: &[String],
) -> (Vec<nova::CompileOutput>, CacheStats) {
    let session = Compiler::new(config.clone());
    let outs = sources
        .iter()
        .map(|s| session.compile_output(s).expect("compiles"))
        .collect();
    (outs, session.cache_stats())
}

#[test]
fn unbounded_default_never_evicts() {
    let stream: Vec<String> = (2..=5).map(|n| classifier(0, n)).collect();
    let (_, s) = run_stream(&cfg(None), &stream);
    assert_eq!(s.evict_count, 0);
    assert_eq!(s.evict_bytes, 0);
}

#[test]
fn one_entry_budget_recompiles_evicted_revisions_bit_identically() {
    // A, B, A with structurally distinct A and B: the second A finds
    // every one of its entries evicted and walks the full cold path
    // again — and must land exactly the first A's artifact.
    let a = classifier(0, CLASSIFIER_RULES);
    let b = classifier(0, 2);
    let stream = [a.clone(), b, a];

    let (unbounded, su) = run_stream(&cfg(None), &stream);
    assert_eq!(su.alloc_misses, 2, "unbounded: A's repeat is an image hit");
    assert_eq!(su.output_hits, 1);

    let (bounded, sb) = run_stream(&cfg(Some(CacheBudget::entries(1))), &stream);
    assert_eq!(sb.alloc_misses, 3, "bounded: A was evicted, solved again");
    assert_eq!(sb.alloc_hits, 0);
    assert_eq!(sb.output_hits, 0);
    assert_eq!(sb.output_misses, 3);
    assert!(sb.evict_count > 0);
    assert!(sb.evict_bytes > 0);
    for (e, u) in bounded.iter().zip(&unbounded) {
        assert!(e.artifact_eq(u), "eviction changed an artifact");
    }
}

#[test]
fn evict_counter_algebra_is_exact_and_deterministic() {
    // At a one-entry budget every cold structural compile after the
    // first re-inserts the same set of cache entries, evicting its
    // predecessor's: the A,B,A stream evicts exactly twice what the A,B
    // prefix does, and identical runs agree on every counter.
    let a = classifier(0, CLASSIFIER_RULES);
    let b = classifier(0, 2);
    let budget = cfg(Some(CacheBudget::entries(1)));

    let (_, ab) = run_stream(&budget, &[a.clone(), b.clone()]);
    let (_, aba) = run_stream(&budget, &[a.clone(), b.clone(), a.clone()]);
    assert!(ab.evict_count > 0);
    assert_eq!(aba.evict_count, 2 * ab.evict_count);

    let (_, again) = run_stream(&budget, &[a, b.clone(), b]);
    // The verbatim B repeat is an eviction-free no-op even when bounded:
    // nothing is recomputed, so nothing is inserted or displaced.
    assert_eq!(again.evict_count, ab.evict_count);
    assert_eq!(again.output_hits, 1);

    let (_, rerun) = run_stream(
        &budget,
        &[classifier(0, CLASSIFIER_RULES), classifier(0, 2)],
    );
    assert_eq!(rerun, ab, "identical bounded runs agree on every counter");
}

#[test]
fn eviction_in_other_phases_keeps_constant_variant_solve_free() {
    // v0 and v1 share the immediate-masked allocation key. A one-entry
    // budget churns the image cache between them, but the allocation
    // entry is only displaced by another *allocation* insert — so v1
    // still refinishes without a solve.
    let stream = [
        classifier(0, CLASSIFIER_RULES),
        classifier(1, CLASSIFIER_RULES),
    ];
    let (outs, s) = run_stream(&cfg(Some(CacheBudget::entries(1))), &stream);
    assert_eq!(s.alloc_misses, 1);
    assert_eq!(s.alloc_hits, 1, "constant edit stayed solve-free");
    assert_eq!(s.refinish_fallbacks, 0);
    let cold = Compiler::new(cfg(None))
        .compile_output(&stream[1])
        .expect("compiles");
    assert!(outs[1].artifact_eq(&cold));
}

#[test]
fn byte_budget_bounds_like_entry_budget() {
    // One byte of budget can hold nothing — but the insert-exempt rule
    // means every fresh entry still lands, displacing the rest. The
    // stream behaves exactly like the one-entry budget.
    let a = classifier(0, CLASSIFIER_RULES);
    let b = classifier(0, 3);
    let stream = [a.clone(), b, a];
    let (bounded, s) = run_stream(&cfg(Some(CacheBudget::bytes(1))), &stream);
    assert_eq!(s.alloc_misses, 3);
    assert!(s.evict_count > 0);
    let (unbounded, _) = run_stream(&cfg(None), &stream);
    for (e, u) in bounded.iter().zip(&unbounded) {
        assert!(e.artifact_eq(u));
    }
}
