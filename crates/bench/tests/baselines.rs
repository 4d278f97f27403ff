//! The gate's rule table against the real, checked-in `BENCH_*.json`
//! documents (the unit tests in `gate.rs` use hand-built fixtures): every
//! baseline passes against itself with at least the number of checks the
//! seven hand-written `gate_*` functions made before they became one
//! table, and one nudged deterministic leaf fails exactly one check.

use bench::gate::gate;
use bench::json::Json;

fn baseline(kind: &str) -> Json {
    let path = format!("{}/../../BENCH_{kind}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Add one to the number at `path`: object members by name, array
/// elements by index.
fn bump(doc: &mut Json, path: &[&str]) {
    let Some((step, rest)) = path.split_first() else {
        let Json::Num(v) = doc else {
            panic!("path ends on a non-number")
        };
        *v += 1.0;
        return;
    };
    let next = match doc {
        Json::Obj(pairs) => pairs.iter_mut().find(|(k, _)| k == step).map(|(_, v)| v),
        Json::Arr(items) => items.get_mut(step.parse::<usize>().expect("array index")),
        _ => None,
    };
    bump(next.unwrap_or_else(|| panic!("no `{step}`")), rest);
}

#[test]
fn every_checked_in_baseline_passes_against_itself() {
    // Check counts of the per-document gate functions this table replaced;
    // rows may be added, never lost — except with the mechanism they
    // counted (service was 27 until the frontend/CPS/isel caches and
    // their six counter rows were deleted, then 21 until the hint pool
    // and its `hint_offers` row were; rollout was 339 until the
    // host-thread re-run and its mismatch row were).
    let floor = [
        ("solver", 18),
        ("throughput", 72),
        ("phases", 54),
        ("traffic", 60),
        ("service", 20),
        ("reload", 38),
        ("rollout", 338),
    ];
    for (kind, checks) in floor {
        let doc = baseline(kind);
        let r = gate(&doc, &doc, false);
        assert!(r.passed(), "{kind}: {:?}", r.errors);
        assert!(
            r.checks.len() >= checks,
            "{kind}: {} checks, was {checks}",
            r.checks.len()
        );
    }
}

#[test]
fn one_nudged_exact_leaf_fails_exactly_one_check() {
    let leaves: [(&str, &[&str]); 7] = [
        ("solver", &["programs", "2", "objective"]),
        (
            "throughput",
            &["programs", "0", "engine_sweep", "5", "cycles"],
        ),
        ("phases", &["programs", "1", "counters", "sim.cycles"]),
        ("traffic", &["sweep", "1", "latency", "p99"]),
        ("service", &["counters", "alloc_hits"]),
        ("reload", &["hot", "swaps", "2", "update_cycles"]),
        (
            "rollout",
            &["scenarios", "1", "stages", "0", "rollback_cycles"],
        ),
    ];
    for (kind, path) in leaves {
        let base = baseline(kind);
        let mut cur = base.clone();
        bump(&mut cur, path);
        let r = gate(&base, &cur, false);
        assert!(r.errors.is_empty(), "{kind}: {:?}", r.errors);
        let failing: Vec<_> = r.checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failing.len(), 1, "{kind}: {failing:?}");
        assert!(
            failing[0].name.ends_with(path.last().unwrap()),
            "{kind}: {failing:?}"
        );
    }
}
