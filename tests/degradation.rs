//! Graceful degradation through the full `nova` pipeline: with the
//! fallback ladder, compilation terminates with a verifier-clean,
//! validated allocation at *any* deadline — including zero — for every
//! checked-in workload; the strict `Fail` policy reproduces the
//! historical budget-exhaustion error; and the default (generous-budget)
//! configuration still reports an exact, stage-0 allocation.

use nova::{CompileConfig, CompileError, Compiler, FallbackPolicy, Phase};
use proptest::prelude::*;
use std::time::Duration;
use workloads::{AES_NOVA, KASUMI_NOVA, NAT_NOVA};

const WORKLOADS: [(&str, &str); 3] = [
    ("aes", AES_NOVA),
    ("kasumi", KASUMI_NOVA),
    ("nat", NAT_NOVA),
];

/// Small programs that exercise distinct allocation shapes (aggregates,
/// reuse across stores, a loop) without benchmark-sized solve times —
/// the proptest sweep compiles each many times.
const SAMPLES: [&str; 3] = [
    "fun main() { let (x, y) = sram(0); sram(10) <- (x + y); 0 }",
    r#"fun main() {
        let (u, v, x, w) = sram(0);
        sram(100) <- (u, v, x, w);
        sram(200) <- (w, x, u, v);
        0
    }"#,
    r#"fun main() {
        let i = 0;
        let acc = 0;
        while (i < 10) { acc = acc + i; i = i + 1; }
        sram(0) <- (acc);
        0
    }"#,
];

fn config(deadline: Duration, policy: FallbackPolicy) -> CompileConfig {
    CompileConfig::builder()
        .solver_deadline(Some(deadline))
        .fallback_policy(policy)
        .build()
}

#[test]
fn every_workload_compiles_at_zero_deadline_under_ladder() {
    for (name, src) in WORKLOADS {
        let out = Compiler::new(config(Duration::ZERO, FallbackPolicy::Ladder))
            .compile_output(src)
            .unwrap_or_else(|e| panic!("{name}: ladder must not fail: {e}"));
        // In debug builds (this test) the backend verifier has already
        // checked the allocation; the machine validator must agree too.
        assert!(
            ixp_machine::validate(&out.prog).is_empty(),
            "{name}: degraded code must validate"
        );
        assert!(
            out.alloc_quality.stage >= 1,
            "{name}: a zero budget cannot prove stage 0"
        );
        assert!(out.alloc_quality.stage <= 4, "{name}");
        assert!(!out.prog.blocks.is_empty(), "{name}: runnable code");
    }
}

#[test]
fn default_config_reports_exact_stage_zero() {
    // Generous budget: the ladder never engages, and the report says so.
    let out = Compiler::new(CompileConfig::default())
        .compile_output(SAMPLES[1])
        .expect("compiles");
    assert_eq!(out.alloc_quality.stage, 0);
    assert!(out.alloc_quality.proven_optimal);
    assert_eq!(out.alloc_quality.gap, 0.0);
    assert_eq!(out.alloc_quality.spills, out.alloc_stats.spills);
}

#[test]
fn fail_policy_reproduces_the_budget_error_bit_for_bit() {
    let strict = || -> CompileError {
        let Err(e) =
            Compiler::new(config(Duration::ZERO, FallbackPolicy::Fail)).compile_output(SAMPLES[0])
        else {
            panic!("zero budget must fail under Fail")
        };
        e
    };
    let e = strict();
    assert_eq!(e.phase, Phase::Alloc);
    assert_eq!(e.code, "E-ALLOC");
    assert!(e.span.is_none(), "backend phases carry no span");
    assert!(
        e.message
            .contains("budget exhausted before an integer solution was found"),
        "message: {}",
        e.message
    );
    // Bit-for-bit: the strict error is deterministic across runs.
    let again = strict();
    assert_eq!(e.phase, again.phase);
    assert_eq!(e.code, again.code);
    assert_eq!(e.message, again.message);
}

/// Degraded (greedy) code must be functionally equivalent to exact code
/// even when many hardware contexts run the same image: spill slots are
/// addressed per-context (a `CSR_CTX`-scaled base computed in the entry
/// prologue), so contexts must not clobber each other's scratch regions.
/// Guards the historical bug where absolute spill addresses livelocked
/// multi-context runs.
#[test]
fn degraded_code_is_context_safe() {
    use bench::Benchmark;
    use ixp_sim::{simulate_chip, ChipConfig};

    let b = Benchmark::Nat;
    let exact = bench::compile(b, &CompileConfig::default());
    let greedy = bench::compile(b, &config(Duration::ZERO, FallbackPolicy::Greedy));
    assert_eq!(greedy.alloc_quality.stage, 4);
    assert!(greedy.alloc_quality.spills > 0, "greedy NAT must spill");

    let mut sdrams = Vec::new();
    for out in [&exact, &greedy] {
        for (engines, contexts) in [(1, 1), (1, 4), (2, 4)] {
            let mut mem = bench::setup_memory(b, 4, 16);
            let cfg = ChipConfig {
                engines,
                contexts,
                max_cycles: 50_000_000,
                ..ChipConfig::default()
            };
            let res = simulate_chip(&out.prog, &mut mem, &cfg).expect("chip sim");
            assert_eq!(
                res.stop,
                ixp_sim::StopReason::AllHalted,
                "{engines}e x {contexts}c must complete"
            );
            assert_eq!(
                res.packets, 4,
                "{engines}e x {contexts}c must tx all packets"
            );
            sdrams.push(mem.sdram);
        }
    }
    for (i, s) in sdrams.iter().enumerate().skip(1) {
        assert_eq!(s, &sdrams[0], "run {i} diverged from exact 1e x 1c sdram");
    }
}

/// Degraded is never dead: under a solver deadline no benchmark-sized
/// ILP can meet, every checked-in workload still compiles, and the image
/// — whichever ladder rung produced it — transmits every packet on a
/// multi-engine, multi-context chip instead of livelocking or dropping.
#[test]
fn every_workload_runs_all_packets_when_compiled_under_a_50ms_deadline() {
    use bench::Benchmark;
    use ixp_sim::{simulate_chip, ChipConfig, StopReason};

    let compiler = Compiler::new(config(Duration::from_millis(50), FallbackPolicy::Ladder));
    for b in Benchmark::ALL {
        let out = compiler
            .compile_output(b.source())
            .unwrap_or_else(|e| panic!("{}: ladder must not fail: {e}", b.name()));
        let mut mem = bench::setup_memory(b, 8, 16);
        let cfg = ChipConfig {
            engines: 2,
            contexts: 4,
            max_cycles: 50_000_000,
            ..ChipConfig::default()
        };
        let res = simulate_chip(&out.prog, &mut mem, &cfg).expect("chip sim");
        assert_eq!(
            res.stop,
            StopReason::AllHalted,
            "{} must complete",
            b.name()
        );
        assert_eq!(res.packets, 8, "{} must tx all packets", b.name());
    }
}

proptest! {
    // Each case is a full debug-mode compile; keep the sweep small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The never-fail contract: any near-zero deadline with `Ladder`
    /// yields a validated allocation (debug builds also run the backend
    /// verifier inside the compile pipeline).
    #[test]
    fn ladder_always_yields_a_verified_allocation(
        deadline_us in 0u64..2_000,
        which in 0usize..SAMPLES.len(),
    ) {
        let cfg = config(Duration::from_micros(deadline_us), FallbackPolicy::Ladder);
        let out = Compiler::new(cfg)
            .compile_output(SAMPLES[which])
            .map_err(|e| TestCaseError::fail(format!("ladder failed: {e}")))?;
        prop_assert!(ixp_machine::validate(&out.prog).is_empty());
        prop_assert!(out.alloc_quality.stage <= 4);
    }
}
