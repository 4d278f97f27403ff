//! Every workload at smoke scale, and the agreement of the emitted names
//! with the declared ones and with the checked-in `BENCHMARK.json`.

use nova_benchmark::cli::RUN_SECONDS;
use nova_benchmark::json::Json;
use nova_benchmark::metrics::{self, END_TO_END, PER_LAYER, WORKLOADS};
use nova_benchmark::workload::{run, RunArgs};
use std::path::PathBuf;

fn smoke(workload: &str, trace: bool) -> nova_benchmark::workload::RunReport {
    let args = RunArgs {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.2,
        trace,
        smoke: true,
        // One directory per run: tests share a process id.
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}")),
    };
    run(&args).unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_workload_passes_its_checks_at_smoke_scale() {
    for decl in WORKLOADS {
        for trace in [false, true] {
            let report = smoke(decl.name, trace);
            assert!(report.attempted > 0, "{}: nothing was checked", decl.name);
            assert_eq!(
                report.failed, 0,
                "{} (trace {trace}): failed_share must be 0",
                decl.name
            );
            let declared: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let emitted: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(
                emitted, declared,
                "{}: emitted names are the declared ones, in order",
                decl.name
            );
            for (name, value, unit) in &report.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", decl.name);
                assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
                if !trace {
                    assert!(
                        *value > 0.0,
                        "{} {name}: an end-to-end metric is never 0",
                        decl.name
                    );
                }
            }
            if trace {
                let value = |n: &str| report.metrics.iter().find(|m| m.0 == n).unwrap().1;
                assert_eq!(value("bench.staged_split_valid"), 1.0, "{}", decl.name);
                assert!(
                    value("nova.alloc_solves_per_structure") >= 1.0,
                    "{}",
                    decl.name
                );
                let trace_file = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("{}-true", decl.name))
                    .join(format!("trace-{}.jsonl", decl.name));
                let text =
                    std::fs::read_to_string(&trace_file).expect("the traced run writes its spans");
                let first = Json::parse(text.lines().next().expect("at least one span")).unwrap();
                for key in ["id", "name", "start_ns", "end_ns", "parent", "request"] {
                    assert!(first.get(key).is_some(), "span lacks '{key}'");
                }
            }
        }
    }
}

#[test]
fn declared_names_and_counts_fit_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)));
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used once");
    assert!(END_TO_END
        .iter()
        .all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
    assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(setup.unit == "s" && setup.better == metrics::Better::Lower);
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn benchmark_json_is_the_declared_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        doc,
        metrics::benchmark_json(RUN_SECONDS),
        "regenerate with `benchmark/run.sh describe`"
    );
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    for w in doc.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {} characters",
            why.len()
        );
    }
}
