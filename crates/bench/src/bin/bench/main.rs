//! The one `bench` binary: every scenario of the paper reproduction is
//! a subcommand (run from the repo root).
//!
//! ```text
//! bench <writer> [--smoke] [OUT]   solver|throughput|phases|traffic|service|reload|rollout
//! bench <table>                    fig5|fig6|fig7|ablation-*|ext-remat
//! bench gate BASE CURRENT          two documents, or two directories
//! ```
//!
//! A **writer** runs its scenario and writes the document to `OUT`
//! (default `BENCH_<writer>.json`). With `--smoke` it runs the *same*
//! scenario code at a small fixed scale and writes nothing. Either way it
//! exits non-zero on any violated scenario invariant or failing
//! baseline-free row (`Zero`, `AbsFloor`) of the gate's rule table. A
//! smoke run that is a sub-sweep of the full one is also held to the
//! host-independent rows against its checked-in `BENCH_<writer>.json`
//! points.
//!
//! `gate` diffs fresh documents against baselines with the tolerances of
//! [`bench::gate`]: two files, or — for all seven kinds at once —
//! `BASE/BENCH_<kind>.json` against `CURRENT/BENCH_<kind>.ci.json`. The
//! markdown verdict goes to stdout and, inside a GitHub Actions job, to
//! `GITHUB_STEP_SUMMARY`.

mod ext_remat;
mod phases;
mod reload;
mod rollout;
mod service;
mod solver;
mod tables;
mod throughput;
mod traffic;

use bench::gate::{gate, GateReport, Rule};
use bench::json::Json;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// A scenario that produces a `BENCH_<name>.json` document, collecting
/// the invariants it found violated along the way.
struct Writer {
    name: &'static str,
    run: fn(smoke: bool, violations: &mut Vec<String>) -> Json,
    /// Whether the smoke scale is a subset of the full sweep's points
    /// (and so comparable against the checked-in baseline) rather than a
    /// scaled-down stream of its own.
    smoke_is_subsweep: bool,
}

#[rustfmt::skip]
const WRITERS: [Writer; 7] = [
    Writer { name: "solver", run: solver::run, smoke_is_subsweep: true },
    Writer { name: "throughput", run: throughput::run, smoke_is_subsweep: true },
    Writer { name: "phases", run: phases::run, smoke_is_subsweep: true },
    Writer { name: "traffic", run: traffic::run, smoke_is_subsweep: true },
    Writer { name: "service", run: service::run, smoke_is_subsweep: false },
    Writer { name: "reload", run: reload::run, smoke_is_subsweep: false },
    Writer { name: "rollout", run: rollout::run, smoke_is_subsweep: false },
];

const TABLES: [(&str, fn()); 9] = [
    ("fig5", tables::fig5),
    ("fig6", tables::fig6),
    ("fig7", tables::fig7),
    ("ablation-spill-prepass", tables::ablation_spill_prepass),
    ("ablation-redundant-cuts", tables::ablation_redundant_cuts),
    ("ablation-bias", tables::ablation_bias),
    ("ablation-pruning", tables::ablation_pruning),
    ("ablation-ssu", tables::ablation_ssu),
    ("ext-remat", ext_remat::run),
];

fn usage() -> ExitCode {
    let names = |it: &mut dyn Iterator<Item = &'static str>| it.collect::<Vec<_>>().join("|");
    eprintln!(
        "usage: bench <writer> [--smoke] [OUT]   writer: {}\n       \
         bench <table>                    table: {}\n       \
         bench gate BASE CURRENT          two documents, or two directories",
        names(&mut WRITERS.iter().map(|w| w.name)),
        names(&mut TABLES.iter().map(|t| t.0)),
    );
    ExitCode::from(2)
}

/// Hold each `(what, got, want)` counter of a seeded stream to the exact
/// value its shape predicts.
fn expect_counts(violations: &mut Vec<String>, rows: &[(&str, u64, usize)]) {
    for &(what, got, want) in rows {
        if got != want as u64 {
            violations.push(format!("{what}: {got}, expected {want}"));
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// An unreadable side is a structural error of the pair.
fn unreadable(e: String) -> GateReport {
    GateReport {
        errors: vec![e],
        ..GateReport::default()
    }
}

fn fmt_val(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// A GitHub-flavored markdown table of every check, then any structural
/// errors, then a one-line verdict.
fn markdown(report: &GateReport, title: &str) -> String {
    let mut out = format!("### {title}\n\n");
    out.push_str("| metric | baseline | current | rule | status |\n");
    out.push_str("|---|---:|---:|---|---|\n");
    for c in &report.checks {
        let rule = match c.rule {
            Rule::Floor { drop } => format!("≥ −{:.0}%", drop * 100.0),
            Rule::Exact => "exact".to_string(),
            Rule::NoIncrease => "no increase".to_string(),
            Rule::Ceiling { headroom } => format!("≤ +{:.0}%", headroom * 100.0),
            Rule::AbsFloor(c) => format!("≥ {}", fmt_val(c)),
            Rule::Zero => "zero".to_string(),
            Rule::Info => "info".to_string(),
        };
        let status = match (c.rule, c.pass) {
            (Rule::Info, _) => "—",
            (_, true) => "ok",
            (_, false) => "**FAIL**",
        };
        let (b, v) = (fmt_val(c.baseline), fmt_val(c.current));
        out.push_str(&format!("| {} | {b} | {v} | {rule} | {status} |\n", c.name));
    }
    for e in &report.errors {
        out.push_str(&format!("\n**ERROR**: {e}\n"));
    }
    out.push_str(&format!(
        "\n{}: {} checks, {} failing\n",
        if report.passed() { "PASS" } else { "FAIL" },
        report.checks.len(),
        report.failures()
    ));
    out
}

fn run_gate(base: &Path, cur: &Path) -> ExitCode {
    let pairs: Vec<_> = if base.is_dir() && cur.is_dir() {
        WRITERS
            .iter()
            .map(|w| {
                (
                    base.join(format!("BENCH_{}.json", w.name)),
                    cur.join(format!("BENCH_{}.ci.json", w.name)),
                )
            })
            .collect()
    } else {
        vec![(base.to_path_buf(), cur.to_path_buf())]
    };
    let mut text = String::new();
    let mut failed = false;
    for (base, cur) in &pairs {
        let report = match (load(base), load(cur)) {
            (Ok(base), Ok(cur)) => gate(&base, &cur, false),
            (Err(e), _) | (_, Err(e)) => unreadable(e),
        };
        let title = format!("{} vs {}", base.display(), cur.display());
        text.push_str(&markdown(&report, &title));
        text.push('\n');
        failed |= !report.passed();
    }
    print!("{text}");
    if let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
        {
            let _ = f.write_all(text.as_bytes());
        }
    }
    if failed {
        eprintln!("perf gate FAILED");
        return ExitCode::FAILURE;
    }
    println!("perf gate passed");
    ExitCode::SUCCESS
}

fn run_writer(w: &Writer, smoke: bool, out: Option<&str>) -> ExitCode {
    let mut violations = Vec::new();
    let doc = (w.run)(smoke, &mut violations);
    let baseline = format!("BENCH_{}.json", w.name);
    // Baseline-free rows need no baseline: the document vouches for
    // itself, unless its points are rows of the checked-in one.
    let (report, against) = if smoke && w.smoke_is_subsweep {
        let base = load(Path::new(&baseline));
        let report = base.map_or_else(unreadable, |base| gate(&base, &doc, true));
        (report, baseline.as_str())
    } else {
        (gate(&doc, &doc, false), "its own contracts")
    };
    if !smoke {
        let path = out.unwrap_or(&baseline);
        match std::fs::write(path, doc.pretty()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => violations.push(format!("writing {path}: {e}")),
        }
    }
    let scale = if smoke { " smoke" } else { "" };
    if !report.passed() {
        print!("{}", markdown(&report, &format!("{}{scale}", w.name)));
    }
    for v in &violations {
        eprintln!("{}{scale} VIOLATION: {v}", w.name);
    }
    if !report.passed() || !violations.is_empty() {
        eprintln!("{}{scale} FAILED", w.name);
        return ExitCode::FAILURE;
    }
    println!(
        "{}{scale} OK: {} checks against {against}, every scenario invariant holds",
        w.name,
        report.checks.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["gate", base, cur] => run_gate(Path::new(base), Path::new(cur)),
        [name, rest @ ..] => {
            let table = TABLES.iter().find(|t| t.0 == *name);
            let writer = WRITERS.iter().find(|w| w.name == *name);
            match (table, writer, rest) {
                (Some(table), _, []) => {
                    (table.1)();
                    ExitCode::SUCCESS
                }
                (_, Some(w), []) => run_writer(w, false, None),
                (_, Some(w), ["--smoke"]) => run_writer(w, true, None),
                (_, Some(w), [out]) if !out.starts_with('-') => run_writer(w, false, Some(out)),
                _ => usage(),
            }
        }
        [] => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_lists_every_check_and_verdict() {
        let doc = |pivots_per_sec: f64| {
            Json::parse(&format!(
                r#"{{"bench":"solver","programs":[{{"name":"AES",
                    "pivots_per_sec":{pivots_per_sec},"proven_optimal":true,
                    "objective":75.9436,"spills":0,"moves":13,
                    "solve_s":0.2,"pivots":3633}}]}}"#
            ))
            .unwrap()
        };
        let md = markdown(&gate(&doc(20_000.0), &doc(14_000.0), false), "solver");
        assert!(md.contains("| programs[AES]/pivots_per_sec | 20000 | 14000 | ≥ −20% |"));
        assert!(md.contains("| programs[AES]/pivots_per_sec | 1500 | 14000 | ≥ 1500 |"));
        assert!(md.contains("**FAIL**"));
        assert!(md.contains("FAIL: 9 checks, 1 failing"));
    }
}
