//! Command line of the benchmark binary.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is the result object.
//! * no `--trace` — the suite: every workload (or the one named) in a
//!   fresh child process, first untraced, then traced; prints every
//!   metric and writes `out/results.json`.
//! * `compare A.json B.json` — apply each end-to-end metric's own bound
//!   to two suite results; non-zero exit on a regression.
//! * `describe` — print the `BENCHMARK.json` the metric tables describe.

use crate::json::Json;
use crate::metrics::{self, Better};
use crate::workload::{self, RunArgs, RunReport};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 15;
/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 1;
/// Budget of a `--smoke` run, in seconds.
const SMOKE_SECONDS: f64 = 0.2;

/// Where traces, persist directories and `results.json` go: inside the
/// checkout, next to the sources (`run.sh` runs from the repository root).
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark").join("out")
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--smoke" => o.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = &o.workload {
        if !metrics::WORKLOADS.iter().any(|d| d.name == w) {
            return Err(format!("unknown workload '{w}'"));
        }
    }
    Ok(o)
}

/// The result object of one run, exactly the keys the contract names.
pub fn report_json(report: &RunReport) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|(name, value, unit)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ])
}

fn run_one(o: &Options, workload: String, trace: bool) -> Result<(), String> {
    let args = RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds.unwrap_or(if o.smoke {
            SMOKE_SECONDS
        } else {
            f64::from(RUN_SECONDS)
        }),
        trace,
        smoke: o.smoke,
        out_dir: out_dir(),
    };
    let report = workload::run(&args)?;
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", report_json(&report).render());
    Ok(())
}

/// Run every selected workload in a fresh child process, untraced then
/// traced, and collect the result objects.
fn run_suite(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for decl in metrics::WORKLOADS {
        if o.workload.as_deref().is_some_and(|w| w != decl.name) {
            continue;
        }
        let mut entry = vec![("why".to_string(), Json::Str(decl.why.to_string()))];
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                decl.name,
                "--seed",
                &o.seed.to_string(),
                "--trace",
                trace,
            ]);
            if let Some(s) = o.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if o.smoke {
                cmd.arg("--smoke");
            }
            // `output` waits for the child to end.
            let out = cmd
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            if !out.status.success() {
                return Err(format!(
                    "{} --trace {trace} exited with {}",
                    decl.name, out.status
                ));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().ok_or("child printed nothing")?;
            let doc = Json::parse(last).map_err(|e| format!("{} result: {e}", decl.name))?;
            all_correct &= doc.get("correct") == Some(&Json::Bool(true));
            for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!("{} {name} {value} {unit}", decl.name);
            }
            println!(
                "{} {key}.failed_share {} share",
                decl.name,
                failed_share(&doc).unwrap_or(f64::NAN)
            );
            entry.push((key.to_string(), doc));
        }
        workloads.push((decl.name.to_string(), Json::Obj(entry)));
    }
    let results = Json::obj([
        ("seed", Json::Num(o.seed as f64)),
        (
            "nproc",
            Json::Num(crate::pins::Pins::for_host().nproc as f64),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

fn failed_share(result: &Json) -> Option<f64> {
    Some(result.get("failed")?.as_f64()? / result.get("attempted")?.as_f64()?.max(1.0))
}

/// Share by which `b` is worse than `a` for a metric of the given
/// direction (negative when `b` is better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (a - b) / a.abs().max(f64::MIN_POSITIVE),
    }
}

/// Compare two suite results; returns the regression lines.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or("no 'workloads' object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    for (name, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == name) else {
            regressions.push(format!("{name}: missing from the second result"));
            continue;
        };
        let (ra, rb) = (ea.get("end_to_end"), eb.get("end_to_end"));
        let (Some(ra), Some(rb)) = (ra, rb) else {
            return Err(format!("{name}: no end_to_end result"));
        };
        for m in metrics::END_TO_END {
            let value = |r: &Json| r.get("metrics")?.get(m.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                return Err(format!("{name}: {} missing", m.name));
            };
            let worse = worse_by(va, vb, m.better);
            let verdict = if worse > m.bound { "REGRESSION" } else { "ok" };
            println!(
                "{name} {} {va} -> {vb} {} ({:+.2} % worse, bound {:.0} %) {verdict}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            );
            if worse > m.bound {
                regressions.push(format!(
                    "{name} {}: {:+.2} % worse, bound {:.0} %",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for key in ["end_to_end", "per_layer"] {
            let share = |e: &Json| e.get(key).and_then(failed_share).unwrap_or(0.0);
            if share(eb) > share(ea) {
                regressions.push(format!(
                    "{name} {key}: failed_share rose from {} to {}",
                    share(ea),
                    share(eb)
                ));
            }
        }
    }
    Ok(regressions)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("usage: compare A.json B.json".to_string());
            };
            let regressions = compare(&read_json(a)?, &read_json(b)?)?;
            for r in &regressions {
                eprintln!("REGRESSION: {r}");
            }
            Ok(regressions.is_empty())
        }
        Some("describe") => {
            println!("{}", pretty(&metrics::benchmark_json(RUN_SECONDS), 0));
            Ok(true)
        }
        _ => {
            let o = parse_options(args)?;
            match (o.trace, &o.workload) {
                (Some(trace), Some(w)) => run_one(&o, w.clone(), trace).map(|()| true),
                (Some(_), None) => Err("--trace needs --workload".to_string()),
                (None, _) => run_suite(&o),
            }
        }
    }
}

/// Indented rendering for the checked-in `BENCHMARK.json`: one metric
/// per line.
fn pretty(doc: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match doc {
        Json::Obj(pairs) if depth == 0 => {
            let items: Vec<String> = pairs
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::Str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{close}}}", items.join(",\n"))
        }
        Json::Arr(items) if items.iter().any(|i| matches!(i, Json::Obj(_))) => {
            let items: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", i.render()))
                .collect();
            format!("[\n{}\n{close}]", items.join(",\n"))
        }
        other => other.render(),
    }
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A suite result with one workload whose every metric reads `value`,
    /// except `edits_per_s`.
    fn suite(value: f64, edits_per_s: f64, failed: f64) -> Json {
        let metrics = Json::obj(metrics::END_TO_END.iter().map(|m| {
            let v = if m.name == "edits_per_s" {
                edits_per_s
            } else {
                value
            };
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(v)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        }));
        let result = Json::obj([
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(100.0)),
            ("failed", Json::Num(failed)),
            ("metrics", metrics),
        ]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "edit_stream",
                Json::obj([("end_to_end", result.clone()), ("per_layer", result)]),
            )]),
        )])
    }

    #[test]
    fn compare_applies_each_metrics_own_bound_and_direction() {
        let base = suite(100.0, 1000.0, 0.0);
        assert!(compare(&base, &base).unwrap().is_empty());
        // A rate may fall by less than its bound, not by more.
        let bound = metrics::END_TO_END
            .iter()
            .find(|m| m.name == "edits_per_s")
            .unwrap()
            .bound;
        let inside = 1000.0 * (1.0 - bound + 0.01);
        let outside = 1000.0 * (1.0 - bound - 0.01);
        assert!(compare(&base, &suite(100.0, inside, 0.0))
            .unwrap()
            .is_empty());
        let worse = compare(&base, &suite(100.0, outside, 0.0)).unwrap();
        assert_eq!(worse.len(), 1);
        assert!(worse[0].contains("edits_per_s"));
        // More is better for a rate, so a faster run never regresses it.
        assert!(compare(&base, &suite(100.0, 2000.0, 0.0))
            .unwrap()
            .is_empty());
        // A higher failed share is a regression whatever the metrics say.
        assert_eq!(compare(&base, &suite(100.0, 1000.0, 1.0)).unwrap().len(), 2);
        assert!(
            worse_by(100.0, 110.0, Better::Lower) > 0.0
                && worse_by(100.0, 110.0, Better::Higher) < 0.0
        );
    }

    #[test]
    fn options_are_validated_where_they_enter() {
        let parse =
            |args: &[&str]| parse_options(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let o = parse(&[
            "--workload",
            "rollout",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("rollout"), 9, Some(3.0), Some(true))
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }
}
