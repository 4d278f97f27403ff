//! Perf-baseline gating: one walker over one declarative rule table.
//!
//! [`gate`] diffs a fresh bench document against its checked-in
//! baseline. Which leaves are compared, and how, is `TABLE`: a JSON
//! path pattern per row, mapped to a [`Rule`]. The policy:
//!
//! * **deterministic metrics** (simulated cycles/packets, objectives,
//!   cache counters, rollout reports) are `Exact` — any drift is a
//!   behavior change that must come with a regenerated baseline;
//! * **rates** carry host noise and get a relative `Floor`; the ILP
//!   phase's wall time, allocation count, and pivots get a `Ceiling`;
//! * **contracts** hold whatever the baseline says: `Zero` (artifact
//!   mismatches, failures, spills) and `AbsFloor` (speedups, smoke
//!   rates). These baseline-free rows are also what a writer's
//!   `--smoke` run is held to, so smoke assertions and gate rules are
//!   one list;
//! * wall times are `Info`: reported, never failing.

use crate::json::Json;
use Rule::{AbsFloor, Ceiling, Exact, Floor, Info, NoIncrease, Zero};

/// How much a pivots/s rate may drop before the gate fails (relative).
pub const PIVOTS_PER_SEC_DROP: f64 = 0.20;
/// How much a simulated throughput rate may drop before the gate fails.
pub const THROUGHPUT_DROP: f64 = 0.15;
/// Relative slack for "exact" floating-point metrics (objective values).
const EXACT_REL_EPS: f64 = 1e-9;
/// Headroom above the baseline for ILP-phase wall time (host noise).
pub const ILP_WALL_HEADROOM: f64 = 1.0;
/// Headroom for ILP-phase allocation counts: near-deterministic; the
/// slack absorbs hash-map growth wobble only.
pub const ILP_ALLOCS_HEADROOM: f64 = 0.25;
/// Headroom for the solver pivot counter: deterministic for one model,
/// but an equal-cost reordering of its rows moves it by a few (3631 vs
/// 3634 on AES), which is not a regression; +1% still trips on any real
/// pricing or kernel change.
pub const ILP_PIVOTS_HEADROOM: f64 = 0.01;
/// How much a host-side simulation rate may drop. Generous: it exists to
/// catch the fast path regressing to cycle-slice speed (roughly an order
/// of magnitude on paced traffic), not 20% jitter on a shared runner.
pub const HOST_SIM_RATE_DROP: f64 = 0.5;
/// How much the warm compile-service rate and hit rates may drop.
pub const SERVICE_RATE_DROP: f64 = 0.20;
/// Warm-over-cold service speedup: the acceptance bar, held as a
/// constant so a slow-baseline regeneration cannot quietly lower it.
pub const SERVICE_SPEEDUP_FLOOR: f64 = 5.0;
/// Restart (warm-from-disk over cold) speedup. Warm still runs
/// frontend/CPS/isel, so the floor sits well under the measured ~10x.
pub const RESTART_SPEEDUP_FLOOR: f64 = 2.0;
/// `staged_min_healthy - bang_min_healthy` on the synchronized trace:
/// staging must keep at least one more chip serving than big-bang.
pub const STAGING_GAIN_FLOOR: f64 = 1.0;
/// Packets delivered on a reverted chip after service resumed: a
/// rollback that never comes back is an outage, not a recovery.
pub const ROLLBACK_RECOVERY_FLOOR: f64 = 1.0;
/// Pivots/s of any exact solve. The sparse-LU kernel clears this by over
/// 10x; it catches throughput collapse (a quadratic slip in FTRAN), not
/// host jitter.
const MIN_SOLVER_PPS: f64 = 1500.0;
/// Modeled Mb/s of any chip run: 50 000 packets/s of NAT's 100-byte
/// packets. A 2-engine NAT run clears this by over 10x; it catches
/// scheduling/arbitration collapse.
const MIN_CHIP_MBPS: f64 = 40.0;
/// Host-side delivered packets/s of a traffic point, ~10x under a 1-core
/// runner's rate; catches the fast path degenerating to cycle slicing.
const MIN_TRAFFIC_PPS: f64 = 20_000.0;

/// How a metric is compared against its baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Bit-deterministic metric: equal up to `1e-9` relative.
    Exact,
    /// `current >= baseline * (1 - drop)`: rates with wall-clock noise.
    Floor {
        /// Maximum tolerated relative drop, e.g. `0.20`.
        drop: f64,
    },
    /// `current <= baseline`: counts that must not regress upward.
    NoIncrease,
    /// `current <= baseline * (1 + headroom)`: hard-won levels.
    Ceiling {
        /// Tolerated relative excursion above the baseline, e.g. `0.25`.
        headroom: f64,
    },
    /// `current >= c`, whatever the baseline says.
    AbsFloor(f64),
    /// `current == 0`, whatever the baseline says.
    Zero,
    /// Reported but never failing (wall times).
    Info,
}

impl Rule {
    /// The constant a baseline-free rule compares against.
    fn constant(self) -> Option<f64> {
        match self {
            AbsFloor(c) => Some(c),
            Zero => Some(0.0),
            _ => None,
        }
    }
}

/// One table row: document kind, element path pattern, comma-separated
/// leaf keys, rule. Path segments are `/`-separated: `member` descends
/// into an object; `member[key]` pairs the elements of two arrays by the
/// value of `key`; a trailing `(field=glob)` / `(field!=glob)` keeps only
/// elements whose `field` matches (`a|b` alternatives, trailing `*`); a
/// `?` after a member skips it when the baseline predates it.
type Row = (&'static str, &'static str, &'static str, Rule);

/// Every gated leaf of the seven `BENCH_*.json` documents. Two modifiers
/// apply on top: an element the current run marks `"degraded": true` (a
/// fallback-ladder build, allowed to be slower and to spill) has every
/// rule demoted to `Info`, and the recovery floor covers only reverts
/// (`outcome_code` 2..=4 — a checksum rejection never swaps, so its
/// post-swap window is empty by design).
#[rustfmt::skip]
const TABLE: &[Row] = &[
    // Times are informational; the objective is unique at gap 0.
    ("solver", "programs[name]", "pivots_per_sec", Floor { drop: PIVOTS_PER_SEC_DROP }),
    ("solver", "programs[name]", "pivots_per_sec", AbsFloor(MIN_SOLVER_PPS)),
    ("solver", "programs[name]", "objective", Exact),
    ("solver", "programs[name]", "spills,moves", NoIncrease),
    ("solver", "programs[name]", "spills", Zero),
    ("solver", "programs[name]", "proven_optimal", AbsFloor(1.0)),
    ("solver", "programs[name]", "solve_s,pivots", Info),
    // Mb/s is redundant while cycles are exact, but it is the headline
    // rate and survives a deliberate relaxation of the cycle gate.
    ("throughput", "programs[name]/engine_sweep[engines]", "mbps", Floor { drop: THROUGHPUT_DROP }),
    ("throughput", "programs[name]/engine_sweep[engines]", "packets,cycles", Exact),
    ("throughput", "programs[name]/engine_sweep[engines]", "instructions", Info),
    ("throughput", "programs[name]/engine_sweep[engines]", "mbps", AbsFloor(MIN_CHIP_MBPS)),
    // Only the ILP phase's wall/allocs are gated: its hot-path
    // optimizations must not silently regress; other walls are noise.
    ("phases", "programs[name]/counters", "ilp.pivots", Ceiling { headroom: ILP_PIVOTS_HEADROOM }),
    ("phases", "programs[name]/counters", "sim.cycles,sim.packets", Exact),
    ("phases", "programs[name]/phases[name](name=ilp*)", "wall_ms", Ceiling { headroom: ILP_WALL_HEADROOM }),
    ("phases", "programs[name]/phases[name](name=ilp*)", "allocs", Ceiling { headroom: ILP_ALLOCS_HEADROOM }),
    ("phases", "programs[name]/phases[name](name!=ilp*)", "wall_ms", Info),
    ("phases", "programs[name]/phases[name]", "alloc_mb", Info),
    ("phases", "programs[name]/host_rate?[mode](mode=fast_path)", "sim_cycles_per_sec", Floor { drop: HOST_SIM_RATE_DROP }),
    ("phases", "programs[name]/host_rate?[mode](mode!=fast_path)", "sim_cycles_per_sec", Info),
    ("phases", "programs[name]/host_rate?[mode]", "wall_ms", Info),
    // The modeled outcome of a sweep point is bit-deterministic.
    ("traffic", "sweep[id]", "offered,delivered,dropped,sim_cycles", Exact),
    ("traffic", "sweep[id]", "mbps", Floor { drop: THROUGHPUT_DROP }),
    ("traffic", "sweep[id]/latency", "p50,p99", Exact),
    ("traffic", "sweep[id]", "host_sim_cycles_per_sec", Floor { drop: HOST_SIM_RATE_DROP }),
    ("traffic", "sweep[id]", "host_wall_ms,host_packets_per_sec", Info),
    ("traffic", "sweep[id]", "host_packets_per_sec", AbsFloor(MIN_TRAFFIC_PPS)),
    // The balancer feeds every shard.
    ("traffic", "sweep[id]/shards[shard]", "delivered", AbsFloor(1.0)),
    // The seeded one-worker stream fixes which request hits which cache.
    ("service", "counters", "alloc_hits,alloc_misses,output_hits,output_misses,refinish_fallbacks", Exact),
    ("service", "counters", "evict_count,evict_bytes,disk_hits,disk_misses,disk_rejects", Exact),
    ("service", "rates", "warm_compiles_per_sec,output_hit_rate,alloc_hit_rate", Floor { drop: SERVICE_RATE_DROP }),
    ("service", "rates", "cold_compiles_per_sec,speedup", Info),
    ("service", "rates", "speedup", AbsFloor(SERVICE_SPEEDUP_FLOOR)),
    // Warm artifacts are bit-identical to cold and nothing fails.
    ("service", "", "mismatches,failures", Zero),
    ("service", "", "warm_wall_ms,cold_wall_ms", Info),
    // The hot-reload half is modeled; the restart half counts disk loads.
    ("reload", "hot/sim", "cycles,packets", Exact),
    ("reload", "hot/sim", "instructions", Info),
    ("reload", "hot/counters", "alloc_hits,alloc_misses,refinish_fallbacks", Exact),
    ("reload", "hot/swaps[after_packets]", "swap_cycle,first_tx_cycle,update_cycles,update_us", Exact),
    ("reload", "hot/swaps[after_packets]", "compile_ms", Info),
    ("reload", "hot", "base_compile_ms", Info),
    ("reload", "restart/cold_counters", "alloc_hits,alloc_misses,disk_hits,disk_misses,disk_rejects", Exact),
    ("reload", "restart/warm_counters", "alloc_hits,alloc_misses,disk_hits,disk_misses,disk_rejects", Exact),
    ("reload", "restart", "mismatches,failures", Zero),
    ("reload", "restart", "speedup,cold_wall_ms,warm_wall_ms", Info),
    ("reload", "restart", "speedup", AbsFloor(RESTART_SPEEDUP_FLOOR)),
    // Every modeled rollout number is deterministic.
    ("rollout", "config", "chips,packets,swap_after,observe_packets,watchdog", Exact),
    ("rollout", "scenarios[id]", "chips,stages_run,outcome_code,rolled_back_stage,min_healthy_chips", Exact),
    ("rollout", "scenarios[id]", "offered,delivered,dropped,aborted_in_flight,disrupted_flows", Exact),
    ("rollout", "scenarios[id]", "max_update_cycles,rollback_recovered", Exact),
    ("rollout", "scenarios[id](outcome_code=2|3|4)", "rollback_recovered", AbsFloor(ROLLBACK_RECOVERY_FLOOR)),
    ("rollout", "scenarios[id]/stages[chip]", "swap_cycle,first_tx_cycle,update_cycles,rollback_cycles", Exact),
    ("rollout", "scenarios[id]/stages[chip]", "offered,delivered,dropped,aborted_in_flight,disrupted_flows", Exact),
    ("rollout", "scenarios[id]/stages[chip]", "pre_delivered,during_delivered,post_delivered", Exact),
    ("rollout", "scenarios[id]/stages[chip]", "post_p99,baseline_p99,candidate_p99", Exact),
    ("rollout", "comparison", "staged_min_healthy,bang_min_healthy,staging_gain", Exact),
    ("rollout", "comparison", "staging_gain", AbsFloor(STAGING_GAIN_FLOOR)),
    ("rollout", "", "old_compile_ms,new_compile_ms,sim_wall_ms", Info),
];

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Where the metric lives, e.g. `"programs[AES]/objective"`.
    pub name: String,
    /// Baseline value (the rule's constant for baseline-free rules).
    pub baseline: f64,
    /// Freshly measured value.
    pub current: f64,
    /// Comparison rule applied.
    pub rule: Rule,
    /// Whether the rule held.
    pub pass: bool,
}

impl Check {
    fn new(name: String, baseline: f64, current: f64, rule: Rule) -> Check {
        let pass = match rule {
            Floor { drop } => current >= baseline * (1.0 - drop),
            Exact => {
                let scale = baseline.abs().max(current.abs()).max(1.0);
                (current - baseline).abs() <= EXACT_REL_EPS * scale
            }
            NoIncrease => current <= baseline,
            Ceiling { headroom } => current <= baseline * (1.0 + headroom),
            AbsFloor(c) => current >= c,
            Zero => current == 0.0,
            Info => true,
        };
        Check {
            name,
            baseline,
            current,
            rule,
            pass,
        }
    }
}

/// Gate result: every comparison made, in table order.
#[derive(Debug, Default)]
pub struct GateReport {
    /// All checks, gating and informational.
    pub checks: Vec<Check>,
    /// Structural problems (missing programs, unparseable entries); each
    /// fails the gate.
    pub errors: Vec<String>,
}

impl GateReport {
    /// Whether every gating check passed and no structural error was hit.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Number of failing checks.
    pub fn failures(&self) -> usize {
        self.checks.iter().filter(|c| !c.pass).count() + self.errors.len()
    }

    /// Record a structural error once, however many rows trip over it.
    fn err(&mut self, msg: String) {
        if !self.errors.contains(&msg) {
            self.errors.push(msg);
        }
    }
}

/// A scalar rendered for key matching and filters (`2`, not `2.0`).
fn render(v: Option<&Json>) -> Option<String> {
    match v? {
        Json::Str(s) => Some(s.clone()),
        Json::Num(n) => Some(format!("{n}")),
        _ => None,
    }
}

/// Does `(field=glob)` / `(field!=glob)` keep this element?
fn keeps(filter: &str, elem: &Json) -> bool {
    let (field, glob) = filter.split_once('=').expect("filter is field=glob");
    let (field, want) = match field.strip_suffix('!') {
        Some(f) => (f, false),
        None => (field, true),
    };
    let value = render(elem.get(field)).unwrap_or_default();
    let hit = glob.split('|').any(|g| match g.strip_suffix('*') {
        Some(prefix) => value.starts_with(prefix),
        None => value == g,
    });
    hit == want
}

/// One row being walked down a (baseline, current) pair of documents.
struct Walk<'a> {
    report: &'a mut GateReport,
    keys: &'a str,
    rule: Rule,
    subset: bool,
}

impl Walk<'_> {
    fn descend(&mut self, path: &[&str], name: &str, base: &Json, cur: &Json, demote: bool) {
        let demote = demote || matches!(cur.get("degraded"), Some(Json::Bool(true)));
        let Some((seg, rest)) = path.split_first() else {
            return self.leaves(name, base, cur, demote);
        };
        let (seg, filter) = match seg.split_once('(') {
            Some((s, f)) => (s, Some(f.trim_end_matches(')'))),
            None => (*seg, None),
        };
        let (seg, key) = match seg.split_once('[') {
            Some((s, k)) => (s, Some(k.trim_end_matches(']'))),
            None => (seg, None),
        };
        let (member, optional) = match seg.strip_suffix('?') {
            Some(m) => (m, true),
            None => (seg, false),
        };
        let missing = |side: &str| format!("{side} is missing `{name}{member}`");
        let (b, c) = match (base.get(member), cur.get(member)) {
            (None, _) if optional => return,
            (Some(b), Some(c)) => (b, c),
            (None, _) => return self.report.err(missing("baseline")),
            (_, None) => return self.report.err(missing("current run")),
        };
        let Some(key) = key else {
            return self.descend(rest, &format!("{name}{member}/"), b, c, demote);
        };
        // Pair elements by `key`, driven from the baseline — or from the
        // current run when it is a sub-sweep of the baseline.
        let (Some(b), Some(c)) = (b.as_arr(), c.as_arr()) else {
            return self.report.err(format!("`{name}{member}` is not an array"));
        };
        let (drive, other, side) = match self.subset {
            true => (c, b, "baseline"),
            false => (b, c, "current run"),
        };
        for d in drive {
            let Some(id) = render(d.get(key)) else {
                continue;
            };
            let name = format!("{name}{member}[{id}]");
            let Some(o) = other
                .iter()
                .find(|o| render(o.get(key)).as_ref() == Some(&id))
            else {
                self.report
                    .err(format!("`{name}` is absent from the {side}"));
                continue;
            };
            let (b, c) = if self.subset { (o, d) } else { (d, o) };
            if filter.is_none_or(|f| keeps(f, c)) {
                self.descend(rest, &format!("{name}/"), b, c, demote);
            }
        }
    }

    fn leaves(&mut self, name: &str, base: &Json, cur: &Json, demote: bool) {
        let num = |doc: &Json, key: &str| match doc.get(key) {
            Some(Json::Bool(b)) => Some(f64::from(u8::from(*b))),
            v => v.and_then(Json::as_f64),
        };
        // A sub-sweep runs on an arbitrary host: hold it only to the
        // host-independent rules.
        let noisy = self.subset && matches!(self.rule, Floor { .. } | Ceiling { .. });
        let rule = if demote || noisy { Info } else { self.rule };
        for key in self.keys.split(',') {
            let name = format!("{name}{key}");
            match (self.rule.constant().or(num(base, key)), num(cur, key)) {
                (Some(b), Some(c)) => self.report.checks.push(Check::new(name, b, c, rule)),
                (None, _) => self.report.err(format!("baseline is missing `{name}`")),
                (_, None) => self.report.err(format!("current run is missing `{name}`")),
            }
        }
    }
}

/// Gate a fresh bench document against its baseline under the rule table; the
/// document kind is the `"bench"` member both must agree on. With
/// `subset`, `current` is a sub-sweep of the baseline's points taken on
/// an arbitrary host (a `--smoke` run): elements are matched from the
/// current side, and host-noisy rules (`Floor`, `Ceiling`) become `Info`.
pub fn gate(baseline: &Json, current: &Json, subset: bool) -> GateReport {
    let mut report = GateReport::default();
    let kind = current.get("bench").and_then(Json::as_str).unwrap_or("");
    if baseline.get("bench").and_then(Json::as_str) != Some(kind)
        || !TABLE.iter().any(|row| row.0 == kind)
    {
        report.err(format!("not two bench documents of known kind `{kind}`"));
    }
    for &(_, at, keys, rule) in TABLE.iter().filter(|row| row.0 == kind) {
        let path: Vec<&str> = at.split('/').filter(|s| !s.is_empty()).collect();
        let mut walk = Walk {
            report: &mut report,
            keys,
            rule,
            subset,
        };
        walk.descend(&path, "", baseline, current, false);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Did exactly this check fail?
    fn failed(r: &GateReport, name: &str) -> bool {
        r.checks.iter().any(|c| !c.pass && c.name == name)
    }

    fn has(r: &GateReport, name: &str) -> bool {
        r.checks.iter().any(|c| c.name == name)
    }

    fn solver_program(degraded: bool, pivots_per_sec: f64, objective: f64, spills: f64) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"solver","programs":[{{"name":"AES","degraded":{degraded},
                "pivots_per_sec":{pivots_per_sec},"proven_optimal":true,
                "objective":{objective},"spills":{spills},"moves":13,
                "solve_s":0.2,"pivots":3633}}]}}"#
        ))
        .unwrap()
    }

    fn solver_doc(pivots_per_sec: f64, objective: f64, spills: f64) -> Json {
        solver_program(false, pivots_per_sec, objective, spills)
    }

    fn degraded_solver_doc(pivots_per_sec: f64, objective: f64, spills: f64) -> Json {
        solver_program(true, pivots_per_sec, objective, spills)
    }

    const AES: &str = "programs[AES]";

    #[test]
    fn identical_solver_docs_pass() {
        let doc = solver_doc(17795.8, 75.9436, 0.0);
        let r = gate(&doc, &doc, false);
        assert!(r.passed(), "{r:?}");
        assert!(has(&r, &format!("{AES}/pivots_per_sec")));
    }

    #[test]
    fn thirty_percent_pivot_rate_drop_fails() {
        // Doctor the baseline so the fresh run sits 30% below it — past
        // the 20% floor, the gate must fail, on that row alone.
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = solver_doc(14_000.0, 75.9436, 0.0);
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        let failing: Vec<_> = r.checks.iter().filter(|c| !c.pass).collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].name, format!("{AES}/pivots_per_sec"));
    }

    #[test]
    fn fifteen_percent_pivot_rate_drop_passes() {
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = solver_doc(17_000.0, 75.9436, 0.0);
        assert!(gate(&base, &cur, false).passed());
    }

    #[test]
    fn objective_drift_fails_exact_rule() {
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = solver_doc(20_000.0, 75.9437, 0.0);
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(failed(&r, &format!("{AES}/objective")));
    }

    #[test]
    fn new_spill_fails_no_increase_rule() {
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = solver_doc(20_000.0, 75.9436, 1.0);
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(r
            .checks
            .iter()
            .any(|c| !c.pass && c.rule == NoIncrease && c.name.ends_with("spills")));
    }

    #[test]
    fn degraded_current_run_is_reported_but_not_gated() {
        // A fallback-ladder build may be slower, off-objective, and spill
        // — none of that fails the gate, but every row is still listed.
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = degraded_solver_doc(5_000.0, 120.0, 9.0);
        let r = gate(&base, &cur, false);
        assert!(r.passed(), "{r:?}");
        assert!(r.checks.iter().all(|c| c.rule == Info));
        assert!(has(&r, &format!("{AES}/spills")));
    }

    #[test]
    fn degraded_baseline_does_not_relax_a_clean_current_run() {
        // Only the *current* run's marker demotes rules: a clean build
        // compared against a degraded-era baseline is still gated.
        let base = degraded_solver_doc(20_000.0, 75.9436, 0.0);
        let cur = solver_doc(20_000.0, 75.9437, 0.0);
        assert!(!gate(&base, &cur, false).passed());
    }

    #[test]
    fn degraded_throughput_run_is_not_gated() {
        let base = throughput_doc(300.0, 50_000.0);
        let cur = Json::parse(
            r#"{"bench":"throughput","programs":[{"name":"NAT","degraded":true,
                "engine_sweep":[{"engines":4,"mbps":100.0,"packets":64,
                "cycles":99999,"instructions":78856}]}]}"#,
        )
        .unwrap();
        let r = gate(&base, &cur, false);
        assert!(r.passed(), "{r:?}");
    }

    #[test]
    fn missing_program_is_a_structural_error() {
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = Json::parse(r#"{"bench":"solver","programs":[]}"#).unwrap();
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert_eq!(r.errors.len(), 1);
    }

    fn throughput_doc(mbps: f64, cycles: f64) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"throughput","programs":[{{"name":"NAT","engine_sweep":[
                {{"engines":4,"mbps":{mbps},"packets":64,"cycles":{cycles},
                  "instructions":78856}}]}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn throughput_cycle_drift_fails() {
        let base = throughput_doc(300.0, 50_000.0);
        let cur = throughput_doc(300.0, 50_001.0);
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(failed(&r, "programs[NAT]/engine_sweep[4]/cycles"));
    }

    #[test]
    fn throughput_small_rate_noise_passes() {
        let base = throughput_doc(300.0, 50_000.0);
        let cur = throughput_doc(280.0, 50_000.0);
        assert!(gate(&base, &cur, false).passed());
    }

    #[test]
    fn every_check_is_listed_with_its_rule_and_verdict() {
        let base = solver_doc(20_000.0, 75.9436, 0.0);
        let cur = solver_doc(14_000.0, 75.9436, 0.0);
        let r = gate(&base, &cur, false);
        let rate = r
            .checks
            .iter()
            .find(|c| c.name == format!("{AES}/pivots_per_sec"))
            .unwrap();
        assert_eq!((rate.baseline, rate.current), (20_000.0, 14_000.0));
        assert_eq!(rate.rule, Floor { drop: 0.20 });
        assert!(!rate.pass);
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn phases_counters_gate_exactly() {
        let doc = |pivots: u64, cycles: u64| {
            Json::parse(&format!(
                r#"{{"bench":"phases","programs":[{{"name":"AES",
                    "counters":{{"ilp.pivots":{pivots},"sim.cycles":{cycles},"sim.packets":64}},
                    "phases":[{{"name":"frontend","wall_ms":1.5,"alloc_mb":0.3}}]}}]}}"#
            ))
            .unwrap()
        };
        assert!(gate(&doc(3633, 95900), &doc(3633, 95900), false).passed());
        // Pivots get +1% slack (an equal-cost row reordering moves them by a few);
        // a real pricing regression still trips the ceiling.
        assert!(gate(&doc(3633, 95900), &doc(3636, 95900), false).passed());
        assert!(!gate(&doc(3633, 95900), &doc(3700, 95900), false).passed());
        // Simulated cycles are bit-deterministic and stay exact.
        assert!(!gate(&doc(3633, 95900), &doc(3633, 95901), false).passed());
    }

    fn phases_doc(ilp_wall: f64, ilp_allocs: u64, model_allocs: u64) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"phases","programs":[{{"name":"AES",
                "counters":{{"ilp.pivots":3633,"sim.cycles":95900,"sim.packets":64}},
                "phases":[
                  {{"name":"frontend","wall_ms":900.0,"alloc_mb":0.3,"allocs":1837}},
                  {{"name":"ilp","wall_ms":{ilp_wall},"alloc_mb":7.0,"allocs":{ilp_allocs}}},
                  {{"name":"ilp.model","wall_ms":2.0,"alloc_mb":5.0,"allocs":{model_allocs}}}
                ]}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn ilp_phase_wall_and_allocs_are_gated_by_ceiling() {
        let base = phases_doc(20.0, 40_000, 9_000);
        // Identical run passes; so does one inside the headroom.
        assert!(gate(&base, &base, false).passed());
        assert!(gate(&base, &phases_doc(30.0, 45_000, 10_000), false).passed());
        // Wall time past 2x the baseline fails.
        let r = gate(&base, &phases_doc(50.0, 40_000, 9_000), false);
        assert!(!r.passed());
        assert!(failed(&r, "programs[AES]/phases[ilp]/wall_ms"));
        // Allocation count past +25% fails, on the total and on sub-rows.
        let r = gate(&base, &phases_doc(20.0, 60_000, 9_000), false);
        assert!(failed(&r, "programs[AES]/phases[ilp]/allocs"));
        let r = gate(&base, &phases_doc(20.0, 40_000, 20_000), false);
        assert!(failed(&r, "programs[AES]/phases[ilp.model]/allocs"));
    }

    #[test]
    fn non_ilp_phase_walls_stay_informational() {
        let base = phases_doc(20.0, 40_000, 9_000);
        let r = gate(&base, &base, false);
        assert!(r
            .checks
            .iter()
            .any(|c| c.name == "programs[AES]/phases[frontend]/wall_ms" && c.rule == Info));
        assert!(!has(&r, "programs[AES]/phases[frontend]/allocs"));
        // One comparison per leaf: the ILP rows are not re-listed as info.
        let ilp_wall = "programs[AES]/phases[ilp]/wall_ms";
        assert_eq!(r.checks.iter().filter(|c| c.name == ilp_wall).count(), 1);
    }

    fn host_rate_doc(rows: &str) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"phases","programs":[{{"name":"AES",
                "counters":{{"ilp.pivots":3633,"sim.cycles":95900,"sim.packets":64}},
                "phases":[{{"name":"frontend","wall_ms":1.5,"alloc_mb":0.3}}]{rows}}}]}}"#
        ))
        .unwrap()
    }

    fn host_rate_rows(fast: f64, slow: f64) -> String {
        format!(
            r#","host_rate":[
              {{"mode":"fast_path","wall_ms":3.0,"sim_cycles_per_sec":{fast}}},
              {{"mode":"cycle_slice","wall_ms":40.0,"sim_cycles_per_sec":{slow}}}]"#
        )
    }

    #[test]
    fn fast_path_host_rate_has_a_floor_and_the_oracle_does_not() {
        let base = host_rate_doc(&host_rate_rows(200.0e6, 15.0e6));
        // 30% host noise on the fast path passes; the oracle's rate may
        // collapse entirely without failing anything.
        assert!(gate(
            &base,
            &host_rate_doc(&host_rate_rows(140.0e6, 1.0e6)),
            false
        )
        .passed());
        // A fast path running at a quarter of its baseline rate fails.
        let r = gate(
            &base,
            &host_rate_doc(&host_rate_rows(50.0e6, 15.0e6)),
            false,
        );
        assert!(!r.passed());
        assert!(failed(
            &r,
            "programs[AES]/host_rate[fast_path]/sim_cycles_per_sec"
        ));
        // Baselines from before the fast path carry no host_rate rows;
        // they must not produce structural errors against newer runs
        // that do carry them.
        let old = host_rate_doc("");
        assert!(gate(&old, &base, false).passed());
    }

    fn traffic_doc(delivered: u64, p99: u64, mbps: f64, host_rate: f64) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"traffic","sweep":[
                {{"id":"p100000x2","packets":100000,"chips":2,
                  "offered":100000,"delivered":{delivered},
                  "dropped":{dropped},"sim_cycles":7700000,
                  "mbps":{mbps},
                  "latency":{{"count":{delivered},"p50":840,"p90":1400,"p99":{p99},"max":9001}},
                  "host_wall_ms":450.0,
                  "host_sim_cycles_per_sec":{host_rate},
                  "host_packets_per_sec":222222.0,
                  "shards":[{{"shard":0,"delivered":50000}},{{"shard":1,"delivered":49900}}]}}]}}"#,
            dropped = 100000 - delivered,
        ))
        .unwrap()
    }

    #[test]
    fn traffic_outcome_is_gated_exactly_and_host_rate_generously() {
        let base = traffic_doc(99_900, 2_300, 310.0, 120.0e6);
        assert!(gate(&base, &base, false).passed());
        // Host-side noise is fine: 40% slower host, 10% lower Mb/s.
        assert!(gate(&base, &traffic_doc(99_900, 2_300, 280.0, 72.0e6), false).passed());
        // One packet of delivery drift is a modeled-behavior change.
        let r = gate(&base, &traffic_doc(99_899, 2_300, 310.0, 120.0e6), false);
        assert!(!r.passed());
        // So is a shifted tail latency.
        let r2 = gate(&base, &traffic_doc(99_900, 2_301, 310.0, 120.0e6), false);
        assert!(failed(&r2, "sweep[p100000x2]/latency/p99"));
        // A halved host rate (past the 50% floor) fails.
        assert!(!gate(&base, &traffic_doc(99_900, 2_300, 310.0, 48.0e6), false).passed());
    }

    #[test]
    fn missing_traffic_sweep_point_is_a_structural_error() {
        let base = traffic_doc(99_900, 2_300, 310.0, 120.0e6);
        let cur = Json::parse(r#"{"bench":"traffic","sweep":[]}"#).unwrap();
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(!r.errors.is_empty());
    }

    fn service_doc(warm: f64, speedup: f64, alloc_hits: u64, mismatches: u64) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"service",
                "stream":{{"total":1000,"distinct":250,"cold_samples":25,"workers":1}},
                "counters":{{"alloc_hits":{alloc_hits},"alloc_misses":1,
                  "output_hits":750,"output_misses":250,
                  "refinish_fallbacks":0,
                  "evict_count":0,"evict_bytes":0,
                  "disk_hits":0,"disk_misses":0,"disk_rejects":0}},
                "rates":{{"warm_compiles_per_sec":{warm},
                  "cold_compiles_per_sec":130.0,"speedup":{speedup},
                  "output_hit_rate":0.75,"alloc_hit_rate":0.996}},
                "mismatches":{mismatches},"failures":0,
                "warm_wall_ms":150.0,"cold_wall_ms":190.0}}"#
        ))
        .unwrap()
    }

    /// The absolute-floor check on `name` (as opposed to its info row).
    fn floor_failed(r: &GateReport, name: &str) -> bool {
        r.checks
            .iter()
            .any(|c| !c.pass && c.name == name && matches!(c.rule, AbsFloor(_)))
    }

    #[test]
    fn identical_service_docs_pass() {
        let doc = service_doc(6600.0, 50.0, 249, 0);
        let r = gate(&doc, &doc, false);
        assert!(r.passed(), "{r:?}");
        assert!(has(&r, "counters/alloc_hits"));
        assert!(r
            .checks
            .iter()
            .any(|c| c.name == "rates/speedup" && c.rule == AbsFloor(SERVICE_SPEEDUP_FLOOR)));
    }

    #[test]
    fn service_counter_drift_fails_exactly() {
        // One allocation-cache hit lost (a solve ran that should not
        // have): deterministic counter, exact gate, hard fail.
        let base = service_doc(6600.0, 50.0, 249, 0);
        let cur = service_doc(6600.0, 50.0, 248, 0);
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(failed(&r, "counters/alloc_hits"));
    }

    #[test]
    fn service_warm_rate_has_a_twenty_percent_floor() {
        let base = service_doc(6600.0, 50.0, 249, 0);
        assert!(gate(&base, &service_doc(5500.0, 42.0, 249, 0), false).passed());
        let r = gate(&base, &service_doc(4000.0, 31.0, 249, 0), false);
        assert!(!r.passed());
        assert!(failed(&r, "rates/warm_compiles_per_sec"));
    }

    #[test]
    fn service_speedup_below_the_absolute_floor_fails() {
        // Both runs agree, but the speedup sits under 5x: the absolute
        // floor fails even though the baseline comparison would pass.
        let base = service_doc(600.0, 4.0, 249, 0);
        let r = gate(&base, &base, false);
        assert!(!r.passed());
        assert!(floor_failed(&r, "rates/speedup"));
    }

    #[test]
    fn service_artifact_mismatch_fails_regardless_of_baseline() {
        // Even a baseline that (wrongly) recorded a mismatch cannot
        // excuse one now: the current run is gated against zero.
        let base = service_doc(6600.0, 50.0, 249, 1);
        let cur = service_doc(6600.0, 50.0, 249, 1);
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(failed(&r, "mismatches"));
    }

    #[test]
    fn service_missing_sections_are_structural_errors() {
        let base = service_doc(6600.0, 50.0, 249, 0);
        let cur = Json::parse(r#"{"bench":"service"}"#).unwrap();
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(r.errors.len() >= 2, "{:?}", r.errors);
    }

    fn reload_doc(update_cycles: u64, disk_hits: u64, speedup: f64, mismatches: u64) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"reload",
                "hot":{{"engines":2,"contexts":4,"packets":1200,"payload_bytes":64,
                  "base_compile_ms":40.0,
                  "sim":{{"cycles":42760,"packets":1189,"instructions":150000}},
                  "swaps":[{{"after_packets":300,"compile_ms":4.0,
                    "swap_cycle":7792,"first_tx_cycle":{first_tx},
                    "update_cycles":{update_cycles},"update_us":18.2}}],
                  "counters":{{"alloc_hits":3,"alloc_misses":1,"refinish_fallbacks":0}}}},
                "restart":{{"variants":6,
                  "cold_wall_ms":120.0,"warm_wall_ms":10.0,"speedup":{speedup},
                  "cold_counters":{{"alloc_hits":0,"alloc_misses":6,
                    "disk_hits":0,"disk_misses":6,"disk_rejects":0}},
                  "warm_counters":{{"alloc_hits":6,"alloc_misses":0,
                    "disk_hits":{disk_hits},"disk_misses":0,"disk_rejects":0}},
                  "mismatches":{mismatches},"failures":0}}}}"#,
            first_tx = 7792 + update_cycles,
        ))
        .unwrap()
    }

    #[test]
    fn identical_reload_docs_pass() {
        let doc = reload_doc(4246, 6, 12.0, 0);
        let r = gate(&doc, &doc, false);
        assert!(r.passed(), "{r:?}");
        assert!(has(&r, "hot/swaps[300]/update_cycles"));
        assert!(r
            .checks
            .iter()
            .any(|c| c.name == "restart/speedup" && c.rule == AbsFloor(RESTART_SPEEDUP_FLOOR)));
    }

    #[test]
    fn reload_update_latency_drift_fails_exactly() {
        // One modeled cycle of update-latency drift is a behavior change.
        let base = reload_doc(4246, 6, 12.0, 0);
        let r = gate(&base, &reload_doc(4247, 6, 12.0, 0), false);
        assert!(!r.passed());
        assert!(failed(&r, "hot/swaps[300]/update_cycles"));
    }

    #[test]
    fn reload_lost_disk_hit_fails_exactly() {
        // A solve ran on the warm side that should have come off disk.
        let base = reload_doc(4246, 6, 12.0, 0);
        let r = gate(&base, &reload_doc(4246, 5, 12.0, 0), false);
        assert!(!r.passed());
        assert!(failed(&r, "restart/warm_counters/disk_hits"));
    }

    #[test]
    fn restart_speedup_below_the_absolute_floor_fails() {
        // Baseline and current agree at 1.5x — under the 2x floor, the
        // absolute gate fails even though the diff is clean.
        let doc = reload_doc(4246, 6, 1.5, 0);
        let r = gate(&doc, &doc, false);
        assert!(!r.passed());
        assert!(floor_failed(&r, "restart/speedup"));
    }

    #[test]
    fn reload_artifact_mismatch_fails_regardless_of_baseline() {
        let doc = reload_doc(4246, 6, 12.0, 1);
        let r = gate(&doc, &doc, false);
        assert!(!r.passed());
        assert!(failed(&r, "restart/mismatches"));
    }

    #[test]
    fn reload_missing_sections_are_structural_errors() {
        let base = reload_doc(4246, 6, 12.0, 0);
        let cur = Json::parse(r#"{"bench":"reload"}"#).unwrap();
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert_eq!(r.errors.len(), 2, "{:?}", r.errors);
    }

    fn rollout_doc(update_cycles: u64, recovered: i64, staged_min_healthy: u64) -> Json {
        let stage = |chip: u64, outcome: &str, rb: i64| {
            format!(
                r#"{{"chip":{chip},"outcome":"{outcome}","swap_cycle":2760640,
                    "first_tx_cycle":2764854,"update_cycles":{update_cycles},
                    "rollback_cycles":{rb},"offered":10000,"delivered":10000,
                    "dropped":0,"aborted_in_flight":0,"disrupted_flows":0,
                    "pre_delivered":2000,"during_delivered":4,"post_delivered":8000,
                    "post_p99":118,"baseline_p99":118,"candidate_p99":118}}"#
            )
        };
        let gain = staged_min_healthy as i64;
        Json::parse(&format!(
            r#"{{"bench":"rollout",
                "config":{{"chips":3,"packets":30000,"swap_after":2000,
                  "observe_packets":2000,"watchdog":65536}},
                "scenarios":[
                  {{"id":"healthy","chips":3,"stages_run":3,"outcome_code":0,
                    "rolled_back_stage":-1,"min_healthy_chips":2,
                    "offered":30000,"delivered":30000,"dropped":0,
                    "aborted_in_flight":0,"disrupted_flows":0,
                    "max_update_cycles":{update_cycles},"rollback_recovered":-1,
                    "stages":[{s0},{s1},{s2}]}},
                  {{"id":"wedge0","chips":3,"stages_run":1,"outcome_code":2,
                    "rolled_back_stage":0,"min_healthy_chips":2,
                    "offered":10000,"delivered":10000,"dropped":0,
                    "aborted_in_flight":0,"disrupted_flows":0,
                    "max_update_cycles":73896,"rollback_recovered":{recovered},
                    "stages":[{w0}]}}],
                "comparison":{{"staged_min_healthy":{staged_min_healthy},
                  "bang_min_healthy":0,"staging_gain":{gain}}},
                "old_compile_ms":6.0,"new_compile_ms":0.5,"sim_wall_ms":4800.0}}"#,
            s0 = stage(0, "committed", -1),
            s1 = stage(1, "committed", -1),
            s2 = stage(2, "committed", -1),
            w0 = stage(0, "watchdog-fired", 4264),
        ))
        .unwrap()
    }

    #[test]
    fn identical_rollout_docs_pass() {
        let doc = rollout_doc(4214, 8633, 2);
        let r = gate(&doc, &doc, false);
        assert!(r.passed(), "{r:?}");
        assert!(has(&r, "scenarios[healthy]/stages[0]/update_cycles"));
        let floor_on = |name: &str, c: f64| {
            r.checks
                .iter()
                .any(|k| k.name == name && k.rule == AbsFloor(c))
        };
        // The recovery floor covers the revert and only the revert.
        assert!(floor_on(
            "scenarios[wedge0]/rollback_recovered",
            ROLLBACK_RECOVERY_FLOOR
        ));
        assert!(!floor_on(
            "scenarios[healthy]/rollback_recovered",
            ROLLBACK_RECOVERY_FLOOR
        ));
        assert!(floor_on("comparison/staging_gain", STAGING_GAIN_FLOOR));
    }

    #[test]
    fn rollout_update_latency_drift_fails_exactly() {
        let base = rollout_doc(4214, 8633, 2);
        let r = gate(&base, &rollout_doc(4215, 8633, 2), false);
        assert!(!r.passed());
        assert!(failed(&r, "scenarios[healthy]/max_update_cycles"));
    }

    #[test]
    fn rollout_without_post_revert_recovery_fails_floor() {
        let base = rollout_doc(4214, 8633, 2);
        let r = gate(&base, &rollout_doc(4214, 0, 2), false);
        assert!(!r.passed());
        assert!(floor_failed(&r, "scenarios[wedge0]/rollback_recovered"));
    }

    #[test]
    fn rollout_zero_staging_gain_fails_floor() {
        let doc = rollout_doc(4214, 8633, 0);
        let r = gate(&doc, &doc, false);
        assert!(!r.passed());
        assert!(floor_failed(&r, "comparison/staging_gain"));
    }

    #[test]
    fn rollout_missing_sections_are_structural_errors() {
        let base = rollout_doc(4214, 8633, 2);
        let cur = Json::parse(r#"{"bench":"rollout"}"#).unwrap();
        let r = gate(&base, &cur, false);
        assert!(!r.passed());
        assert!(!r.errors.is_empty(), "{:?}", r.errors);
    }

    #[test]
    fn mismatched_or_unknown_document_kinds_are_structural_errors() {
        let solver = solver_doc(20_000.0, 75.9436, 0.0);
        let service = service_doc(6600.0, 50.0, 249, 0);
        assert!(!gate(&solver, &service, false).passed());
        let unknown = Json::parse(r#"{"bench":"nope"}"#).unwrap();
        assert!(!gate(&unknown, &unknown, false).passed());
    }

    #[test]
    fn a_sub_sweep_is_matched_from_its_own_points_on_host_independent_rules() {
        // The smoke shape: the current run carries one of the baseline's
        // two programs, on a host half as fast.
        let base = Json::parse(
            r#"{"bench":"solver","programs":[
              {"name":"AES","pivots_per_sec":20000,"proven_optimal":true,
                "objective":75.9436,"spills":0,"moves":13,"solve_s":0.2,"pivots":3633},
              {"name":"NAT","pivots_per_sec":80000,"proven_optimal":true,
                "objective":32.9167,"spills":0,"moves":5,"solve_s":0.02,"pivots":900}]}"#,
        )
        .unwrap();
        let cur = solver_doc(9_000.0, 75.9436, 0.0);
        assert!(!gate(&base, &cur, false).passed(), "NAT is missing");
        let r = gate(&base, &cur, true);
        assert!(r.passed(), "{r:?}");
        // Deterministic rows still bite, and so do the absolute floors.
        assert!(!gate(&base, &solver_doc(9_000.0, 75.9437, 0.0), true).passed());
        assert!(floor_failed(
            &gate(&base, &solver_doc(900.0, 75.9436, 0.0), true),
            &format!("{AES}/pivots_per_sec")
        ));
        // A point the baseline never had cannot be vouched for.
        let stray = Json::parse(r#"{"bench":"solver","programs":[{"name":"DES"}]}"#);
        assert!(!gate(&base, &stray.unwrap(), true).passed());
    }

    #[test]
    fn json_parse_round_trips_pretty_output() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\nd")),
            ("n", Json::Num(1.25)),
            ("i", Json::int(42)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::int(1), Json::int(2)])),
            ("o", Json::Obj(vec![])),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("s").and_then(Json::as_str), Some("a\"b\\c\nd"));
        assert_eq!(back.num("n"), Some(1.25));
        assert_eq!(back.num("i"), Some(42.0));
        assert_eq!(
            back.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert!(Json::parse("{\"k\": 1,}").is_err() || Json::parse("[1 2]").is_err());
    }
}
