//! The 0-1 ILP model of bank assignment, transfer-bank coloring, cloning,
//! and spilling (§5–§10).
//!
//! Variables (all 0-1), following the paper:
//!
//! * `Move[p,v,b1,b2]` — temporary `v` moves from bank `b1` to `b2` at
//!   point `p` (identity moves cost nothing);
//! * `Before[p,v,b]`/`After[p,v,b]` — not columns: wherever a row
//!   mentions one, the sum `Σ_d Move[p,v,b,d]` / `Σ_s Move[p,v,s,b]` is
//!   streamed into the row term by term (the paper's "redundant
//!   variables", §6, substituted as `Move` sums);
//! * `Color[v,xb,r]` — point-independent transfer-bank register choice
//!   (§9);
//! * `cloneBefore/cloneAfter/cloneMove` — representative counting for
//!   clone sets (§10);
//! * `colorAvail[p,b,r]`, `needsSpill[p,b]` — spare-register bookkeeping
//!   for spills through `L`/`S` (§9).
//!
//! **Move-point compression.** The paper gives every live temporary a move
//! opportunity at every point and reduces the model with §8's bank
//! pruning. We add one further reduction with the same optimal value in
//! practice: move variables exist only at a temporary's *action points*
//! (its definition, its uses, and block boundaries it crosses). Between
//! consecutive action points the bank cannot usefully change, so the
//! per-point `Copy` chains collapse into one `After[a_i] = Before[a_{i+1}]`
//! equality per segment, and K constraints reference the segment's
//! `Move` sum. This is what lets our bounded-variable simplex (sparse LU
//! basis factorization) solve the models CPLEX solved for the paper.

use super::candidates::{
    clone_groups, load_bank, prune, store_bank, unpruned, Candidates, IlpBank,
};
use super::facts::{Fact, Facts, PointId};
use super::staged::FallbackPolicy;
use crate::freq::Frequencies;
use crate::liveness::Point;
use ilp::{BranchConfig, Cmp, GroupId, Key, MilpError, Model, ModelStats, SolveStats, Var};
use ixp_machine::{Program, Temp};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Configuration of the allocator's ILP model (ablation knobs included).
#[derive(Debug, Clone)]
pub struct AllocConfig {
    /// Model spilling through scratch (`M` bank). When off, programs that
    /// need spills become infeasible.
    pub allow_spill: bool,
    /// Generate the §9 redundant aggregate-position cuts (E6).
    pub redundant_cuts: bool,
    /// Objective bias on moves out of bank `B` (§7; E7).
    pub bias: f64,
    /// Apply §8 candidate pruning (E8).
    pub prune: bool,
    /// Cost of a register-register move.
    pub mv_cost: f64,
    /// Cost of a spill-memory load.
    pub ld_cost: f64,
    /// Cost of a spill-memory store.
    pub st_cost: f64,
    /// Usable A registers (one of 16 is reserved for parallel-copy cycles,
    /// §6 "K and Spilling for A/B").
    pub k_a: usize,
    /// Usable B registers.
    pub k_b: usize,
    /// Automatically drop the spill machinery when register pressure
    /// provably cannot exceed the general-purpose capacity (the paper's
    /// "spilling occurs very rarely"; E5 measures the two-stage variant).
    pub spill_auto: bool,
    /// Branch-and-bound configuration (gap defaults to the paper's 0.01%).
    pub solver: BranchConfig,
    /// What to do when the solver's budget expires without a usable
    /// solution (see [`FallbackPolicy`]).
    pub fallback: FallbackPolicy,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig {
            allow_spill: true,
            redundant_cuts: true,
            bias: 1.01,
            prune: true,
            mv_cost: 1.0,
            ld_cost: 200.0,
            st_cost: 200.0,
            k_a: 15,
            k_b: 16,
            spill_auto: true,
            solver: BranchConfig {
                // The paper ran CPLEX to a 0.01% gap in 36-156 s; give our
                // branch-and-bound the same order of wall clock. When the
                // budget expires the best incumbent is used and
                // `SolveStats::proven_optimal` reports the gap.
                time_limit: Some(std::time::Duration::from_secs(150)),
                ..BranchConfig::default()
            },
            fallback: FallbackPolicy::Ladder,
        }
    }
}

/// Move variables keyed by action point and temp: `(var, from, to)`.
pub type MoveVars = HashMap<(PointId, Temp), Vec<(Var, IlpBank, IlpBank)>>;

/// The generated model plus the bookkeeping needed to read a solution.
pub struct BankModel {
    /// The underlying ILP.
    pub model: Model,
    /// Move variables per action point and temp: `(var, from, to)`.
    pub moves: MoveVars,
    /// Color variables per `(temp, transfer bank)`: one var per register.
    pub colors: HashMap<(Temp, IlpBank), Vec<Var>>,
    /// Action points per temp (sorted; `PointId` order equals block order).
    pub actions: HashMap<Temp, BTreeSet<PointId>>,
    /// Candidate banks per temp.
    pub candidates: Candidates,
    /// Clone groups.
    pub groups: HashMap<Temp, Vec<Temp>>,
    /// Per-block range of point ids `(first, last)`.
    pub block_range: Vec<(PointId, PointId)>,
    /// Figure-6 statistics: members of `DefLi`, `DefLDj`, `UseSi`, `UseSDj`.
    pub fig6: Fig6,
}

/// Figure 6's "AMPL statistics": how many variables participate in
/// aggregate definitions and uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fig6 {
    /// Variables defined by SRAM/scratch reads.
    pub def_l: usize,
    /// Variables defined by SDRAM reads.
    pub def_ld: usize,
    /// Variables consumed by SRAM/scratch writes.
    pub use_s: usize,
    /// Variables consumed by SDRAM writes.
    pub use_sd: usize,
}

impl Fig6 {
    /// Total read-side members.
    pub fn def_total(&self) -> usize {
        self.def_l + self.def_ld
    }

    /// Total write-side members.
    pub fn use_total(&self) -> usize {
        self.use_s + self.use_sd
    }
}

/// Cost of a `b1 → b2` transition, or `None` if illegal (§7 and the
/// composite spill paths of §8).
pub fn move_cost(cfg: &AllocConfig, from: IlpBank, to: IlpBank) -> Option<f64> {
    use IlpBank::*;
    if from == to {
        return Some(0.0);
    }
    match (from, to) {
        // Plain register-register move: source readable, target writable.
        (A | B | L | Ld, A | B | S | Sd) => Some(cfg.mv_cost),
        // Spill stores: via an S register (move+store), except from S.
        (A | B | L | Ld, M) => Some(cfg.mv_cost + cfg.st_cost),
        (S, M) => Some(cfg.st_cost),
        // Reloads land in L; onwards costs a move.
        (M, L) => Some(cfg.ld_cost),
        (M, A | B | S | Sd) => Some(cfg.ld_cost + cfg.mv_cost),
        _ => None,
    }
}

fn bank_key(b: IlpBank) -> Key {
    Key::Sym(b.name())
}

/// Stream a buffered term list into one committed constraint row. All of
/// `build_model`'s rows funnel through here (or through an inline
/// [`Model::row`] chain), so constraint generation allocates nothing per
/// row beyond the shared CSR arrays.
fn commit_row(model: &mut Model, g: GroupId, terms: &[(Var, f64)], cmp: Cmp, rhs: f64, lazy: bool) {
    let mut b = model.row(g);
    for &(v, c) in terms {
        b.term(v, c);
    }
    if lazy {
        b.finish_lazy(cmp, rhs);
    } else {
        b.finish(cmp, rhs);
    }
}

/// Per-block `(first, last)` point-id range of a program (blocks have
/// `instrs.len() + 2` points).
pub(crate) fn block_ranges(prog: &Program<Temp>) -> Vec<(PointId, PointId)> {
    let mut block_range = Vec::new();
    let mut i = 0usize;
    for b in &prog.blocks {
        let n = b.instrs.len() + 2;
        block_range.push((PointId(i as u32), PointId((i + n - 1) as u32)));
        i += n;
    }
    block_range
}

/// Action points per temporary: block entries it is live into plus the
/// instruction-adjacent points of its uses and definitions. Only at these
/// points may a temporary change banks (move-point compression).
pub(crate) fn action_points(
    prog: &Program<Temp>,
    facts: &Facts,
    block_range: &[(PointId, PointId)],
) -> HashMap<Temp, BTreeSet<PointId>> {
    let mut actions: HashMap<Temp, BTreeSet<PointId>> = HashMap::new();
    // Block entries are action points for everything live-in.
    for (bi, _) in prog.blocks.iter().enumerate() {
        let entry = block_range[bi].0;
        for v in &facts.liveness.live_in[&ixp_machine::BlockId(bi as u32)] {
            actions.entry(*v).or_default().insert(entry);
        }
    }
    // Instruction-adjacent points for operands and results.
    for fact in &facts.facts {
        let mut touch = |v: Temp, p: PointId| {
            actions.entry(v).or_default().insert(p);
        };
        match fact {
            Fact::AluTwo {
                pre,
                post,
                dst,
                a,
                b,
            } => {
                touch(*a, *pre);
                touch(*b, *pre);
                touch(*dst, *post);
            }
            Fact::AluOne { pre, post, dst, a } => {
                touch(*a, *pre);
                touch(*dst, *post);
            }
            Fact::MoveF {
                pre,
                post,
                dst,
                src,
            } => {
                touch(*src, *pre);
                touch(*dst, *post);
            }
            Fact::Def { post, dsts } => {
                for d in dsts {
                    touch(*d, *post);
                }
            }
            Fact::GpUse { pre, srcs } => {
                for s in srcs {
                    touch(*s, *pre);
                }
            }
            Fact::ReadAgg { post, dsts, .. } => {
                for d in dsts {
                    touch(*d, *post);
                }
            }
            Fact::WriteAgg { pre, srcs, .. } => {
                for s in srcs {
                    touch(*s, *pre);
                }
            }
            Fact::SameReg {
                pre,
                post,
                dst,
                src,
            } => {
                touch(*src, *pre);
                touch(*dst, *post);
            }
            Fact::CloneF {
                pre,
                post,
                dst,
                src,
            } => {
                touch(*src, *pre);
                touch(*dst, *post);
            }
            Fact::BranchUse { pre, a, b } => {
                touch(*a, *pre);
                if let Some(b) = b {
                    touch(*b, *pre);
                }
            }
        }
    }
    actions
}

/// Build the complete model for a program.
pub fn build_model(
    prog: &Program<Temp>,
    facts: &Facts,
    freqs: &Frequencies,
    cfg: &AllocConfig,
) -> BankModel {
    let candidates = if cfg.prune {
        prune(facts, cfg.allow_spill)
    } else {
        unpruned(facts, cfg.allow_spill)
    };
    let groups = clone_groups(facts);
    let mut model = Model::minimize();
    let fam_move = model.family("Move");
    let fam_color = model.family("Color");
    let fam_cb = model.family("cloneBefore");
    let fam_ca = model.family("cloneAfter");
    let fam_cm = model.family("cloneMove");
    let fam_ns = model.family("needsSpill");
    let fam_cp = model.family("copyPenalty");
    let fam_cav = model.family("colorAvail");

    // Constraint groups, interned once; rows are streamed under these ids
    // instead of carrying a formatted name each.
    let g_oneplace = model.group("OnePlace");
    let g_copy = model.group("Copy");
    let g_copyedge = model.group("CopyEdge");
    let g_aritha = model.group("ArithA");
    let g_arithb = model.group("ArithB");
    let g_arithpair = model.group("ArithPair");
    let g_arithxfer = model.group("ArithXfer");
    let g_defabw = model.group("DefABW");
    let g_gpuse = model.group("GpUse");
    let g_defagg = model.group("DefAgg");
    let g_useagg = model.group("UseAgg");
    let g_unitsrc = model.group("UnitSrc");
    let g_unitdst = model.group("UnitDst");
    let g_brancha = model.group("BranchA");
    let g_branchb = model.group("BranchB");
    let g_cloneloc = model.group("CloneLoc");
    let g_coalesce = model.group("CopyCoalesce");
    let g_k = model.group("K");
    let g_clonecount = model.group("CloneCount");
    let g_colorone = model.group("ColorOne");
    let g_interfere = model.group("Interfere");
    let g_adjacent = model.group("Adjacent");
    let g_cut = model.group("Cut");
    let g_samereg = model.group("SameReg");
    let g_clonecolor = model.group("CloneColor");
    let g_needspill = model.group("NeedSpill");
    let g_occupy = model.group("Occupy");
    let g_sparereg = model.group("SpareReg");
    let g_clonemove = model.group("CloneMove");

    // ---- block point ranges & action points ----
    let block_range = block_ranges(prog);
    let block_of = |p: PointId| facts.points[p.0 as usize].block;
    let actions = action_points(prog, facts, &block_range);

    // ---- Move variables at action points ----
    let mut moves: MoveVars = HashMap::new();
    let mut action_order: Vec<(Temp, &BTreeSet<PointId>)> =
        actions.iter().map(|(v, s)| (*v, s)).collect();
    action_order.sort_by_key(|(v, _)| *v);
    for (v, pts) in &action_order {
        let mut cand: Vec<IlpBank> = candidates.of(*v).into_iter().collect();
        cand.sort();
        for p in pts.iter() {
            let no_move = facts.no_moves.contains(p);
            let mut vars = Vec::new();
            for &b1 in &cand {
                for &b2 in &cand {
                    if b1 != b2 && no_move {
                        continue;
                    }
                    if move_cost(cfg, b1, b2).is_none() {
                        continue;
                    }
                    let var = model.binary(
                        fam_move,
                        &[Key::Int(p.0), Key::Int(v.0), bank_key(b1), bank_key(b2)],
                    );
                    vars.push((var, b1, b2));
                }
            }
            moves.insert((*p, *v), vars);
        }
    }

    // `Before[p,v,b]` / `After[p,v,b]` stream `coeff·Move[..]` terms into a
    // caller-supplied scratch buffer (returning how many were pushed) so no
    // intermediate expression is ever allocated.
    let push_before = |buf: &mut Vec<(Var, f64)>,
                       moves: &MoveVars,
                       p: PointId,
                       v: Temp,
                       b: IlpBank,
                       coeff: f64|
     -> usize {
        let mut n = 0;
        if let Some(vars) = moves.get(&(p, v)) {
            for (var, from, _) in vars {
                if *from == b {
                    buf.push((*var, coeff));
                    n += 1;
                }
            }
        }
        n
    };
    let push_after = |buf: &mut Vec<(Var, f64)>,
                      moves: &MoveVars,
                      p: PointId,
                      v: Temp,
                      b: IlpBank,
                      coeff: f64|
     -> usize {
        let mut n = 0;
        if let Some(vars) = moves.get(&(p, v)) {
            for (var, _, to) in vars {
                if *to == b {
                    buf.push((*var, coeff));
                    n += 1;
                }
            }
        }
        n
    };
    // Shared scratch buffers, reused across every constraint below.
    let mut buf: Vec<(Var, f64)> = Vec::new();
    let mut obuf: Vec<(Var, f64)> = Vec::new();
    let mut obuf2: Vec<(Var, f64)> = Vec::new();
    let mut sbuf: Vec<(Var, f64)> = Vec::new();

    // ---- In one place only ----
    let mut move_keys: Vec<(PointId, Temp)> = moves.keys().copied().collect();
    move_keys.sort();
    for key in &move_keys {
        let mut b = model.row(g_oneplace);
        for (v, _, _) in &moves[key] {
            b.term(*v, 1.0);
        }
        b.finish(Cmp::Eq, 1.0);
    }

    // ---- Segment links (compressed Copy) within blocks ----
    for (v, pts) in &action_order {
        let mut cand: Vec<IlpBank> = candidates.of(*v).into_iter().collect();
        cand.sort();
        let list: Vec<PointId> = pts.iter().copied().collect();
        for w in list.windows(2) {
            let (a, b2) = (w[0], w[1]);
            if block_of(a) != block_of(b2) {
                continue;
            }
            // Only link when the variable exists on the whole span (it
            // does by liveness: both are action points of v in one block
            // and liveness is contiguous between a use and the next).
            for &bk in &cand {
                buf.clear();
                push_after(&mut buf, &moves, a, *v, bk, 1.0);
                push_before(&mut buf, &moves, b2, *v, bk, -1.0);
                commit_row(&mut model, g_copy, &buf, Cmp::Eq, 0.0, false);
            }
        }
    }

    // ---- Copy across CFG edges ----
    for (bi, b) in prog.blocks.iter().enumerate() {
        for succ in b.term.successors() {
            let entry = block_range[succ.index()].0;
            let mut live: Vec<Temp> = facts.liveness.live_in[&succ].iter().copied().collect();
            live.sort();
            for v in &live {
                // Last action of v in the predecessor block.
                let Some(pts) = actions.get(v) else { continue };
                let (lo, hi) = block_range[bi];
                let Some(last) = pts.range(lo..=hi).next_back().copied() else {
                    continue;
                };
                let mut cand: Vec<IlpBank> = candidates.of(*v).into_iter().collect();
                cand.sort();
                for bk in cand {
                    buf.clear();
                    push_after(&mut buf, &moves, last, *v, bk, 1.0);
                    push_before(&mut buf, &moves, entry, *v, bk, -1.0);
                    commit_row(&mut model, g_copyedge, &buf, Cmp::Eq, 0.0, false);
                }
            }
        }
    }

    // ---- Operand and definition constraints ----
    let mut fig6 = Fig6::default();
    let mut copy_penalties: Vec<(PointId, Var)> = Vec::new();
    let readable = [IlpBank::A, IlpBank::B, IlpBank::L, IlpBank::Ld];
    let writable = [IlpBank::A, IlpBank::B, IlpBank::S, IlpBank::Sd];
    let gp = [IlpBank::A, IlpBank::B];
    let require_in = |model: &mut Model,
                      moves: &MoveVars,
                      buf: &mut Vec<(Var, f64)>,
                      group: GroupId,
                      p: PointId,
                      v: Temp,
                      banks: &[IlpBank],
                      use_after: bool| {
        // When every candidate bank of v already satisfies the requirement,
        // the row is implied by OnePlace and adds nothing.
        if candidates.of(v).iter().all(|b| banks.contains(b)) {
            return;
        }
        buf.clear();
        for &bk in banks {
            if use_after {
                push_after(buf, moves, p, v, bk, 1.0);
            } else {
                push_before(buf, moves, p, v, bk, 1.0);
            }
        }
        commit_row(model, group, buf, Cmp::Eq, 1.0, false);
    };
    for fact in &facts.facts {
        match fact {
            Fact::AluTwo {
                pre,
                post,
                dst,
                a,
                b,
            } => {
                require_in(
                    &mut model, &moves, &mut buf, g_aritha, *pre, *a, &readable, true,
                );
                require_in(
                    &mut model, &moves, &mut buf, g_arithb, *pre, *b, &readable, true,
                );
                // Operands cannot share a general-purpose bank (rows that a
                // single operand populates are implied by OnePlace and
                // skipped).
                for bk in gp {
                    buf.clear();
                    let na = push_after(&mut buf, &moves, *pre, *a, bk, 1.0);
                    let nb = push_after(&mut buf, &moves, *pre, *b, bk, 1.0);
                    if na > 0 && nb > 0 {
                        commit_row(&mut model, g_arithpair, &buf, Cmp::Le, 1.0, true);
                    }
                }
                // Transfer-bank clique: L and LD together supply at most one
                // operand. One row subsumes the per-bank pair rows for L/LD
                // plus the two cross rows (given OnePlace each operand sits
                // in exactly one bank), and its LP relaxation is tighter.
                buf.clear();
                let mut na = 0;
                let mut nb = 0;
                for xb in [IlpBank::L, IlpBank::Ld] {
                    na += push_after(&mut buf, &moves, *pre, *a, xb, 1.0);
                    nb += push_after(&mut buf, &moves, *pre, *b, xb, 1.0);
                }
                if na > 0 && nb > 0 {
                    commit_row(&mut model, g_arithxfer, &buf, Cmp::Le, 1.0, true);
                }
                require_in(
                    &mut model, &moves, &mut buf, g_defabw, *post, *dst, &writable, false,
                );
            }
            Fact::AluOne { pre, post, dst, a } => {
                require_in(
                    &mut model, &moves, &mut buf, g_aritha, *pre, *a, &readable, true,
                );
                require_in(
                    &mut model, &moves, &mut buf, g_defabw, *post, *dst, &writable, false,
                );
            }
            Fact::MoveF {
                pre,
                post,
                dst,
                src,
            } => {
                require_in(
                    &mut model, &moves, &mut buf, g_aritha, *pre, *src, &readable, true,
                );
                require_in(
                    &mut model, &moves, &mut buf, g_defabw, *post, *dst, &writable, false,
                );
                // Coalescing incentive: when source and destination share
                // a bank, the A/B coloring phase deletes this copy; when
                // they differ, the instruction survives and costs a move.
                // pm >= After[pre,src,b] - Before[post,dst,b]  for each b.
                let pm = model.continuous(fam_cp, &[Key::Int(pre.0), Key::Int(dst.0)], 0.0, 1.0);
                // Sorted: `of` is a hash set, and row order reaches the LP
                // (pivot order, hence which of two equal-cost images wins).
                let mut src_banks: Vec<IlpBank> = candidates.of(*src).into_iter().collect();
                src_banks.sort();
                for &bk in &src_banks {
                    buf.clear();
                    push_after(&mut buf, &moves, *pre, *src, bk, 1.0);
                    push_before(&mut buf, &moves, *post, *dst, bk, -1.0);
                    buf.push((pm, -1.0));
                    commit_row(&mut model, g_coalesce, &buf, Cmp::Le, 0.0, false);
                }
                copy_penalties.push((*pre, pm));
            }
            Fact::Def { post, dsts } => {
                for d in dsts {
                    require_in(
                        &mut model, &moves, &mut buf, g_defabw, *post, *d, &writable, false,
                    );
                }
            }
            Fact::GpUse { pre, srcs } => {
                for s in srcs {
                    require_in(&mut model, &moves, &mut buf, g_gpuse, *pre, *s, &gp, true);
                }
            }
            Fact::ReadAgg {
                post, space, dsts, ..
            } => {
                let bank = load_bank(*space);
                match bank {
                    IlpBank::L => fig6.def_l += dsts.len(),
                    _ => fig6.def_ld += dsts.len(),
                }
                for d in dsts {
                    require_in(
                        &mut model,
                        &moves,
                        &mut buf,
                        g_defagg,
                        *post,
                        *d,
                        &[bank],
                        false,
                    );
                }
            }
            Fact::WriteAgg { pre, space, srcs } => {
                let bank = store_bank(*space);
                match bank {
                    IlpBank::S => fig6.use_s += srcs.len(),
                    _ => fig6.use_sd += srcs.len(),
                }
                for s in srcs {
                    require_in(
                        &mut model,
                        &moves,
                        &mut buf,
                        g_useagg,
                        *pre,
                        *s,
                        &[bank],
                        true,
                    );
                }
            }
            Fact::SameReg {
                pre,
                post,
                dst,
                src,
            } => {
                require_in(
                    &mut model,
                    &moves,
                    &mut buf,
                    g_unitsrc,
                    *pre,
                    *src,
                    &[IlpBank::S],
                    true,
                );
                require_in(
                    &mut model,
                    &moves,
                    &mut buf,
                    g_unitdst,
                    *post,
                    *dst,
                    &[IlpBank::L],
                    false,
                );
            }
            Fact::CloneF {
                pre,
                post,
                dst,
                src,
            } => {
                // Clone starts out wherever the original is (§10).
                let mut banks: Vec<IlpBank> = candidates.of(*dst).into_iter().collect();
                banks.sort();
                for bk in banks {
                    buf.clear();
                    push_before(&mut buf, &moves, *post, *dst, bk, 1.0);
                    push_after(&mut buf, &moves, *pre, *src, bk, -1.0);
                    commit_row(&mut model, g_cloneloc, &buf, Cmp::Eq, 0.0, false);
                }
            }
            Fact::BranchUse { pre, a, b } => {
                require_in(
                    &mut model, &moves, &mut buf, g_brancha, *pre, *a, &readable, true,
                );
                if let Some(b) = b {
                    require_in(
                        &mut model, &moves, &mut buf, g_branchb, *pre, *b, &readable, true,
                    );
                    for bk in gp {
                        buf.clear();
                        let na = push_after(&mut buf, &moves, *pre, *a, bk, 1.0);
                        let nb = push_after(&mut buf, &moves, *pre, *b, bk, 1.0);
                        if na > 0 && nb > 0 {
                            commit_row(&mut model, g_arithpair, &buf, Cmp::Le, 1.0, true);
                        }
                    }
                    // Same transfer-bank clique as AluTwo.
                    buf.clear();
                    let mut na = 0;
                    let mut nb = 0;
                    for xb in [IlpBank::L, IlpBank::Ld] {
                        na += push_after(&mut buf, &moves, *pre, *a, xb, 1.0);
                        nb += push_after(&mut buf, &moves, *pre, *b, xb, 1.0);
                    }
                    if na > 0 && nb > 0 {
                        commit_row(&mut model, g_arithxfer, &buf, Cmp::Le, 1.0, true);
                    }
                }
            }
        }
    }

    // ---- Governing expression per (point, temp) for K/interference ----
    // The latest action point of v at or before p within p's block.
    let governing =
        |actions: &HashMap<Temp, BTreeSet<PointId>>, p: PointId, v: Temp| -> Option<PointId> {
            let pts = actions.get(&v)?;
            let (lo, _) = block_range[block_of(p).index()];
            pts.range(lo..=p).next_back().copied()
        };
    // Residency of v at p before/after the moves executing at p: between
    // action points the bank is the governing point's After; exactly at an
    // action point, "before the moves" is that point's Before.
    let push_occupancy = |buf: &mut Vec<(Var, f64)>,
                          moves: &MoveVars,
                          actions: &HashMap<Temp, BTreeSet<PointId>>,
                          p: PointId,
                          v: Temp,
                          bank: IlpBank,
                          after_moves: bool,
                          coeff: f64|
     -> Option<usize> {
        let g = governing(actions, p, v)?;
        if g == p && !after_moves {
            Some(push_before(buf, moves, p, v, bank, coeff))
        } else {
            Some(push_after(buf, moves, g, v, bank, coeff))
        }
    };

    // ---- Clone-aware K constraints for A and B ----
    // Representative counting (§10): members of one clone set in the same
    // bank occupy one register.
    let group_key = |g: &[Temp]| g[0];
    for (pi, _) in facts.points.iter().enumerate() {
        let p = PointId(pi as u32);
        let exists = facts.exists_at(p);
        for (bank, cap) in [(IlpBank::A, cfg.k_a), (IlpBank::B, cfg.k_b)] {
            // Cheap skip: pressure cannot exceed the cap.
            let mut eligible: Vec<Temp> = exists
                .iter()
                .filter(|v| candidates.allows(**v, bank))
                .copied()
                .collect();
            eligible.sort();
            if eligible.len() <= cap {
                continue;
            }
            // The before-moves variant only differs from the after-moves
            // variant when some eligible temp has an action at p.
            let any_action_here = eligible
                .iter()
                .any(|v| actions.get(v).is_some_and(|s| s.contains(&p)));
            for after_moves in [false, true] {
                if !after_moves && !any_action_here {
                    continue;
                }
                buf.clear();
                let mut done_groups: HashSet<Temp> = HashSet::new();
                for v in &eligible {
                    if let Some(g) = groups.get(v) {
                        let rep = group_key(g);
                        if !done_groups.insert(rep) {
                            continue;
                        }
                        let live_members: Vec<Temp> = g
                            .iter()
                            .filter(|m| exists.contains(m) && candidates.allows(**m, bank))
                            .copied()
                            .collect();
                        if live_members.len() == 1 {
                            let m = live_members[0];
                            push_occupancy(
                                &mut buf,
                                &moves,
                                &actions,
                                p,
                                m,
                                bank,
                                after_moves,
                                1.0,
                            );
                            continue;
                        }
                        // cloneBefore / cloneAfter counting variable.
                        let fam = if after_moves { fam_ca } else { fam_cb };
                        let cvar =
                            model.binary(fam, &[Key::Int(p.0), Key::Int(rep.0), bank_key(bank)]);
                        sbuf.clear();
                        for m in &live_members {
                            obuf.clear();
                            if push_occupancy(
                                &mut obuf,
                                &moves,
                                &actions,
                                p,
                                *m,
                                bank,
                                after_moves,
                                1.0,
                            )
                            .is_some()
                            {
                                // cvar >= member occupancy
                                sbuf.extend_from_slice(&obuf);
                                obuf.push((cvar, -1.0));
                                commit_row(&mut model, g_clonecount, &obuf, Cmp::Le, 0.0, true);
                            }
                        }
                        // cvar <= sum of member occupancies.
                        let mut b = model.row(g_clonecount);
                        b.term(cvar, 1.0);
                        for &(mv, c) in &sbuf {
                            b.term(mv, -c);
                        }
                        b.finish_lazy(Cmp::Le, 0.0);
                        buf.push((cvar, 1.0));
                    } else {
                        push_occupancy(&mut buf, &moves, &actions, p, *v, bank, after_moves, 1.0);
                    }
                }
                commit_row(&mut model, g_k, &buf, Cmp::Le, cap as f64, true);
            }
        }
    }

    // ---- Transfer-bank colors ----
    let mut colors: HashMap<(Temp, IlpBank), Vec<Var>> = HashMap::new();
    let mut all_temps: Vec<Temp> = actions.keys().copied().collect();
    all_temps.sort();
    for v in &all_temps {
        for xb in IlpBank::TRANSFER {
            if !candidates.allows(*v, xb) {
                continue;
            }
            let vars: Vec<Var> = (0..8)
                .map(|r| model.binary(fam_color, &[Key::Int(v.0), bank_key(xb), Key::Int(r)]))
                .collect();
            let mut b = model.row(g_colorone);
            for &cv in &vars {
                b.term(cv, 1.0);
            }
            b.finish(Cmp::Eq, 1.0);
            colors.insert((*v, xb), vars);
        }
    }

    // ---- Color interference (§9): different registers when coexisting ----
    // Two temps that are simultaneously in the same transfer bank must
    // differ in color, unless they are clones of each other.
    let same_group = |a: Temp, b: Temp| groups.get(&a).is_some_and(|g| g.contains(&b));
    // Residency only changes at action points: the post-move variant needs
    // one constraint per (pair, bank, governing-point combination); the
    // pre-move variant matters at action points, where a value a memory
    // read just delivered coexists with residents that only leave in the
    // moves at that point.
    let mut seen_pairs: HashSet<(Temp, Temp, IlpBank, PointId, PointId)> = HashSet::new();
    let mut seen_before: HashSet<(Temp, Temp, IlpBank, PointId)> = HashSet::new();
    for (pi, _) in facts.points.iter().enumerate() {
        let p = PointId(pi as u32);
        let exists = facts.exists_at(p);
        let mut xfer_vars: Vec<(Temp, IlpBank)> = Vec::new();
        let mut exists_sorted: Vec<Temp> = exists.iter().copied().collect();
        exists_sorted.sort();
        for v in &exists_sorted {
            for xb in IlpBank::TRANSFER {
                if candidates.allows(*v, xb) {
                    xfer_vars.push((*v, xb));
                }
            }
        }
        for i in 0..xfer_vars.len() {
            for j in (i + 1)..xfer_vars.len() {
                let (v1, b1) = xfer_vars[i];
                let (v2, b2) = xfer_vars[j];
                if b1 != b2 || v1 == v2 || same_group(v1, v2) {
                    continue;
                }
                let (Some(g1), Some(g2)) = (governing(&actions, p, v1), governing(&actions, p, v2))
                else {
                    continue;
                };
                let (lo, hi, glo, ghi) = if v1 < v2 {
                    (v1, v2, g1, g2)
                } else {
                    (v2, v1, g2, g1)
                };
                if seen_pairs.insert((lo, hi, b1, glo, ghi)) {
                    obuf.clear();
                    obuf2.clear();
                    let n1 = push_after(&mut obuf, &moves, g1, v1, b1, 1.0);
                    let n2 = push_after(&mut obuf2, &moves, g2, v2, b1, 1.0);
                    if n1 > 0 && n2 > 0 {
                        for (&c1, &c2) in colors[&(v1, b1)].iter().zip(&colors[&(v2, b1)]) {
                            let mut b = model.row(g_interfere);
                            for &(mv, c) in obuf.iter().chain(&obuf2) {
                                b.term(mv, c);
                            }
                            b.term(c1, 1.0).term(c2, 1.0).finish_lazy(Cmp::Le, 3.0);
                        }
                    }
                }
                let action_here = g1 == p || g2 == p;
                if action_here && seen_before.insert((lo, hi, b1, p)) {
                    obuf.clear();
                    obuf2.clear();
                    let n1 = if g1 == p {
                        push_before(&mut obuf, &moves, p, v1, b1, 1.0)
                    } else {
                        push_after(&mut obuf, &moves, g1, v1, b1, 1.0)
                    };
                    let n2 = if g2 == p {
                        push_before(&mut obuf2, &moves, p, v2, b1, 1.0)
                    } else {
                        push_after(&mut obuf2, &moves, g2, v2, b1, 1.0)
                    };
                    if n1 > 0 && n2 > 0 {
                        for (&c1, &c2) in colors[&(v1, b1)].iter().zip(&colors[&(v2, b1)]) {
                            let mut b = model.row(g_interfere);
                            for &(mv, c) in obuf.iter().chain(&obuf2) {
                                b.term(mv, c);
                            }
                            b.term(c1, 1.0).term(c2, 1.0).finish_lazy(Cmp::Le, 3.0);
                        }
                    }
                }
            }
        }
    }

    // ---- Aggregate adjacency (§9) ----
    for (space, is_read, members) in &facts.aggregates {
        let xb = if *is_read {
            load_bank(*space)
        } else {
            store_bank(*space)
        };
        let k = members.len();
        for j in 0..k.saturating_sub(1) {
            let cj = &colors[&(members[j], xb)];
            let cj1 = &colors[&(members[j + 1], xb)];
            for r in 0..8 {
                let mut b = model.row(g_adjacent);
                b.term(cj[r], 1.0);
                if r + 1 < 8 {
                    b.term(cj1[r + 1], -1.0);
                }
                b.finish(Cmp::Eq, 0.0);
            }
        }
        if cfg.redundant_cuts {
            // Member m of an aggregate of size k can only use registers
            // m ..= 8-k+m; ruling the rest out up front speeds the solver
            // (§9 "we found that adding a redundant set of constraints...").
            for (m, v) in members.iter().enumerate() {
                let cv = &colors[&(*v, xb)];
                for (r, &c) in cv.iter().enumerate() {
                    if r < m || r > 8 - k + m {
                        model.row(g_cut).term(c, 1.0).finish(Cmp::Eq, 0.0);
                    }
                }
            }
        }
    }

    // ---- Same-register units ----
    for fact in &facts.facts {
        if let Fact::SameReg { dst, src, .. } = fact {
            let cd = &colors[&(*dst, IlpBank::L)];
            let cs = &colors[&(*src, IlpBank::S)];
            for r in 0..8 {
                model
                    .row(g_samereg)
                    .term(cd[r], 1.0)
                    .term(cs[r], -1.0)
                    .finish(Cmp::Eq, 0.0);
            }
        }
    }

    // ---- Clone color agreement (§10) ----
    for fact in &facts.facts {
        if let Fact::CloneF { post, dst, src, .. } = fact {
            for xb in IlpBank::TRANSFER {
                if !candidates.allows(*dst, xb) || !candidates.allows(*src, xb) {
                    continue;
                }
                obuf.clear();
                if push_before(&mut obuf, &moves, *post, *dst, xb, 1.0) == 0 {
                    continue;
                }
                let cd = &colors[&(*dst, xb)];
                let cs = &colors[&(*src, xb)];
                for (r1, &d) in cd.iter().enumerate() {
                    for (r2, &s) in cs.iter().enumerate() {
                        if r1 == r2 {
                            continue;
                        }
                        // If the clone starts in xb, colors must agree.
                        let mut b = model.row(g_clonecolor);
                        for &(mv, c) in &obuf {
                            b.term(mv, c);
                        }
                        b.term(d, 1.0).term(s, 1.0).finish_lazy(Cmp::Le, 2.0);
                    }
                }
            }
        }
    }

    // ---- Spill spare-register bookkeeping (§9) ----
    if cfg.allow_spill {
        for (pi, _) in facts.points.iter().enumerate() {
            let p = PointId(pi as u32);
            // Which spill transients pass through S and L here?
            let mut store_moves: Vec<Var> = Vec::new(); // need spare S
            let mut load_moves: Vec<Var> = Vec::new(); // need spare L
            let mut spill_scan: Vec<Temp> = facts.exists_at(p).iter().copied().collect();
            spill_scan.sort();
            for v in &spill_scan {
                if let Some(vars) = moves.get(&(p, *v)) {
                    for (var, from, to) in vars {
                        if *to == IlpBank::M
                            && matches!(from, IlpBank::A | IlpBank::B | IlpBank::L | IlpBank::Ld)
                        {
                            store_moves.push(*var);
                        }
                        if *from == IlpBank::M && !matches!(to, IlpBank::L | IlpBank::M) {
                            load_moves.push(*var);
                        }
                    }
                }
            }
            for (bank, trans) in [(IlpBank::S, &store_moves), (IlpBank::L, &load_moves)] {
                if trans.is_empty() {
                    continue;
                }
                let ns = model.binary(fam_ns, &[Key::Int(p.0), bank_key(bank)]);
                for t in trans {
                    model
                        .row(g_needspill)
                        .term(*t, 1.0)
                        .term(ns, -1.0)
                        .finish_lazy(Cmp::Le, 0.0);
                }
                // Tightening (§9): needsSpill <= sum of spill moves.
                {
                    let mut b = model.row(g_needspill);
                    b.term(ns, 1.0);
                    for t in trans {
                        b.term(*t, -1.0);
                    }
                    b.finish_lazy(Cmp::Le, 0.0);
                }
                // Occupancy: residents of `bank` at p claim their color.
                let mut avail = Vec::new();
                for r in 0..8u32 {
                    let av = model.binary(fam_cav, &[Key::Int(p.0), bank_key(bank), Key::Int(r)]);
                    avail.push(av);
                }
                let mut occupants: Vec<Temp> = facts.exists_at(p).iter().copied().collect();
                occupants.sort();
                for v in &occupants {
                    if !candidates.allows(*v, bank) {
                        continue;
                    }
                    obuf.clear();
                    match push_occupancy(&mut obuf, &moves, &actions, p, *v, bank, false, 1.0) {
                        None | Some(0) => continue,
                        Some(_) => {}
                    }
                    let cv = &colors[&(*v, bank)];
                    for r in 0..8 {
                        let mut b = model.row(g_occupy);
                        for &(mv, c) in &obuf {
                            b.term(mv, c);
                        }
                        b.term(cv[r], 1.0)
                            .term(avail[r], -1.0)
                            .finish_lazy(Cmp::Le, 1.0);
                    }
                }
                let mut b = model.row(g_sparereg);
                for &av in &avail {
                    b.term(av, 1.0);
                }
                b.term(ns, 1.0).finish_lazy(Cmp::Le, 8.0);
            }
        }
    }

    // ---- Objective (§7) with clone-set counting (§10) ----
    let mut counted: HashSet<(PointId, Temp)> = HashSet::new();
    for key in &move_keys {
        let ((p, v), vars) = (key, &moves[key]);
        if counted.contains(&(*p, *v)) {
            continue;
        }
        let w = freqs.of(block_of(*p)).max(1e-3);
        let members: Vec<Temp> = match groups.get(v) {
            Some(g) => g
                .iter()
                .filter(|m| moves.contains_key(&(*p, **m)))
                .copied()
                .collect(),
            None => vec![*v],
        };
        if members.len() > 1 {
            // Clone set: count one move per (from, to) pair via cloneMove.
            let mut pairs: BTreeSet<(IlpBank, IlpBank)> = BTreeSet::new();
            for m in &members {
                for (_, b1, b2) in &moves[&(*p, *m)] {
                    if b1 != b2 {
                        pairs.insert((*b1, *b2));
                    }
                }
                counted.insert((*p, *m));
            }
            let rep = members[0];
            for (b1, b2) in pairs {
                let cm = model.binary(
                    fam_cm,
                    &[Key::Int(p.0), Key::Int(rep.0), bank_key(b1), bank_key(b2)],
                );
                sbuf.clear();
                for m in &members {
                    for (var, f, t) in &moves[&(*p, *m)] {
                        if *f == b1 && *t == b2 {
                            model
                                .row(g_clonemove)
                                .term(*var, 1.0)
                                .term(cm, -1.0)
                                .finish_lazy(Cmp::Le, 0.0);
                            sbuf.push((*var, 1.0));
                        }
                    }
                }
                let cost = move_cost(cfg, b1, b2).unwrap_or(0.0);
                let biased = if b1 == IlpBank::B {
                    cost * cfg.bias
                } else {
                    cost
                };
                model.objective_term(cm, w * biased);
                let mut b = model.row(g_clonemove);
                b.term(cm, 1.0);
                for &(mv, c) in &sbuf {
                    b.term(mv, -c);
                }
                b.finish_lazy(Cmp::Le, 0.0);
            }
        } else {
            counted.insert((*p, *v));
            for (var, b1, b2) in vars {
                if b1 == b2 {
                    continue;
                }
                let cost = move_cost(cfg, *b1, *b2).unwrap_or(0.0);
                let biased = if *b1 == IlpBank::B {
                    cost * cfg.bias
                } else {
                    cost
                };
                model.objective_term(*var, w * biased);
            }
        }
    }
    // Tiny symmetry-breaking preference for low register numbers: without
    // it the LP spreads a free color fractionally over all eight registers
    // (zero cost either way) and branch-and-bound has to enumerate them.
    // The epsilon is scaled so the whole term cannot perturb even a single
    // cheapest move decision.
    let n_color_vars: usize = colors.values().map(|v| v.len()).sum();
    if n_color_vars > 0 {
        let eps = cfg.mv_cost * 1e-3 / (8.0 * n_color_vars as f64);
        for vars in colors.values() {
            for (r, var) in vars.iter().enumerate().skip(1) {
                model.objective_term(*var, eps * r as f64);
            }
        }
    }
    // Surviving parameter-passing copies cost a move at their block's
    // frequency (coalesced copies cost nothing).
    for (p, pm) in &copy_penalties {
        let w = freqs.of(block_of(*p)).max(1e-3);
        model.objective_term(*pm, w * cfg.mv_cost);
    }

    BankModel {
        model,
        moves,
        colors,
        actions,
        candidates,
        groups,
        block_range,
        fig6,
    }
}

/// The decoded solution of the bank-assignment ILP.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Bank of each temp before the moves at each of its action points.
    pub before: HashMap<(PointId, Temp), IlpBank>,
    /// Bank after the moves at each action point.
    pub after: HashMap<(PointId, Temp), IlpBank>,
    /// Non-identity moves per point, in temp order.
    pub moves: HashMap<PointId, Vec<(Temp, IlpBank, IlpBank)>>,
    /// Transfer-bank register per `(temp, bank)`.
    pub colors: HashMap<(Temp, IlpBank), u8>,
    /// Number of inter-bank moves (Figure 7's "Moves").
    pub n_moves: usize,
    /// Number of spills — transitions into `M` (Figure 7's "Spills").
    pub n_spills: usize,
}

/// Solver+model statistics (Figure 7's row for one program).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocStats {
    /// Model sizes.
    pub model: ModelStats,
    /// Branch-and-bound statistics (root LP time, total time, nodes).
    pub solve: SolveStats,
    /// Figure-6 aggregate statistics.
    pub fig6: Fig6,
    /// Inter-bank moves in the solution.
    pub moves: usize,
    /// Spills in the solution.
    pub spills: usize,
    /// Objective of the accepted integer solution.
    pub objective: f64,
}

/// Solve the model and decode the solution.
///
/// # Errors
///
/// Propagates solver failure ([`MilpError`]); an `Infeasible` outcome on a
/// well-formed program indicates the program genuinely cannot be allocated
/// (e.g. spilling disabled with excessive pressure).
pub fn solve(bm: &mut BankModel, cfg: &AllocConfig) -> Result<(Assignment, AllocStats), MilpError> {
    solve_with(bm, cfg, &nova_obs::Obs::noop())
}

/// [`solve`] with structured telemetry (the underlying MILP search
/// publishes its `ilp.*` events).
///
/// # Errors
///
/// Propagates solver failure ([`MilpError`]) as [`solve`] does.
pub fn solve_with(
    bm: &mut BankModel,
    cfg: &AllocConfig,
    obs: &nova_obs::Obs,
) -> Result<(Assignment, AllocStats), MilpError> {
    let sol = bm.model.solve_with(&cfg.solver, obs)?;
    Ok(decode_solution(bm, sol))
}

/// Read a MILP (or rounded-LP) solution of `bm` as an assignment plus
/// the statistics record every rung of the fallback ladder reports.
pub(crate) fn decode_solution(bm: &BankModel, sol: ilp::MilpSolution) -> (Assignment, AllocStats) {
    let assignment = decode_assignment(bm, &sol.values);
    let stats = AllocStats {
        model: bm.model.stats(),
        solve: sol.stats,
        fig6: bm.fig6,
        moves: assignment.n_moves,
        spills: assignment.n_spills,
        objective: sol.objective,
    };
    (assignment, stats)
}

/// Decode the 0/1 values of any MILP solution of a [`BankModel`] into an
/// [`Assignment`]. Shared by every stage of the fallback ladder so exact,
/// gap-widened, and LP-rounded solutions are read identically.
fn decode_assignment(bm: &BankModel, values: &[f64]) -> Assignment {
    let mut before = HashMap::new();
    let mut after = HashMap::new();
    let mut moves_out: HashMap<PointId, Vec<(Temp, IlpBank, IlpBank)>> = HashMap::new();
    let mut n_moves = 0;
    let mut n_spills = 0;
    for ((p, v), vars) in &bm.moves {
        for (var, b1, b2) in vars {
            if values[var.index()] > 0.5 {
                before.insert((*p, *v), *b1);
                after.insert((*p, *v), *b2);
                if b1 != b2 {
                    moves_out.entry(*p).or_default().push((*v, *b1, *b2));
                    n_moves += 1;
                    if *b2 == IlpBank::M {
                        n_spills += 1;
                    }
                }
            }
        }
    }
    for v in moves_out.values_mut() {
        v.sort();
    }
    let mut colors = HashMap::new();
    for ((v, xb), vars) in &bm.colors {
        for (r, var) in vars.iter().enumerate() {
            if values[var.index()] > 0.5 {
                colors.insert((*v, *xb), r as u8);
            }
        }
    }
    Assignment {
        before,
        after,
        moves: moves_out,
        colors,
        n_moves,
        n_spills,
    }
}

/// Convenience: the point id of a (block, index) pair.
pub fn point_id(facts: &Facts, block: u32, index: u32) -> PointId {
    facts.point_id[&Point {
        block: ixp_machine::BlockId(block),
        index,
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use IlpBank::*;

    #[test]
    fn move_cost_table_matches_paper() {
        let cfg = AllocConfig::default();
        // §7: mvC = 1, ldC = stC = 200.
        assert_eq!(move_cost(&cfg, A, B), Some(1.0));
        assert_eq!(move_cost(&cfg, L, S), Some(1.0), "read side to store side");
        assert_eq!(move_cost(&cfg, A, M), Some(201.0), "A->S move + store");
        assert_eq!(move_cost(&cfg, S, M), Some(200.0), "store only");
        assert_eq!(move_cost(&cfg, M, L), Some(200.0), "reload lands in L");
        assert_eq!(move_cost(&cfg, M, A), Some(201.0), "reload + move");
        // Illegal data paths (§1.1).
        assert_eq!(move_cost(&cfg, S, A), None, "store side is opaque");
        assert_eq!(move_cost(&cfg, Sd, M), None);
        assert_eq!(move_cost(&cfg, A, L), None, "only memory writes L");
        assert_eq!(move_cost(&cfg, A, Ld), None);
        // Identity is free everywhere.
        for b in IlpBank::ALL {
            assert_eq!(move_cost(&cfg, b, b), Some(0.0));
        }
    }

    #[test]
    fn ilp_banks_classify() {
        assert!(IlpBank::L.is_transfer());
        assert!(!IlpBank::M.is_transfer());
        assert!(IlpBank::A.alu_readable() && IlpBank::A.alu_writable());
        assert!(IlpBank::L.alu_readable() && !IlpBank::L.alu_writable());
        assert!(!IlpBank::S.alu_readable() && IlpBank::S.alu_writable());
        assert!(!IlpBank::M.alu_readable() && !IlpBank::M.alu_writable());
    }
}
