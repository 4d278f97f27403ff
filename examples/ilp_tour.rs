//! A tour of the `ilp` crate on its own: the AMPL-like modeling layer
//! (§5, Figure 2 of the paper) applied to a miniature version of the
//! paper's running example — the "mini-IXP" of §2.1 with a four-register
//! transfer bank, where two values must be evicted to make room for a new
//! aggregate and the solver decides which.
//!
//! Run with `cargo run --release --example ilp_tour`.

use ilp::{BranchConfig, Cmp, Key, Model, Var};

fn main() {
    // Mini-IXP (§2.1): the transfer bank holds four registers. u,v,w,x
    // were loaded as an aggregate (positions 0..4). v and x die. Then an
    // aggregate (y,z) of size two needs two *adjacent* registers: the
    // solver must pick evictions/placements. Costs: evicting u costs 3
    // (it is hot), evicting w costs 1.
    let mut m = Model::minimize();
    let color = m.family("Color");
    let evict = m.family("Evict");
    let one_reg = m.group("OneReg");
    let adjacent = m.group("Adjacent");
    let occupied = m.group("Occupied");

    // u,v,w,x hold registers 0..4 after the first read.
    // Survivors u (reg 0) and w (reg 2) may be evicted.
    let eu = m.binary(evict, &[Key::Sym("u")]);
    let ew = m.binary(evict, &[Key::Sym("w")]);

    // Color[who, r]: y and z each get exactly one of the four registers.
    let place = |m: &mut Model, who: &'static str| -> [Var; 4] {
        let vars = [0u32, 1, 2, 3].map(|r| m.binary(color, &[Key::Sym(who), Key::Int(r)]));
        let mut row = m.row(one_reg);
        for v in vars {
            row.term(v, 1.0);
        }
        row.finish(Cmp::Eq, 1.0);
        vars
    };
    let y = place(&mut m, "y");
    let z = place(&mut m, "z");
    // Adjacency (§9): z sits directly above y.
    for (r, &yr) in y.iter().enumerate() {
        let mut row = m.row(adjacent);
        row.term(yr, 1.0);
        if let Some(&zr) = z.get(r + 1) {
            row.term(zr, -1.0);
        }
        row.finish(Cmp::Eq, 0.0);
    }
    // Occupancy: register 0 needs u evicted, register 2 needs w evicted.
    for c in [y, z] {
        m.row(occupied)
            .term(c[0], 1.0)
            .term(eu, -1.0)
            .finish(Cmp::Le, 0.0);
        m.row(occupied)
            .term(c[2], 1.0)
            .term(ew, -1.0)
            .finish(Cmp::Le, 0.0);
    }
    // Objective: eviction costs.
    m.objective_term(eu, 3.0);
    m.objective_term(ew, 1.0);

    let stats = m.stats();
    println!(
        "model: {} vars, {} constraints",
        stats.variables, stats.constraints
    );
    let sol = m.solve(&BranchConfig::default()).expect("solvable");
    println!("optimal eviction cost: {}", sol.objective);
    let set = |v: Var| sol.values[v.index()] > 0.5;
    println!("evict u? {}   evict w? {}", set(eu), set(ew));
    for (who, c) in [("y", y), ("z", z)] {
        for (r, &v) in c.iter().enumerate() {
            if set(v) {
                println!("{who} -> transfer register {r}");
            }
        }
    }
    // The solver evicts only w (cost 1): y,z land in registers 1,2
    // (register 1 was freed by v dying — no eviction needed there).
    assert_eq!(sol.objective, 1.0);
    assert!(!set(eu));
    assert!(set(ew));
    println!("ok!");
}
