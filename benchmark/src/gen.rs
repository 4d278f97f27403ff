//! Seeded input generation: classifier rule sets, the rule-edit random
//! walk, and flow-level traffic. Everything is a pure function of the
//! `--seed` argument; the program under test only ever sees the generated
//! sources and traces.
//!
//! Two random streams drive the generators. The *shape* stream has a
//! fixed seed and decides everything a workload's cost depends on: which
//! edit is a constant edit, a revert or a structural one, where a rule is
//! added and of which kind — so every `--seed` runs the same number of
//! MILP solves over the same program structures, and runs on different
//! seeds can be compared. The *content* stream is seeded by `--seed` and
//! draws every constant, header word and payload. Flow-level traces are
//! the canonical ones of `BENCH_traffic.json` (shard balance across two
//! chips depends on which Zipf-heavy flows hash together, which would
//! otherwise swing host rates by 10-17 % from seed to seed); the seed
//! reaches those runs through the packet contents.
//!
//! Also holds the Rust reference classifier the post-swap port tags are
//! checked against. It shares no code with the Nova program text below —
//! it walks the rule list, the program is a generated `if` cascade.

use ixp_sim::TrafficSpec;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// SplitMix64: the repo's standard cheap deterministic stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// What a rule tests. Changing a rule's kind changes the program's
/// *structure* (a different operand or comparison), so the session's
/// immediate-masked allocation key misses and the MILP runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleKind {
    /// `(w0 & mask) == value`
    MaskEqW0,
    /// `(w1 & mask) == value`
    MaskEqW1,
    /// `(w1 & mask) < value` (unsigned)
    RangeW1,
}

const KINDS: [RuleKind; 3] = [RuleKind::MaskEqW0, RuleKind::MaskEqW1, RuleKind::RangeW1];

/// One classifier rule. A packet matching it is tagged with `port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rule {
    pub kind: RuleKind,
    pub mask: u32,
    pub value: u32,
    /// 1..=7; port 0 is the default (no rule matched).
    pub port: u32,
}

/// The second header word keeps its top byte clear: the program ORs the
/// port tag into it, and the check reads the tag back from there.
pub const W1_BITS: u32 = 0x00FF_FFFF;

impl Rule {
    /// Fresh constants for a rule of `kind`. Masks are byte-granular and
    /// every byte of `value` under the mask is non-zero, avoiding the
    /// degenerate constants (0, all-ones) the CPS optimizer folds
    /// structurally — so a constant edit never changes program shape.
    /// A range rule's bound keeps its top masked byte at most 8, so a
    /// random header word rarely falls under it by accident and a
    /// packet's path through the cascade is set by the rule it was aimed
    /// at (see [`packet_words`]).
    pub fn random(rng: &mut Rng, kind: RuleKind) -> Rule {
        let pool: [u32; 3] = match kind {
            RuleKind::MaskEqW0 => [0xFF00_0000, 0xFFFF_0000, 0x00FF_FF00],
            RuleKind::MaskEqW1 | RuleKind::RangeW1 => [0x00FF_0000, 0x00FF_FF00, 0x0000_FFFF],
        };
        let mask = pool[rng.below(3)];
        let mut value = (rng.next_u32() | 0x0101_0101) & mask;
        if kind == RuleKind::RangeW1 {
            let top = 24 - mask.leading_zeros();
            value = (value & !(0xFF << top)) | ((rng.below(8) as u32 + 1) << top);
        }
        Rule {
            kind,
            mask,
            value,
            port: rng.below(7) as u32 + 1,
        }
    }

    fn matches(&self, w0: u32, w1: u32) -> bool {
        match self.kind {
            RuleKind::MaskEqW0 => w0 & self.mask == self.value,
            RuleKind::MaskEqW1 => w1 & self.mask == self.value,
            RuleKind::RangeW1 => w1 & self.mask < self.value,
        }
    }
}

/// Reference classifier: the port of the first matching rule, else 0.
pub fn classify(rules: &[Rule], w0: u32, w1: u32) -> u32 {
    rules
        .iter()
        .find(|r| r.matches(w0, w1))
        .map_or(0, |r| r.port)
}

/// The kinds of a rule set in order: two rule sets with equal structure
/// differ only in constants and share one MILP solve.
pub fn structure_of(rules: &[Rule]) -> Vec<RuleKind> {
    rules.iter().map(|r| r.kind).collect()
}

/// Seed of the shape stream (see the module documentation).
const SHAPE_SEED: u64 = 0x5AA9_E0F7_1D3A;

/// A shape stream; `salt` separates the generators that use one.
pub fn shape_rng(salt: u64) -> Rng {
    Rng::new(SHAPE_SEED ^ salt)
}

/// A rule set of `n` rules: kinds from the shape stream, constants from
/// the content stream.
pub fn random_rules(shape: &mut Rng, content: &mut Rng, n: usize) -> Vec<Rule> {
    (0..n)
        .map(|_| Rule::random(content, KINDS[shape.below(3)]))
        .collect()
}

/// Header words of a packet that (three times in four) is aimed at one
/// rule of `rules`, so post-swap tags exercise every port and not only
/// the default. Which rule — and with it the packet's depth in the
/// cascade — comes from the shape stream; the bits come from `content`.
pub fn packet_words(shape: &mut Rng, content: &mut Rng, rules: &[Rule]) -> (u32, u32) {
    let (mut w0, mut w1) = (content.next_u32(), content.next_u32() & W1_BITS);
    let aimed = shape.below(4) != 0;
    let at = shape.below(rules.len().max(1));
    if aimed && !rules.is_empty() {
        let r = rules[at];
        match r.kind {
            RuleKind::MaskEqW0 => w0 = r.value | (w0 & !r.mask),
            RuleKind::MaskEqW1 => w1 = r.value | (w1 & !r.mask),
            // Masked bits all zero compare below any (non-zero) bound.
            RuleKind::RangeW1 => w1 &= !r.mask,
        }
    }
    (w0, w1)
}

/// Render the Nova program for a rule set: receive, classify through a
/// right-leaning `if` cascade (rule 0 outermost), count per port, tag the
/// second header word with the port, transmit. Rule constants land in
/// `const` definitions; the cascade's shape depends only on the kinds.
pub fn classifier_source(rules: &[Rule]) -> String {
    let mut src = String::new();
    for (i, r) in rules.iter().enumerate() {
        let _ = writeln!(src, "const R{i}_MASK = {:#010x};", r.mask);
        let _ = writeln!(src, "const R{i}_VALUE = {:#010x};", r.value);
        let _ = writeln!(src, "const R{i}_PORT = {};", r.port);
    }
    src.push_str(
        "const DEFAULT_PORT = 0;\n\
         const COUNTERS = 0x40;   // scratch: per-port packet counters\n\
         \n\
         fun main() {\n    \
             let (len, addr) = rx_packet();\n    \
             let (w0, w1) = sdram(addr);\n    \
             let port = classify(w0, w1);\n    \
             let (c) = scratch(COUNTERS + port);\n    \
             scratch(COUNTERS + port) <- (c + 1);\n    \
             sdram(addr) <- (w0, w1 | (port << 24));\n    \
             tx_packet(addr, len);\n    \
             main()\n\
         }\n\
         \n\
         fun classify(w0, w1) {\n",
    );
    for (i, r) in rules.iter().enumerate() {
        let test = match r.kind {
            RuleKind::MaskEqW0 => format!("(w0 & R{i}_MASK) == R{i}_VALUE"),
            RuleKind::MaskEqW1 => format!("(w1 & R{i}_MASK) == R{i}_VALUE"),
            RuleKind::RangeW1 => format!("(w1 & R{i}_MASK) < R{i}_VALUE"),
        };
        let _ = writeln!(
            src,
            "{}if ({test}) {{ R{i}_PORT }} else {{",
            "    ".repeat(i + 1)
        );
    }
    let _ = writeln!(src, "{}DEFAULT_PORT", "    ".repeat(rules.len() + 1));
    for i in (0..rules.len()).rev() {
        let _ = writeln!(src, "{}}}", "    ".repeat(i + 1));
    }
    src.push_str("}\n");
    src
}

/// What an edit did to the previous rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// One rule's constants re-drawn: allocation-cache hit, `refinish`.
    Constant,
    /// Back to one of the last eight rule sets: whole-image hit.
    Revert,
    /// A rule added, removed, or changed in kind: usually a first-seen
    /// structure, so the MILP runs and the result is persisted.
    Structural,
}

/// One step of the rule-edit stream, as submitted to the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub kind: EditKind,
    pub rules: Vec<Rule>,
    pub source: String,
}

/// Shape of an edit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditMix {
    pub edits: usize,
    /// Per cent of edits that revert / change structure; the rest change
    /// a constant.
    pub revert_pct: usize,
    pub structural_pct: usize,
    pub min_rules: usize,
    pub max_rules: usize,
}

/// The canonical operator mix: 70 % constant edits, 20 % reverts, 10 %
/// structural edits over rule sets of 2..=12 rules.
pub fn standard_mix(edits: usize) -> EditMix {
    EditMix {
        edits,
        revert_pct: 20,
        structural_pct: 10,
        min_rules: 2,
        max_rules: 12,
    }
}

/// How many previous rule sets a revert may go back to.
const REVERT_WINDOW: usize = 8;

/// The seeded random walk over rule sets. Edit 0 installs the initial
/// rule set (a first-seen structure).
pub fn edit_stream(seed: u64, mix: &EditMix) -> Vec<Edit> {
    let mut shape = shape_rng(0xED17);
    let mut content = Rng::new(seed ^ 0x00ED_1757_EA11);
    let start = (mix.min_rules + mix.max_rules) / 2;
    let mut current = random_rules(&mut shape, &mut content, start);
    let mut history: VecDeque<Vec<Rule>> = VecDeque::new();
    let mut out = Vec::with_capacity(mix.edits);
    for i in 0..mix.edits {
        let roll = shape.below(100);
        let kind = if i == 0 {
            EditKind::Structural
        } else if roll < mix.revert_pct && !history.is_empty() {
            EditKind::Revert
        } else if roll < mix.revert_pct + mix.structural_pct {
            EditKind::Structural
        } else {
            EditKind::Constant
        };
        if i > 0 {
            let previous = current.clone();
            match kind {
                EditKind::Revert => current = history[shape.below(history.len())].clone(),
                EditKind::Constant => {
                    let at = shape.below(current.len());
                    current[at] = Rule::random(&mut content, current[at].kind);
                }
                EditKind::Structural => {
                    structural_edit(&mut shape, &mut content, &mut current, mix)
                }
            }
            history.push_back(previous);
            if history.len() > REVERT_WINDOW {
                history.pop_front();
            }
        }
        out.push(Edit {
            kind,
            source: classifier_source(&current),
            rules: current.clone(),
        });
    }
    out
}

fn structural_edit(shape: &mut Rng, content: &mut Rng, rules: &mut Vec<Rule>, mix: &EditMix) {
    let choice = shape.below(3);
    if choice == 0 && rules.len() < mix.max_rules {
        let kind = KINDS[shape.below(3)];
        let at = shape.below(rules.len() + 1);
        rules.insert(at, Rule::random(content, kind));
    } else if choice == 1 && rules.len() > mix.min_rules {
        rules.remove(shape.below(rules.len()));
    } else {
        let at = shape.below(rules.len());
        let others: Vec<RuleKind> = KINDS.into_iter().filter(|k| *k != rules[at].kind).collect();
        rules[at] = Rule::random(content, others[shape.below(others.len())]);
    }
}

/// The canonical flow-level traffic of `BENCH_traffic.json`: 4096
/// Zipf-popular flows (s = 1.0), bursts of 4, four packet length classes,
/// paced at ≈1.8 Gb/s offered, trace seed included.
pub fn paced_traffic(packets: usize) -> TrafficSpec {
    TrafficSpec {
        packets,
        flows: 4096,
        zipf_s_halves: 2,
        mean_burst: 4,
        length_classes: vec![64, 200, 576, 1500],
        mean_gap: 128,
        cycles_per_byte: 1,
        seed: 0x1337_BEEF,
    }
}

/// The microburst variant: 48-packet bursts at line rate slam one chip's
/// 64-slot receive buffer at once — the drop/backlog path.
pub fn microburst_traffic(packets: usize) -> TrafficSpec {
    TrafficSpec {
        mean_burst: 48,
        mean_gap: 4096,
        cycles_per_byte: 0,
        ..paced_traffic(packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let mix = standard_mix(300);
        let (a, b) = (edit_stream(7, &mix), edit_stream(8, &mix));
        assert_eq!(a, edit_stream(7, &mix));
        assert_ne!(a, b);
        // Another seed draws other constants over the same shape.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(structure_of(&x.rules), structure_of(&y.rules));
        }
        assert_eq!(paced_traffic(500).generate(), paced_traffic(500).generate());
    }

    #[test]
    fn the_mix_is_roughly_the_declared_one() {
        let mix = standard_mix(4000);
        let stream = edit_stream(1, &mix);
        let share = |k: EditKind| stream.iter().filter(|e| e.kind == k).count() as f64 / 4000.0;
        assert!((share(EditKind::Constant) - 0.70).abs() < 0.04);
        assert!((share(EditKind::Revert) - 0.20).abs() < 0.04);
        assert!((share(EditKind::Structural) - 0.10).abs() < 0.03);
        for e in &stream {
            assert!((mix.min_rules..=mix.max_rules).contains(&e.rules.len()));
        }
        let mut structures: Vec<_> = stream.iter().map(|e| structure_of(&e.rules)).collect();
        structures.sort();
        structures.dedup();
        assert!(
            structures.len() >= 200,
            "≥5 % of edits must be first-seen structures"
        );
    }

    #[test]
    fn crafted_packets_reach_the_rules() {
        let mut rng = Rng::new(3);
        let mut shape = shape_rng(1);
        let rules = random_rules(&mut shape, &mut rng, 6);
        let hits = (0..400)
            .filter(|_| {
                let (w0, w1) = packet_words(&mut shape, &mut rng, &rules);
                assert_eq!(w1 & !W1_BITS, 0);
                classify(&rules, w0, w1) != 0
            })
            .count();
        assert!(hits > 200, "only {hits}/400 packets matched a rule");
    }
}
