//! Session-cache equivalence under random edit streams.
//!
//! The per-edit invalidation contracts (comment edit → image hit,
//! constant edit → solve-free re-finish, structural edit → cold path)
//! are unit-tested next to the cache in `nova::session`. This file
//! checks the property those contracts exist to guarantee: *whatever*
//! sequence of edits a client replays through one warm [`Compiler`]
//! session, every returned artifact is bit-identical to a cold compile
//! of the same revision. A caching bug that leaks a stale artifact, or
//! a re-finish that diverges from a full solve, fails here with the
//! shrunken edit stream as the counterexample.

use nova::{CompileConfig, Compiler};
use proptest::prelude::*;
use workloads::{classifier_rules, classifier_source, CLASSIFIER_RULES};

/// Seed for the generated rule sets (distinct from the bench stream's).
const STREAM_SEED: u64 = 0x0051_7E55;

/// A recipe for the next source revision in an edit stream. Each kind
/// lands in a different cache regime once the session has seen its
/// variant before: comments leave the token stream untouched, constant
/// edits keep the immediate-masked structure, rule-count edits change
/// the program shape outright.
#[derive(Debug, Clone)]
enum Edit {
    /// Comment/whitespace decoration of variant `variant`'s source.
    Comment { variant: u8, salt: u8 },
    /// Variant `variant` verbatim: repeats are whole-image hits.
    Constants { variant: u8 },
    /// A classifier with `rules` rules instead of the usual four.
    Structure { variant: u8, rules: u8 },
}

fn source_of(edit: &Edit) -> String {
    match edit {
        Edit::Comment { variant, salt } => {
            let rules = classifier_rules(STREAM_SEED, u64::from(*variant), CLASSIFIER_RULES);
            format!(
                "// revision {salt}\n{}// reviewed: pass {salt}\n",
                classifier_source(&rules)
            )
        }
        Edit::Constants { variant } => classifier_source(&classifier_rules(
            STREAM_SEED,
            u64::from(*variant),
            CLASSIFIER_RULES,
        )),
        Edit::Structure { variant, rules } => classifier_source(&classifier_rules(
            STREAM_SEED,
            u64::from(*variant),
            usize::from(*rules),
        )),
    }
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0u8..3, any::<u8>()).prop_map(|(variant, salt)| Edit::Comment { variant, salt }),
        (0u8..3).prop_map(|variant| Edit::Constants { variant }),
        (0u8..2, 2u8..4).prop_map(|(variant, rules)| Edit::Structure { variant, rules }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every revision in a random edit stream, the warm session's
    /// artifact equals a throwaway cold session's, the stream never needs
    /// a re-finish fallback, and — the session being a straight line
    /// behind the image cache — every image miss reaches exactly one
    /// allocation lookup.
    #[test]
    fn warm_session_matches_cold_on_any_edit_stream(
        edits in proptest::collection::vec(edit_strategy(), 1..8),
    ) {
        let session = Compiler::new(CompileConfig::default());
        for edit in &edits {
            let src = source_of(edit);
            let warm = session
                .compile_output(&src)
                .expect("generated classifier sources compile");
            let cold = Compiler::new(CompileConfig::default())
                .compile_output(&src)
                .expect("generated classifier sources compile");
            prop_assert!(
                warm.artifact_eq(&cold),
                "warm artifact diverged from cold after edit {:?}",
                edit
            );
        }
        let stats = session.cache_stats();
        prop_assert_eq!(
            stats.output_hits + stats.output_misses,
            edits.len() as u64
        );
        prop_assert_eq!(stats.refinish_fallbacks, 0);
        prop_assert_eq!(
            stats.alloc_hits + stats.alloc_misses,
            stats.output_misses
        );
    }
}
