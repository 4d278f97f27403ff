//! On-disk artifact-cache contracts across process "crashes".
//!
//! The disk cache exists to warm a restarted server, so its contracts
//! are phrased around restarts: a fresh [`Compiler`] over a populated
//! directory replaces every MILP solve with a disk load, a corrupted or
//! truncated entry is a clean miss (never a failure), and — the
//! property everything else serves — artifacts after *any* crash/restart
//! point in an edit stream are bit-identical to an uninterrupted cold
//! run. Corruption may cost time, never correctness.

use nova::{CompileConfig, Compiler};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{classifier_rules, classifier_source, CLASSIFIER_RULES};

/// Seed for the generated rule sets (distinct from the bench streams').
const STREAM_SEED: u64 = 0x0D15_C0DE;

/// A fresh scratch directory per call; callers leak nothing because the
/// whole tree lives under the system temp dir and is removed up front on
/// name reuse.
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nova-persist-test-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn cfg(persist: Option<&Path>) -> CompileConfig {
    let b = CompileConfig::builder();
    match persist {
        Some(dir) => b.persist_dir(dir).build(),
        None => b.build(),
    }
}

/// Classifier source with `rules` rules of variant `variant`.
fn classifier(variant: u64, rules: usize) -> String {
    classifier_source(&classifier_rules(STREAM_SEED, variant, rules))
}

/// The cache files currently on disk, in sorted (deterministic) order.
fn cache_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    files.sort();
    files
}

#[test]
fn restart_replays_a_structural_stream_from_disk() {
    let dir = scratch_dir("restart");
    let sources: Vec<String> = (2..=4).map(|n| classifier(0, n)).collect();

    let first = Compiler::new(cfg(Some(&dir)));
    let cold: Vec<_> = sources
        .iter()
        .map(|s| first.compile_output(s).expect("compiles"))
        .collect();
    let s = first.cache_stats();
    assert_eq!(s.disk_misses, 3, "every structure misses an empty cache");
    assert_eq!(s.disk_hits, 0);
    assert_eq!(cache_files(&dir).len(), 3, "one entry per structure");
    drop(first); // the crash: only the directory survives

    let second = Compiler::new(cfg(Some(&dir)));
    let warm: Vec<_> = sources
        .iter()
        .map(|s| second.compile_output(s).expect("compiles"))
        .collect();
    let s = second.cache_stats();
    assert_eq!(s.disk_hits, 3, "every solve replaced by a disk load");
    assert_eq!(s.alloc_misses, 0, "no MILP ran on the warm side");
    assert_eq!(s.disk_rejects, 0);
    for (w, c) in warm.iter().zip(&cold) {
        assert!(w.artifact_eq(c), "disk-loaded artifact diverged");
    }
}

#[test]
fn truncated_cache_file_is_a_clean_miss() {
    let dir = scratch_dir("truncate");
    let src = classifier(0, CLASSIFIER_RULES);
    let cold = Compiler::new(cfg(Some(&dir)))
        .compile_output(&src)
        .expect("compiles");

    let files = cache_files(&dir);
    assert_eq!(files.len(), 1);
    let bytes = std::fs::read(&files[0]).expect("read entry");
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).expect("truncate entry");

    let session = Compiler::new(cfg(Some(&dir)));
    let rebuilt = session
        .compile_output(&src)
        .expect("compiles despite corruption");
    let s = session.cache_stats();
    assert_eq!(s.disk_rejects, 1, "the torn entry is a reject, not a hit");
    assert_eq!(s.disk_hits, 0);
    assert_eq!(s.alloc_misses, 1, "a clean full solve recovered");
    assert!(rebuilt.artifact_eq(&cold));

    // The recovery solve re-persisted a good entry: the next restart hits.
    let healed = Compiler::new(cfg(Some(&dir)));
    let again = healed.compile_output(&src).expect("compiles");
    assert_eq!(healed.cache_stats().disk_hits, 1);
    assert!(again.artifact_eq(&cold));
}

#[test]
fn bit_flipped_cache_file_is_a_clean_miss() {
    let dir = scratch_dir("bitflip");
    let src = classifier(1, CLASSIFIER_RULES);
    let cold = Compiler::new(cfg(Some(&dir)))
        .compile_output(&src)
        .expect("compiles");

    let files = cache_files(&dir);
    let mut bytes = std::fs::read(&files[0]).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&files[0], &bytes).expect("rewrite entry");

    let session = Compiler::new(cfg(Some(&dir)));
    let rebuilt = session
        .compile_output(&src)
        .expect("compiles despite corruption");
    let s = session.cache_stats();
    assert_eq!(s.disk_rejects, 1);
    assert_eq!(s.disk_hits, 0);
    assert!(rebuilt.artifact_eq(&cold));
}

#[test]
fn garbage_cache_file_is_a_clean_miss() {
    let dir = scratch_dir("garbage");
    let src = classifier(2, CLASSIFIER_RULES);
    let cold = Compiler::new(cfg(Some(&dir)))
        .compile_output(&src)
        .expect("compiles");

    let files = cache_files(&dir);
    std::fs::write(&files[0], b"definitely not a cache entry").expect("overwrite entry");

    let session = Compiler::new(cfg(Some(&dir)));
    let rebuilt = session
        .compile_output(&src)
        .expect("compiles despite corruption");
    assert_eq!(session.cache_stats().disk_rejects, 1);
    assert!(rebuilt.artifact_eq(&cold));
}

/// A directory left behind by the version-1 format (whose payload ended
/// in a raw solution-vector block) is refused by version, recovered by a
/// full solve, and healed to a version-2 file the next session hits.
#[test]
fn version_1_entry_is_rejected_and_healed() {
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    /// `magic ‖ version ‖ payload length ‖ FNV-1a(payload) ‖ payload`.
    fn frame(version: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = b"NOVACHE1".to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    let dir = scratch_dir("v1");
    let src = classifier(3, CLASSIFIER_RULES);
    let cold = Compiler::new(cfg(Some(&dir)))
        .compile_output(&src)
        .expect("compiles");
    let files = cache_files(&dir);
    assert_eq!(files.len(), 1);
    let v2 = std::fs::read(&files[0]).expect("read entry");
    let payload = &v2[28..];
    assert_eq!(v2, frame(2, payload), "the test knows the current framing");
    // A version-2 payload ends at `n_spills`.
    assert_eq!(
        payload[payload.len() - 8..],
        (cold.alloc_stats.spills as u64).to_le_bytes()
    );

    // The same entry as version 1 wrote it: a trailing `values` block
    // (tag 1, length, little-endian f64s) under a version-1 header.
    let mut v1_payload = payload.to_vec();
    v1_payload.push(1);
    v1_payload.extend_from_slice(&3u64.to_le_bytes());
    for v in [0.0f64, 1.0, 0.5] {
        v1_payload.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    std::fs::write(&files[0], frame(1, &v1_payload)).expect("write v1 entry");

    let session = Compiler::new(cfg(Some(&dir)));
    let rebuilt = session.compile_output(&src).expect("compiles");
    let s = session.cache_stats();
    assert_eq!(
        (s.disk_rejects, s.disk_hits, s.disk_misses, s.alloc_misses),
        (1, 0, 0, 1),
        "exactly one reject, recovered by a full solve"
    );
    assert!(rebuilt.artifact_eq(&cold));
    assert_eq!(
        std::fs::read(&files[0]).expect("read healed entry"),
        v2,
        "the recovery solve rewrote the entry in the current format"
    );

    let healed = Compiler::new(cfg(Some(&dir)));
    let again = healed.compile_output(&src).expect("compiles");
    assert_eq!(healed.cache_stats().disk_hits, 1);
    assert!(again.artifact_eq(&cold));
}

#[test]
fn server_restart_warms_from_disk() {
    use nova_server::{CompileRequest, Server, ServerConfig};
    let dir = scratch_dir("server");
    let requests = || -> Vec<CompileRequest> {
        (0..3)
            .map(|i| CompileRequest::new(i as u64, classifier(0, 2 + i)))
            .collect()
    };
    let server = |workers: usize| {
        Server::new(ServerConfig {
            workers,
            compile: cfg(Some(&dir)),
            ..ServerConfig::default()
        })
    };

    let first = server(1);
    let cold = first.submit_batch(requests());
    drop(first);

    // The replacement may even be wider: disk entries are shared state,
    // not per-worker, and the batch still warms entirely from disk.
    let second = server(2);
    let warm = second.submit_batch(requests());
    let s = second.cache_stats();
    assert_eq!(s.disk_hits, 3);
    assert_eq!(s.alloc_misses, 0);
    for (w, c) in warm.iter().zip(&cold) {
        let (w, c) = (w.result.as_ref().unwrap(), c.result.as_ref().unwrap());
        assert!(w.artifact_eq(c));
    }
}

/// A recipe for the next source revision in an edit stream (the
/// session-cache proptest's shape, minus comment edits, which never
/// reach the allocator or the disk).
#[derive(Debug, Clone)]
enum Edit {
    /// Variant `variant` of the canonical four-rule classifier.
    Constants { variant: u8 },
    /// A classifier with `rules` rules instead of the usual four.
    Structure { variant: u8, rules: u8 },
}

fn source_of(edit: &Edit) -> String {
    match edit {
        Edit::Constants { variant } => classifier(u64::from(*variant), CLASSIFIER_RULES),
        Edit::Structure { variant, rules } => classifier(u64::from(*variant), usize::from(*rules)),
    }
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0u8..3).prop_map(|variant| Edit::Constants { variant }),
        (0u8..2, 2u8..4).prop_map(|(variant, rules)| Edit::Structure { variant, rules }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash-restart equivalence: compile a random prefix of a random
    /// edit stream into a persistence directory, "crash" (drop the
    /// session), optionally tear one cache file in half (a mid-write
    /// crash), restart a fresh session over the directory, and replay
    /// the whole stream. Every artifact must be bit-identical to a cold
    /// compile of the same revision, and corruption must surface as
    /// rejects, never as failures or stale artifacts.
    #[test]
    fn restart_after_any_crash_prefix_matches_uninterrupted(
        edits in proptest::collection::vec(edit_strategy(), 1..6),
        cut in 0usize..6,
        tear in any::<bool>(),
    ) {
        let dir = scratch_dir("proptest");
        let cut = cut % (edits.len() + 1);

        let first = Compiler::new(cfg(Some(&dir)));
        for edit in &edits[..cut] {
            first.compile_output(&source_of(edit)).expect("compiles");
        }
        drop(first);

        let files = cache_files(&dir);
        if tear {
            if let Some(path) = files.first() {
                let bytes = std::fs::read(path).expect("read entry");
                std::fs::write(path, &bytes[..bytes.len() / 2]).expect("tear entry");
            }
        }

        let restarted = Compiler::new(cfg(Some(&dir)));
        for edit in &edits {
            let src = source_of(edit);
            let warm = restarted
                .compile_output(&src)
                .expect("restart compiles every revision");
            let cold = Compiler::new(cfg(None))
                .compile_output(&src)
                .expect("cold compiles");
            prop_assert!(
                warm.artifact_eq(&cold),
                "restart artifact diverged from cold after {:?} (cut {}, tear {})",
                edit, cut, tear
            );
        }
        let s = restarted.cache_stats();
        prop_assert_eq!(s.refinish_fallbacks, 0);
        // Every disk consultation resolved one way; a torn file may only
        // ever show up in the reject column.
        if !tear {
            prop_assert_eq!(s.disk_rejects, 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
