//! Content-addressed per-method summaries and their stores.
//!
//! A [`MethodSummary`] holds the per-method facts the stages after the
//! solve read (after RacerD's per-method summaries): **call dominance**
//! for HB rules 2–4, **constant-propagation facts** for the prefilter's
//! constprop rule, and **access sites** for the candidate stage.
//! [`summarize_method`] is the one place they are computed, and only for
//! the methods the points-to analysis reached (see `link.rs`).
//!
//! Every fact is a pure function of one method body and reads no
//! configuration. Keys come from one walk over the IR
//! ([`apir::ProgramDigest`]) that prints nothing; a summary is keyed by
//! `fnv64(structural fingerprint ‖ body digest)`:
//!
//! - the **structural fingerprint** covers the class/field/method tables
//!   *excluding bodies* — renames, signature changes, or hierarchy edits
//!   shift ids and invalidate every summary (conservative but sound);
//! - the **body digest** hashes every field of the body, so editing one
//!   method changes only that method's key.
//!
//! So sessions that differ in context selector or opaque policy share
//! the summaries of the methods they both reach. Whole-`Analysis`
//! artifacts do depend on the config: they are cached under
//! `fnv64(structural fp ‖ config fp ‖ every method's pointer digest)`,
//! where the **config fingerprint** covers the selector and the opaque
//! policy and a **pointer digest** covers only what the Andersen solver
//! reads of a body, so a warm run with no solver-relevant change reuses
//! the analysis with zero worklist iterations. [`DiskStore`]
//! (`--cache-dir`) persists these analyses, and only these, as versioned
//! blobs ([`pointer::artifact`]), so the solve is skipped across
//! processes too. Summaries stay in memory: reading one file per method
//! cost more than recomputing it.
//!
//! ## Corpus-shared framework summaries
//!
//! A framework method's summary depends only on framework content, yet
//! the standard key covers the whole program. So linking accepts an
//! optional **shared store**: methods of [`apir::Origin::Framework`]
//! classes whose bodies name only framework entities are also keyed by
//! the **framework fingerprint** (the structural fingerprint restricted
//! to framework entities, identical across apps built from one framework
//! model) and looked up there first; a miss promotes the summary into
//! it. The key spaces cannot collide semantically, so one backing store
//! may serve as both layers (how `--shared-store` wires it).
//!
//! ## Arena-stable keys
//!
//! Fingerprints hash name *text*, and body and pointer digests hash
//! string constants by their text, never a symbol value. So keys are the
//! same whether a session interns into a private interner or a shared
//! [`apir::SymbolArena`] (`sierra serve`, corpus runs), and whatever
//! order an arena interned names in.

use android_model::FrameworkClasses;
use apir::{Fnv64, MethodId, Program};
use pointer::{method_access_sites, AccessSite, Analysis, OpaquePolicy, SelectorKind};
use prefilter::constprop::{self, ConstFacts};
use shbg::CallDominance;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Every per-method fact the pipeline's stages need, cached by content
/// hash of the method body.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSummary {
    /// Call-statement dominance pairs for HB rules 2–4.
    pub dominance: CallDominance,
    /// Constant-propagation facts (dead blocks) for the prefilter.
    pub consts: ConstFacts,
    /// Field-access sites for candidate generation.
    pub sites: Vec<AccessSite>,
}

/// Computes the full summary of one method body.
pub fn summarize_method(
    program: &Program,
    fw: &FrameworkClasses,
    method: MethodId,
) -> MethodSummary {
    let m = program.method(method);
    MethodSummary {
        dominance: CallDominance::compute(m),
        consts: constprop::analyze_method(m),
        sites: method_access_sites(program, fw, method),
    }
}

/// Fingerprint of the configuration axes a points-to `Analysis` depends
/// on: the context selector and the opaque-call policy. Keys analyses
/// only; summaries read no configuration.
pub fn config_fingerprint(selector: SelectorKind, policy: OpaquePolicy) -> u64 {
    let (tag, k) = selector.code();
    Fnv64::new()
        .write_u32(u32::from(tag))
        .write_u32(k)
        .write_u32(policy as u32)
        .finish()
}

/// The content-addressed summary key of one method: its body digest
/// under a fingerprint that maps the body's ids to names.
pub fn summary_key(fingerprint: u64, body_digest: u64) -> u64 {
    Fnv64::new()
        .write_u64(fingerprint)
        .write_u64(body_digest)
        .finish()
}

/// A content-addressed store of per-method summaries and whole-`Analysis`
/// artifacts. Keys are content hashes, so a store never needs
/// invalidation logic: stale entries are simply never looked up again.
/// Implementations must be shareable across the serve worker pool and
/// the corpus engine's workers (`Send + Sync`). Keys hash names and
/// string constants by their text rather than by symbol value, so one
/// store serves sessions built over a shared [`apir::SymbolArena`] and
/// private-interner sessions interchangeably.
pub trait SummaryStore: Send + Sync + std::fmt::Debug {
    /// Looks up a method summary by key.
    fn get(&self, key: u64) -> Option<Arc<MethodSummary>>;

    /// Stores a method summary under its key.
    fn put(&self, key: u64, summary: Arc<MethodSummary>);

    /// Looks up a points-to `Analysis` by key. `framework` is the id
    /// table of the app the key was computed for; a backend that
    /// rebuilds analyses from stored bytes needs it to decode them.
    fn get_analysis(&self, key: u64, framework: &FrameworkClasses) -> Option<Arc<Analysis>>;

    /// Caches a points-to `Analysis` under its key.
    fn put_analysis(&self, key: u64, analysis: Arc<Analysis>);

    /// Lifetime count of lookups that found an entry but could not use
    /// it (torn, truncated, or version-mismatched on-disk blobs).
    /// Backends without durable storage cannot corrupt and return 0.
    fn corrupt_misses(&self) -> usize {
        0
    }

    /// Lifetime count of entries evicted to enforce a size cap.
    fn evictions(&self) -> usize {
        0
    }
}

/// An in-memory [`SummaryStore`] — the default backend, also used by the
/// server without `--cache-dir`.
#[derive(Debug, Default)]
pub struct MemoryStore {
    summaries: Mutex<HashMap<u64, Arc<MethodSummary>>>,
    analyses: Mutex<HashMap<u64, Arc<Analysis>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SummaryStore for MemoryStore {
    fn get(&self, key: u64) -> Option<Arc<MethodSummary>> {
        self.summaries
            .lock()
            .expect("store lock")
            .get(&key)
            .cloned()
    }

    fn put(&self, key: u64, summary: Arc<MethodSummary>) {
        self.summaries
            .lock()
            .expect("store lock")
            .insert(key, summary);
    }

    fn get_analysis(&self, key: u64, _framework: &FrameworkClasses) -> Option<Arc<Analysis>> {
        self.analyses.lock().expect("store lock").get(&key).cloned()
    }

    fn put_analysis(&self, key: u64, analysis: Arc<Analysis>) {
        self.analyses
            .lock()
            .expect("store lock")
            .insert(key, analysis);
    }
}

/// An on-disk [`SummaryStore`] (the `--cache-dir` backend): each
/// points-to `Analysis` is one binary blob `<key>.art` under the cache
/// directory ([`pointer::artifact`]), so the solve is skipped across
/// processes. Summaries, and analyses already put or decoded, are kept
/// in a [`MemoryStore`] the disk store owns; summaries never touch the
/// disk. Opening a store deletes the `*.sum` summary files earlier
/// builds wrote and every `*.art` blob stamped with another artifact
/// layout version, reading only its 12-byte stamp. So two builds of
/// different artifact versions sharing one cache directory delete each
/// other's blobs. A blob that cannot be read back (torn, truncated,
/// version-mismatched, or with a payload that does not decode) is a
/// miss — a corrupt cache can cost a re-solve, never correctness — but
/// each one is counted (surfacing in [`crate::LinkStats`]) and its path
/// logged once; the next put overwrites (repairs) it. Blobs keyed under
/// another config or program are never looked up again and stay until
/// a size cap ([`Self::with_max_bytes`], the `--cache-max-mb` flag)
/// evicts them: every write evicts the oldest blobs until it holds.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    memory: MemoryStore,
    max_bytes: Option<u64>,
    corrupt: AtomicUsize,
    evicted: AtomicUsize,
    logged: Mutex<HashSet<PathBuf>>,
}

impl DiskStore {
    /// Opens (creating if needed) an unbounded store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)?.flatten() {
            let path = entry.path();
            let stale = match path.extension().and_then(|x| x.to_str()) {
                Some("sum") => true,
                Some("art") => is_other_version_blob(&path),
                _ => false,
            };
            if stale {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(Self {
            dir,
            memory: MemoryStore::new(),
            max_bytes: None,
            corrupt: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
            logged: Mutex::new(HashSet::new()),
        })
    }

    /// Opens a store capped at `max_bytes` of artifact blobs; each write
    /// evicts oldest-first (modification time, then file name as the
    /// tiebreak) until the total size fits. `0` caps the store to
    /// nothing but stays correct: blobs are written, then immediately
    /// reclaimed.
    pub fn with_max_bytes(dir: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<Self> {
        let mut store = Self::new(dir)?;
        store.max_bytes = Some(max_bytes);
        Ok(store)
    }

    fn artifact_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.art"))
    }

    /// Records a corrupt blob and logs its path the first time.
    fn note_corrupt(&self, path: &std::path::Path) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let mut logged = self.logged.lock().expect("store lock");
        if logged.insert(path.to_path_buf()) {
            eprintln!(
                "sierra: cache entry {} is corrupt; recomputing (entry will be rewritten)",
                path.display()
            );
        }
    }

    /// Deletes the oldest artifact blobs until the store fits its cap.
    fn enforce_cap(&self) {
        let Some(max) = self.max_bytes else { return };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "art"))
            .filter_map(|e| {
                let md = e.metadata().ok()?;
                let mtime = md.modified().ok()?;
                Some((mtime, e.path(), md.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|&(_, _, len)| len).sum();
        if total <= max {
            return;
        }
        files.sort();
        for (_, path, len) in files {
            if total <= max {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Whether the blob at `path` is stamped with another artifact version.
fn is_other_version_blob(path: &std::path::Path) -> bool {
    use std::io::Read;
    let mut stamp = [0u8; pointer::artifact::STAMP_LEN];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut stamp))
        .is_ok_and(|()| pointer::artifact::is_other_version(&stamp))
}

impl SummaryStore for DiskStore {
    fn get(&self, key: u64) -> Option<Arc<MethodSummary>> {
        self.memory.get(key)
    }

    fn put(&self, key: u64, summary: Arc<MethodSummary>) {
        self.memory.put(key, summary);
    }

    fn get_analysis(&self, key: u64, framework: &FrameworkClasses) -> Option<Arc<Analysis>> {
        if let Some(hit) = self.memory.get_analysis(key, framework) {
            return Some(hit);
        }
        let path = self.artifact_path(key);
        let bytes = std::fs::read(&path).ok()?;
        let Some(decoded) = pointer::artifact::decode(&bytes, framework.clone()) else {
            self.note_corrupt(&path);
            return None;
        };
        let decoded = Arc::new(decoded);
        self.memory.put_analysis(key, Arc::clone(&decoded));
        Some(decoded)
    }

    fn put_analysis(&self, key: u64, analysis: Arc<Analysis>) {
        let path = self.artifact_path(key);
        let tmp = self.dir.join(format!("{key:016x}.art.tmp"));
        // Write-then-rename so concurrent readers never see a torn blob.
        if std::fs::write(&tmp, pointer::artifact::encode(&analysis)).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
        self.memory.put_analysis(key, analysis);
        self.enforce_cap();
    }

    fn corrupt_misses(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn evictions(&self) -> usize {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small fixture app's harness and its solved analysis.
    fn solved() -> (FrameworkClasses, Arc<Analysis>) {
        let (app, _) = corpus::figures::intra_component();
        let harness = harness_gen::generate(app);
        let analysis = pointer::analyze(&harness, SelectorKind::ActionSensitive(1));
        (harness.app.framework.clone(), Arc::new(analysis))
    }

    /// A fresh, empty cache directory for one test.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sierra-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn blob_path(dir: &std::path::Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.art"))
    }

    /// Looks `key` up through a fresh store over `dir`, so the analysis
    /// can only come from its blob, and returns it re-encoded with the
    /// fresh store's corrupt count.
    fn reopened(
        dir: &std::path::Path,
        key: u64,
        fw: &FrameworkClasses,
    ) -> (Option<Vec<u8>>, usize) {
        let store = DiskStore::new(dir).expect("store dir");
        let found = store.get_analysis(key, fw);
        let blob = found.map(|a| pointer::artifact::encode(&a));
        (blob, store.corrupt_misses())
    }

    #[test]
    fn disk_store_round_trips_analyses_and_misses_unknown_keys() {
        let dir = fresh_dir("store-test");
        let (fw, analysis) = solved();
        let blob = pointer::artifact::encode(&analysis);
        let store = DiskStore::new(&dir).expect("store dir");
        assert!(store.get_analysis(5, &fw).is_none(), "cold store misses");
        store.put_analysis(5, Arc::clone(&analysis));
        assert_eq!(reopened(&dir, 5, &fw), (Some(blob), 0));
        assert_eq!(reopened(&dir, 6, &fw), (None, 0), "absent is not corrupt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_counts_corrupt_blobs_and_repairs_on_put() {
        let dir = fresh_dir("corrupt-test");
        let (fw, analysis) = solved();
        let blob = pointer::artifact::encode(&analysis);
        let store = DiskStore::new(&dir).expect("store dir");
        store.put_analysis(9, Arc::clone(&analysis));

        // A valid envelope around a payload that does not decode.
        let garbage = [0xffu8; 64];
        let mut bad_payload = blob[..8].to_vec();
        bad_payload.extend_from_slice(&blob[8..12]);
        bad_payload.extend_from_slice(&(garbage.len() as u64).to_le_bytes());
        bad_payload.extend_from_slice(&apir::fnv64(&garbage).to_le_bytes());
        bad_payload.extend_from_slice(&garbage);
        assert!(pointer::artifact::decode(&bad_payload, fw.clone()).is_none());
        // Truncation breaks the envelope. (A blob of another layout
        // version is deleted on open; see the next test.)
        for bad in [&blob[..blob.len() - 3], &bad_payload[..]] {
            std::fs::write(blob_path(&dir, 9), bad).expect("corrupt the blob");
            assert_eq!(reopened(&dir, 9, &fw), (None, 1));
        }

        // Every corrupt lookup counts; the next put repairs the entry.
        let store = DiskStore::new(&dir).expect("store dir");
        assert!(store.get_analysis(9, &fw).is_none());
        assert!(store.get_analysis(9, &fw).is_none(), "still corrupt");
        assert_eq!(store.corrupt_misses(), 2, "every corrupt hit counts");
        store.put_analysis(9, analysis);
        assert_eq!(reopened(&dir, 9, &fw), (Some(blob), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_store_deletes_blobs_of_other_versions_only() {
        let dir = fresh_dir("version-test");
        let (fw, analysis) = solved();
        let blob = pointer::artifact::encode(&analysis);
        let store = DiskStore::new(&dir).expect("store dir");
        store.put_analysis(1, Arc::clone(&analysis));
        store.put_analysis(2, Arc::clone(&analysis));
        store.put_analysis(3, analysis);
        // Key 2: an earlier layout version. Key 3: the current version
        // with a bad checksum.
        let mut old = blob.clone();
        old[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(blob_path(&dir, 2), &old).expect("plant an old blob");
        let mut torn = blob.clone();
        *torn.last_mut().expect("payload") ^= 1;
        std::fs::write(blob_path(&dir, 3), &torn).expect("corrupt a blob");

        let store = DiskStore::new(&dir).expect("store dir");
        assert!(!blob_path(&dir, 2).exists(), "old-version blob deleted");
        assert!(blob_path(&dir, 3).exists(), "corrupt blob kept on open");
        assert!(store.get_analysis(1, &fw).is_some());
        assert!(store.get_analysis(2, &fw).is_none());
        assert!(store.get_analysis(3, &fw).is_none());
        assert_eq!(store.corrupt_misses(), 1, "only the corrupt blob counts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_evicts_oldest_blobs_first_under_a_size_cap() {
        let dir = fresh_dir("evict-test");
        let (fw, analysis) = solved();
        let one_blob = pointer::artifact::encode(&analysis).len() as u64;
        // Room for two blobs, not three.
        let store = DiskStore::with_max_bytes(&dir, 2 * one_blob).expect("store dir");
        // Distinct mtimes so "oldest" is well-defined on coarse clocks.
        let age = |key: u64, secs: u64| {
            let old = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
            let f = std::fs::File::options()
                .write(true)
                .open(blob_path(&dir, key))
                .expect("open entry");
            f.set_modified(old).expect("set mtime");
        };
        store.put_analysis(1, Arc::clone(&analysis));
        age(1, 200);
        store.put_analysis(2, Arc::clone(&analysis));
        age(2, 100);
        assert_eq!(store.evictions(), 0, "exactly at the cap");

        store.put_analysis(3, analysis);
        assert_eq!(store.evictions(), 1, "third blob exceeds the cap");
        assert_eq!(reopened(&dir, 1, &fw), (None, 0), "oldest blob reclaimed");
        assert!(reopened(&dir, 2, &fw).0.is_some());
        assert!(reopened(&dir, 3, &fw).0.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_store_deletes_stale_summary_files() {
        let dir = fresh_dir("stale-test");
        let (fw, analysis) = solved();
        DiskStore::new(&dir)
            .expect("store dir")
            .put_analysis(4, analysis);
        let stale = dir.join(format!("{:016x}.sum", 4u64));
        std::fs::write(&stale, "sierra-summary v2\n").expect("seed a summary file");

        assert!(reopened(&dir, 4, &fw).0.is_some());
        let left: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|e| e.expect("entry").path())
            .collect();
        assert_eq!(left, vec![blob_path(&dir, 4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
