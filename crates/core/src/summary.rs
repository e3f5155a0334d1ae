//! Content-addressed per-method summaries and their stores.
//!
//! The compositional layer (after RacerD's per-method summaries) splits
//! each pipeline stage's per-method work into a [`MethodSummary`]:
//!
//! - **call dominance** ([`shbg::CallDominance`]) — the dominance pairs
//!   HB rules 2–4 query;
//! - **constant-propagation facts** ([`prefilter::constprop::ConstFacts`])
//!   — infeasible branch edges and dead blocks for the prefilter and
//!   refuter;
//! - **access sites** ([`pointer::AccessSite`]) — the field accesses the
//!   candidate stage instantiates per context.
//!
//! Every fact is a pure function of one method body (plus the config).
//! Keys come from one walk over the IR ([`apir::ProgramDigest`]) that
//! prints nothing and builds no `String`; a summary is keyed by
//! `fnv64(structural fingerprint ‖ body digest ‖ config fingerprint)`:
//!
//! - the **structural fingerprint** covers the class/field/method tables
//!   *excluding bodies* — renames, signature changes, or hierarchy edits
//!   shift ids and invalidate every summary (conservative but sound);
//! - the **body digest** hashes every field of the body, so editing one
//!   method changes only that method's key. It hashes class, field and
//!   method references as ids, which the structural fingerprint maps to
//!   names;
//! - the **config fingerprint** (selector + pointer options) makes
//!   stores safely shareable across configurations — a flag flip misses
//!   the whole store rather than mixing incompatible facts.
//!
//! Whole-`Analysis` artifacts are additionally cached under
//! `fnv64(structural fp ‖ config fp ‖ every method's pointer digest)`,
//! where a method's **pointer digest** covers only what the Andersen
//! solver reads of its body: if no solver-relevant statement changed
//! anywhere, the previous points-to result is reused outright and the
//! warm run performs zero worklist iterations. The on-disk backend
//! persists artifacts too, as versioned binary blobs
//! ([`pointer::artifact`]) next to the summary files, so the reuse
//! survives process boundaries: a cold `sierra analyze`, a restarted
//! `serve`, or a fresh CI job warm-starts from `--cache-dir` exactly
//! like an in-memory warm hit.
//!
//! ## Corpus-shared framework summaries
//!
//! Most corpus apps embed the *same* framework model, and a framework
//! method's summary depends only on framework content — yet the
//! standard key covers the whole program's structural fingerprint, so
//! per-app stores recompute identical framework summaries once per app.
//! [`load_or_summarize`] therefore accepts an optional **shared store**:
//! methods of [`apir::Origin::Framework`] classes whose bodies name only
//! framework entities are additionally keyed by the **framework
//! fingerprint** (the structural fingerprint restricted to framework
//! entities, identical across apps built from one framework model) and
//! looked up shared-first. A miss promotes the freshly computed summary
//! into the shared store, so the framework slice of an entire corpus is
//! summarized exactly once. The two key spaces cannot collide
//! semantically — a framework-keyed entry is only ever looked up by
//! sessions whose framework slice hashes identically — so one backing
//! store may safely serve as both the per-app and the shared layer (how
//! the `--shared-store` flag wires it).
//!
//! ## Arena-stable keys
//!
//! Sessions are built through [`crate::SessionBuilder`], which may
//! intern an app's names into a process-wide shared
//! [`apir::SymbolArena`] (`sierra serve`, corpus runs) instead of a
//! private per-program interner. Summary and analysis keys are
//! **independent of that choice**: the fingerprints hash name *text*,
//! and the body and pointer digests hash string constants by their text
//! too, never a raw symbol value. So a store primed without a shared
//! arena hits from sessions built over one — and hits across processes
//! whose arenas interned names in different orders.

use crate::link::{LinkStats, LinkedSummaries};
use apir::{fnv64, BlockId, FieldId, Fnv64, Local, MethodId, Program, ProgramDigest, StmtAddr};
use pointer::{method_access_sites, AccessSite, Analysis, AnalysisOptions, SelectorKind};
use prefilter::constprop::{self, ConstFacts};
use shbg::CallDominance;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Every per-method fact the pipeline's stages need, cached by content
/// hash of the method body plus the config fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSummary {
    /// Call-statement dominance pairs for HB rules 2–4.
    pub dominance: CallDominance,
    /// Constant-propagation facts for the prefilter and refuter.
    pub consts: ConstFacts,
    /// Field-access sites for candidate generation.
    pub sites: Vec<AccessSite>,
}

/// Computes the full summary of one method body.
pub fn summarize_method(
    program: &Program,
    fw: &android_model::FrameworkClasses,
    method: MethodId,
    index_sensitive: bool,
) -> MethodSummary {
    let m = program.method(method);
    MethodSummary {
        dominance: CallDominance::compute(m),
        consts: constprop::analyze_method(m),
        sites: method_access_sites(program, fw, method, index_sensitive),
    }
}

/// Fingerprint of the configuration axes that change per-method facts:
/// the context selector and the pointer-analysis options. Any change
/// misses the whole store.
pub fn config_fingerprint(selector: SelectorKind, options: AnalysisOptions) -> u64 {
    fnv64(format!("{selector:?};{options:?}").as_bytes())
}

/// The content-addressed summary key of one method: its body digest
/// under a fingerprint that maps the body's ids to names.
pub fn summary_key(fingerprint: u64, body_digest: u64, config_fp: u64) -> u64 {
    Fnv64::new()
        .write_u64(fingerprint)
        .write_u64(body_digest)
        .write_u64(config_fp)
        .finish()
}

/// A content-addressed store of per-method summaries and (in-memory)
/// whole-`Analysis` artifacts. Keys are content hashes, so a store never
/// needs invalidation logic: stale entries are simply never looked up
/// again. Implementations must be shareable across the serve worker pool
/// and the corpus engine's workers (`Send + Sync`). Keys hash names and
/// string constants by their text rather than by symbol value, so one
/// store serves sessions built over a shared [`apir::SymbolArena`] and
/// private-interner sessions interchangeably.
pub trait SummaryStore: Send + Sync + std::fmt::Debug {
    /// Looks up a method summary by key.
    fn get(&self, key: u64) -> Option<Arc<MethodSummary>>;

    /// Stores a method summary under its key.
    fn put(&self, key: u64, summary: Arc<MethodSummary>);

    /// Looks up a cached points-to `Analysis` artifact (memory-only;
    /// backends without artifact caching return `None`).
    fn get_analysis(&self, _key: u64) -> Option<Arc<Analysis>> {
        None
    }

    /// Caches a points-to `Analysis` artifact.
    fn put_analysis(&self, _key: u64, _analysis: Arc<Analysis>) {}

    /// Looks up a serialized `Analysis` artifact blob (the durable,
    /// cross-process counterpart of [`Self::get_analysis`]). Backends
    /// without durable storage return `None`. Returned bytes carry a
    /// validated envelope ([`pointer::artifact::envelope_is_valid`]);
    /// deeper decode failures are the caller's (plain) miss.
    fn get_artifact(&self, _key: u64) -> Option<Vec<u8>> {
        None
    }

    /// Persists a serialized `Analysis` artifact blob.
    fn put_artifact(&self, _key: u64, _blob: &[u8]) {}

    /// Whether [`Self::put_artifact`] durably stores blobs. Sessions
    /// skip serialization entirely for stores that don't, so the
    /// in-memory path never pays encode cost.
    fn persists_artifacts(&self) -> bool {
        false
    }

    /// Lifetime count of lookups that found an entry but could not use
    /// it (torn, truncated, or version-mismatched on-disk files).
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

    fn get_analysis(&self, key: u64) -> Option<Arc<Analysis>> {
        self.analyses.lock().expect("store lock").get(&key).cloned()
    }

    fn put_analysis(&self, key: u64, analysis: Arc<Analysis>) {
        self.analyses
            .lock()
            .expect("store lock")
            .insert(key, analysis);
    }
}

/// An on-disk [`SummaryStore`]: each summary is one plain-text file
/// `<key>.sum` and each `Analysis` artifact one binary blob `<key>.art`
/// under the cache directory, so both persist across processes (the
/// `--cache-dir` backend). Artifacts additionally warm an in-memory map
/// so repeat hits within one process skip deserialization. Unreadable,
/// truncated, or version-mismatched files of either kind are treated as
/// misses — a corrupt cache can cost recomputation, never correctness —
/// but each corrupt file is counted (surfacing in [`crate::LinkStats`])
/// and its path logged once; the next put overwrites (repairs) it.
/// With a size cap ([`Self::with_max_bytes`], the `--cache-max-mb`
/// flag), every write may evict the oldest entries — summary files and
/// artifact blobs alike, both counted toward the cap — until it holds.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    analyses: Mutex<HashMap<u64, Arc<Analysis>>>,
    max_bytes: Option<u64>,
    corrupt: AtomicUsize,
    evicted: AtomicUsize,
    logged: Mutex<HashSet<PathBuf>>,
}

/// Version header of the on-disk summary format; bump on layout change
/// so stale caches miss instead of misparse.
const DISK_FORMAT: &str = "sierra-summary v2";

impl DiskStore {
    /// Opens (creating if needed) an unbounded store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            analyses: Mutex::new(HashMap::new()),
            max_bytes: None,
            corrupt: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
            logged: Mutex::new(HashSet::new()),
        })
    }

    /// Opens a store capped at `max_bytes` of summary files; each write
    /// evicts oldest-first (modification time, then file name as the
    /// tiebreak) until the total size fits. `0` caps the store to
    /// nothing but stays correct: entries are written, then immediately
    /// reclaimed.
    pub fn with_max_bytes(dir: impl Into<PathBuf>, max_bytes: u64) -> std::io::Result<Self> {
        let mut store = Self::new(dir)?;
        store.max_bytes = Some(max_bytes);
        Ok(store)
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.sum"))
    }

    fn artifact_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.art"))
    }

    /// Records a corrupt file and logs its path the first time.
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

    /// Deletes oldest cache entries (summary files and artifact blobs)
    /// until the store fits its cap.
    fn enforce_cap(&self) {
        let Some(max) = self.max_bytes else { return };
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .flatten()
            .filter(|e| {
                e.path()
                    .extension()
                    .is_some_and(|x| x == "sum" || x == "art")
            })
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

impl SummaryStore for DiskStore {
    fn get(&self, key: u64) -> Option<Arc<MethodSummary>> {
        let path = self.path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        match parse_summary(&text) {
            Some(s) => Some(Arc::new(s)),
            None => {
                self.note_corrupt(&path);
                None
            }
        }
    }

    fn put(&self, key: u64, summary: Arc<MethodSummary>) {
        let path = self.path(key);
        let tmp = self.dir.join(format!("{key:016x}.tmp"));
        // Write-then-rename so concurrent readers never see a torn file.
        if std::fs::write(&tmp, render_summary(&summary)).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
        self.enforce_cap();
    }

    fn get_analysis(&self, key: u64) -> Option<Arc<Analysis>> {
        self.analyses.lock().expect("store lock").get(&key).cloned()
    }

    fn put_analysis(&self, key: u64, analysis: Arc<Analysis>) {
        self.analyses
            .lock()
            .expect("store lock")
            .insert(key, analysis);
    }

    fn get_artifact(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.artifact_path(key);
        let bytes = std::fs::read(&path).ok()?;
        if pointer::artifact::envelope_is_valid(&bytes) {
            Some(bytes)
        } else {
            self.note_corrupt(&path);
            None
        }
    }

    fn put_artifact(&self, key: u64, blob: &[u8]) {
        let path = self.artifact_path(key);
        let tmp = self.dir.join(format!("{key:016x}.art.tmp"));
        // Write-then-rename so concurrent readers never see a torn blob.
        if std::fs::write(&tmp, blob).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
        self.enforce_cap();
    }

    fn persists_artifacts(&self) -> bool {
        true
    }

    fn corrupt_misses(&self) -> usize {
        self.corrupt.load(Ordering::Relaxed)
    }

    fn evictions(&self) -> usize {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// Renders a summary in the line-oriented on-disk format.
fn render_summary(s: &MethodSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{DISK_FORMAT}");
    for &(a_bb, a_st, b_bb, b_st) in &s.dominance.pairs {
        let _ = writeln!(out, "dom {a_bb} {a_st} {b_bb} {b_st}");
    }
    for &(from, to) in &s.consts.infeasible {
        let _ = writeln!(out, "inf {} {}", from.0, to.0);
    }
    for &bb in &s.consts.dead_blocks {
        let _ = writeln!(out, "dead {}", bb.0);
    }
    for site in &s.sites {
        let _ = writeln!(
            out,
            "site {} {} {} {} {} {} {}",
            site.addr.method.0,
            site.addr.block.0,
            site.addr.stmt,
            site.field.0,
            site.base.map_or(-1, |l| l.0 as i64),
            if site.is_write { 'w' } else { 'r' },
            if site.is_static { 's' } else { 'i' },
        );
    }
    out
}

/// Parses the on-disk format; any deviation is a miss (`None`).
fn parse_summary(text: &str) -> Option<MethodSummary> {
    let mut lines = text.lines();
    if lines.next()? != DISK_FORMAT {
        return None;
    }
    let mut dominance = CallDominance::default();
    let mut consts = ConstFacts::default();
    let mut sites = Vec::new();
    for line in lines {
        let mut parts = line.split(' ');
        let tag = parts.next()?;
        let mut next_u32 = || -> Option<u32> { parts.next()?.parse().ok() };
        match tag {
            "dom" => dominance
                .pairs
                .push((next_u32()?, next_u32()?, next_u32()?, next_u32()?)),
            "inf" => consts
                .infeasible
                .push((BlockId(next_u32()?), BlockId(next_u32()?))),
            "dead" => consts.dead_blocks.push(BlockId(next_u32()?)),
            "site" => {
                let addr = StmtAddr::new(MethodId(next_u32()?), BlockId(next_u32()?), next_u32()?);
                let field = FieldId(next_u32()?);
                let base: i64 = parts.next()?.parse().ok()?;
                let is_write = match parts.next()? {
                    "w" => true,
                    "r" => false,
                    _ => return None,
                };
                let is_static = match parts.next()? {
                    "s" => true,
                    "i" => false,
                    _ => return None,
                };
                sites.push(AccessSite {
                    addr,
                    field,
                    base: (base >= 0).then_some(Local(base as u32)),
                    is_write,
                    is_static,
                });
            }
            _ => return None,
        }
    }
    Some(MethodSummary {
        dominance,
        consts,
        sites,
    })
}

/// Digests `program` and computes (or retrieves) the summary of every
/// method with a body, in method-id order, consulting `store` by content
/// key — and, for framework methods whose bodies name only framework
/// entities, `shared` first under the framework-scoped key. A shared
/// miss that resolves elsewhere promotes the summary into the shared
/// store, so across a corpus each framework method is summarized exactly
/// once. The returned stats count `summaries_reused`,
/// `summaries_recomputed` and `summaries_shared`; shared-layer hits count
/// toward `summaries_shared` only, keeping `summaries_reused` comparable
/// with and without a shared store.
pub fn load_or_summarize(
    program: &Program,
    fw: &android_model::FrameworkClasses,
    index_sensitive: bool,
    config_fp: u64,
    store: &dyn SummaryStore,
    shared: Option<&dyn SummaryStore>,
) -> (LinkedSummaries, LinkStats) {
    let digest = ProgramDigest::of(program);
    let mut stats = LinkStats::default();
    let mut summaries = Vec::with_capacity(digest.methods.len());
    for m in &digest.methods {
        let key = summary_key(digest.structural, m.digest.body, config_fp);
        // Framework methods additionally live in the shared layer under
        // a key independent of this app's app/library code.
        let shared_key = shared
            .filter(|_| m.framework_only)
            .map(|sh| (sh, summary_key(digest.framework, m.digest.body, config_fp)));
        if let Some(s) = shared_key.and_then(|(sh, sk)| sh.get(sk)) {
            stats.summaries_shared += 1;
            summaries.push(s);
            continue;
        }
        let summary = match store.get(key) {
            Some(s) => {
                stats.summaries_reused += 1;
                s
            }
            None => {
                stats.summaries_recomputed += 1;
                let s = Arc::new(summarize_method(program, fw, m.id, index_sensitive));
                store.put(key, Arc::clone(&s));
                s
            }
        };
        if let Some((sh, sk)) = shared_key {
            sh.put(sk, Arc::clone(&summary));
        }
        summaries.push(summary);
    }
    let linked = LinkedSummaries {
        digest,
        summaries,
        config_fp,
    };
    (linked, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> MethodSummary {
        MethodSummary {
            dominance: CallDominance {
                pairs: vec![(0, 1, 2, 0), (1, 0, 3, 2)],
            },
            consts: ConstFacts {
                infeasible: vec![(BlockId(0), BlockId(2))],
                dead_blocks: vec![BlockId(2)],
            },
            sites: vec![
                AccessSite {
                    addr: StmtAddr::new(MethodId(7), BlockId(1), 3),
                    field: FieldId(4),
                    base: Some(Local(2)),
                    is_write: true,
                    is_static: false,
                },
                AccessSite {
                    addr: StmtAddr::new(MethodId(7), BlockId(0), 0),
                    field: FieldId(9),
                    base: None,
                    is_write: false,
                    is_static: true,
                },
            ],
        }
    }

    #[test]
    fn disk_format_round_trips() {
        let s = sample_summary();
        let parsed = parse_summary(&render_summary(&s)).expect("parses");
        assert_eq!(parsed, s);
    }

    #[test]
    fn parse_rejects_corrupt_and_versioned_input() {
        assert!(parse_summary("").is_none());
        assert!(parse_summary("sierra-summary v1\ndigest 1\n").is_none());
        let mut text = render_summary(&sample_summary());
        text.push_str("junk line\n");
        assert!(parse_summary(&text).is_none());
    }

    #[test]
    fn disk_store_round_trips_and_misses_unknown_keys() {
        let dir = std::env::temp_dir().join(format!("sierra-store-test-{}", std::process::id()));
        let store = DiskStore::new(&dir).expect("store dir");
        let s = Arc::new(sample_summary());
        store.put(42, Arc::clone(&s));
        assert_eq!(store.get(42).as_deref(), Some(&*s));
        assert!(store.get(43).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_counts_corrupt_entries_as_misses() {
        let dir = std::env::temp_dir().join(format!("sierra-corrupt-test-{}", std::process::id()));
        let store = DiskStore::new(&dir).expect("store dir");
        let s = Arc::new(sample_summary());
        store.put(7, Arc::clone(&s));

        // Absent keys are plain misses, not corruption.
        assert!(store.get(99).is_none());
        assert_eq!(store.corrupt_misses(), 0);

        // Truncate the entry mid-file: the lookup misses, the counter
        // moves, and a re-put repairs the entry.
        std::fs::write(
            dir.join(format!("{:016x}.sum", 7u64)),
            "sierra-summary v2\ndom 0 1",
        )
        .expect("truncate");
        assert!(store.get(7).is_none());
        assert_eq!(store.corrupt_misses(), 1);
        assert!(store.get(7).is_none(), "still corrupt until rewritten");
        assert_eq!(store.corrupt_misses(), 2, "every corrupt hit counts");
        store.put(7, Arc::clone(&s));
        assert_eq!(store.get(7).as_deref(), Some(&*s));
        assert_eq!(store.corrupt_misses(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Wraps `payload` in the artifact envelope format
    /// ([`pointer::artifact`]); the literal magic/version here pin the
    /// on-disk layout.
    fn artifact_blob(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SIERRART");
        out.extend_from_slice(&4u32.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv64(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn disk_store_round_trips_artifact_blobs() {
        let dir = std::env::temp_dir().join(format!("sierra-art-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::new(&dir).expect("store dir");
        assert!(store.get_artifact(5).is_none(), "cold store misses");
        let blob = artifact_blob(b"solver state bytes");
        store.put_artifact(5, &blob);
        assert_eq!(store.get_artifact(5).as_deref(), Some(&blob[..]));
        assert!(store.get_artifact(6).is_none());
        assert_eq!(store.corrupt_misses(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_counts_corrupt_artifact_blobs_and_repairs_on_put() {
        let dir =
            std::env::temp_dir().join(format!("sierra-art-corrupt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::new(&dir).expect("store dir");
        let blob = artifact_blob(b"points-to artifact");
        store.put_artifact(9, &blob);

        // Truncation breaks the envelope: counted miss, not an error.
        std::fs::write(
            dir.join(format!("{:016x}.art", 9u64)),
            &blob[..blob.len() - 3],
        )
        .expect("truncate");
        assert!(store.get_artifact(9).is_none());
        assert_eq!(store.corrupt_misses(), 1);

        // A version bump from a future layout is equally a miss.
        let mut skewed = blob.clone();
        skewed[8] = skewed[8].wrapping_add(1);
        std::fs::write(dir.join(format!("{:016x}.art", 9u64)), &skewed).expect("skew");
        assert!(store.get_artifact(9).is_none());
        assert_eq!(store.corrupt_misses(), 2);

        // The next put repairs the entry in place.
        store.put_artifact(9, &blob);
        assert_eq!(store.get_artifact(9).as_deref(), Some(&blob[..]));
        assert_eq!(store.corrupt_misses(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_counts_and_evicts_artifact_blobs_too() {
        let dir =
            std::env::temp_dir().join(format!("sierra-art-evict-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let blob = artifact_blob(&[0xabu8; 256]);
        // Cap fits two blobs plus one summary, nothing more.
        let one_entry = render_summary(&sample_summary()).len() as u64;
        let store =
            DiskStore::with_max_bytes(&dir, 2 * blob.len() as u64 + one_entry).expect("store dir");
        let age = |name: String, secs: u64| {
            let old = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
            let f = std::fs::File::options()
                .write(true)
                .open(dir.join(name))
                .expect("open entry");
            f.set_modified(old).expect("set mtime");
        };
        store.put_artifact(1, &blob);
        age(format!("{:016x}.art", 1u64), 300);
        store.put(2, Arc::new(sample_summary()));
        age(format!("{:016x}.sum", 2u64), 200);
        store.put_artifact(3, &blob);
        age(format!("{:016x}.art", 3u64), 100);
        assert_eq!(store.evictions(), 0, "exactly at the cap");

        // A new blob exceeds the cap; the oldest entry — an artifact
        // blob — is reclaimed, proving blobs are both counted and
        // evictable.
        store.put_artifact(4, &blob);
        assert!(store.evictions() >= 1);
        assert!(store.get_artifact(1).is_none(), "oldest blob reclaimed");
        assert_eq!(store.get_artifact(4).as_deref(), Some(&blob[..]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_evicts_oldest_first_under_a_size_cap() {
        let dir = std::env::temp_dir().join(format!("sierra-evict-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let one_entry = render_summary(&sample_summary()).len() as u64;
        // Room for two entries, not three.
        let store = DiskStore::with_max_bytes(&dir, 2 * one_entry).expect("store dir");
        let s = Arc::new(sample_summary());
        store.put(1, Arc::clone(&s));
        // Distinct mtimes so "oldest" is well-defined on coarse clocks.
        let age = |key: u64, secs: u64| {
            let path = dir.join(format!("{key:016x}.sum"));
            let old = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
            let f = std::fs::File::options()
                .write(true)
                .open(&path)
                .expect("open entry");
            f.set_modified(old).expect("set mtime");
        };
        age(1, 200);
        store.put(2, Arc::clone(&s));
        age(2, 100);
        assert_eq!(store.evictions(), 0, "under the cap, nothing to do");

        store.put(3, Arc::clone(&s));
        assert_eq!(store.evictions(), 1, "third entry exceeds the cap");
        assert!(store.get(1).is_none(), "the oldest entry was reclaimed");
        assert_eq!(store.get(2).as_deref(), Some(&*s));
        assert_eq!(store.get(3).as_deref(), Some(&*s));
        assert_eq!(store.corrupt_misses(), 0, "eviction is not corruption");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
