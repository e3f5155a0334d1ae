//! An append-only symbol arena shared across analysis jobs.
//!
//! Corpus runs (`engine::run_jobs`) and the long-lived `sierra serve`
//! loop intern the same framework class/method/field names once per app;
//! a [`SymbolArena`] stores each distinct string exactly once for the
//! whole process and hands out stable [`Symbol`]s, so per-app interners
//! degrade to cheap pointer mirrors (see [`Interner::with_arena`]).
//!
//! The arena is append-only: symbols are never removed or renumbered, so
//! a `Symbol` minted by any job stays valid for the lifetime of the
//! arena, and a `Symbol` is simply the string's index in the table. One
//! `RwLock` guards the table. That is enough: corpus runners intern on
//! the main thread before fanning out to workers, and serve's steady
//! state is all read-lock hits, so writers almost never contend.
//!
//! [`Interner::with_arena`]: crate::Interner::with_arena

use crate::digest::fnv64;
use crate::interner::Symbol;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// The arena's contents, behind its one lock.
#[derive(Debug, Default)]
struct Table {
    /// Interned strings, indexed by symbol.
    strings: Vec<Arc<str>>,
    /// Hash of the string → symbols of candidates with that hash.
    lookup: HashMap<u64, Vec<u32>>,
    /// Total text bytes resident.
    bytes: usize,
}

impl Table {
    fn find(&self, hash: u64, text: &str) -> Option<Symbol> {
        self.lookup
            .get(&hash)?
            .iter()
            .copied()
            .find(|&i| &*self.strings[i as usize] == text)
            .map(Symbol)
    }
}

/// A process-wide, append-only string interner safe for concurrent use.
///
/// One `RwLock` guards the table: lookups take the read lock, and only
/// a string the arena has never seen takes the write lock.
#[derive(Default)]
pub struct SymbolArena {
    table: RwLock<Table>,
}

impl SymbolArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Table> {
        self.table.read().expect("arena lock")
    }

    /// Interns `text`, returning its stable symbol. Idempotent and safe
    /// to call from any number of threads: all callers racing on the
    /// same new string agree on one symbol.
    pub fn intern(&self, text: &str) -> Symbol {
        let hash = fnv64(text.as_bytes());
        if let Some(sym) = self.read().find(hash, text) {
            return sym;
        }
        let mut table = self.table.write().expect("arena lock");
        // Double-check under the write lock: another thread may have
        // interned the string between our read probe and here.
        if let Some(sym) = table.find(hash, text) {
            return sym;
        }
        let index = u32::try_from(table.strings.len()).expect("arena symbol space");
        table.strings.push(Arc::from(text));
        table.bytes += text.len();
        table.lookup.entry(hash).or_default().push(index);
        Symbol(index)
    }

    /// Looks `text` up without interning it.
    #[must_use]
    pub fn get(&self, text: &str) -> Option<Symbol> {
        self.read().find(fnv64(text.as_bytes()), text)
    }

    /// Resolves a symbol minted by this arena to its shared text.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this arena.
    #[must_use]
    pub fn resolve(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.read().strings[sym.0 as usize])
    }

    /// Number of distinct strings interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().strings.len()
    }

    /// Whether the arena holds no strings.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total text bytes resident — the storage every arena-backed
    /// interner shares instead of duplicating.
    #[must_use]
    pub fn bytes_resident(&self) -> usize {
        self.read().bytes
    }
}

impl std::fmt::Debug for SymbolArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolArena")
            .field("symbols", &self.len())
            .field("bytes", &self.bytes_resident())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates_and_round_trips() {
        let arena = SymbolArena::new();
        let a = arena.intern("android.app.Activity");
        let b = arena.intern("onCreate");
        let a2 = arena.intern("android.app.Activity");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(&*arena.resolve(a), "android.app.Activity");
        assert_eq!(&*arena.resolve(b), "onCreate");
        assert_eq!(arena.len(), 2);
        assert_eq!(
            arena.bytes_resident(),
            "android.app.Activity".len() + "onCreate".len()
        );
    }

    #[test]
    fn get_does_not_intern() {
        let arena = SymbolArena::new();
        assert_eq!(arena.get("x"), None);
        let s = arena.intern("x");
        assert_eq!(arena.get("x"), Some(s));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn symbols_are_dense_indices() {
        let arena = SymbolArena::new();
        for i in 0..256 {
            let text = format!("sym{i}");
            let s = arena.intern(&text);
            assert_eq!(s, Symbol(i));
            assert_eq!(&*arena.resolve(s), text.as_str());
        }
        assert_eq!(arena.len(), 256);
    }

    #[test]
    fn concurrent_interning_agrees_on_symbols() {
        let arena = SymbolArena::new();
        let names: Vec<String> = (0..128).map(|i| format!("com.app.Class{i}")).collect();
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| names.iter().map(|n| arena.intern(n)).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for syms in &per_thread[1..] {
            assert_eq!(syms, &per_thread[0], "all threads must agree");
        }
        assert_eq!(arena.len(), names.len(), "no duplicate symbols");
    }
}
