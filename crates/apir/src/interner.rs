//! A small string interner for class, method, and field names.
//!
//! An [`Interner`] runs in one of two modes:
//!
//! - **standalone** (the default): strings live in this interner, each
//!   stored exactly once as an `Arc<str>` and looked up by hash — no
//!   second copy keyed in a map;
//! - **arena-backed** ([`Interner::with_arena`]): strings live in a
//!   process-wide [`SymbolArena`] shared across apps, and the interner
//!   keeps only cheap `Arc` mirrors of the symbols it has seen, so
//!   corpus-wide names like `android.app.Activity` are stored once per
//!   process instead of once per app.
//!
//! Symbols from different modes (or different arenas) are not
//! interchangeable; a `Symbol` is only meaningful to the interner (or
//! arena) that minted it.

use crate::arena::SymbolArena;
use crate::digest::fnv64;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned string handle.
///
/// Symbols are cheap to copy and compare; resolve them back to text through
/// the [`Interner`] (or [`crate::Program::name`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// Deduplicating storage for strings.
///
/// # Example
///
/// ```
/// let mut interner = apir::Interner::new();
/// let a = interner.intern("onCreate");
/// let b = interner.intern("onCreate");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "onCreate");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    /// Shared arena, when this interner is arena-backed.
    arena: Option<Arc<SymbolArena>>,
    /// Standalone mode: symbol index → text (the only copy).
    strings: Vec<Arc<str>>,
    /// Arena mode: arena symbol → mirrored text for borrow-based resolve.
    mirror: HashMap<u32, Arc<str>>,
    /// Hash of the text → candidate symbols known to this interner.
    lookup: HashMap<u64, Vec<Symbol>>,
    /// Text bytes owned by this interner (0 in arena mode — the arena
    /// holds the only copy).
    bytes: usize,
}

impl Interner {
    /// Creates an empty standalone interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an interner backed by a shared [`SymbolArena`]: symbols
    /// are minted by (and stable across every interner sharing) the
    /// arena, and string storage is not duplicated per interner.
    pub fn with_arena(arena: Arc<SymbolArena>) -> Self {
        Self {
            arena: Some(arena),
            ..Self::default()
        }
    }

    /// The shared arena, when arena-backed.
    pub fn arena(&self) -> Option<&Arc<SymbolArena>> {
        self.arena.as_ref()
    }

    fn local_text(&self, sym: Symbol) -> &str {
        if self.arena.is_some() {
            self.mirror
                .get(&sym.0)
                .expect("symbol minted by a different interner")
        } else {
            &self.strings[sym.0 as usize]
        }
    }

    fn find_local(&self, hash: u64, text: &str) -> Option<Symbol> {
        self.lookup
            .get(&hash)?
            .iter()
            .copied()
            .find(|&s| self.local_text(s) == text)
    }

    /// Interns `text`, returning the symbol for it.
    pub fn intern(&mut self, text: &str) -> Symbol {
        let hash = fnv64(text.as_bytes());
        if let Some(sym) = self.find_local(hash, text) {
            return sym;
        }
        let sym = match &self.arena {
            Some(arena) => {
                let sym = arena.intern(text);
                self.mirror.insert(sym.0, arena.resolve(sym));
                sym
            }
            None => {
                let sym = Symbol(u32::try_from(self.strings.len()).expect("interner overflow"));
                self.strings.push(Arc::from(text));
                self.bytes += text.len();
                sym
            }
        };
        self.lookup.entry(hash).or_default().push(sym);
        sym
    }

    /// Returns the symbol for `text` if *this interner* interned it
    /// before. In arena mode a string another interner put in the shared
    /// arena does not count — its symbol would not resolve here.
    pub fn get(&self, text: &str) -> Option<Symbol> {
        self.find_local(fnv64(text.as_bytes()), text)
    }

    /// Resolves a symbol back to its text.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was minted by a different interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.local_text(sym)
    }

    /// Number of distinct strings interned through this interner.
    pub fn len(&self) -> usize {
        if self.arena.is_some() {
            self.mirror.len()
        } else {
            self.strings.len()
        }
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Text bytes owned by this interner. Standalone mode stores each
    /// string exactly once (no key duplication in the lookup map, which
    /// is keyed by hash); arena mode owns none — the shared
    /// [`SymbolArena::bytes_resident`] holds the only copy.
    pub fn bytes_resident(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let mut i = Interner::new();
        let a = i.intern("x");
        let b = i.intern("y");
        let c = i.intern("x");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let s = i.intern("android.app.Activity");
        assert_eq!(i.resolve(s), "android.app.Activity");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert!(i.get("missing").is_none());
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
        assert!(!i.is_empty());
    }

    #[test]
    fn bytes_resident_counts_each_string_once() {
        let mut i = Interner::new();
        i.intern("abcd");
        i.intern("abcd");
        i.intern("ef");
        assert_eq!(i.bytes_resident(), 6);
    }

    #[test]
    fn arena_backed_interners_share_symbols() {
        let arena = Arc::new(SymbolArena::new());
        let mut a = Interner::with_arena(Arc::clone(&arena));
        let mut b = Interner::with_arena(Arc::clone(&arena));
        let s1 = a.intern("android.os.Handler");
        let s2 = b.intern("android.os.Handler");
        assert_eq!(s1, s2, "symbols are stable across interners");
        assert_eq!(a.resolve(s1), "android.os.Handler");
        assert_eq!(b.resolve(s2), "android.os.Handler");
        assert_eq!(arena.len(), 1);
        // Per-interner residency is zero: the arena owns the text.
        assert_eq!(a.bytes_resident(), 0);
        assert_eq!(b.bytes_resident(), 0);
        // `get` only answers for locally-seen strings.
        let s3 = a.intern("local.Only");
        assert_eq!(a.get("local.Only"), Some(s3));
        assert_eq!(b.get("local.Only"), None);
    }
}
