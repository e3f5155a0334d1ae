//! # shbg — the Static Happens-Before Graph (paper §4)
//!
//! Orders [`android_model::Action`]s with statically-derived happens-before
//! edges:
//!
//! 1. **Action invocation**: a uniquely-posted action happens after its
//!    poster (thread fork, message post, receiver registration).
//! 2. **Lifecycle**: dominance in the harness CFG orders lifecycle
//!    callbacks, including the two instances of `onStart`/`onResume`
//!    disambiguated by their pre-dominators (Figure 5).
//! 3. **GUI order**: harness/GUI-model dominance (Figure 6).
//! 4. **Intra-procedural domination** of posting sites.
//! 5. **Inter-procedural, intra-action domination**: posting site `e1`
//!    de-facto dominates `e2` when removing `e1` from the action's ICFG
//!    makes `e2` unreachable.
//! 6. **Inter-action transitivity** (Figure 7): ordered posters with
//!    same-looper posted actions order the posted actions, justified by
//!    looper atomicity and queue FIFO.
//! 7. **Transitivity**: the closure, interleaved with rule 6 to a fixpoint.
//!
//! The result answers `ordered(a, b)` / `unordered(a, b)` queries that the
//! race detector uses to keep only unordered access pairs.

mod bitmat;
mod rules;

pub use bitmat::BitMatrix;
pub use rules::{build, CallDominance, HbEdge, HbRule, Shbg, ShbgStats};

#[cfg(test)]
mod tests;
