//! # histories — message-history refutation of surviving race pairs
//!
//! The backward symbolic refuter judges each racy callback pair in
//! isolation; this crate asks the complementary question: **is there
//! any realizable message history of the Android framework under which
//! the two callbacks can execute in both orders at all?** Following the
//! Historia insight ("Refuting Callback Reachability with
//! Message-History Logics"), many surviving false positives die to
//! nothing more than the lifecycle protocol:
//!
//! - a GUI click can never be delivered once `onDestroy` has run
//!   (**destroy-dominates**),
//! - a receiver unregistered in `onPause` is quiesced before the
//!   teardown callbacks its accesses were paired against
//!   (**pause-quiesced**),
//! - a task cancelled in the very callback that started it never
//!   delivers its completion at all (**unregistered-before-posted**).
//!
//! The machinery is a product construction kept deliberately small: a
//! single eight-state event-order automaton ([`LifecycleAutomaton`],
//! the paper's Figure 5) shared by every component, plus a per-action
//! *occurrence set* ([`StateSet`]) — the automaton states in which that
//! action can be dispatched, derived from the harness's
//! registration/post edges and the window-closing calls
//! ([`discover()`]). A pair is refutable when the product of the two
//! occurrence sets admits no path realizing one of the two orders: the
//! pair is then protocol-*ordered*, not racy. The check is a bounded
//! history abstraction — occurrence sets only ever over-approximate
//! deliverability, so a refutation is a proof under the automaton
//! model, never a heuristic.
//!
//! The stage runs after the symbolic refuter, on the races it left,
//! and shares nothing with it. It also counts *dead* callbacks (empty
//! occurrence set: provably never dispatched); a pair with a dead side
//! is discharged as unregistered-before-posted.

pub mod automaton;
pub mod discover;
mod model;

pub use automaton::{EventLabel, LifeState, LifecycleAutomaton, StateSet};
pub use discover::{discover, Discovered};
pub use model::{HistoryModel, PairCheck};

/// Which refutation pattern discharged a pair (the machine-checkable
/// payload of `Verdict::History`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryPattern {
    /// The callback's occurrence set is empty: it was unregistered or
    /// cancelled before any history could post it.
    UnregisteredBeforePosted,
    /// One side runs only in a terminal region of the automaton (at or
    /// after `onDestroy`) that admits no later delivery of its partner.
    DestroyDominates,
    /// One side's registration window was quiesced (unregistered on
    /// pause) before the states its partner occupies.
    PauseQuiesced,
}

impl HistoryPattern {
    /// Short machine tag.
    pub fn tag(&self) -> &'static str {
        match self {
            HistoryPattern::UnregisteredBeforePosted => "unregistered-before-posted",
            HistoryPattern::DestroyDominates => "destroy-dominates",
            HistoryPattern::PauseQuiesced => "pause-quiesced",
        }
    }

    /// Human-readable pattern description.
    pub fn describe(&self) -> &'static str {
        match self {
            HistoryPattern::UnregisteredBeforePosted => {
                "callback is unregistered/cancelled before any history posts it"
            }
            HistoryPattern::DestroyDominates => {
                "callback runs only at/after onDestroy, which admits no later partner"
            }
            HistoryPattern::PauseQuiesced => {
                "callback's registration window is quiesced before its partner's states"
            }
        }
    }
}

/// Counters for the histories stage (flows into Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistoryStats {
    /// Event-order automaton states across all components
    /// (8 × components).
    pub automaton_states: usize,
    /// Automaton edges across all components (11 × components).
    pub automaton_edges: usize,
    /// Distinct components (harness classes) with actions.
    pub components: usize,
    /// Surviving pairs subjected to the product check.
    pub pairs_checked: usize,
    /// Product edges explored (`|occ(a)|·|occ(b)|` summed over checks).
    pub product_edges: usize,
    /// Pairs discharged as unregistered-before-posted.
    pub discharged_unregistered: usize,
    /// Pairs discharged as destroy-dominates.
    pub discharged_destroy: usize,
    /// Pairs discharged as pause-quiesced.
    pub discharged_pause: usize,
    /// Callbacks with a provably-empty occurrence set.
    pub dead_callbacks: usize,
}

impl HistoryStats {
    /// Total pairs discharged across the three patterns.
    pub fn discharged_total(&self) -> usize {
        self.discharged_unregistered + self.discharged_destroy + self.discharged_pause
    }
}
