//! # corpus — synthetic app datasets with ground truth
//!
//! The paper evaluates SIERRA on 20 open-source apps (Table 2) plus 174
//! F-Droid apps (§6.6), classifying reported races by manual inspection.
//! Since the APKs cannot ship with this reproduction, this crate
//! synthesizes deterministic stand-ins:
//!
//! - [`figures`] — the paper's motivating examples (Figures 1, 2, 8 and the
//!   §6.5 patterns) as standalone apps;
//! - [`idioms`] — the library of planted concurrency patterns, each
//!   recording its expected verdict in a [`GroundTruth`];
//! - [`prefilter_idioms`] — a fixture app exercising each pre-refutation
//!   pruning verdict (escape, guarded, constprop) exactly once;
//! - [`protocol_idioms`] — four apps whose planted false positives only
//!   the message-history refutation stage can discharge (dialog
//!   show/dismiss, fragment attach/detach, async-task cancellation,
//!   unregister-in-onPause), each alongside a true race it must keep;
//! - [`reflection_idioms`] — two apps whose planted races hide behind
//!   reflection / intent dispatch and surface only under the `resolve`
//!   or `havoc` opaque-call policies;
//! - [`stress`] — synthetic apps that drive the refuter and the
//!   pointer solver's worklist to their worst case;
//! - [`twenty`] — the Table 2 dataset, scaled by each app's real bytecode
//!   size;
//! - [`fdroid`] — 174 seeded apps with the paper's 1.1 MB median size.
//!
//! Ground truth replaces the authors' manual inspection: every planted race
//! is labeled ([`RaceLabel`]) and [`GroundTruth::evaluate`] scores a
//! detector's reports into true races / false positives / misses.

pub mod edit_pairs;
pub mod fdroid;
pub mod figures;
mod ground_truth;
pub mod idioms;
pub mod prefilter_idioms;
pub mod protocol_idioms;
pub mod reflection_idioms;
pub mod stress;
pub mod triage_idioms;
pub mod twenty;

pub use ground_truth::{EvalCounts, GroundTruth, HarmEval, HarmLabel, PlantedRace, RaceLabel};
pub use idioms::Idiom;
pub use twenty::{AppSpec, TWENTY};
