//! # symexec — backward symbolic-execution refutation (paper §5)
//!
//! Candidate racy pairs that survive the SHBG are frequently protected by
//! *ad-hoc synchronization* — guard flags checked in one action and cleared
//! in another. This crate plays the role of the paper's adapted Thresher +
//! Z3: a goal-directed, path-sensitive backward executor that tries to
//! *witness* each ordering of the two actions and refutes the candidate
//! when one ordering admits no feasible path.
//!
//! Key behaviours transcribed from §5:
//!
//! - a candidate is a true positive **iff both orderings** have feasible
//!   witness paths (`αA` reachable after the other action completed, and
//!   vice versa);
//! - strong updates to must-aliased locations conflict-check against the
//!   accumulated path constraints (the `mIsRunning` example of Figure 8);
//! - exploration is budgeted (5,000 paths in the default configuration);
//!   budget exhaustion reports the race, over-approximating.
//!
//! §5's refuted-node cache is deliberately absent: each query starts from
//! nothing, so a pair's verdict does not depend on which pairs ran first.

mod constraints;
mod engine;

pub use constraints::{Constraint, ConstraintStore, SymLoc};
pub use engine::{Outcome, Refuter, RefuterStats};

#[cfg(test)]
mod tests;
