//! # harness-gen — automatic harness creation (paper §3.2)
//!
//! Android apps have no `main`; the Android Framework drives them through
//! callbacks. Whole-program static analysis therefore needs a synthetic
//! entrypoint per activity — the *harness* of Figure 4 — that:
//!
//! 1. instantiates the activity and invokes its lifecycle callbacks in the
//!    order of the lifecycle state machine (Figure 5), with the
//!    `onStart`/`onResume` cycles made explicit so dominators can
//!    disambiguate the two instances of each;
//! 2. models the GUI as a nondeterministic event loop (`while (*) switch (*)`)
//!    whose cases invoke every discovered GUI callback (Figure 6), honoring
//!    layout ordering constraints;
//! 3. invokes statically-declared components (manifest receivers/services).
//!
//! Callback discovery is the fixpoint of §3.2: listener registrations found
//! in CHA-reachable code contribute callbacks, whose bodies may register
//! more listeners. The fixpoint is one CHA discovery graph per app, not one
//! traversal per activity: successor lists and dispatch lookups are built
//! once and shared by every activity, the closure of the receiver and
//! service roots is marked once, and each activity's traversal stops where
//! it meets that closure. Each discovered registration site is *instrumented* with
//! a store of the listener into a synthetic static field; the harness's GUI
//! case loads from that field and virtually invokes the listener interface
//! method, so the pointer analysis resolves the concrete callback bodies
//! exactly as registered.

mod cha;
mod generate;
mod registrations;
#[cfg(test)]
mod tests;

pub use generate::{generate, ActivityHarness, HarnessResult, HarnessSiteKind};
pub use registrations::{discover_in_app, Registration, RegistrationSeed};
