//! Shared command-line flags.
//!
//! Every `sierra-cli` subcommand accepts the same analysis knobs:
//!
//! ```text
//! --context <SPEC>      context selector: insensitive | action:K | k-cfa:K
//!                       | k-obj:K | hybrid:K          (default action:1)
//! --budget <N>          refuter path budget             (default 5000)
//! --jobs <N>            corpus worker threads; 0 = all cores   (default 0)
//! --no-prefilter        disable the pre-refutation static pruning
//!                       stage (escape/guard/constprop)
//! --opaque-policy <P>   opaque call sites (reflection, intent
//!                       dispatch): ignore | resolve | havoc
//!                       (default ignore)
//! --no-histories        disable the message-history refutation stage
//!                       (ablation; reproduces the pre-stage pipeline
//!                       byte-for-byte)
//! --no-triage           disable the post-refutation harm-triage stage
//!                       (reports then carry no harm annotation)
//! --min-harm <LEVEL>    drop reports triaged below LEVEL: benign |
//!                       value | use-before-init | null-deref
//! --cache-dir <PATH>    persist whole points-to analyses as blobs
//!                       in PATH (created if absent); every analyzing
//!                       subcommand reuses them, and reuse never
//!                       changes results
//! --cache-max-mb <N>    cap the analysis blobs at N megabytes,
//!                       evicting oldest first (requires --cache-dir;
//!                       0 or absent = unbounded)
//! --shared-store        consult a corpus-shared layer for
//!                       framework-method summaries before per-app
//!                       stores, so the framework slice is summarized
//!                       once per corpus/serve process
//! ```
//!
//! [`CommonFlags::parse`] consumes the recognized flags (and their
//! values) from the argument list, leaving positional arguments and
//! subcommand-specific flags in place. Once the subcommand has taken its
//! own flags, [`reject_unknown_flags`] turns any `--flag` still left into
//! an error, so a misspelt or removed flag never runs silently.

use sierra_core::{DiskStore, MemoryStore, SierraConfig, Stage, SummaryStore};
use std::sync::Arc;

/// Parsed values of the shared flags.
#[derive(Debug, Clone, Default)]
pub struct CommonFlags {
    /// `--jobs N`: engine worker threads (0 = available parallelism).
    pub jobs: usize,
    /// `--cache-dir PATH`: directory of persisted analysis blobs, if any.
    pub cache_dir: Option<String>,
    /// `--cache-max-mb N`: size cap of the analysis blobs in megabytes.
    pub cache_max_mb: Option<u64>,
    /// `--shared-store`: share framework-method summaries across all
    /// apps/requests through a corpus-shared layer.
    pub shared_store: bool,
    /// The pipeline configuration assembled from `--context`/`--budget`.
    pub config: SierraConfig,
}

impl CommonFlags {
    /// Extracts `--context`, `--budget`, `--jobs`, `--no-prefilter`,
    /// `--opaque-policy`, `--no-histories`, `--no-triage`, `--min-harm`,
    /// `--cache-dir`, `--cache-max-mb` and `--shared-store` from `args`, removing each recognized flag (and
    /// its value, if any). Unknown flags and positionals are untouched.
    pub fn parse(args: &mut Vec<String>) -> Result<Self, String> {
        let mut builder = SierraConfig::builder();
        let mut jobs = 0usize;
        let cache_dir = take_flag(args, "--cache-dir")?;
        let cache_max_mb = match take_flag(args, "--cache-max-mb")? {
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("invalid --cache-max-mb {v:?}: expected megabytes"))?,
            ),
            None => None,
        };
        let shared_store = take_switch(args, "--shared-store");
        if let Some(spec) = take_flag(args, "--context")? {
            let selector = spec
                .parse()
                .map_err(|e: pointer::ParseSelectorError| e.to_string())?;
            builder = builder.selector(selector);
        }
        if let Some(v) = take_flag(args, "--budget")? {
            let budget = v
                .parse()
                .map_err(|_| format!("invalid --budget {v:?}: expected a count"))?;
            builder = builder.refuter_budget(budget);
        }
        if let Some(v) = take_flag(args, "--jobs")? {
            jobs = v
                .parse()
                .map_err(|_| format!("invalid --jobs {v:?}: expected a count"))?;
        }
        if take_switch(args, "--no-prefilter") {
            builder = builder.without(Stage::Prefilter);
        }
        if let Some(v) = take_flag(args, "--opaque-policy")? {
            let policy: pointer::OpaquePolicy = v.parse()?;
            builder = builder.opaque_policy(policy);
        }
        if take_switch(args, "--no-histories") {
            builder = builder.without(Stage::Histories);
        }
        if take_switch(args, "--no-triage") {
            builder = builder.without(Stage::Triage);
        }
        if let Some(v) = take_flag(args, "--min-harm")? {
            let level: sierra_core::Harm = v.parse().map_err(|e| format!("{e}"))?;
            builder = builder.min_harm(level);
        }
        Ok(Self {
            jobs,
            cache_dir,
            cache_max_mb,
            shared_store,
            config: builder.build(),
        })
    }

    /// Opens the summary store sessions share: on-disk under
    /// `--cache-dir` when given (created if absent; capped at
    /// `--cache-max-mb` megabytes with oldest-first eviction when
    /// given), in-memory otherwise.
    pub fn open_store(&self) -> Result<Arc<dyn SummaryStore>, String> {
        match &self.cache_dir {
            Some(dir) => {
                let store = match self.cache_max_mb {
                    Some(mb) => DiskStore::with_max_bytes(dir, mb * 1024 * 1024),
                    None => DiskStore::new(dir),
                }
                .map_err(|e| format!("cannot open cache dir {dir:?}: {e}"))?;
                Ok(Arc::new(store))
            }
            None => Ok(Arc::new(MemoryStore::new())),
        }
    }
}

/// Removes `flag` and its value from `args`; errors when the value is
/// missing.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Errors on the first argument after the subcommand that still starts
/// with `--`. Call it once the shared flags and the subcommand's own
/// flags have been taken: anything left is unknown.
pub fn reject_unknown_flags(args: &[String]) -> Result<(), String> {
    match args.iter().skip(1).find(|a| a.starts_with("--")) {
        Some(flag) => Err(format!("unknown flag {flag:?}")),
        None => Ok(()),
    }
}

/// Removes a value-less switch from `args`; returns whether it was
/// present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pointer::SelectorKind;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let mut args = argv(&["table3"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.jobs, 0);
        assert_eq!(flags.config.selector, SelectorKind::ActionSensitive(1));
        assert_eq!(args, argv(&["table3"]));
    }

    #[test]
    fn parses_and_consumes_all_shared_flags() {
        let mut args = argv(&[
            "table5",
            "--jobs",
            "4",
            "--apps",
            "10",
            "--context",
            "k-obj:2",
            "--budget",
            "100",
        ]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.jobs, 4);
        assert_eq!(flags.config.selector, SelectorKind::KObj(2));
        assert_eq!(flags.config.refuter_budget, 100);
        // Subcommand flags survive.
        assert_eq!(args, argv(&["table5", "--apps", "10"]));
    }

    #[test]
    fn no_prefilter_switch_is_consumed() {
        let mut args = argv(&["analyze", "fig1", "--no-prefilter"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(!flags.config.stages.contains(Stage::Prefilter));
        assert_eq!(args, argv(&["analyze", "fig1"]));

        let mut args = argv(&["analyze", "fig1"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(flags.config.stages.contains(Stage::Prefilter));
    }

    #[test]
    fn opaque_policy_flag_is_consumed() {
        let mut args = argv(&["table3", "--opaque-policy", "resolve"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.config.opaque_policy, pointer::OpaquePolicy::Resolve);
        assert_eq!(args, argv(&["table3"]));

        let mut args = argv(&["table3", "--opaque-policy", "havoc"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.config.opaque_policy, pointer::OpaquePolicy::Havoc);

        let mut args = argv(&["table3"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.config.opaque_policy, pointer::OpaquePolicy::Ignore);

        assert!(CommonFlags::parse(&mut argv(&["x", "--opaque-policy", "guess"])).is_err());
        assert!(CommonFlags::parse(&mut argv(&["x", "--opaque-policy"])).is_err());
    }

    #[test]
    fn triage_flags_are_consumed() {
        let mut args = argv(&["analyze", "fig1", "--no-triage"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(!flags.config.stages.contains(Stage::Triage));
        assert_eq!(flags.config.min_harm, None);
        assert_eq!(args, argv(&["analyze", "fig1"]));

        let mut args = argv(&["analyze", "fig1", "--min-harm", "use-before-init"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(flags.config.stages.contains(Stage::Triage));
        assert_eq!(
            flags.config.min_harm,
            Some(sierra_core::Harm::UseBeforeInit)
        );
        assert_eq!(args, argv(&["analyze", "fig1"]));

        assert!(CommonFlags::parse(&mut argv(&["x", "--min-harm", "fatal"])).is_err());
        assert!(CommonFlags::parse(&mut argv(&["x", "--min-harm"])).is_err());
    }

    #[test]
    fn cache_dir_flag_is_consumed() {
        let mut args = argv(&["serve", "--cache-dir", "/tmp/sierra-cache"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.cache_dir.as_deref(), Some("/tmp/sierra-cache"));
        assert_eq!(args, argv(&["serve"]));

        let mut args = argv(&["serve"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.cache_dir, None);

        assert!(CommonFlags::parse(&mut argv(&["serve", "--cache-dir"])).is_err());
    }

    #[test]
    fn histories_switch_is_consumed() {
        let mut args = argv(&["analyze", "fig1", "--no-histories"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(!flags.config.stages.contains(Stage::Histories));
        assert_eq!(args, argv(&["analyze", "fig1"]));

        let mut args = argv(&["analyze", "fig1"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(flags.config.stages.contains(Stage::Histories));
    }

    #[test]
    fn cache_max_mb_flag_is_consumed() {
        let mut args = argv(&["serve", "--cache-dir", "/tmp/c", "--cache-max-mb", "64"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.cache_max_mb, Some(64));
        assert_eq!(args, argv(&["serve"]));

        let mut args = argv(&["serve"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert_eq!(flags.cache_max_mb, None);

        assert!(CommonFlags::parse(&mut argv(&["x", "--cache-max-mb", "big"])).is_err());
        assert!(CommonFlags::parse(&mut argv(&["x", "--cache-max-mb"])).is_err());
    }

    #[test]
    fn shared_store_switch_is_consumed() {
        let mut args = argv(&["table3", "--shared-store"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(flags.shared_store);
        assert_eq!(args, argv(&["table3"]));

        let mut args = argv(&["table3"]);
        let flags = CommonFlags::parse(&mut args).expect("parse");
        assert!(!flags.shared_store);
        assert!(!CommonFlags::default().shared_store);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(CommonFlags::parse(&mut argv(&["x", "--context", "bogus"])).is_err());
        assert!(CommonFlags::parse(&mut argv(&["x", "--jobs", "many"])).is_err());
        assert!(CommonFlags::parse(&mut argv(&["x", "--budget"])).is_err());
    }

    #[test]
    fn selector_specs_round_trip() {
        for spec in [
            "insensitive",
            "action:1",
            "action:2",
            "k-cfa:3",
            "k-obj:2",
            "hybrid:1",
        ] {
            let parsed: SelectorKind = spec.parse().expect(spec);
            assert_eq!(parsed.to_string(), spec);
        }
        assert_eq!(
            "action".parse::<SelectorKind>(),
            Ok(SelectorKind::ActionSensitive(1))
        );
        assert!("insensitive:1".parse::<SelectorKind>().is_err());
        assert!("k-obj:".parse::<SelectorKind>().is_err());
    }
}
