//! `sierra-cli` — reproduce the paper's tables from the command line.
//!
//! ```text
//! sierra-cli table2                 # Table 2: the 20-app dataset
//! sierra-cli table3                 # Table 3: effectiveness (adds a
//!                                   # hybrid-selector session per app)
//! sierra-cli table4                 # Table 4: per-stage efficiency + counters
//! sierra-cli table5 [--apps N]      # Table 5: the 174-app dataset (medians)
//! sierra-cli compare                # §6.4 SIERRA vs EventRacer summary
//! sierra-cli analyze <AppName>      # one Table-2 app, with race reports
//! sierra-cli figures                # run the Figure 1/2/8 apps
//! sierra-cli verify <AppName>       # dynamically verify static reports
//! sierra-cli soundness              # call-graph soundness audit across
//!                                   # the ignore/resolve/havoc policies
//! sierra-cli serve [--socket PATH]  # line-delimited JSON analysis server
//! ```
//!
//! Every subcommand also accepts the shared analysis flags:
//!
//! ```text
//! --context <SPEC>     insensitive | action:K | k-cfa:K | k-obj:K | hybrid:K
//! --budget <N>         refuter path budget
//! --jobs <N>           corpus engine worker threads (0 = all cores)
//! --no-prefilter       disable pre-refutation static pruning
//! --opaque-policy <P>  opaque call sites (reflection, intent dispatch):
//!                      ignore | resolve | havoc
//! --no-histories       disable the message-history refutation stage
//! --no-triage          disable post-refutation harm triage
//! --min-harm <LEVEL>   drop reports below LEVEL: benign | value |
//!                      use-before-init | null-deref
//! --cache-dir <PATH>   persist whole points-to analyses across runs
//! --cache-max-mb <N>   cap the analysis blobs, evicting oldest first
//! --shared-store       serve framework-origin summaries from a corpus-wide
//!                      shared layer (computed once per framework fingerprint)
//! ```
//!
//! Any other `--flag` is an error (exit code 2) that names the flag.
//!
//! Every analysis runs from one session template built from these
//! flags; `table3` adds a second one for its without-AS column. Corpus
//! commands run against `--cache-dir` print an aggregate
//! `cache: …` hit-stats line after their table; a second identical run
//! reuses every points-to analysis from the first.

use apir::SymbolArena;
use eventracer::EventRacerConfig;
use pointer::SelectorKind;
use sierra_cli::experiments;
use sierra_cli::flags::{reject_unknown_flags, take_flag, CommonFlags};
use sierra_core::{AnalysisSession, SessionBuilder, SierraConfig, SierraResult, Stage};
use std::sync::Arc;

const USAGE: &str = "usage: sierra-cli <table2|table3|table4|table5 [--apps N]|compare|analyze <App>|figures|verify <App>|soundness|serve [--socket PATH]>\n\
                     shared flags: --context <SPEC> --budget <N> --jobs <N> --no-prefilter\n\
                     \x20             --opaque-policy <ignore|resolve|havoc> --no-histories --no-triage\n\
                     \x20             --min-harm <benign|value|use-before-init|null-deref>\n\
                     \x20             --cache-dir <PATH> --cache-max-mb <N> --shared-store";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let common = match CommonFlags::parse(&mut args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let cmd = args.first().cloned().unwrap_or_else(|| "help".to_owned());
    // The subcommand's own flags; whatever `--flag` is left after them
    // is unknown.
    let own_flags = (|| {
        let apps = match cmd.as_str() {
            "table5" => take_flag(&mut args, "--apps")?,
            _ => None,
        };
        let apps = match apps {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --apps {v:?}: expected a count"))?,
            None => corpus::fdroid::APP_COUNT,
        };
        let socket = match cmd.as_str() {
            "serve" => take_flag(&mut args, "--socket")?,
            _ => None,
        };
        reject_unknown_flags(&args)?;
        Ok::<_, String>((apps, socket))
    })();
    let (apps, socket) = match own_flags {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Any persistence flag turns the run's store on: `--cache-dir`
    // persists points-to analyses, `--shared-store` shares framework
    // summaries (in memory) within this corpus pass. Serve always keeps
    // one store across its requests.
    let store = if cmd == "serve" || common.cache_dir.is_some() || common.shared_store {
        match common.open_store() {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    // The per-process session template for `config`. `--shared-store`
    // reuses the same backing store as the framework-summary layer: the
    // key spaces are disjoint by fingerprint.
    let template_for = |config: SierraConfig| {
        let mut template = SessionBuilder::new(config).arena(Arc::new(SymbolArena::new()));
        if let Some(store) = &store {
            template = template.store(Arc::clone(store));
            if common.shared_store {
                template = template.shared_store(Arc::clone(store));
            }
        }
        template
    };
    let template = template_for(common.config);
    let analyze = |app| -> SierraResult {
        template
            .clone()
            .app(app)
            .build()
            .and_then(AnalysisSession::finish)
            .unwrap_or_else(|e| panic!("{e}"))
    };
    // The aggregate hit-stats line, printed after a corpus table when a
    // store is configured (CI parses this to track reuse across runs).
    let print_cache_stats = |rows: &[experiments::AppRow]| {
        if store.is_some() {
            println!("{}", experiments::CacheStats::from_rows(rows).render());
        }
    };
    let jobs = common.jobs;
    let er_cfg = EventRacerConfig::default();
    match cmd.as_str() {
        "table2" => print!("{}", experiments::table2()),
        "table3" => {
            // The without-AS column: each app's candidate pairs under
            // the hybrid selector of the same k, from a second session.
            let selector = match common.config.selector {
                SelectorKind::ActionSensitive(k) => SelectorKind::Hybrid(k),
                other => other,
            };
            let without_as = template_for(SierraConfig {
                selector,
                ..common.config
            });
            let rows = experiments::run_twenty(&template, Some(&without_as), &er_cfg, jobs);
            print!("{}", experiments::table3(&rows));
            print_cache_stats(&rows);
        }
        "table4" => {
            let rows = experiments::run_twenty(&template, None, &er_cfg, jobs);
            print!("{}", experiments::table4(&rows));
            print_cache_stats(&rows);
        }
        "table5" => {
            let rows = experiments::run_fdroid(apps, &template, jobs);
            print!("{}", experiments::table5(&rows));
            print_cache_stats(&rows);
        }
        "compare" => {
            let rows = experiments::run_twenty(&template, None, &er_cfg, jobs);
            print!("{}", experiments::comparison_summary(&rows));
            print_cache_stats(&rows);
        }
        "analyze" => {
            let Some(name) = args.get(1) else {
                eprintln!("usage: sierra-cli analyze <AppName>");
                std::process::exit(2);
            };
            // The triage fixture is analyzable by name alongside the
            // Table-2 apps: it is the corpus entry carrying
            // crash-capable harm labels.
            let (app, truth) = if name.eq_ignore_ascii_case("TriageIdioms") {
                corpus::triage_idioms::triage_idioms_app()
            } else {
                let Some(spec) = corpus::TWENTY
                    .iter()
                    .find(|s| s.name.eq_ignore_ascii_case(name))
                else {
                    eprintln!(
                        "unknown app {name:?}; see `sierra-cli table2` for names (or TriageIdioms)"
                    );
                    std::process::exit(2);
                };
                corpus::twenty::build_app(*spec)
            };
            let result = analyze(app);
            print!("{result}");
            let groups = experiments::sierra_groups(&result);
            let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
            println!(
                "ground truth: {} true races, {} false positives, {} missed",
                eval.true_races,
                eval.false_positives + eval.unplanted,
                eval.missed
            );
            if result.stages.contains(Stage::Triage) {
                let verdicts = experiments::sierra_harm_verdicts(&result);
                let harm = truth.evaluate_harm(
                    verdicts
                        .iter()
                        .map(|(c, f, x)| (c.as_str(), f.as_str(), *x)),
                );
                println!(
                    "harm triage: crash-precision {:.2}, crash-recall {:.2} over {} harm-scored site(s)",
                    harm.precision(),
                    harm.recall(),
                    harm.scored
                );
            }
        }
        "verify" => {
            let Some(name) = args.get(1) else {
                eprintln!("usage: sierra-cli verify <AppName>");
                std::process::exit(2);
            };
            let Some(spec) = corpus::TWENTY
                .iter()
                .find(|s| s.name.eq_ignore_ascii_case(name))
            else {
                eprintln!("unknown app {name:?}; see `sierra-cli table2` for names");
                std::process::exit(2);
            };
            let (app, _) = corpus::twenty::build_app(*spec);
            let app_for_verify = app.clone();
            let result = analyze(app);
            let p = &result.harness.app.program;
            println!(
                "{}: {} static race report(s); verifying dynamically…",
                spec.name,
                result.races.len()
            );
            let mut groups: Vec<(String, String)> = result
                .races
                .iter()
                .map(|r| {
                    let f = p.field(r.field);
                    (p.class_name(f.class).to_owned(), p.name(f.name).to_owned())
                })
                .collect();
            groups.sort();
            groups.dedup();
            for (class, field) in groups {
                let verdict = eventracer::verify_race(
                    &app_for_verify,
                    &class,
                    &field,
                    eventracer::VerifyConfig::default(),
                );
                println!("  {class}.{field}: {verdict:?}");
            }
        }
        "figures" => {
            for (label, (app, truth)) in [
                (
                    "Figure 1 (intra-component)",
                    corpus::figures::intra_component(),
                ),
                (
                    "Figure 2 (inter-component)",
                    corpus::figures::inter_component(),
                ),
                (
                    "Figure 8 (refutation)",
                    corpus::figures::open_sudoku_guard(),
                ),
            ] {
                let result = analyze(app);
                let groups = experiments::sierra_groups(&result);
                let eval = truth.evaluate(groups.iter().map(|(c, f)| (c.as_str(), f.as_str())));
                println!(
                    "{label}: {} racy pairs, {} after refutation, {} true, {} FP, {} missed",
                    result.racy_pairs_with_as,
                    result.races.len(),
                    eval.true_races,
                    eval.false_positives + eval.unplanted,
                    eval.missed
                );
            }
        }
        "soundness" => {
            // One corpus pass per policy, each from its own template
            // over the same store; `--opaque-policy` on the command line
            // is irrelevant here (the audit sweeps all three), but every
            // other shared flag applies to each pass.
            let mut sections: Vec<(&str, Vec<experiments::AppRow>)> = Vec::new();
            for policy in sierra_core::OpaquePolicy::ALL {
                let mut cfg = common.config;
                cfg.opaque_policy = policy;
                let rows = experiments::run_soundness_corpus(&template_for(cfg), &er_cfg, jobs);
                sections.push((policy.as_str(), rows));
            }
            for (policy, rows) in &sections {
                print!("{}", experiments::table_soundness(policy, rows));
                println!();
            }
            let summary: Vec<(&str, &[experiments::AppRow])> = sections
                .iter()
                .map(|(p, rows)| (*p, rows.as_slice()))
                .collect();
            print!("{}", experiments::soundness_summary(&summary));
        }
        "serve" => {
            if let Err(e) = sierra_cli::serve::run(&template, jobs, socket) {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
