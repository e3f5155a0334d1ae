//! Soundness-mode ablation: what each opaque-call policy costs.
//!
//! Times one pass over the soundness-audit corpus (the twenty Table-2
//! apps plus the `reflection_idioms` fixtures, whose planted races are
//! invisible unless reflection/intent edges are modeled) per policy.
//! What each policy finds is checked elsewhere:
//! `tests/golden/counters.txt` pins the planted-race recall and the
//! unresolved-site census per policy and asserts the ladder (recall
//! monotone, `resolve`/`havoc` at 100%, call graphs nesting
//! `ignore ⊆ resolve ⊆ havoc`), and `crates/core/tests/soundness_monotone.rs`
//! checks the ladder app by app.
//!
//! ```sh
//! cargo bench -p sierra-bench --bench soundness_ablation
//! ```

use android_model::AndroidApp;
use sierra_bench::{group, time};
use sierra_core::{OpaquePolicy, Sierra, SierraConfig};

fn main() {
    let mut apps: Vec<AndroidApp> = corpus::twenty::build_all()
        .into_iter()
        .map(|(_, app, _)| app)
        .collect();
    apps.push(corpus::reflection_idioms::reflection_idioms_app().0);
    apps.push(corpus::reflection_idioms::intent_idioms_app().0);

    group("soundness_ablation");
    for policy in OpaquePolicy::ALL {
        let cfg = SierraConfig::builder().opaque_policy(policy).build();
        time(&format!("corpus/{policy}"), 3, || {
            apps.iter()
                .map(|app| {
                    Sierra::with_config(cfg)
                        .analyze_app(app.clone())
                        .races
                        .len()
                })
                .sum::<usize>()
        });
    }
}
