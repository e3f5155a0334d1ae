//! Seeded input generation for the three workloads, and the input
//! fingerprint that shows two runs measured the same inputs.
//!
//! The analyzer only ever receives what is generated here: built apps
//! for the in-process workloads, inline `.sierra` source for serve.

use android_model::AndroidApp;
use corpus::GroundTruth;
use sierra_core::json::{obj, Json};
use sierra_prng::SplitMix64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 20 Table-2 apps, each analyzed cold in process.
    Corpus20Cold,
    /// Synthesized apps of 96–160 activities, analyzed cold in process.
    LargeApps,
    /// The real `sierra-cli serve` process over a warm disk store.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order the notes describe them.
    pub const ALL: [Workload; 3] = [
        Workload::Corpus20Cold,
        Workload::LargeApps,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Corpus20Cold => "corpus20-cold",
            Workload::LargeApps => "large-apps",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports, with at least ten
    /// samples beyond it in every run. A timed phase runs whole passes
    /// (or a fixed 70/30 mix), so each app owns a fixed share of the
    /// samples; each tail sits in the middle of the slowest block, where
    /// a percentile is steady, rather than at a block edge:
    /// - corpus20-cold: p97.5, the middle of Astrid's 5% of ~5,500
    ///   samples in a 30 s run (~140 beyond);
    /// - large-apps: p90, the middle of the 160-activity app's 20% of
    ///   ~270 samples (~27 beyond);
    /// - serve-mixed: p95 of ~2,900 requests (~145 beyond).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::Corpus20Cold => 0.975,
            Workload::LargeApps => 0.90,
            Workload::ServeMixed => 0.95,
        }
    }
}

/// One generated app with its planted ground truth.
#[derive(Debug, Clone)]
pub struct Subject {
    /// The app (cloned into each in-process op).
    pub app: AndroidApp,
    /// The planted races.
    pub truth: GroundTruth,
}

/// Activity counts of the large-apps pool: 3–5× the largest Table-2
/// app (32 activities), evenly spread so the median and the tail each
/// fall inside one app's block of samples.
pub const LARGE_ACTIVITIES: [usize; 5] = [96, 112, 128, 144, 160];

/// The inputs of an in-process workload: the apps, and the seeded order
/// in which every pass visits them.
#[derive(Debug)]
pub struct Pass {
    /// The apps.
    pub subjects: Vec<Subject>,
    /// Indices into `subjects`, one pass.
    pub order: Vec<usize>,
}

/// Shuffles `0..n` with a seeded Fisher–Yates.
fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize(i + 1));
    }
    order
}

/// corpus20-cold: the 20 Table-2 apps in a seeded shuffled order.
pub fn corpus20(seed: u64) -> Pass {
    let subjects: Vec<Subject> = corpus::twenty::build_all()
        .into_iter()
        .map(|(_, app, truth)| Subject { app, truth })
        .collect();
    let order = shuffled(subjects.len(), &mut SplitMix64::new(seed));
    Pass { subjects, order }
}

/// large-apps: one seeded synthesized app per entry of
/// [`LARGE_ACTIVITIES`], in a seeded shuffled order.
pub fn large_apps(seed: u64) -> Pass {
    let mut rng = SplitMix64::new(seed);
    let subjects: Vec<Subject> = LARGE_ACTIVITIES
        .iter()
        .map(|&activities| {
            let (app, truth) = corpus::twenty::synthesize(
                &format!("Large{activities}"),
                activities,
                rng.next_u64(),
            );
            Subject { app, truth }
        })
        .collect();
    let order = shuffled(subjects.len(), &mut rng);
    Pass { subjects, order }
}

/// One serve request, pre-rendered except for its id.
#[derive(Debug, Clone)]
pub struct Request {
    /// The app name sent with the request.
    pub name: String,
    /// The request object without its `id`, rendered, minus the opening
    /// brace.
    body: String,
    /// Length of the inline `.sierra` source.
    pub source_bytes: usize,
    /// Statements in the generated program.
    pub stmts: usize,
    /// The planted races.
    pub truth: GroundTruth,
}

impl Request {
    fn new(app: &AndroidApp, truth: GroundTruth) -> Request {
        let source = android_model::asm::render_app(app);
        let rendered = obj(vec![
            ("op", Json::Str("analyze".to_owned())),
            ("name", Json::Str(app.name.clone())),
            ("source", Json::Str(source.clone())),
        ])
        .render();
        Request {
            name: app.name.clone(),
            body: rendered[1..].to_owned(),
            source_bytes: source.len(),
            stmts: app.program.stmt_count(),
            truth,
        }
    }

    /// The request line (without its newline) under `id`.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},{}", self.body)
    }
}

/// One request of the timed serve stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A primed corpus app, served from the store.
    Repeat(usize),
    /// A first-seen F-Droid app (index into [`ServeInputs::fresh`]).
    First(usize),
}

/// Requests per block of the serve stream, and first-seen apps among
/// them: an exact 70/30 mix in every block of ten.
const BLOCK: usize = 10;
const FIRST_PER_BLOCK: usize = 3;
/// First-seen apps the warm-up sends before timing.
const WARMUP_APPS: usize = 3;
/// Sizes of first-seen apps: the F-Droid dataset's activity counts at
/// the midpoints of its ten deciles. First-seen apps cycle through seeded
/// permutations of these, so every run sees the same size mix and the
/// seed changes only which apps of each size are sent.
const SIZE_STRATA: usize = 10;

fn fresh_sizes() -> Vec<usize> {
    let mut counts: Vec<usize> = (0..corpus::fdroid::APP_COUNT)
        .map(|i| corpus::twenty::activity_count(corpus::fdroid::size_kb(i)))
        .collect();
    counts.sort_unstable();
    (0..SIZE_STRATA)
        .map(|k| counts[(2 * k + 1) * counts.len() / (2 * SIZE_STRATA)])
        .collect()
}

/// The inputs of serve-mixed.
#[derive(Debug)]
pub struct ServeInputs {
    /// The 20 Table-2 apps, sent once to prime the store.
    pub primed: Vec<Request>,
    /// First-seen apps sent untimed by the warm-up.
    pub warmup: Vec<Request>,
    /// First-seen apps of the timed stream, in stream order.
    pub fresh: Vec<Request>,
    /// The timed stream generated so far.
    pub stream: Vec<Item>,
    rng: SplitMix64,
    repeats: Vec<usize>,
    sizes: Vec<usize>,
    next_index: usize,
}

impl ServeInputs {
    /// Generates the primed apps, the warm-up apps and the first
    /// `planned` stream items. F-Droid indices start at a seeded offset
    /// above the dataset's 174 apps and only grow, so no first-seen app
    /// repeats within a run and different seeds see different apps.
    pub fn generate(seed: u64, planned: usize) -> ServeInputs {
        let mut rng = SplitMix64::new(seed);
        let primed = corpus::twenty::build_all()
            .into_iter()
            .map(|(_, app, truth)| Request::new(&app, truth))
            .collect();
        let base = 1_000 + rng.usize(1_000) * 100_000;
        let mut inputs = ServeInputs {
            primed,
            warmup: Vec::new(),
            fresh: Vec::new(),
            stream: Vec::new(),
            rng,
            repeats: Vec::new(),
            sizes: Vec::new(),
            next_index: base,
        };
        inputs.warmup = (0..WARMUP_APPS).map(|_| inputs.fresh_app()).collect();
        while inputs.stream.len() < planned {
            inputs.extend();
        }
        inputs
    }

    /// The next unused F-Droid app whose size is the next entry of the
    /// seeded size cycle.
    fn fresh_app(&mut self) -> Request {
        if self.sizes.is_empty() {
            let strata = fresh_sizes();
            self.sizes = shuffled(strata.len(), &mut self.rng)
                .into_iter()
                .map(|k| strata[k])
                .collect();
        }
        let activities = self.sizes.pop().expect("refilled above");
        let size = |i| corpus::twenty::activity_count(corpus::fdroid::size_kb(i));
        while size(self.next_index) != activities {
            self.next_index += 1;
        }
        let (app, truth) = corpus::fdroid::build_app(self.next_index);
        self.next_index += 1;
        Request::new(&app, truth)
    }

    /// Appends one block: three first-seen apps at seeded positions, and
    /// repeats drawn from seeded permutations of the primed apps, so
    /// every primed app repeats equally often.
    pub fn extend(&mut self) {
        let mut slots = shuffled(BLOCK, &mut self.rng);
        slots.truncate(FIRST_PER_BLOCK);
        for slot in 0..BLOCK {
            let item = if slots.contains(&slot) {
                let request = self.fresh_app();
                self.fresh.push(request);
                Item::First(self.fresh.len() - 1)
            } else {
                if self.repeats.is_empty() {
                    self.repeats = shuffled(self.primed.len(), &mut self.rng);
                }
                Item::Repeat(self.repeats.pop().expect("refilled above"))
            };
            self.stream.push(item);
        }
    }

    /// The request behind a stream item.
    pub fn request(&self, item: Item) -> &Request {
        match item {
            Item::Repeat(i) => &self.primed[i],
            Item::First(i) => &self.fresh[i],
        }
    }
}

/// FNV-1a over the generated inputs, printed by every run so two runs
/// can show they measured the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes a number in.
    pub fn num(&mut self, n: usize) -> &mut Self {
        self.bytes(&(n as u64).to_le_bytes())
    }

    /// The digest.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Pass {
    /// Digest of app names, statement counts and the visiting order.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for s in &self.subjects {
            fp.bytes(s.app.name.as_bytes())
                .num(s.app.program.stmt_count());
        }
        for &i in &self.order {
            fp.num(i);
        }
        fp
    }
}

impl ServeInputs {
    /// Digest of every request's name, statement count and source
    /// bytes, in the order the run sends them (priming, warm-up, then
    /// the stream generated so far).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::default();
        let mut mix = |r: &Request| {
            fp.bytes(r.name.as_bytes()).num(r.stmts).num(r.source_bytes);
        };
        self.primed.iter().for_each(&mut mix);
        self.warmup.iter().for_each(&mut mix);
        for &item in &self.stream {
            mix(self.request(item));
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(
            corpus20(7).fingerprint().hex(),
            corpus20(7).fingerprint().hex()
        );
        assert_ne!(
            corpus20(7).fingerprint().hex(),
            corpus20(8).fingerprint().hex()
        );
        let a = ServeInputs::generate(3, 20);
        let b = ServeInputs::generate(3, 20);
        assert_eq!(a.fingerprint().hex(), b.fingerprint().hex());
        assert_eq!(a.stream, b.stream);
    }

    #[test]
    fn the_serve_stream_mixes_seventy_thirty_with_fresh_apps_only_once() {
        let inputs = ServeInputs::generate(11, 40);
        assert_eq!(inputs.stream.len(), 40);
        let firsts: Vec<usize> = inputs
            .stream
            .iter()
            .filter_map(|item| match item {
                Item::First(i) => Some(*i),
                Item::Repeat(_) => None,
            })
            .collect();
        assert_eq!(firsts.len(), 12);
        let mut names: Vec<&str> = firsts
            .iter()
            .map(|&i| inputs.fresh[i].name.as_str())
            .collect();
        names.extend(inputs.warmup.iter().map(|r| r.name.as_str()));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "a first-seen app is sent once");
    }

    #[test]
    fn request_lines_parse_back_to_the_source() {
        let inputs = ServeInputs::generate(5, 0);
        let line = inputs.primed[0].line(42);
        let parsed = Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed.get("source").and_then(Json::as_str).map(str::len),
            Some(inputs.primed[0].source_bytes)
        );
    }
}
