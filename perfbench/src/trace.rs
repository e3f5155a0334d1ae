//! An in-memory span recorder for the traced run, written out at exit
//! as Chrome trace-event JSON (opens offline in Perfetto or
//! `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around each call into the
//! analyzer: one root `op` span per analysis and one child span per
//! stage call. A span's self time is its duration minus its direct
//! children's, so an op's children plus its own self time (reported as
//! `unattributed`) add up to its latency exactly.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`op` for the root span of an analysis).
    pub name: &'static str,
    /// The op (analysis) this span belongs to.
    pub op: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Work counters read after the call.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Wall-clock duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, op: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, op, Some(parent));
        let value = f();
        self.close(id);
        (id, value)
    }

    /// Attaches counters to span `id`.
    pub fn counters(&mut self, id: usize, counters: Vec<(&'static str, f64)>) {
        self.spans[id].counters.extend(counters);
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON: one complete (`X`) event per
    /// span with its op, parent and counters as arguments.
    pub fn chrome_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
                id,
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            for (key, value) in &span.counters {
                let _ = write!(out, ",\"{key}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self times and counter sums of one layer over every traced op.
#[derive(Debug, Default)]
pub struct Layer {
    /// Self time per op that ran the layer, in milliseconds.
    pub self_ms: Vec<f64>,
    /// Each counter summed over those ops.
    pub counters: BTreeMap<&'static str, f64>,
}

impl Layer {
    /// Counter `key` summed over every op (`0.0` when never recorded).
    pub fn sum(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0.0)
    }
}

/// Per-layer self times of a trace. The root `op` spans' own self time
/// is filed under `unattributed`; their full durations are returned as
/// the per-op latencies.
pub fn layers(spans: &[Span]) -> (BTreeMap<&'static str, Layer>, Vec<f64>) {
    let mut child_ms = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ms[parent] += span.ms();
        }
    }
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    let mut op_ms = Vec::new();
    for (span, children) in spans.iter().zip(child_ms) {
        let name = if span.parent.is_none() {
            op_ms.push(span.ms());
            "unattributed"
        } else {
            span.name
        };
        let layer = layers.entry(name).or_default();
        layer.self_ms.push(span.ms() - children);
        for (key, value) in &span.counters {
            *layer.counters.entry(key).or_default() += value;
        }
    }
    (layers, op_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_plus_unattributed_add_up_to_the_op() {
        let mut rec = Recorder::new();
        let root = rec.open("op", 0, None);
        let (a, _) = rec.span("harness", 0, root, || std::hint::black_box(1 + 1));
        rec.counters(a, vec![("actions", 3.0)]);
        rec.span("pointer", 0, root, || std::hint::black_box(2 + 2));
        rec.close(root);

        let (layers, op_ms) = layers(rec.spans());
        let children: f64 = ["harness", "pointer", "unattributed"]
            .iter()
            .map(|name| layers[name].self_ms.iter().sum::<f64>())
            .sum();
        assert_eq!(op_ms.len(), 1);
        assert!((children - op_ms[0]).abs() < 1e-9);
        assert_eq!(layers["harness"].sum("actions"), 3.0);
        assert!(rec.chrome_json().contains("\"parent\":0"));
    }
}
