//! In-memory spans recorded by the harness around its calls into the
//! system, written to `trace.json` when the run ends. No span is
//! recorded inside the program itself.

use crate::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: name, interval (ns since the trace epoch), the span
/// it ran inside, and the iteration or request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `ingest.parse` or `cpm.pairs`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Iteration or request id the span belongs to.
    pub id: String,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span recorder with its own epoch.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    /// Every span recorded, in push order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant every span time counts from.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: &str,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            id: id.to_owned(),
        });
        self.spans.len() - 1
    }

    /// Times `f` as span `name`.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, start, end, parent, id);
        out
    }

    /// Appends spans recorded elsewhere (a child process), shifting
    /// their times by `offset_ns` and their parent links past the spans
    /// already here.
    pub fn absorb(&mut self, spans: Vec<Span>, offset_ns: u64) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + offset_ns,
            end_ns: s.end_ns + offset_ns,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Renders the trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":{},\"seed\":{seed},\"spans\":[",
            json::string(workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                json::string(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                json::string(&s.id)
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}
