//! Outside-in span recording: the benchmark wraps its own calls into each
//! layer's public functions in spans (name, start, end, parent, step id),
//! keeps them in memory, and writes them out when the run ends. Nothing
//! here reaches into the program.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.epoch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The one-second step the span belongs to (`None` during set-up and
    /// post-run probes).
    pub step: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: Option<u64>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `step`.
    pub fn set_step(&mut self, step: Option<u64>) {
        self.step = step;
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            step: self.step,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` opened by [`Tracer::enter`]; returns its
    /// duration in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ms()
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Runs `f` inside a leaf span when a tracer is present, bare otherwise.
    pub fn span<R>(
        tracer: &mut Option<&mut Tracer>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        match tracer {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }

    /// Durations (ms) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total milliseconds spent in spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as JSON lines, after a header line describing the run.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"step":{}}}"#,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.step),
            );
        }
        out
    }
}
