//! Wall-clock spans recorded by the benchmark around its calls into the
//! simulator's public functions.
//!
//! Spans live in memory while the workload runs and are written out once
//! at the end. Each span names the layer it wraps, its start and end
//! (nanoseconds since the tracer was made), the span that was open when it
//! began, and the operation it belongs to. With tracing off, [`Tracer::span`]
//! calls straight through and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` (or just runs it when off).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Index of the next span to be recorded (a round's first span).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span recorded since `from`: its duration minus
    /// the time its child spans cover. Children run inside their parent
    /// one after another, so the covered time is the sum of their
    /// durations.
    pub fn self_times(&self, from: usize) -> Vec<(&Span, u64)> {
        let spans = &self.spans[from..];
        let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from) {
                own[p - from] = own[p - from].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        spans.iter().zip(own).collect()
    }

    /// Total self time per span name since `from`, in nanoseconds.
    pub fn self_by_name(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.self_times(from) {
            *out.entry(s.name).or_insert(0) += ns;
        }
        out
    }

    /// Every span as CSV: `name,start_ns,end_ns,parent,op`.
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("name,start_ns,end_ns,parent,op\n");
        for s in &self.spans {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                csv,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            );
        }
        csv
    }
}
