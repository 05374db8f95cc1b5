//! Spans recorded around the benchmark's own calls into each layer.
//!
//! Every span keeps its host-clock interval. With tracing on it also
//! snapshots the process counters at both boundaries. Simulated-time
//! spans come from the program's reports after the run. Spans stay in
//! memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use crate::sys::{Delta, Usage};

/// One host-clock span.
struct Span {
    /// Layer call the span covers.
    name: &'static str,
    /// Index of the enclosing span.
    parent: Option<usize>,
    /// Host clock at entry.
    start: Instant,
    /// Host clock at exit.
    end: Instant,
    /// Counters at entry and exit (tracing on only).
    usage: Option<(Usage, Usage)>,
}

/// One simulated-time span from a program report; the spans of one
/// query share its id.
pub struct VirtualSpan {
    /// Query id (0 for a direct join).
    pub query: u32,
    /// `queue`, `execute` or a phase name.
    pub name: &'static str,
    /// Simulated start, nanoseconds.
    pub start_ns: u64,
    /// Simulated end, nanoseconds.
    pub end_ns: u64,
}

/// Span recorder for one repetition.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on` adds counter snapshots at every boundary.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    /// Open a span and return its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let usage = self.on.then(|| {
            let u = Usage::now();
            (u, u)
        });
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
            usage,
        });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        if let Some((_, end)) = span.usage.as_mut() {
            *end = Usage::now();
        }
    }

    /// Host seconds of the first span called `name` (0 if absent).
    pub fn secs(&self, name: &str) -> f64 {
        self.find(name)
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64())
    }

    /// Counter deltas over the first span called `name`.
    pub fn delta(&self, name: &str) -> Option<Delta> {
        self.find(name)?.usage.map(|(a, b)| b.since(&a))
    }

    fn find(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Self time of span `id`: its duration minus what its children cover.
    fn self_secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.end - c.start).as_secs_f64())
            .sum();
        (s.end - s.start).as_secs_f64() - children
    }
}

/// Append one repetition's spans to a JSON trace document; host times
/// are seconds since `origin`.
pub fn write_rep(out: &mut String, rep: usize, tr: &Tracer, virt: &[VirtualSpan], origin: Instant) {
    let since = |t: Instant| (t - origin).as_secs_f64();
    for (i, s) in tr.spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"rep\":{rep},\"clock\":\"host\",\"id\":{i},\"name\":\"{}\",\"parent\":{},\
             \"start_s\":{},\"end_s\":{},\"self_s\":{}",
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            since(s.start),
            since(s.end),
            tr.self_secs(i),
        );
        if let Some((a, b)) = &s.usage {
            let d = b.since(a);
            let _ = write!(
                out,
                ",\"user_s\":{},\"sys_s\":{},\"voluntary\":{},\"involuntary\":{}",
                d.user_s, d.sys_s, d.voluntary, d.involuntary
            );
        }
        out.push_str("},\n");
    }
    for v in virt {
        let _ = writeln!(
            out,
            "{{\"rep\":{rep},\"clock\":\"virtual\",\"query\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}},",
            v.query, v.name, v.start_ns, v.end_ns
        );
    }
}
