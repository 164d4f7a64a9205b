//! In-memory span recorder for the traced run. Spans carry a name, host
//! start and end (ns since the recorder started) and their parent; window
//! samples carry the counters read at each window boundary. Everything is
//! written as one JSON file at exit.

use crate::json::{esc, num};
use crate::layers::Counters;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Sample {
    span: usize,
    phase: &'static str,
    virt_s: f64,
    counters: Counters,
}

/// Records spans and window samples; a disabled recorder records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    samples: Vec<Sample>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), samples: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Record a closed span from `start` to now under the innermost open
    /// span, and attach the counters read at its end.
    pub fn window(&mut self, start: Instant, phase: &'static str, virt_s: f64, c: Counters) {
        if !self.on {
            return;
        }
        let start_ns = start.duration_since(self.t0).as_nanos() as u64;
        let end_ns = self.now_ns();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name: "sim.run".into(), parent, start_ns, end_ns });
        self.samples.push(Sample { span: self.spans.len() - 1, phase, virt_s, counters: c });
    }

    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Distinct span names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.spans.iter().map(|s| s.name.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The trace as JSON, with `header` (an already-encoded JSON object)
    /// under the `run` key.
    pub fn to_json(&self, header: &str) -> String {
        let mut o = String::new();
        let _ = write!(o, "{{\"run\": {header},\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                o,
                "{}\n{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                esc(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        o.push_str("],\n\"windows\": [");
        for (i, w) in self.samples.iter().enumerate() {
            let _ = write!(
                o,
                "{}\n{{\"span\": {}, \"phase\": \"{}\", \"virt_s\": {}, \"counters\": {{",
                if i == 0 { "" } else { "," },
                w.span,
                w.phase,
                num(w.virt_s)
            );
            for (j, (k, v)) in w.counters.iter().enumerate() {
                let _ = write!(o, "{}\"{}\": {v}", if j == 0 { "" } else { ", " }, esc(k));
            }
            o.push_str("}}");
        }
        o.push_str("]}\n");
        o
    }
}
