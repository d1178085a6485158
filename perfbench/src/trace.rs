//! Spans recorded by the traced run around the benchmark's own calls into
//! each layer's public functions. Nothing inside the crates is
//! instrumented. Spans stay in memory and are written out at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) -> f64 {
        self.spans[span].end_ns = self.now_ns();
        self.spans[span].us()
    }

    /// Runs `f` inside a span; returns its result and duration in µs.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let span = self.open(name, op, parent);
        let result = f();
        (result, self.close(span))
    }

    /// Records an already measured interval (a wire request timed by the
    /// open loop's own clocks) as a span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            op,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.push(span);
    }

    /// Total self time per span name (µs): each span's duration minus the
    /// time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.us();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += (span.us() - child_us[i]).max(0.0);
        }
        out
    }

    /// One JSON object per line: name, op, parent, start/end (ns).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.op, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let op = tracer.open("op", 7, None);
        let ((), _) = tracer.time("child", 7, Some(op), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.close(op);
        let times = tracer.self_times();
        let (n, op_self) = times["op"];
        assert_eq!(n, 1);
        assert!(op_self < tracer.spans[0].us() - 1_000.0);
        assert!(times["child"].1 >= 2_000.0);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);
    }
}
