//! Spans recorded by the benchmark around its calls into the program's
//! crates. Spans live in memory and are written out as one Chrome-trace
//! JSON file when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `whois.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        };
        let idx = self.spans.len();
        self.open.push(idx);
        self.spans.push(span);
        idx
    }

    /// Closes the innermost open span, which must be `name`.
    pub fn close(&mut self, name: &'static str) {
        let idx = self.open.pop().expect("close without open");
        assert_eq!(self.spans[idx].name, name, "spans closed out of order");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close(name);
        out
    }

    /// The span at `idx` (as returned by [`Tracer::open`]).
    pub fn span(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Time covered by the direct children of span `parent`, summed per
    /// child name, in nanoseconds.
    pub fn children_ns(&self, parent: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent == Some(parent)) {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"` complete events).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_summed_per_name_under_their_parent() {
        let mut t = Tracer::new();
        let root = t.open("root");
        t.time("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("b", || ());
        t.time("a", || ());
        t.open("b");
        t.time("grandchild", || ());
        t.close("b");
        t.close("root");
        let kids = t.children_ns(root);
        assert_eq!(kids.keys().copied().collect::<Vec<_>>(), ["a", "b"]);
        assert!(kids["a"] >= 2_000_000);
        assert!(kids.values().sum::<u64>() <= t.span(root).dur_ns());
        assert!(t.to_chrome_json().contains("\"name\":\"grandchild\""));
    }
}
