//! Spans recorded by the harness around its calls into each layer, kept in
//! memory and written as JSON when the run ends.
//!
//! The engine itself is not instrumented: a span here starts before a
//! public call into a crate and ends after it returns, so a layer's time is
//! measured from outside. A layer's self time is its spans' time minus the
//! time of the spans nested inside them.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    /// Spans of one query (or one replay of it) share this.
    pub query_id: u32,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    query_id: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            query_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing: `begin`/`end` are one branch each.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Start a new query: later spans carry the next query id.
    pub fn next_query(&mut self) {
        self.query_id += 1;
    }

    /// The id the spans being recorded carry.
    pub fn query_id(&self) -> u32 {
        self.query_id
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            query_id: self.query_id,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `begin` returned (spans close innermost first).
    pub fn end(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Cover the closed span `id` with two child spans that meet `at_ms`
    /// after its start (a reply's first line, then the rest of it).
    pub fn split(&mut self, id: u32, first: &'static str, rest: &'static str, at_ms: f64) {
        if id == 0 {
            return;
        }
        let parent = self.spans[id as usize - 1].clone();
        let cut = (parent.start_ns + (at_ms * 1e6) as u64).min(parent.end_ns);
        for (name, start_ns, end_ns) in [(first, parent.start_ns, cut), (rest, cut, parent.end_ns)]
        {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent: parent.id,
                name,
                start_ns,
                end_ns,
                ..parent.clone()
            });
        }
    }

    /// Record a span around `f`.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per layer, in ns, over the spans of `query_id`: each
    /// span's duration minus its direct children's.
    pub fn self_ns_by_layer(&self, query_id: u32) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.query_id == query_id) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// Total time of the spans named `name` in `query_id`, in ns.
    pub fn total_ns(&self, query_id: u32, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.query_id == query_id && s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Duration of the first span named `name` in `query_id`, in ns.
    pub fn first_ns(&self, query_id: u32, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.query_id == query_id && s.name == name)
            .map_or(0, |s| s.end_ns - s.start_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("id", Json::Num(s.id as f64)),
                        ("parent", Json::Num(s.parent as f64)),
                        ("query_id", Json::Num(s.query_id as f64)),
                        ("name", Json::str(s.name)),
                        ("layer", Json::str(s.layer)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::on();
        t.next_query();
        let root = t.begin("query", "harness");
        let a = t.begin("exec.next_batch", "exec");
        t.span("storage.gather", "storage", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(a);
        t.end(root);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[2].parent, a);
        let by_layer = t.self_ns_by_layer(1);
        let total: u64 = by_layer.values().sum();
        assert_eq!(total, t.spans[0].end_ns - t.spans[0].start_ns);
        assert!(by_layer["storage"] >= 2_000_000);
        assert!(by_layer["exec"] < by_layer["storage"]);
        assert_eq!(t.total_ns(1, "storage.gather"), by_layer["storage"]);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("query", "harness");
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.spans.is_empty());
    }
}
