//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around each public call
//! the benchmark makes into a layer: name, start, end, parent and the id
//! of the statement they belong to. They stay in memory and are written
//! out when the run ends. Operator self times come from the executor's
//! own `QueryProfile` of the call the `store.exec` span wraps.

use std::fmt::Write as _;
use std::time::Instant;

use fsdm::store::{OpProfile, QueryProfile};

/// One recorded span; times are nanoseconds since the recorder started.
pub struct Span {
    /// Layer boundary name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start offset.
    pub start_ns: u64,
    /// End offset (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Statement the span belongs to.
    pub stmt: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of one executor operator, taken from the profile of the
/// execution a `store.exec` span wraps.
pub struct OpSelf {
    /// The `store.exec` span.
    pub exec_span: usize,
    /// Operator label, e.g. `Scan(nobench,filtered)`.
    pub op: String,
    /// Inclusive operator time minus its children's inclusive times.
    pub self_ns: u64,
    /// Rows the operator emitted.
    pub rows_out: usize,
}

/// In-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    /// Operator self times.
    pub ops: Vec<OpSelf>,
    open: Vec<usize>,
}

impl Recorder {
    /// Empty recorder; offsets count from now.
    pub fn new() -> Recorder {
        Recorder { epoch: Instant::now(), spans: Vec::new(), ops: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, stmt: u64) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span { name, start_ns, end_ns: 0, parent, stmt });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, stmt: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, stmt);
        let out = f();
        self.exit(id);
        out
    }

    /// Record the operator self times of a profiled execution.
    pub fn add_profile(&mut self, exec_span: usize, profile: &QueryProfile) {
        fn walk(op: &OpProfile, exec_span: usize, out: &mut Vec<OpSelf>) {
            let children: u64 = op.children.iter().map(|c| c.elapsed_ns).sum();
            out.push(OpSelf {
                exec_span,
                op: op.op.clone(),
                self_ns: op.elapsed_ns.saturating_sub(children),
                rows_out: op.rows_out,
            });
            for c in &op.children {
                walk(c, exec_span, out);
            }
        }
        walk(&profile.root, exec_span, &mut self.ops);
    }

    /// Total wall of all spans with this name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).sum()
    }

    /// Number of spans with this name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Per root span: (wall, wall not covered by its direct children).
    /// The direct children of a statement are the layer calls, which
    /// partition it; what they leave uncovered is unattributed.
    pub fn root_coverage(&self) -> Vec<(u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(i, s)| (s.dur_ns(), s.dur_ns().saturating_sub(children[i])))
            .collect()
    }

    /// The spans and operator self times as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"stmt\":{}}}",
                s.name, s.start_ns, s.end_ns, s.stmt
            );
        }
        out.push_str("],\"ops\":[");
        for (i, o) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"exec_span\":{},\"op\":{},\"self_ns\":{},\"rows_out\":{}}}",
                o.exec_span,
                crate::json_str(&o.op),
                o.self_ns,
                o.rows_out
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_parent() {
        let mut r = Recorder::new();
        let root = r.enter("statement", 7);
        r.time("sql.parse", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.time("store.exec", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.exit(root);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.count("sql.parse"), 1);
        let cov = r.root_coverage();
        assert_eq!(cov.len(), 1);
        let (wall, uncovered) = cov[0];
        assert!(wall >= 4_000_000 && uncovered < wall / 10, "{wall} {uncovered}");
        fsdm::json::parse(&r.to_json()).expect("span dump is JSON");
    }
}
