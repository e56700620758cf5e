//! The traced run's span ledger: one span per call into a layer, kept in
//! memory and written as JSON lines when the run ends.
//!
//! Spans are recorded from the benchmark's side of each call, so the
//! program under test runs unmodified. A span names its parent (the span
//! that caused it) and the operation it belongs to; spans the program
//! reports itself (the streamed pipeline's host passes) are placed back to
//! back from their measured durations and marked `derived`.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its ledger.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<SpanId>,
    op: u64,
    derived: bool,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

/// The id [`Ledger::open`] returns while recording is off.
const NO_SPAN: SpanId = usize::MAX;

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Ledger {
        Ledger { origin: Instant::now(), spans: Vec::new(), enabled: true }
    }

    /// Turns recording on or off; while off, spans cost one branch each.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Ledger::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: None, parent, op, derived: false });
        self.spans.len() - 1
    }

    /// Closes `id` at the current instant.
    pub fn close(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let end = self.now_ns();
        let span = &mut self.spans[id];
        assert!(span.end_ns.is_none(), "span {} closed twice", span.name);
        span.end_ns = Some(end);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Lays out program-reported durations back to back under `parent`,
    /// starting where `parent` starts.
    pub fn derived_children(&mut self, parent: SpanId, children: &[(&'static str, f64)]) {
        if parent == NO_SPAN {
            return;
        }
        let op = self.spans[parent].op;
        let mut at = self.spans[parent].start_ns;
        for &(name, seconds) in children {
            let end = at + (seconds * 1e9) as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: Some(end),
                parent: Some(parent),
                op,
                derived: true,
            });
            at = end;
        }
    }

    /// Duration of a closed span in seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let span = &self.spans[id];
        let end = span.end_ns.expect("span is closed");
        (end - span.start_ns) as f64 / 1e9
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.spans[i].end_ns.is_some())
            .map(|i| self.seconds(i))
            .collect()
    }

    /// For every closed span named `name`: the share of its duration its
    /// direct children cover, and the remainder in seconds.
    pub fn coverage(&self, name: &str) -> Vec<(f64, f64)> {
        let mut covered = vec![0.0; self.spans.len()];
        for (c, span) in self.spans.iter().enumerate() {
            if let (Some(p), Some(_)) = (span.parent, span.end_ns) {
                covered[p] += self.seconds(c);
            }
        }
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.spans[i].end_ns.is_some())
            .map(|i| {
                let total = self.seconds(i);
                (covered[i] / total, (total - covered[i]).max(0.0))
            })
            .collect()
    }

    /// The spans as JSON lines: `id`, `name`, `start_s`, `end_s`, `parent`,
    /// `op` and `derived`, times relative to the ledger's creation.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let end = span.end_ns.map_or("null".to_string(), |e| format!("{:?}", e as f64 / 1e9));
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{:?},\"end_s\":{end},\"parent\":{parent},\
                 \"op\":{},\"derived\":{}}}",
                span.name,
                span.start_ns as f64 / 1e9,
                span.op,
                span.derived
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    /// Writes [`Ledger::to_jsonl`] to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_children_over_parent() {
        let mut ledger = Ledger::new();
        let op = ledger.open("op", None, 0);
        ledger
            .time("read", Some(op), 0, || std::thread::sleep(std::time::Duration::from_millis(5)));
        std::thread::sleep(std::time::Duration::from_millis(5));
        ledger.close(op);
        let cov = ledger.coverage("op");
        assert_eq!(cov.len(), 1);
        let (share, rest) = cov[0];
        assert!(share > 0.0 && share < 1.0, "share {share}");
        assert!(rest >= 0.004, "remainder {rest}");
        assert_eq!(ledger.durations("read").len(), 1);
        let text = ledger.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"read\"") && text.contains("\"parent\":0"));
    }

    #[test]
    fn derived_children_tile_from_the_parent_start() {
        let mut ledger = Ledger::new();
        let op = ledger.open("op", None, 3);
        ledger.close(op);
        ledger.derived_children(op, &[("pass1", 0.5), ("pass2", 0.25)]);
        assert_eq!(ledger.durations("pass2"), vec![0.25]);
        assert!(ledger.to_jsonl().contains("\"derived\":true"));
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut ledger = Ledger::new();
        ledger.set_enabled(false);
        let op = ledger.open("op", None, 0);
        assert_eq!(ledger.time("read", Some(op), 0, || 5), 5);
        ledger.close(op);
        ledger.derived_children(op, &[("pass1", 1.0)]);
        assert!(ledger.to_jsonl().is_empty());
    }
}
