//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. The
//! transport of the twin is called millions of times per run, so its
//! calls are folded into one span per round that carries the number of
//! calls and their summed busy time; every other span is one call.
//! Spans are only written out (as JSON lines) after the measured work.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub round: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for a plain span).
    pub calls: u64,
    /// Busy time: `end - start` for a plain span, the summed call
    /// durations for a folded one.
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Record a plain span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push_folded(name, parent, round, start_ns, end_ns, 1, end_ns - start_ns)
    }

    /// Record a span that folds `calls` calls of `busy_ns` in total.
    #[allow(clippy::too_many_arguments)]
    pub fn push_folded(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: Option<u32>,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
        busy_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            round,
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
        self.spans.len() - 1
    }

    /// Self time per span name: each span's busy time minus the busy
    /// time of its children, summed over spans of that name.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_busy) {
            *out.entry(s.name).or_insert(0) += s.busy_ns.saturating_sub(c);
        }
        out
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"round\":{round},\"start_ns\":{},\"end_ns\":{},\"calls\":{},\"busy_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        let root = s.push("round", None, Some(0), 0, 100);
        s.push("drive_round", Some(root), Some(0), 0, 30);
        s.push_folded("transport", Some(root), Some(0), 40, 90, 7, 20);
        let by = s.self_ns_by_name();
        assert_eq!(by["round"], 50);
        assert_eq!(by["drive_round"], 30);
        assert_eq!(by["transport"], 20);
        assert_eq!(s.to_jsonl().lines().count(), 3);
    }
}
