//! In-memory span tracer for the traced run.
//!
//! Every call the driver makes into a layer is wrapped in a span
//! `{id, parent, op, layer, name, start_ns, end_ns}`; spans stay in memory
//! and are written out once, when the benchmark ends. A disabled tracer
//! takes no timestamps at all, so the untraced run pays nothing for it.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is the span that was open when this one
/// began; `op` groups the spans of one driver operation (a slot, a request).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Count and total duration of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration in microseconds (0 when no span was recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean duration in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// The tracer: a span list plus the stack of currently open spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. A disabled tracer
    /// returns a token that [`Tracer::end`] ignores.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any span left open
    /// inside it, so an early return in the driver cannot corrupt nesting).
    pub fn end(&mut self, token: Option<u32>) {
        let Some(id) = token else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.begin(layer, name);
        let out = f();
        self.end(token);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time over every recorded span.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let s = out.entry(span.name).or_default();
            s.count += 1;
            s.total_ns += span.end_ns - span.start_ns;
            s.self_ns += self_ns;
        }
        out
    }

    /// The trace file: one JSON object per span, in id order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 16);
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{},\"parent\":{parent},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.layer, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children that overlap one another (a
/// parent that timed two things at once) are merged first, so the shared
/// stretch is subtracted once, not twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids.iter() {
                let start = (*start).max(cursor);
                if *end > start {
                    covered += end - start;
                    cursor = *end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer: "t",
            name: "n",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_parent_minus_covered_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
            span(3, Some(1), 12, 20),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 35, 40),
        ];
        // Children cover 10..70 = 60, not 40 + 40 + 5.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = vec![span(0, None, 10, 20), span(1, Some(0), 5, 30)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let token = t.begin("l", "n");
        assert_eq!(token, None);
        t.end(token);
        assert_eq!(t.time("l", "n", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let outer = t.begin("a", "outer");
        t.time("b", "inner", || ());
        t.end(outer);
        t.time("a", "sibling", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, None);
        assert!(s.iter().all(|x| x.op == 3 && x.end_ns >= x.start_ns));
        let stats = t.stats();
        assert_eq!(stats["outer"].count, 1);
        assert!(stats["outer"].self_ns <= stats["outer"].total_ns);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
