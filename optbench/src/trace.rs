//! In-memory spans around the benchmark's calls into each layer.
//!
//! Each client thread owns a [`Tracer`]; spans are plain records
//! `{name, start, end, parent, request}` with times in nanoseconds since a
//! shared epoch.  Nothing is written while the workload runs: the spans are
//! merged and written as JSON lines when it ends.  A layer's self time is
//! its span's duration minus the part of that interval its children cover.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The call (or refresh tick) this span belongs to.
    pub request: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a child span of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let request = self.spans[parent].request;
        let id = self.begin(name, Some(parent), request);
        let out = f();
        self.end(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing each list's parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    for list in lists {
        let base = all.len();
        all.extend(list.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }));
    }
    all
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(s.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 * 1e-9;
    }
    out
}

/// Write spans as JSON lines; `parent` is the enclosing span's line number
/// (0-based) or null.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":{},\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}",
            quote(s.name),
            s.start,
            s.end,
            s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // call [0,100): pin [10,20), encode [20,50) with a grandchild
        // [25,35), estimate [60,90).
        let spans = vec![
            span("call", 0, 100, None),
            span("pin", 10, 20, Some(0)),
            span("encode", 20, 50, Some(0)),
            span("bitmap", 25, 35, Some(2)),
            span("estimate", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 10, 20, 10, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_as_a_union() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)), // overlaps a: union [110,170)
            span("c", 140, 160, Some(0)), // inside the union already
            span("d", 190, 250, Some(0)), // overhangs the parent: clipped to [190,200)
            span("e", 50, 105, Some(0)),  // starts before the parent: clipped to [100,105)
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 60 - 10 - 5);
        assert_eq!(&t[1..], &[40, 40, 20, 60, 55]);
    }

    #[test]
    fn merge_rebases_parents_and_names_accumulate() {
        let a = vec![span("call", 0, 10, None), span("pin", 2, 4, Some(0))];
        let b = vec![span("call", 0, 20, None), span("pin", 5, 15, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        let by_name = self_seconds_by_name(&all);
        assert!((by_name["call"] - 18e-9).abs() < 1e-15);
        assert!((by_name["pin"] - 12e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_under_their_request() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("call", None, 7);
        let x = t.span("work", root, || 41 + 1);
        t.end(root);
        assert_eq!(x, 42);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }
}
