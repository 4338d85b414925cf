//! In-memory spans around the calls the trace makes into each layer.
//!
//! A span is (name, start, end, parent, request). Spans are recorded
//! from the benchmark's side of every public function it calls —
//! nothing inside the product is instrumented — kept in memory for the
//! whole pass and written out once at the end. A layer's *self time* is
//! its span's duration minus the part of that interval its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The replayed request this span belongs to.
    pub request: u64,
}

/// Span recorder. A disabled tracer takes the same calls and records
/// nothing, so the spanned and unspanned replays run the same code.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name` for request `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let at = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(at);
        let out = f(self);
        self.open.pop();
        self.spans[at].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, request.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds, parallel to `spans`:
/// duration minus the union of the children's intervals clipped to the
/// parent. The union matters once children overlap (parts that ran in
/// parallel must not be subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Total duration per span name, nanoseconds.
pub fn duration_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // request [0,100) ⊃ engine [10,90) ⊃ decode [20,50), greedy [60,80)
        let spans = vec![
            span("request", 0, 100, None),
            span("engine", 10, 90, Some(0)),
            span("decode", 20, 50, Some(1)),
            span("greedy", 60, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["engine"], 30);
        // Self times partition the root's duration.
        assert_eq!(by_name.values().sum::<u64>(), 100);
        assert_eq!(duration_by_name(&spans)["engine"], 80);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        // Two shards decoded in parallel overlap on [30,40); a third
        // child sticks out past the parent and is clipped.
        let spans = vec![
            span("decode", 0, 100, None),
            span("shard", 10, 40, Some(0)),
            span("shard", 30, 60, Some(0)),
            span("late", 90, 130, Some(0)),
        ];
        // Union of children inside the parent: [10,60) ∪ [90,100) = 60.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let got = t.span("outer", 7, |t| t.span("inner", 7, |_| 5) + 1);
        assert_eq!(got, 6);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].request), ("inner", Some(0), 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 0, |t| t.span("inner", 0, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
