//! In-memory span recorder: name, start, end, parent and request id per
//! span, kept until the traced run ends, plus the self-time arithmetic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
    /// Work items the span covered (accesses, ops, intervals, …).
    pub count: u64,
}

/// Spans whose names start with this prefix only group other spans:
/// they are left out of the per-layer totals and of the covered time.
pub const GROUP_PREFIX: &str = "group.";

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span store of one traced run. Spans nest through a per-thread
/// stack; work handed to pool threads names its parent explicitly.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Times `f` as span `name` under the innermost open span of this
    /// thread; `f` returns its result and the work count it covered.
    pub fn span_n<T>(
        &self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        self.span_under(self.current(), name, req, f)
    }

    /// [`Tracer::span_n`] with a count of one.
    pub fn span<T>(&self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.span_n(name, req, || (f(), 1))
    }

    /// [`Tracer::span_n`] under an explicit parent (for pool threads,
    /// whose own stack does not hold the caller's span).
    pub fn span_under<T>(
        &self,
        parent: Option<usize>,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let idx = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(SpanRec {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                req,
                count: 0,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(idx));
        let (out, count) = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans[idx].end_ns = end;
        spans[idx].count = count;
        out
    }

    /// Every span recorded so far, with the trace's elapsed time.
    pub fn finish(&self) -> (Vec<SpanRec>, u64) {
        let spans = self.spans.lock().expect("span store poisoned").clone();
        (spans, self.now_ns())
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Per-span self time: duration minus the part its children cover.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per layer span name: (self time ns, spans, summed work count),
/// grouping spans excluded.
pub fn layer_totals(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.name.starts_with(GROUP_PREFIX) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
        e.2 += s.count;
    }
    out
}

/// Time in `[0, total_ns]` that no layer span covers.
pub fn uncovered_ns(spans: &[SpanRec], total_ns: u64) -> u64 {
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !s.name.starts_with(GROUP_PREFIX))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    total_ns - covered(layer, 0, total_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
            count: 1,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered(vec![], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            rec("group.root", 0, 100, None),
            rec("a", 10, 60, Some(0)),
            rec("b", 40, 80, Some(0)),
            rec("c", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 40, 10]);
        let totals = layer_totals(&spans);
        assert!(!totals.contains_key("group.root"));
        assert_eq!(totals["a"], (40, 1, 1));
        assert_eq!(uncovered_ns(&spans, 100), 30);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new();
        t.span("outer", Some(7), || t.span("inner", Some(7), || ()));
        let (spans, _) = t.finish();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, Some(7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
