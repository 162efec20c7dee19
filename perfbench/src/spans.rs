//! In-memory span recording for the traced replay, and the per-layer
//! self-time reduction over the recorded span tree.
//!
//! Spans are kept in memory while ops run and written out once at the end
//! of the run. A disabled [`Tracer`] reads no clock and stores nothing, so
//! the same replay code serves the untraced reference timing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`paths.route`, `place.lp`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u32,
    /// Whether the call reported failure.
    pub failed: bool,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; does nothing at all when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans.
    #[must_use]
    pub fn recording() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            failed: false,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId, failed: bool) {
        let Some(id) = id.0 else { return };
        let end = self.now_ns();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.failed = failed;
    }

    /// Runs `f` inside a span named `name`, marking the span failed when
    /// `f` returns `Err`.
    pub fn call<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        let id = self.enter(name);
        let result = f();
        self.exit(id, result.is_err());
        result
    }

    /// Runs an infallible `f` inside a span named `name`.
    pub fn call_ok<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let result = f();
        self.exit(id, false);
        result
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Per-layer totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Sum of self time, seconds.
    pub self_s: f64,
    /// Number of spans.
    pub calls: u64,
    /// Number of spans marked failed.
    pub failed: u64,
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// its interval that its child spans cover (overlapping children are
/// counted once, and children are clipped to the parent).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered)
        })
        .collect()
}

/// Sums self time, calls and failures per op and layer name.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<(u32, &'static str), LayerTotals> {
    let mut totals: BTreeMap<(u32, &'static str), LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = totals.entry((span.op, span.name)).or_default();
        t.self_s += self_ns as f64 * 1e-9;
        t.calls += 1;
        t.failed += u64::from(span.failed);
    }
    totals
}

/// The spans as JSON lines, one object per span.
#[must_use]
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"failed\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.failed
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            failed: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_part_children_cover() {
        // op [0,100) holds a [10,30) and b [40,90); b holds c [50,60).
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times of a tree always add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("op", 10, 50, None),
            span("a", 5, 20, Some(0)),
            span("b", 15, 30, Some(0)),
            span("c", 45, 70, Some(0)),
        ];
        // Covered: [10,30) and [45,50) = 25 of 40.
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn layer_totals_group_by_name_and_count_failures() {
        let mut spans = vec![
            span("op", 0, 100, None),
            span("route", 0, 10, Some(0)),
            span("route", 20, 50, Some(0)),
        ];
        spans[2].failed = true;
        let totals = layer_totals(&spans);
        let route = totals[&(0, "route")];
        assert_eq!((route.calls, route.failed), (2, 1));
        assert!((route.self_s - 40e-9).abs() < 1e-15);
        assert!((totals[&(0, "op")].self_s - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::recording();
        t.set_op(3);
        let root = t.enter("op");
        let r: Result<(), ()> = t.call("route", || Err(()));
        assert!(r.is_err());
        t.call_ok("eval", || ());
        t.exit(root, false);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].failed && !spans[2].failed);
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        assert_eq!(
            self_times_ns(spans).iter().sum::<u64>(),
            spans[0].end_ns - spans[0].start_ns
        );
        assert!(to_jsonl(spans).lines().count() == 3);

        let mut off = Tracer::disabled();
        let id = off.enter("op");
        off.call_ok("eval", || ());
        off.exit(id, false);
        assert!(off.spans().is_empty());
    }
}
