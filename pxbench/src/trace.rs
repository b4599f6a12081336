//! In-memory spans for the traced replay, and the self-time arithmetic
//! the per-layer breakdown is built from.
//!
//! A span is one call into a layer's public function: name, start, end,
//! the span that caused it, and the id of the request it belongs to.
//! Spans stay in a `Vec` while the replay runs and are written out once
//! at the end. A span's *self time* is its duration minus the part of
//! its interval that its direct children cover (overlapping or nested
//! children count once).
//!
//! Some layer functions are only reachable through an opaque composite
//! call (`QueryEngine::apply_mutation` applies, re-lowers and
//! invalidates in one call). The replay measures such an inner function
//! a second time on an identical input — a *shadow* span, parented to
//! the composite — and [`layer_self_times`] takes the shadow's duration
//! out of the composite's self time. Span timestamps run on a clock
//! that stops while a shadow runs, so shadow work never lengthens the
//! request it belongs to; shadows never enter the interval arithmetic
//! and never count towards the request path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder's list.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Shared by every span of one request (or boot, or round).
    pub req: u64,
    /// `layer.function`, e.g. `core.lower`.
    pub name: &'static str,
    /// Free-form qualifier (the Figure 7 cell), empty when unused.
    pub tag: &'static str,
    /// On the span clock (nanoseconds since the recorder was created,
    /// shadow time excluded).
    pub start_ns: u64,
    /// On the span clock; a shadow ends `start_ns` plus its wall time.
    pub end_ns: u64,
    /// A second measurement of a function the parent calls internally.
    pub shadow: bool,
    /// Placed from a phase breakdown the callee returned rather than
    /// timed by the recorder (algebra `PhaseTimes`).
    pub synthesized: bool,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when on; every method is a cheap no-op when off.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    req: u64,
    /// Total wall time spent inside shadow measurements; the span clock
    /// excludes it.
    pub shadow_ns: u64,
}

/// Handle returned by [`Recorder::open`]; pass it back to `close`.
#[must_use]
pub struct Open(Option<u32>);

impl Recorder {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
            shadow_ns: 0,
        }
    }

    /// Starts the next request id.
    pub fn next_request(&mut self) {
        self.req += 1;
    }

    /// The span clock: wall time since creation minus shadow time.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 - self.shadow_ns
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        self.open_tagged(name, "")
    }

    /// [`Recorder::open`] with a qualifier.
    pub fn open_tagged(&mut self, name: &'static str, tag: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            req: self.req,
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            shadow: false,
            synthesized: false,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open` returned.
    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            self.spans[id as usize].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        }
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Runs `f` as a shadow of span `of` (the composite call whose
    /// internals `f` re-measures). Shadows only run when spans are on:
    /// with spans off the replay does exactly the work the daemon does.
    pub fn shadow<T>(
        &mut self,
        name: &'static str,
        of: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> Option<T> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_nanos() as u64;
        self.shadow_ns += dur;
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: of,
            req: self.req,
            name,
            tag: "",
            start_ns,
            end_ns: start_ns + dur,
            shadow: true,
            synthesized: false,
        });
        Some(out)
    }

    /// Id of the last span recorded (to parent shadows to it).
    pub fn last_id(&self) -> Option<u32> {
        if self.on {
            self.spans.len().checked_sub(1).map(|i| i as u32)
        } else {
            None
        }
    }

    /// Records phases the callee timed itself, laid end to end from the
    /// start of span `parent` in the order given.
    pub fn synthesize(
        &mut self,
        parent: Option<u32>,
        tag: &'static str,
        phases: &[(&'static str, u64)],
    ) {
        let Some(p) = parent else { return };
        let mut at = self.spans[p as usize].start_ns;
        for &(name, dur) in phases {
            self.spans.push(Span {
                id: self.spans.len() as u32,
                parent: Some(p),
                req: self.req,
                name,
                tag,
                start_ns: at,
                end_ns: at + dur,
                shadow: false,
                synthesized: true,
            });
            at += dur;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span (indexed like `spans`): its duration minus
/// the union of its direct, non-shadow children's intervals, each
/// clipped to the span's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.shadow {
            continue;
        }
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in clipped {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-layer totals of one replay.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Self time summed over the layer's spans, shadow durations taken
    /// out of their composites.
    pub self_ns: u64,
    /// Per-call wall durations (for per-call percentiles).
    pub calls: Vec<u64>,
}

/// Aggregates spans into layers keyed `name` or `name.tag`, and returns
/// them with the request-path total: the summed duration of every root
/// span (shadows excluded).
pub fn layer_self_times(spans: &[Span]) -> (BTreeMap<String, Layer>, u64) {
    let selfs = self_times(spans);
    let mut adjusted: Vec<i128> = selfs.iter().map(|&v| v as i128).collect();
    for s in spans.iter().filter(|s| s.shadow) {
        if let Some(p) = s.parent {
            adjusted[p as usize] -= s.dur_ns() as i128;
        }
    }
    let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
    let mut path_ns = 0u64;
    for (s, adj) in spans.iter().zip(adjusted) {
        if s.parent.is_none() && !s.shadow {
            path_ns += s.dur_ns();
        }
        let key = if s.tag.is_empty() {
            s.name.to_string()
        } else {
            format!("{}.{}", s.name, s.tag)
        };
        let layer = layers.entry(key).or_default();
        layer.self_ns += adj.max(0) as u64;
        layer.calls.push(s.dur_ns());
    }
    (layers, path_ns)
}

/// Writes spans as JSON lines.
pub fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"shadow\":{},\"synthesized\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req,
            s.name,
            s.tag,
            s.start_ns,
            s.end_ns,
            s.shadow,
            s.synthesized
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            tag: "",
            start_ns,
            end_ns,
            shadow: false,
            synthesized: false,
        }
    }

    #[test]
    fn leaf_span_keeps_its_full_duration() {
        assert_eq!(self_times(&[span(0, None, 5, 105)]), vec![100]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        // Children cover [10,40] ∪ [30,60] = 50 ns of the parent's 100.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn nested_children_are_not_counted_twice() {
        // Child 2 lies inside sibling 1, and grandchild 3 inside child 1:
        // the parent is covered by [10,50] only once.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 20, 30),
            span(3, Some(1), 15, 45),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 10, 30]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 90, 130)];
        assert_eq!(self_times(&spans)[0], 90);
    }

    #[test]
    fn shadows_leave_intervals_alone_and_come_out_of_the_composite() {
        let mut shadow = span(2, Some(1), 200, 230);
        shadow.shadow = true;
        shadow.name = "inner";
        let mut composite = span(1, Some(0), 10, 110);
        composite.name = "composite";
        let spans = [span(0, None, 0, 120), composite, shadow];
        assert_eq!(self_times(&spans), vec![20, 100, 30]);
        let (layers, path) = layer_self_times(&spans);
        assert_eq!(path, 120);
        assert_eq!(layers["composite"].self_ns, 70);
        assert_eq!(layers["inner"].self_ns, 30);
        assert_eq!(layers["t"].self_ns, 20);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("outer");
        rec.span("inner", || std::hint::black_box(1 + 1));
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::new(false);
        let s = off.open("outer");
        off.close(s);
        assert!(off.shadow("x", None, || ()).is_none());
        assert!(off.spans().is_empty());
    }
}
