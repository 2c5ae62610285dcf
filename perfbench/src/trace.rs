//! In-memory span recorder and self-time attribution.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace's public functions; nothing inside the program is
//! instrumented. Each span carries a layer name, a lane (the thread that
//! recorded it), a group id shared by every span of one command or one
//! campaign point, and its parent. A layer's self time is its spans'
//! wall time minus the part their children cover. The spans of all lanes
//! are merged into one set of intervals, each instant going to the
//! innermost open span; concurrent lanes only ever hold spans of the same
//! layer (`serve.socket`), so the merge attributes their union. Intervals
//! no span covers are `other`. The rows therefore add up to the traced
//! window exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the self-time row for time no layer span covers.
pub const OTHER: &str = "other";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (e.g. `core.traffic`); names starting with `bench.`
    /// group layer spans and count as `other`.
    pub name: &'static str,
    /// Recording thread.
    pub lane: u32,
    /// Id shared by the spans of one command or campaign point.
    pub group: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A per-thread span recorder. Disabled recorders run the wrapped code
/// and record nothing, so the untraced run executes the same calls.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    lane: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder on lane 0 whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            lane: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn lane(&self, lane: u32) -> Tracer {
        Tracer {
            origin: self.origin,
            enabled: self.enabled,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the clock origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` of group `group`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            lane: self.lane,
            group,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Move another lane's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time per layer over `[from_ns, to_ns]`, in seconds, plus an
    /// [`OTHER`] row; the rows sum to the window.
    pub fn self_times(&self, from_ns: u64, to_ns: u64) -> BTreeMap<&'static str, f64> {
        // (time, is_open, span index); closes sort before opens at equal
        // instants so zero-length gaps never count a finished span.
        let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(self.spans.len() * 2);
        for (i, s) in self.spans.iter().enumerate() {
            let (a, b) = (s.start_ns.max(from_ns), s.end_ns.min(to_ns));
            if a < b {
                events.push((a, true, i));
                events.push((b, false, i));
            }
        }
        events.sort_by_key(|&(t, open, i)| (t, open, i));
        let mut rows: BTreeMap<&'static str, f64> = BTreeMap::new();
        rows.insert(OTHER, 0.0);
        let mut open_spans: Vec<usize> = Vec::new();
        let mut prev = from_ns;
        for (t, open, i) in events {
            if t > prev {
                let row = open_spans.last().map_or(OTHER, |&leaf| self.row_of(leaf));
                *rows.entry(row).or_default() += (t - prev) as f64 / 1e9;
                prev = t;
            }
            if open {
                open_spans.push(i);
            } else if let Some(pos) = open_spans.iter().rposition(|&j| j == i) {
                open_spans.remove(pos);
            }
        }
        if to_ns > prev {
            *rows.entry(OTHER).or_default() += (to_ns - prev) as f64 / 1e9;
        }
        rows
    }

    fn row_of(&self, span: usize) -> &'static str {
        let name = self.spans[span].name;
        if name.starts_with("bench.") {
            OTHER
        } else {
            name
        }
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"lane\":{},\"group\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.lane, s.group, parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            lane: 0,
            group: 0,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_window() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("core.traffic", None, 0, 100),
            span("core.scenario", Some(0), 20, 40),
            span("bench.rep", None, 120, 150),
        ];
        let rows = t.self_times(0, 200);
        let ns = |k: &str| (rows[k] * 1e9).round() as u64;
        // 0..20 traffic, 20..40 scenario, 40..100 traffic; bench spans
        // and uncovered time are other.
        assert_eq!(ns("core.traffic"), 20 + 60);
        assert_eq!(ns("core.scenario"), 20);
        assert_eq!(ns(OTHER), 100);
        let total: f64 = rows.values().sum();
        assert!((total - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("core.traffic", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
