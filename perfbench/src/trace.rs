//! In-memory spans around the benchmark's own calls into each crate.
//!
//! A span has a name, start and end, the span that caused it, the run
//! (repetition) it belongs to and a track: one per rank or sweep job, 0
//! for the driving thread. Spans stay in memory and are written once at
//! exit as a Chrome trace-event file (`chrome://tracing`, Perfetto). A
//! span's *self time* is its duration minus the part of it covered by its
//! child spans.
//!
//! A disabled tracer records nothing; untraced runs pay one branch per
//! call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span; `NONE` when tracing is off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
    track: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span measured by the caller.
    pub fn record(
        &self,
        name: &str,
        parent: SpanId,
        run: u32,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: (parent != SpanId::NONE).then_some(parent.0),
            run,
            track,
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&self, name: &str, parent: SpanId, run: u32, track: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, run, track, now, now)
    }

    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.lock().expect("span store poisoned")[id.0].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &str,
        parent: SpanId,
        run: u32,
        track: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, run, track);
        let r = f(id);
        self.end(id);
        r
    }

    /// Durations in seconds of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time of every span, in nanoseconds.
    fn self_ns(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn summary(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let selfs = Self::self_ns(&spans);
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns) as f64 * 1e-9;
            e.2 += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a Chrome trace-event JSON document: one complete
    /// (`"ph": "X"`) event per span, process = run, thread = track.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let selfs = Self::self_ns(&spans);
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \
                 \"tid\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"self_us\": {:.3}}}}}",
                crate::report::json_str(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                s.track,
                own as f64 / 1e3
            );
        }
        out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let t = Tracer::new(true);
        let t0 = t.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.record("root", SpanId::NONE, 0, 0, at(0), at(100));
        // Two overlapping children cover 10..50; a third 60..70.
        t.record("kid", root, 0, 0, at(10), at(40));
        t.record("kid", root, 0, 0, at(30), at(50));
        t.record("kid", root, 0, 0, at(60), at(70));
        let s = t.summary();
        let (n, total, own) = s["root"];
        assert_eq!(n, 1);
        assert!((total - 0.1).abs() < 1e-9);
        assert!((own - 0.05).abs() < 1e-9, "self {own}");
        assert_eq!(s["kid"].0, 3);
        assert!(t.chrome_json().contains("\"self_us\": 50000.000"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.span("x", SpanId::NONE, 0, 0, |id| id);
        assert_eq!(id, SpanId::NONE);
        assert!(t.summary().is_empty());
    }
}
