//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans of one job or request share its id; they stay in memory and
//! are summarised when the run ends.

use crate::stats;
use crate::sys;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The job or request the span belongs to.
    pub job: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// CPU seconds spent while the span was open, when measured.
    pub cpu_s: Option<f64>,
}

/// Where a new span hangs: its job and its parent span.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub job: u64,
    pub parent: u64,
}

/// Collects spans; a disabled tracer runs the closures and records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The context of a new root span for `job`.
    pub fn root(&self, job: u64) -> Ctx {
        Ctx { job, parent: 0 }
    }

    /// Runs `f` inside a span named `name`; `f` gets the context its own
    /// child spans hang from. With `cpu`, the span also records the CPU time
    /// spent while it was open (see [`sys::cpu_seconds`]).
    pub fn span<T>(&self, ctx: Ctx, name: &'static str, cpu: bool, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.enabled {
            return f(ctx);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let cpu0 = cpu.then(sys::cpu_seconds);
        let start = self.now();
        let out = f(Ctx {
            job: ctx.job,
            parent: id,
        });
        let end = self.now();
        let cpu_s = cpu0.map(|c0| sys::cpu_seconds() - c0);
        self.spans
            .lock()
            .expect("span store poisoned by a panicking job")
            .push(Span {
                id,
                parent: ctx.parent,
                job: ctx.job,
                name,
                start,
                end,
                cpu_s,
            });
        out
    }

    /// Drains every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    pub self_s: f64,
    pub cpu_s: f64,
}

/// What the spans of a run add up to.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Self time and CPU per span name (roots excluded).
    pub layers: BTreeMap<&'static str, LayerTotals>,
    /// Summed wall time of the root spans.
    pub root_wall_s: f64,
    /// Summed part of the root spans covered by their children.
    pub root_covered_s: f64,
    /// Distinct jobs or requests the spans belong to: the divisor of
    /// per-job figures.
    pub jobs: usize,
}

impl Summary {
    /// Share of root wall time covered by layer spans.
    pub fn coverage(&self) -> f64 {
        stats::ratio(self.root_covered_s, self.root_wall_s)
    }

    /// Self seconds of `name`, `0.0` when it never ran.
    pub fn self_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.self_s)
    }

    /// CPU seconds of `name`, `0.0` when it never ran.
    pub fn cpu_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.cpu_s)
    }

    /// Each layer's share of the summed layer self time.
    pub fn shares(&self) -> BTreeMap<&'static str, f64> {
        let total: f64 = self.layers.values().map(|l| l.self_s).sum();
        self.layers
            .iter()
            .map(|(k, l)| (*k, stats::ratio(l.self_s, total)))
            .collect()
    }
}

/// Computes self times (duration minus the union of child intervals) and
/// root coverage.
pub fn summarise(spans: &[Span]) -> Summary {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    let mut out = Summary::default();
    let mut jobs: Vec<u64> = spans.iter().map(|s| s.job).collect();
    jobs.sort_unstable();
    jobs.dedup();
    out.jobs = jobs.len();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let self_ns = stats::self_time(s.start, s.end, kids);
        if s.parent == 0 {
            out.root_wall_s += (s.end - s.start) as f64 / 1e9;
            out.root_covered_s += stats::covered(s.start, s.end, kids) as f64 / 1e9;
            continue;
        }
        let l = out.layers.entry(s.name).or_default();
        l.self_s += self_ns as f64 / 1e9;
        l.cpu_s += s.cpu_s.unwrap_or(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name,
            start,
            end,
            cpu_s: None,
        }
    }

    #[test]
    fn summary_self_times_and_coverage() {
        // job [0, 100): csv [0, 10), cv [10, 90) with two parallel folds
        // [10, 60) and [10, 80) each holding a mine span, encode [90, 95).
        let spans = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "data.csv", 0, 10),
            span(3, 1, "core.cv", 10, 90),
            span(4, 3, "core.fold", 10, 60),
            span(5, 3, "core.fold", 10, 80),
            span(6, 4, "mining.mine", 20, 50),
            span(7, 5, "mining.mine", 20, 70),
            span(8, 1, "model.encode", 90, 95),
        ];
        let s = summarise(&spans);
        let ns = |x: f64| (x * 1e9).round() as u64;
        assert_eq!(ns(s.self_s("data.csv")), 10);
        assert_eq!(ns(s.self_s("core.cv")), 10); // [80, 90) uncovered
        assert_eq!(ns(s.self_s("core.fold")), 20 + 20);
        assert_eq!(ns(s.self_s("mining.mine")), 30 + 50);
        assert_eq!(ns(s.self_s("model.encode")), 5);
        assert_eq!(ns(s.root_wall_s), 100);
        assert_eq!(s.jobs, 1);
        assert!((s.coverage() - 0.95).abs() < 1e-12);
        let shares = s.shares();
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(t.root(1), "job", true, |_| 7);
        assert_eq!(v, 7);
        assert!(t.take().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let t = Tracer::new(true);
        t.span(t.root(9), "job", false, |ctx| {
            t.span(ctx, "data.csv", false, |_| ());
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "job").unwrap();
        let child = spans.iter().find(|s| s.name == "data.csv").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!(root.parent, 0);
        assert!(spans.iter().all(|s| s.job == 9));
    }
}
