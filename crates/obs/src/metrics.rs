//! The unified metrics registry: named counters, gauges and histograms
//! rendered in the Prometheus text exposition format.
//!
//! A [`Registry`] owns metric *families* (one name, one HELP/TYPE pair) with
//! one or more labelled series each. Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are `Arc`s shared between the registry and the
//! instrumented code; all updates are relaxed atomics, so recording is
//! wait-free and safe in the hottest loops. Torn cross-metric reads are
//! tolerated — each individual value is always consistent.
//!
//! The process-wide [`global`] registry carries the mining / selection /
//! pipeline families (see [`dfp`]); `dfp-serve` keeps an additional
//! per-server registry so its tests observe isolated counters, and renders
//! both on `/metrics`.
//!
//! Rendering is Prometheus-parser-safe by construction: histogram `le`
//! labels use plain decimal notation (`0.0001`, never `1e-4`), and
//! `_sum` values are emitted as exact nanosecond→second decimals rather
//! than default float formatting.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A float-valued gauge (f64 bits behind an atomic), for derived values
/// that are not integral — SLO burn rates, ratios, seconds-since.
#[derive(Debug, Default)]
pub struct GaugeF(AtomicU64);

impl GaugeF {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// An OpenMetrics exemplar: one traced observation attached to the bucket
/// that contains it, rendered as `… # {request_id="…"} 0.12 1700000000.000`.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Single exemplar label key (we only ever attach one label).
    pub label_key: String,
    /// Label value — for serving, the `X-Request-Id` of a captured trace.
    pub label_value: String,
    /// Observed value in seconds.
    pub value: f64,
    /// Unix timestamp of the observation, in milliseconds.
    pub unix_ms: u64,
}

/// A fixed-bucket histogram of durations, stored in nanoseconds so the
/// rendered `_sum` is exact.
#[derive(Debug)]
pub struct Histogram {
    /// Bucket upper bounds in seconds, ascending; `+Inf` implied.
    bounds: Box<[f64]>,
    /// One slot per bound plus the `+Inf` overflow slot (non-cumulative).
    counts: Box<[AtomicU64]>,
    sum_nanos: AtomicU64,
    count: AtomicU64,
    /// Most recent exemplar, set off the hot path (tail-sampled keeps only).
    exemplar: Mutex<Option<Exemplar>>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.into(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
            exemplar: Mutex::new(None),
        }
    }

    /// Records one duration observation.
    pub fn observe(&self, elapsed: Duration) {
        self.observe_nanos(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one observation given in whole nanoseconds.
    pub fn observe_nanos(&self, nanos: u64) {
        let secs = nanos as f64 / 1e9;
        let idx = self
            .bounds
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Attaches an exemplar (replacing any previous one). Called off the
    /// request hot path — only when a tail-sampled trace is kept — so the
    /// mutex never contends with `observe`.
    pub fn set_exemplar(&self, label_key: &str, label_value: &str, value_secs: f64, unix_ms: u64) {
        if !value_secs.is_finite() {
            return;
        }
        let mut slot = self.exemplar.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(Exemplar {
            label_key: label_key.to_string(),
            label_value: label_value.to_string(),
            value: value_secs,
            unix_ms,
        });
    }

    /// The currently attached exemplar, if any.
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// A point-in-time copy with *cumulative* bucket counts. Relaxed reads:
    /// the snapshot may be torn against concurrent observes, but every slot
    /// is individually monotone over successive snapshots, which is all the
    /// TSDB window diffing needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for c in self.counts.iter() {
            acc += c.load(Ordering::Relaxed);
            cumulative.push(acc);
        }
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            cumulative,
            sum_nanos: self.sum_nanos(),
            count: self.count(),
        }
    }
}

/// A point-in-time copy of one histogram series with cumulative bucket
/// counts (the `+Inf` slot last).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds in seconds; `+Inf` implied after the last.
    pub bounds: Vec<f64>,
    /// Cumulative count per bound plus the `+Inf` slot (`bounds.len() + 1`).
    pub cumulative: Vec<u64>,
    /// Sum of all observations, in nanoseconds.
    pub sum_nanos: u64,
    /// Total observation count.
    pub count: u64,
}

/// The value part of a [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value (integer gauges widen to `f64`).
    Gauge(f64),
    /// Histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// One series sampled from a [`Registry`] — the read side consumed by the
/// TSDB collector.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Family name, e.g. `dfp_serve_requests_total`.
    pub name: String,
    /// Rendered label pairs without braces (possibly empty), e.g.
    /// `stage="mine"`.
    pub labels: String,
    /// The sampled value.
    pub value: SampleValue,
}

/// Formats a float in plain decimal notation — Prometheus label values such
/// as `le` must never be scientific (`0.0001`, not `1e-4`). Rust's `{}`
/// Display for floats is always non-scientific shortest-round-trip, which
/// is exactly the stable form we want; this wrapper pins that contract in
/// one place (with a unit test) rather than scattering bare `{}`s.
pub fn fmt_decimal(x: f64) -> String {
    format!("{x}")
}

/// Renders a nanosecond total as an exact decimal number of seconds
/// (`123456789` → `"0.123456789"`), avoiding lossy `f64` division for
/// histogram `_sum` lines.
pub fn fmt_secs_from_nanos(nanos: u64) -> String {
    format!("{}.{:09}", nanos / 1_000_000_000, nanos % 1_000_000_000)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    GaugeF,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            // Integer and float gauges are one exposition TYPE.
            Kind::Gauge | Kind::GaugeF => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    GaugeF(Arc<GaugeF>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// `(rendered label pairs without braces, metric)`, e.g. `stage="mine"`.
    series: Vec<(String, Metric)>,
}

/// A collection of metric families rendered together.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the unlabelled counter `name`, registering it on first use.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Returns the counter `name{labels}`, registering it on first use.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.series(name, help, Kind::Counter, labels, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind enforced by series()"),
        }
    }

    /// Returns the unlabelled gauge `name`, registering it on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Returns the gauge `name{labels}`, registering it on first use.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.series(name, help, Kind::Gauge, labels, || {
            Metric::Gauge(Arc::new(Gauge::default()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind enforced by series()"),
        }
    }

    /// Returns the unlabelled float gauge `name`, registering it on first
    /// use.
    pub fn gauge_f(&self, name: &str, help: &str) -> Arc<GaugeF> {
        self.gauge_f_with(name, help, &[])
    }

    /// Returns the float gauge `name{labels}`, registering it on first use.
    pub fn gauge_f_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<GaugeF> {
        match self.series(name, help, Kind::GaugeF, labels, || {
            Metric::GaugeF(Arc::new(GaugeF::default()))
        }) {
            Metric::GaugeF(g) => g,
            _ => unreachable!("kind enforced by series()"),
        }
    }

    /// Returns the unlabelled histogram `name`, registering it on first use
    /// with `bounds` (seconds, ascending; `+Inf` implied).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Returns the histogram `name{labels}`, registering it on first use.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.series(name, help, Kind::Histogram, labels, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind enforced by series()"),
        }
    }

    /// Finds or creates the `(family, labels)` series. Registration is
    /// idempotent: asking again for the same series returns the same handle.
    ///
    /// # Panics
    /// Panics if `name` is re-registered with a different metric kind — a
    /// programming error that would render an invalid exposition.
    fn series(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let rendered = render_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            assert_eq!(
                family.kind, kind,
                "metric '{name}' re-registered as a different kind"
            );
            if let Some((_, metric)) = family.series.iter().find(|(l, _)| *l == rendered) {
                return metric.clone();
            }
            let metric = make();
            family.series.push((rendered, metric.clone()));
            return metric;
        }
        let metric = make();
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: vec![(rendered, metric.clone())],
        });
        metric
    }

    /// Renders every family in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        self.render_into(&mut out);
        out
    }

    /// Appends the exposition to `out` (for composing registries).
    pub fn render_into(&self, out: &mut String) {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        for family in families.iter() {
            let name = &family.name;
            out.push_str(&format!(
                "# HELP {name} {}\n# TYPE {name} {}\n",
                family.help.replace('\n', " "),
                family.kind.as_str()
            ));
            for (labels, metric) in &family.series {
                match metric {
                    Metric::Counter(c) => {
                        push_series_line(out, name, labels, &c.get().to_string());
                    }
                    Metric::Gauge(g) => {
                        push_series_line(out, name, labels, &g.get().to_string());
                    }
                    Metric::GaugeF(g) => {
                        push_series_line(out, name, labels, &fmt_float_value(g.get()));
                    }
                    Metric::Histogram(h) => render_histogram(out, name, labels, h),
                }
            }
        }
    }

    /// Samples every registered series into owned [`Sample`]s — the read
    /// side used by the TSDB collector. Reads are relaxed atomics; tearing
    /// across series is tolerated (each sample is individually consistent).
    pub fn snapshot(&self) -> Vec<Sample> {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for family in families.iter() {
            for (labels, metric) in &family.series {
                let value = match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get() as f64),
                    Metric::GaugeF(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                };
                out.push(Sample {
                    name: family.name.clone(),
                    labels: labels.clone(),
                    value,
                });
            }
        }
        out
    }
}

/// Formats an exposition float value: plain decimal for finite values,
/// Prometheus spellings for the non-finite ones (`+Inf`/`-Inf`/`NaN` — the
/// Rust `Display` forms `inf`/`NaN` are not parser-safe).
fn fmt_float_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        fmt_decimal(v)
    }
}

fn push_exemplar(out: &mut String, e: &Exemplar) {
    out.push_str(&format!(
        " # {{{}=\"{}\"}} {} {}.{:03}",
        e.label_key,
        e.label_value.replace('\\', "\\\\").replace('"', "\\\""),
        fmt_decimal(e.value),
        e.unix_ms / 1000,
        e.unix_ms % 1000
    ));
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect::<Vec<_>>()
        .join(",")
}

fn push_series_line(out: &mut String, name: &str, labels: &str, value: &str) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let joiner = if labels.is_empty() { "" } else { "," };
    // The exemplar rides on the first bucket whose bound contains its value
    // (OpenMetrics-style `… # {k="v"} value ts` suffix on the bucket line).
    let exemplar = h.exemplar();
    let exemplar_idx = exemplar.as_ref().map(|e| {
        h.bounds
            .iter()
            .position(|&ub| e.value <= ub)
            .unwrap_or(h.bounds.len())
    });
    let mut cumulative = 0u64;
    for (i, &ub) in h.bounds.iter().enumerate() {
        cumulative += h.counts[i].load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{{labels}{joiner}le=\"{}\"}} {cumulative}",
            fmt_decimal(ub)
        ));
        if exemplar_idx == Some(i) {
            push_exemplar(out, exemplar.as_ref().expect("index implies exemplar"));
        }
        out.push('\n');
    }
    cumulative += h.counts[h.bounds.len()].load(Ordering::Relaxed);
    out.push_str(&format!(
        "{name}_bucket{{{labels}{joiner}le=\"+Inf\"}} {cumulative}"
    ));
    if exemplar_idx == Some(h.bounds.len()) {
        push_exemplar(out, exemplar.as_ref().expect("index implies exemplar"));
    }
    out.push('\n');
    push_series_line(
        out,
        &format!("{name}_sum"),
        labels,
        &fmt_secs_from_nanos(h.sum_nanos()),
    );
    push_series_line(
        out,
        &format!("{name}_count"),
        labels,
        &h.count().to_string(),
    );
}

/// The process-wide registry carrying the mining / selection / pipeline
/// families. Library crates record here; serving renders it alongside its
/// per-server registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The dfp workspace's well-known global metric families.
///
/// Each accessor registers its family in [`global`] on first use and caches
/// the handle in a static, so hot paths pay one pointer load plus a relaxed
/// atomic add. [`dfp::touch`] registers everything up front — serving calls
/// it before rendering so `/metrics` always exposes the full schema, even
/// when no mining has happened in-process yet.
pub mod dfp {
    use super::*;

    /// Bucket bounds for pipeline stage durations (seconds).
    pub const STAGE_BUCKETS: [f64; 11] = [
        0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
    ];

    macro_rules! counter_fn {
        ($(#[$doc:meta])* $fn:ident, $name:expr, $help:expr) => {
            $(#[$doc])*
            pub fn $fn() -> &'static Counter {
                static CELL: OnceLock<Arc<Counter>> = OnceLock::new();
                CELL.get_or_init(|| global().counter($name, $help))
            }
        };
    }

    counter_fn!(
        /// Patterns emitted by any miner (pre-dedup, pre-filter).
        mine_patterns_emitted,
        "dfp_mine_patterns_emitted_total",
        "Patterns emitted by the miners (before dedup and closedness filtering)"
    );
    counter_fn!(
        /// Search-space nodes explored by any miner.
        mine_nodes_explored,
        "dfp_mine_nodes_explored_total",
        "Search-space nodes explored by the miners (DFS nodes, level candidates)"
    );
    counter_fn!(
        /// Closure-merge checks performed by the closed-set miner.
        mine_closure_checks,
        "dfp_mine_closure_checks_total",
        "Closure-merge candidate checks performed by the closed-set miner"
    );
    counter_fn!(
        /// Candidates popped from MMRFS's lazy-greedy heap.
        select_candidates_scanned,
        "dfp_select_candidates_scanned_total",
        "Candidates popped from the MMRFS lazy-greedy heap across argmax rounds"
    );
    counter_fn!(
        /// MMRFS rounds: candidates that left F, selected or discarded.
        select_argmax_rounds,
        "dfp_select_argmax_rounds_total",
        "MMRFS rounds (one per candidate leaving F, selected or discarded)"
    );
    counter_fn!(
        /// Redundancy evaluations MMRFS makes refreshing stale candidates.
        select_redundancy_updates,
        "dfp_select_redundancy_updates_total",
        "Redundancy evaluations made refreshing stale MMRFS candidates"
    );
    counter_fn!(
        /// Linear-SVM binary dual solves.
        train_solves,
        "dfp_train_solves_total",
        "Linear-SVM binary dual solves"
    );
    counter_fn!(
        /// Linear-SVM dual coordinate descent passes, full or over the
        /// shrunk active set.
        train_passes,
        "dfp_train_passes_total",
        "Linear-SVM dual coordinate descent passes (full or over the shrunk active set)"
    );
    counter_fn!(
        /// Linear-SVM dual solves that stopped at `max_epochs` with the
        /// relative duality gap (P − D)/P still above `tol`.
        train_unconverged,
        "dfp_train_unconverged_total",
        "Linear-SVM dual solves that stopped at max_epochs before the relative duality gap met tol"
    );
    counter_fn!(
        /// Mining-memoization cache hits (a mine call answered from cache).
        cache_mining_hits,
        "dfp_cache_mining_hits_total",
        "Mining-memoization cache hits (mine calls answered from the cache)"
    );
    counter_fn!(
        /// Mining-memoization cache misses (a mine call ran the miner).
        cache_mining_misses,
        "dfp_cache_mining_misses_total",
        "Mining-memoization cache misses (mine calls that ran the miner)"
    );
    counter_fn!(
        /// Pipeline fits completed.
        pipeline_fits,
        "dfp_pipeline_fits_total",
        "Pipeline fits completed (PatternClassifier::fit and fit_transactions)"
    );
    counter_fn!(
        /// Cross-validation folds fitted (outer framework CV).
        cv_folds,
        "dfp_cv_folds_total",
        "Outer cross-validation folds fitted"
    );
    counter_fn!(
        /// Model artifacts saved.
        model_saves,
        "dfp_model_saves_total",
        "Model artifacts saved"
    );
    counter_fn!(
        /// Model artifacts loaded.
        model_loads,
        "dfp_model_loads_total",
        "Model artifacts loaded"
    );

    /// `1` when the most recent pipeline fit in this process was degraded
    /// (anytime mining stopped early), else `0`.
    pub fn pipeline_degraded() -> &'static Gauge {
        static CELL: OnceLock<Arc<Gauge>> = OnceLock::new();
        CELL.get_or_init(|| {
            global().gauge(
                "dfp_pipeline_degraded",
                "1 when the most recent pipeline fit was degraded (anytime mining stopped early)",
            )
        })
    }

    /// Per-stage pipeline duration histogram
    /// (`dfp_pipeline_stage_seconds{stage="mine"}`, …).
    ///
    /// `stage` must be a `'static` name so series stay bounded.
    pub fn pipeline_stage(stage: &'static str) -> Arc<Histogram> {
        global().histogram_with(
            "dfp_pipeline_stage_seconds",
            "Wall-clock duration of each pipeline stage",
            &STAGE_BUCKETS,
            &[("stage", stage)],
        )
    }

    /// The canonical stage names instrumented by `dfp-core`.
    pub const STAGES: [&str; 7] = [
        "discretize",
        "itemize",
        "mine",
        "select",
        "transform",
        "train",
        "predict",
    ];

    /// Registers every well-known family (idempotent). Serving calls this
    /// before rendering so the full schema is always exposed.
    pub fn touch() {
        mine_patterns_emitted();
        mine_nodes_explored();
        mine_closure_checks();
        select_candidates_scanned();
        select_argmax_rounds();
        select_redundancy_updates();
        train_solves();
        train_passes();
        train_unconverged();
        cache_mining_hits();
        cache_mining_misses();
        pipeline_fits();
        cv_folds();
        model_saves();
        model_loads();
        pipeline_degraded();
        for stage in STAGES {
            pipeline_stage(stage);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        let c = r.counter("test_total", "help text");
        let g = r.gauge("test_gauge", "a gauge");
        c.add(3);
        g.set(-2);
        let text = r.render();
        assert!(text.contains("# HELP test_total help text\n"));
        assert!(text.contains("# TYPE test_total counter\n"));
        assert!(text.contains("test_total 3\n"));
        assert!(text.contains("# TYPE test_gauge gauge\n"));
        assert!(text.contains("test_gauge -2\n"));
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // one family, one series
        assert_eq!(r.render().matches("\nx_total 2\n").count(), 1);
    }

    #[test]
    fn labelled_series_share_one_family_header() {
        let r = Registry::new();
        r.counter_with("y_total", "y", &[("k", "a")]).inc();
        r.counter_with("y_total", "y", &[("k", "b")]).add(2);
        let text = r.render();
        assert_eq!(text.matches("# HELP y_total").count(), 1);
        assert!(text.contains("y_total{k=\"a\"} 1\n"));
        assert!(text.contains("y_total{k=\"b\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_cumulative_and_sum_exact() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.0001, 0.005]);
        h.observe(Duration::from_micros(50));
        h.observe(Duration::from_millis(2));
        h.observe(Duration::from_secs(2));
        let text = r.render();
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.0001\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_bucket{le=\"0.005\"} 2\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_seconds_count 3\n"));
        // 50µs + 2ms + 2s = 2.002050000 s, exactly.
        assert!(text.contains("lat_seconds_sum 2.002050000\n"), "{text}");
    }

    #[test]
    fn le_labels_never_scientific() {
        assert_eq!(fmt_decimal(0.0001), "0.0001");
        assert_eq!(fmt_decimal(0.000001), "0.000001");
        assert_eq!(fmt_decimal(0.5), "0.5");
        assert_eq!(fmt_decimal(10.0), "10");
        for s in [0.0001, 0.000001, 1e-9, 5e8].map(fmt_decimal) {
            assert!(!s.contains('e') && !s.contains('E'), "{s}");
        }
    }

    #[test]
    fn sum_formatting_is_exact() {
        assert_eq!(fmt_secs_from_nanos(0), "0.000000000");
        assert_eq!(fmt_secs_from_nanos(123), "0.000000123");
        assert_eq!(fmt_secs_from_nanos(1_500_000_000), "1.500000000");
        // A value that would lose precision through f64 division:
        assert_eq!(
            fmt_secs_from_nanos(9_007_199_254_740_993),
            "9007199.254740993"
        );
    }

    #[test]
    fn well_known_families_register() {
        dfp::touch();
        let text = global().render();
        for family in [
            "dfp_mine_patterns_emitted_total",
            "dfp_mine_nodes_explored_total",
            "dfp_select_candidates_scanned_total",
            "dfp_train_solves_total",
            "dfp_train_passes_total",
            "dfp_train_unconverged_total",
            "dfp_pipeline_stage_seconds",
            "dfp_pipeline_degraded",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
        assert!(text.contains("dfp_pipeline_stage_seconds_bucket{stage=\"mine\",le=\"0.0001\"}"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("z_metric", "z");
        r.gauge("z_metric", "z");
    }

    #[test]
    fn float_gauge_renders_plain_decimal() {
        let r = Registry::new();
        let g = r.gauge_f_with("burn", "burn rate", &[("slo", "avail")]);
        g.set(14.4);
        let text = r.render();
        assert!(text.contains("# TYPE burn gauge\n"), "{text}");
        assert!(text.contains("burn{slo=\"avail\"} 14.4\n"), "{text}");
        g.set(f64::INFINITY);
        assert!(r.render().contains("burn{slo=\"avail\"} +Inf\n"));
        g.set(f64::NAN);
        assert!(r.render().contains("burn{slo=\"avail\"} NaN\n"));
    }

    #[test]
    fn exemplar_rides_containing_bucket() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.001, 0.1]);
        h.observe(Duration::from_millis(20));
        h.set_exemplar("request_id", "req-1", 0.02, 1_700_000_000_123);
        let text = r.render();
        assert!(
            text.contains(
                "lat_seconds_bucket{le=\"0.1\"} 1 # {request_id=\"req-1\"} 0.02 1700000000.123\n"
            ),
            "{text}"
        );
        // The other bucket lines carry no exemplar.
        assert!(text.contains("lat_seconds_bucket{le=\"0.001\"} 0\n"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 1\n"));
    }

    #[test]
    fn snapshot_captures_all_kinds_cumulatively() {
        let r = Registry::new();
        r.counter("c_total", "c").add(7);
        r.gauge("g", "g").set(-3);
        r.gauge_f("gf", "gf").set(0.5);
        let h = r.histogram("h_seconds", "h", &[0.001, 0.1]);
        h.observe(Duration::from_micros(500));
        h.observe(Duration::from_secs(1));
        let samples = r.snapshot();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].value, SampleValue::Counter(7));
        assert_eq!(samples[1].value, SampleValue::Gauge(-3.0));
        assert_eq!(samples[2].value, SampleValue::Gauge(0.5));
        match &samples[3].value {
            SampleValue::Histogram(s) => {
                assert_eq!(s.bounds, vec![0.001, 0.1]);
                assert_eq!(s.cumulative, vec![1, 1, 2]);
                assert_eq!(s.count, 2);
                assert_eq!(s.sum_nanos, 1_000_500_000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
