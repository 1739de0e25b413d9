//! Serving metrics on the unified [`dfp_obs`] registry: request/prediction
//! counters, split client/server error counters (with the historical
//! `dfp_serve_errors_total` kept as their sum), a queue-depth gauge and
//! latency + queue-wait histograms, rendered in the Prometheus text
//! exposition format.
//!
//! Each server owns its own [`dfp_obs::Registry`] so concurrent servers in
//! one process (tests, embedded use) report independent counters; the
//! process-wide pipeline/mining families from [`dfp_obs::metrics::global`]
//! are appended to every render so one `/metrics` scrape shows the whole
//! stack.

use dfp_obs::metrics::{Sample, SampleValue};
use dfp_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Upper bounds (seconds) of the latency histogram buckets; `+Inf` implied.
pub const LATENCY_BUCKETS: [f64; 8] = [0.000_1, 0.000_5, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5];

/// Upper bounds (requests) of the batch-size histogram; `+Inf` implied.
pub const BATCH_SIZE_BUCKETS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Shared serving metrics.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    /// Requests received, any endpoint.
    pub requests_total: Arc<Counter>,
    /// Rows successfully predicted.
    pub predictions_total: Arc<Counter>,
    /// Requests answered with a 4xx status.
    pub client_errors_total: Arc<Counter>,
    /// Requests answered with a 5xx status.
    pub server_errors_total: Arc<Counter>,
    /// Worker recoveries after a panicking job (self-healing pool).
    pub worker_respawns_total: Arc<Counter>,
    /// Requests shed with `503` because the pending queue was full.
    pub shed_total: Arc<Counter>,
    /// Jobs queued or running in the worker pool, sampled on accept.
    pub queue_depth: Arc<Gauge>,
    /// `/predict` parse+predict latency (excludes queue wait).
    pub predict_latency: Arc<Histogram>,
    /// Time between accept and a worker picking the connection up.
    pub queue_wait: Arc<Histogram>,
    /// Fused predict calls dispatched by the batch scheduler.
    pub batches_total: Arc<Counter>,
    /// Requests coalesced per fused predict call.
    pub batch_size: Arc<Histogram>,
    /// `/predict` rows answered from the transform cache.
    pub transform_cache_hits_total: Arc<Counter>,
    /// `/predict` rows that had to be parsed and transformed.
    pub transform_cache_misses_total: Arc<Counter>,
    /// `/metrics` render latency (the scrape path observes itself).
    pub scrape_seconds: Arc<Histogram>,
    /// Bytes of the most recent `/metrics` exposition.
    pub scrape_bytes: Arc<Gauge>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh, zeroed metrics backed by a private registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests_total = registry.counter("dfp_serve_requests_total", "Requests received");
        let predictions_total = registry.counter("dfp_serve_predictions_total", "Rows predicted");
        let client_errors_total = registry.counter(
            "dfp_serve_client_errors_total",
            "Requests answered with a 4xx status",
        );
        let server_errors_total = registry.counter(
            "dfp_serve_server_errors_total",
            "Requests answered with a 5xx status",
        );
        let worker_respawns_total = registry.counter(
            "dfp_serve_worker_respawns_total",
            "Worker recoveries after a panicking job",
        );
        let shed_total = registry.counter(
            "dfp_serve_shed_total",
            "Requests shed because the pending queue was full",
        );
        let queue_depth = registry.gauge(
            "dfp_serve_queue_depth",
            "Jobs queued or running in the worker pool, sampled on accept",
        );
        let predict_latency = registry.histogram(
            "dfp_serve_predict_latency_seconds",
            "Predict call latency",
            &LATENCY_BUCKETS,
        );
        let queue_wait = registry.histogram(
            "dfp_serve_queue_wait_seconds",
            "Time between accept and worker pickup",
            &LATENCY_BUCKETS,
        );
        let batches_total = registry.counter(
            "dfp_serve_batches_total",
            "Fused predict calls dispatched by the batch scheduler",
        );
        let batch_size = registry.histogram(
            "dfp_serve_batch_size",
            "Requests coalesced per fused predict call",
            &BATCH_SIZE_BUCKETS,
        );
        let transform_cache_hits_total = registry.counter(
            "dfp_serve_transform_cache_hits_total",
            "Predict rows answered from the transform cache",
        );
        let transform_cache_misses_total = registry.counter(
            "dfp_serve_transform_cache_misses_total",
            "Predict rows parsed and transformed on a cache miss",
        );
        let scrape_seconds = registry.histogram(
            "dfp_scrape_seconds",
            "Time spent rendering the /metrics exposition",
            &LATENCY_BUCKETS,
        );
        let scrape_bytes = registry.gauge(
            "dfp_scrape_bytes",
            "Bytes of the most recent /metrics exposition",
        );
        Metrics {
            registry,
            requests_total,
            predictions_total,
            client_errors_total,
            server_errors_total,
            worker_respawns_total,
            shed_total,
            queue_depth,
            predict_latency,
            queue_wait,
            batches_total,
            batch_size,
            transform_cache_hits_total,
            transform_cache_misses_total,
            scrape_seconds,
            scrape_bytes,
        }
    }

    /// The private registry backing this server's families — the TSDB
    /// collector samples it, and the SLO engine registers its burn-rate
    /// gauges into it so they appear on this server's `/metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// One collector tick's worth of samples: every family in the private
    /// registry plus the synthetic `dfp_serve_errors_total` sum (kept so
    /// SLO specs can target the historical name).
    pub fn snapshot(&self) -> Vec<Sample> {
        let mut samples = self.registry.snapshot();
        samples.push(Sample {
            name: "dfp_serve_errors_total".to_string(),
            labels: String::new(),
            value: SampleValue::Counter(self.errors_total()),
        });
        samples
    }

    /// Counts one error response, split by status class (4xx vs 5xx).
    pub fn observe_error(&self, status: u16) {
        if (400..500).contains(&status) {
            self.client_errors_total.inc();
        } else if status >= 500 {
            self.server_errors_total.inc();
        }
    }

    /// Total error responses (client + server) — the value rendered under
    /// the historical `dfp_serve_errors_total` name.
    pub fn errors_total(&self) -> u64 {
        self.client_errors_total.get() + self.server_errors_total.get()
    }

    /// Folds the pool's monotonic respawn total into the counter. Called
    /// only from the accept thread, so the read-then-add is race-free.
    pub fn record_respawns(&self, total: u64) {
        let seen = self.worker_respawns_total.get();
        if total > seen {
            self.worker_respawns_total.add(total - seen);
        }
    }

    /// Records one `/predict` call's latency.
    pub fn observe_latency(&self, elapsed: Duration) {
        self.predict_latency.observe(elapsed);
    }

    /// Records one request's accept→worker queue wait.
    pub fn observe_queue_wait(&self, elapsed: Duration) {
        self.queue_wait.observe(elapsed);
    }

    /// Records the number of requests fused into one batch. The histogram
    /// machinery is nanos-backed; scaling by 1e9 stores the exact integer
    /// count in its "seconds" unit, so buckets and sum render precisely.
    pub fn observe_batch_size(&self, requests: usize) {
        self.batch_size
            .observe_nanos((requests as u64) * 1_000_000_000);
    }

    /// Number of latency observations so far.
    pub fn latency_count(&self) -> u64 {
        self.predict_latency.count()
    }

    /// Renders the Prometheus text exposition: this server's families, the
    /// compatibility `dfp_serve_errors_total` sum, then the process-wide
    /// pipeline/mining families.
    pub fn render(&self) -> String {
        let mut out = self.registry.render();
        out.push_str("# HELP dfp_serve_errors_total Requests answered with an error status\n");
        out.push_str("# TYPE dfp_serve_errors_total counter\n");
        out.push_str(&format!("dfp_serve_errors_total {}\n", self.errors_total()));
        // The global registry carries mining/selection/pipeline families;
        // touch() pre-registers the well-known ones so a scrape shows the
        // full schema even before the first fit or predict.
        dfp_obs::metrics::dfp::touch();
        dfp_obs::metrics::global().render_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render() {
        let m = Metrics::new();
        m.requests_total.add(3);
        m.observe_error(404);
        let text = m.render();
        assert!(text.contains("dfp_serve_requests_total 3"));
        assert!(text.contains("dfp_serve_client_errors_total 1"));
        assert!(text.contains("dfp_serve_server_errors_total 0"));
        assert!(text.contains("dfp_serve_errors_total 1"));
        assert!(text.contains("dfp_serve_predictions_total 0"));
    }

    #[test]
    fn errors_total_is_the_sum_of_both_classes() {
        let m = Metrics::new();
        m.observe_error(400);
        m.observe_error(413);
        m.observe_error(503);
        assert_eq!(m.client_errors_total.get(), 2);
        assert_eq!(m.server_errors_total.get(), 1);
        assert_eq!(m.errors_total(), 3);
        assert!(m.render().contains("dfp_serve_errors_total 3\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_micros(50)); // ≤ 0.0001
        m.observe_latency(Duration::from_millis(2)); // ≤ 0.005
        m.observe_latency(Duration::from_secs(2)); // +Inf only
        let text = m.render();
        assert!(text.contains("le=\"0.0001\"} 1\n"));
        assert!(text.contains("le=\"0.005\"} 2\n"));
        assert!(text.contains("dfp_serve_predict_latency_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("dfp_serve_predict_latency_seconds_count 3\n"));
        assert_eq!(m.latency_count(), 3);
    }

    #[test]
    fn histogram_sum_is_exact_decimal() {
        let m = Metrics::new();
        m.observe_latency(Duration::from_nanos(1_500_000_001));
        let text = m.render();
        assert!(
            text.contains("dfp_serve_predict_latency_seconds_sum 1.500000001\n"),
            "{text}"
        );
    }

    #[test]
    fn batch_size_histogram_counts_requests_exactly() {
        let m = Metrics::new();
        m.batches_total.inc();
        m.observe_batch_size(1);
        m.observe_batch_size(8);
        m.observe_batch_size(100); // beyond the last bound → +Inf only
        let text = m.render();
        assert!(
            text.contains("dfp_serve_batch_size_bucket{le=\"1\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("dfp_serve_batch_size_bucket{le=\"8\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("dfp_serve_batch_size_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("dfp_serve_batch_size_sum 109.000000000\n"),
            "{text}"
        );
        assert!(text.contains("dfp_serve_batches_total 1\n"));
    }

    #[test]
    fn cache_counters_render() {
        let m = Metrics::new();
        m.transform_cache_hits_total.add(5);
        m.transform_cache_misses_total.inc();
        let text = m.render();
        assert!(text.contains("dfp_serve_transform_cache_hits_total 5"));
        assert!(text.contains("dfp_serve_transform_cache_misses_total 1"));
    }

    #[test]
    fn respawns_fold_monotonically() {
        let m = Metrics::new();
        m.record_respawns(2);
        m.record_respawns(2); // no change
        m.record_respawns(5);
        assert_eq!(m.worker_respawns_total.get(), 5);
    }

    #[test]
    fn render_passes_conformance_check() {
        let m = Metrics::new();
        m.requests_total.inc();
        m.observe_error(400);
        m.observe_error(500);
        m.observe_latency(Duration::from_millis(3));
        m.observe_queue_wait(Duration::from_micros(40));
        m.queue_depth.set(7);
        let text = m.render();
        let stats = dfp_obs::promcheck::check(&text)
            .unwrap_or_else(|errs| panic!("conformance errors: {errs:?}\n{text}"));
        assert!(stats.families >= 10, "{stats:?}");
    }
}
