//! Server tuning knobs, with environment overrides.
//!
//! Every limit that used to be a hard-coded constant lives here: per-stream
//! I/O timeouts, the pending-work queue depth (load shedding), the maximum
//! request body, the maximum rows per prediction batch, and the per-request
//! deadline. [`ServerConfig::from_env`] reads the `DFP_SERVE_*` variables so
//! deployments can retune without a rebuild; [`ServerConfig::default`]
//! reads no environment variable, and its values preserve the historical
//! behavior.

use dfp_obs::SloSpec;
use std::time::Duration;

/// Tuning knobs for [`crate::serve_with_config`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Longest a single read or write on a connection may wait
    /// (`DFP_SERVE_IO_TIMEOUT_MS`); reads also stop at the request deadline.
    pub io_timeout: Duration,
    /// Pending connections allowed in the worker queue before new ones are
    /// shed with `503` (`DFP_SERVE_QUEUE_DEPTH`).
    pub queue_depth: usize,
    /// Largest accepted request body in bytes (`DFP_SERVE_MAX_BODY_BYTES`);
    /// bigger bodies get `413`.
    pub max_body_bytes: usize,
    /// Most CSV rows accepted per `/predict` batch (`DFP_SERVE_MAX_ROWS`);
    /// bigger batches get `413`.
    pub max_rows: usize,
    /// Wall-clock budget per request, measured from accept
    /// (`DFP_SERVE_DEADLINE_MS`); requests still unanswered at the deadline
    /// get `503` instead of holding a worker, and a connection whose request
    /// has not fully arrived by then is closed without an answer.
    pub request_deadline: Duration,
    /// Worker threads; `0` resolves like the parallel runtime
    /// (`DFP_THREADS`, else the machine).
    pub threads: usize,
    /// Most queued `/predict` requests coalesced into one batched predict
    /// call (`DFP_SERVE_BATCH_MAX`); `1` disables the batch scheduler and
    /// every worker predicts inline, the historical behavior.
    pub batch_max: usize,
    /// Longest the batch scheduler lingers for more requests after the
    /// first arrives (`DFP_SERVE_BATCH_WAIT_US`, microseconds). The linger
    /// is always clamped so no queued request waits past its deadline.
    pub batch_wait: Duration,
    /// Whether the in-memory transform cache for repeated feature rows is
    /// on (`DFP_CACHE`; `0`/`off`/`false` disables, anything else enables).
    pub cache: bool,
    /// Managed model-registry root directory (`DFP_REGISTRY_ROOT`). When
    /// set, `dfp-serve` opens a multi-model registry there and exposes the
    /// `/m/{name}/…` routes; `None` (the default) keeps the classic
    /// single-model server.
    pub registry_root: Option<String>,
    /// Shared-secret admin token (`DFP_ADMIN_TOKEN`). When set, the
    /// `PUT /m/{name}` hot-swap endpoint requires a matching
    /// `X-Admin-Token` header and answers `401` otherwise. When unset the
    /// admin route is open to anything that can reach the listener — the
    /// data plane and the admin plane share one bind address, so set the
    /// token (or keep the listener on loopback) in production.
    pub admin_token: Option<String>,
    /// Whether the in-process TSDB stack (background collector, windowed
    /// percentiles, SLO engine, tail sampler, `/dashboard`,
    /// `/metrics/history`, `/alerts`, `/debug/traces`) runs (`DFP_TSDB`;
    /// `0`/`off`/`false` disables, default on).
    pub tsdb: bool,
    /// Collector sampling cadence (`DFP_TSDB_INTERVAL_MS`, min 10 ms).
    pub tsdb_interval: Duration,
    /// History retention horizon (`DFP_TSDB_RETAIN`; plain seconds or a
    /// `250ms`/`90s`/`15m`/`2h` suffix).
    pub tsdb_retain: Duration,
    /// Path to a JSON SLO spec file (`DFP_SLO_FILE`); parsed at server
    /// start and merged with [`Self::slos`]. A missing or malformed file is
    /// logged and skipped — serving must come up regardless.
    pub slo_file: Option<String>,
    /// Programmatic SLO specs, evaluated alongside any from
    /// [`Self::slo_file`].
    pub slos: Vec<SloSpec>,
    /// Tail-sampled trace reservoir capacity (`DFP_TAIL_CAP`, default 64);
    /// `DFP_TAIL=0/off/false` forces it to `0`, which disables capture.
    pub tail_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_timeout: Duration::from_secs(10),
            queue_depth: 1024,
            max_body_bytes: 16 * 1024 * 1024,
            max_rows: 1_000_000,
            request_deadline: Duration::from_secs(30),
            threads: 0,
            batch_max: 8,
            batch_wait: Duration::from_micros(200),
            cache: true,
            registry_root: None,
            admin_token: None,
            tsdb: true,
            tsdb_interval: Duration::from_millis(1000),
            tsdb_retain: Duration::from_secs(3600),
            slo_file: None,
            slos: Vec::new(),
            tail_capacity: 64,
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by any `DFP_SERVE_*` variables that are set.
    /// Unparseable values fall back to the default (serving must come up
    /// even with a typo in the environment).
    pub fn from_env() -> Self {
        let mut cfg = ServerConfig::default();
        if let Some(ms) = env_u64("DFP_SERVE_IO_TIMEOUT_MS") {
            cfg.io_timeout = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = env_u64("DFP_SERVE_QUEUE_DEPTH") {
            cfg.queue_depth = (n as usize).max(1);
        }
        if let Some(n) = env_u64("DFP_SERVE_MAX_BODY_BYTES") {
            cfg.max_body_bytes = n as usize;
        }
        if let Some(n) = env_u64("DFP_SERVE_MAX_ROWS") {
            cfg.max_rows = (n as usize).max(1);
        }
        if let Some(ms) = env_u64("DFP_SERVE_DEADLINE_MS") {
            cfg.request_deadline = Duration::from_millis(ms.max(1));
        }
        if let Some(n) = env_u64("DFP_SERVE_BATCH_MAX") {
            cfg.batch_max = (n as usize).max(1);
        }
        if let Some(us) = env_u64("DFP_SERVE_BATCH_WAIT_US") {
            cfg.batch_wait = Duration::from_micros(us);
        }
        if let Ok(v) = std::env::var("DFP_CACHE") {
            let v = v.trim().to_ascii_lowercase();
            cfg.cache = !(v == "0" || v == "off" || v == "false");
        }
        if let Ok(root) = std::env::var("DFP_REGISTRY_ROOT") {
            let root = root.trim().to_string();
            if !root.is_empty() {
                cfg.registry_root = Some(root);
            }
        }
        if let Ok(token) = std::env::var("DFP_ADMIN_TOKEN") {
            let token = token.trim().to_string();
            if !token.is_empty() {
                cfg.admin_token = Some(token);
            }
        }
        if let Ok(v) = std::env::var("DFP_TSDB") {
            let v = v.trim().to_ascii_lowercase();
            cfg.tsdb = !(v == "0" || v == "off" || v == "false");
        }
        if let Some(ms) = env_u64("DFP_TSDB_INTERVAL_MS") {
            cfg.tsdb_interval = Duration::from_millis(ms.max(10));
        }
        if let Some(d) = std::env::var("DFP_TSDB_RETAIN")
            .ok()
            .and_then(|v| dfp_obs::tsdb::parse_duration(v.trim()))
        {
            cfg.tsdb_retain = d;
        }
        if let Ok(path) = std::env::var("DFP_SLO_FILE") {
            let path = path.trim().to_string();
            if !path.is_empty() {
                cfg.slo_file = Some(path);
            }
        }
        if let Some(n) = env_u64("DFP_TAIL_CAP") {
            cfg.tail_capacity = n as usize;
        }
        if let Ok(v) = std::env::var("DFP_TAIL") {
            let v = v.trim().to_ascii_lowercase();
            if v == "0" || v == "off" || v == "false" {
                cfg.tail_capacity = 0;
            }
        }
        cfg
    }

    /// Replaces the per-connection I/O timeout.
    pub fn with_io_timeout(mut self, t: Duration) -> Self {
        self.io_timeout = t;
        self
    }

    /// Replaces the pending-queue depth.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Replaces the maximum request body size.
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Replaces the per-batch row cap.
    pub fn with_max_rows(mut self, rows: usize) -> Self {
        self.max_rows = rows.max(1);
        self
    }

    /// Replaces the per-request deadline.
    pub fn with_request_deadline(mut self, d: Duration) -> Self {
        self.request_deadline = d;
        self
    }

    /// Replaces the worker-thread count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the batch coalescing cap (`1` disables batching).
    pub fn with_batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// Replaces the batch linger budget.
    pub fn with_batch_wait(mut self, d: Duration) -> Self {
        self.batch_wait = d;
        self
    }

    /// Enables or disables the serving transform cache.
    pub fn with_cache(mut self, on: bool) -> Self {
        self.cache = on;
        self
    }

    /// Points the server at a managed model-registry root (enables the
    /// `/m/{name}/…` routes in `dfp-serve`).
    pub fn with_registry_root(mut self, root: impl Into<String>) -> Self {
        self.registry_root = Some(root.into());
        self
    }

    /// Requires `X-Admin-Token: <token>` on the `PUT /m/{name}` admin
    /// hot-swap endpoint (`401` otherwise).
    pub fn with_admin_token(mut self, token: impl Into<String>) -> Self {
        self.admin_token = Some(token.into());
        self
    }

    /// Enables or disables the in-process TSDB/SLO/tail stack.
    pub fn with_tsdb(mut self, on: bool) -> Self {
        self.tsdb = on;
        self
    }

    /// Replaces the collector sampling cadence (clamped to ≥ 10 ms).
    pub fn with_tsdb_interval(mut self, d: Duration) -> Self {
        self.tsdb_interval = d.max(Duration::from_millis(10));
        self
    }

    /// Replaces the history retention horizon.
    pub fn with_tsdb_retain(mut self, d: Duration) -> Self {
        self.tsdb_retain = d;
        self
    }

    /// Points the SLO engine at a JSON spec file.
    pub fn with_slo_file(mut self, path: impl Into<String>) -> Self {
        self.slo_file = Some(path.into());
        self
    }

    /// Replaces the programmatic SLO specs.
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// Replaces the tail-sampled trace reservoir capacity (`0` disables).
    pub fn with_tail_capacity(mut self, cap: usize) -> Self {
        self.tail_capacity = cap;
        self
    }

    /// The resolved worker count.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            dfp_par::worker_threads()
        } else {
            dfp_par::resolve_workers(Some(self.threads))
        }
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_preserve_historical_limits() {
        let cfg = ServerConfig::default();
        assert_eq!(cfg.io_timeout, Duration::from_secs(10));
        assert_eq!(cfg.max_body_bytes, 16 * 1024 * 1024);
        assert!(cfg.queue_depth >= 1);
        assert!(cfg.max_rows >= 1);
    }

    #[test]
    fn builders_mutate() {
        let cfg = ServerConfig::default()
            .with_io_timeout(Duration::from_millis(250))
            .with_queue_depth(2)
            .with_max_body_bytes(1024)
            .with_max_rows(10)
            .with_request_deadline(Duration::from_secs(1))
            .with_threads(3);
        assert_eq!(cfg.io_timeout, Duration::from_millis(250));
        assert_eq!(cfg.queue_depth, 2);
        assert_eq!(cfg.max_body_bytes, 1024);
        assert_eq!(cfg.max_rows, 10);
        assert_eq!(cfg.request_deadline, Duration::from_secs(1));
        assert_eq!(cfg.threads, 3);
    }

    #[test]
    fn zeroes_clamped() {
        let cfg = ServerConfig::default()
            .with_queue_depth(0)
            .with_max_rows(0)
            .with_batch_max(0);
        assert_eq!(cfg.queue_depth, 1);
        assert_eq!(cfg.max_rows, 1);
        assert_eq!(cfg.batch_max, 1);
    }

    #[test]
    fn batching_knobs_default_on() {
        let cfg = ServerConfig::default();
        assert!(cfg.batch_max > 1);
        assert!(cfg.cache);
        let off = cfg
            .with_batch_max(1)
            .with_batch_wait(Duration::from_micros(50))
            .with_cache(false);
        assert_eq!(off.batch_max, 1);
        assert_eq!(off.batch_wait, Duration::from_micros(50));
        assert!(!off.cache);
    }
}
