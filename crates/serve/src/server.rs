//! The serving loop: a `TcpListener` accept thread feeding a fixed worker
//! pool, four routes, and graceful shutdown.
//!
//! Routes:
//!
//! * `POST /predict` — body is CSV attribute rows (no class column), answer
//!   is one predicted class name per line;
//! * `GET /healthz` — liveness probe, always `ok`;
//! * `GET /readyz` — readiness probe: `200` once the model can serve
//!   predictions (it carries a schema), `503` otherwise;
//! * `GET /metrics` — Prometheus text exposition of the serving counters
//!   (the scrape path observes itself via `dfp_scrape_seconds` /
//!   `dfp_scrape_bytes`);
//! * `GET /alerts` — SLO burn-rate alert states as JSON;
//! * `GET /metrics/history` — the in-process TSDB's retained series,
//!   windowed percentiles and audit events as JSON;
//! * `GET /debug/traces` — tail-sampled slow/5xx request captures as JSON;
//! * `GET /dashboard` — a self-contained HTML operator view (sparklines,
//!   alert states, registry events, kept traces).
//!
//! The last four exist when the TSDB stack is enabled ([`ServerConfig`]
//! `tsdb`, default on) and answer `404` otherwise.
//!
//! Transport: one accept thread hands each connection to a pooled worker,
//! which reads one request, answers it and closes the connection.
//!
//! Robustness: all limits come from [`ServerConfig`] (env-overridable);
//! the pool recovers panicking workers in place (`worker_respawns_total`);
//! connections beyond the pending-queue depth are shed with `503` +
//! `Retry-After` instead of queueing unboundedly; and each request carries a
//! deadline from accept time so an overloaded server answers `503` rather
//! than holding a worker past its budget, and a client that trickles its
//! bytes is cut off at the deadline instead of holding a worker until it
//! finishes.
//!
//! Shutdown: [`ServerHandle::shutdown`] (or dropping the handle) raises a
//! flag and pokes the listener with a loopback connection so the blocking
//! `accept` observes it; the accept thread then drops the pool, which joins
//! every worker.

use crate::batch::BatchScheduler;
use crate::cache::TransformCache;
use crate::config::ServerConfig;
use crate::http::{read_request_limited, render_response, HttpError, Request};
use crate::metrics::Metrics;
use crate::observe::ServeObs;
use crate::pool::ThreadPool;
use crate::rows::{data_lines, parse_row_line, render_labels, RowsError};
use dfp_core::PatternClassifier;
use dfp_data::dataset::{Dataset, Value};
use dfp_data::schema::ClassId;
use dfp_registry::{ModelRegistry, SwapError};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `Retry-After` seconds suggested to shed or deadline-expired clients.
const RETRY_AFTER_SECS: &str = "1";

/// Body of every deadline-exceeded `503`, constructed in one place so the
/// queue-wait check, the parse-stage check and the batch-reply timeout
/// cannot drift apart.
const DEADLINE_EXCEEDED_BODY: &str = "request deadline exceeded\n";

/// Body of the load-shedding `503`.
const SHED_BODY: &[u8] = b"server overloaded, retry later\n";

/// Longest the accept thread spends draining a shed connection so its
/// close is a clean FIN instead of an RST.
const SHED_DRAIN_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(250);

/// Longest propagated `X-Request-Id` accepted verbatim; anything longer (or
/// containing non-printable bytes) is replaced by a generated id.
const MAX_REQUEST_ID: usize = 64;

/// Monotonic per-process sequence for generated request ids.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Generates a process-unique request id (`<pid hex>-<seq hex>`).
fn fresh_request_id() -> String {
    format!(
        "{:x}-{:06x}",
        std::process::id(),
        NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
    )
}

/// The id to tag this request with: the client's `X-Request-Id` when it is
/// short and printable (trace continuity across services), otherwise fresh.
fn request_id_for(request: &Request) -> String {
    match request.header("x-request-id") {
        Some(id)
            if !id.is_empty()
                && id.len() <= MAX_REQUEST_ID
                && id.bytes().all(|b| (0x21..=0x7e).contains(&b)) =>
        {
            id.to_string()
        }
        _ => fresh_request_id(),
    }
}

/// A running server. Dropping the handle shuts the server down exactly like
/// [`Self::shutdown`]: stop accepting, drain in-flight work, join threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    accept_thread: Option<JoinHandle<()>>,
    // Held so the batcher thread outlives every worker; joined when the
    // last Arc drops, after the accept thread (and its pool) are gone.
    scheduler: Option<Arc<BatchScheduler>>,
    // The TSDB/SLO/tail stack; dropping it (after the accept thread and
    // its workers are gone) stops the collector thread.
    obs: Option<Arc<ServeObs>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live serving metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The observability stack, when the TSDB is enabled.
    pub fn obs(&self) -> Option<&ServeObs> {
        self.obs.as_deref()
    }

    /// Stops accepting, drains in-flight work and joins all threads.
    /// Equivalent to dropping the handle; kept for explicitness at call
    /// sites.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Retire the batcher BEFORE joining the worker pool. Everything
        // already queued is answered, and any worker that submits after
        // this point is refused and predicts inline — so no worker can
        // block on (or spuriously 500 from) a reply channel whose batcher
        // is gone. The old order (pool first) had a window where a drained
        // batch's reply raced the join.
        if let Some(s) = &self.scheduler {
            s.shutdown();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.scheduler.take();
        // Workers are gone; stopping the collector last means every sample
        // they produced is still collected into the final ticks.
        self.obs.take();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `model` on a pool of
/// `threads` workers, with all other limits taken from the environment
/// ([`ServerConfig::from_env`]). Returns once the listener is bound —
/// serving continues on background threads until [`ServerHandle::shutdown`]
/// or the handle is dropped.
pub fn serve(model: PatternClassifier, addr: &str, threads: usize) -> io::Result<ServerHandle> {
    serve_with_config(model, addr, ServerConfig::from_env().with_threads(threads))
}

/// Binds `addr` and serves `model` with explicit [`ServerConfig`] limits.
pub fn serve_with_config(
    model: PatternClassifier,
    addr: &str,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_impl(Some(model), None, addr, cfg)
}

/// Binds `addr` and serves a multi-model [`ModelRegistry`] (routes under
/// `/m/{name}/…` plus the `PUT /m/{name}` admin hot-swap endpoint), with an
/// optional default `model` behind the classic root routes. Without a
/// default model, root `/predict` answers `404` and root `/readyz` reports
/// readiness as "at least one registry model can serve".
pub fn serve_registry_with_config(
    model: Option<PatternClassifier>,
    registry: Arc<ModelRegistry>,
    addr: &str,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_impl(model, Some(registry), addr, cfg)
}

fn serve_impl(
    model: Option<PatternClassifier>,
    registry: Option<Arc<ModelRegistry>>,
    addr: &str,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let threads = cfg.resolved_threads();
    let engine = Arc::new(Engine::new(model, registry, cfg));
    let metrics = Arc::clone(&engine.metrics);
    let scheduler = engine.scheduler.clone();
    let obs = engine.obs.clone();

    let accept_thread = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("dfp-serve-accept".into())
            .spawn(move || {
                let pool = ThreadPool::bounded(threads, engine.cfg.queue_depth);
                accept_loop(listener, engine, pool, stop);
                // pool drops here: channel closes, workers drain and join
            })?
    };

    Ok(ServerHandle {
        addr,
        stop,
        metrics,
        accept_thread: Some(accept_thread),
        scheduler,
        obs,
    })
}

/// Blocking accept, shed at the accept thread when the pending queue is
/// full, one pooled worker per connection.
fn accept_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    pool: ThreadPool,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Chaos hook: a simulated accept-path failure drops the
        // connection as a flaky network would.
        if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("serve.accept") {
            continue;
        }
        // Surface pool self-healing in /metrics; refreshed on
        // every accept so scrapes observe earlier respawns.
        engine.metrics.record_respawns(pool.respawns());
        engine.metrics.queue_depth.set(pool.pending() as i64);
        // Load shedding: a full pending queue answers 503 right
        // here on the accept thread instead of queueing without
        // bound (the check is approximate under races, which
        // only flexes the bound by the number of accepts in
        // flight — there is exactly one accept thread).
        if pool.pending() >= engine.cfg.queue_depth {
            let _ = stream.set_write_timeout(Some(engine.cfg.io_timeout));
            let _ = io::Write::write_all(&mut stream, &engine.shed_response());
            // The request was never read; closing now would RST
            // the socket and can destroy the 503 still in
            // flight. Signal end-of-response and drain what the
            // client sent so the close is a clean FIN. The read
            // timeout bounds how long a misbehaving client can
            // hold the accept thread.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(SHED_DRAIN_TIMEOUT));
            let mut sink = [0u8; 4096];
            while let Ok(n) = io::Read::read(&mut stream, &mut sink) {
                if n == 0 {
                    break;
                }
            }
            continue;
        }
        let accepted = Instant::now();
        let engine = Arc::clone(&engine);
        pool.execute(move || handle_connection(stream, &engine, accepted));
    }
}

/// One pooled worker serving one blocking connection end to end: read,
/// answer via the shared [`Engine`], write, close.
fn handle_connection(mut stream: TcpStream, engine: &Engine, accepted: Instant) {
    // Chaos hook on the worker path: `panic` exercises pool self-healing,
    // `sleep` exercises queue backpressure and request deadlines.
    dfp_fault::faultpoint!("serve.worker");
    // Accept→worker pickup time is the backpressure signal: it grows before
    // requests start missing deadlines, so it gets its own histogram.
    let queue_wait = accepted.elapsed();
    let _ = stream.set_read_timeout(Some(engine.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(engine.cfg.io_timeout));
    let mut reader = DeadlineRead {
        stream: &stream,
        deadline: accepted + engine.cfg.request_deadline,
        io_timeout: engine.cfg.io_timeout,
    };
    let bytes = match read_request_limited(&mut reader, engine.cfg.max_body_bytes) {
        Ok(request) => engine.respond_to(&request, accepted, queue_wait),
        Err(e) => match engine.reject_to(&e, accepted) {
            Some(bytes) => bytes,
            None => return, // peer went away, or its bytes missed the deadline
        },
    };
    let _ = io::Write::write_all(&mut stream, &bytes);
}

/// The shortest wait a read gets once the deadline is reached: long enough
/// to take bytes that have already arrived (so a request that queued past
/// its deadline is still read and answered `503`), too short for a client
/// still sending to keep the worker.
const MIN_READ_WAIT: Duration = Duration::from_millis(1);

/// Reads a connection within the request deadline: each read waits at most
/// `min(io_timeout, deadline − now)`, floored at [`MIN_READ_WAIT`], so a
/// client that trickles its bytes cannot hold a worker past the request's
/// budget. A read that runs out of
/// time fails like any read timeout, and the connection closes unanswered.
/// The socket's timeout is touched only within `io_timeout` of the
/// deadline; before that the one set at pickup already bounds each read.
struct DeadlineRead<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    io_timeout: Duration,
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left < self.io_timeout {
            self.stream
                .set_read_timeout(Some(left.max(MIN_READ_WAIT)))?;
        }
        self.stream.read(buf)
    }
}

/// Everything a worker needs above the socket: the model(s), limits,
/// metrics, batch scheduler, transform cache and observability stack, plus
/// the request → response-bytes logic.
struct Engine {
    model: Option<Arc<PatternClassifier>>,
    registry: Option<Arc<ModelRegistry>>,
    metrics: Arc<Metrics>,
    cfg: Arc<ServerConfig>,
    scheduler: Option<Arc<BatchScheduler>>,
    cache: Option<Arc<TransformCache>>,
    obs: Option<Arc<ServeObs>>,
}

impl Engine {
    /// Assembles the shared serving state: metrics, the batch scheduler
    /// (when `batch_max > 1` and a default model exists), the transform
    /// cache and the TSDB stack, per `cfg`.
    fn new(
        model: Option<PatternClassifier>,
        registry: Option<Arc<ModelRegistry>>,
        cfg: ServerConfig,
    ) -> Engine {
        let model = model.map(Arc::new);
        let metrics = Arc::new(Metrics::new());
        // batch_max == 1 disables the scheduler entirely: every worker
        // predicts inline, the historical behavior. The scheduler is bound
        // to the default model; registry-routed requests always predict
        // inline against their own version snapshot.
        let scheduler = match &model {
            Some(model) if cfg.batch_max > 1 => Some(Arc::new(BatchScheduler::start(
                Arc::clone(model),
                Arc::clone(&metrics),
                cfg.batch_max,
                cfg.batch_wait,
            ))),
            _ => None,
        };
        let cache = cfg
            .cache
            .then(|| Arc::new(TransformCache::new(crate::cache::DEFAULT_CAP)));
        let obs = cfg
            .tsdb
            .then(|| ServeObs::start(&cfg, &metrics, registry.as_ref()))
            .flatten()
            .map(Arc::new);
        Engine {
            model,
            registry,
            metrics,
            cfg: Arc::new(cfg),
            scheduler,
            cache,
            obs,
        }
    }

    /// Answers a complete request: deadline check, routing, metrics, tail
    /// capture, access log — returns the rendered response bytes.
    /// `queue_wait` is the accept→pickup delay already incurred.
    fn respond_to(&self, request: &Request, accepted: Instant, queue_wait: Duration) -> Vec<u8> {
        self.metrics.observe_queue_wait(queue_wait);
        let mut sp = dfp_obs::span("serve.request");
        sp.attr("queue_wait_ns", queue_wait.as_nanos());
        // Tail sampling: every request offers a capture; whether it is kept
        // is decided at the end (5xx, or slower than the live windowed p99).
        let mut capture = self.obs.as_deref().and_then(|o| o.tail().begin());
        let deadline = accepted + self.cfg.request_deadline;
        self.metrics.requests_total.inc();
        let rid = request_id_for(request);
        if sp.is_active() {
            sp.attr("method", &request.method);
            sp.attr("path", &request.path);
            sp.attr("request_id", &rid);
        }
        let (status, reason, body): (u16, &'static str, String) = if Instant::now() > deadline {
            // Queue wait alone exhausted the request budget — answer cheaply.
            (
                503,
                "Service Unavailable",
                DEADLINE_EXCEEDED_BODY.to_string(),
            )
        } else {
            route(
                request,
                self.model.as_deref(),
                self.registry.as_deref(),
                &self.metrics,
                &self.cfg,
                deadline,
                self.scheduler.as_deref(),
                self.cache.as_deref(),
                self.obs.as_deref(),
                &rid,
                capture.as_mut(),
            )
        };
        sp.attr("status", status);
        let bytes = self.render(
            &rid,
            &request.method,
            &request.path,
            status,
            reason,
            &body,
            accepted,
        );
        if let (Some(o), Some(capture)) = (self.obs.as_deref(), capture.take()) {
            o.tail().finish(
                capture,
                &rid,
                &request.method,
                &request.path,
                status,
                queue_wait.as_nanos() as u64,
            );
        }
        bytes
    }

    /// The response to a stream that never produced a parseable request:
    /// `413` for limit violations, `400` for malformed bytes, `None` for a
    /// peer that simply went away (close silently).
    fn reject_to(&self, err: &HttpError, accepted: Instant) -> Option<Vec<u8>> {
        let (status, reason, body): (u16, &'static str, String) = match err {
            HttpError::Io => return None,
            HttpError::TooLarge => (413, "Payload Too Large", "request too large\n".to_string()),
            HttpError::BadRequest(why) => (400, "Bad Request", format!("{why}\n")),
        };
        self.metrics.requests_total.inc();
        Some(self.render(
            &fresh_request_id(),
            "-",
            "-",
            status,
            reason,
            &body,
            accepted,
        ))
    }

    /// The load-shedding `503` (queue full), with its metrics and warn log,
    /// sent by the accept thread before the request is read.
    fn shed_response(&self) -> Vec<u8> {
        let rid = fresh_request_id();
        self.metrics.requests_total.inc();
        self.metrics.observe_error(503);
        self.metrics.shed_total.inc();
        let bytes = render_response(
            503,
            "Service Unavailable",
            "text/plain",
            &[("Retry-After", RETRY_AFTER_SECS), ("X-Request-Id", &rid)],
            SHED_BODY,
        );
        dfp_obs::log::warn(
            "dfp_serve",
            "request shed: pending queue full",
            &[("request_id", &rid), ("status", "503")],
        );
        bytes
    }

    /// Renders the response (always tagged `X-Request-Id`; `Retry-After` on
    /// `503`/`409`), counts 4xx/5xx in the split error counters, and emits
    /// one structured access-log event.
    #[allow(clippy::too_many_arguments)]
    fn render(
        &self,
        rid: &str,
        method: &str,
        path: &str,
        status: u16,
        reason: &str,
        body: &str,
        accepted: Instant,
    ) -> Vec<u8> {
        if status >= 400 {
            self.metrics.observe_error(status);
        }
        let mut headers: Vec<(&str, &str)> = vec![("X-Request-Id", rid)];
        // 503 = shed/overload, 409 = concurrent swap: both are
        // retryable-later conditions the client backoff honors.
        if status == 503 || status == 409 {
            headers.push(("Retry-After", RETRY_AFTER_SECS));
        }
        // Observability endpoints answer HTML/JSON; error bodies are always
        // plain text regardless of path.
        let content_type = if status < 400 {
            match path {
                "/dashboard" => "text/html; charset=utf-8",
                "/alerts" | "/metrics/history" | "/debug/traces" => "application/json",
                _ => "text/plain",
            }
        } else {
            "text/plain"
        };
        let bytes = render_response(status, reason, content_type, &headers, body.as_bytes());
        if dfp_obs::log::enabled(dfp_obs::log::Level::Info) {
            let status = status.to_string();
            let elapsed_us = accepted.elapsed().as_micros().to_string();
            dfp_obs::log::info(
                "dfp_serve",
                "request",
                &[
                    ("method", method),
                    ("path", path),
                    ("status", &status),
                    ("request_id", rid),
                    ("elapsed_us", &elapsed_us),
                ],
            );
        }
        bytes
    }
}

#[allow(clippy::too_many_arguments)]
fn route(
    request: &Request,
    model: Option<&PatternClassifier>,
    registry: Option<&ModelRegistry>,
    metrics: &Metrics,
    cfg: &ServerConfig,
    deadline: Instant,
    scheduler: Option<&BatchScheduler>,
    cache: Option<&TransformCache>,
    obs: Option<&ServeObs>,
    rid: &str,
    capture: Option<&mut dfp_obs::tail::TailCapture>,
) -> (u16, &'static str, String) {
    if request.path.starts_with("/m/") {
        return route_model(request, registry, metrics, cfg, deadline, rid, capture);
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "OK", "ok\n".to_string()),
        ("GET", "/readyz") => {
            let Some(model) = model else {
                return registry_readyz(registry);
            };
            if model.schema().is_some() {
                // Ready but degraded is still ready — the model answers
                // predictions — so the report rides in the body, not the
                // status, and the `dfp_pipeline_degraded` gauge in /metrics.
                let report = model.degradation();
                if report.is_degraded() {
                    let why = report
                        .mining_stopped_by
                        .map(|r| r.to_string())
                        .unwrap_or_else(|| "unknown".to_string());
                    (
                        200,
                        "OK",
                        format!("ready (degraded: mining stopped by {why})\n"),
                    )
                } else {
                    (200, "OK", "ready\n".to_string())
                }
            } else {
                (
                    503,
                    "Service Unavailable",
                    "model artifact carries no schema; not ready\n".to_string(),
                )
            }
        }
        ("GET", "/metrics") => {
            // The scrape path observes itself: render latency and byte size
            // land in the same exposition the next scrape sees.
            let started = Instant::now();
            let mut out = metrics.render();
            if let Some(reg) = registry {
                reg.render_metrics_into(&mut out);
            }
            metrics.scrape_seconds.observe(started.elapsed());
            metrics.scrape_bytes.set(out.len() as i64);
            (200, "OK", out)
        }
        ("GET", "/alerts") => match obs {
            Some(o) => {
                let now = dfp_obs::tsdb::now_unix_ms();
                let body = match o.slo() {
                    Some(engine) => engine.render_alerts_json(now),
                    None => format!("{{\"now_ms\":{now},\"firing\":0,\"alerts\":[]}}"),
                };
                (200, "OK", body)
            }
            None => (404, "Not Found", "tsdb disabled (DFP_TSDB=0)\n".to_string()),
        },
        ("GET", "/metrics/history") => match obs {
            Some(o) => (
                200,
                "OK",
                o.tsdb()
                    .render_history_json(dfp_obs::tsdb::now_unix_ms(), 240),
            ),
            None => (404, "Not Found", "tsdb disabled (DFP_TSDB=0)\n".to_string()),
        },
        ("GET", "/debug/traces") => match obs {
            Some(o) => (
                200,
                "OK",
                o.tail().render_traces_json(dfp_obs::tsdb::now_unix_ms()),
            ),
            None => (404, "Not Found", "tsdb disabled (DFP_TSDB=0)\n".to_string()),
        },
        ("GET", "/dashboard") => match obs {
            Some(o) => (
                200,
                "OK",
                dfp_obs::dashboard::render(
                    "dfp-serve",
                    o.tsdb(),
                    o.slo(),
                    Some(o.tail()),
                    dfp_obs::tsdb::now_unix_ms(),
                ),
            ),
            None => (404, "Not Found", "tsdb disabled (DFP_TSDB=0)\n".to_string()),
        },
        ("POST", "/predict") => match model {
            Some(m) => predict(
                request, m, metrics, cfg, deadline, scheduler, cache, rid, capture,
            ),
            None => (
                404,
                "Not Found",
                "no default model loaded; POST to /m/{name}/predict\n".to_string(),
            ),
        },
        ("GET", "/predict") => (
            405,
            "Method Not Allowed",
            "POST CSV rows to /predict\n".to_string(),
        ),
        _ => (404, "Not Found", "not found\n".to_string()),
    }
}

/// Root `/readyz` for a registry-only server: ready when at least one model
/// has a valid current version.
fn registry_readyz(registry: Option<&ModelRegistry>) -> (u16, &'static str, String) {
    let Some(registry) = registry else {
        return (
            503,
            "Service Unavailable",
            "no model and no registry configured; not ready\n".to_string(),
        );
    };
    let ready: Vec<String> = registry
        .names()
        .into_iter()
        .filter(|n| registry.model(n).and_then(|s| s.current()).is_some())
        .collect();
    if ready.is_empty() {
        (
            503,
            "Service Unavailable",
            "no registry model has a valid version; not ready\n".to_string(),
        )
    } else {
        (200, "OK", format!("ready (models: {})\n", ready.join(",")))
    }
}

/// Routes `/m/{name}/predict`, `/m/{name}/readyz` and the `PUT /m/{name}`
/// admin hot-swap endpoint.
#[allow(clippy::too_many_arguments)]
fn route_model(
    request: &Request,
    registry: Option<&ModelRegistry>,
    metrics: &Metrics,
    cfg: &ServerConfig,
    deadline: Instant,
    rid: &str,
    capture: Option<&mut dfp_obs::tail::TailCapture>,
) -> (u16, &'static str, String) {
    let Some(registry) = registry else {
        return (
            404,
            "Not Found",
            "no model registry configured\n".to_string(),
        );
    };
    let rest = &request.path["/m/".len()..];
    let (name, action) = match rest.split_once('/') {
        Some((n, a)) => (n, a),
        None => (rest, ""),
    };
    match (request.method.as_str(), action) {
        // The hot-swap endpoint shares the data-plane listener, so when an
        // admin token is configured it is what stands between any client
        // that can reach /predict and replacing the production model.
        ("PUT", "") => match &cfg.admin_token {
            Some(expected) if request.header("x-admin-token") != Some(expected.as_str()) => (
                401,
                "Unauthorized",
                "missing or invalid X-Admin-Token\n".to_string(),
            ),
            _ => admin_swap(request, registry, name),
        },
        ("GET", "readyz") => match registry.model(name) {
            None => (404, "Not Found", format!("unknown model '{name}'\n")),
            Some(slot) => match slot.current() {
                Some(v) => (200, "OK", format!("ready (version {})\n", v.version)),
                None => (
                    503,
                    "Service Unavailable",
                    format!("model '{name}' has no valid version; not ready\n"),
                ),
            },
        },
        ("POST", "predict") => {
            let Some(slot) = registry.model(name) else {
                return (404, "Not Found", format!("unknown model '{name}'\n"));
            };
            // Holding the version Arc for the whole request is the drain
            // contract: a concurrent swap retires this version only after
            // the last in-flight reference drops.
            let Some(version) = slot.current() else {
                return (
                    503,
                    "Service Unavailable",
                    format!("model '{name}' has no valid version; not ready\n"),
                );
            };
            slot.requests().inc();
            let start = Instant::now();
            // Registry models predict inline: the batch scheduler and the
            // transform cache are bound to the default model, and neither
            // is version-safe across hot-swaps.
            let answer = predict(
                request,
                &version.model,
                metrics,
                cfg,
                deadline,
                None,
                None,
                rid,
                capture,
            );
            slot.latency().observe(start.elapsed());
            if answer.0 == 200 {
                slot.predictions().add(answer.2.lines().count() as u64);
            }
            answer
        }
        ("GET", "predict") => (
            405,
            "Method Not Allowed",
            "POST CSV rows to /m/{name}/predict\n".to_string(),
        ),
        _ => (404, "Not Found", "not found\n".to_string()),
    }
}

/// The serving layer's registry validation hook: the canary a candidate
/// artifact must pass before a hot-swap flips the `CURRENT` pointer (and
/// before recovery chooses it at boot). It exercises exactly the serving
/// path — parse the stored probe CSV row against the candidate's schema,
/// then predict it; without a stored probe it falls back to a featureless
/// predict. Install with
/// [`dfp_registry::ModelRegistry::open_with_validator`].
pub fn registry_validator() -> dfp_registry::Validator {
    Arc::new(
        |model: &PatternClassifier, probe: Option<&str>| -> Result<(), String> {
            let Some(schema) = model.schema() else {
                return Err("artifact carries no schema; not servable".to_string());
            };
            match probe {
                Some(text) => {
                    let dataset = crate::rows::parse_rows(schema, text)
                        .map_err(|e| format!("probe row rejected by candidate schema: {e}"))?;
                    let labels = model
                        .predict(&dataset)
                        .map_err(|e| format!("canary predict failed: {e}"))?;
                    if labels.is_empty() {
                        return Err("canary predict returned no labels".to_string());
                    }
                }
                None => {
                    let labels = model.predict_rows(&[Vec::new()]);
                    if labels.len() != 1 {
                        return Err(format!(
                            "canary predict returned {} labels, expected 1",
                            labels.len()
                        ));
                    }
                }
            }
            Ok(())
        },
    )
}

/// `PUT /m/{name}`: body is a complete `DFPM` artifact; the optional
/// `X-Probe-Row` header carries a canary CSV row that is validated against
/// the new artifact and stored only on promotion. The envelope
/// (magic/version/CRC) is checked before the registry is touched, so a
/// corrupted upload is a cheap `400`. When `DFP_ADMIN_TOKEN` is set the
/// route is reached only with a matching `X-Admin-Token` header.
fn admin_swap(
    request: &Request,
    registry: &ModelRegistry,
    name: &str,
) -> (u16, &'static str, String) {
    if let Err(e) = dfp_model::verify_bytes(&request.body) {
        return (400, "Bad Request", format!("artifact rejected: {e}\n"));
    }
    let probe = request.header("x-probe-row").map(str::to_string);
    match registry.publish_bytes(name, &request.body, probe.as_deref()) {
        Ok(report) => (
            200,
            "OK",
            format!(
                "model '{}' now at version {} (previous: {}, drained: {})\n",
                report.name,
                report.version,
                report
                    .previous
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "none".to_string()),
                report.drained
            ),
        ),
        Err(SwapError::Busy) => (
            409,
            "Conflict",
            "another swap of this model is in progress; retry later\n".to_string(),
        ),
        Err(e @ SwapError::InvalidName(_)) => (400, "Bad Request", format!("{e}\n")),
        Err(e @ SwapError::InvalidArtifact(_)) => (400, "Bad Request", format!("{e}\n")),
        Err(e @ SwapError::Rejected(_)) => (422, "Unprocessable Entity", format!("{e}\n")),
        Err(e @ SwapError::Io(_)) => (500, "Internal Server Error", format!("{e}\n")),
    }
}

#[allow(clippy::too_many_arguments)]
fn predict(
    request: &Request,
    model: &PatternClassifier,
    metrics: &Metrics,
    cfg: &ServerConfig,
    deadline: Instant,
    scheduler: Option<&BatchScheduler>,
    cache: Option<&TransformCache>,
    rid: &str,
    mut capture: Option<&mut dfp_obs::tail::TailCapture>,
) -> (u16, &'static str, String) {
    if let Some(dfp_fault::Action::Err) = dfp_fault::evaluate("serve.predict") {
        return (
            500,
            "Internal Server Error",
            "fault injected at failpoint 'serve.predict'\n".to_string(),
        );
    }
    let Some(schema) = model.schema() else {
        return (
            500,
            "Internal Server Error",
            "model artifact carries no schema; refit from a raw dataset\n".to_string(),
        );
    };
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return (400, "Bad Request", "body is not UTF-8\n".to_string());
    };
    let start = Instant::now();
    // The transform cache disables itself while any failpoint is armed so
    // chaos runs always exercise the uncached path.
    let cache = cache.filter(|_| !dfp_fault::any_armed());

    // Parse, answering cached rows from the transform cache. `rows[i]` is
    // `Some` for hits; misses are collected (in line order, so the first
    // malformed row still wins) for one fused transform below.
    let mut rows: Vec<Option<Vec<u32>>> = Vec::new();
    let mut miss_values: Vec<Vec<Value>> = Vec::new();
    let mut miss_slots: Vec<(usize, &str)> = Vec::new();
    {
        let mut sp = dfp_obs::span("serve.parse");
        sp.attr("bytes", text.len());
        for (lineno, line) in data_lines(text) {
            if rows.len() >= cfg.max_rows {
                let e = RowsError::TooManyRows {
                    limit: cfg.max_rows,
                };
                return (413, "Payload Too Large", format!("{e}\n"));
            }
            if let Some(cached) = cache.and_then(|c| c.get(line)) {
                metrics.transform_cache_hits_total.inc();
                rows.push(Some(cached));
                continue;
            }
            if cache.is_some() {
                metrics.transform_cache_misses_total.inc();
            }
            match parse_row_line(schema, lineno, line) {
                Ok(values) => {
                    miss_slots.push((rows.len(), line));
                    miss_values.push(values);
                    rows.push(None);
                }
                Err(why) => return (400, "Bad Request", format!("{why}\n")),
            }
        }
        if rows.is_empty() {
            // Same constructor the batch CSV parser uses, so the two
            // client-facing messages can never drift apart.
            return (400, "Bad Request", format!("{}\n", RowsError::empty_body()));
        }
    }
    if let Some(cap) = capture.as_deref_mut() {
        cap.mark_since("parse", start);
    }
    if Instant::now() > deadline {
        return (
            503,
            "Service Unavailable",
            DEADLINE_EXCEEDED_BODY.to_string(),
        );
    }
    // Transform the misses in one pass and scatter them back into place.
    if !miss_values.is_empty() {
        let labels = vec![ClassId(0); miss_values.len()];
        let dataset = Dataset::new(schema.clone(), miss_values, labels);
        let matrix = match model.transform(&dataset) {
            Ok(m) => m,
            Err(e) => return (400, "Bad Request", format!("{e}\n")),
        };
        for ((idx, line), feature_row) in miss_slots.into_iter().zip(matrix.rows) {
            if let Some(c) = cache {
                c.insert(line, feature_row.clone());
            }
            rows[idx] = Some(feature_row);
        }
    }
    let rows: Vec<Vec<u32>> = rows
        .into_iter()
        .map(|r| r.expect("every row cached or transformed"))
        .collect();

    let predict_started = Instant::now();
    let labels = {
        let _sp = dfp_obs::span("serve.predict");
        // Requests already at the batch cap gain nothing from coalescing;
        // they predict inline and leave the scheduler to small requests.
        match scheduler.filter(|_| rows.len() < cfg.batch_max) {
            Some(s) => match s.submit(rows, deadline) {
                Ok(reply) => {
                    let budget = deadline.saturating_duration_since(Instant::now());
                    match reply.recv_timeout(budget) {
                        Ok(labels) => labels,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            return (
                                503,
                                "Service Unavailable",
                                DEADLINE_EXCEEDED_BODY.to_string(),
                            )
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            return (
                                500,
                                "Internal Server Error",
                                "batch scheduler dropped the request\n".to_string(),
                            )
                        }
                    }
                }
                // The scheduler is shutting down (server drop raced this
                // request): predict inline, the answer is identical.
                Err(rows) => model.predict_rows(&rows),
            },
            None => model.predict_rows(&rows),
        }
    };
    if let Some(cap) = capture.as_deref_mut() {
        cap.mark_since("predict", predict_started);
    }
    let elapsed = start.elapsed();
    metrics.observe_latency(elapsed);
    metrics.predictions_total.add(labels.len() as u64);
    // The latest request id rides the latency histogram as an OpenMetrics
    // exemplar, so a scrape links a slow bucket straight to /debug/traces.
    metrics.predict_latency.set_exemplar(
        "request_id",
        rid,
        elapsed.as_secs_f64(),
        dfp_obs::tsdb::now_unix_ms(),
    );
    let _sp = dfp_obs::span("serve.render");
    let render_started = Instant::now();
    let body = render_labels(schema, &labels);
    if let Some(cap) = capture {
        cap.mark_since("render", render_started);
    }
    (200, "OK", body)
}
