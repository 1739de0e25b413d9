//! The serve workloads: `serve-hot` (single-row requests over 256 distinct
//! rows, answered from the transform cache) and `serve-bulk` (512 never-seen
//! rows per request, every one a cache miss). Both drive the in-process HTTP
//! server with the default `ServerConfig` through an open-loop generator:
//! at most two sender threads and two open connections, one request per
//! connection, latency counted from each request's due time.
//!
//! The traced run adds deltas of the server's own metric families over the
//! nominal phase and an in-process replay of request bodies through the
//! serving layers' public functions, one span per layer.

use crate::inputs::{self, Rng};
use crate::json::Obj;
use crate::stats::{self, HistDelta, Sent};
use crate::sys;
use crate::trace::{self, Tracer};
use crate::{Opts, Outcome};
use dfp_core::{FrameworkConfig, PatternClassifier};
use dfp_data::dataset::{Dataset, Value};
use dfp_data::schema::ClassId;
use dfp_obs::metrics::{dfp as counters, HistogramSnapshot};
use dfp_serve::http::read_request_limited;
use dfp_serve::rows::{data_lines, parse_row_line, render_labels};
use dfp_serve::{BatchScheduler, Metrics, ServerConfig, ServerHandle, TransformCache};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sender threads, hence open connections, of the load generator.
const SENDERS: usize = 2;
/// Client socket timeout; a request still unanswered after it has failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Rows of the austral profile: the served model trains on the canonical
/// replicate, so its feature space, and with it the cost of every request,
/// is the same for every seed.
const TRAIN_ROWS: usize = 690;
/// Stream rows past the training replicate that request rows come from.
const REQUEST_POOL: usize = 8192;
/// Held-out rows scored through the server during warm-up.
const EVAL_ROWS: usize = 2048;
/// Rows per warm-up request.
const WARM_BATCH: usize = 512;
/// Share of the run spent at the nominal rate; the capacity phase takes
/// the rest.
const NOMINAL_SHARE: f64 = 0.7;
/// The run alternates between the two phases this many times, so that each
/// samples the whole run: the host's slow spells last seconds. A timed
/// set-up follows each cycle for the same reason; with the first one, the
/// median of these is `setup_s`.
const CYCLES: usize = 5;
/// Seconds per window of the capacity phase.
const CAPACITY_WINDOW_S: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Hot,
    Bulk,
}

/// A serve workload's load shape.
struct Spec {
    rows_per_request: usize,
    nominal_rate: f64,
    /// Requests per window of the nominal phase's windowed median: a burst
    /// of host stalls moves the windows it falls in, not their median.
    nominal_group: usize,
    /// The latency percentile a capacity window is judged on. Not p99: on a
    /// shared two-core host a single scheduling stall of tens of
    /// milliseconds delays over 1% of a window's requests, so p99 measures
    /// the host's stalls. A 4 ms bulk request overlaps more of them than a
    /// 0.7 ms hot one, so bulk is judged on p75.
    tail_q: f64,
    /// The tail latency a capacity window must meet: well above the tail of
    /// a request served alone, so only a program that got slower misses it.
    limit_ms: f64,
    /// Nominal-phase requests replayed in-process in a traced run.
    replayed: usize,
}

impl Kind {
    fn spec(self) -> Spec {
        match self {
            Kind::Hot => Spec {
                rows_per_request: 1,
                nominal_rate: 400.0,
                nominal_group: 400,
                tail_q: 0.9,
                limit_ms: 5.0,
                replayed: 1000,
            },
            Kind::Bulk => Spec {
                rows_per_request: 512,
                nominal_rate: 40.0,
                nominal_group: 40,
                tail_q: 0.75,
                limit_ms: 25.0,
                replayed: 100,
            },
        }
    }
}

/// The running server and everything the load needs to build and check
/// requests.
struct Served {
    handle: ServerHandle,
    model: Arc<PatternClassifier>,
    /// Serve-hot: the distinct request lines and their in-process labels.
    hot_lines: Vec<String>,
    hot_expected: HashMap<String, String>,
    /// Serve-bulk: rows that become never-seen lines with a unique id.
    templates: Vec<inputs::LineTemplate>,
    seed: u64,
    accuracy: f64,
    fit_counts: [u64; 4],
    attempted: u64,
    failed: u64,
}

/// Client span boundaries of one exchange: connected, request sent, first
/// response byte, last response byte.
const CLIENT_SPANS: [&str; 4] = ["connect", "send", "first_byte", "done"];

/// Result of one HTTP exchange.
struct Answer {
    status: u16,
    body: String,
    /// Duration of each of [`CLIENT_SPANS`], in order.
    spans: [Duration; 4],
    start: Instant,
    done: Instant,
}

fn exchange(addr: SocketAddr, raw: &[u8]) -> io::Result<Answer> {
    let start = Instant::now();
    let mut s = TcpStream::connect(addr)?;
    let connected = Instant::now();
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(IO_TIMEOUT))?;
    s.set_write_timeout(Some(IO_TIMEOUT))?;
    s.write_all(raw)?;
    let sent = Instant::now();
    let mut buf = vec![0u8; 4096];
    let mut len = s.read(&mut buf)?;
    let first_byte = Instant::now();
    loop {
        if len == buf.len() {
            buf.resize(len * 2, 0);
        }
        match s.read(&mut buf[len..])? {
            0 => break,
            n => len += n,
        }
    }
    buf.truncate(len);
    let done = Instant::now();
    let spans = [
        connected - start,
        sent - connected,
        first_byte - sent,
        done - first_byte,
    ];
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response without a head"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok(Answer {
        status,
        body: body.to_string(),
        spans,
        start,
        done,
    })
}

fn post_predict(body: &str) -> Vec<u8> {
    format!(
        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The server's own metric families, read in-process.
struct Snap {
    batches: u64,
    cache_hits: u64,
    cache_misses: u64,
    shed: u64,
    queue_wait: HistogramSnapshot,
    batch_size: HistogramSnapshot,
    predict_latency: HistogramSnapshot,
}

impl Snap {
    fn of(m: &Metrics) -> Snap {
        Snap {
            batches: m.batches_total.get(),
            cache_hits: m.transform_cache_hits_total.get(),
            cache_misses: m.transform_cache_misses_total.get(),
            shed: m.shed_total.get(),
            queue_wait: m.queue_wait.snapshot(),
            batch_size: m.batch_size.snapshot(),
            predict_latency: m.predict_latency.snapshot(),
        }
    }
}

/// What the server's metric families counted over the nominal phase.
#[derive(Default)]
struct Counted {
    batches: u64,
    cache_hits: u64,
    cache_misses: u64,
    queue_wait: HistDelta,
    batch_size: HistDelta,
    predict_latency: HistDelta,
}

impl Counted {
    fn add(&mut self, before: &Snap, after: &Snap) {
        self.batches += after.batches - before.batches;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.queue_wait.add(&before.queue_wait, &after.queue_wait);
        self.batch_size.add(&before.batch_size, &after.batch_size);
        self.predict_latency
            .add(&before.predict_latency, &after.predict_latency);
    }
}

/// In-process labels for request lines: parse against the model's schema
/// and predict, the reference every served answer must match.
fn expected_labels(model: &PatternClassifier, lines: &[&str]) -> Result<Vec<String>, String> {
    let schema = model.schema().ok_or("served model has no schema")?;
    let ds = dfp_serve::rows::parse_rows(schema, &lines.join("\n"))?;
    let pred = model
        .predict(&ds)
        .map_err(|e| format!("in-process predict: {e}"))?;
    Ok(pred
        .iter()
        .map(|c| schema.class_names[c.index()].clone())
        .collect())
}

fn labels_of(body: &str) -> Vec<String> {
    body.lines().map(str::to_string).collect()
}

/// Set-up: inputs, the served model's fit, server start and warm-up
/// (a held-out accuracy pass, then the hot rows or a few bulk requests).
fn setup(kind: Kind, seed: u64) -> Result<Served, String> {
    // Every set-up starts cold, so repeated set-ups do equal work.
    dfp_mining::memo::clear();
    let stream = inputs::profile_stream("austral", TRAIN_ROWS + REQUEST_POOL);
    let mut rng = Rng::derive(seed, u64::MAX);
    let train_idx: Vec<usize> = (0..TRAIN_ROWS).collect();
    let train = dfp_data::csv::read_dataset(inputs::csv_text(&stream, &train_idx).as_bytes())
        .map_err(|e| format!("reading the training CSV: {e}"))?;
    let before = fit_counts();
    let model = PatternClassifier::fit(&train, &FrameworkConfig::pat_fs())
        .map_err(|e| format!("fitting the served model: {e}"))?;
    let after = fit_counts();
    let fit_counts = [
        model.info().n_patterns_mined as u64,
        after[0] - before[0],
        after[1] - before[1],
        after[2] - before[2],
    ];
    let model = Arc::new(model);
    let handle = dfp_serve::serve_with_config(
        PatternClassifier::clone(&model),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(|e| format!("starting the server: {e}"))?;
    let addr = handle.addr();
    let mut served = Served {
        handle,
        model,
        hot_lines: Vec::new(),
        hot_expected: HashMap::new(),
        templates: Vec::new(),
        seed,
        accuracy: 0.0,
        fit_counts,
        attempted: 0,
        failed: 0,
    };

    // Held-out accuracy through the server.
    let pool = TRAIN_ROWS..stream.len();
    let eval = rng.sample(pool.clone(), EVAL_ROWS);
    let mut correct = 0usize;
    for chunk in eval.chunks(WARM_BATCH) {
        let lines: Vec<String> = chunk
            .iter()
            .map(|&i| inputs::predict_line(&stream, i, None))
            .collect();
        let labels = served.check_post(addr, &lines)?;
        correct += chunk
            .iter()
            .zip(&labels)
            .filter(|(&i, l)| inputs::class_name(&stream, i) == l.as_str())
            .count();
    }
    served.accuracy = correct as f64 / eval.len() as f64;

    match kind {
        Kind::Hot => {
            let hot = rng.sample(pool, 256);
            served.hot_lines = hot
                .iter()
                .map(|&i| inputs::predict_line(&stream, i, None))
                .collect();
            let refs: Vec<&str> = served.hot_lines.iter().map(String::as_str).collect();
            let expected = expected_labels(&served.model, &refs)?;
            served.hot_expected = served.hot_lines.iter().cloned().zip(expected).collect();
            // Warm the transform cache with every hot row.
            for line in served.hot_lines.clone() {
                served.check_post(addr, &[line])?;
            }
        }
        Kind::Bulk => {
            served.templates = pool
                .map(|i| inputs::LineTemplate::new(&stream, i))
                .collect();
            for r in 0..4 {
                let lines = served.bulk_lines(u64::MAX - r, 512);
                served.check_post(addr, &lines)?;
            }
        }
    }
    Ok(served)
}

fn fit_counts() -> [u64; 3] {
    [
        counters::mine_nodes_explored().get(),
        counters::select_argmax_rounds().get(),
        counters::select_candidates_scanned().get(),
    ]
}

impl Served {
    /// Posts `lines`, checks the answer against in-process predict, and
    /// returns the served labels.
    fn check_post(&mut self, addr: SocketAddr, lines: &[String]) -> Result<Vec<String>, String> {
        self.attempted += 1;
        let body = lines.join("\n") + "\n";
        let answer = exchange(addr, &post_predict(&body));
        let Ok(answer) = answer.map_err(|e| e.to_string()).and_then(|a| {
            if a.status == 200 {
                Ok(a)
            } else {
                Err(format!("status {}", a.status))
            }
        }) else {
            self.failed += 1;
            return Err("a warm-up request failed".into());
        };
        let labels = labels_of(&answer.body);
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        if labels != expected_labels(&self.model, &refs)? {
            return Err("served labels differ from in-process predict during warm-up".into());
        }
        Ok(labels)
    }

    /// Request `r`'s never-seen rows: seeded draws from the template rows,
    /// each with an id unique to the request and row.
    fn bulk_lines(&self, r: u64, rows: usize) -> Vec<String> {
        let mut rng = Rng::derive(self.seed, r);
        (0..rows as u64)
            .map(|k| {
                let id = r.wrapping_mul(rows as u64).wrapping_add(k);
                self.templates[rng.below(self.templates.len())].render(Some(id))
            })
            .collect()
    }

    /// The body of request `r` of the run.
    fn body(&self, kind: Kind, r: u64, rows: usize) -> String {
        match kind {
            Kind::Hot => {
                let pick = Rng::derive(self.seed, r).below(self.hot_lines.len());
                format!("{}\n", self.hot_lines[pick])
            }
            Kind::Bulk => self.bulk_lines(r, rows).join("\n") + "\n",
        }
    }
}

/// One request of a phase as it went. The body is kept as received and
/// split into labels only when checked, so the generator allocates little
/// while the server it shares a process with is being timed.
struct Reply {
    sent: Option<Sent>,
    client: [Duration; 4],
    ok: bool,
    body: String,
}

/// Sends up to `count` requests with at most [`SENDERS`] in flight: a free
/// sender takes the next request, waits until it is due and sends it. With
/// a `rate`, request `i` is due at `i / rate` (open loop); without, it is
/// due as soon as its sender is free (closed loop, every connection busy).
/// Senders stop at `give_up`; an open loop's requests not started by then
/// come back unsent (`sent: None`), a closed loop's are left out.
fn run_phase(
    addr: SocketAddr,
    rate: Option<f64>,
    count: usize,
    give_up: Duration,
    body: &(dyn Fn(usize) -> String + Sync),
) -> Vec<Reply> {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let per_sender: Vec<Vec<(usize, Reply)>> = std::thread::scope(|s| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    let mut free = Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count || origin.elapsed() > give_up {
                            break;
                        }
                        let due = rate.map_or(free, |r| Duration::from_secs_f64(i as f64 / r));
                        let raw = post_predict(&body(i));
                        let now = origin.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let answer = exchange(addr, &raw);
                        let sent = |start: Instant, done: Instant| Sent {
                            due,
                            free,
                            start: start.duration_since(origin),
                            done: done.duration_since(origin),
                        };
                        let reply = match answer {
                            Ok(a) => Reply {
                                sent: Some(sent(a.start, a.done)),
                                client: a.spans,
                                ok: a.status == 200,
                                body: a.body,
                            },
                            Err(_) => {
                                let now = Instant::now();
                                Reply {
                                    sent: Some(sent(now, now)),
                                    client: [Duration::ZERO; 4],
                                    ok: false,
                                    body: String::new(),
                                }
                            }
                        };
                        free = reply.sent.map_or(free, |s| s.done);
                        mine.push((i, reply));
                    }
                    mine
                })
            })
            .collect();
        senders
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let taken = per_sender
        .iter()
        .flatten()
        .map(|(i, _)| i + 1)
        .max()
        .unwrap_or(0);
    let len = if rate.is_some() { count } else { taken };
    let mut replies: Vec<Reply> = (0..len)
        .map(|_| Reply {
            sent: None,
            client: [Duration::ZERO; 4],
            ok: false,
            body: String::new(),
        })
        .collect();
    for (i, reply) in per_sender.into_iter().flatten() {
        replies[i] = reply;
    }
    replies
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks a phase's answers against the in-process reference; returns the
/// number of wrong answers.
fn wrong_answers(
    served: &Served,
    kind: Kind,
    first: u64,
    rows: usize,
    phase: &[Reply],
) -> Result<usize, String> {
    let indexed: Vec<(u64, &Reply)> = (first..).zip(phase).filter(|(_, o)| o.ok).collect();
    let checked = dfp_par::par_map(&indexed, |&(r, o)| -> Result<bool, String> {
        let expected = match kind {
            Kind::Hot => {
                let body = served.body(kind, r, rows);
                vec![served.hot_expected[body.trim_end()].clone()]
            }
            Kind::Bulk => {
                let lines = served.bulk_lines(r, rows);
                let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
                expected_labels(&served.model, &refs)?
            }
        };
        Ok(labels_of(&o.body) != expected)
    });
    let mut wrong = 0;
    for c in checked {
        wrong += usize::from(c?);
    }
    Ok(wrong)
}

/// Runs a serve workload for about `opts.seconds`.
pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let spec = kind.spec();

    let mut setup_times = Vec::new();
    let Some(served) = timed_setup(kind, opts.seed, &mut setup_times, &mut out) else {
        return out;
    };
    let addr = served.handle.addr();

    let result = measure(kind, &spec, opts, &served, addr, &mut setup_times, &mut out);
    if let Err(e) = result {
        out.errors.push(e);
    }
    out.set("setup_s", stats::quantile(&setup_times, 0.5));
    out.phase("setups", setup_times.iter().sum());
    let [patterns, nodes, rounds, scanned] = served.fit_counts;
    let mut record = Obj::new();
    record
        .str("what", "served model")
        .num("accuracy", served.accuracy)
        .int("mining.patterns", patterns)
        .int("mining.nodes", nodes)
        .int("select.mmrfs.rounds", rounds)
        .int("select.mmrfs.scanned", scanned);
    out.jobs.push(record);
    out.set("accuracy", served.accuracy);
    served.handle.shutdown();
    out
}

/// [`setup`], timed into `times`. Its warm-up requests count as operations;
/// a failed set-up, a wrong warm-up answer included, is one failed
/// operation.
fn timed_setup(kind: Kind, seed: u64, times: &mut Vec<f64>, out: &mut Outcome) -> Option<Served> {
    let start = Instant::now();
    match setup(kind, seed) {
        Ok(served) => {
            times.push(start.elapsed().as_secs_f64());
            out.attempted += served.attempted;
            out.failed += served.failed;
            Some(served)
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.errors.push(e);
            None
        }
    }
}

fn measure(
    kind: Kind,
    spec: &Spec,
    opts: &Opts,
    served: &Served,
    addr: SocketAddr,
    setup_times: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let rows = spec.rows_per_request;
    let body = |r: u64| served.body(kind, r, rows);
    let metrics = served.handle.metrics();
    let start = Snap::of(metrics);
    let mut counted = Counted::default();
    let mut nominal: Vec<Reply> = Vec::new();
    let mut next = 0u64;
    let mut wrong = [0usize; 2];
    // Per cycle: the nominal rate as an open loop, then the capacity phase
    // as a closed loop, where each sender sends its next request as soon as
    // the previous one is answered, so both connections stay busy. There
    // latency counts from each send, as nothing queues behind them.
    let nominal_s = opts.seconds * NOMINAL_SHARE / CYCLES as f64;
    let capacity_s = opts.seconds * (1.0 - NOMINAL_SHARE) / CYCLES as f64;
    let per_cycle = ((spec.nominal_rate * nominal_s).round() as usize).max(1);
    let (mut nominal_wall, mut capacity_wall, mut verify_wall) = (0.0, 0.0, 0.0);
    for _ in 0..CYCLES {
        let before = Snap::of(metrics);
        let phase_start = Instant::now();
        let first = next;
        let mut chunk = sys::keep_cpus_awake(|| {
            run_phase(
                addr,
                Some(spec.nominal_rate),
                per_cycle,
                Duration::from_secs_f64(nominal_s + 2.0),
                &|i| body(first + i as u64),
            )
        });
        nominal_wall += phase_start.elapsed().as_secs_f64();
        counted.add(&before, &Snap::of(metrics));
        let verify_start = Instant::now();
        wrong[0] += wrong_answers(served, kind, first, rows, &chunk)?;
        verify_wall += verify_start.elapsed().as_secs_f64();
        // Checked bodies are dropped, so the run's memory is the server's;
        // a traced run's replay compares the first ones again.
        for (r, o) in (first..).zip(chunk.iter_mut()) {
            if !opts.trace || r >= spec.replayed as u64 {
                o.body = String::new();
            }
        }
        next += per_cycle as u64;
        nominal.extend(chunk);

        let phase_start = Instant::now();
        let first = next;
        let phase = sys::keep_cpus_awake(|| {
            run_phase(
                addr,
                None,
                usize::MAX,
                Duration::from_secs_f64(capacity_s),
                &|i| body(first + i as u64),
            )
        });
        capacity_wall += phase_start.elapsed().as_secs_f64();
        let verify_start = Instant::now();
        let wrong_here = wrong_answers(served, kind, first, rows, &phase)?;
        verify_wall += verify_start.elapsed().as_secs_f64();
        wrong[1] += wrong_here;
        next += phase.len() as u64;
        let failed = phase.iter().filter(|o| !o.ok).count();
        out.attempted += phase.len() as u64;
        out.failed += (failed + wrong_here) as u64;
        let done: Vec<(f64, f64, bool)> = phase
            .iter()
            .filter_map(|o| {
                let s = o.sent?;
                Some((s.done.as_secs_f64(), ms(s.done - s.start), o.ok))
            })
            .collect();
        out.capacity.extend(stats::windows(
            &done,
            capacity_s,
            CAPACITY_WINDOW_S,
            spec.tail_q,
        ));
        if let Some(extra) = timed_setup(kind, opts.seed, setup_times, out) {
            extra.handle.shutdown();
        }
    }
    let end = Snap::of(metrics);
    out.phase("nominal", nominal_wall);
    out.phase("capacity", capacity_wall);
    out.phase("verify", verify_wall);
    out.set("max_rate", stats::max_rate(&out.capacity, spec.limit_ms));

    let lat: Vec<f64> = nominal
        .iter()
        .filter(|o| o.ok)
        .filter_map(|o| o.sent.map(|s| ms(s.latency())))
        .collect();
    let nominal_failed = nominal.iter().filter(|o| !o.ok).count();
    out.attempted += nominal.len() as u64;
    out.failed += (nominal_failed + wrong[0]) as u64;
    for (n, phase) in wrong.iter().zip(["nominal-rate", "capacity-phase"]) {
        if *n > 0 {
            out.errors.push(format!(
                "{n} {phase} answers differ from in-process predict"
            ));
        }
    }
    out.set(
        "latency_p50_ms",
        stats::windowed_quantile(&lat, 0.5, spec.nominal_group),
    );
    out.set("latency.p90_ms", stats::quantile(&lat, 0.9));
    out.set("latency.p99_ms", stats::quantile(&lat, 0.99));
    out.samples = lat.len();
    let group = spec.nominal_group;
    let windows = (lat.len() / group).max(1);
    out.windows = (0..windows)
        .map(|g| {
            let w = &lat[g * lat.len() / windows..(g + 1) * lat.len() / windows];
            [0.5, 0.75, 0.9].map(|q| stats::quantile(w, q))
        })
        .collect();

    if opts.trace {
        out.set("serve.batch.batches", counted.batches as f64);
        out.set("serve.batch.mean_size", counted.batch_size.mean());
        let (hits, misses) = (counted.cache_hits as f64, counted.cache_misses as f64);
        out.set("serve.cache.hit_ratio", stats::ratio(hits, hits + misses));
        out.set(
            "serve.queue.wait_p50_ms",
            counted.queue_wait.quantile(0.5) * 1e3,
        );
        out.set(
            "serve.queue.wait_p99_ms",
            counted.queue_wait.quantile(0.99) * 1e3,
        );
        out.set(
            "serve.handler_p50_ms",
            counted.predict_latency.quantile(0.5) * 1e3,
        );
        out.set("serve.shed", (end.shed - start.shed) as f64);
        for (k, span) in CLIENT_SPANS.iter().enumerate() {
            let v: Vec<f64> = nominal
                .iter()
                .filter(|o| o.ok)
                .map(|o| ms(o.client[k]))
                .collect();
            out.set(format!("client.{span}_p50_ms"), stats::quantile(&v, 0.5));
        }
        let lateness: Vec<f64> = nominal
            .iter()
            .filter_map(|o| o.sent.map(|s| ms(s.lateness())))
            .collect();
        out.set("loadgen.lateness_p99_ms", stats::quantile(&lateness, 0.99));
        let replayed = spec.replayed.min(per_cycle);
        let bodies: Vec<String> = (0..replayed as u64).map(body).collect();
        let served_bodies: Vec<String> =
            nominal[..replayed].iter().map(|o| o.body.clone()).collect();
        replay(served, &bodies, &served_bodies, out)?;
    }
    Ok(())
}

/// Replays request bodies in-process through the serving layers' public
/// functions, twice untraced and twice under spans in the order untraced,
/// traced, traced, untraced, so that neither side always runs first; the
/// first traced pass gives the spans, and its answers must equal the
/// server's.
fn replay(
    served: &Served,
    bodies: &[String],
    served_bodies: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let mut wall_s = [0.0; 2];
    let mut answers = Vec::new();
    for (k, on) in [false, true, true, false].into_iter().enumerate() {
        let spare = Tracer::new(on);
        let tr = if k == 1 { &tracer } else { &spare };
        let pass = replay_pass(served, bodies, tr)?;
        wall_s[usize::from(on)] += pass.wall_s;
        if k == 1 {
            answers = pass.answers;
        }
    }
    for (i, (answer, body)) in answers.iter().zip(served_bodies).enumerate() {
        if !body.is_empty() && answer != body {
            out.errors.push(format!(
                "replayed request {i} answers differently than the server"
            ));
            out.failed += 1;
        }
    }
    let summary = trace::summarise(&tracer.take());
    let n = summary.jobs.max(1) as f64;
    for layer in [
        "serve.http",
        "serve.rows",
        "serve.cache",
        "serve.transform",
        "serve.predict",
        "serve.render",
    ] {
        out.set(format!("{layer}.self_us"), summary.self_s(layer) / n * 1e6);
    }
    out.set("trace.coverage", summary.coverage());
    out.set("trace.overhead", stats::ratio(wall_s[1], wall_s[0]) - 1.0);
    out.shares = summary.shares();
    Ok(())
}

struct ReplayPass {
    wall_s: f64,
    answers: Vec<String>,
}

fn replay_pass(served: &Served, bodies: &[String], tr: &Tracer) -> Result<ReplayPass, String> {
    let cfg = ServerConfig::default();
    let model = &served.model;
    let schema = model.schema().ok_or("served model has no schema")?;
    let cache = TransformCache::new(dfp_serve::cache::DEFAULT_CAP);
    for line in &served.hot_lines {
        let values = parse_row_line(schema, 0, line).map_err(|e| e.to_string())?;
        let ds = Dataset::new(schema.clone(), vec![values], vec![ClassId(0)]);
        let m = model.transform(&ds).map_err(|e| e.to_string())?;
        cache.insert(line, m.rows.into_iter().next().expect("one row"));
    }
    let scheduler = BatchScheduler::start(
        Arc::clone(model),
        Arc::new(Metrics::new()),
        cfg.batch_max,
        cfg.batch_wait,
    );
    let mut answers = Vec::with_capacity(bodies.len());
    let mut wall_s = 0.0;
    for (r, body) in bodies.iter().enumerate() {
        let raw = post_predict(body);
        let start = Instant::now();
        let answer = tr.span(tr.root(r as u64), "request", false, |ctx| {
            let request = tr
                .span(ctx, "serve.http", false, |_| {
                    read_request_limited(&mut io::Cursor::new(&raw), cfg.max_body_bytes)
                })
                .map_err(|e| format!("replayed request does not parse: {e:?}"))?;
            let text = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
            let (mut rows, misses) = tr.span(ctx, "serve.cache", false, |_| {
                let mut rows: Vec<Option<Vec<u32>>> = Vec::new();
                let mut misses: Vec<(usize, usize, &str)> = Vec::new();
                for (lineno, line) in data_lines(text) {
                    match cache.get(line) {
                        Some(row) => rows.push(Some(row)),
                        None => {
                            misses.push((rows.len(), lineno, line));
                            rows.push(None);
                        }
                    }
                }
                (rows, misses)
            });
            let values = tr.span(ctx, "serve.rows", false, |_| {
                misses
                    .iter()
                    .map(|&(_, lineno, line)| parse_row_line(schema, lineno, line))
                    .collect::<Result<Vec<Vec<Value>>, _>>()
            });
            let values = values.map_err(|e| e.to_string())?;
            if !values.is_empty() {
                let labels = vec![ClassId(0); values.len()];
                let matrix = tr
                    .span(ctx, "serve.transform", false, |_| {
                        model.transform(&Dataset::new(schema.clone(), values, labels))
                    })
                    .map_err(|e| e.to_string())?;
                tr.span(ctx, "serve.cache", false, |_| {
                    for (&(idx, _, line), row) in misses.iter().zip(matrix.rows) {
                        cache.insert(line, row.clone());
                        rows[idx] = Some(row);
                    }
                });
            }
            let rows: Vec<Vec<u32>> = rows.into_iter().map(|r| r.expect("row filled")).collect();
            let labels = tr.span(ctx, "serve.predict", false, |_| {
                if rows.len() < cfg.batch_max {
                    let deadline = Instant::now() + cfg.request_deadline;
                    match scheduler.submit(rows, deadline) {
                        Ok(reply) => reply
                            .recv_timeout(cfg.request_deadline)
                            .map_err(|e: mpsc::RecvTimeoutError| e.to_string()),
                        Err(rows) => Ok(model.predict_rows(&rows)),
                    }
                } else {
                    Ok(model.predict_rows(&rows))
                }
            })?;
            Ok::<_, String>(tr.span(ctx, "serve.render", false, |_| {
                render_labels(schema, &labels)
            }))
        })?;
        wall_s += start.elapsed().as_secs_f64();
        answers.push(answer);
    }
    scheduler.shutdown();
    Ok(ReplayPass { wall_s, answers })
}
