//! Chaos suite: fault injection against a live server. Worker panics must
//! heal in place (and be visible in `/metrics`), overload must shed with
//! `503` + `Retry-After` instead of hanging, deadlines must bound slow
//! requests, and the retrying client must ride through transient server
//! and transport failures.

use dfp_core::{FrameworkConfig, PatternClassifier};
use dfp_data::dataset::{categorical_dataset, Dataset};
use dfp_serve::{Client, RetryPolicy, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Failpoint state is process-global; every test here serialises on this.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock_faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dfp_fault::disarm_all();
    guard
}

/// (a0=v1, a1=v1) → c0 and (a0=v1, a1=v2) → c1; a2 is noise.
fn confusable() -> Dataset {
    let mut rows: Vec<(Vec<u32>, u32)> = Vec::new();
    for i in 0..60u32 {
        let (vals, label) = if i % 2 == 0 {
            (vec![1, 1, i % 3], 0)
        } else {
            (vec![1, 2, i % 3], 1)
        };
        rows.push((vals, label));
    }
    let borrowed: Vec<(&[u32], u32)> = rows.iter().map(|(v, l)| (&v[..], *l)).collect();
    categorical_dataset(&[3, 3, 3], 2, &borrowed)
}

fn serve_with(cfg: ServerConfig) -> ServerHandle {
    let data = confusable();
    let fitted = PatternClassifier::fit(&data, &FrameworkConfig::pat_fs()).expect("fit");
    dfp_serve::serve_with_config(fitted, "127.0.0.1:0", cfg).expect("bind")
}

/// One raw HTTP exchange; `None` when the server dropped the connection
/// without answering (an injected accept/worker fault does exactly that).
fn try_http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status: u16 = response.split_whitespace().nth(1)?.parse().ok()?;
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Some((status, payload))
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    try_http(addr, method, path, body).expect("server dropped the connection")
}

/// Raw exchange keeping the full response head, for header assertions.
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    response
}

fn counter(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("{name} missing from:\n{metrics}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("{name} is not an integer"))
}

#[test]
fn worker_panic_heals_and_is_counted() {
    let _guard = lock_faults();
    let handle = serve_with(ServerConfig::default().with_threads(2));
    let addr = handle.addr();

    dfp_fault::arm_times("serve.worker", dfp_fault::Action::Panic, Some(2));
    // The two poisoned requests die without an answer — connection dropped,
    // no panic escapes the worker.
    for _ in 0..2 {
        assert_eq!(try_http(addr, "POST", "/predict", "v1,v1,v0\n"), None);
    }
    dfp_fault::disarm("serve.worker");

    // The pool healed: the same workers keep serving correct answers.
    let (status, body) = http(addr, "POST", "/predict", "v1,v1,v0\n");
    assert_eq!(status, 200);
    assert_eq!(body, "c0\n");

    // The counter is synced to /metrics on each accept, so a scrape racing
    // the recovery itself can be one behind — poll until it lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, metrics) = http(addr, "GET", "/metrics", "");
        if counter(&metrics, "dfp_serve_worker_respawns_total") >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "respawns not surfaced:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    let _guard = lock_faults();
    // One worker, queue depth one: a single in-flight request saturates.
    let cfg = ServerConfig::default()
        .with_threads(1)
        .with_queue_depth(1)
        .with_request_deadline(Duration::from_secs(30));
    let handle = serve_with(cfg);
    let addr = handle.addr();

    dfp_fault::arm_times("serve.worker", dfp_fault::Action::Sleep(700), Some(1));
    let slow = std::thread::spawn(move || http(addr, "POST", "/predict", "v1,v1,v0\n"));
    // Give the slow request time to land in the worker.
    std::thread::sleep(Duration::from_millis(200));

    // The saturated server answers immediately — no hang — with 503 and a
    // Retry-After hint.
    let raw = http_raw(addr, "POST", "/predict", "v1,v2,v0\n");
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
    assert!(raw.contains("overloaded"), "{raw}");

    let (status, body) = slow.join().expect("slow client");
    assert_eq!(status, 200, "{body}");

    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert!(counter(&metrics, "dfp_serve_shed_total") >= 1, "{metrics}");
    handle.shutdown();
}

#[test]
fn request_deadline_bounds_slow_workers() {
    let _guard = lock_faults();
    let cfg = ServerConfig::default()
        .with_threads(1)
        .with_request_deadline(Duration::from_millis(50));
    let handle = serve_with(cfg);
    let addr = handle.addr();

    // The worker stalls past the whole request budget; the request is
    // answered 503 instead of burning a worker on a dead deadline.
    dfp_fault::arm_times("serve.worker", dfp_fault::Action::Sleep(200), Some(1));
    let raw = http_raw(addr, "POST", "/predict", "v1,v1,v0\n");
    assert!(raw.starts_with("HTTP/1.1 503 "), "{raw}");
    assert!(raw.contains("deadline"), "{raw}");

    // Follow-up requests are back under the deadline and succeed.
    let (status, _) = http(addr, "POST", "/predict", "v1,v1,v0\n");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn accept_fault_drops_connection_but_server_survives() {
    let _guard = lock_faults();
    let handle = serve_with(ServerConfig::default().with_threads(1));
    let addr = handle.addr();

    dfp_fault::arm_times("serve.accept", dfp_fault::Action::Err, Some(1));
    assert_eq!(try_http(addr, "GET", "/healthz", ""), None);

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "ok\n");
    handle.shutdown();
}

#[test]
fn predict_fault_is_a_500_not_a_crash() {
    let _guard = lock_faults();
    let handle = serve_with(ServerConfig::default().with_threads(1));
    let addr = handle.addr();

    dfp_fault::arm_times("serve.predict", dfp_fault::Action::Err, Some(1));
    let (status, body) = http(addr, "POST", "/predict", "v1,v1,v0\n");
    assert_eq!(status, 500);
    assert!(body.contains("serve.predict"), "{body}");

    let (status, _) = http(addr, "POST", "/predict", "v1,v1,v0\n");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn client_rides_through_5xx_and_transport_faults() {
    let _guard = lock_faults();
    let handle = serve_with(ServerConfig::default().with_threads(2));
    let addr = handle.addr();
    let policy = RetryPolicy {
        retries: 4,
        base_backoff: Duration::from_millis(10),
        timeout: Duration::from_secs(5),
    };

    // Two injected 500s, then success — within the retry budget.
    dfp_fault::arm_times("serve.predict", dfp_fault::Action::Err, Some(2));
    let mut client = Client::with_policy(addr.to_string(), policy);
    let r = client.post("/predict", "text/csv", b"v1,v1,v0\n").unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "c0\n");
    dfp_fault::disarm("serve.predict");

    // Two simulated transport failures on the client side, then success.
    dfp_fault::arm_times("client.request", dfp_fault::Action::Err, Some(2));
    let r = client.post("/predict", "text/csv", b"v1,v2,v0\n").unwrap();
    dfp_fault::disarm("client.request");
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), "c1\n");

    // A 4xx comes straight back — it is the caller's bug, not the
    // network's, so the retry budget is not spent on it.
    let bad = client.post("/predict", "text/csv", b"purple\n").unwrap();
    assert_eq!(bad.status, 400);
    handle.shutdown();
}

#[test]
fn oversized_body_and_batch_are_413() {
    let _guard = lock_faults();
    let cfg = ServerConfig::default()
        .with_threads(1)
        .with_max_body_bytes(64)
        .with_max_rows(2);
    let handle = serve_with(cfg);
    let addr = handle.addr();

    // Body over the byte cap → rejected before buffering.
    let big = "v1,v1,v0\n".repeat(20);
    let (status, _) = http(addr, "POST", "/predict", &big);
    assert_eq!(status, 413);

    // Under the byte cap but over the row cap → rejected after counting.
    let (status, body) = http(addr, "POST", "/predict", "v1,v1,v0\nv1,v2,v0\nv1,v1,v0\n");
    assert_eq!(status, 413);
    assert!(body.contains("2 rows"), "{body}");

    let (status, _) = http(addr, "POST", "/predict", "v1,v1,v0\n");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn readyz_distinguishes_liveness_from_readiness() {
    let _guard = lock_faults();
    // A schema-carrying model is live and ready.
    let handle = serve_with(ServerConfig::default().with_threads(1));
    let addr = handle.addr();
    assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
    let (status, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "ready\n");
    handle.shutdown();

    // A transaction-fitted model has no schema: live but NOT ready.
    use dfp_data::schema::ClassId;
    use dfp_data::transactions::{Item, TransactionSet};
    let ts = TransactionSet::new(
        4,
        2,
        (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec![Item(0), Item(1)]
                } else {
                    vec![Item(0), Item(2)]
                }
            })
            .collect(),
        (0..20).map(|i| ClassId(i % 2)).collect(),
    );
    let model =
        PatternClassifier::fit_transactions(&ts, &FrameworkConfig::pat_all()).expect("fit ts");
    let handle = dfp_serve::serve_with_config(
        model,
        "127.0.0.1:0",
        ServerConfig::default().with_threads(1),
    )
    .expect("bind");
    let addr = handle.addr();
    assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
    let (status, body) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 503);
    assert!(body.contains("no schema"), "{body}");
    handle.shutdown();
}

#[test]
fn shed_path_survives_clients_that_reset_instead_of_reading() {
    let _guard = lock_faults();
    let cfg = ServerConfig::default()
        .with_threads(1)
        .with_queue_depth(1)
        .with_request_deadline(Duration::from_secs(30));
    let handle = serve_with(cfg);
    let addr = handle.addr();

    dfp_fault::arm_times("serve.worker", dfp_fault::Action::Sleep(700), Some(1));
    let slow = std::thread::spawn(move || http(addr, "POST", "/predict", "v1,v1,v0\n"));
    std::thread::sleep(Duration::from_millis(200));

    // Overflow clients send a request and hang up immediately, never reading
    // the shed 503. Closing with the response still in flight makes the
    // kernel answer the server's write or drain with EPIPE/ECONNRESET — the
    // accept thread must swallow that per-connection, not die or wedge on it.
    for _ in 0..3 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: 9\r\n\r\nv1,v2,v0\n")
            .expect("send");
        drop(s);
    }

    // The in-flight request is unharmed and the server keeps serving.
    let (status, body) = slow.join().expect("slow client");
    assert_eq!(status, 200, "{body}");
    let (status, _) = http(addr, "POST", "/predict", "v1,v2,v0\n");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn trickling_client_is_cut_off_at_the_request_deadline() {
    let _guard = lock_faults();
    // One worker, a 1 s request budget and the default 10 s I/O timeout: a
    // client that sends a byte every 250 ms never lets a single read time
    // out, so only the request deadline can free the worker.
    let handle = serve_with(
        ServerConfig::default()
            .with_threads(1)
            .with_request_deadline(Duration::from_secs(1)),
    );
    let addr = handle.addr();

    let mut slow = TcpStream::connect(addr).expect("connect");
    let connected = Instant::now();
    let trickler = std::thread::spawn(move || {
        // At most 4 s of trickle; a write fails once the server hangs up.
        for &byte in &b"GET /healthz HTTP/1.1\r\n"[..16] {
            if slow.write_all(&[byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(250));
        }
        slow.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let mut answer = Vec::new();
        let _ = slow.read_to_end(&mut answer);
        answer
    });

    // 1.5 s in, the trickler's deadline has passed: the worker is free and a
    // fresh request is answered at once, not after the trickler gives up.
    std::thread::sleep(Duration::from_millis(1500).saturating_sub(connected.elapsed()));
    let sent = Instant::now();
    let (status, body) = http(addr, "GET", "/healthz", "");
    let waited = sent.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        waited < Duration::from_millis(500),
        "queued {waited:?} behind the trickler"
    );

    // The trickler itself is closed without an answer, like a read timeout.
    let answer = trickler.join().expect("trickler thread");
    assert!(answer.is_empty(), "{}", String::from_utf8_lossy(&answer));
    handle.shutdown();
}

#[test]
fn dropping_the_handle_shuts_down_like_shutdown() {
    let _guard = lock_faults();
    let addr;
    {
        let handle = serve_with(ServerConfig::default().with_threads(1));
        addr = handle.addr();
        assert_eq!(http(addr, "GET", "/healthz", "").0, 200);
        // No explicit shutdown — Drop must do the same work.
    }
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err();
    assert!(refused, "listener still accepting after drop");
}
