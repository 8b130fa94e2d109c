//! The serve path's HTTP layer: a fixed pool of worker threads
//! blocking on one shared listener, HTTP/1.1 keep-alive with request
//! pipelining, and conditional-request (`If-None-Match` → `304`)
//! handling in front of the materialized view.
//!
//! There is deliberately **no sleep anywhere on the accept path**: the
//! old single-thread server polled a nonblocking listener on a 20 ms
//! timer, which both capped throughput and added up to 20 ms of idle
//! latency to every cold connection. Workers now sit in blocking
//! `accept()`; graceful shutdown wakes them with one loopback
//! connection each. The only timers left are the janitor's and the
//! refresher's `park_timeout` waits, which are off the request path
//! entirely (a unit test pins the absence of blocking sleeps here).
//!
//! Request handling per worker is a loop over a buffered connection:
//! read until the header terminator, answer from the published
//! [`RenderedRoutes`] (or a fresh render under `--no-cache`), drain the
//! parsed bytes, and continue — so a client that pipelines N requests
//! gets N responses in order without waiting for round trips.

use super::view::MaterializedView;
use super::{RenderedRoutes, RouteBody, ServeConfig, JSON_CT, OK};
use crate::daemon::ShutdownFlag;
use crate::error::PrudentiaError;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest request head (request line + headers) we accept.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Idle keep-alive read timeout before a connection is dropped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Time a request head may take to arrive once its first bytes are in,
/// before the connection is dropped. Without it a client dripping one
/// byte per [`IDLE_TIMEOUT`] could hold a worker for a whole
/// `MAX_HEAD_BYTES` head.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);
/// Janitor poll period for the shutdown flag (off the request path).
const JANITOR_PERIOD: Duration = Duration::from_millis(50);

/// Serve-layer counters, spliced into the `/metrics` tail.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    responses_304: AtomicU64,
    connections: AtomicU64,
    view_revision: AtomicU64,
    view_refreshes: AtomicU64,
    view_rebuilds: AtomicU64,
}

/// State shared by the workers and the refresher.
struct Shared {
    config: ServeConfig,
    shutdown: ShutdownFlag,
    /// The rendering workers answer from. `None` under `--no-cache`
    /// (each request renders fresh instead).
    published: Option<Mutex<Arc<RenderedRoutes>>>,
    counters: Counters,
}

impl Shared {
    /// The route set to answer the current request from.
    fn routes(&self) -> Arc<RenderedRoutes> {
        match &self.published {
            Some(published) => Arc::clone(&published.lock().expect("publish lock")),
            None => Arc::new(super::render_fresh(&self.config)),
        }
    }
}

/// Run the server until shutdown. See [`super::serve_with`] for the
/// caller contract.
pub(super) fn serve_http(
    config: &ServeConfig,
    shutdown: &ShutdownFlag,
    on_bound: impl FnOnce(&str),
) -> Result<(), PrudentiaError> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| PrudentiaError::Serve(format!("bind {}: {e}", config.addr)))?;
    let local = listener
        .local_addr()
        .map_err(|e| PrudentiaError::Serve(format!("local_addr: {e}")))?;

    let shared = Arc::new(Shared {
        config: config.clone(),
        shutdown: shutdown.clone(),
        published: config.cache.then(|| {
            Mutex::new(Arc::new(RenderedRoutes {
                data: Vec::new(),
                metrics: RouteBody::new(OK, JSON_CT, "{}".to_string()),
                revision: 0,
            }))
        }),
        counters: Counters::default(),
    });

    // The refresher owns the materialized view; workers only ever see
    // immutable published Arcs, so a republish never blocks a response
    // for longer than the pointer swap.
    let refresher = shared.published.as_ref().map(|slot| {
        let view = MaterializedView::new(&shared.config);
        *slot.lock().expect("publish lock") = view.published();
        publish_stats(&shared, &view);
        let shared = Arc::clone(&shared);
        let period = Duration::from_millis(shared.config.refresh_ms.max(1));
        std::thread::spawn(move || {
            let mut view = view;
            loop {
                std::thread::park_timeout(period);
                if shared.shutdown.is_requested() {
                    return;
                }
                if view.refresh() {
                    if let Some(slot) = &shared.published {
                        *slot.lock().expect("publish lock") = view.published();
                    }
                }
                publish_stats(&shared, &view);
            }
        })
    });

    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|i| {
            let listener = listener
                .try_clone()
                .map_err(|e| PrudentiaError::Serve(format!("clone listener: {e}")))?;
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&listener, &shared))
                .map_err(|e| PrudentiaError::Serve(format!("spawn worker: {e}")))
        })
        .collect::<Result<_, PrudentiaError>>()?;

    on_bound(&local.to_string());

    // Janitor: wait for the shutdown flag (set by SIGINT, the flag
    // file, or a worker answering /shutdown), then wake every blocked
    // accept with a loopback connection and join the pool.
    while !shutdown.is_requested() {
        std::thread::park_timeout(JANITOR_PERIOD);
    }
    wake_workers(local, workers.len());
    for worker in workers {
        worker
            .join()
            .map_err(|_| PrudentiaError::Serve("serve worker panicked".to_string()))?;
    }
    if let Some(handle) = refresher {
        handle.thread().unpark();
        handle
            .join()
            .map_err(|_| PrudentiaError::Serve("view refresher panicked".to_string()))?;
    }
    Ok(())
}

fn publish_stats(shared: &Shared, view: &MaterializedView) {
    let stats = view.stats();
    let c = &shared.counters;
    c.view_revision.store(stats.revision, Ordering::Relaxed);
    c.view_refreshes.store(stats.refreshes, Ordering::Relaxed);
    c.view_rebuilds.store(stats.rebuilds, Ordering::Relaxed);
}

/// One loopback connection per worker unblocks every `accept()`.
fn wake_workers(local: SocketAddr, workers: usize) {
    for _ in 0..workers {
        TcpStream::connect_timeout(&local, Duration::from_millis(250)).ok();
    }
}

fn worker_loop(listener: &TcpListener, shared: &Shared) {
    let mut accept_errors = 0u32;
    loop {
        if shared.shutdown.is_requested() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                accept_errors = 0;
                if shared.shutdown.is_requested() {
                    return;
                }
                // A failed connection must never take the worker down.
                handle_connection(stream, shared).ok();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failures (EMFILE under load) spin
                // through yield; a persistently broken listener stops
                // the worker rather than burning a core.
                accept_errors += 1;
                if accept_errors > 100 {
                    return;
                }
                std::thread::yield_now();
            }
        }
    }
}

/// One parsed request head.
struct Request {
    method: String,
    path: String,
    keep_alive: bool,
    if_none_match: Option<String>,
    /// Request body bytes to drain after the head (GETs should have
    /// none, but a conforming parser must not misread them as the next
    /// pipelined request).
    content_length: usize,
}

/// Read one request head from `buf`/`stream`. `Ok(None)` means the
/// client closed (or idled out) cleanly between requests.
///
/// A head must be complete within `head_deadline` of the first read that
/// left it incomplete (or of the call, for a head already begun in
/// `buf`); past it the result is a `TimedOut` error. The deadline is
/// enforced by shrinking the stream's read timeout to the time left, so
/// a head that arrives in one read costs no extra syscall, and a shrunk
/// timeout is put back to [`IDLE_TIMEOUT`] once the head is complete.
fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    head_deadline: Duration,
) -> std::io::Result<Option<Request>> {
    let mut head_started = None;
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        if !buf.is_empty() {
            let started = *head_started.get_or_insert_with(Instant::now);
            let left = head_deadline.saturating_sub(started.elapsed());
            if left.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request head deadline passed",
                ));
            }
            stream.set_read_timeout(Some(left.min(IDLE_TIMEOUT)))?;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(None);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_started.is_some() {
        stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    }

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    buf.drain(..head_end + 4);

    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or("/").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();

    let mut connection = None;
    let mut if_none_match = None;
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "connection" => connection = Some(value.to_ascii_lowercase()),
            "if-none-match" => if_none_match = Some(value.to_string()),
            "content-length" => content_length = value.parse().unwrap_or(0),
            _ => {}
        }
    }

    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    let keep_alive = match connection.as_deref() {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    Ok(Some(Request {
        method,
        path,
        keep_alive,
        if_none_match,
        content_length,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Whether an `If-None-Match` header value matches a strong etag.
fn etag_matches(header: &str, etag: &str) -> bool {
    header
        .split(',')
        .map(str::trim)
        .any(|tok| tok == "*" || tok == etag || tok.strip_prefix("W/") == Some(etag))
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    shared.counters.connections.fetch_add(1, Ordering::Relaxed);
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(IDLE_TIMEOUT)).ok();
    stream.set_write_timeout(Some(Duration::from_secs(10))).ok();

    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    loop {
        let request = match read_request(&mut stream, &mut buf, HEAD_DEADLINE) {
            Ok(Some(req)) => req,
            // Clean close between requests, idle timeout, head deadline
            // passed, or malformed head: drop the connection either way.
            Ok(None) | Err(_) => return Ok(()),
        };
        // Drain any request body so pipelined parsing stays aligned.
        drain_body(&mut stream, &mut buf, request.content_length)?;
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);

        let keep_alive = request.keep_alive && !shared.shutdown.is_requested();
        respond(&mut stream, shared, &request, keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

fn drain_body(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    mut remaining: usize,
) -> std::io::Result<()> {
    let buffered = remaining.min(buf.len());
    buf.drain(..buffered);
    remaining -= buffered;
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        let n = stream.read(&mut chunk[..remaining.min(4096)])?;
        if n == 0 {
            return Ok(());
        }
        remaining -= n;
    }
    Ok(())
}

fn respond(
    stream: &mut TcpStream,
    shared: &Shared,
    request: &Request,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };

    if request.method != "GET" {
        return write_response(
            stream,
            "405 Method Not Allowed",
            JSON_CT,
            b"{\"error\":\"GET only\"}",
            None,
            connection,
            &[("Allow", "GET")],
        );
    }

    match request.path.as_str() {
        "/shutdown" => {
            shared.shutdown.request();
            write_response(
                stream,
                OK,
                JSON_CT,
                b"{\"shutting_down\":true}",
                None,
                "close",
                &[],
            )
        }
        "/metrics" => {
            let routes = shared.routes();
            let body = metrics_with_counters(shared, &routes);
            write_response(
                stream,
                routes.metrics.status,
                routes.metrics.content_type,
                body.as_bytes(),
                None,
                connection,
                &[],
            )
        }
        path => {
            let routes = shared.routes();
            let Some(route) = routes.get(path) else {
                return write_response(
                    stream,
                    "404 Not Found",
                    JSON_CT,
                    b"{\"error\":\"unknown route\"}",
                    None,
                    connection,
                    &[],
                );
            };
            // Conditional requests only make sense against a cacheable
            // 200; a degraded/unavailable 503 always carries its body.
            if route.status == OK {
                if let Some(inm) = &request.if_none_match {
                    if etag_matches(inm, &route.etag) {
                        shared
                            .counters
                            .responses_304
                            .fetch_add(1, Ordering::Relaxed);
                        return write_response(
                            stream,
                            "304 Not Modified",
                            route.content_type,
                            b"",
                            Some(&route.etag),
                            connection,
                            &[],
                        );
                    }
                }
                write_response(
                    stream,
                    route.status,
                    route.content_type,
                    &route.body,
                    Some(&route.etag),
                    connection,
                    &[],
                )
            } else {
                write_response(
                    stream,
                    route.status,
                    route.content_type,
                    &route.body,
                    None,
                    connection,
                    &[],
                )
            }
        }
    }
}

/// The `/metrics` body: the rendered store-level object with the live
/// serve counters spliced into the tail (only onto a healthy 200; the
/// unavailable 503 body passes through untouched).
fn metrics_with_counters(shared: &Shared, routes: &RenderedRoutes) -> String {
    let base = String::from_utf8_lossy(&routes.metrics.body).into_owned();
    if routes.metrics.status != OK {
        return base;
    }
    let c = &shared.counters;
    let tail = format!(
        "\"serve/requests\":{},\"serve/responses_304\":{},\"serve/connections\":{},\
         \"serve/workers\":{},\"serve/cache\":{},\"serve/view_revision\":{},\
         \"serve/view_refreshes\":{},\"serve/view_rebuilds\":{}}}",
        c.requests.load(Ordering::Relaxed),
        c.responses_304.load(Ordering::Relaxed),
        c.connections.load(Ordering::Relaxed),
        shared.config.workers.max(1),
        u8::from(shared.config.cache),
        c.view_revision.load(Ordering::Relaxed),
        c.view_refreshes.load(Ordering::Relaxed),
        c.view_rebuilds.load(Ordering::Relaxed),
    );
    match base.strip_suffix('}') {
        Some(head) if head.trim_end().ends_with('{') => format!("{head}{tail}"),
        Some(head) => format!("{head},{tail}"),
        None => base,
    }
}

#[allow(clippy::too_many_arguments)]
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
    etag: Option<&str>,
    connection: &str,
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(etag) = etag {
        head.push_str(&format!("ETag: {etag}\r\nCache-Control: no-cache\r\n"));
    }
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Connection: {connection}\r\n\r\n"));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::super::testutil::seeded_store;
    use super::super::{serve_with, ServeConfig};
    use super::*;
    use std::collections::HashMap;

    /// Spawn a server on an ephemeral port; returns its address, the
    /// flag, and the join handle.
    fn spawn_server(
        config: ServeConfig,
    ) -> (
        String,
        ShutdownFlag,
        std::thread::JoinHandle<Result<(), PrudentiaError>>,
    ) {
        let flag = ShutdownFlag::new();
        let thread_flag = flag.clone();
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        let handle = std::thread::spawn(move || {
            serve_with(&config, &thread_flag, |addr| {
                tx.send(addr.to_string()).ok();
            })
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("server bound");
        (addr, flag, handle)
    }

    struct Response {
        status: String,
        headers: HashMap<String, String>,
        body: Vec<u8>,
    }

    /// A keep-alive test client. The receive buffer persists across
    /// responses so pipelined replies arriving in one segment are not
    /// lost between reads.
    struct Client {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl Client {
        fn connect(addr: &str) -> Client {
            Client {
                stream: TcpStream::connect(addr).expect("connect"),
                buf: Vec::new(),
            }
        }

        fn send(&mut self, raw: &[u8]) {
            self.stream.write_all(raw).expect("send request");
        }

        fn get(&mut self, path: &str, extra: &str) -> Response {
            self.send(format!("GET {path} HTTP/1.1\r\nHost: x\r\n{extra}\r\n").as_bytes());
            self.read_response()
        }

        /// Read exactly one HTTP response, leaving any bytes of the
        /// next pipelined response in the buffer.
        fn read_response(&mut self) -> Response {
            let head_end = loop {
                if let Some(pos) = find_head_end(&self.buf) {
                    break pos;
                }
                let mut chunk = [0u8; 4096];
                let n = self.stream.read(&mut chunk).expect("read response");
                assert!(n > 0, "connection closed mid-response");
                self.buf.extend_from_slice(&chunk[..n]);
            };
            let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
            self.buf.drain(..head_end + 4);
            let mut lines = head.split("\r\n");
            let status = lines.next().unwrap_or_default().to_string();
            let mut headers = HashMap::new();
            for line in lines {
                if let Some((k, v)) = line.split_once(':') {
                    headers.insert(k.to_ascii_lowercase(), v.trim().to_string());
                }
            }
            let len: usize = headers
                .get("content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            while self.buf.len() < len {
                let mut chunk = [0u8; 4096];
                let n = self.stream.read(&mut chunk).expect("read body");
                assert!(n > 0, "connection closed mid-body");
                self.buf.extend_from_slice(&chunk[..n]);
            }
            let body: Vec<u8> = self.buf.drain(..len).collect();
            Response {
                status,
                headers,
                body,
            }
        }
    }

    fn shutdown_and_join(addr: &str, handle: std::thread::JoinHandle<Result<(), PrudentiaError>>) {
        let mut client = Client::connect(addr);
        let resp = client.get("/shutdown", "");
        assert!(resp.status.contains("200"), "{}", resp.status);
        handle
            .join()
            .expect("server thread joins")
            .expect("clean shutdown");
    }

    #[test]
    fn no_sleep_on_the_accept_path() {
        // The 20 ms sleep-poll is gone for good: nothing in this module
        // may call the blocking sleep (park_timeout off the request
        // path is the only timed wait allowed).
        let src = include_str!("http.rs");
        assert!(
            !src.contains(concat!("thread::", "sleep")),
            "no blocking sleep anywhere on the serve path"
        );
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let (dir, config) = seeded_store("prudentia_http_unit", "keepalive");
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        for _ in 0..3 {
            let resp = client.get("/status", "");
            assert!(resp.status.contains("200 OK"), "{}", resp.status);
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );
            let body = String::from_utf8_lossy(&resp.body);
            assert!(body.contains("\"service\":\"prudentia\""), "{body}");
        }
        // A second connection works while the first is still open.
        let mut other = Client::connect(&addr);
        let resp = other.get("/heatmap.csv", "");
        assert!(resp.status.contains("200 OK"), "{}", resp.status);
        assert!(String::from_utf8_lossy(&resp.body).contains("contender\\incumbent"));

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn etag_round_trip_yields_an_empty_304() {
        let (dir, config) = seeded_store("prudentia_http_unit", "etag");
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        let first = client.get("/heatmap.csv", "");
        assert!(first.status.contains("200 OK"), "{}", first.status);
        let etag = first.headers.get("etag").expect("etag present").clone();
        assert_eq!(
            first.headers.get("cache-control").map(String::as_str),
            Some("no-cache")
        );

        let second = client.get("/heatmap.csv", &format!("If-None-Match: {etag}\r\n"));
        assert!(
            second.status.contains("304 Not Modified"),
            "{}",
            second.status
        );
        assert!(second.body.is_empty(), "304 carries no body");
        assert_eq!(
            second.headers.get("etag"),
            Some(&etag),
            "304 echoes the etag"
        );

        // A stale etag gets the full body again.
        let third = client.get("/heatmap.csv", "If-None-Match: \"0000000000000000\"\r\n");
        assert!(third.status.contains("200 OK"), "{}", third.status);
        assert_eq!(third.body, first.body, "same bytes as the first fetch");

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn http10_clients_get_close_semantics() {
        let (dir, config) = seeded_store("prudentia_http_unit", "http10");
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        client.send(b"GET /status HTTP/1.0\r\nHost: x\r\n\r\n");
        let resp = client.read_response();
        assert!(resp.status.contains("200 OK"), "{}", resp.status);
        assert_eq!(
            resp.headers.get("connection").map(String::as_str),
            Some("close")
        );
        // The server closes its end: the next read returns EOF.
        let mut rest = Vec::new();
        client
            .stream
            .read_to_end(&mut rest)
            .expect("EOF after close");
        assert!(rest.is_empty() && client.buf.is_empty());

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_routes_and_methods_answer_cleanly() {
        let (dir, config) = seeded_store("prudentia_http_unit", "errors");
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        let resp = client.get("/nope", "");
        assert!(resp.status.contains("404"), "{}", resp.status);

        client.send(b"POST /status HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi");
        let resp = client.read_response();
        assert!(resp.status.contains("405"), "{}", resp.status);
        assert_eq!(resp.headers.get("allow").map(String::as_str), Some("GET"));

        // The connection survives both errors and still serves data.
        let resp = client.get("/status", "");
        assert!(resp.status.contains("200 OK"), "{}", resp.status);

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (dir, config) = seeded_store("prudentia_http_unit", "pipeline");
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        client.send(
            b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /heatmap.csv HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let first = client.read_response();
        assert!(String::from_utf8_lossy(&first.body).contains("\"service\":\"prudentia\""));
        let second = client.read_response();
        assert!(String::from_utf8_lossy(&second.body).contains("contender\\incumbent"));
        let third = client.read_response();
        assert!(third.status.contains("404"), "{}", third.status);

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_carries_the_serve_counter_tail() {
        let (dir, config) = seeded_store("prudentia_http_unit", "metrics");
        let workers = config.workers.max(1);
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        client.get("/status", "");
        let resp = client.get("/metrics", "");
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(body.contains("\"store/live_records\":"), "{body}");
        assert!(body.contains("\"serve/requests\":"), "{body}");
        assert!(
            body.contains(&format!("\"serve/workers\":{workers}")),
            "{body}"
        );
        assert!(body.contains("\"serve/cache\":1"), "{body}");
        assert!(body.contains("\"serve/view_revision\":1"), "{body}");
        // The splice must keep the object well-formed: one object, no
        // dangling comma where the store half meets the serve tail.
        assert!(body.starts_with('{') && body.ends_with('}'), "{body}");
        assert!(!body.contains("{,") && !body.contains(",}"), "{body}");

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_cache_mode_serves_identical_data_bytes() {
        let (dir, config) = seeded_store("prudentia_http_unit", "nocache");
        let mut fresh_config = config.clone();
        fresh_config.cache = false;
        let (addr_cached, _f1, h1) = spawn_server(config);
        let (addr_fresh, _f2, h2) = spawn_server(fresh_config);

        for path in super::super::DATA_ROUTES {
            let mut a = Client::connect(&addr_cached);
            let mut b = Client::connect(&addr_fresh);
            let cached = a.get(path, "");
            let fresh = b.get(path, "");
            assert_eq!(cached.status, fresh.status, "{path}");
            assert_eq!(cached.body, fresh.body, "{path}: bodies must be identical");
            assert_eq!(
                cached.headers.get("etag"),
                fresh.headers.get("etag"),
                "{path}: etags must be identical"
            );
        }

        shutdown_and_join(&addr_cached, h1);
        shutdown_and_join(&addr_fresh, h2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_answers_while_a_writer_appends() {
        use prudentia_store::Store;
        let (dir, config) = seeded_store("prudentia_http_unit", "live_append");
        let (addr, _flag, handle) = spawn_server(config);

        let mut client = Client::connect(&addr);
        let before = client.get("/status", "");
        let mut store = Store::open(&dir).expect("writer opens");
        store
            .append("note", 7, 1, "{\"live\":true}".to_string())
            .expect("append");
        // The view revalidates within refresh_ms; poll until the new
        // watermark shows up (bounded, no fixed sleep assumptions).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let now = client.get("/status", "");
            if now.body != before.body {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "materialized view never picked up the append"
            );
            std::thread::yield_now();
        }

        shutdown_and_join(&addr, handle);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A listener and one accepted server-side stream, configured the
    /// way `handle_connection` configures it, plus the client end.
    fn stream_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_read_timeout(Some(IDLE_TIMEOUT)).unwrap();
        (server, client)
    }

    #[test]
    fn a_dripping_head_is_cut_off_at_the_head_deadline() {
        let (mut server, mut client) = stream_pair();
        // One byte every 50 ms: each read returns well inside the idle
        // timeout, so only the head deadline can end this.
        let dripper = std::thread::spawn(move || {
            for &b in b"GET /status HTTP/1.1\r\nX-Slow: ".iter().cycle().take(400) {
                if client.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::park_timeout(Duration::from_millis(50));
            }
        });
        let started = Instant::now();
        let mut buf = Vec::new();
        let err = read_request(&mut server, &mut buf, Duration::from_millis(400))
            .err()
            .expect("a dripping head must fail");
        let took = started.elapsed();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ),
            "unexpected error {err:?}"
        );
        assert!(
            took < Duration::from_secs(3),
            "head deadline overran: {took:?}"
        );
        assert!(!buf.is_empty() && find_head_end(&buf).is_none());
        drop(server);
        dripper.join().unwrap();
    }

    #[test]
    fn a_head_within_the_deadline_is_read_and_the_idle_timeout_restored() {
        let (mut server, mut client) = stream_pair();
        // In one write: no read timeout change at all.
        client.write_all(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let req = read_request(&mut server, &mut buf, Duration::from_secs(5))
            .unwrap()
            .expect("a complete head");
        assert_eq!(req.path, "/a");
        assert_eq!(server.read_timeout().unwrap(), Some(IDLE_TIMEOUT));
        // Split in two: the timeout shrinks for the second read, then
        // returns to the idle timeout for the keep-alive wait.
        let writer = std::thread::spawn(move || {
            client.write_all(b"GET /b HT").unwrap();
            std::thread::park_timeout(Duration::from_millis(100));
            client.write_all(b"TP/1.1\r\n\r\n").unwrap();
            client
        });
        let req = read_request(&mut server, &mut buf, Duration::from_secs(5))
            .unwrap()
            .expect("a complete head");
        assert_eq!(req.path, "/b");
        assert_eq!(server.read_timeout().unwrap(), Some(IDLE_TIMEOUT));
        drop(writer.join().unwrap());
    }
}
