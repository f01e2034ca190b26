//! # optassign-httpd — the workspace's shared HTTP/1.1 server core
//!
//! One accept thread over `std::net::TcpListener`, one connection at a
//! time, `Connection: close` on every response — deliberately the
//! smallest server that `curl`, Prometheus scrapers, and a browser can
//! talk to. Every endpoint in the workspace routes through this core:
//! the bench binaries' `--serve` endpoint, the online assignment daemon
//! (`optassign-optd`), and the fleet's observability plane and worker
//! control and federation endpoints. They differ only in their
//! [`Handler`] and [`HttpConfig`].
//!
//! Before the handler runs, the core answers `GET /healthz` (`ok`),
//! `GET /metrics` (Prometheus text) and `GET /metrics.json` from the
//! server's [`Obs`] registry, so every endpoint exposes the same
//! surface. These requests count in the RED metrics and journal
//! `rpc_server` spans like any other; other methods reach the handler.
//!
//! The core also owns the *transport* hardening, so every server built
//! on it inherits the same behaviour:
//!
//! * request lines above [`MAX_REQUEST_LINE_BYTES`] are answered `431`
//!   (after draining in-flight bytes so the response survives the close);
//! * a connection that cannot finish its request head within
//!   a 5 s deadline is answered `408` — per-read timeouts shrink
//!   toward the deadline, so a drip-feeding client cannot extend its stay;
//! * methods outside [`HttpConfig::allowed_methods`] are answered `405`;
//! * request bodies are read only up to a declared `Content-Length`,
//!   capped at [`HttpConfig::max_body_bytes`] (`413` beyond it);
//! * every such rejection bumps the counter named by
//!   [`HttpConfig::rejected_counter`] on the server's [`Obs`] handle.
//!   Unknown paths are *not* rejections — a `404` from the handler is the
//!   correct answer to a well-formed question — and neither is the
//!   zero-byte connect used by shutdown.
//!
//! Handlers see a parsed [`Request`] (method, path, query, body) and
//! return a [`Response`]; everything they serve should be derived from
//! snapshots so serving never blocks or perturbs the pipeline.

use optassign_obs::{labeled, Obs, TraceContext, TRACE_HEADER};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest request head we accept; requests are a line plus a handful of
/// headers.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Largest request *line* we accept. Routes are a dozen bytes; anything
/// approaching this cap is garbage or abuse and is answered with `431`.
pub const MAX_REQUEST_LINE_BYTES: usize = 1024;

/// How long a single read or write may dawdle before we drop it.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Total wall-clock budget for reading one request (head *and* declared
/// body). A drip-feeding client can reset per-read timeouts forever; this
/// deadline cannot be reset, so one connection stalls the single-threaded
/// server for at most this long.
const CONNECTION_DEADLINE: Duration = Duration::from_secs(5);

/// Server-shape knobs a crate passes when starting its endpoint.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Name of the accept thread (shows up in panics and profilers).
    pub thread_name: &'static str,
    /// Counter bumped on the server's [`Obs`] for every rejected request
    /// (malformed line, bad method, oversized line or body, head/body
    /// deadline). `404`s and shutdown self-connects are not counted.
    pub rejected_counter: &'static str,
    /// Methods the handler is prepared to answer; anything else is `405`.
    pub allowed_methods: &'static [&'static str],
    /// Largest request body accepted (`413` beyond it). Servers that take
    /// no bodies set this to 0 — any `Content-Length > 0` is then a `413`.
    pub max_body_bytes: usize,
}

impl HttpConfig {
    /// A read-only GET endpoint: no bodies, standard caps.
    #[must_use]
    pub fn read_only(thread_name: &'static str, rejected_counter: &'static str) -> HttpConfig {
        HttpConfig {
            thread_name,
            rejected_counter,
            allowed_methods: &["GET"],
            max_body_bytes: 0,
        }
    }
}

/// One parsed request, as the handler sees it.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token from the request line (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, query string stripped.
    pub path: String,
    /// Query string (without the `?`), when present.
    pub query: Option<String>,
    /// Request body (empty unless the client declared a `Content-Length`).
    pub body: Vec<u8>,
    /// Remote trace context, when the client sent an `x-oast-trace`
    /// header. The server core journals the request's `rpc_server` span
    /// itself; handlers that start further spans parent them under
    /// [`TraceContext::server_span_id`] of this context.
    pub trace: Option<TraceContext>,
}

impl Request {
    /// The body as UTF-8, lossily decoded.
    #[must_use]
    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

/// One response a handler returns.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (`200`, `404`, `422`, …).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body. Text responses are plain UTF-8; file endpoints
    /// (a fleet worker's journal download) put raw bytes here.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` response with the given content type.
    #[must_use]
    pub fn ok(content_type: &'static str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            body: body.into(),
        }
    }

    /// A plain-text response with an arbitrary status code.
    #[must_use]
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// A JSON response with an arbitrary status code.
    #[must_use]
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A `200 OK` binary response (`application/octet-stream`) — a file
    /// served verbatim, like a fleet worker's `GET /v1/journal`.
    #[must_use]
    pub fn octets(body: Vec<u8>) -> Response {
        Response {
            status: 200,
            content_type: "application/octet-stream",
            body,
        }
    }

    /// The conventional `404 Not Found` answer.
    #[must_use]
    pub fn not_found() -> Response {
        Response::text(404, "not found\n")
    }
}

/// Reason phrase for the status codes the workspace's servers emit;
/// unknown codes get a neutral phrase rather than a panic.
#[must_use]
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// The route handler: pure request → response, called from the accept
/// thread. Everything it serves should come from snapshots; nothing may
/// flow from a request back into the measurement pipeline.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// Handle to a running HTTP server. Shuts down on [`Drop`] (or an
/// explicit [`HttpServer::shutdown`]); the accept thread never outlives
/// the handle.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept thread. `obs` receives the rejected-request counter and
    /// the RED metrics, and is what `/healthz`, `/metrics` and
    /// `/metrics.json` serve; `handler` answers every other well-formed
    /// request within the configured method set.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures; the caller decides whether a run
    /// without an endpoint should proceed.
    pub fn start(
        addr: &str,
        obs: Obs,
        config: HttpConfig,
        handler: Arc<Handler>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(config.thread_name.into())
            .spawn(move || serve(&listener, &obs, &config, handler.as_ref(), &stop_flag))?;
        Ok(HttpServer {
            addr: local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and waits for it to exit. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call; an error just means the listener is
        // already gone, which is the outcome we want.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(
    listener: &TcpListener,
    obs: &Obs,
    config: &HttpConfig,
    handler: &Handler,
    stop: &AtomicBool,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        handle_connection(stream, obs, config, handler);
    }
}

fn handle_connection(mut stream: TcpStream, obs: &Obs, config: &HttpConfig, handler: &Handler) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let reject = |stream: &mut TcpStream, status: u16, body: &str| {
        obs.counter_add(config.rejected_counter, 1);
        drain(stream);
        respond(stream, &Response::text(status, body));
    };
    let (head, mut leftover, start) = match read_head(&mut stream) {
        Head::Complete {
            head,
            leftover,
            start,
        } => (head, leftover, start),
        // Zero bytes sent: the shutdown self-connect (or a port probe).
        // Nothing to answer and nothing worth counting.
        Head::Silent => return,
        Head::TooLong => {
            reject(&mut stream, 431, "request line too long\n");
            return;
        }
        Head::TimedOut => {
            obs.counter_add(config.rejected_counter, 1);
            respond(&mut stream, &Response::text(408, "request timeout\n"));
            return;
        }
    };
    let request_line = head.lines().next().unwrap_or_default().to_string();
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        reject(&mut stream, 400, "bad request\n");
        return;
    };
    if !config.allowed_methods.contains(&method) {
        reject(&mut stream, 405, "method not allowed\n");
        return;
    }

    // Body, when declared. `leftover` already holds whatever body bytes
    // arrived with the head; the rest is read under the same connection
    // deadline the head was.
    let declared = content_length(&head).unwrap_or(0);
    if declared > config.max_body_bytes {
        reject(&mut stream, 413, "request body too large\n");
        return;
    }
    leftover.truncate(declared.min(leftover.len()));
    let mut body = leftover;
    let mut chunk = [0u8; 512];
    while body.len() < declared {
        let Some(remaining) = CONNECTION_DEADLINE.checked_sub(start.elapsed()) else {
            obs.counter_add(config.rejected_counter, 1);
            respond(&mut stream, &Response::text(408, "request timeout\n"));
            return;
        };
        let _ = stream.set_read_timeout(Some(remaining.min(IO_TIMEOUT)));
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => {
                obs.counter_add(config.rejected_counter, 1);
                respond(&mut stream, &Response::text(408, "request timeout\n"));
                return;
            }
            Ok(n) => {
                let take = n.min(declared - body.len());
                body.extend_from_slice(&chunk[..take]);
            }
        }
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let request = Request {
        method: method.to_string(),
        path,
        query,
        body,
        trace: header_value(&head, TRACE_HEADER).and_then(TraceContext::parse),
    };
    let recv_ns = obs.now_ns();
    let response = observability_route(obs, &request).unwrap_or_else(|| handler(&request));
    let send_ns = obs.now_ns();
    record_request(obs, &request, &response, recv_ns, send_ns);
    respond(&mut stream, &response);
}

/// The routes every server answers from its own [`Obs`] (see the crate
/// docs); `None` hands the request to the server's handler.
fn observability_route(obs: &Obs, request: &Request) -> Option<Response> {
    if request.method != "GET" {
        return None;
    }
    match request.path.as_str() {
        "/healthz" => Some(Response::text(200, "ok\n")),
        "/metrics" => Some(Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            obs.metrics().to_prometheus(),
        )),
        "/metrics.json" => Some(Response::json(200, obs.metrics().to_json())),
        _ => None,
    }
}

/// RED metrics for one answered request — rate, errors, and duration per
/// normalized route — plus the `rpc_server` journal span when the
/// request carried a trace context. Observation only: nothing here flows
/// back into the response.
fn record_request(obs: &Obs, request: &Request, response: &Response, recv_ns: u64, send_ns: u64) {
    if !obs.enabled() {
        return;
    }
    let route = route_key(&request.path);
    let method: &str = &request.method;
    obs.counter_add(
        &labeled(
            "http_requests_total",
            &[("method", method), ("route", &route)],
        ),
        1,
    );
    if response.status >= 400 {
        obs.counter_add(
            &labeled(
                "http_requests_errors_total",
                &[("route", &route), ("status", &response.status.to_string())],
            ),
            1,
        );
    }
    obs.observe(
        &labeled("http_request_duration_ns", &[("route", &route)]),
        send_ns.saturating_sub(recv_ns),
    );
    if let Some(ctx) = &request.trace {
        obs.record_rpc_server(&request.path, response.status, ctx, recv_ns, send_ns);
    }
}

/// Collapses identifier-looking path segments (`12345`, `c000017`) to
/// `{id}` so per-route series stay bounded no matter how many campaigns
/// or cache keys a server answers for.
fn route_key(path: &str) -> String {
    let mut out = String::new();
    for segment in path.split('/').skip(1) {
        out.push('/');
        if is_id_segment(segment) {
            out.push_str("{id}");
        } else {
            out.push_str(segment);
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    out
}

fn is_id_segment(segment: &str) -> bool {
    let digits = segment.strip_prefix('c').unwrap_or(segment);
    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
}

/// Parses a `Content-Length` header out of the request head,
/// case-insensitively.
fn content_length(head: &str) -> Option<usize> {
    header_value(head, "content-length").and_then(|value| value.parse::<usize>().ok())
}

/// Finds a header's trimmed value in the request head,
/// case-insensitively.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().skip(1).find_map(|line| {
        let (header, value) = line.split_once(':')?;
        if header.trim().eq_ignore_ascii_case(name) {
            Some(value.trim())
        } else {
            None
        }
    })
}

/// Discards whatever request bytes are still in flight, briefly. Closing
/// a socket with unread input provokes a TCP reset that can destroy the
/// rejection response before the peer reads it; consuming the leftovers
/// first (bounded, so an abuser cannot hold the thread) keeps the close
/// orderly.
fn drain(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut sink = [0u8; 512];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Outcome of reading one request head.
enum Head {
    /// A complete request head arrived in time. `leftover` holds the
    /// bytes read past the blank line (the start of the body, if any);
    /// `start` anchors the connection deadline for the body read.
    Complete {
        head: String,
        leftover: Vec<u8>,
        start: Instant,
    },
    /// The peer closed (or never spoke) without sending anything.
    Silent,
    /// The request line outgrew [`MAX_REQUEST_LINE_BYTES`].
    TooLong,
    /// The head did not complete within [`CONNECTION_DEADLINE`].
    TimedOut,
}

/// Reads until the end of the request head (or EOF / size cap / the
/// connection deadline) and classifies what arrived.
fn read_head(stream: &mut TcpStream) -> Head {
    let start = Instant::now();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        // Per-read timeout shrinks toward the overall deadline so a
        // drip-feeding client cannot extend its stay read by read.
        let Some(remaining) = CONNECTION_DEADLINE.checked_sub(start.elapsed()) else {
            return if buf.is_empty() {
                Head::Silent
            } else {
                Head::TimedOut
            };
        };
        let _ = stream.set_read_timeout(Some(remaining.min(IO_TIMEOUT)));
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => {
                return if buf.is_empty() {
                    Head::Silent
                } else {
                    Head::TimedOut
                };
            }
        };
        buf.extend_from_slice(&chunk[..n]);
        if !buf[..buf.len().min(MAX_REQUEST_LINE_BYTES + 1)].contains(&b'\n')
            && buf.len() > MAX_REQUEST_LINE_BYTES
        {
            return Head::TooLong;
        }
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    let (head_bytes, leftover) = match buf.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(pos) => (&buf[..pos + 4], buf[pos + 4..].to_vec()),
        None => (&buf[..], Vec::new()),
    };
    let head = String::from_utf8_lossy(head_bytes).into_owned();
    match head.lines().next() {
        Some(line) if line.len() > MAX_REQUEST_LINE_BYTES => Head::TooLong,
        Some(line) if !line.is_empty() => Head::Complete {
            head,
            leftover,
            start,
        },
        _ => Head::Silent,
    }
}

/// Writes one complete `Connection: close` response; write failures are
/// the client's problem, not the pipeline's.
fn respond(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(&response.body))
        .and_then(|()| stream.flush());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn start(config: HttpConfig) -> (HttpServer, Obs) {
        let obs = Obs::metrics_only();
        let handler: Arc<Handler> = Arc::new(|req: &Request| match req.path.as_str() {
            "/echo" => Response::ok("text/plain; charset=utf-8", req.body_str().into_owned()),
            "/query" => Response::ok(
                "text/plain; charset=utf-8",
                req.query.clone().unwrap_or_default(),
            ),
            "/ping" => Response::ok("text/plain; charset=utf-8", "pong\n"),
            _ => Response::not_found(),
        });
        let server = HttpServer::start("127.0.0.1:0", obs.clone(), config, handler).expect("bind");
        (server, obs)
    }

    fn rw_config() -> HttpConfig {
        HttpConfig {
            thread_name: "httpd-test",
            rejected_counter: "test_rejected_total",
            allowed_methods: &["GET", "POST", "DELETE"],
            max_body_bytes: 4096,
        }
    }

    fn raw(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream.write_all(request.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        let status = head.lines().next().expect("status line").to_string();
        (status, body.to_string())
    }

    #[test]
    fn routes_get_post_delete_with_bodies_and_queries() {
        let (server, _obs) = start(rw_config());
        let addr = server.addr();

        let (status, body) = raw(addr, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "pong\n");

        let payload = "{\"x\":1}";
        let (status, body) = raw(
            addr,
            &format!(
                "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{payload}",
                payload.len()
            ),
        );
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, payload);

        let (status, body) = raw(addr, "GET /query?a=1&b=2 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "a=1&b=2");

        let (status, _) = raw(addr, "DELETE /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
    }

    #[test]
    fn body_arriving_after_the_head_is_assembled() {
        let (server, _obs) = start(rw_config());
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
            .write_all(b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 10\r\n\r\nhello")
            .expect("head");
        std::thread::sleep(Duration::from_millis(50));
        stream.write_all(b"world").expect("tail");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.ends_with("helloworld"), "{response}");
    }

    #[test]
    fn rejections_are_counted_with_the_configured_counter() {
        let (server, obs) = start(rw_config());
        let addr = server.addr();
        let rejected = |obs: &Obs| obs.metrics().counter("test_rejected_total");

        let long_target = "x".repeat(4 * 1024);
        let (status, _) = raw(
            addr,
            &format!("GET /{long_target} HTTP/1.1\r\nHost: t\r\n\r\n"),
        );
        assert_eq!(status, "HTTP/1.1 431 Request Header Fields Too Large");
        assert_eq!(rejected(&obs), 1);

        let (status, _) = raw(addr, "GARBAGE\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 400 Bad Request");
        assert_eq!(rejected(&obs), 2);

        let (status, _) = raw(addr, "PATCH /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
        assert_eq!(rejected(&obs), 3);

        let (status, _) = raw(
            addr,
            "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 100000\r\n\r\n",
        );
        assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
        assert_eq!(rejected(&obs), 4);

        // 404 is a well-formed answer, not a rejection; nor is a 200.
        let (status, _) = raw(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        let (status, _) = raw(addr, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(rejected(&obs), 4);
    }

    #[test]
    fn every_server_answers_health_and_metrics_from_its_obs() {
        let obs = Obs::metrics_only();
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            Response::text(200, format!("handler {} {}\n", req.method, req.path))
        });
        let server =
            HttpServer::start("127.0.0.1:0", obs.clone(), rw_config(), handler).expect("bind");
        let addr = server.addr();
        obs.counter_add("late_total", 3);

        let (status, body) = raw(addr, "GET /healthz?probe=1 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");

        let (status, body) = raw(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            body.contains("# TYPE late_total counter\nlate_total 3\n"),
            "{body}"
        );
        // The earlier probe went through the RED metrics like any request.
        assert!(
            body.contains("http_requests_total{method=\"GET\",route=\"/healthz\"} 1"),
            "{body}"
        );

        let (status, body) = raw(addr, "GET /metrics.json HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let doc = optassign_obs::Json::parse(&body).expect("valid json");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("late_total"))
                .and_then(optassign_obs::Json::as_u64),
            Some(3)
        );

        // Only GET is answered by the core; other methods reach the handler.
        let (status, body) = raw(addr, "POST /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "handler POST /healthz\n");
    }

    #[test]
    fn read_only_config_rejects_posts_and_bodies() {
        let (server, obs) = start(HttpConfig::read_only("httpd-ro", "ro_rejected_total"));
        let addr = server.addr();
        let (status, _) = raw(
            addr,
            "POST /ping HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi",
        );
        assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");
        assert_eq!(obs.metrics().counter("ro_rejected_total"), 1);
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let (mut server, _obs) = start(rw_config());
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        std::net::TcpListener::bind(addr).expect("rebind after shutdown");
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        assert_eq!(reason_phrase(200), "OK");
        assert_eq!(reason_phrase(431), "Request Header Fields Too Large");
        assert_eq!(reason_phrase(777), "Response");
    }

    #[test]
    fn routes_normalize_identifier_segments() {
        assert_eq!(route_key("/"), "/");
        assert_eq!(route_key("/healthz"), "/healthz");
        assert_eq!(
            route_key("/v1/campaigns/c000017/best"),
            "/v1/campaigns/{id}/best"
        );
        assert_eq!(route_key("/v1/cache/123456789"), "/v1/cache/{id}");
    }

    #[test]
    fn red_metrics_cover_rate_errors_and_duration() {
        let (server, obs) = start(rw_config());
        let addr = server.addr();
        let (status, _) = raw(addr, "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let (status, _) = raw(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        let snap = obs.metrics();
        assert_eq!(
            snap.counter("http_requests_total{method=\"GET\",route=\"/ping\"}"),
            1
        );
        assert_eq!(
            snap.counter("http_requests_errors_total{route=\"/nope\",status=\"404\"}"),
            1
        );
        assert!(snap
            .histogram("http_request_duration_ns{route=\"/ping\"}")
            .is_some());
    }

    #[test]
    fn trace_header_reaches_the_handler_and_journals_a_server_span() {
        use optassign_obs::{FakeClock, MemoryRecorder};
        let rec = Arc::new(MemoryRecorder::default());
        let obs = Obs::new(Box::new(Arc::clone(&rec)), Box::new(FakeClock::new(7)));
        obs.enable_span_events();
        let seen: Arc<std::sync::Mutex<Option<TraceContext>>> =
            Arc::new(std::sync::Mutex::new(None));
        let seen_in_handler = Arc::clone(&seen);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            *seen_in_handler.lock().unwrap() = req.trace;
            Response::ok("text/plain; charset=utf-8", "ok\n")
        });
        let server =
            HttpServer::start("127.0.0.1:0", obs.clone(), rw_config(), handler).expect("bind");
        let ctx = TraceContext {
            trace_id: 0xabcd,
            parent_span_id: 0x1234,
        };
        let (status, _) = raw(
            server.addr(),
            &format!(
                "GET /ping HTTP/1.1\r\nHost: t\r\nX-Oast-Trace: {}\r\n\r\n",
                ctx.header_value()
            ),
        );
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(*seen.lock().unwrap(), Some(ctx));
        let lines = rec.lines();
        let server_event = lines
            .iter()
            .find(|l| l.contains("\"kind\":\"rpc_server\""))
            .expect("rpc_server journaled");
        assert!(server_event.contains("\"trace\":43981"), "{server_event}");
        assert!(
            server_event.contains(&format!("\"id\":{}", ctx.server_span_id())),
            "{server_event}"
        );
        assert!(
            server_event.contains("\"remote_parent\":4660"),
            "{server_event}"
        );

        // Requests without the header journal nothing.
        let before = rec.lines().len();
        let (status, _) = raw(server.addr(), "GET /ping HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(status, "HTTP/1.1 200 OK");
        let after = rec.lines();
        assert!(!after[before..].iter().any(|l| l.contains("rpc_server")));
    }
}
