//! Minimal std-only HTTP/1.1 client for the daemon's API.
//!
//! The server closes the connection after every response
//! (`Connection: close`), so a request is: write the head and body, read
//! to EOF, split the head off at the blank line. No keep-alive, no
//! chunked encoding — exactly what the `optd_client` binary, the fleet
//! coordinator, the integration tests, and the smoke scripts need, with
//! zero dependencies.
//!
//! [`CallOptions`] adds the two knobs a fleet needs: a per-attempt
//! connect timeout, and a bounded retry-with-backoff budget for
//! connection-refused errors — the window between spawning a server
//! process and its listener being up. The default options reproduce the
//! original client exactly (plain connect, 10 s socket timeout, no
//! retry).

use optassign_obs::{Obs, TraceContext, TRACE_HEADER};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Per-request socket timeout.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning for one HTTP call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallOptions {
    /// Read/write timeout on the established connection.
    pub io_timeout: Duration,
    /// Timeout for each individual connect attempt.
    pub connect_timeout: Duration,
    /// Total budget for retrying refused/reset/timed-out connects with
    /// exponential backoff (50 ms doubling, capped at 1 s). `None`
    /// means a single attempt, like the plain client.
    pub connect_budget: Option<Duration>,
}

impl Default for CallOptions {
    fn default() -> CallOptions {
        CallOptions {
            io_timeout: CLIENT_TIMEOUT,
            connect_timeout: CLIENT_TIMEOUT,
            connect_budget: None,
        }
    }
}

impl CallOptions {
    /// Options that keep retrying a refused connect for `budget` — what
    /// a client racing a server's startup wants.
    #[must_use]
    pub fn with_connect_budget(budget: Duration) -> CallOptions {
        CallOptions {
            connect_timeout: Duration::from_secs(2),
            connect_budget: Some(budget),
            ..CallOptions::default()
        }
    }
}

/// Connects to `addr`, retrying transient connect failures within the
/// options' budget.
fn connect(addr: &str, options: &CallOptions) -> std::io::Result<TcpStream> {
    let deadline = options.connect_budget.map(|b| Instant::now() + b);
    let mut backoff = Duration::from_millis(50);
    loop {
        let attempt = (|| {
            let mut last = std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("{addr}: no usable address"),
            );
            for sock_addr in addr.to_socket_addrs()? {
                match TcpStream::connect_timeout(&sock_addr, options.connect_timeout) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => last = e,
                }
            }
            Err(last)
        })();
        let error = match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => e,
        };
        let transient = matches!(
            error.kind(),
            std::io::ErrorKind::ConnectionRefused
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::TimedOut
        );
        match deadline {
            Some(deadline) if transient && Instant::now() + backoff < deadline => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
            _ => return Err(error),
        }
    }
}

/// Issues one HTTP request and returns `(status, body)`.
///
/// # Errors
///
/// Propagates connect/read/write failures; a response without a valid
/// status line is [`std::io::ErrorKind::InvalidData`].
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    http_call_with(addr, method, path, body, &CallOptions::default())
}

/// [`http_call`] with explicit [`CallOptions`].
///
/// # Errors
///
/// As [`http_call`].
pub fn http_call_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    options: &CallOptions,
) -> std::io::Result<(u16, String)> {
    call_inner(addr, method, path, body, options, None)
}

/// [`http_call_with`] carrying a distributed-trace context: the request
/// gains an `x-oast-trace` header naming a fresh client span (allocated
/// from `obs`), and the call is journaled as an `rpc_client` event with
/// its send/receive clock readings. With a disabled `obs` or no context
/// the request and journal are byte-identical to the untraced call.
///
/// # Errors
///
/// As [`http_call`]. Transport failures are journaled with status `0`
/// before propagating, so the timeline shows the attempt.
pub fn http_call_traced(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    options: &CallOptions,
    obs: &Obs,
    ctx: Option<&TraceContext>,
) -> std::io::Result<(u16, String)> {
    let Some(ctx) = ctx.filter(|_| obs.enabled()) else {
        return call_inner(addr, method, path, body, options, None);
    };
    let id = obs.next_client_span_id(ctx);
    let header = format!("{TRACE_HEADER}: {}", ctx.child(id).header_value());
    let send_ns = obs.now_ns();
    let outcome = call_inner(addr, method, path, body, options, Some(&header));
    let recv_ns = obs.now_ns();
    let status = match &outcome {
        Ok((status, _)) => *status,
        Err(_) => 0,
    };
    obs.record_rpc_client(path, status, ctx, id, send_ns, recv_ns);
    outcome
}

fn call_inner(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    options: &CallOptions,
    extra_header: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = connect(addr, options)?;
    stream.set_read_timeout(Some(options.io_timeout))?;
    stream.set_write_timeout(Some(options.io_timeout))?;
    let payload = body.unwrap_or("");
    let trace_line = extra_header.map_or(String::new(), |h| format!("{h}\r\n"));
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n{trace_line}\
         Content-Length: {}\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let (status, body) = parse_response(&raw)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

fn parse_response(raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let invalid =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(invalid)?;
    let head = String::from_utf8_lossy(&raw[..split]);
    let status_line = head.lines().next().ok_or_else(invalid)?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(invalid)?;
    Ok((status, raw[split + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\r\n{\"ok\":true}";
        let (status, body) = parse_response(raw).unwrap();
        assert_eq!(status, 201);
        assert_eq!(body, b"{\"ok\":true}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http at all").is_err());
        assert!(parse_response(b"HTTP/1.1 banana\r\n\r\nbody").is_err());
    }

    #[test]
    fn binary_bodies_survive_untouched() {
        let mut raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\r\n".to_vec();
        let payload = [0u8, 159, 146, 150, 255];
        raw.extend_from_slice(&payload);
        let (status, body) = parse_response(&raw).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, payload);
    }

    #[test]
    fn refused_connect_fails_fast_without_budget() {
        // Port 1 on localhost is essentially never listening.
        let started = Instant::now();
        let err = http_call("127.0.0.1:1", "GET", "/", None).unwrap_err();
        assert!(started.elapsed() < Duration::from_secs(5), "no retry loop");
        let _ = err;
    }

    #[test]
    fn connect_budget_retries_until_a_late_server_appears() {
        use std::net::TcpListener;
        // Reserve a port, close it, then start listening only after a
        // delay; the budgeted client must ride out the refused window.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let addr_clone = addr.clone();
        let server = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            let listener = TcpListener::bind(&addr_clone).unwrap();
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n");
        });
        let options = CallOptions::with_connect_budget(Duration::from_secs(10));
        let (status, body) = http_call_with(&addr, "GET", "/healthz", None, &options).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        server.join().unwrap();
    }
}
