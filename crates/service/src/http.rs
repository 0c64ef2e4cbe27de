//! The observability HTTP sidecar: a tiny std-only HTTP/1.1 listener
//! serving Prometheus text-format `/metrics`, liveness (`/healthz`) and
//! readiness (`/readyz`).
//!
//! Deliberately minimal — GET only, one request per connection,
//! `Connection: close` — because its sole clients are scrapers and load
//! balancers, and because the job protocol (JSON lines over TCP) must stay
//! the only stateful surface. The sidecar thread polls the shared shutdown
//! flag between accepts so `PlacementService::join` terminates it without a
//! dedicated wake channel.

use crate::server::Shared;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the sidecar sleeps between accept attempts; bounds both idle CPU
/// and shutdown latency.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Largest request head the sidecar will buffer before answering 400.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Prometheus metric-name prefix for everything in the registry.
const METRIC_PREFIX: &str = "apls_";

/// Spawns the sidecar thread serving `listener` until shutdown.
pub(crate) fn spawn(listener: TcpListener, shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::spawn(move || serve(&listener, &shared))
}

fn serve(listener: &TcpListener, shared: &Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => handle_request(stream, shared),
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_TICK),
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
}

/// Serves exactly one request on `stream`. All errors are swallowed: a
/// half-open scraper must never disturb the daemon.
fn handle_request(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Some(path) = read_request_path(&mut stream) else {
        respond(&mut stream, 400, "text/plain; charset=utf-8", "bad request\n");
        return;
    };
    match path.as_str() {
        "/metrics" => {
            shared.refresh_gauges();
            let body = shared.metrics.registry.render_prometheus(METRIC_PREFIX);
            respond(&mut stream, 200, "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/healthz" => respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n"),
        "/readyz" => {
            let (ready, reason) = shared.is_ready();
            let status = if ready { 200 } else { 503 };
            respond(&mut stream, status, "text/plain; charset=utf-8", &format!("{reason}\n"));
        }
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// Reads the request head and extracts the path of a `GET <path> HTTP/1.x`
/// request line. Returns `None` for anything else.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request line; scrapers send tiny heads, so a
    // couple of reads suffice. Stop early once a full line is buffered.
    while !head.contains(&b'\n') {
        if head.len() > MAX_HEAD_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if method != "GET" || !version.starts_with("HTTP/1.") {
        return None;
    }
    // Scrapers may append query strings; the sidecar ignores them.
    Some(path.split('?').next().unwrap_or(path).to_string())
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "OK",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    let _ = stream.write_all(head.as_bytes()).and_then(|()| stream.write_all(body.as_bytes()));
    let _ = stream.flush();
}
