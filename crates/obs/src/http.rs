//! A minimal, dependency-free scrape endpoint for live observability.
//!
//! Hand-rolled on `std::net::TcpListener` — the repo's no-new-deps rule
//! rules out hyper et al., and a scrape server needs exactly one request
//! shape (`GET <path>`). Routes:
//!
//! * `/metrics` — the global registry as Prometheus exposition text.
//! * `/slow` (or `/slow?n=N`) — recent force-captured [`SlowOp`](flight::SlowOp) events
//!   from the global flight recorder, as JSON.
//! * `/traces/recent` — recent sampled traces from the trace ring, JSON
//!   (non-draining, so scraping does not steal traces from the CLI).
//! * `/attribution` — per-`(system, op)` explain reports plus cumulative
//!   per-node phase attribution, JSON.
//!
//! Startup is gated by `MANTLE_OBS_ADDR` (e.g.
//! `MANTLE_OBS_ADDR=127.0.0.1:9925`); see [`serve_if_configured`]. Tests
//! bind port 0 via [`serve`] and read the chosen port from
//! [`ObsServer::local_addr`].

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mantle_types::EnvConfig;
use serde::Serialize;
use serde_json::json;

use crate::flight;
use crate::trace;

/// Default number of items `/slow` and `/traces/recent` return when the
/// query string does not say otherwise.
const DEFAULT_RECENT: usize = 32;

/// Cap on `?n=` so a hostile scrape cannot ask for the universe.
const MAX_RECENT: usize = 1024;

/// Bytes read from a connection before its request is refused: generous for
/// `GET /slow?n=1024` plus a client's headers, and the bound on what a peer
/// that never sends a newline can make the acceptor buffer.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// A running scrape server. Dropping it stops the acceptor thread and
/// releases the port.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Poke the acceptor loose from accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9925`; port 0 picks a free port) and
/// serves scrape requests on a background thread until the returned
/// [`ObsServer`] drops.
pub fn serve(addr: &str) -> std::io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("mantle-obs-http".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(stream) = conn {
                    // Scrapes are tiny; serve inline on the acceptor and
                    // never hang on a stalled peer.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = handle_connection(stream);
                }
            }
        })?;
    Ok(ObsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Starts the scrape server if `MANTLE_OBS_ADDR` is set. Bind failures are
/// reported to stderr and swallowed — observability must never take down
/// the workload it observes.
pub fn serve_if_configured() -> Option<ObsServer> {
    let addr = EnvConfig::get().obs_addr.as_ref()?;
    match serve(addr) {
        Ok(server) => {
            eprintln!(
                "mantle-obs: serving /metrics on http://{}",
                server.local_addr()
            );
            Some(server)
        }
        Err(e) => {
            eprintln!("mantle-obs: failed to bind {addr}: {e}");
            None
        }
    }
}

fn handle_connection(stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.take(MAX_REQUEST_BYTES));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers so the peer's write isn't reset mid-request.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let over_budget = reader.get_ref().limit() == 0;
    let mut stream = reader.into_inner().into_inner();
    if over_budget {
        return respond(&mut stream, 431, "text/plain", "request too large\n");
    }

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/" => respond(
            &mut stream,
            200,
            "text/plain; charset=utf-8",
            "mantle-obs: /metrics /slow /traces/recent /attribution\n",
        ),
        "/metrics" => {
            let body = crate::metrics::snapshot().to_prometheus_text();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/slow" => {
            let rec = flight::global();
            respond_json(
                &mut stream,
                &json!({
                    "dropped_total": rec.slow_dropped_total(),
                    "captured_total": rec.slow_captured_total(),
                    "events": rec.slow_recent(recent_limit(query)),
                }),
            )
        }
        "/traces/recent" => respond_json(
            &mut stream,
            &json!({
                "dropped_total": trace::dropped_total(),
                "traces": trace::peek_recent(recent_limit(query)),
            }),
        ),
        "/attribution" => {
            let rec = flight::global();
            let nodes: Vec<_> = rec
                .node_phases()
                .into_iter()
                .map(|(node, phases)| json!({ "node": node, "phases": phases }))
                .collect();
            respond_json(
                &mut stream,
                &json!({ "ops": rec.explain_all(), "nodes": nodes }),
            )
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Parses `n=<count>` out of a query string, clamped to [`MAX_RECENT`].
fn recent_limit(query: &str) -> usize {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_RECENT)
        .min(MAX_RECENT)
}

fn respond_json<T: Serialize>(stream: &mut TcpStream, value: &T) -> std::io::Result<()> {
    match serde_json::to_string_pretty(value) {
        Ok(body) => respond(stream, 200, "application/json", &body),
        Err(e) => respond(stream, 500, "text/plain", &format!("serialize: {e}\n")),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Issues a blocking `GET path` against `addr` and returns the response
/// body (status must be 200). Test/CI helper — the CLI and tests use it to
/// scrape a live endpoint without a real HTTP client in the tree.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: mantle\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(std::io::Error::other(format!("{path}: {status_line}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_all_routes_on_an_ephemeral_port() {
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        crate::metrics::counter("http_test_total", &[("route", "/metrics")]).inc();
        let metrics = get(addr, "/metrics").expect("/metrics");
        assert!(metrics.contains("# TYPE http_test_total counter"));
        assert!(metrics.contains("http_test_total{route=\"/metrics\"}"));

        let slow = get(addr, "/slow?n=4").expect("/slow");
        let v: serde_json::Value = serde_json::from_str(&slow).expect("slow JSON");
        assert!(v
            .get("events")
            .and_then(serde_json::Value::as_array)
            .is_some());

        let traces = get(addr, "/traces/recent").expect("/traces/recent");
        let v: serde_json::Value = serde_json::from_str(&traces).expect("traces JSON");
        assert!(v
            .get("traces")
            .and_then(serde_json::Value::as_array)
            .is_some());

        let attr = get(addr, "/attribution").expect("/attribution");
        let v: serde_json::Value = serde_json::from_str(&attr).expect("attribution JSON");
        assert!(v.get("ops").is_some() && v.get("nodes").is_some());

        assert!(get(addr, "/nope").is_err(), "unknown route 404s");
        let index = get(addr, "/").expect("index");
        assert!(index.contains("/metrics"));
    }

    /// A peer that streams bytes with no newline is refused once the request
    /// budget is spent, and the acceptor goes on serving.
    #[test]
    fn an_over_long_request_is_refused_and_the_server_keeps_serving() {
        let server = serve("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let chunk = [b'a'; 4096];
        for _ in 0..256 {
            // The server stops reading at its budget and closes: a later
            // write may be reset, which is the point.
            if peer.write_all(&chunk).is_err() {
                break;
            }
        }
        // Read to the close; a reset after the response still leaves the
        // response in `reply`.
        let mut reply = Vec::new();
        let _ = peer.read_to_end(&mut reply);
        let reply = String::from_utf8_lossy(&reply);
        assert!(
            reply.starts_with("HTTP/1.1 431 "),
            "refused at the budget, not read to the end: {reply:?}"
        );

        crate::metrics::counter("http_test_total", &[("route", "after_refusal")]).inc();
        let metrics = get(addr, "/metrics").expect("/metrics after the hostile peer");
        assert!(metrics.contains("http_test_total{route=\"after_refusal\"}"));
    }

    #[test]
    fn recent_limit_parses_and_clamps() {
        assert_eq!(recent_limit(""), DEFAULT_RECENT);
        assert_eq!(recent_limit("n=7"), 7);
        assert_eq!(recent_limit("x=1&n=9"), 9);
        assert_eq!(recent_limit("n=999999"), MAX_RECENT);
        assert_eq!(recent_limit("n=bogus"), DEFAULT_RECENT);
    }
}
