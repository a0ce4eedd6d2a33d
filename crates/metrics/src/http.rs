//! A hand-rolled HTTP/1.1 server for the metrics endpoints, built
//! directly on [`std::net::TcpListener`].
//!
//! Security posture: the listener is meant for `127.0.0.1` (or an
//! otherwise firewalled address) and treats every byte off the socket
//! as hostile. [`parse_request`] — shared with `sfn-serve` via
//! `sfn-httpcore`, and fuzzed as the `http` target — is the single
//! entry point for raw request bytes, and the server itself enforces a
//! hard request-size cap, a read deadline, a bounded connection count
//! (excess connections get `503` and are closed, never queued), and
//! `Connection: close` semantics (one request per connection, no
//! keep-alive state machine to get wrong).

use crate::hub::Hub;
use crate::{expo, snapshot};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

// The byte-level request contract lives in `sfn-httpcore`; these
// re-exports keep the long-standing `sfn_metrics::http::*` paths (and
// the `http` fuzz target) stable.
pub use sfn_httpcore::{
    parse_request, Request, RequestError, MAX_HEADERS, MAX_HEADER_NAME_BYTES,
    MAX_HEADER_VALUE_BYTES, MAX_REQUEST_BYTES, MAX_TARGET_BYTES,
};

// -------------------------------------------------------------- server

/// A running metrics listener. Threads are detached; [`stop`] flips a
/// flag the accept and collector loops poll, so shutdown completes
/// within one poll interval.
///
/// [`stop`]: ServerHandle::stop
pub struct ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Signals the accept loop and collector to exit.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Binds `addr` and serves the hub's endpoints on a background thread,
/// with a companion collector thread ticking the hub (window ingestion
/// + SLO evaluation) every `cfg.tick_millis`.
pub fn serve(hub: Arc<Hub>, addr: &str) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));

    let collector_hub = Arc::clone(&hub);
    let collector_stop = Arc::clone(&shutdown);
    let tick = Duration::from_millis(collector_hub.config().tick_millis.max(10));
    std::thread::Builder::new()
        .name("sfn-metrics-collect".into())
        .spawn(move || {
            while !collector_stop.load(Ordering::Relaxed) {
                collector_hub.collect_now();
                std::thread::sleep(tick);
            }
        })?;

    let accept_stop = Arc::clone(&shutdown);
    let max_conns = hub.config().max_connections.max(1);
    std::thread::Builder::new()
        .name("sfn-metrics-http".into())
        .spawn(move || {
            sfn_httpcore::accept_loop(
                &listener,
                &accept_stop,
                max_conns,
                "sfn-metrics-conn",
                move |stream| handle_connection(&hub, stream),
                |mut stream| {
                    sfn_obs::counter_add("metrics.http.rejected", 1);
                    let plain = "text/plain; charset=utf-8";
                    sfn_httpcore::write_response(&mut stream, 503, plain, &[], b"overload\n");
                },
            )
        })?;

    Ok(ServerHandle { addr, shutdown })
}

fn handle_connection(hub: &Hub, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    sfn_obs::counter_add("metrics.http.requests", 1);

    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_complete = loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break true;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            break false;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break false,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break false,
        }
    };

    let (status, content_type, body) = if !head_complete && buf.len() > MAX_REQUEST_BYTES {
        status_page(431, "request head too large\n")
    } else if !head_complete {
        status_page(400, "incomplete request\n")
    } else {
        match parse_request(&buf) {
            Ok(req) => route(hub, &req),
            Err(RequestError::TooLarge) => status_page(431, "request head too large\n"),
            Err(e) => {
                sfn_obs::counter_add("metrics.http.malformed", 1);
                status_page(400, &format!("{e}\n"))
            }
        }
    };
    sfn_httpcore::write_response(&mut stream, status, content_type, &[], &body);
}

fn status_page(status: u16, body: &str) -> (u16, &'static str, Vec<u8>) {
    (status, "text/plain; charset=utf-8", body.as_bytes().to_vec())
}

fn route(hub: &Hub, req: &Request) -> (u16, &'static str, Vec<u8>) {
    if req.method != "GET" && req.method != "HEAD" {
        return status_page(405, "only GET and HEAD are served\n");
    }
    let path = req.target.split('?').next().unwrap_or("");
    match path {
        "/metrics" => (
            200,
            // The Prometheus text exposition format content type.
            "text/plain; version=0.0.4; charset=utf-8",
            expo::render(hub).into_bytes(),
        ),
        "/healthz" => {
            let health = hub.health();
            if health.degraded {
                let mut body = String::from("degraded\n");
                for reason in &health.reasons {
                    body.push_str(reason);
                    body.push('\n');
                }
                (503, "text/plain; charset=utf-8", body.into_bytes())
            } else {
                (200, "text/plain; charset=utf-8", b"ok\n".to_vec())
            }
        }
        "/snapshot.json" => (
            200,
            "application/json",
            snapshot::render(hub).into_bytes(),
        ),
        _ => status_page(404, "not found; try /metrics, /healthz or /snapshot.json\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The parser's own behavioural tests live in `sfn-httpcore`; these
    // pin the re-exported paths this crate has always offered.
    #[test]
    fn reexported_parser_paths_still_work() {
        let r = parse_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("parses");
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/metrics");
        assert_eq!(crate::parse_request(&r.render()).expect("fixed point"), r);
        const { assert!(MAX_REQUEST_BYTES >= MAX_TARGET_BYTES) };
        const { assert!(MAX_HEADER_NAME_BYTES < MAX_HEADER_VALUE_BYTES || MAX_HEADERS > 0) };
    }

    #[test]
    fn oversize_heads_still_reject_through_reexport() {
        let huge = vec![b'A'; MAX_REQUEST_BYTES + 1];
        assert_eq!(parse_request(&huge), Err(RequestError::TooLarge));
    }
}
