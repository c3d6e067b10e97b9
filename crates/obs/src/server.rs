//! The live exposition endpoint: a tiny blocking HTTP listener serving
//! `GET /metrics` (Prometheus text) and `GET /trace` (Chrome Trace Event
//! JSON) from a shared [`MetricsRegistry`] and optional
//! [`Recorder`](crate::Recorder).
//!
//! One accept thread, one connection at a time, HTTP/1.0 close-per
//! -request semantics — deliberately minimal: the consumer is a scrape
//! loop or a developer with `curl`, not a web framework.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::expo::render;
use crate::registry::MetricsRegistry;
use crate::trace::Recorder;

/// A callback run before every scrape, for pull-model sources (shared
/// cache occupancy, link byte counters) that set gauges on demand.
pub(crate) type RefreshHook = Box<dyn Fn() + Send>;

/// A running exposition endpoint. Dropping it (or calling
/// [`stop`](MetricsServer::stop)) shuts the listener down.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `registry`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(addr: &str, registry: MetricsRegistry) -> std::io::Result<MetricsServer> {
        MetricsServer::start_with(addr, registry, None, None)
    }

    /// Binds `addr`, serving `registry` on `/metrics`, `recorder` (when
    /// given) on `/trace`, and running `refresh` before every scrape.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start_with(
        addr: &str,
        registry: MetricsRegistry,
        recorder: Option<Recorder>,
        refresh: Option<RefreshHook>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("hetgc-metrics".into())
            .spawn(move || {
                while !stop_flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &registry, recorder.as_ref(), &refresh);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_one(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    recorder: Option<&Recorder>,
    refresh: &Option<RefreshHook>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read until the end of the request head (or a sane cap).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            String::from("GET only\n"),
        )
    } else {
        match path {
            "/metrics" => {
                if let Some(hook) = refresh {
                    hook();
                }
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    render(&registry.snapshot()),
                )
            }
            "/trace" => match recorder {
                Some(rec) => ("200 OK", "application/json", rec.export_chrome_trace()),
                None => (
                    "404 Not Found",
                    "text/plain",
                    String::from("no recorder attached\n"),
                ),
            },
            "/" => (
                "200 OK",
                "text/plain",
                String::from("hetgc-obs: /metrics (Prometheus), /trace (Chrome Trace JSON)\n"),
            ),
            _ => ("404 Not Found", "text/plain", String::from("not found\n")),
        }
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_metrics_and_trace() {
        let registry = MetricsRegistry::new();
        registry.counter("up_total", "liveness", &[]).inc();
        let recorder = Recorder::new(8);
        recorder.instant(crate::Phase::Arrival, 1);
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            registry.clone(),
            Some(recorder),
            Some(Box::new({
                let registry = registry.clone();
                move || registry.gauge("refreshed", "refresh ran", &[]).set(1.0)
            })),
        )
        .unwrap();
        let metrics = get(server.addr(), "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"));
        assert!(metrics.contains("up_total 1"));
        assert!(metrics.contains("refreshed 1"));
        let trace = get(server.addr(), "/trace");
        assert!(trace.contains("application/json"));
        assert!(trace.contains("\"name\":\"arrival\""));
        let missing = get(server.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        server.stop();
    }
}
