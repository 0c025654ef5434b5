//! Dependency-free HTTP scrape server for the live observability plane.
//!
//! A hand-rolled HTTP/1.1 server on [`std::net::TcpListener`] — no async
//! runtime, no HTTP crate, one serving thread, one connection in flight at
//! a time (accept → answer → close, so concurrency is bounded by
//! construction). Four read-only endpoints:
//!
//! | Path       | Payload                                                   |
//! |------------|-----------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition v0.0.4 of the global registry  |
//! | `/health`  | JSON per-cell health states from [`crate::health`]        |
//! | `/frames`  | JSONL of recent flight records from [`crate::recorder`]   |
//! | `/trace`   | The accumulated Chrome trace (load in Perfetto)           |
//!
//! The Prometheus rendering is a pure function ([`prometheus_text`]) over a
//! [`RegistrySnapshot`], so conformance tests never need a socket. The
//! registry's `cell<i>.` dot-scoped names map onto Prometheus as a
//! `cell="<i>"` label on a `biscatter_`-prefixed, sanitized family name:
//! `cell0.fleet.intake.drops` → `biscatter_fleet_intake_drops_total{cell="0"}`.
//! Histograms render as cumulative `le` buckets (power-of-two upper bounds
//! from the log-bucketed [`crate::metrics::LatencyHistogram`]) ending in
//! `le="+Inf"`, plus `_sum`/`_count`. Non-finite gauges render as `+Inf` /
//! `-Inf` / `NaN`, the Prometheus text spellings — unlike JSON, where the
//! workspace pins non-finite to `null`.
//!
//! The runtime opts in via the `BISCATTER_METRICS_ADDR` environment
//! variable (see [`spawn_from_env`]); `127.0.0.1:0` binds an ephemeral
//! port, printed to stderr at startup.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::metrics::{bucket_upper_ns, registry, RegistrySnapshot, BUCKETS};
use crate::{health, recorder, trace};

/// The Prometheus content type for text exposition format v0.0.4.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Largest request head we will read before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout (read and write).
const IO_TIMEOUT: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------------
// Prometheus text rendering (pure, socket-free)
// ---------------------------------------------------------------------------

/// Rewrites a registry metric name into a legal Prometheus identifier:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit gets an extra `_` prefix. `fleet.intake.drops` →
/// `fleet_intake_drops`.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if legal { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Formats one sample value the Prometheus text way: non-finite values are
/// spelled `+Inf` / `-Inf` / `NaN`; finite values print shortest-exact.
fn fmt_sample(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Splits a registry name into its optional `cell<i>.` scope and the rest.
fn split_cell_scope(name: &str) -> (Option<u32>, &str) {
    if let Some(rest) = name.strip_prefix("cell") {
        if let Some(dot) = rest.find('.') {
            let digits = &rest[..dot];
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                if let Ok(id) = digits.parse() {
                    return (Some(id), &rest[dot + 1..]);
                }
            }
        }
    }
    (None, name)
}

fn label(cell: Option<u32>) -> String {
    match cell {
        Some(id) => format!("{{cell=\"{id}\"}}"),
        None => String::new(),
    }
}

fn label_with_le(cell: Option<u32>, le: &str) -> String {
    match cell {
        Some(id) => format!("{{cell=\"{id}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    }
}

/// Family table for one metric kind: sanitized family name → (original
/// stripped name, per-cell samples in insertion order).
type FamilyTable<T> = BTreeMap<String, (String, Vec<(Option<u32>, T)>)>;

/// Renders a [`RegistrySnapshot`] as Prometheus text exposition format
/// v0.0.4. Families are grouped (one `# HELP`/`# TYPE` pair even when many
/// cells carry the metric), counters gain the conventional `_total` suffix,
/// histograms emit monotone cumulative `le` buckets ending in `le="+Inf"`
/// plus `_sum`/`_count`, and every family is prefixed `biscatter_`.
pub fn prometheus_text(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();

    let mut counters: FamilyTable<u64> = BTreeMap::new();
    for (name, v) in &snap.counters {
        let (cell, rest) = split_cell_scope(name);
        let family = format!("biscatter_{}_total", sanitize_metric_name(rest));
        let e = counters
            .entry(family)
            .or_insert_with(|| (rest.to_string(), Vec::new()));
        e.1.push((cell, *v));
    }
    for (family, (orig, samples)) in &counters {
        out.push_str(&format!("# HELP {family} biscatter counter `{orig}`.\n"));
        out.push_str(&format!("# TYPE {family} counter\n"));
        for (cell, v) in samples {
            out.push_str(&format!("{family}{} {v}\n", label(*cell)));
        }
    }

    let mut gauges: FamilyTable<f64> = BTreeMap::new();
    for (name, v) in &snap.gauges {
        let (cell, rest) = split_cell_scope(name);
        let family = format!("biscatter_{}", sanitize_metric_name(rest));
        let e = gauges
            .entry(family)
            .or_insert_with(|| (rest.to_string(), Vec::new()));
        e.1.push((cell, *v));
    }
    for (family, (orig, samples)) in &gauges {
        out.push_str(&format!("# HELP {family} biscatter gauge `{orig}`.\n"));
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (cell, v) in samples {
            out.push_str(&format!("{family}{} {}\n", label(*cell), fmt_sample(*v)));
        }
    }

    let mut hists: FamilyTable<crate::metrics::LatencySnapshot> = BTreeMap::new();
    for (name, h) in &snap.histograms {
        let (cell, rest) = split_cell_scope(name);
        let family = format!("biscatter_{}", sanitize_metric_name(rest));
        let e = hists
            .entry(family)
            .or_insert_with(|| (rest.to_string(), Vec::new()));
        e.1.push((cell, h.clone()));
    }
    for (family, (orig, samples)) in &hists {
        out.push_str(&format!(
            "# HELP {family} biscatter latency histogram `{orig}` (nanoseconds).\n"
        ));
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (cell, h) in samples {
            let mut cum: u64 = 0;
            for (i, c) in h.bucket_counts().iter().enumerate() {
                cum += c;
                // Empty buckets are elided (cumulative counts stay exact);
                // the top log-bucket has no finite upper bound and folds
                // into the mandatory +Inf line below.
                if *c > 0 && i < BUCKETS - 1 {
                    let le = bucket_upper_ns(i).to_string();
                    out.push_str(&format!(
                        "{family}_bucket{} {cum}\n",
                        label_with_le(*cell, &le)
                    ));
                }
            }
            out.push_str(&format!(
                "{family}_bucket{} {}\n",
                label_with_le(*cell, "+Inf"),
                h.count()
            ));
            out.push_str(&format!("{family}_sum{} {}\n", label(*cell), h.sum_ns()));
            out.push_str(&format!("{family}_count{} {}\n", label(*cell), h.count()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// HTTP plumbing
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

fn respond(status: u16, content_type: &'static str, body: String) -> Response {
    Response {
        status,
        content_type,
        body,
    }
}

/// Routes one request. Pure apart from reading the process-global
/// registry/health/recorder/trace state, so tests can call it directly.
fn route(method: &str, path: &str) -> Response {
    if method != "GET" {
        return respond(405, "text/plain", "method not allowed\n".to_string());
    }
    match path {
        "/metrics" => respond(
            200,
            PROMETHEUS_CONTENT_TYPE,
            prometheus_text(&registry().snapshot()),
        ),
        "/health" => {
            let reports = crate::lock(health::global()).observe_registry(&registry().snapshot());
            let worst_critical = reports
                .iter()
                .any(|r| r.state == health::HealthState::Critical);
            let status = if worst_critical { 503 } else { 200 };
            respond(
                status,
                "application/json",
                health::reports_json(&reports).to_compact(),
            )
        }
        "/frames" => respond(200, "application/x-ndjson", recorder::dump_jsonl()),
        "/trace" => {
            let (doc, _) = trace::accumulated_chrome_trace([(
                "registry".to_string(),
                registry().snapshot().to_json(),
            )]);
            respond(200, "application/json", doc.to_compact())
        }
        "/" => respond(
            200,
            "text/plain",
            "biscatter observability: /metrics /health /frames /trace\n".to_string(),
        ),
        _ => respond(404, "text/plain", "not found\n".to_string()),
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Read the request head (we never accept bodies).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let head_end = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(()); // peer closed before a full request
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            write_response(
                &mut stream,
                &respond(400, "text/plain", "request too large\n".to_string()),
            )?;
            return Ok(());
        }
    };

    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut first = head.lines().next().unwrap_or("").split_whitespace();
    let method = first.next().unwrap_or("");
    let target = first.next().unwrap_or("/");
    let path = target.split('?').next().unwrap_or("/");

    let resp = route(method, path);
    write_response(&mut stream, &resp)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// A running scrape server. Dropping it (or calling
/// [`shutdown`](MetricsServer::shutdown)) stops the serving thread.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for ephemeral) and
    /// starts the single serving thread. Connections are answered one at a
    /// time and closed after each response — the server can never hold more
    /// than one socket open, which is the whole concurrency policy.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let requests = registry().counter("obs.serve.requests");
        let errors = registry().counter("obs.serve.errors");
        let handle = std::thread::Builder::new()
            .name("obs-serve".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    match stream {
                        Ok(s) => {
                            requests.inc();
                            if handle_connection(s).is_err() {
                                errors.inc();
                            }
                        }
                        Err(_) => errors.inc(),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts the process-wide scrape server if `BISCATTER_METRICS_ADDR` is set
/// — idempotent, so the runtime and the fleet can both call it; only the
/// first call binds. Returns the bound address when a server is (already)
/// running. The server lives for the remainder of the process.
pub fn spawn_from_env() -> Option<SocketAddr> {
    static SERVER: OnceLock<Option<MetricsServer>> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            let addr = std::env::var("BISCATTER_METRICS_ADDR").ok()?;
            match MetricsServer::start(&addr) {
                Ok(s) => {
                    eprintln!("obs::serve: listening on http://{}/metrics", s.addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("obs::serve: failed to bind {addr}: {e}");
                    None
                }
            }
        })
        .as_ref()
        .map(|s| s.addr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(
            sanitize_metric_name("fleet.intake.drops"),
            "fleet_intake_drops"
        );
        assert_eq!(sanitize_metric_name("a:b_c9"), "a:b_c9");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn splits_cell_scope() {
        assert_eq!(
            split_cell_scope("cell0.fleet.intake.drops"),
            (Some(0), "fleet.intake.drops")
        );
        assert_eq!(
            split_cell_scope("cell12.runtime.frame.ns"),
            (Some(12), "runtime.frame.ns")
        );
        assert_eq!(split_cell_scope("runtime.frames"), (None, "runtime.frames"));
        assert_eq!(
            split_cell_scope("cellar.runtime.frames"),
            (None, "cellar.runtime.frames")
        );
    }

    #[test]
    fn non_finite_samples_use_prometheus_spellings() {
        assert_eq!(fmt_sample(f64::INFINITY), "+Inf");
        assert_eq!(fmt_sample(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_sample(f64::NAN), "NaN");
        assert_eq!(fmt_sample(1.5), "1.5");
    }

    #[test]
    fn routes_reject_non_get_and_unknown_paths() {
        assert_eq!(route("POST", "/metrics").status, 405);
        assert_eq!(route("GET", "/nope").status, 404);
        assert_eq!(route("GET", "/").status, 200);
    }
}
