//! Process-edge deployment settings shared by the `streaming_runtime` and
//! `fleet` examples. The library crates read no environment; an example
//! reads the trace path and the metrics address here, once, at startup.
//!
//! Telemetry never takes a demo down: a failed bind or trace write is
//! reported on stderr and the run goes on.

use biscatter_obs::json::Value;
use biscatter_obs::serve::MetricsServer;
use biscatter_obs::{registry, trace};

/// Reads `BISCATTER_TRACE`. When it is set, enables span recording on every
/// thread and returns the path [`write_trace`] should write to.
pub fn trace_path() -> Option<String> {
    let path = std::env::var("BISCATTER_TRACE").ok()?;
    trace::set_enabled(true);
    println!("tracing enabled; Perfetto trace will be written to {path}");
    Some(path)
}

/// Serves the live observability plane (`/metrics`, `/health`, `/frames`,
/// `/trace`) on `BISCATTER_METRICS_ADDR`, if it is set, until the returned
/// server drops.
pub fn metrics_server() -> Option<MetricsServer> {
    let addr = std::env::var("BISCATTER_METRICS_ADDR").ok()?;
    match MetricsServer::start(&addr) {
        Ok(s) => {
            eprintln!("obs::serve: listening on http://{}/metrics", s.addr());
            Some(s)
        }
        Err(err) => {
            eprintln!("obs::serve: failed to bind {addr}: {err}");
            None
        }
    }
}

/// Writes every span recorded so far to `path` as a Perfetto-loadable
/// Chrome trace, with the metric registry embedded under `"registry"` and
/// `extra` alongside it.
pub fn write_trace(path: &str, extra: impl IntoIterator<Item = (String, Value)>) {
    let keys = std::iter::once(("registry".to_string(), registry().snapshot().to_json()));
    match trace::export_accumulated(path, keys.chain(extra)) {
        Ok(summary) => eprintln!(
            "BISCATTER_TRACE: wrote {} spans from {} threads to {path}",
            summary.spans, summary.threads,
        ),
        Err(err) => eprintln!("BISCATTER_TRACE: failed to write {path}: {err}"),
    }
}
