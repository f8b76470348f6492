//! # eel-obs: zero-dependency observability for the EEL pipeline
//!
//! The paper's evaluation (§5) is a set of *measurements* — analysis cost
//! per routine, CFG census, instrumentation slowdowns. This crate is the
//! substrate those measurements hang off: hierarchical wall-clock
//! **spans**, a registry of named **counters / gauges / histograms**, and
//! **exporters** (human summary table, JSON lines, Chrome `trace_event`
//! JSON loadable in `chrome://tracing` / Perfetto).
//!
//! Everything is `std`-only and thread-safe. The subsystem is controlled
//! by the `EEL_OBS` environment variable (`off`, `summary`, `json`,
//! `chrome`) or programmatically via [`set_mode`]. When disabled, a span
//! or metric update costs a single relaxed atomic load.
//!
//! Consumers register dot-hierarchical names so exported tables group
//! naturally: `core.cfg.*` (CFG construction), `emu.*` (dynamic
//! counts), `serve.*` (the analysis service: request/queue counters,
//! per-op latency histograms, and the cache tiers —
//! `serve.cache.{hit,miss}` for the memory LRU,
//! `serve.cache.disk.{hit,miss,write,evict,corrupt}` plus the
//! `serve.cache.disk.bytes` gauge and `serve.latency.disk.{load,spill}`
//! histograms for the on-disk spill tier). The operator-facing
//! reference for the `serve.*` family lives in `docs/OPERATIONS.md`.
//!
//! ```
//! eel_obs::set_mode(eel_obs::Mode::Summary);
//! {
//!     let _outer = eel_obs::span("analyze");
//!     let _inner = eel_obs::span("liveness");
//!     eel_obs::counter!("blocks").add(12);
//! }
//! let report = eel_obs::render_summary();
//! assert!(report.contains("analyze"));
//! assert!(report.contains("liveness"));
//! eel_obs::reset();
//! ```

mod export;
pub mod json;
mod metrics;
mod span;

pub use export::{render_chrome_trace, render_json_lines, render_summary, write_trace_file};
pub use metrics::{
    counter, gauge, histogram, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram,
    HistogramSnapshot, MetricsSnapshot,
};
pub use span::{snapshot_spans, span, span_owned, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicU8, Ordering};

/// What the subsystem records and how reports are rendered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(u8)]
pub enum Mode {
    /// Record nothing; hot paths pay one relaxed atomic load.
    #[default]
    Off = 0,
    /// Record; render a human-readable span tree + metrics table.
    Summary = 1,
    /// Record; render JSON lines (one object per span / metric).
    Json = 2,
    /// Record; render Chrome `trace_event` JSON.
    Chrome = 3,
    /// Record counters, gauges and histograms only: spans are inert, so
    /// a long-running process keeps no per-span state. Renders nothing.
    /// Never parsed from `EEL_OBS`; a process selects it in code.
    Metrics = 4,
}

impl Mode {
    /// Parses an `EEL_OBS` value; unknown strings mean [`Mode::Off`].
    pub fn parse(s: &str) -> Mode {
        match s.trim().to_ascii_lowercase().as_str() {
            "summary" | "on" | "1" => Mode::Summary,
            "json" => Mode::Json,
            "chrome" | "trace" => Mode::Chrome,
            _ => Mode::Off,
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// The current mode.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Summary,
        2 => Mode::Json,
        3 => Mode::Chrome,
        4 => Mode::Metrics,
        _ => Mode::Off,
    }
}

/// True when metrics record. This is the only cost the instrumented hot
/// paths pay when observability is disabled.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// True when spans record (every recording mode but [`Mode::Metrics`]).
#[inline]
pub(crate) fn spans_enabled() -> bool {
    matches!(MODE.load(Ordering::Relaxed), 1..=3)
}

/// Sets the mode programmatically (overrides the environment).
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// Initializes the mode from `EEL_OBS` (`off`, `summary`, `json`,
/// `chrome`). Binaries call this once at startup; a missing or unknown
/// value leaves the subsystem off. Returns the chosen mode.
pub fn init_from_env() -> Mode {
    let m = std::env::var("EEL_OBS")
        .map(|v| Mode::parse(&v))
        .unwrap_or(Mode::Off);
    set_mode(m);
    m
}

/// Clears all recorded spans and metric values (mode is untouched).
/// Benchmarks and tests use this to isolate measurements.
pub fn reset() {
    span::reset_spans();
    metrics::reset_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse() {
        assert_eq!(Mode::parse("summary"), Mode::Summary);
        assert_eq!(Mode::parse("JSON"), Mode::Json);
        assert_eq!(Mode::parse("chrome"), Mode::Chrome);
        assert_eq!(Mode::parse("off"), Mode::Off);
        assert_eq!(Mode::parse("garbage"), Mode::Off);
    }
}
