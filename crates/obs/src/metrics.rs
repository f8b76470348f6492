//! Named counters, gauges, and log-bucketed histograms.
//!
//! Handles are `Arc`-backed, so the registry lock is only taken on first
//! lookup; the hot path is one relaxed load (enabled check) plus one
//! relaxed atomic RMW. The [`crate::counter!`] macro caches the handle in
//! a static so repeated lookups by name disappear entirely.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets; bucket `i` holds values
/// whose bit length is `i` (bucket 0 is the value zero).
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// A monotonically increasing count.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`; a no-op unless observability is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value; a no-op unless observability is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A histogram over `u64` samples with power-of-two buckets. Percentile
/// estimates come from the bucket boundaries, so they are coarse (within
/// 2×) but cheap and allocation-free to record.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCell>);

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value that lands in `bucket` (its representative in
/// reports and percentile estimates).
fn bucket_ceiling(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

impl Histogram {
    /// Records a sample; a no-op unless observability is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let cell = &*self.0;
        cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`), from
    /// bucket ceilings; `None` when empty. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(bucket_ceiling(i));
            }
        }
        Some(self.0.max.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
        }
    }
}

/// Looks up (or creates) a counter by name.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Counter(Arc::clone(
        reg.counters.entry(name.to_string()).or_default(),
    ))
}

/// Looks up (or creates) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Gauge(Arc::clone(reg.gauges.entry(name.to_string()).or_default()))
}

/// Looks up (or creates) a histogram by name.
pub fn histogram(name: &str) -> Histogram {
    let mut reg = registry().lock().expect("metrics registry poisoned");
    Histogram(Arc::clone(
        reg.histograms.entry(name.to_string()).or_default(),
    ))
}

/// Caches a [`Counter`] handle in a static, so hot paths skip the
/// registry lock entirely: `eel_obs::counter!("emu.instructions").add(n)`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __EEL_OBS_COUNTER: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        __EEL_OBS_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// Caches a [`Gauge`] handle in a static, like [`crate::counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __EEL_OBS_GAUGE: std::sync::OnceLock<$crate::Gauge> = std::sync::OnceLock::new();
        __EEL_OBS_GAUGE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Caches a [`Histogram`] handle in a static, like [`crate::counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __EEL_OBS_HISTOGRAM: std::sync::OnceLock<$crate::Histogram> =
            std::sync::OnceLock::new();
        __EEL_OBS_HISTOGRAM.get_or_init(|| $crate::histogram($name))
    }};
}

/// Point-in-time value of one counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// Point-in-time value of one gauge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    pub name: String,
    pub value: i64,
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// Everything in the registry, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub gauges: Vec<GaugeSnapshot>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Takes a snapshot of the global registry.
    pub fn capture() -> MetricsSnapshot {
        let reg = registry().lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|(n, c)| CounterSnapshot {
                    name: n.clone(),
                    value: c.load(Ordering::Relaxed),
                })
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|(n, g)| GaugeSnapshot {
                    name: n.clone(),
                    value: g.load(Ordering::Relaxed),
                })
                .collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), Histogram(Arc::clone(h)).snapshot()))
                .collect(),
        }
    }

    /// The value of a counter, or 0 when absent.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    }
}

pub(crate) fn reset_metrics() {
    let reg = registry().lock().expect("metrics registry poisoned");
    for c in reg.counters.values() {
        c.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.values() {
        g.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
}
