//! Zero-dependency observability for the M²AI pipeline.
//!
//! A process-wide metrics registry — atomic counters, gauges and
//! fixed-bucket latency histograms with p50/p95/p99 extraction — plus
//! lightweight scoped-span timers, all plain `std`. The read → extract
//! → serve pipeline records into it from every crate in the workspace;
//! the [`export`] module renders the whole registry as a versioned
//! JSON snapshot or Prometheus text exposition.
//!
//! ## Bit-exactness contract
//!
//! Instrumentation must never perturb the pipeline's outputs. The
//! design enforces that structurally:
//!
//! * no RNG anywhere — every primitive is a relaxed atomic;
//! * recording never feeds back into computation — handles are
//!   write-mostly, and nothing in the workspace reads a metric to make
//!   a decision;
//! * no allocation on the hot path after warmup — call sites cache
//!   their handles in `OnceLock` statics and labels are `'static`, so
//!   a record is a few atomic RMWs (plus two `Instant` reads for a
//!   span);
//! * the whole layer is switchable: [`set_enabled`]`(false)` turns
//!   every record into a load-and-branch at runtime, and the `noop`
//!   cargo feature compiles recording out entirely.
//!
//! `tests/determinism.rs` at the workspace root asserts the contract:
//! dataset generation and inference are bit-identical with
//! instrumentation fully enabled and fully disabled.
//!
//! ## Naming scheme
//!
//! `m2ai_<crate-or-stage>_<what>[_total|_seconds]`, with fixed
//! `'static` label sets for the low-cardinality dimensions (fault
//! kind, extraction stage, kernel backend, session outcome, health
//! transition). See DESIGN.md § Observability for the full inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod family;
pub mod slo;
pub mod trace;

pub use family::{CounterFamily, HistogramFamily};
pub use slo::{BurnWindow, SloMonitor, SloSpec, SloVerdict};
pub use trace::{SpanRecord, SpanStatus, TraceConfig, TraceContext};

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A fixed, `'static` set of label key/value pairs.
///
/// Keeping labels `'static` is what makes recording allocation-free:
/// a handle is resolved once per call site and the registry never has
/// to own or hash dynamic strings on the hot path.
pub type LabelSet = &'static [(&'static str, &'static str)];

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether instrumentation is currently recording.
///
/// Always `false` when the `noop` cargo feature is active.
#[inline]
pub fn enabled() -> bool {
    if cfg!(feature = "noop") {
        return false;
    }
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide (default: on).
///
/// Disabling does not clear anything — counts accumulated so far stay
/// visible to the exporters; see [`reset`].
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// What a registry entry measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing event count.
    Counter,
    /// Point-in-time signed level (queue depth, live engines per backend).
    Gauge,
    /// Fixed-bucket distribution (latencies, batch sizes, ratios).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct CounterCore {
    value: AtomicU64,
}

/// Monotone event counter. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct Counter {
    core: Arc<CounterCore>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() && n != 0 {
            self.core.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCore {
    value: AtomicI64,
}

/// Point-in-time level. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct Gauge {
    core: Arc<GaugeCore>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.core.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() && delta != 0 {
            self.core.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.core.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Ascending finite upper bounds; an implicit +Inf bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` per-bucket counts (last = overflow).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ observed values, stored as `f64::to_bits` and updated by CAS.
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn add_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Fixed-bucket distribution. Cheap to clone (shared handle).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// Records one observation. Non-finite values are dropped (they
    /// carry no bucket and would poison the sum).
    #[inline]
    pub fn observe(&self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` observations of the same value — the batched-tick
    /// idiom (per-prediction latency = tick time / batch, once per
    /// row).
    pub fn observe_n(&self, v: f64, n: u64) {
        if !enabled() || n == 0 || !v.is_finite() {
            return;
        }
        let idx = self.core.bounds.partition_point(|b| v > *b);
        self.core.buckets[idx].fetch_add(n, Ordering::Relaxed);
        self.core.count.fetch_add(n, Ordering::Relaxed);
        self.core.add_sum(v * n as f64);
    }

    /// Starts a scoped timer that records elapsed seconds into this
    /// histogram when dropped. When instrumentation is disabled the
    /// guard holds nothing and the clock is never read.
    #[inline]
    pub fn time(&self) -> SpanGuard {
        SpanGuard {
            live: enabled().then(|| (self.clone(), Instant::now())),
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// A consistent point-in-time copy of the bucket state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.core.bounds.clone(),
            buckets: self
                .core
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Quantile estimate over everything observed so far; see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> Quantile {
        self.snapshot().quantile(q)
    }
}

/// Scoped span timer: records elapsed wall time (seconds) into its
/// histogram on drop.
#[derive(Debug)]
pub struct SpanGuard {
    live: Option<(Histogram, Instant)>,
}

impl SpanGuard {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.live.take() {
            hist.observe(start.elapsed().as_secs_f64());
        }
    }
}

/// Plain-data copy of a histogram's state, used for quantile
/// extraction and for windowing measurements via [`Self::delta`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending finite upper bounds (the +Inf bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Observations added since `earlier` (which must come from the
    /// same histogram, i.e. share bounds).
    ///
    /// # Panics
    ///
    /// Panics on mismatched bounds.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(self.bounds, earlier.bounds, "snapshot bounds mismatch");
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum - earlier.sum,
        }
    }

    /// Quantile estimate by linear interpolation inside the bucket the
    /// rank falls into (the Prometheus `histogram_quantile` rule).
    /// When the rank lands in the overflow bucket there is no finite
    /// upper edge: the result carries the largest finite bound but is
    /// tagged [`Quantile::saturated`] so callers report "≥ bound"
    /// instead of a misleadingly precise number. `NaN` (unsaturated)
    /// when empty.
    pub fn quantile(&self, q: f64) -> Quantile {
        if self.count == 0 {
            return Quantile {
                value: f64::NAN,
                saturated: false,
            };
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if next as f64 >= target {
                if i == self.bounds.len() {
                    // Overflow bucket: no finite upper edge.
                    return Quantile {
                        value: self.bounds.last().copied().unwrap_or(f64::NAN),
                        saturated: true,
                    };
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let into = (target - cum as f64) / n as f64;
                return Quantile {
                    value: lo + (hi - lo) * into.clamp(0.0, 1.0),
                    saturated: false,
                };
            }
            cum = next;
        }
        // Float-rounding fallthrough: rank past every bucket edge.
        Quantile {
            value: self.bounds.last().copied().unwrap_or(f64::NAN),
            saturated: true,
        }
    }

    /// Mean observed value (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A histogram quantile estimate tagged with whether the rank fell in
/// the overflow bucket.
///
/// A saturated quantile's `value` is the largest finite bound — a
/// *floor*, not an estimate — so gates and reports must treat it as
/// "≥ value" rather than comparing it like a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The estimate (largest finite bound when saturated; `NaN` when
    /// the histogram was empty).
    pub value: f64,
    /// `true` when the rank landed past the last finite bucket edge.
    pub saturated: bool,
}

/// Pools steady-state measurement windows from one histogram.
///
/// The benches measure in repeated passes, snapshotting a histogram
/// before and after each pass and keeping only the in-pass delta
/// ([`HistogramSnapshot::delta`]). Pooling those windows bucket-wise
/// used to be re-rolled per bench; `HistogramDelta` owns the pattern:
///
/// ```
/// # let h = m2ai_obs::histogram("example_delta_seconds", "t", &[], &m2ai_obs::latency_buckets());
/// let mut pool = m2ai_obs::HistogramDelta::new();
/// for _ in 0..3 {
///     let before = h.snapshot();
///     h.observe(0.002); // one measured pass
///     pool.accumulate(&h.snapshot().delta(&before));
/// }
/// assert_eq!(pool.count(), 3);
/// let p99 = pool.quantile(0.99);
/// # assert!(!p99.saturated);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramDelta {
    pooled: Option<HistogramSnapshot>,
}

impl HistogramDelta {
    /// An empty pool.
    pub fn new() -> Self {
        HistogramDelta::default()
    }

    /// Adds one measurement window (bucket-wise sum).
    ///
    /// # Panics
    ///
    /// Panics if `window`'s bounds differ from earlier windows'.
    pub fn accumulate(&mut self, window: &HistogramSnapshot) {
        match self.pooled.as_mut() {
            None => self.pooled = Some(window.clone()),
            Some(acc) => {
                assert_eq!(acc.bounds, window.bounds, "pooled bounds mismatch");
                for (a, b) in acc.buckets.iter_mut().zip(&window.buckets) {
                    *a += b;
                }
                acc.count += window.count;
                acc.sum += window.sum;
            }
        }
    }

    /// The pooled snapshot (`None` before any window was added).
    pub fn snapshot(&self) -> Option<&HistogramSnapshot> {
        self.pooled.as_ref()
    }

    /// Total observations across all pooled windows.
    pub fn count(&self) -> u64 {
        self.pooled.as_ref().map_or(0, |p| p.count)
    }

    /// Quantile over the pooled windows (`NaN` when empty).
    pub fn quantile(&self, q: f64) -> Quantile {
        match self.pooled.as_ref() {
            Some(p) => p.quantile(q),
            None => Quantile {
                value: f64::NAN,
                saturated: false,
            },
        }
    }

    /// Mean over the pooled windows (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.pooled.as_ref().map_or(f64::NAN, |p| p.mean())
    }
}

// ---------------------------------------------------------------------
// Bucket presets
// ---------------------------------------------------------------------

/// Log-spaced latency bounds in seconds: 1 µs → ~11 s in ×√2 steps.
/// Fine enough that interpolated p50/p99 move smoothly; coarse enough
/// that a histogram stays a few hundred bytes.
pub fn latency_buckets() -> Vec<f64> {
    (0..48).map(|i| 1e-6 * 2f64.powf(i as f64 / 2.0)).collect()
}

/// Batch-size bounds for micro-batch ticks (1 … 128 sessions).
pub fn batch_buckets() -> Vec<f64> {
    [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128]
        .iter()
        .map(|&v| v as f64)
        .collect()
}

/// Linear bounds over `[0, 1]` for ratios such as frame coverage.
pub fn ratio_buckets() -> Vec<f64> {
    (0..=20).map(|k| k as f64 * 0.05).collect()
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MetricHandle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) name: &'static str,
    pub(crate) help: &'static str,
    pub(crate) labels: LabelSet,
    handle: MetricHandle,
}

impl Entry {
    pub(crate) fn kind(&self) -> MetricKind {
        match self.handle {
            MetricHandle::Counter(_) => MetricKind::Counter,
            MetricHandle::Gauge(_) => MetricKind::Gauge,
            MetricHandle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

fn registry() -> std::sync::MutexGuard<'static, Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    // Poison-tolerant: registration panics (name/kind clashes) happen
    // before the entry list is touched, so the guarded data is always
    // consistent even after a panicking holder.
    REGISTRY
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn assert_name_ok(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "invalid metric name {name:?}"
    );
}

fn get_or_register(
    name: &'static str,
    help: &'static str,
    labels: LabelSet,
    make: impl FnOnce() -> MetricHandle,
) -> MetricHandle {
    assert_name_ok(name);
    let mut reg = registry();
    let mut family_kind = None;
    for e in reg.iter() {
        if e.name != name {
            continue;
        }
        family_kind.get_or_insert(e.kind());
        if e.labels == labels {
            return e.handle.clone();
        }
    }
    let handle = make();
    let entry = Entry {
        name,
        help,
        labels,
        handle: handle.clone(),
    };
    if let Some(k) = family_kind {
        assert!(
            k == entry.kind(),
            "metric family {name:?} already registered as {:?}",
            k
        );
    }
    reg.push(entry);
    handle
}

/// Returns the counter `name{labels}`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is not a valid metric name, or if the same
/// name+labels was already registered as a different kind.
pub fn counter(name: &'static str, help: &'static str, labels: LabelSet) -> Counter {
    match get_or_register(name, help, labels, || {
        MetricHandle::Counter(Counter {
            core: Arc::new(CounterCore::default()),
        })
    }) {
        MetricHandle::Counter(c) => c,
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Returns the gauge `name{labels}`, registering it on first use.
///
/// # Panics
///
/// Same conditions as [`counter`].
pub fn gauge(name: &'static str, help: &'static str, labels: LabelSet) -> Gauge {
    match get_or_register(name, help, labels, || {
        MetricHandle::Gauge(Gauge {
            core: Arc::new(GaugeCore::default()),
        })
    }) {
        MetricHandle::Gauge(g) => g,
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Returns the histogram `name{labels}`, registering it on first use
/// with `bounds` (ascending finite upper bounds; an existing
/// registration keeps its original bounds).
///
/// # Panics
///
/// Same conditions as [`counter`], plus non-ascending or non-finite
/// `bounds`.
pub fn histogram(
    name: &'static str,
    help: &'static str,
    labels: LabelSet,
    bounds: &[f64],
) -> Histogram {
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
        "histogram bounds must be finite and strictly ascending"
    );
    match get_or_register(name, help, labels, || {
        MetricHandle::Histogram(Histogram {
            core: Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
            }),
        })
    }) {
        MetricHandle::Histogram(h) => h,
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// Zeroes every registered metric (handles stay valid). For benches
/// and tests that window a measurement; exporters are additive
/// otherwise.
pub fn reset() {
    let reg = registry();
    for e in reg.iter() {
        match &e.handle {
            MetricHandle::Counter(c) => c.core.value.store(0, Ordering::Relaxed),
            MetricHandle::Gauge(g) => g.core.value.store(0, Ordering::Relaxed),
            MetricHandle::Histogram(h) => {
                for b in &h.core.buckets {
                    b.store(0, Ordering::Relaxed);
                }
                h.core.count.store(0, Ordering::Relaxed);
                h.core.sum_bits.store(0.0f64.to_bits(), Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Current value of one registry entry.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter count.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// Plain-data copy of one registry entry, for programmatic assertions
/// (the exporters render these).
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric family name.
    pub name: &'static str,
    /// Help text supplied at registration.
    pub help: &'static str,
    /// Label set of this child.
    pub labels: LabelSet,
    /// Current value.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The metric kind of this entry.
    pub fn kind(&self) -> MetricKind {
        match self.value {
            MetricValue::Counter(_) => MetricKind::Counter,
            MetricValue::Gauge(_) => MetricKind::Gauge,
            MetricValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Copies the whole registry, sorted by name then label set — the
/// stable order both exporters use.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = registry();
    let mut out: Vec<MetricSnapshot> = reg
        .iter()
        .map(|e| MetricSnapshot {
            name: e.name,
            help: e.help,
            labels: e.labels,
            value: match &e.handle {
                MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
                MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
                MetricHandle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            },
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(b.name).then_with(|| a.labels.cmp(b.labels)));
    out
}

/// Looks up one metric's current value by name and labels.
pub fn find(name: &str, labels: &[(&str, &str)]) -> Option<MetricValue> {
    let reg = registry();
    reg.iter()
        .find(|e| e.name == name && e.labels == labels)
        .map(|e| match &e.handle {
            MetricHandle::Counter(c) => MetricValue::Counter(c.get()),
            MetricHandle::Gauge(g) => MetricValue::Gauge(g.get()),
            MetricHandle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
        })
}

/// Sum of a counter family across all label children.
pub fn counter_family_total(name: &str) -> u64 {
    let reg = registry();
    reg.iter()
        .filter(|e| e.name == name)
        .map(|e| match &e.handle {
            MetricHandle::Counter(c) => c.get(),
            _ => 0,
        })
        .sum()
}

/// Serialises tests that record or toggle the process-global state
/// (the enable flag is shared, so a concurrent `set_enabled(false)`
/// would silently drop another test's writes).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run concurrently, so
    // every test uses its own metric names and takes the test lock.

    #[test]
    fn counter_counts_and_survives_disable() {
        let _g = test_lock();
        let c = counter("test_obs_counter_total", "t", &[]);
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        set_enabled(false);
        c.inc();
        set_enabled(true);
        assert_eq!(c.get(), before + 5, "disabled increments must not record");
        c.inc();
        assert_eq!(c.get(), before + 6);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let _g = test_lock();
        let g = gauge("test_obs_gauge", "t", &[]);
        g.set(7);
        assert_eq!(g.get(), 7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn same_name_and_labels_share_state() {
        let _g = test_lock();
        let a = counter("test_obs_shared_total", "t", &[("k", "v")]);
        let b = counter("test_obs_shared_total", "t", &[("k", "v")]);
        let before = b.get();
        a.add(3);
        assert_eq!(b.get(), before + 3);
        // A different label child is independent.
        let c = counter("test_obs_shared_total", "t", &[("k", "w")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        counter("test_obs_kindclash", "t", &[("a", "1")]);
        gauge("test_obs_kindclash", "t", &[("a", "2")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        counter("test obs spaces", "t", &[]);
    }

    #[test]
    fn histogram_buckets_count_and_quantiles() {
        let _g = test_lock();
        let h = histogram("test_obs_hist", "t", &[], &[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 5.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.buckets, vec![1, 2, 3, 1, 1]);
        assert!((s.sum - 117.5).abs() < 1e-9);
        // p50 lands in the (2, 4] bucket; p100 hits the overflow
        // bucket and reports the largest finite bound, tagged
        // saturated so callers know it is a floor.
        let p50 = s.quantile(0.5);
        assert!((2.0..=4.0).contains(&p50.value), "p50 {p50:?}");
        assert!(!p50.saturated);
        let p100 = s.quantile(1.0);
        assert_eq!(p100.value, 8.0);
        assert!(p100.saturated);
        assert!((s.mean() - 117.5 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_ignores_non_finite() {
        let _g = test_lock();
        let h = histogram("test_obs_hist_nan", "t", &[], &[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        let q = h.quantile(0.5);
        assert!(q.value.is_nan());
        assert!(!q.saturated);
    }

    #[test]
    fn observe_n_matches_repeated_observe() {
        let _g = test_lock();
        let a = histogram("test_obs_hist_n_a", "t", &[], &[1.0, 2.0]);
        let b = histogram("test_obs_hist_n_b", "t", &[], &[1.0, 2.0]);
        a.observe_n(1.5, 5);
        for _ in 0..5 {
            b.observe(1.5);
        }
        assert_eq!(a.snapshot().buckets, b.snapshot().buckets);
        assert!((a.sum() - b.sum()).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_windows_a_measurement() {
        let _g = test_lock();
        let h = histogram("test_obs_hist_delta", "t", &[], &[1.0, 2.0, 4.0]);
        h.observe(0.5); // pre-window noise
        let s0 = h.snapshot();
        h.observe(3.0);
        h.observe(3.0);
        let d = h.snapshot().delta(&s0);
        assert_eq!(d.count, 2);
        assert_eq!(d.buckets, vec![0, 0, 2, 0]);
        let q = d.quantile(0.5);
        assert!((2.0..=4.0).contains(&q.value), "windowed p50 {q:?}");
    }

    #[test]
    fn span_records_elapsed_time() {
        let _g = test_lock();
        let h = histogram("test_obs_span", "t", &[], &latency_buckets());
        let before = h.count();
        {
            let _guard = h.time();
            std::hint::black_box(0u64);
        }
        assert_eq!(h.count(), before + 1);
        assert!(h.sum() >= 0.0);
    }

    #[test]
    fn preset_buckets_are_ascending() {
        let _g = test_lock();
        for bounds in [latency_buckets(), batch_buckets(), ratio_buckets()] {
            assert!(bounds.windows(2).all(|w| w[0] < w[1]));
            assert!(bounds.iter().all(|b| b.is_finite()));
        }
    }

    #[test]
    fn find_locates_registered_metrics() {
        let _g = test_lock();
        let c = counter("test_obs_find_total", "t", &[("x", "y")]);
        c.add(2);
        match find("test_obs_find_total", &[("x", "y")]) {
            Some(MetricValue::Counter(n)) => assert!(n >= 2),
            other => panic!("unexpected lookup result {other:?}"),
        }
        assert!(find("test_obs_find_total", &[("x", "z")]).is_none());
        assert!(counter_family_total("test_obs_find_total") >= 2);
    }
}
