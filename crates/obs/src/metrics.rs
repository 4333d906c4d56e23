//! Lock-free metric primitives and a named registry.
//!
//! All three instrument types are plain atomics: recording is a single
//! relaxed RMW, safe to call from any worker thread without coordination.
//! Aggregation across workers mirrors [`ExecReport::merge`] in the machine
//! crate: counters and histogram buckets add, gauges keep the maximum.
//!
//! [`ExecReport::merge`]: https://docs.rs/revet-machine

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A counter at zero. `const` so counters can live in `static` sinks.
    pub const fn new() -> Self {
        Counter {
            v: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Fold another counter in (sum semantics).
    pub fn merge(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// A last-value / high-watermark instrument.
///
/// `set` overwrites, `record_max` keeps the maximum ever seen. Merging two
/// gauges keeps the maximum: a watermark observed by *any* worker is a
/// watermark of the whole run.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            v: AtomicU64::new(0),
        }
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, n: u64) {
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raise the value to `n` if `n` is larger.
    #[inline]
    pub fn record_max(&self, n: u64) {
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Fold another gauge in (max semantics).
    pub fn merge(&self, other: &Gauge) {
        self.record_max(other.get());
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram with nearest-rank percentiles.
///
/// Bucket `0` holds the value `0`; bucket `b > 0` holds values in
/// `[2^(b-1), 2^b - 1]`. Percentile queries return the *upper bound* of the
/// bucket containing the nearest-rank sample, so reported values are
/// conservative (never below the true percentile by more than one bucket).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            (1u64 << b).saturating_sub(1).max(1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank percentile (`p` in `0.0..=100.0`), bucket upper bound.
    ///
    /// Returns `None` when the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0 * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Some(Self::bucket_upper(b));
            }
        }
        None
    }

    /// Fold another histogram in (bucket-wise sum).
    pub fn merge(&self, other: &Histogram) {
        for (a, b) in self.buckets.iter().zip(other.buckets.iter()) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// The instrument called `name`, created on first use: the lookup
/// borrows `name`, so only a new instrument allocates its key.
fn get_or_create<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut map = map.lock().unwrap();
    if let Some(found) = map.get(name) {
        return found.clone();
    }
    let made = Arc::new(T::default());
    map.insert(name.to_string(), made.clone());
    made
}

/// A named registry of dynamically created instruments.
///
/// Registration takes a mutex; the returned `Arc` handles record lock-free.
/// Registering the same name twice returns the same instrument, so call
/// sites don't need to coordinate.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry, `const` for `static` sinks.
    pub const fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Fold another registry in: counters add, gauges max, histogram
    /// buckets add. Instruments unknown to `self` are created.
    pub fn merge(&self, other: &Registry) {
        for (name, c) in other.counters.lock().unwrap().iter() {
            self.counter(name).merge(c);
        }
        for (name, g) in other.gauges.lock().unwrap().iter() {
            self.gauge(name).merge(g);
        }
        for (name, h) in other.histograms.lock().unwrap().iter() {
            self.histogram(name).merge(h);
        }
    }

    /// Flatten every instrument into sorted `(name, value)` pairs.
    ///
    /// Histograms expand into `.count`, `.p50`, `.p95`, and `.p99`
    /// pseudo-counters so the whole registry fits one wire shape.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for (name, c) in self.counters.lock().unwrap().iter() {
            out.push((name.clone(), c.get()));
        }
        for (name, g) in self.gauges.lock().unwrap().iter() {
            out.push((name.clone(), g.get()));
        }
        for (name, h) in self.histograms.lock().unwrap().iter() {
            out.push((format!("{name}.count"), h.count()));
            for (suffix, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
                out.push((format!("{name}.{suffix}"), h.percentile(p).unwrap_or(0)));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_merges() {
        let a = Counter::new();
        let b = Counter::new();
        a.inc();
        a.add(4);
        b.add(10);
        a.merge(&b);
        assert_eq!(a.get(), 15);
        assert_eq!(b.get(), 10);
    }

    #[test]
    fn gauge_merges_by_max() {
        let a = Gauge::new();
        let b = Gauge::new();
        a.record_max(7);
        a.record_max(3);
        b.set(5);
        a.merge(&b);
        assert_eq!(a.get(), 7);
        b.merge(&a);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn histogram_nearest_rank_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        // Rank ceil(0.5*7)=4 lands on the sample 2, bucket [2,3] -> upper 3.
        assert_eq!(h.percentile(50.0), Some(3));
        // p100 lands in the bucket of 1000: [512, 1023].
        assert_eq!(h.percentile(100.0), Some(1023));
        // p0 clamps to rank 1: the zero bucket.
        assert_eq!(h.percentile(0.0), Some(0));
    }

    #[test]
    fn histogram_merge_is_bucket_sum() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(5);
        b.record(6);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.percentile(100.0), Some(7));
    }

    #[test]
    fn registry_snapshot_and_merge() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("x").add(1);
        b.counter("x").add(2);
        b.counter("y").add(9);
        b.gauge("peak").record_max(42);
        b.histogram("lat").record(3);
        a.merge(&b);
        let snap = a.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("x"), Some(3));
        assert_eq!(get("y"), Some(9));
        assert_eq!(get("peak"), Some(42));
        assert_eq!(get("lat.count"), Some(1));
        assert_eq!(get("lat.p99"), Some(3));
    }

    #[test]
    fn registry_returns_the_instrument_a_name_first_made() {
        let r = Registry::new();
        assert!(Arc::ptr_eq(&r.counter("c"), &r.counter("c")));
        assert!(Arc::ptr_eq(&r.gauge("g"), &r.gauge("g")));
        assert!(Arc::ptr_eq(&r.histogram("h"), &r.histogram("h")));
        assert!(!Arc::ptr_eq(&r.counter("c"), &r.counter("d")));
    }
}
