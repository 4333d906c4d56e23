//! Lock-free metric primitives.
//!
//! Both instrument types are plain atomics: recording is a single
//! relaxed RMW, safe to call from any thread without coordination. They
//! are fixed fields of [`crate::ObsCounters`]; nothing creates one by name.

use std::sync::atomic::{AtomicU64, Ordering};

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
        self.v.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets in a [`Histogram`].
const HIST_BUCKETS: usize = 64;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds() {
        let a = Counter::new();
        a.inc();
        a.inc();
        assert_eq!(a.get(), 2);
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
}
