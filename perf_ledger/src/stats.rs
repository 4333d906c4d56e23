//! Order statistics over nanosecond samples.
//!
//! The benchmark's latency metric is a *floor* — a low quantile over many
//! short, identical operations — because on a shared two-core box the
//! centre of the distribution moves by 10–30% between identical runs while
//! the floor moves by a few percent (README.md, "Why a floor").

/// The quantile every `*_floor` and per-layer `*_us` metric reports.
pub const FLOOR_Q: f64 = 0.01;

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. 0 for an empty slice.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted samples.
pub fn quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank(&sorted, q)
}

/// The floor of one series, in nanoseconds.
pub fn floor_ns(samples: &[u64]) -> u64 {
    quantile(samples, FLOOR_Q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(nearest_rank(&s, 0.01), 2);
        assert_eq!(nearest_rank(&s, 0.5), 100);
        assert_eq!(nearest_rank(&s, 0.99), 198);
        assert_eq!(nearest_rank(&s, 1.0), 200);
        assert_eq!(nearest_rank(&s[..50], 0.01), 1);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }
}
