//! Measurement primitives: counters, fixed-bucket histograms, and
//! throughput figures.
//!
//! Everything here is allocation-light and dependency-free — the primitives
//! sit inside [`crate::metrics::Metrics`] on the hot path. Statistical
//! post-processing (quantiles, ECDFs, confidence intervals) lives in the
//! `analysis` crate; this module only *collects*.

use std::time::Duration;

/// A monotone event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A histogram over `u64` observations with fixed, caller-chosen bucket
/// upper bounds (plus an implicit overflow bucket).
///
/// Bucket `k` counts observations `v` with `v <= bounds[k]` (and
/// `v > bounds[k-1]` for `k > 0`); observations above the last bound land in
/// the overflow bucket. Bounds are fixed at construction — recording never
/// allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl FixedHistogram {
    /// Creates a histogram from strictly increasing bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = bounds.len() + 1; // + overflow
        FixedHistogram { bounds, counts: vec![0; buckets] }
    }

    /// A histogram with exponentially growing bounds `base, 2·base, 4·base,
    /// …` (`buckets` of them).
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `buckets == 0`.
    pub fn exponential(base: u64, buckets: usize) -> Self {
        assert!(base > 0 && buckets > 0, "exponential histogram needs base > 0 and buckets > 0");
        let bounds = (0..buckets as u32).map(|k| base.saturating_mul(1 << k)).collect();
        Self::new(bounds)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
    }

    /// Adds another histogram's per-bucket counts into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bounds.
    pub fn merge_from(&mut self, other: &FixedHistogram) {
        assert_eq!(self.bounds, other.bounds, "can only merge histograms with matching bounds");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The bucket upper bounds (the overflow bucket has no bound).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count of observations in the overflow bucket (above the last bound).
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("histogram always has an overflow bucket")
    }
}

/// A completed throughput measurement.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Interactions performed in the measured segment.
    pub interactions: u64,
    /// Wall-clock duration of the segment.
    pub wall: Duration,
}

impl Throughput {
    /// Interactions per wall-clock second (0 for an empty or instantaneous
    /// segment).
    pub fn per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.interactions as f64 / secs
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_by_upper_bound() {
        let mut h = FixedHistogram::new(vec![1, 10, 100]);
        for v in [0, 1, 2, 10, 11, 100, 101, 1000] {
            h.record(v);
        }
        // <=1: {0,1}; <=10: {2,10}; <=100: {11,100}; overflow: {101,1000}.
        assert_eq!(h.counts(), &[2, 2, 2, 2]);
        assert_eq!(h.total(), 8);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn exponential_bounds_double() {
        let h = FixedHistogram::exponential(4, 3);
        assert_eq!(h.bounds(), &[4, 8, 16]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        FixedHistogram::new(vec![5, 5]);
    }

    #[test]
    fn throughput_divides_by_wall_time() {
        let t = Throughput { interactions: 1000, wall: Duration::from_millis(500) };
        assert!((t.per_second() - 2000.0).abs() < 1e-6);
        let zero = Throughput { interactions: 1000, wall: Duration::ZERO };
        assert_eq!(zero.per_second(), 0.0);
    }
}
