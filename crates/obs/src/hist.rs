//! Sharded log-linear latency histograms.
//!
//! Values (nanoseconds, or unitless quantities such as batch sizes) are
//! bucketed HDR-style: the first [`LINEAR_CUTOFF`] values get exact linear
//! buckets, every power-of-two range above that is split into
//! [`SUB_BUCKETS`] linear sub-buckets, giving a worst-case relative error
//! of `1/16` (~6.25%) across the full `u64` range with a fixed table of
//! [`NUM_BUCKETS`] counters.
//!
//! Recording is a pair of relaxed atomic adds on a per-thread shard, so
//! concurrent writers do not serialize on a shared cache line. Snapshots
//! merge shards by summing buckets; histograms with the same bucket scheme
//! can therefore also be merged across instances.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Values below this are bucketed exactly.
const LINEAR_CUTOFF: u64 = 16;
/// Linear sub-buckets per power-of-two range.
const SUB_BUCKETS: usize = 16;
/// Power-of-two ranges covered (msb positions 4..=63).
const RANGES: usize = 60;
/// Total bucket count (976).
pub const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + RANGES * SUB_BUCKETS;

/// Shards per histogram; power of two.  Sized so a dozen engine
/// workers rarely share a shard's cache lines on the hot paths (the device
/// records once per submission), while keeping the
/// attribution grid's 100+ histograms at ~8 KB per shard affordable.
const SHARDS: usize = 8;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        LINEAR_CUTOFF as usize + (msb - 4) * SUB_BUCKETS + sub
    }
}

/// Lower bound of the value range covered by bucket `i`.
fn bucket_floor(i: usize) -> u64 {
    if i < LINEAR_CUTOFF as usize {
        i as u64
    } else {
        let r = (i - LINEAR_CUTOFF as usize) / SUB_BUCKETS;
        let sub = (i - LINEAR_CUTOFF as usize) % SUB_BUCKETS;
        let msb = r + 4;
        (1u64 << msb) + ((sub as u64) << (msb - 4))
    }
}

static NEXT_THREAD_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SHARD: usize = NEXT_THREAD_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

struct Shard {
    counts: Vec<AtomicU64>,
    total: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
        }
    }
}

/// A mergeable, thread-safe log-linear histogram.
pub struct Histogram {
    shards: Vec<Shard>,
}

impl Histogram {
    /// A histogram with a fixed number of shards.
    pub fn new() -> Self {
        Histogram {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// This thread's shard.
    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[THREAD_SHARD.with(|s| *s)]
    }

    /// Record one observation. Relaxed atomics on a per-thread shard.
    #[inline]
    pub fn record(&self, value: u64) {
        let shard = self.shard();
        shard.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        shard.total.fetch_add(value, Ordering::Relaxed);
    }

    /// Record `n` observations of `value` at the cost of one: how a batched
    /// call that timed `n` items with one clock pair records their mean.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let shard = self.shard();
        shard.counts[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        shard
            .total
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
    }

    /// Zero every bucket and total. Concurrent records may survive; used to
    /// scope a measurement window, not for correctness.
    pub fn reset(&self) {
        for shard in &self.shards {
            for c in &shard.counts {
                c.store(0, Ordering::Relaxed);
            }
            shard.total.store(0, Ordering::Relaxed);
        }
    }

    /// Merge all shards into a summary with percentiles.
    pub fn summary(&self) -> HistSummary {
        let mut buckets = [0u64; NUM_BUCKETS];
        let mut total = 0u64;
        for shard in &self.shards {
            for (i, c) in shard.counts.iter().enumerate() {
                buckets[i] += c.load(Ordering::Relaxed);
            }
            total += shard.total.load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        let mut max = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            if c > 0 {
                max = bucket_floor(i);
            }
        }
        HistSummary {
            count,
            total,
            max,
            p50: percentile(&buckets, count, 50.0),
            p90: percentile(&buckets, count, 90.0),
            p99: percentile(&buckets, count, 99.0),
            p999: percentile(&buckets, count, 99.9),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn percentile(buckets: &[u64; NUM_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((q / 100.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= target {
            return bucket_floor(i);
        }
    }
    bucket_floor(NUM_BUCKETS - 1)
}

/// Point-in-time merged view of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistSummary {
    pub count: u64,
    /// Sum of recorded values (ns for latency histograms).
    pub total: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HistSummary {
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// Fixed-shape JSON object. Keys are static; values are integers only.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
            self.count,
            self.total,
            self.mean(),
            self.p50,
            self.p90,
            self.p99,
            self.p999,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_exact() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn bucket_floor_round_trips() {
        for v in [16, 31, 32, 100, 1_000, 65_535, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor {floor} > value {v}");
            // Relative error bounded by one sub-bucket width.
            if v >= LINEAR_CUTOFF {
                assert!((v - floor) as f64 <= v as f64 / 16.0 + 1.0);
            }
        }
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut prev = 0;
        for v in (0..1 << 20).step_by(97) {
            let i = bucket_index(v);
            assert!(i >= prev);
            prev = i;
        }
    }

    #[test]
    fn percentiles_of_uniform_values() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.total, 500_500);
        // Log-linear error is <= 1/16 of the value.
        assert!(s.p50 >= 450 && s.p50 <= 500, "p50 = {}", s.p50);
        assert!(s.p99 >= 900 && s.p99 <= 990, "p99 = {}", s.p99);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999);
    }

    #[test]
    fn record_n_equals_n_records() {
        let (batched, single) = (Histogram::new(), Histogram::new());
        batched.record_n(700, 64);
        batched.record_n(9, 0);
        for _ in 0..64 {
            single.record(700);
        }
        assert_eq!(batched.summary(), single.summary());
    }

    #[test]
    fn reset_zeroes_counts() {
        let h = Histogram::new();
        h.record(10);
        h.record(100);
        h.reset();
        assert_eq!(h.summary().count, 0);
    }

    #[test]
    fn concurrent_records_all_land() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for v in 0..1000u64 {
                        h.record(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.summary().count, 8000);
    }
}
