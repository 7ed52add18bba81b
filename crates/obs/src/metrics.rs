//! Metrics: a lock-free power-of-two latency [`Histogram`] and the
//! Prometheus text-exposition renderers for counters, gauges and
//! histograms. Callers own their counters as plain atomics and render
//! the values they read.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free latency histogram over 64 power-of-two microsecond
/// buckets: bucket 0 holds `0 µs`, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i) µs`, and the top bucket absorbs everything beyond.
///
/// Percentiles interpolate linearly *within* the winning bucket (and
/// are clamped to the observed maximum), so a distribution
/// concentrated in one bucket reports a value inside that bucket
/// rather than its upper bound.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        let bucket = (64 - us.leading_zeros() as usize).min(63);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation so far, µs (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// A relaxed snapshot of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; 64] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `p`-th percentile (0 < p ≤ 100) in µs, estimated by linear
    /// interpolation at the midpoint of the rank's position within its
    /// bucket and clamped to [`Histogram::max_us`]. Returns 0 when
    /// empty. A single observation reports (up to bucket resolution)
    /// its own value, because the clamp binds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * total as f64).ceil().max(1.0) as u64).min(total);
        if rank == total {
            // The top rank is the maximum itself — report it exactly.
            return self.max_us();
        }
        let mut cumulative = 0u64;
        for (i, bucket) in self.bucket_counts().iter().enumerate() {
            if *bucket == 0 {
                continue;
            }
            cumulative += bucket;
            if cumulative >= rank {
                if i >= 63 {
                    return self.max_us();
                }
                let lo = if i == 0 { 0u64 } else { 1u64 << (i - 1) };
                let hi = if i == 0 { 1u64 } else { 1u64 << i };
                let rank_in_bucket = rank - (cumulative - bucket);
                let est = lo as u128
                    + ((hi - lo) as u128 * (2 * rank_in_bucket as u128 - 1))
                        / (2 * *bucket as u128);
                return (est as u64).min(self.max_us());
            }
        }
        self.max_us()
    }
}

/// Appends one counter in exposition format.
pub fn render_counter(out: &mut String, name: &str, help: &str, value: u64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one gauge in exposition format.
pub fn render_gauge(out: &mut String, name: &str, help: &str, value: i64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one histogram in exposition format (cumulative buckets,
/// `_sum`, `_count`). `le` labels are the *exclusive* power-of-two
/// bucket upper bounds in microseconds (see `docs/OBSERVABILITY.md`);
/// buckets above the highest non-empty one are elided, `+Inf` always
/// closes the series.
pub fn render_histogram(out: &mut String, name: &str, help: &str, histogram: &Histogram) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let buckets = histogram.bucket_counts();
    let highest = buckets.iter().rposition(|&c| c != 0);
    let mut cumulative = 0u64;
    if let Some(highest) = highest {
        for (i, count) in buckets.iter().enumerate().take(highest + 1) {
            cumulative += count;
            let le = if i >= 63 { u64::MAX } else { 1u64 << i };
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
        }
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{le=\"+Inf\"}} {count}",
        count = histogram.count()
    );
    let _ = writeln!(out, "{name}_sum {sum}", sum = histogram.sum_us());
    let _ = writeln!(out, "{name}_count {count}", count = histogram.count());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        let h = Histogram::new();
        // 0 → bucket 0; 1 → bucket 1; 2^k → bucket k+1 (half-open
        // [2^(i-1), 2^i) intervals); 2^k - 1 → bucket k.
        for (us, bucket) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 3),
            (7, 3),
            (8, 4),
            (1023, 10),
            (1024, 11),
            (u64::MAX, 63),
        ] {
            let before = h.bucket_counts();
            h.record_us(us);
            let after = h.bucket_counts();
            assert_eq!(
                after[bucket],
                before[bucket] + 1,
                "{us} µs must land in bucket {bucket}"
            );
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max_us(), u64::MAX);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.percentile_us(50.0), 0);
        assert_eq!(h.percentile_us(99.0), 0);
    }

    #[test]
    fn percentiles_interpolate_within_the_bucket() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_us(100);
        }
        h.record_us(1_000_000);
        // 100 µs lands in bucket [64, 128). The p50 rank (50 of 99 in
        // the bucket) interpolates to 96 µs — inside the bucket, not
        // the 128 µs upper bound the old histogram reported.
        assert_eq!(h.percentile_us(50.0), 96);
        // p99 (rank 99 of 99) stays below the exclusive upper bound.
        assert_eq!(h.percentile_us(99.0), 127);
        assert_eq!(h.percentile_us(100.0), 1_000_000, "max clamps the tail");
    }

    #[test]
    fn single_observation_reports_itself() {
        let h = Histogram::new();
        h.record_us(70);
        // Midpoint of [64, 128) is 96, but the max clamp binds at 70.
        assert_eq!(h.percentile_us(50.0), 70);
        assert_eq!(h.percentile_us(99.0), 70);
    }

    #[test]
    fn zero_and_huge_observations_do_not_panic() {
        let h = Histogram::new();
        h.record_us(0);
        assert_eq!(h.percentile_us(50.0), 0);
        h.record_us(u64::MAX);
        assert_eq!(h.percentile_us(100.0), u64::MAX);
        let empty = Histogram::new();
        assert_eq!(empty.percentile_us(50.0), 0);
    }

    #[test]
    fn prometheus_exposition_format_is_pinned() {
        let latency = Histogram::new();
        latency.record_us(0);
        latency.record_us(3);
        latency.record_us(100);
        let mut text = String::new();
        render_counter(
            &mut text,
            "scalesim_requests_total",
            "Requests received.",
            42,
        );
        render_gauge(&mut text, "scalesim_in_flight", "Requests in flight.", 3);
        render_histogram(
            &mut text,
            "scalesim_latency_us",
            "Request latency, µs.",
            &latency,
        );
        // The exact text is the contract: scrapers and the golden CI
        // check both parse it.
        let expect = "\
# HELP scalesim_requests_total Requests received.
# TYPE scalesim_requests_total counter
scalesim_requests_total 42
# HELP scalesim_in_flight Requests in flight.
# TYPE scalesim_in_flight gauge
scalesim_in_flight 3
# HELP scalesim_latency_us Request latency, µs.
# TYPE scalesim_latency_us histogram
scalesim_latency_us_bucket{le=\"1\"} 1
scalesim_latency_us_bucket{le=\"2\"} 1
scalesim_latency_us_bucket{le=\"4\"} 2
scalesim_latency_us_bucket{le=\"8\"} 2
scalesim_latency_us_bucket{le=\"16\"} 2
scalesim_latency_us_bucket{le=\"32\"} 2
scalesim_latency_us_bucket{le=\"64\"} 2
scalesim_latency_us_bucket{le=\"128\"} 3
scalesim_latency_us_bucket{le=\"+Inf\"} 3
scalesim_latency_us_sum 103
scalesim_latency_us_count 3
";
        assert_eq!(text, expect);
    }

    #[test]
    fn empty_histogram_renders_inf_only() {
        let mut text = String::new();
        render_histogram(&mut text, "h_us", "Empty.", &Histogram::new());
        assert!(text.contains("h_us_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("h_us_count 0"), "{text}");
        assert!(!text.contains("le=\"1\""), "{text}");
    }
}
