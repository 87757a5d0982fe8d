//! Metric arithmetic: percentiles with a sample-count rule, speed-up,
//! CPU utilization, and open-loop "time from due".

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: f64 = 10.0;

/// Whether percentile `q` (in `0..1`) of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 0.5)
}

/// The highest of `candidates` (percentiles in `0..1`) that `n`
/// samples can report, or `None` when even the lowest cannot be.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| reportable(n, q))
        .max_by(f64::total_cmp)
}

/// Latency samples with percentile lookups that honour [`reportable`].
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Percentile `q`, or `None` when too few samples lie beyond it.
    pub fn pct(&mut self, q: f64) -> Option<f64> {
        if !reportable(self.values.len(), q) {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(percentile(&self.values, q))
    }

    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Percentile `q` regardless of the sample-count rule, for per-layer
    /// diagnostics computed from a handful of timed calls.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut s = self.values.clone();
        s.sort_by(f64::total_cmp);
        Some(percentile(&s, q))
    }
}

/// The highest percentile the samples support, with the sample count:
/// `op_ms.tail`, `op_ms.tail_q` (the percentile, in `0..1`) and
/// `op_ms.samples`.
pub fn tail_figures(op_ms: &mut Samples, out: &mut crate::Figures) {
    out.put("op_ms.samples", op_ms.len() as f64, "count");
    if let Some(q) = highest_reportable(op_ms.len(), &[0.5, 0.9, 0.99, 0.999]) {
        out.put("op_ms.tail_q", q, "quantile");
        out.put_opt("op_ms.tail", op_ms.pct(q), "ms");
    }
}

/// Serial time over parallel time for the same work.
pub fn speedup(one_thread: f64, many_threads: f64) -> f64 {
    assert!(many_threads > 0.0, "parallel time must be positive");
    one_thread / many_threads
}

/// Share of the available CPU a phase used: `(user + sys) / (wall × threads)`.
pub fn cpu_util(user_s: f64, sys_s: f64, wall_s: f64, threads: usize) -> f64 {
    assert!(wall_s > 0.0 && threads > 0, "empty phase");
    (user_s + sys_s) / (wall_s * threads as f64)
}

/// Share of the CPU time spent in the kernel.
pub fn sys_frac(user_s: f64, sys_s: f64) -> f64 {
    let total = user_s + sys_s;
    if total > 0.0 {
        sys_s / total
    } else {
        0.0
    }
}

/// A fixed open-loop schedule: item `i` is due at `origin + i × period`,
/// whether or not earlier items have finished.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub origin: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn due(&self, i: u32) -> Instant {
        self.origin + self.period * i
    }

    /// Milliseconds from when item `i` was due to `done`; a stall on an
    /// earlier item counts against every item it delayed.
    pub fn ms_from_due(&self, i: u32, done: Instant) -> f64 {
        done.saturating_duration_since(self.due(i)).as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(!reportable(19, 0.5));
        assert!(reportable(20, 0.5));
        assert!(!reportable(99, 0.9));
        assert!(reportable(100, 0.9));
        assert!(!reportable(999, 0.99));
        assert!(reportable(1000, 0.99));
    }

    #[test]
    fn highest_reportable_percentile_follows_sample_count() {
        let qs = [0.5, 0.9, 0.99];
        assert_eq!(highest_reportable(10, &qs), None);
        assert_eq!(highest_reportable(50, &qs), Some(0.5));
        assert_eq!(highest_reportable(500, &qs), Some(0.9));
        assert_eq!(highest_reportable(5000, &qs), Some(0.99));
    }

    #[test]
    fn samples_withhold_unsupported_percentiles() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.pct(0.5), Some(50.0));
        assert_eq!(s.pct(0.9), Some(90.0));
        assert_eq!(s.pct(0.99), None);
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn speedup_is_serial_over_parallel() {
        assert_eq!(speedup(10.0, 5.0), 2.0);
        assert_eq!(speedup(10.0, 20.0), 0.5);
    }

    #[test]
    fn cpu_util_divides_by_wall_and_threads() {
        // Two threads busy for the whole second: full use.
        assert!((cpu_util(1.5, 0.5, 1.0, 2) - 1.0).abs() < 1e-12);
        // One of two threads busy.
        assert!((cpu_util(1.0, 0.0, 1.0, 2) - 0.5).abs() < 1e-12);
        assert!((sys_frac(1.5, 0.5) - 0.25).abs() < 1e-12);
        assert_eq!(sys_frac(0.0, 0.0), 0.0);
    }

    #[test]
    fn time_from_due_counts_stalls_against_later_items() {
        let origin = Instant::now();
        let s = Schedule {
            origin,
            period: Duration::from_millis(100),
        };
        // Item 0 done 5 ms after it was due.
        assert!((s.ms_from_due(0, origin + Duration::from_millis(5)) - 5.0).abs() < 1e-6);
        // A 250 ms stall on item 0 delays item 1 (due at 100 ms) and
        // item 2 (due at 200 ms): both are charged from their due time,
        // not from when the writer got round to them.
        let after_stall = origin + Duration::from_millis(250);
        assert!((s.ms_from_due(1, after_stall) - 150.0).abs() < 1e-6);
        assert!((s.ms_from_due(2, after_stall) - 50.0).abs() < 1e-6);
        // Finishing early is zero, never negative.
        assert_eq!(s.ms_from_due(3, origin), 0.0);
    }
}
