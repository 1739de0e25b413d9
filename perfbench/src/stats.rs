//! The benchmark's own arithmetic: sample quantiles, quantiles from
//! histogram deltas, span self time, open-loop latency and generator
//! lateness, and the `max_rate` capacity rule.

use dfp_obs::metrics::HistogramSnapshot;
use std::time::Duration;

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); `0.0` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median over consecutive groups of about `group` samples of each
/// group's `q`-quantile. A burst of host stalls moves the quantile of the
/// groups it falls in and leaves the median of the groups alone, while a
/// tail the program itself adds shows in every group.
pub fn windowed_quantile(samples: &[f64], q: f64, group: usize) -> f64 {
    let groups = (samples.len() / group.max(1)).max(1);
    let per_group: Vec<f64> = (0..groups)
        .map(|g| {
            let lo = g * samples.len() / groups;
            let hi = (g + 1) * samples.len() / groups;
            quantile(&samples[lo..hi], q)
        })
        .collect();
    quantile(&per_group, 0.5)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The observations one histogram took over some intervals, summed from
/// the differences of snapshots taken around each.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistDelta {
    /// Finite bucket upper bounds in seconds.
    pub bounds: Vec<f64>,
    /// Cumulative count per bound plus the `+Inf` slot.
    pub cumulative: Vec<u64>,
    pub sum_nanos: u64,
    pub count: u64,
}

impl HistDelta {
    /// Adds the observations taken between `before` and `after`.
    pub fn add(&mut self, before: &HistogramSnapshot, after: &HistogramSnapshot) {
        if self.cumulative.is_empty() {
            self.bounds = after.bounds.clone();
            self.cumulative = vec![0; after.cumulative.len()];
        }
        for ((total, a), b) in self
            .cumulative
            .iter_mut()
            .zip(&after.cumulative)
            .zip(&before.cumulative)
        {
            *total += a - b;
        }
        self.sum_nanos += after.sum_nanos - before.sum_nanos;
        self.count += after.count - before.count;
    }

    /// The `q`-quantile, interpolated inside the bucket that holds it as
    /// Prometheus' `histogram_quantile` computes it; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.cumulative.is_empty() {
            return 0.0;
        }
        dfp_obs::tsdb::bucket_quantile(&self.bounds, &self.cumulative, q)
    }

    /// The mean observation in seconds; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        ratio(self.sum_nanos as f64 / 1e9, self.count as f64)
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`, in the
/// intervals' own unit.
pub fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A span's self time: its duration minus the part of it that its child
/// spans cover (overlapping children, e.g. parallel folds, count once).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered(start, end, children)
}

/// Timing of one open-loop request, all offsets from the run's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent {
    /// When the schedule said the request is due.
    pub due: Duration,
    /// When its sender thread finished the previous request (zero for the
    /// first one).
    pub free: Duration,
    /// When the request actually started (connect).
    pub start: Duration,
    /// When the last response byte arrived.
    pub done: Duration,
}

impl Sent {
    /// Latency as a user sees it: from when the request was due, so a stall
    /// also charges the requests queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator itself started the request: the delay past
    /// both its due time and its thread becoming free. Waiting for an
    /// earlier slow response is the system's doing and is in the latency;
    /// this is only the generator's own oversleep.
    pub fn lateness(&self) -> Duration {
        self.start.saturating_sub(self.due.max(self.free))
    }
}

/// One window of the capacity phase, where the load generator keeps every
/// connection busy.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Requests answered correctly per second in the window.
    pub rate: f64,
    /// The workload's tail percentile of latency in the window, in ms.
    pub tail_ms: f64,
    /// Requests that failed, were refused or answered wrongly.
    pub failed: usize,
}

impl Window {
    /// A window counts when its tail meets `limit_ms` and nothing failed.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.tail_ms <= limit_ms
    }
}

/// Splits the capacity phase into whole windows of `window_s` seconds (one
/// window of the whole phase if it is shorter) and sums up each: `done`
/// holds every request's completion time (seconds from the phase's start),
/// latency in ms and whether it was answered correctly. Completions after
/// the last whole window are left out.
pub fn windows(done: &[(f64, f64, bool)], phase_s: f64, window_s: f64, tail_q: f64) -> Vec<Window> {
    let window_s = window_s.min(phase_s);
    let n = ((phase_s / window_s).floor() as usize).max(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut failed = vec![0usize; n];
    for &(t, ms, ok) in done {
        let w = (t / window_s).floor() as usize;
        if w >= n {
            continue;
        }
        if ok {
            lat[w].push(ms);
        } else {
            failed[w] += 1;
        }
    }
    lat.iter()
        .zip(failed)
        .map(|(l, failed)| Window {
            rate: l.len() as f64 / window_s,
            tail_ms: quantile(l, tail_q),
            failed,
        })
        .collect()
}

/// The capacity: the upper quartile over the windows of the rate each
/// achieved, counting a window that misses `limit_ms` or has a failure as
/// 0. With every connection busy there is no backlog to grow. A host stall
/// only ever takes capacity away, and the limit turns a stalled window into
/// 0, so a median over windows drops to 0 once half of them stall; the
/// upper quartile reads 0 only when three quarters miss the limit, as they
/// do when the program itself got too slow for it.
pub fn max_rate(windows: &[Window], limit_ms: f64) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| if w.passes(limit_ms) { w.rate } else { 0.0 })
        .collect();
    quantile(&rates, 0.75)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_stalled_group() {
        // Four groups of 100: three fast (p90 of 1..=100 ms is 90), one
        // where a stall pushed every sample up by 1000 ms.
        let mut v: Vec<f64> = Vec::new();
        for g in 0..4 {
            let stall = if g == 2 { 1000.0 } else { 0.0 };
            v.extend((1..=100).map(|x| f64::from(x) + stall));
        }
        assert!(quantile(&v, 0.9) > 1000.0);
        assert_eq!(windowed_quantile(&v, 0.9, 100), 90.0);
        // Fewer samples than a group: one group, the plain quantile.
        assert_eq!(
            windowed_quantile(&v[..50], 0.9, 100),
            quantile(&v[..50], 0.9)
        );
        // A tail in every group shows.
        let slow: Vec<f64> = v.iter().map(|x| x + 5.0).collect();
        assert_eq!(windowed_quantile(&slow, 0.9, 100), 95.0);
    }

    #[test]
    fn histogram_delta_quantiles() {
        let h =
            dfp_obs::metrics::Registry::new().histogram("t_seconds", "test", &[0.001, 0.005, 0.01]);
        let observe = |n: usize, us: u64| {
            for _ in 0..n {
                h.observe(Duration::from_micros(us));
            }
        };
        // 100 observations in two intervals: 40 <= 1 ms, 50 in (1, 5] ms and
        // 10 in (5, 10] ms. The 10 made outside them do not count.
        let mut d = HistDelta::default();
        assert_eq!(d.quantile(0.5), 0.0);
        observe(10, 500);
        let s0 = h.snapshot();
        observe(40, 500);
        observe(20, 3000);
        let s1 = h.snapshot();
        observe(10, 500);
        let s2 = h.snapshot();
        observe(30, 3000);
        observe(10, 7000);
        let s3 = h.snapshot();
        d.add(&s0, &s1);
        d.add(&s2, &s3);
        assert_eq!(d.cumulative, vec![40, 90, 100, 100]);
        assert_eq!(d.count, 100);
        // Rank 50 sits 10/50 of the way through the (1, 5] ms bucket.
        assert!((d.quantile(0.5) - 0.0018).abs() < 1e-12);
        // Rank 20 is halfway through the first bucket, which starts at 0.
        assert!((d.quantile(0.2) - 0.0005).abs() < 1e-12);
        // Rank 99 is 9/10 through (5, 10] ms.
        assert!((d.quantile(0.99) - 0.0095).abs() < 1e-12);
        let mean_s = (40.0 * 0.0005 + 50.0 * 0.003 + 10.0 * 0.007) / 100.0;
        assert!((d.mean() - mean_s).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent [0, 100); children overlap in [20, 40) and one pokes out.
        let children = [(10, 30), (20, 40), (90, 120)];
        assert_eq!(covered(0, 100, &children), 40);
        assert_eq!(self_time(0, 100, &children), 60);
        assert_eq!(self_time(0, 100, &[]), 100);
        // Two parallel children covering the whole parent leave nothing.
        assert_eq!(self_time(0, 100, &[(0, 100), (0, 100)]), 0);
        // Adjacent intervals merge without double counting.
        assert_eq!(covered(0, 100, &[(0, 50), (50, 100)]), 100);
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_excludes_system_wait() {
        // On time: due at 10, thread free since 5, started at 10.2, done 12.
        let on_time = Sent {
            due: ms(10),
            free: ms(5),
            start: Duration::from_micros(10_200),
            done: ms(12),
        };
        assert_eq!(on_time.latency(), ms(2));
        assert_eq!(on_time.lateness(), Duration::from_micros(200));
        // Behind a slow response: due at 10, the thread was busy until 30
        // and started at 30.1. The 20 ms stall counts in latency, but only
        // the 0.1 ms oversleep is the generator's lateness.
        let stalled = Sent {
            due: ms(10),
            free: ms(30),
            start: Duration::from_micros(30_100),
            done: ms(31),
        };
        assert_eq!(stalled.latency(), ms(21));
        assert_eq!(stalled.lateness(), Duration::from_micros(100));
    }

    #[test]
    fn capacity_windows_count_rate_tail_and_failures() {
        // Two 0.5 s windows: the first answers 3 requests (one at 9 ms),
        // the second 2 plus a failure; a completion past the last whole
        // window is left out.
        let done = [
            (0.1, 1.0, true),
            (0.2, 2.0, true),
            (0.4, 9.0, true),
            (0.6, 1.0, true),
            (0.7, 1.0, false),
            (0.9, 3.0, true),
            (1.05, 1.0, true),
        ];
        let w = windows(&done, 1.0, 0.5, 0.5);
        assert_eq!(w.len(), 2);
        // A phase shorter than a window is one window of its own length.
        let short = windows(&done[..3], 0.45, 0.5, 0.5);
        assert_eq!(short.len(), 1);
        assert!((short[0].rate - 3.0 / 0.45).abs() < 1e-9);
        assert_eq!(
            w[0],
            Window {
                rate: 6.0,
                tail_ms: 2.0,
                failed: 0
            }
        );
        assert_eq!(
            w[1],
            Window {
                rate: 4.0,
                tail_ms: 1.0,
                failed: 1
            }
        );
    }

    fn window(rate: f64, tail_ms: f64, failed: usize) -> Window {
        Window {
            rate,
            tail_ms,
            failed,
        }
    }

    #[test]
    fn capacity_is_the_upper_quartile_window_rate() {
        let w = [
            window(3000.0, 1.0, 0),
            window(3400.0, 1.2, 0),
            window(3200.0, 0.9, 0),
            window(3100.0, 1.1, 0),
        ];
        // Nearest rank 3 of 4.
        assert_eq!(max_rate(&w, 5.0), 3200.0);
        // Half of the windows stalled past the limit: their median would
        // read 0, the upper quartile reads a window the host left alone.
        let stalled = [
            window(3000.0, 1.0, 0),
            window(900.0, 40.0, 0),
            window(3200.0, 0.9, 0),
            window(800.0, 30.0, 0),
        ];
        assert_eq!(max_rate(&stalled, 5.0), 3000.0);
    }

    #[test]
    fn capacity_counts_missed_limits_and_failures_as_zero() {
        // A tail over the limit in three windows of four, or failures in
        // three of four, makes the capacity 0.
        let slow = [
            window(3000.0, 7.0, 0),
            window(3100.0, 6.0, 0),
            window(3200.0, 0.9, 0),
            window(3300.0, 8.0, 0),
        ];
        assert_eq!(max_rate(&slow, 5.0), 0.0);
        let failing = [
            window(3000.0, 1.0, 1),
            window(3100.0, 1.0, 2),
            window(3200.0, 1.0, 0),
            window(3300.0, 1.0, 1),
        ];
        assert_eq!(max_rate(&failing, 5.0), 0.0);
        assert_eq!(max_rate(&[], 5.0), 0.0);
    }
}
