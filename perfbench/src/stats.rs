//! Summary statistics: medians, the tail rule, per-operation best times,
//! windowed summaries and batch timing.

use std::time::Instant;

/// Percentiles a tail may be reported at, in tenths of a percent, highest
/// first (integers, so ranks never suffer float rounding).
const LADDER: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples per tail window: a tail is computed inside each window of this
/// many consecutive samples, so a run's own length never changes which
/// percentile a tail reports (p99 at 1,000 samples).
pub const WINDOW: usize = 1_000;

/// Samples per median window. Short windows, a fraction of a second each,
/// so that a quiet spell of that length shows as a quiet window.
pub const P50_WINDOW: usize = 64;

/// Percentile, over a run's median windows, at which the end-to-end
/// medians are reported: the least-disturbed twentieth. Interference from
/// other tenants only ever slows work down, and on a shared machine it
/// comes and goes, so the quiet twentieth measures the program and the
/// median over windows its neighbours too.
pub const QUIET: f64 = 5.0;

/// Nearest-rank index of percentile `q` in `n` sorted samples.
fn rank(q: f64, n: usize) -> usize {
    let r = ((q * 10.0).round() as u64 * n as u64).div_ceil(1000) as usize;
    r.clamp(1, n) - 1
}

/// The highest ladder percentile with at least 10 samples beyond it among
/// `n`, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .map(|t| t as f64 / 10.0)
        .find(|&q| n > 0 && n - 1 - rank(q, n) >= 10)
}

/// Nearest-rank percentile `q` of `values` (sorted internally).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(q, v.len())]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The fastest time seen of each operation of a pass, indexed by the
/// operation's position in the pass. Every pass of a run repeats the same
/// operations on the same inputs, so an operation's repetitions differ only
/// by what the machine did meanwhile, and interference only ever slows
/// them down: the best repetition is the program's time for it.
#[derive(Default)]
pub struct Best(Vec<f64>);

impl Best {
    pub fn see(&mut self, op: usize, v: f64) {
        if self.0.len() <= op {
            self.0.resize(op + 1, f64::INFINITY);
        }
        self.0[op] = self.0[op].min(v);
    }

    /// Best time of every operation seen at least once.
    pub fn times(&self) -> Vec<f64> {
        self.0.iter().copied().filter(|v| v.is_finite()).collect()
    }
}

/// Median and tail over operations of their best times.
#[derive(Clone, Copy, Debug)]
pub struct OverOps {
    pub p50: f64,
    pub tail: f64,
    /// Percentile the tail reports (see [`tail_percentile`]).
    pub tail_q: f64,
    pub ops: usize,
}

pub fn over_ops(best: &Best) -> Option<OverOps> {
    let times = best.times();
    if times.is_empty() {
        return None;
    }
    let tail_q = tail_percentile(times.len()).unwrap_or(50.0);
    Some(OverOps {
        p50: median(&times),
        tail: percentile(&times, tail_q),
        tail_q,
        ops: times.len(),
    })
}

/// A latency summary over windows of consecutive samples.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The quiet twentieth ([`QUIET`]) of the medians of [`P50_WINDOW`]
    /// windows.
    pub p50: f64,
    /// The median of those medians, for context.
    pub p50_typical: f64,
    /// The median of the tails of [`WINDOW`] windows. A window's tail is
    /// already an extreme of its samples; the quiet twentieth of those would
    /// be an extreme of extremes, which repeats poorly.
    pub tail: f64,
    /// Percentile the tail reports within a window (see [`tail_percentile`]).
    pub tail_q: f64,
    pub samples: usize,
    /// Tail windows.
    pub windows: usize,
}

/// Consecutive windows of `size` samples; with fewer samples than that, the
/// whole set is one window.
fn windows(samples: &[f64], size: usize) -> Vec<&[f64]> {
    if samples.len() < size {
        vec![samples]
    } else {
        samples.chunks_exact(size).collect()
    }
}

/// Summarises time-ordered samples window by window.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of no samples");
    let p50s: Vec<f64> = windows(samples, P50_WINDOW)
        .iter()
        .map(|w| median(w))
        .collect();
    let tail_windows = windows(samples, WINDOW);
    let tail_q = tail_percentile(tail_windows[0].len()).unwrap_or(50.0);
    let tails: Vec<f64> = tail_windows.iter().map(|w| percentile(w, tail_q)).collect();
    Summary {
        p50: percentile(&p50s, QUIET),
        p50_typical: median(&p50s),
        tail: median(&tails),
        tail_q,
        samples: samples.len(),
        windows: tail_windows.len(),
    }
}

/// Times `reps` back-to-back calls of `f` as one batch and returns the
/// mean nanoseconds per call — for calls below the clock's resolution.
pub fn batch_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    assert!(reps > 0, "batch of no calls");
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_010), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        // 999 samples: p99 is rank 990 (1-based), leaving 9 beyond.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(WINDOW), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..5_000 {
            let q = tail_percentile(n).unwrap();
            assert!(n - 1 - rank(q, n) >= 10, "n={n} q={q}");
        }
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Five windows of 1..=WINDOW; one has a spike in every slot beyond
        // p99. The median over windows stays at the clean value.
        let mut s: Vec<f64> = Vec::new();
        for w in 0..5 {
            for i in 1..=WINDOW {
                let spike = w == 2 && i > WINDOW - 10;
                s.push(if spike { 1e9 } else { i as f64 });
            }
        }
        let sum = summarize(&s);
        assert_eq!(sum.tail_q, 99.0);
        assert_eq!(sum.windows, 5);
        assert_eq!(sum.tail, (WINDOW - 10) as f64);
        assert_eq!(sum.samples, 5 * WINDOW);
    }

    #[test]
    fn p50_takes_the_least_disturbed_windows() {
        // A hundred median windows; seven in ten are slowed twofold by a
        // neighbour. The quiet twentieth of the medians reports the
        // undisturbed value; the typical median and the tail (a median over
        // tail windows, each holding slow samples) see the slowdown.
        let mut s: Vec<f64> = Vec::new();
        for w in 0..100 {
            let v = if w % 10 < 3 { 1.0 } else { 2.0 };
            s.extend(std::iter::repeat_n(v, P50_WINDOW));
        }
        let sum = summarize(&s);
        assert_eq!(sum.p50, 1.0);
        assert_eq!(sum.p50_typical, 2.0);
        assert_eq!(sum.tail, 2.0);
        assert_eq!(sum.windows, 100 * P50_WINDOW / WINDOW);
    }

    #[test]
    fn best_keeps_each_operations_fastest_repetition() {
        let mut b = Best::default();
        // Two passes over operations 0..4; operation 3 is never seen, and
        // the second pass is slowed on operations 0 and 2.
        for (op, v) in [(0, 5.0), (1, 9.0), (2, 7.0), (4, 1.0)] {
            b.see(op, v);
        }
        for (op, v) in [(0, 50.0), (1, 8.0), (2, 70.0), (4, 2.0)] {
            b.see(op, v);
        }
        assert_eq!(b.times(), vec![5.0, 8.0, 7.0, 1.0]);
        let o = over_ops(&b).unwrap();
        assert_eq!((o.p50, o.ops, o.tail_q), (5.0, 4, 50.0));
        assert!(over_ops(&Best::default()).is_none());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn batch_timing_runs_every_call_and_averages() {
        let mut calls = 0usize;
        let per_call = batch_ns(256, || {
            calls += 1;
            let t = Instant::now();
            while t.elapsed().as_nanos() < 2_000 {}
        });
        assert_eq!(calls, 256);
        assert!(per_call >= 2_000.0, "per-call mean {per_call} ns");
        assert!(per_call < 1_000_000.0, "per-call mean {per_call} ns");
    }
}
