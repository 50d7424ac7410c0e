//! Open-loop schedule: arrival `i` is due at `i / rate` seconds after the
//! start, whether or not the program kept up. Latencies are measured from
//! due times, so a stall is charged to every arrival it delays, and the
//! generator's own lateness is recorded beside them.

use std::time::Instant;

pub struct Schedule {
    start: Instant,
    rate: f64,
    /// How late each chunk was offered, in nanoseconds past its due time.
    pub lateness_ns: Vec<f64>,
}

impl Schedule {
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "offered rate must be positive");
        Schedule {
            start: Instant::now(),
            rate,
            lateness_ns: Vec::new(),
        }
    }

    /// Due time of arrival `index`, in ns since the start.
    pub fn due_ns(&self, index: u64) -> f64 {
        index as f64 * 1e9 / self.rate
    }

    pub fn now_ns(&self) -> f64 {
        self.start.elapsed().as_nanos() as f64
    }

    /// Whether arrival `index` is due.
    pub fn is_due(&self, index: u64) -> bool {
        self.now_ns() >= self.due_ns(index)
    }

    /// Records that the chunk ending at arrival `last` is offered now.
    pub fn offer(&mut self, last: u64) {
        self.offer_at(last, self.now_ns());
    }

    fn offer_at(&mut self, last: u64, now_ns: f64) -> f64 {
        let late = (now_ns - self.due_ns(last)).max(0.0);
        self.lateness_ns.push(late);
        late
    }

    /// Latency of an observation made now of a result covering arrivals
    /// `0..covered`: measured from the due time of the last one.
    pub fn fresh_ns(&self, covered: u64) -> f64 {
        self.fresh_at(covered, self.now_ns())
    }

    fn fresh_at(&self, covered: u64, now_ns: f64) -> f64 {
        assert!(covered > 0, "a result must cover at least one arrival");
        now_ns - self.due_ns(covered - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_and_freshness_count_from_due_times() {
        // 1,000 arrivals/s: arrival i is due at i ms.
        let mut s = Schedule::new(1_000.0);
        assert_eq!(s.due_ns(0), 0.0);
        assert_eq!(s.due_ns(1_023), 1_023e6);
        // Offered on time, then 5 ms late; early offers count as 0.
        assert_eq!(s.offer_at(1_023, 1_023e6), 0.0);
        assert_eq!(s.offer_at(2_047, 2_052e6), 5e6);
        assert_eq!(s.offer_at(3_071, 3_000e6), 0.0);
        assert_eq!(s.lateness_ns, vec![0.0, 5e6, 0.0]);
        // A result covering 2,048 arrivals seen at 2,060 ms is 13 ms old:
        // the stall that delayed the offer is charged to it.
        assert_eq!(s.fresh_at(2_048, 2_060e6), 13e6);
    }

    #[test]
    fn schedule_is_due_after_its_time() {
        let s = Schedule::new(1e9);
        assert!(s.is_due(0));
        let far = Schedule::new(1.0);
        assert!(!far.is_due(1_000));
    }
}
