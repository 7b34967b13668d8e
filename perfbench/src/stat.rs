//! Latency recording and the summary statistics the report is built from.

use crate::procfs;
use std::time::{Duration, Instant};

/// Values below this many nanoseconds are counted in exact 1 ns buckets;
/// larger ones are kept raw.  In-process calls land in the buckets, network
/// round trips in the raw list, so neither costs more than it must.
const FINE_NS: usize = 1 << 14;

/// An exact latency distribution in nanoseconds.
pub struct Lat {
    fine: Vec<u32>,
    coarse: Vec<u64>,
    count: u64,
}

impl Default for Lat {
    fn default() -> Lat {
        Lat::new()
    }
}

impl Lat {
    pub fn new() -> Lat {
        Lat {
            fine: Vec::new(),
            coarse: Vec::new(),
            count: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        if (ns as usize) < FINE_NS {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS];
            }
            self.fine[ns as usize] += 1;
        } else {
            self.coarse.push(ns);
        }
    }

    /// Adds every value `other` recorded.
    pub fn merge(&mut self, other: &Lat) {
        if !other.fine.is_empty() {
            if self.fine.is_empty() {
                self.fine = vec![0; FINE_NS];
            }
            for (mine, theirs) in self.fine.iter_mut().zip(&other.fine) {
                *mine += theirs;
            }
        }
        self.coarse.extend_from_slice(&other.coarse);
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The nearest-rank `q`-quantile (`0 < q <= 1`) in nanoseconds, 0 when
    /// nothing was recorded.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return ns as f64;
            }
        }
        self.coarse.sort_unstable();
        self.coarse[(rank - seen - 1) as usize] as f64
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Summarises per-window values by the quartile on the good side: the
/// value that a quarter of the windows did better than.  Other tenants of
/// the machine stall it for seconds at a time; this keeps a stall that
/// spoils up to three windows in four from setting the result, while a
/// change that slows every window still moves it.
pub fn good_quartile(values: &[f64], better: Better) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = match better {
        Better::Lower => 0.25,
        Better::Higher => 0.75,
    };
    // Linear interpolation between the closest ranks.
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// `count` equal back-to-back time windows starting at `from`.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    from: Instant,
    len: Duration,
    count: usize,
}

impl Windows {
    pub fn new(from: Instant, span: Duration, count: usize) -> Windows {
        let count = count.max(1);
        Windows {
            from,
            len: span / count as u32,
            count,
        }
    }

    pub fn count(&self) -> usize {
        self.count
    }

    pub fn len(&self) -> Duration {
        self.len
    }

    /// The window `at` falls in, if any.
    pub fn of(&self, at: Instant) -> Option<usize> {
        let since = at.checked_duration_since(self.from)?;
        let i = (since.as_nanos() / self.len.as_nanos().max(1)) as usize;
        (i < self.count).then_some(i)
    }

    /// Polls every few milliseconds until `done`, calling `tick` each time,
    /// and returns the process CPU seconds used in each window.
    pub fn sample_cpu(&self, done: &dyn Fn() -> bool, tick: &mut dyn FnMut()) -> Vec<f64> {
        let mut marks: Vec<f64> = Vec::with_capacity(self.count + 1);
        loop {
            let finished = done();
            let now = Instant::now();
            while marks.len() <= self.count && now >= self.from + self.len * marks.len() as u32 {
                marks.push(procfs::process_cpu_s());
            }
            if finished {
                break;
            }
            tick();
            std::thread::sleep(Duration::from_millis(2));
        }
        marks.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_span_fine_and_coarse_values() {
        let mut lat = Lat::new();
        for ns in [10u64, 20, 30, 100_000, 200_000] {
            lat.record_ns(ns);
        }
        assert_eq!(lat.quantile_ns(0.2), 10.0);
        assert_eq!(lat.quantile_ns(0.5), 30.0);
        assert_eq!(lat.quantile_ns(0.8), 100_000.0);
        assert_eq!(lat.quantile_ns(1.0), 200_000.0);
        assert_eq!(lat.count(), 5);
        let mut sum = Lat::new();
        sum.merge(&lat);
        sum.merge(&lat);
        assert_eq!(sum.count(), 10);
        assert_eq!(sum.quantile_ns(0.6), 30.0);
        assert_eq!(sum.quantile_ns(1.0), 200_000.0);
    }

    #[test]
    fn good_quartile_takes_the_better_side() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(good_quartile(&v, Better::Lower), 2.0);
        assert_eq!(good_quartile(&v, Better::Higher), 4.0);
        assert_eq!(good_quartile(&[1.0, 2.0], Better::Lower), 1.25);
    }

    #[test]
    fn windows_place_instants() {
        let t = Instant::now();
        let w = Windows::new(t, Duration::from_secs(4), 4);
        assert_eq!(w.of(t), Some(0));
        assert_eq!(w.of(t + Duration::from_millis(2500)), Some(2));
        assert_eq!(w.of(t + Duration::from_secs(4)), None);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
