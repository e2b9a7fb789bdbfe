//! Sample accounting shared by every workload.
//!
//! Latencies are kept in milliseconds. A failed or wrong statement enters
//! its class as `+∞`: it misses every latency limit and contributes no
//! rows, so failures can only make the reported numbers worse.

/// Latency samples of one statement class (a UDF shape, an OLTP
/// statement kind, a scan query).
#[derive(Debug, Clone, Default)]
pub struct Class {
    pub name: String,
    /// Milliseconds per statement; `f64::INFINITY` for a failed one.
    pub ms: Vec<f64>,
    /// Rows each statement was defined over (returned, written, or
    /// aggregated, as the workload counts them); 0 for a failed one.
    rows: Vec<u64>,
    /// Segment of each statement: 0 before the first `new_segment`,
    /// then the 1-based number of the segment.
    seg: Vec<usize>,
    cur: usize,
}

impl Class {
    pub fn new(name: impl Into<String>) -> Class {
        Class {
            name: name.into(),
            ..Class::default()
        }
    }

    pub fn ok(&mut self, ms: f64, rows: u64) {
        self.ms.push(ms);
        self.rows.push(rows);
        self.seg.push(self.cur);
    }

    pub fn failed(&mut self) {
        self.ok(f64::INFINITY, 0);
    }

    pub fn rows(&self) -> u64 {
        self.rows.iter().sum()
    }

    /// Samples pushed from now on belong to the next segment.
    pub fn new_segment(&mut self) {
        self.cur += 1;
    }

    /// Append another class's samples (one client's share of the same
    /// segment).
    pub fn extend(&mut self, other: Class) {
        self.ms.extend(other.ms);
        self.rows.extend(other.rows);
        self.seg
            .extend(std::iter::repeat_n(self.cur, other.seg.len()));
    }

    /// Append another class's samples as the next segment.
    pub fn absorb_segment(&mut self, other: Class) {
        self.new_segment();
        self.extend(other);
    }

    /// Multiply every sample by `factor(segment)` (segments numbered as
    /// in `keep_segments`; 0 for samples pushed before the first
    /// `new_segment`). `+∞` stays `+∞`.
    pub fn scale(&mut self, factor: impl Fn(usize) -> f64) {
        for (ms, &s) in self.ms.iter_mut().zip(&self.seg) {
            *ms *= factor(s);
        }
    }

    /// Keep only the segments `keep` marks (indexed by segment number
    /// less one). A failed statement of a dropped segment moves to the
    /// first kept segment, so failures still enter every latency figure.
    pub fn keep_segments(&mut self, keep: &[bool]) {
        let kept = |s: usize| s == 0 || keep.get(s - 1).copied().unwrap_or(true);
        let Some(first) = (1..=keep.len()).find(|&s| kept(s)) else {
            return;
        };
        let mut out = Class::new(self.name.clone());
        out.cur = self.cur;
        for i in 0..self.ms.len() {
            let s = self.seg[i];
            if kept(s) || self.ms[i].is_infinite() {
                out.ms.push(self.ms[i]);
                out.rows.push(self.rows[i]);
                out.seg.push(if kept(s) { s } else { first });
            }
        }
        *self = out;
    }

    /// The median of the segments' medians (the plain median for one
    /// segment). A host that runs slow for part of a run moves only the
    /// segments it overlapped, so this stays put while fewer than half of
    /// the segments are hit.
    pub fn median(&self) -> f64 {
        let mut by_seg: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
        for (&s, &ms) in self.seg.iter().zip(&self.ms) {
            by_seg.entry(s).or_default().push(ms);
        }
        let medians: Vec<f64> = by_seg.values().map(|v| median(v)).collect();
        median(&medians)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for an even count); `NaN` for
/// no samples. `+∞` samples sort last, so a majority of failures makes
/// the median infinite.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => {
            let (a, b) = (v[n / 2 - 1], v[n / 2]);
            if a.is_infinite() || b.is_infinite() {
                a.max(b)
            } else {
                (a + b) / 2.0
            }
        }
    }
}

/// Number of samples a tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// The tail never goes above this percentile. On a small shared host the
/// few slowest statements of a run are those the hypervisor happened to
/// preempt; beyond p98 the figure measured that luck more than the
/// program, and moved by a third between identical runs.
pub const TAIL_MAX_PERCENTILE: usize = 98;

/// The tail: the highest percentile, at most [`TAIL_MAX_PERCENTILE`],
/// that still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Which percentile that sample sits at, `100 * (n - beyond) / n`.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// `None` when there are too few samples for any percentile to have ten
/// beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let capped = (n * (100 - TAIL_MAX_PERCENTILE)).div_ceil(100);
    let beyond = TAIL_BEYOND.max(capped);
    let v = sorted(values);
    Some(Tail {
        value: v[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    })
}

/// Rows per second of statement wall time, robust to interference
/// spikes: every class is charged its median statement time for each of
/// its statements. A class whose median is `+∞` (mostly failures) makes
/// the whole figure 0.
pub fn rows_per_s(classes: &[Class]) -> f64 {
    let mut rows = 0u64;
    let mut ms = 0.0;
    for c in classes.iter().filter(|c| !c.ms.is_empty()) {
        rows += c.rows();
        ms += c.ms.len() as f64 * c.median();
    }
    if ms.is_infinite() || ms <= 0.0 {
        return 0.0;
    }
    rows as f64 / (ms / 1e3)
}

/// Statement latency at the median: the geometric mean of the classes'
/// medians, weighted by each class's share of the statements. A plain
/// median over a round-robin of equal-sized classes falls in the gap
/// between two classes, where single outliers move it; this figure moves
/// by the same share whichever class gets faster. `+∞` if any class has
/// a failed majority.
pub fn mix_p50(classes: &[Class]) -> f64 {
    let n: usize = classes.iter().map(|c| c.ms.len()).sum();
    if n == 0 {
        return f64::NAN;
    }
    let log_sum: f64 = classes
        .iter()
        .filter(|c| !c.ms.is_empty())
        .map(|c| c.ms.len() as f64 * c.median().ln())
        .sum();
    (log_sum / n as f64).exp()
}

/// Every sample of every class, for the all-statement percentiles.
pub fn all_samples(classes: &[Class]) -> Vec<f64> {
    classes.iter().flat_map(|c| c.ms.iter().copied()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.percentile, 90.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 500 samples: p98 is the first percentile with ten beyond it.
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 490.0);
    }

    #[test]
    fn tail_stops_at_p98() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 980.0);
        assert!((t.percentile - 98.0).abs() < 1e-12);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 20);
    }

    #[test]
    fn scale_applies_each_segments_factor_and_keeps_failures_infinite() {
        let mut c = Class::new("q");
        c.ok(1.0, 1);
        c.new_segment();
        c.ok(10.0, 1);
        c.failed();
        c.new_segment();
        c.ok(10.0, 1);
        c.scale(|s| [1.0, 0.5, 0.8][s]);
        assert_eq!(c.ms, vec![1.0, 5.0, f64::INFINITY, 8.0]);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 1.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut c = Class::new("q");
        for i in 0..20 {
            c.ok(1.0 + i as f64, 1);
        }
        // Eleven failures push the tail to +inf: failures miss every limit.
        for _ in 0..11 {
            c.failed();
        }
        assert_eq!(tail(&c.ms).unwrap().value, f64::INFINITY);
        // Fewer than half failed: the median is still finite but moved up.
        assert_eq!(c.median(), 16.0);
        // Failed statements add no rows.
        assert_eq!(c.rows(), 20);
    }

    #[test]
    fn a_slow_minority_of_segments_does_not_move_the_median() {
        let mut c = Class::new("q");
        for seg in 0..5 {
            c.new_segment();
            // Two of five segments ran on a host three times slower.
            let ms = if seg < 2 { 3.0 } else { 1.0 };
            for _ in 0..7 {
                c.ok(ms, 1);
            }
        }
        assert_eq!(c.median(), 1.0);
        let mut whole = Class::new("q");
        whole.absorb_segment(c.clone());
        whole.absorb_segment(c);
        assert_eq!(whole.median(), 1.0);
        assert_eq!(whole.ms.len(), 70);
    }

    #[test]
    fn dropped_segments_keep_their_failures() {
        let mut c = Class::new("q");
        for (ms, failures) in [(5.0, 1), (1.0, 0), (9.0, 0), (2.0, 0)] {
            c.new_segment();
            for _ in 0..4 {
                c.ok(ms, 10);
            }
            for _ in 0..failures {
                c.failed();
            }
        }
        c.keep_segments(&[false, true, false, true]);
        assert_eq!(c.median(), 1.5);
        assert_eq!(c.rows(), 80);
        // The first segment's failure is still there, now in segment 2.
        assert_eq!(c.ms.iter().filter(|v| v.is_infinite()).count(), 1);
        assert_eq!(c.ms.len(), 9);
    }

    #[test]
    fn mix_p50_weights_each_class_by_its_share() {
        let mut a = Class::new("a");
        let mut b = Class::new("b");
        for _ in 0..3 {
            a.ok(1.0, 1);
        }
        b.ok(8.0, 1);
        // exp((3 ln 1 + ln 8) / 4) = 8^(1/4)
        assert!((mix_p50(&[a.clone(), b.clone()]) - 8f64.powf(0.25)).abs() < 1e-12);
        // Halving one class's latency moves the figure by its share.
        let mut faster = Class::new("b");
        faster.ok(4.0, 1);
        let ratio = mix_p50(&[a.clone(), b]) / mix_p50(&[a.clone(), faster]);
        assert!((ratio - 2f64.powf(0.25)).abs() < 1e-12);
        let mut failed = Class::new("f");
        failed.failed();
        assert_eq!(mix_p50(&[a, failed]), f64::INFINITY);
    }

    #[test]
    fn failures_lower_throughput_and_a_failed_majority_zeroes_it() {
        let mut clean = Class::new("q");
        for _ in 0..10 {
            clean.ok(2.0, 100);
        }
        let base = rows_per_s(std::slice::from_ref(&clean));
        assert!((base - 50_000.0).abs() < 1e-6);

        let mut some = clean.clone();
        some.failed();
        some.failed();
        assert!(rows_per_s(&[some]) < base);

        let mut most = Class::new("q");
        most.ok(2.0, 100);
        most.failed();
        most.failed();
        assert_eq!(rows_per_s(&[most]), 0.0);
    }
}
