//! Mergeable execution-time statistics.

use rtms_trace::Nanos;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Measured execution-time statistics of one callback: best case, average,
/// and worst case over all observed instances (mBCET / mACET / mWCET in the
/// paper's terminology).
///
/// Statistics merge associatively, which is what makes the
/// "DAG-per-run, then merge DAGs" deployment option of Fig. 2 work.
///
/// # Example
///
/// ```
/// use rtms_core::ExecStats;
/// use rtms_trace::Nanos;
///
/// let mut s = ExecStats::new();
/// s.push(Nanos::from_millis(3));
/// s.push(Nanos::from_millis(5));
/// assert_eq!(s.mbcet(), Some(Nanos::from_millis(3)));
/// assert_eq!(s.mwcet(), Some(Nanos::from_millis(5)));
/// assert_eq!(s.macet(), Some(Nanos::from_millis(4)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    count: u64,
    sum: u64,
    min: Option<Nanos>,
    max: Option<Nanos>,
}

impl ExecStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        ExecStats::default()
    }

    /// Builds statistics from an iterator of samples.
    pub fn from_samples<I: IntoIterator<Item = Nanos>>(samples: I) -> Self {
        let mut s = ExecStats::new();
        for x in samples {
            s.push(x);
        }
        s
    }

    /// Records one measured execution time.
    pub fn push(&mut self, sample: Nanos) {
        self.count += 1;
        self.sum += sample.as_nanos();
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Merges another statistic into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.count += other.count;
        self.sum += other.sum;
        if let Some(m) = other.min {
            self.min = Some(self.min.map_or(m, |s| s.min(m)));
        }
        if let Some(m) = other.max {
            self.max = Some(self.max.map_or(m, |s| s.max(m)));
        }
    }

    /// Number of recorded instances.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Measured best-case execution time.
    pub fn mbcet(&self) -> Option<Nanos> {
        self.min
    }

    /// Measured worst-case execution time.
    pub fn mwcet(&self) -> Option<Nanos> {
        self.max
    }

    /// Measured average execution time (rounded to the nanosecond).
    pub fn macet(&self) -> Option<Nanos> {
        if self.count == 0 {
            None
        } else {
            Some(Nanos::from_nanos(
                ((self.sum as f64 / self.count as f64).round()) as u64,
            ))
        }
    }
}

/// The start-gap fold of one callback: its first and last start time and
/// [`ExecStats`] over the gaps between consecutive starts — the period
/// estimate of a timer callback, kept without a per-instance vector.
///
/// A start that precedes the one before it (a late, out-of-order segment)
/// contributes no gap: the pair is skipped rather than wrapped or clamped
/// to a zero sample. Folds merge exactly: [`StartGaps::append`] of a later
/// fold yields the fold of the concatenated start sequences, junction gap
/// included.
///
/// # Example
///
/// ```
/// use rtms_core::StartGaps;
/// use rtms_trace::Nanos;
///
/// let ms = Nanos::from_millis;
/// let mut a = StartGaps::from_starts([ms(0), ms(100)]);
/// a.append(&StartGaps::from_starts([ms(90), ms(200)]));
/// // Gaps 100 and 110; 100 → 90 runs backwards and is skipped.
/// assert_eq!(a.gaps().count(), 2);
/// assert_eq!(a.mean_gap(), Some(ms(105)));
/// assert_eq!((a.first(), a.last()), (Some(ms(0)), Some(ms(200))));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StartGaps {
    first: Option<Nanos>,
    last: Option<Nanos>,
    gaps: ExecStats,
}

impl StartGaps {
    /// Folds a sequence of start times, in observation order.
    pub fn from_starts<I: IntoIterator<Item = Nanos>>(starts: I) -> Self {
        let mut s = StartGaps::default();
        for start in starts {
            s.push(start);
        }
        s
    }

    /// Records the next start time.
    pub fn push(&mut self, start: Nanos) {
        if let Some(last) = self.last.filter(|&last| start >= last) {
            self.gaps.push(start - last);
        }
        self.first.get_or_insert(start);
        self.last = Some(start);
    }

    /// Appends the fold of the start times that follow this fold's.
    pub fn append(&mut self, later: &StartGaps) {
        if let Some(first) = later.first {
            self.push(first);
            self.gaps.merge(&later.gaps);
            self.last = later.last;
        }
    }

    /// The first start time, if any.
    pub fn first(&self) -> Option<Nanos> {
        self.first
    }

    /// The last start time, if any.
    pub fn last(&self) -> Option<Nanos> {
        self.last
    }

    /// Statistics over the in-order gaps between consecutive starts.
    pub fn gaps(&self) -> &ExecStats {
        &self.gaps
    }

    /// The mean gap, rounded down; `None` if no gap is recorded.
    pub fn mean_gap(&self) -> Option<Nanos> {
        (self.gaps.count > 0).then(|| Nanos::from_nanos(self.gaps.sum / self.gaps.count))
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.mbcet(), self.macet(), self.mwcet()) {
            (Some(b), Some(a), Some(w)) => write!(
                f,
                "mBCET={:.2}ms mACET={:.2}ms mWCET={:.2}ms (n={})",
                b.as_millis_f64(),
                a.as_millis_f64(),
                w.as_millis_f64(),
                self.count
            ),
            _ => write!(f, "no samples"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = ExecStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mbcet(), None);
        assert_eq!(s.macet(), None);
        assert_eq!(s.mwcet(), None);
        assert_eq!(s.to_string(), "no samples");
    }

    #[test]
    fn merge_equals_pooled() {
        let all: Vec<Nanos> = (1..=10).map(Nanos::from_millis).collect();
        let pooled = ExecStats::from_samples(all.iter().copied());
        let mut a = ExecStats::from_samples(all[..4].iter().copied());
        let b = ExecStats::from_samples(all[4..].iter().copied());
        a.merge(&b);
        assert_eq!(a, pooled);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = ExecStats::from_samples([Nanos::from_millis(2)]);
        let before = s.clone();
        s.merge(&ExecStats::new());
        assert_eq!(s, before);
        let mut e = ExecStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    /// The fold equals the gap statistics of the full start sequence,
    /// split anywhere and appended back together.
    #[test]
    fn start_gaps_append_equals_one_fold() {
        let starts: Vec<Nanos> =
            [0u64, 100, 201, 150, 299, 400, 400, 380].into_iter().map(Nanos::from_millis).collect();
        let whole = StartGaps::from_starts(starts.iter().copied());
        let in_order = starts.windows(2).filter(|w| w[1] >= w[0]).map(|w| w[1] - w[0]);
        assert_eq!(whole.gaps(), &ExecStats::from_samples(in_order));
        for cut in 0..=starts.len() {
            let mut head = StartGaps::from_starts(starts[..cut].iter().copied());
            head.append(&StartGaps::from_starts(starts[cut..].iter().copied()));
            assert_eq!(head, whole, "cut at {cut}");
        }
        assert_eq!(StartGaps::from_starts([Nanos::ZERO]).mean_gap(), None);
    }

    #[test]
    fn display_formats_millis() {
        let s = ExecStats::from_samples([Nanos::from_millis(2), Nanos::from_millis(4)]);
        let txt = s.to_string();
        assert!(txt.contains("mBCET=2.00ms"), "{txt}");
        assert!(txt.contains("mWCET=4.00ms"), "{txt}");
        assert!(txt.contains("n=2"), "{txt}");
    }
}
