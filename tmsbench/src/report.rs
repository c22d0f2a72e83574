//! The result line: named metrics with units, operation counts, and the
//! order statistics the benchmark reports.

use std::fmt::Write as _;

/// One run's result: whether every output check passed, how many
/// operations were attempted and failed, and the metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome { correct: true, ..Outcome::default() }
    }

    /// Records metric `name` in `unit`. A non-finite value (a zero
    /// denominator) marks the run incorrect instead of printing invalid
    /// JSON.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            eprintln!("metric {name} is not finite ({value})");
            self.correct = false;
            self.metrics.push((name, 0.0, unit));
        }
    }

    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks the run incorrect, saying why on standard error.
    pub fn wrong(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.correct = false;
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Median, first and third quartile of a sample (linear interpolation
/// between closest ranks). Panics on an empty sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    (quantile(samples, 0.25), quantile(samples, 0.5), quantile(samples, 0.75))
}

/// The `q`-quantile (0.0–1.0) of a sample. Panics on an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(percentile, value)`; the median when the
/// sample is too small for any tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    for pct in [99.9, 99.0, 90.0, 75.0] {
        if samples.len() as f64 * (1.0 - pct / 100.0) >= 10.0 {
            return (pct, quantile(samples, pct / 100.0));
        }
    }
    (50.0, median(samples))
}

/// Prints a sample's median, quartiles and size to standard error.
pub fn describe(name: &str, unit: &str, samples: &[f64]) {
    let (q1, med, q3) = quartiles(samples);
    eprintln!(
        "  {name:<34} median {med:>12.4} {unit:<9} q1 {q1:>12.4}  q3 {q3:>12.4}  n {}",
        samples.len()
    );
}

/// Records the timed end-to-end metrics from one run's repetitions.
///
/// The host's speed drifts in phases lasting seconds, so a run's
/// repetitions are a mix of fast and slow phases and their median jumps
/// between the two from run to run. Throughput and time-to-model are
/// therefore reported at the slow quartile — the lower quartile of
/// per-repetition throughput, the upper quartile of time-to-model — which
/// follows the slow phase and repeats far more closely. Set-up time is
/// the median of the run's set-ups.
pub fn end_to_end(out: &mut Outcome, events_per_s: &[f64], model_ms: &[f64], setup_s: &[f64]) {
    describe("events_per_s", "events/s", events_per_s);
    describe("model_ms", "ms", model_ms);
    describe("setup_s", "s", setup_s);
    out.metric("events_per_s", quantile(events_per_s, 0.25), "events/s");
    out.metric("model_ms", quantile(model_ms, 0.75), "ms");
    out.metric("setup_s", median(setup_s), "s");
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}
