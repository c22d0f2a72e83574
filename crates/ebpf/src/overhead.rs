//! Probe overhead accounting.
//!
//! `bpftool prog show` reports run counts and cumulative runtime per
//! program; the paper uses that to report its probes consume 0.008 CPU
//! cores on average (0.3 % of the applications' computational load) while
//! generating 9 MB of trace data per 60 s. [`OverheadModel`] charges each
//! probe firing a cost derived from its work (base dispatch cost plus
//! per-helper costs) and produces the same aggregate statistics.

use rtms_trace::{Nanos, Probe};
use std::collections::BTreeMap;

/// Per-firing cost model and accumulated accounting.
///
/// [`OverheadModel::charge`] runs once per probe firing — for the kernel
/// tracer, once per scheduler event the machine produces — so the
/// accounting is a flat array indexed by probe discriminant, not a map.
#[derive(Debug, Clone)]
pub struct OverheadModel {
    /// Fixed cost of a probe dispatch (trap + program setup).
    base_cost: Nanos,
    /// Cost charged per helper call the program performs.
    helper_cost: Nanos,
    counts: [u64; Probe::ALL.len()],
    times: [Nanos; Probe::ALL.len()],
}

impl OverheadModel {
    /// Creates the default model: 800 ns per uprobe dispatch and 60 ns per
    /// helper call — in line with published uprobe/eBPF microbenchmarks on
    /// the paper's hardware class.
    pub fn new() -> Self {
        OverheadModel {
            base_cost: Nanos::from_nanos(800),
            helper_cost: Nanos::from_nanos(60),
            counts: [0; Probe::ALL.len()],
            times: [Nanos::ZERO; Probe::ALL.len()],
        }
    }

    /// Charges one firing of `probe` that performed `helper_calls` helper
    /// invocations; returns the charged cost.
    #[inline]
    pub fn charge(&mut self, probe: Probe, helper_calls: u32) -> Nanos {
        let cost = self.base_cost
            + Nanos::from_nanos(self.helper_cost.as_nanos() * u64::from(helper_calls));
        let slot = probe as usize;
        self.counts[slot] += 1;
        self.times[slot] += cost;
        cost
    }

    /// Folds another model's accounting into this one (used to aggregate
    /// the three tracers' costs into one report).
    pub fn absorb(&mut self, other: &OverheadModel) {
        for i in 0..Probe::ALL.len() {
            self.counts[i] += other.counts[i];
            self.times[i] += other.times[i];
        }
    }

    /// Total accumulated probe runtime.
    pub fn total_time(&self) -> Nanos {
        self.times.iter().fold(Nanos::ZERO, |acc, t| acc + *t)
    }

    /// Total probe firings.
    pub fn total_firings(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Produces the summary report for a run of `wall_time` against an
    /// application load of `app_cpu_time`.
    pub fn report(&self, wall_time: Nanos, app_cpu_time: Nanos) -> OverheadReport {
        let total = self.total_time();
        let avg_cores = if wall_time > Nanos::ZERO {
            total.as_nanos() as f64 / wall_time.as_nanos() as f64
        } else {
            0.0
        };
        let frac_of_app = if app_cpu_time > Nanos::ZERO {
            total.as_nanos() as f64 / app_cpu_time.as_nanos() as f64
        } else {
            0.0
        };
        let per_probe: BTreeMap<Probe, (u64, Nanos)> = Probe::ALL
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.counts[i] > 0)
            .map(|(i, &p)| (p, (self.counts[i], self.times[i])))
            .collect();
        OverheadReport {
            per_probe,
            total_time: total,
            total_firings: self.total_firings(),
            avg_cores,
            frac_of_app_load: frac_of_app,
        }
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel::new()
    }
}

/// Aggregated probe-overhead statistics (what `bpftool` + arithmetic gave
/// the paper).
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Firing count and cumulative runtime per probe.
    pub per_probe: BTreeMap<Probe, (u64, Nanos)>,
    /// Total probe runtime.
    pub total_time: Nanos,
    /// Total firings across probes.
    pub total_firings: u64,
    /// Average CPU cores consumed by the probes (runtime / wall time).
    pub avg_cores: f64,
    /// Probe runtime as a fraction of the applications' CPU load.
    pub frac_of_app_load: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = OverheadModel {
            base_cost: Nanos::from_nanos(100),
            helper_cost: Nanos::from_nanos(10),
            ..OverheadModel::new()
        };
        assert_eq!(m.charge(Probe::P2, 2), Nanos::from_nanos(120));
        m.charge(Probe::P2, 2);
        m.charge(Probe::P16, 0);
        assert_eq!(m.total_firings(), 3);
        assert_eq!(m.total_time(), Nanos::from_nanos(120 + 120 + 100));
        assert_eq!(m.report(Nanos::from_secs(1), Nanos::from_secs(1)).per_probe[&Probe::P2].0, 2);
    }

    #[test]
    fn report_ratios() {
        let mut m = OverheadModel {
            base_cost: Nanos::from_micros(1),
            helper_cost: Nanos::ZERO,
            ..OverheadModel::new()
        };
        for _ in 0..1000 {
            m.charge(Probe::SchedSwitch, 0);
        }
        // 1 ms of probe time over 1 s wall time = 0.001 cores.
        let r = m.report(Nanos::from_secs(1), Nanos::from_millis(500));
        assert!((r.avg_cores - 0.001).abs() < 1e-9);
        // ... and 0.2% of a 500 ms application load.
        assert!((r.frac_of_app_load - 0.002).abs() < 1e-9);
    }

    #[test]
    fn probe_slots_match_discriminants() {
        // The flat accounting arrays index by `probe as usize`; this pins
        // the slot table to the enum's declaration order.
        for (i, &p) in Probe::ALL.iter().enumerate() {
            assert_eq!(p as usize, i, "slot of {p:?}");
        }
        for spec in rtms_trace::PROBE_CATALOG {
            assert_eq!(Probe::ALL[spec.probe as usize], spec.probe);
        }
    }

    #[test]
    fn empty_model_reports_zero() {
        let m = OverheadModel::new();
        let r = m.report(Nanos::from_secs(1), Nanos::from_secs(1));
        assert_eq!(r.total_firings, 0);
        assert_eq!(r.avg_cores, 0.0);
    }
}
