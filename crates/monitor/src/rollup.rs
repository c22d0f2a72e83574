//! Fleet-level alert deduplication: collapse identical causes across
//! tenants into ranked rollup entries.
//!
//! A fleet of a thousand robots running the same application image fails
//! the same way a thousand times: one saturated topic, one drifting
//! callback — reported once per tenant. The rollup groups alerts by
//! `(kind, cause)` (see [`crate::AlertKind::cause`]), counts tenants and
//! alerts per group, keeps the smallest `(tenant, alert)` pair as the
//! group's exemplar, and ranks groups by severity, blast radius, and
//! volume. Every step is add-order independent, so concurrently drained
//! shards produce byte-identical reports.

use crate::alert::{Alert, Severity};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Accumulates `(tenant, alert)` pairs into a deduplicated, ranked
/// [`AlertRollup`]. Feeding order never matters: groups live in a
/// [`BTreeMap`], the exemplar is the *minimum* pair under the stable
/// total order of [`Alert`], and the final ranking sorts on totals.
#[derive(Debug, Clone, Default)]
pub struct RollupBuilder {
    groups: BTreeMap<(String, String), Group>,
    total_alerts: u64,
}

#[derive(Debug, Clone)]
struct Group {
    severity: Severity,
    alerts: u64,
    tenants: BTreeSet<u64>,
    exemplar: (u64, Alert),
}

impl RollupBuilder {
    /// Creates an empty builder.
    pub fn new() -> RollupBuilder {
        RollupBuilder::default()
    }

    /// Feeds one alert observed on `tenant`.
    pub fn add(&mut self, tenant: u64, alert: &Alert) {
        self.total_alerts += 1;
        let key = (alert.kind.name().to_string(), alert.kind.cause());
        match self.groups.get_mut(&key) {
            Some(g) => {
                g.severity = g.severity.max(alert.severity);
                g.alerts += 1;
                g.tenants.insert(tenant);
                let candidate = (tenant, alert);
                if (candidate.0, candidate.1) < (g.exemplar.0, &g.exemplar.1) {
                    g.exemplar = (tenant, alert.clone());
                }
            }
            None => {
                self.groups.insert(
                    key,
                    Group {
                        severity: alert.severity,
                        alerts: 1,
                        tenants: BTreeSet::from([tenant]),
                        exemplar: (tenant, alert.clone()),
                    },
                );
            }
        }
    }

    /// Alerts fed so far.
    pub fn total_alerts(&self) -> u64 {
        self.total_alerts
    }

    /// Finalizes into the ranked report.
    pub fn build(self) -> AlertRollup {
        let distinct_causes = self.groups.len() as u64;
        let mut entries: Vec<RollupEntry> = self
            .groups
            .into_iter()
            .map(|((kind, cause), g)| RollupEntry {
                kind,
                cause,
                severity: g.severity,
                alerts: g.alerts,
                tenants: g.tenants.len() as u64,
                exemplar_tenant: g.exemplar.0,
                exemplar: g.exemplar.1,
            })
            .collect();
        // Rank: most urgent first, then widest blast radius, then volume;
        // the (kind, cause) key breaks remaining ties totally.
        entries.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| b.tenants.cmp(&a.tenants))
                .then_with(|| b.alerts.cmp(&a.alerts))
                .then_with(|| (&a.kind, &a.cause).cmp(&(&b.kind, &b.cause)))
        });
        AlertRollup { entries, total_alerts: self.total_alerts, distinct_causes }
    }
}

/// The deduplicated fleet alert report: one entry per distinct
/// `(kind, cause)` pair, ranked most-urgent/widest first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRollup {
    /// Ranked rollup entries.
    pub entries: Vec<RollupEntry>,
    /// Total alerts fed into the rollup.
    pub total_alerts: u64,
    /// Number of distinct `(kind, cause)` groups (equals
    /// `entries.len()`; kept explicit so a truncated report still
    /// carries the full count).
    pub distinct_causes: u64,
}

/// One deduplicated failure: everything the fleet observed about a
/// single `(kind, cause)` pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollupEntry {
    /// [`crate::AlertKind::name`] of the grouped alerts.
    pub kind: String,
    /// [`crate::AlertKind::cause`] of the grouped alerts.
    pub cause: String,
    /// Highest severity any tenant reached for this cause.
    pub severity: Severity,
    /// Total alerts in the group.
    pub alerts: u64,
    /// Distinct tenants that reported the cause (the blast radius).
    pub tenants: u64,
    /// Tenant of the exemplar alert.
    pub exemplar_tenant: u64,
    /// The smallest `(tenant, alert)` pair of the group under the stable
    /// [`Alert`] order — one concrete instance to look at.
    pub exemplar: Alert,
}

impl AlertRollup {
    /// Alerts per distinct cause — the fleet's redundancy factor. A
    /// ratio above 1 means deduplication collapsed repeated failures;
    /// 0.0 when no alerts were fed.
    pub fn dedup_ratio(&self) -> f64 {
        if self.distinct_causes == 0 {
            0.0
        } else {
            self.total_alerts as f64 / self.distinct_causes as f64
        }
    }

    /// Serializes the report as JSON. Byte-identical for any feed order
    /// of the same `(tenant, alert)` multiset.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("rollups always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertKind;

    fn drift(segment: u64, key: &str, observed_ms: u64) -> Alert {
        Alert {
            segment,
            severity: if observed_ms > 10 { Severity::Critical } else { Severity::Warning },
            kind: AlertKind::ExecDrift {
                key: key.to_string(),
                observed_macet: rtms_trace::Nanos::from_millis(observed_ms),
                baseline_macet: rtms_trace::Nanos::from_millis(1),
                bound: rtms_trace::Nanos::from_millis(3),
            },
        }
    }

    fn spike(segment: u64, node: &str, load: f64) -> Alert {
        Alert {
            segment,
            severity: Severity::Warning,
            kind: AlertKind::LoadSpike { node: node.to_string(), load, threshold: 0.85 },
        }
    }

    #[test]
    fn identical_causes_collapse_across_tenants() {
        let mut b = RollupBuilder::new();
        for tenant in 0..5u64 {
            b.add(tenant, &drift(2, "img|timer|/a", 20));
        }
        b.add(9, &spike(1, "img_node", 0.9));
        let r = b.build();
        assert_eq!(r.total_alerts, 6);
        assert_eq!(r.distinct_causes, 2);
        assert!((r.dedup_ratio() - 3.0).abs() < 1e-9);
        assert_eq!(r.entries.len(), 2);
        // Critical, 5-tenant drift ranks above the 1-tenant warning.
        assert_eq!(r.entries[0].kind, "exec_drift");
        assert_eq!(r.entries[0].tenants, 5);
        assert_eq!(r.entries[0].exemplar_tenant, 0, "smallest tenant is the exemplar");
        assert_eq!(r.entries[1].kind, "load_spike");
    }

    #[test]
    fn report_is_feed_order_independent() {
        let feed: Vec<(u64, Alert)> = vec![
            (3, drift(1, "k1", 20)),
            (1, drift(2, "k1", 5)),
            (2, spike(0, "n", 0.95)),
            (1, drift(1, "k2", 20)),
            (0, drift(1, "k1", 20)),
        ];
        let mut fwd = RollupBuilder::new();
        for (t, a) in &feed {
            fwd.add(*t, a);
        }
        let mut rev = RollupBuilder::new();
        for (t, a) in feed.iter().rev() {
            rev.add(*t, a);
        }
        assert_eq!(fwd.build().to_json(), rev.build().to_json());
    }

    #[test]
    fn severity_escalates_to_group_max() {
        let mut b = RollupBuilder::new();
        b.add(0, &drift(1, "k", 5)); // warning
        b.add(1, &drift(1, "k", 50)); // critical
        let r = b.build();
        assert_eq!(r.entries[0].severity, Severity::Critical);
        assert_eq!(r.entries[0].alerts, 2);
    }

    #[test]
    fn empty_rollup_is_well_defined() {
        let r = RollupBuilder::new().build();
        assert_eq!(r.total_alerts, 0);
        assert_eq!(r.dedup_ratio(), 0.0);
        assert!(r.entries.is_empty());
        let round: AlertRollup = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(round, r);
    }

    #[test]
    fn add_counts_every_alert() {
        let mut b = RollupBuilder::new();
        for alert in [drift(0, "k", 20), spike(0, "n", 0.9)] {
            b.add(4, &alert);
        }
        assert_eq!(b.total_alerts(), 2);
        assert_eq!(b.build().distinct_causes, 2);
    }
}
