//! JSON round-trips for every persisted monitoring type: `Alert` (each
//! kind), `ModelDiff`, and `Baseline`.

use rtms_core::{ModelDiff, SynthesisSession, TopologyEdge};
use rtms_monitor::{Alert, AlertKind, Baseline, Severity};
use rtms_ros2::WorldBuilder;
use rtms_trace::Nanos;
use rtms_workloads::syn_app;

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::Deserialize,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

fn sample_diff() -> ModelDiff {
    ModelDiff {
        added_vertices: vec!["n1|timer|".to_string()],
        missing_vertices: vec!["n1|timer|/t".to_string(), "n2|subscriber|/t".to_string()],
        added_edges: Vec::new(),
        missing_edges: vec![TopologyEdge {
            from: "n1|timer|/t".to_string(),
            to: "n2|subscriber|/t".to_string(),
            topic: "/t".to_string(),
        }],
    }
}

#[test]
fn model_diff_round_trips() {
    let diff = sample_diff();
    assert_eq!(roundtrip(&diff), diff);
    assert!(!diff.is_empty());
    assert_eq!(diff.len(), 4);
    let empty = ModelDiff::default();
    assert_eq!(roundtrip(&empty), empty);
}

#[test]
fn every_alert_kind_round_trips() {
    let kinds = [
        AlertKind::ExecDrift {
            key: "n1|timer|/t".to_string(),
            observed_macet: Nanos::from_millis(5),
            baseline_macet: Nanos::from_millis(1),
            bound: Nanos::from_millis_f64(2.2),
        },
        AlertKind::PeriodDrift {
            key: "n1|timer|/t".to_string(),
            observed_period: Nanos::from_millis(200),
            baseline_period: Nanos::from_millis(100),
            bound: Nanos::from_millis(155),
        },
        AlertKind::TopologyChange { diff: sample_diff() },
        AlertKind::LoadSpike { node: "n3".to_string(), load: 0.91, threshold: 0.85 },
    ];
    for (i, kind) in kinds.into_iter().enumerate() {
        for severity in [Severity::Info, Severity::Warning, Severity::Critical] {
            let alert = Alert { segment: i as u64, severity, kind: kind.clone() };
            assert_eq!(roundtrip(&alert), alert);
            // The stream form is one JSON object per alert.
            assert!(alert.to_json().starts_with('{'), "{}", alert.to_json());
        }
    }
}

#[test]
fn baseline_round_trips_from_real_synthesis() {
    let mut world = WorldBuilder::new(2).seed(1).app(syn_app(1.0)).build().expect("SYN app");
    let mut session = SynthesisSession::new();
    session.feed_segment(&world.trace_run(Nanos::from_secs(2)));
    let baseline = Baseline::from_dag(&session.model());
    assert!(!baseline.is_empty(), "SYN baseline captures envelopes");
    let back = roundtrip(&baseline);
    assert_eq!(back, baseline);
    assert_eq!(back.fingerprint, baseline.topology.fingerprint());
}
