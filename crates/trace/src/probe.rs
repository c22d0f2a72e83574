//! The probe catalog of Table I.
//!
//! The paper attaches sixteen eBPF probes (uprobes, uretprobes, and one
//! kernel tracepoint) to functions across the ROS2 Foxy stack. [`Probe`]
//! enumerates them, and [`PROBE_CATALOG`] records, for each, the library it
//! lives in, the probed function symbol, the attachment point, and the
//! information the probe extracts — i.e. the full content of Table I plus
//! the `sched_switch` tracepoint of Sec. III-B.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One of the paper's probes (P1–P16) or the kernel `sched_switch`
/// tracepoint.
///
/// # Example
///
/// ```
/// use rtms_trace::Probe;
///
/// assert_eq!(Probe::P6.spec().function, "rmw_take_int");
/// assert_eq!(Probe::P6.spec().library, "rmw_cyclonedds_cpp");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the paper's probe numbers
pub enum Probe {
    P1,
    P2,
    P3,
    P4,
    P5,
    P6,
    P7,
    P8,
    P9,
    P10,
    P11,
    P12,
    P13,
    P14,
    P15,
    P16,
    /// The `sched_switch` kernel tracepoint used by the kernel tracer.
    SchedSwitch,
    /// The `sched_wakeup` kernel tracepoint (future-work extension of
    /// Sec. VII, used to measure callback waiting times).
    SchedWakeup,
    // When adding a variant, extend `Probe::ALL` below in the same order —
    // flat per-probe accounting arrays index by discriminant.
}

impl Probe {
    /// Every probe, in declaration order: `Probe::ALL[p as usize] == p`
    /// (pinned by a test). Lets per-probe accounting use flat arrays of
    /// `Probe::ALL.len()` slots indexed by discriminant instead of maps.
    pub const ALL: [Probe; 18] = [
        Probe::P1,
        Probe::P2,
        Probe::P3,
        Probe::P4,
        Probe::P5,
        Probe::P6,
        Probe::P7,
        Probe::P8,
        Probe::P9,
        Probe::P10,
        Probe::P11,
        Probe::P12,
        Probe::P13,
        Probe::P14,
        Probe::P15,
        Probe::P16,
        Probe::SchedSwitch,
        Probe::SchedWakeup,
    ];
}

/// How a probe is attached to its target function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProbeAttachment {
    /// User-space probe at function entry.
    Uprobe,
    /// User-space probe at function exit (reads return values).
    Uretprobe,
    /// Kernel static tracepoint.
    Tracepoint,
}

impl fmt::Display for ProbeAttachment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeAttachment::Uprobe => write!(f, "uprobe"),
            ProbeAttachment::Uretprobe => write!(f, "uretprobe"),
            ProbeAttachment::Tracepoint => write!(f, "tracepoint"),
        }
    }
}

/// Static description of one probe: a row of Table I.
///
/// Serializable (for reports) but not deserializable: the catalog is static
/// data borrowed for `'static`, never parsed back in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ProbeSpec {
    /// The probe number.
    pub probe: Probe,
    /// The ROS2 (or kernel) component the probed symbol belongs to.
    pub library: &'static str,
    /// The probed function symbol.
    pub function: &'static str,
    /// Attachment point.
    pub attachment: ProbeAttachment,
    /// What the probe extracts (the "Params/Purpose" column of Table I).
    pub purpose: &'static str,
}

/// The full probe catalog: P1–P16 exactly as in Table I, plus the two
/// scheduler tracepoints of Secs. III-B and VII.
pub const PROBE_CATALOG: &[ProbeSpec] = &[
    ProbeSpec {
        probe: Probe::P1,
        library: "rmw_cyclonedds_cpp",
        function: "rmw_create_node",
        attachment: ProbeAttachment::Uprobe,
        purpose: "node name and the PID of the thread that will execute the node's callbacks",
    },
    ProbeSpec {
        probe: Probe::P2,
        library: "rclcpp",
        function: "execute_timer",
        attachment: ProbeAttachment::Uprobe,
        purpose: "notifies timer CB starts",
    },
    ProbeSpec {
        probe: Probe::P3,
        library: "rcl",
        function: "rcl_timer_call",
        attachment: ProbeAttachment::Uprobe,
        purpose: "shows timer CB ID",
    },
    ProbeSpec {
        probe: Probe::P4,
        library: "rclcpp",
        function: "execute_timer",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "notifies timer CB ends",
    },
    ProbeSpec {
        probe: Probe::P5,
        library: "rclcpp",
        function: "execute_subscription",
        attachment: ProbeAttachment::Uprobe,
        purpose: "notifies subscriber CB starts",
    },
    ProbeSpec {
        probe: Probe::P6,
        library: "rmw_cyclonedds_cpp",
        function: "rmw_take_int",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "read event on a topic: subscriber CB ID, topic name, source timestamp",
    },
    ProbeSpec {
        probe: Probe::P7,
        library: "message_filters",
        function: "operator()",
        attachment: ProbeAttachment::Uprobe,
        purpose: "shows that a subscriber CB is used for data synchronization",
    },
    ProbeSpec {
        probe: Probe::P8,
        library: "rclcpp",
        function: "execute_subscription",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "notifies subscriber CB ends",
    },
    ProbeSpec {
        probe: Probe::P9,
        library: "rclcpp",
        function: "execute_service",
        attachment: ProbeAttachment::Uprobe,
        purpose: "notifies service CB starts",
    },
    ProbeSpec {
        probe: Probe::P10,
        library: "rmw_cyclonedds_cpp",
        function: "rmw_take_request",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "service request received: service CB ID, service name, source timestamp",
    },
    ProbeSpec {
        probe: Probe::P11,
        library: "rclcpp",
        function: "execute_service",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "notifies service CB ends",
    },
    ProbeSpec {
        probe: Probe::P12,
        library: "rclcpp",
        function: "execute_client",
        attachment: ProbeAttachment::Uprobe,
        purpose: "notifies client CB starts",
    },
    ProbeSpec {
        probe: Probe::P13,
        library: "rmw_cyclonedds_cpp",
        function: "rmw_take_response",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "service response received: client CB ID, service name, source timestamp",
    },
    ProbeSpec {
        probe: Probe::P14,
        library: "rclcpp",
        function: "take_type_erased_response",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "notifies if a client CB will be dispatched (return value)",
    },
    ProbeSpec {
        probe: Probe::P15,
        library: "rclcpp",
        function: "execute_client",
        attachment: ProbeAttachment::Uretprobe,
        purpose: "notifies client CB ends",
    },
    ProbeSpec {
        probe: Probe::P16,
        library: "cyclonedds",
        function: "dds_write_impl",
        attachment: ProbeAttachment::Uprobe,
        purpose: "write event on a topic: topic name, source timestamp of data/request/response",
    },
    ProbeSpec {
        probe: Probe::SchedSwitch,
        library: "kernel",
        function: "sched_switch",
        attachment: ProbeAttachment::Tracepoint,
        purpose: "CPU, prev/next PID and priority, prev thread state at a context switch",
    },
    ProbeSpec {
        probe: Probe::SchedWakeup,
        library: "kernel",
        function: "sched_wakeup",
        attachment: ProbeAttachment::Tracepoint,
        purpose: "thread made runnable; enables waiting-time measurement (Sec. VII)",
    },
];

impl Probe {
    /// Looks up this probe's row in [`PROBE_CATALOG`].
    pub fn spec(self) -> &'static ProbeSpec {
        PROBE_CATALOG
            .iter()
            .find(|s| s.probe == self)
            .expect("every probe has a catalog entry")
    }

    /// Whether this probe marks the start of a callback instance
    /// (P2/P5/P9/P12 in Algorithm 1, line 3).
    pub fn is_callback_start(self) -> bool {
        matches!(self, Probe::P2 | Probe::P5 | Probe::P9 | Probe::P12)
    }

    /// Whether this probe marks the end of a callback instance
    /// (P4/P8/P11/P15 in Algorithm 1, line 28).
    pub fn is_callback_end(self) -> bool {
        matches!(self, Probe::P4 | Probe::P8 | Probe::P11 | Probe::P15)
    }
}

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Probe::SchedSwitch => write!(f, "sched_switch"),
            Probe::SchedWakeup => write!(f, "sched_wakeup"),
            p => write!(f, "{p:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_sixteen_probes_plus_tracepoints() {
        assert_eq!(PROBE_CATALOG.len(), 18);
    }

    #[test]
    fn table_i_rows_match_the_paper() {
        assert_eq!(Probe::P1.spec().function, "rmw_create_node");
        assert_eq!(Probe::P3.spec().library, "rcl");
        assert_eq!(Probe::P7.spec().library, "message_filters");
        assert_eq!(Probe::P14.spec().function, "take_type_erased_response");
        assert_eq!(Probe::P16.spec().library, "cyclonedds");
        assert_eq!(Probe::P16.spec().function, "dds_write_impl");
    }

    #[test]
    fn entry_exit_pairing() {
        // execute_* probed at entry and exit: P2/P4, P5/P8, P9/P11, P12/P15.
        for (entry, exit) in [
            (Probe::P2, Probe::P4),
            (Probe::P5, Probe::P8),
            (Probe::P9, Probe::P11),
            (Probe::P12, Probe::P15),
        ] {
            assert_eq!(entry.spec().function, exit.spec().function);
            assert_eq!(entry.spec().attachment, ProbeAttachment::Uprobe);
            assert_eq!(exit.spec().attachment, ProbeAttachment::Uretprobe);
            assert!(entry.is_callback_start());
            assert!(exit.is_callback_end());
        }
    }

    #[test]
    fn take_probes_are_uretprobes() {
        // srcTS is an out-parameter: only readable at function exit.
        for p in [Probe::P6, Probe::P10, Probe::P13] {
            assert_eq!(p.spec().attachment, ProbeAttachment::Uretprobe);
        }
    }

    #[test]
    fn sched_probes_are_tracepoints() {
        assert_eq!(Probe::SchedSwitch.spec().attachment, ProbeAttachment::Tracepoint);
        assert_eq!(Probe::SchedWakeup.spec().attachment, ProbeAttachment::Tracepoint);
    }

    #[test]
    fn display_names() {
        assert_eq!(Probe::P6.to_string(), "P6");
        assert_eq!(Probe::SchedSwitch.to_string(), "sched_switch");
    }
}
