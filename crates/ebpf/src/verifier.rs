//! The load-time program verifier.
//!
//! Models the checks the kernel applies before an eBPF program may attach:
//! instruction-count limit, helper whitelist per attachment type, declared
//! map access, and attachment consistency. Programs in this workspace are
//! Rust closures rather than bytecode, but every tracer registers a
//! [`ProgramSpec`] for each of its probes and refuses to start if the
//! verifier rejects any — keeping the safety story of the paper's Sec. II-B
//! visible in the reproduction.

use crate::program::{Helper, ProgramSpec};
use rtms_trace::{Probe, ProbeAttachment};
use std::fmt;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program exceeds the instruction limit.
    TooManyInstructions {
        /// The probe whose program was rejected.
        probe: Probe,
        /// Declared instruction count.
        instructions: u32,
        /// The verifier's limit.
        limit: u32,
    },
    /// A helper is not allowed for this attachment type.
    ForbiddenHelper {
        /// The probe whose program was rejected.
        probe: Probe,
        /// The offending helper.
        helper: Helper,
    },
    /// The attach point contradicts the probe catalog (e.g. a uretprobe
    /// program declared for function entry).
    InconsistentAttachment {
        /// The probe whose program was rejected.
        probe: Probe,
    },
    /// The program accesses a map it did not declare.
    UndeclaredMap {
        /// The probe whose program was rejected.
        probe: Probe,
        /// The undeclared map name.
        map: &'static str,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::TooManyInstructions { probe, instructions, limit } => write!(
                f,
                "program for {probe} has {instructions} instructions, limit is {limit}"
            ),
            VerifyError::ForbiddenHelper { probe, helper } => {
                write!(f, "program for {probe} calls forbidden helper {helper}")
            }
            VerifyError::InconsistentAttachment { probe } => {
                write!(f, "program for {probe} declares an inconsistent attach point")
            }
            VerifyError::UndeclaredMap { probe, map } => {
                write!(f, "program for {probe} accesses undeclared map {map}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The static verifier.
///
/// # Example
///
/// ```
/// use rtms_ebpf::{AttachPoint, Helper, ProgramSpec, Verifier};
/// use rtms_trace::Probe;
///
/// let verifier = Verifier::default();
/// let ok = ProgramSpec::new(Probe::P2, AttachPoint::Entry, 64)
///     .with_helpers([Helper::KtimeGetNs, Helper::PerfEventOutput]);
/// verifier.verify(&ok)?;
///
/// let too_big = ProgramSpec::new(Probe::P2, AttachPoint::Entry, 1_000_000);
/// assert!(verifier.verify(&too_big).is_err());
/// # Ok::<(), rtms_ebpf::VerifyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    instruction_limit: u32,
}

impl Verifier {
    /// Creates a verifier with the classic 4096-instruction limit
    /// (the limit that applies to unprivileged programs; BCC 0.26 targets
    /// kernels where this is the safe default).
    pub fn new() -> Self {
        Verifier { instruction_limit: 4096 }
    }

    /// Checks one program.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`VerifyError`].
    pub fn verify(&self, spec: &ProgramSpec) -> Result<(), VerifyError> {
        if spec.instructions > self.instruction_limit {
            return Err(VerifyError::TooManyInstructions {
                probe: spec.probe,
                instructions: spec.instructions,
                limit: self.instruction_limit,
            });
        }
        if !spec.attachment_consistent() {
            return Err(VerifyError::InconsistentAttachment { probe: spec.probe });
        }
        let is_tracepoint = spec.probe.spec().attachment == ProbeAttachment::Tracepoint;
        for &helper in &spec.helpers {
            let allowed = match helper {
                // User-memory traversal from a kernel tracepoint context is
                // not meaningful; kernel reads from a uprobe likewise.
                Helper::ProbeReadUser => !is_tracepoint,
                Helper::ProbeReadKernel => is_tracepoint,
                _ => true,
            };
            if !allowed {
                return Err(VerifyError::ForbiddenHelper { probe: spec.probe, helper });
            }
        }
        let uses_map_helpers = spec
            .helpers
            .iter()
            .any(|h| matches!(h, Helper::MapLookup | Helper::MapUpdate | Helper::MapDelete));
        if uses_map_helpers && spec.maps.is_empty() {
            return Err(VerifyError::UndeclaredMap { probe: spec.probe, map: "<any>" });
        }
        Ok(())
    }

    /// Checks a whole program set, returning all errors.
    ///
    /// # Errors
    ///
    /// Returns every violated constraint across `specs`.
    pub fn verify_all(&self, specs: &[ProgramSpec]) -> Result<(), Vec<VerifyError>> {
        let errors: Vec<VerifyError> =
            specs.iter().filter_map(|s| self.verify(s).err()).collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::call::AttachPoint;

    #[test]
    fn accepts_reasonable_program() {
        let v = Verifier::default();
        let spec = ProgramSpec::new(Probe::P6, AttachPoint::Exit, 700)
            .with_helpers([
                Helper::GetCurrentPidTgid,
                Helper::MapLookup,
                Helper::MapDelete,
                Helper::ProbeReadUser,
                Helper::PerfEventOutput,
            ])
            .with_maps(["inflight_take"]);
        assert_eq!(v.verify(&spec), Ok(()));
    }

    #[test]
    fn rejects_oversized_program() {
        let v = Verifier::default();
        let spec = ProgramSpec::new(Probe::P2, AttachPoint::Entry, 10_000);
        assert!(matches!(v.verify(&spec), Err(VerifyError::TooManyInstructions { .. })));
        // A raised limit accepts it.
        let lax = Verifier { instruction_limit: 1_000_000 };
        assert_eq!(lax.verify(&spec), Ok(()));
    }

    #[test]
    fn rejects_kernel_read_from_uprobe() {
        let v = Verifier::default();
        let spec = ProgramSpec::new(Probe::P2, AttachPoint::Entry, 10)
            .with_helpers([Helper::ProbeReadKernel]);
        assert!(matches!(v.verify(&spec), Err(VerifyError::ForbiddenHelper { .. })));
    }

    #[test]
    fn rejects_user_read_from_tracepoint() {
        let v = Verifier::default();
        let spec = ProgramSpec::new(Probe::SchedSwitch, AttachPoint::Entry, 10)
            .with_helpers([Helper::ProbeReadUser]);
        assert!(matches!(v.verify(&spec), Err(VerifyError::ForbiddenHelper { .. })));
    }

    #[test]
    fn rejects_wrong_attach_point() {
        let v = Verifier::default();
        let spec = ProgramSpec::new(Probe::P4, AttachPoint::Entry, 10);
        assert!(matches!(v.verify(&spec), Err(VerifyError::InconsistentAttachment { .. })));
    }

    #[test]
    fn rejects_undeclared_map_use() {
        let v = Verifier::default();
        let spec =
            ProgramSpec::new(Probe::P6, AttachPoint::Exit, 10).with_helpers([Helper::MapLookup]);
        assert!(matches!(v.verify(&spec), Err(VerifyError::UndeclaredMap { .. })));
    }

    #[test]
    fn verify_all_collects_errors() {
        let v = Verifier::default();
        let good = ProgramSpec::new(Probe::P2, AttachPoint::Entry, 10);
        let bad1 = ProgramSpec::new(Probe::P4, AttachPoint::Entry, 10);
        let bad2 = ProgramSpec::new(Probe::P5, AttachPoint::Entry, 100_000);
        let errs = v.verify_all(&[good, bad1, bad2]).expect_err("two bad programs");
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn error_display() {
        let e = VerifyError::TooManyInstructions { probe: Probe::P2, instructions: 9, limit: 4 };
        assert!(e.to_string().contains("P2"));
    }
}
