//! Flow-shop jobs.

/// A job with a mobile computation stage, a communication stage and an
/// optional cloud computation stage, all in milliseconds.
///
/// In the paper's mapping: `compute_ms = f(P_j)`, `comm_ms = g(P_j)`,
/// and `cloud_ms` is the (usually negligible) remote remainder. The
/// communication stage cannot start before the computation stage
/// completes; each stage occupies its machine exclusively (§3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowJob {
    /// Stable job identifier (index into the caller's job list).
    pub id: usize,
    /// Stage-1 duration: mobile computation `f`.
    pub compute_ms: f64,
    /// Stage-2 duration: uplink communication `g`.
    pub comm_ms: f64,
    /// Stage-3 duration: cloud computation (0 under the paper's
    /// negligible-cloud assumption).
    pub cloud_ms: f64,
}

impl FlowJob {
    /// A two-stage job (cloud stage zero).
    pub fn two_stage(id: usize, compute_ms: f64, comm_ms: f64) -> Self {
        FlowJob {
            id,
            compute_ms,
            comm_ms,
            cloud_ms: 0.0,
        }
    }

    /// A three-stage job.
    pub fn three_stage(id: usize, compute_ms: f64, comm_ms: f64, cloud_ms: f64) -> Self {
        FlowJob {
            id,
            compute_ms,
            comm_ms,
            cloud_ms,
        }
    }

    /// True when all stage durations are finite and non-negative.
    pub(crate) fn is_valid(&self) -> bool {
        [self.compute_ms, self.comm_ms, self.cloud_ms]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
    }

    /// Communication-heavy per the paper's Alg. 1 line 2:
    /// `f(P_j) < g(P_j)`.
    pub(crate) fn is_comm_heavy(&self) -> bool {
        self.compute_ms < self.comm_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let j = FlowJob::two_stage(3, 4.0, 6.0);
        assert_eq!(j.id, 3);
        assert_eq!(j.cloud_ms, 0.0);
        assert!(j.is_comm_heavy());
        let j2 = FlowJob::three_stage(0, 7.0, 2.0, 1.0);
        assert!(!j2.is_comm_heavy());
        assert!(j2.is_valid());
    }

    #[test]
    fn validity() {
        assert!(!FlowJob::two_stage(0, f64::NAN, 1.0).is_valid());
        assert!(!FlowJob::two_stage(0, -1.0, 1.0).is_valid());
        assert!(FlowJob::two_stage(0, 0.0, 0.0).is_valid());
    }

    #[test]
    fn boundary_equal_stages_is_compute_heavy() {
        // Paper: S2 takes f >= g, so equality is computation-heavy.
        assert!(!FlowJob::two_stage(0, 5.0, 5.0).is_comm_heavy());
    }
}
