//! Model parameters (the paper's Table 1).

use serde::{Deserialize, Serialize};

use crate::Hours;

/// The failure-rate and geometry assumptions behind every availability
/// number in the paper.
///
/// Defaults are exactly Table 1:
///
/// | parameter | value |
/// |---|---|
/// | disk MTTF (raw) | 1,000,000 h |
/// | support-hardware MTTDL | 2,000,000 h |
/// | failure-prediction coverage C | 0.5 |
/// | mean time to repair | 48 h |
/// | stripe unit size | 8 KB |
/// | disk size | 2 GB |
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ModelParams {
    /// Published ("raw") disk mean time to failure, hours.
    pub mttf_disk_raw: Hours,
    /// Mean time to data loss from all non-disk support hardware, hours.
    pub mttdl_support: Hours,
    /// Failure-prediction coverage `C`: the fraction of disk failures
    /// predicted far enough ahead to drain and replace the disk without
    /// data loss.
    pub coverage: f64,
    /// Mean time to repair/replace a failed disk, hours.
    pub mttr_disk: Hours,
    /// Stripe unit ("stripe depth") in bytes.
    pub stripe_unit: u64,
    /// Capacity of one disk, bytes.
    pub disk_bytes: u64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            mttf_disk_raw: 1.0e6,
            mttdl_support: 2.0e6,
            coverage: 0.5,
            mttr_disk: 48.0,
            stripe_unit: 8 * 1024,
            disk_bytes: 2 * 1000 * 1000 * 1000,
        }
    }
}

impl ModelParams {
    /// Effective disk MTTF once failure prediction is credited:
    /// `MTTFdisk = MTTFdisk-raw / (1 - C)` — only *unexpected* failures
    /// can lose data, so predicting half of them doubles the effective
    /// MTTF.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not in `[0, 1)`.
    pub fn mttf_disk(&self) -> Hours {
        assert!(
            (0.0..1.0).contains(&self.coverage),
            "coverage must be in [0,1): {}",
            self.coverage
        );
        self.mttf_disk_raw / (1.0 - self.coverage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let p = ModelParams::default();
        assert_eq!(p.mttf_disk_raw, 1.0e6);
        assert_eq!(p.mttdl_support, 2.0e6);
        assert_eq!(p.coverage, 0.5);
        assert_eq!(p.mttr_disk, 48.0);
        assert_eq!(p.stripe_unit, 8 * 1024);
        assert_eq!(p.disk_bytes, 2_000_000_000);
    }

    #[test]
    fn coverage_doubles_effective_mttf() {
        let p = ModelParams::default();
        assert_eq!(p.mttf_disk(), 2.0e6);
    }

    #[test]
    fn zero_coverage_is_identity() {
        let p = ModelParams {
            coverage: 0.0,
            ..ModelParams::default()
        };
        assert_eq!(p.mttf_disk(), p.mttf_disk_raw);
    }

    #[test]
    #[should_panic(expected = "coverage must be in")]
    fn full_coverage_rejected() {
        let p = ModelParams {
            coverage: 1.0,
            ..ModelParams::default()
        };
        let _ = p.mttf_disk();
    }
}
