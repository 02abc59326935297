//! Uplink communication model.
//!
//! The paper models communication time as `t = w0 + w1 · r` where
//! `r = s/b` is the message-size/bandwidth ratio and `w0` is the channel
//! setup latency (§6.1). With `w1 ≈ 1` that is exactly
//! `setup + bytes/bandwidth`; [`NetworkModel`] implements it directly
//! and [`crate::regression`] recovers `w0, w1` from noisy measurements
//! the way the paper's profiler does.

/// Uplink model: fixed setup latency plus bandwidth-limited transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Uplink bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Per-transfer channel setup latency `w0`, in milliseconds.
    pub setup_ms: f64,
}

impl NetworkModel {
    /// Create a network model.
    pub fn new(bandwidth_mbps: f64, setup_ms: f64) -> Self {
        assert!(bandwidth_mbps > 0.0, "bandwidth must be positive");
        assert!(setup_ms >= 0.0, "setup latency cannot be negative");
        NetworkModel {
            bandwidth_mbps,
            setup_ms,
        }
    }

    /// 3G at 1.1 Mbps — the paper's value (from Hu et al. (DADS, INFOCOM'19)).
    pub fn three_g() -> Self {
        NetworkModel::new(1.1, 80.0)
    }

    /// 4G/LTE at 5.85 Mbps — the paper's value.
    pub fn four_g() -> Self {
        NetworkModel::new(5.85, 40.0)
    }

    /// Wi-Fi at 18.88 Mbps — the paper's value.
    pub fn wifi() -> Self {
        NetworkModel::new(18.88, 10.0)
    }

    /// Time in milliseconds to upload `bytes`. Zero bytes means no
    /// transfer at all (local-only jobs never open a channel).
    #[inline]
    pub fn upload_ms(&self, bytes: usize) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.setup_ms + bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e3)
    }

    /// The regression feature `r = s/b` of the paper, in ms units
    /// (`bits / (Mbps·1e3)`).
    #[inline]
    pub fn ratio(&self, bytes: usize) -> f64 {
        bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_presets() {
        assert_eq!(NetworkModel::three_g().bandwidth_mbps, 1.1);
        assert_eq!(NetworkModel::four_g().bandwidth_mbps, 5.85);
        assert_eq!(NetworkModel::wifi().bandwidth_mbps, 18.88);
    }

    #[test]
    fn upload_time_formula() {
        let n = NetworkModel::new(8.0, 5.0); // 8 Mbps -> 1 KB/ms payload
        // 1 MB = 8e6 bits over 8e3 bits/ms = 1000 ms + 5 setup.
        assert!((n.upload_ms(1_000_000) - 1005.0).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(NetworkModel::wifi().upload_ms(0), 0.0);
    }

    #[test]
    fn paper_co_at_3g_exceeds_4_seconds() {
        // The paper: "it costs more than 4,000 ms to upload the input
        // tensor" on 3G for all DNNs. The 224² RGB f32 tensor:
        let input_bytes = 3 * 224 * 224 * 4;
        assert!(NetworkModel::three_g().upload_ms(input_bytes) > 4000.0);
    }

    #[test]
    fn monotone_in_bytes_and_bandwidth() {
        let n = NetworkModel::wifi();
        assert!(n.upload_ms(2000) > n.upload_ms(1000));
        let fast = NetworkModel::new(40.0, 10.0);
        assert!(fast.upload_ms(1_000_000) < n.upload_ms(1_000_000));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        NetworkModel::new(0.0, 0.0);
    }
}
