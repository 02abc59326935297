//! Mobile-side energy model.
//!
//! Battery, not just latency, decides offloading policy on mobile
//! devices (a standard extension of the paper's framework). The mobile
//! device draws `compute_watts` while running DNN layers, `tx_watts`
//! while the radio transmits, and `idle_watts` otherwise — so a cut
//! trades compute energy against radio energy exactly as it trades
//! `f` against `g` in time.
//!
//! Units: power in watts, durations in ms, energy in millijoules
//! (`1 W × 1 ms = 1 mJ`).

/// Mobile device power states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Power while the CPU executes DNN layers, W.
    pub compute_watts: f64,
    /// Power while the radio uploads, W (on top of idle).
    pub tx_watts: f64,
    /// Baseline power while waiting, W.
    pub idle_watts: f64,
}

impl EnergyModel {
    /// Create a model; all powers must be non-negative and active
    /// powers at least the idle power.
    pub fn new(compute_watts: f64, tx_watts: f64, idle_watts: f64) -> Self {
        assert!(idle_watts >= 0.0, "idle power cannot be negative");
        assert!(
            compute_watts >= idle_watts,
            "compute power below idle makes no sense"
        );
        assert!(tx_watts >= idle_watts, "tx power below idle makes no sense");
        EnergyModel {
            compute_watts,
            tx_watts,
            idle_watts,
        }
    }

    /// Raspberry Pi 4 over Wi-Fi: ~6.4 W under full CPU load, ~3.8 W
    /// transmitting, ~2.7 W idle (published bench measurements).
    pub fn raspberry_pi4_wifi() -> Self {
        EnergyModel::new(6.4, 3.8, 2.7)
    }

    /// Total device energy over a batch: active compute + active tx +
    /// idle for the remainder of the makespan. `busy_compute_ms` and
    /// `busy_tx_ms` may overlap (CPU computes while radio transmits),
    /// which is why they are billed as increments over idle.
    pub fn batch_mj(&self, busy_compute_ms: f64, busy_tx_ms: f64, makespan_ms: f64) -> f64 {
        assert!(busy_compute_ms <= makespan_ms + 1e-9);
        assert!(busy_tx_ms <= makespan_ms + 1e-9);
        self.idle_watts * makespan_ms
            + (self.compute_watts - self.idle_watts) * busy_compute_ms
            + (self.tx_watts - self.idle_watts) * busy_tx_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_energy_includes_idle() {
        let e = EnergyModel::new(5.0, 3.0, 1.0);
        // 100 ms makespan, 40 ms computing, 30 ms transmitting.
        let mj = e.batch_mj(40.0, 30.0, 100.0);
        assert!((mj - (100.0 + 4.0 * 40.0 + 2.0 * 30.0)).abs() < 1e-12);
    }

    #[test]
    fn offloading_saves_energy_when_radio_is_cheap() {
        let e = EnergyModel::raspberry_pi4_wifi();
        // 700 ms of local compute vs 100 ms compute + 80 ms upload.
        let active_mj = |f_ms: f64, g_ms: f64| e.compute_watts * f_ms + e.tx_watts * g_ms;
        let local = active_mj(700.0, 0.0);
        let offload = active_mj(100.0, 80.0);
        assert!(offload < local);
    }

    #[test]
    #[should_panic(expected = "below idle")]
    fn implausible_powers_rejected() {
        EnergyModel::new(1.0, 3.0, 2.0);
    }
}
