//! Ordinary least squares in one variable: `y = w0 + w1·x`.
//!
//! The paper's scheduler estimates communication delay with "a simple
//! linear regression model … t = w0 + w1·r" trained on measured
//! request round-trips (§6.1). This module is that estimator.

/// A fitted simple linear regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegression {
    /// Intercept `w0` (the paper's channel-setup latency).
    pub w0: f64,
    /// Slope `w1`.
    pub w1: f64,
}

impl LinearRegression {
    /// Fit by ordinary least squares. Returns `None` for fewer than two
    /// points or a degenerate (constant-x) design.
    ///
    /// Uses the centred formulation `w1 = Σ(x−x̄)(y−ȳ) / Σ(x−x̄)²`
    /// rather than the textbook raw-moment form `(nΣxy − ΣxΣy) /
    /// (nΣx² − (Σx)²)`: with the samples an online estimator produces —
    /// x values clustered in a narrow band far from zero — the raw
    /// moments agree to most of their significant digits and their
    /// difference is almost pure cancellation noise, which turns the
    /// fitted slope into garbage. Centring first keeps every term on
    /// the scale of the actual spread.
    pub fn fit(points: &[(f64, f64)]) -> Option<Self> {
        if points.len() < 2 {
            return None;
        }
        let n = points.len() as f64;
        let mean_x: f64 = points.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y: f64 = points.iter().map(|p| p.1).sum::<f64>() / n;
        let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
        let sxy: f64 = points
            .iter()
            .map(|p| (p.0 - mean_x) * (p.1 - mean_y))
            .sum();
        // Degenerate when the spread is at rounding scale relative to
        // the magnitude of x itself (constant or near-constant design).
        if sxx <= f64::EPSILON * n * (mean_x * mean_x).max(1.0) {
            return None;
        }
        let w1 = sxy / sxx;
        let w0 = mean_y - w1 * mean_x;
        Some(LinearRegression { w0, w1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 + 2.5 * i as f64)).collect();
        let r = LinearRegression::fit(&pts).unwrap();
        assert!((r.w0 - 3.0).abs() < 1e-9);
        assert!((r.w1 - 2.5).abs() < 1e-9);
    }

    #[test]
    fn degenerate_designs_rejected() {
        assert!(LinearRegression::fit(&[]).is_none());
        assert!(LinearRegression::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearRegression::fit(&[(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)]).is_none());
    }

    #[test]
    fn least_squares_beats_any_other_line_on_sse() {
        let pts = [
            (0.0, 1.1),
            (1.0, 2.9),
            (2.0, 5.2),
            (3.0, 6.8),
            (4.0, 9.1),
        ];
        let fitted = LinearRegression::fit(&pts).unwrap();
        let sse = |r: &LinearRegression| -> f64 {
            pts.iter()
                .map(|p| (p.1 - (r.w0 + r.w1 * p.0)).powi(2))
                .sum()
        };
        let best = sse(&fitted);
        for dw0 in [-0.2, -0.05, 0.05, 0.2] {
            for dw1 in [-0.2, -0.05, 0.05, 0.2] {
                let other = LinearRegression {
                    w0: fitted.w0 + dw0,
                    w1: fitted.w1 + dw1,
                };
                assert!(sse(&other) >= best - 1e-12);
            }
        }
    }

    #[test]
    fn clustered_offset_samples_stay_well_conditioned() {
        // The shape an online estimator feeds the fit: x is a
        // transfer-time ratio clustered in a narrow band around a large
        // offset (steady bandwidth ⇒ near-constant ratio). The
        // raw-moment formula loses ~12 significant digits to
        // cancellation here (nΣx² and (Σx)² agree to ~1e-7 relative);
        // the centred form recovers the line to full precision.
        let (w0, w1) = (40.0, 1.07);
        let pts: Vec<(f64, f64)> = (0..64)
            .map(|i| {
                let x = 5.0e6 + (i as f64) * 1.0e-2; // offset 5e6, spread 0.63
                (x, w0 + w1 * x)
            })
            .collect();
        let r = LinearRegression::fit(&pts).expect("well-posed design");
        assert!(
            (r.w1 - w1).abs() < 1e-6,
            "slope {} drifted from {w1} under clustered/offset x",
            r.w1
        );
        // The intercept extrapolates 5e6 units back to x=0, so the
        // tolerance scales with offset·slope_error; what matters is the
        // prediction inside the sampled band is exact.
        for p in &pts {
            assert!((r.w0 + r.w1 * p.0 - p.1).abs() < 1e-6);
        }
        // Spread at true rounding scale is still rejected, not fit.
        let flat: Vec<(f64, f64)> = (0..8).map(|_| (5.0e6, 1.0)).collect();
        assert!(LinearRegression::fit(&flat).is_none());
    }
}
