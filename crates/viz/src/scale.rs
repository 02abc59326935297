//! Axis scales and tick generation.

/// A linear or log₁₀ mapping from data space to pixel space.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scale {
    min: f64,
    max: f64,
    px_lo: f64,
    px_hi: f64,
    log: bool,
}

impl Scale {
    /// Linear scale over `[min, max]` mapped to `[px_lo, px_hi]`.
    pub(crate) fn linear(min: f64, max: f64, px_lo: f64, px_hi: f64) -> Self {
        assert!(max > min, "degenerate domain {min}..{max}");
        Scale {
            min,
            max,
            px_lo,
            px_hi,
            log: false,
        }
    }

    /// Log₁₀ scale; requires strictly positive domain.
    pub(crate) fn log10(min: f64, max: f64, px_lo: f64, px_hi: f64) -> Self {
        assert!(min > 0.0 && max > min, "log domain must be positive, {min}..{max}");
        Scale {
            min,
            max,
            px_lo,
            px_hi,
            log: true,
        }
    }

    /// Map a data value to pixels (clamped to the domain).
    pub(crate) fn px(&self, v: f64) -> f64 {
        let v = v.clamp(self.min, self.max);
        let t = if self.log {
            (v.ln() - self.min.ln()) / (self.max.ln() - self.min.ln())
        } else {
            (v - self.min) / (self.max - self.min)
        };
        self.px_lo + t * (self.px_hi - self.px_lo)
    }

    /// Tick positions for this scale (powers of 10 when log).
    pub(crate) fn ticks(&self, target: usize) -> Vec<f64> {
        if self.log {
            let lo = self.min.log10().floor() as i32;
            let hi = self.max.log10().ceil() as i32;
            (lo..=hi)
                .map(|e| 10f64.powi(e))
                .filter(|&v| v >= self.min * 0.999 && v <= self.max * 1.001)
                .collect()
        } else {
            nice_ticks(self.min, self.max, target)
        }
    }
}

/// "Nice" tick positions covering `[min, max]` with roughly `target`
/// intervals (1/2/5 × 10ᵏ steps).
pub(crate) fn nice_ticks(min: f64, max: f64, target: usize) -> Vec<f64> {
    assert!(max > min && target >= 1);
    let raw_step = (max - min) / target as f64;
    let mag = 10f64.powf(raw_step.log10().floor());
    let norm = raw_step / mag;
    let step = if norm <= 1.0 {
        1.0
    } else if norm <= 2.0 {
        2.0
    } else if norm <= 5.0 {
        5.0
    } else {
        10.0
    } * mag;
    let start = (min / step).ceil() * step;
    let mut ticks = Vec::new();
    let mut t = start;
    while t <= max + step * 1e-9 {
        // Snap tiny float error to zero.
        ticks.push(if t.abs() < step * 1e-9 { 0.0 } else { t });
        t += step;
    }
    ticks
}

/// Compact number formatting for tick labels.
pub(crate) fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.0}k", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        let s = format!("{v:.1}");
        s.strip_suffix(".0").map(str::to_string).unwrap_or(s)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_mapping() {
        let s = Scale::linear(0.0, 10.0, 100.0, 200.0);
        assert_eq!(s.px(0.0), 100.0);
        assert_eq!(s.px(10.0), 200.0);
        assert_eq!(s.px(5.0), 150.0);
        assert_eq!(s.px(-5.0), 100.0); // clamped
    }

    #[test]
    fn inverted_pixel_range_for_y_axes() {
        // SVG y grows downward: map data-up to pixel-down.
        let s = Scale::linear(0.0, 1.0, 300.0, 20.0);
        assert_eq!(s.px(0.0), 300.0);
        assert_eq!(s.px(1.0), 20.0);
    }

    #[test]
    fn log_mapping() {
        let s = Scale::log10(1.0, 1000.0, 0.0, 300.0);
        assert!((s.px(1.0) - 0.0).abs() < 1e-9);
        assert!((s.px(1000.0) - 300.0).abs() < 1e-9);
        assert!((s.px(10.0) - 100.0).abs() < 1e-9);
        assert_eq!(s.ticks(4), vec![1.0, 10.0, 100.0, 1000.0]);
    }

    #[test]
    fn nice_ticks_are_nice() {
        let t = nice_ticks(0.0, 100.0, 5);
        assert_eq!(t, vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]);
        let t2 = nice_ticks(0.0, 7.3, 5);
        assert!(t2.contains(&0.0) && t2.last().copied().unwrap() <= 7.3);
        // Steps are uniform.
        for w in t2.windows(2) {
            assert!((w[1] - w[0] - (t2[1] - t2[0])).abs() < 1e-9);
        }
    }

    #[test]
    fn tick_formatting() {
        assert_eq!(fmt_tick(0.0), "0");
        assert_eq!(fmt_tick(5.0), "5");
        assert_eq!(fmt_tick(5.5), "5.5");
        assert_eq!(fmt_tick(150.0), "150");
        assert_eq!(fmt_tick(25_000.0), "25k");
        assert_eq!(fmt_tick(2_500_000.0), "2.5M");
        assert_eq!(fmt_tick(0.25), "0.25");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_domain_rejected() {
        Scale::linear(1.0, 1.0, 0.0, 10.0);
    }
}
