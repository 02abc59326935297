//! # mcdnn-viz
//!
//! Dependency-free SVG chart rendering, sized for regenerating the
//! paper's figures: line charts with linear or log-y axes
//! ([`LineChart`], Figs. 13–14 style) and grouped bar charts
//! ([`BarChart`], Fig. 12 style). Output is a standalone `<svg>`
//! document string the bench binaries write into `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bar;
pub mod line;
mod scale;

pub use bar::BarChart;
pub use line::{LineChart, Series};

/// The categorical palette shared by both chart kinds.
pub(crate) const PALETTE: [&str; 8] = [
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
];

/// Escape text for inclusion in SVG/XML.
pub(crate) fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("a<b & \"c\">"), "a&lt;b &amp; &quot;c&quot;&gt;");
        assert_eq!(escape("plain"), "plain");
    }
}
