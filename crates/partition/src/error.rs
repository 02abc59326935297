//! Typed planning errors for the fallible [`Strategy::try_plan`]
//! surface.
//!
//! The panicking surface ([`Strategy::plan`]) stays for scripts and
//! tests; code that must report failures to a caller (CLI, services)
//! goes through [`Strategy::try_plan`](crate::Strategy::try_plan) and
//! matches on [`PlanError`].

use crate::plan::Strategy;

/// Why a strategy refused to produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// `f` is not non-decreasing, which the JPS theory (Theorems
    /// 5.2/5.3) assumes. `at` is the first index with `f[at] < f[at-1]`.
    NonMonotoneF {
        /// First violating index (`1..=k`).
        at: usize,
    },
    /// `g` is not non-increasing over `0..=k`. `at` is the first index
    /// with `g[at] > g[at-1]`.
    NonMonotoneG {
        /// First violating index (`1..=k`).
        at: usize,
    },
    /// Brute force would enumerate more multisets than the safety cap
    /// allows; reduce `n` or cluster the DNN into fewer blocks.
    TooManyCandidates {
        /// `C(n + k, k)`, the number of cut multisets.
        candidates: u128,
        /// The enumeration cap.
        limit: u128,
    },
    /// An argument is outside the domain the planner is defined on
    /// (no jobs, an empty or unbounded bandwidth range, a strategy the
    /// frontier cannot compile).
    BadInput {
        /// Which argument is broken, human-readable.
        what: &'static str,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NonMonotoneF { at } => write!(
                fmt,
                "f must be non-decreasing for this strategy; f[{at}] < f[{}]",
                at - 1
            ),
            PlanError::NonMonotoneG { at } => write!(
                fmt,
                "g must be non-increasing for this strategy; g[{at}] > g[{}]",
                at - 1
            ),
            PlanError::TooManyCandidates { candidates, limit } => write!(
                fmt,
                "joint brute force would enumerate {candidates} multisets \
                 (limit {limit}); reduce n or k"
            ),
            PlanError::BadInput { what } => write!(fmt, "bad planning input: {what}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Parse failure for [`Strategy`](std::str::FromStr): the unrecognised
/// input plus the accepted spellings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseStrategyError {
    /// The input that failed to parse.
    pub input: String,
}

impl std::fmt::Display for ParseStrategyError {
    fn fmt(&self, fmt: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            fmt,
            "unknown strategy '{}' (try one of: {})",
            self.input,
            Strategy::all()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for ParseStrategyError {}
