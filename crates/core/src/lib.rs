//! Core algorithms of the SOR (Sensing-based Objective Ranking) system.
//!
//! This crate implements the two theoretical contributions of the ICDCS
//! 2014 paper *"SOR: An Objective Ranking System Based on Mobile Phone
//! Sensing"*:
//!
//! 1. **Sensing scheduling** (§III): a scheduling period is discretised
//!    into `N` equally-spaced time instants; a measurement at instant
//!    `ti` covers instant `tj` with probability `p(ti,tj)` drawn from a
//!    bell-shaped Gaussian kernel. Selecting at most `NBk` instants for
//!    each participating mobile user so as to maximise total coverage is
//!    monotone submodular maximisation over a partition matroid; the
//!    greedy algorithm ([`schedule::greedy`]) achieves a 1/2
//!    approximation in `O(N²)`. A lazy-evaluation variant
//!    ([`schedule::lazy_greedy`]), the paper's every-10-seconds baseline
//!    ([`schedule::baseline`]) and an online arrival-driven wrapper
//!    ([`schedule::online`]) are provided alongside.
//!
//! 2. **Personalizable ranking** (§IV): feature data for `N` places ×
//!    `M` features are turned into per-feature distances to a user's
//!    preferred values, per-feature *individual rankings*, and finally
//!    aggregated under the **weighted Spearman footrule** by solving a
//!    minimum-cost perfect matching (via [`sor_flow`]), which
//!    2-approximates the NP-hard weighted Kemeny-optimal ranking; ties
//!    between optima go to the lexicographically smallest order. Exact
//!    Kemeny (bitmask DP for small `N`) and Borda baselines are included
//!    for evaluation.
//!
//! # Quick start
//!
//! ```
//! use sor_core::coverage::GaussianCoverage;
//! use sor_core::schedule::{greedy, Participant, ScheduleProblem, UserId};
//! use sor_core::time::TimeGrid;
//!
//! // A 10-minute period sampled at 60 instants; readings stay valid
//! // for ~10 s around each measurement.
//! let grid = TimeGrid::new(0.0, 600.0, 60).unwrap();
//! let participants = vec![
//!     Participant::new(UserId(0), 0.0, 600.0, 5),
//!     Participant::new(UserId(1), 120.0, 480.0, 3),
//! ];
//! let problem = ScheduleProblem::new(grid, GaussianCoverage::new(10.0), participants);
//! let schedule = greedy(&problem);
//! assert!(schedule.assignments().len() <= 8); // within total budget
//! let quality = problem.average_coverage(&schedule);
//! assert!(quality > 0.0 && quality <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod matroid;
pub mod ranking;
pub mod schedule;
pub mod time;

pub use coverage::{CoverageModel, GaussianCoverage};
pub use ranking::{
    aggregate, FeatureMatrix, Preference, PreferredValue, Ranking, UserPreferences, Weight,
};
pub use schedule::{Participant, Schedule, ScheduleProblem, UserId};
pub use time::TimeGrid;

/// Errors produced by the core algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A time grid was requested with a non-positive span or zero instants.
    InvalidGrid {
        /// Requested period start (seconds).
        start: f64,
        /// Requested period end (seconds).
        end: f64,
        /// Requested number of instants.
        instants: usize,
    },
    /// A participant's stay is empty or outside the scheduling period.
    InvalidStay {
        /// The offending user.
        user: UserId,
    },
    /// A feature matrix dimension mismatch (places × features).
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was supplied.
        actual: usize,
        /// Human label for the dimension ("features", "places", ...).
        what: &'static str,
    },
    /// A ranking was not a permutation of `0..n`.
    NotAPermutation {
        /// Length of the offending ranking.
        len: usize,
    },
    /// Exact Kemeny aggregation was asked for more places than the
    /// bitmask DP supports.
    TooManyPlaces {
        /// Number of places requested.
        places: usize,
        /// Maximum supported by the exact solver.
        max: usize,
    },
    /// An error bubbled up from the flow substrate.
    Flow(sor_flow::FlowError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidGrid { start, end, instants } => {
                write!(f, "invalid time grid: [{start}, {end}] with {instants} instants")
            }
            CoreError::InvalidStay { user } => {
                write!(f, "participant {user:?} has an empty or out-of-period stay")
            }
            CoreError::DimensionMismatch { expected, actual, what } => {
                write!(f, "expected {expected} {what}, got {actual}")
            }
            CoreError::NotAPermutation { len } => {
                write!(f, "ranking of length {len} is not a permutation of 0..{len}")
            }
            CoreError::TooManyPlaces { places, max } => {
                write!(f, "exact Kemeny supports at most {max} places, got {places}")
            }
            CoreError::Flow(e) => write!(f, "flow solver: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Flow(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sor_flow::FlowError> for CoreError {
    fn from(e: sor_flow::FlowError) -> Self {
        CoreError::Flow(e)
    }
}
