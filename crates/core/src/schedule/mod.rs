//! The sensing-scheduling problem and its solvers (§III of the paper).
//!
//! A *sensing schedule* selects, for each participating mobile user `k`
//! with stay `[tSk, tEk]` and sensing budget `NBk`, a set of grid
//! instants at which that user's phone takes readings. The objective is
//! the total time-domain coverage (eq. 4), a monotone submodular
//! function; feasibility is the budget (partition) matroid of
//! [`crate::matroid`].
//!
//! Solvers:
//! - [`greedy`]: the paper's Algorithm 1 — plain greedy, `O(N²)` with
//!   kernel windowing, 1/2-approximate.
//! - [`lazy_greedy`]: identical output, accelerated with full-CELF lazy
//!   marginal evaluation (valid because gains only shrink as the
//!   solution grows).
//! - [`stochastic_greedy`]: sampled greedy — `O(N·ln(1/ε))` total
//!   evaluations for a `(1 − 1/e − ε)` guarantee; seeded and
//!   deterministic.
//! - [`baseline`]: the §V-C comparison — each phone senses every
//!   `interval` seconds from its arrival until its budget is exhausted.
//! - [`brute_force`]: exact optimum by exhaustive search, for tiny
//!   instances only; used to validate the 1/2 approximation bound.
//! - [`online::OnlineScheduler`]: arrival/departure-driven rescheduling
//!   in the style of the deployed Sensing Scheduler (§II-B). Every
//!   replan is an incremental CELF repair, bit-identical to seeded
//!   plain greedy from scratch (its test oracle,
//!   [`OnlineScheduler::reference_plan`]), under optional per-task
//!   value decay ([`DecayCurve`]).

mod baseline;
mod brute;
mod celf;
mod decay;
mod greedy;
mod lazy;
pub mod online;
mod problem;
mod stochastic;
mod types;

pub use baseline::{baseline, baseline_with_interval};
pub use brute::{brute_force, optimal_value};
pub use decay::DecayCurve;
pub use greedy::{greedy, greedy_seeded, greedy_seeded_stats, GreedyStats};
pub use lazy::{lazy_greedy, lazy_greedy_stats};
pub use online::OnlineScheduler;
pub use problem::ScheduleProblem;
pub use stochastic::{stochastic_greedy, stochastic_greedy_seeded_stats};
pub use types::{Participant, Schedule, UserId};
