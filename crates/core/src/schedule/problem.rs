//! The scheduling problem instance: grid + coverage model + participants.

use std::sync::Arc;

use crate::coverage::{CoverageModel, CoverageState};
use crate::matroid::BudgetMatroid;
use crate::schedule::{DecayCurve, Participant, Schedule, UserId};
use crate::time::{InstantId, TimeGrid};
use crate::CoreError;

/// One instance of the §III scheduling problem.
///
/// Bundles the discretised period `T`, the coverage kernel, and the set
/// of participating users. All solvers take a `&ScheduleProblem`.
#[derive(Clone)]
pub struct ScheduleProblem {
    grid: TimeGrid,
    model: Arc<dyn CoverageModel>,
    participants: Vec<Participant>,
    decay: DecayCurve,
}

impl std::fmt::Debug for ScheduleProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleProblem")
            .field("grid", &self.grid)
            .field("participants", &self.participants.len())
            .field("decay", &self.decay)
            .finish()
    }
}

impl ScheduleProblem {
    /// Creates a problem instance. Participant stays are clamped to the
    /// scheduling period when they extend beyond it.
    pub fn new<M: CoverageModel + 'static>(
        grid: TimeGrid,
        model: M,
        participants: Vec<Participant>,
    ) -> Self {
        Self::from_arc(grid, Arc::new(model), participants)
    }

    /// Creates a problem instance from a shared coverage model. Useful
    /// when many sub-problems (e.g. online rescheduling rounds) reuse one
    /// kernel.
    pub fn from_arc(
        grid: TimeGrid,
        model: Arc<dyn CoverageModel>,
        participants: Vec<Participant>,
    ) -> Self {
        ScheduleProblem { grid, model, participants, decay: DecayCurve::Constant }
    }

    /// Applies a value-decay curve to the objective: covering instant
    /// `t_j` is worth `w(t_j − start)` instead of 1. All solvers
    /// (greedy, lazy/CELF, stochastic, brute force) and `evaluate`
    /// honour the curve because they share [`Self::coverage_state`].
    #[must_use]
    pub fn with_decay(mut self, decay: DecayCurve) -> Self {
        self.decay = decay;
        self
    }

    /// The value-decay curve in force (default: [`DecayCurve::Constant`]).
    pub fn decay(&self) -> DecayCurve {
        self.decay
    }

    /// Shared handle to the coverage model.
    pub fn model_arc(&self) -> Arc<dyn CoverageModel> {
        Arc::clone(&self.model)
    }

    /// Validating constructor: rejects participants whose stay is empty
    /// or entirely outside the period.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidStay`] naming the first offending user.
    pub fn try_new<M: CoverageModel + 'static>(
        grid: TimeGrid,
        model: M,
        participants: Vec<Participant>,
    ) -> Result<Self, CoreError> {
        for p in &participants {
            let bad = !p.arrival.is_finite()
                || !p.departure.is_finite()
                || p.departure < p.arrival
                || p.departure < grid.start()
                || p.arrival > grid.end();
            if bad {
                return Err(CoreError::InvalidStay { user: p.user });
            }
        }
        Ok(Self::new(grid, model, participants))
    }

    /// The time grid `T`.
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// The coverage kernel.
    pub fn model(&self) -> &dyn CoverageModel {
        self.model.as_ref()
    }

    /// The participants.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Looks up a participant by id.
    pub fn participant(&self, user: UserId) -> Option<&Participant> {
        self.participants.iter().find(|p| p.user == user)
    }

    /// The subset `Tk`: grid instants falling inside user `k`'s stay.
    pub fn tk(&self, user: UserId) -> std::ops::Range<usize> {
        match self.participant(user) {
            Some(p) => self.grid.instants_within(p.arrival, p.departure),
            None => 0..0,
        }
    }

    /// The feasibility matroid over (user, instant) actions: per-user
    /// budgets indexed densely by `UserId`. Users are assumed to carry
    /// dense ids `0..n`; sparse ids get budget 0.
    pub fn matroid(&self) -> BudgetMatroid {
        BudgetMatroid::new(self.budgets())
    }

    /// Per-user budgets indexed densely by `UserId` (sparse ids get 0).
    fn budgets(&self) -> Vec<usize> {
        let max_id = self.participants.iter().map(|p| p.user.0).max().map_or(0, |m| m + 1);
        let mut budgets = vec![0usize; max_id];
        for p in &self.participants {
            budgets[p.user.0] = p.budget;
        }
        budgets
    }

    /// The bookkeeping every greedy solver starts from: each user's
    /// budget, indexed densely by `UserId`, and for each instant the
    /// users whose stay `Tk` covers it.
    pub(crate) fn budgets_and_presence(&self) -> (Vec<usize>, Vec<Vec<UserId>>) {
        let mut users_at = vec![Vec::new(); self.grid.len()];
        for p in &self.participants {
            for i in self.tk(p.user) {
                users_at[i].push(p.user);
            }
        }
        (self.budgets(), users_at)
    }

    /// Whether `schedule` is feasible: every action's instant lies inside
    /// the acting user's stay and no user exceeds their budget.
    pub fn is_feasible(&self, schedule: &Schedule) -> bool {
        for p in &self.participants {
            if schedule.load_of(p.user) > p.budget {
                return false;
            }
        }
        for a in schedule.iter() {
            let range = self.tk(a.user);
            if !range.contains(&a.instant) {
                return false;
            }
        }
        true
    }

    /// Objective value `f` (eq. 4, decay-weighted when a curve is set)
    /// of a schedule.
    pub fn evaluate(&self, schedule: &Schedule) -> f64 {
        let mut state = self.coverage_state();
        for a in schedule.iter() {
            state.add(InstantId(a.instant));
        }
        state.total()
    }

    /// Average coverage probability (objective / N) — the §V-C metric.
    pub fn average_coverage(&self, schedule: &Schedule) -> f64 {
        self.evaluate(schedule) / self.grid.len() as f64
    }

    /// Per-instant coverage probabilities `p(tj, Ψ)` for a schedule —
    /// the full profile behind the average (used for the stability
    /// analysis of §V-C: the greedy spreads coverage evenly where the
    /// baseline clusters it).
    pub fn coverage_profile(&self, schedule: &Schedule) -> Vec<f64> {
        let mut state = self.coverage_state();
        for a in schedule.iter() {
            state.add(InstantId(a.instant));
        }
        (0..self.grid.len()).map(|j| state.coverage_of(InstantId(j))).collect()
    }

    /// A fresh incremental coverage state for this instance, weighted by
    /// the decay curve when one is set.
    pub fn coverage_state(&self) -> CoverageState<'_> {
        CoverageState::weighted(&self.grid, self.model.as_ref(), self.decay.weights(&self.grid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::GaussianCoverage;
    use crate::matroid::SenseAction;

    fn problem() -> ScheduleProblem {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        ScheduleProblem::new(
            grid,
            GaussianCoverage::new(10.0),
            vec![
                Participant::new(UserId(0), 0.0, 100.0, 2),
                Participant::new(UserId(1), 30.0, 70.0, 1),
            ],
        )
    }

    #[test]
    fn tk_restricts_to_stay() {
        let p = problem();
        assert_eq!(p.tk(UserId(0)), 0..10);
        // Stay [30,70] covers instants at 30..=70 -> ids 2..7.
        assert_eq!(p.tk(UserId(1)), 2..7);
        assert_eq!(p.tk(UserId(9)), 0..0);
    }

    #[test]
    fn matroid_budgets_follow_participants() {
        let p = problem();
        let m = p.matroid();
        assert_eq!(m.budget_of(UserId(0)), 2);
        assert_eq!(m.budget_of(UserId(1)), 1);
        assert_eq!(m.budget_of(UserId(5)), 0);
    }

    #[test]
    fn feasibility_checks_budget_and_stay() {
        let p = problem();
        let ok = Schedule::from_actions(vec![
            SenseAction { user: UserId(0), instant: 0 },
            SenseAction { user: UserId(1), instant: 4 },
        ]);
        assert!(p.is_feasible(&ok));

        let over_budget = Schedule::from_actions(vec![
            SenseAction { user: UserId(1), instant: 3 },
            SenseAction { user: UserId(1), instant: 4 },
        ]);
        assert!(!p.is_feasible(&over_budget));

        let outside_stay =
            Schedule::from_actions(vec![SenseAction { user: UserId(1), instant: 9 }]);
        assert!(!p.is_feasible(&outside_stay));
    }

    #[test]
    fn evaluate_empty_schedule_is_zero() {
        let p = problem();
        assert_eq!(p.evaluate(&Schedule::new()), 0.0);
        assert_eq!(p.average_coverage(&Schedule::new()), 0.0);
    }

    #[test]
    fn try_new_rejects_bad_stays() {
        let grid = TimeGrid::new(0.0, 100.0, 10).unwrap();
        let bad = vec![Participant::new(UserId(0), 50.0, 40.0, 1)];
        let err = ScheduleProblem::try_new(grid, GaussianCoverage::new(10.0), bad).unwrap_err();
        assert_eq!(err, CoreError::InvalidStay { user: UserId(0) });

        let outside = vec![Participant::new(UserId(0), 200.0, 300.0, 1)];
        assert!(ScheduleProblem::try_new(grid, GaussianCoverage::new(10.0), outside).is_err());

        let nan = vec![Participant::new(UserId(0), f64::NAN, 50.0, 1)];
        assert!(ScheduleProblem::try_new(grid, GaussianCoverage::new(10.0), nan).is_err());
    }

    #[test]
    fn evaluate_matches_manual_state() {
        let p = problem();
        let s = Schedule::from_actions(vec![
            SenseAction { user: UserId(0), instant: 2 },
            SenseAction { user: UserId(0), instant: 7 },
        ]);
        let mut state = p.coverage_state();
        state.add(InstantId(2));
        state.add(InstantId(7));
        assert!((p.evaluate(&s) - state.total()).abs() < 1e-12);
    }
}
