//! Online (arrival-driven) scheduling.
//!
//! §II-B: "the Sensing Scheduler applies an online algorithm to
//! calculate a sensing schedule … based on runtime participation
//! information (such as current participating users, their sensing
//! budgets, etc)". Users scan the 2D barcode and join at arbitrary
//! times; the scheduler must revise the future portion of the schedule
//! while honouring readings that have already been taken.
//!
//! [`OnlineScheduler`] keeps the executed prefix immutable and re-plans
//! the future on every arrival and departure by *incremental CELF
//! repair*. Marginal gains depend only on the executed seed set, never
//! on who is present, and the seed only grows (planned actions can be
//! torn down, executed ones cannot). So every gain ever evaluated
//! against a seed state is a valid CELF upper bound for all future
//! replans. The scheduler persists those bounds per instant (tagged
//! with the seed length they were computed at) and re-plans by
//! re-heaping them with zero evaluations: bounds at the current seed
//! length pop as exact, older ones refresh lazily, and instants made
//! newly feasible by an arrival enter at +∞ and get their first
//! evaluation on pop. Churn therefore costs work proportional to what
//! actually changed.
//!
//! The output is bit-identical to Algorithm 1 run from scratch over the
//! remaining budgets, seeded with the executed prefix (shared loop and
//! tie-breaking in [`crate::schedule::celf`]).
//! [`OnlineScheduler::reference_plan`] computes that from-scratch plan;
//! production never calls it, tests and the `sched_churn` bench compare
//! against it.
//!
//! The executed prefix is kept in *instant order*:
//! [`OnlineScheduler::advance_to`] appends the actions that became past
//! sorted by instant (and a replan only plans instants at or after the
//! clock). The prefix's order fixes the seed state's floats, and with
//! this rule it depends only on which actions are past, never on how
//! clock ticks batched them. The prefix at any later time is therefore
//! the prefix at the last replan plus that replan's planned actions now
//! past, in instant order. So the state saved at a replan (participants,
//! executed prefix, planned list in selection order, clock) is all
//! [`OnlineScheduler::restore`] needs to rebuild a scheduler that plans
//! bit for bit like the one it was saved from.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crate::coverage::{CoverageModel, CoverageState};
use crate::matroid::SenseAction;
use crate::schedule::celf::{self, Entry, STALE};
use crate::schedule::greedy::{greedy_seeded_stats, GreedyStats};
use crate::schedule::{DecayCurve, Participant, Schedule, ScheduleProblem, UserId};
use crate::time::{InstantId, TimeGrid};
use crate::CoreError;

/// A marginal gain persisted across replans, tagged with the executed
/// seed length it was evaluated at. Valid upper bound forever (the seed
/// only grows); exact again whenever the seed length still matches.
#[derive(Debug, Clone, Copy)]
struct Bound {
    gain: f64,
    seed_len: usize,
}

/// Arrival-driven wrapper around the greedy scheduler.
///
/// # Example
///
/// ```
/// use sor_core::coverage::GaussianCoverage;
/// use sor_core::schedule::online::OnlineScheduler;
/// use sor_core::schedule::UserId;
/// use sor_core::time::TimeGrid;
///
/// let grid = TimeGrid::new(0.0, 600.0, 60).unwrap();
/// let mut sched = OnlineScheduler::new(grid, GaussianCoverage::new(10.0));
/// sched.arrive(UserId(0), 0.0, 600.0, 4);
/// sched.advance_to(300.0);
/// sched.arrive(UserId(1), 300.0, 600.0, 4); // late joiner
/// let plan = sched.current_schedule();
/// assert!(plan.len() <= 8);
/// // The incremental repair equals plain greedy from scratch.
/// assert_eq!(sched.planned(), sched.reference_plan().0.assignments());
/// ```
pub struct OnlineScheduler {
    grid: TimeGrid,
    model: Arc<dyn CoverageModel>,
    participants: Vec<Participant>,
    /// Actions whose instant time is already in the past — immutable,
    /// in instant order.
    executed: Vec<SenseAction>,
    /// Planned future actions (re-derived on every change).
    planned: Vec<SenseAction>,
    /// The earliest instant time in `planned` (+∞ when it is empty):
    /// until the clock reaches it, advancing moves nothing.
    next_due: f64,
    now: f64,
    /// Greedy work accumulated across all reschedules this period.
    stats: GreedyStats,
    /// Value-decay curve applied to the objective.
    decay: DecayCurve,
    /// users_at[i]: users whose (possibly truncated) stay covers instant
    /// `i`. Maintained incrementally on arrival/departure so replans pay
    /// for the churning user's window, not the whole problem.
    users_at: Vec<Vec<UserId>>,
    /// Per-instant seed-versioned gain bounds persisted across replans.
    bounds: Vec<Option<Bound>>,
}

impl std::fmt::Debug for OnlineScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineScheduler")
            .field("now", &self.now)
            .field("participants", &self.participants.len())
            .field("executed", &self.executed.len())
            .field("planned", &self.planned.len())
            .field("decay", &self.decay)
            .finish()
    }
}

impl OnlineScheduler {
    /// Creates an online scheduler for one scheduling period.
    pub fn new<M: CoverageModel + 'static>(grid: TimeGrid, model: M) -> Self {
        Self::from_arc(grid, Arc::new(model))
    }

    /// Creates an online scheduler sharing an existing model handle.
    pub fn from_arc(grid: TimeGrid, model: Arc<dyn CoverageModel>) -> Self {
        let n = grid.len();
        OnlineScheduler {
            grid,
            model,
            participants: Vec::new(),
            executed: Vec::new(),
            planned: Vec::new(),
            next_due: f64::INFINITY,
            now: grid.start(),
            stats: GreedyStats::default(),
            decay: DecayCurve::Constant,
            users_at: vec![Vec::new(); n],
            bounds: vec![None; n],
        }
    }

    /// Rebuilds a scheduler from state saved at a replan: the
    /// participants as it held them, the executed prefix, the planned
    /// actions in selection order, and the clock. Gain bounds start
    /// empty, so the next replan evaluates every candidate; bounds only
    /// save work, so it plans exactly what the saved scheduler would
    /// have. Empty state gives the same scheduler as
    /// [`Self::from_arc`].
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if an executed or planned action
    /// names an instant at or past the grid's length.
    pub fn restore(
        grid: TimeGrid,
        model: Arc<dyn CoverageModel>,
        participants: Vec<Participant>,
        executed: Vec<SenseAction>,
        planned: Vec<SenseAction>,
        now: f64,
    ) -> Result<Self, CoreError> {
        let n = grid.len();
        if let Some(a) = executed.iter().chain(&planned).find(|a| a.instant >= n) {
            return Err(CoreError::DimensionMismatch {
                expected: n,
                actual: a.instant.saturating_add(1),
                what: "grid instants",
            });
        }
        let mut s = Self::from_arc(grid, model);
        for p in &participants {
            for i in grid.instants_within(p.arrival, p.departure) {
                s.users_at[i].push(p.user);
            }
        }
        s.participants = participants;
        s.executed = executed;
        s.set_planned(planned);
        s.now = now;
        Ok(s)
    }

    /// Replaces the future plan and the earliest instant time in it.
    fn set_planned(&mut self, planned: Vec<SenseAction>) {
        let grid = self.grid;
        self.next_due = planned
            .iter()
            .map(|a| grid.time_of(InstantId(a.instant)))
            .fold(f64::INFINITY, f64::min);
        self.planned = planned;
    }

    /// Applies a value-decay curve. Set this before the first arrival:
    /// persisted gain bounds are computed under the curve in force.
    #[must_use]
    pub fn with_decay(mut self, decay: DecayCurve) -> Self {
        debug_assert!(self.executed.is_empty() && self.planned.is_empty());
        self.decay = decay;
        self
    }

    /// The decay curve in force.
    pub fn decay(&self) -> DecayCurve {
        self.decay
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The scheduling grid.
    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// Registered participants (past and present).
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// The combined schedule: executed prefix plus current future plan.
    pub fn current_schedule(&self) -> Schedule {
        let mut all = self.executed.clone();
        all.extend(self.planned.iter().copied());
        Schedule::from_actions(all)
    }

    /// Actions already executed (instant time ≤ now), in instant order.
    pub fn executed(&self) -> &[SenseAction] {
        &self.executed
    }

    /// The future plan, in selection order.
    pub fn planned(&self) -> &[SenseAction] {
        &self.planned
    }

    /// Cumulative solver work (selection rounds, marginal-gain
    /// evaluations, heap traffic, replans) across every reschedule this
    /// period.
    pub fn stats(&self) -> GreedyStats {
        self.stats
    }

    /// Objective value of the combined schedule under this period's
    /// coverage model and decay curve.
    pub fn coverage(&self) -> f64 {
        let problem = ScheduleProblem::from_arc(
            self.grid,
            Arc::clone(&self.model),
            self.participants.clone(),
        )
        .with_decay(self.decay);
        problem.evaluate(&self.current_schedule())
    }

    /// Advances the clock to `t`, moving any planned actions whose
    /// instant time has passed into the executed prefix, in instant
    /// order. The prefix is then the same whether the clock got to `t`
    /// in one step or in many (see the module doc). Does not replan.
    /// Costs O(1) while `t` is before the earliest planned instant.
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.now, "time went backwards: {} -> {t}", self.now);
        self.now = t;
        if t < self.next_due {
            return;
        }
        let grid = self.grid;
        let (mut done, future): (Vec<_>, Vec<_>) =
            self.planned.drain(..).partition(|a| grid.time_of(InstantId(a.instant)) <= t);
        done.sort_by_key(|a| a.instant);
        self.executed.extend(done);
        self.set_planned(future);
    }

    /// A user scans the barcode at time `t`, announcing departure time
    /// and sensing budget. Triggers a reschedule and returns its work.
    /// Re-arrival of a known user replaces their previous registration
    /// (their executed readings still count against the new budget).
    pub fn arrive(&mut self, user: UserId, t: f64, departure: f64, budget: usize) -> GreedyStats {
        self.advance_to(t);
        let grid = self.grid;
        if let Some(prev) = self.participants.iter().find(|p| p.user == user) {
            let old = grid.instants_within(prev.arrival, prev.departure);
            for i in old {
                self.users_at[i].retain(|&u| u != user);
            }
        }
        self.participants.retain(|p| p.user != user);
        let p = Participant::new(user, t, departure, budget);
        for i in grid.instants_within(p.arrival, p.departure) {
            self.users_at[i].push(user);
        }
        self.participants.push(p);
        self.reschedule()
    }

    /// A user leaves at time `t` (detected by the Participation Manager
    /// via location, §II-B). Their future readings are cancelled and the
    /// rest of the plan is recomputed; returns the replan's work.
    pub fn depart(&mut self, user: UserId, t: f64) -> GreedyStats {
        self.advance_to(t);
        let grid = self.grid;
        if let Some(p) = self.participants.iter_mut().find(|p| p.user == user) {
            let old = grid.instants_within(p.arrival, p.departure);
            p.departure = p.departure.min(t);
            let new = grid.instants_within(p.arrival, p.departure);
            for i in new.end..old.end {
                self.users_at[i].retain(|&u| u != user);
            }
        }
        self.reschedule()
    }

    /// Plain greedy (Algorithm 1) from scratch over the remaining
    /// budgets and instants, seeded with the executed prefix, and its
    /// work. Read-only: the test oracle for the incremental repair.
    /// Right after [`Self::arrive`] or [`Self::depart`] its schedule
    /// equals [`Self::planned`] bit for bit; after a bare
    /// [`Self::advance_to`] it may not, because advancing does not
    /// replan.
    pub fn reference_plan(&self) -> (Schedule, GreedyStats) {
        let mut executed_counts: HashMap<UserId, usize> = HashMap::new();
        for a in &self.executed {
            *executed_counts.entry(a.user).or_insert(0) += 1;
        }
        let future_participants: Vec<Participant> = self
            .participants
            .iter()
            .filter_map(|p| {
                let used = executed_counts.get(&p.user).copied().unwrap_or(0);
                let left = p.budget.saturating_sub(used);
                if left == 0 || p.departure <= self.now {
                    return None;
                }
                Some(Participant::new(p.user, p.arrival.max(self.now), p.departure, left))
            })
            .collect();
        let problem =
            ScheduleProblem::from_arc(self.grid, Arc::clone(&self.model), future_participants)
                .with_decay(self.decay);
        let seed: Vec<InstantId> = self.executed.iter().map(|a| InstantId(a.instant)).collect();
        greedy_seeded_stats(&problem, &seed)
    }

    /// Re-plans the future by incremental CELF repair and returns the
    /// work it did.
    ///
    /// Correctness argument, in three parts:
    ///
    /// 1. *Bounds stay valid.* A persisted bound was evaluated against
    ///    some historical executed-seed state. The current seed is a
    ///    superset (executed actions are never removed), so by
    ///    submodularity the true gain can only be ≤ the bound. Arrivals
    ///    and departures change *feasibility* only — gains never read
    ///    participation — so no churn event can raise a gain above its
    ///    bound. Bounds evaluated mid-replan (after selections) are NOT
    ///    persisted: the selections they saw may be torn down later,
    ///    which could raise gains back above them.
    /// 2. *Exactness is detected.* A bound tagged with the current seed
    ///    length was evaluated against exactly this seed state (same
    ///    prefix, same insertion order, same floats), so at round 0 it
    ///    is the true gain and may be committed without re-evaluation.
    /// 3. *Output matches [`Self::reference_plan`] bit-for-bit.* Both
    ///    build the identical seed state, consider the identical
    ///    candidate set (instants at time ≥ now inside someone's clamped
    ///    stay), compare gains produced by the identical float pipeline,
    ///    and share tie-break rules via [`crate::schedule::celf`]; CELF's
    ///    pop-exact rule then selects the same argmax every round.
    fn reschedule(&mut self) -> GreedyStats {
        let grid = self.grid;
        let model = Arc::clone(&self.model);
        let n = grid.len();
        let seed_len = self.executed.len();

        // Remaining budget per user: registered budget minus executed
        // readings. Users whose stay already ended contribute nothing —
        // mirrors the reference plan's filter `departure <= now`.
        let max_id = self.participants.iter().map(|p| p.user.0 + 1).max().unwrap_or(0);
        let mut remaining = vec![0usize; max_id];
        for p in &self.participants {
            if p.departure <= self.now {
                continue;
            }
            remaining[p.user.0] = p.budget;
        }
        for a in &self.executed {
            if let Some(r) = remaining.get_mut(a.user.0) {
                *r = r.saturating_sub(1);
            }
        }

        // Rebuild the seed coverage state: O(|executed|·window) kernel
        // work, zero gain evaluations, same insertion order as the
        // reference plan ⇒ identical floats.
        let mut state = CoverageState::weighted(&grid, &*model, self.decay.weights(&grid));
        let mut taken = vec![false; n];
        for a in &self.executed {
            taken[a.instant] = true;
            state.add(InstantId(a.instant));
        }

        // Re-heap the persisted bounds — zero evaluations. Exact at the
        // current seed length, stale upper bound otherwise; candidates
        // never bounded before (e.g. an arrival opened their window)
        // enter at +∞ and get their first evaluation on pop.
        let heap: BinaryHeap<Entry> = (0..n)
            .filter(|&i| {
                !taken[i] && !self.users_at[i].is_empty() && grid.time_of(InstantId(i)) >= self.now
            })
            .map(|i| match self.bounds[i] {
                Some(b) if b.seed_len == seed_len => Entry { gain: b.gain, instant: i, round: 0 },
                Some(b) => Entry { gain: b.gain, instant: i, round: STALE },
                None => Entry { gain: f64::INFINITY, instant: i, round: STALE },
            })
            .collect();

        // Round-0 gains were evaluated against the pure seed state: each
        // is a durable upper bound for every future replan.
        let mut work = GreedyStats { replans: 1, ..GreedyStats::default() };
        let bounds = &mut self.bounds;
        let planned =
            celf::run(heap, &mut state, &self.users_at, &mut remaining, &mut work, |i, gain| {
                bounds[i] = Some(Bound { gain, seed_len });
            });
        self.set_planned(planned);
        self.stats.absorb(work);
        work
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::GaussianCoverage;

    fn scheduler() -> OnlineScheduler {
        let grid = TimeGrid::new(0.0, 1000.0, 100).unwrap();
        OnlineScheduler::new(grid, GaussianCoverage::new(10.0))
    }

    #[test]
    fn single_arrival_plans_full_budget() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 5);
        assert_eq!(s.current_schedule().len(), 5);
        assert_eq!(s.executed().len(), 0);
    }

    #[test]
    fn advance_freezes_past_actions() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 10);
        s.advance_to(500.0);
        let frozen = s.executed().len();
        // All frozen actions are in the past.
        for a in s.executed() {
            assert!(s.grid.time_of(InstantId(a.instant)) <= 500.0);
        }
        // A later arrival cannot change the executed prefix.
        s.arrive(UserId(1), 500.0, 1000.0, 3);
        assert_eq!(s.executed().len(), frozen);
    }

    #[test]
    fn late_joiner_schedules_only_future_instants() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 3);
        s.arrive(UserId(1), 600.0, 1000.0, 4);
        let plan = s.current_schedule();
        for i in plan.for_user(UserId(1)) {
            assert!(s.grid.time_of(i) >= 600.0, "instant {i} before arrival");
        }
    }

    #[test]
    fn departure_cancels_future_readings() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 10);
        s.advance_to(300.0);
        let executed_before = s.executed().len();
        s.depart(UserId(0), 300.0);
        let plan = s.current_schedule();
        assert_eq!(plan.len(), executed_before, "future readings must be dropped");
    }

    #[test]
    fn budgets_respected_across_reschedules() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 4);
        s.advance_to(400.0);
        s.arrive(UserId(1), 400.0, 900.0, 3);
        s.advance_to(700.0);
        s.arrive(UserId(2), 700.0, 1000.0, 2);
        let plan = s.current_schedule();
        assert!(plan.load_of(UserId(0)) <= 4);
        assert!(plan.load_of(UserId(1)) <= 3);
        assert!(plan.load_of(UserId(2)) <= 2);
    }

    #[test]
    fn rearrival_counts_executed_readings() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 400.0, 4);
        s.advance_to(400.0);
        let used = s.executed().len();
        assert!(used > 0);
        // Re-register with budget 5: only 5 - used more readings allowed.
        s.arrive(UserId(0), 400.0, 1000.0, 5);
        let plan = s.current_schedule();
        assert!(plan.load_of(UserId(0)) <= 5);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_cannot_go_backwards() {
        let mut s = scheduler();
        s.advance_to(100.0);
        s.advance_to(50.0);
    }

    #[test]
    fn coverage_nonzero_after_plan() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 5);
        assert!(s.coverage() > 0.0);
    }

    #[test]
    fn stats_accumulate_across_reschedules() {
        let mut s = scheduler();
        s.arrive(UserId(0), 0.0, 1000.0, 5);
        let after_first = s.stats();
        assert!(after_first.iterations >= 5);
        assert!(after_first.gain_evaluations >= after_first.iterations);
        assert_eq!(after_first.replans, 1);
        s.arrive(UserId(1), 200.0, 900.0, 3);
        let after_second = s.stats();
        assert!(after_second.gain_evaluations > after_first.gain_evaluations);
        assert_eq!(after_second.replans, 2);
    }

    /// Drives one scheduler through a churn trace and asserts that
    /// after every arrival and departure the incremental repair equals
    /// the from-scratch reference plan bit for bit. Bare advances do not
    /// replan, so the plan is only compared after churn events.
    fn assert_trace_matches_reference(mut s: OnlineScheduler) {
        let trace: &[(&str, usize, f64, f64, usize)] = &[
            ("arrive", 0, 0.0, 900.0, 5),
            ("arrive", 1, 50.0, 600.0, 4),
            ("advance", 0, 200.0, 0.0, 0),
            ("arrive", 2, 200.0, 1000.0, 6),
            ("depart", 1, 350.0, 0.0, 0),
            ("advance", 0, 500.0, 0.0, 0),
            ("arrive", 3, 500.0, 1000.0, 3),
            ("arrive", 0, 620.0, 1000.0, 7), // re-arrival
            ("depart", 2, 700.0, 0.0, 0),
            ("arrive", 4, 800.0, 1000.0, 2),
        ];
        for &(op, user, t, dep, budget) in trace {
            match op {
                "arrive" => s.arrive(UserId(user), t, dep, budget),
                "depart" => s.depart(UserId(user), t),
                _ => {
                    s.advance_to(t);
                    continue;
                }
            };
            assert_eq!(
                s.planned(),
                s.reference_plan().0.assignments(),
                "repair diverged from the reference after {op} u{user} at t={t}"
            );
        }
    }

    #[test]
    fn celf_is_bit_identical_to_exact_over_churn() {
        assert_trace_matches_reference(scheduler());
    }

    #[test]
    fn celf_matches_exact_under_decay() {
        let grid = TimeGrid::new(0.0, 1000.0, 100).unwrap();
        for decay in [DecayCurve::linear(0.0008), DecayCurve::exponential(0.002)] {
            assert_trace_matches_reference(
                OnlineScheduler::new(grid, GaussianCoverage::new(10.0)).with_decay(decay),
            );
        }
    }

    #[test]
    fn celf_repairs_cost_far_less_than_full_replans() {
        let mut s = scheduler();
        // Full-replan cost: the reference plan's work after each event.
        let mut full_evals = 0;
        let mut check = |s: &OnlineScheduler| {
            let (reference, work) = s.reference_plan();
            assert_eq!(s.planned(), reference.assignments());
            full_evals += work.gain_evaluations;
        };
        s.arrive(UserId(0), 0.0, 1000.0, 4);
        check(&s);
        s.arrive(UserId(1), 100.0, 800.0, 4);
        check(&s);
        s.advance_to(250.0);
        s.arrive(UserId(2), 250.0, 1000.0, 4);
        check(&s);
        s.depart(UserId(1), 400.0);
        check(&s);
        s.arrive(UserId(3), 550.0, 1000.0, 4);
        check(&s);
        s.arrive(UserId(4), 700.0, 1000.0, 4);
        check(&s);
        let c = s.stats();
        assert_eq!(c.replans, 6);
        assert!(
            c.gain_evaluations * 2 < full_evals,
            "incremental repair should cost far fewer evals: celf {} vs full replans {}",
            c.gain_evaluations,
            full_evals
        );
        assert!(c.heap_pops > 0 && c.bound_reinserts > 0);
    }
}
