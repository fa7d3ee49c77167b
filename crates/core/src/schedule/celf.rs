//! Shared CELF machinery: the stale-bound max-heap entry, the user
//! attribution rule, and the pop/refresh/commit loop itself.
//!
//! Both the batch lazy solver ([`crate::schedule::lazy_greedy`]) and the
//! incremental online planner ([`crate::schedule::online`]) must produce
//! schedules bit-identical to plain greedy. That only holds if every
//! solver breaks ties the exact same way, so the two rules live here and
//! nowhere else:
//!
//! - **Instant selection**: maximum marginal gain, ties toward the
//!   *earlier* instant ([`Entry`]'s `Ord`).
//! - **User attribution**: among present users with budget left, most
//!   remaining budget, ties toward the *smallest* user id
//!   ([`attribute_user`]).
//!
//! The two solvers differ only in how they fill the heap; both then
//! drain it with [`run`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::coverage::CoverageState;
use crate::matroid::SenseAction;
use crate::schedule::{GreedyStats, UserId};
use crate::time::InstantId;

/// Max-heap entry: a cached marginal-gain bound for one instant.
///
/// `round` records which selection round the bound was computed in;
/// submodularity makes any bound from an earlier round a valid *upper*
/// bound, so a popped entry with `round != current` is refreshed and
/// re-inserted rather than trusted. [`STALE`] marks entries seeded from
/// a previous replan's bounds, which are upper bounds but never exact.
pub(crate) struct Entry {
    pub gain: f64,
    pub instant: usize,
    pub round: usize,
}

/// Sentinel round meaning "valid upper bound, but never exact" — used
/// when re-seeding a heap from bounds persisted across replans.
pub(crate) const STALE: usize = usize::MAX;

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; break ties toward the earlier instant so the
        // result matches plain greedy exactly.
        self.gain.total_cmp(&other.gain).then_with(|| other.instant.cmp(&self.instant))
    }
}

/// Picks the user an instant is attributed to: the present user with the
/// most remaining budget (ties: smallest id). The keys are strict for
/// distinct users, so the result is independent of `users`' order.
///
/// # Panics
///
/// Panics if no user in `users` has budget left — callers must check
/// feasibility first.
pub(crate) fn attribute_user(users: &[UserId], remaining: &[usize]) -> UserId {
    *users
        .iter()
        .filter(|u| remaining[u.0] > 0)
        .max_by_key(|u| (remaining[u.0], std::cmp::Reverse(u.0)))
        .expect("feasibility was just checked")
}

/// Drains a CELF heap: pops the best bound, refreshes it when stale,
/// and commits it when exact, until no feasible instant is left.
/// Returns the committed actions in selection order.
///
/// Selection round 0 starts from `state` as given. An entry is exact
/// when its `round` equals the current round; anything else is a valid
/// upper bound that is re-evaluated on pop. `on_round0_gain(i, gain)`
/// sees every gain refreshed in round 0, i.e. evaluated against the
/// starting state before any commit. Feasibility (a present user with
/// budget left) only shrinks, so infeasible pops are dropped for good.
pub(crate) fn run(
    mut heap: BinaryHeap<Entry>,
    state: &mut CoverageState,
    users_at: &[Vec<UserId>],
    remaining: &mut [usize],
    stats: &mut GreedyStats,
    mut on_round0_gain: impl FnMut(usize, f64),
) -> Vec<SenseAction> {
    let mut round = 0usize;
    let mut actions = Vec::new();
    while let Some(top) = heap.pop() {
        stats.heap_pops += 1;
        let i = top.instant;
        if !users_at[i].iter().any(|u| remaining[u.0] > 0) {
            continue; // permanently infeasible: budgets never regrow
        }
        if top.round != round {
            // Stale bound: refresh and push back.
            let gain = state.marginal_gain(InstantId(i));
            stats.gain_evaluations += 1;
            stats.bound_reinserts += 1;
            if round == 0 {
                on_round0_gain(i, gain);
            }
            heap.push(Entry { gain, instant: i, round });
            continue;
        }
        // Exact and maximal: commit.
        let user = attribute_user(&users_at[i], remaining);
        remaining[user.0] -= 1;
        state.add(InstantId(i));
        actions.push(SenseAction { user, instant: i });
        round += 1;
        stats.iterations += 1;
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_orders_by_gain_then_earlier_instant() {
        let a = Entry { gain: 2.0, instant: 5, round: 0 };
        let b = Entry { gain: 1.0, instant: 0, round: 0 };
        assert!(a > b, "higher gain wins");
        let c = Entry { gain: 2.0, instant: 3, round: 7 };
        assert!(c > a, "equal gain: earlier instant wins, regardless of round");
    }

    #[test]
    fn attribution_prefers_budget_then_smallest_id() {
        let remaining = vec![2usize, 3, 3, 0];
        let users = vec![UserId(3), UserId(2), UserId(0), UserId(1)];
        // Budget 3 beats 2; among ids 1 and 2 (both budget 3), id 1 wins.
        assert_eq!(attribute_user(&users, &remaining), UserId(1));
        // Order independence.
        let shuffled = vec![UserId(1), UserId(0), UserId(3), UserId(2)];
        assert_eq!(attribute_user(&shuffled, &remaining), UserId(1));
    }
}
