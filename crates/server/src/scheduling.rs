//! The schedule stage: one online scheduler per application (§II-B's
//! Sensing Scheduler), and the saved state that lets a restarted server
//! plan exactly like one that never stopped.
//!
//! Every replan rewrites the application's row in [`SCHED_STATE_TABLE`]:
//! one bytes value holding the scheduler's grid, clock, participants (as
//! the scheduler holds them — a completion has already cut a departure
//! short), executed prefix and planned list in selection order. The row
//! rides in the commit that follows the replan, so it adds no commit
//! point. [`Scheduling::register`] restores that row with no replan.
//! Because the executed prefix grows in instant order (see
//! [`sor_core::schedule::online`]), the row saved at the last replan is
//! enough to rebuild the scheduler's state at any later clock, and the
//! restored scheduler plans bit for bit like the crash-free one. Gain
//! bounds and work counters are not saved: bounds only save work, so the
//! first replan after a restore evaluates every candidate and picks the
//! same plan.

use std::collections::BTreeMap;
use std::sync::Arc;

use sor_core::coverage::{CompositeCoverage, CoverageModel, GaussianCoverage};
use sor_core::matroid::SenseAction;
use sor_core::schedule::online::OnlineScheduler;
use sor_core::schedule::{GreedyStats, Participant, UserId};
use sor_core::time::TimeGrid;
use sor_core::CoreError;
use sor_obs::Recorder;
use sor_proto::wire::{Reader, Writer};
use sor_proto::ProtoError;
use sor_store::{ColumnType, Database, Predicate, Schema, Value};

use crate::application::ApplicationSpec;
use crate::user_info::USERS_TABLE;
use crate::ServerError;

/// Database table holding each application's saved scheduler state: one
/// `(app_id, state)` row, rewritten at every replan.
pub(crate) const SCHED_STATE_TABLE: &str = "sched_state";

/// The online schedulers, keyed by application id. Every arrival and
/// departure goes through here, so no replan escapes its saved row.
#[derive(Debug, Default)]
pub(crate) struct Scheduling {
    schedulers: BTreeMap<u64, OnlineScheduler>,
}

impl Scheduling {
    /// An empty stage (no application registered).
    pub(crate) fn new() -> Self {
        Scheduling::default()
    }

    /// Creates the saved-state table.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub(crate) fn install(db: &mut Database) -> Result<(), ServerError> {
        db.create_table(
            Schema::new(SCHED_STATE_TABLE)
                .column("app_id", ColumnType::Int)
                .column("state", ColumnType::Bytes),
        )?;
        db.create_index(SCHED_STATE_TABLE, "app_id")?;
        Ok(())
    }

    /// Builds an application's scheduler from its spec and restores its
    /// saved row, if it has one; without a row the scheduler starts
    /// empty. One schedule serves every feature of the application, so
    /// the coverage kernel is the equal-weight composite of the
    /// per-feature Gaussian σ kernels (§III: "different variance σ can
    /// be used to model different sensing features"). A changed feature
    /// list gives a new kernel over the same actions.
    ///
    /// # Errors
    ///
    /// [`ServerError::Core`] for a degenerate grid, and
    /// [`CoreError::DimensionMismatch`] for a saved grid that differs
    /// from the spec's, a saved instant outside the grid or a saved user
    /// that is not registered; [`ServerError::Decode`] for a saved row
    /// that does not decode; storage errors. On error the previous
    /// scheduler, if any, stays in place.
    pub(crate) fn register(
        &mut self,
        db: &Database,
        spec: &ApplicationSpec,
    ) -> Result<(), ServerError> {
        let grid = TimeGrid::new(0.0, spec.period_seconds, spec.instants)?;
        let sigmas: Vec<f64> =
            spec.features.iter().map(|f| f.sigma.max(1e-6)).filter(|s| s.is_finite()).collect();
        let model: Arc<dyn CoverageModel> = if sigmas.is_empty() {
            Arc::new(GaussianCoverage::new(10.0))
        } else {
            Arc::new(CompositeCoverage::of_sigmas(&sigmas))
        };
        let rows = db.scan(SCHED_STATE_TABLE, &app_key(spec.app_id))?;
        let saved = match rows.first().and_then(|r| r.values[1].as_bytes()) {
            Some(bytes) => SavedState::decode(bytes)?,
            None => SavedState::empty(&grid),
        };
        saved.check(&grid, db.table(USERS_TABLE)?.len())?;
        let scheduler = OnlineScheduler::restore(
            grid,
            model,
            saved.participants,
            saved.executed,
            saved.planned,
            saved.now,
        )?;
        self.schedulers.insert(spec.app_id, scheduler);
        Ok(())
    }

    /// A participant joins an application at their arrival time:
    /// replan, then save. The departure is clamped to the scheduling
    /// period.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownApplication`] without a registered
    /// scheduler; storage errors.
    pub(crate) fn arrive(
        &mut self,
        db: &mut Database,
        recorder: &Recorder,
        app_id: u64,
        p: Participant,
    ) -> Result<(), ServerError> {
        let sched =
            self.schedulers.get_mut(&app_id).ok_or(ServerError::UnknownApplication(app_id))?;
        let departure = p.departure.min(sched.grid().end());
        record_replan(recorder, sched.arrive(p.user, p.arrival, departure, p.budget));
        save(db, app_id, sched)
    }

    /// A user leaves an application at `now`: replan, then save. A no-op
    /// for an application with no scheduler.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub(crate) fn depart(
        &mut self,
        db: &mut Database,
        recorder: &Recorder,
        app_id: u64,
        user: UserId,
        now: f64,
    ) -> Result<(), ServerError> {
        let Some(sched) = self.schedulers.get_mut(&app_id) else {
            return Ok(());
        };
        record_replan(recorder, sched.depart(user, now));
        save(db, app_id, sched)
    }

    /// Advances every scheduler's clock to `now` (no replan, nothing to
    /// save: the executed prefix follows from the saved row).
    pub(crate) fn advance_to(&mut self, now: f64) {
        for sched in self.schedulers.values_mut() {
            if now > sched.now() {
                sched.advance_to(now);
            }
        }
    }

    /// One application's scheduler.
    pub(crate) fn scheduler(&self, app_id: u64) -> Option<&OnlineScheduler> {
        self.schedulers.get(&app_id)
    }
}

fn app_key(app_id: u64) -> Predicate {
    Predicate::eq("app_id", Value::Int(app_id as i64))
}

/// Replaces an application's saved row with its scheduler's state.
fn save(db: &mut Database, app_id: u64, sched: &OnlineScheduler) -> Result<(), ServerError> {
    db.delete_where(SCHED_STATE_TABLE, &app_key(app_id))?;
    db.insert(
        SCHED_STATE_TABLE,
        vec![Value::Int(app_id as i64), Value::Bytes(SavedState::of(sched).encode())],
    )?;
    Ok(())
}

/// Exports one replan's solver work: selection rounds, marginal-gain
/// evaluations and CELF heap traffic as counters, one
/// `sched.replans_run`, and one `sched.replan_gain_evaluations`
/// observation (zero included). Work counts, not wall time: the
/// deterministic cost measure of the scheduler.
fn record_replan(recorder: &Recorder, work: GreedyStats) {
    for (name, n) in [
        ("sched.iterations_run", work.iterations),
        ("sched.gain_evaluations", work.gain_evaluations),
        ("sched.heap_pops", work.heap_pops),
        ("sched.bounds_reinserted", work.bound_reinserts),
    ] {
        if n > 0 {
            recorder.count(name, n);
        }
    }
    recorder.count("sched.replans_run", work.replans);
    recorder.observe("sched.replan_gain_evaluations", work.gain_evaluations as f64);
}

/// One application's scheduler state as saved in its row.
#[derive(Debug, PartialEq)]
struct SavedState {
    /// Grid start, end and instant count, checked against the spec.
    grid: (f64, f64, usize),
    now: f64,
    participants: Vec<Participant>,
    executed: Vec<SenseAction>,
    planned: Vec<SenseAction>,
}

impl SavedState {
    /// The state of a scheduler nothing has happened to yet.
    fn empty(grid: &TimeGrid) -> Self {
        SavedState {
            grid: (grid.start(), grid.end(), grid.len()),
            now: grid.start(),
            participants: Vec::new(),
            executed: Vec::new(),
            planned: Vec::new(),
        }
    }

    /// A scheduler's current state.
    fn of(sched: &OnlineScheduler) -> Self {
        let grid = sched.grid();
        SavedState {
            grid: (grid.start(), grid.end(), grid.len()),
            now: sched.now(),
            participants: sched.participants().to_vec(),
            executed: sched.executed().to_vec(),
            planned: sched.planned().to_vec(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let (start, end, n) = self.grid;
        let mut w = Writer::new();
        w.put_f64(start);
        w.put_f64(end);
        w.put_uvar(n as u64);
        w.put_f64(self.now);
        w.put_uvar(self.participants.len() as u64);
        for p in &self.participants {
            w.put_uvar(p.user.0 as u64);
            w.put_f64(p.arrival);
            w.put_f64(p.departure);
            w.put_uvar(p.budget as u64);
        }
        for actions in [&self.executed, &self.planned] {
            w.put_uvar(actions.len() as u64);
            for a in actions {
                w.put_uvar(a.user.0 as u64);
                w.put_uvar(a.instant as u64);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(bytes);
        let grid = (r.get_f64()?, r.get_f64()?, get_usize(&mut r)?);
        let now = r.get_f64()?;
        let count = r.get_uvar()?;
        // Counts come from disk: reserve no more than the bytes left.
        let mut participants = Vec::with_capacity((count as usize).min(r.remaining()));
        for _ in 0..count {
            let user = UserId(get_usize(&mut r)?);
            let (arrival, departure) = (r.get_f64()?, r.get_f64()?);
            participants.push(Participant::new(user, arrival, departure, get_usize(&mut r)?));
        }
        let executed = decode_actions(&mut r)?;
        let planned = decode_actions(&mut r)?;
        if r.remaining() != 0 {
            return Err(ProtoError::TrailingBytes(r.remaining()));
        }
        Ok(SavedState { grid, now, participants, executed, planned })
    }

    /// The saved grid must be the one the spec builds, and every saved
    /// user one of the `users` registered (user ids size the
    /// scheduler's budget table). Instants are checked by
    /// [`OnlineScheduler::restore`].
    fn check(&self, grid: &TimeGrid, users: usize) -> Result<(), CoreError> {
        let (start, end, n) = self.grid;
        let mismatch =
            |expected, actual, what| Err(CoreError::DimensionMismatch { expected, actual, what });
        if n != grid.len() {
            return mismatch(grid.len(), n, "grid instants");
        }
        for (want, got, what) in [
            (grid.start(), start, "grid start (f64 bits)"),
            (grid.end(), end, "grid end (f64 bits)"),
        ] {
            if want.to_bits() != got.to_bits() {
                return mismatch(want.to_bits() as usize, got.to_bits() as usize, what);
            }
        }
        let actions = self.executed.iter().chain(&self.planned);
        let saved_users = self.participants.iter().map(|p| p.user).chain(actions.map(|a| a.user));
        match saved_users.max() {
            Some(u) if u.0 >= users => mismatch(users, u.0.saturating_add(1), "registered users"),
            _ => Ok(()),
        }
    }
}

fn decode_actions(r: &mut Reader<'_>) -> Result<Vec<SenseAction>, ProtoError> {
    let count = r.get_uvar()?;
    let mut actions = Vec::with_capacity((count as usize).min(r.remaining()));
    for _ in 0..count {
        let user = UserId(get_usize(r)?);
        actions.push(SenseAction { user, instant: get_usize(r)? });
    }
    Ok(actions)
}

fn get_usize(r: &mut Reader<'_>) -> Result<usize, ProtoError> {
    usize::try_from(r.get_uvar()?).map_err(|_| ProtoError::VarintOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{Extractor, FeatureSpec};
    use crate::user_info::UserInfoManager;

    fn spec(period_seconds: f64, instants: usize) -> ApplicationSpec {
        ApplicationSpec {
            app_id: 1,
            name: "cafe".into(),
            creator: "owner".into(),
            category: "coffee-shop".into(),
            latitude: 43.05,
            longitude: -76.15,
            radius_m: 150.0,
            script: "get_temperature_readings(3)".into(),
            period_seconds,
            instants,
            features: vec![FeatureSpec::new("t", "", Extractor::Mean { sensor: 1 }, 60.0)],
        }
    }

    /// A database whose application 1 has saved state: two arrivals, a
    /// clock step and a departure, by registered users 0 and 1.
    fn saved_db() -> Database {
        let mut db = Database::new();
        Scheduling::install(&mut db).unwrap();
        UserInfoManager::install(&mut db).unwrap();
        for token in [70, 80] {
            UserInfoManager.register(&mut db, token, "participant").unwrap();
        }
        let mut stage = Scheduling::new();
        stage.register(&db, &spec(3600.0, 360)).unwrap();
        let rec = Recorder::disabled();
        stage.arrive(&mut db, &rec, 1, Participant::new(UserId(0), 0.0, 1800.0, 6)).unwrap();
        stage.arrive(&mut db, &rec, 1, Participant::new(UserId(1), 300.0, 5000.0, 4)).unwrap();
        stage.advance_to(900.0);
        stage.depart(&mut db, &rec, 1, UserId(0), 1000.0).unwrap();
        db
    }

    fn saved_bytes(db: &Database) -> Vec<u8> {
        let rows = db.scan(SCHED_STATE_TABLE, &app_key(1)).unwrap();
        assert_eq!(rows.len(), 1, "one row per application");
        rows[0].values[1].as_bytes().unwrap().to_vec()
    }

    fn overwrite(db: &mut Database, bytes: Vec<u8>) {
        db.delete_where(SCHED_STATE_TABLE, &app_key(1)).unwrap();
        db.insert(SCHED_STATE_TABLE, vec![Value::Int(1), Value::Bytes(bytes)]).unwrap();
    }

    #[test]
    fn saved_state_roundtrips_and_restores_the_plan() {
        let db = saved_db();
        let saved = SavedState::decode(&saved_bytes(&db)).unwrap();
        assert_eq!(SavedState::decode(&saved.encode()).unwrap(), saved);
        // The completion cut user 0's departure short; the row keeps it.
        assert_eq!(saved.participants[0].departure, 1000.0);
        assert!(!saved.executed.is_empty() && !saved.planned.is_empty());
        let mut stage = Scheduling::new();
        stage.register(&db, &spec(3600.0, 360)).unwrap();
        let restored = stage.scheduler(1).unwrap();
        assert_eq!(SavedState::of(restored), saved);
    }

    #[test]
    fn truncated_state_is_a_decode_error() {
        let mut db = saved_db();
        let bytes = saved_bytes(&db);
        for len in [0, 7, 25, bytes.len() - 1] {
            overwrite(&mut db, bytes[..len].to_vec());
            let err = Scheduling::new().register(&db, &spec(3600.0, 360)).unwrap_err();
            assert!(matches!(err, ServerError::Decode(_)), "{len} bytes: {err:?}");
        }
        let mut longer = bytes;
        longer.push(0);
        overwrite(&mut db, longer);
        let err = Scheduling::new().register(&db, &spec(3600.0, 360)).unwrap_err();
        assert_eq!(err, ServerError::Decode(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn instant_past_the_grid_is_a_dimension_mismatch() {
        let mut db = saved_db();
        let good = SavedState::decode(&saved_bytes(&db)).unwrap();
        for (in_executed, instant) in [(true, 360), (false, 360), (false, usize::MAX)] {
            let mut bad = SavedState::decode(&good.encode()).unwrap();
            let list = if in_executed { &mut bad.executed } else { &mut bad.planned };
            list[0].instant = instant;
            overwrite(&mut db, bad.encode());
            let err = Scheduling::new().register(&db, &spec(3600.0, 360)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ServerError::Core(CoreError::DimensionMismatch {
                        expected: 360,
                        what: "grid instants",
                        ..
                    })
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn unregistered_user_is_a_dimension_mismatch() {
        let mut db = saved_db();
        let mut bad = SavedState::decode(&saved_bytes(&db)).unwrap();
        bad.participants[1].user = UserId(1 << 40);
        overwrite(&mut db, bad.encode());
        let err = Scheduling::new().register(&db, &spec(3600.0, 360)).unwrap_err();
        let want = CoreError::DimensionMismatch {
            expected: 2,
            actual: (1 << 40) + 1,
            what: "registered users",
        };
        assert_eq!(err, ServerError::Core(want));
    }

    #[test]
    fn a_changed_grid_is_a_dimension_mismatch() {
        let db = saved_db();
        let mut stage = Scheduling::new();
        stage.register(&db, &spec(3600.0, 360)).unwrap();
        for changed in [spec(3600.0, 180), spec(7200.0, 360)] {
            let err = stage.register(&db, &changed).unwrap_err();
            assert!(
                matches!(err, ServerError::Core(CoreError::DimensionMismatch { .. })),
                "{err:?}"
            );
        }
        // The failed re-registrations left the restored scheduler alone.
        let kept = stage.scheduler(1).unwrap();
        assert_eq!(SavedState::of(kept), SavedState::decode(&saved_bytes(&db)).unwrap());
    }
}
