//! The sensing-server facade: one object wiring every Fig. 5 component.

use std::collections::BTreeMap;

use sor_core::schedule::{Participant, UserId};
use sor_core::UserPreferences;
use sor_durable::{DurableDatabase, DurableOptions, RecoveryReport, Storage};
use sor_obs::{Recorder, SpaceSaving, SpanId};
use sor_proto::{Message, TraceContext};
use sor_script::analysis::{analyze, CapabilitySet, DiagnosticCode};
use sor_store::{ColumnType, Database, Predicate, Schema, Value};

use crate::application::{ApplicationManager, ApplicationSpec};
use crate::cache::RankCache;
use crate::participation::{ParticipantStatus, ParticipationManager};
use crate::processor::{DataProcessor, FeatureState};
use crate::ranker::{rank_category, CategoryRanking};
use crate::scheduling::Scheduling;
use crate::user_info::UserInfoManager;
use crate::ServerError;

/// Database table holding distributed schedules (§II-B).
pub const SCHEDULES_TABLE: &str = "schedules";

/// Database table persisting participation tasks, so admissions and
/// status transitions survive a server crash.
pub const TASKS_TABLE: &str = "tasks";

/// Slot budget for the server's heavy-hitter sketches — O(k) memory
/// regardless of how many places or scripts the deployment serves.
pub const TOPK_SLOTS: usize = 8;

/// The sensing server.
pub struct SensingServer {
    db: DurableDatabase,
    users: UserInfoManager,
    apps: ApplicationManager,
    participation: ParticipationManager,
    processor: DataProcessor,
    /// The Data Processor's running per-(application, feature) state.
    feature_state: FeatureState,
    /// The schedule stage: one online scheduler per application, each
    /// saved to the database at every replan.
    scheduling: Scheduling,
    /// Last time each device token was heard from (liveness, §II-A's
    /// Google-Cloud-Messaging fallback).
    last_contact: BTreeMap<u64, f64>,
    now: f64,
    recorder: Recorder,
    /// Cached rankings of the current features epoch.
    rank_cache: RankCache,
    /// Bumped by every Data Processor pass and every registration,
    /// which clears `rank_cache` (see [`Self::next_features_epoch`]).
    features_epoch: u64,
    /// Seconds after a task's first planned sense time within which its
    /// first upload must arrive to count as an on-time ack (SLO
    /// `ack_hit_rate`).
    ack_deadline: f64,
    /// Tasks whose first upload has not arrived yet → their first
    /// planned sense time.
    pending_acks: BTreeMap<u64, f64>,
    /// Tasks whose first upload was already measured (so a replan does
    /// not re-arm the ack timer).
    acked: std::collections::BTreeSet<u64>,
    /// Last distributed sense times per task (replaced on replan).
    planned: BTreeMap<u64, Vec<f64>>,
    /// Planned instants from superseded plans that were already in the
    /// past when replaced — they stay in the coverage denominator.
    planned_past_retired: u64,
    /// Uploads accepted into the inbox (coverage numerator).
    uploads_accepted: u64,
    /// The most recent `processor.commit` span — the causal parent for
    /// rank work until the next inbox drain.
    last_commit_span: SpanId,
    /// O(k) heavy-hitter sketch over upload traffic per place
    /// (`app<id>` keys) — which places are hottest, at any user count.
    topk_uploads: SpaceSaving,
    /// O(k) heavy-hitter sketch over schedule dispatches per
    /// application — which scripts the fleet runs most.
    topk_dispatches: SpaceSaving,
}

impl std::fmt::Debug for SensingServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensingServer")
            .field("now", &self.now)
            .field("applications", &self.apps.ids())
            .finish()
    }
}

impl SensingServer {
    /// A fresh server with empty in-memory storage (no durability —
    /// the default for tests and crash-free simulations).
    ///
    /// # Errors
    ///
    /// Storage errors during table installation.
    pub fn new() -> Result<Self, ServerError> {
        Self::assemble(DurableDatabase::ephemeral(), 0.0)
    }

    /// Opens a server on durable storage, running crash recovery: the
    /// latest checkpoint is restored, the write-ahead log replayed, and
    /// participation state rebuilt from the persisted tasks table. The
    /// caller re-registers applications (configuration, not data) with
    /// [`SensingServer::register_application`], which restores each
    /// application's scheduler from the state saved at its last replan,
    /// without replanning. `now` is the clock to resume at (the crash
    /// instant in simulations).
    ///
    /// # Errors
    ///
    /// Durability errors from recovery, storage errors from first-boot
    /// table installation.
    pub fn durable(
        storage: Box<dyn Storage>,
        opts: DurableOptions,
        recorder: Recorder,
        now: f64,
    ) -> Result<(Self, RecoveryReport), ServerError> {
        let (ddb, report) = DurableDatabase::open(storage, opts, recorder.clone(), now)?;
        let mut server = Self::assemble(ddb, now)?;
        server.set_recorder(recorder);
        // First boot: make the installed tables durable before serving.
        server.db.commit()?;
        Ok((server, report))
    }

    /// Builds the server around a (possibly recovered) database,
    /// installing the table set on first boot and rebuilding the
    /// participation manager from the persisted tasks table.
    fn assemble(mut db: DurableDatabase, now: f64) -> Result<Self, ServerError> {
        if db.db().table_names().is_empty() {
            Self::install_tables(db.db_mut())?;
        }
        let participation = Self::load_tasks(db.db())?;
        Ok(SensingServer {
            db,
            users: UserInfoManager,
            apps: ApplicationManager::new(),
            participation,
            processor: DataProcessor,
            feature_state: FeatureState::new(),
            scheduling: Scheduling::new(),
            last_contact: BTreeMap::new(),
            now,
            recorder: Recorder::disabled(),
            rank_cache: RankCache::new(),
            features_epoch: 0,
            ack_deadline: 120.0,
            pending_acks: BTreeMap::new(),
            acked: std::collections::BTreeSet::new(),
            planned: BTreeMap::new(),
            planned_past_retired: 0,
            uploads_accepted: 0,
            last_commit_span: SpanId::NONE,
            topk_uploads: SpaceSaving::new(TOPK_SLOTS),
            topk_dispatches: SpaceSaving::new(TOPK_SLOTS),
        })
    }

    fn install_tables(db: &mut Database) -> Result<(), ServerError> {
        UserInfoManager::install(db)?;
        DataProcessor::install(db)?;
        // §II-B: distributed schedules are also stored in the database.
        db.create_table(
            Schema::new(SCHEDULES_TABLE)
                .column("task_id", ColumnType::Int)
                .column("token", ColumnType::Int)
                .column("sense_time", ColumnType::Float),
        )?;
        db.create_index(SCHEDULES_TABLE, "task_id")?;
        db.create_table(
            Schema::new(TASKS_TABLE)
                .column("task_id", ColumnType::Int)
                .column("app_id", ColumnType::Int)
                .column("token", ColumnType::Int)
                .column("budget", ColumnType::Int)
                .column("arrival", ColumnType::Float)
                .column("departure", ColumnType::Float)
                .column("status", ColumnType::Int),
        )?;
        db.create_index(TASKS_TABLE, "task_id")?;
        Scheduling::install(db)?;
        Ok(())
    }

    /// Rebuilds the in-memory participation manager from the tasks
    /// table (identity on a fresh database).
    fn load_tasks(db: &Database) -> Result<ParticipationManager, ServerError> {
        let rows = db.scan(TASKS_TABLE, &Predicate::True)?;
        let mut tasks = Vec::with_capacity(rows.len());
        for r in rows {
            let v = &r.values;
            tasks.push(crate::participation::ParticipantTask {
                task_id: v[0].as_int().unwrap_or(0) as u64,
                app_id: v[1].as_int().unwrap_or(0) as u64,
                token: v[2].as_int().unwrap_or(0) as u64,
                budget: v[3].as_int().unwrap_or(0) as u32,
                arrival: v[4].as_float().unwrap_or(0.0),
                departure: v[5].as_float().unwrap_or(f64::INFINITY),
                status: ParticipantStatus::from_wire_code(v[6].as_int().unwrap_or(-1))
                    .unwrap_or(ParticipantStatus::Error),
            });
        }
        Ok(ParticipationManager::rebuild(tasks))
    }

    /// Mirrors one task's current state into the tasks table.
    fn persist_task(&mut self, task_id: u64) -> Result<(), ServerError> {
        let Some(t) = self.participation.task(task_id) else {
            return Ok(());
        };
        let row = vec![
            Value::Int(t.task_id as i64),
            Value::Int(t.app_id as i64),
            Value::Int(t.token as i64),
            Value::Int(t.budget as i64),
            Value::Float(t.arrival),
            Value::Float(t.departure),
            Value::Int(t.status.wire_code()),
        ];
        let db = self.db.db_mut();
        db.delete_where(TASKS_TABLE, &Predicate::eq("task_id", Value::Int(task_id as i64)))?;
        db.insert(TASKS_TABLE, row)?;
        Ok(())
    }

    /// Attaches an observability recorder (also wired into the
    /// database so row traffic is counted). Span names and counters are
    /// catalogued in DESIGN.md's Observability section.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.db.db_mut().set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Current server clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Read access to the database (reports, tests).
    pub fn database(&self) -> &Database {
        self.db.db()
    }

    /// The durability wrapper (crash tests, shutdown hooks).
    pub fn durable_database(&mut self) -> &mut DurableDatabase {
        &mut self.db
    }

    /// The application registry.
    pub fn applications(&self) -> &ApplicationManager {
        &self.apps
    }

    /// The participation manager.
    pub fn participation(&self) -> &ParticipationManager {
        &self.participation
    }

    /// Registers an application and builds its scheduler. An
    /// application that already has saved scheduler state (a recovered
    /// server, or a live re-registration) gets it back exactly, with no
    /// replan, so it keeps planning as if nothing had happened. It also
    /// advances the features epoch: a ranking reads the registry (place
    /// names, category membership, feature list), so no cached ranking
    /// outlives a registration.
    ///
    /// # Errors
    ///
    /// Core errors for a degenerate grid configuration, or for saved
    /// state whose grid differs from the spec's or that names an instant
    /// outside it; decode errors for saved state that does not decode.
    pub fn register_application(&mut self, spec: ApplicationSpec) -> Result<(), ServerError> {
        self.scheduling.register(self.db.db(), &spec)?;
        // The feature list may have changed; the next pass rebuilds the
        // running state from the stored records.
        self.feature_state.forget(spec.app_id);
        self.apps.register(spec);
        self.next_features_epoch();
        Ok(())
    }

    /// Advances the features epoch and drops every cached ranking,
    /// which all belong to the epoch just ended.
    fn next_features_epoch(&mut self) {
        self.features_epoch += 1;
        self.rank_cache.clear();
    }

    /// Advances the server clock: departure sweep plus scheduler time.
    pub fn tick(&mut self, now: f64) {
        assert!(now >= self.now, "server time went backwards");
        self.now = now;
        let gone = self.participation.sweep_departures(now);
        for task_id in gone {
            // The tables exist by construction, so mirroring the status
            // change cannot fail.
            self.persist_task(task_id).expect("tasks table installed");
            let task = self.participation.task(task_id).expect("just swept");
            let (app_id, token) = (task.app_id, task.token);
            if let Ok(Some(user)) = self.users.by_token(self.db.db(), token) {
                let user = UserId(user.user_id as usize);
                self.scheduling
                    .depart(self.db.db_mut(), &self.recorder, app_id, user, now)
                    .expect("sched_state table installed");
            }
        }
        self.scheduling.advance_to(now);
    }

    /// Pipeline bookkeeping for one accepted upload: the coverage
    /// numerator, and — on a task's *first* upload — the ack-deadline
    /// measurement against its first planned sense time.
    fn note_upload(&mut self, task_id: u64, app_id: u64) {
        self.uploads_accepted += 1;
        self.recorder.count("pipeline.uploads_accepted", 1);
        if self.recorder.is_enabled() {
            self.topk_uploads.offer(&format!("app{app_id}"), 1);
        }
        if let Some(first_planned) = self.pending_acks.remove(&task_id) {
            self.acked.insert(task_id);
            self.recorder.count("pipeline.acks_measured", 1);
            if self.now <= first_planned + self.ack_deadline {
                self.recorder.count("pipeline.acks_on_time", 1);
            }
        }
    }

    /// Planned sense instants at or before `now`, across current plans
    /// and the already-past portion of superseded ones — the coverage
    /// denominator.
    fn planned_past(&self, now: f64) -> u64 {
        let live: u64 =
            self.planned.values().map(|ts| ts.iter().filter(|&&t| t <= now).count() as u64).sum();
        self.planned_past_retired + live
    }

    /// Publishes the realized-coverage gauge: accepted uploads over
    /// planned instants that have come due. The world's periodic health
    /// events call this right before grading SLOs.
    pub fn update_health_gauges(&mut self) {
        if !self.recorder.is_enabled() {
            return;
        }
        let due = self.planned_past(self.now);
        let ratio =
            if due == 0 { 1.0 } else { (self.uploads_accepted as f64 / due as f64).min(1.0) };
        self.recorder.gauge("pipeline.coverage_realized_ratio", ratio);
        // Export the heavy-hitter sketches as bounded gauge families —
        // at most `TOPK_SLOTS` gauges each, however many places exist.
        for e in self.topk_uploads.entries() {
            self.recorder.gauge(&format!("server.topk_uploads.{}", e.key), e.count as f64);
        }
        for e in self.topk_dispatches.entries() {
            self.recorder.gauge(&format!("server.topk_dispatches.{}", e.key), e.count as f64);
        }
    }

    /// The upload heavy-hitter sketch (hot places, O(k) memory).
    pub fn topk_uploads(&self) -> &SpaceSaving {
        &self.topk_uploads
    }

    /// The dispatch heavy-hitter sketch (hot scripts, O(k) memory).
    pub fn topk_dispatches(&self) -> &SpaceSaving {
        &self.topk_dispatches
    }

    /// Handles one decoded message from a phone, returning the replies
    /// to send (each tagged with the destination token).
    ///
    /// # Errors
    ///
    /// Application/participation/storage errors. A location-mismatch on
    /// admission is an error the caller may surface to the phone.
    pub fn handle_message(&mut self, msg: &Message) -> Result<Vec<(u64, Message)>, ServerError> {
        self.handle_message_ctx(msg, None)
            .map(|out| out.into_iter().map(|(token, m, _)| (token, m)).collect())
    }

    /// [`SensingServer::handle_message`] with the causal context the
    /// frame arrived with: the handler span hangs off the sender's span
    /// (the phone's `script.run` for uploads), and every outgoing reply
    /// carries a context rooted at the span that produced it.
    ///
    /// # Errors
    ///
    /// Same as [`SensingServer::handle_message`].
    pub fn handle_message_ctx(
        &mut self,
        msg: &Message,
        ctx: Option<TraceContext>,
    ) -> Result<Vec<(u64, Message, Option<TraceContext>)>, ServerError> {
        let kind = message_kind(msg);
        let span = match ctx {
            Some(c) => {
                let s = self.recorder.span_start_with_parent(
                    "server.handle_message",
                    self.now,
                    SpanId(c.parent_span),
                );
                self.recorder.span_attr_with(s, "trace_id", || c.trace_id.to_string());
                s
            }
            None => self.recorder.span_start("server.handle_message", self.now),
        };
        self.recorder.span_attr(span, "kind", kind);
        self.recorder.count_labeled("server.msg_received", kind, 1);
        let result = self.dispatch_message(msg, ctx, span);
        if result.is_err() {
            self.recorder.count_labeled("server.msg_rejected", kind, 1);
        }
        // Durability point: everything this message changed is in the
        // write-ahead log before the reply (the ack) leaves the server.
        let committed = self.db.commit();
        self.recorder.span_end(span, self.now);
        match (result, committed) {
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e.into()),
            (Ok(out), Ok(())) => Ok(out),
        }
    }

    fn dispatch_message(
        &mut self,
        msg: &Message,
        ctx: Option<TraceContext>,
        span: SpanId,
    ) -> Result<Vec<(u64, Message, Option<TraceContext>)>, ServerError> {
        if let Some(token) = message_token(msg, &self.participation) {
            self.last_contact.insert(token, self.now);
        }
        match msg {
            Message::ParticipationRequest {
                token,
                app_id,
                latitude,
                longitude,
                budget,
                stay_seconds,
            } => self.handle_participation(
                *token,
                *app_id,
                *latitude,
                *longitude,
                *budget,
                *stay_seconds,
            ),
            Message::SensedDataUpload { task_id, .. } => {
                let task =
                    self.participation.task(*task_id).ok_or(ServerError::UnknownTask(*task_id))?;
                let app_id = task.app_id;
                self.note_upload(*task_id, app_id);
                // "directly store the binary message body into the
                // database, which will be processed later". The handler
                // span is spliced into the stored frame so the eventual
                // `processor.commit` hangs off *this* receipt, however
                // long the blob sits in the inbox.
                let stored = msg.encode_traced(ctx.map(|c| c.child(span.0)));
                self.processor.enqueue_raw(self.db.db_mut(), app_id, self.now, &stored)?;
                Ok(Vec::new())
            }
            Message::TaskComplete { task_id, status } => {
                let Some(task) = self.participation.task_mut(*task_id) else {
                    return Err(ServerError::UnknownTask(*task_id));
                };
                task.status = if *status == 0 {
                    ParticipantStatus::Finished
                } else {
                    ParticipantStatus::Error
                };
                let app_id = task.app_id;
                let token = task.token;
                let now = self.now;
                self.persist_task(*task_id)?;
                if let Ok(Some(user)) = self.users.by_token(self.db.db(), token) {
                    let user = UserId(user.user_id as usize);
                    self.scheduling.depart(self.db.db_mut(), &self.recorder, app_id, user, now)?;
                }
                Ok(Vec::new())
            }
            Message::Ping { .. } | Message::PreferenceUpdate { .. } => Ok(Vec::new()),
            Message::ScheduleAssignment { .. } | Message::WakeUp { .. } => Ok(Vec::new()),
        }
    }

    fn handle_participation(
        &mut self,
        token: u64,
        app_id: u64,
        latitude: f64,
        longitude: f64,
        budget: u32,
        stay_seconds: f64,
    ) -> Result<Vec<(u64, Message, Option<TraceContext>)>, ServerError> {
        let app = self.apps.get(app_id).ok_or(ServerError::UnknownApplication(app_id))?.clone();
        // Pre-dispatch verification (§II-A's whitelist, enforced
        // statically): a script with error-severity findings fails on
        // every phone, so the task is rejected now — before a user is
        // registered, a task slot is allocated, or the scheduler
        // replans for an arrival that can never produce data.
        let verdict = analyze(&app.script, &CapabilitySet::standard_sensing());
        if verdict.has_errors() {
            self.recorder.count("server.scripts_rejected", 1);
            // Privacy policy: taint findings (a raw high-sensitivity
            // sensor stream reaching the task's return sink) are
            // tracked separately from plain broken scripts — they are
            // the rejections §II-A's whitelist alone cannot catch.
            if verdict.errors().any(|d| d.code == DiagnosticCode::TaintedReturn) {
                self.recorder.count("server.scripts_rejected_privacy", 1);
            }
            return Err(ServerError::ScriptRejected {
                app_id,
                report: verdict.render(&format!("app-{app_id}")),
            });
        }
        self.recorder.count("server.admissions_accepted", 1);
        let user = self.users.register(self.db.db_mut(), token, "participant")?;
        let task = self.participation.admit(
            &app,
            token,
            latitude,
            longitude,
            budget,
            self.now,
            stay_seconds,
        )?;
        let departure = task.departure;
        let task_id = task.task_id;
        self.persist_task(task_id)?;
        let participant =
            Participant::new(UserId(user.user_id as usize), self.now, departure, budget as usize);
        self.scheduling.arrive(self.db.db_mut(), &self.recorder, app_id, participant)?;
        // Distribute updated schedules to every active participant of
        // this application (§II-B: "will also distribute the calculated
        // schedules along with the corresponding Lua scripts").
        self.distribute_schedules(app_id)
    }

    /// Builds ScheduleAssignment messages for all active tasks of one
    /// application from the scheduler's current plan. Each assignment
    /// gets its own `server.task_dispatch` span and rides out with a
    /// [`TraceContext`] rooted at it (`trace_id` = task id + 1), the
    /// root of that task's cross-device causal tree.
    fn distribute_schedules(
        &mut self,
        app_id: u64,
    ) -> Result<Vec<(u64, Message, Option<TraceContext>)>, ServerError> {
        let span = self.recorder.span_start("server.distribute_schedules", self.now);
        let result = self.distribute_schedules_inner(app_id, span);
        if let Ok(out) = &result {
            self.recorder.count("server.schedules_distributed", out.len() as u64);
            self.recorder.span_attr_with(span, "assignments", || out.len().to_string());
            if self.recorder.is_enabled() && !out.is_empty() {
                self.topk_dispatches.offer(&format!("app{app_id}"), out.len() as u64);
            }
        }
        self.recorder.span_end(span, self.now);
        result
    }

    fn distribute_schedules_inner(
        &mut self,
        app_id: u64,
        parent: SpanId,
    ) -> Result<Vec<(u64, Message, Option<TraceContext>)>, ServerError> {
        let app = self.apps.get(app_id).ok_or(ServerError::UnknownApplication(app_id))?.clone();
        let sched =
            self.scheduling.scheduler(app_id).ok_or(ServerError::UnknownApplication(app_id))?;
        let plan = sched.current_schedule();
        let grid = *sched.grid();
        let mut out = Vec::new();
        let active: Vec<(u64, u64)> =
            self.participation.active_for(app_id).iter().map(|t| (t.task_id, t.token)).collect();
        for (task_id, token) in active {
            let user = self
                .users
                .by_token(self.db.db(), token)?
                .ok_or(ServerError::UnknownTask(task_id))?;
            let times: Vec<f64> = plan
                .for_user(UserId(user.user_id as usize))
                .into_iter()
                .map(|i| grid.time_of(i))
                .filter(|&t| t > self.now) // only future readings travel
                .collect();
            if let Some(t) = self.participation.task_mut(task_id) {
                t.status = ParticipantStatus::Running;
            }
            self.persist_task(task_id)?;
            // Replace this task's stored schedule with the new plan.
            self.db.db_mut().delete_where(
                SCHEDULES_TABLE,
                &Predicate::eq("task_id", Value::Int(task_id as i64)),
            )?;
            for &t in &times {
                self.db.db_mut().insert(
                    SCHEDULES_TABLE,
                    vec![Value::Int(task_id as i64), Value::Int(token as i64), Value::Float(t)],
                )?;
            }
            // Coverage bookkeeping: instants of the superseded plan
            // that were already due stay in the denominator.
            if let Some(old) = self.planned.remove(&task_id) {
                self.planned_past_retired += old.iter().filter(|&&t| t <= self.now).count() as u64;
            }
            if !self.acked.contains(&task_id) {
                if let Some(first) = times.iter().copied().reduce(f64::min) {
                    self.pending_acks.entry(task_id).or_insert(first);
                }
            }
            self.planned.insert(task_id, times.clone());
            // With the recorder off no context travels, so untraced
            // wire frames stay byte-identical to the legacy encoding.
            let ctx = if self.recorder.is_enabled() {
                let trace_id = task_id + 1;
                let dispatch =
                    self.recorder.span_start_with_parent("server.task_dispatch", self.now, parent);
                self.recorder.span_attr_with(dispatch, "task", || task_id.to_string());
                self.recorder.span_attr_with(dispatch, "trace_id", || trace_id.to_string());
                self.recorder.span_end(dispatch, self.now);
                Some(TraceContext { trace_id, parent_span: dispatch.0 })
            } else {
                None
            };
            out.push((
                token,
                Message::ScheduleAssignment {
                    task_id,
                    script: app.script.clone(),
                    sense_times: times,
                },
                ctx,
            ));
        }
        Ok(out)
    }

    /// Runs the Data Processor pass: decode the inbox, fold the new
    /// records into the running feature state, and rewrite every
    /// application's features from it. Returns (records stored, blobs
    /// dropped).
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn process_data(&mut self) -> Result<(usize, usize), ServerError> {
        let span = self.recorder.span_start("server.process_data", self.now);
        let decode = self.recorder.span_start("server.process_data.decode", self.now);
        let outcome = match self.processor.process_inbox_traced(
            self.db.db_mut(),
            &mut self.feature_state,
            &self.recorder,
            self.now,
        ) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.recorder.span_end(span, self.now);
                return Err(e);
            }
        };
        if outcome.last_commit_span.is_real() {
            self.last_commit_span = outcome.last_commit_span;
        }
        let (stored, dropped) = (outcome.stored, outcome.dropped);
        self.recorder.count("server.records_stored", stored as u64);
        self.recorder.count("server.inbox_dropped", dropped as u64);
        self.recorder.span_attr_with(decode, "records", || stored.to_string());
        self.recorder.span_end(decode, self.now);

        let features = self.recorder.span_start("server.process_data.features", self.now);
        for app_id in self.apps.ids() {
            let specs = &self.apps.get(app_id).expect("listed").features;
            // Missing features are fine mid-experiment.
            match self.feature_state.write_features(self.db.db_mut(), app_id, specs) {
                Ok(failures) => {
                    self.recorder
                        .count("server.features_computed", (specs.len() - failures.len()) as u64);
                    self.recorder.count("server.features_skipped", failures.len() as u64);
                }
                Err(e) => {
                    self.recorder.span_end(span, self.now);
                    return Err(e);
                }
            }
        }
        self.recorder.span_end(features, self.now);
        // The features table (potentially) changed: no cached ranking
        // from before this pass is current.
        self.next_features_epoch();
        // Decoded records and features are derived data, but committing
        // them means recovery does not have to re-run the processor.
        self.db.commit()?;
        self.recorder.span_end(span, self.now);
        Ok((stored, dropped))
    }

    /// Starts a pipeline-stage span hanging off the most recent
    /// `processor.commit` (root when no traced blob has committed yet),
    /// closing the dispatch → run → upload → commit → rank chain.
    fn pipeline_span(&self, name: &str) -> SpanId {
        if self.last_commit_span.is_real() {
            self.recorder.span_start_with_parent(name, self.now, self.last_commit_span)
        } else {
            self.recorder.span_start(name, self.now)
        }
    }

    /// Ranks the places of one category for one user (§IV). Answers
    /// from the [`RankCache`] when neither the features table nor the
    /// registry has changed since the same (category, preferences)
    /// request was last computed: O(1), since the answer shares the
    /// cached matrix, outcome and place names, instead of a full matrix
    /// assembly + Algorithm 2 run.
    ///
    /// # Errors
    ///
    /// Ranking/assembly errors.
    pub fn rank(
        &self,
        category: &str,
        prefs: &UserPreferences,
    ) -> Result<CategoryRanking, ServerError> {
        let span = self.pipeline_span("server.rank");
        self.recorder.span_attr(span, "category", category);
        self.recorder.count("server.rank_requests", 1);
        let key = RankCache::fingerprint(category, prefs);
        let result = match self.rank_cache.lookup(key, category, prefs) {
            Some(cached) => {
                self.recorder.count("server.rank_cache_hits", 1);
                Ok(cached)
            }
            None => {
                self.recorder.count("server.rank_cache_misses", 1);
                let fresh = rank_category(self.db.db(), &self.apps, category, prefs);
                if let Ok(ranking) = &fresh {
                    self.rank_cache.store(key, category, prefs, ranking.clone());
                }
                fresh
            }
        };
        if let Ok(ranking) = &result {
            self.recorder.count("server.rank_places_scored", ranking.order.len() as u64);
        }
        self.recorder.span_end(span, self.now);
        result
    }

    /// Ranks a batch of concurrent requests, fanning cache misses out
    /// to the worker pool (§IV-A serves "many users at once": each
    /// request is an independent read of the features table). Results
    /// come back in request order; cache hits are answered inline and
    /// fresh results are cached for the current features epoch. Each
    /// miss gets a `server.rank_request` span allocated sequentially in
    /// request order *before* the fan-out and annotated from whichever
    /// worker computes it, so the trace is identical at any
    /// `SOR_THREADS`.
    pub fn rank_many(
        &self,
        requests: &[(&str, &UserPreferences)],
    ) -> Vec<Result<CategoryRanking, ServerError>> {
        let span = self.pipeline_span("server.rank_many");
        self.recorder.span_attr_with(span, "requests", || requests.len().to_string());
        self.recorder.count("server.rank_requests", requests.len() as u64);
        let mut results: Vec<Option<Result<CategoryRanking, ServerError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut misses: Vec<usize> = Vec::new();
        let mut hits = 0u64;
        for (k, (category, prefs)) in requests.iter().enumerate() {
            let key = RankCache::fingerprint(category, prefs);
            match self.rank_cache.lookup(key, category, prefs) {
                Some(cached) => {
                    hits += 1;
                    results[k] = Some(Ok(cached));
                }
                None => misses.push(k),
            }
        }
        self.recorder.count("server.rank_cache_hits", hits);
        self.recorder.count("server.rank_cache_misses", misses.len() as u64);
        // Per-miss spans are allocated here, sequentially, so ids are
        // deterministic; workers only annotate their own span (and bump
        // order-free counters), so traces and metrics stay identical at
        // any SOR_THREADS.
        let jobs: Vec<(SpanId, usize)> = misses
            .iter()
            .map(|&k| {
                let s = self.recorder.span_start_with_parent("server.rank_request", self.now, span);
                self.recorder.span_attr(s, "category", requests[k].0);
                (s, k)
            })
            .collect();
        let db = self.db.db();
        let apps = &self.apps;
        let recorder = &self.recorder;
        let computed: Vec<Result<CategoryRanking, ServerError>> =
            sor_par::par_map_min(&jobs, 2, |&(request_span, k)| {
                let (category, prefs) = &requests[k];
                let res = rank_category(db, apps, category, prefs);
                recorder.span_attr_with(request_span, "ok", || res.is_ok().to_string());
                res
            });
        for (&(request_span, k), res) in jobs.iter().zip(computed) {
            self.recorder.span_end(request_span, self.now);
            if let Ok(ranking) = &res {
                let (category, prefs) = &requests[k];
                let key = RankCache::fingerprint(category, prefs);
                self.rank_cache.store(key, category, prefs, ranking.clone());
            }
            results[k] = Some(res);
        }
        let out: Vec<Result<CategoryRanking, ServerError>> =
            results.into_iter().map(|r| r.expect("every request answered")).collect();
        let scored: u64 =
            out.iter().filter_map(|r| r.as_ref().ok()).map(|r| r.order.len() as u64).sum();
        self.recorder.count("server.rank_places_scored", scored);
        self.recorder.span_end(span, self.now);
        out
    }

    /// The current features epoch (bumped by every processor pass and
    /// every registration) — exposed for cache-invalidation tests and
    /// reports.
    pub fn features_epoch(&self) -> u64 {
        self.features_epoch
    }

    /// The rank cache (tests, reports).
    pub fn rank_cache(&self) -> &RankCache {
        &self.rank_cache
    }

    /// The sense times stored in the database for a task, ascending —
    /// the §II-B audit trail of what was distributed.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn stored_schedule(&self, task_id: u64) -> Result<Vec<f64>, ServerError> {
        let rows = self
            .db
            .db()
            .scan(SCHEDULES_TABLE, &Predicate::eq("task_id", Value::Int(task_id as i64)))?;
        let mut times: Vec<f64> =
            rows.iter().map(|r| r.values[2].as_float().expect("schema")).collect();
        times.sort_by(f64::total_cmp);
        Ok(times)
    }

    /// Pages phones that have not been heard from for more than
    /// `silence_threshold` seconds while still owning an active task —
    /// the paper's "ask the mobile device to ping it via a Google Cloud
    /// Messaging server" fallback. Returns the WakeUp messages to send.
    pub fn page_quiet_phones(&mut self, silence_threshold: f64) -> Vec<(u64, Message)> {
        let now = self.now;
        let active_tokens: std::collections::BTreeSet<u64> = self
            .participation
            .all()
            .filter(|t| {
                matches!(
                    t.status,
                    ParticipantStatus::Running | ParticipantStatus::WaitingForSchedule
                )
            })
            .map(|t| t.token)
            .collect();
        let mut pages = Vec::new();
        for token in active_tokens {
            let last = self.last_contact.get(&token).copied().unwrap_or(0.0);
            if now - last > silence_threshold {
                // Re-arm the timer so we do not page every tick.
                self.last_contact.insert(token, now);
                pages.push((token, Message::WakeUp { token }));
            }
        }
        pages
    }

    /// Reads one computed feature value (reports, tests).
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn feature_value(&self, app_id: u64, feature: &str) -> Result<Option<f64>, ServerError> {
        self.processor.feature_value(self.db.db(), app_id, feature)
    }
}

/// Stable label for per-message-type counters and span attributes.
fn message_kind(msg: &Message) -> &'static str {
    match msg {
        Message::ParticipationRequest { .. } => "participation_request",
        Message::SensedDataUpload { .. } => "sensed_data_upload",
        Message::TaskComplete { .. } => "task_complete",
        Message::Ping { .. } => "ping",
        Message::PreferenceUpdate { .. } => "preference_update",
        Message::ScheduleAssignment { .. } => "schedule_assignment",
        Message::WakeUp { .. } => "wake_up",
    }
}

/// The device token a message came from, when the message carries one
/// (uploads and completions are resolved through their task).
fn message_token(msg: &Message, participation: &ParticipationManager) -> Option<u64> {
    match msg {
        Message::ParticipationRequest { token, .. }
        | Message::Ping { token, .. }
        | Message::PreferenceUpdate { token, .. } => Some(*token),
        Message::SensedDataUpload { task_id, .. } | Message::TaskComplete { task_id, .. } => {
            participation.task(*task_id).map(|t| t.token)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::feature::{Extractor, FeatureSpec};
    use sor_proto::SensedRecord;
    use sor_sensors::SensorKind;

    fn cafe_app(app_id: u64, name: &str) -> ApplicationSpec {
        ApplicationSpec {
            app_id,
            name: name.into(),
            creator: "owner".into(),
            category: "coffee-shop".into(),
            latitude: 43.05,
            longitude: -76.15,
            radius_m: 150.0,
            script: "get_temperature_readings(3)".into(),
            period_seconds: 3600.0,
            instants: 360,
            features: vec![FeatureSpec::new(
                "temperature",
                "°F",
                Extractor::Mean { sensor: SensorKind::Temperature.wire_id() },
                60.0,
            )],
        }
    }

    fn server_with_app() -> SensingServer {
        let mut s = SensingServer::new().unwrap();
        s.register_application(cafe_app(1, "cafe")).unwrap();
        s
    }

    fn join(s: &mut SensingServer, token: u64, budget: u32) -> Vec<(u64, Message)> {
        s.handle_message(&Message::ParticipationRequest {
            token,
            app_id: 1,
            latitude: 43.0501,
            longitude: -76.1501,
            budget,
            stay_seconds: 1800.0,
        })
        .unwrap()
    }

    #[test]
    fn participation_produces_schedule_assignment() {
        let mut s = server_with_app();
        let replies = join(&mut s, 7, 5);
        assert_eq!(replies.len(), 1);
        let (token, Message::ScheduleAssignment { task_id, script, sense_times }) = &replies[0]
        else {
            panic!("{replies:?}")
        };
        assert_eq!(*token, 7);
        assert_eq!(*task_id, 0);
        assert_eq!(script, "get_temperature_readings(3)");
        assert_eq!(sense_times.len(), 5, "budget fully scheduled");
        // All times in the future, inside the stay.
        for &t in sense_times {
            assert!(t > 0.0 && t <= 1800.0);
        }
    }

    #[test]
    fn unknown_app_rejected() {
        let mut s = server_with_app();
        let err = s
            .handle_message(&Message::ParticipationRequest {
                token: 7,
                app_id: 99,
                latitude: 43.05,
                longitude: -76.15,
                budget: 5,
                stay_seconds: 0.0,
            })
            .unwrap_err();
        assert_eq!(err, ServerError::UnknownApplication(99));
    }

    #[test]
    fn forbidden_script_rejected_at_admission() {
        let mut s = SensingServer::new().unwrap();
        let mut app = cafe_app(1, "rogue cafe");
        app.script = "steal_contacts()".into();
        s.register_application(app).unwrap();
        let err = s
            .handle_message(&Message::ParticipationRequest {
                token: 7,
                app_id: 1,
                latitude: 43.0501,
                longitude: -76.1501,
                budget: 5,
                stay_seconds: 1800.0,
            })
            .unwrap_err();
        let ServerError::ScriptRejected { app_id, report } = &err else { panic!("{err:?}") };
        assert_eq!(*app_id, 1);
        assert!(report.contains("non-whitelisted"), "{report}");
        // Rejected before any admission side effect: no task exists
        // and nothing was scheduled or distributed.
        assert!(s.participation().task(0).is_none());
        assert!(s.stored_schedule(0).unwrap().is_empty());
    }

    #[test]
    fn raw_sensor_return_rejected_with_taint_trace_aggregated_admitted() {
        // The privacy policy at admission: a script uploading a raw
        // high-sensitivity stream is rejected with a positioned
        // taint-path diagnostic; the aggregated variant of the same
        // acquisition is admitted.
        let mut s = SensingServer::new().unwrap();
        let rec = Recorder::enabled();
        s.set_recorder(rec.clone());
        let mut leaky = cafe_app(1, "tracker cafe");
        leaky.script = "local track = get_gps_readings(8)\nreturn track".into();
        s.register_application(leaky).unwrap();
        let mut honest = cafe_app(2, "honest cafe");
        honest.script = "local track = get_gps_readings(8)\nreturn mean(track)".into();
        s.register_application(honest).unwrap();

        let err = s
            .handle_message(&Message::ParticipationRequest {
                token: 7,
                app_id: 1,
                latitude: 43.0501,
                longitude: -76.1501,
                budget: 5,
                stay_seconds: 1800.0,
            })
            .unwrap_err();
        let ServerError::ScriptRejected { app_id, report } = &err else { panic!("{err:?}") };
        assert_eq!(*app_id, 1);
        assert!(report.contains("E004"), "{report}");
        assert!(report.contains("app-1:2:1"), "sink position expected: {report}");
        assert!(report.contains("read at 1:31"), "source position expected: {report}");
        assert_eq!(rec.counter("server.scripts_rejected_privacy"), 1);
        assert!(s.participation().task(0).is_none());

        let replies = s
            .handle_message(&Message::ParticipationRequest {
                token: 8,
                app_id: 2,
                latitude: 43.0501,
                longitude: -76.1501,
                budget: 5,
                stay_seconds: 1800.0,
            })
            .unwrap();
        assert!(
            matches!(replies.first(), Some((8, Message::ScheduleAssignment { .. }))),
            "aggregated script must be admitted: {replies:?}"
        );
        assert_eq!(rec.counter("server.admissions_accepted"), 1);
    }

    #[test]
    fn far_away_user_rejected() {
        let mut s = server_with_app();
        let err = s
            .handle_message(&Message::ParticipationRequest {
                token: 7,
                app_id: 1,
                latitude: 44.0,
                longitude: -76.15,
                budget: 5,
                stay_seconds: 0.0,
            })
            .unwrap_err();
        assert!(matches!(err, ServerError::LocationMismatch { .. }));
    }

    #[test]
    fn second_arrival_redistributes_both_schedules() {
        let mut s = server_with_app();
        join(&mut s, 7, 5);
        s.tick(600.0);
        let replies = join(&mut s, 8, 4);
        // Both active participants get (re)assignments.
        assert_eq!(replies.len(), 2);
        let tokens: Vec<u64> = replies.iter().map(|(t, _)| *t).collect();
        assert!(tokens.contains(&7) && tokens.contains(&8));
        // The late joiner's times are all after its arrival.
        for (token, m) in &replies {
            if *token == 8 {
                let Message::ScheduleAssignment { sense_times, .. } = m else { panic!() };
                assert!(sense_times.iter().all(|&t| t > 600.0));
            }
        }
    }

    #[test]
    fn upload_flows_to_features() {
        let mut s = server_with_app();
        join(&mut s, 7, 5);
        let upload = Message::SensedDataUpload {
            task_id: 0,
            records: vec![SensedRecord {
                timestamp: 100.0,
                window: 1.5,
                sensor: SensorKind::Temperature.wire_id(),
                values: vec![70.0, 72.0],
            }],
        };
        s.handle_message(&upload).unwrap();
        let (stored, dropped) = s.process_data().unwrap();
        assert_eq!((stored, dropped), (1, 0));
        assert_eq!(s.feature_value(1, "temperature").unwrap(), Some(71.0));
    }

    #[test]
    fn upload_for_unknown_task_rejected() {
        let mut s = server_with_app();
        let upload = Message::SensedDataUpload { task_id: 42, records: vec![] };
        assert_eq!(s.handle_message(&upload).unwrap_err(), ServerError::UnknownTask(42));
    }

    #[test]
    fn task_complete_finishes_participant() {
        let mut s = server_with_app();
        join(&mut s, 7, 5);
        s.handle_message(&Message::TaskComplete { task_id: 0, status: 0 }).unwrap();
        assert_eq!(s.participation().task(0).unwrap().status, ParticipantStatus::Finished);
        let mut s2 = server_with_app();
        join(&mut s2, 7, 5);
        s2.handle_message(&Message::TaskComplete { task_id: 0, status: 3 }).unwrap();
        assert_eq!(s2.participation().task(0).unwrap().status, ParticipantStatus::Error);
    }

    #[test]
    fn departure_sweep_ends_participation() {
        let mut s = server_with_app();
        join(&mut s, 7, 5); // stay 1800 s
        s.tick(2000.0);
        assert_eq!(s.participation().task(0).unwrap().status, ParticipantStatus::Finished);
    }

    #[test]
    fn distributed_schedules_are_stored() {
        let mut s = server_with_app();
        let replies = join(&mut s, 7, 5);
        let (_, Message::ScheduleAssignment { task_id, sense_times, .. }) = &replies[0] else {
            panic!()
        };
        let mut sent = sense_times.clone();
        sent.sort_by(f64::total_cmp);
        assert_eq!(s.stored_schedule(*task_id).unwrap(), sent);
        // A replan replaces the stored rows rather than appending.
        s.tick(300.0);
        join(&mut s, 8, 4);
        let stored = s.stored_schedule(*task_id).unwrap();
        let expected: Vec<f64> = stored.clone(); // must stay deduplicated
        assert_eq!(stored, expected);
        assert!(stored.len() <= 5);
    }

    #[test]
    fn quiet_phone_is_paged_once() {
        let mut s = server_with_app();
        join(&mut s, 7, 5);
        // No contact for 10 minutes.
        s.tick(600.0);
        let pages = s.page_quiet_phones(300.0);
        assert_eq!(pages.len(), 1);
        assert!(matches!(pages[0], (7, Message::WakeUp { token: 7 })));
        // Immediately asking again: timer was re-armed.
        assert!(s.page_quiet_phones(300.0).is_empty());
        // A ping resets it for real.
        s.tick(700.0);
        s.handle_message(&Message::Ping { token: 7, uptime_ms: 1 }).unwrap();
        s.tick(800.0);
        assert!(s.page_quiet_phones(300.0).is_empty());
        s.tick(1200.0);
        assert_eq!(s.page_quiet_phones(300.0).len(), 1);
    }

    #[test]
    fn finished_tasks_are_not_paged() {
        let mut s = server_with_app();
        join(&mut s, 7, 5);
        s.handle_message(&Message::TaskComplete { task_id: 0, status: 0 }).unwrap();
        s.tick(5_000.0);
        assert!(s.page_quiet_phones(300.0).is_empty());
    }

    #[test]
    fn recorder_observes_full_message_pipeline() {
        let rec = Recorder::enabled();
        let mut s = server_with_app();
        s.set_recorder(rec.clone());
        join(&mut s, 7, 5);
        s.handle_message(&Message::SensedDataUpload {
            task_id: 0,
            records: vec![SensedRecord {
                timestamp: 100.0,
                window: 1.5,
                sensor: SensorKind::Temperature.wire_id(),
                values: vec![70.0, 72.0],
            }],
        })
        .unwrap();
        s.process_data().unwrap();

        assert_eq!(rec.counter("server.msg_received.participation_request"), 1);
        assert_eq!(rec.counter("server.msg_received.sensed_data_upload"), 1);
        assert_eq!(rec.counter("server.admissions_accepted"), 1);
        assert_eq!(rec.counter("server.schedules_distributed"), 1);
        assert_eq!(rec.counter("server.records_stored"), 1);
        assert_eq!(rec.counter("server.features_computed"), 1);
        assert_eq!(rec.counter("pipeline.uploads_accepted"), 1);
        // The greedy replan's work surfaced as counters.
        assert!(rec.counter("sched.iterations_run") >= 5);
        assert!(rec.counter("sched.gain_evaluations") >= rec.counter("sched.iterations_run"));
        // Store row traffic flowed through the same recorder.
        assert!(rec.counter("store.rows_inserted.schedules") >= 5);
        // Spans exist for every stage.
        let trace = rec.trace_snapshot().unwrap();
        for name in ["server.handle_message", "server.distribute_schedules", "server.process_data"]
        {
            assert!(trace.spans_named(name).count() >= 1, "missing span {name}");
        }
        // The decode sub-span nests under process_data.
        let parent = trace.spans_named("server.process_data").next().unwrap().id;
        let decode = trace.spans_named("server.process_data.decode").next().unwrap();
        assert_eq!(decode.parent, Some(parent));
    }

    #[test]
    fn replan_histogram_observes_every_replan() {
        // Two joins, then one tick sweeps both departures: four replans,
        // the two departures with nothing left to evaluate.
        let rec = Recorder::enabled();
        let mut s = server_with_app();
        s.set_recorder(rec.clone());
        join(&mut s, 7, 5);
        join(&mut s, 8, 5);
        s.tick(2_000.0);
        assert_eq!(rec.counter("sched.replans_run"), 4);
        let metrics = rec.metrics_snapshot().unwrap();
        let evals = metrics.histogram("sched.replan_gain_evaluations").unwrap();
        assert_eq!(evals.count(), rec.counter("sched.replans_run"));
        assert_eq!(evals.zero_or_less(), 2);
        assert_eq!(evals.sum(), rec.counter("sched.gain_evaluations") as f64);
    }

    #[test]
    fn recorder_counts_rejected_messages() {
        let rec = Recorder::enabled();
        let mut s = server_with_app();
        s.set_recorder(rec.clone());
        let upload = Message::SensedDataUpload { task_id: 42, records: vec![] };
        assert!(s.handle_message(&upload).is_err());
        assert_eq!(rec.counter("server.msg_rejected.sensed_data_upload"), 1);
    }

    #[test]
    fn crashed_server_recovers_acked_uploads_and_tasks() {
        use sor_durable::SimDisk;
        let disk = SimDisk::new(99);
        let (mut s, report) = SensingServer::durable(
            Box::new(disk.clone()),
            DurableOptions::default(),
            Recorder::disabled(),
            0.0,
        )
        .unwrap();
        assert!(!report.had_checkpoint);
        s.register_application(cafe_app(1, "cafe")).unwrap();
        join(&mut s, 7, 5);
        s.handle_message(&Message::SensedDataUpload {
            task_id: 0,
            records: vec![SensedRecord {
                timestamp: 100.0,
                window: 1.5,
                sensor: SensorKind::Temperature.wire_id(),
                values: vec![70.0, 72.0],
            }],
        })
        .unwrap(); // acked: this upload must survive the crash
        s.tick(120.0);
        drop(s);
        disk.crash();

        let (mut s, report) = SensingServer::durable(
            Box::new(disk.clone()),
            DurableOptions::default(),
            Recorder::disabled(),
            120.0,
        )
        .unwrap();
        assert!(report.replayed_records > 0, "log replayed: {}", report.summary());
        s.register_application(cafe_app(1, "cafe")).unwrap();
        // The admitted task came back with its id, budget and status.
        let task = s.participation().task(0).expect("task recovered");
        assert_eq!(task.token, 7);
        assert_eq!(task.budget, 5);
        // The acked upload is still in the inbox and flows to features.
        let (stored, dropped) = s.process_data().unwrap();
        assert_eq!((stored, dropped), (1, 0));
        assert_eq!(s.feature_value(1, "temperature").unwrap(), Some(71.0));
        // The recovered server keeps serving: a new participant joins
        // and gets a fresh task id (no id reuse after recovery).
        let replies = join(&mut s, 8, 3);
        assert!(!replies.is_empty());
        let new_ids: Vec<u64> = s.participation().all().map(|t| t.task_id).collect();
        assert_eq!(new_ids, vec![0, 1]);
    }

    #[test]
    fn durable_server_without_crash_matches_ephemeral_ranking() {
        use sor_durable::SimDisk;
        let run = |durable: bool| {
            let disk = SimDisk::new(5);
            let mut s = if durable {
                SensingServer::durable(
                    Box::new(disk.clone()),
                    DurableOptions::default(),
                    Recorder::disabled(),
                    0.0,
                )
                .unwrap()
                .0
            } else {
                SensingServer::new().unwrap()
            };
            s.register_application(cafe_app(1, "cold cafe")).unwrap();
            s.register_application(cafe_app(2, "warm cafe")).unwrap();
            for (app_id, temp) in [(1u64, 64.0), (2, 74.0)] {
                let replies = s
                    .handle_message(&Message::ParticipationRequest {
                        token: app_id * 10,
                        app_id,
                        latitude: 43.0501,
                        longitude: -76.1501,
                        budget: 3,
                        stay_seconds: 600.0,
                    })
                    .unwrap();
                let (_, Message::ScheduleAssignment { task_id, .. }) = &replies[replies.len() - 1]
                else {
                    panic!()
                };
                s.handle_message(&Message::SensedDataUpload {
                    task_id: *task_id,
                    records: vec![SensedRecord {
                        timestamp: 10.0,
                        window: 1.0,
                        sensor: SensorKind::Temperature.wire_id(),
                        values: vec![temp],
                    }],
                })
                .unwrap();
            }
            s.process_data().unwrap();
            let prefs = UserPreferences::new(
                "warm-lover",
                vec![sor_core::ranking::Preference::value(75.0, 5)],
            );
            s.rank("coffee-shop", &prefs).unwrap().order
        };
        assert_eq!(run(true), run(false), "durability must not change behaviour");
    }

    fn two_cafe_server() -> SensingServer {
        let mut s = SensingServer::new().unwrap();
        s.register_application(cafe_app(1, "cold cafe")).unwrap();
        s.register_application(cafe_app(2, "warm cafe")).unwrap();
        for (app_id, temp) in [(1u64, 64.0), (2, 74.0)] {
            let replies = s
                .handle_message(&Message::ParticipationRequest {
                    token: app_id * 10,
                    app_id,
                    latitude: 43.0501,
                    longitude: -76.1501,
                    budget: 3,
                    stay_seconds: 600.0,
                })
                .unwrap();
            let (_, Message::ScheduleAssignment { task_id, .. }) = &replies[replies.len() - 1]
            else {
                panic!()
            };
            s.handle_message(&Message::SensedDataUpload {
                task_id: *task_id,
                records: vec![SensedRecord {
                    timestamp: 10.0,
                    window: 1.0,
                    sensor: SensorKind::Temperature.wire_id(),
                    values: vec![temp],
                }],
            })
            .unwrap();
        }
        s.process_data().unwrap();
        s
    }

    #[test]
    fn rank_cache_hit_and_invalidation_on_new_upload() {
        let mut s = two_cafe_server();
        let rec = Recorder::enabled();
        s.set_recorder(rec.clone());
        let prefs =
            UserPreferences::new("warm-lover", vec![sor_core::ranking::Preference::value(75.0, 5)]);
        let epoch_before = s.features_epoch();

        let first = s.rank("coffee-shop", &prefs).unwrap();
        assert_eq!(rec.counter("server.rank_cache_misses"), 1);
        assert_eq!(rec.counter("server.rank_cache_hits"), 0);
        let second = s.rank("coffee-shop", &prefs).unwrap();
        assert_eq!(rec.counter("server.rank_cache_hits"), 1, "unchanged data must hit");
        assert_eq!(first.order, second.order);
        assert_eq!(first.app_order, second.app_order);

        // A new upload flows through the processor: the epoch advances
        // and the next rank recomputes against the fresh features.
        s.handle_message(&Message::SensedDataUpload {
            task_id: 0, // cold cafe's task
            records: vec![SensedRecord {
                timestamp: 200.0,
                window: 1.0,
                sensor: SensorKind::Temperature.wire_id(),
                values: vec![86.0],
            }],
        })
        .unwrap();
        s.process_data().unwrap();
        assert!(s.features_epoch() > epoch_before, "processor pass must bump the epoch");
        let third = s.rank("coffee-shop", &prefs).unwrap();
        assert_eq!(rec.counter("server.rank_cache_misses"), 2, "stale entry must recompute");
        // Cold cafe's mean is now (64+86)/2 = 75 — a perfect match.
        assert_eq!(*third.order, ["cold cafe", "warm cafe"]);
    }

    #[test]
    fn rank_hits_share_the_cached_ranking() {
        let mut s = two_cafe_server();
        let rec = Recorder::enabled();
        s.set_recorder(rec.clone());
        let prefs =
            UserPreferences::new("warm-lover", vec![sor_core::ranking::Preference::value(75.0, 5)]);
        s.rank("coffee-shop", &prefs).unwrap();
        let hits = [
            s.rank("coffee-shop", &prefs).unwrap(),
            s.rank("coffee-shop", &prefs).unwrap(),
            s.rank_many(&[("coffee-shop", &prefs)]).remove(0).unwrap(),
        ];
        assert_eq!(rec.counter("server.rank_cache_misses"), 1);
        assert_eq!(rec.counter("server.rank_cache_hits"), 3);
        let key = RankCache::fingerprint("coffee-shop", &prefs);
        let entry = s.rank_cache().lookup(key, "coffee-shop", &prefs).unwrap();
        let fresh = rank_category(s.database(), s.applications(), "coffee-shop", &prefs).unwrap();
        for hit in &hits {
            assert!(Arc::ptr_eq(&hit.matrix, &entry.matrix), "a hit must not copy the matrix");
            assert!(Arc::ptr_eq(&hit.outcome, &entry.outcome), "a hit must not copy the outcome");
            assert!(Arc::ptr_eq(&hit.order, &entry.order), "a hit must not copy the names");
            assert_eq!(*hit.matrix, *fresh.matrix);
            assert_eq!(*hit.outcome, *fresh.outcome);
            assert_eq!(hit.order, fresh.order);
            assert_eq!(hit.app_order, fresh.app_order);
        }
    }

    #[test]
    fn rank_cache_keeps_only_the_current_epoch() {
        let mut s = two_cafe_server();
        for target in [60.0, 70.0, 80.0] {
            let prefs =
                UserPreferences::new("u", vec![sor_core::ranking::Preference::value(target, 5)]);
            s.rank("coffee-shop", &prefs).unwrap();
        }
        assert_eq!(s.rank_cache().len(), 3);
        s.process_data().unwrap();
        assert!(s.rank_cache().is_empty(), "a processor pass ends the epoch");
        let prefs = UserPreferences::new("u", vec![sor_core::ranking::Preference::value(70.0, 5)]);
        s.rank("coffee-shop", &prefs).unwrap();
        assert_eq!(s.rank_cache().len(), 1, "only the current epoch's ranking is kept");
        s.register_application(cafe_app(2, "hot cafe")).unwrap();
        assert!(s.rank_cache().is_empty(), "a registration ends the epoch");
    }

    #[test]
    fn registration_invalidates_cached_rankings() {
        let mut s = two_cafe_server();
        let prefs =
            UserPreferences::new("warm-lover", vec![sor_core::ranking::Preference::value(75.0, 5)]);
        assert_eq!(*s.rank("coffee-shop", &prefs).unwrap().order, ["warm cafe", "cold cafe"]);
        let epoch = s.features_epoch();
        s.register_application(cafe_app(2, "hot cafe")).unwrap();
        assert!(s.features_epoch() > epoch, "registration must bump the epoch");
        let fresh = rank_category(s.database(), s.applications(), "coffee-shop", &prefs).unwrap();
        assert_eq!(*fresh.order, ["hot cafe", "cold cafe"]);
        assert_eq!(s.rank("coffee-shop", &prefs).unwrap().order, fresh.order);
    }

    #[test]
    fn rank_many_matches_individual_ranks_in_order() {
        let rec = Recorder::enabled();
        let mut s = two_cafe_server();
        s.set_recorder(rec.clone());
        let warm = UserPreferences::new("w", vec![sor_core::ranking::Preference::value(75.0, 5)]);
        let cold = UserPreferences::new("c", vec![sor_core::ranking::Preference::value(60.0, 5)]);
        let requests: Vec<(&str, &UserPreferences)> = vec![
            ("coffee-shop", &warm),
            ("coffee-shop", &cold),
            ("museum", &warm), // empty category: an error slot
            ("coffee-shop", &warm),
        ];
        let batch = sor_par::with_threads(8, || {
            let batch = s.rank_many(&requests);
            assert_eq!(sor_par::current_threads(), 8);
            batch
        });
        // Each worker annotates its own request's span: the spans hang
        // off the one batch span and carry their request's outcome in
        // request order.
        let trace = rec.trace_snapshot().unwrap();
        let batch_spans: Vec<_> = trace.spans_named("server.rank_many").collect();
        assert_eq!(batch_spans.len(), 1);
        let attr = |span: &sor_obs::Span, key: &str| {
            span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()).unwrap_or_default()
        };
        let per_request: Vec<(String, String)> = trace
            .spans_named("server.rank_request")
            .map(|span| {
                assert_eq!(span.parent, Some(batch_spans[0].id));
                (attr(span, "category"), attr(span, "ok"))
            })
            .collect();
        let expect = [
            ("coffee-shop", "true"),
            ("coffee-shop", "true"),
            ("museum", "false"),
            ("coffee-shop", "true"),
        ]
        .map(|(category, ok)| (category.to_string(), ok.to_string()));
        assert_eq!(per_request, expect);
        assert_eq!(batch.len(), 4);
        assert_eq!(*batch[0].as_ref().unwrap().order, ["warm cafe", "cold cafe"]);
        assert_eq!(*batch[1].as_ref().unwrap().order, ["cold cafe", "warm cafe"]);
        assert!(batch[2].is_err(), "errors surface in their slot");
        assert_eq!(batch[3].as_ref().unwrap().order, batch[0].as_ref().unwrap().order);
        // Against the one-at-a-time path.
        for (i, (category, prefs)) in requests.iter().enumerate() {
            match s.rank(category, prefs) {
                Ok(r) => assert_eq!(r.order, batch[i].as_ref().unwrap().order, "slot {i}"),
                Err(_) => assert!(batch[i].is_err(), "slot {i}"),
            }
        }
    }

    #[test]
    fn feature_reads_use_the_app_id_index() {
        let rec = Recorder::enabled();
        let mut s = two_cafe_server();
        s.set_recorder(rec.clone());
        assert!(
            s.database().table(crate::processor::FEATURES_TABLE).unwrap().has_index("app_id"),
            "install must index features.app_id"
        );
        assert_eq!(s.feature_value(1, "temperature").unwrap(), Some(64.0));
        assert_eq!(rec.counter("store.scans_run.features"), 1);
        assert_eq!(
            rec.counter("store.scans_indexed.features"),
            1,
            "the And(app_id, feature) query must be satisfied through the index"
        );
    }

    #[test]
    fn rank_over_two_cafes() {
        let s = two_cafe_server();
        let prefs =
            UserPreferences::new("warm-lover", vec![sor_core::ranking::Preference::value(75.0, 5)]);
        let ranking = s.rank("coffee-shop", &prefs).unwrap();
        assert_eq!(*ranking.order, ["warm cafe", "cold cafe"]);
    }
}
