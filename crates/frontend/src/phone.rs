//! The phone: message handling, the task manager loop, and the binding
//! of SenseScript data-acquisition functions to the sensor manager.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use sor_obs::{Recorder, SpaceSaving, SpanId};
use sor_proto::{Message, SensedRecord, TraceContext};
use sor_script::analysis::CapabilitySet;
use sor_script::bytecode::PreparedScript;
use sor_script::interp::DEFAULT_BUDGET;
use sor_script::{CacheOutcome, HostRegistry, Prepared, ScriptCache, Value, Vm};
use sor_sensors::{SensorKind, SensorManager};

use crate::preferences::LocalPreferenceManager;
use crate::task::{TaskInstance, TaskStatus};

/// A simulated participating smartphone.
pub struct MobileFrontend {
    token: u64,
    manager: Arc<SensorManager>,
    prefs: LocalPreferenceManager,
    tasks: Vec<TaskInstance>,
    now: f64,
    recorder: Recorder,
    /// Compilation cache every script run draws from. Defaults to the
    /// process-wide cache; the simulation world replaces it with its
    /// own fleet handle so its cache counters are per world.
    script_cache: ScriptCache,
    /// O(k) heavy-hitter sketch over this phone's script runs, keyed by
    /// task and weighted by instructions executed — bounded per-user
    /// state no matter how many tasks the phone churns through.
    hot_scripts: SpaceSaving,
}

impl std::fmt::Debug for MobileFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileFrontend")
            .field("token", &self.token)
            .field("now", &self.now)
            .field("tasks", &self.tasks.len())
            .finish()
    }
}

impl MobileFrontend {
    /// A phone with the given device token and sensor stack.
    ///
    /// Its script cache is a handle to one process-wide
    /// [`ScriptCache`], so every phone built here compiles a shared
    /// script once; [`MobileFrontend::set_script_cache`] swaps it.
    pub fn new(token: u64, manager: SensorManager) -> Self {
        static SHARED_CACHE: OnceLock<ScriptCache> = OnceLock::new();
        MobileFrontend {
            token,
            manager: Arc::new(manager),
            prefs: LocalPreferenceManager::new(),
            tasks: Vec::new(),
            now: 0.0,
            recorder: Recorder::disabled(),
            script_cache: SHARED_CACHE.get_or_init(ScriptCache::new).clone(),
            hot_scripts: SpaceSaving::new(8),
        }
    }

    /// The phone's hot-script sketch: which tasks burned the most
    /// script instructions on this device (top-8, O(k) memory).
    pub fn hot_scripts(&self) -> &SpaceSaving {
        &self.hot_scripts
    }

    /// Replaces this phone's compilation cache with another handle
    /// (clones of one [`ScriptCache`] share storage), so a fleet of
    /// phones dispatched the same script compiles it exactly once.
    pub fn set_script_cache(&mut self, cache: ScriptCache) {
        self.script_cache = cache;
    }

    /// The phone's script compilation cache handle.
    pub fn script_cache(&self) -> &ScriptCache {
        &self.script_cache
    }

    /// Attaches an observability recorder. Phone-side task
    /// transitions, script runs, and sensor acquisitions are recorded
    /// under `phone.*` / `script.*` names (see DESIGN.md).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The device token.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Current phone clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The phone owner's sensor preferences.
    pub fn preferences_mut(&mut self) -> &mut LocalPreferenceManager {
        &mut self.prefs
    }

    /// All task instances.
    pub fn tasks(&self) -> &[TaskInstance] {
        &self.tasks
    }

    /// Looks up a task.
    pub fn task(&self, task_id: u64) -> Option<&TaskInstance> {
        self.tasks.iter().find(|t| t.task_id == task_id)
    }

    /// The user scans a 2D barcode: produce the participation request
    /// that the Message Handler would POST to the sensing server. The
    /// reported location honours the GPS privacy preference (a
    /// disallowed GPS reports `(0, 0)`, which the server's Participation
    /// Manager will reject as unverifiable).
    pub fn scan_barcode(&self, app_id: u64, budget: u32, stay_seconds: f64) -> Message {
        let (latitude, longitude) = if self.prefs.is_allowed(SensorKind::Gps) {
            match self.manager.acquire(SensorKind::Gps, 1, self.now) {
                Ok(fix) if fix[0].len() >= 2 => (fix[0][0], fix[0][1]),
                _ => (0.0, 0.0),
            }
        } else {
            (0.0, 0.0)
        };
        Message::ParticipationRequest {
            token: self.token,
            app_id,
            latitude,
            longitude,
            budget,
            stay_seconds,
        }
    }

    /// Dispatches one incoming message (the Message Handler's job) and
    /// returns any immediate replies.
    pub fn handle_message(&mut self, msg: &Message) -> Vec<Message> {
        self.handle_message_ctx(msg, None)
    }

    /// [`MobileFrontend::handle_message`] with the causal
    /// [`TraceContext`] recovered from the wire frame: a
    /// `ScheduleAssignment`'s context is pinned to the task instance it
    /// creates, so every later script run and upload links back to the
    /// server's dispatch span.
    pub fn handle_message_ctx(&mut self, msg: &Message, ctx: Option<TraceContext>) -> Vec<Message> {
        match msg {
            Message::ScheduleAssignment { task_id, script, sense_times } => {
                // A re-assignment for a live task replaces its remaining
                // schedule (the server re-plans when participation
                // changes); finished tasks stay finished.
                let fresh = TaskInstance::new(*task_id, script.clone(), sense_times.clone())
                    .with_origin(ctx);
                match self.tasks.iter_mut().find(|t| t.task_id == *task_id) {
                    Some(existing) if !existing.is_done() => {
                        *existing = fresh;
                        self.recorder.count("phone.tasks_reassigned", 1);
                    }
                    Some(_) => {}
                    None => {
                        self.tasks.push(fresh);
                        self.recorder.count("phone.tasks_assigned", 1);
                        self.recorder.event_with("phone.task_assigned", self.now, || {
                            format!("task={task_id} sense_times={}", sense_times.len())
                        });
                    }
                }
                self.update_queue_gauges();
                Vec::new()
            }
            Message::WakeUp { token } if *token == self.token => {
                vec![Message::Ping { token: self.token, uptime_ms: (self.now * 1000.0) as u64 }]
            }
            Message::PreferenceUpdate { token, permissions } if *token == self.token => {
                self.prefs.apply(permissions);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }

    /// Advances the phone clock to `t`, executing every task sense time
    /// that falls due; returns the outgoing messages (uploads and
    /// completion notices).
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards.
    pub fn advance_to(&mut self, t: f64) -> Vec<Message> {
        self.advance_to_ctx(t).into_iter().map(|(m, _)| m).collect()
    }

    /// [`MobileFrontend::advance_to`], returning each outgoing message
    /// paired with the causal [`TraceContext`] to splice into its wire
    /// frame: the task's origin trace re-parented under the script-run
    /// span that produced the data.
    ///
    /// # Panics
    ///
    /// Panics if time moves backwards.
    pub fn advance_to_ctx(&mut self, t: f64) -> Vec<(Message, Option<TraceContext>)> {
        assert!(t >= self.now, "phone time went backwards: {} -> {t}", self.now);
        self.now = t;
        let mut out = Vec::new();
        let manager = Arc::clone(&self.manager);
        let recorder = self.recorder.clone();
        let allowed: HashSet<SensorKind> =
            SensorKind::ALL.iter().copied().filter(|&k| self.prefs.is_allowed(k)).collect();
        for task in &mut self.tasks {
            if task.is_done() {
                continue;
            }
            while let Some(due) = task.next_due() {
                if due > t {
                    break;
                }
                // The run span hangs off the server's dispatch span (a
                // detached cross-component link, deterministic under
                // any sweep interleaving), tagged with the trace id the
                // wire context carried.
                let parent = task.origin.map_or(SpanId::NONE, |c| SpanId(c.parent_span));
                let span = recorder.span_start_with_parent("phone.script_run", due, parent);
                recorder.span_attr_with(span, "task", || task.task_id.to_string());
                if let Some(c) = task.origin {
                    recorder.span_attr_with(span, "trace_id", || c.trace_id.to_string());
                }
                recorder.count("script.runs_started", 1);
                match execute_script(&task.script, due, &manager, &allowed, &self.script_cache) {
                    Ok(run) => {
                        record_script_run(&recorder, span, &run);
                        recorder.span_end(span, due);
                        if recorder.is_enabled() {
                            self.hot_scripts.offer(
                                &format!("task{}", task.task_id),
                                run.instructions_used.max(1),
                            );
                        }
                        task.pending_records.extend(run.records);
                        task.advance();
                        let records = task.drain_records();
                        if !records.is_empty() {
                            let ctx = task.origin.map(|c| c.child(span.0));
                            out.push((
                                Message::SensedDataUpload { task_id: task.task_id, records },
                                ctx,
                            ));
                        }
                    }
                    Err(failure) => {
                        // Cache traffic happened even when the run did
                        // not (e.g. a cached static rejection).
                        record_cache_outcome(&recorder, &failure.cache);
                        recorder.count("script.runs_failed", 1);
                        recorder.span_attr(span, "error", &failure.message);
                        recorder.span_end(span, due);
                        recorder.count("phone.tasks_errored", 1);
                        task.status = TaskStatus::Error(failure.message);
                        let ctx = task.origin.map(|c| c.child(span.0));
                        out.push((Message::TaskComplete { task_id: task.task_id, status: 1 }, ctx));
                        break;
                    }
                }
            }
            if task.status == TaskStatus::Finished {
                out.push((Message::TaskComplete { task_id: task.task_id, status: 0 }, task.origin));
                recorder.count("phone.tasks_finished", 1);
            }
            // Empty schedules complete immediately.
            if task.status == TaskStatus::Pending && task.sense_times.is_empty() {
                task.status = TaskStatus::Finished;
                recorder.count("phone.tasks_finished", 1);
                out.push((Message::TaskComplete { task_id: task.task_id, status: 0 }, task.origin));
            }
        }
        self.update_queue_gauges();
        out
    }

    /// Refreshes the per-task-instance queue-depth gauges
    /// (`phone.task_queue_depth.task<id>`): records buffered on the
    /// phone awaiting upload. Every live instance gets a gauge — the
    /// traced field test asserts the gauge count matches the number of
    /// task instances across all phones.
    fn update_queue_gauges(&self) {
        if !self.recorder.is_enabled() {
            return;
        }
        for task in &self.tasks {
            self.recorder.gauge(
                &format!("phone.task_queue_depth.task{}", task.task_id),
                task.pending_records.len() as f64,
            );
        }
    }
}

/// Data-acquisition vocabulary: script function name → sensor kind.
/// This is the whitelist the script engine enforces (§II-A).
const ACQUISITION_FNS: &[(&str, SensorKind)] = &[
    ("get_temperature_readings", SensorKind::Temperature),
    ("get_humidity_readings", SensorKind::Humidity),
    ("get_light_readings", SensorKind::Light),
    ("get_noise_readings", SensorKind::Microphone),
    ("get_wifi_readings", SensorKind::WifiRssi),
    ("get_pressure_readings", SensorKind::Pressure),
    ("get_accel_readings", SensorKind::Accelerometer),
    ("get_gps_readings", SensorKind::Gps),
    ("get_compass_readings", SensorKind::Compass),
];

/// What one script execution produced, plus the cost evidence the
/// observability layer reports: the VM's exact instruction count and
/// the cached compilation's static bounds and optimizer statistics.
struct ScriptRun {
    records: Vec<SensedRecord>,
    instructions_used: u64,
    prepared: Arc<PreparedScript>,
    cache: CacheOutcome,
}

/// A failed script execution. Carries the cache outcome separately so
/// hit/miss counters survive runs that never produce a `ScriptRun`
/// (static rejections, runtime errors).
struct ScriptFailure {
    message: String,
    cache: CacheOutcome,
}

/// Records one successful script run's metrics: instruction usage and
/// the static-bound-over-measured ratio (≥ 1 whenever the analyzer's
/// bound is sound — the regression test in `sor-sim` holds it there).
fn record_script_run(recorder: &Recorder, span: SpanId, run: &ScriptRun) {
    recorder.count("script.instructions_used", run.instructions_used);
    recorder.observe("script.instructions_per_run", run.instructions_used as f64);
    recorder.span_attr_with(span, "instructions", || run.instructions_used.to_string());
    recorder.count("phone.records_acquired", run.records.len() as u64);
    for r in &run.records {
        if let Some(kind) = SensorKind::from_wire_id(r.sensor) {
            recorder.count_labeled("phone.sensor_acquired", kind.metric_label(), 1);
        }
    }
    let prepared = &run.prepared;
    if let Some(bound) = prepared.static_bound {
        recorder.span_attr_with(span, "static_bound", || bound.to_string());
        if run.instructions_used > 0 {
            recorder
                .observe("script.bound_over_measured", bound as f64 / run.instructions_used as f64);
        }
    }
    recorder.count("script.opt_rewrites", prepared.opt_rewrites);
    recorder.span_attr_with(span, "opt_rewrites", || prepared.opt_rewrites.to_string());
    if let Some(saved) = prepared.bound_saved {
        recorder.count("script.opt_bound_saved", saved);
    }
    recorder.count("script.vm_runs", 1);
    record_cache_outcome(recorder, &run.cache);
}

/// Records one compilation-cache lookup's traffic.
fn record_cache_outcome(recorder: &Recorder, outcome: &CacheOutcome) {
    recorder.count(if outcome.hit { "script.cache_hits" } else { "script.cache_misses" }, 1);
    if outcome.compiled {
        recorder.count("script.compile_runs", 1);
    }
    if outcome.evicted {
        recorder.count("script.cache_evictions", 1);
    }
}

/// Builds the host registry binding the data-acquisition vocabulary to
/// the sensor manager and the shared record sink. Engine-agnostic: the
/// phone runs it on the bytecode VM, and tests run the same registry
/// on the reference tree-walker.
fn build_host(
    base_time: f64,
    manager: &Arc<SensorManager>,
    allowed: &HashSet<SensorKind>,
    records: &Rc<RefCell<Vec<SensedRecord>>>,
) -> HostRegistry {
    let mut host = HostRegistry::new();

    for &(name, kind) in ACQUISITION_FNS {
        let manager = Arc::clone(manager);
        let records = Rc::clone(records);
        let permitted = allowed.contains(&kind);
        let sample_interval = manager.sample_interval();
        host.register(name, move |ctx, args| {
            if !permitted {
                // Privacy veto: the phone silently returns no data.
                return Ok(Value::Nil);
            }
            let n =
                args.first().and_then(Value::as_number).map(|v| v.max(1.0) as usize).unwrap_or(1);
            let start = base_time + ctx.virtual_time;
            let readings = manager.acquire(kind, n, start).map_err(|e| e.to_string())?;
            let window = n as f64 * sample_interval;
            ctx.virtual_time += window;
            // Record the paper's (t, Δt, d) tuple.
            let flat: Vec<f64> = readings.iter().flatten().copied().collect();
            records.borrow_mut().push(SensedRecord {
                timestamp: start,
                window,
                sensor: kind.wire_id(),
                values: flat,
            });
            // Scripts see scalar streams; multi-axis sensors are exposed
            // as per-sample magnitudes (GPS as altitudes).
            let script_view: Vec<f64> = match kind {
                SensorKind::Accelerometer => readings
                    .iter()
                    .map(|r| (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]).sqrt())
                    .collect(),
                SensorKind::Gps => readings.iter().map(|r| r[2]).collect(),
                _ => readings.iter().map(|r| r[0]).collect(),
            };
            Ok(Value::number_array(&script_view))
        });
    }

    // get_location(): one GPS fix as a {lat, lon, alt} table.
    {
        let manager = Arc::clone(manager);
        let records = Rc::clone(records);
        let permitted = allowed.contains(&SensorKind::Gps);
        host.register("get_location", move |ctx, _args| {
            if !permitted {
                return Ok(Value::Nil);
            }
            let start = base_time + ctx.virtual_time;
            let fix = manager.acquire(SensorKind::Gps, 1, start).map_err(|e| e.to_string())?;
            records.borrow_mut().push(SensedRecord {
                timestamp: start,
                window: 0.0,
                sensor: SensorKind::Gps.wire_id(),
                values: fix[0].clone(),
            });
            let mut hash = std::collections::HashMap::new();
            hash.insert("lat".to_string(), Value::Number(fix[0][0]));
            hash.insert("lon".to_string(), Value::Number(fix[0][1]));
            hash.insert("alt".to_string(), Value::Number(fix[0][2]));
            Ok(Value::table(Vec::new(), hash))
        });
    }

    host
}

/// Runs one script execution at wall-clock `base_time`: the
/// analyze→optimize→compile pipeline runs (or hits) `cache`, then the
/// module executes on the VM with the compiled program's static cost
/// bound wired in as the fuel limit.
fn execute_script(
    script: &str,
    base_time: f64,
    manager: &Arc<SensorManager>,
    allowed: &HashSet<SensorKind>,
    cache: &ScriptCache,
) -> Result<ScriptRun, ScriptFailure> {
    let records: Rc<RefCell<Vec<SensedRecord>>> = Rc::new(RefCell::new(Vec::new()));
    let host = build_host(base_time, manager, allowed, &records);
    // The phone does not trust the server's admission check: analysis
    // runs against the exact host registry this run executes under (its
    // vocabulary is part of the cache key).
    let caps = CapabilitySet::from_registry(&host);
    let (prepared, outcome) = cache.get_or_prepare(script, &caps);
    let prepared = match prepared {
        Prepared::Ready(p) => p,
        // An error-severity finding means the run is statically doomed,
        // so no sensing effort is spent on it.
        Prepared::Rejected(findings) => {
            return Err(ScriptFailure {
                message: format!("script rejected before execution: {findings}"),
                cache: outcome,
            });
        }
    };

    let mut vm = Vm::with_host(host);
    // Fuel: the analyzer's bound for the program as compiled, clamped
    // to the interpreter's default budget. The bound is sound (it
    // dominates any dynamic instruction count), so a script the
    // reference tree-walker completes can never run out of fuel here —
    // the vm_corpus suite pins that across the whole lint corpus.
    vm.set_budget(prepared.exec_bound.unwrap_or(u64::MAX).min(DEFAULT_BUDGET));
    let run_result = vm.run_module(&prepared.module);
    let instructions_used = vm.instructions_used();
    drop(vm); // releases the host closures' Rc clones
    if let Err(e) = run_result {
        return Err(ScriptFailure { message: e.to_string(), cache: outcome });
    }
    let records =
        Rc::try_unwrap(records).expect("all other Rc holders dropped with the vm").into_inner();
    Ok(ScriptRun { records, instructions_used, prepared, cache: outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_script::analysis::analyze;
    use sor_script::Interpreter;
    use sor_sensors::environment::presets;
    use sor_sensors::SimulatedProvider;

    fn sensor_stack() -> SensorManager {
        let env = Arc::new(presets::bn_cafe(3));
        let mut mgr = SensorManager::new();
        for kind in [
            SensorKind::Temperature,
            SensorKind::Light,
            SensorKind::Microphone,
            SensorKind::WifiRssi,
            SensorKind::Gps,
            SensorKind::Accelerometer,
        ] {
            mgr.register(SimulatedProvider::new(kind, env.clone()));
        }
        mgr
    }

    /// A phone with a private script cache: tests run in parallel and
    /// would otherwise share the process-wide cache's counters.
    fn phone() -> MobileFrontend {
        let mut p = MobileFrontend::new(42, sensor_stack());
        p.set_script_cache(ScriptCache::new());
        p
    }

    /// The reference tree-walker running the raw source `src` at
    /// `base_time` on `p`'s sensors and privacy preferences: its result,
    /// the sensing calls it recorded, and its instruction count.
    fn reference_run(
        p: &MobileFrontend,
        src: &str,
        base_time: f64,
    ) -> (Result<(), String>, Vec<SensedRecord>, u64) {
        let allowed = SensorKind::ALL.iter().copied().filter(|&k| p.prefs.is_allowed(k)).collect();
        let records = Rc::new(RefCell::new(Vec::new()));
        let mut interp =
            Interpreter::with_host(build_host(base_time, &p.manager, &allowed, &records));
        let result = interp.run(src).map(drop).map_err(|e| e.to_string());
        let used = interp.instructions_used();
        drop(interp);
        (result, Rc::try_unwrap(records).expect("interpreter dropped").into_inner(), used)
    }

    fn uploaded_records(out: &[Message]) -> Vec<SensedRecord> {
        out.iter()
            .filter_map(|m| match m {
                Message::SensedDataUpload { records, .. } => Some(records.clone()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    fn assign(phone: &mut MobileFrontend, id: u64, script: &str, times: Vec<f64>) {
        phone.handle_message(&Message::ScheduleAssignment {
            task_id: id,
            script: script.into(),
            sense_times: times,
        });
    }

    #[test]
    fn schedule_creates_task() {
        let mut p = phone();
        assign(&mut p, 1, "get_light_readings(2)", vec![5.0]);
        assert_eq!(p.tasks().len(), 1);
        assert_eq!(p.task(1).unwrap().status, TaskStatus::Pending);
    }

    #[test]
    fn due_times_produce_uploads_and_completion() {
        let mut p = phone();
        assign(&mut p, 1, "get_light_readings(3)", vec![10.0, 20.0]);
        let out = p.advance_to(15.0);
        assert_eq!(out.len(), 1, "one sense time due: {out:?}");
        let Message::SensedDataUpload { task_id, records } = &out[0] else {
            panic!("expected upload, got {out:?}")
        };
        assert_eq!(*task_id, 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].values.len(), 3);
        assert_eq!(records[0].sensor, SensorKind::Light.wire_id());

        let out = p.advance_to(30.0);
        assert_eq!(out.len(), 2, "second upload + completion: {out:?}");
        assert!(matches!(out[1], Message::TaskComplete { task_id: 1, status: 0 }));
        assert_eq!(p.task(1).unwrap().status, TaskStatus::Finished);
    }

    #[test]
    fn multi_sensor_script_collects_all_records() {
        let mut p = phone();
        let script = r#"
            get_temperature_readings(2)
            get_noise_readings(4)
            get_location()
        "#;
        assign(&mut p, 7, script, vec![1.0]);
        let out = p.advance_to(2.0);
        let Message::SensedDataUpload { records, .. } = &out[0] else { panic!() };
        assert_eq!(records.len(), 3);
        let kinds: Vec<u16> = records.iter().map(|r| r.sensor).collect();
        assert!(kinds.contains(&SensorKind::Temperature.wire_id()));
        assert!(kinds.contains(&SensorKind::Microphone.wire_id()));
        assert!(kinds.contains(&SensorKind::Gps.wire_id()));
    }

    #[test]
    fn script_can_process_readings() {
        let mut p = phone();
        let script = r#"
            local t = get_temperature_readings(5)
            assert(#t == 5)
            local m = mean(t)
            assert(m > 50 and m < 90, "implausible cafe temperature: " .. m)
        "#;
        assign(&mut p, 2, script, vec![3.0]);
        let out = p.advance_to(5.0);
        assert!(matches!(out.last(), Some(Message::TaskComplete { status: 0, .. })));
        assert_eq!(p.task(2).unwrap().status, TaskStatus::Finished);
    }

    #[test]
    fn repeat_runs_compile_once_then_hit_the_cache() {
        let script = r#"
            local t = get_temperature_readings(4)
            local sum = 0
            for i = 1, #t do
                sum = sum + t[i]
            end
            return sum / #t
        "#;
        let mut p = phone();
        let rec = Recorder::enabled();
        p.set_recorder(rec.clone());
        assign(&mut p, 1, script, vec![1.0, 2.0, 3.0]);
        let out = p.advance_to(4.0);
        assert!(matches!(out.last(), Some(Message::TaskComplete { status: 0, .. })), "{out:?}");

        assert_eq!(rec.counter("script.vm_runs"), 3);
        // One compile on first dispatch, then cache hits.
        assert_eq!(rec.counter("script.cache_misses"), 1);
        assert_eq!(rec.counter("script.compile_runs"), 1);
        assert_eq!(rec.counter("script.cache_hits"), 2);
        assert_eq!(rec.counter("script.cache_evictions"), 0);
    }

    #[test]
    fn phones_built_with_new_share_one_process_cache() {
        // A script no other test dispatches, so no parallel test can
        // have compiled it into the process-wide cache first.
        let script = "return mean(get_light_readings(2)) -- process cache probe";
        let rec = Recorder::enabled();
        for token in [1, 2] {
            let mut p = MobileFrontend::new(token, sensor_stack());
            p.set_recorder(rec.clone());
            assign(&mut p, 1, script, vec![1.0]);
            p.advance_to(2.0);
        }
        assert_eq!(rec.counter("script.compile_runs"), 1, "second phone must reuse the compile");
        assert_eq!(rec.counter("script.cache_hits"), 1);
    }

    #[test]
    fn uploads_match_reference_interpreter_on_lint_corpus() {
        // `optdiff` compares values and errors, not host side effects:
        // here every admissible corpus script must make exactly the
        // sensing calls, in order, that the reference tree-walker makes
        // running the raw source at the same base time.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_corpus");
        let mut scripts: Vec<(String, String)> = std::fs::read_dir(dir)
            .expect("lint corpus exists")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "ss"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).expect("corpus script readable");
                (p.display().to_string(), src)
            })
            .collect();
        scripts.sort();
        // Corpus scripts that complete acquire at most once; these two
        // add ordered multi-sensor calls, one through optimizer rewrites.
        let multi_sensor = r#"
            get_temperature_readings(5)
            get_light_readings(5)
            get_noise_readings(10)
            get_wifi_readings(5)
        "#;
        let optimized_loop = r#"
            local t = get_temperature_readings(4)
            if 1 > 2 then t = nil end
            get_location()
            for i = 1, 3 do get_light_readings(i) end
            return mean(t)
        "#;
        scripts.push(("multi-sensor".into(), multi_sensor.into()));
        scripts.push(("optimized loop".into(), optimized_loop.into()));
        let mut with_records = 0;
        for (name, src) in &scripts {
            if analyze(src, &CapabilitySet::standard_sensing()).has_errors() {
                continue;
            }
            let mut p = phone();
            assign(&mut p, 1, src, vec![10.0]);
            let uploaded = uploaded_records(&p.advance_to(11.0));
            let status = &p.task(1).unwrap().status;
            match reference_run(&p, src, 10.0) {
                (Ok(()), records, _) => {
                    assert_eq!(uploaded, records, "{name}");
                    assert_eq!(*status, TaskStatus::Finished, "{name}");
                    with_records += usize::from(!records.is_empty());
                }
                (Err(e), _, _) => {
                    assert!(uploaded.is_empty(), "{name}: {e}");
                    assert!(matches!(status, TaskStatus::Error(_)), "{name}: {e}");
                }
            }
        }
        assert!(with_records >= 5, "too few scripts produced records: {with_records}");
    }

    #[test]
    fn fleet_shares_one_cache_across_phones() {
        let script = "return mean(get_light_readings(3))";
        let cache = ScriptCache::new();
        let rec = Recorder::enabled();
        let mut hits = 0u64;
        for token in 0..4 {
            let mut p = phone();
            p.set_recorder(rec.clone());
            p.set_script_cache(cache.clone());
            assign(&mut p, 100 + token, script, vec![1.0]);
            p.advance_to(2.0);
            let stats = cache.stats();
            hits = stats.hits;
            assert_eq!(stats.compiles, 1, "fleet must compile the script once");
        }
        assert_eq!(hits, 3, "phones 2..4 must hit the first phone's compilation");
        assert_eq!(rec.counter("script.cache_hits"), 3);
        assert_eq!(rec.counter("script.compile_runs"), 1);
    }

    #[test]
    fn vm_rejection_matches_tree_walker_and_counts_cache() {
        let src = "get_light_readings(1)\nsteal_contacts()";
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        assign(&mut p, 8, src, vec![1.0]);
        let out = p.advance_to(2.0);
        assert!(!out.iter().any(|m| matches!(m, Message::SensedDataUpload { .. })), "{out:?}");
        let TaskStatus::Error(msg) = &p.task(8).unwrap().status else { panic!() };
        // The same refusal the tree-walker path gave: the analyzer's
        // error findings, joined.
        let findings: Vec<String> = analyze(src, &CapabilitySet::standard_sensing())
            .errors()
            .map(ToString::to_string)
            .collect();
        assert_eq!(*msg, format!("script rejected before execution: {}", findings.join("; ")));
        // The rejection itself is cached; a re-dispatch hits it.
        assign(&mut p, 9, src, vec![3.0]);
        p.advance_to(4.0);
        assert_eq!(rec.counter("script.cache_misses"), 1);
        assert_eq!(rec.counter("script.cache_hits"), 1);
        assert_eq!(rec.counter("script.compile_runs"), 0, "rejections never compile");
        assert_eq!(rec.counter("script.vm_runs"), 0, "no run ever started");
        assert_eq!(rec.counter("script.runs_failed"), 2);
    }

    #[test]
    fn vm_metric_names_conform_to_convention() {
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        assign(&mut p, 1, "return mean(get_light_readings(2))", vec![1.0, 2.0]);
        p.advance_to(3.0);
        let m = rec.metrics_snapshot().unwrap();
        for required in
            ["script.vm_runs", "script.compile_runs", "script.cache_misses", "script.cache_hits"]
        {
            assert!(m.counters().any(|(k, _)| k == required), "missing counter {required}");
        }
        let violations = sor_obs::naming::audit(&m);
        assert!(violations.is_empty(), "nonconforming names:\n{}", violations.join("\n"));
    }

    #[test]
    fn vm_runtime_error_fails_the_task_like_the_tree_walker() {
        let mut p = phone();
        assign(&mut p, 4, "error('sensor exploded')", vec![1.0]);
        let out = p.advance_to(2.0);
        assert!(matches!(out[0], Message::TaskComplete { task_id: 4, status: 1 }));
        let TaskStatus::Error(msg) = &p.task(4).unwrap().status else { panic!() };
        assert!(msg.contains("sensor exploded"), "{msg}");
    }

    #[test]
    fn vm_with_optimizer_reports_opt_metrics() {
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        let script = r#"
            local t = get_temperature_readings(4)
            local scale = 2 * 3 - 5
            if 1 > 2 then
                t = nil
            end
            return mean(t) * scale
        "#;
        assign(&mut p, 1, script, vec![1.0]);
        let out = p.advance_to(2.0);
        assert!(matches!(out.last(), Some(Message::TaskComplete { status: 0, .. })), "{out:?}");
        assert!(rec.counter("script.opt_rewrites") > 0, "folds + pruned branch expected");
        assert!(rec.counter("script.opt_bound_saved") > 0);
        assert_eq!(rec.counter("script.vm_runs"), 1);
        // Same sensed data as the unoptimized source on the reference
        // tree-walker, in strictly fewer instructions.
        let (result, records, reference_used) = reference_run(&p, script, 1.0);
        result.unwrap();
        assert_eq!(uploaded_records(&out), records, "optimizer changed the sensed data");
        assert!(
            rec.counter("script.instructions_used") < reference_used,
            "optimized run should execute fewer instructions"
        );
    }

    #[test]
    fn privacy_veto_suppresses_gps_data() {
        let mut p = phone();
        p.preferences_mut().disallow(SensorKind::Gps);
        let script = r#"
            local loc = get_location()
            assert(loc == nil, "location must be vetoed")
            get_light_readings(1)
        "#;
        assign(&mut p, 3, script, vec![1.0]);
        let out = p.advance_to(2.0);
        let Message::SensedDataUpload { records, .. } = &out[0] else { panic!("{out:?}") };
        assert!(records.iter().all(|r| r.sensor != SensorKind::Gps.wire_id()));
    }

    #[test]
    fn barcode_scan_reports_location_unless_vetoed() {
        let mut p = phone();
        let Message::ParticipationRequest { latitude, token, budget, .. } =
            p.scan_barcode(5, 17, 1800.0)
        else {
            panic!()
        };
        assert_eq!(token, 42);
        assert_eq!(budget, 17);
        assert!((latitude - 43.0445).abs() < 0.01);

        p.preferences_mut().disallow(SensorKind::Gps);
        let Message::ParticipationRequest { latitude, .. } = p.scan_barcode(5, 17, 1800.0) else {
            panic!()
        };
        assert_eq!(latitude, 0.0);
    }

    #[test]
    fn script_error_marks_task_failed() {
        let mut p = phone();
        assign(&mut p, 4, "error('sensor exploded')", vec![1.0]);
        let out = p.advance_to(2.0);
        assert!(matches!(out[0], Message::TaskComplete { task_id: 4, status: 1 }));
        assert!(matches!(p.task(4).unwrap().status, TaskStatus::Error(_)));
    }

    #[test]
    fn unsupported_sensor_fails_the_task() {
        let mut p = phone();
        // Humidity has no provider in this phone's stack.
        assign(&mut p, 5, "get_humidity_readings(1)", vec![1.0]);
        let out = p.advance_to(2.0);
        assert!(matches!(out[0], Message::TaskComplete { task_id: 5, status: 1 }));
    }

    #[test]
    fn forbidden_function_fails_the_task() {
        let mut p = phone();
        assign(&mut p, 6, "steal_contacts()", vec![1.0]);
        let out = p.advance_to(2.0);
        assert!(matches!(out[0], Message::TaskComplete { status: 1, .. }));
        let TaskStatus::Error(msg) = &p.task(6).unwrap().status else { panic!() };
        assert!(msg.contains("non-whitelisted"), "{msg}");
    }

    #[test]
    fn standard_sensing_matches_phone_registry() {
        // The server verifies admissions against
        // `CapabilitySet::standard_sensing()`; the phone re-verifies
        // against its real registry. This pins the two vocabularies
        // together so the server can never admit a script the phone
        // will reject (or vice versa).
        let names: Vec<String> = {
            let mut v: Vec<String> = ACQUISITION_FNS.iter().map(|&(n, _)| n.to_string()).collect();
            v.push("get_location".to_string());
            v.sort();
            v
        };
        let standard: Vec<String> =
            CapabilitySet::standard_sensing().names().map(String::from).collect();
        assert_eq!(standard, names);
    }

    #[test]
    fn statically_rejected_script_spends_no_sensing_effort() {
        let mut p = phone();
        assign(&mut p, 8, "get_light_readings(1)\nsteal_contacts()", vec![1.0]);
        let out = p.advance_to(2.0);
        // The analyzer rejects before execution, so even the
        // whitelisted first line must not have sampled anything.
        assert!(!out.iter().any(|m| matches!(m, Message::SensedDataUpload { .. })), "{out:?}");
        assert!(matches!(out[0], Message::TaskComplete { task_id: 8, status: 1 }));
        let TaskStatus::Error(msg) = &p.task(8).unwrap().status else { panic!() };
        assert!(msg.contains("rejected before execution"), "{msg}");
    }

    #[test]
    fn reassignment_replaces_live_task_schedule() {
        let mut p = phone();
        assign(&mut p, 20, "get_light_readings(1)", vec![10.0, 20.0, 30.0]);
        p.advance_to(12.0);
        // Server replans: only one future reading now.
        assign(&mut p, 20, "get_light_readings(1)", vec![25.0]);
        let out = p.advance_to(40.0);
        let uploads = out
            .iter()
            .filter(|m| matches!(m, Message::SensedDataUpload { task_id: 20, .. }))
            .count();
        assert_eq!(uploads, 1, "{out:?}");
        assert_eq!(p.task(20).unwrap().status, TaskStatus::Finished);
    }

    #[test]
    fn wakeup_gets_ping_for_matching_token() {
        let mut p = phone();
        let replies = p.handle_message(&Message::WakeUp { token: 42 });
        assert!(matches!(replies[0], Message::Ping { token: 42, .. }));
        assert!(p.handle_message(&Message::WakeUp { token: 99 }).is_empty());
    }

    #[test]
    fn concurrent_tasks_execute_independently() {
        let mut p = phone();
        assign(&mut p, 10, "get_light_readings(1)", vec![5.0, 15.0]);
        assign(&mut p, 11, "get_noise_readings(1)", vec![7.0]);
        let out = p.advance_to(20.0);
        let uploads_10 = out
            .iter()
            .filter(|m| matches!(m, Message::SensedDataUpload { task_id: 10, .. }))
            .count();
        let uploads_11 = out
            .iter()
            .filter(|m| matches!(m, Message::SensedDataUpload { task_id: 11, .. }))
            .count();
        assert_eq!(uploads_10, 2);
        assert_eq!(uploads_11, 1);
    }

    #[test]
    fn records_are_time_stamped_at_due_time() {
        let mut p = phone();
        assign(&mut p, 12, "get_light_readings(1)", vec![33.0]);
        let out = p.advance_to(50.0);
        let Message::SensedDataUpload { records, .. } = &out[0] else { panic!() };
        assert_eq!(records[0].timestamp, 33.0);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn phone_time_monotonic() {
        let mut p = phone();
        p.advance_to(10.0);
        p.advance_to(5.0);
    }

    #[test]
    fn recorder_observes_script_runs_and_transitions() {
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        assign(&mut p, 1, "get_light_readings(2)\nget_noise_readings(1)", vec![5.0, 15.0]);
        p.advance_to(20.0);

        assert_eq!(rec.counter("phone.tasks_assigned"), 1);
        assert_eq!(rec.counter("phone.tasks_finished"), 1);
        assert_eq!(rec.counter("script.runs_started"), 2);
        assert_eq!(rec.counter("phone.records_acquired"), 4);
        assert_eq!(rec.counter("phone.sensor_acquired.light"), 2);
        assert_eq!(rec.counter("phone.sensor_acquired.microphone"), 2);
        assert!(rec.counter("script.instructions_used") > 0);

        // The bound/measured ratio was observed and is sound (≥ 1).
        let m = rec.metrics_snapshot().unwrap();
        let ratio = m.histogram("script.bound_over_measured").expect("ratio recorded");
        assert_eq!(ratio.count(), 2);
        assert!(ratio.min().unwrap() >= 1.0, "static bound below measured: {:?}", ratio.min());

        // Spans carry the instruction attribute at the due sim-times.
        let trace = rec.trace_snapshot().unwrap();
        let runs: Vec<_> = trace.spans_named("phone.script_run").collect();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].start, 5.0);
        assert_eq!(runs[1].start, 15.0);
        assert!(runs[0].attrs.iter().any(|(k, _)| k == "instructions"));
    }

    #[test]
    fn recorder_counts_failed_runs() {
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        assign(&mut p, 2, "error('sensor exploded')", vec![1.0]);
        p.advance_to(2.0);
        assert_eq!(rec.counter("script.runs_failed"), 1);
        assert_eq!(rec.counter("phone.tasks_errored"), 1);
        assert_eq!(rec.counter("phone.tasks_finished"), 0);
    }

    #[test]
    fn assignment_context_parents_runs_and_rides_on_uploads() {
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        // Simulate the server's dispatch span being span 90 of trace 8.
        let origin = TraceContext { trace_id: 8, parent_span: 90 };
        p.handle_message_ctx(
            &Message::ScheduleAssignment {
                task_id: 7,
                script: "get_light_readings(1)".into(),
                sense_times: vec![5.0],
            },
            Some(origin),
        );
        let out = p.advance_to_ctx(10.0);
        let (Message::SensedDataUpload { .. }, Some(upload_ctx)) = &out[0] else {
            panic!("expected traced upload, got {out:?}");
        };
        assert_eq!(upload_ctx.trace_id, 8, "trace id propagates");
        let trace = rec.trace_snapshot().unwrap();
        let run = trace.spans_named("phone.script_run").next().unwrap();
        assert_eq!(run.parent, Some(SpanId(90)), "run hangs off the dispatch span");
        assert!(run.attrs.iter().any(|(k, v)| k == "trace_id" && v == "8"));
        assert_eq!(upload_ctx.parent_span, run.id.0, "upload re-parented under the run");
        // The completion notice carries the origin context too.
        let (Message::TaskComplete { .. }, Some(done_ctx)) = &out[1] else { panic!("{out:?}") };
        assert_eq!(done_ctx.trace_id, 8);
    }

    #[test]
    fn queue_depth_gauges_cover_every_task_instance() {
        let rec = Recorder::enabled();
        let mut p = phone();
        p.set_recorder(rec.clone());
        assign(&mut p, 1, "get_light_readings(1)", vec![5.0]);
        assign(&mut p, 2, "get_noise_readings(1)", vec![7.0, 30.0]);
        p.advance_to(10.0);
        let m = rec.metrics_snapshot().unwrap();
        let gauges: Vec<&str> = m
            .gauges()
            .filter(|(k, _)| k.starts_with("phone.task_queue_depth."))
            .map(|(k, _)| k)
            .collect();
        assert_eq!(gauges, vec!["phone.task_queue_depth.task1", "phone.task_queue_depth.task2"]);
        assert_eq!(gauges.len(), p.tasks().len());
    }
}
