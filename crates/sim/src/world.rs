//! End-to-end world: real server + real phones over the lossy transport,
//! driven by the discrete-event queue.

use std::collections::HashMap;

use sor_durable::{DurableOptions, SimDisk};
use sor_frontend::{MobileFrontend, ScriptCache};
use sor_obs::{Alert, HealthEngine, Recorder, WindowRing};
use sor_proto::{Message, TraceContext};
use sor_server::{ApplicationSpec, SensingServer, ServerError};

use crate::engine::EventQueue;
use crate::transport::{Endpoint, InFlight, Transport};

/// World events.
#[derive(Debug)]
enum WorldEvent {
    /// A phone scans a place's barcode.
    Scan { phone: usize, app_id: u64, budget: u32, stay: f64 },
    /// A frame arrives at its destination.
    Deliver(InFlight),
    /// A phone wakes and executes due sense times; reschedules itself.
    PhoneSweep { phone: usize, interval: f64, until: f64 },
    /// The server pages phones it has not heard from (§II-A's GCM
    /// fallback); reschedules itself.
    LivenessCheck { interval: f64, threshold: f64, until: f64 },
    /// The server process dies abruptly and restarts from its simulated
    /// disk (only meaningful in a durable world).
    ServerCrash,
    /// The server runs a Data Processor pass (inbox drain + features);
    /// reschedules itself.
    ProcessData { interval: f64, until: f64 },
    /// The server refreshes its health gauges and the SLO engine grades
    /// every objective; reschedules itself.
    HealthCheck { interval: f64, until: f64 },
}

/// Entries per component in a crash post-mortem.
const POSTMORTEM_ENTRIES: usize = 64;

/// The rebuild recipe for a durable world: the shared simulated disk,
/// the durability knobs, and the application configuration to
/// re-register after recovery (configuration is not data — the real
/// deployment reads it from ops config, so the sim re-supplies it).
#[derive(Debug, Clone)]
struct DurableSetup {
    disk: SimDisk,
    opts: DurableOptions,
    apps: Vec<ApplicationSpec>,
}

/// Counters the scenarios assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Frames that failed to decode at a receiver (loss of integrity
    /// caught by the CRC).
    pub decode_failures: u64,
    /// Messages the server rejected (bad location, unknown task, …).
    pub server_rejections: u64,
    /// Sensed-data uploads accepted by the server.
    pub uploads_accepted: u64,
    /// WakeUp pages the server sent to quiet phones.
    pub pages_sent: u64,
    /// Abrupt server deaths followed by recovery from simulated disk.
    pub server_crashes: u64,
}

/// The simulated deployment of Fig. 2: phones, server, network.
pub struct SorWorld {
    /// The sensing server (backend).
    pub server: SensingServer,
    /// The participating phones.
    pub phones: Vec<MobileFrontend>,
    transport: Transport,
    queue: EventQueue<WorldEvent>,
    token_to_phone: HashMap<u64, usize>,
    /// Observable counters.
    pub stats: WorldStats,
    /// One [`sor_durable::RecoveryReport`] summary per recovery, in
    /// crash order — scenario assertions and the smoke binary read
    /// these.
    pub recoveries: Vec<String>,
    /// One post-mortem per server crash, in crash order: the last 64
    /// span starts and events of each component (by name prefix),
    /// rendered from the trace at the crash, before recovery runs, so
    /// it shows what the deployment was doing when it died. Empty when
    /// the recorder is disabled.
    pub postmortems: Vec<String>,
    /// Every SLO alert fired by the health engine, in firing order.
    pub alerts: Vec<Alert>,
    recorder: Recorder,
    /// One compilation cache for the whole fleet: every phone added to
    /// the world gets a handle, so a script dispatched to N phones is
    /// compiled once and the `script.cache_*` counters are per world.
    script_cache: ScriptCache,
    durable: Option<DurableSetup>,
    health: Option<HealthEngine>,
    windows: Option<WindowRing>,
}

impl std::fmt::Debug for SorWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SorWorld")
            .field("phones", &self.phones.len())
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SorWorld {
    /// A world around a configured server and transport.
    pub fn new(server: SensingServer, transport: Transport) -> Self {
        SorWorld {
            server,
            phones: Vec::new(),
            transport,
            queue: EventQueue::new(),
            token_to_phone: HashMap::new(),
            stats: WorldStats::default(),
            recoveries: Vec::new(),
            postmortems: Vec::new(),
            alerts: Vec::new(),
            recorder: Recorder::default(),
            script_cache: ScriptCache::new(),
            durable: None,
            health: None,
            windows: None,
        }
    }

    /// A world whose server persists to a [`SimDisk`], so
    /// [`SorWorld::schedule_crash`] can kill it mid-scenario and rebuild
    /// it from whatever the disk kept. The applications are registered
    /// now and re-registered after every recovery.
    ///
    /// # Errors
    ///
    /// Server construction or application registration failures.
    pub fn durable(
        disk: SimDisk,
        opts: DurableOptions,
        apps: Vec<ApplicationSpec>,
        transport: Transport,
        recorder: Recorder,
    ) -> Result<Self, ServerError> {
        let (mut server, _report) =
            SensingServer::durable(Box::new(disk.clone()), opts, recorder.clone(), 0.0)?;
        for spec in &apps {
            server.register_application(spec.clone())?;
        }
        let mut world = SorWorld::new(server, transport);
        world.durable = Some(DurableSetup { disk, opts, apps });
        world.set_recorder(recorder);
        Ok(world)
    }

    /// Schedules an abrupt server death at `at`. Panics at dispatch
    /// time if the world was not built with [`SorWorld::durable`] — a
    /// crash without a disk to recover from is a scenario bug.
    pub fn schedule_crash(&mut self, at: f64) {
        self.queue.schedule(at, WorldEvent::ServerCrash);
    }

    /// Installs one recorder across the whole deployment: the server
    /// (and its database), every phone, and the transport. Phones added
    /// afterwards inherit it.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.server.set_recorder(recorder.clone());
        for phone in &mut self.phones {
            phone.set_recorder(recorder.clone());
        }
        self.transport.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The installed recorder (disabled unless [`SorWorld::set_recorder`]
    /// was called with an enabled one).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Read access to the transport's send/drop/corrupt counters.
    pub fn transport(&self) -> &Transport {
        &self.transport
    }

    /// The fleet-wide script compilation cache handle.
    pub fn script_cache(&self) -> &ScriptCache {
        &self.script_cache
    }

    /// Adds a phone, returning its index.
    pub fn add_phone(&mut self, mut phone: MobileFrontend) -> usize {
        phone.set_recorder(self.recorder.clone());
        phone.set_script_cache(self.script_cache.clone());
        let idx = self.phones.len();
        self.token_to_phone.insert(phone.token(), idx);
        self.phones.push(phone);
        idx
    }

    /// Schedules a barcode scan.
    pub fn schedule_scan(&mut self, at: f64, phone: usize, app_id: u64, budget: u32, stay: f64) {
        self.queue.schedule(at, WorldEvent::Scan { phone, app_id, budget, stay });
    }

    /// Schedules periodic task sweeps for one phone.
    pub fn schedule_sweeps(&mut self, phone: usize, start: f64, interval: f64, until: f64) {
        self.queue.schedule(start, WorldEvent::PhoneSweep { phone, interval, until });
    }

    /// Schedules periodic server liveness checks: phones silent for more
    /// than `threshold` seconds get a WakeUp page over the transport.
    pub fn schedule_liveness_checks(
        &mut self,
        start: f64,
        interval: f64,
        threshold: f64,
        until: f64,
    ) {
        self.queue.schedule(start, WorldEvent::LivenessCheck { interval, threshold, until });
    }

    /// Schedules periodic Data Processor passes on the server — the
    /// paper's "periodically checks if there are any binary sensed data
    /// in the database".
    pub fn schedule_processing(&mut self, start: f64, interval: f64, until: f64) {
        self.queue.schedule(start, WorldEvent::ProcessData { interval, until });
    }

    /// Schedules periodic SLO evaluation with the default catalog (see
    /// `sor_obs::HealthEngine::default_catalog`). Alerts fire into
    /// [`SorWorld::alerts`] and — when a trace is live — as `slo.alert`
    /// trace events. Each check also closes a metrics window, so the
    /// check interval doubles as the window period and the catalog's
    /// trend objectives grade against real per-period deltas.
    pub fn schedule_health_checks(&mut self, start: f64, interval: f64, until: f64) {
        if self.health.is_none() {
            self.health = Some(HealthEngine::with_default_catalog());
        }
        if self.windows.is_none() {
            self.windows = Some(WindowRing::default());
        }
        self.queue.schedule(start, WorldEvent::HealthCheck { interval, until });
    }

    /// The health engine, once [`SorWorld::schedule_health_checks`] has
    /// installed it (final-report rendering).
    pub fn health_engine(&self) -> Option<&HealthEngine> {
        self.health.as_ref()
    }

    /// The metrics window ring, once [`SorWorld::schedule_health_checks`]
    /// has installed it — one window closed per health check.
    pub fn window_ring(&self) -> Option<&WindowRing> {
        self.windows.as_ref()
    }

    fn post(&mut self, now: f64, to: Endpoint, msg: &Message) {
        self.post_traced(now, to, msg, None);
    }

    fn post_traced(&mut self, now: f64, to: Endpoint, msg: &Message, ctx: Option<TraceContext>) {
        if let Some(flight) = self.transport.send_traced(now, to, msg, ctx) {
            self.queue.schedule(flight.deliver_at, WorldEvent::Deliver(flight));
        }
    }

    /// Runs the event loop until the queue drains or `until` passes.
    pub fn run_until(&mut self, until: f64) {
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked");
            self.recorder.observe("sim.queue_depth", self.queue.len() as f64);
            self.recorder.count_labeled("sim.events_dispatched", event_kind(&event), 1);
            self.dispatch(now, event);
        }
        // Settle clocks at the horizon.
        if self.server.now() < until {
            self.server.tick(until);
        }
    }

    fn dispatch(&mut self, now: f64, event: WorldEvent) {
        match event {
            WorldEvent::Scan { phone, app_id, budget, stay } => {
                if self.phones[phone].now() < now {
                    let msgs = self.phones[phone].advance_to_ctx(now);
                    self.forward_phone_messages(now, msgs);
                }
                let req = self.phones[phone].scan_barcode(app_id, budget, stay);
                self.post(now, Endpoint::Server, &req);
            }
            WorldEvent::PhoneSweep { phone, interval, until } => {
                let msgs = self.phones[phone].advance_to_ctx(now);
                self.forward_phone_messages(now, msgs);
                if now + interval <= until {
                    self.queue.schedule(
                        now + interval,
                        WorldEvent::PhoneSweep { phone, interval, until },
                    );
                }
            }
            WorldEvent::LivenessCheck { interval, threshold, until } => {
                self.server.tick(now);
                let pages = self.server.page_quiet_phones(threshold);
                for (token, msg) in pages {
                    if let Some(&idx) = self.token_to_phone.get(&token) {
                        self.stats.pages_sent += 1;
                        self.recorder.count("server.pages_sent", 1);
                        self.post(now, Endpoint::Phone(idx), &msg);
                    }
                }
                if now + interval <= until {
                    self.queue.schedule(
                        now + interval,
                        WorldEvent::LivenessCheck { interval, threshold, until },
                    );
                }
            }
            WorldEvent::ServerCrash => {
                let setup = self
                    .durable
                    .clone()
                    .expect("ServerCrash scheduled on a world without durable storage");
                if let Some(dump) = self.recorder.trace_postmortem(POSTMORTEM_ENTRIES) {
                    self.postmortems.push(dump);
                }
                // Kill: anything the server had not flushed is torn off
                // by the disk's fault model. The old server object is
                // simply dropped — nothing gets a chance to sync.
                setup.disk.crash();
                let (server, report) = SensingServer::durable(
                    Box::new(setup.disk.clone()),
                    setup.opts,
                    self.recorder.clone(),
                    now,
                )
                .expect("recovery must always yield a serving state");
                self.server = server;
                for spec in setup.apps {
                    self.server
                        .register_application(spec)
                        .expect("re-registering a previously accepted application");
                }
                self.stats.server_crashes += 1;
                self.recoveries.push(report.summary());
                self.recorder.count("sim.server_crashes", 1);
            }
            WorldEvent::ProcessData { interval, until } => {
                self.server.tick(now);
                self.server.process_data().expect("processor pass on installed tables");
                if now + interval <= until {
                    self.queue
                        .schedule(now + interval, WorldEvent::ProcessData { interval, until });
                }
            }
            WorldEvent::HealthCheck { interval, until } => {
                self.server.tick(now);
                self.server.update_health_gauges();
                // Close the window *before* grading so trend objectives
                // see this period's deltas as the latest reading.
                if let Some(ring) = self.windows.as_mut() {
                    if let Some(snapshot) = self.recorder.metrics_snapshot() {
                        ring.roll(now, &snapshot);
                        self.recorder.count("obs.windows_rolled", 1);
                    }
                }
                if let Some(engine) = self.health.as_mut() {
                    self.alerts.extend(engine.evaluate_and_emit_windowed(
                        &self.recorder,
                        self.windows.as_ref(),
                        now,
                    ));
                }
                if now + interval <= until {
                    self.queue
                        .schedule(now + interval, WorldEvent::HealthCheck { interval, until });
                }
            }
            WorldEvent::Deliver(flight) => {
                let Ok((msg, ctx)) = Message::decode_traced(&flight.frame) else {
                    self.stats.decode_failures += 1;
                    self.recorder.count_labeled("net.frames_rejected", flight.to.label(), 1);
                    return;
                };
                match flight.to {
                    Endpoint::Server => {
                        self.server.tick(now);
                        match self.server.handle_message_ctx(&msg, ctx) {
                            Ok(replies) => {
                                if matches!(msg, Message::SensedDataUpload { .. }) {
                                    self.stats.uploads_accepted += 1;
                                }
                                for (token, reply, reply_ctx) in replies {
                                    if let Some(&idx) = self.token_to_phone.get(&token) {
                                        self.post_traced(
                                            now,
                                            Endpoint::Phone(idx),
                                            &reply,
                                            reply_ctx,
                                        );
                                    }
                                }
                            }
                            Err(_) => self.stats.server_rejections += 1,
                        }
                    }
                    Endpoint::Phone(idx) => {
                        if self.phones[idx].now() < now {
                            let msgs = self.phones[idx].advance_to_ctx(now);
                            self.forward_phone_messages(now, msgs);
                        }
                        let replies = self.phones[idx].handle_message_ctx(&msg, ctx);
                        for reply in replies {
                            self.post(now, Endpoint::Server, &reply);
                        }
                    }
                }
            }
        }
    }

    fn forward_phone_messages(&mut self, now: f64, msgs: Vec<(Message, Option<TraceContext>)>) {
        for (msg, ctx) in msgs {
            self.post_traced(now, Endpoint::Server, &msg, ctx);
        }
    }
}

fn event_kind(event: &WorldEvent) -> &'static str {
    match event {
        WorldEvent::Scan { .. } => "scan",
        WorldEvent::Deliver(_) => "deliver",
        WorldEvent::PhoneSweep { .. } => "phone_sweep",
        WorldEvent::LivenessCheck { .. } => "liveness_check",
        WorldEvent::ServerCrash => "server_crash",
        WorldEvent::ProcessData { .. } => "process_data",
        WorldEvent::HealthCheck { .. } => "health_check",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportConfig;
    use sor_sensors::environment::presets;
    use sor_sensors::{SensorKind, SensorManager, SimulatedProvider};
    use sor_server::{ApplicationSpec, Extractor, FeatureSpec};
    use std::sync::Arc;

    fn cafe_spec() -> ApplicationSpec {
        ApplicationSpec {
            app_id: 1,
            name: "B&N Cafe".into(),
            creator: "owner".into(),
            category: "coffee-shop".into(),
            latitude: 43.0445,
            longitude: -76.0749,
            radius_m: 200.0,
            script: "get_temperature_readings(5)\nget_noise_readings(5)".into(),
            period_seconds: 3600.0,
            instants: 360,
            features: vec![
                FeatureSpec::new(
                    "temperature",
                    "°F",
                    Extractor::Mean { sensor: SensorKind::Temperature.wire_id() },
                    60.0,
                ),
                FeatureSpec::new(
                    "noise",
                    "",
                    Extractor::Mean { sensor: SensorKind::Microphone.wire_id() },
                    20.0,
                ),
            ],
        }
    }

    fn add_cafe_phones(world: &mut SorWorld) {
        let env = Arc::new(presets::bn_cafe(5));
        for token in 0..3u64 {
            let mut mgr = SensorManager::new();
            for kind in [SensorKind::Temperature, SensorKind::Microphone, SensorKind::Gps] {
                mgr.register(SimulatedProvider::new(kind, env.clone()));
            }
            let idx = world.add_phone(MobileFrontend::new(token, mgr));
            world.schedule_sweeps(idx, 1.0, 20.0, 3600.0);
        }
    }

    fn cafe_world(transport: Transport) -> SorWorld {
        let mut server = SensingServer::new().unwrap();
        server.register_application(cafe_spec()).unwrap();
        let mut world = SorWorld::new(server, transport);
        add_cafe_phones(&mut world);
        world
    }

    #[test]
    fn end_to_end_collection_produces_features() {
        let mut world = cafe_world(Transport::perfect());
        for phone in 0..3 {
            world.schedule_scan(phone as f64 * 60.0, phone, 1, 8, 1800.0);
        }
        world.run_until(3600.0);
        world.server.process_data().unwrap();
        assert!(world.stats.uploads_accepted > 0, "{:?}", world.stats);
        assert_eq!(world.stats.decode_failures, 0);
        let temp = world.server.feature_value(1, "temperature").unwrap().unwrap();
        assert!((temp - 71.0).abs() < 2.0, "temperature {temp}");
        let noise = world.server.feature_value(1, "noise").unwrap().unwrap();
        assert!((0.0..0.3).contains(&noise), "noise {noise}");
    }

    #[test]
    fn fleet_compiles_each_script_once() {
        // Three phones run the app's one script many times: the world's
        // shared cache compiles it once and serves every later dispatch.
        let mut world = cafe_world(Transport::perfect());
        for phone in 0..3 {
            world.schedule_scan(phone as f64 * 60.0, phone, 1, 8, 1800.0);
        }
        world.run_until(3600.0);
        assert!(world.stats.uploads_accepted > 0, "{:?}", world.stats);
        let cache = world.script_cache().stats();
        assert_eq!(cache.compiles, 1, "one script, one compilation for the whole fleet");
        assert!(cache.hits > 0, "fleet re-dispatches must hit: {cache:?}");
    }

    #[test]
    fn privacy_violating_script_rejected_end_to_end() {
        // App 1 uploads a raw GPS trace (taint-rejected at admission);
        // app 2 aggregates the same acquisition and must sail through
        // the whole pipeline: admission, dispatch, sensing, upload.
        let raw_spec = ApplicationSpec {
            app_id: 1,
            name: "tracker".into(),
            script: "local track = get_gps_readings(4)\nreturn track".into(),
            ..cafe_spec()
        };
        let agg_spec = ApplicationSpec {
            app_id: 2,
            name: "aggregator".into(),
            script: "local track = get_gps_readings(4)\nreturn mean(track)".into(),
            features: Vec::new(),
            ..cafe_spec()
        };
        let rec = Recorder::enabled();
        let mut server = SensingServer::new().unwrap();
        server.set_recorder(rec.clone());
        server.register_application(raw_spec).unwrap();
        server.register_application(agg_spec).unwrap();
        let mut world = SorWorld::new(server, Transport::perfect());
        add_cafe_phones(&mut world);

        world.schedule_scan(10.0, 0, 1, 4, 1800.0); // privacy-violating app
        world.schedule_scan(20.0, 1, 2, 4, 1800.0); // aggregated app
        world.run_until(3600.0);

        // The raw-return app died at admission, before any scheduling.
        assert_eq!(rec.counter("server.scripts_rejected_privacy"), 1);
        assert_eq!(world.stats.server_rejections, 1, "{:?}", world.stats);
        assert!(world.server.participation().active_for(1).is_empty());

        // The aggregated app ran its full sensing schedule.
        assert_eq!(rec.counter("server.admissions_accepted"), 1);
        assert!(world.stats.uploads_accepted > 0, "{:?}", world.stats);
        assert!(world.server.participation().all().any(|t| t.app_id == 2));
    }

    #[test]
    fn lossy_network_still_converges() {
        let mut world = cafe_world(Transport::new(TransportConfig {
            loss_rate: 0.2,
            seed: 3,
            ..Default::default()
        }));
        for phone in 0..3 {
            world.schedule_scan(phone as f64 * 30.0, phone, 1, 10, 3000.0);
        }
        world.run_until(3600.0);
        world.server.process_data().unwrap();
        // Some uploads get through; features still computable.
        assert!(world.stats.uploads_accepted > 0);
        assert!(world.server.feature_value(1, "temperature").unwrap().is_some());
    }

    #[test]
    fn corrupted_frames_are_rejected_not_ingested() {
        let mut world = cafe_world(Transport::new(TransportConfig {
            corruption_rate: 1.0,
            seed: 4,
            ..Default::default()
        }));
        world.schedule_scan(0.0, 0, 1, 5, 1000.0);
        world.run_until(2000.0);
        assert!(world.stats.decode_failures > 0);
        assert_eq!(world.stats.uploads_accepted, 0);
    }

    #[test]
    fn quiet_phones_get_paged_and_ping_back() {
        // A fully lossy uplink: the server never hears uploads, so the
        // phone goes quiet and must be paged. Pages and pings travel on
        // the same transport, so with full loss nothing arrives either —
        // use a perfect transport but a phone with NO sweeps (it simply
        // never sends anything after the scan).
        let mut world = cafe_world(Transport::perfect());
        // Note: cafe_world schedules sweeps; add one extra silent phone.
        let env = Arc::new(presets::bn_cafe(99));
        let mut mgr = SensorManager::new();
        for kind in [SensorKind::Temperature, SensorKind::Gps] {
            mgr.register(SimulatedProvider::new(kind, env.clone()));
        }
        let idx = world.add_phone(MobileFrontend::new(42, mgr));
        world.schedule_scan(0.0, idx, 1, 0, 3600.0); // zero budget: silent after scan
        world.schedule_liveness_checks(10.0, 60.0, 120.0, 1000.0);
        world.run_until(1000.0);
        assert!(world.stats.pages_sent > 0, "{:?}", world.stats);
        // The paged phone replied: it is not paged every single check.
        assert!(
            world.stats.pages_sent < 8,
            "pings should re-arm the liveness timer: {:?}",
            world.stats
        );
    }

    #[test]
    fn server_crash_mid_run_recovers_and_keeps_collecting() {
        let mut world = SorWorld::durable(
            SimDisk::new(11),
            DurableOptions::default(),
            vec![cafe_spec()],
            Transport::perfect(),
            Recorder::default(),
        )
        .unwrap();
        add_cafe_phones(&mut world);
        for phone in 0..3 {
            world.schedule_scan(phone as f64 * 60.0, phone, 1, 8, 3000.0);
        }
        world.schedule_crash(900.0);
        world.run_until(3600.0);
        assert_eq!(world.stats.server_crashes, 1);
        assert_eq!(world.recoveries.len(), 1);
        assert!(world.recoveries[0].starts_with("recovery:"), "{}", world.recoveries[0]);
        world.server.process_data().unwrap();
        assert!(world.stats.uploads_accepted > 0, "{:?}", world.stats);
        // Recovered tasks survive: the participation manager still
        // knows every admitted phone.
        assert_eq!(world.server.participation().all().count(), 3);
        let temp = world.server.feature_value(1, "temperature").unwrap().unwrap();
        assert!((temp - 71.0).abs() < 2.0, "temperature {temp}");
    }

    #[test]
    #[should_panic(expected = "without durable storage")]
    fn crash_on_an_ephemeral_world_is_a_scenario_bug() {
        let mut world = cafe_world(Transport::perfect());
        world.schedule_crash(1.0);
        world.run_until(10.0);
    }

    #[test]
    fn scan_for_unknown_app_is_rejected() {
        let mut world = cafe_world(Transport::perfect());
        world.schedule_scan(0.0, 0, 99, 5, 1000.0);
        world.run_until(100.0);
        assert_eq!(world.stats.server_rejections, 1);
    }
}
