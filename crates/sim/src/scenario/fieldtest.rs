//! The field tests of §V-A (hiking trails) and §V-B (coffee shops),
//! rebuilt end to end: synthetic places, real phones, real server, real
//! wire protocol.

use std::sync::Arc;

use sor_core::ranking::{FeatureMatrix, Preference, UserPreferences};
use sor_durable::{DurableOptions, SimDisk};
use sor_frontend::MobileFrontend;
use sor_obs::{
    sample_trace, Alert, HealthReport, Recorder, RunArchive, RunMeta, SamplePolicy, SampleStats,
    WindowRing, ARCHIVE_SCHEMA_VERSION,
};
use sor_sensors::environment::Environment;
use sor_sensors::{EnergyMeter, SensorKind, SensorManager, SimulatedProvider};
use sor_server::ranker::assemble_matrix;
use sor_server::{ApplicationSpec, Extractor, FeatureSpec, SensingServer, ServerError};

use crate::transport::{Transport, TransportConfig};
use crate::world::{SorWorld, WorldStats};

/// Field-test knobs. Defaults follow the paper: a 3-hour window
/// (11:00–14:00), 7 phones per trail / 12 per coffee shop, generous
/// budgets.
#[derive(Debug, Clone, Copy)]
pub struct FieldTestConfig {
    /// Phones per place.
    pub phones_per_place: usize,
    /// Test duration in seconds.
    pub duration: f64,
    /// Per-phone sensing budget.
    pub budget: u32,
    /// Phone sweep interval (seconds).
    pub sweep_interval: f64,
    /// Environment / transport noise seed.
    pub seed: u64,
    /// Network behaviour (defaults to a perfect link; the degraded SLO
    /// scenarios elevate `loss_rate`).
    pub network: TransportConfig,
    /// Interval between the server's periodic Data Processor passes
    /// (the paper's "periodically checks … binary sensed data").
    pub processing_interval: f64,
    /// Interval between SLO health evaluations.
    pub health_interval: f64,
}

impl FieldTestConfig {
    /// The §V-B coffee-shop setup (12 phones).
    pub fn coffee() -> Self {
        FieldTestConfig {
            phones_per_place: 12,
            duration: 10_800.0,
            budget: 17,
            sweep_interval: 30.0,
            seed: 20131115, // Nov 15, 2013 — the coffee-shop test date
            network: TransportConfig::default(),
            processing_interval: 120.0,
            health_interval: 600.0,
        }
    }

    /// The §V-A hiking-trail setup (7 phones).
    pub fn trails() -> Self {
        FieldTestConfig {
            phones_per_place: 7,
            duration: 10_800.0,
            budget: 17,
            sweep_interval: 30.0,
            seed: 20131117, // Nov 17, 2013 — the trail test date
            network: TransportConfig::default(),
            processing_interval: 120.0,
            health_interval: 600.0,
        }
    }

    /// A small/fast variant for unit tests.
    pub fn quick(seed: u64) -> Self {
        FieldTestConfig {
            phones_per_place: 3,
            duration: 1_800.0,
            budget: 8,
            sweep_interval: 20.0,
            seed,
            network: TransportConfig::default(),
            processing_interval: 120.0,
            health_interval: 300.0,
        }
    }

    /// The same config over a degraded network: an elevated frame drop
    /// rate that should trip the transport-drop SLO while leaving the
    /// pipeline functional.
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        self.network = TransportConfig { loss_rate, seed: self.seed, ..self.network };
        self
    }
}

/// What a field test produces.
#[derive(Debug)]
pub struct FieldTestOutcome {
    /// The server after collection + processing (rank against it).
    pub server: SensingServer,
    /// The assembled feature matrix `H` for the category.
    pub matrix: FeatureMatrix,
    /// App ids in matrix row order.
    pub app_ids: Vec<u64>,
    /// Transport/ingest statistics.
    pub stats: WorldStats,
    /// Total sensing energy spent per place (millijoules), in app-id
    /// order — the fleet-wide cost of the collection.
    pub energy_mj_per_place: Vec<f64>,
    /// One recovery summary per server crash (empty for crash-free or
    /// ephemeral runs), in crash order.
    pub recoveries: Vec<String>,
    /// One post-mortem per crash, rendered from the trace at the crash
    /// (see [`SorWorld::postmortems`]), in crash order; empty with a
    /// disabled recorder.
    pub postmortems: Vec<String>,
    /// Every SLO alert the health engine fired during the run, in
    /// firing order (empty without periodic health checks or when every
    /// objective held).
    pub alerts: Vec<Alert>,
    /// The final end-of-run health grade (None with a disabled
    /// recorder).
    pub health: Option<HealthReport>,
    /// The windowed-metrics ring — one window per health check (None
    /// when the run had no periodic health checks).
    pub windows: Option<WindowRing>,
}

/// Environment knobs captured into every run archive: anything that
/// can change scenario behaviour and therefore comparability.
pub const ARCHIVED_KNOBS: &[&str] = &["SOR_THREADS", "SOR_TRACE_SAMPLE"];

impl FieldTestOutcome {
    /// Bundles this run's observability artifacts into a [`RunArchive`]
    /// ready for sealing: the trace (sampled under the run seed via
    /// [`SamplePolicy::from_env`]), the metric registry *including* the
    /// sampling counters (so a re-export from the archive is
    /// byte-identical to the live export), the windowed deltas, the
    /// server's top-k sketches, the SLO report card, and provenance
    /// metadata. `None` with a disabled recorder — there is nothing to
    /// archive.
    pub fn archive(
        &self,
        recorder: &Recorder,
        cfg: &FieldTestConfig,
        scenario: &str,
        git_sha: &str,
    ) -> Option<(RunArchive, SampleStats)> {
        let full = recorder.trace_snapshot()?;
        let mut metrics = recorder.metrics_snapshot()?;
        let policy = SamplePolicy::from_env(cfg.seed);
        let (trace, stats) = sample_trace(&full, &policy);
        stats.record_into(&mut metrics);
        let mut knobs: Vec<(String, String)> = ARCHIVED_KNOBS
            .iter()
            .filter_map(|name| std::env::var(name).ok().map(|v| (name.to_string(), v)))
            .collect();
        knobs.sort();
        let archive = RunArchive {
            meta: RunMeta {
                schema_version: ARCHIVE_SCHEMA_VERSION,
                git_sha: git_sha.to_string(),
                scenario: scenario.to_string(),
                seed: cfg.seed,
                threads: sor_par::current_threads() as u32,
                knobs,
            },
            trace,
            metrics,
            windows: self.windows.clone(),
            topk: vec![
                ("hot upload places".to_string(), self.server.topk_uploads().clone()),
                ("hot dispatch scripts".to_string(), self.server.topk_dispatches().clone()),
            ],
            health: self.health.clone(),
        };
        Some((archive, stats))
    }
}

/// Durability knobs for a crash-injecting field test.
#[derive(Debug, Clone)]
pub struct DurableRun {
    /// The simulated disk the server persists to across crashes.
    pub disk: SimDisk,
    /// Write-ahead-log and checkpoint knobs.
    pub opts: DurableOptions,
    /// Instants (seconds) at which the server dies and recovers.
    pub crash_times: Vec<f64>,
}

impl DurableRun {
    /// A durable run with `crash_times` crashes on a fresh disk seeded
    /// from the field-test seed.
    pub fn crashes_at(cfg: &FieldTestConfig, crash_times: Vec<f64>) -> Self {
        DurableRun {
            disk: SimDisk::new(cfg.seed ^ 0xD15C),
            opts: DurableOptions::default(),
            crash_times,
        }
    }
}

/// The coffee-shop feature set (Fig. 10): temperature, brightness,
/// background noise, WiFi signal strength. All are plain averages, as in
/// §V-B. σ values: slow features large, fast features small (§III).
pub fn coffee_features() -> Vec<FeatureSpec> {
    vec![
        FeatureSpec::new(
            "temperature",
            "°F",
            Extractor::Mean { sensor: SensorKind::Temperature.wire_id() },
            60.0,
        ),
        FeatureSpec::new(
            "brightness",
            "lux",
            Extractor::Mean { sensor: SensorKind::Light.wire_id() },
            30.0,
        ),
        FeatureSpec::new(
            "noise",
            "",
            Extractor::Mean { sensor: SensorKind::Microphone.wire_id() },
            10.0,
        ),
        FeatureSpec::new(
            "wifi",
            "dBm",
            Extractor::Mean { sensor: SensorKind::WifiRssi.wire_id() },
            10.0,
        ),
    ]
}

/// The hiking-trail feature set (Fig. 6): temperature, humidity,
/// roughness of road surface, curvature, altitude change — with the
/// §V-A extraction methods.
pub fn trail_features() -> Vec<FeatureSpec> {
    vec![
        FeatureSpec::new(
            "temperature",
            "°F",
            Extractor::Mean { sensor: SensorKind::Temperature.wire_id() },
            60.0,
        ),
        FeatureSpec::new(
            "humidity",
            "%",
            Extractor::Mean { sensor: SensorKind::Humidity.wire_id() },
            60.0,
        ),
        FeatureSpec::new(
            "roughness",
            "m/s²",
            Extractor::WindowedDeviation { sensor: SensorKind::Accelerometer.wire_id(), arity: 3 },
            5.0,
        ),
        FeatureSpec::new(
            "curvature",
            "°/100m",
            Extractor::Curvature { gps_sensor: SensorKind::Gps.wire_id() },
            30.0,
        ),
        FeatureSpec::new(
            "altitude-change",
            "m",
            Extractor::AltitudeChange { gps_sensor: SensorKind::Gps.wire_id() },
            30.0,
        ),
    ]
}

/// The SenseScript distributed for coffee shops.
pub const COFFEE_SCRIPT: &str = "\
get_temperature_readings(5)
get_light_readings(5)
get_noise_readings(10)
get_wifi_readings(5)
";

/// The SenseScript distributed for trails.
pub const TRAIL_SCRIPT: &str = "\
get_temperature_readings(3)
get_humidity_readings(3)
get_accel_readings(40)
get_gps_readings(10)
";

const COFFEE_SENSORS: &[SensorKind] = &[
    SensorKind::Temperature,
    SensorKind::Light,
    SensorKind::Microphone,
    SensorKind::WifiRssi,
    SensorKind::Gps,
];

const TRAIL_SENSORS: &[SensorKind] =
    &[SensorKind::Temperature, SensorKind::Humidity, SensorKind::Accelerometer, SensorKind::Gps];

/// Runs the §V-B coffee-shop field test over the three preset shops.
///
/// # Errors
///
/// Server/storage errors while assembling the feature matrix.
pub fn run_coffee_field_test(cfg: FieldTestConfig) -> Result<FieldTestOutcome, ServerError> {
    run_coffee_field_test_traced(cfg, Recorder::default())
}

/// [`run_coffee_field_test`] with a recorder wired through the whole
/// deployment (server, phones, transport, store).
///
/// # Errors
///
/// Server/storage errors while assembling the feature matrix.
pub fn run_coffee_field_test_traced(
    cfg: FieldTestConfig,
    recorder: Recorder,
) -> Result<FieldTestOutcome, ServerError> {
    run_coffee_field_test_inner(cfg, recorder, None)
}

/// The §V-B coffee-shop field test on a durable server that crashes and
/// recovers at each of `durable.crash_times` — every acked upload must
/// survive each restart.
///
/// # Errors
///
/// Server/storage/durability errors while running or ranking.
pub fn run_coffee_field_test_durable(
    cfg: FieldTestConfig,
    durable: DurableRun,
) -> Result<FieldTestOutcome, ServerError> {
    run_coffee_field_test_inner(cfg, Recorder::default(), Some(durable))
}

/// [`run_coffee_field_test_durable`] with an explicit recorder — pass an
/// enabled one to collect a post-mortem at every crash.
///
/// # Errors
///
/// Server/storage/durability errors while running or ranking.
pub fn run_coffee_field_test_durable_traced(
    cfg: FieldTestConfig,
    durable: DurableRun,
    recorder: Recorder,
) -> Result<FieldTestOutcome, ServerError> {
    run_coffee_field_test_inner(cfg, recorder, Some(durable))
}

fn run_coffee_field_test_inner(
    cfg: FieldTestConfig,
    recorder: Recorder,
    durable: Option<DurableRun>,
) -> Result<FieldTestOutcome, ServerError> {
    let shops = sor_sensors::environment::presets::coffee_shops(cfg.seed);
    let envs: Vec<Arc<dyn Environment>> =
        shops.into_iter().map(|e| Arc::new(e) as Arc<dyn Environment>).collect();
    run_field_test(
        cfg,
        recorder,
        envs,
        "coffee-shop",
        COFFEE_SCRIPT,
        coffee_features(),
        COFFEE_SENSORS,
        300.0, // shops are small; tight admission radius
        0.5,   // indoor sample interval (seconds)
        durable,
    )
}

/// Runs the §V-A hiking-trail field test over the three preset trails.
///
/// # Errors
///
/// Server/storage errors while assembling the feature matrix.
pub fn run_trail_field_test(cfg: FieldTestConfig) -> Result<FieldTestOutcome, ServerError> {
    run_trail_field_test_traced(cfg, Recorder::default())
}

/// [`run_trail_field_test`] with a recorder wired through the whole
/// deployment (server, phones, transport, store).
///
/// # Errors
///
/// Server/storage errors while assembling the feature matrix.
pub fn run_trail_field_test_traced(
    cfg: FieldTestConfig,
    recorder: Recorder,
) -> Result<FieldTestOutcome, ServerError> {
    let trails = sor_sensors::environment::presets::hiking_trails(cfg.seed);
    let envs: Vec<Arc<dyn Environment>> =
        trails.into_iter().map(|e| Arc::new(e) as Arc<dyn Environment>).collect();
    run_field_test(
        cfg,
        recorder,
        envs,
        "hiking-trail",
        TRAIL_SCRIPT,
        trail_features(),
        TRAIL_SENSORS,
        5_000.0, // a hiker may scan anywhere along the trail
        2.0,     // outdoor sample interval: GPS fixes 2 s apart
        None,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_field_test(
    cfg: FieldTestConfig,
    recorder: Recorder,
    envs: Vec<Arc<dyn Environment>>,
    category: &str,
    script: &str,
    features: Vec<FeatureSpec>,
    sensors: &[SensorKind],
    radius_m: f64,
    sample_interval: f64,
    durable: Option<DurableRun>,
) -> Result<FieldTestOutcome, ServerError> {
    let specs: Vec<ApplicationSpec> = envs
        .iter()
        .enumerate()
        .map(|(i, env)| {
            let (latitude, longitude) = env.location();
            ApplicationSpec {
                app_id: i as u64 + 1,
                name: env.name().to_string(),
                creator: "field-test".into(),
                category: category.into(),
                latitude,
                longitude,
                radius_m,
                script: script.into(),
                period_seconds: cfg.duration,
                instants: (cfg.duration / 10.0) as usize,
                features: features.clone(),
            }
        })
        .collect();

    let mut world = match &durable {
        Some(d) => {
            SorWorld::durable(d.disk.clone(), d.opts, specs, Transport::new(cfg.network), recorder)?
        }
        None => {
            let mut server = SensingServer::new()?;
            for spec in specs {
                server.register_application(spec)?;
            }
            let mut world = SorWorld::new(server, Transport::new(cfg.network));
            world.set_recorder(recorder);
            world
        }
    };
    if cfg.processing_interval > 0.0 {
        world.schedule_processing(cfg.processing_interval, cfg.processing_interval, cfg.duration);
    }
    if cfg.health_interval > 0.0 {
        world.schedule_health_checks(cfg.health_interval, cfg.health_interval, cfg.duration);
    }
    if let Some(d) = &durable {
        for &t in &d.crash_times {
            world.schedule_crash(t);
        }
    }
    let meters: Vec<Arc<EnergyMeter>> = envs.iter().map(|_| EnergyMeter::new()).collect();
    for (place, env) in envs.iter().enumerate() {
        for p in 0..cfg.phones_per_place {
            let mut mgr = SensorManager::new();
            mgr.set_sample_interval(sample_interval);
            for &kind in sensors {
                mgr.register(
                    SimulatedProvider::new(kind, Arc::clone(env)).with_meter(meters[place].clone()),
                );
            }
            let token = (place as u64 + 1) * 1000 + p as u64;
            let idx = world.add_phone(MobileFrontend::new(token, mgr));
            // Staggered arrivals across the first half of the window,
            // each staying for the remainder.
            let arrival = (p as f64 + 0.5) * cfg.duration / (2.0 * cfg.phones_per_place as f64);
            world.schedule_scan(arrival, idx, place as u64 + 1, cfg.budget, cfg.duration - arrival);
            world.schedule_sweeps(idx, arrival + 1.0, cfg.sweep_interval, cfg.duration);
        }
    }
    world.run_until(cfg.duration + 60.0);
    world.server.process_data()?;
    // Close the causal loop in the golden trace: one neutral rank over
    // the freshly committed features, parented on the last commit span.
    // Errors (e.g. an empty matrix under heavy transport loss) don't
    // fail the run — the span alone records the attempt.
    let neutral = UserPreferences::new(
        "field-test",
        features.iter().map(|_| Preference::largest(3)).collect(),
    );
    let _ = world.server.rank(category, &neutral);
    world.server.update_health_gauges();
    let windows = world.window_ring().cloned();
    let health = match (world.health_engine(), world.recorder().metrics_snapshot()) {
        (Some(engine), Some(metrics)) => Some(engine.grade_windowed(&metrics, windows.as_ref())),
        _ => None,
    };

    let (matrix, app_ids) =
        assemble_matrix(world.server.database(), world.server.applications(), category)?;
    Ok(FieldTestOutcome {
        stats: world.stats,
        server: world.server,
        matrix,
        app_ids,
        energy_mj_per_place: meters.iter().map(|m| m.total_mj()).collect(),
        recoveries: world.recoveries,
        postmortems: world.postmortems,
        alerts: world.alerts,
        health,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_core::ranking::{FeatureId, PlaceId};

    #[test]
    fn quick_coffee_field_test_orders_features_like_fig10() {
        let out = run_coffee_field_test(FieldTestConfig::quick(7)).unwrap();
        assert_eq!(out.matrix.n_places(), 3);
        assert_eq!(out.matrix.n_features(), 4);
        assert_eq!(out.stats.decode_failures, 0);
        assert!(out.stats.uploads_accepted > 0);
        // Row order: Tim Hortons, B&N, Starbucks.
        let temp = |i: usize| out.matrix.value(PlaceId(i), FeatureId(0));
        assert!(temp(0) < temp(1) && temp(1) < temp(2), "temps {:?}", [temp(0), temp(1), temp(2)]);
        let light = |i: usize| out.matrix.value(PlaceId(i), FeatureId(1));
        assert!(light(0) > light(1) && light(1) > light(2));
        let noise = |i: usize| out.matrix.value(PlaceId(i), FeatureId(2));
        assert!(noise(2) > noise(0) && noise(2) > noise(1), "Starbucks loudest");
    }

    #[test]
    fn durable_coffee_field_test_survives_a_mid_run_crash() {
        let cfg = FieldTestConfig::quick(7);
        let run = DurableRun::crashes_at(&cfg, vec![cfg.duration / 2.0]);
        let out = run_coffee_field_test_durable(cfg, run).unwrap();
        assert_eq!(out.stats.server_crashes, 1);
        assert_eq!(out.recoveries.len(), 1);
        assert_eq!(out.matrix.n_places(), 3);
        assert!(out.stats.uploads_accepted > 0, "{:?}", out.stats);
    }

    #[test]
    fn field_tests_account_their_energy() {
        let out = run_coffee_field_test(FieldTestConfig::quick(17)).unwrap();
        assert_eq!(out.energy_mj_per_place.len(), 3);
        for (i, &e) in out.energy_mj_per_place.iter().enumerate() {
            assert!(e > 0.0, "place {i} consumed no energy");
        }
    }

    #[test]
    fn quick_trail_field_test_orders_features_like_fig6() {
        let out = run_trail_field_test(FieldTestConfig::quick(9)).unwrap();
        assert_eq!(out.matrix.n_places(), 3);
        assert_eq!(out.matrix.n_features(), 5);
        // Row order: Green Lake, Long, Cliff.
        let rough = |i: usize| out.matrix.value(PlaceId(i), FeatureId(2));
        assert!(
            rough(0) < rough(1) && rough(1) < rough(2),
            "roughness {:?}",
            [rough(0), rough(1), rough(2)]
        );
        let humid = |i: usize| out.matrix.value(PlaceId(i), FeatureId(1));
        assert!(humid(0) > humid(1) && humid(1) > humid(2), "Green Lake most humid");
        let curv = |i: usize| out.matrix.value(PlaceId(i), FeatureId(3));
        assert!(curv(2) > curv(0), "Cliff switchbacks beat the lake loop");
        let alt = |i: usize| out.matrix.value(PlaceId(i), FeatureId(4));
        assert!(alt(2) > alt(0), "Cliff climbs more than the flat lake loop");
    }
}
