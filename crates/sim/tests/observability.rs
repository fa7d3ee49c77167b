//! End-to-end observability: one recorder wired through server, phones,
//! store, and transport during full simulated deployments.

use std::sync::Arc;

use sor_frontend::MobileFrontend;
use sor_obs::{parse_json, Recorder};
use sor_sensors::environment::presets;
use sor_sensors::{SensorKind, SensorManager, SimulatedProvider};
use sor_server::{ApplicationSpec, Extractor, FeatureSpec, SensingServer};
use sor_sim::scenario::{
    profiles, run_coffee_field_test, run_coffee_field_test_traced, run_scheduling_sim_traced,
    run_trail_field_test_traced, FieldTestConfig, SchedulingConfig,
};
use sor_sim::{SorWorld, Transport, TransportConfig};

/// A one-cafe world with three sweeping phones, recorder installed.
fn cafe_world(transport: Transport, recorder: Recorder) -> SorWorld {
    let mut server = SensingServer::new().unwrap();
    server
        .register_application(ApplicationSpec {
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
            features: vec![FeatureSpec::new(
                "temperature",
                "°F",
                Extractor::Mean { sensor: SensorKind::Temperature.wire_id() },
                60.0,
            )],
        })
        .unwrap();
    let mut world = SorWorld::new(server, transport);
    world.set_recorder(recorder);
    let env = Arc::new(presets::bn_cafe(5));
    for token in 0..3u64 {
        let mut mgr = SensorManager::new();
        for kind in [SensorKind::Temperature, SensorKind::Microphone, SensorKind::Gps] {
            mgr.register(SimulatedProvider::new(kind, env.clone()));
        }
        let idx = world.add_phone(MobileFrontend::new(token, mgr));
        world.schedule_sweeps(idx, 1.0, 20.0, 3600.0);
        world.schedule_scan(token as f64 * 30.0, idx, 1, 8, 1800.0);
    }
    world
}

/// Satellite: every corrupted frame — and nothing else — is rejected at
/// a receiver, and the per-endpoint counters account for all of them.
#[test]
fn corrupted_frames_equal_rejected_frames_end_to_end() {
    let rec = Recorder::enabled();
    let mut world = cafe_world(
        Transport::new(TransportConfig { corruption_rate: 0.3, seed: 11, ..Default::default() }),
        rec.clone(),
    );
    world.run_until(3600.0);

    let corrupted =
        rec.counter("net.frames_corrupted.server") + rec.counter("net.frames_corrupted.phone");
    let rejected =
        rec.counter("net.frames_rejected.server") + rec.counter("net.frames_rejected.phone");
    assert!(corrupted > 0, "corruption at 30% must hit some frames");
    assert_eq!(corrupted, world.transport().corrupted());
    assert_eq!(rejected, corrupted, "every corrupted frame must be rejected, nothing else");
    assert_eq!(rejected, world.stats.decode_failures);
    // Clean frames still flow: the pipeline kept working around the noise.
    assert!(rec.counter("server.msg_received.sensed_data_upload") > 0);
}

/// On a perfect transport nothing is rejected and the frame ledger
/// balances: sent == delivered (no drops).
#[test]
fn perfect_transport_rejects_nothing() {
    let rec = Recorder::enabled();
    let mut world = cafe_world(Transport::perfect(), rec.clone());
    world.run_until(3600.0);
    assert_eq!(rec.counter("net.frames_rejected.server"), 0);
    assert_eq!(rec.counter("net.frames_rejected.phone"), 0);
    assert_eq!(rec.counter("net.frames_dropped.server"), 0);
    assert_eq!(
        rec.counter("net.frames_sent.server") + rec.counter("net.frames_sent.phone"),
        world.transport().sent()
    );
}

/// Tentpole: the full coffee-shop trace and metrics exports are a pure
/// function of (scenario, seed) — two runs are byte-identical.
#[test]
fn golden_trace_is_deterministic_per_seed() {
    let run = || {
        let rec = Recorder::enabled();
        run_coffee_field_test_traced(FieldTestConfig::quick(7), rec.clone()).unwrap();
        (
            rec.metrics_csv().unwrap(),
            rec.metrics_json().unwrap(),
            rec.trace_json().unwrap(),
            rec.report().unwrap(),
        )
    };
    let (csv_a, mjson_a, tjson_a, report_a) = run();
    let (csv_b, mjson_b, tjson_b, report_b) = run();
    assert_eq!(csv_a, csv_b, "metrics CSV must be byte-identical across runs");
    assert_eq!(mjson_a, mjson_b, "metrics JSON must be byte-identical across runs");
    assert_eq!(tjson_a, tjson_b, "trace JSON must be byte-identical across runs");
    assert_eq!(report_a, report_b, "report must be byte-identical across runs");

    // The exports are well-formed JSON per the vendored parser.
    parse_json(&mjson_a).expect("metrics JSON parses");
    parse_json(&tjson_a).expect("trace JSON parses");

    // And they actually observed the pipeline.
    assert!(csv_a.contains("script.runs"), "csv:\n{csv_a}");
    assert!(csv_a.contains("store.rows_inserted.records"), "csv:\n{csv_a}");
    assert!(tjson_a.contains("server.process_data"), "trace must span data processing");
}

/// Turning tracing on must not change what the deployment computes:
/// the untraced and traced runs of one seed collect the same data and
/// rank the same way.
#[test]
fn tracing_does_not_change_the_outcome() {
    let cfg = FieldTestConfig::quick(11);
    let untraced = run_coffee_field_test(cfg).unwrap();
    let traced = run_coffee_field_test_traced(cfg, Recorder::enabled()).unwrap();
    assert_eq!(untraced.stats, traced.stats, "transport/ingest stats must match");
    assert_eq!(untraced.app_ids, traced.app_ids);
    assert_eq!(untraced.matrix, traced.matrix, "feature matrix must be bit-identical");
    assert_eq!(untraced.energy_mj_per_place, traced.energy_mj_per_place);
    for profile in [profiles::david(), profiles::emma()] {
        assert_eq!(
            untraced.server.rank("coffee-shop", &profile).unwrap().order,
            traced.server.rank("coffee-shop", &profile).unwrap().order,
            "ranking for {} must not depend on tracing",
            profile.name
        );
    }
}

/// A different workload produces a different trace (the exports are not
/// degenerate constants). Note the *seed* alone does not change the
/// metrics: counts are a function of the workload shape, and the seed
/// only perturbs sensed values.
#[test]
fn golden_trace_reflects_workload() {
    let run = |phones| {
        let rec = Recorder::enabled();
        let cfg = FieldTestConfig { phones_per_place: phones, ..FieldTestConfig::quick(7) };
        run_coffee_field_test_traced(cfg, rec.clone()).unwrap();
        rec.metrics_csv().unwrap()
    };
    assert_ne!(run(2), run(3));
}

/// Satellite: on both field tests the static analyzer's instruction
/// bound dominates every measured interpreter run (ratio ≥ 1).
#[test]
fn static_bound_dominates_measured_instructions_in_field_tests() {
    for (name, ratio) in [
        ("coffee", {
            let rec = Recorder::enabled();
            run_coffee_field_test_traced(FieldTestConfig::quick(3), rec.clone()).unwrap();
            rec.metrics_snapshot().unwrap().histogram("script.bound_over_measured").cloned()
        }),
        ("trail", {
            let rec = Recorder::enabled();
            run_trail_field_test_traced(FieldTestConfig::quick(4), rec.clone()).unwrap();
            rec.metrics_snapshot().unwrap().histogram("script.bound_over_measured").cloned()
        }),
    ] {
        let ratio = ratio.unwrap_or_else(|| panic!("{name}: no bound/measured observations"));
        assert!(ratio.count() > 0, "{name}: no script runs observed");
        let min = ratio.min().unwrap();
        assert!(min >= 1.0, "{name}: static bound below a measured run (min ratio {min})");
    }
}

/// Satellite fix: every live task instance — including ones created by
/// schedules assigned long after scenario start — reports a queue-depth
/// gauge, and the gauge count matches the live instances exactly.
#[test]
fn queue_depth_gauges_cover_every_task_instance() {
    let rec = Recorder::enabled();
    let mut world = cafe_world(Transport::perfect(), rec.clone());
    world.run_until(3600.0);

    let mut expected: Vec<String> = world
        .phones
        .iter()
        .flat_map(|p| p.tasks().iter().map(|t| format!("phone.task_queue_depth.task{}", t.task_id)))
        .collect();
    expected.sort();
    expected.dedup();
    assert!(!expected.is_empty(), "the cafe world must have distributed tasks");

    let metrics = rec.metrics_snapshot().unwrap();
    let mut reported: Vec<String> = metrics
        .gauges()
        .map(|(name, _)| name.to_string())
        .filter(|name| name.starts_with("phone.task_queue_depth."))
        .collect();
    reported.sort();
    assert_eq!(reported, expected, "one queue gauge per live task instance");
}

/// The scheduling simulation reports planner work, and lazy evaluation
/// keeps marginal-gain evaluations well under the brute-force count
/// (users × picks per round).
#[test]
fn scheduling_sim_reports_planner_work() {
    let cfg = SchedulingConfig { runs: 2, ..SchedulingConfig::paper(15, 8, 42) };
    let rec = Recorder::enabled();
    let out = run_scheduling_sim_traced(cfg, &rec);
    assert!(out.greedy_mean > 0.0);
    let iters = rec.counter("sched.sim_iterations");
    let evals = rec.counter("sched.sim_gain_evaluations");
    assert!(iters > 0, "greedy committed no picks");
    assert!(
        iters <= (cfg.runs * cfg.users * cfg.budget) as u64,
        "more picks than the total budget allows"
    );
    assert!(evals >= iters, "every pick needs at least one evaluation");
    let snapshot = rec.metrics_snapshot().unwrap();
    let cov = snapshot.histogram("sched.sim_coverage.greedy").unwrap();
    assert_eq!(cov.count(), cfg.runs as u64);
}
