//! Crash-recovery invariants over the §V-B coffee-shop field test.
//!
//! The server is killed at `k` evenly spaced instants across the test
//! window and rebuilt from its simulated disk each time. Three
//! invariants must hold at every crash schedule:
//!
//! 1. recovery never panics or errors — the run completes;
//! 2. every acked upload survives (every commit flushes the WAL before
//!    the ack leaves the server);
//! 3. when all data was acked, the final ranking, every task's stored
//!    schedule and every feature are identical to the crash-free run's:
//!    recovery restores each scheduler exactly, so the phones are sent
//!    the same plans and take the same readings;
//! 4. every feature equals `FeatureSpec::extract` over the server's own
//!    stored records, so the running feature state rebuilt after each
//!    recovery is exact.

use sor_server::processor::DataProcessor;
use sor_sim::scenario::{
    emma, run_coffee_field_test, run_coffee_field_test_durable, DurableRun, FieldTestConfig,
    FieldTestOutcome,
};

fn rank_order(out: &FieldTestOutcome) -> Vec<u64> {
    out.server.rank("coffee-shop", &emma()).unwrap().app_order
}

/// Every feature of every place is, bit for bit, what `extract` gives
/// over that server's own records table (`None` exactly when it errs).
/// This checks the running feature state rebuilt at recovery on its
/// own terms; the comparison with the crash-free run is separate.
fn assert_features_match_own_records(out: &FieldTestOutcome, label: &str) {
    let server = &out.server;
    for app_id in server.applications().ids() {
        let records = DataProcessor.records_of(server.database(), app_id).unwrap();
        for spec in &server.applications().get(app_id).unwrap().features {
            let want = spec.extract(&records).ok();
            let got = server.feature_value(app_id, &spec.name).unwrap();
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "{label}: app {app_id} feature {}: stored {got:?}, extract gives {want:?}",
                spec.name
            );
        }
    }
}

/// Every task's stored schedule and every feature of every place, as
/// bits, for comparing whole runs.
fn schedules_and_features(out: &FieldTestOutcome) -> (Vec<Vec<u64>>, Vec<Option<u64>>) {
    let server = &out.server;
    let schedules = server
        .participation()
        .all()
        .map(|t| server.stored_schedule(t.task_id).unwrap().into_iter().map(f64::to_bits).collect())
        .collect();
    let mut features = Vec::new();
    for app_id in server.applications().ids() {
        for spec in &server.applications().get(app_id).unwrap().features {
            features.push(server.feature_value(app_id, &spec.name).unwrap().map(f64::to_bits));
        }
    }
    (schedules, features)
}

/// Crash instants for `k` crashes, evenly spaced strictly inside the
/// window (never at 0 or at the horizon).
fn evenly_spaced(k: usize, duration: f64) -> Vec<f64> {
    (1..=k).map(|i| i as f64 * duration / (k as f64 + 1.0)).collect()
}

#[test]
fn k_evenly_spaced_crashes_preserve_acked_data_and_ranking() {
    let cfg = FieldTestConfig::quick(13);
    let baseline = run_coffee_field_test(cfg).unwrap();
    let base_order = rank_order(&baseline);
    assert_eq!(base_order.len(), 3);
    let (base_schedules, base_features) = schedules_and_features(&baseline);
    assert!(base_schedules.iter().any(|s| !s.is_empty()));
    assert_features_match_own_records(&baseline, "crash-free");

    for k in 1..=4usize {
        let crash_times = evenly_spaced(k, cfg.duration);
        let run = DurableRun::crashes_at(&cfg, crash_times.clone());
        let out = run_coffee_field_test_durable(cfg, run)
            .unwrap_or_else(|e| panic!("k={k} crashes at {crash_times:?}: {e}"));
        assert_eq!(out.stats.server_crashes as usize, k);
        assert_eq!(out.recoveries.len(), k);
        for summary in &out.recoveries {
            assert!(summary.starts_with("recovery:"), "{summary}");
        }
        assert!(out.stats.uploads_accepted > 0, "k={k}: {:?}", out.stats);
        // Everything was acked before each crash (perfect transport,
        // a flush per commit), so the recovered runs distribute the same
        // schedules, compute the same features and rank identically.
        assert_eq!(rank_order(&out), base_order, "k={k} crashes at {crash_times:?}");
        let (schedules, features) = schedules_and_features(&out);
        assert_eq!(schedules, base_schedules, "k={k}: stored schedules differ");
        assert_eq!(features, base_features, "k={k}: features differ");
        assert_features_match_own_records(&out, &format!("k={k}"));
    }
}

#[test]
fn every_acked_upload_is_in_the_recovered_database() {
    use sor_sensors::environment::Environment;
    use sor_sim::scenario::coffee_features;
    use sor_sim::{SorWorld, Transport};
    use sor_store::Predicate;

    // One coffee shop, three phones, a crash mid-window. Nothing calls
    // process_data, so at the end the inbox holds exactly the uploads
    // that were acked — if the crash had eaten an acked one, the counts
    // would disagree.
    let env = std::sync::Arc::new(sor_sensors::environment::presets::bn_cafe(21));
    let spec = sor_server::ApplicationSpec {
        app_id: 1,
        name: env.name().to_string(),
        creator: "durability-test".into(),
        category: "coffee-shop".into(),
        latitude: env.location().0,
        longitude: env.location().1,
        radius_m: 300.0,
        script: sor_sim::scenario::COFFEE_SCRIPT.into(),
        period_seconds: 1_800.0,
        instants: 180,
        features: coffee_features(),
    };
    let mut world = SorWorld::durable(
        sor_durable::SimDisk::new(77),
        sor_durable::DurableOptions::default(),
        vec![spec],
        Transport::perfect(),
        sor_obs::Recorder::default(),
    )
    .unwrap();
    for token in 0..3u64 {
        let mut mgr = sor_sensors::SensorManager::new();
        mgr.set_sample_interval(0.5);
        for kind in [
            sor_sensors::SensorKind::Temperature,
            sor_sensors::SensorKind::Light,
            sor_sensors::SensorKind::Microphone,
            sor_sensors::SensorKind::WifiRssi,
            sor_sensors::SensorKind::Gps,
        ] {
            mgr.register(sor_sensors::SimulatedProvider::new(kind, env.clone()));
        }
        let idx = world.add_phone(sor_frontend::MobileFrontend::new(token, mgr));
        world.schedule_scan(token as f64 * 30.0, idx, 1, 10, 1_700.0);
        world.schedule_sweeps(idx, token as f64 * 30.0 + 1.0, 20.0, 1_800.0);
    }
    world.schedule_crash(900.0);
    world.run_until(1_800.0);

    assert_eq!(world.stats.server_crashes, 1);
    assert!(world.stats.uploads_accepted > 0, "{:?}", world.stats);
    let inbox =
        world.server.database().scan(sor_server::processor::INBOX_TABLE, &Predicate::True).unwrap();
    assert_eq!(
        inbox.len() as u64,
        world.stats.uploads_accepted,
        "acked uploads must survive the crash bit-for-bit"
    );
}
