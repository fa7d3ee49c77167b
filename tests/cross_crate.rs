//! Smaller cross-crate seams: script ↔ sensors, proto ↔ store,
//! core ↔ flow.

use std::sync::Arc;

use sor::script::{Interpreter, Value};
use sor::sensors::environment::presets;
use sor::sensors::{SensorKind, SensorManager, SimulatedProvider};

#[test]
fn script_interpreter_drives_real_sensor_manager() {
    let env = Arc::new(presets::green_lake_trail(3));
    let mut mgr = SensorManager::new();
    mgr.register(SimulatedProvider::new(SensorKind::Temperature, env.clone()));
    mgr.register(SimulatedProvider::new(SensorKind::Humidity, env));
    let mgr = Arc::new(mgr);

    let mut interp = Interpreter::new();
    for (name, kind) in [
        ("get_temperature_readings", SensorKind::Temperature),
        ("get_humidity_readings", SensorKind::Humidity),
    ] {
        let mgr = Arc::clone(&mgr);
        interp.host_mut().register(name, move |ctx, args| {
            let n = args.first().and_then(Value::as_number).unwrap_or(1.0) as usize;
            let readings = mgr.acquire(kind, n, ctx.virtual_time).map_err(|e| e.to_string())?;
            ctx.virtual_time += n as f64 * 0.5;
            Ok(Value::number_array(&readings.iter().map(|r| r[0]).collect::<Vec<_>>()))
        });
    }
    let v = interp
        .run(
            r#"
            local t = get_temperature_readings(10)
            local h = get_humidity_readings(10)
            -- late-fall lake weather: cool and humid
            assert(mean(t) > 35 and mean(t) < 55, "temp " .. mean(t))
            assert(mean(h) > 45, "humidity " .. mean(h))
            return mean(t)
        "#,
        )
        .unwrap();
    assert!(v.as_number().unwrap() > 35.0);
}

#[test]
fn store_holds_proto_frames_byte_exact() {
    use sor::proto::{Message, SensedRecord};
    use sor::store::{ColumnType, Database, Predicate, Schema, Value as Sv};

    let mut db = Database::new();
    db.create_table(
        Schema::new("inbox").column("id", ColumnType::Int).column("frame", ColumnType::Bytes),
    )
    .unwrap();

    let msg = Message::SensedDataUpload {
        task_id: 3,
        records: vec![SensedRecord {
            timestamp: 1.5,
            window: 2.0,
            sensor: 4,
            values: vec![1.0, -2.5, 1e9],
        }],
    };
    db.insert("inbox", vec![Sv::Int(1), Sv::Bytes(msg.encode())]).unwrap();

    // Snapshot + restore, then decode the frame out of the restored db.
    let restored = Database::restore(&db.snapshot()).unwrap();
    let rows = restored.scan("inbox", &Predicate::True).unwrap();
    let bytes = rows[0].values[1].as_bytes().unwrap();
    assert_eq!(Message::decode(bytes).unwrap(), msg);
}

#[test]
fn ranking_matches_direct_flow_solution() {
    // The §IV-B construction: aggregating through the public ranking API
    // equals solving the assignment problem manually on sor-flow, and
    // both are the smallest order among the footrule optima.
    use sor::core::ranking::{aggregate, AggregationMethod, PlaceId, Ranking};
    use sor::flow::solve_assignment;

    let n = 4;
    let cases = [
        (vec![vec![2, 0, 1, 3], vec![0, 1, 3, 2], vec![1, 0, 2, 3]], vec![3, 1, 2]),
        // Two pairs of opposite rankings at equal weights: many optima.
        (
            vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0], vec![1, 0, 3, 2], vec![2, 3, 0, 1]],
            vec![1, 1, 1, 1],
        ),
        (vec![vec![3, 2, 1, 0], vec![0, 1, 2, 3], vec![1, 2, 3, 0]], vec![2, 2, 0]),
    ];
    for (orders, weights) in cases {
        let rankings: Vec<Ranking> =
            orders.into_iter().map(|o| Ranking::from_order(o).unwrap()).collect();
        let float_weights: Vec<f64> = weights.iter().map(|&w| w as f64).collect();
        let agg = aggregate(&rankings, &float_weights, AggregationMethod::FootruleFlow).unwrap();

        // Manual cost matrix (integer weights → exact).
        let cost_of = |place: usize, pos: usize| -> i64 {
            rankings
                .iter()
                .zip(&weights)
                .map(|(r, &w)| w * r.position_of(PlaceId(place)).abs_diff(pos) as i64)
                .sum()
        };
        let cost: Vec<Vec<i64>> = (0..n).map(|i| (0..n).map(|p| cost_of(i, p)).collect()).collect();
        let manual = solve_assignment(&cost).unwrap();
        let mut manual_order = vec![0; n];
        for (place, &pos) in manual.assignment.iter().enumerate() {
            manual_order[pos] = place;
        }
        assert_eq!(agg.order(), manual_order.as_slice());

        // Every order, lexicographically; the first of minimum cost wins.
        let mut best: Option<(i64, Vec<usize>)> = None;
        for code in 0..n.pow(n as u32) {
            let order: Vec<usize> = (0..n).map(|k| code / n.pow((n - 1 - k) as u32) % n).collect();
            if (0..n).any(|p| !order.contains(&p)) {
                continue;
            }
            let c: i64 = order.iter().enumerate().map(|(pos, &place)| cost_of(place, pos)).sum();
            if best.as_ref().is_none_or(|(b, _)| c < *b) {
                best = Some((c, order));
            }
        }
        let (best_cost, best_order) = best.unwrap();
        assert_eq!(manual.total_cost, best_cost);
        assert_eq!(agg.order(), best_order.as_slice());
    }
}

#[test]
fn frontend_uploads_decode_into_server_feature_pipeline() {
    use sor::frontend::MobileFrontend;
    use sor::proto::Message;
    use sor::server::{ApplicationSpec, SensingServer};
    use sor::sim::scenario::coffee_features;

    let env = Arc::new(presets::tim_hortons(8));
    let mut mgr = SensorManager::new();
    for kind in [
        SensorKind::Temperature,
        SensorKind::Light,
        SensorKind::Microphone,
        SensorKind::WifiRssi,
        SensorKind::Gps,
    ] {
        mgr.register(SimulatedProvider::new(kind, env.clone()));
    }
    let mut phone = MobileFrontend::new(70, mgr);

    let mut server = SensingServer::new().unwrap();
    use sor::sensors::Environment;
    let (lat, lon) = env.location();
    server
        .register_application(ApplicationSpec {
            app_id: 1,
            name: "Tim Hortons".into(),
            creator: "it".into(),
            category: "coffee-shop".into(),
            latitude: lat,
            longitude: lon,
            radius_m: 300.0,
            script: sor::sim::scenario::fieldtest::COFFEE_SCRIPT.into(),
            period_seconds: 600.0,
            instants: 60,
            features: coffee_features(),
        })
        .unwrap();

    // Scan → assignment → execute → upload → process → feature.
    let scan = phone.scan_barcode(1, 5, 600.0);
    let replies = server.handle_message(&scan).unwrap();
    for (_, msg) in &replies {
        phone.handle_message(msg);
    }
    let uploads = phone.advance_to(600.0);
    assert!(uploads.iter().any(|m| matches!(m, Message::SensedDataUpload { .. })));
    for m in &uploads {
        server.tick(600.0);
        let _ = server.handle_message(m);
    }
    server.process_data().unwrap();
    let brightness = server.feature_value(1, "brightness").unwrap().unwrap();
    assert!(brightness > 800.0, "Tim Hortons is very bright, got {brightness}");
}
