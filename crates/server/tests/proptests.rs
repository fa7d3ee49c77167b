//! Property tests for the server's feature extraction and the
//! inbox-to-features pipeline.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sor_proto::{Message, SensedRecord};
use sor_server::processor::{DataProcessor, FeatureState};
use sor_server::{ApplicationSpec, Extractor, FeatureSpec, SensingServer};
use sor_store::Database;

fn mean_spec() -> FeatureSpec {
    FeatureSpec::new("m", "", Extractor::Mean { sensor: 1 }, 10.0)
}

/// Every extractor shape, over four sensors: 1 (mixed readings), 5
/// (almost only `-0.0`), 2 (accelerometer windows) and 3 (GPS).
fn feature_pool() -> [FeatureSpec; 6] {
    [
        FeatureSpec::new("mean", "", Extractor::Mean { sensor: 1 }, 60.0),
        FeatureSpec::new("zeros", "", Extractor::Mean { sensor: 5 }, 60.0),
        FeatureSpec::new("rough3", "", Extractor::WindowedDeviation { sensor: 2, arity: 3 }, 5.0),
        FeatureSpec::new("rough1", "", Extractor::WindowedDeviation { sensor: 2, arity: 1 }, 5.0),
        FeatureSpec::new("curv", "", Extractor::Curvature { gps_sensor: 3 }, 30.0),
        FeatureSpec::new("alt", "", Extractor::AltitudeChange { gps_sensor: 3 }, 30.0),
    ]
}

/// The pool features selected by the bits of `mask`, in pool order.
fn features(mask: u8) -> Vec<FeatureSpec> {
    feature_pool()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, f)| f)
        .collect()
}

fn place(app_id: u64, mask: u8) -> ApplicationSpec {
    ApplicationSpec {
        app_id,
        name: format!("place-{app_id}"),
        creator: "owner".into(),
        category: "test".into(),
        latitude: 43.05,
        longitude: -76.15,
        radius_m: 150.0,
        script: "get_temperature_readings(3)".into(),
        period_seconds: 3600.0,
        instants: 36,
        features: features(mask),
    }
}

/// One generated record: a kind (which sensor), a timestamp drawn from
/// a few values so that GPS fixes tie, and raw draws shaped per kind.
fn record(kind: usize, t: u32, raw: &[(f64, f64, u8)]) -> SensedRecord {
    let (sensor, values): (u16, Vec<f64>) = match kind {
        0 => (
            1,
            raw.iter()
                .map(|&(a, _, z)| match z {
                    0 => -0.0,
                    1 => 0.0,
                    _ => a * 2e3 - 1e3,
                })
                .collect(),
        ),
        1 => (5, raw.iter().map(|&(_, _, z)| if z == 15 { 0.0 } else { -0.0 }).collect()),
        // Zero or one triple makes a window with fewer than two samples.
        2 => (
            2,
            raw.iter()
                .flat_map(|&(a, b, z)| [a * 20.0 - 10.0, b * 20.0 - 10.0, f64::from(z)])
                .collect(),
        ),
        _ => (
            3,
            raw.iter()
                .flat_map(|&(a, b, z)| {
                    [43.0 + a * 2e-3, -76.0 + b * 2e-3, 100.0 + f64::from(z) * 3.0]
                })
                .collect(),
        ),
    };
    SensedRecord { timestamp: f64::from(t), window: 1.0, sensor, values }
}

/// Every stored feature of every place must be the bits `extract`
/// gives over that place's stored records, and `None` until `extract`
/// first succeeds. `last` is the value each feature last took (a pass
/// leaves a feature it cannot compute untouched).
fn check_features(
    server: &SensingServer,
    masks: &[u8],
    last: &mut BTreeMap<(u64, String), f64>,
) -> Result<(), TestCaseError> {
    for (i, &mask) in masks.iter().enumerate() {
        let app_id = i as u64 + 1;
        let records = DataProcessor.records_of(server.database(), app_id).unwrap();
        for spec in features(mask) {
            let key = (app_id, spec.name.clone());
            if let Ok(v) = spec.extract(&records) {
                last.insert(key.clone(), v);
            }
            let stored = server.feature_value(app_id, &spec.name).unwrap();
            prop_assert_eq!(
                stored.map(f64::to_bits),
                last.get(&key).map(|v| v.to_bits()),
                "app {} feature {}: stored {:?}, extract gives {:?}",
                app_id,
                spec.name,
                stored,
                spec.extract(&records)
            );
        }
    }
    Ok(())
}

proptest! {
    /// Mean extraction equals the arithmetic mean of every value of the
    /// matching sensor, whatever the record layout.
    #[test]
    fn mean_matches_naive(
        groups in proptest::collection::vec(
            (0u16..3, proptest::collection::vec(-1e6f64..1e6, 1..6)),
            1..10
        )
    ) {
        let records: Vec<sor_server::feature::RawRecord> = groups
            .iter()
            .enumerate()
            .map(|(i, (sensor, values))| sor_server::feature::RawRecord {
                timestamp: i as f64,
                window: 1.0,
                sensor: *sensor,
                values: values.clone(),
            })
            .collect();
        let matching: Vec<f64> = groups
            .iter()
            .filter(|(s, _)| *s == 1)
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let result = mean_spec().extract(&records);
        if matching.is_empty() {
            prop_assert!(result.is_err());
        } else {
            let expected = matching.iter().sum::<f64>() / matching.len() as f64;
            let got = result.unwrap();
            prop_assert!((got - expected).abs() < 1e-6_f64.max(expected.abs() * 1e-12));
        }
    }

    /// Windowed deviation is translation-invariant (adding a constant to
    /// every sample of a window does not change the magnitude spread for
    /// arity 1) and zero for constant windows.
    #[test]
    fn windowed_deviation_properties(
        window in proptest::collection::vec(0.0f64..1e3, 2..12),
        shift in 0.0f64..100.0,
    ) {
        let spec = FeatureSpec::new(
            "d",
            "",
            Extractor::WindowedDeviation { sensor: 1, arity: 1 },
            5.0,
        );
        let rec = |values: Vec<f64>| sor_server::feature::RawRecord {
            timestamp: 0.0,
            window: 1.0,
            sensor: 1,
            values,
        };
        let base = spec.extract(&[rec(window.clone())]).unwrap();
        let shifted: Vec<f64> = window.iter().map(|v| v + shift).collect();
        let moved = spec.extract(&[rec(shifted)]).unwrap();
        // Magnitude of scalars is |x|; for non-negative windows the
        // shift must not change the deviation.
        prop_assert!((base - moved).abs() < 1e-6, "{base} vs {moved}");
        let constant = spec.extract(&[rec(vec![42.0; window.len()])]).unwrap();
        prop_assert!(constant.abs() < 1e-9);
    }

    /// The inbox pipeline stores exactly the uploaded records — across
    /// arbitrary batching — and corrupt interleaved blobs never abort it.
    #[test]
    fn inbox_pipeline_is_lossless(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u16..4, -1e3f64..1e3), 0..5),
            0..6
        ),
        garbage_positions in proptest::collection::vec(any::<bool>(), 0..6),
    ) {
        let mut db = Database::new();
        DataProcessor::install(&mut db).unwrap();
        let p = DataProcessor;
        let mut expected = 0usize;
        for (i, batch) in batches.iter().enumerate() {
            if garbage_positions.get(i).copied().unwrap_or(false) {
                p.enqueue_raw(&mut db, 1, 0.0, b"not a frame".to_vec()).unwrap();
            }
            let records: Vec<SensedRecord> = batch
                .iter()
                .map(|&(sensor, v)| SensedRecord {
                    timestamp: i as f64,
                    window: 1.0,
                    sensor,
                    values: vec![v],
                })
                .collect();
            expected += records.len();
            let frame = Message::SensedDataUpload { task_id: 1, records }.encode();
            p.enqueue_raw(&mut db, 1, 0.0, frame).unwrap();
        }
        let mut state = FeatureState::new();
        let (stored, _dropped) = p.process_inbox(&mut db, &mut state).unwrap();
        prop_assert_eq!(stored, expected);
        prop_assert_eq!(p.records_of(&db, 1).unwrap().len(), expected);
        // Idempotent: a second pass finds an empty inbox.
        let (again, dropped_again) = p.process_inbox(&mut db, &mut state).unwrap();
        prop_assert_eq!((again, dropped_again), (0, 0));
    }

    /// The running feature state equals the whole-history oracle after
    /// every pass, wherever the pass boundaries fall, whichever places
    /// the uploads go to, and whenever a place's state is dropped (as
    /// recovery does) or its feature list changes.
    #[test]
    fn running_features_match_extract_across_passes(
        mut masks in proptest::collection::vec(0u8..64, 1..4),
        steps in proptest::collection::vec(
            (
                0u8..10,
                0usize..3,
                0u8..64,
                proptest::collection::vec(
                    (
                        0usize..4,
                        0u32..6,
                        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0u8..16), 0..9),
                    ),
                    1..5,
                ),
            ),
            1..40,
        ),
    ) {
        let mut server = SensingServer::new().unwrap();
        let mut tasks = Vec::new();
        for (i, &mask) in masks.iter().enumerate() {
            let app_id = i as u64 + 1;
            server.register_application(place(app_id, mask)).unwrap();
            let replies = server
                .handle_message(&Message::ParticipationRequest {
                    token: 100 + app_id,
                    app_id,
                    latitude: 43.0501,
                    longitude: -76.1501,
                    budget: 3,
                    stay_seconds: 3000.0,
                })
                .unwrap();
            let Some((_, Message::ScheduleAssignment { task_id, .. })) = replies.first() else {
                panic!("place {app_id} did not admit its phone: {replies:?}");
            };
            tasks.push(*task_id);
        }
        let mut last = BTreeMap::new();
        for (op, place_ix, new_mask, recs) in steps {
            let i = place_ix % masks.len();
            let app_id = i as u64 + 1;
            match op {
                0..=5 => {
                    let records =
                        recs.iter().map(|(kind, t, raw)| record(*kind, *t, raw)).collect();
                    let upload = Message::SensedDataUpload { task_id: tasks[i], records };
                    server.handle_message(&upload).unwrap();
                }
                6 | 7 => {
                    server.process_data().unwrap();
                    check_features(&server, &masks, &mut last)?;
                }
                // Re-registering the same place drops its running state,
                // leaving it as a recovered server finds it.
                8 => server.register_application(place(app_id, masks[i])).unwrap(),
                _ => {
                    masks[i] = new_mask;
                    server.register_application(place(app_id, new_mask)).unwrap();
                }
            }
        }
        server.process_data().unwrap();
        check_features(&server, &masks, &mut last)?;
    }
}
