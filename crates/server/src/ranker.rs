//! The Personalizable Ranker service: assembles the feature matrix `H`
//! for one category from the features table and runs Algorithm 2.

use std::collections::HashMap;
use std::sync::Arc;

use sor_core::ranking::{Feature, FeatureMatrix, PersonalizableRanker, RankingOutcome};
use sor_core::UserPreferences;
use sor_store::Database;

use crate::application::ApplicationManager;
use crate::processor::FEATURES_TABLE;
use crate::ServerError;

/// A ranked category result: outcome plus the place names in final
/// order. Everything but `app_order` is shared, so a clone (what every
/// rank-cache hit returns) costs three reference-count bumps and one
/// copy of `app_order`.
#[derive(Debug, Clone)]
pub struct CategoryRanking {
    /// The assembled matrix (for inspection / visualisation).
    pub matrix: Arc<FeatureMatrix>,
    /// The full Algorithm-2 outcome.
    pub outcome: Arc<RankingOutcome>,
    /// Place names, best first.
    pub order: Arc<[String]>,
    /// The app ids in final-ranking order.
    pub app_order: Vec<u64>,
}

/// Builds `H` for every application of `category` (feature columns
/// follow the first application's feature list, which the paper's
/// single-category assumption makes uniform).
///
/// One borrowed pass over the features table in `RowId` order fills
/// each cell from the first row of its (app, feature), which is the row
/// [`DataProcessor::feature_value`](crate::processor::DataProcessor::feature_value)
/// returns.
///
/// # Errors
///
/// - [`ServerError::UnknownApplication`] if the category is empty.
/// - [`ServerError::InsufficientData`] for the first cell, in
///   app-then-feature order, that has no value.
/// - Core errors from matrix construction.
pub fn assemble_matrix(
    db: &Database,
    apps: &ApplicationManager,
    category: &str,
) -> Result<(FeatureMatrix, Vec<u64>), ServerError> {
    let members = apps.by_category(category);
    let Some(first) = members.first() else {
        return Err(ServerError::UnknownApplication(0));
    };
    let specs = &first.features;
    let width = specs.len();
    let row_of: HashMap<i64, usize> =
        members.iter().enumerate().map(|(r, app)| (app.app_id as i64, r)).collect();
    let mut rows = vec![vec![0.0; width]; members.len()];
    let mut filled = vec![false; members.len() * width];
    for (_, values) in db.table(FEATURES_TABLE)?.iter() {
        let Some(&r) = row_of.get(&values[0].as_int().expect("schema")) else { continue };
        let name = values[1].as_text().expect("schema");
        for (c, spec) in specs.iter().enumerate() {
            if spec.name == name && !filled[r * width + c] {
                filled[r * width + c] = true;
                rows[r][c] = values[2].as_float().expect("schema");
            }
        }
    }
    if let Some(k) = filled.iter().position(|&f| !f) {
        return Err(ServerError::InsufficientData {
            feature: specs[k % width].name.clone(),
            detail: format!("no value computed yet for app {}", members[k / width].app_id),
        });
    }
    let names = members.iter().map(|app| app.name.clone()).collect();
    let features = specs.iter().map(|f| Feature::new(f.name.clone(), f.unit.clone())).collect();
    let ids = members.iter().map(|app| app.app_id).collect();
    let matrix = FeatureMatrix::new(names, features, rows)?;
    Ok((matrix, ids))
}

/// Runs the personalizable ranking for one user over one category.
///
/// # Errors
///
/// Assembly errors (above) plus ranking errors from `sor-core`.
pub fn rank_category(
    db: &Database,
    apps: &ApplicationManager,
    category: &str,
    prefs: &UserPreferences,
) -> Result<CategoryRanking, ServerError> {
    let (matrix, ids) = assemble_matrix(db, apps, category)?;
    let outcome = PersonalizableRanker::new().rank(&matrix, prefs)?;
    let order = outcome.named_order(&matrix).into_iter().map(String::from).collect();
    let app_order = outcome.final_ranking.iter().map(|p| ids[p.0]).collect();
    Ok(CategoryRanking { matrix: Arc::new(matrix), outcome: Arc::new(outcome), order, app_order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::ApplicationSpec;
    use crate::feature::{Extractor, FeatureSpec};
    use crate::processor::{DataProcessor, FeatureState};
    use crate::SensingServer;
    use sor_core::ranking::{FeatureId, PlaceId, Preference};
    use sor_proto::{Message, SensedRecord};
    use sor_store::Value;

    fn setup() -> (Database, ApplicationManager) {
        let mut db = Database::new();
        DataProcessor::install(&mut db).unwrap();
        let mut apps = ApplicationManager::new();
        for (id, name, temp) in [(1u64, "cold shop", 64.0), (2, "warm shop", 74.0)] {
            apps.register(ApplicationSpec {
                app_id: id,
                name: name.into(),
                creator: "o".into(),
                category: "coffee-shop".into(),
                latitude: 43.0,
                longitude: -76.0,
                radius_m: 150.0,
                script: String::new(),
                period_seconds: 10800.0,
                instants: 1080,
                features: vec![FeatureSpec::new(
                    "temperature",
                    "°F",
                    Extractor::Mean { sensor: 7 },
                    60.0,
                )],
            });
            let frame = Message::SensedDataUpload {
                task_id: id,
                records: vec![SensedRecord {
                    timestamp: 0.0,
                    window: 3.0,
                    sensor: 7,
                    values: vec![temp],
                }],
            }
            .encode();
            DataProcessor.enqueue_raw(&mut db, id, 0.0, &frame).unwrap();
        }
        let mut state = FeatureState::new();
        DataProcessor.process_inbox(&mut db, &mut state).unwrap();
        for id in [1u64, 2] {
            state.write_features(&mut db, id, &apps.get(id).unwrap().features).unwrap();
        }
        (db, apps)
    }

    #[test]
    fn ranking_respects_preferences() {
        let (db, apps) = setup();
        let warm_lover = UserPreferences::new("w", vec![Preference::value(75.0, 5)]);
        let r = rank_category(&db, &apps, "coffee-shop", &warm_lover).unwrap();
        assert_eq!(*r.order, ["warm shop", "cold shop"]);
        assert_eq!(r.app_order, vec![2, 1]);

        let cold_lover = UserPreferences::new("c", vec![Preference::value(60.0, 5)]);
        let r = rank_category(&db, &apps, "coffee-shop", &cold_lover).unwrap();
        assert_eq!(*r.order, ["cold shop", "warm shop"]);
    }

    /// A server with two coffee shops measured on two sensors: app 1
    /// reads `values[0]`, app 2 reads `values[1]`.
    fn two_feature_server(values: [(f64, f64); 2]) -> SensingServer {
        use sor_sensors::SensorKind;
        let (a, b) = (SensorKind::Temperature.wire_id(), SensorKind::Humidity.wire_id());
        let mut s = SensingServer::new().unwrap();
        for (app_id, (va, vb)) in (1u64..).zip(values) {
            s.register_application(ApplicationSpec {
                app_id,
                name: format!("shop {app_id}"),
                creator: "o".into(),
                category: "coffee-shop".into(),
                latitude: 43.05,
                longitude: -76.15,
                radius_m: 150.0,
                script: "get_temperature_readings(3)".into(),
                period_seconds: 3600.0,
                instants: 360,
                features: vec![
                    FeatureSpec::new("a", "", Extractor::Mean { sensor: a }, 60.0),
                    FeatureSpec::new("b", "", Extractor::Mean { sensor: b }, 60.0),
                ],
            })
            .unwrap();
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
            let Some((_, Message::ScheduleAssignment { task_id, .. })) = replies.last() else {
                panic!("no schedule for app {app_id}: {replies:?}")
            };
            let record = |sensor, value| SensedRecord {
                timestamp: 10.0,
                window: 1.0,
                sensor,
                values: vec![value],
            };
            s.handle_message(&Message::SensedDataUpload {
                task_id: *task_id,
                records: vec![record(a, va), record(b, vb)],
            })
            .unwrap();
        }
        s.process_data().unwrap();
        s
    }

    #[test]
    fn footrule_ties_go_to_the_lower_app_id() {
        // Equal weights and opposite individual orders: both rankings
        // have the same weighted footrule cost, whichever shop holds
        // which values, and the tie goes to app 1.
        let prefs = UserPreferences::new("t", vec![Preference::largest(3), Preference::largest(3)]);
        for values in [[(1.0, 2.0), (2.0, 1.0)], [(2.0, 1.0), (1.0, 2.0)]] {
            let mut s = two_feature_server(values);
            let direct =
                rank_category(s.database(), s.applications(), "coffee-shop", &prefs).unwrap();
            assert_eq!(direct.app_order, vec![1, 2], "values {values:?}");
            let rec = sor_obs::Recorder::enabled();
            s.set_recorder(rec.clone());
            let cold = s.rank("coffee-shop", &prefs).unwrap();
            let cached = s.rank("coffee-shop", &prefs).unwrap();
            assert_eq!(rec.counter("server.rank_cache_misses"), 1);
            assert_eq!(rec.counter("server.rank_cache_hits"), 1);
            assert_eq!(cold.app_order, vec![1, 2], "values {values:?}");
            assert_eq!(cached.app_order, vec![1, 2], "values {values:?}");
        }
    }

    /// The per-cell assembly that [`assemble_matrix`] must equal: one
    /// [`DataProcessor::feature_value`] lookup per (app, feature), in
    /// app-then-feature order.
    fn per_cell_oracle(
        db: &Database,
        apps: &ApplicationManager,
        category: &str,
    ) -> Result<(FeatureMatrix, Vec<u64>), ServerError> {
        let members = apps.by_category(category);
        let Some(first) = members.first() else {
            return Err(ServerError::UnknownApplication(0));
        };
        let mut rows = Vec::new();
        for app in &members {
            let mut row = Vec::new();
            for f in &first.features {
                let v = DataProcessor.feature_value(db, app.app_id, &f.name)?.ok_or_else(|| {
                    ServerError::InsufficientData {
                        feature: f.name.clone(),
                        detail: format!("no value computed yet for app {}", app.app_id),
                    }
                })?;
                row.push(v);
            }
            rows.push(row);
        }
        let names = members.iter().map(|a| a.name.clone()).collect();
        let features =
            first.features.iter().map(|f| Feature::new(f.name.clone(), f.unit.clone())).collect();
        let ids = members.iter().map(|a| a.app_id).collect();
        Ok((FeatureMatrix::new(names, features, rows)?, ids))
    }

    /// Three coffee shops measuring (temperature, noise), one museum,
    /// and a features table holding exactly `rows`, each as
    /// (row id, app id, feature, value).
    fn table_with(rows: &[(u64, u64, &str, f64)]) -> (Database, ApplicationManager) {
        let mut db = Database::new();
        DataProcessor::install(&mut db).unwrap();
        let mut apps = ApplicationManager::new();
        for (app_id, category) in [(1u64, "coffee-shop"), (2, "coffee-shop"), (3, "coffee-shop")]
            .into_iter()
            .chain([(4, "museum")])
        {
            apps.register(ApplicationSpec {
                app_id,
                name: format!("place {app_id}"),
                creator: "o".into(),
                category: category.into(),
                latitude: 43.0,
                longitude: -76.0,
                radius_m: 150.0,
                script: String::new(),
                period_seconds: 3600.0,
                instants: 360,
                features: ["temperature", "noise"]
                    .map(|name| FeatureSpec::new(name, "", Extractor::Mean { sensor: 7 }, 60.0))
                    .to_vec(),
            });
        }
        let table = db.table_mut(FEATURES_TABLE).unwrap();
        for &(row_id, app_id, feature, value) in rows {
            let values = vec![Value::Int(app_id as i64), Value::text(feature), Value::Float(value)];
            table.insert_at(sor_store::RowId(row_id), values).unwrap();
        }
        (db, apps)
    }

    #[test]
    fn one_pass_assembly_reports_the_first_missing_cell_like_per_cell_reads() {
        // App 2 lacks noise and app 3 lacks temperature: app-then-feature
        // order reports app 2's noise first.
        let (db, apps) = table_with(&[
            (0, 1, "temperature", 70.0),
            (1, 1, "noise", 40.0),
            (2, 2, "temperature", 71.0),
            (3, 3, "noise", 42.0),
            (4, 4, "temperature", 99.0),
            (5, 2, "humidity", 50.0),
        ]);
        let assembled = assemble_matrix(&db, &apps, "coffee-shop");
        assert_eq!(assembled, per_cell_oracle(&db, &apps, "coffee-shop"));
        assert_eq!(
            assembled,
            Err(ServerError::InsufficientData {
                feature: "noise".into(),
                detail: "no value computed yet for app 2".into(),
            })
        );
    }

    #[test]
    fn one_pass_assembly_takes_the_lowest_row_id_like_per_cell_reads() {
        // (2, temperature) has two rows; the one with the lower id was
        // inserted last.
        let (db, apps) = table_with(&[
            (10, 2, "temperature", 71.0),
            (5, 2, "temperature", 80.0),
            (0, 1, "temperature", 70.0),
            (1, 1, "noise", 40.0),
            (11, 2, "noise", 41.0),
            (3, 3, "noise", 42.0),
            (4, 3, "temperature", 72.0),
            (6, 4, "temperature", 99.0),
        ]);
        let (matrix, ids) = assemble_matrix(&db, &apps, "coffee-shop").unwrap();
        assert_eq!(Ok((matrix.clone(), ids.clone())), per_cell_oracle(&db, &apps, "coffee-shop"));
        assert_eq!(ids, vec![1, 2, 3]);
        assert_eq!(matrix.value(PlaceId(1), FeatureId(0)), 80.0);
    }

    #[test]
    fn empty_category_is_error() {
        let (db, apps) = setup();
        let prefs = UserPreferences::new("x", vec![]);
        assert!(rank_category(&db, &apps, "museum", &prefs).is_err());
    }

    #[test]
    fn missing_feature_value_is_error() {
        let (mut db, apps) = setup();
        // Blow away the features table contents.
        db.delete_where(FEATURES_TABLE, &sor_store::Predicate::True).unwrap();
        let prefs = UserPreferences::new("x", vec![Preference::value(70.0, 3)]);
        assert!(matches!(
            rank_category(&db, &apps, "coffee-shop", &prefs),
            Err(ServerError::InsufficientData { .. })
        ));
    }
}
