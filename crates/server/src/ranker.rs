//! The Personalizable Ranker service: assembles the feature matrix `H`
//! for one category from the features table and runs Algorithm 2.

use sor_core::ranking::{Feature, FeatureMatrix, PersonalizableRanker, RankingOutcome};
use sor_core::UserPreferences;
use sor_store::Database;

use crate::application::ApplicationManager;
use crate::processor::DataProcessor;
use crate::ServerError;

/// A ranked category result: outcome plus the place names in final
/// order.
#[derive(Debug, Clone)]
pub struct CategoryRanking {
    /// The assembled matrix (for inspection / visualisation).
    pub matrix: FeatureMatrix,
    /// The full Algorithm-2 outcome.
    pub outcome: RankingOutcome,
    /// Place names, best first.
    pub order: Vec<String>,
    /// The app ids in final-ranking order.
    pub app_order: Vec<u64>,
}

/// Builds `H` for every application of `category` (feature columns
/// follow the first application's feature list, which the paper's
/// single-category assumption makes uniform).
///
/// # Errors
///
/// - [`ServerError::UnknownApplication`] if the category is empty.
/// - [`ServerError::InsufficientData`] if any app lacks a feature value.
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
    let features: Vec<Feature> =
        first.features.iter().map(|f| Feature::new(f.name.clone(), f.unit.clone())).collect();
    let processor = DataProcessor;
    let mut rows = Vec::with_capacity(members.len());
    let mut names = Vec::with_capacity(members.len());
    let mut ids = Vec::with_capacity(members.len());
    for app in &members {
        let mut row = Vec::with_capacity(features.len());
        for f in &first.features {
            let v = processor.feature_value(db, app.app_id, &f.name)?.ok_or_else(|| {
                ServerError::InsufficientData {
                    feature: f.name.clone(),
                    detail: format!("no value computed yet for app {}", app.app_id),
                }
            })?;
            row.push(v);
        }
        rows.push(row);
        names.push(app.name.clone());
        ids.push(app.app_id);
    }
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
    let order: Vec<String> = outcome.named_order(&matrix).iter().map(|s| s.to_string()).collect();
    let app_order: Vec<u64> = outcome.final_ranking.iter().map(|p| ids[p.0]).collect();
    Ok(CategoryRanking { matrix, outcome, order, app_order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::application::ApplicationSpec;
    use crate::feature::{Extractor, FeatureSpec};
    use crate::processor::{DataProcessor, FeatureState};
    use crate::SensingServer;
    use sor_core::ranking::Preference;
    use sor_proto::{Message, SensedRecord};

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
        assert_eq!(r.order, vec!["warm shop", "cold shop"]);
        assert_eq!(r.app_order, vec![2, 1]);

        let cold_lover = UserPreferences::new("c", vec![Preference::value(60.0, 5)]);
        let r = rank_category(&db, &apps, "coffee-shop", &cold_lover).unwrap();
        assert_eq!(r.order, vec!["cold shop", "warm shop"]);
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
        db.delete_where(crate::processor::FEATURES_TABLE, &sor_store::Predicate::True).unwrap();
        let prefs = UserPreferences::new("x", vec![Preference::value(70.0, 3)]);
        assert!(matches!(
            rank_category(&db, &apps, "coffee-shop", &prefs),
            Err(ServerError::InsufficientData { .. })
        ));
    }
}
