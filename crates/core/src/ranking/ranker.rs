//! Algorithm 2 end to end: the Personalizable Ranker.

use crate::ranking::aggregate::{aggregate, AggregationMethod};
use crate::ranking::distance::Ranking;
use crate::ranking::feature::FeatureMatrix;
use crate::ranking::individual::individual_rankings;
use crate::ranking::preference::{distance_matrix, UserPreferences};
use crate::CoreError;

/// Everything Algorithm 2 computes, preserved for inspection (the
/// intermediate results are exactly what the paper's evaluation section
/// discusses: which feature pulled which place up or down).
#[derive(Debug, Clone, PartialEq)]
pub struct RankingOutcome {
    /// The distance matrix `Γ` (Step 1).
    pub gamma: Vec<Vec<f64>>,
    /// Per-feature individual rankings `R_j` (Step 2).
    pub individual: Vec<Ranking>,
    /// The final aggregated ranking (Step 3).
    pub final_ranking: Ranking,
}

impl RankingOutcome {
    /// Place names best-to-worst, resolved against the feature matrix.
    pub fn named_order<'a>(&self, h: &'a FeatureMatrix) -> Vec<&'a str> {
        self.final_ranking.iter().map(|p| h.place_name(p)).collect()
    }

    /// Explains the final ranking: for every place (best first), the
    /// per-feature raw value, distance to the user's preference, the
    /// feature's individual rank for this place, and the weighted
    /// displacement `w_j · |π(i, R_j) − final_pos(i)|` — the feature's
    /// pull on the aggregation objective. The per-place displacements
    /// sum to exactly the weighted f-ranking distance the aggregation
    /// minimised.
    ///
    /// # Panics
    ///
    /// Panics if `h`/`prefs` are not the inputs this outcome was
    /// computed from (dimension mismatch).
    pub fn explain(&self, h: &FeatureMatrix, prefs: &UserPreferences) -> Vec<PlaceExplanation> {
        use crate::ranking::feature::{FeatureId, PlaceId};
        assert_eq!(h.n_features(), self.individual.len(), "mismatched inputs");
        assert_eq!(prefs.len(), self.individual.len(), "mismatched inputs");
        self.final_ranking
            .iter()
            .enumerate()
            .map(|(final_pos, place)| {
                let contributions = (0..h.n_features())
                    .map(|j| {
                        let individual_position = self.individual[j].position_of(place);
                        let weight = prefs.preferences[j].weight.value();
                        FeatureContribution {
                            feature: h.feature(FeatureId(j)).to_string(),
                            value: h.value(place, FeatureId(j)),
                            distance: self.gamma[place.0][j],
                            individual_position,
                            weighted_displacement: weight
                                * individual_position.abs_diff(final_pos) as f64,
                        }
                    })
                    .collect();
                PlaceExplanation {
                    place: PlaceId(place.0),
                    name: h.place_name(place).to_string(),
                    final_position: final_pos,
                    contributions,
                }
            })
            .collect()
    }
}

/// One feature's influence on one place's final rank.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureContribution {
    /// Feature display name with unit.
    pub feature: String,
    /// Raw feature value `h_ij`.
    pub value: f64,
    /// Distance to the user's preference `γ_ij`.
    pub distance: f64,
    /// This place's rank under the feature's individual ranking.
    pub individual_position: usize,
    /// `w_j · |π(i, R_j) − final_pos(i)|`: the feature's contribution to
    /// the weighted footrule objective at the final position.
    pub weighted_displacement: f64,
}

/// Why one place ended up at its final position.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceExplanation {
    /// The place.
    pub place: crate::ranking::feature::PlaceId,
    /// Its display name.
    pub name: String,
    /// Final rank (0 = best).
    pub final_position: usize,
    /// Per-feature breakdown.
    pub contributions: Vec<FeatureContribution>,
}

impl std::fmt::Display for PlaceExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "#{} {}", self.final_position + 1, self.name)?;
        for c in &self.contributions {
            writeln!(
                f,
                "    {:<24} value {:>10.2}  γ {:>8.2}  rank #{:<2} pull {:>6.1}",
                c.feature,
                c.value,
                c.distance,
                c.individual_position + 1,
                c.weighted_displacement
            )?;
        }
        Ok(())
    }
}

/// The Personalizable Ranker component of the sensing server (§II-B):
/// Algorithm 2 with the paper's footrule aggregation.
///
/// # Example
///
/// ```
/// use sor_core::ranking::{
///     Feature, FeatureMatrix, PersonalizableRanker, Preference, UserPreferences,
/// };
///
/// let h = FeatureMatrix::new(
///     vec!["shop A".into(), "shop B".into()],
///     vec![Feature::new("noise", "dB")],
///     vec![vec![60.0], vec![45.0]],
/// )?;
/// // Quiet-loving user: prefer the smallest noise, weight 5.
/// let prefs = UserPreferences::new("Emma", vec![Preference::smallest(5)]);
/// let outcome = PersonalizableRanker::default().rank(&h, &prefs)?;
/// assert_eq!(outcome.named_order(&h), vec!["shop B", "shop A"]);
/// # Ok::<(), sor_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PersonalizableRanker;

impl PersonalizableRanker {
    /// Ranker using the paper's footrule/min-cost-flow aggregation.
    pub fn new() -> Self {
        PersonalizableRanker
    }

    /// Runs Algorithm 2: distances, individual rankings, aggregation.
    ///
    /// # Errors
    ///
    /// - [`CoreError::DimensionMismatch`] if the profile does not cover
    ///   the matrix's features.
    /// - Aggregation errors (see [`aggregate`]).
    pub fn rank(
        &self,
        h: &FeatureMatrix,
        prefs: &UserPreferences,
    ) -> Result<RankingOutcome, CoreError> {
        let gamma = distance_matrix(h, prefs)?;
        let individual = individual_rankings(&gamma);
        let weights = prefs.weights();
        let final_ranking = if h.n_places() == 0 {
            Ranking::identity(0)
        } else if individual.is_empty() {
            // No features: every order is equally good; use identity.
            Ranking::identity(h.n_places())
        } else {
            aggregate(&individual, &weights, AggregationMethod::FootruleFlow)?
        };
        Ok(RankingOutcome { gamma, individual, final_ranking })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::feature::Feature;
    use crate::ranking::preference::Preference;

    fn coffee_matrix() -> FeatureMatrix {
        // places: Tim Hortons, B&N Cafe, Starbucks
        // features: temperature °F, brightness lux, noise, wifi dBm
        FeatureMatrix::new(
            vec!["Tim Hortons".into(), "B&N Cafe".into(), "Starbucks".into()],
            vec![
                Feature::new("temperature", "°F"),
                Feature::new("brightness", "lux"),
                Feature::new("noise", ""),
                Feature::new("wifi", "dBm"),
            ],
            vec![
                vec![64.0, 1100.0, 0.10, -55.0],
                vec![71.0, 500.0, 0.12, -60.0],
                vec![74.0, 180.0, 0.45, -65.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn quiet_warm_reader_prefers_bn() {
        // Emma-like: temperature dominates (weight 5, wants ~72 °F so the
        // chilly Tim Hortons loses), with a mild quietness preference
        // that pushes Starbucks below B&N.
        let prefs = UserPreferences::new(
            "Emma",
            vec![
                Preference::value(72.0, 5),
                Preference::largest(0),
                Preference::smallest(2),
                Preference::largest(0),
            ],
        );
        let h = coffee_matrix();
        let outcome = PersonalizableRanker::new().rank(&h, &prefs).unwrap();
        let order = outcome.named_order(&h);
        assert_eq!(order[0], "B&N Cafe");
        assert_eq!(*order.last().unwrap(), "Tim Hortons");
    }

    #[test]
    fn social_user_prefers_starbucks() {
        // David-like: warm, NOT bright (smallest brightness), doesn't
        // care about noise.
        let prefs = UserPreferences::new(
            "David",
            vec![
                Preference::value(75.0, 4),
                Preference::smallest(4),
                Preference::largest(0),
                Preference::largest(1),
            ],
        );
        let h = coffee_matrix();
        let outcome = PersonalizableRanker::new().rank(&h, &prefs).unwrap();
        assert_eq!(outcome.named_order(&h)[0], "Starbucks");
    }

    #[test]
    fn outcome_exposes_intermediates() {
        let prefs = UserPreferences::new(
            "x",
            vec![
                Preference::value(70.0, 1),
                Preference::largest(1),
                Preference::smallest(1),
                Preference::largest(1),
            ],
        );
        let h = coffee_matrix();
        let outcome = PersonalizableRanker::new().rank(&h, &prefs).unwrap();
        assert_eq!(outcome.gamma.len(), 3);
        assert_eq!(outcome.gamma[0].len(), 4);
        assert_eq!(outcome.individual.len(), 4);
        assert_eq!(outcome.final_ranking.len(), 3);
    }

    #[test]
    fn profile_mismatch_is_error() {
        let prefs = UserPreferences::new("x", vec![Preference::value(70.0, 3)]);
        assert!(PersonalizableRanker::new().rank(&coffee_matrix(), &prefs).is_err());
    }

    #[test]
    fn no_features_yields_identity() {
        let h =
            FeatureMatrix::new(vec!["A".into(), "B".into()], vec![], vec![vec![], vec![]]).unwrap();
        let prefs = UserPreferences::new("x", vec![]);
        let out = PersonalizableRanker::new().rank(&h, &prefs).unwrap();
        assert_eq!(out.final_ranking.order(), &[0, 1]);
    }

    #[test]
    fn explanation_accounts_for_the_objective() {
        use crate::ranking::aggregate::weighted_footrule;
        let h = coffee_matrix();
        let prefs = UserPreferences::new(
            "x",
            vec![
                Preference::value(72.0, 5),
                Preference::largest(1),
                Preference::smallest(2),
                Preference::largest(1),
            ],
        );
        let outcome = PersonalizableRanker::new().rank(&h, &prefs).unwrap();
        let explanations = outcome.explain(&h, &prefs);
        assert_eq!(explanations.len(), 3);
        // Best place first, positions in order.
        for (i, e) in explanations.iter().enumerate() {
            assert_eq!(e.final_position, i);
            assert_eq!(e.contributions.len(), 4);
        }
        // The displacements sum to the aggregation objective.
        let total: f64 = explanations
            .iter()
            .flat_map(|e| &e.contributions)
            .map(|c| c.weighted_displacement)
            .sum();
        let objective =
            weighted_footrule(&outcome.final_ranking, &outcome.individual, &prefs.weights());
        assert!((total - objective).abs() < 1e-9, "{total} vs {objective}");
        // Display renders something human-shaped.
        let text = explanations[0].to_string();
        assert!(text.contains("#1"));
        assert!(text.contains("temperature"));
    }

    #[test]
    #[should_panic(expected = "mismatched inputs")]
    fn explanation_rejects_foreign_matrix() {
        let h = coffee_matrix();
        let prefs = UserPreferences::new(
            "x",
            vec![
                Preference::value(72.0, 5),
                Preference::largest(1),
                Preference::smallest(2),
                Preference::largest(1),
            ],
        );
        let outcome = PersonalizableRanker::new().rank(&h, &prefs).unwrap();
        let other = FeatureMatrix::new(
            vec!["A".into(), "B".into(), "C".into()],
            vec![Feature::new("only-one", "")],
            vec![vec![1.0], vec![2.0], vec![3.0]],
        )
        .unwrap();
        let small_prefs = UserPreferences::new("y", vec![Preference::largest(1)]);
        outcome.explain(&other, &small_prefs);
    }

    #[test]
    fn different_users_same_data_different_rankings() {
        // The headline claim of §IV: same sensed data, personalised
        // outputs.
        let h = coffee_matrix();
        let warm_dark = UserPreferences::new(
            "a",
            vec![
                Preference::value(75.0, 5),
                Preference::smallest(5),
                Preference::largest(0),
                Preference::largest(0),
            ],
        );
        let cool_bright = UserPreferences::new(
            "b",
            vec![
                Preference::value(65.0, 5),
                Preference::largest(5),
                Preference::largest(0),
                Preference::largest(0),
            ],
        );
        let ra = PersonalizableRanker::new().rank(&h, &warm_dark).unwrap();
        let rb = PersonalizableRanker::new().rank(&h, &cool_bright).unwrap();
        assert_ne!(ra.final_ranking, rb.final_ranking);
    }
}
