//! Shared helpers for the experiment binaries.

use std::sync::Arc;

use sor_core::ranking::{FeatureId, FeatureMatrix, PlaceId};
use sor_server::viz::FeaturePanel;

/// Builds one Fig.-style panel per feature column of a matrix.
pub fn panels_of(matrix: &FeatureMatrix) -> Vec<FeaturePanel> {
    (0..matrix.n_features())
        .map(|j| {
            let bars: Vec<(String, f64)> = (0..matrix.n_places())
                .map(|i| {
                    (
                        matrix.place_name(PlaceId(i)).to_string(),
                        matrix.value(PlaceId(i), FeatureId(j)),
                    )
                })
                .collect();
            FeaturePanel::new(matrix.feature(FeatureId(j)).to_string(), bars)
        })
        .collect()
}

/// Prints a paper-style ranking table.
pub fn print_ranking_table(title: &str, rows: &[(String, Arc<[String]>)]) {
    println!("{title}");
    println!("  {:<8} {:<20} {:<20} {:<20}", "User", "No. 1", "No. 2", "No. 3");
    for (user, order) in rows {
        println!(
            "  {:<8} {:<20} {:<20} {:<20}",
            user,
            order.first().map(String::as_str).unwrap_or("-"),
            order.get(1).map(String::as_str).unwrap_or("-"),
            order.get(2).map(String::as_str).unwrap_or("-"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_core::ranking::Feature;

    #[test]
    fn panels_cover_all_features() {
        let m = FeatureMatrix::new(
            vec!["a".into(), "b".into()],
            vec![Feature::new("x", ""), Feature::new("y", "u")],
            vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        )
        .unwrap();
        let panels = panels_of(&m);
        assert_eq!(panels.len(), 2);
        assert_eq!(panels[1].bars[1], ("b".to_string(), 4.0));
    }
}
