//! The SOR sensing server (§II-B, Fig. 5).
//!
//! One process hosting:
//!
//! - [`user_info::UserInfoManager`] — tokens, user ids, names.
//! - [`application::ApplicationManager`] — one *application* per target
//!   place: its location (for barcode verification), its SenseScript,
//!   its scheduling-period configuration and its feature definitions.
//! - [`participation::ParticipationManager`] — live sensing tasks:
//!   location-verified admission, budgets, status transitions, and
//!   departure detection.
//! - the Sensing Scheduler (the `scheduling` stage) —
//!   [`sor_core::schedule::online`] per application, emitting schedule
//!   assignments over the wire. Each application's scheduler state is
//!   saved at every replan and restored as is after a crash.
//! - [`processor::DataProcessor`] — drains the binary inbox (uploads are
//!   stored as opaque blobs exactly as the paper describes), decodes
//!   them, and turns raw `(t, Δt, d)` records into *feature data*
//!   (means, windowed deviations, GPS curvature, altitude change). Each
//!   pass folds only its new records into [`processor::FeatureState`],
//!   the running per-(application, feature) state every feature value
//!   is derived from; it is rebuilt from the records table when missing.
//! - [`ranker`] — assembles the feature matrix across places of one
//!   category and runs the personalizable ranking of §IV.
//! - [`viz`] — the "simple Visualization module": ASCII charts and CSV.
//!
//! Everything persistent lives in a [`sor_store::Database`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod application;
pub mod cache;
pub mod feature;
pub mod participation;
pub mod processor;
pub mod ranker;
mod scheduling;
pub mod server;
pub mod user_info;
pub mod viz;

pub use application::{ApplicationManager, ApplicationSpec};
pub use cache::RankCache;
pub use feature::{Extractor, FeatureSpec};
pub use participation::{ParticipantStatus, ParticipationManager};
pub use server::SensingServer;

/// Errors from the sensing server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The application (target place) id is unknown.
    UnknownApplication(u64),
    /// The participation request failed location verification.
    LocationMismatch {
        /// Distance between claimed location and the place (metres).
        distance_m: f64,
        /// The admission radius (metres).
        radius_m: f64,
    },
    /// The task id is unknown.
    UnknownTask(u64),
    /// The application's SenseScript failed static verification at
    /// task admission: it is statically guaranteed to fail on every
    /// phone, so no task slot is allocated and no scheduling happens.
    ScriptRejected {
        /// The application whose script was rejected.
        app_id: u64,
        /// The analyzer's rendered findings, one `line:col:
        /// severity[CODE]: message` per line.
        report: String,
    },
    /// Storage failure.
    Store(sor_store::StoreError),
    /// The durability layer (write-ahead log / checkpoint) failed.
    Durable(sor_durable::DurableError),
    /// Core algorithm failure.
    Core(sor_core::CoreError),
    /// A stored blob failed to decode.
    Decode(sor_proto::ProtoError),
    /// Not enough data to extract a feature.
    InsufficientData {
        /// The feature.
        feature: String,
        /// Why.
        detail: String,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownApplication(id) => write!(f, "unknown application {id}"),
            ServerError::LocationMismatch { distance_m, radius_m } => write!(
                f,
                "claimed location is {distance_m:.0} m from the place (radius {radius_m:.0} m)"
            ),
            ServerError::UnknownTask(id) => write!(f, "unknown task {id}"),
            ServerError::ScriptRejected { app_id, report } => {
                write!(f, "script of application {app_id} rejected by static analysis:\n{report}")
            }
            ServerError::Store(e) => write!(f, "store: {e}"),
            ServerError::Durable(e) => write!(f, "durability: {e}"),
            ServerError::Core(e) => write!(f, "core: {e}"),
            ServerError::Decode(e) => write!(f, "decode: {e}"),
            ServerError::InsufficientData { feature, detail } => {
                write!(f, "cannot extract `{feature}`: {detail}")
            }
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Store(e) => Some(e),
            ServerError::Durable(e) => Some(e),
            ServerError::Core(e) => Some(e),
            ServerError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sor_store::StoreError> for ServerError {
    fn from(e: sor_store::StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<sor_durable::DurableError> for ServerError {
    fn from(e: sor_durable::DurableError) -> Self {
        ServerError::Durable(e)
    }
}

impl From<sor_core::CoreError> for ServerError {
    fn from(e: sor_core::CoreError) -> Self {
        ServerError::Core(e)
    }
}

impl From<sor_proto::ProtoError> for ServerError {
    fn from(e: sor_proto::ProtoError) -> Self {
        ServerError::Decode(e)
    }
}

/// Great-circle distance in metres (haversine), used by the
/// Participation Manager's location check.
pub fn haversine_m(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R: f64 = 6_371_000.0;
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dp = (lat2 - lat1).to_radians();
    let dl = (lon2 - lon1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    2.0 * R * a.sqrt().asin()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_distances() {
        // Same point.
        assert!(haversine_m(43.0, -76.0, 43.0, -76.0) < 1e-6);
        // One degree of latitude ≈ 111 km.
        let d = haversine_m(43.0, -76.0, 44.0, -76.0);
        assert!((d - 111_200.0).abs() < 1000.0, "{d}");
        // Small offsets scale linearly: 0.001° lat ≈ 111 m.
        let d = haversine_m(43.0, -76.0, 43.001, -76.0);
        assert!((d - 111.2).abs() < 2.0, "{d}");
    }
}
