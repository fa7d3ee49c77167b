//! **SOR** — a mobile-phone-Sensing based Objective Ranking system.
//!
//! From-scratch Rust reproduction of *"SOR: An Objective Ranking System
//! Based on Mobile Phone Sensing"* (Sheng, Tang, Wang, Gao, Xue — IEEE
//! ICDCS 2014). SOR ranks target places (coffee shops, hiking trails)
//! from **objective sensor data** gathered by participating smartphones
//! instead of subjective star ratings.
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`core`] | `sor-core` | coverage-maximising sensing scheduler (greedy 1/2-approx over a matroid) + personalizable ranking (weighted-footrule aggregation via min-cost flow) |
//! | [`flow`] | `sor-flow` | assignment solver for the aggregation: SSP min-cost matching with a canonical tie rule |
//! | [`proto`] | `sor-proto` | binary wire protocol (varints, CRC-framed messages) |
//! | [`script`] | `sor-script` | SenseScript — the Lua-like sensing-task DSL with a whitelisted interpreter |
//! | [`sensors`] | `sor-sensors` | provider/manager sensor stack over synthetic environments |
//! | [`frontend`] | `sor-frontend` | the mobile app: task manager, script-driven acquisition, privacy preferences |
//! | [`store`] | `sor-store` | embedded typed table store (the PostgreSQL role) |
//! | [`server`] | `sor-server` | sensing server: participation, scheduling, data processing, ranking |
//! | [`sim`] | `sor-sim` | discrete-event world, lossy transport, the paper's §V scenarios |
//!
//! # Quickstart
//!
//! ```
//! // Rank two places for a user who likes quiet.
//! use sor::core::ranking::{Feature, FeatureMatrix, PersonalizableRanker, Preference};
//! use sor::core::UserPreferences;
//!
//! let h = FeatureMatrix::new(
//!     vec!["library cafe".into(), "sports bar".into()],
//!     vec![Feature::new("noise", "dB")],
//!     vec![vec![35.0], vec![80.0]],
//! )?;
//! let prefs = UserPreferences::new("reader", vec![Preference::smallest(5)]);
//! let outcome = PersonalizableRanker::new().rank(&h, &prefs)?;
//! assert_eq!(outcome.named_order(&h)[0], "library cafe");
//! # Ok::<(), sor::core::CoreError>(())
//! ```
//!
//! Run the paper's experiments with the binaries in `sor-bench`
//! (`cargo run -p sor-bench --bin fig14`, `table1`, …) or the examples
//! (`cargo run --example coffee_shop_ranking`).

#![forbid(unsafe_code)]

pub use sor_core as core;
pub use sor_flow as flow;
pub use sor_frontend as frontend;
pub use sor_obs as obs;
pub use sor_proto as proto;
pub use sor_script as script;
pub use sor_sensors as sensors;
pub use sor_server as server;
pub use sor_sim as sim;
pub use sor_store as store;
