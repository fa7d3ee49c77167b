//! The SOR mobile frontend, simulated in-process.
//!
//! Fig. 3 of the paper: a Message Handler talks HTTP+binary to the
//! sensing server; incoming schedule assignments become *task
//! instances* tracked by the Sensing Task Manager; each task runs its
//! SenseScript through the script interpreter, whose data-acquisition
//! calls are routed by the Sensor Manager to per-sensor Providers; the
//! Local Preference Manager lets the phone's owner veto individual
//! sensors (e.g. never expose GPS fixes).
//!
//! This crate wires those exact components: [`sor_proto`] is the message
//! handler's codec, [`sor_script`]'s optimizing bytecode VM (behind a
//! compilation cache) the script interpreter, [`sor_sensors`] the
//! sensor manager/providers, and [`MobileFrontend`] the task manager
//! that drives scripts at their scheduled sense times and emits
//! [`sor_proto::Message::SensedDataUpload`]s.
//!
//! # Example
//!
//! ```
//! use sor_frontend::MobileFrontend;
//! use sor_sensors::environment::presets;
//! use sor_sensors::{SensorKind, SensorManager, SimulatedProvider};
//! use sor_proto::Message;
//! use std::sync::Arc;
//!
//! let shop = Arc::new(presets::starbucks(1));
//! let mut mgr = SensorManager::new();
//! mgr.register(SimulatedProvider::new(SensorKind::Microphone, shop));
//! let mut phone = MobileFrontend::new(7, mgr);
//!
//! phone.handle_message(&Message::ScheduleAssignment {
//!     task_id: 1,
//!     script: "get_noise_readings(3)".into(),
//!     sense_times: vec![10.0, 20.0],
//! });
//! let outgoing = phone.advance_to(25.0);
//! // Two sense times -> two uploads, plus the completion notice.
//! assert_eq!(outgoing.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod phone;
pub mod preferences;
pub mod task;

pub use phone::MobileFrontend;
pub use preferences::LocalPreferenceManager;
// Re-exported so deployments (the sim world) can share one compilation
// cache across a phone fleet without depending on `sor-script` directly.
pub use sor_script::ScriptCache;
pub use task::{TaskInstance, TaskStatus};
