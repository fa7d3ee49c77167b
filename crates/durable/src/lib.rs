//! Durability for the SOR sensing server.
//!
//! The paper's server keeps everything in PostgreSQL (§II-B) and simply
//! assumes the database survives restarts. This crate supplies that
//! assumption for the embedded `sor-store` database: a write-ahead log,
//! periodic checkpoints, and crash recovery, so a sensing server that
//! dies mid-period comes back with every committed upload intact.
//!
//! The design is the classic checkpoint + redo-log pair:
//!
//! - every mutation of the wrapped [`sor_store::Database`] is captured
//!   as a logical [`sor_store::LogOp`] and appended — CRC-framed via
//!   [`sor_proto::frame`] — to an append-only log *before* the commit
//!   is acknowledged ([`db`]);
//! - checkpoints serialise the whole database with
//!   [`sor_store::Database::snapshot_into`] straight into the framed
//!   blob, atomically replace the previous checkpoint, and retire the
//!   log ([`wal`]);
//! - recovery restores the latest valid checkpoint and replays the
//!   valid log suffix, stopping cleanly at the first torn or corrupt
//!   record and truncating it ([`db::DurableDatabase::open`]).
//!
//! Two [`storage::Storage`] backends sit underneath: [`FileStorage`]
//! for real disks and [`SimDisk`], a deterministic in-memory disk that
//! injects torn writes, partial flushes and bit rot from a seeded hash
//! — the `sor-sim` world crashes servers against it and rebuilds them
//! mid-scenario.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod db;
pub mod storage;
pub mod wal;

pub use artifact::{read_sealed, seal, unseal, write_sealed, ArtifactError, SEAL_MAGIC};
pub use db::{DurableDatabase, DurableOptions, RecoveryReport};
pub use storage::{FileStorage, SimDisk, Storage};
pub use wal::TailState;

use sor_store::StoreError;

/// Errors from the durability layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableError {
    /// The storage backend failed (I/O error on a real disk).
    Io(String),
    /// The checkpoint file exists but cannot be trusted. Unlike a bad
    /// log tail — which recovery truncates — a bad checkpoint means the
    /// durable state is gone; this is surfaced, never papered over.
    CorruptCheckpoint(String),
    /// Replaying the log against the checkpoint failed — the log and
    /// checkpoint do not belong together.
    Store(StoreError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(d) => write!(f, "storage error: {d}"),
            DurableError::CorruptCheckpoint(d) => write!(f, "corrupt checkpoint: {d}"),
            DurableError::Store(e) => write!(f, "log replay failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}
