//! Log encoding and replay.
//!
//! The write-ahead log is a byte stream of CRC-framed
//! [`LogOp`](sor_store::LogOp) records ([`sor_proto::frame`]). One
//! commit appends and flushes one batch of frames. Replay walks the
//! stream, applies every valid record, and reports how the stream ended
//! — the caller truncates anything past the valid prefix.

use sor_proto::frame::{encode_frame_into, FrameError, FrameScanner};
use sor_store::{Database, LogOp};

use crate::DurableError;

/// The checkpoint blob name.
pub const CHECKPOINT_FILE: &str = "checkpoint.sordb";

/// The log blob name for one checkpoint epoch. Each checkpoint starts
/// a fresh log; naming logs by epoch makes "checkpoint then retire the
/// log" crash-safe without multi-file atomicity (a crash between the
/// two steps leaves a stale log that recovery never reads).
pub fn wal_file(epoch: u64) -> String {
    format!("wal.{epoch:06}.sorlog")
}

/// How the scanned log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// Every record intact.
    Clean,
    /// The log ends mid-record — the signature of a crash during an
    /// append. Expected; recovery truncates the tear.
    Torn,
    /// A structurally complete record failed its CRC or decoded to
    /// gibberish — media corruption rather than a crash.
    Corrupt,
}

impl std::fmt::Display for TailState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailState::Clean => write!(f, "clean"),
            TailState::Torn => write!(f, "torn"),
            TailState::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// What [`replay_into`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Records applied.
    pub replayed: usize,
    /// Byte length of the valid prefix (what the log keeps).
    pub valid_len: usize,
    /// How the log ended.
    pub tail: TailState,
}

/// Serialises one commit's ops as a batch of framed records.
pub fn encode_batch(ops: &[LogOp]) -> Vec<u8> {
    let mut out = Vec::new();
    for op in ops {
        encode_frame_into(&mut out, &op.encode());
    }
    out
}

/// Replays a log stream into a database, stopping at the first torn or
/// corrupt record. The database ends up at the committed prefix; the
/// outcome says where the prefix ends so the caller can truncate.
///
/// # Errors
///
/// [`DurableError::Store`] if a *valid* record does not apply — the log
/// was replayed against the wrong checkpoint, which is not survivable.
pub fn replay_into(db: &mut Database, log: &[u8]) -> Result<ReplayOutcome, DurableError> {
    let mut scanner = FrameScanner::new(log);
    let mut replayed = 0usize;
    let mut valid_len = 0usize;
    let tail = loop {
        let before = scanner.valid_len();
        match scanner.next_frame() {
            None => break TailState::Clean,
            Some(Ok(payload)) => match LogOp::decode(payload) {
                Ok(op) => {
                    db.apply_op(&op)?;
                    replayed += 1;
                    valid_len = scanner.valid_len();
                }
                Err(_) => {
                    // Frame CRC passed but the payload is not a log
                    // record: corruption the checksum happened to miss,
                    // or a foreign write. Stop before it.
                    valid_len = before;
                    break TailState::Corrupt;
                }
            },
            Some(Err(FrameError::Torn { .. })) => break TailState::Torn,
            Some(Err(FrameError::Corrupt { .. })) => break TailState::Corrupt,
        }
    };
    Ok(ReplayOutcome { replayed, valid_len, tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sor_store::{ChangeLog, ColumnType, Predicate, Schema, Value};

    fn scripted_ops() -> (Database, Vec<LogOp>) {
        let log = ChangeLog::enabled();
        let mut db = Database::new();
        db.set_changelog(log.clone());
        db.create_table(Schema::new("t").column("n", ColumnType::Int)).unwrap();
        db.create_index("t", "n").unwrap();
        for i in 0..20 {
            db.insert("t", vec![Value::Int(i)]).unwrap();
        }
        db.delete_where("t", &Predicate::eq("n", Value::Int(3))).unwrap();
        (db, log.drain())
    }

    #[test]
    fn clean_log_replays_to_identical_state() {
        let (db, ops) = scripted_ops();
        let log = encode_batch(&ops);
        let mut fresh = Database::new();
        let outcome = replay_into(&mut fresh, &log).unwrap();
        assert_eq!(outcome.tail, TailState::Clean);
        assert_eq!(outcome.replayed, ops.len());
        assert_eq!(outcome.valid_len, log.len());
        assert_eq!(fresh.snapshot(), db.snapshot());
    }

    #[test]
    fn every_truncation_point_yields_a_committed_prefix() {
        let (_, ops) = scripted_ops();
        let log = encode_batch(&ops);
        for cut in 0..log.len() {
            let mut db = Database::new();
            let outcome = replay_into(&mut db, &log[..cut]).unwrap();
            assert!(outcome.replayed <= ops.len());
            assert!(outcome.valid_len <= cut, "valid prefix can't exceed the input");
            if cut < log.len() {
                // A cut mid-stream is always a tear, never corruption.
                assert!(
                    outcome.tail == TailState::Torn || outcome.valid_len == cut,
                    "cut at {cut}: {outcome:?}"
                );
            }
            // The replayed ops are exactly the first `replayed` ops.
            let mut expect = Database::new();
            for op in &ops[..outcome.replayed] {
                expect.apply_op(op).unwrap();
            }
            assert_eq!(db.snapshot(), expect.snapshot(), "cut at {cut}");
        }
    }

    #[test]
    fn interior_bit_flip_stops_replay_as_corrupt() {
        let (_, ops) = scripted_ops();
        let mut log = encode_batch(&ops);
        let mid = log.len() / 2;
        log[mid] ^= 0x10;
        let mut db = Database::new();
        let outcome = replay_into(&mut db, &log).unwrap();
        assert_eq!(outcome.tail, TailState::Corrupt);
        assert!(outcome.replayed < ops.len());
    }

    #[test]
    fn wal_file_names_sort_by_epoch() {
        assert!(wal_file(2) < wal_file(10), "zero-padded names must sort numerically");
    }
}
