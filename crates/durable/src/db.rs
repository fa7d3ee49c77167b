//! The durable database wrapper and crash recovery.

use sor_obs::Recorder;
use sor_proto::frame::{decode_frame, encode_frame_in_place};
use sor_proto::varint::MAX_VARINT_LEN;
use sor_proto::wire::{Reader, Writer};
use sor_store::{ChangeLog, Database};

use crate::storage::Storage;
use crate::wal::{encode_batch, replay_into, wal_file, TailState, CHECKPOINT_FILE};
use crate::DurableError;

/// Tuning knobs for the durability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Write a checkpoint (and retire the log) after this many logged
    /// ops, bounding both log growth and replay time.
    pub checkpoint_every_ops: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { checkpoint_every_ops: 4096 }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Whether a checkpoint existed.
    pub had_checkpoint: bool,
    /// Size of the checkpoint blob (0 without one).
    pub checkpoint_bytes: usize,
    /// Checkpoint epoch recovered into.
    pub epoch: u64,
    /// Log records replayed on top of the checkpoint.
    pub replayed_records: usize,
    /// Bytes cut off the log tail (0 on a clean shutdown).
    pub truncated_bytes: usize,
    /// How the log ended.
    pub tail: TailState,
}

impl RecoveryReport {
    /// One deterministic line for logs and smoke tests.
    pub fn summary(&self) -> String {
        format!(
            "recovery: checkpoint={} ({} B, epoch {}), replayed {} records, tail {} ({} B truncated)",
            if self.had_checkpoint { "yes" } else { "no" },
            self.checkpoint_bytes,
            self.epoch,
            self.replayed_records,
            self.tail,
            self.truncated_bytes,
        )
    }
}

/// A [`Database`] whose committed state survives crashes.
///
/// Mutations go through the inner database's facade (which captures
/// them as logical ops); [`DurableDatabase::commit`] is the durability
/// point — it appends the captured ops to the write-ahead log *before*
/// the caller acknowledges anything to a client. Construction is
/// either [`DurableDatabase::ephemeral`] (no logging, zero overhead —
/// the default for simulations that don't crash servers) or
/// [`DurableDatabase::open`], which recovers whatever the storage
/// holds.
#[derive(Debug)]
pub struct DurableDatabase {
    db: Database,
    changelog: ChangeLog,
    storage: Option<Box<dyn Storage>>,
    opts: DurableOptions,
    epoch: u64,
    ops_since_checkpoint: u64,
    /// Size of the checkpoint blob last written or recovered (0 before
    /// the first): the next checkpoint's buffer is sized from it.
    checkpoint_len: usize,
    recorder: Recorder,
}

impl Default for DurableDatabase {
    fn default() -> Self {
        DurableDatabase::ephemeral()
    }
}

impl DurableDatabase {
    /// A database with durability disabled: no change capture, no log,
    /// [`DurableDatabase::commit`] is free. Behaviourally identical to
    /// a bare [`Database`].
    pub fn ephemeral() -> Self {
        DurableDatabase {
            db: Database::new(),
            changelog: ChangeLog::disabled(),
            storage: None,
            opts: DurableOptions::default(),
            epoch: 0,
            ops_since_checkpoint: 0,
            checkpoint_len: 0,
            recorder: Recorder::default(),
        }
    }

    /// Opens (or creates) a durable database on a storage backend,
    /// running crash recovery: restore the latest checkpoint, replay
    /// the valid log suffix, truncate the torn/corrupt tail. `now` is
    /// the sim-clock instant for the recovery trace span.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend,
    /// [`DurableError::CorruptCheckpoint`] if the checkpoint cannot be
    /// trusted, [`DurableError::Store`] if the log does not fit the
    /// checkpoint.
    pub fn open(
        mut storage: Box<dyn Storage>,
        opts: DurableOptions,
        recorder: Recorder,
        now: f64,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let wall = std::time::Instant::now();
        let span = recorder.span_start("durable.recovery", now);

        let corrupt = |d: String| DurableError::CorruptCheckpoint(d);
        let (mut db, epoch, had_checkpoint, checkpoint_bytes) =
            match storage.read(CHECKPOINT_FILE)? {
                Some(bytes) => {
                    let (payload, consumed) =
                        decode_frame(&bytes).map_err(|e| corrupt(e.to_string()))?;
                    if consumed != bytes.len() {
                        return Err(corrupt("trailing bytes after checkpoint".to_string()));
                    }
                    let mut r = Reader::new(payload);
                    let epoch = r.get_uvar().map_err(|e| corrupt(e.to_string()))?;
                    let snapshot = r.get_bytes().map_err(|e| corrupt(e.to_string()))?;
                    if r.remaining() != 0 {
                        return Err(corrupt("trailing bytes after snapshot".to_string()));
                    }
                    let db = Database::restore(snapshot).map_err(|e| corrupt(e.to_string()))?;
                    (db, epoch, true, bytes.len())
                }
                None => (Database::new(), 0, false, 0),
            };

        let log = storage.read(&wal_file(epoch))?.unwrap_or_default();
        let outcome = replay_into(&mut db, &log)?;
        let truncated = log.len() - outcome.valid_len;
        if truncated > 0 {
            storage.truncate(&wal_file(epoch), outcome.valid_len as u64)?;
        }
        if epoch > 0 {
            // A crash between "write checkpoint" and "retire old log"
            // leaves the previous epoch's log behind; clean it up now.
            storage.remove(&wal_file(epoch - 1))?;
        }

        recorder.count("durable.recoveries_run", 1);
        recorder.count("durable.recovery_replayed_records", outcome.replayed as u64);
        recorder.count("durable.recovery_truncated_bytes", truncated as u64);
        if outcome.tail == TailState::Torn {
            recorder.count("durable.recovery_torn_tails", 1);
        }
        if outcome.tail == TailState::Corrupt {
            recorder.count("durable.recovery_corrupt_records", 1);
        }
        recorder.observe("durable.recovery_ms", wall.elapsed().as_secs_f64() * 1e3);
        recorder.span_attr(span, "replayed", &outcome.replayed.to_string());
        recorder.span_attr(span, "tail", &outcome.tail.to_string());
        recorder.span_end(span, now);

        let report = RecoveryReport {
            had_checkpoint,
            checkpoint_bytes,
            epoch,
            replayed_records: outcome.replayed,
            truncated_bytes: truncated,
            tail: outcome.tail,
        };
        let changelog = ChangeLog::enabled();
        db.set_changelog(changelog.clone());
        let this = DurableDatabase {
            db,
            changelog,
            storage: Some(storage),
            opts,
            epoch,
            // Count the replayed log toward the next checkpoint so a
            // crash loop cannot grow the log without bound.
            ops_since_checkpoint: report.replayed_records as u64,
            checkpoint_len: report.checkpoint_bytes,
            recorder,
        };
        Ok((this, report))
    }

    /// Whether commits are actually being logged.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// The wrapped database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the wrapped database. Mutations made through
    /// the database *facade* are captured for the log; direct
    /// [`Database::table_mut`] writes bypass durability — durable
    /// deployments must stay on the facade.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Ops captured but not yet committed to the log.
    pub fn pending_ops(&self) -> usize {
        self.changelog.pending()
    }

    /// The durability point: appends every captured op to the log and
    /// flushes it. Call after each atomic unit of server work, *before*
    /// acknowledging it. No-op when ephemeral.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend.
    pub fn commit(&mut self) -> Result<(), DurableError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        let ops = self.changelog.drain();
        if ops.is_empty() {
            return Ok(());
        }
        let batch = encode_batch(&ops);
        storage.append(&wal_file(self.epoch), &batch)?;
        storage.flush(&wal_file(self.epoch))?;
        self.recorder.count("durable.wal_flushes", 1);
        self.recorder.count("durable.commits_applied", 1);
        self.recorder.count("durable.wal_appends", ops.len() as u64);
        self.recorder.count("durable.wal_bytes", batch.len() as u64);
        self.ops_since_checkpoint += ops.len() as u64;
        if self.ops_since_checkpoint >= self.opts.checkpoint_every_ops {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a checkpoint and retires the log: snapshot the database,
    /// atomically replace the checkpoint blob (which names a fresh log
    /// epoch), then delete the old log. Crash-safe at every step — see
    /// [`crate::wal::wal_file`]. No-op when ephemeral.
    ///
    /// # Errors
    ///
    /// [`DurableError::Io`] from the backend.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        let Some(storage) = &mut self.storage else {
            return Ok(());
        };
        // Anything captured but uncommitted is part of the snapshot.
        self.changelog.drain();
        let new_epoch = self.epoch + 1;
        let (buf, start, snapshot_len) =
            encode_checkpoint(&self.db, new_epoch, self.checkpoint_len);
        storage.write_atomic(CHECKPOINT_FILE, &buf[start..])?;
        storage.remove(&wal_file(self.epoch))?;
        self.checkpoint_len = buf.len() - start;
        self.epoch = new_epoch;
        self.ops_since_checkpoint = 0;
        self.recorder.count("durable.checkpoints_taken", 1);
        self.recorder.gauge("durable.checkpoint_bytes", snapshot_len as f64);
        Ok(())
    }
}

/// Room in front of the snapshot for the frame's length header, the
/// epoch varint and the snapshot-length varint, each at its widest.
const CHECKPOINT_ROOM: usize = 4 + 2 * MAX_VARINT_LEN;

/// Encodes the checkpoint blob `[u32 len][uvar epoch][uvar snapshot
/// len][snapshot][u32 CRC]` in one buffer: the snapshot is encoded
/// behind [`CHECKPOINT_ROOM`] reserved bytes, the header is written
/// right up against it, and the CRC is appended, so the snapshot is
/// never copied on its way to the storage. `size_hint` is the previous
/// blob's size; the buffer reserves a quarter more for growth. Returns
/// the buffer, the offset the blob starts at, and the snapshot's length.
fn encode_checkpoint(db: &Database, epoch: u64, size_hint: usize) -> (Vec<u8>, usize, usize) {
    let mut w = Writer::with_capacity(CHECKPOINT_ROOM + size_hint + size_hint / 4);
    w.put_raw(&[0; CHECKPOINT_ROOM]);
    db.snapshot_into(&mut w);
    let snapshot_len = w.len() - CHECKPOINT_ROOM;
    let mut head = Writer::with_capacity(2 * MAX_VARINT_LEN);
    head.put_uvar(epoch);
    head.put_uvar(snapshot_len as u64);
    let payload_start = CHECKPOINT_ROOM - head.len();
    let mut buf = w.into_bytes();
    buf[payload_start..CHECKPOINT_ROOM].copy_from_slice(head.as_slice());
    let start = encode_frame_in_place(&mut buf, payload_start);
    (buf, start, snapshot_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::SimDisk;
    use sor_proto::frame::encode_frame;
    use sor_store::{ColumnType, Predicate, Schema, Value};

    fn open_sim(disk: &SimDisk, opts: DurableOptions) -> (DurableDatabase, RecoveryReport) {
        DurableDatabase::open(Box::new(disk.clone()), opts, Recorder::default(), 0.0).unwrap()
    }

    fn seed_rows(ddb: &mut DurableDatabase, n: i64) {
        ddb.db_mut().create_table(Schema::new("t").column("n", ColumnType::Int)).unwrap();
        ddb.db_mut().create_index("t", "n").unwrap();
        ddb.commit().unwrap();
        for i in 0..n {
            ddb.db_mut().insert("t", vec![Value::Int(i)]).unwrap();
            ddb.commit().unwrap();
        }
    }

    fn count(ddb: &DurableDatabase) -> usize {
        ddb.db().scan("t", &Predicate::True).unwrap().len()
    }

    #[test]
    fn ephemeral_commit_is_a_noop() {
        let mut ddb = DurableDatabase::ephemeral();
        assert!(!ddb.is_durable());
        ddb.db_mut().create_table(Schema::new("t").column("n", ColumnType::Int)).unwrap();
        ddb.commit().unwrap();
        ddb.checkpoint().unwrap();
        assert_eq!(ddb.pending_ops(), 0);
    }

    #[test]
    fn committed_work_survives_a_crash() {
        let disk = SimDisk::new(11);
        let (mut ddb, report) = open_sim(&disk, DurableOptions::default());
        assert!(!report.had_checkpoint);
        seed_rows(&mut ddb, 10);
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert_eq!(count(&ddb), 10, "every committed insert survives");
        assert_eq!(report.replayed_records, 12); // DDL + index + 10 inserts
        assert!(ddb.db().table("t").unwrap().has_index("n"));
    }

    #[test]
    fn uncommitted_work_does_not_survive() {
        let disk = SimDisk::new(13);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 5);
        // Captured but never committed: lost on crash, by design.
        ddb.db_mut().insert("t", vec![Value::Int(99)]).unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, _) = open_sim(&disk, DurableOptions::default());
        assert_eq!(count(&ddb), 5);
    }

    #[test]
    fn recovery_is_a_committed_prefix_after_an_unflushed_append() {
        // A crash mid-append leaves a batch on the disk unflushed; the
        // disk keeps some noise-chosen prefix of it. What recovers must
        // be an exact prefix of the commits, and a torn tail must never
        // read as corruption.
        for seed in 0..40 {
            let disk = SimDisk::new(seed);
            let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
            seed_rows(&mut ddb, 17);
            for n in 17..21 {
                ddb.db_mut().insert("t", vec![Value::Int(n)]).unwrap();
            }
            // `commit` without its flush.
            let batch = encode_batch(&ddb.changelog.drain());
            disk.clone().append(&wal_file(ddb.epoch), &batch).unwrap();
            drop(ddb);
            disk.crash();
            let (ddb, report) = open_sim(&disk, DurableOptions::default());
            let rows = ddb.db().scan("t", &Predicate::True).unwrap();
            let got: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
            let expect: Vec<i64> = (0..got.len() as i64).collect();
            assert_eq!(got, expect, "seed {seed}: recovered rows are a prefix");
            assert!(got.len() >= 17, "seed {seed}: flushed commits survive");
            assert!(
                report.tail != TailState::Corrupt,
                "seed {seed}: a torn write must never read as corruption"
            );
        }
    }

    #[test]
    fn checkpoint_retires_the_log_and_recovery_uses_it() {
        let disk = SimDisk::new(17);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 8);
        ddb.checkpoint().unwrap();
        // Post-checkpoint commits land in the new epoch's log.
        ddb.db_mut().insert("t", vec![Value::Int(100)]).unwrap();
        ddb.commit().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert!(report.had_checkpoint);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.replayed_records, 1, "only the post-checkpoint insert replays");
        assert_eq!(count(&ddb), 9);
        assert!(ddb.db().table("t").unwrap().has_index("n"), "index restored from checkpoint");
    }

    #[test]
    fn automatic_checkpoint_bounds_log_replay() {
        let disk = SimDisk::new(19);
        let opts = DurableOptions { checkpoint_every_ops: 10 };
        let (mut ddb, _) = open_sim(&disk, opts);
        seed_rows(&mut ddb, 50);
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, opts);
        assert!(report.had_checkpoint);
        assert!(report.replayed_records < 12, "replay bounded by checkpoints");
        assert_eq!(count(&ddb), 50);
    }

    #[test]
    fn bit_rot_in_the_log_is_detected_not_replayed() {
        let disk = SimDisk::new(23).with_bit_rot(1.0);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 30);
        drop(ddb);
        disk.crash();
        match DurableDatabase::open(
            Box::new(disk.clone()),
            DurableOptions::default(),
            Recorder::default(),
            0.0,
        ) {
            Ok((ddb, report)) => {
                // The flip landed in the log: replay stops before it.
                assert_eq!(report.tail, TailState::Corrupt);
                let rows = ddb.db().scan("t", &Predicate::True).unwrap();
                let got: Vec<i64> = rows.iter().map(|r| r.values[0].as_int().unwrap()).collect();
                let expect: Vec<i64> = (0..got.len() as i64).collect();
                assert_eq!(got, expect, "state after corruption is still a committed prefix");
            }
            Err(DurableError::CorruptCheckpoint(_)) => {
                // The flip landed in the checkpoint: surfaced, not hidden.
            }
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    }

    #[test]
    fn double_crash_and_recover_is_stable() {
        let disk = SimDisk::new(29);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 6);
        drop(ddb);
        disk.crash();
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        ddb.db_mut().insert("t", vec![Value::Int(6)]).unwrap();
        ddb.commit().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, _) = open_sim(&disk, DurableOptions::default());
        assert_eq!(count(&ddb), 7);
        // Recovered inserts continue the id sequence without reuse.
        let rows = ddb.db().scan("t", &Predicate::True).unwrap();
        let ids: Vec<u64> = rows.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn checkpoint_is_the_epoch_and_snapshot_only() {
        let disk = SimDisk::new(41);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 2);
        ddb.checkpoint().unwrap();
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert!(report.had_checkpoint);
        assert_eq!(count(&ddb), 2);
        drop(ddb);
        // Re-frame the checkpoint with one more length-prefixed field
        // after the snapshot, CRC and all: recovery must refuse it.
        let mut storage = disk.clone();
        let framed = storage.read(CHECKPOINT_FILE).unwrap().unwrap();
        let (payload, _) = decode_frame(&framed).unwrap();
        let mut w = Writer::new();
        w.put_raw(payload);
        w.put_bytes(b"extra field");
        storage.write_atomic(CHECKPOINT_FILE, &encode_frame(w.as_slice())).unwrap();
        match DurableDatabase::open(
            Box::new(disk.clone()),
            DurableOptions::default(),
            Recorder::default(),
            0.0,
        ) {
            Err(DurableError::CorruptCheckpoint(detail)) => {
                assert!(detail.contains("trailing bytes"), "{detail}")
            }
            other => panic!("expected CorruptCheckpoint, got {:?}", other.map(|(_, r)| r)),
        }
    }

    /// The checkpoint blob framed the plain way: a payload of the epoch
    /// and the length-prefixed snapshot, copied into a frame.
    fn reference_checkpoint(db: &Database, epoch: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_uvar(epoch);
        w.put_bytes(&db.snapshot());
        encode_frame(w.as_slice())
    }

    #[test]
    fn checkpoint_blob_is_the_reference_framing() {
        // Snapshots whose length varint takes 1 (no table), 2, 3 and 4
        // bytes, at epochs whose varint takes 1, 1, 2 and 10 bytes.
        for (blob_len, varint_len) in
            [(None, 1), (Some(200), 2), (Some(20_000), 3), (Some(1 << 21), 4)]
        {
            let mut db = Database::new();
            if let Some(n) = blob_len {
                db.create_table(Schema::new("b").column("body", ColumnType::Bytes)).unwrap();
                db.insert("b", vec![Value::Bytes(vec![7; n])]).unwrap();
            }
            let snapshot_len = db.snapshot().len();
            let mut w = Writer::new();
            w.put_uvar(snapshot_len as u64);
            assert_eq!(w.len(), varint_len, "snapshot of {snapshot_len} bytes");
            for epoch in [1, 127, 128, u64::MAX] {
                let reference = reference_checkpoint(&db, epoch);
                // No size hint (the first checkpoint), an exact one, and
                // one far too large.
                for hint in [0, reference.len(), 3 * reference.len()] {
                    let (buf, start, len) = encode_checkpoint(&db, epoch, hint);
                    assert!(buf[start..] == reference[..], "epoch {epoch}, hint {hint}");
                    assert_eq!(len, snapshot_len);
                }
            }
        }
    }

    #[test]
    fn crash_after_a_one_buffer_checkpoint_recovers_the_same_database() {
        let disk = SimDisk::new(43);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 300);
        ddb.checkpoint().unwrap();
        // The second buffer is sized from the first checkpoint, the third
        // from the recovered one.
        for n in 300..420 {
            ddb.db_mut().insert("t", vec![Value::Int(n)]).unwrap();
            ddb.commit().unwrap();
        }
        ddb.checkpoint().unwrap();
        let blob = disk.clone().read(CHECKPOINT_FILE).unwrap().unwrap();
        assert_eq!(blob, reference_checkpoint(ddb.db(), 2));
        let before = ddb.db().snapshot();
        drop(ddb);
        disk.crash();
        let (mut ddb, report) = open_sim(&disk, DurableOptions::default());
        assert_eq!((report.epoch, report.replayed_records), (2, 0));
        assert_eq!(ddb.db().snapshot(), before, "recovered bit for bit");
        ddb.db_mut().delete_where("t", &Predicate::eq("n", Value::Int(7))).unwrap();
        ddb.checkpoint().unwrap();
        let before = ddb.db().snapshot();
        drop(ddb);
        disk.crash();
        let (ddb, report) = open_sim(&disk, DurableOptions::default());
        assert_eq!((report.epoch, report.replayed_records), (3, 0));
        assert_eq!(ddb.db().snapshot(), before, "recovered bit for bit");
    }

    #[test]
    fn recovery_report_summary_is_deterministic() {
        let disk = SimDisk::new(31);
        let (mut ddb, _) = open_sim(&disk, DurableOptions::default());
        seed_rows(&mut ddb, 2);
        drop(ddb);
        let (_, report) = open_sim(&disk, DurableOptions::default());
        assert_eq!(
            report.summary(),
            "recovery: checkpoint=no (0 B, epoch 0), replayed 4 records, tail clean (0 B truncated)"
        );
    }
}
