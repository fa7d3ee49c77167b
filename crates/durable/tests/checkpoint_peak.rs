//! Peak memory of a checkpoint.
//!
//! A checkpoint encodes the snapshot straight into the framed blob it
//! writes, so at its peak it holds that one buffer plus the storage's
//! own copy: about twice the blob. Encoding the snapshot and then
//! copying it into a payload and again into a frame peaked at four
//! times. A later checkpoint also replaces the blob on the disk, which
//! drops the old blob before it copies in the new one, so a second
//! checkpoint of the same database peaks no higher than the first.
//! This file holds one test so that it runs in a process of its own:
//! `VmHWM` is the whole process's high-water mark.

use sor_durable::wal::CHECKPOINT_FILE;
use sor_durable::{DurableDatabase, DurableOptions, SimDisk};
use sor_obs::Recorder;
use sor_store::{ColumnType, Schema, Value};

/// The process's peak resident set size so far, in bytes.
fn vm_hwm() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn checkpoint_peak_is_about_twice_the_blob() {
    if vm_hwm().is_none() {
        eprintln!("skipped: no VmHWM in /proc/self/status on this platform");
        return;
    }
    let disk = SimDisk::new(1);
    let (mut ddb, _) = DurableDatabase::open(
        Box::new(disk.clone()),
        DurableOptions::default(),
        Recorder::default(),
        0.0,
    )
    .unwrap();
    ddb.db_mut()
        .create_table(
            Schema::new("blobs").column("id", ColumnType::Int).column("body", ColumnType::Bytes),
        )
        .unwrap();
    ddb.commit().unwrap();
    // Rows go in past the change log, which would hold a second copy of
    // each; the checkpoint snapshots them all the same.
    let table = ddb.db_mut().table_mut("blobs").unwrap();
    for i in 0..50_000 {
        table.insert(vec![Value::Int(i), Value::Bytes(vec![(i % 251) as u8; 400])]).unwrap();
    }

    // The rise of the peak over one checkpoint, as a multiple of the blob.
    let checkpoint_rise = |ddb: &mut DurableDatabase| {
        let before = vm_hwm().unwrap();
        ddb.checkpoint().unwrap();
        let rise = vm_hwm().unwrap().saturating_sub(before);
        let blob = disk.durable_len(CHECKPOINT_FILE);
        eprintln!("{blob} B checkpoint: VmHWM rose {rise} B");
        rise as f64 / blob as f64
    };
    let first = checkpoint_rise(&mut ddb);
    assert!(first <= 2.5, "the first checkpoint raised the peak by {first:.2}x its blob");
    let second = checkpoint_rise(&mut ddb);
    assert!(second <= 0.5, "the second checkpoint raised the peak by {second:.2}x its blob");
}
