//! Property test: what a commit appends to the write-ahead log is
//! exactly [`encode_batch`] of the ops it commits, and nothing else.
//!
//! The change log captures every facade mutation already framed, so a
//! commit appends its buffer as it stands. Random DDL, inserts of every
//! `Value` kind (empty and multi-KB `Bytes` included), deletes, drops,
//! failed mutations, commits and checkpoints run against the durable
//! facade while the test builds the expected `LogOp`s by hand.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sor_durable::wal::encode_batch;
use sor_durable::{DurableDatabase, DurableError, DurableOptions, SimDisk, Storage};
use sor_obs::Recorder;
use sor_store::{ColumnType, LogOp, Predicate, Schema, Value};

const TABLES: [&str; 3] = ["a", "b", "c"];

/// A simulated disk that also keeps a copy of every append.
#[derive(Debug)]
struct Tap {
    disk: SimDisk,
    appends: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Storage for Tap {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        self.disk.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.appends.lock().unwrap().push(bytes.to_vec());
        self.disk.append(name, bytes)
    }

    fn flush(&mut self, name: &str) -> Result<(), DurableError> {
        self.disk.flush(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        self.disk.write_atomic(name, bytes)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), DurableError> {
        self.disk.truncate(name, len)
    }

    fn remove(&mut self, name: &str) -> Result<(), DurableError> {
        self.disk.remove(name)
    }
}

fn schema(name: &str) -> Schema {
    Schema::new(name)
        .column("k", ColumnType::Int)
        .column("x", ColumnType::Float)
        .nullable_column("s", ColumnType::Text)
        .column("body", ColumnType::Bytes)
        .column("flag", ColumnType::Bool)
}

/// A row of every value kind, shaped by `seed`: a key in 0..4 so that
/// deletes hit, any float bit pattern, null or text, and a body of 0,
/// 1, 200, 3000 or 9000 bytes.
fn row(seed: u64) -> Vec<Value> {
    let body_len = [0, 1, 200, 3000, 9000][(seed % 5) as usize];
    vec![
        Value::Int(((seed >> 8) % 4) as i64),
        Value::Float(f64::from_bits(seed.rotate_left(17))),
        if seed & 0x400 == 0 {
            Value::Null
        } else {
            Value::text("é".repeat(((seed >> 11) % 40) as usize))
        },
        Value::Bytes((0..body_len).map(|i| (i as u64 ^ seed) as u8).collect()),
        Value::Bool(seed & 0x10000 != 0),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn each_commit_appends_the_reference_batch_of_its_own_ops(
        steps in proptest::collection::vec((0u8..9, any::<u64>()), 1..80),
        checkpoint_every in 3u64..40,
    ) {
        let disk = SimDisk::new(7);
        let appends = Arc::new(Mutex::new(Vec::new()));
        let tap = Tap { disk: disk.clone(), appends: appends.clone() };
        let opts = DurableOptions { checkpoint_every_ops: checkpoint_every };
        let (mut ddb, _) =
            DurableDatabase::open(Box::new(tap), opts, Recorder::default(), 0.0).unwrap();
        let mut expected: Vec<LogOp> = Vec::new();
        for (kind, seed) in steps {
            let table = TABLES[(seed % 3) as usize];
            let exists = ddb.db().table(table).is_ok();
            let db = ddb.db_mut();
            match kind {
                0 => match db.create_table(schema(table)) {
                    Ok(()) => expected.push(LogOp::CreateTable(schema(table))),
                    Err(_) => prop_assert!(exists, "only a duplicate table fails"),
                },
                1 => {
                    if db.create_index(table, "k").is_ok() {
                        let (table, column) = (table.to_string(), "k".to_string());
                        expected.push(LogOp::CreateIndex { table, column });
                    }
                }
                2..=4 => {
                    let values = row(seed);
                    match db.insert(table, values.clone()) {
                        Ok(id) => expected.push(LogOp::Insert {
                            table: table.to_string(),
                            row_id: id.0,
                            values,
                        }),
                        Err(_) => prop_assert!(!exists, "only a missing table fails"),
                    }
                }
                5 => {
                    let pred = Predicate::eq("k", Value::Int(((seed >> 8) % 4) as i64));
                    let doomed: Vec<u64> = match db.table(table) {
                        Ok(t) => t.scan(&pred).unwrap().iter().map(|r| r.id.0).collect(),
                        Err(_) => Vec::new(),
                    };
                    let gone = db.delete_where(table, &pred).unwrap_or(0);
                    prop_assert_eq!(gone, doomed.len());
                    if gone > 0 {
                        expected.push(LogOp::Delete { table: table.to_string(), row_ids: doomed });
                    }
                }
                6 => {
                    if db.drop_table(table) {
                        expected.push(LogOp::DropTable(table.to_string()));
                    }
                }
                7 => {
                    // Uncommitted ops are part of the snapshot, not the log.
                    ddb.checkpoint().unwrap();
                    expected.clear();
                }
                _ => {
                    let before = appends.lock().unwrap().len();
                    ddb.commit().unwrap();
                    let appends = appends.lock().unwrap();
                    if expected.is_empty() {
                        prop_assert_eq!(appends.len(), before, "an empty commit appends nothing");
                    } else {
                        prop_assert_eq!(appends.len(), before + 1, "one append per commit");
                        prop_assert!(appends[before] == encode_batch(&expected));
                    }
                    expected.clear();
                }
            }
            prop_assert_eq!(ddb.pending_ops(), expected.len());
        }
        ddb.commit().unwrap();
        let live = ddb.db().snapshot();
        drop(ddb);
        disk.crash();
        let (recovered, _) =
            DurableDatabase::open(Box::new(disk), opts, Recorder::default(), 0.0).unwrap();
        prop_assert!(recovered.db().snapshot() == live, "recovery reproduces the live database");
    }
}
