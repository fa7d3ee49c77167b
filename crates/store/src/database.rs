//! The multi-table database facade plus binary snapshots.

use std::collections::BTreeMap;

use sor_obs::Recorder;
use sor_proto::checksum::crc32;
use sor_proto::wire::{Reader, Writer};

use crate::changelog::{ChangeLog, LogOp};
use crate::predicate::Predicate;
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Row, RowId, Table};
use crate::value::Value;
use crate::StoreError;

/// Snapshot format version. v2 persists index definitions, row ids and
/// each table's id counter (so restore is exact, not approximate) and
/// ends with a CRC-32 trailer over everything before it (so *any* byte
/// flip is rejected instead of silently decoding into wrong data).
const SNAPSHOT_VERSION: u8 = 2;

/// A named collection of tables — the sensing server's "PostgreSQL".
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    recorder: Recorder,
    changelog: ChangeLog,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Attaches an observability recorder. Row traffic through the
    /// facade is counted per table (`store.rows_inserted.<table>`,
    /// `store.rows_scanned.<table>`, `store.rows_deleted.<table>`);
    /// the default recorder is disabled and costs one branch per op.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Attaches a change log. Every mutation that goes through this
    /// facade is captured as a framed [`LogOp`] record; the durability
    /// layer drains the buffer at commit points and appends it to its
    /// write-ahead log. The default handle is disabled (one branch per
    /// mutation).
    ///
    /// Mutations through [`Database::table_mut`] bypass capture — a
    /// durable deployment must mutate through the facade only.
    pub fn set_changelog(&mut self, changelog: ChangeLog) {
        self.changelog = changelog;
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`StoreError::DuplicateTable`] if the name is taken.
    pub fn create_table(&mut self, schema: Schema) -> Result<(), StoreError> {
        let name = schema.name().to_string();
        if self.tables.contains_key(&name) {
            return Err(StoreError::DuplicateTable(name));
        }
        self.changelog.create_table(&schema);
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Drops a table. Returns whether it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        let existed = self.tables.remove(name).is_some();
        if existed {
            self.changelog.drop_table(name);
        }
        existed
    }

    /// Creates a hash index on `table.column` — the facade twin of
    /// [`Table::create_index`], so the mutation is captured by the
    /// change log (and therefore survives crash recovery).
    ///
    /// # Errors
    ///
    /// Unknown table/column, unindexable type, duplicate index.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), StoreError> {
        self.table_mut(table)?.create_index(column)?;
        self.changelog.create_index(table, column);
        Ok(())
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Borrows a table.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownTable`].
    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables.get(name).ok_or_else(|| StoreError::UnknownTable(name.to_string()))
    }

    /// Mutably borrows a table.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownTable`].
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables.get_mut(name).ok_or_else(|| StoreError::UnknownTable(name.to_string()))
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// Unknown table or schema mismatch.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> Result<RowId, StoreError> {
        let t = self.tables.get_mut(table).ok_or_else(|| StoreError::UnknownTable(table.into()))?;
        let id = t.insert(values)?;
        if self.changelog.is_enabled() {
            // Logged from the row as stored: the values are not copied.
            self.changelog.insert(table, id, t.row_values(id).expect("row just stored"));
        }
        self.recorder.count_labeled("store.rows_inserted", table, 1);
        Ok(id)
    }

    /// Scans a table.
    ///
    /// # Errors
    ///
    /// Unknown table/column.
    pub fn scan(&self, table: &str, pred: &Predicate) -> Result<Vec<Row>, StoreError> {
        let (rows, used_index) = self.table(table)?.scan_indexed(pred)?;
        self.recorder.count_labeled("store.rows_scanned", table, rows.len() as u64);
        self.recorder.count_labeled("store.scans_run", table, 1);
        if used_index {
            self.recorder.count_labeled("store.scans_indexed", table, 1);
        }
        Ok(rows)
    }

    /// Deletes matching rows, returning the count.
    ///
    /// # Errors
    ///
    /// Unknown table/column.
    pub fn delete_where(&mut self, table: &str, pred: &Predicate) -> Result<usize, StoreError> {
        let gone = self.table_mut(table)?.delete_where(pred)?;
        let n = gone.len();
        if n > 0 {
            self.changelog.delete(table, &gone);
        }
        self.recorder.count_labeled("store.rows_deleted", table, n as u64);
        Ok(n)
    }

    /// Replays one logical op, exactly as originally applied (inserts
    /// land under their recorded row ids). Never captured by the change
    /// log — this *is* the log being consumed.
    ///
    /// # Errors
    ///
    /// Storage errors if the op does not fit the current state (a log
    /// replayed against the wrong checkpoint).
    pub fn apply_op(&mut self, op: &LogOp) -> Result<(), StoreError> {
        match op {
            LogOp::CreateTable(schema) => {
                let name = schema.name().to_string();
                if self.tables.contains_key(&name) {
                    return Err(StoreError::DuplicateTable(name));
                }
                self.tables.insert(name, Table::new(schema.clone()));
                Ok(())
            }
            LogOp::DropTable(name) => {
                self.tables.remove(name);
                Ok(())
            }
            LogOp::CreateIndex { table, column } => self.table_mut(table)?.create_index(column),
            LogOp::Insert { table, row_id, values } => {
                self.table_mut(table)?.insert_at(RowId(*row_id), values.clone())
            }
            LogOp::Delete { table, row_ids } => {
                let ids: Vec<RowId> = row_ids.iter().map(|&id| RowId(id)).collect();
                self.table_mut(table)?.delete_ids(&ids);
                Ok(())
            }
        }
    }

    /// Serialises every table — schema, index definitions, rows *with
    /// their ids*, and the id counter — into a self-contained binary
    /// snapshot ending in a CRC-32 trailer. [`Database::restore`] is an
    /// exact inverse: indexes are rebuilt, ids preserved.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.snapshot_into(&mut w);
        w.into_bytes()
    }

    /// Appends [`Database::snapshot`]'s bytes to `w`, after whatever it
    /// already holds; the CRC trailer covers only the snapshot. The
    /// durability layer encodes a checkpoint this way, straight into
    /// the buffer it frames and writes.
    pub fn snapshot_into(&self, w: &mut Writer) {
        let start = w.len();
        w.put_raw(b"SORD");
        w.put_u8(SNAPSHOT_VERSION);
        w.put_uvar(self.tables.len() as u64);
        for (name, table) in &self.tables {
            w.put_str(name);
            let schema = table.schema();
            w.put_uvar(schema.columns().len() as u64);
            for c in schema.columns() {
                w.put_str(&c.name);
                w.put_u8(c.ty.wire_tag());
                w.put_u8(c.nullable as u8);
            }
            let indexes = table.indexed_columns();
            w.put_uvar(indexes.len() as u64);
            for col in &indexes {
                w.put_str(col);
            }
            w.put_uvar(table.next_row_id());
            w.put_uvar(table.len() as u64);
            for (id, values) in table.iter() {
                w.put_uvar(id.0);
                for v in values {
                    v.encode_into(w);
                }
            }
        }
        let crc = crc32(&w.as_slice()[start..]);
        w.put_u32(crc);
    }

    /// Restores a database from a snapshot.
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptSnapshot`] on any structural problem or a
    /// checksum mismatch — a flipped byte anywhere in the snapshot is
    /// rejected, never decoded into silently wrong data.
    pub fn restore(bytes: &[u8]) -> Result<Database, StoreError> {
        let corrupt = |d: &str| StoreError::CorruptSnapshot(d.to_string());
        if bytes.len() < 4 {
            return Err(corrupt("shorter than its checksum trailer"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(corrupt(&format!(
                "checksum mismatch: computed {computed:08x}, stored {stored:08x}"
            )));
        }
        let mut r = Reader::new(body);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = r.get_u8().map_err(|e| corrupt(&e.to_string()))?;
        }
        if &magic != b"SORD" {
            return Err(corrupt("bad magic"));
        }
        let version = r.get_u8().map_err(|e| corrupt(&e.to_string()))?;
        if version != SNAPSHOT_VERSION {
            return Err(corrupt(&format!("unsupported snapshot version {version}")));
        }
        let n_tables = r.get_uvar().map_err(|e| corrupt(&e.to_string()))? as usize;
        let mut db = Database::new();
        for _ in 0..n_tables {
            let name = r.get_str().map_err(|e| corrupt(&e.to_string()))?.to_string();
            let n_cols = r.get_uvar().map_err(|e| corrupt(&e.to_string()))? as usize;
            // Guard against hostile counts before allocating: every
            // column definition costs at least one byte.
            if n_cols > r.remaining() {
                return Err(corrupt(&format!(
                    "table {name} declares {n_cols} columns with {} bytes left",
                    r.remaining()
                )));
            }
            let mut schema = Schema::new(&name);
            let mut col_defs: Vec<Column> = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                let cname = r.get_str().map_err(|e| corrupt(&e.to_string()))?.to_string();
                let ty =
                    ColumnType::from_wire_tag(r.get_u8().map_err(|e| corrupt(&e.to_string()))?)
                        .ok_or_else(|| corrupt("bad column type tag"))?;
                let nullable = r.get_u8().map_err(|e| corrupt(&e.to_string()))? != 0;
                col_defs.push(Column { name: cname, ty, nullable });
            }
            for c in &col_defs {
                schema = if c.nullable {
                    schema.nullable_column(&c.name, c.ty)
                } else {
                    schema.column(&c.name, c.ty)
                };
            }
            db.create_table(schema).map_err(|e| corrupt(&e.to_string()))?;
            let n_indexes = r.get_uvar().map_err(|e| corrupt(&e.to_string()))? as usize;
            for _ in 0..n_indexes {
                let col = r.get_str().map_err(|e| corrupt(&e.to_string()))?.to_string();
                db.table_mut(&name)
                    .and_then(|t| t.create_index(&col))
                    .map_err(|e| corrupt(&e.to_string()))?;
            }
            let next_id = r.get_uvar().map_err(|e| corrupt(&e.to_string()))?;
            let n_rows = r.get_uvar().map_err(|e| corrupt(&e.to_string()))? as usize;
            for _ in 0..n_rows {
                let row_id = r.get_uvar().map_err(|e| corrupt(&e.to_string()))?;
                let mut values = Vec::with_capacity(n_cols);
                for _ in 0..n_cols {
                    values.push(Value::decode_from(&mut r).map_err(|e| corrupt(&e.to_string()))?);
                }
                db.table_mut(&name)
                    .and_then(|t| t.insert_at(RowId(row_id), values))
                    .map_err(|e| corrupt(&e.to_string()))?;
            }
            let table = db.table(&name).map_err(|e| corrupt(&e.to_string()))?;
            if table.next_row_id() > next_id {
                return Err(corrupt("row id above the recorded id counter"));
            }
            db.table_mut(&name).expect("just created").set_next_row_id(next_id);
        }
        if r.remaining() != 0 {
            return Err(corrupt("trailing bytes after snapshot"));
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changelog::decode_records;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::new("users")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .nullable_column("email", ColumnType::Text),
        )
        .unwrap();
        db.create_table(
            Schema::new("blobs")
                .column("id", ColumnType::Int)
                .column("body", ColumnType::Bytes)
                .column("flag", ColumnType::Bool)
                .column("score", ColumnType::Float),
        )
        .unwrap();
        db.insert("users", vec![Value::Int(1), Value::text("alice"), Value::Null]).unwrap();
        db.insert("users", vec![Value::Int(2), Value::text("bob"), Value::text("b@x.io")]).unwrap();
        db.insert(
            "blobs",
            vec![Value::Int(1), Value::Bytes(vec![1, 2, 3]), Value::Bool(true), Value::Float(0.5)],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_scan() {
        let db = sample_db();
        let rows = db.scan("users", &Predicate::eq("name", Value::text("bob"))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[2], Value::text("b@x.io"));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = sample_db();
        assert_eq!(
            db.create_table(Schema::new("users").column("x", ColumnType::Int)),
            Err(StoreError::DuplicateTable("users".to_string()))
        );
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new();
        assert!(matches!(db.scan("ghost", &Predicate::True), Err(StoreError::UnknownTable(_))));
    }

    #[test]
    fn drop_table() {
        let mut db = sample_db();
        assert!(db.drop_table("users"));
        assert!(!db.drop_table("users"));
        assert_eq!(db.table_names(), vec!["blobs"]);
    }

    #[test]
    fn snapshot_roundtrips() {
        let db = sample_db();
        let bytes = db.snapshot();
        let back = Database::restore(&bytes).unwrap();
        assert_eq!(back.table_names(), db.table_names());
        let rows_a = db.scan("users", &Predicate::True).unwrap();
        let rows_b = back.scan("users", &Predicate::True).unwrap();
        assert_eq!(rows_a, rows_b, "rows and their ids survive");
        let blob = back.scan("blobs", &Predicate::True).unwrap();
        assert_eq!(blob[0].values[1], Value::Bytes(vec![1, 2, 3]));
        assert_eq!(blob[0].values[3], Value::Float(0.5));
    }

    #[test]
    fn restore_rebuilds_indexes_and_id_counter() {
        let mut db = sample_db();
        db.create_index("users", "id").unwrap();
        db.create_index("users", "name").unwrap();
        // Mint and delete a row so next_id is ahead of the row count.
        db.insert("users", vec![Value::Int(9), Value::text("gone"), Value::Null]).unwrap();
        db.delete_where("users", &Predicate::eq("id", Value::Int(9))).unwrap();

        let back = Database::restore(&db.snapshot()).unwrap();
        let users = back.table("users").unwrap();
        assert!(users.has_index("id") && users.has_index("name"), "indexes rebuilt");
        assert_eq!(users.next_row_id(), db.table("users").unwrap().next_row_id());
        // The rebuilt index answers point lookups.
        let rows = back.scan("users", &Predicate::eq("id", Value::Int(2))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[1], Value::text("bob"));
        // New inserts continue the original id sequence.
        let mut back = back;
        let id =
            back.insert("users", vec![Value::Int(3), Value::text("cam"), Value::Null]).unwrap();
        assert_eq!(id, RowId(3), "ids not reused after restore");
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let db = sample_db();
        let mut bytes = db.snapshot();
        bytes[0] = b'X';
        assert!(matches!(Database::restore(&bytes), Err(StoreError::CorruptSnapshot(_))));
        // Truncations.
        for cut in [3, bytes.len() / 2] {
            assert!(Database::restore(&db.snapshot()[..cut]).is_err());
        }
        // Any single-byte flip anywhere is caught by the CRC trailer —
        // including flips inside row values that would otherwise decode
        // into silently wrong data.
        let clean = db.snapshot();
        for offset in 0..clean.len() {
            let mut flipped = clean.clone();
            flipped[offset] ^= 0x40;
            assert!(
                matches!(Database::restore(&flipped), Err(StoreError::CorruptSnapshot(_))),
                "flip at {offset} must be rejected"
            );
        }
    }

    #[test]
    fn huge_column_count_is_rejected_not_allocated() {
        // CRC-valid, so only the count guard stands between the declared
        // 2^40 columns and the allocator.
        let mut w = Writer::new();
        w.put_raw(b"SORD");
        w.put_u8(SNAPSHOT_VERSION);
        w.put_uvar(1);
        w.put_str("t");
        w.put_uvar(1 << 40);
        let crc = crc32(w.as_slice());
        w.put_u32(crc);
        assert!(matches!(Database::restore(w.as_slice()), Err(StoreError::CorruptSnapshot(_))));
    }

    /// Every `Value` variant, an index, and a deleted row, so the id
    /// counter runs ahead of the row count.
    fn golden_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            Schema::new("readings")
                .column("id", ColumnType::Int)
                .column("sensor", ColumnType::Text)
                .column("value", ColumnType::Float)
                .column("body", ColumnType::Bytes)
                .column("valid", ColumnType::Bool)
                .nullable_column("note", ColumnType::Text),
        )
        .unwrap();
        db.create_table(Schema::new("apps").column("app_id", ColumnType::Int)).unwrap();
        db.create_index("readings", "sensor").unwrap();
        let rows = [
            (-7, "gps", 47.25, vec![0, 1, 0xfe, 0xff], true, Value::Null),
            (300, "accel", -0.5, vec![], false, Value::text("gone")),
            (1 << 40, "gps", 1e-9, vec![7; 3], false, Value::text("kept")),
        ];
        for (id, sensor, value, body, valid, note) in rows {
            let values = vec![
                Value::Int(id),
                Value::text(sensor),
                Value::Float(value),
                Value::Bytes(body),
                Value::Bool(valid),
                note,
            ];
            db.insert("readings", values).unwrap();
        }
        db.delete_where("readings", &Predicate::eq("id", Value::Int(300))).unwrap();
        db
    }

    /// `golden_db()`'s snapshot as checked in. Checkpoints already on
    /// disk hold these bytes, so the encoder must keep writing them and
    /// restore must keep reading them.
    const GOLDEN_SNAPSHOT: &[u8] = &[
        0x53, 0x4f, 0x52, 0x44, 0x02, 0x02, 0x04, 0x61, 0x70, 0x70, 0x73, 0x01, 0x06, 0x61, 0x70,
        0x70, 0x5f, 0x69, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x72, 0x65, 0x61, 0x64, 0x69,
        0x6e, 0x67, 0x73, 0x06, 0x02, 0x69, 0x64, 0x00, 0x00, 0x06, 0x73, 0x65, 0x6e, 0x73, 0x6f,
        0x72, 0x02, 0x00, 0x05, 0x76, 0x61, 0x6c, 0x75, 0x65, 0x01, 0x00, 0x04, 0x62, 0x6f, 0x64,
        0x79, 0x03, 0x00, 0x05, 0x76, 0x61, 0x6c, 0x69, 0x64, 0x04, 0x00, 0x04, 0x6e, 0x6f, 0x74,
        0x65, 0x02, 0x01, 0x01, 0x06, 0x73, 0x65, 0x6e, 0x73, 0x6f, 0x72, 0x03, 0x02, 0x00, 0x01,
        0x0d, 0x03, 0x03, 0x67, 0x70, 0x73, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0x47, 0x40,
        0x04, 0x04, 0x00, 0x01, 0xfe, 0xff, 0x05, 0x01, 0x00, 0x02, 0x01, 0x80, 0x80, 0x80, 0x80,
        0x80, 0x40, 0x03, 0x03, 0x67, 0x70, 0x73, 0x02, 0x95, 0xd6, 0x26, 0xe8, 0x0b, 0x2e, 0x11,
        0x3e, 0x04, 0x03, 0x07, 0x07, 0x07, 0x05, 0x00, 0x03, 0x04, 0x6b, 0x65, 0x70, 0x74, 0xd5,
        0x34, 0x94, 0x1e,
    ];

    #[test]
    fn snapshot_bytes_are_pinned() {
        let db = golden_db();
        assert_eq!(db.table("readings").unwrap().next_row_id(), 3);
        assert_eq!(db.snapshot(), GOLDEN_SNAPSHOT);
        let back = Database::restore(GOLDEN_SNAPSHOT).unwrap();
        assert_eq!(back.snapshot(), GOLDEN_SNAPSHOT);
    }

    #[test]
    fn snapshot_into_appends_the_snapshot_bytes() {
        let db = golden_db();
        let mut w = Writer::new();
        w.put_raw(b"head");
        db.snapshot_into(&mut w);
        assert_eq!(&w.as_slice()[..4], b"head");
        assert_eq!(&w.as_slice()[4..], GOLDEN_SNAPSHOT);
    }

    #[test]
    fn delete_through_facade() {
        let mut db = sample_db();
        let n = db.delete_where("users", &Predicate::eq("id", Value::Int(1))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.table("users").unwrap().len(), 1);
    }

    #[test]
    fn empty_database_snapshot() {
        let db = Database::new();
        let back = Database::restore(&db.snapshot()).unwrap();
        assert!(back.table_names().is_empty());
    }

    #[test]
    fn changelog_captures_facade_mutations() {
        let mut db = Database::new();
        let log = ChangeLog::enabled();
        db.set_changelog(log.clone());
        db.create_table(Schema::new("t").column("id", ColumnType::Int)).unwrap();
        db.create_index("t", "id").unwrap();
        let id = db.insert("t", vec![Value::Int(5)]).unwrap();
        db.delete_where("t", &Predicate::eq("id", Value::Int(5))).unwrap();
        db.drop_table("t");
        let ops = log.drain_with(|records, _| decode_records(records));
        assert_eq!(ops.len(), 5);
        assert!(matches!(&ops[0], LogOp::CreateTable(s) if s.name() == "t"));
        assert!(matches!(&ops[1], LogOp::CreateIndex { column, .. } if column == "id"));
        assert!(matches!(&ops[2], LogOp::Insert { row_id, .. } if *row_id == id.0));
        assert!(matches!(&ops[3], LogOp::Delete { row_ids, .. } if row_ids == &vec![id.0]));
        assert!(matches!(&ops[4], LogOp::DropTable(n) if n == "t"));
        // Failed mutations are not captured.
        assert!(db.insert("ghost", vec![]).is_err());
        assert_eq!(log.pending(), 0);
    }

    #[test]
    fn replaying_captured_ops_reproduces_state_exactly() {
        let log = ChangeLog::enabled();
        let mut db = Database::new();
        db.set_changelog(log.clone());
        db.create_table(
            Schema::new("t").column("id", ColumnType::Int).column("tag", ColumnType::Text),
        )
        .unwrap();
        db.create_index("t", "tag").unwrap();
        for i in 0..10 {
            db.insert("t", vec![Value::Int(i), Value::text(if i % 2 == 0 { "a" } else { "b" })])
                .unwrap();
        }
        db.delete_where("t", &Predicate::eq("tag", Value::text("a"))).unwrap();
        db.insert("t", vec![Value::Int(99), Value::text("c")]).unwrap();

        let mut replayed = Database::new();
        for op in log.drain_with(|records, _| decode_records(records)) {
            replayed.apply_op(&op).unwrap();
        }
        assert_eq!(replayed.snapshot(), db.snapshot(), "replay is bit-exact");
        assert!(replayed.table("t").unwrap().has_index("tag"));
    }

    #[test]
    fn recorder_counts_row_traffic_per_table() {
        let rec = Recorder::enabled();
        let mut db = sample_db();
        db.set_recorder(rec.clone());
        // sample_db inserted before the recorder was attached.
        assert_eq!(rec.counter("store.rows_inserted.users"), 0);
        db.insert("users", vec![Value::Int(3), Value::text("cam"), Value::Null]).unwrap();
        db.scan("users", &Predicate::True).unwrap();
        db.delete_where("users", &Predicate::eq("id", Value::Int(1))).unwrap();
        assert_eq!(rec.counter("store.rows_inserted.users"), 1);
        assert_eq!(rec.counter("store.rows_scanned.users"), 3);
        assert_eq!(rec.counter("store.scans_run.users"), 1);
        assert_eq!(rec.counter("store.rows_deleted.users"), 1);
        assert_eq!(rec.counter("store.rows_inserted.blobs"), 0);
    }
}
