//! Logical change capture for durability.
//!
//! Every mutation that goes through the [`Database`](crate::Database)
//! facade is described by a [`LogOp`] — a *logical* log record carrying
//! exactly what is needed to replay the mutation deterministically
//! (including minted row ids, so replay reproduces identical state).
//! A [`ChangeLog`] is a cheap, cloneable handle (modelled after
//! `sor_obs::Recorder`) that a durability layer attaches to a database;
//! the default handle is disabled and costs one branch per mutation.
//!
//! The handle does not keep `LogOp` values. It encodes each mutation
//! straight from the facade's borrowed arguments (an insert from the
//! row just stored) into one reused buffer of write-ahead-log records,
//! each already framed as [`sor_proto::frame`] lays it out: the bytes a
//! commit appends are the buffer itself. [`LogOp::decode`] reads each
//! record's payload back.
//!
//! The ops are deliberately physical about *identity* (row ids, not
//! predicates): replaying `Delete { row_ids }` does not depend on scan
//! order or predicate evaluation, so a recovered database is
//! bit-identical to the one that logged the ops.

use std::sync::{Arc, Mutex};

use sor_proto::wire::{Reader, Writer};
use sor_proto::ProtoError;

use crate::schema::{Column, ColumnType, Schema};
use crate::table::RowId;
use crate::value::Value;
use crate::StoreError;

/// One logical mutation of a database.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// DDL: a table was created with this schema.
    CreateTable(Schema),
    /// DDL: a table was dropped.
    DropTable(String),
    /// A hash index was created on `table.column`.
    CreateIndex {
        /// The table.
        table: String,
        /// The indexed column.
        column: String,
    },
    /// A row was inserted and minted `row_id`.
    Insert {
        /// The table.
        table: String,
        /// The id the row received.
        row_id: u64,
        /// Cell values in schema order.
        values: Vec<Value>,
    },
    /// Rows were deleted by id.
    Delete {
        /// The table.
        table: String,
        /// The ids that went away.
        row_ids: Vec<u64>,
    },
}

const TAG_CREATE_TABLE: u8 = 1;
const TAG_DROP_TABLE: u8 = 2;
const TAG_CREATE_INDEX: u8 = 3;
const TAG_INSERT: u8 = 4;
const TAG_DELETE: u8 = 5;

impl LogOp {
    /// Serialises the op with the `sor-proto` wire primitives. The
    /// durability layer frames and checksums the result; this is the
    /// payload only.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Appends the encoded op to an existing writer.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            LogOp::CreateTable(schema) => put_create_table(w, schema),
            LogOp::DropTable(name) => put_drop_table(w, name),
            LogOp::CreateIndex { table, column } => put_create_index(w, table, column),
            LogOp::Insert { table, row_id, values } => put_insert(w, table, *row_id, values),
            LogOp::Delete { table, row_ids } => put_delete(w, table, row_ids.iter().copied()),
        }
    }

    /// Decodes one op from a payload produced by [`LogOp::encode`].
    ///
    /// # Errors
    ///
    /// [`StoreError::CorruptSnapshot`] on truncation or unknown tags
    /// (a log record that decodes wrongly is treated like a corrupt
    /// snapshot: rejected, never guessed at).
    pub fn decode(bytes: &[u8]) -> Result<LogOp, StoreError> {
        let mut r = Reader::new(bytes);
        let op = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(StoreError::CorruptSnapshot(format!(
                "{} trailing bytes after log record",
                r.remaining()
            )));
        }
        Ok(op)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<LogOp, StoreError> {
        let corrupt = |e: ProtoError| StoreError::CorruptSnapshot(e.to_string());
        Ok(match r.get_u8().map_err(corrupt)? {
            TAG_CREATE_TABLE => {
                let name = r.get_str().map_err(corrupt)?.to_string();
                let n_cols = r.get_uvar().map_err(corrupt)? as usize;
                let mut schema = Schema::new(&name);
                for _ in 0..n_cols {
                    let cname = r.get_str().map_err(corrupt)?.to_string();
                    let ty = ColumnType::from_wire_tag(r.get_u8().map_err(corrupt)?).ok_or_else(
                        || StoreError::CorruptSnapshot("bad column type tag".to_string()),
                    )?;
                    let nullable = r.get_u8().map_err(corrupt)? != 0;
                    let c = Column { name: cname, ty, nullable };
                    schema = if c.nullable {
                        schema.nullable_column(&c.name, c.ty)
                    } else {
                        schema.column(&c.name, c.ty)
                    };
                }
                LogOp::CreateTable(schema)
            }
            TAG_DROP_TABLE => LogOp::DropTable(r.get_str().map_err(corrupt)?.to_string()),
            TAG_CREATE_INDEX => LogOp::CreateIndex {
                table: r.get_str().map_err(corrupt)?.to_string(),
                column: r.get_str().map_err(corrupt)?.to_string(),
            },
            TAG_INSERT => {
                let table = r.get_str().map_err(corrupt)?.to_string();
                let row_id = r.get_uvar().map_err(corrupt)?;
                let n = r.get_uvar().map_err(corrupt)? as usize;
                // Guard against hostile lengths before allocating: every
                // value costs at least one tag byte.
                if n > r.remaining() {
                    return Err(StoreError::CorruptSnapshot(format!(
                        "insert declares {n} values with {} bytes left",
                        r.remaining()
                    )));
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(Value::decode_from(r).map_err(corrupt)?);
                }
                LogOp::Insert { table, row_id, values }
            }
            TAG_DELETE => {
                let table = r.get_str().map_err(corrupt)?.to_string();
                let n = r.get_uvar().map_err(corrupt)? as usize;
                if n > r.remaining() {
                    return Err(StoreError::CorruptSnapshot(format!(
                        "delete declares {n} ids with {} bytes left",
                        r.remaining()
                    )));
                }
                let mut row_ids = Vec::with_capacity(n);
                for _ in 0..n {
                    row_ids.push(r.get_uvar().map_err(corrupt)?);
                }
                LogOp::Delete { table, row_ids }
            }
            t => {
                return Err(StoreError::CorruptSnapshot(format!("unknown log record tag {t}")));
            }
        })
    }
}

fn put_create_table(w: &mut Writer, schema: &Schema) {
    w.put_u8(TAG_CREATE_TABLE);
    w.put_str(schema.name());
    w.put_uvar(schema.columns().len() as u64);
    for c in schema.columns() {
        w.put_str(&c.name);
        w.put_u8(c.ty.wire_tag());
        w.put_u8(c.nullable as u8);
    }
}

fn put_drop_table(w: &mut Writer, name: &str) {
    w.put_u8(TAG_DROP_TABLE);
    w.put_str(name);
}

fn put_create_index(w: &mut Writer, table: &str, column: &str) {
    w.put_u8(TAG_CREATE_INDEX);
    w.put_str(table);
    w.put_str(column);
}

fn put_insert(w: &mut Writer, table: &str, row_id: u64, values: &[Value]) {
    w.put_u8(TAG_INSERT);
    w.put_str(table);
    w.put_uvar(row_id);
    w.put_uvar(values.len() as u64);
    for v in values {
        v.encode_into(w);
    }
}

fn put_delete(w: &mut Writer, table: &str, row_ids: impl ExactSizeIterator<Item = u64>) {
    w.put_u8(TAG_DELETE);
    w.put_str(table);
    w.put_uvar(row_ids.len() as u64);
    for id in row_ids {
        w.put_uvar(id);
    }
}

/// Framed log records captured since the last drain.
#[derive(Debug, Default)]
struct Captured {
    /// `[u32 len][payload][u32 CRC]` records, back to back.
    records: Writer,
    /// How many records `records` holds.
    count: usize,
}

/// Cloneable capture handle for [`LogOp`]s.
///
/// All clones share one buffer of framed log records; the durability
/// layer drains it at commit points. The default handle is disabled:
/// mutations pay one branch and capture nothing. Each capture method
/// records the op its name gives, encoded as [`LogOp::encode`] would
/// encode it.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    inner: Option<Arc<Mutex<Captured>>>,
}

impl ChangeLog {
    /// A capturing handle with an empty buffer.
    pub fn enabled() -> Self {
        ChangeLog { inner: Some(Arc::new(Mutex::new(Captured::default()))) }
    }

    /// The no-op sink (the default).
    pub fn disabled() -> Self {
        ChangeLog { inner: None }
    }

    /// Whether ops are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Frames one record whose payload `encode` writes, behind those
    /// already captured (no-op when disabled).
    fn capture(&self, encode: impl FnOnce(&mut Writer)) {
        if let Some(inner) = &self.inner {
            let mut captured = inner.lock().expect("changelog poisoned");
            captured.records.put_framed(encode);
            captured.count += 1;
        }
    }

    /// Records [`LogOp::CreateTable`].
    pub(crate) fn create_table(&self, schema: &Schema) {
        self.capture(|w| put_create_table(w, schema));
    }

    /// Records [`LogOp::DropTable`].
    pub(crate) fn drop_table(&self, name: &str) {
        self.capture(|w| put_drop_table(w, name));
    }

    /// Records [`LogOp::CreateIndex`].
    pub(crate) fn create_index(&self, table: &str, column: &str) {
        self.capture(|w| put_create_index(w, table, column));
    }

    /// Records [`LogOp::Insert`].
    pub(crate) fn insert(&self, table: &str, row_id: RowId, values: &[Value]) {
        self.capture(|w| put_insert(w, table, row_id.0, values));
    }

    /// Records [`LogOp::Delete`].
    pub(crate) fn delete(&self, table: &str, row_ids: &[RowId]) {
        self.capture(|w| put_delete(w, table, row_ids.iter().map(|id| id.0)));
    }

    /// Hands `f` the captured records, framed back to back, and their
    /// count, then empties the buffer, keeping its capacity for the
    /// next commit. A disabled handle hands over nothing.
    pub fn drain_with<R>(&self, f: impl FnOnce(&[u8], usize) -> R) -> R {
        match &self.inner {
            Some(inner) => {
                let mut captured = inner.lock().expect("changelog poisoned");
                let out = f(captured.records.as_slice(), captured.count);
                captured.records.clear();
                captured.count = 0;
                out
            }
            None => f(&[], 0),
        }
    }

    /// Discards every captured record, keeping the buffer's capacity.
    pub fn clear(&self) {
        self.drain_with(|_, _| ());
    }

    /// Number of captured ops not yet drained.
    pub fn pending(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.lock().expect("changelog poisoned").count)
    }
}

/// The ops in a buffer of framed records, decoded (tests).
#[cfg(test)]
pub(crate) fn decode_records(records: &[u8]) -> Vec<LogOp> {
    let mut scanner = sor_proto::frame::FrameScanner::new(records);
    let mut ops = Vec::new();
    while let Some(payload) = scanner.next_frame() {
        ops.push(LogOp::decode(payload.expect("intact frame")).expect("a log record"));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> Vec<LogOp> {
        vec![
            LogOp::CreateTable(
                Schema::new("t")
                    .column("id", ColumnType::Int)
                    .nullable_column("name", ColumnType::Text),
            ),
            LogOp::CreateIndex { table: "t".into(), column: "id".into() },
            LogOp::Insert {
                table: "t".into(),
                row_id: 7,
                values: vec![Value::Int(-3), Value::Null],
            },
            LogOp::Delete { table: "t".into(), row_ids: vec![0, 7, 9] },
            LogOp::DropTable("t".into()),
        ]
    }

    #[test]
    fn ops_roundtrip() {
        for op in ops() {
            let bytes = op.encode();
            assert_eq!(LogOp::decode(&bytes).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn truncated_ops_rejected_not_panicking() {
        for op in ops() {
            let bytes = op.encode();
            for cut in 0..bytes.len() {
                assert!(
                    LogOp::decode(&bytes[..cut]).is_err(),
                    "truncation at {cut} must fail: {op:?}"
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ops()[2].encode();
        bytes.push(0);
        assert!(LogOp::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(LogOp::decode(&[99]).is_err());
    }

    #[test]
    fn hostile_lengths_rejected_without_allocation() {
        // An insert declaring 2^50 values with a 2-byte body.
        let mut w = Writer::new();
        w.put_u8(TAG_INSERT);
        w.put_str("t");
        w.put_uvar(1);
        w.put_uvar(1 << 50);
        assert!(LogOp::decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn changelog_captures_and_drains() {
        let log = ChangeLog::enabled();
        let clone = log.clone();
        log.drop_table("a");
        clone.drop_table("b");
        assert_eq!(log.pending(), 2);
        let (drained, count) = log.drain_with(|records, count| (decode_records(records), count));
        assert_eq!(count, 2);
        assert_eq!(drained, vec![LogOp::DropTable("a".into()), LogOp::DropTable("b".into())]);
        assert_eq!(clone.pending(), 0, "clones share the buffer");
        assert!(clone.drain_with(|records, _| records.is_empty()), "a drain empties it");
    }

    #[test]
    fn captured_records_are_the_framed_encodings() {
        let log = ChangeLog::enabled();
        let ops = ops();
        for op in &ops {
            match op {
                LogOp::CreateTable(schema) => log.create_table(schema),
                LogOp::DropTable(name) => log.drop_table(name),
                LogOp::CreateIndex { table, column } => log.create_index(table, column),
                LogOp::Insert { table, row_id, values } => {
                    log.insert(table, RowId(*row_id), values)
                }
                LogOp::Delete { table, row_ids } => {
                    let ids: Vec<RowId> = row_ids.iter().map(|&id| RowId(id)).collect();
                    log.delete(table, &ids)
                }
            }
        }
        let mut expect = Vec::new();
        for op in &ops {
            sor_proto::frame::encode_frame_into(&mut expect, &op.encode());
        }
        log.drain_with(|records, count| {
            assert_eq!(records, expect);
            assert_eq!(count, ops.len());
        });
    }

    #[test]
    fn disabled_changelog_is_inert() {
        let log = ChangeLog::disabled();
        log.drop_table("a");
        assert_eq!(log.pending(), 0);
        assert!(log.drain_with(|records, count| records.is_empty() && count == 0));
        assert!(!ChangeLog::default().is_enabled());
    }
}
