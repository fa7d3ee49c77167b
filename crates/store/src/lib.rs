//! Embedded typed table store for the SOR sensing server.
//!
//! The paper stores everything in PostgreSQL (§II-B): raw binary sensed
//! data (written directly by the Message Handler), decoded records and
//! feature data (written by the Data Processor), plus user/application/
//! participation bookkeeping. This crate supplies the slice of an
//! RDBMS those components actually use:
//!
//! - typed schemas with nullable columns ([`schema`]),
//! - row insertion with validation ([`table`]),
//! - predicate scans ([`predicate`]),
//! - hash indexes on equality-queried columns ([`index`]),
//! - multiple tables under one [`Database`] with binary snapshots
//!   (serialised with the `sor-proto` wire primitives).
//!
//! # Example
//!
//! ```
//! use sor_store::{ColumnType, Database, Predicate, Schema, Value};
//!
//! let mut db = Database::new();
//! db.create_table(Schema::new("readings")
//!     .column("task_id", ColumnType::Int)
//!     .column("sensor", ColumnType::Text)
//!     .column("value", ColumnType::Float))?;
//! db.insert("readings", vec![Value::Int(1), Value::text("light"), Value::Float(420.0)])?;
//! let rows = db.scan("readings", &Predicate::eq("sensor", Value::text("light")))?;
//! assert_eq!(rows.len(), 1);
//! # Ok::<(), sor_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod changelog;
pub mod database;
pub mod index;
pub mod predicate;
pub mod schema;
pub mod table;
pub mod value;

pub use changelog::{ChangeLog, LogOp};
pub use database::Database;
pub use predicate::Predicate;
pub use schema::{Column, ColumnType, Schema};
pub use table::{Row, RowId, Table};
pub use value::Value;

/// Errors from the store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Table does not exist.
    UnknownTable(String),
    /// Table already exists.
    DuplicateTable(String),
    /// Column does not exist in the schema.
    UnknownColumn {
        /// The table.
        table: String,
        /// The missing column.
        column: String,
    },
    /// A row's arity or types do not match the schema.
    SchemaMismatch {
        /// The table.
        table: String,
        /// Description of the mismatch.
        detail: String,
    },
    /// An index was requested on a type that cannot be hashed exactly.
    NotIndexable {
        /// The column.
        column: String,
        /// Its type.
        ty: ColumnType,
    },
    /// An index already exists on that column.
    DuplicateIndex(String),
    /// A snapshot could not be decoded.
    CorruptSnapshot(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StoreError::DuplicateTable(t) => write!(f, "table `{t}` already exists"),
            StoreError::UnknownColumn { table, column } => {
                write!(f, "table `{table}` has no column `{column}`")
            }
            StoreError::SchemaMismatch { table, detail } => {
                write!(f, "row does not match schema of `{table}`: {detail}")
            }
            StoreError::NotIndexable { column, ty } => {
                write!(f, "column `{column}` of type {ty:?} cannot be indexed")
            }
            StoreError::DuplicateIndex(c) => write!(f, "index on `{c}` already exists"),
            StoreError::CorruptSnapshot(d) => write!(f, "corrupt snapshot: {d}"),
        }
    }
}

impl std::error::Error for StoreError {}
