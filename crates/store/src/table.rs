//! Tables: schema + rows + indexes.

use std::collections::BTreeMap;

use crate::index::HashIndex;
use crate::predicate::Predicate;
use crate::schema::{ColumnType, Schema};
use crate::value::Value;
use crate::StoreError;

/// Stable identifier of a row within its table (survives deletions of
/// other rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u64);

/// One stored row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The row's id.
    pub id: RowId,
    /// Cell values, in schema column order.
    pub values: Vec<Value>,
}

impl Row {
    /// The value of a named column.
    pub fn get<'a>(&'a self, schema: &Schema, column: &str) -> Option<&'a Value> {
        schema.column_index(column).map(|i| &self.values[i])
    }
}

/// A table with optional hash indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: BTreeMap<RowId, Vec<Value>>,
    next_id: u64,
    /// column index -> hash index
    indexes: BTreeMap<usize, HashIndex>,
}

impl Table {
    /// Empty table for a schema.
    pub fn new(schema: Schema) -> Self {
        Table { schema, rows: BTreeMap::new(), next_id: 0, indexes: BTreeMap::new() }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a validated row, returning its id.
    ///
    /// # Errors
    ///
    /// [`StoreError::SchemaMismatch`] from validation.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<RowId, StoreError> {
        self.schema.validate(&values)?;
        let id = RowId(self.next_id);
        self.next_id += 1;
        for (&col, idx) in self.indexes.iter_mut() {
            idx.insert(&values[col], id);
        }
        self.rows.insert(id, values);
        Ok(id)
    }

    /// Creates a hash index on `column`.
    ///
    /// # Errors
    ///
    /// - [`StoreError::UnknownColumn`] if the column does not exist.
    /// - [`StoreError::NotIndexable`] for Float/Bytes columns.
    /// - [`StoreError::DuplicateIndex`] if already indexed.
    pub fn create_index(&mut self, column: &str) -> Result<(), StoreError> {
        let col = self.schema.column_index(column).ok_or_else(|| StoreError::UnknownColumn {
            table: self.schema.name().to_string(),
            column: column.to_string(),
        })?;
        let ty = self.schema.columns()[col].ty;
        if matches!(ty, ColumnType::Float | ColumnType::Bytes) {
            return Err(StoreError::NotIndexable { column: column.to_string(), ty });
        }
        if self.indexes.contains_key(&col) {
            return Err(StoreError::DuplicateIndex(column.to_string()));
        }
        let mut idx = HashIndex::new();
        for (&id, values) in &self.rows {
            idx.insert(&values[col], id);
        }
        self.indexes.insert(col, idx);
        Ok(())
    }

    /// Whether `column` has an index.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema.column_index(column).is_some_and(|c| self.indexes.contains_key(&c))
    }

    /// Names of the indexed columns, in column order — what a snapshot
    /// must persist so restore can rebuild the indexes.
    pub fn indexed_columns(&self) -> Vec<String> {
        self.indexes.keys().map(|&c| self.schema.columns()[c].name.clone()).collect()
    }

    /// The id the next insert will receive. Persisted by snapshots so a
    /// restored table keeps minting ids where the original left off
    /// (ids are never reused, even across crash recovery).
    pub fn next_row_id(&self) -> u64 {
        self.next_id
    }

    /// Restores the id counter from a snapshot. Never moves it below
    /// what live rows already require (so ids cannot be re-minted).
    pub fn set_next_row_id(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Inserts a validated row under a caller-chosen id — the replay
    /// path of snapshot restore and write-ahead-log recovery, where row
    /// ids must come out exactly as they were originally minted.
    ///
    /// # Errors
    ///
    /// - [`StoreError::SchemaMismatch`] from validation.
    /// - [`StoreError::SchemaMismatch`] if the id is already occupied
    ///   (a replayed log that revisits an id is corrupt).
    pub fn insert_at(&mut self, id: RowId, values: Vec<Value>) -> Result<(), StoreError> {
        self.schema.validate(&values)?;
        if self.rows.contains_key(&id) {
            return Err(StoreError::SchemaMismatch {
                table: self.schema.name().to_string(),
                detail: format!("row id {} already occupied", id.0),
            });
        }
        for (&col, idx) in self.indexes.iter_mut() {
            idx.insert(&values[col], id);
        }
        self.rows.insert(id, values);
        self.next_id = self.next_id.max(id.0 + 1);
        Ok(())
    }

    /// Deletes rows by id (ids without a live row are ignored);
    /// returns how many went away. The replay path of log recovery.
    pub fn delete_ids(&mut self, ids: &[RowId]) -> usize {
        let mut n = 0;
        for id in ids {
            if let Some(values) = self.rows.remove(id) {
                for (&col, idx) in self.indexes.iter_mut() {
                    idx.remove(&values[col], *id);
                }
                n += 1;
            }
        }
        n
    }

    /// Rows matching a predicate, using the index fast-path where
    /// possible (see [`Table::scan_indexed`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownColumn`] from predicate evaluation.
    pub fn scan(&self, pred: &Predicate) -> Result<Vec<Row>, StoreError> {
        Ok(self.scan_indexed(pred)?.0)
    }

    /// Like [`Table::scan`], also reporting whether an index satisfied
    /// the lookup. Two accelerated shapes:
    ///
    /// - a pure point lookup (`column = value`) on an indexed column —
    ///   the index result *is* the answer;
    /// - an `And`-chain containing an `Eq` conjunct on an indexed
    ///   column — the index prunes candidates and the full predicate is
    ///   re-checked per candidate.
    ///
    /// Either way candidates are visited in `RowId` order, so results
    /// come out exactly as a full scan would produce them.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownColumn`] from predicate evaluation.
    pub fn scan_indexed(&self, pred: &Predicate) -> Result<(Vec<Row>, bool), StoreError> {
        if let Some((column, value)) = pred.as_point_lookup() {
            if let Some(mut ids) = self.index_ids(column, value) {
                ids.sort_unstable();
                let rows = ids
                    .into_iter()
                    .filter_map(|id| {
                        self.rows.get(&id).map(|values| Row { id, values: values.clone() })
                    })
                    .collect();
                return Ok((rows, true));
            }
        } else {
            for (column, value) in pred.eq_conjuncts() {
                let Some(mut ids) = self.index_ids(column, value) else { continue };
                ids.sort_unstable();
                let mut out = Vec::new();
                for id in ids {
                    if let Some(values) = self.rows.get(&id) {
                        let row = Row { id, values: values.clone() };
                        if pred.matches(&self.schema, &row)? {
                            out.push(row);
                        }
                    }
                }
                return Ok((out, true));
            }
        }
        let mut out = Vec::new();
        for (&id, values) in &self.rows {
            let row = Row { id, values: values.clone() };
            if pred.matches(&self.schema, &row)? {
                out.push(row);
            }
        }
        Ok((out, false))
    }

    /// Candidate row ids from the index on `column` for `value`, if
    /// both the index exists and the value is indexable.
    fn index_ids(&self, column: &str, value: &Value) -> Option<Vec<RowId>> {
        let col = self.schema.column_index(column)?;
        self.indexes.get(&col)?.lookup(value)
    }

    /// Fetches one row by id.
    pub fn get(&self, id: RowId) -> Option<Row> {
        self.rows.get(&id).map(|values| Row { id, values: values.clone() })
    }

    /// Deletes rows matching the predicate; returns the deleted ids (so
    /// callers like the write-ahead log can record exactly which rows
    /// went away, not just how many).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownColumn`] from predicate evaluation.
    pub fn delete_where(&mut self, pred: &Predicate) -> Result<Vec<RowId>, StoreError> {
        let doomed: Vec<RowId> = self.scan(pred)?.into_iter().map(|r| r.id).collect();
        self.delete_ids(&doomed);
        Ok(doomed)
    }

    /// Updates the named column of all rows matching the predicate;
    /// returns how many rows changed.
    ///
    /// # Errors
    ///
    /// - [`StoreError::UnknownColumn`] if the column does not exist.
    /// - [`StoreError::SchemaMismatch`] if the new value's type is wrong.
    pub fn update_where(
        &mut self,
        pred: &Predicate,
        column: &str,
        new_value: Value,
    ) -> Result<usize, StoreError> {
        let col = self.schema.column_index(column).ok_or_else(|| StoreError::UnknownColumn {
            table: self.schema.name().to_string(),
            column: column.to_string(),
        })?;
        let hits: Vec<RowId> = self.scan(pred)?.into_iter().map(|r| r.id).collect();
        for id in &hits {
            let values = self.rows.get_mut(id).expect("row just scanned");
            let mut candidate = values.clone();
            candidate[col] = new_value.clone();
            self.schema.validate(&candidate)?;
            if let Some(idx) = self.indexes.get_mut(&col) {
                idx.remove(&values[col], *id);
                idx.insert(&new_value, *id);
            }
            *values = candidate;
        }
        Ok(hits.len())
    }

    /// Iterates over all rows in id order, borrowing their values.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> + '_ {
        self.rows.iter().map(|(&id, values)| (id, values.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let schema = Schema::new("tasks")
            .column("id", ColumnType::Int)
            .column("status", ColumnType::Text)
            .column("score", ColumnType::Float);
        Table::new(schema)
    }

    fn fill(t: &mut Table) {
        for (i, (status, score)) in
            [("running", 0.1), ("done", 0.9), ("running", 0.5)].iter().enumerate()
        {
            t.insert(vec![Value::Int(i as i64), Value::text(*status), Value::Float(*score)])
                .unwrap();
        }
    }

    #[test]
    fn insert_assigns_monotonic_ids() {
        let mut t = table();
        fill(&mut t);
        let ids: Vec<RowId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![RowId(0), RowId(1), RowId(2)]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn scan_filters_rows() {
        let mut t = table();
        fill(&mut t);
        let rows = t.scan(&Predicate::eq("status", Value::text("running"))).unwrap();
        assert_eq!(rows.len(), 2);
        let all = t.scan(&Predicate::True).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn index_accelerated_scan_equals_full_scan() {
        let mut indexed = table();
        fill(&mut indexed);
        indexed.create_index("status").unwrap();
        let mut plain = table();
        fill(&mut plain);
        let p = Predicate::eq("status", Value::text("running"));
        assert_eq!(indexed.scan(&p).unwrap(), plain.scan(&p).unwrap());
    }

    #[test]
    fn and_conjunct_uses_index_and_matches_full_scan() {
        let mut indexed = table();
        fill(&mut indexed);
        indexed.create_index("status").unwrap();
        let mut plain = table();
        fill(&mut plain);
        let p = Predicate::eq("status", Value::text("running"))
            .and(Predicate::gt("score", Value::Float(0.2)));
        let (rows, used) = indexed.scan_indexed(&p).unwrap();
        assert!(used, "And-chain with an indexed Eq conjunct must use the index");
        assert_eq!(rows, plain.scan(&p).unwrap());
        // Conjunct order must not matter: Eq on the indexed column second.
        let q = Predicate::gt("score", Value::Float(0.2))
            .and(Predicate::eq("status", Value::text("running")));
        let (rows_q, used_q) = indexed.scan_indexed(&q).unwrap();
        assert!(used_q);
        assert_eq!(rows_q, plain.scan(&q).unwrap());
    }

    #[test]
    fn indexed_scan_preserves_row_id_order() {
        let mut t = table();
        fill(&mut t);
        t.create_index("status").unwrap();
        // Update row 0 away and back so its index bucket entry is
        // re-appended out of id order; scans must still come back sorted.
        t.update_where(&Predicate::eq("id", Value::Int(0)), "status", Value::text("paused"))
            .unwrap();
        t.update_where(&Predicate::eq("id", Value::Int(0)), "status", Value::text("running"))
            .unwrap();
        let p = Predicate::eq("status", Value::text("running"));
        let ids: Vec<RowId> = t.scan(&p).unwrap().into_iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![RowId(0), RowId(2)]);
    }

    #[test]
    fn or_predicate_does_not_use_index() {
        let mut t = table();
        fill(&mut t);
        t.create_index("status").unwrap();
        let p = Predicate::eq("status", Value::text("running"))
            .or(Predicate::eq("status", Value::text("done")));
        let (rows, used) = t.scan_indexed(&p).unwrap();
        assert!(!used, "Or is not a necessary conjunct; must fall back to a full scan");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn index_on_float_rejected() {
        let mut t = table();
        assert!(matches!(t.create_index("score"), Err(StoreError::NotIndexable { .. })));
    }

    #[test]
    fn duplicate_index_rejected() {
        let mut t = table();
        t.create_index("status").unwrap();
        assert_eq!(t.create_index("status"), Err(StoreError::DuplicateIndex("status".to_string())));
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = table();
        fill(&mut t);
        t.create_index("id").unwrap();
        let rows = t.scan(&Predicate::eq("id", Value::Int(1))).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values[1], Value::text("done"));
    }

    #[test]
    fn delete_where_updates_indexes() {
        let mut t = table();
        fill(&mut t);
        t.create_index("status").unwrap();
        let gone = t.delete_where(&Predicate::eq("status", Value::text("running"))).unwrap();
        assert_eq!(gone, vec![RowId(0), RowId(2)]);
        assert_eq!(t.len(), 1);
        assert!(t.scan(&Predicate::eq("status", Value::text("running"))).unwrap().is_empty());
    }

    #[test]
    fn update_where_changes_values_and_indexes() {
        let mut t = table();
        fill(&mut t);
        t.create_index("status").unwrap();
        let n = t
            .update_where(
                &Predicate::eq("status", Value::text("running")),
                "status",
                Value::text("finished"),
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.scan(&Predicate::eq("status", Value::text("finished"))).unwrap().len(), 2);
        assert!(t.scan(&Predicate::eq("status", Value::text("running"))).unwrap().is_empty());
    }

    #[test]
    fn update_validates_type() {
        let mut t = table();
        fill(&mut t);
        assert!(t.update_where(&Predicate::True, "status", Value::Int(1)).is_err());
    }

    #[test]
    fn get_by_row_id() {
        let mut t = table();
        fill(&mut t);
        assert!(t.get(RowId(1)).is_some());
        assert!(t.get(RowId(99)).is_none());
    }

    #[test]
    fn row_get_by_column_name() {
        let mut t = table();
        fill(&mut t);
        let row = t.get(RowId(0)).unwrap();
        assert_eq!(row.get(t.schema(), "status"), Some(&Value::text("running")));
        assert_eq!(row.get(t.schema(), "missing"), None);
    }

    #[test]
    fn ids_not_reused_after_delete() {
        let mut t = table();
        fill(&mut t);
        t.delete_where(&Predicate::True).unwrap();
        let id = t.insert(vec![Value::Int(9), Value::text("new"), Value::Float(0.0)]).unwrap();
        assert_eq!(id, RowId(3));
    }
}
