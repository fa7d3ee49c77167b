//! The Data Processor (§II-B / §IV-A).
//!
//! "if it detects that the received message includes sensed data, it
//! will directly store the binary message body into the database, which
//! will be processed later by the Data Processor. … The Data Processor
//! periodically checks if there are any binary sensed data in the
//! database, and if any, it decodes the data and stores useful
//! information into corresponding tables … it also processes raw data
//! to generate more meaningful data for various sensing features …
//! which will then be stored into the database to serve as input for
//! the Personalizable Ranker."
//!
//! A pass does not re-read that history. [`FeatureState`] keeps running
//! state per (application, feature), fed only by the records the pass
//! decodes, and every feature value is derived from it. Decoded records
//! still land in the records table, from which the state is rebuilt
//! whenever an application has none (a new or recovered server, or an
//! application registered since the last pass).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use sor_obs::{Recorder, SpanId};
use sor_proto::Message;
use sor_store::{ColumnType, Database, Predicate, Schema, Value};

use crate::feature::{FeatureSpec, RawRecord, RunningFeature};
use crate::ServerError;

/// Binary inbox table: whole frames stored untouched.
pub const INBOX_TABLE: &str = "raw_inbox";
/// Decoded record table.
pub const RECORDS_TABLE: &str = "records";
/// Feature-data table.
pub const FEATURES_TABLE: &str = "features";

/// What one inbox drain accomplished.
#[derive(Debug, Clone, Copy)]
pub struct InboxOutcome {
    /// Records decoded and inserted.
    pub stored: usize,
    /// Corrupt / non-upload blobs dropped.
    pub dropped: usize,
    /// The last `processor.commit` span created ([`SpanId::NONE`] when
    /// no traced blob was drained) — the causal parent for subsequent
    /// rank work.
    pub last_commit_span: SpanId,
}

impl Default for InboxOutcome {
    fn default() -> Self {
        InboxOutcome { stored: 0, dropped: 0, last_commit_span: SpanId::NONE }
    }
}

/// The data processor's table operations. Stateless: what a pass
/// remembers between runs lives in the database and in the
/// [`FeatureState`] it is handed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataProcessor;

impl DataProcessor {
    /// Creates the inbox/records/features tables.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn install(db: &mut Database) -> Result<(), ServerError> {
        db.create_table(
            Schema::new(INBOX_TABLE)
                .column("app_id", ColumnType::Int)
                .column("arrival", ColumnType::Float)
                .column("body", ColumnType::Bytes),
        )?;
        db.create_table(
            Schema::new(RECORDS_TABLE)
                .column("app_id", ColumnType::Int)
                .column("task_id", ColumnType::Int)
                .column("sensor", ColumnType::Int)
                .column("t", ColumnType::Float)
                .column("dt", ColumnType::Float)
                .column("values", ColumnType::Bytes),
        )?;
        db.create_index(RECORDS_TABLE, "app_id")?;
        db.create_table(
            Schema::new(FEATURES_TABLE)
                .column("app_id", ColumnType::Int)
                .column("feature", ColumnType::Text)
                .column("value", ColumnType::Float),
        )?;
        // Every feature upsert deletes by (app_id, feature), and
        // feature_value reads by it; without this index each is a
        // full-table scan. Snapshot v2 persists index definitions, so the
        // index survives crash recovery like the records one.
        db.create_index(FEATURES_TABLE, "app_id")?;
        Ok(())
    }

    /// Stores an encoded upload frame in the inbox, untouched — the
    /// Message Handler's fast path. The frame moves into the row, and a
    /// durable database logs the row as stored, so the bytes are not
    /// copied on the way. `arrival` is the simulated receipt time; the
    /// drain pass uses it to measure upload→commit latency.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn enqueue_raw(
        &self,
        db: &mut Database,
        app_id: u64,
        arrival: f64,
        frame: Vec<u8>,
    ) -> Result<(), ServerError> {
        db.insert(
            INBOX_TABLE,
            vec![Value::Int(app_id as i64), Value::Float(arrival), Value::Bytes(frame)],
        )?;
        Ok(())
    }

    /// The periodic pass: decodes every inbox blob into typed records,
    /// folds each into `state`, and clears the inbox. Returns how many
    /// records landed. Corrupt blobs are dropped (and counted in the
    /// second tuple field) — a poisoned upload must not wedge the
    /// pipeline.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn process_inbox(
        &self,
        db: &mut Database,
        state: &mut FeatureState,
    ) -> Result<(usize, usize), ServerError> {
        let outcome = self.process_inbox_traced(db, state, &Recorder::disabled(), 0.0)?;
        Ok((outcome.stored, outcome.dropped))
    }

    /// [`DataProcessor::process_inbox`] with causal tracing: each blob
    /// whose stored frame carries a [`sor_proto::TraceContext`] gets a
    /// `processor.commit` span hung off the handler span that enqueued
    /// it, and its upload→commit latency (arrival column to `now`) is
    /// observed. Blobs are decoded from the borrowed inbox rows and
    /// committed in inbox row order, on the calling thread.
    ///
    /// # Errors
    ///
    /// Storage errors.
    pub fn process_inbox_traced(
        &self,
        db: &mut Database,
        state: &mut FeatureState,
        recorder: &Recorder,
        now: f64,
    ) -> Result<InboxOutcome, ServerError> {
        // Decode every blob straight from its borrowed row, in inbox row
        // order; the records are inserted below, once the borrow ends.
        // (Fanning the decode out to the worker pool lost to this loop
        // on every measured workload.)
        let decoded: Vec<_> = db
            .table(INBOX_TABLE)?
            .iter()
            .map(|(_, row)| {
                let app_id = row[0].as_int().expect("schema");
                let arrival = row[1].as_float().expect("schema");
                match Message::decode_traced(row[2].as_bytes().expect("schema")) {
                    Ok((Message::SensedDataUpload { task_id, records }, ctx)) => Some((
                        app_id,
                        arrival,
                        task_id,
                        records,
                        ctx.map(|c| c.parent_span),
                        ctx.map_or(0, |c| c.trace_id),
                    )),
                    _ => None,
                }
            })
            .collect();
        let mut outcome = InboxOutcome::default();
        for frame in decoded {
            let Some((app_id, arrival, task_id, records, parent, trace_id)) = frame else {
                outcome.dropped += 1;
                continue;
            };
            let span = match parent {
                Some(p) => {
                    let s = recorder.span_start_with_parent("processor.commit", now, SpanId(p));
                    recorder.span_attr_with(s, "task", || task_id.to_string());
                    recorder.span_attr_with(s, "trace_id", || trace_id.to_string());
                    recorder.observe("pipeline.upload_commit_latency_s", (now - arrival).max(0.0));
                    s
                }
                None => SpanId::NONE,
            };
            for r in records {
                let mut enc = sor_proto::wire::Writer::new();
                enc.put_f64_seq(&r.values);
                db.insert(
                    RECORDS_TABLE,
                    vec![
                        Value::Int(app_id),
                        Value::Int(task_id as i64),
                        Value::Int(r.sensor as i64),
                        Value::Float(r.timestamp),
                        Value::Float(r.window),
                        Value::Bytes(enc.into_bytes()),
                    ],
                )?;
                let record = RawRecord {
                    timestamp: r.timestamp,
                    window: r.window,
                    sensor: r.sensor,
                    values: r.values,
                };
                state.fold(app_id as u64, &record);
                outcome.stored += 1;
            }
            if span.is_real() {
                recorder.span_end(span, now);
                outcome.last_commit_span = span;
            }
        }
        db.delete_where(INBOX_TABLE, &Predicate::True)?;
        Ok(outcome)
    }

    /// Loads the decoded records of one application.
    ///
    /// # Errors
    ///
    /// Storage or decode errors.
    pub fn records_of(&self, db: &Database, app_id: u64) -> Result<Vec<RawRecord>, ServerError> {
        let rows = db.scan(RECORDS_TABLE, &Predicate::eq("app_id", Value::Int(app_id as i64)))?;
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            let bytes = row.values[5].as_bytes().expect("schema");
            let mut r = sor_proto::wire::Reader::new(bytes);
            let values = r.get_f64_seq()?;
            out.push(RawRecord {
                timestamp: row.values[3].as_float().expect("schema"),
                window: row.values[4].as_float().expect("schema"),
                sensor: row.values[2].as_int().expect("schema") as u16,
                values,
            });
        }
        Ok(out)
    }

    /// Reads one feature value.
    ///
    /// # Errors
    ///
    /// Storage errors; `Ok(None)` when not yet computed.
    pub fn feature_value(
        &self,
        db: &Database,
        app_id: u64,
        feature: &str,
    ) -> Result<Option<f64>, ServerError> {
        let rows = db.scan(
            FEATURES_TABLE,
            &Predicate::eq("app_id", Value::Int(app_id as i64))
                .and(Predicate::eq("feature", Value::text(feature))),
        )?;
        Ok(rows.first().map(|r| r.values[2].as_float().expect("schema")))
    }
}

/// The Data Processor's running state: one `feature::RunningFeature`
/// per (application, feature), in the application's feature order.
///
/// It is derived data, a fold over the records table in `RowId` order
/// (the order [`DataProcessor::records_of`] returns). The inbox drain
/// folds each record in right after inserting it, and only into
/// applications that already have state. An application without state
/// is rebuilt from `records_of` when its features are next written, so
/// no record is counted twice. Only the drain writes the records table,
/// and only by appending, so nothing else can make the state stale.
#[derive(Debug, Default)]
pub struct FeatureState {
    apps: BTreeMap<u64, Vec<RunningFeature>>,
}

impl FeatureState {
    /// Empty state: every application is rebuilt at its first write.
    pub fn new() -> Self {
        FeatureState::default()
    }

    /// Drops an application's state (its feature list may have
    /// changed); the next write rebuilds it from the records table.
    pub(crate) fn forget(&mut self, app_id: u64) {
        self.apps.remove(&app_id);
    }

    /// Folds one just-stored record into its application's state.
    fn fold(&mut self, app_id: u64, record: &RawRecord) {
        if let Some(features) = self.apps.get_mut(&app_id) {
            for feature in features {
                feature.fold(record);
            }
        }
    }

    /// Upserts every feature of one application that has enough data,
    /// in feature order, and returns the ones that do not (as
    /// [`FeatureSpec::extract`] would fail on them). `specs` seeds the
    /// state of an application that has none, which is first rebuilt
    /// from its stored records.
    ///
    /// # Errors
    ///
    /// Storage or decode errors. Extraction failures do not abort the
    /// pass.
    pub(crate) fn write_features(
        &mut self,
        db: &mut Database,
        app_id: u64,
        specs: &[FeatureSpec],
    ) -> Result<Vec<(String, ServerError)>, ServerError> {
        let features = match self.apps.entry(app_id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let mut features: Vec<RunningFeature> =
                    specs.iter().map(RunningFeature::new).collect();
                for record in DataProcessor.records_of(db, app_id)? {
                    for feature in &mut features {
                        feature.fold(&record);
                    }
                }
                e.insert(features)
            }
        };
        let mut failures = Vec::new();
        for feature in features {
            match feature.value() {
                Ok(value) => {
                    // Upsert: delete the stale value first.
                    db.delete_where(
                        FEATURES_TABLE,
                        &Predicate::eq("app_id", Value::Int(app_id as i64))
                            .and(Predicate::eq("feature", Value::text(feature.name()))),
                    )?;
                    db.insert(
                        FEATURES_TABLE,
                        vec![
                            Value::Int(app_id as i64),
                            Value::text(feature.name()),
                            Value::Float(value),
                        ],
                    )?;
                }
                Err(e) => failures.push((feature.name().to_string(), e)),
            }
        }
        Ok(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Extractor;
    use sor_proto::SensedRecord;

    fn db() -> Database {
        let mut db = Database::new();
        DataProcessor::install(&mut db).unwrap();
        db
    }

    fn upload(task_id: u64, sensor: u16, values: Vec<f64>) -> Vec<u8> {
        Message::SensedDataUpload {
            task_id,
            records: vec![SensedRecord { timestamp: 10.0, window: 3.0, sensor, values }],
        }
        .encode()
    }

    #[test]
    fn inbox_to_records_pipeline() {
        let mut db = db();
        let p = DataProcessor;
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![70.0, 71.0])).unwrap();
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![72.0])).unwrap();
        p.enqueue_raw(&mut db, 2, 0.0, upload(6, 7, vec![60.0])).unwrap();
        let (stored, dropped) = p.process_inbox(&mut db, &mut FeatureState::new()).unwrap();
        assert_eq!((stored, dropped), (3, 0));
        // Inbox cleared.
        assert_eq!(db.table(INBOX_TABLE).unwrap().len(), 0);
        // Records partitioned per app.
        assert_eq!(p.records_of(&db, 1).unwrap().len(), 2);
        assert_eq!(p.records_of(&db, 2).unwrap().len(), 1);
        let r = &p.records_of(&db, 1).unwrap()[0];
        assert_eq!(r.values, vec![70.0, 71.0]);
        assert_eq!(r.sensor, 7);
    }

    #[test]
    fn corrupt_blobs_are_dropped_not_fatal() {
        let mut db = db();
        let p = DataProcessor;
        p.enqueue_raw(&mut db, 1, 0.0, b"garbage".to_vec()).unwrap();
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![70.0])).unwrap();
        // A non-upload message in the inbox is also dropped.
        p.enqueue_raw(&mut db, 1, 0.0, Message::WakeUp { token: 1 }.encode()).unwrap();
        let (stored, dropped) = p.process_inbox(&mut db, &mut FeatureState::new()).unwrap();
        assert_eq!((stored, dropped), (1, 2));
    }

    #[test]
    fn features_computed_and_upserted() {
        let mut db = db();
        let p = DataProcessor;
        let mut state = FeatureState::new();
        let specs = [FeatureSpec::new("temp", "°F", Extractor::Mean { sensor: 7 }, 60.0)];
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![70.0, 72.0])).unwrap();
        p.process_inbox(&mut db, &mut state).unwrap();
        // No state yet: the write rebuilds it from the records table.
        let failures = state.write_features(&mut db, 1, &specs).unwrap();
        assert!(failures.is_empty());
        assert_eq!(p.feature_value(&db, 1, "temp").unwrap(), Some(71.0));

        // More data arrives; the drain folds it in and the write
        // replaces the value.
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![80.0])).unwrap();
        p.process_inbox(&mut db, &mut state).unwrap();
        state.write_features(&mut db, 1, &specs).unwrap();
        assert_eq!(p.feature_value(&db, 1, "temp").unwrap(), Some(74.0));
        // Exactly one row per (app, feature).
        assert_eq!(db.table(FEATURES_TABLE).unwrap().len(), 1);
    }

    #[test]
    fn missing_data_reports_failure_without_abort() {
        let mut db = db();
        let p = DataProcessor;
        let mut state = FeatureState::new();
        let good = FeatureSpec::new("temp", "°F", Extractor::Mean { sensor: 7 }, 60.0);
        let bad = FeatureSpec::new("noise", "", Extractor::Mean { sensor: 2 }, 20.0);
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![70.0])).unwrap();
        p.process_inbox(&mut db, &mut state).unwrap();
        let failures = state.write_features(&mut db, 1, &[good, bad]).unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "noise");
        assert_eq!(p.feature_value(&db, 1, "temp").unwrap(), Some(70.0));
        assert_eq!(p.feature_value(&db, 1, "noise").unwrap(), None);
    }

    #[test]
    fn all_negative_zero_mean_keeps_its_sign() {
        // `Iterator::sum::<f64>` folds from -0.0, so the oracle's mean
        // of only -0.0 readings is -0.0; a running sum seeded with +0.0
        // would flip it to +0.0.
        let mut db = db();
        let p = DataProcessor;
        let mut state = FeatureState::new();
        let specs = [FeatureSpec::new("m", "", Extractor::Mean { sensor: 7 }, 60.0)];
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![-0.0, -0.0])).unwrap();
        p.process_inbox(&mut db, &mut state).unwrap();
        state.write_features(&mut db, 1, &specs).unwrap();
        // The second batch is folded into existing state, not rebuilt.
        p.enqueue_raw(&mut db, 1, 0.0, upload(5, 7, vec![-0.0])).unwrap();
        p.process_inbox(&mut db, &mut state).unwrap();
        state.write_features(&mut db, 1, &specs).unwrap();
        let oracle = specs[0].extract(&p.records_of(&db, 1).unwrap()).unwrap();
        assert_eq!(oracle.to_bits(), (-0.0f64).to_bits());
        let stored = p.feature_value(&db, 1, "m").unwrap().unwrap();
        assert_eq!(stored.to_bits(), oracle.to_bits());
    }
}
