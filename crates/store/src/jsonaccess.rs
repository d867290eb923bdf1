//! Physical JSON storage formats and format-dispatched SQL/JSON
//! evaluation.
//!
//! This module is where the §6.3 comparison lives: the *same* SQL/JSON
//! operator runs against a `Text` cell (streaming engine or parse-to-DOM),
//! a `Bson` cell (skip navigation), or an `Oson` cell (jump navigation) —
//! the query layer is storage-agnostic, exactly like the views in the
//! paper that "hide the underlying physical data storage model
//! differences".

use std::sync::Arc;

use fsdm_json::{JsonValue, ValueDom};
use fsdm_sqljson::json_table::{JsonTableCursor, JsonTableDef};
use fsdm_sqljson::ops::{json_value, OnError};
use fsdm_sqljson::{Datum, JsonPath, PathEvaluator, SqlType};

use crate::table::StoreError;

/// Per-worker evaluation state of one compiled path: the DOM engine's
/// cursor with its look-back cache, and the last TEXT `JSON_VALUE`
/// result. Expression clones share the path and hence the slot, so the
/// planner's two copies of the `JSON_VALUE` in a `BETWEEN` read a row's
/// text once.
pub struct PathSlot {
    ev: PathEvaluator,
    /// The document the last TEXT `JSON_VALUE` read, its RETURNING type
    /// and its result. The slot holds a clone of the cell's `Arc`, which
    /// keeps that allocation alive: no other document can be allocated at
    /// its address while it is remembered, so pointer equality identifies
    /// the same document.
    last_text: Option<(Arc<str>, SqlType, Datum)>,
}

impl PathSlot {
    /// A fresh slot for `path`.
    pub fn new(path: JsonPath) -> PathSlot {
        PathSlot { ev: PathEvaluator::new(path), last_text: None }
    }

    /// The path's DOM-engine cursor.
    pub fn evaluator(&mut self) -> &mut PathEvaluator {
        &mut self.ev
    }
}

/// Physical storage of a JSON column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonStorage {
    /// Compact JSON text (the paper's varchar2 storage).
    Text,
    /// BSON bytes (raw storage).
    Bson,
    /// OSON bytes (raw storage).
    Oson,
}

/// One stored JSON document. Binary payloads are reference-counted so
/// the in-memory store can hand OSON bytes to query rows without copying.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonCell {
    /// JSON text (shared: scans hand the same buffer to many rows).
    Text(std::sync::Arc<str>),
    /// BSON-encoded bytes.
    Bson(std::sync::Arc<Vec<u8>>),
    /// OSON-encoded bytes.
    Oson(std::sync::Arc<Vec<u8>>),
}

impl JsonCell {
    /// Encode a document for the given storage.
    pub fn encode(doc: &JsonValue, storage: JsonStorage) -> Result<JsonCell, StoreError> {
        Ok(match storage {
            JsonStorage::Text => JsonCell::Text(fsdm_json::to_string(doc).into()),
            JsonStorage::Bson => JsonCell::Bson(std::sync::Arc::new(
                fsdm_bson::encode(doc).map_err(|e| StoreError::new(e.to_string()))?,
            )),
            JsonStorage::Oson => JsonCell::Oson(std::sync::Arc::new(
                fsdm_oson::encode(doc).map_err(|e| StoreError::new(e.to_string()))?,
            )),
        })
    }

    /// Store already-serialized JSON text without re-encoding (used by the
    /// no-constraint insert mode, which must not even parse).
    pub fn raw_text(text: impl Into<String>) -> JsonCell {
        JsonCell::Text(text.into().into())
    }

    /// Size in bytes as stored.
    pub fn stored_size(&self) -> usize {
        match self {
            JsonCell::Text(s) => s.len(),
            JsonCell::Bson(b) | JsonCell::Oson(b) => b.len(),
        }
    }

    /// Fully decode to the value model (used by DataGuide maintenance and
    /// re-encoding, not by queries).
    pub fn decode(&self) -> Result<JsonValue, StoreError> {
        match self {
            JsonCell::Text(s) => fsdm_json::parse(s).map_err(|e| StoreError::new(e.to_string())),
            JsonCell::Bson(b) => fsdm_bson::decode(b).map_err(|e| StoreError::new(e.to_string())),
            JsonCell::Oson(b) => fsdm_oson::decode(b).map_err(|e| StoreError::new(e.to_string())),
        }
    }

    /// Render as JSON text (selecting a raw JSON column in a query).
    pub fn decode_to_text(&self) -> String {
        match self {
            JsonCell::Text(s) => s.to_string(),
            other => match other.decode() {
                Ok(v) => fsdm_json::to_string(&v),
                Err(_) => String::new(),
            },
        }
    }

    /// `JSON_VALUE` against this cell, paying each format's native access
    /// cost (text: one streaming pass; BSON: sequential scan; OSON:
    /// jump). A TEXT cell read by the same slot just before is not read
    /// again.
    pub fn json_value(&self, slot: &mut PathSlot, ty: SqlType) -> Datum {
        match self {
            JsonCell::Text(s) => {
                if let Some((doc, t, d)) = &slot.last_text {
                    if Arc::ptr_eq(doc, s) && *t == ty {
                        return d.clone();
                    }
                }
                // §5.1: one streaming pass; paths with filters stream
                // their prefix and run the DOM engine on what it captured
                let d = match fsdm_sqljson::streaming::eval_text(s, slot.ev.path()) {
                    Ok(values) => single_scalar(values, ty),
                    Err(_) => Datum::Null,
                };
                slot.last_text = Some((Arc::clone(s), ty, d.clone()));
                d
            }
            JsonCell::Bson(b) => match fsdm_bson::BsonDoc::new(b) {
                Ok(doc) => json_value(&doc, &mut slot.ev, ty, OnError::Null).unwrap_or(Datum::Null),
                Err(_) => Datum::Null,
            },
            JsonCell::Oson(b) => match fsdm_oson::OsonDoc::new(b) {
                Ok(doc) => json_value(&doc, &mut slot.ev, ty, OnError::Null).unwrap_or(Datum::Null),
                Err(_) => Datum::Null,
            },
        }
    }

    /// `JSON_EXISTS` against this cell.
    pub fn json_exists(&self, ev: &mut PathEvaluator) -> bool {
        match self {
            JsonCell::Text(s) => {
                fsdm_sqljson::streaming::exists_text(s, ev.path()).unwrap_or(false)
            }
            JsonCell::Bson(b) => fsdm_bson::BsonDoc::new(b).map(|d| ev.exists(&d)).unwrap_or(false),
            JsonCell::Oson(b) => fsdm_oson::OsonDoc::new(b).map(|d| ev.exists(&d)).unwrap_or(false),
        }
    }

    /// Run a JSON_TABLE definition against this cell (one-shot; hot loops
    /// should use [`JsonCell::json_table_rows_with`] and share a cursor).
    pub fn json_table_rows(&self, def: &JsonTableDef) -> Vec<Vec<Datum>> {
        let mut cursor = JsonTableCursor::new(def);
        self.json_table_rows_with(&mut cursor)
    }

    /// Run JSON_TABLE with a caller-owned cursor, so compiled paths and
    /// their field-id look-back caches persist across documents.
    pub fn json_table_rows_with(&self, cursor: &mut JsonTableCursor) -> Vec<Vec<Datum>> {
        match self {
            JsonCell::Text(s) => match fsdm_json::parse(s) {
                Ok(v) => {
                    let dom = ValueDom::new(&v);
                    cursor.rows(&dom)
                }
                Err(_) => Vec::new(),
            },
            JsonCell::Bson(b) => match fsdm_bson::BsonDoc::new(b) {
                Ok(doc) => cursor.rows(&doc),
                Err(_) => Vec::new(),
            },
            JsonCell::Oson(b) => match fsdm_oson::OsonDoc::new(b) {
                Ok(doc) => cursor.rows(&doc),
                Err(_) => Vec::new(),
            },
        }
    }
}

/// JSON_VALUE cardinality + coercion over materialized path results.
fn single_scalar(values: Vec<JsonValue>, ty: SqlType) -> Datum {
    if values.len() != 1 {
        return Datum::Null;
    }
    match Datum::from_json_scalar(&values[0]) {
        Some(d) => d.coerce(ty).unwrap_or(Datum::Null),
        None => Datum::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdm_json::parse;
    use fsdm_sqljson::parse_path;

    const DOC: &str = r#"{"po":{"id":4,"items":[{"p":10},{"p":20}]}}"#;

    fn cells() -> Vec<JsonCell> {
        let v = parse(DOC).unwrap();
        vec![
            JsonCell::encode(&v, JsonStorage::Text).unwrap(),
            JsonCell::encode(&v, JsonStorage::Bson).unwrap(),
            JsonCell::encode(&v, JsonStorage::Oson).unwrap(),
        ]
    }

    #[test]
    fn json_value_agrees_across_storages() {
        for cell in cells() {
            let mut slot = PathSlot::new(parse_path("$.po.id").unwrap());
            assert_eq!(cell.json_value(&mut slot, SqlType::Number), Datum::from(4i64));
        }
    }

    #[test]
    fn json_exists_agrees_across_storages() {
        for cell in cells() {
            let mut yes = PathEvaluator::new(parse_path("$.po.items[*]?(@.p > 15)").unwrap());
            let mut no = PathEvaluator::new(parse_path("$.po.items[*]?(@.p > 99)").unwrap());
            assert!(cell.json_exists(&mut yes));
            assert!(!cell.json_exists(&mut no));
        }
    }

    #[test]
    fn decode_roundtrips() {
        let v = parse(DOC).unwrap();
        for cell in cells() {
            assert!(cell.decode().unwrap().eq_unordered(&v));
        }
    }

    #[test]
    fn stored_sizes_differ_by_format() {
        let sizes: Vec<usize> = cells().iter().map(|c| c.stored_size()).collect();
        assert!(sizes.iter().all(|&s| s > 0));
    }

    fn remembered(slot: &PathSlot) -> Option<&Arc<str>> {
        slot.last_text.as_ref().map(|(doc, _, _)| doc)
    }

    #[test]
    fn equal_text_in_distinct_cells_is_evaluated_per_cell() {
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from(DOC), Arc::from(DOC));
        let (ca, cb) = (JsonCell::Text(a.clone()), JsonCell::Text(b.clone()));
        let mut slot = PathSlot::new(parse_path("$.po.id").unwrap());
        assert_eq!(ca.json_value(&mut slot, SqlType::Number), Datum::from(4i64));
        assert!(Arc::ptr_eq(remembered(&slot).unwrap(), &a));
        // equal text, distinct allocation: evaluated, not served from `a`
        assert_eq!(cb.json_value(&mut slot, SqlType::Number), Datum::from(4i64));
        assert!(Arc::ptr_eq(remembered(&slot).unwrap(), &b));
        // the same cell again is served from the slot
        assert_eq!(cb.json_value(&mut slot, SqlType::Number), Datum::from(4i64));
        assert!(Arc::ptr_eq(remembered(&slot).unwrap(), &b));
        // another RETURNING type is evaluated again
        assert_eq!(cb.json_value(&mut slot, SqlType::Varchar2(8)), Datum::from("4"));
    }

    #[test]
    fn a_dropped_and_reallocated_cell_never_reads_a_stale_result() {
        let mut slot = PathSlot::new(parse_path("$.po.id").unwrap());
        for i in 0..200i64 {
            // a fresh allocation of the same size each time: the allocator
            // would hand back the freed block if the slot did not hold it
            let cell = JsonCell::Text(Arc::from(format!(r#"{{"po":{{"id":{:>3}}}}}"#, i)));
            assert_eq!(cell.json_value(&mut slot, SqlType::Number), Datum::from(i));
            drop(cell);
        }
    }

    #[test]
    fn multi_match_json_value_is_null() {
        for cell in cells() {
            let mut slot = PathSlot::new(parse_path("$.po.items[*].p").unwrap());
            assert!(cell.json_value(&mut slot, SqlType::Number).is_null());
        }
    }
}
