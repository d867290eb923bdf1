//! Result digests for the cross-storage correctness oracle.
//!
//! A digest is the row count plus a 64-bit hash of the rows. Statements
//! with an ORDER BY hash their rows in order; all others hash the rows
//! as a multiset, since the engine promises no order there and two
//! storages may legitimately return rows in different orders.
//!
//! A string cell holding a JSON object or array is hashed in canonical
//! form, members sorted by key: OSON stores object members in field-id
//! order, so a document read back from OSON is the same JSON value with
//! a different member order (the equality `JsonValue::eq_unordered`
//! defines).

use fsdm::json::{JsonValue, Object};
use fsdm::sqljson::Datum;
use fsdm::store::QueryResult;

/// Row count plus row hash of one statement result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Number of result rows.
    pub rows: u64,
    /// Order-aware or multiset hash of the rows.
    pub hash: u64,
}

impl Digest {
    /// Digest a materialized result.
    pub fn of(result: &QueryResult, ordered: bool) -> Digest {
        let mut hash = if ordered { FNV_OFFSET } else { 0 };
        for row in &result.rows {
            let h = row_hash(row);
            hash = if ordered {
                fnv(hash, &h.to_le_bytes())
            } else {
                // a commutative combination of well-mixed row hashes is a
                // multiset hash: equal for any permutation of the rows
                hash.wrapping_add(mix(h))
            };
        }
        Digest { rows: result.rows.len() as u64, hash }
    }

    /// Render as `rows:hash` for records and messages.
    pub fn render(&self) -> String {
        format!("{}:{:016x}", self.rows, self.hash)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn row_hash(row: &[Datum]) -> u64 {
    let mut h = FNV_OFFSET;
    for d in row {
        let tag: u8 = match d {
            Datum::Null => 0,
            Datum::Num(_) => 1,
            Datum::Str(_) => 2,
            Datum::Bool(_) => 3,
        };
        h = fnv(h, &[tag]);
        h = fnv(h, canonical_text(d).as_bytes());
        h = fnv(h, &[0xff]);
    }
    h
}

/// A short rendering of a result for the run record: the rows
/// themselves when there are at most three, else the row count.
pub fn show(result: &QueryResult) -> String {
    if result.rows.len() > 3 {
        return format!("{} rows", result.rows.len());
    }
    let rows: Vec<String> = result
        .rows
        .iter()
        .map(|r| r.iter().map(Datum::to_text).collect::<Vec<_>>().join(", "))
        .map(|r| if r.len() > 120 { format!("{}…", &r[..r.floor_char_boundary(120)]) } else { r })
        .map(|r| format!("({r})"))
        .collect();
    format!("{} rows: {}", result.rows.len(), rows.join(" "))
}

/// The cell's text, with JSON containers in canonical member order.
fn canonical_text(d: &Datum) -> String {
    if let Datum::Str(s) = d {
        if s.starts_with('{') || s.starts_with('[') {
            if let Ok(v) = fsdm::json::parse(s) {
                return fsdm::json::to_string(&canonical(v));
            }
        }
    }
    d.to_text()
}

/// `v` with every object's members sorted by key (ties by value text).
pub fn canonical(v: JsonValue) -> JsonValue {
    match v {
        JsonValue::Object(o) => {
            let mut members: Vec<(String, JsonValue, String)> = o
                .iter()
                .map(|(k, v)| {
                    let v = canonical(v.clone());
                    let text = fsdm::json::to_string(&v);
                    (k.to_string(), v, text)
                })
                .collect();
            members.sort_by(|a, b| (&a.0, &a.2).cmp(&(&b.0, &b.2)));
            let mut out = Object::with_capacity(members.len());
            for (k, v, _) in members {
                out.push(k, v);
            }
            JsonValue::Object(out)
        }
        JsonValue::Array(items) => JsonValue::Array(items.into_iter().map(canonical).collect()),
        scalar => scalar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rows: Vec<Vec<Datum>>) -> QueryResult {
        QueryResult { columns: vec!["a".into(), "b".into()], rows }
    }

    #[test]
    fn multiset_digest_ignores_order_but_ordered_does_not() {
        let a = vec![Datum::from(1i64), Datum::from("x")];
        let b = vec![Datum::from(2i64), Datum::Null];
        let r1 = result(vec![a.clone(), b.clone()]);
        let r2 = result(vec![b, a]);
        assert_eq!(Digest::of(&r1, false), Digest::of(&r2, false));
        assert_ne!(Digest::of(&r1, true), Digest::of(&r2, true));
    }

    #[test]
    fn digest_separates_types_and_cells() {
        let r1 = result(vec![vec![Datum::from("1"), Datum::from("")]]);
        let r2 = result(vec![vec![Datum::from(1i64), Datum::from("")]]);
        let r3 = result(vec![vec![Datum::from(""), Datum::from("1")]]);
        assert_ne!(Digest::of(&r1, false), Digest::of(&r2, false));
        assert_ne!(Digest::of(&r1, false), Digest::of(&r3, false));
    }

    #[test]
    fn json_cells_compare_as_unordered_objects() {
        let r1 = result(vec![vec![Datum::from(r#"{"a":1,"b":[{"d":2,"c":3}]}"#)]]);
        let r2 = result(vec![vec![Datum::from(r#"{"b":[{"c":3,"d":2}],"a":1}"#)]]);
        let r3 = result(vec![vec![Datum::from(r#"{"b":[{"c":2,"d":3}],"a":1}"#)]]);
        assert_eq!(Digest::of(&r1, true), Digest::of(&r2, true));
        assert_ne!(Digest::of(&r1, true), Digest::of(&r3, true));
    }
}
