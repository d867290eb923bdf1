//! `JSON_TABLE()`: the virtual table that projects relational rows out of
//! a JSON document (§3.3.2, §5.1).
//!
//! A definition has a row path, a list of columns, and nested
//! definitions. Semantics follow the paper exactly:
//!
//! * a **child** NESTED PATH un-nests its array with *left-outer-join*
//!   semantics — the parent row appears (with NULL child columns) even if
//!   the nested path matches nothing;
//! * **sibling** NESTED PATHs at the same level combine with *union join*
//!   semantics — "a full outer join with an impossible condition": each
//!   sibling's rows appear with every other sibling's columns NULL, never
//!   as a cross product.
//!
//! Execution is exposed through the row-source shape of §5.1
//! (`start()`, `fetch_next_batch()`, `close()`), as a built-in SQL
//! iterator would be.

use fsdm_json::{JsonDom, NodeRef};

use crate::datum::{Datum, SqlType};
use crate::engine::PathEvaluator;
use crate::ops::{json_value, OnError};
use crate::path::JsonPath;

/// Column kinds of a JSON_TABLE definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColKind {
    /// Ordinary `PATH` column: JSON_VALUE semantics.
    Value,
    /// `EXISTS PATH` column: 1/0.
    Exists,
    /// `FOR ORDINALITY`: 1-based row number within the row set of this
    /// nesting level.
    Ordinality,
}

/// One output column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name in the produced row.
    pub name: String,
    /// SQL type the value is coerced to.
    pub ty: SqlType,
    /// Column path, relative to the row node (ignored for Ordinality).
    pub path: JsonPath,
    /// Column kind.
    pub kind: ColKind,
}

impl ColumnDef {
    /// Ordinary value column.
    pub fn value(name: impl Into<String>, ty: SqlType, path: JsonPath) -> Self {
        ColumnDef { name: name.into(), ty, path, kind: ColKind::Value }
    }

    /// EXISTS column.
    pub fn exists(name: impl Into<String>, path: JsonPath) -> Self {
        ColumnDef { name: name.into(), ty: SqlType::Number, path, kind: ColKind::Exists }
    }

    /// FOR ORDINALITY column.
    pub fn ordinality(name: impl Into<String>) -> Self {
        let path = crate::path::parse_path("$").expect("static path");
        ColumnDef { name: name.into(), ty: SqlType::Number, path, kind: ColKind::Ordinality }
    }
}

/// A NESTED PATH block.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedDef {
    /// Row path relative to the parent row node.
    pub path: JsonPath,
    /// Columns of this block.
    pub columns: Vec<ColumnDef>,
    /// Child blocks (outer-joined below this block's rows).
    pub nested: Vec<NestedDef>,
}

/// A complete JSON_TABLE definition.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonTableDef {
    /// Root row path (evaluated against the document root).
    pub row_path: JsonPath,
    /// Columns at the root level.
    pub columns: Vec<ColumnDef>,
    /// NESTED PATH blocks (siblings union-join; each child outer-joins).
    pub nested: Vec<NestedDef>,
}

impl JsonTableDef {
    /// All output column names in positional order (this level's columns,
    /// then each nested block's, depth-first — matching the generated
    /// view's SELECT list).
    pub fn column_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk_cols(cols: &[ColumnDef], nested: &[NestedDef], out: &mut Vec<String>) {
            for c in cols {
                out.push(c.name.clone());
            }
            for n in nested {
                walk_cols(&n.columns, &n.nested, out);
            }
        }
        walk_cols(&self.columns, &self.nested, &mut out);
        out
    }

    /// Total output width.
    pub fn width(&self) -> usize {
        fn w(cols: &[ColumnDef], nested: &[NestedDef]) -> usize {
            cols.len() + nested.iter().map(|n| w(&n.columns, &n.nested)).sum::<usize>()
        }
        w(&self.columns, &self.nested)
    }

    /// Compute all rows for one document. Convenience wrapper building a
    /// fresh cursor; hot loops over many documents should build one
    /// [`JsonTableCursor`] and reuse it so path evaluators (and their
    /// field-id look-back caches, §4.2.1) persist across documents.
    pub fn rows<D: JsonDom>(&self, dom: &D) -> Vec<Vec<Datum>> {
        JsonTableCursor::new(self).rows(dom)
    }

    /// Open a row-source cursor over one document (§5.1's start()).
    pub fn start<D: JsonDom>(&self, dom: &D) -> JsonTableExec {
        JsonTableExec { rows: self.rows(dom), pos: 0, closed: false }
    }
}

/// Reusable execution state for one JSON_TABLE definition: one compiled
/// evaluator per path, kept across documents.
pub struct JsonTableCursor {
    width: usize,
    root_cols: usize,
    row_ev: PathEvaluator,
    cols: Vec<ColCursor>,
    nested: Vec<NestedCursor>,
}

struct ColCursor {
    kind: ColKind,
    ty: SqlType,
    ev: PathEvaluator,
}

struct NestedCursor {
    width: usize,
    cols_len: usize,
    path_ev: PathEvaluator,
    cols: Vec<ColCursor>,
    nested: Vec<NestedCursor>,
}

fn build_cols(cols: &[ColumnDef]) -> Vec<ColCursor> {
    cols.iter()
        .map(|c| ColCursor { kind: c.kind, ty: c.ty, ev: PathEvaluator::new(c.path.clone()) })
        .collect()
}

fn build_nested(defs: &[NestedDef]) -> Vec<NestedCursor> {
    defs.iter()
        .map(|n| NestedCursor {
            width: block_total_width(n),
            cols_len: n.columns.len(),
            path_ev: PathEvaluator::new(n.path.clone()),
            cols: build_cols(&n.columns),
            nested: build_nested(&n.nested),
        })
        .collect()
}

impl JsonTableCursor {
    /// Compile the definition's paths once.
    pub fn new(def: &JsonTableDef) -> Self {
        JsonTableCursor {
            width: def.width(),
            root_cols: def.columns.len(),
            row_ev: PathEvaluator::new(def.row_path.clone()),
            cols: build_cols(&def.columns),
            nested: build_nested(&def.nested),
        }
    }

    /// Compute all rows for one document.
    pub fn rows<D: JsonDom>(&mut self, dom: &D) -> Vec<Vec<Datum>> {
        let width = self.width;
        let mut out = Vec::new();
        let row_nodes = node_outputs(self.row_ev.evaluate(dom));
        for (ord, row_node) in row_nodes.iter().enumerate() {
            let mut base = vec![Datum::Null; width];
            fill_columns(dom, *row_node, &mut self.cols, 0, ord + 1, &mut base);
            expand_nested(dom, *row_node, &mut self.nested, self.root_cols, &base, &mut out);
        }
        out
    }
}

/// Recursively expand nested blocks below one parent row.
fn expand_nested<D: JsonDom>(
    dom: &D,
    row_node: NodeRef,
    nested: &mut [NestedCursor],
    col_base: usize,
    base: &[Datum],
    out: &mut Vec<Vec<Datum>>,
) {
    if nested.is_empty() {
        out.push(base.to_vec());
        return;
    }
    // compute each sibling block's rows independently (union join)
    let mut any = false;
    let mut offset = col_base;
    for block in nested {
        let block_width = block.width;
        let rows = block_rows(dom, row_node, block, base.len(), offset);
        if !rows.is_empty() {
            any = true;
            for r in rows {
                // merge block cells over the base row
                let mut row = base.to_vec();
                for (i, cell) in r.into_iter().enumerate().skip(offset) {
                    if !cell.is_null() {
                        row[i] = cell;
                    }
                }
                out.push(row);
            }
        }
        offset += block_width;
    }
    if !any {
        // left outer join: parent row survives with NULL nested columns
        out.push(base.to_vec());
    }
}

fn block_total_width(b: &NestedDef) -> usize {
    b.columns.len() + b.nested.iter().map(block_total_width).sum::<usize>()
}

/// Rows contributed by one nested block under one parent row node. Each
/// returned row is full-width with only this block's region populated.
fn block_rows<D: JsonDom>(
    dom: &D,
    parent: NodeRef,
    block: &mut NestedCursor,
    width: usize,
    offset: usize,
) -> Vec<Vec<Datum>> {
    let nodes = node_outputs(block.path_ev.evaluate_from(dom, parent));
    let mut out = Vec::new();
    let cols_len = block.cols_len;
    for (ord, node) in nodes.iter().enumerate() {
        let mut row = vec![Datum::Null; width];
        fill_columns(dom, *node, &mut block.cols, offset, ord + 1, &mut row);
        let mut expanded = Vec::new();
        expand_nested(dom, *node, &mut block.nested, offset + cols_len, &row, &mut expanded);
        out.extend(expanded);
    }
    out
}

fn fill_columns<D: JsonDom>(
    dom: &D,
    node: NodeRef,
    cols: &mut [ColCursor],
    offset: usize,
    ordinality: usize,
    row: &mut [Datum],
) {
    for (i, col) in cols.iter_mut().enumerate() {
        let cell = match col.kind {
            ColKind::Ordinality => Datum::from(ordinality as i64),
            ColKind::Exists => Datum::from(i64::from(!col.ev.evaluate_from(dom, node).is_empty())),
            ColKind::Value => json_value_from(dom, node, &mut col.ev, col.ty),
        };
        row[offset + i] = cell;
    }
}

/// JSON_VALUE semantics (NULL ON ERROR) evaluated from a context node.
fn json_value_from<D: JsonDom>(
    dom: &D,
    node: NodeRef,
    ev: &mut PathEvaluator,
    ty: SqlType,
) -> Datum {
    // reuse the operator by substituting the start node
    struct Rooted<'a, D: JsonDom> {
        inner: &'a D,
        root: NodeRef,
    }
    impl<D: JsonDom> JsonDom for Rooted<'_, D> {
        fn root(&self) -> NodeRef {
            self.root
        }
        fn kind(&self, n: NodeRef) -> fsdm_json::NodeKind {
            self.inner.kind(n)
        }
        fn object_len(&self, n: NodeRef) -> usize {
            self.inner.object_len(n)
        }
        fn object_entry(&self, n: NodeRef, i: usize) -> (&str, NodeRef) {
            self.inner.object_entry(n, i)
        }
        fn array_len(&self, n: NodeRef) -> usize {
            self.inner.array_len(n)
        }
        fn array_element(&self, n: NodeRef, i: usize) -> NodeRef {
            self.inner.array_element(n, i)
        }
        fn scalar(&self, n: NodeRef) -> fsdm_json::ScalarRef<'_> {
            self.inner.scalar(n)
        }
        fn get_field(&self, n: NodeRef, name: &str, hash: u32) -> Option<NodeRef> {
            self.inner.get_field(n, name, hash)
        }
        fn field_id(&self, name: &str, hash: u32) -> Option<fsdm_json::FieldId> {
            self.inner.field_id(name, hash)
        }
        fn get_field_by_id(&self, n: NodeRef, id: fsdm_json::FieldId) -> Option<NodeRef> {
            self.inner.get_field_by_id(n, id)
        }
        fn dict_fingerprint(&self) -> u64 {
            self.inner.dict_fingerprint()
        }
    }
    let rooted = Rooted { inner: dom, root: node };
    json_value(&rooted, ev, ty, OnError::Null).unwrap_or(Datum::Null)
}

fn node_outputs(outs: Vec<crate::engine::PathOutput>) -> Vec<NodeRef> {
    outs.into_iter()
        .filter_map(|o| match o {
            crate::engine::PathOutput::Node(n) => Some(n),
            crate::engine::PathOutput::Computed(_) => None,
        })
        .collect()
}

/// The open row source: `fetch_next_batch()` until empty, then `close()`.
pub struct JsonTableExec {
    rows: Vec<Vec<Datum>>,
    pos: usize,
    closed: bool,
}

impl JsonTableExec {
    /// Fetch up to `n` rows; an empty slice signals end of data.
    pub fn fetch_next_batch(&mut self, n: usize) -> &[Vec<Datum>] {
        assert!(!self.closed, "fetch after close");
        let start = self.pos;
        let end = (self.pos + n).min(self.rows.len());
        self.pos = end;
        &self.rows[start..end]
    }

    /// Rows remaining.
    pub fn remaining(&self) -> usize {
        self.rows.len() - self.pos
    }

    /// Close the row source.
    pub fn close(&mut self) {
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;
    use fsdm_json::{parse, ValueDom};

    fn p(s: &str) -> JsonPath {
        parse_path(s).unwrap()
    }

    /// The Table 8 document shape: items with nested parts, plus sibling
    /// discount_items.
    const DOC: &str = r#"{"purchaseOrder":{"id":3,"podate":"2015-06-03","foreign_id":"CDEG35",
      "items":[
        {"name":"TV","price":345.55,"quantity":1,
         "parts":[{"partName":"remoteCon","partQuantity":"1"},
                  {"partName":"power cord","partQuantity":"1"}]},
        {"name":"PC","price":546.78,"quantity":10,
         "parts":[{"partName":"mouse","partQuantity":"2"},
                  {"partName":"keyboard","partQuantity":"1"}]}],
      "discount_items":[
        {"dis_itemName":"lamp","dis_itemPrice":10.5,
         "dis_parts":[{"dis_partName":"bulb","dis_partQuantity":2}]}]}}"#;

    fn table8_def() -> JsonTableDef {
        JsonTableDef {
            row_path: p("$"),
            columns: vec![
                ColumnDef::value("id", SqlType::Number, p("$.purchaseOrder.id")),
                ColumnDef::value("podate", SqlType::Varchar2(16), p("$.purchaseOrder.podate")),
                ColumnDef::value(
                    "foreign_id",
                    SqlType::Varchar2(8),
                    p("$.purchaseOrder.foreign_id"),
                ),
            ],
            nested: vec![
                NestedDef {
                    path: p("$.purchaseOrder.items[*]"),
                    columns: vec![
                        ColumnDef::value("name", SqlType::Varchar2(8), p("$.name")),
                        ColumnDef::value("price", SqlType::Number, p("$.price")),
                        ColumnDef::value("quantity", SqlType::Number, p("$.quantity")),
                    ],
                    nested: vec![NestedDef {
                        path: p("$.parts[*]"),
                        columns: vec![
                            ColumnDef::value("partName", SqlType::Varchar2(16), p("$.partName")),
                            ColumnDef::value(
                                "partQuantity",
                                SqlType::Varchar2(4),
                                p("$.partQuantity"),
                            ),
                        ],
                        nested: vec![],
                    }],
                },
                NestedDef {
                    path: p("$.purchaseOrder.discount_items[*]"),
                    columns: vec![
                        ColumnDef::value("dis_itemName", SqlType::Varchar2(8), p("$.dis_itemName")),
                        ColumnDef::value("dis_itemPrice", SqlType::Number, p("$.dis_itemPrice")),
                    ],
                    nested: vec![NestedDef {
                        path: p("$.dis_parts[*]"),
                        columns: vec![ColumnDef::value(
                            "dis_partName",
                            SqlType::Varchar2(16),
                            p("$.dis_partName"),
                        )],
                        nested: vec![],
                    }],
                },
            ],
        }
    }

    #[test]
    fn column_layout() {
        let def = table8_def();
        assert_eq!(
            def.column_names(),
            vec![
                "id",
                "podate",
                "foreign_id",
                "name",
                "price",
                "quantity",
                "partName",
                "partQuantity",
                "dis_itemName",
                "dis_itemPrice",
                "dis_partName"
            ]
        );
        assert_eq!(def.width(), 11);
    }

    #[test]
    fn dmdv_expansion_child_outer_and_sibling_union() {
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let rows = table8_def().rows(&dom);
        // items block: 2 items × 2 parts = 4 rows; discount block: 1 item ×
        // 1 part = 1 row; union join → 5 rows total
        assert_eq!(rows.len(), 5);
        // master fields repeat on every row
        for r in &rows {
            assert_eq!(r[0], Datum::from(3i64));
            assert_eq!(r[2], Datum::from("CDEG35"));
        }
        // item rows have NULL discount columns and vice versa (union join)
        let item_rows: Vec<_> = rows.iter().filter(|r| !r[3].is_null()).collect();
        let disc_rows: Vec<_> = rows.iter().filter(|r| !r[8].is_null()).collect();
        assert_eq!(item_rows.len(), 4);
        assert_eq!(disc_rows.len(), 1);
        for r in &item_rows {
            assert!(r[8].is_null() && r[9].is_null() && r[10].is_null());
        }
        for r in &disc_rows {
            assert!(r[3].is_null() && r[4].is_null());
            assert_eq!(r[10], Datum::from("bulb"));
        }
    }

    #[test]
    fn outer_join_keeps_parent_without_details() {
        let doc = r#"{"purchaseOrder":{"id":9,"podate":"2016-01-01","items":[]}}"#;
        let v = parse(doc).unwrap();
        let dom = ValueDom::new(&v);
        let rows = table8_def().rows(&dom);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Datum::from(9i64));
        assert!(rows[0][3].is_null(), "no item columns");
    }

    #[test]
    fn items_without_parts_outer_join() {
        let doc = r#"{"purchaseOrder":{"id":1,"items":[{"name":"x","price":5,"quantity":1}]}}"#;
        let v = parse(doc).unwrap();
        let dom = ValueDom::new(&v);
        let rows = table8_def().rows(&dom);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3], Datum::from("x"));
        assert!(rows[0][6].is_null(), "partName is NULL");
    }

    #[test]
    fn ordinality_and_exists_columns() {
        let def = JsonTableDef {
            row_path: p("$.purchaseOrder.items[*]"),
            columns: vec![
                ColumnDef::ordinality("seq"),
                ColumnDef::value("name", SqlType::Varchar2(8), p("$.name")),
                ColumnDef::exists("has_parts", p("$.parts")),
            ],
            nested: vec![],
        };
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let rows = def.rows(&dom);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Datum::from(1i64));
        assert_eq!(rows[1][0], Datum::from(2i64));
        assert_eq!(rows[0][2], Datum::from(1i64));
    }

    #[test]
    fn row_source_batching() {
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let def = table8_def();
        let mut exec = def.start(&dom);
        assert_eq!(exec.remaining(), 5);
        assert_eq!(exec.fetch_next_batch(2).len(), 2);
        assert_eq!(exec.fetch_next_batch(10).len(), 3);
        assert!(exec.fetch_next_batch(10).is_empty());
        exec.close();
    }

    #[test]
    fn value_coercion_in_columns() {
        // price exceeds varchar2(2): NULL ON ERROR per JSON_VALUE defaults
        let def = JsonTableDef {
            row_path: p("$.purchaseOrder.items[*]"),
            columns: vec![ColumnDef::value("price", SqlType::Varchar2(2), p("$.price"))],
            nested: vec![],
        };
        let v = parse(DOC).unwrap();
        let dom = ValueDom::new(&v);
        let rows = def.rows(&dom);
        assert!(rows.iter().all(|r| r[0].is_null()));
    }
}
