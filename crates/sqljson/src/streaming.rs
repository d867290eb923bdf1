//! The streaming path engine over JSON text (§5.1).
//!
//! A path is evaluated in one pass over the text by a recursive matcher
//! driven over a borrowed [`Scanner`]. Object keys are compared as raw
//! bytes against the step name; every value the path cannot reach is
//! validated and skipped without allocating; only the values the path
//! selects are parsed into [`JsonValue`]s. The pass validates the whole
//! document, so evaluation fails exactly when [`fsdm_json::parse`]
//! fails (an existence test alone stops at the first match).
//!
//! Field steps, `[*]` and ascending absolute array selectors stream, with
//! lax implicit wrapping and unwrapping (or none, in strict mode).
//! Complex operators — filters, `last`, item methods, field wildcards —
//! "require the engine to memorize event sequences". For those paths the
//! matcher streams the longest streamable prefix
//! ([`JsonPath::streamable_prefix_len`]) and the DOM engine runs the
//! rest of the path on each captured subtree only. That is exact: each
//! DOM step maps every item on its own, and filter operands are
//! `@`-relative, so nothing outside a captured subtree is ever consulted.

use fsdm_json::{JsonDom, JsonError, JsonValue, Scanner, ValueDom, MAX_DEPTH};

use crate::engine::{eval_steps, PathOutput};
use crate::path::{ArraySel, IndexExpr, JsonPath, Mode, Step};

/// Evaluate a path over JSON text, materializing every match in the
/// order the DOM engine yields them.
pub fn eval_text(text: &str, path: &JsonPath) -> Result<Vec<JsonValue>, JsonError> {
    let (prefix, rest) = path.steps.split_at(path.streamable_prefix_len());
    let captured = stream(text, prefix, path.mode, false)?.values;
    if rest.is_empty() {
        return Ok(captured);
    }
    let _span = dom_engine_span();
    let mut out = Vec::new();
    for v in &captured {
        let dom = ValueDom::new(v);
        out.extend(eval_steps(&dom, dom.root(), rest, path.mode).into_iter().map(|o| match o {
            PathOutput::Node(n) => dom.materialize(n),
            PathOutput::Computed(v) => v,
        }));
    }
    Ok(out)
}

/// Existence test over JSON text. A streamable path stops at its first
/// match without reading the rest of the document.
pub fn exists_text(text: &str, path: &JsonPath) -> Result<bool, JsonError> {
    let (prefix, rest) = path.steps.split_at(path.streamable_prefix_len());
    if rest.is_empty() {
        return Ok(stream(text, prefix, path.mode, true)?.found);
    }
    let captured = stream(text, prefix, path.mode, false)?.values;
    let _span = dom_engine_span();
    Ok(captured.iter().any(|v| {
        let dom = ValueDom::new(v);
        !eval_steps(&dom, dom.root(), rest, path.mode).is_empty()
    }))
}

/// Trace the DOM engine's share of a text evaluation (the rest of the
/// path over the captured subtrees) as a `sqljson.eval` span. The
/// `sqljson.eval.*` counters stay with [`crate::PathEvaluator`], which
/// this route does not use.
fn dom_engine_span() -> fsdm_obs::trace::SpanGuard {
    fsdm_obs::trace::span(fsdm_obs::catalog::SPAN_SQLJSON_EVAL)
}

/// Run the matcher for streamable `steps` over `text`.
fn stream<'p>(
    text: &str,
    steps: &'p [Step],
    mode: Mode,
    exists_only: bool,
) -> Result<Matcher<'p>, JsonError> {
    let mut m =
        Matcher { steps, lax: mode == Mode::Lax, exists_only, values: Vec::new(), found: false };
    let mut sc = Scanner::new(text);
    m.value(&mut sc, 0, 0, false)?;
    if !m.done() {
        sc.finish()?;
    }
    Ok(m)
}

/// One streaming evaluation: the steps still to apply are identified by
/// their index into `steps`; a value reached with index `steps.len()` is
/// a match.
struct Matcher<'p> {
    steps: &'p [Step],
    lax: bool,
    exists_only: bool,
    values: Vec<JsonValue>,
    found: bool,
}

impl Matcher<'_> {
    /// An existence test is decided by its first match.
    fn done(&self) -> bool {
        self.exists_only && self.found
    }

    /// Apply `steps[i..]` to the value at the cursor, `depth` containers
    /// deep. `unwrapped` marks an array element a field step reached by
    /// lax unwrapping: the step applies to it if it is an object, and
    /// never unwraps a second array level (as in the DOM engine).
    fn value(
        &mut self,
        sc: &mut Scanner<'_>,
        depth: usize,
        i: usize,
        unwrapped: bool,
    ) -> Result<(), JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("maximum nesting depth exceeded"));
        }
        let Some(step) = self.steps.get(i) else {
            self.found = true;
            if !self.exists_only {
                self.values.push(sc.parse_value(depth)?);
            }
            return Ok(());
        };
        let next = sc.peek();
        match step {
            Step::Field { name, .. } if next == Some(b'{') => self.object(sc, depth, i, name),
            Step::Field { .. } if next == Some(b'[') && self.lax && !unwrapped => {
                self.array(sc, depth, i)
            }
            Step::ArrayWildcard | Step::Array(_) if next == Some(b'[') => self.array(sc, depth, i),
            // lax wrap: a non-array is the one-element array [value]
            Step::ArrayWildcard if self.lax => self.value(sc, depth, i + 1, false),
            Step::Array(sels) if self.lax && selects(sels, 0) => {
                self.value(sc, depth, i + 1, false)
            }
            _ => sc.skip_value(depth),
        }
    }

    /// Field step `steps[i]` over the object at the cursor. Only the
    /// first member with the name is followed, as in every DOM backend.
    fn object(
        &mut self,
        sc: &mut Scanner<'_>,
        depth: usize,
        i: usize,
        name: &str,
    ) -> Result<(), JsonError> {
        let mut followed = false;
        let mut more = sc.object_start()?;
        while more {
            let key = sc.key()?;
            if !followed && key.is(name) {
                followed = true;
                self.value(sc, depth + 1, i + 1, false)?;
                if self.done() {
                    return Ok(());
                }
            } else {
                sc.skip_value(depth + 1)?;
            }
            more = sc.object_next()?;
        }
        Ok(())
    }

    /// Step `steps[i]` over the array at the cursor: array steps select
    /// elements; a field step unwraps (lax) to the elements.
    fn array(&mut self, sc: &mut Scanner<'_>, depth: usize, i: usize) -> Result<(), JsonError> {
        let mut idx = 0;
        let mut more = sc.array_start()?;
        while more {
            match self.steps.get(i) {
                Some(Step::Field { .. }) => self.value(sc, depth + 1, i, true)?,
                Some(Step::ArrayWildcard) => self.value(sc, depth + 1, i + 1, false)?,
                Some(Step::Array(sels)) if selects(sels, idx) => {
                    self.value(sc, depth + 1, i + 1, false)?
                }
                _ => sc.skip_value(depth + 1)?,
            }
            if self.done() {
                return Ok(());
            }
            idx += 1;
            more = sc.array_next()?;
        }
        Ok(())
    }
}

/// True when a selector (absolute, as [`JsonPath::streamable_prefix_len`]
/// guarantees) covers element `idx`.
fn selects(sels: &[ArraySel], idx: usize) -> bool {
    sels.iter().any(|s| match s {
        ArraySel::Index(IndexExpr::At(i)) => *i == idx,
        ArraySel::Range(IndexExpr::At(a), IndexExpr::At(b)) => (*a..=*b).contains(&idx),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PathEvaluator;
    use crate::path::parse_path;
    use fsdm_json::parse;

    const PO: &str = r#"{"purchaseOrder":{"id":1,"podate":"2014-09-08","items":[
        {"name":"phone","price":100,"quantity":2},
        {"name":"ipad","price":350.86,"quantity":3},
        {"name":"case","price":15,"quantity":10}]}}"#;

    fn stream(doc: &str, path: &str) -> Vec<JsonValue> {
        let p = parse_path(path).unwrap();
        assert!(p.is_streamable(), "{path} must be streamable");
        eval_text(doc, &p).unwrap()
    }

    fn via_dom(doc: &str, path: &str) -> Vec<JsonValue> {
        let v = parse(doc).unwrap();
        let dom = ValueDom::new(&v);
        PathEvaluator::new(parse_path(path).unwrap()).evaluate_values(&dom)
    }

    #[test]
    fn streams_scalars() {
        assert_eq!(stream(PO, "$.purchaseOrder.id"), vec![parse("1").unwrap()]);
        assert_eq!(stream(PO, "$.purchaseOrder.items[1].price"), vec![parse("350.86").unwrap()]);
        assert_eq!(stream(PO, "$.purchaseOrder.items[*].name").len(), 3);
        assert!(stream(PO, "$.purchaseOrder.nothing").is_empty());
    }

    #[test]
    fn streams_containers() {
        let items = stream(PO, "$.purchaseOrder.items");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].as_array().unwrap().len(), 3);
        let first = stream(PO, "$.purchaseOrder.items[0]");
        assert_eq!(first[0].get("name").unwrap().as_str(), Some("phone"));
    }

    #[test]
    fn lax_unwrap_in_stream() {
        assert_eq!(stream(PO, "$.purchaseOrder.items.name").len(), 3);
        // one array level only
        assert!(stream(r#"{"a":[[{"b":1}]]}"#, "$.a.b").is_empty());
    }

    #[test]
    fn lax_wrap_in_stream() {
        assert_eq!(stream(PO, "$.purchaseOrder.id[0]"), vec![parse("1").unwrap()]);
        assert_eq!(stream(PO, "$.purchaseOrder.id[*]"), vec![parse("1").unwrap()]);
        assert!(stream(PO, "$.purchaseOrder.id[1]").is_empty());
    }

    #[test]
    fn strict_mode_neither_wraps_nor_unwraps() {
        let doc = r#"{"items":[{"p":1},{"p":2}],"s":5}"#;
        for path in ["strict $.items.p", "strict $.s[0]", "strict $.s[*]", "strict $.items[*].p"] {
            assert_eq!(stream(doc, path), via_dom(doc, path), "{path}");
        }
        assert!(stream(doc, "strict $.items.p").is_empty());
    }

    #[test]
    fn range_selectors() {
        assert_eq!(stream(PO, "$.purchaseOrder.items[0 to 1].price").len(), 2);
        assert_eq!(stream(PO, "$.purchaseOrder.items[0,2].price").len(), 2);
    }

    #[test]
    fn exists_short_circuits() {
        let p = parse_path("$.purchaseOrder.items[*].price").unwrap();
        assert!(exists_text(PO, &p).unwrap());
        let p2 = parse_path("$.zz").unwrap();
        assert!(!exists_text(PO, &p2).unwrap());
        // the first match decides; the rest of the text is not read
        assert!(exists_text(r#"{"a":1,"b":"#, &parse_path("$.a").unwrap()).unwrap());
        assert!(exists_text(r#"{"a":1,"b""#, &parse_path("$.b").unwrap()).is_err());
    }

    #[test]
    fn agrees_with_dom_engine() {
        let paths = [
            "$.purchaseOrder.id",
            "$.purchaseOrder.items",
            "$.purchaseOrder.items[*]",
            "$.purchaseOrder.items[1 to 2].name",
            "$.purchaseOrder.items.quantity",
            "$.purchaseOrder.id[0]",
            // prefix route: streamed prefix, DOM rest
            "$.purchaseOrder.items[*]?(@.price > 100).name",
            "$.purchaseOrder.items[last].name",
            "$.purchaseOrder.items[2, 0].name",
            "$.purchaseOrder.items.size()",
            "$.purchaseOrder.*",
        ];
        for p in paths {
            let text = eval_text(PO, &parse_path(p).unwrap()).unwrap();
            let dom = via_dom(PO, p);
            assert_eq!(text.len(), dom.len(), "{p}");
            for (a, b) in text.iter().zip(&dom) {
                assert!(a.eq_unordered(b), "{p}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn eval_text_streams_the_prefix_of_filter_paths() {
        let p = parse_path("$.purchaseOrder.items[*]?(@.price > 100).name").unwrap();
        assert!(!p.is_streamable());
        assert_eq!(p.streamable_prefix_len(), 3);
        let r = eval_text(PO, &p).unwrap();
        assert_eq!(r, vec![parse("\"ipad\"").unwrap()]);
        assert!(exists_text(PO, &p).unwrap());
        let none = parse_path("$.purchaseOrder.items[*]?(@.price > 1000)").unwrap();
        assert!(!exists_text(PO, &none).unwrap());
    }

    #[test]
    fn nested_capture_regions() {
        // the array itself and one of its elements both match
        let doc = r#"{"a":[[5],[6]]}"#;
        let r = stream(doc, "$.a[*]");
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], parse("[5]").unwrap());
    }

    #[test]
    fn duplicate_keys_follow_the_first_member() {
        let doc = r#"{"a":1,"a":2}"#;
        assert_eq!(stream(doc, "$.a"), vec![parse("1").unwrap()]);
        assert_eq!(stream(doc, "$.a"), via_dom(doc, "$.a"));
        // escaped keys are decoded before comparing
        assert_eq!(stream(r#"{"\u0061":3}"#, "$.a"), vec![parse("3").unwrap()]);
    }

    #[test]
    fn rejects_what_parse_rejects() {
        let p = parse_path("$").unwrap();
        for bad in ["[{},]", "[[],]", "{\"a\":[{}, ]}", "{\"a\":1,\"a\":}", "[1] 2", ""] {
            assert!(parse(bad).is_err(), "{bad:?}");
            assert!(eval_text(bad, &p).is_err(), "$ on {bad:?}");
            assert!(eval_text(bad, &parse_path("$.zz").unwrap()).is_err(), "$.zz on {bad:?}");
        }
    }
}
