//! Borrowed, validating scanner over JSON text.
//!
//! §5.1 of the paper evaluates SQL/JSON paths over textual JSON in one
//! streaming pass. [`Scanner`] is the substrate of that pass: the path
//! engine in `fsdm-sqljson` walks containers member by member, compares
//! object keys as raw bytes against its step names, parses only the
//! values a path reaches into [`JsonValue`]s and hands every other value
//! to [`Scanner::skip_value`], which validates it without allocating.
//!
//! The scanner accepts exactly the documents [`crate::parse`] accepts,
//! including its [`MAX_DEPTH`] nesting limit, provided the caller drives
//! it the way [`Scanner::skip_value`] does: every value read through
//! [`Scanner::skip_value`] or [`Scanner::parse_value`] at its nesting
//! depth, and [`Scanner::finish`] after the root value.

use crate::error::{JsonError, Result};
use crate::parse::{Parser, MAX_DEPTH};
use crate::value::JsonValue;

/// A cursor over one JSON text.
pub struct Scanner<'a> {
    p: Parser<'a>,
}

/// An object member key, borrowed from the text.
#[derive(Debug, Clone, Copy)]
pub struct Key<'a> {
    /// The key's bytes between the quotes, escapes left as written.
    raw: &'a [u8],
    /// True when `raw` contains a backslash escape.
    escaped: bool,
}

impl Key<'_> {
    /// True when the key equals `name`. Only a key that contains an
    /// escape is decoded (and allocates); every other key is compared as
    /// raw bytes.
    pub fn is(&self, name: &str) -> bool {
        if !self.escaped {
            return self.raw == name.as_bytes();
        }
        let mut quoted = Vec::with_capacity(self.raw.len() + 2);
        quoted.push(b'"');
        quoted.extend_from_slice(self.raw);
        quoted.push(b'"');
        // the scanner validated the escapes when it read the key
        Parser::new(&quoted).parse_string().is_ok_and(|k| k == name)
    }
}

impl<'a> Scanner<'a> {
    /// Scan `text`. Taking `&str` means every byte range between ASCII
    /// delimiters is valid UTF-8, so skipped strings need no UTF-8 check.
    pub fn new(text: &'a str) -> Self {
        Scanner { p: Parser::new(text.as_bytes()) }
    }

    /// The next significant byte (whitespace skipped), not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.p.skip_ws();
        self.p.peek()
    }

    /// Parse the value at the cursor, nested `depth` containers deep.
    pub fn parse_value(&mut self, depth: usize) -> Result<JsonValue> {
        self.p.parse_value(depth)
    }

    /// Validate and step over the value at the cursor, nested `depth`
    /// containers deep, without building anything.
    pub fn skip_value(&mut self, depth: usize) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("maximum nesting depth exceeded", self.p.pos));
        }
        match self.peek() {
            Some(b'{') => {
                let mut more = self.object_start()?;
                while more {
                    self.key()?;
                    self.skip_value(depth + 1)?;
                    more = self.object_next()?;
                }
                Ok(())
            }
            Some(b'[') => {
                let mut more = self.array_start()?;
                while more {
                    self.skip_value(depth + 1)?;
                    more = self.array_next()?;
                }
                Ok(())
            }
            Some(b'"') => self.skip_string().map(drop),
            Some(b't') => self.p.keyword(b"true"),
            Some(b'f') => self.p.keyword(b"false"),
            Some(b'n') => self.p.keyword(b"null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.p.scan_number(),
            Some(c) => {
                Err(JsonError::at(format!("unexpected character {:?}", c as char), self.p.pos))
            }
            None => Err(JsonError::at("unexpected end of input", self.p.pos)),
        }
    }

    /// Consume the `{` at the cursor. True when a member follows; an
    /// empty object's `}` is consumed here.
    pub fn object_start(&mut self) -> Result<bool> {
        self.open(b'{', b'}')
    }

    /// Read a member key and its `:`; the cursor is left on the value.
    pub fn key(&mut self) -> Result<Key<'a>> {
        self.p.skip_ws();
        let start = self.p.pos + 1;
        let escaped = self.skip_string()?;
        let raw = self.p.input.get(start..self.p.pos - 1).unwrap_or_default();
        self.p.skip_ws();
        if self.p.peek() != Some(b':') {
            return Err(JsonError::at("expected ':'", self.p.pos));
        }
        self.p.pos += 1;
        Ok(Key { raw, escaped })
    }

    /// After a member value: consume `,` (true: another member follows)
    /// or the closing `}` (false).
    pub fn object_next(&mut self) -> Result<bool> {
        self.next(b'}', "expected ',' or '}'")
    }

    /// Consume the `[` at the cursor. True when an element follows; an
    /// empty array's `]` is consumed here.
    pub fn array_start(&mut self) -> Result<bool> {
        self.open(b'[', b']')
    }

    /// After an element: consume `,` (true: another element follows) or
    /// the closing `]` (false).
    pub fn array_next(&mut self) -> Result<bool> {
        self.next(b']', "expected ',' or ']'")
    }

    /// Require that only whitespace follows the root value.
    pub fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(JsonError::at("trailing characters after document", self.p.pos)),
        }
    }

    fn open(&mut self, open: u8, close: u8) -> Result<bool> {
        if self.peek() != Some(open) {
            return Err(JsonError::at(format!("expected {:?}", open as char), self.p.pos));
        }
        self.p.pos += 1;
        if self.peek() == Some(close) {
            self.p.pos += 1;
            return Ok(false);
        }
        Ok(true)
    }

    fn next(&mut self, close: u8, what: &str) -> Result<bool> {
        match self.peek() {
            Some(b',') => {
                self.p.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.p.pos += 1;
                Ok(false)
            }
            _ => Err(JsonError::at(what, self.p.pos)),
        }
    }

    /// Validate and step over a string; true when it contains an escape.
    fn skip_string(&mut self) -> Result<bool> {
        if self.p.peek() != Some(b'"') {
            return Err(JsonError::at("expected '\"'", self.p.pos));
        }
        self.p.pos += 1;
        let mut escaped = false;
        loop {
            // jump to the next byte that ends the string's plain run
            let rest = self.p.input.get(self.p.pos..).unwrap_or_default();
            let run = rest.iter().position(|&c| c == b'"' || c == b'\\' || c < 0x20);
            self.p.pos += run.unwrap_or(rest.len());
            match self.p.peek() {
                Some(b'"') => {
                    self.p.pos += 1;
                    return Ok(escaped);
                }
                Some(b'\\') => {
                    self.p.pos += 1;
                    self.p.parse_escape()?;
                    escaped = true;
                }
                Some(_) => return Err(JsonError::at("unescaped control character", self.p.pos)),
                None => return Err(JsonError::at("unterminated string", self.p.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    /// Validate a whole document the way the path engine drives the
    /// scanner when no path step matches.
    fn scan(text: &str) -> Result<()> {
        let mut s = Scanner::new(text);
        s.skip_value(0)?;
        s.finish()
    }

    fn agrees(text: &str) {
        assert_eq!(
            scan(text).is_ok(),
            parse(text).is_ok(),
            "scanner and parser disagree on {text:?}"
        );
    }

    #[test]
    fn rejects_trailing_commas_after_containers() {
        // a container element never marked the array non-empty, so these
        // were once accepted by the text path engine
        for bad in ["[{},]", "[[],]", "{\"a\":[{}, ]}"] {
            assert!(parse(bad).is_err(), "{bad:?}");
            assert!(scan(bad).is_err(), "scanner must reject {bad:?}");
        }
    }

    #[test]
    fn accepts_iff_parse_accepts() {
        for text in [
            // well-formed
            "42",
            "\"x\"",
            "null",
            "{}",
            "[]",
            " [ { } , [ ] ] ",
            "[[],{}]",
            r#"{"a":1,"b":[true,null]}"#,
            r#"{"k":1,"k":2}"#,
            r#"{"a\nb":"\ud83d\ude00","c":-0.5e+3}"#,
            "12345678901234567890123",
            "1e400",
            // malformed: the old event parser's cases
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1,}",
            "[1]extra",
            "{,}",
            // malformed: the DOM parser's cases
            "",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"a",
            "\"\\q\"",
            "{\"a\":1} extra",
            "[1 2]",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "\"\\u12\"",
            "\"a\u{1}\"",
            "[,1]",
            "[1,,2]",
            "{\"a\":1 \"b\":2}",
            "{1:2}",
            "[1]]",
        ] {
            agrees(text);
        }
    }

    #[test]
    fn depth_limit_matches_parser() {
        for depth in [MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2] {
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            agrees(&nested);
            let with_scalar = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            agrees(&with_scalar);
            let objects = format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
            agrees(&objects);
        }
    }

    #[test]
    fn keys_compare_raw_and_escaped() {
        let mut s = Scanner::new(r#"{"plain":1,"esc\u0061ped":2,"q\"":3}"#);
        assert!(s.object_start().unwrap());
        let k = s.key().unwrap();
        assert!(k.is("plain") && !k.is("plai") && !k.is("escaped"));
        s.skip_value(1).unwrap();
        assert!(s.object_next().unwrap());
        let k = s.key().unwrap();
        assert!(k.is("escaped") && !k.is("esc\\u0061ped"));
        s.skip_value(1).unwrap();
        assert!(s.object_next().unwrap());
        assert!(s.key().unwrap().is("q\""));
        assert_eq!(s.parse_value(1).unwrap(), parse("3").unwrap());
        assert!(!s.object_next().unwrap());
        s.finish().unwrap();
    }
}
