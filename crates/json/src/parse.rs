//! Recursive-descent DOM parser for JSON text (RFC 8259).
//!
//! This is the "costly text parse" path of the paper's TEXT mode (§5.1):
//! evaluating SQL/JSON over textual storage pays this parse per document
//! per query, which is exactly the overhead OSON eliminates.

use crate::error::{JsonError, Result};
use crate::number::JsonNumber;
use crate::value::{JsonValue, Object};

/// Maximum nesting depth accepted (guards against stack exhaustion on
/// adversarial inputs).
pub const MAX_DEPTH: usize = 512;

/// Parse a complete JSON document from a string slice.
pub fn parse(text: &str) -> Result<JsonValue> {
    parse_bytes(text.as_bytes())
}

/// Parse a complete JSON document from UTF-8 bytes.
pub fn parse_bytes(bytes: &[u8]) -> Result<JsonValue> {
    let mut p = Parser::new(bytes);
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(JsonError::at("trailing characters after document", p.pos));
    }
    Ok(v)
}

/// Low-level parser state; exposed so the streaming [`crate::Scanner`]
/// can share scanning primitives.
pub struct Parser<'a> {
    pub(crate) input: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Parser<'a> {
    /// New parser over raw input bytes.
    pub fn new(input: &'a [u8]) -> Self {
        Parser { input, pos: 0 }
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(&c) = self.input.get(self.pos) {
            match c {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(format!("expected {:?}", c as char), self.pos))
        }
    }

    /// Parse one JSON value at the current position.
    pub fn parse_value(&mut self, depth: usize) -> Result<JsonValue> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("maximum nesting depth exceeded", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => {
                self.keyword(b"true")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.keyword(b"false")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.keyword(b"null")?;
                Ok(JsonValue::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Ok(JsonValue::Number(self.parse_number()?))
            }
            Some(c) => {
                Err(JsonError::at(format!("unexpected character {:?}", c as char), self.pos))
            }
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    pub(crate) fn keyword(&mut self, kw: &[u8]) -> Result<()> {
        if self.input[self.pos..].starts_with(kw) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(JsonError::at("invalid literal", self.pos))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue> {
        self.expect(b'{')?;
        let mut obj = Object::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(obj));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value(depth + 1)?;
            obj.push(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(obj));
                }
                _ => return Err(JsonError::at("expected ',' or '}'", self.pos)),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(arr));
        }
        loop {
            let val = self.parse_value(depth + 1)?;
            arr.push(val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(arr));
                }
                _ => return Err(JsonError::at("expected ',' or ']'", self.pos)),
            }
        }
    }

    /// Parse a quoted string at the current position.
    pub(crate) fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: scan for a string without escapes.
        while let Some(&c) = self.input.get(self.pos) {
            match c {
                b'"' => {
                    let s = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| JsonError::at("invalid UTF-8 in string", start))?;
                    self.pos += 1;
                    return Ok(s.to_string());
                }
                b'\\' => break,
                0x00..=0x1F => return Err(JsonError::at("unescaped control character", self.pos)),
                _ => self.pos += 1,
            }
        }
        // Slow path: escapes present.
        let mut out = Vec::with_capacity(self.pos - start + 16);
        out.extend_from_slice(&self.input[start..self.pos]);
        loop {
            match self.input.get(self.pos) {
                None => return Err(JsonError::at("unterminated string", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| JsonError::at("invalid UTF-8 in string", start));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let ch = self.parse_escape()?;
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                }
                Some(&c) if c < 0x20 => {
                    return Err(JsonError::at("unescaped control character", self.pos))
                }
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// Decode one escape sequence; the cursor is just past the backslash.
    pub(crate) fn parse_escape(&mut self) -> Result<char> {
        let esc = self.peek().ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.parse_hex4()?;
                if (0xD800..0xDC00).contains(&cp) {
                    // high surrogate: require a following \uXXXX low surrogate
                    if self.input.get(self.pos) == Some(&b'\\')
                        && self.input.get(self.pos + 1) == Some(&b'u')
                    {
                        self.pos += 2;
                        let low = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(JsonError::at("invalid low surrogate", self.pos));
                        }
                        let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(c)
                            .ok_or_else(|| JsonError::at("bad surrogate pair", self.pos))?
                    } else {
                        return Err(JsonError::at("lone high surrogate", self.pos));
                    }
                } else if (0xDC00..0xE000).contains(&cp) {
                    return Err(JsonError::at("lone low surrogate", self.pos));
                } else {
                    char::from_u32(cp).ok_or_else(|| JsonError::at("bad code point", self.pos))?
                }
            }
            _ => return Err(JsonError::at("invalid escape", self.pos - 1)),
        })
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        if end > self.input.len() {
            return Err(JsonError::at("truncated \\u escape", self.pos));
        }
        let mut v = 0u32;
        for &c in &self.input[self.pos..end] {
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err(JsonError::at("invalid hex digit", self.pos)),
            };
            v = v * 16 + d as u32;
        }
        self.pos = end;
        Ok(v)
    }

    /// Parse a numeric literal at the current position.
    pub(crate) fn parse_number(&mut self) -> Result<JsonNumber> {
        let start = self.pos;
        self.scan_number()?;
        let lit = std::str::from_utf8(&self.input[start..self.pos])
            .expect("a scanned number literal is ASCII");
        JsonNumber::from_literal(lit).map_err(|e| JsonError::at(e.message, start))
    }

    /// Validate and step over a numeric literal (RFC 8259 grammar).
    /// Every literal the grammar accepts converts: `from_literal` falls
    /// back to `f64` for decimals out of `OraNum` range.
    pub(crate) fn scan_number(&mut self) -> Result<()> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // integer part
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(JsonError::at("invalid number", self.pos)),
        }
        // fraction
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(JsonError::at("digit required after '.'", self.pos));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // exponent
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(JsonError::at("digit required in exponent", self.pos));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse("-7.5").unwrap().as_f64(), Some(-7.5));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"purchaseOrder": {"id": 1, "podate": "2014-09-08",
            "items": [{"name":"phone","price":100,"quantity":2},
                      {"name":"ipad","price":350.86,"quantity":3}]}}"#;
        let v = parse(doc).unwrap();
        let po = v.get("purchaseOrder").unwrap();
        assert_eq!(po.get("id").unwrap().as_i64(), Some(1));
        let items = po.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("price").unwrap().as_f64(), Some(350.86));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""a\nb""#).unwrap().as_str(), Some("a\nb"));
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""q\"q""#).unwrap().as_str(), Some("q\"q"));
        assert_eq!(parse(r#""\\\/""#).unwrap().as_str(), Some("\\/"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
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
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(Object::new()));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse(" [ { } , [ ] ] ").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn depth_limit_enforced() {
        let mut s = String::new();
        for _ in 0..(MAX_DEPTH + 2) {
            s.push('[');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse(" {\n\t\"a\" :\r 1 } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn duplicate_keys_preserved() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert_eq!(v.get("k").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn big_numbers() {
        assert!(matches!(
            parse("12345678901234567890123").unwrap(),
            JsonValue::Number(JsonNumber::Dec(_))
        ));
        assert!(matches!(parse("1e308").unwrap(), JsonValue::Number(JsonNumber::Dbl(_))));
    }
}
