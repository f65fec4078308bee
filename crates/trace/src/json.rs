//! The workspace's one JSON reader and string escaper.
//!
//! Every JSON the workspace writes is rendered by hand (fixed key order,
//! byte-stable output), and every JSON it reads back goes through this
//! module: the Chrome trace-event validator ([`crate::chrome::validate`]),
//! the `METRICS.json` validator in `snitch-telemetry`, and `perf-report`'s
//! reader of the committed `BENCH_sim.json` baseline.
//!
//! [`parse`] builds a [`Value`] tree. A large document can instead be
//! walked with a [`Parser`]: [`Parser::object`] and [`Parser::array`] hand
//! each member to a callback, so only the member being looked at is ever
//! held as a tree.

use std::fmt::Write as _;

/// A parsed JSON value. Objects keep their members in document order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number (JSON has one number type).
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's `(key, value)` members, in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key`, when `self` is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, when `self` is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }
}

/// Parses one complete JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// Returns a description of the first syntax error, with its byte offset.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser::new(s);
    let value = p.value()?;
    p.end()?;
    Ok(value)
}

/// Renders `s` as a quoted JSON string: quotes, backslashes and control
/// characters escaped.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A cursor over a JSON document.
#[derive(Debug)]
pub struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    /// A parser positioned at the start of `s`.
    #[must_use]
    pub fn new(s: &'a str) -> Self {
        Parser { s: s.as_bytes(), i: 0 }
    }

    /// Checks that only whitespace is left.
    ///
    /// # Errors
    ///
    /// Returns the offset of the first trailing byte.
    pub fn end(mut self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(format!("trailing bytes at offset {}", self.i)),
        }
    }

    /// Parses the next value into a tree.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.object(|key, p| {
                    members.push((key.to_string(), p.value()?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at offset {}", other.map(char::from), self.i)),
        }
    }

    /// Parses an object, calling `member(key, parser)` with the parser at
    /// each member's value; the callback must consume that value (with
    /// [`value`](Self::value), or [`object`](Self::object) /
    /// [`array`](Self::array) to walk it).
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, or the first error of `member`.
    pub fn object(
        &mut self,
        mut member: impl FnMut(&str, &mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            member(&key, self)?;
            if self.separator(b'}')? {
                return Ok(());
            }
        }
    }

    /// Parses an array, calling `item(parser)` with the parser at each
    /// element; the callback must consume it.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error, or the first error of `item`.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            if self.separator(b']')? {
                return Ok(());
            }
        }
    }

    /// Consumes a `,` (returns `false`) or the closing `close` (`true`).
    fn separator(&mut self, close: u8) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.i += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.i += 1;
                Ok(true)
            }
            other => Err(format!(
                "expected `,` or `{}` at offset {}, found {:?}",
                char::from(close),
                self.i,
                other.map(char::from)
            )),
        }
    }

    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == want => {
                self.i += 1;
                Ok(())
            }
            other => Err(format!(
                "expected `{}` at offset {}, found {:?}",
                char::from(want),
                self.i,
                other.map(char::from)
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|text| text.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return Err("truncated escape".to_string());
                    };
                    self.i += 1;
                    let c = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).and_then(|h| {
                                u32::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()
                            });
                            let Some(code) = hex else {
                                return Err(format!("bad \\u escape at offset {}", self.i));
                            };
                            self.i += 4;
                            char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        other => char::from(other),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_value_kind() {
        let v =
            parse(" {\"a\":[1,-2.5e1,true,false,null],\"b\":{\"c\":\"x\\ty\\u0041\"},\"d\":[]} ")
                .expect("valid document");
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-25.0),
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
            ]))
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str), Some("x\tyA"));
        assert_eq!(v.get("d"), Some(&Value::Array(Vec::new())));
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("{}"), Ok(Value::Object(Vec::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "\"open",
            "tru",
            "1-2",
            "{} x",
            "\"\\u12\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        let tricky = "tab\t quote\" slash\\ bell\u{7} µ";
        assert_eq!(parse(&escape(tricky)), Ok(Value::String(tricky.to_string())));
    }
}
