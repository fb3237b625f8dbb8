//! The workspace's one JSON reader and writer.
//!
//! The environment is offline (no serde), so every JSON document the
//! workspace emits — `metrics.json`, the `runs.jsonl` journal — is
//! written by hand with a fixed field order and [`push_str`] as the
//! only string escaper, and read back through
//! [`parse`]: a recursive-descent reader of objects, arrays, strings and
//! numbers that walks the text once.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A number, kept as its source text so that a `u64` counter and an
    /// `f64` wall time both read back exactly.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number written as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// Any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members of an object, in source order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Appends `s` as a JSON string literal, quotes and escapes included.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        plain = i + 1;
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse`] follows before giving up; the
/// writers nest four levels, and the descent is recursive, so unbounded
/// input depth would be unbounded stack.
const MAX_DEPTH: usize = 32;

/// Parses one JSON document. Accepts what this workspace writes:
/// objects, arrays, strings, numbers; no `true`/`false`/`null`.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return Err(format!("trailing data at byte {}", r.pos));
    }
    Ok(v)
}

/// `pos` only ever stops before an ASCII byte or at the end, so it is
/// always a character boundary of `text`.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After one element of an array or object: `Ok(true)` at the
    /// closing bracket, `Ok(false)` at a comma.
    fn closes(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        match self.peek() {
            Some(c) if c == b',' || c == close => {
                self.pos += 1;
                Ok(c == close)
            }
            _ => Err(format!(
                "expected ',' or {:?} at byte {}",
                close as char, self.pos
            )),
        }
    }

    /// After an opening bracket: whether the container is empty.
    fn empty(&mut self, close: u8) -> bool {
        self.skip_ws();
        let empty = self.peek() == Some(close);
        self.pos += usize::from(empty);
        empty
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.peek() {
            Some(b'{') => {
                self.pos += 1;
                let mut obj = Vec::new();
                let mut done = self.empty(b'}');
                while !done {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    self.pos += 1;
                    obj.push((key, self.value(depth + 1)?));
                    done = self.closes(b'}')?;
                }
                Ok(Value::Obj(obj))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut arr = Vec::new();
                let mut done = self.empty(b']');
                while !done {
                    arr.push(self.value(depth + 1)?);
                    done = self.closes(b']')?;
                }
                Ok(Value::Arr(arr))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                self.pos += 1;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                ) {
                    self.pos += 1;
                }
                let num = &self.text[start..self.pos];
                match num.parse::<f64>() {
                    Ok(_) => Ok(Value::Num(num.to_string())),
                    Err(_) => Err(format!("bad number at byte {start}")),
                }
            }
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so the cut is a character boundary.
            let rest = &self.text[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_string())?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let escaped = self.peek();
            self.pos += 1;
            out.push(match escaped {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("bad \\u escape")?;
                    self.pos += 4;
                    u32::from_str_radix(hex, 16)
                        .ok()
                        .and_then(char::from_u32)
                        .ok_or("bad \\u escape")?
                }
                _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_source_text() {
        let v = parse("{\"n\":18446744073709551615,\"w\":0.074642,\"e\":-1.5e-3}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("w").unwrap().as_f64(), Some(0.074642));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(-1.5e-3));
        // A fraction is not an integer, and a string is not a number.
        assert_eq!(v.get("w").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
        for bad in ["-", "1-2", "1e", "--1", "+1", ".5", "1.2.3"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn strings_escape_and_read_back() {
        for s in [
            "",
            "plain",
            "bad \"quote\"\nand \\slash\ttab\rcr",
            "\u{1}\u{1f} control",
            "naïve — ünïcödé ✓",
        ] {
            let mut lit = String::new();
            push_str(&mut lit, s);
            assert!(!lit.contains('\n'), "{lit:?}");
            assert_eq!(parse(&lit).unwrap().as_str(), Some(s), "{lit:?}");
        }
        assert_eq!(parse("\"\\u0041\\/\"").unwrap().as_str(), Some("A/"));
        for bad in [
            "\"",
            "\"\\",
            "\"\\u12",
            "\"\\ud800\"",
            "\"\\q\"",
            "\"\\u00é\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn containers_nest_and_lookups_take_the_first_key() {
        let v = parse(" { \"a\" : [ 1 , [ ] , { } ] , \"a\" : 2 , \"b\" : { \"c\" : \"d\" } } ")
            .unwrap();
        let a = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].as_obj(), Some(&[][..]));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("d"));
        assert!(v.get("c").is_none(), "lookups do not descend");
        assert!(a[0].get("a").is_none());
        for bad in [
            "", "{", "[1,]", "{\"a\"}", "{\"a\":}", "{,}", "[1 2]", "{} x", "true",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let e = parse(&"[".repeat(2_000_000)).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep).is_ok());
    }
}
