//! Offline stand-in for `serde_json`, providing the API subset this
//! workspace uses: `to_string`, `to_vec`, `from_slice`, `from_str`,
//! `Value`, and the `json!` macro.
//!
//! Values round-trip through the patched `serde` crate's [`Content`]
//! tree. The emitted text matches real serde_json's compact format:
//! struct fields in declaration order, externally-tagged enums, floats
//! always carrying a decimal point, strings with standard JSON escapes.
//!
//! One deliberate divergence: `json!` objects preserve insertion order
//! rather than sorting keys the way serde_json's default `BTreeMap`
//! backend does. Every consumer in this workspace either parses the
//! output or compares it against output of the same binary, so key order
//! only needs to be deterministic, which insertion order is.

use serde::{Content, DeError, Serialize};

/// Errors from serialization or deserialization.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// `Result` alias matching serde_json.
pub type Result<T> = std::result::Result<T, Error>;

/// A JSON value, thinly wrapping the serde [`Content`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Value(pub Content);

impl Value {
    /// JSON `null`.
    #[allow(non_upper_case_globals)]
    pub const Null: Value = Value(Content::Null);

    /// Builds a boolean value.
    pub fn from_bool(b: bool) -> Value {
        Value(Content::Bool(b))
    }

    /// Builds an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value(Content::Seq(items.into_iter().map(|v| v.0).collect()))
    }

    /// Builds an object value with insertion-ordered keys.
    pub fn object(entries: Vec<(String, Value)>) -> Value {
        Value(Content::Map(
            entries.into_iter().map(|(k, v)| (k, v.0)).collect(),
        ))
    }
}

impl Serialize for Value {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl serde::Deserialize for Value {
    fn from_content(content: &Content) -> std::result::Result<Self, DeError> {
        Ok(Value(content.clone()))
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        write_content(&self.0, &mut out);
        f.write_str(&out)
    }
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(Value(value.to_content()))
}

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&value.to_content(), &mut out);
    Ok(out)
}

/// Serializes a value to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: serde::de::DeserializeOwned>(text: &str) -> Result<T> {
    let content = Parser::new(text).parse_document()?;
    T::from_content(&content).map_err(Error::from)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid UTF-8 in JSON: {e}")))?;
    from_str(text)
}

// --------------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------------

/// `write!` into a `String`, which cannot fail.
macro_rules! push_fmt {
    ($out:expr, $($arg:tt)*) => {
        std::fmt::Write::write_fmt($out, format_args!($($arg)*))
            .expect("writing to a String cannot fail")
    };
}

fn write_content(content: &Content, out: &mut String) {
    match content {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::I64(n) => push_fmt!(out, "{n}"),
        Content::U64(n) => push_fmt!(out, "{n}"),
        Content::F64(x) => {
            if x.is_finite() {
                let start = out.len();
                push_fmt!(out, "{x}");
                // ryu always keeps a fractional part; Rust's shortest
                // display drops ".0" — restore it for format parity.
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                // serde_json writes non-finite floats as null.
                out.push_str("null");
            }
        }
        Content::Str(s) => write_json_string(s, out),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(k, out);
                out.push(':');
                write_content(v, out);
            }
            out.push('}');
        }
    }
}

/// Writes `s` as a JSON string literal, copying each run of bytes that
/// needs no escape in one `push_str`. Every escaped byte is ASCII, so
/// each run starts and ends on a char boundary.
fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run_start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run_start..i]);
        if escape.is_empty() {
            push_fmt!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

/// Deepest array/object nesting the parser accepts. Deeper input is a
/// typed [`Error`] instead of a stack overflow: the parser recurses once
/// per level, and a peer can send a frame of nothing but `[`.
///
/// The deepest value this workspace serializes is a SQL query nested to
/// the SQL parser's own limit of 128 levels. Its deepest shape, a
/// derived table joined inside a compound select at every level, spends
/// 9 JSON levels per SQL level (about 1,130 in all); the budget allows
/// 10, which leaves room for the report around the query. A level costs
/// about 240 bytes of stack in a release build (880 in a debug build),
/// so a full budget needs about 300 KiB of a 2 MiB thread stack.
const MAX_DEPTH: usize = 1280;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn parse_document(&mut self) -> Result<Content> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Content::Null),
            Some(b't') => self.parse_keyword("true", Content::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.too_deep());
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected JSON value")),
        }
    }

    /// Kept out of [`Parser::parse_value`] so the formatting temporaries
    /// do not grow the frame every nesting level pays for.
    fn too_deep(&self) -> Error {
        self.err(&format!("nesting exceeds {MAX_DEPTH} levels"))
    }

    fn parse_keyword(&mut self, word: &str, value: Content) -> Result<Content> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid keyword"))
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.eat(b'[', "expected `[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.eat(b'{', "expected `{`")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':', "expected `:`")?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Parses a string literal in one pass: each run of bytes up to the
    /// next `"` or `\` is copied whole. Both are ASCII, so every run ends
    /// on a char boundary of the already-validated text. Raw control
    /// characters are accepted as they are.
    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => self.parse_unicode_escape()?,
                _ => return Err(self.err("invalid escape")),
            };
            out.push(escaped);
            self.pos += 1;
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` sits at `pos`, leaving
    /// `pos` on its last hex digit. A high surrogate directly followed by
    /// an escaped low surrogate decodes to the one scalar the pair
    /// encodes; any other surrogate becomes U+FFFD.
    fn parse_unicode_escape(&mut self) -> Result<char> {
        let code = self.hex4(self.pos + 1)?;
        self.pos += 4;
        if (0xD800..0xDC00).contains(&code) && self.bytes[self.pos + 1..].starts_with(b"\\u") {
            if let Ok(low @ 0xDC00..=0xDFFF) = self.hex4(self.pos + 3) {
                self.pos += 6;
                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                return Ok(char::from_u32(scalar).expect("a surrogate pair encodes a scalar"));
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// Reads exactly four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32> {
        let digits = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        digits.iter().try_fold(0, |code, &b| {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            Ok(code << 4 | digit)
        })
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Content::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Content::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

// --------------------------------------------------------------------------
// json! macro
// --------------------------------------------------------------------------

/// Builds a [`Value`] from JSON-like syntax, mirroring `serde_json::json!`.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`]; the tt-muncher from serde_json.
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // Done with trailing comma.
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    // Done without trailing comma.
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    // Next element is `null`.
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    // Next element is `true`.
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    // Next element is `false`.
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    // Next element is an array.
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    // Next element is a map.
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    // Next element is an expression followed by comma.
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    // Last element is an expression with no trailing comma.
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    // Comma after the most recent element.
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Done.
    (@object $object:ident () () ()) => {};
    // Insert the current entry followed by trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push((($($key)+).into(), $value));
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    // Current entry followed by unexpected token (missing comma).
    (@object $object:ident [$($key:tt)+] ($value:expr) $unexpected:tt $($rest:tt)*) => {
        $crate::json_unexpected!($unexpected);
    };
    // Insert the last entry without trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push((($($key)+).into(), $value));
    };
    // Next value is `null`.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    // Next value is `true`.
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    // Next value is `false`.
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    // Next value is an array.
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    // Next value is a map.
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    // Next value is an expression followed by comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    // Last value is an expression with no trailing comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Missing value for last entry.
    (@object $object:ident ($($key:tt)+) (:) $copy:tt) => {
        $crate::json_internal!();
    };
    // Missing colon and value.
    (@object $object:ident ($($key:tt)+) () $copy:tt) => {
        $crate::json_internal!();
    };
    // Munch a token into the current key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) $copy);
    };

    // ---- Entry points ----
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::from_bool(true)
    };
    (false) => {
        $crate::Value::from_bool(false)
    };
    ([]) => {
        $crate::Value::array(vec![])
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::object(vec![])
    };
    ({ $($tt:tt)+ }) => {
        {
            let mut object: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
                ::std::vec::Vec::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            $crate::Value::object(object)
        }
    };
    // Any Serialize expression.
    ($other:expr) => {
        $crate::to_value(&$other).expect("json!: serialization failed")
    };
}

/// Implementation detail of [`json!`]: reports a missing comma.
#[macro_export]
#[doc(hidden)]
macro_rules! json_unexpected {
    () => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(json: &str) -> Result<String> {
        from_str(json)
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        assert_eq!(decode(r#""\ud83d\ude00""#).unwrap(), "\u{1f600}");
        assert_eq!(decode(r#""a\uD83D\uDE00b""#).unwrap(), "a\u{1f600}b");
        // Lone or mismatched surrogates keep decoding, as U+FFFD.
        assert_eq!(decode(r#""\ud83d""#).unwrap(), "\u{fffd}");
        assert_eq!(decode(r#""\ude00x""#).unwrap(), "\u{fffd}x");
        assert_eq!(decode(r#""\ud83d\u0041""#).unwrap(), "\u{fffd}A");
        assert_eq!(decode(r#""\ud83d\n""#).unwrap(), "\u{fffd}\n");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(decode(r#""\u00e9\u00C9""#).unwrap(), "éÉ");
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u04""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(decode(bad).is_err(), "{bad} must be refused");
        }
        // Only four digits belong to the escape.
        assert_eq!(decode(r#""\u00411""#).unwrap(), "A1");
    }

    #[test]
    fn strings_round_trip_with_the_standard_escapes() {
        let text = "plain \"q\" back\\slash\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f} é ✓ \u{1f600}/";
        let json = to_string(text).unwrap();
        assert_eq!(
            json,
            "\"plain \\\"q\\\" back\\\\slash\\n\\r\\t\\b\\f\\u0000\\u001f\u{7f} é ✓ \u{1f600}/\""
        );
        assert_eq!(decode(&json).unwrap(), text);
        // Raw control characters and escaped slashes stay accepted.
        assert_eq!(decode("\"a\u{1}\\/b\"").unwrap(), "a\u{1}/b");
        assert!(decode(r#""open"#).is_err());
        assert!(decode(r#""bad \q escape""#).is_err());
    }

    #[test]
    fn numbers_keep_their_format() {
        let value = Value::array(vec![
            to_value(-7i64).unwrap(),
            to_value(u64::MAX).unwrap(),
            to_value(2.0f64).unwrap(),
            to_value(0.25f64).unwrap(),
            to_value(1e21f64).unwrap(),
            to_value(f64::NAN).unwrap(),
        ]);
        assert_eq!(
            value.to_string(),
            "[-7,18446744073709551615,2.0,0.25,1000000000000000000000.0,null]"
        );
    }

    fn nested(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let deepest: Value = from_str(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(deepest.to_string(), nested(MAX_DEPTH));
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting exceeds"), "{err}");
        let mixed = "{\"a\":".repeat(MAX_DEPTH) + "1" + &"}".repeat(MAX_DEPTH);
        assert!(from_str::<Value>(&mixed).is_ok());
        assert!(from_str::<Value>(&format!("[{mixed}]")).is_err());
    }
}
