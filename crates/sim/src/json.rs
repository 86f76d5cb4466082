//! Minimal self-contained JSON value model, writer and parser.
//!
//! The reproduction persists experiment results, metrics snapshots and trace
//! exports as JSON (Chrome trace-event files, JSONL event streams, result
//! tables under `results/`). The toolchain runs in hermetic environments with
//! no registry access, so this module provides the small JSON surface the
//! workspace needs instead of pulling in an external crate:
//!
//! * [`Json`] — an ordered JSON value (object keys keep insertion order so
//!   exported files are stable and diffable),
//! * [`Json::render`] / [`Json::render_pretty`] — writers,
//! * [`Json::parse`] — a strict recursive-descent parser (used by the
//!   golden and trace-schema tests),
//! * [`ToJson`] — the conversion trait, with impls for the primitives, plus
//!   the [`impl_to_json!`](crate::impl_to_json) field-list macro that
//!   replaces derive-style serialisation for plain structs.

use std::fmt::Write as _;

/// An owned JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Signed integer (serialised without decimal point).
    I64(i64),
    /// Unsigned integer (serialised without decimal point).
    U64(u64),
    /// Floating-point number. Non-finite values serialise as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items (None for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload (None for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value widened to `f64` (None for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::I64(v) => Some(v as f64),
            Json::U64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric value as `u64` (None for non-numbers and negatives).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::I64(v) => u64::try_from(v).ok(),
            Json::U64(v) => Some(v),
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 => Some(v as u64),
            _ => None,
        }
    }

    /// The boolean payload (None for non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in) = match indent {
            Some(w) => ("\n", " ".repeat(w * depth), " ".repeat(w * (depth + 1))),
            None => ("", String::new(), String::new()),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        let _ = write!(out, "{v:.1}");
                    } else {
                        let _ = write!(out, "{v}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. The whole input must be one value (surrounding
    /// whitespace allowed).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError::at("trailing characters", pos));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

/// JSON parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl JsonError {
    fn at(message: &str, offset: usize) -> Self {
        JsonError {
            message: message.to_string(),
            offset,
        }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at("unexpected character", *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError::at("unexpected end of input", *pos));
    };
    match b {
        b'{' => parse_object(bytes, pos),
        b'[' => parse_array(bytes, pos),
        b'"' => Ok(Json::Str(parse_string(bytes, pos)?)),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        _ => Err(JsonError::at("unexpected character", *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::at("invalid literal", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at("invalid number", start))?;
    if !float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| JsonError::at("invalid number", start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError::at("unterminated string", *pos));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError::at("unterminated escape", *pos));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        if *pos + 4 > bytes.len() {
                            return Err(JsonError::at("truncated \\u escape", *pos));
                        }
                        let hex = std::str::from_utf8(&bytes[*pos..*pos + 4])
                            .map_err(|_| JsonError::at("invalid \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at("invalid \\u escape", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not needed by our own writers;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(JsonError::at("unknown escape", *pos)),
                }
            }
            _ => {
                // Re-decode UTF-8: step back and take the full char.
                *pos -= 1;
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError::at("invalid utf-8", *pos))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => {
                *pos += 1;
            }
            Some(&b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(JsonError::at("expected ',' or ']'", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => {
                *pos += 1;
            }
            Some(&b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(JsonError::at("expected ',' or '}'", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Convert to a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}

macro_rules! impl_json_int {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::I64(*self as i64)
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);
impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::F64(f64::from(*self))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for &T
where
    T: ?Sized,
{
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Implement [`ToJson`] for a plain struct by listing its fields. A field
/// written `name?` must be an `Option`; it is omitted when `None` rather
/// than rendered as `null`.
///
/// ```
/// use omx_sim::impl_to_json;
/// use omx_sim::json::ToJson;
///
/// struct Point { x: u32, y: u32, label: Option<&'static str> }
/// impl_to_json!(Point { x, y, label? });
///
/// let json = Point { x: 1, y: 2, label: None }.to_json().render();
/// assert_eq!(json, r#"{"x":1,"y":2}"#);
/// let json = Point { x: 1, y: 2, label: Some("a") }.to_json().render();
/// assert_eq!(json, r#"{"x":1,"y":2,"label":"a"}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($fields:tt)* }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::impl_to_json!(@entries self [] $($fields)*)
            }
        }
    };
    // Every field read into an `Option` entry; the `None`s drop out here.
    (@entries $s:ident [$($entry:expr),*]) => {
        $crate::json::Json::Obj([$($entry),*].into_iter().flatten().collect())
    };
    (@entries $s:ident [$($entry:expr),*] $field:ident ? $(, $($rest:tt)*)?) => {
        $crate::impl_to_json!(@entries $s [$($entry,)* $s.$field.as_ref().map(|v| {
            (stringify!($field).to_string(), $crate::json::ToJson::to_json(v))
        })] $($($rest)*)?)
    };
    (@entries $s:ident [$($entry:expr),*] $field:ident $(, $($rest:tt)*)?) => {
        $crate::impl_to_json!(@entries $s [$($entry,)* Some((
            stringify!($field).to_string(),
            $crate::json::ToJson::to_json(&$s.$field),
        ))] $($($rest)*)?)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(2.0).render(), "2.0");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::Str("a\"b\n".into()).render(), r#""a\"b\n""#);
    }

    #[test]
    fn renders_nested_compact_and_pretty() {
        let v = Json::obj(vec![
            ("name", Json::Str("run".into())),
            ("values", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        assert_eq!(v.render(), r#"{"name":"run","values":[1,2],"empty":[]}"#);
        let pretty = v.render_pretty();
        assert!(pretty.contains("\n  \"name\": \"run\""));
        assert!(pretty.ends_with('}'));
    }

    #[test]
    fn parse_roundtrip() {
        let src = r#"{"a":[1,2.5,-3,true,null,"x\ty"],"b":{"c":{}},"d":18446744073709551615}"#;
        let v = Json::parse(src).expect("parses");
        assert_eq!(Json::parse(&v.render()), Ok(v.clone()));
        assert_eq!(v.get("d").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[5].as_str(),
            Some("x\ty")
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn struct_macros_roundtrip() {
        struct Sample {
            id: u64,
            scale: f64,
            label: String,
            tags: Vec<u32>,
        }
        impl_to_json!(Sample {
            id,
            scale,
            label,
            tags
        });

        let json = Sample {
            id: 9,
            scale: 0.25,
            label: "x".into(),
            tags: vec![1, 2, 3],
        }
        .to_json();
        let rendered = json.render();
        assert_eq!(
            rendered,
            r#"{"id":9,"scale":0.25,"label":"x","tags":[1,2,3]}"#
        );
        assert_eq!(Json::parse(&rendered), Ok(json));
    }

    #[test]
    fn option_and_pairs() {
        let some: Option<u32> = Some(5);
        let none: Option<u32> = None;
        assert_eq!(some.to_json().render(), "5");
        assert_eq!(none.to_json().render(), "null");
        let pair = (1u32, "a".to_string());
        assert_eq!(pair.to_json().render(), r#"[1,"a"]"#);
    }
}
