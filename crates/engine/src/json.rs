//! Self-contained JSON reading/writing for the sweep CLI.
//!
//! The build environment has no registry access, so instead of `serde` the
//! engine carries this ~200-line JSON subset: the full value model, a
//! recursive-descent parser (strings with escapes, numbers, literals,
//! arrays, objects) and a compact writer. Good enough for sweep specs and
//! reports; not a general-purpose validator (e.g. duplicate keys are kept
//! last-wins by the accessors).
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects. The parser
//! recurses once per level, and a stack overflow aborts the process — no
//! `catch_unwind` can contain it — so without the cap a 100 KB body of `[`
//! would take down `regenr serve`. RFC 8259 §9 lets a parser set this
//! limit; sweep specs nest a handful of levels.

use std::fmt;

/// Deepest nesting of arrays and objects [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// The [`JsonError`] message for a document nested deeper than
/// [`MAX_DEPTH`] (the number is pinned to the constant by a test).
const TOO_DEEP: &str = "nesting exceeds the depth limit of 128";

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects (last duplicate wins), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as usize),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                pos,
                message: "trailing characters after the document",
            });
        }
        Ok(value)
    }
}

/// A parse failure with its byte offset.
#[derive(Clone, Copy, Debug)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl JsonError {
    /// Whether the document was rejected for nesting deeper than
    /// [`MAX_DEPTH`], rather than for malformed syntax.
    pub(crate) fn is_too_deep(&self) -> bool {
        self.message == TOO_DEEP
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8, message: &'static str) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError { pos: *pos, message })
    }
}

/// Parses one value inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(JsonError {
            pos: *pos,
            message: TOO_DEEP,
        }),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_num(bytes, pos),
        _ => Err(JsonError {
            pos: *pos,
            message: "expected a JSON value",
        }),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    literal: &'static [u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(JsonError {
            pos: *pos,
            message: "invalid literal",
        })
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|x| x.is_finite())
        .map(Json::Num)
        .ok_or(JsonError {
            pos: start,
            message: "invalid number",
        })
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"', "expected '\"'")?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    pos: *pos,
                    message: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).copied().ok_or(JsonError {
                    pos: *pos,
                    message: "unterminated escape",
                })?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
                            pos: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or(JsonError {
                                pos: *pos,
                                message: "invalid \\u escape",
                            })?;
                        *pos += 4;
                        // Surrogate pairs are not needed for sweep specs.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => {
                        return Err(JsonError {
                            pos: *pos - 1,
                            message: "unknown escape",
                        })
                    }
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let tail = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    pos: *pos,
                    message: "invalid UTF-8",
                })?;
                let ch = tail.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[', "expected '['")?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(JsonError {
                    pos: *pos,
                    message: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{', "expected '{'")?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':', "expected ':'")?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => {
                return Err(JsonError {
                    pos: *pos,
                    message: "expected ',' or '}'",
                })
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity literal (e.g. the ODE oracle
                    // reports error_bound = NaN); emit null so the document
                    // stays parseable.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x:e}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl Json {
    /// Pretty-prints with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.pretty_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&format!("{}", Json::Str(k.clone())));
                    out.push_str(": ");
                    v.pretty_into(out, depth + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => out.push_str(&format!("{other}")),
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{ "a": [1, 2.5, -3e-2], "b": {"c": true, "d": null}, "e": "x\ny" }"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-0.03)
        );
    }

    #[test]
    fn roundtrips_through_display() {
        let doc = r#"{"name":"raid \"paper\"","g":20,"eps":1e-12,"flags":[true,false,null]}"#;
        let v = Json::parse(doc).unwrap();
        let again = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let doc = Json::Obj(vec![
            ("nan".into(), Json::Num(f64::NAN)),
            ("inf".into(), Json::Num(f64::INFINITY)),
        ]);
        let text = doc.to_string();
        assert_eq!(text, r#"{"nan":null,"inf":null}"#);
        assert!(Json::parse(&text).is_ok(), "output must stay parseable");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        assert!(TOO_DEEP.ends_with(&format!(" {MAX_DEPTH}")));
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n));
        for nest in [arrays, objects] {
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(err.is_too_deep(), "{err}");
            assert!(err.to_string().contains("depth limit of 128"), "{err}");
        }
        // Far past the limit, unterminated: an error at the first opener
        // past the cap, not a stack overflow.
        for opener in ["[", r#"{"a":"#] {
            let err = Json::parse(&opener.repeat(100_000)).unwrap_err();
            assert!(err.is_too_deep(), "{err}");
            assert_eq!(err.pos, MAX_DEPTH * opener.len());
        }
        assert!(!Json::parse("[1,]").unwrap_err().is_too_deep());
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::parse(r#"{"a":[1,{"b":2}],"c":"s"}"#).unwrap();
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}
