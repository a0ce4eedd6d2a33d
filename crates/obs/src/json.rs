//! Minimal JSON emission **and** a strict JSON-subset parser.
//!
//! The dependency-free crates of the pipeline all speak JSON somewhere:
//! `sfn-obs` writes JSONL trace events, `sfn-faults` reads `SFN_FAULTS`
//! schedules, `sfn-trace` reads traces and summaries back. This module
//! is the single hand-rolled implementation they share (no serde by
//! design), hoisted out of `sfn-faults` so exactly one parser exists.
//!
//! The parser accepts the JSON subset the emitters produce — objects,
//! arrays, strings with the common escapes, `f64` numbers, booleans,
//! `null` — and rejects everything else with a position-carrying
//! [`JsonError`], so a malformed input can be reported and skipped
//! rather than crashing the host process.

use std::fmt::Write as _;

// ------------------------------------------------------------ emission

/// Appends `s` to `out` with JSON string escaping (no surrounding
/// quotes).
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Appends a JSON number; non-finite values become `null` (JSON has no
/// NaN/Infinity).
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

// ------------------------------------------------------------- parsing

/// The JSON subset the parser produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; field order is preserved and duplicate keys are kept
    /// (lookup returns the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    /// The object's `(key, value)` pairs in document order, if this is
    /// an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields.as_slice()),
            _ => None,
        }
    }

    /// Serialises the value back to compact JSON (the inverse of
    /// [`parse`], modulo float formatting).
    pub fn write_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => push_f64(out, *n),
            Value::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\":");
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// [`Value::write_into`] into a fresh string.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_into(&mut s);
        s
    }

    /// Pretty-printed rendering (2-space indent, serde_json style) for
    /// human-inspected artifacts like the bench summary.
    pub fn write_pretty_into(&self, out: &mut String, indent: usize) {
        const STEP: usize = 2;
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push(' ');
            }
        };
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + STEP);
                    v.write_pretty_into(out, indent + STEP);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    pad(out, indent + STEP);
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\": ");
                    v.write_pretty_into(out, indent + STEP);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
            other => other.write_into(out),
        }
    }

    /// [`Value::write_pretty_into`] into a fresh string.
    pub fn to_json_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty_into(&mut s, 0);
        s
    }
}

// ------------------------------------------------------------- codecs
//
// The workspace's replacement for serde derives: types that cross a
// serialization boundary implement `ToJson`/`FromJson` against the
// `Value` tree. The wire shapes mirror what serde_json's derive would
// have produced (structs as objects in field order, unit enum variants
// as strings, struct variants as single-key objects, tuples as arrays),
// so files written before the derive removal still parse.

/// Conversion into a JSON [`Value`].
pub trait ToJson {
    /// Builds the JSON tree for `self`.
    fn to_json_value(&self) -> Value;
}

/// Conversion from a JSON [`Value`].
pub trait FromJson: Sized {
    /// Rebuilds `Self`, reporting the first structural mismatch.
    fn from_json_value(v: &Value) -> Result<Self, JsonError>;
}

/// Builds an object `Value` from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn type_error(expected: &str, got: &Value) -> JsonError {
    let kind = match got {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Num(_) => "number",
        Value::Str(_) => "string",
        Value::Arr(_) => "array",
        Value::Obj(_) => "object",
    };
    JsonError { at: 0, message: format!("expected {expected}, got {kind}") }
}

impl Value {
    /// Typed field lookup for decoders: `v.field::<f64>("dt")?`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let inner = self.get(key).ok_or_else(|| JsonError {
            at: 0,
            message: format!("missing field `{key}`"),
        })?;
        T::from_json_value(inner).map_err(|e| JsonError {
            at: e.at,
            message: format!("field `{key}`: {}", e.message),
        })
    }
}

impl ToJson for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| type_error("bool", v))
    }
}

impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| type_error("string", v))
    }
}

impl ToJson for &str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for f64 {
    fn to_json_value(&self) -> Value {
        Value::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| type_error("number", v))
    }
}

impl ToJson for f32 {
    fn to_json_value(&self) -> Value {
        Value::Num(f64::from(*self))
    }
}

impl FromJson for f32 {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let n = f64::from_json_value(v)?;
        let f = n as f32;
        // The parser only yields finite f64s, so a non-finite cast means
        // the literal overflowed f32. Writing it back out would render
        // `null` (non-round-trippable); refuse it on the way in instead.
        if !f.is_finite() {
            return Err(JsonError { at: 0, message: format!("number {n:e} out of f32 range") });
        }
        Ok(f)
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                // All integers the pipeline serialises (ids, seeds,
                // counters) fit in f64's 53-bit exact range; refuse to
                // silently round anything bigger.
                let v = *self as f64;
                debug_assert!(
                    v as u128 == *self as u128,
                    "integer {self} not exactly representable in JSON"
                );
                Value::Num(v)
            }
        }
        impl FromJson for $t {
            fn from_json_value(v: &Value) -> Result<Self, JsonError> {
                let n = v.as_u64().ok_or_else(|| type_error("integer", v))?;
                <$t>::try_from(n).map_err(|_| JsonError {
                    at: 0,
                    message: format!("integer {n} out of range"),
                })
            }
        }
    )*};
}

int_json!(u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_json_value(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for std::collections::BTreeMap<String, T> {
    fn to_json_value(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_json_value()))
                .collect(),
        )
    }
}

impl<T: FromJson> FromJson for std::collections::BTreeMap<String, T> {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let fields = v.as_obj().ok_or_else(|| type_error("object", v))?;
        fields
            .iter()
            .map(|(k, inner)| Ok((k.clone(), T::from_json_value(inner)?)))
            .collect()
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let items = v.as_arr().ok_or_else(|| type_error("array", v))?;
        items.iter().map(T::from_json_value).collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::from_json_value(a)?, B::from_json_value(b)?)),
            _ => Err(type_error("2-element array", v)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![
            self.0.to_json_value(),
            self.1.to_json_value(),
            self.2.to_json_value(),
        ])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([a, b, c]) => Ok((
                A::from_json_value(a)?,
                B::from_json_value(b)?,
                C::from_json_value(c)?,
            )),
            _ => Err(type_error("3-element array", v)),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}

impl<T: FromJson + Copy + Default, const N: usize> FromJson for [T; N] {
    fn from_json_value(v: &Value) -> Result<Self, JsonError> {
        let items = v.as_arr().ok_or_else(|| type_error("array", v))?;
        if items.len() != N {
            return Err(JsonError {
                at: 0,
                message: format!("expected {N}-element array, got {}", items.len()),
            });
        }
        let mut out = [T::default(); N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = T::from_json_value(item)?;
        }
        Ok(out)
    }
}

/// Encodes any [`ToJson`] type to a compact JSON string.
pub fn to_json_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json_value().to_json()
}

/// Encodes any [`ToJson`] type to a pretty-printed JSON string.
pub fn to_json_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json_value().to_json_pretty()
}

/// Parses and decodes any [`FromJson`] type from a JSON string.
pub fn from_json_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json_value(&parse(input)?)
}

/// A parse failure with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest object/array nesting [`parse`] accepts. The recursive-
/// descent parser uses one call frame per level, so an unbounded
/// `[[[[…` from an untrusted file would overflow the stack; everything
/// the pipeline emits nests a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// Largest input [`parse`] accepts, in bytes. The biggest legitimate
/// document the pipeline reads is an offline-artifact cache (the
/// default roster's is 16.4 MB, almost all of it weights); the cap
/// stops a forged multi-GB file from being buffered into `Value` trees
/// before any schema check can run.
pub const MAX_INPUT_LEN: usize = 64 << 20;

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// Untrusted-input guarantees: inputs longer than [`MAX_INPUT_LEN`] or
/// nesting deeper than [`MAX_DEPTH`] are rejected with a [`JsonError`]
/// (never a stack overflow), and no error path allocates proportionally
/// to declared sizes.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    if input.len() > MAX_INPUT_LEN {
        return Err(JsonError {
            at: 0,
            message: format!(
                "input of {} bytes exceeds the {MAX_INPUT_LEN}-byte limit",
                input.len()
            ),
        });
    }
    let mut p = Parser { src: input, pos: 0, depth: 0 };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The input as text, so string runs and numbers are sliced out
    /// without re-validating UTF-8.
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, message: message.into() }
    }

    /// Bumps the nesting depth on entering an object or array. Only the
    /// success paths unwind it — an error aborts the whole parse.
    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            // \uXXXX escapes, including surrogate pairs
                            // (the emitter writes control characters as
                            // \u00XX).
                            let first = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&first) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else {
                                first
                            };
                            match char::from_u32(cp) {
                                Some(c) => s.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err(format!("unsupported escape \\{}", esc as char))),
                    }
                }
                Some(_) => {
                    // Copy the run of unescaped text up to the next `"`
                    // or `\` in one go. Both are ASCII, so the run ends
                    // on a char boundary of the (valid UTF-8) input and
                    // the slice needs no re-validation.
                    let start = self.pos;
                    let len = self.src.as_bytes()[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.src.len() - start);
                    let run = &self.src[start..start + len];
                    if let Some((at, _)) = run.char_indices().find(|(_, c)| c.is_control()) {
                        self.pos = start + at;
                        return Err(self.err("raw control character in string"));
                    }
                    s.push_str(run);
                    self.pos = start + len;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = self.peek().and_then(|b| (b as char).to_digit(16));
            match d {
                Some(d) => {
                    cp = cp * 16 + d;
                    self.pos += 1;
                }
                None => return Err(self.err("expected 4 hex digits after \\u")),
            }
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        // Every byte the loop above accepts is ASCII, so the slice ends
        // on a char boundary.
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            // JSON has no Infinity; overflowing literals like 1e400 are
            // rejected rather than silently saturated.
            Ok(v) if v.is_finite() => Ok(Value::Num(v)),
            _ => Err(JsonError { at: start, message: format!("invalid number {text:?}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn numbers_round_trip_and_nan_is_null() {
        let mut s = String::new();
        push_f64(&mut s, 0.013);
        s.push(',');
        push_f64(&mut s, f64::NAN);
        s.push(',');
        push_f64(&mut s, f64::INFINITY);
        assert_eq!(s, "0.013,null,null");
    }

    #[test]
    fn parses_the_emitted_subset() {
        let v = parse(
            r#"{"ts":1.25,"level":"info","kind":"scheduler.decision","step":20,
                "ok":true,"none":null,"arr":[1,-2.5,"x"]}"#,
        )
        .unwrap();
        assert_eq!(v.get("ts").and_then(Value::as_f64), Some(1.25));
        assert_eq!(v.get("level").and_then(Value::as_str), Some("info"));
        assert_eq!(v.get("step").and_then(Value::as_u64), Some(20));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        let arr = v.get("arr").and_then(Value::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_f64(), Some(-2.5));
    }

    #[test]
    fn string_escapes_round_trip_through_emit_and_parse() {
        let original = "a\"b\\c\nd\tπ\u{1}";
        let mut line = String::from("{\"k\":\"");
        escape_into(&mut line, original);
        line.push_str("\"}");
        let v = parse(&line).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(original));
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs() {
        let v = parse(r#""Aé😀""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\u12"#).is_err(), "truncated escape");
    }

    #[test]
    fn multi_byte_runs_copy_whole() {
        // 1-, 2-, 3- and 4-byte scalars in one run, and as the only
        // content of a key and a value.
        let text = "aé€😀z";
        assert_eq!(parse(&format!("\"{text}\"")).unwrap().as_str(), Some(text));
        let v = parse(r#"{"é":"€","😀":"x"}"#).unwrap();
        assert_eq!(v.get("é").and_then(Value::as_str), Some("€"));
        assert_eq!(v.get("😀").and_then(Value::as_str), Some("x"));
        assert_eq!(parse(r#""""#).unwrap().as_str(), Some(""));
    }

    #[test]
    fn runs_interleave_with_escapes() {
        let v = parse(r#""ab\ncd\"é€\u00e9ø\ud83d\ude00😀\\""#).unwrap();
        assert_eq!(v.as_str(), Some("ab\ncd\"é€éø😀😀\\"));
        // Escapes back to back and at both ends of the string.
        let v = parse(r#""\n\"x\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("\n\"xé"));
    }

    #[test]
    fn raw_control_characters_are_rejected_at_their_offset() {
        // C0 controls, DEL (0x7F) and the C1 control U+0085 (2 bytes),
        // after runs of 1- and 2-byte characters.
        for (input, at) in [
            ("\"\u{1}\"", 1),
            ("\"ab\u{1}cd\"", 3),
            ("\"aé\u{7f}\"", 4),
            ("\"x\\n\u{85}\"", 4),
            ("{\"k\u{1f}\":1}", 3),
        ] {
            let e = parse(input).unwrap_err();
            assert_eq!(e.message, "raw control character in string", "{input:?}");
            assert_eq!(e.at, at, "{input:?}");
        }
    }

    #[test]
    fn unterminated_string_after_a_long_run() {
        let input = format!("\"{}", "é".repeat(10_000));
        let e = parse(&input).unwrap_err();
        assert_eq!(e.message, "unterminated string");
        assert_eq!(e.at, input.len());
        let e = parse("[\"abc\\").unwrap_err();
        assert_eq!(e.message, "unterminated escape");
    }

    #[test]
    fn string_parsing_is_linear_in_the_input() {
        // A quadratic string scan takes minutes on either document; a
        // linear one takes milliseconds, even in a debug build.
        let long = format!("\"{}\"", "abcdé".repeat(700_000));
        assert!(long.len() > 4_000_000);
        let mut doc = String::from("{");
        for i in 0..10_000 {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!(
                "\"weights_{i:05}\":{{\"name\":\"layer {i}\",\"w\":[0.5,-1.25]}}"
            ));
        }
        doc.push('}');
        for input in [&long, &doc] {
            let start = std::time::Instant::now();
            let v = parse(input).unwrap();
            let took = start.elapsed();
            assert!(
                took < std::time::Duration::from_secs(5),
                "{} bytes took {took:?}",
                input.len()
            );
            assert_eq!(v.to_json(), *input);
        }
    }

    #[test]
    fn malformed_inputs_are_rejected_with_offsets() {
        for bad in ["", "{", "[1, 2", "{\"a\" 1}", "tru", "1e400", "{} trailing", "\"\u{1}\""] {
            let e = parse(bad).unwrap_err();
            assert!(e.to_string().contains("byte"), "{bad:?} -> {e}");
        }
    }

    #[test]
    fn nesting_depth_is_limited_not_a_stack_overflow() {
        // Far deeper than any stack could take recursively: the limit
        // must trip, cheaply, long before frame exhaustion.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep: String = open.repeat(500_000) + &close.repeat(500_000);
            let start = std::time::Instant::now();
            let e = parse(&deep).unwrap_err();
            assert!(e.message.contains("nesting"), "{e}");
            assert!(
                start.elapsed() < std::time::Duration::from_millis(100),
                "depth rejection took {:?}",
                start.elapsed()
            );
        }
        // The limit itself is fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&over).is_err());
    }

    #[test]
    fn oversized_inputs_are_rejected_up_front() {
        let mut big = String::with_capacity(MAX_INPUT_LEN + 16);
        big.push('"');
        // A 64 MiB+ string literal; must be rejected before any parse
        // work happens.
        big.push_str(&"a".repeat(MAX_INPUT_LEN));
        big.push('"');
        let start = std::time::Instant::now();
        let e = parse(&big).unwrap_err();
        assert!(e.message.contains("limit"), "{e}");
        assert!(start.elapsed() < std::time::Duration::from_millis(50));
    }

    #[test]
    fn value_serialisation_round_trips() {
        let src = r#"{"a":1,"b":[true,null,"x\ny"],"c":{"d":-0.5}}"#;
        let v = parse(src).unwrap();
        let emitted = v.to_json();
        assert_eq!(parse(&emitted).unwrap(), v);
    }

    #[test]
    fn duplicate_keys_resolve_to_first() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Str("3".into()).as_u64(), None);
    }

    #[test]
    fn codec_primitives_round_trip() {
        assert_eq!(from_json_str::<f64>(&to_json_string(&1.25)), Ok(1.25));
        assert_eq!(from_json_str::<bool>(&to_json_string(&true)), Ok(true));
        assert_eq!(from_json_str::<usize>(&to_json_string(&42usize)), Ok(42));
        assert_eq!(
            from_json_str::<String>(&to_json_string(&"a\"b".to_string())),
            Ok("a\"b".to_string())
        );
        let v: Vec<(f64, f64)> = vec![(1.0, 2.5), (-3.0, 0.0)];
        assert_eq!(from_json_str::<Vec<(f64, f64)>>(&to_json_string(&v)), Ok(v));
        let a = [1.0f64, 2.0, 3.0];
        assert_eq!(from_json_str::<[f64; 3]>(&to_json_string(&a)), Ok(a));
    }

    #[test]
    fn codec_reports_field_and_type_errors() {
        let v = parse(r#"{"a":1}"#).unwrap();
        let missing = v.field::<f64>("b").unwrap_err();
        assert!(missing.message.contains("missing field `b`"), "{missing}");
        let wrong = v.field::<String>("a").unwrap_err();
        assert!(
            wrong.message.contains("field `a`") && wrong.message.contains("expected string"),
            "{wrong}"
        );
        assert!(from_json_str::<usize>("3.5").is_err());
        assert!(from_json_str::<u32>("4294967296").is_err(), "u32 overflow");
    }

    #[test]
    fn codec_obj_builder_preserves_order() {
        let v = obj([("b", Value::Num(1.0)), ("a", Value::Bool(false))]);
        assert_eq!(v.to_json(), r#"{"b":1,"a":false}"#);
    }
}
