//! Structured events and their JSON encoding.
//!
//! An [`Event`] is one line of the JSONL journal: a `kind` tag plus an
//! ordered list of typed fields. Field order is the insertion order, so
//! a given code path always serializes byte-identically — the journal
//! of a deterministic run is itself deterministic (modulo clock-derived
//! values, which a [`crate::FakeClock`] also pins down).
//!
//! The encoder is hand-rolled (the workspace is dependency-free by
//! policy): strings are escaped per RFC 8259, non-finite floats encode
//! as `null` (JSON has no NaN), and `f64` uses Rust's shortest-roundtrip
//! `Display`.

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values serialize as `null`.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on encoding).
    Str(String),
    /// Pre-rendered JSON, embedded verbatim (used to nest a metrics
    /// snapshot without re-parsing).
    RawJson(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One structured journal event: a kind tag plus ordered typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    kind: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event of the given kind.
    #[must_use]
    pub fn new(kind: &'static str) -> Self {
        Event {
            kind,
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Appends a field holding pre-rendered JSON, embedded verbatim.
    #[must_use]
    pub fn with_raw_json(mut self, key: &'static str, json: String) -> Self {
        self.fields.push((key, Value::RawJson(json)));
        self
    }

    /// The event's kind tag.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The fields in insertion order.
    #[must_use]
    pub fn fields(&self) -> &[(&'static str, Value)] {
        &self.fields
    }

    /// Looks up a field by key (first match).
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Renders the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.fields.len() * 16);
        out.push_str("{\"kind\":");
        push_json_string(&mut out, self.kind);
        for (key, value) in &self.fields {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            push_json_value(&mut out, value);
        }
        out.push('}');
        out
    }
}

/// Renders `s` as a JSON string literal with the journal writer's
/// escapes (quote, backslash, control characters), for hand-built JSON
/// documents outside this crate.
#[must_use]
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_string(&mut out, s);
    out
}

/// Appends `s` as a JSON string literal (RFC 8259 escaping).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float as JSON: shortest-roundtrip decimal, or `null` for
/// non-finite values.
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&format!("{v}")),
        Value::I64(v) => out.push_str(&format!("{v}")),
        Value::F64(v) => push_json_f64(out, *v),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => push_json_string(out, s),
        Value::RawJson(j) => out.push_str(j),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_all_value_kinds() {
        let e = Event::new("test")
            .with("u", 7u64)
            .with("i", -3i64)
            .with("f", 1.5)
            .with("b", true)
            .with("s", "hi")
            .with_raw_json("raw", "{\"x\":1}".to_string());
        assert_eq!(
            e.to_json(),
            r#"{"kind":"test","u":7,"i":-3,"f":1.5,"b":true,"s":"hi","raw":{"x":1}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let e = Event::new("esc").with("s", "a\"b\\c\nd\te\u{1}");
        assert_eq!(
            e.to_json(),
            "{\"kind\":\"esc\",\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new("nf")
            .with("nan", f64::NAN)
            .with("inf", f64::INFINITY);
        assert_eq!(e.to_json(), r#"{"kind":"nf","nan":null,"inf":null}"#);
    }

    #[test]
    fn field_lookup_finds_first_match() {
        let e = Event::new("k").with("a", 1u64).with("a", 2u64);
        assert_eq!(e.field("a"), Some(&Value::U64(1)));
        assert_eq!(e.field("zzz"), None);
        assert_eq!(e.kind(), "k");
        assert_eq!(e.fields().len(), 2);
    }
}
