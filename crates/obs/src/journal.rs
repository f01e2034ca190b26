//! Reading the JSONL event journal back: a minimal JSON parser.
//!
//! The workspace is dependency-free by policy, and the journal's writer
//! side ([`crate::event`]) is hand-rolled; this module is its reading
//! half, shared by the Chrome-trace exporter ([`crate::trace`]) behind
//! the [`crate::TelemetryHub`]'s `/trace` view, the fleet plane's metrics
//! scrape, and the `obs_report` analysis binary. It parses full RFC 8259
//! JSON with one deliberate refinement: unsigned integers
//! that fit `u64` are kept exact ([`Json::U64`]) rather than routed
//! through `f64`, because span ids are 64-bit hashes whose low bits a
//! double would silently destroy.
//!
//! Journals from killed runs end in a torn line, and interleaved writers
//! can corrupt individual lines; parsing is therefore per-line and
//! fallible — callers skip `None` lines and count them (see
//! `obs_report`'s malformed-line warning) instead of aborting.

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer that fits `u64`, kept exact.
    U64(u64),
    /// Any other number (negative, fractional, exponent).
    F64(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; `None` on any syntax error or
    /// trailing garbage (torn journal tails land here).
    #[must_use]
    pub fn parse(text: &str) -> Option<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }

    /// Member lookup on an object (first match); `None` otherwise.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is an exact unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (exact integers convert losslessly up to 2⁵³).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(v) => Some(*v as f64),
            Json::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object members in written order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Convenience: the `kind` tag of a journal event line.
    #[must_use]
    pub fn kind(&self) -> Option<&str> {
        self.get("kind").and_then(Json::as_str)
    }
}

/// Nesting beyond this depth is rejected — journal events are flat plus
/// one embedded metrics object; anything deeper is corruption.
const MAX_DEPTH: u32 = 32;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    parse_value_at(bytes, pos, 0)
}

fn parse_value_at(bytes: &[u8], pos: &mut usize, depth: u32) -> Option<Json> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => parse_object(bytes, pos, depth),
        b'[' => parse_array(bytes, pos, depth),
        b'"' => parse_string(bytes, pos).map(Json::Str),
        b't' => eat(bytes, pos, b"true").then_some(Json::Bool(true)),
        b'f' => eat(bytes, pos, b"false").then_some(Json::Bool(false)),
        b'n' => eat(bytes, pos, b"null").then_some(Json::Null),
        _ => parse_number(bytes, pos),
    }
}

fn eat(bytes: &[u8], pos: &mut usize, literal: &[u8]) -> bool {
    if bytes[*pos..].starts_with(literal) {
        *pos += literal.len();
        true
    } else {
        false
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: u32) -> Option<Json> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let value = parse_value_at(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Json::Obj(members));
            }
            _ => return None,
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: u32) -> Option<Json> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Json::Arr(items));
    }
    loop {
        items.push(parse_value_at(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Json::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let hex = std::str::from_utf8(hex).ok()?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        // Surrogates (journal strings never need them)
                        // map to the replacement character rather than
                        // failing the whole line.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through verbatim: the
                // input is a &str, so byte boundaries are already valid.
                let start = *pos;
                *pos += 1;
                while bytes
                    .get(*pos)
                    .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos]).ok()?;
                if chunk.chars().any(|c| (c as u32) < 0x20) {
                    return None; // raw control character: invalid JSON
                }
                out.push_str(chunk);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Json> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut integral = true;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                integral = false;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).ok()?;
    if token.is_empty() || token == "-" {
        return None;
    }
    if integral && !token.starts_with('-') {
        if let Ok(v) = token.parse::<u64>() {
            return Some(Json::U64(v));
        }
    }
    token.parse::<f64>().ok().map(Json::F64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    #[test]
    fn round_trips_an_event_line() {
        let line = Event::new("span")
            .with("name", "iter_round_ns")
            .with("id", 3u64)
            .with("parent", 0u64)
            .with("start_ns", 1_500u64)
            .with("gap", 0.25)
            .with("ok", true)
            .to_json();
        let v = Json::parse(&line).expect("parses");
        assert_eq!(v.kind(), Some("span"));
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("gap").and_then(Json::as_f64), Some(0.25));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn big_u64_span_ids_stay_exact() {
        let id = u64::MAX - 7;
        let line = format!("{{\"kind\":\"span\",\"id\":{id}}}");
        let v = Json::parse(&line).expect("parses");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(id));
    }

    #[test]
    fn parses_nested_metrics_snapshot_shapes() {
        let line = r#"{"kind":"metrics_snapshot","metrics":{"counters":{"n":4},"gauges":{"g":-1.5},"histograms":{"h":{"bounds":[10,100],"counts":[1,0,2],"min":null}}}}"#;
        let v = Json::parse(line).expect("parses");
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("counters")
                .and_then(|c| c.get("n"))
                .and_then(Json::as_u64),
            Some(4)
        );
        assert_eq!(
            metrics
                .get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(Json::as_f64),
            Some(-1.5)
        );
        let hist = metrics
            .get("histograms")
            .and_then(|h| h.get("h"))
            .expect("h");
        let bounds: Vec<u64> = hist
            .get("bounds")
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        assert_eq!(bounds, [10, 100]);
        assert_eq!(hist.get("min"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#"{"s":"a\"b\\c\ndA"}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_torn_and_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"kind\":\"iter",          // torn mid-string
            "{\"kind\":\"a\"}{\"b\":1}", // two objects on one line
            "{\"kind\":}",
            "{\"n\":1e}",
            "not json at all",
            "{\"a\":1,}",
        ] {
            assert!(Json::parse(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn whitespace_and_empty_containers_are_fine() {
        assert_eq!(Json::parse(" [ ] "), Some(Json::Arr(vec![])));
        assert_eq!(Json::parse("{ }"), Some(Json::Obj(vec![])));
        assert_eq!(Json::parse("-2.5e3"), Some(Json::F64(-2500.0)));
        assert_eq!(
            Json::parse("18446744073709551615"),
            Some(Json::U64(u64::MAX))
        );
    }
}
