//! Minimal JSON value model for the experiment harness.
//!
//! Numbers are stored as their *rendered string* — chosen at creation
//! time (`Json::fixed(3.456, 2)` stores `"3.46"`) and preserved verbatim
//! by the parser — so a trial result that round-trips through disk
//! re-renders byte-identically into the aggregate. The renderer matches
//! the layout of the committed `BENCH_*.json` artifacts: top-level object
//! keys one per line, the `rows` array one inline object per line, and
//! `"key": value` with a colon-space (which is what the `check.sh`
//! key-schema gates grep for).

use std::fmt::Write as _;

/// A JSON value. Numbers keep their rendered text (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its rendered token.
    Num(String),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer value.
    pub fn int<T: std::fmt::Display>(v: T) -> Json {
        Json::Num(v.to_string())
    }

    /// A float rendered with `decimals` fraction digits (the committed
    /// artifacts use `{:.0}` … `{:.3}` depending on the metric).
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Json::Num(format!("{v:.decimals$}"))
    }

    /// A string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders in the committed-artifact layout (see module docs), with a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_at(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on one line (used for nested values and trial params).
    pub fn render_inline(&self) -> String {
        let mut out = String::new();
        self.render_compact(&mut out);
        out
    }

    fn render_at(&self, out: &mut String, depth: usize) {
        match self {
            Json::Obj(members) if depth == 0 => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    let _ = write!(out, "  \"{}\": ", escape(k));
                    v.render_at(out, 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push('}');
            }
            Json::Arr(items) if depth == 1 && !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str("    ");
                    item.render_compact(out);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str("  ]");
            }
            other => other.render_compact(out),
        }
    }

    fn render_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape(s));
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{}\": ", escape(k));
                    v.render_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Parses a JSON document. Number tokens are kept verbatim so a
/// parse→render round trip preserves their formatting.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
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
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            token
                .parse::<f64>()
                .map_err(|e| format!("bad number `{token}`: {e}"))?;
            Ok(Json::Num(token.to_string()))
        }
        Some(c) => Err(format!("unexpected byte `{}` at {pos}", *c as char)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = Vec::new();
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    other => return Err(format!("unsupported escape `\\{}`", *other as char)),
                }
            }
            c => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formatting_survives_round_trip() {
        let doc = Json::Obj(vec![
            ("rate".to_string(), Json::fixed(1234.5678, 0)),
            ("ms".to_string(), Json::fixed(0.5, 2)),
            ("n".to_string(), Json::int(42u64)),
        ]);
        let text = doc.render();
        assert!(text.contains("\"rate\": 1235"), "{text}");
        assert!(text.contains("\"ms\": 0.50"), "{text}");
        let back = parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn committed_artifact_layout() {
        let doc = Json::Obj(vec![
            ("experiment".to_string(), Json::str("E99")),
            (
                "rows".to_string(),
                Json::Arr(vec![
                    Json::Obj(vec![("k".to_string(), Json::int(1))]),
                    Json::Obj(vec![("k".to_string(), Json::int(2))]),
                ]),
            ),
            ("speedup".to_string(), Json::fixed(2.0, 2)),
        ]);
        let expect = "{\n  \"experiment\": \"E99\",\n  \"rows\": [\n    {\"k\": 1},\n    {\"k\": 2}\n  ],\n  \"speedup\": 2.00\n}\n";
        assert_eq!(doc.render(), expect);
    }

    #[test]
    fn parses_committed_style_document_and_rejects_garbage() {
        let text = "{\n  \"a\": [1, 2.50, \"x\"],\n  \"b\": {\"c\": true, \"d\": null}\n}\n";
        let doc = parse(text).expect("parses");
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(doc.get("b").unwrap().get("c").unwrap(), &Json::Bool(true));
        assert!(parse("{ not json").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let doc = Json::Obj(vec![(
            "s".to_string(),
            Json::str("line\nwith \"quotes\" and \\slash"),
        )]);
        let text = doc.render();
        assert_eq!(parse(&text).expect("parses"), doc);
    }
}
