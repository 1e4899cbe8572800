//! A tiny std-only JSON *line* codec — enough to smoke-test our own
//! JSON-lines exports (metrics, spans, events) and to carry the network
//! front door's wire protocol (`crates/net`) without pulling in serde.
//!
//! Three layers, all sharing one recursive-descent core:
//!
//! * [`check_object_line`] validates that a line is exactly one
//!   syntactically well-formed JSON object (UTF-8 escapes included) and
//!   returns its top-level keys in order of appearance. It does *not*
//!   build a value tree: callers only need "is this parseable?" plus
//!   "which keys are present?" — the contract the `verify.sh` trace-smoke
//!   gate and `pool_server --trace` self-check assert.
//! * [`parse_object_line`] builds the value tree as ordered
//!   `(key, `[`JsonValue`]`)` pairs — the decode half of the wire frame
//!   codec. [`JsonValue`] carries typed accessors ([`JsonValue::as_str`],
//!   [`JsonValue::as_u64`], …) so frame handlers read fields without
//!   pattern-matching boilerplate.
//! * [`ObjectBuilder`] renders a single-line JSON object with correct
//!   string escaping — the encode half, and the only JSON encoder in the
//!   workspace: wire responses, metric lines, trace events and profile
//!   lines all render through it.

/// Why a line failed validation. The offset is a byte position into the
/// line, for error messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

/// One parsed JSON value. Numbers are carried as `f64` (integers up to
/// 2^53 round-trip exactly — wire ids and counters are far below that);
/// object members keep their order of appearance.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer (a `Num` with no
    /// fractional part, within `f64`'s exact-integer range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// First member with key `key` (objects preserve appearance order and
    /// may, per JSON, repeat keys — first wins here).
    pub fn get<'v>(members: &'v [(String, JsonValue)], key: &str) -> Option<&'v JsonValue> {
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: &'static str) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(message)
        }
    }

    /// Parse a string literal, returning its unescaped contents.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.bump() else {
                return self.err("unterminated string");
            };
            match b {
                b'"' => return Ok(out),
                b'\\' => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired high surrogate");
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return self.err("invalid low surrogate");
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            match char::from_u32(c) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid surrogate pair"),
                            }
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return self.err("unpaired low surrogate");
                        } else {
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                    }
                    _ => return self.err("invalid escape"),
                },
                0x00..=0x1F => return self.err("unescaped control character"),
                0x20..=0x7F => out.push(b as char),
                _ => {
                    // Re-assemble the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or(JsonError {
                        offset: start,
                        message: "invalid utf-8",
                    })?;
                    while self.pos < start + len {
                        self.pos += 1;
                    }
                    let slice = self.bytes.get(start..start + len).ok_or(JsonError {
                        offset: start,
                        message: "truncated utf-8",
                    })?;
                    let s = std::str::from_utf8(slice).map_err(|_| JsonError {
                        offset: start,
                        message: "invalid utf-8",
                    })?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.bump() else {
                return self.err("truncated \\u escape");
            };
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return self.err("invalid \\u escape"),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<(), JsonError> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return self.err("invalid number"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("invalid number fraction");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return self.err("invalid number exponent");
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(())
    }

    fn literal(&mut self, word: &'static str, message: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            self.err(message)
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                self.object()?;
                Ok(())
            }
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true", "invalid literal"),
            Some(b'f') => self.literal("false", "invalid literal"),
            Some(b'n') => self.literal("null", "invalid literal"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.err("expected value"),
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[', "expected array")?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b']') => return Ok(()),
                Some(b',') => continue,
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Value-building twin of [`Parser::value`].
    fn value_tree(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(JsonValue::Obj(self.object_tree()?)),
            Some(b'[') => self.array_tree(),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self
                .literal("true", "invalid literal")
                .map(|()| JsonValue::Bool(true)),
            Some(b'f') => self
                .literal("false", "invalid literal")
                .map(|()| JsonValue::Bool(false)),
            Some(b'n') => self
                .literal("null", "invalid literal")
                .map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                self.number()?;
                // `number` validated the grammar, which is a strict subset
                // of Rust's float syntax, so the text parse cannot fail.
                let text =
                    std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                        offset: start,
                        message: "invalid utf-8",
                    })?;
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| JsonError {
                        offset: start,
                        message: "invalid number",
                    })
            }
            _ => self.err("expected value"),
        }
    }

    fn array_tree(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[', "expected array")?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value_tree()?);
            self.skip_ws();
            match self.bump() {
                Some(b']') => return Ok(JsonValue::Arr(items)),
                Some(b',') => continue,
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Value-building twin of [`Parser::object`].
    fn object_tree(&mut self) -> Result<Vec<(String, JsonValue)>, JsonError> {
        self.expect(b'{', "expected object")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(members);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            let value = self.value_tree()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b'}') => return Ok(members),
                Some(b',') => continue,
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    /// Parse an object, returning its keys in order of appearance.
    fn object(&mut self) -> Result<Vec<String>, JsonError> {
        self.expect(b'{', "expected object")?;
        let mut keys = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(keys);
        }
        loop {
            self.skip_ws();
            keys.push(self.string()?);
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b'}') => return Ok(keys),
                Some(b',') => continue,
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

fn utf8_len(b: u8) -> Option<usize> {
    match b {
        0xC2..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF4 => Some(4),
        _ => None,
    }
}

/// Validate that `line` is exactly one well-formed JSON object (with
/// nothing but whitespace around it) and return its top-level keys in
/// order of appearance.
pub fn check_object_line(line: &str) -> Result<Vec<String>, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let keys = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content after object");
    }
    Ok(keys)
}

/// Parse `line` as exactly one JSON object (nothing but whitespace around
/// it), returning its members as ordered `(key, value)` pairs — the decode
/// half of the wire frame codec.
pub fn parse_object_line(line: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let members = p.object_tree()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing content after object");
    }
    Ok(members)
}

/// Minimal JSON string escaping (quotes, backslashes, control
/// characters). Metric and span names are ASCII identifiers in practice,
/// but the escape keeps every export well-formed for arbitrary input.
fn json_escape(s: &str, out: &mut String) {
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
}

/// Builds a single-line JSON object with correct string escaping — the
/// encode half of the wire frame codec. Keys render in insertion order;
/// the caller is responsible for not repeating them.
///
/// ```
/// use polyview_obs::jsonl::ObjectBuilder;
/// let line = ObjectBuilder::new()
///     .field_u64("id", 7)
///     .field_str("ok", "1 + 1 = \"2\"")
///     .finish();
/// assert_eq!(line, "{\"id\":7,\"ok\":\"1 + 1 = \\\"2\\\"\"}");
/// ```
#[derive(Clone, Debug)]
pub struct ObjectBuilder {
    out: String,
    first: bool,
}

impl Default for ObjectBuilder {
    fn default() -> Self {
        ObjectBuilder::new()
    }
}

impl ObjectBuilder {
    pub fn new() -> Self {
        ObjectBuilder {
            out: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        json_escape(key, &mut self.out);
        self.out.push_str("\":");
    }

    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.out.push('"');
        json_escape(value, &mut self.out);
        self.out.push('"');
        self
    }

    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.out.push_str(&value.to_string());
        self
    }

    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn field_str_array<S: AsRef<str>>(mut self, key: &str, items: &[S]) -> Self {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push('"');
            json_escape(item.as_ref(), &mut self.out);
            self.out.push('"');
        }
        self.out.push(']');
        self
    }

    /// Splice a pre-rendered JSON value (e.g. a nested array of objects
    /// built with more [`ObjectBuilder`]s). The caller guarantees `raw` is
    /// well-formed JSON.
    pub fn field_raw(mut self, key: &str, raw: &str) -> Self {
        self.key(key);
        self.out.push_str(raw);
        self
    }

    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let mut out = String::new();
        json_escape("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn accepts_our_export_shapes() {
        let keys = check_object_line(
            "{\"kind\":\"span\",\"name\":\"pool.completed\",\"trace_id\":3,\"parent\":3,\"start_ns\":1,\"dur_ns\":9,\"worker\":0}",
        )
        .expect("valid");
        assert_eq!(
            keys,
            vec!["kind", "name", "trace_id", "parent", "start_ns", "dur_ns", "worker"]
        );
        let keys = check_object_line(
            "{\"kind\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\"buckets\":[[2,1]]}",
        )
        .expect("valid");
        assert_eq!(keys[0], "kind");
    }

    #[test]
    fn accepts_nested_values_and_escapes() {
        let keys = check_object_line(
            " {\"a\\n\\u00e9\": [1, -2.5e3, true, false, null, {\"x\": []}], \"b\": \"\\ud83d\\ude00\"} ",
        )
        .expect("valid");
        assert_eq!(keys, vec!["a\né", "b"]);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "[1,2]",
            "{\"a\":1} trailing",
            "{\"a\":}",
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\":01}",
            "{\"a\":+1}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":nul}",
            "{\"a\":1",
        ] {
            assert!(check_object_line(bad).is_err(), "accepted: {bad}");
            assert!(
                parse_object_line(bad).is_err(),
                "tree parse accepted: {bad}"
            );
        }
    }

    #[test]
    fn parse_object_line_builds_typed_values() {
        let members = parse_object_line(
            "{\"op\":\"batch\",\"id\":41,\"stmts\":[\"val x = 1;\",\"x\"],\"deep\":{\"ok\":true,\"none\":null},\"f\":-2.5}",
        )
        .expect("valid");
        assert_eq!(
            members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["op", "id", "stmts", "deep", "f"]
        );
        assert_eq!(
            JsonValue::get(&members, "op").unwrap().as_str(),
            Some("batch")
        );
        assert_eq!(JsonValue::get(&members, "id").unwrap().as_u64(), Some(41));
        let stmts = JsonValue::get(&members, "stmts")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].as_str(), Some("val x = 1;"));
        let deep = JsonValue::get(&members, "deep")
            .unwrap()
            .as_object()
            .unwrap();
        assert_eq!(JsonValue::get(deep, "ok").unwrap().as_bool(), Some(true));
        assert_eq!(JsonValue::get(deep, "none"), Some(&JsonValue::Null));
        assert_eq!(JsonValue::get(&members, "f"), Some(&JsonValue::Num(-2.5)));
        // Typed accessors refuse mismatches rather than coercing.
        assert_eq!(JsonValue::get(&members, "f").unwrap().as_u64(), None);
        assert_eq!(JsonValue::get(&members, "id").unwrap().as_str(), None);
        assert_eq!(JsonValue::get(&members, "missing"), None);
    }

    #[test]
    fn string_escapes_round_trip_exactly() {
        // Every simple escape, a \u escape, a surrogate pair, and raw
        // multi-byte UTF-8 — the `stats` op ships operator-visible strings
        // through this path, so unescaping must be byte-exact.
        let members = parse_object_line(
            "{\"s\":\"q\\\" b\\\\ s\\/ \\b\\f\\n\\r\\t u\\u00e9 p\\ud83d\\ude00 raw é\"}",
        )
        .expect("valid");
        assert_eq!(
            JsonValue::get(&members, "s").unwrap().as_str(),
            Some("q\" b\\ s/ \u{8}\u{c}\n\r\t ué p😀 raw é")
        );
        // Escaped characters in *keys* too.
        let members = parse_object_line("{\"a\\tb\":1}").expect("valid");
        assert_eq!(members[0].0, "a\tb");
    }

    #[test]
    fn deeply_nested_objects_parse_and_preserve_structure() {
        let line = "{\"a\":{\"b\":{\"c\":{\"d\":[{\"e\":1},{\"e\":2}]}}}}";
        let members = parse_object_line(line).expect("valid");
        let b = JsonValue::get(&members, "a").unwrap().as_object().unwrap();
        let c = JsonValue::get(b, "b").unwrap().as_object().unwrap();
        let d = JsonValue::get(c, "c").unwrap().as_object().unwrap();
        let arr = JsonValue::get(d, "d").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(
            JsonValue::get(arr[1].as_object().unwrap(), "e")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        // Duplicate keys are legal JSON; first wins through the accessor,
        // both survive in the member list.
        let dup = parse_object_line("{\"k\":1,\"k\":2}").expect("valid");
        assert_eq!(dup.len(), 2);
        assert_eq!(JsonValue::get(&dup, "k").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn numeric_overflow_and_precision_edges() {
        // 2^53 is the last exactly-representable integer: as_u64 accepts
        // it and refuses anything that cannot round-trip exactly.
        let members =
            parse_object_line("{\"max\":9007199254740992,\"over\":9007199254740993,\"huge\":18446744073709551615,\"neg\":-1,\"frac\":1.5,\"exp\":1e3,\"bigexp\":1e400}")
                .expect("valid grammar even when magnitudes overflow");
        let get = |k: &str| JsonValue::get(&members, k).unwrap();
        assert_eq!(get("max").as_u64(), Some(9_007_199_254_740_992));
        // 2^53 + 1 rounds *down* to 2^53 in f64 — indistinguishable from
        // the legitimate value, so the accessor's bound must sit at the
        // first value where integrality is still provable. Either answer
        // (None, or the rounded neighbour) would be defensible; the
        // implementation admits the rounded f64 since fract()==0 — pin
        // that it never fabricates a *larger* integer.
        assert!(get("over")
            .as_u64()
            .is_some_and(|v| v <= 9_007_199_254_740_992));
        // u64::MAX overflows the exact range: refused, not wrapped.
        assert_eq!(get("huge").as_u64(), None);
        assert_eq!(get("neg").as_u64(), None);
        assert_eq!(get("frac").as_u64(), None);
        assert_eq!(get("exp").as_u64(), Some(1000));
        // An exponent beyond f64's range parses as infinity per the
        // grammar; the typed accessor refuses it (fract() of inf is NaN).
        assert_eq!(get("bigexp").as_u64(), None);
        assert_eq!(*get("bigexp"), JsonValue::Num(f64::INFINITY));
    }

    #[test]
    fn truncated_input_is_an_error_never_a_panic() {
        // Prefixes of a valid line must all fail cleanly: the reader can
        // hand the parser a line cut anywhere (bounded reads truncate).
        let full = "{\"op\":\"stats\",\"id\":12,\"deep\":{\"arr\":[1,\"s\\u00e9\"]}}";
        assert!(parse_object_line(full).is_ok());
        for cut in 0..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let prefix = &full[..cut];
            assert!(
                parse_object_line(prefix).is_err(),
                "truncated prefix accepted: {prefix:?}"
            );
            assert!(check_object_line(prefix).is_err());
        }
        // Truncation inside escapes and surrogate pairs specifically.
        for bad in [
            "{\"s\":\"\\",
            "{\"s\":\"\\u00",
            "{\"s\":\"\\ud83d\"}",
            "{\"s\":\"\\ud83d\\u0041\"}",
            "{\"s\":\"\\ud83d\\ude",
        ] {
            assert!(parse_object_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn object_builder_round_trips_through_the_parser() {
        let nested = ObjectBuilder::new()
            .field_str("err", "bad \"thing\"\n")
            .finish();
        let line = ObjectBuilder::new()
            .field_u64("id", 9)
            .field_bool("busy", true)
            .field_str_array("stmts", &["a", "b\\c"])
            .field_raw("results", &format!("[{nested}]"))
            .finish();
        let members = parse_object_line(&line).expect("builder output parses");
        assert_eq!(JsonValue::get(&members, "id").unwrap().as_u64(), Some(9));
        assert_eq!(
            JsonValue::get(&members, "busy").unwrap().as_bool(),
            Some(true)
        );
        let stmts = JsonValue::get(&members, "stmts")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(stmts[1].as_str(), Some("b\\c"));
        let results = JsonValue::get(&members, "results")
            .unwrap()
            .as_array()
            .unwrap();
        let inner = results[0].as_object().unwrap();
        assert_eq!(
            JsonValue::get(inner, "err").unwrap().as_str(),
            Some("bad \"thing\"\n")
        );
        // And the validator agrees the builder emits exactly one object.
        assert!(check_object_line(&line).is_ok());
    }
}
