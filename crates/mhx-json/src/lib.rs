//! # mhx-json — minimal std-only JSON
//!
//! One small JSON implementation shared by the two places the workspace
//! speaks JSON: the `mhxd` network wire format (`multihier_xquery::server`)
//! and the `bench-check` perf gate (`mhx_bench::snapshot`). Std-only on
//! purpose — the build environment is offline, so the gate and the server
//! must not grow external dependencies.
//!
//! The parser supports exactly what those callers produce: objects,
//! arrays, strings with the standard escapes (`\"` `\\` `\/` `\b` `\f`
//! `\n` `\r` `\t` `\uXXXX`), numbers, booleans, null. The writer is the
//! inverse: [`Json::write_into`] emits compact JSON with all mandatory
//! escaping (control characters included), and round-trips through
//! [`parse`]. Nesting is capped at [`MAX_DEPTH`] arrays and objects, so a
//! hostile body is an error, not a stack overflow.
//!
//! ```
//! use mhx_json::{parse, Json};
//!
//! let doc = parse(r#"{"query": "count(/descendant::w)", "lang": "xpath"}"#).unwrap();
//! assert_eq!(doc.get("lang").and_then(Json::as_str), Some("xpath"));
//!
//! let reply = Json::Obj(vec![
//!     ("ok".into(), Json::Bool(true)),
//!     ("serialized".into(), Json::Str("<w>þa</w>".into())),
//! ]);
//! assert_eq!(parse(&reply.to_string()).unwrap(), reply);
//! ```

use std::fmt;

/// A parsed JSON value. Objects preserve insertion order (irrelevant for
/// equality-by-key lookups, handy for error messages and stable output).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match wins); `None` on any other
    /// variant.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// Write this value as compact JSON onto `out`.
    pub fn write_into(&self, out: &mut String) {
        self.write_to(out).expect("writing to a String cannot fail");
    }

    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => {
                out.write_char('"')?;
                escape_to(s, out)?;
                out.write_char('"')
            }
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write_to(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(entries) => {
                out.write_char('{')?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    out.write_char('"')?;
                    escape_to(k, out)?;
                    out.write_str("\":")?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// `Display` is the compact writer, so `to_string()` serializes straight
/// into the string it returns.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Serialize a number the way JSON expects: integral values print without
/// a fractional part, non-finite values (which JSON cannot represent)
/// degrade to `null`.
fn write_number<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if !n.is_finite() {
        out.write_str("null")
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

/// Append `s` to `out` with JSON string escaping: `"` and `\` are escaped,
/// control characters become `\n`/`\r`/`\t`/`\uXXXX`. Everything else
/// (including non-ASCII) passes through as UTF-8.
pub fn escape_into(s: &str, out: &mut String) {
    escape_to(s, out).expect("writing to a String cannot fail");
}

/// [`escape_into`] onto any writer. The text between two bytes that need
/// escaping goes out in one piece; those bytes are all ASCII, so every
/// piece is a whole UTF-8 slice. Clean text is skipped a word (8 bytes) at
/// a time, and only a word holding a byte to escape is read byte by byte.
fn escape_to<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if let Some(word) = bytes.get(i..i + 8) {
            if !word_needs_escape(u64::from_le_bytes(word.try_into().expect("8 bytes"))) {
                i += 8;
                continue;
            }
        }
        let end = bytes.len().min(i + 8);
        for (k, &b) in bytes[i..end].iter().enumerate() {
            let j = i + k;
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.write_str(&s[start..j])?;
            match b {
                b'"' => out.write_str("\\\""),
                b'\\' => out.write_str("\\\\"),
                b'\n' => out.write_str("\\n"),
                b'\r' => out.write_str("\\r"),
                b'\t' => out.write_str("\\t"),
                _ => write!(out, "\\u{b:04x}"),
            }?;
            start = j + 1;
        }
        i = end;
    }
    out.write_str(&s[start..])
}

/// Does the little-endian word `w` hold a `"`, a `\` or a byte below
/// 0x20? Exact, by the SWAR tests for a zero byte (`x ^ c` is zero where
/// `x == c`) and for a byte below `n` (valid for `n <= 0x80`), which never
/// fire on a word without such a byte.
fn word_needs_escape(w: u64) -> bool {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES << 7;
    let below = |v: u64, n: u64| v.wrapping_sub(ONES * n) & !v & HIGH != 0;
    below(w, 0x20) || below(w ^ (ONES * b'"' as u64), 1) || below(w ^ (ONES * b'\\' as u64), 1)
}

/// [`escape_into`] returning a fresh `String` (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser, the writer and `Drop` all recurse once per level, so the cap
/// keeps a hostile document within a thread's stack; the deepest document
/// the workspace writes (a router's `/stats`) is about 7 levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document (one top-level value, trailing content rejected,
/// nesting deeper than [`MAX_DEPTH`] rejected).
pub fn parse(src: &str) -> Result<Json, String> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let Json::Str(key) = parse_value(bytes, pos, depth + 1)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                entries.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
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
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number run");
    text.parse::<f64>().map(Json::Num).map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        // Non-BMP characters arrive as UTF-16 surrogate
                        // pairs (`😀`); combine a high surrogate
                        // with the following `\uXXXX` low surrogate.
                        let low = (0xD800..0xDC00)
                            .contains(&code)
                            .then(|| {
                                if bytes.get(*pos + 5..*pos + 7) != Some(b"\\u") {
                                    return None;
                                }
                                bytes
                                    .get(*pos + 7..*pos + 11)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|l| (0xDC00..0xE000).contains(l))
                            })
                            .flatten();
                        match low {
                            Some(low) => {
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(combined).unwrap_or('\u{FFFD}'));
                                *pos += 10;
                            }
                            None => {
                                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                                *pos += 4;
                            }
                        }
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole UTF-8 run up to the next quote/backslash.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_all_value_shapes() {
        let doc = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(1000.0));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert_eq!(doc.get("b").and_then(|b| b.get("d")).and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("e").and_then(Json::as_str), Some("x"));
        let esc = parse(r#"{"s": "a\"b\\c\ndéé"}"#).unwrap();
        assert_eq!(esc.get("s").and_then(Json::as_str), Some("a\"b\\c\ndéé"));
        // UTF-16 surrogate pairs (what ensure_ascii encoders emit for
        // non-BMP characters) combine into the real character.
        let emoji = parse(r#""😀!""#).unwrap();
        assert_eq!(emoji.as_str(), Some("😀!"));
        // Lone or mismatched surrogates degrade to U+FFFD, not an error.
        assert_eq!(parse(r#""\ud83dx""#).unwrap().as_str(), Some("\u{FFFD}x"));
        assert_eq!(parse(r#""\ud83dA""#).unwrap().as_str(), Some("\u{FFFD}A"));
        assert!(parse("{").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse(r#"{"x": nope}"#).is_err());
        assert!(parse(r#"{"x" 1}"#).is_err());
        assert!(parse(r#"[1 2]"#).is_err());
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let value = Json::Obj(vec![
            ("query".into(), Json::Str("//w[string(.) = \"þa\"]\n\tline2\u{1}".into())),
            ("count".into(), Json::Num(42.0)),
            ("ratio".into(), Json::Num(2.5)),
            ("flags".into(), Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested".into(), Json::Obj(vec![("empty".into(), Json::Arr(vec![]))])),
        ]);
        let text = value.to_string();
        assert_eq!(parse(&text).unwrap(), value);
        // Integral numbers print without a fractional part.
        assert!(text.contains("\"count\":42,"), "{text}");
        // Control characters are escaped, so the output is single-line.
        assert!(!text.contains('\n'), "{text}");
        assert!(text.contains("\\u0001"), "{text}");
    }

    #[test]
    fn escaping_covers_the_mandatory_set() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{0002}"), "\\u0002");
        assert_eq!(escape("déjà"), "déjà", "non-ASCII passes through");
    }

    /// The char-at-a-time escaper the run-based one replaced: the oracle.
    fn escape_by_char(s: &str) -> String {
        use fmt::Write;
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out
    }

    /// Quotes, backslashes, control characters (each escape form), DEL,
    /// and one- to four-byte UTF-8 characters, mixed at random.
    const ALPHABET: &[char] = &[
        'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1f}', '\u{7f}', 'é', 'þ', '€', '漢', '\u{2028}', '😀', '𝔊',
    ];

    /// Plain ASCII letters drawn beside [`ALPHABET`], so that most strings
    /// hold clean runs longer than a word with escapes at every offset.
    const PLAIN: usize = 3 * ALPHABET.len();

    proptest::proptest! {
        #[test]
        fn escaping_matches_the_char_at_a_time_oracle_and_round_trips(
            picks in proptest::collection::vec(0..ALPHABET.len() + PLAIN, 0..400),
        ) {
            let s: String = picks
                .iter()
                .map(|&i| ALPHABET.get(i).copied().unwrap_or((b'a' + (i % 26) as u8) as char))
                .collect();
            proptest::prop_assert_eq!(escape(&s), escape_by_char(&s));
            let text = Json::Str(s.clone()).to_string();
            proptest::prop_assert_eq!(parse(&text), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }

    /// `levels` nested arrays around one number.
    fn nested(levels: usize) -> String {
        format!("{}1{}", "[".repeat(levels), "]".repeat(levels))
    }

    /// On a thread with the 2 MiB stack a server's workers get, the
    /// deepest accepted document parses, re-encodes and drops; one level
    /// deeper is an error, not a stack overflow — as is a depth that
    /// would overflow the stack if it were parsed.
    #[test]
    fn nesting_is_capped_within_a_worker_stack() {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let deepest = parse(&nested(MAX_DEPTH)).expect("the deepest accepted document");
                assert_eq!(deepest.to_string(), nested(MAX_DEPTH));
                drop(deepest);
                let mixed =
                    format!("{}{}", r#"{"a":["#.repeat(MAX_DEPTH / 2), "]}".repeat(MAX_DEPTH / 2));
                assert!(parse(&mixed).is_ok(), "objects and arrays count alike");
                assert!(parse(&format!("[{mixed}]")).unwrap_err().contains("nesting deeper"));
                assert!(parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting deeper"));
                assert!(parse(&nested(10_000)).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn non_finite_numbers_degrade_to_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }
}
