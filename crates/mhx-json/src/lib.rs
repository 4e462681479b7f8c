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

    /// The length of this value's compact encoding before any escaping:
    /// its strings and keys plus their quotes and punctuation, a number
    /// counted as one digit. A writer sizes its buffer from it once.
    pub fn len_hint(&self) -> usize {
        let commas = |n: usize| n.saturating_sub(1);
        match self {
            Json::Null | Json::Bool(true) => 4,
            Json::Bool(false) => 5,
            Json::Num(_) => 1,
            Json::Str(s) => s.len() + 2,
            Json::Arr(items) => {
                2 + commas(items.len()) + items.iter().map(Json::len_hint).sum::<usize>()
            }
            Json::Obj(entries) => {
                let members = entries.iter().map(|(k, v)| k.len() + 3 + v.len_hint());
                2 + commas(entries.len()) + members.sum::<usize>()
            }
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
/// piece is a whole UTF-8 slice. The text is read a word (8 bytes) at a
/// time: a clean word is skipped, and a word holding a byte to escape
/// jumps straight to the first such byte, the scan resuming after it.
fn escape_to<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let j = match escape_mask(word_at(bytes, i)) {
            0 => {
                i += 8;
                continue;
            }
            mask => i + first_flagged(mask),
        };
        out.write_str(&s[start..j])?;
        match bytes[j] {
            b'"' => out.write_str("\\\""),
            b'\\' => out.write_str("\\\\"),
            b'\n' => out.write_str("\\n"),
            b'\r' => out.write_str("\\r"),
            b'\t' => out.write_str("\\t"),
            b => write!(out, "\\u{b:04x}"),
        }?;
        start = j + 1;
        i = j + 1;
    }
    out.write_str(&s[start..])
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = ONES << 7;

/// The high bit of each byte of the little-endian word `w` that is below
/// `n` (for `n <= 0x80`), by the SWAR test for a byte below `n`. A borrow
/// only propagates upward, from a byte that is below `n`, so the lowest
/// flagged byte is always a true hit; bytes above it may be flagged
/// falsely.
fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * n as u64) & !w & HIGH
}

/// Flags for a `"` or a `\` in `w`, where a JSON string's run of plain
/// text ends: [`below`]'s flags for a zero byte of `w ^ c`, which is zero
/// where a byte equals `c`.
fn quote_mask(w: u64) -> u64 {
    below(w ^ (ONES * b'"' as u64), 1) | below(w ^ (ONES * b'\\' as u64), 1)
}

/// Flags for a byte of `w` that JSON must escape: a `"`, a `\` or a byte
/// below 0x20. Zero exactly when there is none.
fn escape_mask(w: u64) -> u64 {
    below(w, 0x20) | quote_mask(w)
}

/// The index of the lowest flagged byte of a non-zero mask: the first
/// true hit in the word.
fn first_flagged(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// The little-endian word of `bytes` at `i`, padded past their end with
/// spaces, which no mask flags.
fn word_at(bytes: &[u8], i: usize) -> u64 {
    match bytes.get(i..i + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let mut word = [b' '; 8];
            word[..bytes.len() - i].copy_from_slice(&bytes[i..]);
            u64::from_le_bytes(word)
        }
    }
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
    let value = parse_value(src, &mut pos, 0)?;
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
fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = src.as_bytes();
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
                let Json::Str(key) = parse_value(src, pos, depth + 1)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                entries.push((key, parse_value(src, pos, depth + 1)?));
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
                items.push(parse_value(src, pos, depth + 1)?);
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
        Some(b'"') => parse_string(src, pos).map(Json::Str),
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

fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    // The first run, up to the first quote or backslash, sizes the string:
    // most strings are that run alone.
    let start = *pos + 1;
    *pos = run_end(bytes, start);
    let mut out = String::with_capacity(*pos - start);
    out.push_str(&src[start..*pos]);
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
                // Copy the whole run up to the next quote or backslash. It
                // starts and ends beside ASCII bytes (or at the input's
                // end), so it is a whole UTF-8 slice of `src`.
                let start = *pos;
                *pos = run_end(bytes, start);
                out.push_str(&src[start..*pos]);
            }
        }
    }
}

/// The first `"` or `\` in `bytes` at or after `i`, or their end, found
/// a word at a time.
fn run_end(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        match quote_mask(word_at(bytes, i)) {
            0 => i += 8,
            mask => return i + first_flagged(mask),
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hint is the encoding's exact length when nothing needs escaping
    /// and no number is written, and never more than it otherwise.
    #[test]
    fn len_hint_sizes_the_encoding_from_below() {
        let clean = Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("serialized".into(), Json::Str("<w n=\u{27}1\u{27}>gesceaftum</w>".into())),
            ("items".into(), Json::Arr(vec![Json::Str("a".into()), Json::Null, Json::Bool(false)])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let mut out = String::new();
        clean.write_into(&mut out);
        assert_eq!(clean.len_hint(), out.len(), "{out}");
        for v in [
            Json::Str("a \"quoted\"\n\\ line".into()),
            Json::Arr(vec![Json::Num(12345.678), Json::Num(-1e300), Json::Num(0.0)]),
            Json::Obj(vec![("k\"ey".into(), Json::Num(7.0))]),
        ] {
            let mut out = String::new();
            v.write_into(&mut out);
            assert!(v.len_hint() <= out.len(), "{} > {} for {out}", v.len_hint(), out.len());
        }
    }

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

    /// Every placement of one or two bytes to escape, or of a multi-byte
    /// character, in a 16-byte string: each word-aligned and unaligned
    /// jump, two hits in one word, and hits in the partial last word.
    #[test]
    fn escaping_matches_the_oracle_at_every_placement() {
        let specials = ['"', '\\', '\n', '\u{1}', 'é', '😀'];
        for a in specials {
            for b in specials {
                for i in 0..16 {
                    for j in i..16 {
                        let mut s = String::new();
                        for k in 0..16 {
                            s.push(if k == i {
                                a
                            } else if k == j {
                                b
                            } else {
                                'x'
                            });
                        }
                        assert_eq!(escape(&s), escape_by_char(&s), "{s:?}");
                    }
                }
            }
        }
    }

    /// The byte-at-a-time string decoder the word-at-a-time one replaced,
    /// for the escapes [`decoding_matches_the_reference_at_every_offset`]
    /// writes: the oracle.
    fn decode_by_byte(literal: &str) -> String {
        let bytes = literal.as_bytes();
        let hex = |i: usize| u32::from_str_radix(&literal[i..i + 4], 16).unwrap();
        let (mut out, mut i) = (Vec::new(), 1);
        while bytes[i] != b'"' {
            let (c, len) = match bytes[i..i + 2] {
                [b'\\', b'n'] => ('\n', 2),
                [b'\\', b'u'] if (0xD800..0xDC00).contains(&hex(i + 2)) => {
                    let pair = 0x10000 + ((hex(i + 2) - 0xD800) << 10) + (hex(i + 8) - 0xDC00);
                    (char::from_u32(pair).unwrap(), 12)
                }
                [b'\\', b'u'] => (char::from_u32(hex(i + 2)).unwrap(), 6),
                [b'\\', other] => (other as char, 2),
                _ => {
                    out.push(bytes[i]);
                    i += 1;
                    continue;
                }
            };
            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
            i += len;
        }
        String::from_utf8(out).unwrap()
    }

    /// `\"`, `\\`, `\n`, a raw `é` and a surrogate pair, each at every
    /// offset of a 16-byte window, and all of them together.
    #[test]
    fn decoding_matches_the_reference_at_every_offset() {
        let pieces = [r#"\""#, r"\\", r"\n", "é", r"\ud83d\ude00"];
        let mut literals: Vec<String> = Vec::new();
        for piece in pieces {
            for i in 0..16 {
                literals.push(format!("\"{}{piece}{}\"", "a".repeat(i), "b".repeat(16 - i)));
            }
        }
        literals.push(format!("\"{}\"", pieces.concat().repeat(3)));
        for literal in &literals {
            assert_eq!(parse(literal), Ok(Json::Str(decode_by_byte(literal))), "{literal}");
        }
    }

    #[test]
    fn malformed_strings_fail_with_their_messages() {
        let err = |text: &str| parse(text).unwrap_err();
        assert_eq!(err(r#""unterminated and longer than a word"#), "unterminated string");
        assert_eq!(err(r#"["a", "bcdefghijk"#), "unterminated string");
        assert_eq!(err(r#""abcdefghij\q""#), "invalid escape at byte 12");
        assert_eq!(err(r#""abcdefghij\"#), "invalid escape at byte 12");
        assert_eq!(err(r#""abcdefghij\u12""#), "truncated \\u escape");
        assert_eq!(err(r#""abcdefghij\u12zz""#), "invalid \\u escape");
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
