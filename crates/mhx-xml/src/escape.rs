//! Escaping and entity/character-reference expansion.
//!
//! The five predefined entities (`lt gt amp apos quot`) are always known;
//! additional general entities (from a DTD internal subset) can be supplied
//! through [`EntityMap`].

use crate::error::{ErrorKind, Pos, Result, XmlError};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// General entities available during parsing, beyond the predefined five.
#[derive(Debug, Clone, Default)]
pub struct EntityMap {
    map: BTreeMap<String, String>,
}

impl EntityMap {
    pub fn new() -> EntityMap {
        EntityMap::default()
    }

    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.map.insert(name.into(), value.into());
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

fn predefined(name: &str) -> Option<char> {
    Some(match name {
        "lt" => '<',
        "gt" => '>',
        "amp" => '&',
        "apos" => '\'',
        "quot" => '"',
        _ => return None,
    })
}

/// Expand `&name;` / `&#dd;` / `&#xhh;` references in `raw`.
///
/// Returns `Cow::Borrowed` when no reference occurs, which is the common case
/// for document-centric text. `pos` is the position of `raw`'s start, used
/// only for error reporting.
pub fn unescape<'a>(raw: &'a str, entities: &EntityMap, pos: Pos) -> Result<Cow<'a, str>> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let semi = rest.find(';').ok_or_else(|| XmlError::new(ErrorKind::BadCharRef, pos))?;
        let body = &rest[1..semi];
        if let Some(num) = body.strip_prefix('#') {
            let cp = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
                u32::from_str_radix(hex, 16)
            } else {
                num.parse::<u32>()
            }
            .map_err(|_| XmlError::new(ErrorKind::BadCharRef, pos))?;
            let c = char::from_u32(cp).ok_or_else(|| XmlError::new(ErrorKind::BadCharRef, pos))?;
            out.push(c);
        } else if let Some(c) = predefined(body) {
            out.push(c);
        } else if let Some(v) = entities.get(body) {
            // Entity values may themselves contain references (one level of
            // recursion is enough for the DTD subset we support).
            let expanded = unescape(v, entities, pos)?;
            out.push_str(&expanded);
        } else {
            return Err(XmlError::new(ErrorKind::UnknownEntity(body.to_string()), pos));
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Append `s` to `out` escaped as text content: `&`, `<`, and `>` (the
/// latter for `]]>` safety). The escaped characters are all ASCII, so the
/// scan runs over bytes and each unescaped run goes out in one piece.
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, out, &TEXT);
}

/// Append `s` to `out` escaped as a double-quoted attribute value: `&`,
/// `<`, `>`, and `"`.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_into(s, out, &ATTR);
}

/// Escape text content: [`escape_text_into`], borrowing `s` when nothing
/// needs escaping.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_cow(s, &TEXT)
}

/// Escape an attribute value for double-quoted serialization:
/// [`escape_attr_into`], borrowing `s` when nothing needs escaping.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_cow(s, &ATTR)
}

/// Which bytes need escaping: `&`, `<` and `>` in text, and `"` too in a
/// double-quoted attribute value. A table lookup per byte keeps the scan
/// as cheap as a plain copy loop.
const fn escapes(quote: bool) -> [bool; 256] {
    let mut t = [false; 256];
    t[b'&' as usize] = true;
    t[b'<' as usize] = true;
    t[b'>' as usize] = true;
    t[b'"' as usize] = quote;
    t
}

static TEXT: [bool; 256] = escapes(false);
static ATTR: [bool; 256] = escapes(true);

fn escape_into(s: &str, out: &mut String, table: &[bool; 256]) {
    let mut rest = s;
    while let Some(i) = rest.bytes().position(|b| table[b as usize]) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn escape_cow<'a>(s: &'a str, table: &[bool; 256]) -> Cow<'a, str> {
    if !s.bytes().any(|b| table[b as usize]) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    escape_into(s, &mut out, table);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn un(raw: &str) -> String {
        unescape(raw, &EntityMap::new(), Pos::start()).unwrap().into_owned()
    }

    #[test]
    fn plain_text_borrows() {
        let r = unescape("hello", &EntityMap::new(), Pos::start()).unwrap();
        assert!(matches!(r, Cow::Borrowed(_)));
    }

    #[test]
    fn predefined_entities() {
        assert_eq!(un("a&lt;b&gt;c&amp;d&apos;e&quot;f"), "a<b>c&d'e\"f");
    }

    #[test]
    fn char_refs_decimal_and_hex() {
        assert_eq!(un("&#254;"), "þ");
        assert_eq!(un("&#xFE;"), "þ");
        assert_eq!(un("&#x2014;"), "\u{2014}");
    }

    #[test]
    fn unknown_entity_errors() {
        let e = unescape("&nope;", &EntityMap::new(), Pos::start()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::UnknownEntity("nope".into()));
    }

    #[test]
    fn custom_entities_expand_recursively() {
        let mut m = EntityMap::new();
        m.insert("thorn", "&#xFE;");
        m.insert("word", "&thorn;a");
        assert_eq!(unescape("ge&word;", &m, Pos::start()).unwrap(), "geþa");
    }

    #[test]
    fn missing_semicolon_is_error() {
        assert!(unescape("&ltx", &EntityMap::new(), Pos::start()).is_err());
    }

    #[test]
    fn bad_codepoint_is_error() {
        assert!(unescape("&#xD800;", &EntityMap::new(), Pos::start()).is_err());
        assert!(unescape("&#zz;", &EntityMap::new(), Pos::start()).is_err());
    }

    #[test]
    fn escape_text_roundtrips() {
        let original = "a<b & c>d";
        let escaped = escape_text(original);
        assert_eq!(escaped, "a&lt;b &amp; c&gt;d");
        assert_eq!(un(&escaped), original);
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(escape_attr(r#"say "hi" & <go>"#), "say &quot;hi&quot; &amp; &lt;go&gt;");
    }

    #[test]
    fn escape_borrows_when_clean() {
        assert!(matches!(escape_text("clean"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr("it's"), Cow::Borrowed(_)));
    }

    #[test]
    fn escaping_appends_to_the_buffer() {
        let mut out = String::from("<a k=\"");
        escape_attr_into("þ\"&'", &mut out);
        out.push_str("\">");
        escape_text_into("x<\"y\">&þ", &mut out);
        assert_eq!(out, "<a k=\"þ&quot;&amp;'\">x&lt;\"y\"&gt;&amp;þ");
    }
}
