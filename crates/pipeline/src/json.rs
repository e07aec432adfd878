//! A hand-rolled JSON subset — parser and writer.
//!
//! The build environment has an empty registry, so scenario-grid files and
//! structured result artifacts use this ~300-line implementation instead of
//! `serde`. Supported grammar: objects, arrays, strings (with the common
//! escapes and `\uXXXX`), finite numbers, booleans and `null`, plus two
//! conveniences for human-edited grid files: `//`- and `#`-style comments
//! and trailing commas. Object key order is preserved, so written artifacts
//! are stable and diffable.
//!
//! The module also holds the one codec every *tagged* wire enum goes
//! through (`TaggedForm`: a bare kind name, a `kind`-tagged object, or a
//! nested single-key object), the shared unknown-key check
//! ([`check_keys`]) with its nearest-name suggestion ([`unknown_key`]),
//! and the number and integer readers that parameters share.

use crate::{PipelineError, Result};
use std::fmt::{Display, Write as _};
use std::ops::RangeInclusive;

/// 2⁵³: every integer up to it is exact in an `f64`.
const MAX_EXACT_INT: u64 = 1 << 53;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a document (one value, optionally surrounded by whitespace and
    /// comments).
    ///
    /// # Errors
    ///
    /// [`PipelineError::Parse`] with a 1-based line number on malformed
    /// input.
    pub fn parse(src: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after the document"));
        }
        Ok(value)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Encode a `u64` exactly: as a number while f64-safe (≤ 2⁵³), as a
    /// decimal string above that. JSON numbers travel as doubles, which
    /// would corrupt the low bits of full-range values like split seeds.
    pub fn from_u64(n: u64) -> Json {
        if n <= MAX_EXACT_INT {
            Json::Num(n as f64)
        } else {
            Json::Str(n.to_string())
        }
    }

    /// Decode a `u64` written by [`Json::from_u64`] (also accepts any
    /// non-negative integral number or decimal string).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_INT as f64 => {
                Some(*n as u64)
            }
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object (ordered key/value pairs).
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serialize with 2-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialize onto one line with no extra whitespace — the JSON-lines
    /// form the `repro serve` daemon speaks (one value per line, so
    /// embedded newlines are never emitted).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
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

/// A scenario-field error ([`PipelineError::InvalidSpec`], `bad_spec` on
/// the wire).
pub(crate) fn invalid(field: &'static str, msg: impl Into<String>) -> PipelineError {
    PipelineError::InvalidSpec {
        field,
        msg: msg.into(),
    }
}

/// Levenshtein edit distance (iterative two-row form).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            curr[j + 1] = subst.min(prev[j + 1] + 1).min(curr[j] + 1);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// The closest candidate to `key` by edit distance, if it is close enough
/// to plausibly be a typo (distance ≤ max(2, len/3), ties broken by
/// candidate order).
fn suggest(key: &str, candidates: &[&'static str]) -> Option<&'static str> {
    let budget = (key.chars().count() / 3).max(2);
    candidates
        .iter()
        .map(|c| (edit_distance(key, c), *c))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= budget)
        .map(|(_, c)| c)
}

/// Build an [`PipelineError::UnknownKey`] with the nearest valid key by
/// edit distance (suggested when the typo is within max(2, len/3) edits).
/// Public so downstream front ends (the `cnfet-opt` fab search, custom
/// spec layers) report typos with the same structure and suggestion rule
/// as the core parsers.
pub fn unknown_key(context: &'static str, key: &str, candidates: &[&'static str]) -> PipelineError {
    PipelineError::UnknownKey {
        context,
        key: key.to_string(),
        suggestion: suggest(key, candidates).map(str::to_string),
    }
}

/// Reject the first of `fields` whose key is not in `allowed` with
/// [`unknown_key`]. The suggestion skips keys already present: the parser
/// rejects duplicate keys, so a typo cannot have meant one of them.
///
/// # Errors
///
/// [`PipelineError::UnknownKey`] naming `context`.
pub fn check_keys<'a, I>(context: &'static str, fields: I, allowed: &[&'static str]) -> Result<()>
where
    I: IntoIterator<Item = &'a (String, Json)>,
    I::IntoIter: Clone,
{
    let fields = fields.into_iter();
    let Some((key, _)) = fields.clone().find(|(k, _)| !allowed.contains(&k.as_str())) else {
        return Ok(());
    };
    let absent: Vec<&'static str> = allowed
        .iter()
        .copied()
        .filter(|a| fields.clone().all(|(k, _)| k != a))
        .collect();
    Err(unknown_key(context, key, &absent))
}

/// Read `v`, if given, as a number; any other value is a `bad_spec` error
/// on `field` naming `key`.
pub(crate) fn num(field: &'static str, key: &str, v: Option<&Json>) -> Result<Option<f64>> {
    v.map(|j| {
        j.as_f64()
            .ok_or_else(|| invalid(field, format!("`{key}` must be a number")))
    })
    .transpose()
}

/// Read `v` as an integer in `range`, whose end must not pass 2⁵³ (as
/// [`Json::as_u64`]). A non-number, or a fractional, negative or
/// out-of-range number, is a `bad_spec` error on `field` naming `key`.
pub(crate) fn int<T>(
    field: &'static str,
    key: &str,
    v: &Json,
    range: RangeInclusive<T>,
) -> Result<T>
where
    T: Copy + Display + Into<u64> + TryFrom<u64>,
{
    let (lo, hi): (u64, u64) = ((*range.start()).into(), (*range.end()).into());
    debug_assert!(hi <= MAX_EXACT_INT, "`{key}` range ends past 2^53");
    v.as_f64()
        .filter(|n| n.fract() == 0.0 && (lo as f64..=hi as f64).contains(n))
        .and_then(|n| T::try_from(n as u64).ok())
        .ok_or_else(|| {
            invalid(
                field,
                format!(
                    "`{key}` must be an integer in [{}, {}]",
                    range.start(),
                    range.end()
                ),
            )
        })
}

/// The table of one tagged wire enum (the count back-end, a redundancy
/// scheme, a distribution, a searcher): its kind names and, aligned with
/// them, each kind's parameter names in print order.
///
/// [`TaggedForm::parse`] reads three forms. An unknown kind or parameter
/// answers `unknown_key`, suggesting the nearest kind or parameter name.
///
/// * A **bare kind name**, `"tmr"`, is that kind with no parameters, so a
///   kind that needs some answers `bad_spec` "`<kind>` needs parameters
///   (use the object form)" (from [`Tagged::need`]).
/// * In an **object with a `kind` key**, `{"kind": "uniform", "lo": 0,
///   "hi": 1}`, `kind` must be a string (else `bad_spec`) and every other
///   key one of the kind's parameters.
/// * In an **object with one key that is not `kind`**, `{"uniform":
///   {"lo": 0, "hi": 1}}`, the key is the kind and its payload must be an
///   object (else `bad_spec` "`<kind>` parameters must be an object") of
///   the kind's parameters, among which `kind` is unknown.
///
/// Any other object or JSON type is `bad_spec`; a wrapper that gives
/// another type a meaning (a bare number is a fixed distribution) handles
/// it first. Checks across parameters stay in each enum's build step.
///
/// [`TaggedForm::print`] writes the normal form: a kind without parameters
/// as its bare name, any other as the `kind` object with its parameters in
/// table order.
pub(crate) struct TaggedForm<const N: usize> {
    /// The kind names.
    pub kinds: [&'static str; N],
    /// Each kind's parameter names, in print order.
    pub params: [&'static [&'static str]; N],
}

impl<const N: usize> TaggedForm<N> {
    /// Parse one tagged value of scenario field `field` into its kind and
    /// parameters (the rules are on [`TaggedForm`]).
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownKey`] for an unknown kind or parameter,
    /// [`PipelineError::InvalidSpec`] for a malformed value.
    pub(crate) fn parse<'a>(&self, field: &'static str, v: &'a Json) -> Result<Tagged<'a>> {
        let tag = v.get("kind");
        let (name, params) = match (v, tag) {
            (Json::Str(name), _) => (name.as_str(), None),
            (Json::Obj(_), Some(tag)) => {
                let name = tag
                    .as_str()
                    .ok_or_else(|| invalid(field, "`kind` must be a string"))?;
                (name, Some(v))
            }
            (Json::Obj(fields), None) => match fields.as_slice() {
                [(name, payload)] => (name.as_str(), Some(payload)),
                _ => {
                    return Err(invalid(
                        field,
                        "object form needs a `kind` key or a single `<kind>` key",
                    ))
                }
            },
            _ => return Err(invalid(field, "must be a string or an object")),
        };
        let i = self
            .kinds
            .iter()
            .position(|k| *k == name)
            .ok_or_else(|| unknown_key(field, name, &self.kinds))?;
        let fields = match params {
            None => &[][..],
            Some(p) => p
                .as_object()
                .ok_or_else(|| invalid(field, format!("`{name}` parameters must be an object")))?,
        };
        // In the `kind` form the tag sits among the parameters.
        let keys = fields.iter().filter(|(k, _)| tag.is_none() || k != "kind");
        check_keys(field, keys, self.params[i])?;
        Ok(Tagged {
            field,
            kind: self.kinds[i],
            fields,
            bare: params.is_none(),
        })
    }

    /// Print `kind` with its parameter `values`, given in table order, in
    /// the normal form.
    pub(crate) fn print(&self, kind: &str, values: impl IntoIterator<Item = Json>) -> Json {
        let i = self.kinds.iter().position(|k| *k == kind);
        let params = self.params[i.expect("printing a table kind")];
        if params.is_empty() {
            return Json::Str(kind.into());
        }
        let mut fields = vec![("kind".to_string(), Json::Str(kind.into()))];
        fields.extend(params.iter().map(|p| p.to_string()).zip(values));
        Json::Obj(fields)
    }
}

/// One parsed tagged value: its kind and typed readers over its
/// parameters, for the enum's build step.
pub(crate) struct Tagged<'a> {
    field: &'static str,
    /// The kind, as spelled in the table.
    pub kind: &'static str,
    fields: &'a [(String, Json)],
    bare: bool,
}

impl<'a> Tagged<'a> {
    /// Parameter `key`, if given.
    pub(crate) fn get(&self, key: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parameter `key` as a number (see [`num`]), if given.
    pub(crate) fn num(&self, key: &str) -> Result<Option<f64>> {
        num(self.field, key, self.get(key))
    }

    /// Parameter `key` as an integer in `range` (see [`int`]), if given.
    pub(crate) fn int<T>(&self, key: &str, range: RangeInclusive<T>) -> Result<Option<T>>
    where
        T: Copy + Display + Into<u64> + TryFrom<u64>,
    {
        self.get(key)
            .map(|j| int(self.field, key, j, range))
            .transpose()
    }

    /// A required parameter: `value` if given, else `bad_spec` "`<kind>`
    /// needs `<key>`" — or, for a bare kind name, "`<kind>` needs
    /// parameters (use the object form)".
    pub(crate) fn need<T>(&self, key: &str, value: Option<T>) -> Result<T> {
        value.ok_or_else(|| {
            let kind = self.kind;
            invalid(
                self.field,
                if self.bare {
                    format!("`{kind}` needs parameters (use the object form)")
                } else {
                    format!("`{kind}` needs `{key}`")
                },
            )
        })
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn line(&self) -> usize {
        1 + self.bytes[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    }

    fn err(&self, msg: impl Into<String>) -> PipelineError {
        PipelineError::Parse {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skip whitespace and `//` / `#` line comments.
    fn skip_ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
            let comment = match self.peek() {
                Some(b'#') => true,
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => true,
                _ => false,
            };
            if !comment {
                return;
            }
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {}",
                byte as char,
                match self.peek() {
                    Some(b) => format!("`{}`", b as char),
                    None => "end of input".to_string(),
                }
            )))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(format!("invalid number `{text}`")))?;
        if !n.is_finite() {
            return Err(self.err(format!("non-finite number `{text}`")));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {}
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(fields));
            }
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {}
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"
        // a grid file
        {
          "name": "sweep",        # with a comment
          "nodes": [45, 32, 22, 16],
          "nested": { "ok": true, "none": null, "pi": 3.25 },
        }
        "#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("sweep"));
        assert_eq!(v.get("nodes").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(
            v.get("nested").unwrap().get("pi").unwrap().as_f64(),
            Some(3.25)
        );
        assert_eq!(v.get("nested").unwrap().get("none"), Some(&Json::Null));
    }

    #[test]
    fn round_trips_through_the_writer() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"s": "x \"y\"\nz", "t": false}}"#;
        let v = Json::parse(doc).unwrap();
        let printed = v.to_string_pretty();
        let reparsed = Json::parse(&printed).unwrap();
        assert_eq!(v, reparsed, "pretty output must reparse to the same value");
    }

    #[test]
    fn compact_form_is_one_line_and_reparses() {
        let doc = r#"{"a": [1, 2.5, -3e-2], "b": {"s": "x \"y\"\nz", "t": false}, "c": null}"#;
        let v = Json::parse(doc).unwrap();
        let compact = v.to_string_compact();
        assert!(!compact.contains('\n'), "compact output must be one line");
        assert!(!compact.contains(": "), "no decorative whitespace");
        assert_eq!(Json::parse(&compact).unwrap(), v);
    }

    #[test]
    fn preserves_key_order() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn reports_errors_with_line_numbers() {
        let bad = "{\n  \"a\": 1,\n  \"b\": oops\n}";
        match Json::parse(bad) {
            Err(PipelineError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
        assert!(
            Json::parse("{\"a\": 1, \"a\": 2}").is_err(),
            "duplicate key"
        );
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("12 34").is_err(), "trailing content");
        assert!(Json::parse("1e999").is_err(), "non-finite number");
    }

    #[test]
    fn u64_encoding_is_exact_across_the_full_range() {
        for n in [
            0,
            7,
            (1u64 << 53) - 1,
            1u64 << 53,
            (1u64 << 53) + 1,
            10_451_216_379_200_822_466,
            u64::MAX,
        ] {
            let encoded = Json::from_u64(n);
            let reparsed = Json::parse(&encoded.to_string_pretty()).unwrap();
            assert_eq!(reparsed.as_u64(), Some(n), "n = {n}");
        }
        // Small values stay plain numbers (human-friendly wire format).
        assert!(matches!(Json::from_u64(42), Json::Num(_)));
        // Values that would round in an f64 travel as strings.
        assert!(matches!(Json::from_u64(u64::MAX), Json::Str(_)));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(0.5).as_u64(), None);
        assert_eq!(Json::Str("not a number".into()).as_u64(), None);
    }

    #[test]
    fn edit_distance_basics() {
        use crate::SCENARIO_KEYS;
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(suggest("nodenm", &SCENARIO_KEYS), Some("node_nm"));
        assert_eq!(suggest("backened", &SCENARIO_KEYS), Some("backend"));
    }

    #[test]
    fn tagged_form_rules() {
        const SHAPES: TaggedForm<3> = TaggedForm {
            kinds: ["dot", "box", "ring"],
            params: [&[], &["w", "h"], &["r"]],
        };
        // The build step: `box` takes optional numbers, `ring` a required
        // integer radius.
        let build = |src: &str| -> Result<String> {
            let v = Json::parse(src).unwrap();
            let t = SHAPES.parse("shape", &v)?;
            Ok(match t.kind {
                "ring" => format!("ring {}", t.need("r", t.int("r", 1..=9u32)?)?),
                "box" => format!("box {:?} {:?}", t.num("w")?, t.num("h")?),
                kind => kind.to_string(),
            })
        };
        enum Want {
            Built(&'static str),
            BadSpec(&'static str),
            Unknown(&'static str, Option<&'static str>),
        }
        use Want::*;
        let cases = [
            // A bare kind name.
            (r#""dot""#, Built("dot")),
            (r#""box""#, Built("box None None")),
            (
                r#""ring""#,
                BadSpec("`ring` needs parameters (use the object form)"),
            ),
            (r#""rung""#, Unknown("rung", Some("ring"))),
            // An object with a `kind` key.
            (r#"{"kind": "box", "w": 2}"#, Built("box Some(2.0) None")),
            (r#"{"kind": "dot"}"#, Built("dot")),
            (r#"{"kind": 3}"#, BadSpec("`kind` must be a string")),
            (r#"{"kind": "bx", "w": 2}"#, Unknown("bx", Some("box"))),
            (r#"{"kind": "box", "wd": 2}"#, Unknown("wd", Some("w"))),
            // A key already given is never the suggestion.
            (
                r#"{"kind": "box", "w": 1, "ww": 2}"#,
                Unknown("ww", Some("h")),
            ),
            (r#"{"kind": "ring"}"#, BadSpec("`ring` needs `r`")),
            (
                r#"{"kind": "ring", "r": 2.5}"#,
                BadSpec("`r` must be an integer in [1, 9]"),
            ),
            (
                r#"{"kind": "ring", "r": -1}"#,
                BadSpec("`r` must be an integer in [1, 9]"),
            ),
            (
                r#"{"kind": "ring", "r": 10}"#,
                BadSpec("`r` must be an integer in [1, 9]"),
            ),
            (
                r#"{"kind": "box", "w": "x"}"#,
                BadSpec("`w` must be a number"),
            ),
            // An object with one key that is not `kind`.
            (r#"{"ring": {"r": 3}}"#, Built("ring 3")),
            (r#"{"dot": {}}"#, Built("dot")),
            (r#"{"rng": {"r": 3}}"#, Unknown("rng", Some("ring"))),
            (
                r#"{"box": 2}"#,
                BadSpec("`box` parameters must be an object"),
            ),
            (r#"{"box": {"kind": "box"}}"#, Unknown("kind", None)),
            // Any other object or type.
            (r#"{}"#, BadSpec("object form needs a `kind` key")),
            (
                r#"{"w": 1, "h": 2}"#,
                BadSpec("object form needs a `kind` key"),
            ),
            ("7", BadSpec("must be a string or an object")),
        ];
        for (src, want) in cases {
            match (build(src), want) {
                (Ok(got), Built(expected)) => assert_eq!(got, expected, "{src}"),
                (Err(PipelineError::InvalidSpec { field, msg }), BadSpec(fragment)) => {
                    assert_eq!(field, "shape", "{src}");
                    assert!(msg.contains(fragment), "{src}: `{msg}`");
                }
                (
                    Err(PipelineError::UnknownKey {
                        context,
                        key,
                        suggestion,
                    }),
                    Unknown(expected, suggested),
                ) => {
                    assert_eq!((context, key.as_str()), ("shape", expected), "{src}");
                    assert_eq!(suggestion.as_deref(), suggested, "{src}");
                }
                (got, _) => panic!("{src}: unexpected {got:?}"),
            }
        }
        // The printer: a parameterless kind is its bare name, any other
        // kind the `kind` object in table order; both parse back.
        let dot = SHAPES.print("dot", []);
        let ring = SHAPES.print("ring", [Json::Num(4.0)]);
        assert_eq!(dot.to_string_compact(), r#""dot""#);
        assert_eq!(ring.to_string_compact(), r#"{"kind":"ring","r":4}"#);
        assert_eq!(build(&ring.to_string_compact()).unwrap(), "ring 4");
        let boxed = SHAPES.print("box", [Json::Num(2.0), Json::Num(3.0)]);
        assert_eq!(boxed.to_string_compact(), r#"{"kind":"box","w":2,"h":3}"#);
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""café""#).unwrap();
        assert_eq!(v.as_str(), Some("café"));
    }
}
