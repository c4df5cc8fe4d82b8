//! A minimal JSON reader and writer for the wire protocol.
//!
//! The vendor tree's `serde` is an offline no-op stub (nothing in the
//! workspace serialized before this crate), so the wire codec carries
//! its own small JSON kernel — the same spirit as
//! `edm_bench::report::merge_bench_json`, but with a real parser because
//! the server must survive *hostile* bytes, not just re-read its own
//! output. Both directions cost time linear in the frame's bytes.
//! Design choices that matter to the protocol:
//!
//! * **No tree on the encode side**: [`Writer`] appends compact JSON
//!   straight into the caller's byte buffer, fields in the order written.
//!   Encoding is deterministic, which the byte-identity tests rely on.
//! * **Floats encode via `{:?}`** — Rust's shortest round-trip
//!   formatting — so `encode(decode(x)) == x` byte-for-byte, which is
//!   what lets the loopback test compare TCP answers with in-process
//!   answers as raw bytes. Non-finite floats encode as `null` (JSON has
//!   no NaN/Inf); no published payload produces them.
//! * **One flat, borrowing [`Document`] per frame**: the payload is
//!   checked as UTF-8 once, up front, so strings and number tokens are
//!   slices of it, and every value lands in one node list. A string is
//!   copied only when it holds an escape, one run between escapes at a
//!   time. Numbers stay raw text: counters and generations are `u64`, and
//!   routing them through `f64` would corrupt values above 2^53. The
//!   parser checks a number's syntax once; each field then parses the
//!   token once, as the exact type it wants (`u64`, `f64`).
//! * **Depth-capped parsing** (64 levels): a hostile frame of ten
//!   thousand `[` must produce a typed error, not a stack overflow.

use std::borrow::Cow;
use std::io::Write as _;

/// A parsed JSON document. Its values sit in one flat list in document
/// order, each container just before its contents, so parsing allocates
/// once however the input nests; strings and numbers borrow from the
/// parsed bytes.
#[derive(Debug)]
pub struct Document<'a> {
    nodes: Vec<Node<'a>>,
}

/// One value of a [`Document`]: the slice of nodes its subtree spans,
/// itself first. Object fields keep their order; lookups take the first
/// field of a name.
#[derive(Debug, Clone, Copy)]
pub struct Json<'d, 'a> {
    nodes: &'d [Node<'a>],
}

#[derive(Debug, Clone, PartialEq)]
enum Node<'a> {
    Null,
    Bool(bool),
    /// A number, kept as its raw token (see module docs).
    Num(&'a str),
    /// A string, unescaped; borrowed unless it held an escape.
    Str(Cow<'a, str>),
    /// An array spanning `size` nodes from this one, with `len` elements.
    Arr {
        size: usize,
        len: usize,
    },
    /// An object spanning `size` nodes from this one: each field is its
    /// key (a `Str`) followed by its value.
    Obj {
        size: usize,
    },
}

/// Why a byte sequence failed to parse as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong, human-readable.
    pub what: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth past which the parser refuses (hostile-input guard).
const MAX_DEPTH: usize = 64;

impl<'a> Document<'a> {
    /// Parses one JSON value from `input`, requiring it to be UTF-8 and to
    /// consume the whole slice (trailing whitespace allowed).
    pub fn parse(input: &'a [u8]) -> Result<Document<'a>, ParseError> {
        let text = std::str::from_utf8(input)
            .map_err(|e| ParseError { at: e.valid_up_to(), what: "invalid UTF-8" })?;
        // Frames of the protocol's fixed shapes hold about one node per
        // four bytes; the cap keeps a large frame from reserving more
        // than it fills (it grows as it parses instead).
        let nodes = Vec::with_capacity(input.len().min(1 << 10) / 4 + 1);
        let mut p = Parser { text, input, pos: 0, nodes };
        p.skip_ws();
        p.value(0)?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(ParseError { at: p.pos, what: "trailing bytes after value" });
        }
        Ok(Document { nodes: p.nodes })
    }

    /// The document's top-level value.
    pub fn root(&self) -> Json<'_, 'a> {
        Json { nodes: &self.nodes }
    }
}

impl<'d, 'a> Json<'d, 'a> {
    fn node(self) -> &'d Node<'a> {
        &self.nodes[0]
    }

    /// The values directly inside this one, each with its subtree: an
    /// array's elements, or an object's keys and values alternating.
    fn children(self) -> impl Iterator<Item = Json<'d, 'a>> {
        let mut rest = &self.nodes[1..];
        std::iter::from_fn(move || {
            let size = match rest.first()? {
                Node::Arr { size, .. } | Node::Obj { size } => *size,
                _ => 1,
            };
            let (child, tail) = rest.split_at_checked(size)?;
            rest = tail;
            Some(Json { nodes: child })
        })
    }

    /// The field `key` of an object, if present.
    pub fn get(self, key: &str) -> Option<Json<'d, 'a>> {
        if !matches!(self.node(), Node::Obj { .. }) {
            return None;
        }
        let mut children = self.children();
        while let (Some(k), Some(v)) = (children.next(), children.next()) {
            if matches!(k.node(), Node::Str(name) if name == key) {
                return Some(v);
            }
        }
        None
    }

    /// This value's elements, if it is an array.
    pub fn elements(self) -> Option<impl Iterator<Item = Json<'d, 'a>>> {
        matches!(self.node(), Node::Arr { .. }).then(|| self.children())
    }

    /// This value as a `u64` (numbers only, exact).
    pub fn as_u64(self) -> Option<u64> {
        match self.node() {
            Node::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This value as an `f64`, correctly rounded.
    pub fn as_f64(self) -> Option<f64> {
        match self.node() {
            Node::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(self) -> Option<&'d str> {
        match self.node() {
            Node::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a vector of floats (all elements must be numbers).
    pub fn as_f64_arr(self) -> Option<Vec<f64>> {
        self.as_vec(Json::as_f64)
    }

    /// This value as a vector of u64s (all elements must be numbers).
    pub fn as_u64_arr(self) -> Option<Vec<u64>> {
        self.as_vec(Json::as_u64)
    }

    /// This array's elements converted by `element`, allocated once.
    fn as_vec<T>(self, element: impl Fn(Json<'d, 'a>) -> Option<T>) -> Option<Vec<T>> {
        let Node::Arr { len, .. } = *self.node() else {
            return None;
        };
        let mut out = Vec::with_capacity(len);
        for v in self.children() {
            out.push(element(v)?);
        }
        Some(out)
    }
}

/// Compact JSON appended straight to a byte buffer: no whitespace, fields
/// in the order they are written.
///
/// ```
/// use edm_serve::net::json::Writer;
/// let mut out = Vec::new();
/// Writer::new(&mut out).obj(|w| {
///     w.key("n").u64(3);
///     w.key("xs").f64s(&[0.5, -1.0]);
/// });
/// assert_eq!(out, br#"{"n":3,"xs":[0.5,-1.0]}"#);
/// ```
pub struct Writer<'b> {
    out: &'b mut Vec<u8>,
}

impl<'b> Writer<'b> {
    /// A writer appending to `out`.
    pub fn new(out: &'b mut Vec<u8>) -> Self {
        Writer { out }
    }

    /// An object whose members `fields` writes, each with [`Writer::key`].
    pub fn obj(&mut self, fields: impl FnOnce(&mut Self)) {
        self.out.push(b'{');
        fields(self);
        self.out.push(b'}');
    }

    /// Starts the member `key` of the enclosing object; the next value
    /// written is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        // Only an object's opening brace can precede its first key: every
        // value ends in a quote, digit, letter, `]` or `}`.
        if self.out.last() != Some(&b'{') {
            self.out.push(b',');
        }
        self.str(key);
        self.out.push(b':');
        self
    }

    /// An array with one element per item, each written by `element`.
    pub fn arr<T>(&mut self, items: &[T], mut element: impl FnMut(&mut Self, &T)) {
        self.out.push(b'[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            element(self, item);
        }
        self.out.push(b']');
    }

    /// `true` / `false`.
    pub fn bool(&mut self, v: bool) {
        self.out.extend_from_slice(if v { b"true" } else { b"false" });
    }

    /// An unsigned integer, exact.
    pub fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    /// A float in shortest round-trip form (`{:?}`); non-finite becomes
    /// `null`.
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // Writing into a Vec cannot fail.
            let _ = write!(self.out, "{v:?}");
        } else {
            self.out.extend_from_slice(b"null");
        }
    }

    /// A string, escaped: runs that need no escape are copied whole.
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut copied = 0;
        let mut control = *b"\\u0000";
        for (i, &b) in bytes.iter().enumerate() {
            // Every byte of a multi-byte UTF-8 character is ≥ 0x80, so
            // escaping byte by byte never splits a character.
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    control[4] = HEX[usize::from(b >> 4)];
                    control[5] = HEX[usize::from(b & 0xf)];
                    &control
                }
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[copied..i]);
            self.out.extend_from_slice(escape);
            copied = i + 1;
        }
        self.out.extend_from_slice(&bytes[copied..]);
        self.out.push(b'"');
    }

    /// An array of floats (point coordinates, decision-graph columns).
    pub fn f64s(&mut self, vs: &[f64]) {
        self.arr(vs, |w, &v| w.f64(v));
    }

    /// An array of u64s (cluster-id lists).
    pub fn u64s(&mut self, vs: &[u64]) {
        self.arr(vs, |w, &v| w.u64(v));
    }
}

/// Whether `token` (drawn from the number alphabet `0-9 . e E + -`) is a
/// number in Rust's float syntax, which the accessors parse it with:
/// `[+-]? digits? (. digits?)? ([eE] [+-]? digits)?`, with at least one
/// mantissa digit.
fn is_number(token: &[u8]) -> bool {
    fn digits(t: &[u8]) -> usize {
        t.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let mut t = token.strip_prefix(b"-").or_else(|| token.strip_prefix(b"+")).unwrap_or(token);
    let int = digits(t);
    t = &t[int..];
    let mut frac = 0;
    if let Some(rest) = t.strip_prefix(b".") {
        frac = digits(rest);
        t = &rest[frac..];
    }
    if int + frac == 0 {
        return false;
    }
    if let Some(rest) = t.strip_prefix(b"e").or_else(|| t.strip_prefix(b"E")) {
        let rest = rest.strip_prefix(b"-").or_else(|| rest.strip_prefix(b"+")).unwrap_or(rest);
        let exp = digits(rest);
        return exp > 0 && exp == rest.len();
    }
    t.is_empty()
}

struct Parser<'a> {
    /// The whole input, known to be UTF-8.
    text: &'a str,
    /// `text` as bytes.
    input: &'a [u8],
    pos: usize,
    /// The document so far.
    nodes: Vec<Node<'a>>,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.input.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn err(&self, what: &'static str) -> ParseError {
        ParseError { at: self.pos, what }
    }

    fn eat(&mut self, b: u8, what: &'static str) -> Result<(), ParseError> {
        if self.input.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &[u8], v: Node<'a>) -> Result<(), ParseError> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            self.nodes.push(v);
            Ok(())
        } else {
            Err(self.err("invalid literal"))
        }
    }

    /// Parses one value onto the node list.
    fn value(&mut self, depth: usize) -> Result<(), ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.input.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal(b"null", Node::Null),
            Some(b't') => self.literal(b"true", Node::Bool(true)),
            Some(b'f') => self.literal(b"false", Node::Bool(false)),
            Some(b'"') => {
                let s = self.string()?;
                self.nodes.push(Node::Str(s));
                Ok(())
            }
            Some(b'[') => {
                self.pos += 1;
                let at = self.nodes.len();
                self.nodes.push(Node::Arr { size: 0, len: 0 });
                let mut len = 0;
                self.skip_ws();
                if self.input.get(self.pos) != Some(&b']') {
                    loop {
                        self.skip_ws();
                        self.value(depth + 1)?;
                        len += 1;
                        self.skip_ws();
                        match self.input.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b']') => break,
                            _ => return Err(self.err("expected ',' or ']' in array")),
                        }
                    }
                }
                self.pos += 1;
                self.nodes[at] = Node::Arr { size: self.nodes.len() - at, len };
                Ok(())
            }
            Some(b'{') => {
                self.pos += 1;
                let at = self.nodes.len();
                self.nodes.push(Node::Obj { size: 0 });
                self.skip_ws();
                if self.input.get(self.pos) != Some(&b'}') {
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.nodes.push(Node::Str(key));
                        self.skip_ws();
                        self.eat(b':', "expected ':' after object key")?;
                        self.skip_ws();
                        self.value(depth + 1)?;
                        self.skip_ws();
                        match self.input.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => break,
                            _ => return Err(self.err("expected ',' or '}' in object")),
                        }
                    }
                }
                self.pos += 1;
                self.nodes[at] = Node::Obj { size: self.nodes.len() - at };
                Ok(())
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        // The token is the run of number-alphabet bytes; a permissive run
        // like "1.2.3" is refused by the syntax check below, which keeps
        // Num tokens convertible later.
        let rest = &self.input[start..];
        let len = rest
            .iter()
            .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(rest.len());
        self.pos += len;
        let token = &rest[..len];
        if !token.iter().any(u8::is_ascii_digit) {
            return Err(self.err("expected a number"));
        }
        match self.text.get(start..self.pos) {
            Some(raw) if is_number(token) => {
                self.nodes.push(Node::Num(raw));
                Ok(())
            }
            _ => Err(ParseError { at: start, what: "malformed number" }),
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        // Unescaped text accumulates here once the string holds an escape.
        let mut owned: Option<String> = None;
        loop {
            // One run of plain text, up to the next quote, backslash or
            // control byte. Those stop bytes are ASCII, so a run never
            // ends inside a multi-byte character.
            let rest = &self.input[self.pos..];
            let len = rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let end = self.pos + len.unwrap_or(rest.len());
            let run = self.text.get(self.pos..end).ok_or_else(|| self.err("invalid UTF-8"))?;
            self.pos = end;
            match self.input.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let ch = self.escape()?;
                    out.push(ch);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
        let ch = match self.input.get(self.pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                return if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.input[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.err("invalid code point"))
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))
                };
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(ch)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let slice = self
            .input
            .get(self.pos..self.pos + 4)
            .ok_or(ParseError { at: self.pos, what: "truncated \\u escape" })?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("non-utf8 \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(f: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
        let mut out = Vec::new();
        f(&mut Writer::new(&mut out));
        out
    }

    #[test]
    fn round_trips_scalars_and_structure() {
        let text = write(|w| {
            w.obj(|w| {
                w.key("a").u64(u64::MAX);
                w.key("b").f64(1.5);
                w.key("c").arr(&[0, 1, 2], |w, &i| match i {
                    0 => w.f64(f64::NAN),
                    1 => w.bool(true),
                    _ => w.str("x\"\\\n"),
                });
            })
        });
        assert_eq!(text, br#"{"a":18446744073709551615,"b":1.5,"c":[null,true,"x\"\\\n"]}"#);
        let doc = Document::parse(&text).unwrap();
        assert_eq!(
            doc.nodes,
            vec![
                Node::Obj { size: 10 },
                Node::Str("a".into()),
                Node::Num("18446744073709551615"),
                Node::Str("b".into()),
                Node::Num("1.5"),
                Node::Str("c".into()),
                Node::Arr { size: 4, len: 3 },
                Node::Null,
                Node::Bool(true),
                Node::Str("x\"\\\n".into()),
            ]
        );
        let root = doc.root();
        // u64::MAX survives exactly (would not through f64).
        assert_eq!(root.get("a").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(root.get("b").unwrap().as_f64(), Some(1.5));
        let c: Vec<_> = root.get("c").unwrap().elements().unwrap().map(|v| v.node()).collect();
        assert_eq!(c, [&Node::Null, &Node::Bool(true), &Node::Str("x\"\\\n".into())]);
    }

    #[test]
    fn nested_containers_are_skipped_whole() {
        let doc = Document::parse(br#"{"x":[[1,{"y":2}],{}],"y":[3],"z":{"y":4}}"#).unwrap();
        let root = doc.root();
        assert_eq!(root.get("y").unwrap().as_u64_arr(), Some(vec![3]));
        assert_eq!(root.get("z").unwrap().get("y").unwrap().as_u64(), Some(4));
        let x: Vec<_> = root.get("x").unwrap().elements().unwrap().collect();
        assert_eq!(x.len(), 2);
        assert_eq!(x[0].elements().unwrap().nth(1).unwrap().get("y").unwrap().as_u64(), Some(2));
        assert!(root.get("missing").is_none() && x[1].get("y").is_none());
        // Duplicate names: the first field wins.
        let doc = Document::parse(br#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(doc.root().get("k").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn floats_round_trip_byte_identically() {
        for x in [0.0, -0.0, 1.0, 0.1, 1e300, 1e-300, std::f64::consts::PI, f64::MIN_POSITIVE] {
            let enc = write(|w| w.f64(x));
            let re = Document::parse(&enc).unwrap().root().as_f64().unwrap();
            assert_eq!(re.to_bits(), x.to_bits());
            assert_eq!(write(|w| w.f64(re)), enc, "float {x} re-encodes");
        }
        assert_eq!(write(|w| w.f64(f64::NAN)), b"null");
        assert_eq!(write(|w| w.f64(f64::INFINITY)), b"null");
    }

    #[test]
    fn unicode_escapes_parse_including_surrogate_pairs() {
        let v = Document::parse(br#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.root().as_str(), Some("Aé😀"));
        assert!(Document::parse(br#""\ud83d""#).is_err(), "lone surrogate refused");
        // Control characters escape on encode and survive the round trip.
        let enc = write(|w| w.str("a\u{1}b"));
        assert_eq!(enc, br#""a\u0001b""#);
        assert_eq!(Document::parse(&enc).unwrap().root().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let plain = Document::parse("\"héllo wörld\"".as_bytes()).unwrap();
        assert!(matches!(plain.root().node(), Node::Str(Cow::Borrowed("héllo wörld"))));
        let escaped = Document::parse(br#""a\tb""#).unwrap();
        assert!(matches!(escaped.root().node(), Node::Str(Cow::Owned(s)) if s == "a\tb"));
    }

    #[test]
    fn number_syntax_matches_the_float_parser() {
        for ok in ["0", "-1", "+5", "1.", ".5", "1.5e3", "2E-7", "-0.0", "18446744073709551615"] {
            assert!(is_number(ok.as_bytes()), "{ok} is a number");
            assert!(ok.parse::<f64>().is_ok(), "{ok} parses");
        }
        for bad in [".", "-", "1.2.3", "1e", "e5", "1e+", "1-2", "--1", "1e5.0", "+-1", ".e1"] {
            assert!(!is_number(bad.as_bytes()), "{bad} is not a number");
            assert!(bad.parse::<f64>().is_err(), "{bad} does not parse");
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        for bad in [
            &b"{"[..],
            b"[1,",
            b"nul",
            b"\"unterminated",
            b"{\"a\" 1}",
            b"1.2.3",
            b"[] trailing",
            b"\x00\x01\x02",
            b"",
            b"-",
            b"\"\\q\"",
            b"{\"a\":}",
            b"\"a\xffb\"",
            b"\"raw\ncontrol\"",
            b"\"\\u12\"",
        ] {
            assert!(Document::parse(bad).is_err(), "{bad:?} must fail");
        }
        let err = Document::parse(b"[\"ok\", \"\xc3\"]").unwrap_err();
        assert_eq!((err.at, err.what), (8, "invalid UTF-8"));
    }

    #[test]
    fn nesting_bomb_is_refused_not_overflowed() {
        let bomb = vec![b'['; 100_000];
        let err = Document::parse(&bomb).unwrap_err();
        assert_eq!(err.what, "nesting too deep");
    }

    #[test]
    fn accessors_are_type_strict() {
        let doc = Document::parse(br#"{"n": 3, "s": "x", "a": [1.5, 2.5], "b": false}"#).unwrap();
        let v = doc.root();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("a").unwrap().as_f64_arr(), Some(vec![1.5, 2.5]));
        assert_eq!(v.get("a").unwrap().as_u64_arr(), None, "floats are not u64s");
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert!(v.get("missing").is_none());
        assert!(v.get("a").unwrap().get("n").is_none(), "arrays have no fields");
        assert!(v.get("n").unwrap().elements().is_none(), "numbers have no elements");
        assert_eq!(v.get("s").unwrap().as_u64(), None);
    }
}
