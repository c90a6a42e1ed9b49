//! The workspace's one JSON module: the writer helpers the hand-rolled
//! hot-path emitters use ([`json_string`], [`json_f64`]), the [`Json`]
//! tree the tooling and `campaignd` parse into and typed reports serialize
//! from, and the [`Fields`] reader typed reports read back through.
//!
//! No serde — the build is offline. The parser is a small
//! recursive-descent one covering exactly the JSON the emitters produce:
//! objects, arrays, strings with the standard escapes, numbers (including
//! exponents), booleans and null. Nesting is capped at [`MAX_DEPTH`]
//! levels, so hostile input (a request body of ten thousand `[`) is an
//! error rather than a stack overflow.

use std::fmt;

use enerj_hw::quanta::EnergyQuanta;

/// Quotes and escapes a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an f64 as a JSON number. JSON has no NaN/Infinity literals;
/// they clamp to the error scale's ends.
pub fn json_f64(x: f64) -> String {
    if x.is_nan() {
        "1.0".to_owned()
    } else if x.is_infinite() {
        if x > 0.0 {
            "1e308".to_owned()
        } else {
            "-1e308".to_owned()
        }
    } else {
        format!("{x}")
    }
}

/// The deepest array/object nesting [`Json::parse`] accepts. No emitter in
/// the workspace nests deeper than about four levels; the cap bounds the
/// parser's recursion well inside a default 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent) that fits in `i128`.
    ///
    /// Kept exact so 128-bit energy-quanta counters survive parsing:
    /// `f64` can only represent integers up to 2^53 exactly, and a
    /// campaign's quanta overflow that.
    Int(i128),
    /// Any other number: fractions, exponents, and integers out of `i128`
    /// range (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order (duplicate keys are kept as-is;
    /// [`Json::get`] returns the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The value of `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, when this is a number. Integers coerce (with
    /// the usual `f64` rounding above 2^53); use [`Json::as_i128`] /
    /// [`Json::as_u128`] where exactness matters.
    #[allow(clippy::cast_precision_loss)]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The exact integer value, when this is an integer literal.
    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact non-negative integer value, when this is an integer
    /// literal that fits. The accessor for energy-quanta fields.
    #[allow(clippy::cast_sign_loss)]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::Int(x) if *x >= 0 => Some(*x as u128),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

/// Compact rendering: no whitespace, keys in stored order, strings through
/// [`json_string`] and numbers through [`json_f64`] — the bytes the
/// workspace's hand-rolled emitters write.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(x) => write!(f, "{x}"),
            Json::Num(x) => f.write_str(&json_f64(*x)),
            Json::Str(s) => f.write_str(&json_string(s)),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    write!(f, "{}{v}", if i == 0 { "" } else { "," })?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    write!(f, "{}{}:{v}", if i == 0 { "" } else { "," }, json_string(k))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// `From` conversions for the values typed reports hold.
macro_rules! json_from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Json {
                $e
            }
        }
    )*};
}

json_from!(
    bool => |b| Json::Bool(b),
    f64 => |x| Json::Num(x),
    &str => |s| Json::Str(s.to_owned()),
    String => |s| Json::Str(s),
    u32 => |x| Json::Int(x.into()),
    u64 => |x| Json::Int(x.into()),
    usize => |x| Json::Int(x as i128),
    // Exact while the count fits `i128` (every realistic quanta total);
    // beyond that it falls back to `f64`, as the parser does for such a
    // literal.
    u128 => |x| i128::try_from(x).map_or(Json::Num(x as f64), Json::Int),
    EnergyQuanta => |q| Json::from(q.get()),
);

/// An object read one typed field at a time: the reading half of every
/// typed report's `from_json`. Each error names the offending field by its
/// path from the document root (`` batched[3].level: unknown level
/// `Extreme` ``), so a validator built on it says where a document
/// drifted.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    fields: &'a [(String, Json)],
    path: String,
}

impl<'a> Fields<'a> {
    /// Reads `doc` as a document root, which must be an object.
    pub fn root(doc: &'a Json) -> Result<Fields<'a>, String> {
        let fields = doc.as_object().ok_or("the document must be a JSON object")?;
        Ok(Fields { fields, path: String::new() })
    }

    /// This object's path from the root (empty at the root).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// How many fields this object has.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    fn path_of(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The raw value of `key` (the first, if repeated).
    pub fn value(&self, key: &str) -> Result<&'a Json, String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{}: missing", self.path_of(key)))
    }

    fn read<T>(
        &self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self.value(key)?;
        read(v).ok_or_else(|| format!("{}: must be {what} ({v:?})", self.path_of(key)))
    }

    /// Checks the `schema` tag.
    pub fn schema(&self, expected: &str) -> Result<(), String> {
        let schema = self.str("schema")?;
        if schema != expected {
            return Err(format!("schema `{schema}`, expected `{expected}`"));
        }
        Ok(())
    }

    /// A boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.read(key, "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// A string.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.read(key, "a string", Json::as_str)
    }

    /// A name from a closed vocabulary, looked up by `parse`; any other
    /// string is an "unknown `key`" error.
    pub fn name<T>(&self, key: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let name = self.str(key)?;
        parse(name).ok_or_else(|| format!("{}: unknown {key} `{name}`", self.path_of(key)))
    }

    /// Any number.
    pub fn number(&self, key: &str) -> Result<f64, String> {
        self.read(key, "a number", Json::as_f64)
    }

    /// A finite, positive number: a rate or a duration.
    pub fn positive(&self, key: &str) -> Result<f64, String> {
        self.read(key, "finite and positive", |v| v.as_f64().filter(|x| x.is_finite() && *x > 0.0))
    }

    /// An exact non-negative integer that fits `T`, read losslessly, so
    /// quanta above 2^53 survive.
    pub fn uint<T: TryFrom<u128>>(&self, key: &str) -> Result<T, String> {
        self.read(key, "a non-negative integer", |v| v.as_u128().and_then(|x| T::try_from(x).ok()))
    }

    /// An exact positive integer that fits `T`: a count that cannot be 0.
    pub fn count<T: TryFrom<u128>>(&self, key: &str) -> Result<T, String> {
        self.read(key, "a positive integer", |v| {
            v.as_u128().filter(|&x| x > 0).and_then(|x| T::try_from(x).ok())
        })
    }

    /// `None` when `key` is `null`, otherwise what `read` makes of it.
    pub fn nullable<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.value(key)? {
            Json::Null => Ok(None),
            _ => read(self, key).map(Some),
        }
    }

    /// A nested object.
    pub fn object(&self, key: &str) -> Result<Fields<'a>, String> {
        let fields = self.read(key, "an object", Json::as_object)?;
        Ok(Fields { fields, path: self.path_of(key) })
    }

    /// An array of objects, each at its indexed path (`key[i]`).
    pub fn objects(&self, key: &str) -> Result<Vec<Fields<'a>>, String> {
        let path = self.path_of(key);
        let items = self.read(key, "an array", Json::as_array)?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let fields =
                    item.as_object().ok_or_else(|| format!("{path}[{i}]: must be an object"))?;
                Ok(Fields { fields, path: format!("{path}[{i}]") })
            })
            .collect()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
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
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs never occur in our emitters'
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut exact = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            exact = false;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            exact = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if exact {
            // Integer literal: keep it lossless when it fits in i128 (the
            // emitters' u128 quanta stay well inside that range); only an
            // astronomically large literal falls back to f64.
            if let Ok(x) = text.parse::<i128>() {
                return Ok(Json::Int(x));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_nonfinite_numbers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_f64(f64::NAN), "1.0");
        assert_eq!(json_f64(f64::INFINITY), "1e308");
        assert_eq!(json_f64(0.25), "0.25");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Ten thousand levels must fail cleanly on a default-sized thread
        // stack, where recursing once per level would abort the process.
        let worker = std::thread::spawn(|| {
            let objects = "{\"a\":".repeat(10_000);
            (Json::parse(&"[".repeat(10_000)).is_err(), Json::parse(&objects).is_err())
        });
        assert_eq!(worker.join().expect("no stack overflow"), (true, true));
        // Depth is per path, not cumulative: wide documents are fine.
        assert!(Json::parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".to_owned()));
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".to_owned()));
    }

    #[test]
    fn integers_beyond_f64_precision_stay_exact() {
        // 2^53 and 2^53 + 1 collapse to the same f64; the parser must
        // keep them distinct, or `--quanta-compare` could pass on reports
        // whose quanta actually differ.
        let a = Json::parse("9007199254740992").unwrap();
        let b = Json::parse("9007199254740993").unwrap();
        assert_ne!(a, b);
        assert_eq!(a.as_u128(), Some(9_007_199_254_740_992));
        assert_eq!(b.as_u128(), Some(9_007_199_254_740_993));
        assert_eq!(b.as_i128(), Some(9_007_199_254_740_993));
        // The f64 view of both rounds to the same value — the documented
        // lossy coercion.
        assert_eq!(a.as_f64(), b.as_f64());
        // Negative integers have no u128 reading.
        assert_eq!(Json::parse("-3").unwrap().as_u128(), None);
        // Fractions and exponents are not integers.
        assert_eq!(Json::parse("2.0").unwrap().as_u128(), None);
        assert_eq!(Json::parse("2e0").unwrap().as_u128(), None);
        // An integer too large even for i128 falls back to f64.
        let huge = "340282366920938463463374607431768211455"; // u128::MAX
        assert!(matches!(Json::parse(huge).unwrap(), Json::Num(_)));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x","d":{}}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].as_f64(), Some(2.0));
        assert_eq!(a[2].get("b"), Some(&Json::Null));
        assert_eq!(v.get("d").and_then(Json::as_object), Some(&[][..]));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn display_writes_what_the_parser_reads() {
        let doc = Json::object([
            ("s", "a\"b".into()),
            ("n", 0.0.into()),
            ("q", EnergyQuanta::new(9_007_199_254_740_993).into()),
            ("rows", Json::Arr(vec![Json::object([("x", 1u32.into()), ("y", Json::Null)])])),
            ("empty", Json::Arr(vec![])),
        ]);
        let compact = doc.to_string();
        assert_eq!(
            compact,
            r#"{"s":"a\"b","n":0,"q":9007199254740993,"rows":[{"x":1,"y":null}],"empty":[]}"#
        );
        assert_eq!(Json::parse(&compact).unwrap().to_string(), compact);
        // Beyond i128 a count degrades to f64, exactly as the parser reads
        // such a literal.
        assert!(matches!(Json::from(u128::MAX), Json::Num(_)));
    }

    #[test]
    fn fields_errors_name_the_json_path() {
        let doc =
            Json::parse(r#"{"a":{"rows":[{"n":1},{"n":-1}]},"s":"x","f":0.5,"z":0,"nil":null}"#)
                .unwrap();
        let f = Fields::root(&doc).unwrap();
        let rows = f.object("a").unwrap().objects("rows").unwrap();
        assert_eq!(rows[0].uint::<u8>("n"), Ok(1));
        let err = rows[1].uint::<u8>("n").unwrap_err();
        assert!(err.starts_with("a.rows[1].n: must be a non-negative integer"), "{err}");
        assert_eq!(rows[1].value("m").unwrap_err(), "a.rows[1].m: missing");
        assert_eq!(f.name("s", |_| None::<()>).unwrap_err(), "s: unknown s `x`");
        assert!(f.uint::<u64>("f").unwrap_err().starts_with("f: must be a non-negative integer"));
        assert!(f.count::<u64>("z").unwrap_err().starts_with("z: must be a positive integer"));
        assert!(f.positive("z").unwrap_err().starts_with("z: must be finite and positive"));
        assert_eq!(f.positive("f"), Ok(0.5));
        assert_eq!(f.nullable("nil", Fields::str), Ok(None));
        assert_eq!(f.nullable("s", Fields::str), Ok(Some("x")));
        assert!(f.object("s").unwrap_err().contains("must be an object"));
        assert!(f.schema("enerj-x/1").unwrap_err().contains("missing"));
        assert!(Fields::root(&Json::Null).is_err());
        // A value too wide for the target type is rejected, not truncated.
        let wide = Json::parse(r#"{"n":256}"#).unwrap();
        assert!(Fields::root(&wide).unwrap().uint::<u8>("n").is_err());
    }

    #[test]
    fn round_trips_a_real_campaign_report() {
        use crate::trials::{run_campaign, CampaignOptions, TrialSpec};
        let app = crate::all_apps().remove(2); // MonteCarlo
        let specs = [TrialSpec::reference(&app)];
        let report = run_campaign(&specs[..], &CampaignOptions::with_threads(1));
        let v = Json::parse(&report.to_json()).expect("emitter output parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("enerj-campaign/5"));
        let trials = v.get("trials").and_then(Json::as_array).unwrap();
        assert_eq!(trials.len(), 1);
        assert_eq!(trials[0].get("app").and_then(Json::as_str), Some("MonteCarlo"));
    }
}
