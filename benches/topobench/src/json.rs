//! Reading JSON. Values are `bench::json::JsonValue`, which writes; this
//! adds the parser and the lookups that the rep protocol, suite files and
//! `BENCHMARK.json` need.

pub use bench::json::JsonValue;

/// Lookups on a parsed value.
pub trait JsonRead {
    /// The member `key` of an object.
    fn get(&self, key: &str) -> Option<&JsonValue>;
    /// The value as a number, integer or not.
    fn num(&self) -> Option<f64>;
    /// The value as a string.
    fn str(&self) -> Option<&str>;
    /// The value as an array.
    fn arr(&self) -> Option<&[JsonValue]>;
    /// The object's members; none for anything but an object.
    fn fields(&self) -> &[(String, JsonValue)];
}

impl JsonRead for JsonValue {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn num(&self) -> Option<f64> {
        match self {
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(xs) => Some(xs),
            _ => None,
        }
    }

    fn fields(&self) -> &[(String, JsonValue)] {
        match self {
            JsonValue::Object(fields) => fields,
            _ => &[],
        }
    }
}

/// Parses a complete JSON text. A number without a fraction or exponent
/// that fits an `i64` reads as `Int`, any other as `Float`.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing characters at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut xs = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(JsonValue::Array(xs));
                }
                loop {
                    xs.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(JsonValue::Array(xs));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or("");
                text.parse()
                    .map(JsonValue::Int)
                    .or_else(|_| text.parse().map(JsonValue::Float))
                    .map_err(|_| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match c {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let code = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            let mut buf = [0; 4];
                            out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                        }
                        Some(c) => out.push(c),
                        None => return Err("unterminated escape".to_string()),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_bench_json_writes() {
        let v = JsonValue::object(vec![
            (
                "a",
                JsonValue::Array(vec![1.5.into(), 3u64.into(), JsonValue::Null, true.into()]),
            ),
            ("b \"q\"", "x\ny\t\u{1}".into()),
            ("c", JsonValue::Object(Vec::new())),
        ]);
        assert_eq!(parse(&v.to_compact()), Ok(v.clone()));
        assert_eq!(parse(&v.to_pretty()), Ok(v));
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1] x").is_err());
        assert_eq!(parse(" -2.5e1 ").ok().and_then(|j| j.num()), Some(-25.0));
        assert_eq!(parse("-7"), Ok(JsonValue::Int(-7)));
    }
}
