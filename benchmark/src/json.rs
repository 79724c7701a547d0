//! A minimal JSON emitter (the container has no serde).

use std::fmt::Write;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that is either is a bug
            // the reader should see as a missing value, not as a parse error.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            // `{}` prints the shortest digits that round-trip, without an
            // exponent: every digit measured, and always valid JSON.
            Json::Num(x) => write!(out, "{x}").expect("write to String"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line_shape() {
        let j = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(30)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([
                        ("value", Json::Num(0.8127)),
                        ("unit", Json::Str("s".into())),
                    ]),
                )]),
            ),
        ]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":30,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn escapes_strings_and_keeps_numbers_plain() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\u{1}".into()).render(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(1e-7).render(), "0.0000001");
        assert_eq!(Json::Num(2.5e9).render(), "2500000000");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(
            Json::Arr(vec![Json::Null, Json::Int(2)]).render(),
            "[null,2]"
        );
    }
}
