//! The workspace's one JSON writer (hand-rolled: the build environment has
//! no serde). The event log ([`crate::events`]) and the query service's
//! `RUN`/`STATUS` replies are both built through it, so there is one escaping
//! rule and one place that decides where commas go.

use std::fmt::{Display, Write};

/// Append `s` to `out` as a quoted JSON string. `"`, `\`, `\n`, `\t` and
/// `\r` are escaped symbolically, every other control character as
/// `\u00XX`; everything else (including multi-byte UTF-8) is copied through.
pub fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One JSON object under construction; keys are emitted in call order.
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }
}

impl JsonObject {
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Emit `"key":` (comma-separated from the previous field) and hand back
    /// the buffer for the caller to append exactly one JSON value to.
    pub fn key(&mut self, key: &str) -> &mut String {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        escape(key, &mut self.buf);
        self.buf.push(':');
        &mut self.buf
    }

    /// A field whose value is `value` escaped as a JSON string.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        escape(value, self.key(key));
        self
    }

    /// A field whose value is `value`'s `Display` output verbatim: numbers,
    /// booleans, `null`, or an already-rendered object or array.
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        write!(self.key(key), "{value}").expect("writing to a String cannot fail");
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape(s, &mut out);
        out
    }

    #[test]
    fn escape_table_is_pinned() {
        assert_eq!(escaped("\"\\\n\t\r"), r#""\"\\\n\t\r""#);
        assert_eq!(escaped("\u{1}\u{1f}"), r#""\u0001\u001f""#);
        assert_eq!(escaped("\u{7f}é𝄞"), "\"\u{7f}é𝄞\"");
        assert_eq!(escaped(""), r#""""#);
    }

    #[test]
    fn object_commas_go_between_keys_only() {
        let mut o = JsonObject::new();
        o.string("a", "x").raw("b", 1);
        assert_eq!(o.finish(), r#"{"a":"x","b":1}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
    }
}
