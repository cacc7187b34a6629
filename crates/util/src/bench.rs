//! A one-shot wall-clock timer and a minimal JSON writer.
//!
//! [`time_once`] times one macro run (the `benchmark/` package's
//! timer). [`Json`] is the insertion-ordered object writer behind the
//! sweep and compare JSON / JSONL artifacts; [`JsonEscaped`] is the
//! string escaping it shares with every other JSON writer in the
//! workspace (trace exports, flame graphs, run logs).

use std::fmt;
use std::time::Instant;

/// Times a single run of `f` (for macro measurements where one
/// execution is already seconds long), returning `(result, seconds)`.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Displays a string as the body of a JSON string literal (without the
/// surrounding quotes): `"` and `\` are escaped, and so is every
/// control character, so the text never ends a string early or breaks
/// a JSONL line.
#[derive(Debug, Clone, Copy)]
pub struct JsonEscaped<'a>(pub &'a str);

impl fmt::Display for JsonEscaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut clean = 0;
        for (i, c) in s.char_indices() {
            if !matches!(c, '"' | '\\' | '\0'..='\x1f') {
                continue;
            }
            f.write_str(&s[clean..i])?;
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c => write!(f, "\\u{:04x}", c as u32)?,
            }
            // Every escaped character is one byte.
            clean = i + 1;
        }
        f.write_str(&s[clean..])
    }
}

/// A tiny JSON object writer (insertion-ordered, no external deps).
#[derive(Debug, Default)]
pub struct Json {
    fields: Vec<(String, String)>,
}

impl Json {
    /// An empty object.
    pub fn new() -> Json {
        Json::default()
    }

    /// Adds a numeric field (serialised with enough precision to
    /// round-trip). JSON has no NaN or infinity, so a non-finite value
    /// is written as `null`.
    pub fn num(mut self, key: &str, value: f64) -> Json {
        let rendered = if !value.is_finite() {
            "null".to_string()
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{}", value as i64)
        } else {
            format!("{value:.6}")
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Adds a string field (escaped by [`JsonEscaped`]).
    pub fn str(mut self, key: &str, value: &str) -> Json {
        self.fields
            .push((key.to_string(), format!("\"{}\"", JsonEscaped(value))));
        self
    }

    /// Adds a raw pre-serialised value (e.g. a nested object).
    pub fn raw(mut self, key: &str, value: String) -> Json {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Serialises the object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}", body.join(",\n"))
    }

    /// Serialises the object onto a single line with no interior
    /// whitespace — the JSONL form (one object per line) used by
    /// streaming sweep artifacts.
    pub fn render_line(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (v, secs) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn json_renders_ordered_and_escaped() {
        let j = Json::new()
            .str("name", "a \"b\" \\c")
            .num("count", 3.0)
            .num("ratio", 0.5)
            .raw("nested", Json::new().num("x", 1.0).render());
        let text = j.render();
        assert!(text.starts_with("{\n  \"name\": \"a \\\"b\\\" \\\\c\","));
        assert!(text.contains("\"count\": 3,"));
        assert!(text.contains("\"ratio\": 0.500000"));
        assert!(text.contains("\"x\": 1"));
    }

    /// A control character in a string field is escaped, so a JSONL
    /// row stays one line and the document stays valid JSON.
    #[test]
    fn json_escapes_control_characters() {
        let line = Json::new()
            .str("name", "two\nlines\r\tand \u{1}\u{1f} é")
            .render_line();
        assert_eq!(line, "{\"name\":\"two\\nlines\\r\\tand \\u0001\\u001f é\"}");
        assert!(!line.chars().any(|c| (c as u32) < 0x20), "{line:?}");
    }

    #[test]
    fn json_writes_non_finite_numbers_as_null() {
        let line = Json::new()
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY)
            .num("neg_inf", f64::NEG_INFINITY)
            .num("finite", 0.25)
            .render_line();
        assert_eq!(
            line,
            "{\"nan\":null,\"inf\":null,\"neg_inf\":null,\"finite\":0.250000}"
        );
    }

    #[test]
    fn render_line_is_single_line_compact() {
        let j = Json::new()
            .str("proto", "app-driven")
            .num("n", 8.0)
            .raw("lat", Json::new().num("p50", 101.0).render_line());
        let line = j.render_line();
        assert_eq!(
            line,
            "{\"proto\":\"app-driven\",\"n\":8,\"lat\":{\"p50\":101}}"
        );
        assert!(!line.contains('\n'));
    }
}
