//! A small insertion-ordered JSON object writer for the result lines.

use dfp_obs::json::escape_into;
use std::fmt::Write as _;

/// A JSON object whose keys render in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// A number with all its digits (shortest round-trip form).
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.raw(key, format!("{v}"))
    }

    pub fn int(&mut self, key: &str, v: u64) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.raw(key, v.to_string())
    }

    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        let mut s = String::new();
        escape_into(&mut s, v);
        self.raw(key, s)
    }

    pub fn obj(&mut self, key: &str, v: Obj) -> &mut Self {
        self.raw(key, v.render())
    }

    pub fn arr(&mut self, key: &str, items: Vec<Obj>) -> &mut Self {
        let body: Vec<String> = items.iter().map(Obj::render).collect();
        self.raw(key, format!("[{}]", body.join(",")))
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_in_order_and_round_trips() {
        let mut inner = Obj::new();
        inner.num("value", 1.2034).str("unit", "ms");
        let mut o = Obj::new();
        o.bool("correct", true)
            .int("attempted", 3)
            .obj("m", inner)
            .arr("jobs", vec![Obj::new()])
            .num("bad", f64::NAN);
        let text = o.render();
        assert_eq!(
            text,
            r#"{"correct":true,"attempted":3,"m":{"value":1.2034,"unit":"ms"},"jobs":[{}],"bad":0}"#
        );
        let parsed = dfp_obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("m")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.2034)
        );
    }
}
