//! Just enough JSON writing for the result lines and the trace file.

/// Escape a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o
}

/// A number as JSON: every digit Rust's shortest round-trip form keeps;
/// non-finite values (never expected) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_object(m: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v, u)| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", esc(k), num(*v), u))
        .collect();
    format!("{{{}}}", body.join(", "))
}
