//! Untyped JSON over the vendored serde value model, for documents
//! whose keys are data (metric names, `/metrics` counters).

use serde::{Deserialize, Serialize, Value};

/// A JSON document held as a raw [`Value`]. The vendored `serde` has no
/// `Serialize`/`Deserialize` for `Value` itself; this newtype adds them.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Json(v.clone()))
    }
}

impl Json {
    /// Parse JSON text.
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str::<Json>(text).map_err(|e| e.to_string())
    }

    /// Compact JSON text.
    pub fn render(&self) -> String {
        serde_json::to_string(self).expect("value model always renders")
    }

    /// Indented JSON text.
    pub fn render_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("value model always renders")
    }
}

/// Build an object from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A string value.
pub fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

/// A float value (non-finite floats render as `null`).
pub fn f(x: f64) -> Value {
    Value::F64(x)
}

/// An unsigned integer value.
pub fn u(x: u64) -> Value {
    Value::U64(x)
}

/// Follow a `/`-free key path through nested objects.
pub fn path<'a>(v: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(v, |cur, k| cur.get(k))
}

/// Any numeric value as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// A string value's text.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(t) => Some(t),
        _ => None,
    }
}

/// An object's fields.
pub fn as_obj(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Obj(fields) => Some(fields),
        _ => None,
    }
}

/// An array's items.
pub fn as_arr(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Arr(items) => Some(items),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_keyed_documents() {
        let doc = Json(obj([
            ("a/b", u(7)),
            ("x", f(1.5)),
            ("nested", obj([("k", s("v"))])),
        ]));
        let back = Json::parse(&doc.render()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(path(&back.0, &["nested", "k"]).and_then(as_str), Some("v"));
        assert_eq!(back.0.get("a/b").and_then(as_f64), Some(7.0));
        assert!(Json::parse("{\"a\":").is_err());
    }
}
