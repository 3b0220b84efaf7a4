//! Offline shim for the `serde` crate.
//!
//! The real serde decouples data structures from formats through the
//! `Serializer`/`Deserializer` visitor machinery. This workspace only ever
//! serializes to and from JSON, so the shim collapses the model to one hop
//! through an in-memory [`Value`] tree:
//!
//! - [`Serialize`] renders a type to a [`Value`];
//! - [`Deserialize`] rebuilds a type from a [`Value`];
//! - the `serde_json` shim converts [`Value`] to and from JSON text.
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`, re-exported from
//! the `serde_derive` shim) generate impls of these traits with the same
//! externally-tagged data layout the real serde uses, so JSON produced
//! before the shim remains readable and vice versa.

pub use serde_derive::{Deserialize, Serialize};

/// An ordered JSON object.
///
/// Preserves insertion order (like serde_json's `preserve_order` feature)
/// so dumps and reports are stable and diffable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        Map { entries: Vec::new() }
    }

    /// Inserts `value` under `key`, returning the previous value if the key
    /// was already present (matching `serde_json::Map::insert`).
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            return Some(std::mem::replace(&mut slot.1, value));
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    #[must_use]
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl IntoIterator for Map {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl FromIterator<(String, Value)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// A JSON number: unsigned, signed, or floating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A floating-point number (always finite; non-finite floats serialize
    /// as `null`, matching serde_json).
    Float(f64),
}

impl Number {
    /// The number as an `f64` (lossless for floats, best-effort for ints).
    #[must_use]
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        }
    }

    /// The number as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(n) => u64::try_from(n).ok(),
            Number::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The number as an `i64`, if it fits.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(f)
                if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 =>
            {
                Some(f as i64)
            }
            Number::Float(_) => None,
        }
    }
}

/// An in-memory JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

macro_rules! value_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Number(Number::PosInt(n as u64))
            }
        }
    )*};
}

macro_rules! value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                if n < 0 {
                    Value::Number(Number::NegInt(n as i64))
                } else {
                    Value::Number(Number::PosInt(n as u64))
                }
            }
        }
    )*};
}

value_from_uint!(u8, u16, u32, u64, usize);
value_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        if f.is_finite() {
            Value::Number(Number::Float(f))
        } else {
            Value::Null
        }
    }
}

impl From<f32> for Value {
    fn from(f: f32) -> Value {
        Value::from(f64::from(f))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_owned())
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

impl From<Map> for Value {
    fn from(map: Map) -> Value {
        Value::Object(map)
    }
}

/// Error produced when a [`Value`] cannot be decoded into a type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// An error with an arbitrary message.
    #[must_use]
    pub fn custom(message: impl Into<String>) -> Self {
        DeError { message: message.into() }
    }

    /// Prefixes the error with the field or variant being decoded.
    #[must_use]
    pub fn context(self, site: &str) -> Self {
        DeError { message: format!("{site}: {}", self.message) }
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// A type renderable as a JSON [`Value`].
pub trait Serialize {
    /// Renders `self`.
    fn to_value(&self) -> Value;
}

/// A type rebuildable from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds a value, or explains why the document does not fit.
    ///
    /// # Errors
    ///
    /// When `value` has the wrong JSON type or is out of the target's range.
    fn from_value(value: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

macro_rules! serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::from(*self)
            }
        }
    )*};
}

serialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! deserialize_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = match value {
                    Value::Number(n) => n.as_u64(),
                    _ => None,
                }
                .ok_or_else(|| {
                    DeError::custom(format!(
                        "expected unsigned integer, got {value:?}"
                    ))
                })?;
                <$t>::try_from(n).map_err(|_| {
                    DeError::custom(format!(
                        "{n} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let n = match value {
                    Value::Number(n) => n.as_i64(),
                    _ => None,
                }
                .ok_or_else(|| {
                    DeError::custom(format!("expected integer, got {value:?}"))
                })?;
                <$t>::try_from(n).map_err(|_| {
                    DeError::custom(format!(
                        "{n} out of range for {}", stringify!($t)
                    ))
                })
            }
        }
    )*};
}

deserialize_uint!(u8, u16, u32, u64, usize);
deserialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::from(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Number(n) => Ok(n.as_f64()),
            // serde_json writes non-finite floats as null.
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::custom(format!("expected number, got {other:?}"))),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        f64::from_value(value).map(|f| f as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let s = String::from_value(value)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom(format!("expected single-char string, got {s:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::custom(format!("expected array, got {other:?}"))),
        }
    }
}

macro_rules! serialize_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match value {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(DeError::custom(format!(
                        "expected {LEN}-element array, got {other:?}"
                    ))),
                }
            }
        }
    )*};
}

serialize_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in self {
            map.insert(k.clone(), v.to_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Object(map) => {
                map.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => Err(DeError::custom(format!("expected object, got {other:?}"))),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so output is deterministic, as tests and diffs expect.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut map = Map::new();
        for k in keys {
            map.insert(k.clone(), self[k].to_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for std::collections::HashMap<String, V> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Object(map) => {
                map.iter().map(|(k, v)| Ok((k.clone(), V::from_value(v)?))).collect()
            }
            other => Err(DeError::custom(format!("expected object, got {other:?}"))),
        }
    }
}

impl Serialize for std::time::Duration {
    fn to_value(&self) -> Value {
        // serde's layout for Duration: {"secs": u64, "nanos": u32}.
        let mut map = Map::new();
        map.insert("secs".to_owned(), Value::from(self.as_secs()));
        map.insert("nanos".to_owned(), Value::from(self.subsec_nanos()));
        Value::Object(map)
    }
}

impl Deserialize for std::time::Duration {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Object(map) => {
                let secs = u64::from_value(map.get("secs").unwrap_or(&Value::Null))
                    .map_err(|e| e.context("Duration.secs"))?;
                let nanos = u32::from_value(map.get("nanos").unwrap_or(&Value::Null))
                    .map_err(|e| e.context("Duration.nanos"))?;
                Ok(std::time::Duration::new(secs, nanos))
            }
            other => {
                Err(DeError::custom(format!("expected {{secs, nanos}} object, got {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order_and_replaces() {
        let mut map = Map::new();
        map.insert("b".into(), Value::from(1u32));
        map.insert("a".into(), Value::from(2u32));
        assert_eq!(map.insert("b".into(), Value::from(3u32)), Some(Value::from(1u32)));
        let keys: Vec<&String> = map.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(map.get("b"), Some(&Value::from(3u32)));
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&0.25f64.to_value()).unwrap(), 0.25);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u8>::from_value(&3u8.to_value()).unwrap(), Some(3));
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()).unwrap(), v);
        let t = (1u64, 0.5f64);
        assert_eq!(<(u64, f64)>::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn duration_roundtrips() {
        let d = std::time::Duration::new(3, 250_000_000);
        assert_eq!(std::time::Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn out_of_range_ints_fail() {
        assert!(u8::from_value(&Value::from(300u64)).is_err());
        assert!(u64::from_value(&Value::from(-1i64)).is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(f64::INFINITY.to_value(), Value::Null);
        assert!(f64::from_value(&Value::Null).unwrap().is_nan());
    }
}
