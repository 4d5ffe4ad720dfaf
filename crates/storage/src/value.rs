//! Dynamically typed scalar values.
//!
//! [`Value`] is the unit of data exchanged between the storage, expression and
//! execution layers. Floats are wrapped in a total order (NaN sorts last,
//! `-0.0 == 0.0`) so values can be used as hash-join and group-by keys.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::schema::DataType;

/// A dynamically typed scalar.
///
/// `Null` compares equal to itself and less than every other value, which is
/// sufficient for the engine's needs (SQL three-valued logic is handled in the
/// expression layer, where comparisons with `Null` evaluate to `Null`).
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// Immutable shared string.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`DataType`] of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: integers widen to `f64`; everything else is `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (no float truncation — floats return `None`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total-order comparison used for sorting and join keys.
    ///
    /// Cross-type numeric comparisons (`Int` vs `Float`) compare numerically;
    /// otherwise values order by type tag first (`Null < Bool < Int/Float <
    /// Str`). NaN sorts after every other float and equals itself.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Bool(_), _) => Ordering::Less,
            (_, Bool(_)) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => cmp_f64(*a as f64, *b),
            (Float(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Float(a), Float(b)) => cmp_f64(*a, *b),
            (Int(_), Str(_)) | (Float(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) | (Str(_), Float(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

fn cmp_f64(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // Collapse -0.0/+0.0 so Eq agrees with Hash.
        (false, false) => {
            if a == b {
                Ordering::Equal
            } else {
                a.partial_cmp(&b).expect("non-NaN floats compare")
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and floats that are numerically equal must hash equally
            // because they compare equal in `total_cmp`, which compares an
            // `Int` with a `Float` as f64. Hash every numeric as the bit
            // pattern of its f64 value (with -0.0 normalized), so `Int`s
            // that f64 rounds together share a hash.
            Value::Int(i) => {
                state.write_u8(2);
                state.write_u64(norm_f64_bits(*i as f64));
            }
            Value::Float(f) => {
                if f.is_nan() {
                    state.write_u8(4);
                } else {
                    state.write_u8(2);
                    state.write_u64(norm_f64_bits(*f));
                }
            }
            Value::Str(s) => {
                state.write_u8(5);
                s.hash(state);
            }
        }
    }
}

pub(crate) fn norm_f64_bits(f: f64) -> u64 {
    // Normalize -0.0 to +0.0 so equal values hash equally.
    if f == 0.0 {
        0f64.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn negative_zero_equals_zero_and_hashes_equal() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn nan_is_self_equal_and_sorts_last() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::Float(1e308) < nan);
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn null_sorts_first_and_equals_itself() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert_eq!(Value::Null, Value::Null);
    }

    #[test]
    fn type_tag_ordering() {
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(5) < Value::str("5"));
        assert!(Value::Float(1.0) < Value::str(""));
    }

    #[test]
    fn large_int_precision_not_lost_in_ordering() {
        // 2^53 + 1 is not representable in f64.
        let big = (1i64 << 53) + 1;
        assert_ne!(Value::Int(big), Value::Int(big - 1));
        assert!(Value::Int(big - 1) < Value::Int(big));
    }

    #[test]
    fn views() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("abc").as_str(), Some("abc"));
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Float(7.0).as_i64(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }

    #[test]
    fn data_types() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
    }
}
