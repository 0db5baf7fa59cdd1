//! The JSON-like document value, re-exported as [`crate::json::Doc`].

use std::collections::BTreeMap;

/// A document value (JSON data model, `f64` numbers kept separate from
/// integers so ids and timestamps round-trip exactly).
#[derive(Debug, Clone, PartialEq)]
pub enum Doc {
    /// JSON null.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (ids, timestamps).
    I64(i64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Doc>),
    /// Object with sorted keys (stable serialisation).
    Obj(BTreeMap<String, Doc>),
}

impl Doc {
    /// Empty object.
    pub fn obj() -> Doc {
        Doc::Obj(BTreeMap::new())
    }

    /// Builder-style field insertion (no-op on non-objects).
    pub fn with(mut self, key: &str, value: impl Into<Doc>) -> Doc {
        if let Doc::Obj(map) = &mut self {
            map.insert(key.to_string(), value.into());
        }
        self
    }

    /// Field access on objects.
    pub fn get(&self, key: &str) -> Option<&Doc> {
        match self {
            Doc::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Dotted-path access (`"pipeline.name"`).
    pub fn path(&self, path: &str) -> Option<&Doc> {
        let mut cur = self;
        for part in path.split('.') {
            cur = cur.get(part)?;
        }
        Some(cur)
    }

    /// Set a field on an object in place; returns false on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Doc>) -> bool {
        match self {
            Doc::Obj(map) => {
                map.insert(key.to_string(), value.into());
                true
            }
            _ => false,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Doc::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Doc::I64(v) => Some(*v),
            Doc::F64(v) if v.fract() == 0.0 => Some(*v as i64),
            _ => None,
        }
    }

    /// Float view (accepts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Doc::F64(v) => Some(*v),
            Doc::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Doc::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Doc]> {
        match self {
            Doc::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Total ordering used by comparison filters: type rank, then value.
    /// Numbers compare numerically across I64/F64.
    pub fn compare(&self, other: &Doc) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(d: &Doc) -> u8 {
            match d {
                Doc::Null => 0,
                Doc::Bool(_) => 1,
                Doc::I64(_) | Doc::F64(_) => 2,
                Doc::Str(_) => 3,
                Doc::Arr(_) => 4,
                Doc::Obj(_) => 5,
            }
        }
        match (self, other) {
            (Doc::I64(a), Doc::I64(b)) => a.cmp(b),
            (Doc::F64(a), Doc::F64(b)) => a.total_cmp(b),
            (Doc::I64(a), Doc::F64(b)) => (*a as f64).total_cmp(b),
            (Doc::F64(a), Doc::I64(b)) => a.total_cmp(&(*b as f64)),
            (Doc::Bool(a), Doc::Bool(b)) => a.cmp(b),
            (Doc::Str(a), Doc::Str(b)) => a.cmp(b),
            (Doc::Arr(a), Doc::Arr(b)) => {
                for (x, y) in a.iter().zip(b) {
                    let ord = x.compare(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl From<bool> for Doc {
    fn from(v: bool) -> Doc {
        Doc::Bool(v)
    }
}
impl From<i64> for Doc {
    fn from(v: i64) -> Doc {
        Doc::I64(v)
    }
}
/// Exact up to `i64::MAX`; a larger value becomes the nearest `F64`
/// rather than wrapping to a negative integer.
impl From<u64> for Doc {
    fn from(v: u64) -> Doc {
        i64::try_from(v).map_or(Doc::F64(v as f64), Doc::I64)
    }
}
impl From<usize> for Doc {
    fn from(v: usize) -> Doc {
        Doc::from(v as u64)
    }
}
impl From<f64> for Doc {
    fn from(v: f64) -> Doc {
        Doc::F64(v)
    }
}
impl From<&str> for Doc {
    fn from(v: &str) -> Doc {
        Doc::Str(v.to_string())
    }
}
impl From<String> for Doc {
    fn from(v: String) -> Doc {
        Doc::Str(v)
    }
}
impl<T: Into<Doc>> From<Vec<T>> for Doc {
    fn from(v: Vec<T>) -> Doc {
        Doc::Arr(v.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn builder_and_access() {
        let d = Doc::obj()
            .with("name", "S-1")
            .with("len", 100i64)
            .with("score", 0.5)
            .with("tags", vec!["a", "b"]);
        assert_eq!(d.get("name").unwrap().as_str(), Some("S-1"));
        assert_eq!(d.get("len").unwrap().as_i64(), Some(100));
        assert_eq!(d.get("score").unwrap().as_f64(), Some(0.5));
        assert_eq!(d.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert!(d.get("missing").is_none());
    }

    #[test]
    fn dotted_path() {
        let d = Doc::obj().with("pipeline", Doc::obj().with("name", "arima"));
        assert_eq!(d.path("pipeline.name").unwrap().as_str(), Some("arima"));
        assert!(d.path("pipeline.missing").is_none());
        assert!(d.path("a.b.c").is_none());
    }

    #[test]
    fn set_in_place() {
        let mut d = Doc::obj();
        assert!(d.set("x", 1i64));
        assert_eq!(d.get("x").unwrap().as_i64(), Some(1));
        let mut not_obj = Doc::I64(3);
        assert!(!not_obj.set("x", 1i64));
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Doc::F64(3.0).as_i64(), Some(3));
        assert_eq!(Doc::F64(3.5).as_i64(), None);
        assert_eq!(Doc::I64(3).as_f64(), Some(3.0));
    }

    #[test]
    fn unsigned_conversions_never_wrap() {
        assert_eq!(Doc::from(i64::MAX as u64), Doc::I64(i64::MAX));
        assert_eq!(Doc::from(u64::MAX), Doc::F64(u64::MAX as f64));
        assert_eq!(Doc::from(usize::MAX), Doc::F64(usize::MAX as f64));
    }

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(Doc::I64(2).compare(&Doc::F64(2.0)), Ordering::Equal);
        assert_eq!(Doc::I64(2).compare(&Doc::F64(2.5)), Ordering::Less);
        assert_eq!(Doc::F64(3.0).compare(&Doc::I64(2)), Ordering::Greater);
    }

    #[test]
    fn heterogeneous_compare_by_rank() {
        assert_eq!(Doc::Null.compare(&Doc::Bool(false)), Ordering::Less);
        assert_eq!(Doc::Str("a".into()).compare(&Doc::I64(9)), Ordering::Greater);
    }

    #[test]
    fn array_lexicographic_compare() {
        let a = Doc::from(vec![1i64, 2]);
        let b = Doc::from(vec![1i64, 3]);
        let c = Doc::from(vec![1i64, 2, 0]);
        assert_eq!(a.compare(&b), Ordering::Less);
        assert_eq!(a.compare(&c), Ordering::Less);
        assert_eq!(a.compare(&a.clone()), Ordering::Equal);
    }
}
