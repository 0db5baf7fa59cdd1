//! MongoDB-flavoured document filters.

use crate::Doc;

/// A filter expression evaluated against a document. Field names accept
/// dotted paths (`"pipeline.name"`).
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Match everything.
    All,
    /// Field equals value (missing fields never match).
    Eq(String, Doc),
    /// Field differs from value (missing fields match, as in Mongo).
    Ne(String, Doc),
    /// Field strictly greater than value.
    Gt(String, Doc),
    /// Field greater than or equal.
    Gte(String, Doc),
    /// Field strictly less than value.
    Lt(String, Doc),
    /// Field less than or equal.
    Lte(String, Doc),
    /// Field equals one of the values.
    In(String, Vec<Doc>),
    /// Field exists (or not).
    Exists(String, bool),
    /// Array field contains the value.
    Contains(String, Doc),
    /// Conjunction.
    And(Vec<Filter>),
    /// Disjunction.
    Or(Vec<Filter>),
    /// Negation.
    Not(Box<Filter>),
}

impl Filter {
    /// Evaluate against a document.
    pub fn matches(&self, doc: &Doc) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Filter::All => true,
            Filter::Eq(field, value) => doc.path(field).is_some_and(|v| v == value),
            Filter::Ne(field, value) => doc.path(field).is_none_or(|v| v != value),
            Filter::Gt(field, value) => {
                doc.path(field).is_some_and(|v| v.compare(value) == Greater)
            }
            Filter::Gte(field, value) => {
                doc.path(field).is_some_and(|v| v.compare(value) != Less)
            }
            Filter::Lt(field, value) => {
                doc.path(field).is_some_and(|v| v.compare(value) == Less)
            }
            Filter::Lte(field, value) => {
                doc.path(field).is_some_and(|v| v.compare(value) != Greater)
            }
            Filter::In(field, values) => {
                doc.path(field).is_some_and(|v| values.iter().any(|w| w == v))
            }
            Filter::Exists(field, want) => doc.path(field).is_some() == *want,
            Filter::Contains(field, value) => doc
                .path(field)
                .and_then(Doc::as_arr)
                .is_some_and(|arr| arr.iter().any(|v| v == value)),
            Filter::And(filters) => filters.iter().all(|f| f.matches(doc)),
            Filter::Or(filters) => filters.iter().any(|f| f.matches(doc)),
            Filter::Not(inner) => !inner.matches(doc),
        }
    }

    /// Convenience equality constructor.
    pub fn eq(field: &str, value: impl Into<Doc>) -> Filter {
        Filter::Eq(field.to_string(), value.into())
    }

    /// If this filter (or a conjunct of it) pins `field == value`,
    /// return that value — lets collections route through an index.
    pub fn pinned_eq(&self, field: &str) -> Option<&Doc> {
        match self {
            Filter::Eq(f, v) if f == field => Some(v),
            Filter::And(filters) => filters.iter().find_map(|f| f.pinned_eq(field)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Doc {
        Doc::obj()
            .with("name", "S-1")
            .with("score", 0.8)
            .with("len", 100i64)
            .with("tags", vec!["confirmed", "satellite"])
            .with("meta", Doc::obj().with("owner", "alice"))
    }

    #[test]
    fn eq_and_path() {
        assert!(Filter::eq("name", "S-1").matches(&doc()));
        assert!(!Filter::eq("name", "S-2").matches(&doc()));
        assert!(Filter::eq("meta.owner", "alice").matches(&doc()));
        assert!(!Filter::eq("missing", 1i64).matches(&doc()));
    }

    #[test]
    fn ne_semantics_on_missing_field() {
        assert!(Filter::Ne("missing".into(), Doc::I64(1)).matches(&doc()));
        assert!(Filter::Ne("len".into(), Doc::I64(1)).matches(&doc()));
        assert!(!Filter::Ne("len".into(), Doc::I64(100)).matches(&doc()));
    }

    #[test]
    fn comparisons_cross_numeric() {
        assert!(Filter::Gt("score".into(), Doc::F64(0.5)).matches(&doc()));
        assert!(Filter::Gte("len".into(), Doc::I64(100)).matches(&doc()));
        assert!(Filter::Lt("len".into(), Doc::F64(100.5)).matches(&doc()));
        assert!(!Filter::Lte("score".into(), Doc::F64(0.5)).matches(&doc()));
        // Missing field never satisfies a comparison.
        assert!(!Filter::Gt("missing".into(), Doc::I64(0)).matches(&doc()));
    }

    #[test]
    fn in_exists_contains() {
        assert!(Filter::In("name".into(), vec![Doc::from("S-1"), Doc::from("S-2")])
            .matches(&doc()));
        assert!(Filter::Exists("tags".into(), true).matches(&doc()));
        assert!(Filter::Exists("nope".into(), false).matches(&doc()));
        assert!(Filter::Contains("tags".into(), Doc::from("confirmed")).matches(&doc()));
        assert!(!Filter::Contains("tags".into(), Doc::from("anomaly")).matches(&doc()));
        assert!(!Filter::Contains("name".into(), Doc::from("S")).matches(&doc()));
    }

    #[test]
    fn boolean_combinators() {
        let f = Filter::And(vec![
            Filter::eq("name", "S-1"),
            Filter::Or(vec![
                Filter::Gt("score".into(), Doc::F64(0.9)),
                Filter::Gt("len".into(), Doc::I64(50)),
            ]),
        ]);
        assert!(f.matches(&doc()));
        assert!(!Filter::Not(Box::new(f)).matches(&doc()));
        assert!(Filter::And(vec![]).matches(&doc())); // vacuous truth
        assert!(!Filter::Or(vec![]).matches(&doc()));
    }

    #[test]
    fn pinned_eq_detection() {
        let f = Filter::And(vec![
            Filter::Gt("score".into(), Doc::F64(0.1)),
            Filter::eq("name", "S-1"),
        ]);
        assert_eq!(f.pinned_eq("name"), Some(&Doc::from("S-1")));
        assert_eq!(f.pinned_eq("score"), None);
        assert_eq!(Filter::All.pinned_eq("name"), None);
    }
}
