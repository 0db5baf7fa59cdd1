//! Id-keyed document storage with secondary equality indexes.

use std::collections::{BTreeMap, HashMap};

use sintel_common::json::{to_json, Doc};

use crate::query::Filter;
use crate::{Result, StoreError};

/// A collection of documents keyed by `_id`, with optional secondary
/// indexes that accelerate equality filters on a field. The collection
/// is its own id allocator: an insert gets one past the highest id ever
/// stored here, so ids of deleted documents are not handed out again
/// while the collection lives.
#[derive(Debug, Clone, Default)]
pub struct Collection {
    docs: BTreeMap<u64, Doc>,
    /// Highest id ever put (0 when none).
    last_id: u64,
    /// field -> (serialised key -> ids)
    indexes: HashMap<String, HashMap<String, Vec<u64>>>,
}

fn index_key(value: &Doc) -> String {
    to_json(value)
}

impl Collection {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Fetch by id.
    pub fn get(&self, id: u64) -> Option<&Doc> {
        self.docs.get(&id)
    }

    /// The id the next insert should use.
    pub(crate) fn next_id(&self) -> u64 {
        self.last_id + 1
    }

    /// Insert or replace the document stored under `id`, stamping its
    /// `_id`. A replaced document's index entries are removed before the
    /// new one is indexed.
    pub fn put(&mut self, id: u64, mut doc: Doc) {
        self.last_id = self.last_id.max(id);
        if doc.get("_id").and_then(Doc::as_i64) != Some(id as i64) {
            doc.set("_id", id);
        }
        if let Some(old) = self.docs.remove(&id) {
            self.unindex_doc(id, &old);
        }
        self.index_doc(id, &doc);
        self.docs.insert(id, doc);
    }

    /// Merge fields into an existing document.
    pub fn patch(&mut self, id: u64, fields: &[(&str, Doc)]) -> Result<()> {
        let mut doc = self.docs.get(&id).cloned().ok_or(StoreError::NotFound(id))?;
        for (k, v) in fields {
            doc.set(k, v.clone());
        }
        self.put(id, doc);
        Ok(())
    }

    /// Delete by id.
    pub fn delete(&mut self, id: u64) -> Result<()> {
        let doc = self.docs.remove(&id).ok_or(StoreError::NotFound(id))?;
        self.unindex_doc(id, &doc);
        Ok(())
    }

    /// Create a secondary index on a (dotted) field; existing documents
    /// are indexed immediately. Idempotent.
    pub fn create_index(&mut self, field: &str) {
        if self.indexes.contains_key(field) {
            return;
        }
        let mut index: HashMap<String, Vec<u64>> = HashMap::new();
        for (&id, doc) in &self.docs {
            if let Some(v) = doc.path(field) {
                index.entry(index_key(v)).or_default().push(id);
            }
        }
        self.indexes.insert(field.to_string(), index);
    }

    /// Whether a field is indexed.
    pub fn has_index(&self, field: &str) -> bool {
        self.indexes.contains_key(field)
    }

    fn index_doc(&mut self, id: u64, doc: &Doc) {
        for (field, index) in &mut self.indexes {
            if let Some(v) = doc.path(field) {
                index.entry(index_key(v)).or_default().push(id);
            }
        }
    }

    fn unindex_doc(&mut self, id: u64, doc: &Doc) {
        for (field, index) in &mut self.indexes {
            if let Some(v) = doc.path(field) {
                if let Some(ids) = index.get_mut(&index_key(v)) {
                    ids.retain(|&x| x != id);
                }
            }
        }
    }

    /// The smallest index bucket `filter` pins by equality, ties going
    /// to the field that sorts first, so the choice does not depend on
    /// hash order; `None` when the filter pins no indexed field.
    fn pinned_ids(&self, filter: &Filter) -> Option<&[u64]> {
        let buckets = self.indexes.iter().filter_map(|(field, index)| {
            let value = filter.pinned_eq(field)?;
            Some((index.get(&index_key(value)).map_or(&[][..], Vec::as_slice), field))
        });
        buckets.min_by_key(|&(ids, field)| (ids.len(), field)).map(|(ids, _)| ids)
    }

    /// Matches of `filter` among the documents a secondary index narrows
    /// it to, in index (not `_id`) order; `None` when the filter pins no
    /// indexed field by equality and a full scan is needed.
    fn indexed_matches<'a: 'f, 'f>(
        &'a self,
        filter: &'f Filter,
    ) -> Option<impl Iterator<Item = (&'a u64, &'a Doc)> + 'f> {
        let ids = self.pinned_ids(filter)?;
        Some(
            ids.iter()
                .filter_map(|id| self.docs.get_key_value(id))
                .filter(|(_, doc)| filter.matches(doc)),
        )
    }

    /// Find documents matching a filter, in `_id` order. Routes through a
    /// secondary index when the filter pins an indexed field by equality.
    pub fn find(&self, filter: &Filter) -> Vec<&Doc> {
        match self.indexed_matches(filter) {
            Some(hits) => {
                let mut hits: Vec<_> = hits.collect();
                hits.sort_unstable_by_key(|(id, _)| **id);
                hits.into_iter().map(|(_, doc)| doc).collect()
            }
            None => self.docs.values().filter(|doc| filter.matches(doc)).collect(),
        }
    }

    /// The match with the lowest `_id`, if any.
    pub fn find_one(&self, filter: &Filter) -> Option<&Doc> {
        match self.indexed_matches(filter) {
            Some(hits) => hits.min_by_key(|(id, _)| **id).map(|(_, doc)| doc),
            None => self.docs.values().find(|doc| filter.matches(doc)),
        }
    }

    /// Count matches.
    pub fn count(&self, filter: &Filter) -> usize {
        match self.indexed_matches(filter) {
            Some(hits) => hits.count(),
            None => self.docs.values().filter(|doc| filter.matches(doc)).count(),
        }
    }

    /// Iterate all documents in `_id` order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Doc)> {
        self.docs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(signal: &str, score: f64) -> Doc {
        Doc::obj().with("signal", signal).with("score", score)
    }

    /// A collection holding `docs` under ids `1..=docs.len()`.
    fn filled(docs: impl IntoIterator<Item = Doc>) -> Collection {
        let mut c = Collection::new();
        for (id, doc) in (1..).zip(docs) {
            c.put(id, doc);
        }
        c
    }

    #[test]
    fn a_filter_pinning_two_indexes_uses_the_smaller_bucket() {
        // Signal "a" on ids 1-3, "b" on 4-5; score 1 on ids 1, 2 and 4.
        let scores = [1.0, 1.0, 0.0, 1.0, 0.0];
        let mut c = filled((0..5).map(|i| event(if i < 3 { "a" } else { "b" }, scores[i])));
        c.create_index("signal");
        c.create_index("score");
        let both = |signal: &str| {
            Filter::And(vec![Filter::eq("signal", signal), Filter::eq("score", 1.0)])
        };
        // Bucket sizes: signal "a" 3 vs score 1.0 3, a tie that goes to
        // "score", which sorts first; then signal "b" 2 vs score 1.0 3.
        assert_eq!(c.pinned_ids(&both("a")), Some(&[1, 2, 4][..]));
        assert_eq!(c.pinned_ids(&both("b")), Some(&[4, 5][..]));
        let found: Vec<_> = c.find(&both("b")).iter().map(|d| d.get("_id").cloned()).collect();
        assert_eq!(found, vec![Some(Doc::I64(4))]);
        assert_eq!(c.pinned_ids(&Filter::eq("other", 1i64)), None);
    }

    #[test]
    fn put_stores_and_replaces_by_id() {
        let mut c = Collection::new();
        c.put(1, event("S-1", 0.5));
        c.put(2, event("S-2", 0.9));
        assert_eq!(c.get(1).unwrap().get("signal").unwrap().as_str(), Some("S-1"));
        assert_eq!(c.get(1).unwrap().get("_id").unwrap().as_i64(), Some(1));
        assert_eq!(c.len(), 2);
        // A mismatched `_id` is overwritten with the key it is stored under.
        c.put(2, event("S-3", 0.1).with("_id", 7i64));
        assert_eq!(c.get(2).unwrap().get("_id").unwrap().as_i64(), Some(2));
        assert_eq!(c.get(2).unwrap().get("signal").unwrap().as_str(), Some("S-3"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn update_patch_delete() {
        let mut c = filled([event("S-1", 0.5)]);
        c.patch(1, &[("score", Doc::F64(0.7)), ("_id", Doc::I64(9))]).unwrap();
        assert_eq!(c.get(1).unwrap().get("score").unwrap().as_f64(), Some(0.7));
        assert_eq!(c.get(1).unwrap().get("signal").unwrap().as_str(), Some("S-1"));
        assert_eq!(c.get(1).unwrap().get("_id").unwrap().as_i64(), Some(1));
        c.put(1, event("S-9", 1.0));
        assert_eq!(c.get(1).unwrap().get("signal").unwrap().as_str(), Some("S-9"));
        c.delete(1).unwrap();
        assert!(c.get(1).is_none());
        assert_eq!(c.delete(1).unwrap_err(), StoreError::NotFound(1));
        assert_eq!(c.patch(1, &[]).unwrap_err(), StoreError::NotFound(1));
    }

    #[test]
    fn find_with_filters() {
        let c =
            filled((0..10).map(|i| event(if i % 2 == 0 { "S-1" } else { "S-2" }, i as f64 / 10.0)));
        assert_eq!(c.find(&Filter::eq("signal", "S-1")).len(), 5);
        assert_eq!(c.count(&Filter::Gt("score".into(), Doc::F64(0.65))), 3);
        assert_eq!(c.find(&Filter::All).len(), 10);
        assert!(c.find_one(&Filter::eq("signal", "S-3")).is_none());
    }

    #[test]
    fn index_agrees_with_scan() {
        let mut c = filled((0..50).map(|i| event(&format!("S-{}", i % 5), i as f64)));
        let scan = c.find(&Filter::eq("signal", "S-3")).len();
        c.create_index("signal");
        assert!(c.has_index("signal"));
        let indexed = c.find(&Filter::eq("signal", "S-3")).len();
        assert_eq!(scan, indexed);
        // Compound filter routed through the index still applies the rest.
        let f = Filter::And(vec![
            Filter::eq("signal", "S-3"),
            Filter::Gt("score".into(), Doc::F64(20.0)),
        ]);
        let hits = c.find(&f);
        assert!(hits.iter().all(|d| d.get("score").unwrap().as_f64().unwrap() > 20.0));
    }

    #[test]
    fn index_maintained_across_mutations() {
        let mut c = Collection::new();
        c.create_index("signal");
        c.put(1, event("S-1", 0.1));
        assert_eq!(c.find(&Filter::eq("signal", "S-1")).len(), 1);
        c.put(1, event("S-2", 0.2));
        assert_eq!(c.find(&Filter::eq("signal", "S-1")).len(), 0);
        assert_eq!(c.find(&Filter::eq("signal", "S-2")).len(), 1);
        c.delete(1).unwrap();
        assert_eq!(c.find(&Filter::eq("signal", "S-2")).len(), 0);
    }

    /// `count` and `find_one` agree with `find` on the scan and the
    /// index path, for filters matching no, one and several documents.
    #[test]
    fn count_and_find_one_agree_with_find() {
        // Ids descend as signals repeat, so index order differs from `_id` order.
        let mut c = Collection::new();
        for i in 0..12u64 {
            c.put(100 - i, event(&format!("S-{}", i % 4), i as f64));
        }
        c.put(7, event("S-solo", 0.5));
        let filters = [
            Filter::eq("signal", "S-none"),
            Filter::eq("signal", "S-solo"),
            Filter::eq("signal", "S-2"),
            Filter::And(vec![
                Filter::eq("signal", "S-1"),
                Filter::Gt("score".into(), Doc::F64(4.0)),
            ]),
            Filter::Gt("score".into(), Doc::F64(100.0)),
            Filter::Lt("score".into(), Doc::F64(0.7)),
            Filter::All,
        ];
        for indexed in [false, true] {
            if indexed {
                c.create_index("signal");
            }
            let sizes: Vec<usize> = filters.iter().map(|f| c.find(f).len()).collect();
            assert!(sizes.contains(&0) && sizes.contains(&1) && sizes.iter().any(|&n| n > 1));
            for f in &filters {
                assert_eq!(c.count(f), c.find(f).len(), "indexed={indexed} {f:?}");
                assert_eq!(c.find_one(f), c.find(f).first().copied(), "indexed={indexed} {f:?}");
            }
        }
    }

    #[test]
    fn put_with_unchanged_key_keeps_one_index_entry() {
        let mut c = Collection::new();
        c.create_index("signal");
        c.put(17, event("S-1", 0.0));
        c.put(17, event("S-1", 0.5));
        let hits = c.find(&Filter::eq("signal", "S-1"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("score").unwrap().as_f64(), Some(0.5));
        c.put(3, event("S-1", 0.9));
        let ids: Vec<i64> = c
            .find(&Filter::eq("signal", "S-1"))
            .iter()
            .map(|d| d.get("_id").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![3, 17]);
    }
}
