//! Property tests for the knowledge-base query layer: indexed lookups
//! must agree with brute-force scans, and persistence must round-trip
//! arbitrary documents — the invariants everything else (events,
//! annotations, benchmark results) silently relies on.

use sintel_repro::sintel_common::{json, SintelRng};
use sintel_repro::sintel_store::{Collection, Doc, Filter};

fn random_key(rng: &mut SintelRng, min: usize, max: usize) -> String {
    let len = min + rng.index(max - min + 1);
    (0..len).map(|_| (b'a' + rng.index(26) as u8) as char).collect()
}

fn random_leaf(rng: &mut SintelRng) -> Doc {
    match rng.index(5) {
        0 => Doc::Null,
        1 => Doc::Bool(rng.chance(0.5)),
        2 => Doc::I64(rng.int_range(-1_000_000, 1_000_000)),
        3 => Doc::F64(rng.uniform_range(-1e9, 1e9)),
        _ => Doc::Str(random_key(rng, 0, 12)),
    }
}

/// Flat documents with a few common fields so filters have targets.
fn random_doc(rng: &mut SintelRng) -> Doc {
    let signal = random_key(rng, 1, 6);
    let n = rng.int_range(-100, 100);
    let score = rng.uniform();
    let mut doc = Doc::obj().with("signal", signal).with("n", n).with("score", score);
    let extras = rng.index(4);
    for _ in 0..extras {
        let key = random_key(rng, 1, 5);
        let value = random_leaf(rng);
        doc.set(&format!("x_{key}"), value);
    }
    doc
}

fn random_filter(rng: &mut SintelRng, depth: usize) -> Filter {
    let variants = if depth == 0 { 6 } else { 9 };
    match rng.index(variants) {
        0 => {
            let s = random_key(rng, 1, 6);
            Filter::eq("signal", s.as_str())
        }
        1 => Filter::Gt("n".into(), Doc::I64(rng.int_range(-100, 100))),
        2 => Filter::Lte("n".into(), Doc::I64(rng.int_range(-100, 100))),
        3 => Filter::Lt("score".into(), Doc::F64(rng.uniform())),
        4 => Filter::Exists("x_a".into(), true),
        5 => Filter::All,
        6 => {
            let n = 1 + rng.index(2);
            Filter::And((0..n).map(|_| random_filter(rng, depth - 1)).collect())
        }
        7 => {
            let n = 1 + rng.index(2);
            Filter::Or((0..n).map(|_| random_filter(rng, depth - 1)).collect())
        }
        _ => Filter::Not(Box::new(random_filter(rng, depth - 1))),
    }
}

/// An indexed collection returns exactly the documents a brute-force
/// matches() scan selects, for arbitrary docs and filters.
#[test]
fn indexed_find_agrees_with_scan() {
    let mut rng = SintelRng::seed_from_u64(0x8111);
    for _ in 0..64 {
        let docs: Vec<Doc> = (0..rng.index(40)).map(|_| random_doc(&mut rng)).collect();
        let filter = random_filter(&mut rng, 2);
        let mut indexed = Collection::new();
        indexed.create_index("signal");
        let mut plain = Collection::new();
        for (id, doc) in (1..).zip(&docs) {
            indexed.put(id, doc.clone());
            plain.put(id, doc.clone());
        }
        let from_index: Vec<i64> = indexed
            .find(&filter)
            .iter()
            .map(|d| d.get("_id").unwrap().as_i64().unwrap())
            .collect();
        let from_scan: Vec<i64> = plain
            .find(&filter)
            .iter()
            .map(|d| d.get("_id").unwrap().as_i64().unwrap())
            .collect();
        let mut a = from_index.clone();
        a.sort_unstable();
        let mut b = from_scan.clone();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}

/// JSON serialisation of arbitrary (flat-ish) documents round-trips.
#[test]
fn json_roundtrip_of_store_docs() {
    let mut rng = SintelRng::seed_from_u64(0x8112);
    for _ in 0..256 {
        let doc = random_doc(&mut rng);
        let encoded = json::to_json(&doc);
        let decoded = json::from_json(&encoded).unwrap();
        assert_eq!(decoded, doc);
    }
}

/// Deleting every matched document leaves exactly the complement.
#[test]
fn delete_by_filter_leaves_complement() {
    let mut rng = SintelRng::seed_from_u64(0x8113);
    for _ in 0..64 {
        let docs: Vec<Doc> = (0..rng.index(30)).map(|_| random_doc(&mut rng)).collect();
        let filter = random_filter(&mut rng, 2);
        let mut collection = Collection::new();
        for (id, doc) in (1..).zip(&docs) {
            collection.put(id, doc.clone());
        }
        let matched: Vec<u64> = collection
            .find(&filter)
            .iter()
            .map(|d| d.get("_id").unwrap().as_i64().unwrap() as u64)
            .collect();
        for id in &matched {
            collection.delete(*id).unwrap();
        }
        assert_eq!(collection.count(&filter), 0);
        assert_eq!(collection.len(), docs.len() - matched.len());
    }
}
