//! Model-based properties of `Database`: random sequences of writes,
//! index declarations, batch scopes, saves and reopens, with every read
//! checked after every step against a plain `BTreeMap` model.
//!
//! 1. **Reads** — on an in-memory database, `get`, `find` (on indexed
//!    and unindexed filters), `find_one`, `count` and `collection_names`
//!    equal the model, in `_id` order, whether an index was declared
//!    before or after the data it covers.
//! 2. **Reopen** — the same holds across `save` + reopen and across
//!    reopens that replay the write-ahead log alone, and ids allocated
//!    after a reopen continue past every id the snapshot and the log
//!    still name, even when the highest ids were deleted.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use sintel_common::check::{forall, shrinks, Config, PropResult};
use sintel_common::SintelRng;
use sintel_store::{Database, Doc, Durability, Filter, StoreError, StoreOptions};

/// Collections the generator writes to.
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Fields an index may be declared on.
const INDEXABLE: [&str; 2] = ["k", "s"];

/// Which document of a collection an op targets: the `n`-th live one
/// (modulo the live count), or an id that no document holds.
#[derive(Debug, Clone)]
enum Target {
    Live(usize),
    Missing,
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        col: usize,
        doc: Doc,
    },
    Update {
        col: usize,
        target: Target,
        doc: Doc,
    },
    Patch {
        col: usize,
        target: Target,
        k: i64,
    },
    Delete {
        col: usize,
        target: Target,
    },
    DeleteHighest {
        col: usize,
    },
    Index {
        col: usize,
        field: &'static str,
    },
    /// Open a (possibly nested) batch scope.
    Begin,
    /// Commit the innermost open batch scope, if any.
    End,
    Save,
    Reopen,
}

fn random_doc(rng: &mut SintelRng) -> Doc {
    let mut doc = Doc::obj().with("n", rng.int_range(-5, 5));
    if !rng.chance(0.2) {
        doc.set("k", rng.int_range(0, 2));
    }
    if !rng.chance(0.2) {
        doc.set("s", *rng.choice(&["x", "y", "z"]));
    }
    doc
}

fn random_target(rng: &mut SintelRng) -> Target {
    if rng.chance(0.15) {
        Target::Missing
    } else {
        Target::Live(rng.index(16))
    }
}

/// A random op sequence; `save` and `reopen` allow those two ops.
fn random_ops(rng: &mut SintelRng, save: bool, reopen: bool) -> Vec<Op> {
    let len = 20 + rng.index(40);
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let col = rng.index(NAMES.len());
        let op = match rng.index(100) {
            0..=29 => Op::Insert { col, doc: random_doc(rng) },
            30..=39 => Op::Update { col, target: random_target(rng), doc: random_doc(rng) },
            40..=49 => Op::Patch { col, target: random_target(rng), k: rng.int_range(0, 2) },
            50..=61 => Op::Delete { col, target: random_target(rng) },
            62..=67 => Op::DeleteHighest { col },
            68..=74 => Op::Index { col, field: INDEXABLE[rng.index(INDEXABLE.len())] },
            75..=81 => Op::Begin,
            82..=88 => Op::End,
            89..=93 if save => Op::Save,
            94..=99 if reopen => Op::Reopen,
            _ => continue,
        };
        ops.push(op);
    }
    ops
}

/// What the database should hold, plus what its files should say.
#[derive(Debug, Default)]
struct Model {
    cols: BTreeMap<String, BTreeMap<u64, Doc>>,
    /// Per collection: the highest id allocated or stored so far.
    last_id: BTreeMap<String, u64>,
    /// Collections in the latest snapshot, with the highest id in each.
    snapshot: BTreeMap<String, u64>,
    /// `(collection, id)` of every put in the log since the latest save.
    logged_puts: Vec<(String, u64)>,
    /// Puts buffered by the open batch scopes.
    pending_puts: Vec<(String, u64)>,
    depth: usize,
}

impl Model {
    fn docs(&mut self, col: &str) -> &mut BTreeMap<u64, Doc> {
        self.last_id.entry(col.to_string()).or_insert(0);
        self.cols.entry(col.to_string()).or_default()
    }

    fn resolve(&self, col: &str, target: &Target) -> u64 {
        let live: Vec<u64> =
            self.cols.get(col).map(|d| d.keys().copied().collect()).unwrap_or_default();
        match target {
            Target::Live(n) if !live.is_empty() => live[n % live.len()],
            _ => self.last_id.get(col).copied().unwrap_or(0) + 1,
        }
    }

    fn log_put(&mut self, col: &str, id: u64) {
        let entry = (col.to_string(), id);
        if self.depth > 0 {
            self.pending_puts.push(entry);
        } else {
            self.logged_puts.push(entry);
        }
    }

    fn put(&mut self, col: &str, id: u64, mut doc: Doc) {
        doc.set("_id", id);
        self.docs(col).insert(id, doc);
        let last = self.last_id.entry(col.to_string()).or_insert(0);
        *last = (*last).max(id);
        self.log_put(col, id);
    }

    fn end_batch(&mut self) {
        self.depth -= 1;
        if self.depth == 0 {
            self.logged_puts.append(&mut self.pending_puts);
        }
    }

    fn save(&mut self) {
        self.snapshot = self
            .cols
            .iter()
            .map(|(name, docs)| (name.clone(), docs.keys().max().copied().unwrap_or(0)))
            .collect();
        self.logged_puts.clear();
    }

    /// A reopen keeps the collections a snapshot or a logged put names,
    /// and each collection's allocator restarts past the highest id
    /// either of them holds.
    fn reopen(&mut self) -> PropResult {
        let mut last_id = self.snapshot.clone();
        for (col, id) in &self.logged_puts {
            let last = last_id.entry(col.clone()).or_insert(0);
            *last = (*last).max(*id);
        }
        for (name, docs) in &self.cols {
            if !last_id.contains_key(name) && !docs.is_empty() {
                return Err(format!("model: {name} holds docs no file names"));
            }
        }
        self.cols.retain(|name, _| last_id.contains_key(name));
        self.last_id = last_id;
        Ok(())
    }
}

fn has(doc: &Doc, field: &str, value: Doc) -> bool {
    doc.get(field) == Some(&value)
}

fn n_of(doc: &Doc) -> Option<i64> {
    match doc.get("n") {
        Some(Doc::I64(n)) => Some(*n),
        _ => None,
    }
}

/// A filter and the model predicate it must agree with.
type Query = (Filter, fn(&Doc) -> bool);

/// The filters every step reads with. Equality on `k` or `s` routes
/// through an index once one is declared; the rest scan.
fn queries() -> Vec<Query> {
    vec![
        (Filter::All, |_| true),
        (Filter::eq("k", 0i64), |d| has(d, "k", Doc::I64(0))),
        (Filter::eq("k", 1i64), |d| has(d, "k", Doc::I64(1))),
        (Filter::eq("s", "x"), |d| has(d, "s", Doc::from("x"))),
        // Pins both indexable fields: reads use the smaller bucket.
        (Filter::And(vec![Filter::eq("k", 1i64), Filter::eq("s", "x")]), |d| {
            has(d, "k", Doc::I64(1)) && has(d, "s", Doc::from("x"))
        }),
        (Filter::Gt("n".into(), Doc::I64(0)), |d| n_of(d).is_some_and(|n| n > 0)),
        (Filter::And(vec![Filter::eq("k", 2i64), Filter::Lte("n".into(), Doc::I64(0))]), |d| {
            has(d, "k", Doc::I64(2)) && n_of(d).is_some_and(|n| n <= 0)
        }),
        (Filter::Or(vec![Filter::eq("s", "y"), Filter::Exists("k".into(), false)]), |d| {
            has(d, "s", Doc::from("y")) || d.get("k").is_none()
        }),
    ]
}

/// Every read the database offers, against the model.
fn check_reads(db: &Database, model: &Model, step: &str) -> PropResult {
    let names: Vec<String> = model.cols.keys().cloned().collect();
    if db.collection_names() != names {
        return Err(format!("{step}: collection_names {:?} != {names:?}", db.collection_names()));
    }
    let empty = BTreeMap::new();
    for name in NAMES.iter().copied().chain(["never-written"]) {
        let docs = model.cols.get(name).unwrap_or(&empty);
        let horizon = model.last_id.get(name).copied().unwrap_or(0) + 1;
        for id in 0..=horizon {
            if db.get(name, id).as_ref() != docs.get(&id) {
                return Err(format!("{step}: get({name}, {id}) = {:?}", db.get(name, id)));
            }
        }
        for (filter, pred) in queries() {
            let want: Vec<&Doc> = docs.values().filter(|d| pred(d)).collect();
            let got = db.find(name, &filter);
            if got.iter().collect::<Vec<_>>() != want {
                return Err(format!("{step}: find({name}, {filter:?}) = {got:?}, want {want:?}"));
            }
            if db.count(name, &filter) != want.len() {
                return Err(format!("{step}: count({name}, {filter:?}) != {}", want.len()));
            }
            if db.find_one(name, &filter).as_ref() != want.first().copied() {
                return Err(format!("{step}: find_one({name}, {filter:?}) differs"));
            }
        }
    }
    Ok(())
}

fn expect_not_found(result: sintel_store::Result<()>, id: u64, step: &str) -> PropResult {
    match result {
        Err(StoreError::NotFound(got)) if got == id => Ok(()),
        other => Err(format!("{step}: expected NotFound({id}), got {other:?}")),
    }
}

/// Apply one write to the database and the model alike.
fn apply(db: &Database, model: &mut Model, op: &Op, step: &str) -> PropResult {
    let err = |e: StoreError| format!("{step}: {e}");
    match op {
        Op::Insert { col, doc } => {
            let name = NAMES[*col];
            let want = model.last_id.get(name).copied().unwrap_or(0) + 1;
            let id = db.insert(name, doc.clone()).map_err(err)?;
            if id != want {
                return Err(format!("{step}: insert allocated id {id}, want {want}"));
            }
            model.put(name, id, doc.clone());
        }
        Op::Update { col, target, doc } => {
            let name = NAMES[*col];
            let id = model.resolve(name, target);
            let result = db.update(name, id, doc.clone());
            if model.cols.get(name).is_some_and(|d| d.contains_key(&id)) {
                result.map_err(err)?;
                model.put(name, id, doc.clone());
            } else {
                expect_not_found(result, id, step)?;
            }
        }
        Op::Patch { col, target, k } => {
            let name = NAMES[*col];
            let id = model.resolve(name, target);
            let result = db.patch(name, id, &[("k", Doc::I64(*k)), ("patched", Doc::Bool(true))]);
            match model.cols.get(name).and_then(|d| d.get(&id)).cloned() {
                Some(doc) => {
                    result.map_err(err)?;
                    model.put(name, id, doc.with("k", *k).with("patched", true));
                }
                None => expect_not_found(result, id, step)?,
            }
        }
        Op::Delete { col, target } => {
            let name = NAMES[*col];
            let id = model.resolve(name, target);
            let result = db.delete(name, id);
            if model.cols.get_mut(name).and_then(|d| d.remove(&id)).is_some() {
                result.map_err(err)?;
            } else {
                expect_not_found(result, id, step)?;
            }
        }
        Op::DeleteHighest { col } => {
            let name = NAMES[*col];
            if let Some((id, _)) = model.cols.get_mut(name).and_then(BTreeMap::pop_last) {
                db.delete(name, id).map_err(err)?;
            }
        }
        Op::Index { col, field } => {
            db.create_index(NAMES[*col], field);
            model.docs(NAMES[*col]);
        }
        Op::Begin | Op::End | Op::Save | Op::Reopen => {
            return Err(format!("{step}: {op:?} is not a write"));
        }
    }
    Ok(())
}

/// Run `ops` against a database (in memory when `dir` is `None`),
/// checking every read after every step.
fn run(ops: &[Op], dir: Option<&Path>) -> PropResult {
    let opts = StoreOptions { durability: Durability::Wal, ..StoreOptions::default() };
    let open = || match dir {
        Some(dir) => Database::open_with(dir, opts.clone()).map_err(|e| format!("open: {e}")),
        None => Ok(Database::in_memory()),
    };
    let mut model = Model::default();
    let mut ops = ops.iter().enumerate();
    let mut reopen = false;
    loop {
        let db = open()?;
        if reopen {
            model.reopen()?;
            check_reads(&db, &model, "reopen")?;
            reopen = false;
        }
        let mut scopes = Vec::new();
        for (i, op) in ops.by_ref() {
            let step = format!("op {i} ({op:?})");
            match op {
                Op::Reopen => {
                    reopen = true;
                    break;
                }
                Op::Begin => {
                    scopes.push(db.batch());
                    model.depth += 1;
                }
                Op::End => {
                    if let Some(scope) = scopes.pop() {
                        scope.commit().map_err(|e| format!("{step}: {e}"))?;
                        model.end_batch();
                    }
                }
                Op::Save => {
                    db.save().map_err(|e| format!("{step}: {e}"))?;
                    model.save();
                }
                write => apply(&db, &mut model, write, &step)?,
            }
            check_reads(&db, &model, &step)?;
        }
        // A reopen needs the log to hold every write: close open scopes.
        while let Some(scope) = scopes.pop() {
            scope.commit().map_err(|e| format!("final commit: {e}"))?;
            model.end_batch();
        }
        if !reopen {
            return Ok(());
        }
    }
}

fn tmpdir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sintel-model-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `ops` in a fresh directory, then remove it.
fn run_on_disk(ops: &[Op]) -> PropResult {
    let dir = tmpdir();
    let result = run(ops, Some(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[test]
fn reads_match_a_btreemap_model() {
    forall(
        "in-memory reads equal the model after every step",
        &Config::default(),
        |rng| random_ops(rng, false, false),
        |ops| shrinks::truncate_vec(ops),
        |ops| run(ops, None),
    );
}

#[test]
fn reads_match_the_model_across_save_and_reopen() {
    forall(
        "reads and id allocation survive save + reopen",
        &Config::default().cases(48),
        |rng| random_ops(rng, true, true),
        |ops| shrinks::truncate_vec(ops),
        |ops| run_on_disk(ops),
    );
}

#[test]
fn reads_match_the_model_across_wal_only_reopen() {
    forall(
        "reads and id allocation survive a reopen that replays the log alone",
        &Config::default().cases(48),
        |rng| random_ops(rng, false, true),
        |ops| shrinks::truncate_vec(ops),
        |ops| run_on_disk(ops),
    );
}
