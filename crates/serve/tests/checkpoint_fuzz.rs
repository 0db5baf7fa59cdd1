//! Checkpoint recovery under corrupted input: a session's metadata
//! document and window chunks, after random field-level and byte-level
//! mutations, must recover to a session or fail with a typed
//! `ServeError::Checkpoint` — never a panic, never another error. Each
//! named corruption (gap, overlap, duplicate, short run, wrong end,
//! length mismatch, orphan chunk) is pinned to that typed error, and
//! the fuzz suite replays from `SINTEL_CHECK_SEED`.

use std::cell::Cell;

use sintel_common::check::{self, shrinks, Config, PropResult};
use sintel_common::json::{from_json, to_json};
use sintel_common::SintelRng;
use sintel_pipeline::template::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_serve::{
    CheckpointSlot, IngestEvent, ServeConfig, ServeEngine, ServeError, TenantSession, TenantSpec,
};
use sintel_store::schema::collections;
use sintel_store::{Doc, SintelDb};

const TENANT: &str = "acme";
const SIGNALS: [&str; 2] = ["cpu", "mem"];

fn cheap_template() -> Template {
    Template {
        name: "fuzz_test".into(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
        ],
    }
}

/// A checkpointed store: `events` samples per signal, ticked every
/// `tick_every` offers, so the window spans several chunks.
fn checkpointed_engine(events: i64, tick_every: usize) -> ServeEngine {
    let cfg = ServeConfig { window: 64, hop: 16, min_points: 16, ..ServeConfig::for_tests() };
    let spec = TenantSpec::new(TENANT, 5, cheap_template());
    let mut engine = ServeEngine::open(SintelDb::in_memory(), cfg, vec![spec]).expect("open");
    let mut offered = 0;
    for t in 0..events {
        for (i, signal) in SIGNALS.iter().enumerate() {
            let value = (t as f64 * (0.2 + i as f64 * 0.07)).sin();
            engine.offer(&IngestEvent::new(TENANT, signal, t, value)).expect("offer");
            offered += 1;
            if offered % tick_every == 0 {
                engine.tick().expect("tick");
            }
        }
    }
    engine.tick().expect("tick");
    engine
}

/// The tenant's checkpoint documents, `_id` stripped: the metadata
/// document first, then every chunk.
fn checkpoint_docs(db: &SintelDb) -> Vec<Doc> {
    let mut docs = vec![db.serve_session(TENANT).expect("meta doc")];
    docs.extend(db.serve_chunks(TENANT));
    for doc in &mut docs {
        if let Doc::Obj(map) = doc {
            map.remove("_id");
        }
    }
    docs
}

/// Load `docs` (metadata first) into a fresh store and recover from it.
fn recover_from(docs: &[Doc]) -> Result<TenantSession, ServeError> {
    let db = SintelDb::in_memory();
    for (i, doc) in docs.iter().enumerate() {
        let collection =
            if i == 0 { collections::SERVE_SESSIONS } else { collections::SERVE_CHUNKS };
        db.raw().insert(collection, doc.clone()).expect("insert");
    }
    TenantSession::recover(&db, TENANT).map(|(session, _)| session)
}

/// Checkpoint documents of three differently-chunked runs.
fn bases() -> Vec<Vec<Doc>> {
    [(150, 10), (170, 23), (131, 37)]
        .into_iter()
        .map(|(events, tick_every)| checkpoint_docs(checkpointed_engine(events, tick_every).db()))
        .collect()
}

#[test]
fn unmutated_checkpoints_recover_the_live_session() {
    for (events, tick_every) in [(150, 10), (170, 23), (131, 37)] {
        let engine = checkpointed_engine(events, tick_every);
        let docs = checkpoint_docs(engine.db());
        assert!(docs.len() > 2 * SIGNALS.len(), "each window spans several chunks");
        let recovered = recover_from(&docs).expect("recover");
        assert_eq!(Some(&recovered), engine.session(TENANT));
    }
}

// ---- named corruptions --------------------------------------------------

/// Indices into `docs` of `signal`'s chunks, in `first` order.
fn chunks_of(docs: &[Doc], signal: &str) -> Vec<usize> {
    let mut idx: Vec<usize> = (1..docs.len())
        .filter(|&i| docs[i].get("signal").and_then(Doc::as_str) == Some(signal))
        .collect();
    idx.sort_by_key(|&i| docs[i].get("first").and_then(Doc::as_i64));
    idx
}

fn set(doc: &mut Doc, key: &str, value: impl Into<Doc>) {
    assert!(doc.set(key, value), "documents are objects");
}

fn arr_mut<'a>(doc: &'a mut Doc, key: &str) -> &'a mut Vec<Doc> {
    match doc {
        Doc::Obj(map) => match map.get_mut(key) {
            Some(Doc::Arr(items)) => items,
            other => panic!("'{key}' is not an array: {other:?}"),
        },
        other => panic!("not an object: {other:?}"),
    }
}

fn assert_refused(name: &str, docs: &[Doc]) {
    match recover_from(docs) {
        Err(ServeError::Checkpoint(why)) => assert!(!why.is_empty(), "{name}"),
        other => panic!("{name}: expected a checkpoint error, got {other:?}"),
    }
}

#[test]
fn named_corruptions_are_typed_checkpoint_errors() {
    let base = &bases()[0];
    let cpu = chunks_of(base, "cpu");
    assert!(cpu.len() >= 3, "need a run of at least three chunks");
    let first_of = |docs: &[Doc], i: usize| docs[i].get("first").and_then(Doc::as_i64).unwrap();

    let mut gap = base.clone();
    gap.remove(cpu[1]);
    assert_refused("gap", &gap);

    let mut overlap = base.clone();
    let shifted = first_of(&overlap, cpu[1]) - 1;
    set(&mut overlap[cpu[1]], "first", shifted);
    assert_refused("overlap", &overlap);

    let mut duplicate = base.clone();
    duplicate.push(base[cpu[1]].clone());
    assert_refused("duplicate", &duplicate);

    let mut short = base.clone();
    short.remove(cpu[0]);
    assert_refused("short run", &short);

    let mut wrong_end = base.clone();
    wrong_end.remove(cpu[cpu.len() - 1]);
    assert_refused("run not ending at ingested", &wrong_end);

    let mut mismatch = base.clone();
    arr_mut(&mut mismatch[cpu[1]], "values").pop();
    assert_refused("timestamps/values length mismatch", &mismatch);

    let mut empty = base.clone();
    arr_mut(&mut empty[cpu[1]], "values").clear();
    arr_mut(&mut empty[cpu[1]], "timestamps").clear();
    assert_refused("empty chunk", &empty);

    let mut orphan = base.clone();
    set(&mut orphan[cpu[1]], "signal", "ghost");
    assert_refused("orphan chunk", &orphan);

    let mut unsorted = base.clone();
    arr_mut(&mut unsorted[cpu[1]], "timestamps").swap(0, 1);
    assert_refused("timestamps out of order", &unsorted);
}

// ---- seeded mutation fuzzing -------------------------------------------

#[derive(Debug, Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// Every path to a value inside `doc` (not the root).
fn paths(doc: &Doc, prefix: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    let children: Vec<(Step, &Doc)> = match doc {
        Doc::Obj(map) => map.iter().map(|(k, v)| (Step::Key(k.clone()), v)).collect(),
        Doc::Arr(items) => items.iter().enumerate().map(|(i, v)| (Step::Index(i), v)).collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        prefix.push(step);
        out.push(prefix.clone());
        paths(child, prefix, out);
        prefix.pop();
    }
}

/// The container holding the value at `path`, and the last step.
fn parent_mut<'a>(doc: &'a mut Doc, path: &'a [Step]) -> Option<(&'a mut Doc, &'a Step)> {
    let (last, init) = path.split_last()?;
    let mut node = doc;
    for step in init {
        node = match (node, step) {
            (Doc::Obj(map), Step::Key(k)) => map.get_mut(k)?,
            (Doc::Arr(items), Step::Index(i)) => items.get_mut(*i)?,
            _ => return None,
        };
    }
    Some((node, last))
}

fn random_value(rng: &mut SintelRng) -> Doc {
    match rng.index(9) {
        0 => Doc::Null,
        1 => Doc::Bool(rng.chance(0.5)),
        2 => Doc::I64(rng.int_range(-3, 300)),
        3 => Doc::I64(*rng.choice(&[i64::MIN, -1, i64::MAX, 1 << 40][..])),
        4 => Doc::F64(*rng.choice(&[0.5, -2.25, 1e300, f64::NAN, 64.0][..])),
        5 => Doc::Str(rng.choice(&["cpu", "mem", "ghost", "", "open", "acme"][..]).to_string()),
        6 => Doc::Arr(Vec::new()),
        7 => Doc::Arr((0..rng.index(4)).map(|i| Doc::I64(i as i64)).collect()),
        _ => Doc::obj(),
    }
}

/// One field-level mutation somewhere inside `doc`: remove a value,
/// replace it, nudge an integer, or duplicate/truncate an array (an
/// action that does not fit the value's type replaces it).
fn mutate_field(rng: &mut SintelRng, doc: &mut Doc) -> String {
    let mut all = Vec::new();
    paths(doc, &mut Vec::new(), &mut all);
    if all.is_empty() {
        *doc = random_value(rng);
        return "replace root".into();
    }
    let path = rng.choice(&all).clone();
    let action = *rng.choice(&["remove", "replace", "nudge", "duplicate", "truncate"][..]);
    let Some((parent, last)) = parent_mut(doc, &path) else {
        return "no-op".into();
    };
    let describe = format!("{action} at {path:?}");
    let slot = match (parent, last) {
        (Doc::Obj(map), Step::Key(k)) => {
            if action == "remove" {
                map.remove(k);
                return describe;
            }
            map.get_mut(k)
        }
        (Doc::Arr(items), Step::Index(i)) => {
            if action == "remove" && *i < items.len() {
                items.remove(*i);
                return describe;
            }
            items.get_mut(*i)
        }
        _ => None,
    };
    let Some(value) = slot else { return describe };
    match (action, &mut *value) {
        ("nudge", Doc::I64(v)) => *v = v.wrapping_add(rng.int_range(-2, 3)),
        ("duplicate", Doc::Arr(items)) if !items.is_empty() => {
            let i = rng.index(items.len());
            let copy = items[i].clone();
            items.insert(i, copy);
        }
        ("truncate", Doc::Arr(items)) => {
            let keep = rng.index(items.len() + 1);
            items.truncate(keep);
        }
        _ => *value = random_value(rng),
    }
    describe
}

/// Byte-level mutation of `doc`'s JSON encoding. Returns the reparsed
/// document, or `None` when the damage no longer parses (`from_json`
/// fails only with a typed `ParseError`).
fn mutate_bytes(rng: &mut SintelRng, doc: &Doc) -> Option<Doc> {
    let mut bytes = to_json(doc).into_bytes();
    for _ in 0..1 + rng.index(3) {
        let at = rng.index(bytes.len() + 1);
        let byte = *rng.choice(&b"0123456789-.,:[]{}\"\\enutl x"[..]);
        match rng.index(4) {
            0 if at < bytes.len() => bytes[at] = byte,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, byte),
            _ => bytes.truncate(at),
        }
    }
    from_json(&String::from_utf8_lossy(&bytes)).ok()
}

#[derive(Debug)]
struct Case {
    docs: Vec<Doc>,
    mutations: Vec<String>,
}

fn gen_case(bases: &[Vec<Doc>], rng: &mut SintelRng) -> Result<Case, String> {
    let mut docs = rng.choice(bases).clone();
    let mut mutations = Vec::new();
    for _ in 0..1 + rng.index(3) {
        let i = rng.index(docs.len());
        match rng.index(6) {
            0 if i > 0 => {
                docs.remove(i);
                mutations.push(format!("drop doc {i}"));
            }
            1 if i > 0 => {
                let copy = docs[i].clone();
                docs.push(copy);
                mutations.push(format!("duplicate doc {i}"));
            }
            2 => match mutate_bytes(rng, &docs[i]) {
                Some(doc) => {
                    docs[i] = doc;
                    mutations.push(format!("bytes of doc {i}"));
                }
                None => mutations.push(format!("bytes of doc {i} (unparseable, kept)")),
            },
            _ => {
                let what = mutate_field(rng, &mut docs[i]);
                mutations.push(format!("field of doc {i}: {what}"));
            }
        }
    }
    Ok(Case { docs, mutations })
}

/// Recovered sessions must checkpoint and recover to themselves
/// (compared through `Debug`, where NaN equals NaN).
fn stable_round_trip(session: &TenantSession) -> PropResult {
    let db = SintelDb::in_memory();
    session
        .checkpoint(&db, &mut CheckpointSlot::default(), &ServeConfig::for_tests())
        .map_err(|e| format!("re-checkpoint failed: {e}"))?;
    let (again, _) =
        TenantSession::recover(&db, TENANT).map_err(|e| format!("re-recover failed: {e}"))?;
    if format!("{again:?}") != format!("{session:?}") {
        return Err(format!("round trip changed {session:?} into {again:?}"));
    }
    Ok(())
}

fn recover_prop(case: &Result<Case, String>) -> (PropResult, bool) {
    let case = match case {
        Ok(case) => case,
        Err(why) => return (Err(why.clone()), false),
    };
    let mutations = &case.mutations;
    match recover_from(&case.docs) {
        Ok(session) => {
            (stable_round_trip(&session).map_err(|e| format!("after {mutations:?}: {e}")), true)
        }
        Err(ServeError::Checkpoint(_)) => (Ok(()), false),
        Err(other) => (Err(format!("after {mutations:?}: untyped error {other:?}")), false),
    }
}

#[test]
fn mutated_checkpoints_recover_or_fail_typed() {
    let bases = bases();
    let (recovered, refused) = (Cell::new(0usize), Cell::new(0usize));
    check::forall(
        "mutated checkpoints recover or fail typed",
        &Config::default().cases(384),
        |rng| gen_case(&bases, rng),
        shrinks::none,
        |case| {
            let (result, ok) = recover_prop(case);
            let counter = if ok { &recovered } else { &refused };
            counter.set(counter.get() + 1);
            result
        },
    );
    assert!(recovered.get() > 0, "some mutations must leave a recoverable checkpoint");
    assert!(refused.get() > 0, "some mutations must be refused");
}

fn parse_seed(report: &str, prefix: &str) -> u64 {
    let at = report.find(prefix).unwrap_or_else(|| panic!("no `{prefix}` in report: {report}"));
    report[at + prefix.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("unparseable seed after `{prefix}`: {report}"))
}

/// Sensitivity proof: the generator reaches the refusal paths. The
/// false claim "every mutated checkpoint recovers" is caught, and the
/// reported case seed replays the exact refused input.
#[test]
fn seeded_refusal_is_caught_and_replayable() {
    let bases = bases();
    let gen = |rng: &mut SintelRng| gen_case(&bases, rng);
    let prop = |case: &Result<Case, String>| match case {
        Ok(case) => recover_from(&case.docs).map(|_| ()).map_err(|e| e.to_string()),
        Err(why) => Err(why.clone()),
    };
    let result = std::panic::catch_unwind(|| {
        let name = "every mutated checkpoint recovers (false)";
        check::forall(name, &Config::default(), gen, shrinks::none, prop)
    });
    let payload = result.expect_err("some mutated checkpoint must be refused");
    let report = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("forall reports with a String payload");
    assert!(report.contains(check::CHECK_SEED_ENV), "{report}");
    assert_eq!(parse_seed(&report, "root seed "), Config::default().seed);
    let case = parse_seed(&report, "case seed ");
    let (_, replayed) = check::replay(case, gen, prop);
    assert!(replayed.is_err(), "replaying case seed {case} must be refused again");
}
