//! In-tree property-based testing harness.
//!
//! Rebuilds the capability the workspace lost when `proptest` was
//! removed: [`forall`] draws random cases from a [`SintelRng`]
//! generator, checks a property on each, and on failure **shrinks**
//! the counterexample (caller-supplied candidates, greedily accepted
//! while the property still fails) before panicking with the case
//! seed, so any failure replays exactly with [`replay`].
//!
//! ```text
//! forall("matmul associative", &Config::default(),
//!        |rng| gen_three_matrices(rng),
//!        |t| shrinks: smaller variants of t,
//!        |t| property: Ok(()) or Err(why))
//! ```
//!
//! Determinism: the root seed is fixed per suite (override with the
//! `SINTEL_CHECK_SEED` environment variable to replay a whole run),
//! and each case's seed is derived from `(root, case index)` only, so
//! a printed case seed identifies one exact input forever.

use crate::rng::SintelRng;

/// Environment variable overriding the root seed of every suite.
pub const CHECK_SEED_ENV: &str = "SINTEL_CHECK_SEED";

/// Knobs for one [`forall`] run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to draw.
    pub cases: usize,
    /// Root seed; each case's seed is derived from it by index.
    pub seed: u64,
    /// Upper bound on accepted shrink steps for one counterexample.
    pub max_shrinks: usize,
}

impl Default for Config {
    fn default() -> Self {
        let seed = std::env::var(CHECK_SEED_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .unwrap_or(0x5EED_CAFE);
        Self { cases: 128, seed, max_shrinks: 256 }
    }
}

impl Config {
    /// Override the number of cases.
    pub fn cases(mut self, n: usize) -> Self {
        self.cases = n;
        self
    }

    /// Override the root seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }
}

/// Seed for case `i` of a run rooted at `root`. Pure in `(root, i)`
/// so a reported case seed can be replayed without rerunning the suite.
pub fn case_seed(root: u64, i: usize) -> u64 {
    // SplitMix64 finalizer over the (root, index) pair: decorrelates
    // neighbouring case indices into unrelated generator streams.
    let mut z = root ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Outcome of checking a property on one value: `Ok(())` or a message
/// saying what was violated.
pub type PropResult = Result<(), String>;

fn check_one<T, P>(prop: &P, value: &T) -> PropResult
where
    P: Fn(&T) -> PropResult,
{
    // A property that panics (e.g. an assert! or an index out of
    // bounds in the code under test) is a failure like any other, and
    // must not abort shrinking.
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => {
            Err(format!("property panicked: {}", crate::panic_message(payload.as_ref())))
        }
    }
}

/// Check `prop` on `cfg.cases` values drawn by `gen`; on failure,
/// greedily shrink via `shrink` and panic with a replayable report.
///
/// `shrink(&t)` returns candidate *simpler* values to try; the first
/// candidate that still fails becomes the new counterexample (repeat,
/// bounded by `cfg.max_shrinks`). Return an empty vec (or use
/// [`shrinks::none`]) to skip shrinking.
pub fn forall<T, G, S, P>(name: &str, cfg: &Config, gen: G, shrink: S, prop: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut SintelRng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T) -> PropResult,
{
    for i in 0..cfg.cases {
        let seed = case_seed(cfg.seed, i);
        let mut rng = SintelRng::seed_from_u64(seed);
        let value = gen(&mut rng);
        let Err(first_failure) = check_one(&prop, &value) else {
            continue;
        };

        // Greedy shrink: walk to ever-simpler failing values.
        let mut witness = value;
        let mut failure = first_failure;
        let mut steps = 0usize;
        'outer: while steps < cfg.max_shrinks {
            for candidate in shrink(&witness) {
                if let Err(msg) = check_one(&prop, &candidate) {
                    witness = candidate;
                    failure = msg;
                    steps += 1;
                    continue 'outer;
                }
            }
            break;
        }

        let total = cfg.cases;
        let root = cfg.seed;
        panic!(
            "property `{name}` failed (case {i}/{total}, root seed {root}, case seed {seed})\n\
             after {steps} shrink step(s)\n\
             counterexample: {witness:?}\n\
             failure: {failure}\n\
             replay: sintel_common::check::replay({seed}, gen, prop)\n\
             or rerun the suite with {CHECK_SEED_ENV}={root}"
        );
    }
}

/// Re-check a single case from the seed printed by a [`forall`]
/// failure. Returns the generated value alongside the property result
/// so the caller can inspect it.
pub fn replay<T, G, P>(seed: u64, gen: G, prop: P) -> (T, PropResult)
where
    G: Fn(&mut SintelRng) -> T,
    P: Fn(&T) -> PropResult,
{
    let mut rng = SintelRng::seed_from_u64(seed);
    let value = gen(&mut rng);
    let result = check_one(&prop, &value);
    (value, result)
}

/// Stock shrinking strategies to compose in `shrink` closures.
pub mod shrinks {
    /// No shrinking: report the raw counterexample.
    pub fn none<T>(_: &T) -> Vec<T> {
        Vec::new()
    }

    /// Candidates for one `f64`: zero, then progressively halved
    /// magnitudes (also try the truncated integer part first, which
    /// often reads better in a report).
    pub fn halve_f64(x: f64) -> Vec<f64> {
        if x == 0.0 || !x.is_finite() {
            return Vec::new();
        }
        let mut out = vec![0.0];
        if x.fract() != 0.0 && x.trunc() != x {
            out.push(x.trunc());
        }
        out.push(x / 2.0);
        out
    }

    /// Candidates for a vector: empty, first half, all-but-last —
    /// shorter inputs make minimal counterexamples readable.
    pub fn truncate_vec<T: Clone>(v: &[T]) -> Vec<Vec<T>> {
        let mut out = Vec::new();
        if v.is_empty() {
            return out;
        }
        out.push(Vec::new());
        if v.len() > 1 {
            out.push(v[..v.len() / 2].to_vec());
            out.push(v[..v.len() - 1].to_vec());
        }
        out
    }

    /// Candidates for a `usize` size parameter: 0/1 and halves.
    pub fn halve_usize(n: usize) -> Vec<usize> {
        match n {
            0 => Vec::new(),
            1 => vec![0],
            _ => vec![1, n / 2, n - 1],
        }
    }
}

/// Stock generators shared by property suites.
pub mod gens {
    use crate::rng::SintelRng;

    /// A string of up to 7 segments that stress a JSON string codec.
    /// Each segment is a long plain ASCII run, an escaped character, a
    /// raw control character, or a multi-byte code point.
    pub fn escape_heavy_string(rng: &mut SintelRng) -> String {
        const ESCAPED: &[char] = &['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'];
        const WIDE: &[char] = &['é', 'ß', '€', '信', '号', '\u{FFFD}', '🚀', '\u{10FFFF}'];
        let mut out = String::new();
        for _ in 0..rng.index(8) {
            match rng.index(4) {
                0 => {
                    let len = rng.index(200);
                    out.extend((0..len).map(|_| (b' ' + rng.index(95) as u8) as char));
                }
                1 => out.push(*rng.choice(ESCAPED)),
                2 => out.push(char::from(rng.index(0x20) as u8)),
                _ => out.push(*rng.choice(WIDE)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        forall(
            "uniform in unit interval",
            &Config::default().cases(64).seed(1),
            |rng| rng.uniform(),
            |&x| shrinks::halve_f64(x),
            |&x| {
                if (0.0..1.0).contains(&x) {
                    Ok(())
                } else {
                    Err(format!("{x} outside [0,1)"))
                }
            },
        );
        let seen = std::cell::Cell::new(0usize);
        forall(
            "counter",
            &Config::default().cases(64).seed(1),
            |_| (),
            shrinks::none,
            |()| {
                seen.set(seen.get() + 1);
                Ok(())
            },
        );
        assert_eq!(seen.get(), 64, "every case must be checked");
    }

    #[test]
    fn failing_property_panics_with_replayable_seed() {
        let caught = std::panic::catch_unwind(|| {
            forall(
                "all samples below 0.5 (false)",
                &Config::default().cases(64).seed(7),
                |rng| rng.uniform(),
                |&x| shrinks::halve_f64(x),
                |&x| if x < 0.5 { Ok(()) } else { Err(format!("{x} >= 0.5")) },
            );
        });
        let payload = caught.expect_err("property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload should be the report string");
        assert!(msg.contains("case seed"), "{msg}");
        // Extract the case seed and prove the replay reproduces a failure.
        let seed: u64 = msg
            .split("case seed ")
            .nth(1)
            .and_then(|rest| rest.split(')').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("report should contain a parseable case seed");
        let (value, result) = replay(seed, |rng| rng.uniform(), |&x: &f64| {
            if x < 0.5 {
                Ok(())
            } else {
                Err(format!("{x} >= 0.5"))
            }
        });
        assert!(value >= 0.5, "replayed case should reproduce the failure, got {value}");
        assert!(result.is_err());
    }

    #[test]
    fn shrinking_reaches_a_minimal_counterexample() {
        // Property "all values < 10" fails for large inputs; halving
        // should walk the witness down toward 10.
        let caught = std::panic::catch_unwind(|| {
            forall(
                "values below ten (false for big ones)",
                &Config::default().cases(32).seed(3),
                |rng| rng.uniform_range(100.0, 1000.0),
                |&x| shrinks::halve_f64(x),
                |&x| if x < 10.0 { Ok(()) } else { Err("too big".into()) },
            );
        });
        let msg = caught
            .expect_err("must fail")
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        let witness: f64 = msg
            .split("counterexample: ")
            .nth(1)
            .and_then(|rest| rest.lines().next())
            .and_then(|s| s.trim().parse().ok())
            .expect("report should contain the counterexample");
        assert!(
            (10.0..20.0).contains(&witness),
            "greedy halving should stop just above the threshold, got {witness}"
        );
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let caught = std::panic::catch_unwind(|| {
            forall(
                "indexing past the end panics",
                &Config::default().cases(16).seed(5),
                |rng| {
                    let n = 1 + rng.index(8);
                    (0..n).map(|_| rng.uniform()).collect::<Vec<f64>>()
                },
                |v| shrinks::truncate_vec(v),
                |v| {
                    // Deliberate out-of-bounds when v is non-empty.
                    if v.is_empty() {
                        Ok(())
                    } else {
                        let _ = v[v.len()];
                        Ok(())
                    }
                },
            );
        });
        let msg = caught
            .expect_err("must fail")
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert!(msg.contains("property panicked"), "{msg}");
        // truncate_vec shrinks toward the smallest failing vector: one element.
        assert!(msg.contains("counterexample: ["), "{msg}");
    }

    #[test]
    fn case_seed_is_pure_and_decorrelated() {
        assert_eq!(case_seed(42, 7), case_seed(42, 7));
        assert_ne!(case_seed(42, 7), case_seed(42, 8));
        assert_ne!(case_seed(42, 7), case_seed(43, 7));
    }

    #[test]
    fn stock_shrinkers_behave() {
        assert!(shrinks::halve_f64(0.0).is_empty());
        assert!(shrinks::halve_f64(f64::NAN).is_empty());
        assert!(shrinks::halve_f64(8.0).contains(&4.0));
        assert!(shrinks::halve_f64(8.0).contains(&0.0));
        assert!(shrinks::truncate_vec::<i32>(&[]).is_empty());
        let cands = shrinks::truncate_vec(&[1, 2, 3, 4]);
        assert!(cands.contains(&vec![]));
        assert!(cands.contains(&vec![1, 2]));
        assert!(cands.contains(&vec![1, 2, 3]));
        assert_eq!(shrinks::halve_usize(0), Vec::<usize>::new());
        assert_eq!(shrinks::halve_usize(1), vec![0]);
        assert!(shrinks::halve_usize(10).contains(&5));
    }
}
