//! The sintel-rs benchmark: three closed-loop workloads through the
//! public APIs of `sintel`, `sintel-serve` and `sintel-store`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream_stat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. The line before it
//! is the run's stamp. See `perfbench/README.md`.

mod batch;
mod heap;
mod inputs;
mod report;
mod stats;
mod stream;
mod sys;
mod trace;
mod window;

use std::path::{Path, PathBuf};

use report::Outcome;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Workload names.
const WORKLOADS: &[&str] = &["batch_deep", "stream_stat", "stream_durable"];

/// Ticks every stream episode runs before its measured ticks.
const PRELUDE_TICKS: usize = 40;
/// Measured ticks per stream episode.
const EPISODE_TICKS: usize = 200;

/// Refuse a traced run whose loop spends this share of its wall time
/// outside the program's calls: the layers must sum to the whole.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Run length, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, root: &Path) -> Result<Outcome, String> {
    let nproc = sys::nproc();
    let threads = sys::pin_thread_budget(nproc)?;
    let mut out = Outcome::default();
    out.stamp("workload", &args.workload);
    out.stamp("seed", args.seed);
    out.stamp("seconds", args.seconds);
    out.stamp("trace", u8::from(args.trace));
    out.stamp("nproc", nproc);
    out.stamp("SINTEL_THREADS", threads);
    out.stamp("git_rev", sys::git_rev(root.parent().unwrap_or(root)));

    let scratch = Scratch(
        root.join(".work")
            .join(format!("run-{}", std::process::id())),
    );
    match args.workload.as_str() {
        "batch_deep" => batch::run(args, &mut out)?,
        name => {
            let kind = if name == "stream_stat" {
                stream::Kind::Stat
            } else {
                stream::Kind::Durable
            };
            let plan = stream::Plan::new(args.seed, PRELUDE_TICKS, EPISODE_TICKS);
            stream::run(args, kind, &plan, &scratch.0, &mut out)?;
        }
    }
    drop(scratch);
    out.stamp("vm_hwm_mib", sys::peak_rss_mib()?);

    // Every run of a seed must produce the outputs the first one did.
    // Both stream workloads feed the same events, so they share a key;
    // the key names the inputs' digest, so changed inputs start afresh.
    let family = if args.workload == "batch_deep" {
        "batch"
    } else {
        "stream"
    };
    let inputs = out.stamp.get("inputs").cloned().unwrap_or_default();
    let record = format!(
        "{} f1={:?}\n",
        out.stamp.get("digest").map_or("", String::as_str),
        out.values.get("f1").copied().unwrap_or(f64::NAN)
    );
    if let Err(e) = report::check_registry(
        &root.join(".state"),
        &format!("{family}-{}-{inputs}", args.seed),
        &record,
    ) {
        out.problems.push(e);
    }
    if args.trace {
        let unattributed = out
            .values
            .get("bench.unattributed_pct")
            .copied()
            .unwrap_or(0.0);
        if unattributed >= MAX_UNATTRIBUTED_PCT {
            out.problems.push(format!(
                "{unattributed:.2}% of the loop's wall time is outside the program's calls \
                 (limit {MAX_UNATTRIBUTED_PCT}%)"
            ));
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out = match run(&args, &root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let line = match out.result_line(args.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for problem in &out.problems {
        eprintln!("perfbench: output check failed: {problem}");
    }
    let mut table: Vec<String> = out
        .values
        .iter()
        .map(|(name, value)| format!("  {name:<44} {value:>16.6}"))
        .collect();
    table.sort();
    println!(
        "{} (seed {}, trace {}):\n{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        table.join("\n")
    );
    println!("{}", out.stamp_line());
    println!("{line}");
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload stream_stat --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream_stat", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload batch_deep --trace 2")).is_err());
        assert!(parse_args(&argv("--workload batch_deep --seed")).is_err());
    }
}
