//! Process facts the benchmark reads from the OS: CPU time, peak
//! memory, core count and the source revision.

use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage and /proc, so it builds for 64-bit Linux only");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // 64-bit Linux's `struct rusage` (checked by the cfg above), and
    // RUSAGE_SELF is a valid `who`; getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// CPU seconds the hypervisor has stolen from this machine's vCPUs
/// since boot, summed over CPUs (the `steal` column of `/proc/stat`);
/// 0 where the kernel does not report it.
pub fn steal_seconds() -> f64 {
    // SAFETY: sysconf takes any name and returns -1 for unknown ones.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|stat| {
        let cpu = stat.lines().next()?;
        cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
    });
    match ticks {
        Some(t) if hz > 0 => t / hz as f64,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the worker budget through `SINTEL_THREADS`: default it to
/// `nproc`, and refuse a budget above `nproc` (or one that does not
/// parse) so no run oversubscribes the machine it measures.
pub fn pin_thread_budget(nproc: usize) -> Result<usize, String> {
    let env = sintel_common::par::THREADS_ENV;
    match std::env::var(env) {
        Ok(raw) => {
            let n: usize = raw
                .trim()
                .parse()
                .map_err(|_| format!("{env}={raw:?} is not a count"))?;
            if n == 0 || n > nproc {
                return Err(format!("{env}={n} must be between 1 and nproc ({nproc})"));
            }
            Ok(n)
        }
        Err(_) => {
            // Single-threaded at this point: nothing else reads the
            // environment yet.
            std::env::set_var(env, nproc.to_string());
            Ok(nproc)
        }
    }
}

/// The checked-out commit, read from `.git` under `root` without
/// running git (the benchmark may run from an export with no `.git`).
pub fn git_rev(root: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&root.join(".git/HEAD")) else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&root.join(".git").join(reference))
            .or_else(|| {
                let packed = read(&root.join(".git/packed-refs"))?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .unwrap_or_else(|| "unknown".to_string()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
