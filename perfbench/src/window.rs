//! Measurement windows, and the choice of which ones to trust.
//!
//! The benchmark runs on shared virtual machines whose hypervisor at
//! times stops a vCPU for a while ("steal"). A window timed across such
//! a stop measures the host, not the program. Every window records the
//! steal the kernel accounted during it, and the end-to-end metrics use
//! only the calmer half: the windows whose steal share is at most the
//! run's median. With no steal at all, every window is kept.

use std::time::Instant;

use crate::stats::median;
use crate::sys::{cpu_seconds, steal_seconds};

/// One timed stretch of a measured loop.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Ops completed.
    pub ops: f64,
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// Steal share: stolen CPU seconds ÷ (wall × cores).
    pub steal: f64,
    /// Latency of each op (`batch_deep`) or tick (`stream_*`), ms.
    pub latencies: Vec<f64>,
}

/// Clock readings at a window's start.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

impl Meter {
    /// Start a window now.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
            steal: steal_seconds(),
        }
    }

    /// End the window now.
    pub fn stop(self, ops: f64, latencies: Vec<f64>, cores: usize) -> Window {
        let wall = self.wall.elapsed().as_secs_f64();
        let stolen = steal_seconds() - self.steal;
        Window {
            ops,
            wall,
            cpu: cpu_seconds() - self.cpu,
            steal: stolen / (wall * cores as f64),
            latencies,
        }
    }
}

/// The windows whose steal share is at most the median share.
pub fn calm(windows: &[Window]) -> Vec<&Window> {
    let shares: Vec<f64> = windows.iter().map(|w| w.steal).collect();
    let cut = median(&shares).unwrap_or(0.0);
    windows.iter().filter(|w| w.steal <= cut).collect()
}

/// The end-to-end figures of a run: medians over its calm windows of
/// ops per second, CPU milliseconds per op and latency.
pub fn summarise(windows: &[Window]) -> (f64, f64, f64) {
    let kept = calm(windows);
    let rates: Vec<f64> = kept.iter().map(|w| w.ops / w.wall).collect();
    let cpus: Vec<f64> = kept.iter().map(|w| w.cpu * 1e3 / w.ops).collect();
    let latencies: Vec<f64> = kept
        .iter()
        .flat_map(|w| w.latencies.iter().copied())
        .collect();
    (
        median(&rates).unwrap_or(0.0),
        median(&cpus).unwrap_or(0.0),
        median(&latencies).unwrap_or(0.0),
    )
}

/// For the stamp: windows kept of all, and the mean steal share.
pub fn describe(windows: &[Window]) -> String {
    let mean = windows.iter().map(|w| w.steal).sum::<f64>() / windows.len().max(1) as f64;
    format!(
        "{} of {} kept, steal {:.2}%",
        calm(windows).len(),
        windows.len(),
        mean * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(steal: f64, wall: f64) -> Window {
        Window {
            ops: 1.0,
            wall,
            cpu: wall,
            steal,
            latencies: vec![wall * 1e3],
        }
    }

    #[test]
    fn stolen_windows_are_dropped_and_calm_runs_keep_everything() {
        let noisy = [
            window(0.0, 1.0),
            window(0.3, 5.0),
            window(0.0, 1.2),
            window(0.4, 6.0),
        ];
        let kept = calm(&noisy);
        assert_eq!(kept.len(), 2);
        let (rate, cpu, latency) = summarise(&noisy);
        assert!((rate - (1.0 + 1.0 / 1.2) / 2.0).abs() < 1e-12);
        assert!((cpu - 1100.0).abs() < 1e-9);
        assert!((latency - 1100.0).abs() < 1e-9);
        let calm_run = [window(0.0, 1.0), window(0.0, 2.0), window(0.0, 3.0)];
        assert_eq!(calm(&calm_run).len(), 3);
    }
}
