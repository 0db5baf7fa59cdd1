//! The deep architectures of the paper's pipeline hub.
//!
//! All models consume *flattened windows* — `window_size * channels`
//! values per sample, time-major (`[t0c0, t0c1, t1c0, …]`) — exactly what
//! `sintel_timeseries::rolling_windows` produces, so the pipeline layer
//! can hand data straight through.

mod dense_autoencoder;
mod lstm_autoencoder;
mod lstm_regressor;
mod tadgan;

pub use dense_autoencoder::DenseAutoencoder;
pub use lstm_autoencoder::LstmAutoencoder;
pub use lstm_regressor::LstmRegressor;
pub use tadgan::TadGan;

/// Shared training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training windows.
    pub epochs: usize,
    /// Mini-batch size (gradients averaged per batch).
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed for shuffling and any model-internal sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 10, batch_size: 32, learning_rate: 0.005, seed: 0 }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self { epochs: 15, batch_size: 16, learning_rate: 0.01, seed: 0 }
    }
}

/// Reject a zero mini-batch size before any training work runs.
pub(crate) fn check_batch_size(cfg: &TrainConfig) -> crate::Result<()> {
    if cfg.batch_size == 0 {
        return Err(crate::NnError::InvalidParameter("batch_size must be at least 1".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_sane() {
        let c = TrainConfig::default();
        assert!(c.epochs > 0 && c.batch_size > 0 && c.learning_rate > 0.0);
    }
}
