//! Order statistics over timing samples.

/// Samples a tail percentile needs strictly beyond it before it is
/// reported (choosing-metrics §1: the highest percentile with at least
/// ten samples beyond it).
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `p`-th percentile, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..100.0).contains(&p) {
        return Err(format!("percentile {p} is outside [0, 100)"));
    }
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_beyond() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        let err = tail_percentile(&ninety_nine, 90.0).expect_err("9 samples beyond p90");
        assert!(err.contains("9 beyond"), "{err}");
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 90.0), Ok(90.0));
        assert!(tail_percentile(&hundred, 99.0).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 99.0), Ok(990.0));
        assert!(tail_percentile(&[], 50.0).is_err());
    }
}
