//! Sample statistics: medians and the tail-percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it — a tail read off
//! fewer samples is one noisy neighbour, not a property of the program.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles a report may name, highest first.
const TAIL_LADDER: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of `values` (unsorted). `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank) of `values`, 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(0.0)
}

/// Arithmetic mean, 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Whether percentile `q` of `n` samples has [`MIN_BEYOND`] samples beyond
/// it: p99 needs 1 000 samples, p95 needs 200, p90 needs 100.
pub fn percentile_allowed(n: usize, q: f64) -> bool {
    // Multiply before dividing so that 1000 x (100 - 99) / 100 is exactly 10.
    (n as f64 * (100.0 - q)) / 100.0 >= MIN_BEYOND as f64
}

/// The highest percentile of the ladder that `n` samples support, if any.
pub fn highest_allowed_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|q| percentile_allowed(n, *q))
}

/// Percentile `q`, refused (`None`) when the sample is too small for it.
pub fn guarded_percentile(values: &[f64], q: f64) -> Option<f64> {
    if percentile_allowed(values.len(), q) {
        percentile(values, q)
    } else {
        None
    }
}

/// FNV-1a over bytes: the digest that compares two runs' trace JSON. Not
/// cryptographic — it guards against drift, not against an adversary.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_under_a_thousand_samples() {
        assert!(!percentile_allowed(999, 99.0));
        assert!(percentile_allowed(1000, 99.0));
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(guarded_percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(guarded_percentile(&v, 99.0), Some(990.0));
    }

    #[test]
    fn the_highest_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_allowed_percentile(5000), Some(99.0));
        assert_eq!(highest_allowed_percentile(1000), Some(99.0));
        assert_eq!(highest_allowed_percentile(999), Some(95.0));
        assert_eq!(highest_allowed_percentile(200), Some(95.0));
        assert_eq!(highest_allowed_percentile(199), Some(90.0));
        assert_eq!(highest_allowed_percentile(100), Some(90.0));
        assert_eq!(highest_allowed_percentile(40), Some(75.0));
        assert_eq!(highest_allowed_percentile(39), None);
        for n in [40usize, 100, 200, 1000, 4321] {
            let q = highest_allowed_percentile(n).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let p = percentile(&v, q).unwrap();
            assert!(
                v.iter().filter(|x| **x > p).count() >= MIN_BEYOND,
                "n={n} q={q}"
            );
        }
    }

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn digest_separates_nearby_inputs() {
        assert_ne!(digest(b"trace-a"), digest(b"trace-b"));
        assert_eq!(digest(b"trace-a"), digest(b"trace-a"));
    }
}
