//! Order statistics for the benchmark's timings.

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail percentile a sample of `n` timings supports: the highest
/// entry of [`TAIL_LADDER`] with at least ten samples beyond it, i.e.
/// `n * (1 - p/100) >= 10`. `None` below twenty samples, where not even
/// the median has ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The nearest-rank `p`th percentile of `values`: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// A timing's tail: the value at [`tail_percentile`] and that
/// percentile. Samples too few for any ladder percentile report their
/// maximum as percentile 100, which the caller must label as such.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(values.len()).unwrap_or(100.0);
    percentile(values, p).map(|v| (v, p))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..2000 {
            let p = tail_percentile(n).expect("n >= 20 supports the median");
            let beyond = n as f64 * (1.0 - p / 100.0);
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p}");
            // The next rung up would leave fewer than ten beyond it.
            if let Some(higher) = TAIL_LADDER.iter().rev().find(|&&q| q > p) {
                assert!(n as f64 * (1.0 - higher / 100.0) < 10.0, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn tail_reads_the_nearest_rank_value() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&values), Some((30.0, 75.0)));
        let few = [3.0, 1.0, 2.0];
        assert_eq!(tail(&few), Some((3.0, 100.0)), "too few: the maximum");
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_percentile_handle_small_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 50.0), Some(5.0));
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 100.0), Some(9.0));
        assert_eq!(percentile(&[5.0, 1.0, 9.0], 0.0), Some(1.0));
    }
}
