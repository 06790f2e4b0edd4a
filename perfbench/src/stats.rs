//! Order statistics used by every metric.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    Some((q3 - q1) / median(xs))
}

/// Percentiles the tail report may use, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. Returns the value and how many samples lie
/// strictly above its rank.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    Some((v[rank - 1], v.len() - rank))
}

/// The highest of the tail percentiles that still has at least ten
/// samples above it, with its value; `None` below 40 samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    TAILS.iter().find_map(|&p| match percentile(xs, p) {
        Some((v, above)) if above >= 10 => Some((p, v)),
        _ => None,
    })
}

/// Name of a tail metric, e.g. `small_p99_ms` or `bulk_p99.9_ms`.
pub fn tail_name(prefix: &str, p: f64) -> String {
    format!("{prefix}_p{p}_ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), Some((1.5, 8.0)));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some((50.0, 50)));
        assert_eq!(percentile(&xs, 99.0), Some((99.0, 1)));
        assert_eq!(percentile(&xs, 100.0), Some((100.0, 0)));
        assert_eq!(percentile(&[7.0], 99.0), Some((7.0, 0)));
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        // 1000 samples: p99 has exactly 10 above, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // 999 samples: p99 has 9 above, so p98 (rank 980, 19 above) wins.
        let ys: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&ys), Some((98.0, 980.0)));
        // 100 samples: p90 has 10 above.
        let zs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&zs), Some((90.0, 90.0)));
        // Too few samples for any tail.
        assert_eq!(tail(&[1.0; 39]), None);
        assert_eq!(tail_name("bulk", 99.9), "bulk_p99.9_ms");
        assert_eq!(tail_name("small", 99.0), "small_p99_ms");
    }
}
