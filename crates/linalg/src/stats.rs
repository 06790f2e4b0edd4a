//! Summary statistics used throughout `mtperf`.
//!
//! The M5' split criterion is built on standard deviations, the evaluation
//! harness on means, absolute errors and correlation coefficients. All
//! functions here define the empty-input case explicitly (returning `0.0` or
//! `None`) so callers never hit NaN surprises on degenerate tree nodes.

/// Arithmetic mean; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(mtperf_linalg::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(mtperf_linalg::stats::mean(&[]), 0.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population variance (divides by `n`); `0.0` for slices of length < 1.
///
/// M5' uses population statistics when computing the standard-deviation
/// reduction of a candidate split.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; `0.0` for an empty slice.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Sample variance (divides by `n - 1`); `0.0` for slices of length < 2.
pub fn sample_variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns `None` when either input has zero variance or the slices are
/// empty or of unequal length — the coefficient is undefined there.
///
/// # Example
///
/// ```
/// let r = mtperf_linalg::stats::correlation(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
pub fn correlation(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.is_empty() {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Coefficient of determination (R²) of predictions `yhat` against `y`.
///
/// Defined as `1 − SS_res / SS_tot`. Returns `None` if `y` has zero variance
/// or the slices are empty or of unequal length.
pub fn r_squared(y: &[f64], yhat: &[f64]) -> Option<f64> {
    if y.len() != yhat.len() || y.is_empty() {
        return None;
    }
    let my = mean(y);
    let ss_tot: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    if ss_tot <= 0.0 {
        return None;
    }
    let ss_res: f64 = y.iter().zip(yhat).map(|(a, b)| (a - b) * (a - b)).sum();
    Some(1.0 - ss_res / ss_tot)
}

/// Minimum and maximum of a slice; `None` for an empty slice.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let first = *xs.first()?;
    Some(
        xs.iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

/// Simple univariate linear regression of `y` on `x`.
///
/// Returns `(intercept, slope, r_squared)`; `None` when `x` has zero
/// variance or inputs are empty/unequal.
///
/// Used by the split-variable impact analysis of the paper (§V.A.2), which
/// regresses CPI on a single split variable and reads the R² as that
/// variable's contribution.
pub fn simple_regression(x: &[f64], y: &[f64]) -> Option<(f64, f64, f64)> {
    if x.len() != y.len() || x.is_empty() {
        return None;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
    }
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let yhat: Vec<f64> = x.iter().map(|a| intercept + slope * a).collect();
    let r2 = r_squared(y, &yhat).unwrap_or(0.0);
    Some((intercept, slope, r2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn variance_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn sample_variance_bessel() {
        let xs = [1.0, 2.0, 3.0];
        assert!((sample_variance(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(sample_variance(&[1.0]), 0.0);
    }

    #[test]
    fn correlation_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0];
        assert!((correlation(&x, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((correlation(&x, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_undefined_cases() {
        assert!(correlation(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(correlation(&[], &[]).is_none());
        assert!(correlation(&[1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn r_squared_perfect_fit() {
        let y = [1.0, 2.0, 3.0];
        assert!((r_squared(&y, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn r_squared_mean_predictor_is_zero() {
        let y = [1.0, 2.0, 3.0];
        let m = mean(&y);
        let yhat = [m, m, m];
        assert!(r_squared(&y, &yhat).unwrap().abs() < 1e-12);
    }

    #[test]
    fn r_squared_undefined_for_constant_target() {
        assert!(r_squared(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn min_max_basic() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
        assert_eq!(min_max(&[]), None);
    }

    #[test]
    fn simple_regression_exact_line() {
        let x = [0.0, 1.0, 2.0];
        let y = [1.0, 3.0, 5.0];
        let (b0, b1, r2) = simple_regression(&x, &y).unwrap();
        assert!((b0 - 1.0).abs() < 1e-12);
        assert!((b1 - 2.0).abs() < 1e-12);
        assert!((r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn simple_regression_degenerate() {
        assert!(simple_regression(&[1.0, 1.0], &[1.0, 2.0]).is_none());
        assert!(simple_regression(&[], &[]).is_none());
    }
}
