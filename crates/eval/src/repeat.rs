//! Repeated cross validation: n independent k-fold runs with different
//! shuffles, reporting the spread of the aggregate metrics. A single 10-fold
//! number (the paper's protocol) carries shuffle luck; the repeat spread
//! quantifies it.

use serde::{Deserialize, Serialize};

use mtperf_linalg::parallel::{self, try_par_map, Parallelism};
use mtperf_linalg::stats;
use mtperf_mtree::{Dataset, Learner, MtreeError};

use crate::{cross_validate_with, Metrics};

/// Mean and standard deviation of a metric over repeated CV runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Mean over repeats.
    pub mean: f64,
    /// Sample standard deviation over repeats.
    pub sd: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        Spread {
            mean: stats::mean(values),
            sd: stats::sample_variance(values).sqrt(),
        }
    }
}

/// Result of repeated cross validation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepeatedCv {
    /// The pooled metrics of every repeat.
    pub repeats: Vec<Metrics>,
    /// Total folds skipped (degenerate data) across every repeat; 0 on
    /// healthy data.
    pub skipped_folds: usize,
    /// Spread of the correlation coefficient.
    pub correlation: Spread,
    /// Spread of the MAE.
    pub mae: Spread,
    /// Spread of the RAE (percent).
    pub rae_percent: Spread,
}

/// Runs `repeats` independent k-fold cross validations (seeds
/// `seed, seed+1, …`) and summarizes the spread. Each repeat scores its
/// held-out folds through the compiled batch path (bit-identical to the
/// per-row walk), so repeated CV inherits the fast path for free.
///
/// # Errors
///
/// Returns [`MtreeError::BadParams`] when `repeats == 0` and propagates
/// [`cross_validate`] errors.
pub fn repeated_cv(
    learner: &dyn Learner,
    data: &Dataset,
    k: usize,
    repeats: usize,
    seed: u64,
) -> Result<RepeatedCv, MtreeError> {
    repeated_cv_with(learner, data, k, repeats, seed, parallel::global())
}

/// [`repeated_cv`] with an explicit thread budget.
///
/// Repeats run concurrently (each an independent seeded shuffle) and merge
/// in seed order; any inner parallel section runs serially inside a worker,
/// so results are bit-identical to the serial run at any setting.
///
/// # Errors
///
/// Same as [`repeated_cv`].
pub fn repeated_cv_with(
    learner: &dyn Learner,
    data: &Dataset,
    k: usize,
    repeats: usize,
    seed: u64,
    par: Parallelism,
) -> Result<RepeatedCv, MtreeError> {
    if repeats == 0 {
        return Err(MtreeError::BadParams("repeats must be >= 1".into()));
    }
    let seeds: Vec<u64> = (0..repeats).map(|r| seed + r as u64).collect();
    let runs = try_par_map(par, &seeds, |&s| {
        let mut repeat_span = mtperf_obs::span_idx("repeat", (s - seed) as usize);
        let run =
            cross_validate_with(learner, data, k, s, par).map(|cv| (cv.pooled, cv.skipped.len()));
        if let Ok((_, skipped)) = &run {
            repeat_span.add("folds_skipped", *skipped as u64);
        }
        run
    })
    .map_err(MtreeError::from)?
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let skipped_folds = runs.iter().map(|(_, s)| s).sum();
    let metrics: Vec<Metrics> = runs.into_iter().map(|(m, _)| m).collect();
    let corr: Vec<f64> = metrics.iter().map(|m| m.correlation).collect();
    let mae: Vec<f64> = metrics.iter().map(|m| m.mae).collect();
    let rae: Vec<f64> = metrics.iter().map(|m| m.rae_percent).collect();
    Ok(RepeatedCv {
        correlation: Spread::of(&corr),
        mae: Spread::of(&mae),
        rae_percent: Spread::of(&rae),
        skipped_folds,
        repeats: metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtperf_mtree::{M5Learner, M5Params};

    fn data() -> Dataset {
        let rows: Vec<[f64; 1]> = (0..150).map(|i| [i as f64]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 1.0).collect();
        Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn runs_all_repeats() {
        let learner = M5Learner::new(M5Params::default());
        let r = repeated_cv(&learner, &data(), 5, 3, 7).unwrap();
        assert_eq!(r.repeats.len(), 3);
        assert!(r.correlation.mean > 0.99);
        assert!(r.correlation.sd >= 0.0);
        assert!(r.rae_percent.mean < 5.0);
    }

    #[test]
    fn parallel_repeats_match_serial_bit_for_bit() {
        let learner = M5Learner::new(M5Params::default());
        let serial = repeated_cv_with(&learner, &data(), 5, 4, 7, Parallelism::Off).unwrap();
        for threads in [2, 4, 8] {
            let par =
                repeated_cv_with(&learner, &data(), 5, 4, 7, Parallelism::Fixed(threads)).unwrap();
            assert_eq!(par.repeats, serial.repeats, "threads = {threads}");
            assert_eq!(par.correlation, serial.correlation);
            assert_eq!(par.mae, serial.mae);
            assert_eq!(par.rae_percent, serial.rae_percent);
        }
    }

    #[test]
    fn zero_repeats_rejected() {
        let learner = M5Learner::new(M5Params::default());
        assert!(repeated_cv(&learner, &data(), 5, 0, 7).is_err());
    }

    #[test]
    fn single_repeat_has_zero_sd() {
        let learner = M5Learner::new(M5Params::default());
        let r = repeated_cv(&learner, &data(), 5, 1, 7).unwrap();
        assert_eq!(r.mae.sd, 0.0);
    }
}
