//! Split search: the standard-deviation-reduction (SDR) criterion.

use mtperf_linalg::parallel::{par_map, Parallelism};

use crate::Dataset;

/// A candidate binary split: instances with `attr <= threshold` go left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Attribute (column) index tested.
    pub attr: usize,
    /// Split threshold (midpoint between adjacent attribute values, clamped
    /// into `[v, v_next)` so it always separates them).
    pub threshold: f64,
    /// Standard-deviation reduction achieved.
    pub sdr: f64,
}

/// Population standard deviation from sums: `sqrt(E[y²] − E[y]²)`.
///
/// Callers pass sums of **mean-shifted** targets (see [`best_split_with`]),
/// which keeps `E[y²]` and `E[y]²` the same magnitude and avoids the
/// catastrophic cancellation raw sums suffer when targets sit far from zero
/// (e.g. `y ≈ 1e9` with spread `1e-3`).
fn sd_from_sums(sum: f64, sum_sq: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let mean = sum / n;
    (sum_sq / n - mean * mean).max(0.0).sqrt()
}

/// Midpoint of two adjacent attribute values, clamped into `[v, v_next)`.
///
/// `(v + v_next) / 2` can round **up to exactly `v_next`** when the two
/// values are adjacent floats (ties-to-even), which would send both
/// instances to the same side and desynchronize the split counts from the
/// SDR bookkeeping. Halving before adding also avoids overflow near
/// `f64::MAX`.
fn split_threshold(v: f64, v_next: f64) -> f64 {
    debug_assert!(v < v_next);
    let mid = v / 2.0 + v_next / 2.0;
    if mid >= v_next {
        v
    } else if mid < v {
        // Subnormal halving can round below `v`; clamp back.
        v
    } else {
        mid
    }
}

/// Per-attribute boundary scan state, shared by every attribute's search.
struct ScanContext<'a> {
    data: &'a Dataset,
    idx: &'a [usize],
    min_instances: usize,
    /// Mean of the subset's targets; targets are shifted by this before
    /// any sum is formed.
    target_mean: f64,
    /// Σ(y − ȳ) over the subset (≈ 0 up to rounding).
    sum: f64,
    /// Σ(y − ȳ)² over the subset.
    sum_sq: f64,
    sd_total: f64,
}

/// Scans one attribute's boundaries and returns its best split (if any has
/// positive SDR) plus the number of admissible boundaries it evaluated.
///
/// Instances are ordered by `(value, instance index)` — a canonical total
/// order — so the result depends only on the subset's contents, never on the
/// caller's index order or on which thread runs the scan.
fn best_split_for_attr(ctx: &ScanContext<'_>, attr: usize) -> (Option<Split>, u64) {
    let n = ctx.idx.len();
    let col = ctx.data.column(attr);
    let mut order: Vec<usize> = ctx.idx.to_vec();
    order.sort_unstable_by(|&a, &b| col[a].total_cmp(&col[b]).then(a.cmp(&b)));

    let nf = n as f64;
    let mut best: Option<Split> = None;
    let mut evaluated = 0u64;
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    for (k, &i) in order.iter().enumerate().take(n - 1) {
        let y = ctx.data.target(i) - ctx.target_mean;
        left_sum += y;
        left_sq += y * y;
        let n_left = k + 1;
        let n_right = n - n_left;
        if n_left < ctx.min_instances || n_right < ctx.min_instances {
            continue;
        }
        let v = col[i];
        let v_next = col[order[k + 1]];
        if v == v_next {
            continue; // not a boundary between distinct values
        }
        evaluated += 1;
        let sd_left = sd_from_sums(left_sum, left_sq, n_left as f64);
        let sd_right = sd_from_sums(ctx.sum - left_sum, ctx.sum_sq - left_sq, n_right as f64);
        let sdr = ctx.sd_total - (n_left as f64 / nf) * sd_left - (n_right as f64 / nf) * sd_right;
        // Strict `>`: the earliest admissible boundary wins ties.
        if sdr > best.map_or(0.0, |b| b.sdr) {
            best = Some(Split {
                attr,
                threshold: split_threshold(v, v_next),
                sdr,
            });
        }
    }
    (best, evaluated)
}

/// Finds the best split of the instances in `idx` over all attributes,
/// scanning serially.
///
/// Implements M5's criterion: maximize
/// `SDR = sd(S) − Σᵢ |Sᵢ|/|S| · sd(Sᵢ)` over all `(attribute, threshold)`
/// pairs, where thresholds are midpoints between consecutive distinct
/// attribute values. Splits leaving either side with fewer than
/// `min_instances` are not considered.
///
/// Returns `None` when no admissible split has positive SDR (constant
/// attributes, too few instances, or a constant target).
///
/// # Example
///
/// ```
/// use mtperf_mtree::{best_split, Dataset};
///
/// let d = Dataset::from_rows(
///     vec!["x".into()],
///     &[[0.0], [1.0], [2.0], [3.0]],
///     &[0.0, 0.0, 10.0, 10.0],
/// ).unwrap();
/// let s = best_split(&d, &[0, 1, 2, 3], 1).unwrap();
/// assert_eq!(s.attr, 0);
/// assert!((s.threshold - 1.5).abs() < 1e-12);
/// ```
pub fn best_split(data: &Dataset, idx: &[usize], min_instances: usize) -> Option<Split> {
    best_split_with(data, idx, min_instances, Parallelism::Off)
}

/// Finds the best split, scanning attributes with up to `par` threads.
///
/// Bit-identical to [`best_split`] at every thread count: each attribute's
/// scan is an independent computation over a canonically ordered copy of the
/// subset, and the per-attribute winners are reduced in ascending attribute
/// order with a strict comparison (ties go to the lowest attribute index),
/// exactly as a serial left-to-right sweep would.
pub fn best_split_with(
    data: &Dataset,
    idx: &[usize],
    min_instances: usize,
    par: Parallelism,
) -> Option<Split> {
    let n = idx.len();
    if n < 2 * min_instances.max(1) {
        return None;
    }
    // Center targets on the subset mean so the sum-based standard deviations
    // stay accurate for targets far from zero.
    let target_mean = idx.iter().map(|&i| data.target(i)).sum::<f64>() / n as f64;
    let (sum, sum_sq) = idx.iter().fold((0.0, 0.0), |(s, q), &i| {
        let y = data.target(i) - target_mean;
        (s + y, q + y * y)
    });
    let sd_total = sd_from_sums(sum, sum_sq, n as f64);
    if sd_total <= 0.0 {
        return None;
    }

    let ctx = ScanContext {
        data,
        idx,
        min_instances,
        target_mean,
        sum,
        sum_sq,
        sd_total,
    };
    let attrs: Vec<usize> = (0..data.n_attrs()).collect();
    let per_attr = par_map(par, &attrs, |&attr| best_split_for_attr(&ctx, attr));

    mtperf_obs::add("mtree.split_searches", 1);
    mtperf_obs::add(
        "mtree.split_candidates",
        per_attr.iter().map(|(_, e)| e).sum(),
    );

    // Ascending-attribute reduce with strict `>`: lowest attr index wins ties.
    let mut best: Option<Split> = None;
    for (candidate, _) in per_attr {
        let Some(candidate) = candidate else { continue };
        if candidate.sdr > best.map_or(0.0, |b| b.sdr) {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // Perfect step on x at 2.5; y independent of z.
        let rows: Vec<[f64; 2]> = (0..6).map(|i| [i as f64, (i % 2) as f64]).collect();
        let ys = [1.0, 1.0, 1.0, 9.0, 9.0, 9.0];
        Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn finds_the_step() {
        let d = step_data();
        let idx: Vec<usize> = (0..6).collect();
        let s = best_split(&d, &idx, 1).unwrap();
        assert_eq!(s.attr, 0);
        assert!((s.threshold - 2.5).abs() < 1e-12);
        // SDR of a perfect split equals sd(total): both sides become
        // zero-variance.
        let sd_total = mtperf_linalg::stats::std_dev(&ys());
        assert!((s.sdr - sd_total).abs() < 1e-9);

        fn ys() -> Vec<f64> {
            vec![1.0, 1.0, 1.0, 9.0, 9.0, 9.0]
        }
    }

    #[test]
    fn respects_min_instances() {
        let d = step_data();
        let idx: Vec<usize> = (0..6).collect();
        // min 3 allows only the 3|3 boundary.
        let s = best_split(&d, &idx, 3).unwrap();
        assert!((s.threshold - 2.5).abs() < 1e-12);
        // min 4 admits nothing.
        assert!(best_split(&d, &idx, 4).is_none());
    }

    #[test]
    fn constant_target_has_no_split() {
        let rows: Vec<[f64; 1]> = (0..4).map(|i| [i as f64]).collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[5.0; 4]).unwrap();
        assert!(best_split(&d, &(0..4).collect::<Vec<_>>(), 1).is_none());
    }

    #[test]
    fn constant_attribute_has_no_split() {
        let rows = [[1.0], [1.0], [1.0], [1.0]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(best_split(&d, &(0..4).collect::<Vec<_>>(), 1).is_none());
    }

    #[test]
    fn threshold_is_midpoint_of_distinct_values() {
        let rows = [[0.0], [0.0], [4.0], [4.0]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[0.0, 0.0, 8.0, 8.0]).unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert!((s.threshold - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_values_never_split_apart() {
        // All x equal except one; boundary must fall between distinct values.
        let rows = [[1.0], [1.0], [1.0], [2.0]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[0.0, 0.0, 0.0, 10.0]).unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert!((s.threshold - 1.5).abs() < 1e-12);
    }

    #[test]
    fn picks_most_discriminative_attribute() {
        // x separates targets perfectly; z only partially.
        let rows = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]];
        let d = Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &[0.0, 0.0, 10.0, 10.0])
            .unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert_eq!(s.attr, 0);
    }

    #[test]
    fn works_on_subsets() {
        let d = step_data();
        // Subset covering only the low half: constant target, no split.
        assert!(best_split(&d, &[0, 1, 2], 1).is_none());
    }

    #[test]
    fn too_few_instances() {
        let d = step_data();
        assert!(best_split(&d, &[0], 1).is_none());
        assert!(best_split(&d, &[0, 5], 2).is_none());
    }

    /// Regression: with adjacent floats, `(v + v_next) / 2` rounds up to
    /// exactly `v_next`, so a threshold of `v_next` with the `<=` partition
    /// rule would put BOTH values on the left — the split would not separate
    /// the pair the SDR bookkeeping assumed it did.
    #[test]
    fn threshold_between_adjacent_floats_separates_them() {
        let v = f64::from_bits(1.0f64.to_bits() + 1);
        let v_next = f64::from_bits(1.0f64.to_bits() + 2);
        // Midpoint of this pair rounds to v_next under ties-to-even.
        assert_eq!((v + v_next) / 2.0, v_next);

        let rows = [[v], [v], [v_next], [v_next]];
        let d = Dataset::from_rows(vec!["x".into()], &rows, &[0.0, 0.0, 8.0, 8.0]).unwrap();
        let s = best_split(&d, &(0..4).collect::<Vec<_>>(), 1).unwrap();
        assert!(
            s.threshold >= v && s.threshold < v_next,
            "threshold {} outside [v, v_next)",
            s.threshold
        );
        let col = d.column(0);
        let left = (0..4).filter(|&i| col[i] <= s.threshold).count();
        assert_eq!(left, 2, "split must separate the adjacent pair");
    }

    /// Regression: raw-sum variance suffers catastrophic cancellation when
    /// targets sit far from zero. Shifting targets by a huge constant leaves
    /// every SDR comparison intact, so the chosen split must not move.
    #[test]
    fn split_is_invariant_under_large_target_offsets() {
        let rows: Vec<[f64; 2]> = (0..12).map(|i| [i as f64, ((i * 7) % 5) as f64]).collect();
        let ys: Vec<f64> = (0..12)
            .map(|i| {
                if i < 5 {
                    1.0 + 0.001 * i as f64
                } else {
                    2.0 - 0.001 * i as f64
                }
            })
            .collect();
        let base = Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &ys).unwrap();
        let s0 = best_split(&base, &(0..12).collect::<Vec<_>>(), 2).unwrap();

        for offset in [1e9, -1e9, 1e12] {
            let shifted_ys: Vec<f64> = ys.iter().map(|y| y + offset).collect();
            let shifted =
                Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &shifted_ys).unwrap();
            let s = best_split(&shifted, &(0..12).collect::<Vec<_>>(), 2)
                .unwrap_or_else(|| panic!("offset {offset}: no split found"));
            assert_eq!(s.attr, s0.attr, "offset {offset}");
            assert_eq!(s.threshold, s0.threshold, "offset {offset}");
        }
    }

    /// The parallel attribute scan is bit-identical to the serial one at any
    /// thread count, including the tie-break toward the lowest attribute
    /// index (both attributes below carry an identical copy of x).
    #[test]
    fn parallel_scan_matches_serial_bit_for_bit() {
        let rows: Vec<[f64; 3]> = (0..40)
            .map(|i| {
                let x = (i as f64 * 0.37).sin() * 10.0;
                // b is near-constant jitter: never the best split.
                [x, x, (i as f64 * 0.11).cos() * 1e-3]
            })
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0] <= 0.0 {
                    1.0 + 0.05 * r[0]
                } else {
                    5.0 - 0.03 * r[0]
                }
            })
            .collect();
        let d = Dataset::from_rows(vec!["a".into(), "a2".into(), "b".into()], &rows, &ys).unwrap();
        let idx: Vec<usize> = (0..40).collect();
        let serial = best_split(&d, &idx, 2);
        for threads in [1, 2, 3, 8] {
            let parallel = best_split_with(&d, &idx, 2, Parallelism::Fixed(threads));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        // The duplicated column forces an exact SDR tie; attr 0 must win.
        assert_eq!(serial.unwrap().attr, 0);
    }

    /// The result must not depend on the caller's index order (the scan
    /// sorts canonically by value, then instance index).
    #[test]
    fn index_order_does_not_change_the_split() {
        let d = step_data();
        let forward: Vec<usize> = (0..6).collect();
        let backward: Vec<usize> = (0..6).rev().collect();
        let shuffled = vec![3, 0, 5, 2, 4, 1];
        let a = best_split(&d, &forward, 1);
        assert_eq!(best_split(&d, &backward, 1), a);
        assert_eq!(best_split(&d, &shuffled, 1), a);
    }
}
