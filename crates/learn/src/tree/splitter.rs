//! Best-split search shared by both tree flavours.
//!
//! For every candidate feature the node's samples are gathered into a
//! contiguous structure-of-arrays scratch buffer — `(value, label)` pairs
//! for classification, `(value, target)` for regression — sorted by value
//! with an unstable total-order sort, and swept left-to-right evaluating
//! every distinct threshold with O(1) incremental statistics: class counts
//! for classification, first/second moments for regression. The gather
//! reads feature values through the borrowed [`frac_dataset::ColRef`]
//! column path, so the search runs allocation-free over owned matrices and
//! pool views alike; the sweep itself never touches the view again. Labels
//! and targets are cached once per node, so the per-sample closures are
//! called `n` times per node instead of `n` times per column.
//!
//! Two-valued columns — every one-hot indicator block, i.e. the entire
//! design of a categorical-only fit — skip the sort: a single counting
//! pass over the gathered values evaluates the column's only candidate
//! threshold directly. The shortcut is exact, not approximate: the split
//! statistics at the lone distinct-value boundary are integer class counts
//! (classification) or a two-group partition (regression), so the computed
//! gain matches the sorted sweep bit for bit in the classification case
//! and up to tie-group summation order in the regression case. Constant
//! columns are likewise rejected without sorting.
//!
//! For **classification** the unstable sort is result-identical to the
//! previous stable sort: the statistics inspected at distinct-value
//! boundaries are integer class counts, invariant to the ordering inside
//! a tie group (`-0.0`/`0.0` groups included — `v_next <= v` merges them
//! and the midpoint threshold is numerically unchanged). **Regression**
//! is equivalent only up to floating-point rounding: the boundary
//! statistics are float prefix sums (`left_sum`/`left_sq`) whose rounding
//! depends on the intra-tie accumulation order, so gains need not be
//! bit-identical to a stable-sort sweep, and when two candidates' gains
//! sit within that rounding of each other the argmax could tip either
//! way. Within one process the result is still deterministic (one sort
//! implementation, one gather order); the legacy-oracle test compares
//! regression gains with a tolerance rather than bit-for-bit.
//!
//! Budget cooperation: both searches poll the [`TargetBudget`] every
//! [`SCAN_CHECK_ELEMS`] gathered elements, so a single pathological column
//! (or a very wide node) cannot blow past a deadline between the growers'
//! per-expansion checks.
//!
//! The previous per-row probing implementation is compiled for tests only,
//! as the oracle the scans above are checked against.

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use frac_dataset::DesignView;

/// Elements gathered between cooperative budget polls inside the split
/// scan. Small enough that one interval is microseconds of work, large
/// enough that the `Instant::now()` in a limited budget stays invisible.
const SCAN_CHECK_ELEMS: usize = 4096;

/// A chosen split: feature, threshold, and the impurity decrease it buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SplitChoice {
    pub feature: usize,
    pub threshold: f64,
    pub gain: f64,
    /// Samples going left (`value <= threshold`).
    pub n_left: usize,
}

/// Shannon entropy (nats) of a count vector.
#[inline]
pub(crate) fn counts_entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

/// Shannon entropy (nats) of the complement counts `node - left`, computed
/// in class order without materializing the complement vector. Term order
/// matches [`counts_entropy`] exactly, so the f64 sum is bit-identical to
/// the old collect-then-fold path.
#[inline]
fn residual_entropy(left: &[usize], node: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    let mut h = 0.0;
    for (&l, &t) in left.iter().zip(node) {
        let c = t - l;
        if c > 0 {
            let p = c as f64 / n;
            h += -p * p.ln();
        }
    }
    h
}

/// Sum of squared deviations from the mean, from raw moments.
#[inline]
fn sse(sum: f64, sum_sq: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    (sum_sq - sum * sum / nf).max(0.0)
}

/// Scratch buffers reused across nodes to avoid per-node allocation.
pub(crate) struct SplitScratch {
    /// (feature value, class label) pairs for the classification scan.
    pub cpairs: Vec<(f64, u32)>,
    /// (feature value, regression target) pairs for the regression scan.
    pub rpairs: Vec<(f64, f64)>,
    /// Per-class left-side counts (classification only).
    pub left_counts: Vec<usize>,
    /// Per-class node counts (classification only).
    pub node_counts: Vec<usize>,
    /// Class label of each node sample, cached once per node.
    pub labels: Vec<u32>,
    /// Regression target of each node sample, cached once per node.
    pub targets: Vec<f64>,
}

impl SplitScratch {
    pub fn new(arity: usize) -> Self {
        SplitScratch {
            cpairs: Vec::new(),
            rpairs: Vec::new(),
            left_counts: vec![0; arity],
            node_counts: vec![0; arity],
            labels: Vec::new(),
            targets: Vec::new(),
        }
    }
}

/// Does `gain` at `(feature, threshold)` beat the incumbent? Gains within
/// 1e-15 are ties, broken toward the lowest (feature, threshold) pair for
/// determinism across scan orders.
#[inline]
fn beats(best: &Option<SplitChoice>, gain: f64, feature: usize, threshold: f64) -> bool {
    best.is_none_or(|b| {
        gain > b.gain + 1e-15
            || ((gain - b.gain).abs() <= 1e-15 && (feature, threshold) < (b.feature, b.threshold))
    })
}

/// Best entropy-gain split for a classification node.
///
/// `samples` are row indices into `get(row) -> value`; `labels(row)` gives
/// the class. Returns `Ok(None)` when no split satisfies `min_leaf` or
/// improves entropy by more than `min_gain`; `Err` only when `budget`
/// trips mid-scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_classification_split(
    samples: &[usize],
    x: &dyn DesignView,
    label: &dyn Fn(usize) -> u32,
    arity: usize,
    min_leaf: usize,
    min_gain: f64,
    scratch: &mut SplitScratch,
    budget: &TargetBudget,
) -> Result<Option<SplitChoice>, TrainError> {
    let n = samples.len();
    if n < 2 * min_leaf {
        return Ok(None);
    }
    let SplitScratch { cpairs, left_counts, node_counts, labels, .. } = scratch;
    labels.clear();
    labels.extend(samples.iter().map(|&s| label(s)));
    node_counts.iter_mut().for_each(|c| *c = 0);
    for &l in labels.iter() {
        node_counts[l as usize] += 1;
    }
    let parent_entropy = counts_entropy(node_counts, n);
    if parent_entropy <= 0.0 {
        return Ok(None); // pure node
    }

    let mut best: Option<SplitChoice> = None;
    let mut since_check = 0usize;
    for f in 0..x.n_cols() {
        since_check += n;
        if since_check >= SCAN_CHECK_ELEMS {
            budget.check()?;
            since_check = 0;
        }
        let col = x.col(f);
        cpairs.clear();
        let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &s) in samples.iter().enumerate() {
            let v = col.get(s);
            if v < vmin {
                vmin = v;
            }
            if v > vmax {
                vmax = v;
            }
            cpairs.push((v, labels[i]));
        }
        if vmax <= vmin {
            continue; // constant column (±0.0 mixes included) — no threshold
        }

        // Two-valued column (every one-hot indicator): the only candidate
        // threshold sits between `vmin` and `vmax`, and its left side is
        // exactly the `vmin` group — integer counts, so the gain below is
        // bit-identical to the sorted sweep's.
        left_counts.iter_mut().for_each(|c| *c = 0);
        let (mut n_min, mut n_max) = (0usize, 0usize);
        for &(v, l) in cpairs.iter() {
            if v == vmin {
                left_counts[l as usize] += 1;
                n_min += 1;
            } else if v == vmax {
                n_max += 1;
            }
        }
        if n_min + n_max == n {
            if n_min >= min_leaf && n - n_min >= min_leaf {
                let h_left = counts_entropy(left_counts, n_min);
                let h_right = residual_entropy(left_counts, node_counts, n - n_min);
                let weighted =
                    (n_min as f64 * h_left + (n - n_min) as f64 * h_right) / n as f64;
                let gain = parent_entropy - weighted;
                let threshold = 0.5 * (vmin + vmax);
                if gain > min_gain && beats(&best, gain, f, threshold) {
                    best = Some(SplitChoice { feature: f, threshold, gain, n_left: n_min });
                }
            }
            continue;
        }

        cpairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        left_counts.iter_mut().for_each(|c| *c = 0);
        let mut n_left = 0usize;
        for i in 0..n - 1 {
            let (v, l) = cpairs[i];
            left_counts[l as usize] += 1;
            n_left += 1;
            let v_next = cpairs[i + 1].0;
            if v_next <= v {
                continue; // not a distinct threshold
            }
            if n_left < min_leaf || n - n_left < min_leaf {
                continue;
            }
            let h_left = counts_entropy(left_counts, n_left);
            let h_right = residual_entropy(left_counts, node_counts, n - n_left);
            let weighted =
                (n_left as f64 * h_left + (n - n_left) as f64 * h_right) / n as f64;
            let gain = parent_entropy - weighted;
            let threshold = 0.5 * (v + v_next);
            if gain > min_gain && beats(&best, gain, f, threshold) {
                best = Some(SplitChoice { feature: f, threshold, gain, n_left });
            }
        }
        let _ = arity;
    }
    Ok(best)
}

/// Best variance-reduction split for a regression node. Gain is measured as
/// SSE decrease. `Err` only when `budget` trips mid-scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_regression_split(
    samples: &[usize],
    x: &dyn DesignView,
    target: &dyn Fn(usize) -> f64,
    min_leaf: usize,
    min_gain: f64,
    scratch: &mut SplitScratch,
    budget: &TargetBudget,
) -> Result<Option<SplitChoice>, TrainError> {
    let n = samples.len();
    if n < 2 * min_leaf {
        return Ok(None);
    }
    let SplitScratch { rpairs, targets, .. } = scratch;
    targets.clear();
    targets.extend(samples.iter().map(|&s| target(s)));
    let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
    for &y in targets.iter() {
        total_sum += y;
        total_sq += y * y;
    }
    let parent_sse = sse(total_sum, total_sq, n);
    if parent_sse <= 0.0 {
        return Ok(None); // constant target
    }

    let mut best: Option<SplitChoice> = None;
    let mut since_check = 0usize;
    for f in 0..x.n_cols() {
        since_check += n;
        if since_check >= SCAN_CHECK_ELEMS {
            budget.check()?;
            since_check = 0;
        }
        let col = x.col(f);
        rpairs.clear();
        let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &s) in samples.iter().enumerate() {
            let v = col.get(s);
            if v < vmin {
                vmin = v;
            }
            if v > vmax {
                vmax = v;
            }
            rpairs.push((v, targets[i]));
        }
        if vmax <= vmin {
            continue; // constant column — no threshold
        }

        // Two-valued column: evaluate the lone threshold in one counting
        // pass (left moments accumulate in gather order, which is the
        // node's sample order on every view kind).
        let (mut n_min, mut n_max) = (0usize, 0usize);
        let (mut min_sum, mut min_sq) = (0.0f64, 0.0f64);
        for &(v, y) in rpairs.iter() {
            if v == vmin {
                min_sum += y;
                min_sq += y * y;
                n_min += 1;
            } else if v == vmax {
                n_max += 1;
            }
        }
        if n_min + n_max == n {
            if n_min >= min_leaf && n - n_min >= min_leaf {
                let child_sse = sse(min_sum, min_sq, n_min)
                    + sse(total_sum - min_sum, total_sq - min_sq, n - n_min);
                let gain = parent_sse - child_sse;
                let threshold = 0.5 * (vmin + vmax);
                if gain > min_gain && beats(&best, gain, f, threshold) {
                    best = Some(SplitChoice { feature: f, threshold, gain, n_left: n_min });
                }
            }
            continue;
        }

        rpairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let (mut left_sum, mut left_sq) = (0.0f64, 0.0f64);
        let mut n_left = 0usize;
        for i in 0..n - 1 {
            let (v, y) = rpairs[i];
            left_sum += y;
            left_sq += y * y;
            n_left += 1;
            let v_next = rpairs[i + 1].0;
            if v_next <= v {
                continue;
            }
            if n_left < min_leaf || n - n_left < min_leaf {
                continue;
            }
            let child_sse = sse(left_sum, left_sq, n_left)
                + sse(total_sum - left_sum, total_sq - left_sq, n - n_left);
            let gain = parent_sse - child_sse;
            let threshold = 0.5 * (v + v_next);
            if gain > min_gain && beats(&best, gain, f, threshold) {
                best = Some(SplitChoice { feature: f, threshold, gain, n_left });
            }
        }
    }
    Ok(best)
}

/// Pre-SIMD-tier classification search: per-row probing with a stable sort
/// and a per-threshold complement-count allocation. Test-only: the oracle
/// the gathered and two-valued scans are checked against.
#[cfg(test)]
fn legacy_classification_split(
    samples: &[usize],
    x: &dyn DesignView,
    label: &dyn Fn(usize) -> u32,
    arity: usize,
    min_leaf: usize,
    min_gain: f64,
    scratch: &mut SplitScratch,
) -> Option<SplitChoice> {
    let n = samples.len();
    if n < 2 * min_leaf {
        return None;
    }
    scratch.node_counts.iter_mut().for_each(|c| *c = 0);
    for &s in samples {
        scratch.node_counts[label(s) as usize] += 1;
    }
    let parent_entropy = counts_entropy(&scratch.node_counts, n);
    if parent_entropy <= 0.0 {
        return None; // pure node
    }

    let mut best: Option<SplitChoice> = None;
    for f in 0..x.n_cols() {
        let col = x.col(f);
        let mut pairs: Vec<(f64, usize)> = samples.iter().map(|&s| (col.get(s), s)).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        scratch.left_counts.iter_mut().for_each(|c| *c = 0);
        let mut n_left = 0usize;
        for i in 0..n - 1 {
            let (v, s) = pairs[i];
            scratch.left_counts[label(s) as usize] += 1;
            n_left += 1;
            let v_next = pairs[i + 1].0;
            if v_next <= v {
                continue; // not a distinct threshold
            }
            if n_left < min_leaf || n - n_left < min_leaf {
                continue;
            }
            let h_left = counts_entropy(&scratch.left_counts, n_left);
            let right_counts: Vec<usize> = scratch
                .left_counts
                .iter()
                .zip(&scratch.node_counts)
                .map(|(&l, &t)| t - l)
                .collect();
            let h_right = counts_entropy(&right_counts, n - n_left);
            let weighted =
                (n_left as f64 * h_left + (n - n_left) as f64 * h_right) / n as f64;
            let gain = parent_entropy - weighted;
            let threshold = 0.5 * (v + v_next);
            if gain > min_gain && beats(&best, gain, f, threshold) {
                best = Some(SplitChoice { feature: f, threshold, gain, n_left });
            }
        }
        let _ = arity;
    }
    best
}

/// Pre-SIMD-tier regression search; see [`legacy_classification_split`].
#[cfg(test)]
fn legacy_regression_split(
    samples: &[usize],
    x: &dyn DesignView,
    target: &dyn Fn(usize) -> f64,
    min_leaf: usize,
    min_gain: f64,
) -> Option<SplitChoice> {
    let n = samples.len();
    if n < 2 * min_leaf {
        return None;
    }
    let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
    for &s in samples {
        let y = target(s);
        total_sum += y;
        total_sq += y * y;
    }
    let parent_sse = sse(total_sum, total_sq, n);
    if parent_sse <= 0.0 {
        return None; // constant target
    }

    let mut best: Option<SplitChoice> = None;
    for f in 0..x.n_cols() {
        let col = x.col(f);
        let mut pairs: Vec<(f64, usize)> = samples.iter().map(|&s| (col.get(s), s)).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        let (mut left_sum, mut left_sq) = (0.0f64, 0.0f64);
        let mut n_left = 0usize;
        for i in 0..n - 1 {
            let (v, s) = pairs[i];
            let y = target(s);
            left_sum += y;
            left_sq += y * y;
            n_left += 1;
            let v_next = pairs[i + 1].0;
            if v_next <= v {
                continue;
            }
            if n_left < min_leaf || n - n_left < min_leaf {
                continue;
            }
            let child_sse = sse(left_sum, left_sq, n_left)
                + sse(total_sum - left_sum, total_sq - left_sq, n - n_left);
            let gain = parent_sse - child_sse;
            let threshold = 0.5 * (v + v_next);
            if gain > min_gain && beats(&best, gain, f, threshold) {
                best = Some(SplitChoice { feature: f, threshold, gain, n_left });
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    fn matrix(rows: &[&[f64]]) -> DesignMatrix {
        let n_cols = rows[0].len();
        let values: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DesignMatrix::from_raw(rows.len(), n_cols, values)
    }

    fn class_split(
        samples: &[usize],
        x: &dyn DesignView,
        ys: &[u32],
        arity: usize,
        min_leaf: usize,
    ) -> Option<SplitChoice> {
        let mut scratch = SplitScratch::new(arity);
        best_classification_split(
            samples,
            x,
            &|s| ys[s],
            arity,
            min_leaf,
            1e-12,
            &mut scratch,
            &TargetBudget::unlimited(),
        )
        .unwrap()
    }

    fn reg_split(
        samples: &[usize],
        x: &dyn DesignView,
        ys: &dyn Fn(usize) -> f64,
        min_leaf: usize,
    ) -> Option<SplitChoice> {
        let mut scratch = SplitScratch::new(0);
        best_regression_split(
            samples,
            x,
            ys,
            min_leaf,
            1e-12,
            &mut scratch,
            &TargetBudget::unlimited(),
        )
        .unwrap()
    }

    #[test]
    fn entropy_of_counts() {
        assert_eq!(counts_entropy(&[4, 0], 4), 0.0);
        assert!((counts_entropy(&[2, 2], 4) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn residual_entropy_matches_materialized_complement() {
        let node = [7usize, 3, 5, 0];
        let left = [2usize, 3, 1, 0];
        let right: Vec<usize> = node.iter().zip(&left).map(|(&t, &l)| t - l).collect();
        let total: usize = right.iter().sum();
        assert_eq!(
            residual_entropy(&left, &node, total).to_bits(),
            counts_entropy(&right, total).to_bits()
        );
    }

    #[test]
    fn classification_split_finds_obvious_boundary() {
        // Feature 0 separates perfectly at 0.5; feature 1 is noise.
        let x = matrix(&[&[0.0, 7.0], &[0.2, 3.0], &[0.9, 5.0], &[1.0, 4.0]]);
        let ys = [0u32, 0, 1, 1];
        let samples: Vec<usize> = (0..4).collect();
        let choice = class_split(&samples, &x, &ys, 2, 1).unwrap();
        assert_eq!(choice.feature, 0);
        assert!((choice.threshold - 0.55).abs() < 1e-12);
        assert!((choice.gain - 2.0f64.ln()).abs() < 1e-12);
        assert_eq!(choice.n_left, 2);
    }

    #[test]
    fn pure_node_returns_none() {
        let x = matrix(&[&[0.0], &[1.0]]);
        let ys = [1u32, 1];
        assert!(class_split(&[0, 1], &x, &ys, 2, 1).is_none());
    }

    #[test]
    fn min_leaf_blocks_tiny_children() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let ys = [0u32, 1, 1, 1];
        // min_leaf = 2 forbids the perfect 1|3 split; the 2|2 split has less
        // gain but is the only legal one.
        let choice = class_split(&[0, 1, 2, 3], &x, &ys, 2, 2).unwrap();
        assert_eq!(choice.n_left, 2);
    }

    #[test]
    fn regression_split_reduces_variance() {
        let x = matrix(&[&[0.0], &[1.0], &[10.0], &[11.0]]);
        let ys = [1.0, 1.1, 5.0, 5.2];
        let choice = reg_split(&[0, 1, 2, 3], &x, &|s| ys[s], 1).unwrap();
        assert_eq!(choice.feature, 0);
        assert!((choice.threshold - 5.5).abs() < 1e-12);
        assert_eq!(choice.n_left, 2);
    }

    #[test]
    fn constant_target_returns_none() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0]]);
        assert!(reg_split(&[0, 1, 2], &x, &|_| 3.0, 1).is_none());
    }

    #[test]
    fn tied_feature_values_are_never_thresholds() {
        // All values equal: no distinct threshold exists.
        let x = matrix(&[&[1.0], &[1.0], &[1.0], &[1.0]]);
        let ys = [0u32, 1, 0, 1];
        assert!(class_split(&[0, 1, 2, 3], &x, &ys, 2, 1).is_none());
    }

    #[test]
    fn split_search_agrees_across_view_kinds() {
        // The same samples served through a RowSubset view must choose the
        // identical split as the owned matrix restricted to those rows.
        let full = matrix(&[
            &[9.0, 9.0], // excluded
            &[0.0, 7.0],
            &[0.2, 3.0],
            &[9.0, 9.0], // excluded
            &[0.9, 5.0],
            &[1.0, 4.0],
        ]);
        let keep = [1usize, 2, 4, 5];
        let owned = full.select_rows(&keep);
        let view = frac_dataset::RowSubset::new(&full, &keep);
        let ys = [0u32, 0, 1, 1];
        let samples: Vec<usize> = (0..4).collect();
        let a = class_split(&samples, &owned, &ys, 2, 1);
        let b = class_split(&samples, &view, &ys, 2, 1);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn gathered_scan_matches_legacy_oracle() {
        // Dense tie groups, signed zeros, and multiple competitive features:
        // the gathered unstable-sort scan must reproduce the legacy result
        // — bit-exactly for classification (integer counts are invariant
        // to intra-tie order), within rounding tolerance for regression
        // gains (float prefix sums are not; see the module docs).
        let rows: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                let a = ((i * 7) % 12) as f64 * 0.25;
                let b = if i % 5 == 0 { -0.0 } else { ((i * 3) % 4) as f64 };
                let c = ((i * 13) % 48) as f64 / 7.0;
                vec![a, b, c]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let ys: Vec<u32> = (0..48).map(|i| ((i * 11) % 3) as u32).collect();
        let ts: Vec<f64> = (0..48).map(|i| ((i * 17) % 9) as f64 * 0.5).collect();
        let samples: Vec<usize> = (0..48).collect();
        for min_leaf in [1usize, 2, 5] {
            let mut s = SplitScratch::new(3);
            let new_c = best_classification_split(
                &samples,
                &x,
                &|s| ys[s],
                3,
                min_leaf,
                1e-12,
                &mut s,
                &TargetBudget::unlimited(),
            )
            .unwrap();
            let old_c = legacy_classification_split(
                &samples,
                &x,
                &|s| ys[s],
                3,
                min_leaf,
                1e-12,
                &mut s,
            );
            assert_eq!(new_c, old_c, "classification, min_leaf={min_leaf}");
            let new_r = best_regression_split(
                &samples,
                &x,
                &|s| ts[s],
                min_leaf,
                1e-12,
                &mut s,
                &TargetBudget::unlimited(),
            )
            .unwrap();
            let old_r = legacy_regression_split(&samples, &x, &|s| ts[s], min_leaf, 1e-12);
            if let (Some(a), Some(b)) = (new_c, old_c) {
                assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            }
            assert_eq!(new_r.is_some(), old_r.is_some(), "regression, min_leaf={min_leaf}");
            if let (Some(a), Some(b)) = (new_r, old_r) {
                assert_eq!(
                    (a.feature, a.threshold.to_bits(), a.n_left),
                    (b.feature, b.threshold.to_bits(), b.n_left),
                    "regression, min_leaf={min_leaf}"
                );
                assert!(
                    (a.gain - b.gain).abs() <= 1e-9 * (1.0 + b.gain.abs()),
                    "regression gain, min_leaf={min_leaf}: {} vs {}",
                    a.gain,
                    b.gain
                );
            }
        }
    }

    #[test]
    fn binary_fast_path_matches_legacy_oracle() {
        // Two-valued columns (one-hot indicators, raw or standardized) take
        // the counting fast path; it must reproduce the legacy stable-sort
        // result exactly, gain bits included — for classification (integer
        // counts are order-free) and regression (gather order equals the
        // stable sort's tie order).
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let hot = (i * 7) % 3; // one-hot block of a ternary feature
                vec![
                    if hot == 0 { 1.0 } else { 0.0 },
                    if hot == 1 { 1.0 } else { 0.0 },
                    if hot == 2 { 1.0 } else { 0.0 },
                    // A standardized-looking indicator and a constant column.
                    if i % 4 == 0 { 1.7320508 } else { -0.5773503 },
                    2.5,
                ]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let ys: Vec<u32> = (0..40).map(|i| ((i * 5) % 3) as u32).collect();
        let ts: Vec<f64> = (0..40).map(|i| ((i * 13) % 7) as f64 * 0.3 - 1.0).collect();
        let samples: Vec<usize> = (0..40).collect();
        for min_leaf in [1usize, 3, 8] {
            let mut s = SplitScratch::new(3);
            let new_c = best_classification_split(
                &samples,
                &x,
                &|s| ys[s],
                3,
                min_leaf,
                1e-12,
                &mut s,
                &TargetBudget::unlimited(),
            )
            .unwrap();
            let old_c = legacy_classification_split(
                &samples,
                &x,
                &|s| ys[s],
                3,
                min_leaf,
                1e-12,
                &mut s,
            );
            assert_eq!(new_c, old_c, "classification, min_leaf={min_leaf}");
            let new_r = best_regression_split(
                &samples,
                &x,
                &|s| ts[s],
                min_leaf,
                1e-12,
                &mut s,
                &TargetBudget::unlimited(),
            )
            .unwrap();
            let old_r = legacy_regression_split(&samples, &x, &|s| ts[s], min_leaf, 1e-12);
            assert_eq!(new_r, old_r, "regression, min_leaf={min_leaf}");
            if let (Some(a), Some(b)) = (new_c, old_c) {
                assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            }
            if let (Some(a), Some(b)) = (new_r, old_r) {
                assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            }
        }
    }

    #[test]
    fn wide_scan_trips_expired_budget() {
        // A budget that is already exhausted must be noticed inside the
        // column scan, not only between node expansions.
        let n_rows = 64usize;
        let n_cols = 80usize; // 64 * 80 > SCAN_CHECK_ELEMS
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|i| (0..n_cols).map(|j| ((i * 31 + j * 17) % 101) as f64).collect())
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let ys: Vec<u32> = (0..n_rows).map(|i| (i % 2) as u32).collect();
        let samples: Vec<usize> = (0..n_rows).collect();
        let budget =
            crate::budget::RunBudget::with_deadline(std::time::Duration::ZERO).start_target();
        let mut s = SplitScratch::new(2);
        let r = best_classification_split(
            &samples,
            &x,
            &|s| ys[s],
            2,
            1,
            1e-12,
            &mut s,
            &budget,
        );
        assert!(r.is_err(), "expired budget must abort the scan");
    }
}
