//! Best-split search shared by both tree flavours.
//!
//! Candidate columns are searched in ascending view-column order, in one of
//! two ways:
//!
//! * **Count tables** for the one-hot block of every categorical input whose
//!   codes the view exposes ([`DesignView::cat_blocks`]: pool views and row
//!   subsets of them). Classification scores every indicator of a block
//!   from the block's `arity × classes` count table; a missing code is in
//!   no row, as it sets no indicator. The search itself counts nothing: it reads the
//!   node's tables, which [`count_tables`] fills for every block in one
//!   buffer after resolving the samples to storage rows once
//!   ([`count_rows`] counts given storage rows). The grower searches only
//!   impure nodes. It takes the root's tables from its caller: the
//!   per-problem trainer derives a CV fold's root as its target's full
//!   root minus the rows the fold leaves out. At each split it counts the
//!   smaller child when a child will be searched, and derives the larger
//!   one as parent − smaller ([`subtract_tables`]) when that one will be.
//!   Regression trees make one pass per block inside the search, counting
//!   codes and accumulating each indicator's `code ≠ c` target sums.
//! * **Gather scan** for every other column: real inputs, and every column
//!   of a view without blocks (owned [`frac_dataset::DesignMatrix`] inputs,
//!   JL-projected designs). The node's samples are gathered into a
//!   contiguous structure-of-arrays scratch buffer — `(value, label)` pairs
//!   for classification, `(value, target)` for regression — sorted by value
//!   with an unstable total-order sort, and swept left-to-right evaluating
//!   every distinct threshold with O(1) incremental statistics: class counts
//!   for classification, first/second moments for regression. The gather
//!   reads feature values through the borrowed [`frac_dataset::ColRef`]
//!   column path. Labels and targets are cached once per node, so the
//!   per-sample closures are called `n` times per node instead of `n` times
//!   per column. Two-valued columns skip the sort: a single counting pass
//!   evaluates the column's only candidate threshold. Constant columns are
//!   rejected without sorting.
//!
//! The count tables pick the split the gather scan picks, bit for bit, so
//! `FracModel::fit_unpooled` (owned matrices, no blocks) is their whole-fit
//! oracle. An indicator takes the values 0 and 1, so its one threshold is
//! `0.5 * (0.0 + 1.0)` and its left side is `code ≠ c`. Classification left
//! counts are the node counts minus table row `c` — the integers the
//! two-valued scan counts. A table derived by subtraction holds the
//! integers a count over the child would, so it moves no split. Regression
//! sums are folded in sample order over the `code ≠ c` samples, which is
//! the two-valued scan's own fold (the shortcut "node total − per-code sum"
//! rounds differently, and so would tables derived by subtraction). An
//! indicator with no sample on one side is the scan's constant column and
//! is skipped, and indicators are scored in column order, so [`beats`] sees
//! every candidate in the scan's order.
//!
//! Entropy terms −(c/m)·ln(c/m), with 0·ln 0 = 0, are read from a
//! per-thread memo filled with that same expression for node sizes up to
//! [`ENTROPY_MEMO_CAP`]; larger nodes compute each term inline. Every
//! candidate's gain goes through one [`entropy_gain`], which adds each
//! class's left and right term from the two sides' memo rows with no
//! branch on zero counts. Its gains carry the bits of sums over the nonzero
//! counts only (see [`entropy_gain`] for why the sign of a zero cannot leak
//! into a gain).
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
//! Budget cooperation: both searches, the count pass and the subtraction
//! poll the [`TargetBudget`] every [`SCAN_CHECK_ELEMS`] elements gathered,
//! counted or subtracted, so a single pathological column (or a very wide
//! node) cannot blow past a deadline between the growers' per-expansion
//! checks.
//!
//! The previous per-row probing implementation is compiled for tests only,
//! as the oracle the scans above are checked against.

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use frac_dataset::{CatBlock, DesignView};
use std::cell::RefCell;

/// Elements gathered or counted between cooperative budget polls inside
/// the split search. Small enough that one interval is microseconds of
/// work, large enough that the `Instant::now()` in a limited budget stays
/// invisible.
const SCAN_CHECK_ELEMS: usize = 4096;

/// Threshold of every one-hot indicator split: the gather scan's midpoint
/// between an indicator's two values.
const INDICATOR_THRESHOLD: f64 = 0.5 * (0.0 + 1.0);

/// Largest node size whose entropy terms are memoized. A thread's memo
/// holds −(c/m)·ln(c/m) for every `c ≤ m` up to the largest node it has
/// searched, capped here: at most (cap + 1)(cap + 2)/2 `f64`s, which is
/// 265,224 bytes per thread.
const ENTROPY_MEMO_CAP: usize = 256;

/// A chosen split: feature, threshold, and the impurity decrease it buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SplitChoice {
    pub feature: usize,
    pub threshold: f64,
    pub gain: f64,
    /// Samples going left (`value <= threshold`).
    pub n_left: usize,
}

/// −(c/m)·ln(c/m), with 0·ln 0 = 0: the one expression every entropy term
/// is computed with, memoized or not. A zero count adds `+0.0`, so entropy
/// sums run over every class without a branch.
#[inline]
fn entropy_term(c: usize, total: usize) -> f64 {
    if c == 0 {
        return 0.0;
    }
    let p = c as f64 / total as f64;
    -p * p.ln()
}

/// Entropy terms by (count, total), filled on demand; see
/// [`ENTROPY_MEMO_CAP`].
#[derive(Debug, Default)]
struct EntropyMemo {
    /// Row `m` — the terms `c = 0..=m` of total `m` — starts at `m(m+1)/2`.
    terms: Vec<f64>,
    /// Rows filled: totals `0..rows`.
    rows: usize,
}

impl EntropyMemo {
    /// Fill the rows for every total up to `n` (at most the cap).
    fn ensure(&mut self, n: usize) {
        let rows = n.min(ENTROPY_MEMO_CAP) + 1;
        self.terms.reserve_exact((rows * (rows + 1) / 2).saturating_sub(self.terms.len()));
        while self.rows < rows {
            let m = self.rows;
            self.terms.extend((0..=m).map(|c| entropy_term(c, m)));
            self.rows += 1;
        }
    }

    /// The terms `c = 0..=total` of `total`, when the memo holds them.
    #[inline]
    fn row(&self, total: usize) -> Option<&[f64]> {
        (total < self.rows).then(|| {
            let start = total * (total + 1) / 2;
            &self.terms[start..start + total + 1]
        })
    }

    /// [`entropy_term`]`(c, total)`, from the memo when it holds `total`.
    #[inline]
    fn term(&self, c: usize, total: usize) -> f64 {
        match self.row(total) {
            Some(row) => row[c],
            None => entropy_term(c, total),
        }
    }
}

thread_local! {
    /// This thread's entropy terms. A resident pool thread keeps them from
    /// one fit to the next, which cannot change a bit: each term is a pure
    /// function of `(c, m)`, computed by [`entropy_term`] whether memoized
    /// or not, so a later call reads exactly what it would compute. At
    /// most 265,224 bytes a thread stay allocated.
    static ENTROPY_MEMO: RefCell<EntropyMemo> = RefCell::new(EntropyMemo::default());
}

/// Shannon entropy (nats) of a count vector, summed in class order.
#[inline]
fn counts_entropy(counts: &[usize], total: usize, memo: &EntropyMemo) -> f64 {
    counts.iter().map(|&c| memo.term(c, total)).sum()
}

/// Information gain of sending `n_left` of the node's `n` samples to the
/// left child. `counts` yields each class's `(left, right)` counts in class
/// order; each side's entropy adds its terms in that order, zero counts
/// included, from the memo rows of `n_left` and `n - n_left` (a side past
/// [`ENTROPY_MEMO_CAP`] computes its terms inline).
///
/// On every node the search scores, the gain has the bits of sums over the
/// nonzero counts only. Adding `+0.0` for a zero count keeps every nonzero
/// partial sum, and the terms are positive or `-0.0`, so a side's entropy
/// can only turn from `-0.0` into `+0.0`, on a pure side. `n_left·h_left +
/// n_right·h_right` keeps its bits while either product is nonzero; when
/// both are zero the gain is `parent_entropy − (±0) = parent_entropy`, which
/// is positive on any searched node.
#[inline]
fn entropy_gain(
    parent_entropy: f64,
    counts: impl Iterator<Item = (usize, usize)>,
    n_left: usize,
    n: usize,
    memo: &EntropyMemo,
) -> f64 {
    let n_right = n - n_left;
    let (mut h_left, mut h_right) = (0.0f64, 0.0f64);
    match (memo.row(n_left), memo.row(n_right)) {
        (Some(left), Some(right)) => {
            for (l, r) in counts {
                h_left += left[l];
                h_right += right[r];
            }
        }
        _ => {
            for (l, r) in counts {
                h_left += memo.term(l, n_left);
                h_right += memo.term(r, n_right);
            }
        }
    }
    let weighted = (n_left as f64 * h_left + n_right as f64 * h_right) / n as f64;
    parent_entropy - weighted
}

/// Each class's `(left, right)` counts, from the left side's and the
/// node's.
#[inline]
fn left_side<'a>(
    left: &'a [usize],
    node: &'a [usize],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    left.iter().zip(node).map(|(&l, &t)| (l, t - l))
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

/// SSE decrease of sending `n_left` of the node's `n` samples, with target
/// moments `left_sum`/`left_sq`, to the left child.
#[inline]
fn sse_gain(
    parent_sse: f64,
    (left_sum, left_sq): (f64, f64),
    (total_sum, total_sq): (f64, f64),
    n_left: usize,
    n: usize,
) -> f64 {
    let child_sse =
        sse(left_sum, left_sq, n_left) + sse(total_sum - left_sum, total_sq - left_sq, n - n_left);
    parent_sse - child_sse
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
    /// Storage row of each node sample, resolved once per node for the
    /// count tables.
    pub rows: Vec<usize>,
    /// One block's code counts (regression only); the last entry counts
    /// missing codes.
    pub table: Vec<usize>,
    /// Per-indicator target sum and squared sum over `code ≠ c`
    /// (regression only).
    pub off_moments: Vec<(f64, f64)>,
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
            rows: Vec::new(),
            table: Vec::new(),
            off_moments: Vec::new(),
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

/// Keep `cand` if its gain clears `min_gain` and beats the incumbent.
#[inline]
fn offer(best: &mut Option<SplitChoice>, cand: SplitChoice, min_gain: f64) {
    if cand.gain > min_gain && beats(best, cand.gain, cand.feature, cand.threshold) {
        *best = Some(cand);
    }
}

/// One step of the column walk: a column for the gather scan, or a whole
/// categorical block for its count table.
enum Unit<'a> {
    Column(usize),
    Block(&'a CatBlock<'a>),
}

/// The columns `0..n_cols` in ascending order, each block taken whole.
fn units<'a>(n_cols: usize, blocks: &'a [CatBlock<'a>]) -> impl Iterator<Item = Unit<'a>> {
    let (mut f, mut next) = (0usize, 0usize);
    std::iter::from_fn(move || {
        if f >= n_cols {
            return None;
        }
        match blocks.get(next) {
            Some(block) if block.first == f => {
                next += 1;
                f += block.arity;
                Some(Unit::Block(block))
            }
            _ => {
                f += 1;
                Some(Unit::Column(f - 1))
            }
        }
    })
}

/// Resolve the node's samples to storage rows when `x` has blocks, and
/// return the blocks (empty when it has none).
fn node_blocks<'x>(
    x: &'x dyn DesignView,
    samples: &[usize],
    rows: &mut Vec<usize>,
) -> &'x [CatBlock<'x>] {
    rows.clear();
    match x.cat_blocks() {
        Some(blocks) => {
            blocks.resolve_rows(samples, rows);
            blocks.blocks()
        }
        None => &[],
    }
}

/// Is an indicator with `n_right` of the node's `n` samples at `code == c`
/// a legal split? Zero samples on a side is the scan's constant column.
#[inline]
fn indicator_splits(n_right: usize, n: usize, min_leaf: usize) -> bool {
    n_right > 0 && n_right < n && n_right >= min_leaf && n - n_right >= min_leaf
}

/// Fill `tables` with the node's count table of every categorical block of
/// `x` ([`count_rows`] over the samples' storage rows) and return the row ×
/// block cells counted. A view without blocks leaves `tables` empty.
pub(crate) fn count_tables(
    samples: &[usize],
    x: &dyn DesignView,
    label: &dyn Fn(usize) -> u32,
    classes: usize,
    scratch: &mut SplitScratch,
    tables: &mut Vec<u32>,
    budget: &TargetBudget,
) -> Result<u64, TrainError> {
    let SplitScratch { labels, rows, .. } = scratch;
    let blocks = node_blocks(x, samples, rows);
    labels.clear();
    labels.extend(samples.iter().map(|&s| label(s)));
    count_rows(blocks, rows, labels, classes, tables, budget)
}

/// Fill `tables` with the count table of every block over the storage
/// `rows`, labelled `labels`, block after block: block `b` takes
/// `b.arity × classes` counts, row `c` holding the class counts of
/// `code == c`. A missing code is counted in no row: the search reads
/// only rows `0..arity`. Returns the row × block cells counted (rows with
/// missing codes included). Polls `budget` every [`SCAN_CHECK_ELEMS`]
/// counted elements.
///
/// Counts are `u32`: 2³² rows or more could wrap one, so they are refused
/// as [`TrainError::AllocOverflow`] (its `cols` are the blocks' indicator
/// columns).
pub(crate) fn count_rows(
    blocks: &[CatBlock<'_>],
    rows: &[usize],
    labels: &[u32],
    classes: usize,
    tables: &mut Vec<u32>,
    budget: &TargetBudget,
) -> Result<u64, TrainError> {
    tables.clear();
    let n = rows.len();
    if u32::try_from(n).is_err() {
        let cols = blocks.iter().map(|b| b.arity).sum();
        return Err(TrainError::AllocOverflow { rows: n, cols });
    }
    tables.resize(blocks.iter().map(|b| b.arity * classes).sum(), 0);
    let (mut offset, mut since_check) = (0usize, 0usize);
    for block in blocks {
        since_check += n;
        if since_check >= SCAN_CHECK_ELEMS {
            budget.check()?;
            since_check = 0;
        }
        let table = &mut tables[offset..offset + block.arity * classes];
        offset += table.len();
        for (&r, &l) in rows.iter().zip(labels) {
            // A missing code (`MISSING_CODE`) lands past the table's end;
            // labels are below `classes`, so only missing codes do.
            if let Some(cell) = table.get_mut(block.codes[r] as usize * classes + l as usize) {
                *cell += 1;
            }
        }
    }
    Ok((n * blocks.len()) as u64)
}

/// Turn a split node's count tables into its larger child's, in place:
/// subtract the smaller child's tables, which [`count_tables`] filled over
/// the same blocks. Counts are integers, so the result is exactly what a
/// count over the larger child would fill. Polls `budget` every
/// [`SCAN_CHECK_ELEMS`] subtractions.
pub(crate) fn subtract_tables(
    parent: &mut [u32],
    smaller: &[u32],
    budget: &TargetBudget,
) -> Result<(), TrainError> {
    debug_assert_eq!(parent.len(), smaller.len(), "tables over different blocks");
    for (p, s) in parent.chunks_mut(SCAN_CHECK_ELEMS).zip(smaller.chunks(SCAN_CHECK_ELEMS)) {
        budget.check()?;
        for (p, &s) in p.iter_mut().zip(s) {
            *p -= s;
        }
    }
    Ok(())
}

/// Best entropy-gain split for a classification node.
///
/// `samples` are row indices into `get(row) -> value`; `labels(row)` gives
/// the class. `tables` are the node's block count tables, as
/// [`count_tables`] fills them (empty for a view without blocks). Returns
/// `Ok(None)` when no split satisfies `min_leaf` or improves entropy by
/// more than `min_gain`; `Err` only when `budget` trips mid-scan.
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_classification_split(
    samples: &[usize],
    x: &dyn DesignView,
    label: &dyn Fn(usize) -> u32,
    arity: usize,
    min_leaf: usize,
    min_gain: f64,
    tables: &[u32],
    scratch: &mut SplitScratch,
    budget: &TargetBudget,
) -> Result<Option<SplitChoice>, TrainError> {
    let n = samples.len();
    if n < 2 * min_leaf {
        return Ok(None);
    }
    ENTROPY_MEMO.with_borrow_mut(|memo| {
        memo.ensure(n);
        classification_search(
            samples, x, label, arity, min_leaf, min_gain, tables, scratch, budget, memo,
        )
    })
}

/// [`best_classification_split`] with the thread's entropy memo in hand.
#[allow(clippy::too_many_arguments)]
fn classification_search(
    samples: &[usize],
    x: &dyn DesignView,
    label: &dyn Fn(usize) -> u32,
    arity: usize,
    min_leaf: usize,
    min_gain: f64,
    tables: &[u32],
    scratch: &mut SplitScratch,
    budget: &TargetBudget,
    memo: &EntropyMemo,
) -> Result<Option<SplitChoice>, TrainError> {
    let n = samples.len();
    let blocks = x.cat_blocks().map_or(&[][..], |b| b.blocks());
    // The grower searches impure nodes only, and gives each its tables.
    assert!(blocks.is_empty() || !tables.is_empty(), "searched a node without its count tables");
    let SplitScratch { cpairs, left_counts, node_counts, labels, .. } = scratch;
    labels.clear();
    labels.extend(samples.iter().map(|&s| label(s)));
    node_counts.iter_mut().for_each(|c| *c = 0);
    for &l in labels.iter() {
        node_counts[l as usize] += 1;
    }
    let parent_entropy = counts_entropy(node_counts, n, memo);
    if parent_entropy <= 0.0 {
        return Ok(None); // pure node
    }

    let mut best: Option<SplitChoice> = None;
    let (mut offset, mut since_check) = (0usize, 0usize);
    for unit in units(x.n_cols(), blocks) {
        since_check += n;
        if since_check >= SCAN_CHECK_ELEMS {
            budget.check()?;
            since_check = 0;
        }
        let f = match unit {
            Unit::Column(f) => f,
            Unit::Block(block) => {
                // Row `c` of the block's table holds the class counts of
                // `code == c` — the indicator's right side.
                let table = &tables[offset..offset + block.arity * arity];
                offset += table.len();
                for (c, right) in table.chunks_exact(arity).enumerate() {
                    let n_right: usize = right.iter().map(|&k| k as usize).sum();
                    if !indicator_splits(n_right, n, min_leaf) {
                        continue;
                    }
                    let n_left = n - n_right;
                    let counts =
                        node_counts.iter().zip(right).map(|(&t, &r)| (t - r as usize, r as usize));
                    let gain = entropy_gain(parent_entropy, counts, n_left, n, memo);
                    let (feature, threshold) = (block.first + c, INDICATOR_THRESHOLD);
                    offer(&mut best, SplitChoice { feature, threshold, gain, n_left }, min_gain);
                }
                continue;
            }
        };

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

        // Two-valued column: the only candidate threshold sits between
        // `vmin` and `vmax`, and its left side is exactly the `vmin` group
        // — integer counts, so the gain below is bit-identical to the
        // sorted sweep's.
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
                let counts = left_side(left_counts, node_counts);
                let gain = entropy_gain(parent_entropy, counts, n_min, n, memo);
                let (threshold, n_left) = (0.5 * (vmin + vmax), n_min);
                offer(&mut best, SplitChoice { feature: f, threshold, gain, n_left }, min_gain);
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
            let counts = left_side(left_counts, node_counts);
            let gain = entropy_gain(parent_entropy, counts, n_left, n, memo);
            let threshold = 0.5 * (v + v_next);
            offer(&mut best, SplitChoice { feature: f, threshold, gain, n_left }, min_gain);
        }
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
    let SplitScratch { rpairs, targets, rows, table, off_moments, .. } = scratch;
    targets.clear();
    targets.extend(samples.iter().map(|&s| target(s)));
    let (mut total_sum, mut total_sq) = (0.0f64, 0.0f64);
    for &y in targets.iter() {
        total_sum += y;
        total_sq += y * y;
    }
    let totals = (total_sum, total_sq);
    let parent_sse = sse(total_sum, total_sq, n);
    if parent_sse <= 0.0 {
        return Ok(None); // constant target
    }

    let blocks = node_blocks(x, samples, rows);
    let mut best: Option<SplitChoice> = None;
    let mut since_check = 0usize;
    for unit in units(x.n_cols(), blocks) {
        since_check += n;
        if since_check >= SCAN_CHECK_ELEMS {
            budget.check()?;
            since_check = 0;
        }
        let f = match unit {
            Unit::Column(f) => f,
            Unit::Block(block) => {
                // Indicator `c`'s left side is `code ≠ c`: its moments fold
                // in sample order, exactly as the two-valued scan's do.
                let width = block.arity;
                table.clear();
                table.resize(width + 1, 0);
                off_moments.clear();
                off_moments.resize(width, (0.0, 0.0));
                for (&r, &y) in rows.iter().zip(targets.iter()) {
                    let code = (block.codes[r] as usize).min(width);
                    table[code] += 1;
                    for (c, (sum, sq)) in off_moments.iter_mut().enumerate() {
                        if c != code {
                            *sum += y;
                            *sq += y * y;
                        }
                    }
                }
                for (c, (&n_right, &left)) in table.iter().zip(off_moments.iter()).enumerate() {
                    if !indicator_splits(n_right, n, min_leaf) {
                        continue;
                    }
                    let n_left = n - n_right;
                    let gain = sse_gain(parent_sse, left, totals, n_left, n);
                    let (feature, threshold) = (block.first + c, INDICATOR_THRESHOLD);
                    offer(&mut best, SplitChoice { feature, threshold, gain, n_left }, min_gain);
                }
                continue;
            }
        };

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
                let gain = sse_gain(parent_sse, (min_sum, min_sq), totals, n_min, n);
                let (threshold, n_left) = (0.5 * (vmin + vmax), n_min);
                offer(&mut best, SplitChoice { feature: f, threshold, gain, n_left }, min_gain);
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
            let gain = sse_gain(parent_sse, (left_sum, left_sq), totals, n_left, n);
            let threshold = 0.5 * (v + v_next);
            offer(&mut best, SplitChoice { feature: f, threshold, gain, n_left }, min_gain);
        }
    }
    Ok(best)
}

/// Shannon entropy (nats) of a count vector the way the searches summed it
/// before 0·ln 0 = 0: over the nonzero counts only, each term computed
/// inline. Test-only: the arithmetic [`entropy_gain`] is checked against.
#[cfg(test)]
fn filtered_entropy(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    counts.iter().filter(|&&c| c > 0).map(|&c| entropy_term(c, total)).sum()
}

/// Pre-SIMD-tier classification search: per-row probing with a stable sort
/// and a per-threshold complement-count allocation, over
/// [`filtered_entropy`]. Test-only: the oracle the gathered and two-valued
/// scans are checked against.
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
    let parent_entropy = filtered_entropy(&scratch.node_counts, n);
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
            let h_left = filtered_entropy(&scratch.left_counts, n_left);
            let right_counts: Vec<usize> = scratch
                .left_counts
                .iter()
                .zip(&scratch.node_counts)
                .map(|(&l, &t)| t - l)
                .collect();
            let h_right = filtered_entropy(&right_counts, n - n_left);
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
    use crate::traits::{ClassifierTrainer, RegressorTrainer};
    use crate::tree::{
        ClassificationTree, ClassificationTreeTrainer, Node, RegressionTreeTrainer, TreeConfig,
    };
    use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
    use frac_dataset::design::DesignSpec;
    use frac_dataset::split::k_fold;
    use frac_dataset::{Column, Dataset, DesignMatrix, EncodedPool, PoolSpec, RowSubset};
    use proptest::prelude::*;

    fn matrix(rows: &[&[f64]]) -> DesignMatrix {
        let n_cols = rows[0].len();
        let values: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DesignMatrix::from_raw(rows.len(), n_cols, values)
    }

    /// The classification search as the grower runs it: the node's count
    /// tables first, then the search over them.
    fn classification_split(
        samples: &[usize],
        x: &dyn DesignView,
        label: &dyn Fn(usize) -> u32,
        classes: usize,
        min_leaf: usize,
        scratch: &mut SplitScratch,
        budget: &TargetBudget,
    ) -> Result<Option<SplitChoice>, TrainError> {
        let mut tables = Vec::new();
        count_tables(samples, x, label, classes, scratch, &mut tables, budget)?;
        best_classification_split(
            samples, x, label, classes, min_leaf, 1e-12, &tables, scratch, budget,
        )
    }

    fn class_split(
        samples: &[usize],
        x: &dyn DesignView,
        ys: &[u32],
        arity: usize,
        min_leaf: usize,
    ) -> Option<SplitChoice> {
        let mut scratch = SplitScratch::new(arity);
        let budget = TargetBudget::unlimited();
        classification_split(samples, x, &|s| ys[s], arity, min_leaf, &mut scratch, &budget)
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
        let memo = EntropyMemo::default();
        assert_eq!(counts_entropy(&[4, 0], 4, &memo), 0.0);
        assert!((counts_entropy(&[2, 2], 4, &memo) - 2.0f64.ln()).abs() < 1e-12);
    }

    /// [`entropy_gain`] the old way: each side's [`filtered_entropy`], the
    /// right side's counts materialized.
    fn filtered_entropy_gain(parent: f64, left: &[usize], node: &[usize], n_left: usize) -> f64 {
        let n: usize = node.iter().sum();
        let right: Vec<usize> = node.iter().zip(left).map(|(&t, &l)| t - l).collect();
        let weighted = (n_left as f64 * filtered_entropy(left, n_left)
            + (n - n_left) as f64 * filtered_entropy(&right, n - n_left))
            / n as f64;
        parent - weighted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Branch-free gains carry the bits of the filtered sums: 2–6
        /// classes, zero counts, pure sides and both sides of the memo cap.
        #[test]
        fn entropy_gain_matches_filtered_sums(
            node in prop::collection::vec(
                prop_oneof![Just(0usize), 1usize..6, 1usize..400], 2..7),
            cuts in prop::collection::vec(0u32..5, 6),
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let n: usize = node.iter().sum();
            let parent = filtered_entropy(&node, n);
            // The search scores impure nodes only.
            prop_assume!(parent > 0.0);
            // Each class sends none, all, or a random share of its count
            // left, so pure and empty sides come up often.
            let left: Vec<usize> = node
                .iter()
                .zip(&cuts)
                .map(|(&t, &cut)| match cut {
                    0 => 0,
                    1 => t,
                    _ => below(&mut state, t + 1),
                })
                .collect();
            let n_left: usize = left.iter().sum();
            prop_assume!(n_left > 0 && n_left < n);
            let mut memo = EntropyMemo::default();
            memo.ensure(n);
            let new = entropy_gain(parent, left_side(&left, &node), n_left, n, &memo);
            let old = filtered_entropy_gain(parent, &left, &node, n_left);
            prop_assert_eq!(new.to_bits(), old.to_bits(), "left {:?} of {:?}", left, node);
            prop_assert_eq!(
                counts_entropy(&node, n, &memo).to_bits(),
                parent.to_bits(),
                "parent of {:?}",
                node
            );
        }
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
            let new_c = classification_split(
                &samples,
                &x,
                &|s| ys[s],
                3,
                min_leaf,
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
            let new_c = classification_split(
                &samples,
                &x,
                &|s| ys[s],
                3,
                min_leaf,
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
        let r = classification_split(&samples, &x, &|s| ys[s], 2, 1, &mut s, &budget);
        assert!(r.is_err(), "expired budget must abort the scan");
    }
    #[test]
    fn entropy_memo_matches_direct_expression() {
        let mut memo = EntropyMemo::default();
        memo.ensure(ENTROPY_MEMO_CAP + 50);
        assert_eq!(memo.rows, ENTROPY_MEMO_CAP + 1, "the memo stops at its cap");
        for n in 0..=ENTROPY_MEMO_CAP {
            for c in 0..=n {
                let memoized = memo.term(c, n);
                if c == 0 {
                    // 0·ln 0 = 0, so a zero count adds nothing to a sum.
                    assert_eq!(memoized.to_bits(), 0.0f64.to_bits(), "n={n}");
                } else {
                    let p = c as f64 / n as f64;
                    let direct = -p * p.ln();
                    assert_eq!(memoized.to_bits(), direct.to_bits(), "c={c} n={n}");
                }
            }
        }
    }

    /// splitmix64: a self-contained generator for the conformance data.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(state: &mut u64, n: usize) -> usize {
        (mix(state) % n as u64) as usize
    }

    /// `n_cat` categorical features (arity 1–5, about 10% missing codes)
    /// and one real column at a random schema position, over `n_rows` rows.
    fn conformance_data(n_cat: usize, n_rows: usize, state: &mut u64) -> Dataset {
        let real_at = below(state, n_cat + 1);
        let mut b = DatasetBuilder::new();
        for j in 0..=n_cat {
            if j == real_at {
                let values = (0..n_rows).map(|_| below(state, 7) as f64 * 0.5 - 1.0).collect();
                b = b.real("real", values);
                continue;
            }
            let arity = 1 + below(state, 5) as u32;
            let codes = (0..n_rows)
                .map(|_| {
                    if below(state, 10) == 0 {
                        MISSING_CODE
                    } else {
                        below(state, arity as usize) as u32
                    }
                })
                .collect();
            b = b.categorical(format!("cat{j}"), arity, codes);
        }
        b.build()
    }

    /// A random subset of `0..n` of at least `min` rows, in random order.
    fn shuffled_subset(state: &mut u64, n: usize, min: usize) -> Vec<usize> {
        let mut rows: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rows.swap(i, below(state, i + 1));
        }
        let keep = min.min(n) + below(state, n - min.min(n) + 1);
        rows.truncate(keep);
        rows
    }

    /// Both searches on one node of two views, as comparable bit patterns.
    #[allow(clippy::type_complexity)]
    fn both_kinds(
        x: &dyn DesignView,
        samples: &[usize],
        labels: &[u32],
        targets: &[f64],
        classes: usize,
        min_leaf: usize,
    ) -> [Option<(usize, u64, usize, u64)>; 2] {
        let bits = |c: Option<SplitChoice>| {
            c.map(|c| (c.feature, c.threshold.to_bits(), c.n_left, c.gain.to_bits()))
        };
        let budget = TargetBudget::unlimited();
        let mut s = SplitScratch::new(classes);
        let class = classification_split(samples, x, &|r| labels[r], classes, min_leaf, &mut s, &budget);
        let reg =
            best_regression_split(samples, x, &|r| targets[r], min_leaf, 1e-12, &mut s, &budget);
        [bits(class.unwrap()), bits(reg.unwrap())]
    }

    /// A tree node with its threshold as bits, so arenas compare bit for bit.
    #[derive(Debug, PartialEq)]
    enum NodeBits {
        Leaf(u32),
        Split { feature: usize, threshold: u64, left: usize, right: usize },
    }

    fn arena_bits(nodes: &[Node<u32>]) -> Vec<NodeBits> {
        nodes
            .iter()
            .map(|node| match *node {
                Node::Leaf(class) => NodeBits::Leaf(class),
                Node::Split { feature, threshold, left, right } => {
                    NodeBits::Split { feature, threshold: threshold.to_bits(), left, right }
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Single searches, and whole trees grown with count tables carried
        /// from parent to children (the larger child derived by
        /// subtraction), against the gather scan on owned matrices; then a
        /// problem trainer's fits, fold roots derived from its full root,
        /// and the views it must count directly.
        #[test]
        fn count_tables_match_the_gather_scan(
            n_cat in 1usize..7,
            n_rows in 6usize..40,
            classes in 2usize..5,
            min_leaf in 1usize..4,
            max_depth in 1usize..11,
            min_split in 1usize..9,
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let data = conformance_data(n_cat, n_rows, &mut state);
            let n_features = data.n_features();
            let all: Vec<usize> = (0..n_features).collect();
            // Every feature but (sometimes) one, so views have gaps.
            let drop = below(&mut state, n_features + 1);
            let inputs: Vec<usize> = all.iter().copied().filter(|&j| j != drop).collect();
            let pool = PoolSpec::fit(&data, &all, true).encode(&data);
            let pooled = pool.view(&inputs);
            let owned = DesignSpec::fit(&data, &inputs, true).encode(&data);
            prop_assert!(owned.cat_blocks().is_none());
            let n_cat_inputs = inputs
                .iter()
                .filter(|&&j| matches!(data.column(j), Column::Categorical { .. }))
                .count();
            prop_assert_eq!(pooled.cat_blocks().map_or(0, |b| b.blocks().len()), n_cat_inputs);

            let rows1 = shuffled_subset(&mut state, n_rows, 4);
            let rows2 = shuffled_subset(&mut state, rows1.len(), 4);
            let p1 = RowSubset::new(&pooled, &rows1);
            let p2 = RowSubset::new(&p1, &rows2[..]);
            let o1 = RowSubset::new(&owned, &rows1);
            let o2 = RowSubset::new(&o1, &rows2[..]);
            let levels: [(&dyn DesignView, &dyn DesignView); 3] =
                [(&pooled, &owned), (&p1, &o1), (&p2, &o2)];
            for (level, (tables, scan)) in levels.into_iter().enumerate() {
                let n = tables.n_rows();
                // Labels follow one categorical input most of the time, so
                // indicator splits have real gain to compete on.
                let guide = tables.cat_blocks().map(|b| b.blocks()[0]);
                let mut rows = Vec::new();
                if let Some(blocks) = tables.cat_blocks() {
                    blocks.resolve_rows(&(0..n).collect::<Vec<_>>(), &mut rows);
                }
                let labels: Vec<u32> = (0..n)
                    .map(|i| match guide {
                        Some(g) if below(&mut state, 4) != 0 => {
                            (g.codes[rows[i]] as usize).min(g.arity) as u32 % classes as u32
                        }
                        _ => below(&mut state, classes) as u32,
                    })
                    .collect();
                // Noise with a full mantissa, so moment sums round and a
                // different fold order would show in the gain bits.
                let targets: Vec<f64> = labels
                    .iter()
                    .map(|&l| l as f64 + (mix(&mut state) >> 11) as f64 * 1e-16 - 0.45)
                    .collect();
                let samples = shuffled_subset(&mut state, n, 2);
                let a = both_kinds(tables, &samples, &labels, &targets, classes, min_leaf);
                let b = both_kinds(scan, &samples, &labels, &targets, classes, min_leaf);
                prop_assert_eq!(a, b, "level {}: classification, regression", level);

                let trainer = ClassificationTreeTrainer::new(TreeConfig {
                    max_depth,
                    min_samples_split: min_split,
                    min_samples_leaf: min_leaf,
                    ..TreeConfig::default()
                });
                let arity = classes as u32;
                let fitted = |trainer: &dyn ClassifierTrainer<Model = ClassificationTree>,
                              x: &dyn DesignView,
                              y: &[u32]| {
                    arena_bits(trainer.train(x, y, arity).model.nodes())
                };
                let grown = fitted(&trainer, tables, &labels);
                let scanned = fitted(&trainer, scan, &labels);
                prop_assert_eq!(&grown, &scanned, "level {}: whole tree", level);

                // One problem's fits: its whole view, first or last, and
                // (views stack two row subsets at most) a k-fold plan's
                // training folds, each root derived from the full one.
                let problem = trainer.for_problem(tables, &labels, arity);
                let whole_first = below(&mut state, 2) == 0;
                let whole = || fitted(&problem, tables, &labels);
                if whole_first || level == 2 {
                    prop_assert_eq!(&whole(), &grown, "level {}: problem", level);
                }
                if level == 2 {
                    continue;
                }
                let folds = k_fold(n, 2 + below(&mut state, 5), mix(&mut state));
                for (i, fold) in folds.iter().enumerate() {
                    let rows = &fold.train;
                    let y: Vec<u32> = rows.iter().map(|&r| labels[r]).collect();
                    let view = RowSubset::new(tables, &rows[..]);
                    let want = fitted(&trainer, &RowSubset::new(scan, &rows[..]), &y);
                    let plain = fitted(&trainer, &view, &y);
                    prop_assert_eq!(&plain, &want, "level {} fold {}: plain", level, i);
                    let derived = fitted(&problem, &view, &y);
                    prop_assert_eq!(&derived, &want, "level {} fold {}: derived", level, i);

                    // Views the problem must count directly: a label that
                    // disagrees with the problem's, a repeated row, and rows
                    // outside the problem (a fold's problem fitted on the
                    // whole view).
                    let mut relabelled = y.clone();
                    let at = below(&mut state, y.len());
                    relabelled[at] = (relabelled[at] + 1) % arity;
                    let want = fitted(&trainer, &RowSubset::new(scan, &rows[..]), &relabelled);
                    let got = fitted(&problem, &view, &relabelled);
                    prop_assert_eq!(&got, &want, "level {} fold {}: relabelled", level, i);
                    let mut repeated = rows.clone();
                    repeated.push(rows[below(&mut state, rows.len())]);
                    let y_repeated: Vec<u32> = repeated.iter().map(|&r| labels[r]).collect();
                    let want = fitted(&trainer, &RowSubset::new(scan, &repeated[..]), &y_repeated);
                    let got = fitted(&problem, &RowSubset::new(tables, &repeated[..]), &y_repeated);
                    prop_assert_eq!(&got, &want, "level {} fold {}: repeated row", level, i);
                    let fold_problem = trainer.for_problem(&view, &y, arity);
                    let got = fitted(&fold_problem, tables, &labels);
                    prop_assert_eq!(&got, &grown, "level {} fold {}: outside", level, i);
                }
                if !whole_first {
                    prop_assert_eq!(&whole(), &grown, "level {}: problem", level);
                }
            }
        }
    }

    /// Eighty ternary SNPs over 64 rows and nothing else, with its inputs
    /// and row-alternating labels: every budget poll of a count pass falls
    /// between blocks (64 × 80 > SCAN_CHECK_ELEMS).
    fn eighty_block_pool() -> (EncodedPool, Vec<usize>, Vec<u32>) {
        let n_rows = 64usize;
        let mut b = DatasetBuilder::new();
        for j in 0..80 {
            let codes = (0..n_rows).map(|i| ((i * 7 + j) % 3) as u32).collect();
            b = b.categorical(format!("snp{j}"), 3, codes);
        }
        let data = b.build();
        let all: Vec<usize> = (0..data.n_features()).collect();
        let pool = PoolSpec::fit(&data, &all, true).encode(&data);
        let ys = (0..n_rows).map(|i| (i % 2) as u32).collect();
        (pool, all, ys)
    }

    #[test]
    fn block_pass_trips_expired_budget() {
        // Every block pass polls: the classification count, the subtraction
        // that derives a larger child's tables, and the regression search.
        let (pool, all, ys) = eighty_block_pool();
        let view = pool.view(&all);
        assert_eq!(view.cat_blocks().map(|b| b.blocks().len()), Some(80));
        let samples: Vec<usize> = (0..ys.len()).collect();
        let budget =
            crate::budget::RunBudget::with_deadline(std::time::Duration::ZERO).start_target();
        let mut s = SplitScratch::new(2);
        let mut tables = Vec::new();
        let counted = count_tables(&samples, &view, &|r| ys[r], 2, &mut s, &mut tables, &budget);
        assert_eq!(counted, Err(TrainError::DeadlineExceeded));
        let full = vec![1u32; 80 * 3 * 2];
        let derived = subtract_tables(&mut full.clone(), &full, &budget);
        assert_eq!(derived, Err(TrainError::DeadlineExceeded));
        let reg =
            best_regression_split(&samples, &view, &|r| ys[r] as f64, 1, 1e-12, &mut s, &budget);
        assert_eq!(reg, Err(TrainError::DeadlineExceeded));
    }

    #[test]
    fn tree_trainers_trip_expired_budget_on_block_views() {
        let (pool, all, ys) = eighty_block_pool();
        let view = pool.view(&all);
        let budget =
            crate::budget::RunBudget::with_deadline(std::time::Duration::ZERO).start_target();
        let class = ClassificationTreeTrainer::default().fit(&view, &ys, 2, None, &budget);
        assert_eq!(class.err(), Some(TrainError::DeadlineExceeded));
        // The problem trainer trips in its one-time full count, and in
        // deriving a fold's root once that count exists.
        let trainer = ClassificationTreeTrainer::default();
        let problem = trainer.for_problem(&view, &ys, 2);
        let fold: Vec<usize> = (8..ys.len()).collect();
        let fold_view = RowSubset::new(&view, &fold);
        let fold_ys: Vec<u32> = fold.iter().map(|&r| ys[r]).collect();
        let tripped = problem.fit(&fold_view, &fold_ys, 2, None, &budget);
        assert_eq!(tripped.err(), Some(TrainError::DeadlineExceeded));
        let unlimited = TargetBudget::unlimited();
        let whole = problem.fit(&view, &ys, 2, None, &unlimited);
        whole.expect("an unlimited fit counts the full root");
        let tripped = problem.fit(&fold_view, &fold_ys, 2, None, &budget);
        assert_eq!(tripped.err(), Some(TrainError::DeadlineExceeded));
        let targets: Vec<f64> = ys.iter().map(|&y| y as f64).collect();
        let reg = RegressionTreeTrainer::default().fit(&view, &targets, None, &budget);
        assert_eq!(reg.err(), Some(TrainError::DeadlineExceeded));
    }
}
