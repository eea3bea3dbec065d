//! The dual coordinate-descent solver behind the linear SVM trainers.
//!
//! The per-feature SVR/SVC fleet executes thousands of independent dual
//! coordinate-descent solves per FRaC run. Every one of them runs the same
//! epoch loop, `sweep`, monomorphized over two parts:
//!
//! * a **coordinate rule** (`CoordRule`): ε-SVR's Newton step on a dual
//!   in [−C, C] ([`crate::svr`]), or binary hinge-loss SVC's on [0, C]
//!   ([`crate::svc`]) — the gradient, shrink test, violation and step;
//! * a **margin source** (`Margins`): the primal iterate `w` read with
//!   one row dot per visit (`Primal`, over exact sequential, blocked view
//!   or packed rows), or the Gram dual image read in O(1) (`GramImage`).
//!
//! The loop owns everything else: the warm-start fold-in, the per-epoch
//! seeded shuffle, active-set shrinking with its unshrink-and-recheck pass,
//! the stopping rule, budget polls and visit counting. `SolvePlan` picks
//! the path once per trainer call:
//!
//! * [`SolverMode::Fast`] (the default) — liblinear-style active-set
//!   **shrinking** (bound-pinned coordinates whose projected gradient
//!   exceeds the previous epoch's worst violation are dropped from the
//!   sweep, with a full unshrink-and-recheck pass before convergence is
//!   declared), optional **warm-started duals** via the trainers'
//!   `fit` warm argument, blocked kernels, and per solve the
//!   primal or Gram source ([`SolverStrategy`], [`GramPolicy`]). Iteration
//!   order differs from the reference, so results agree with it only to
//!   solver tolerance — the equivalence tests gate on NS-score tolerance
//!   and identical anomaly rankings, not bits.
//! * [`SolverMode::Strict`] — the reference solver: full sweeps in the
//!   reference `SliceRandom::shuffle` order, the primal source over exact
//!   sequential kernels, no shrinking and no warm start. This is the
//!   reference the fast path is validated against, and the path to use
//!   when bit-reproducibility across machines matters more than speed.
//!
//! [`stats`] exposes process-wide counters (solves, epochs, coordinate
//! visits, dense sweep slots) that every solve bumps once; the
//! `perfsnapshot` bench resets and snapshots them to report
//! epochs-to-converge and active-set occupancy per model family.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use crate::telemetry;
use crate::traits::TrainingCost;
use frac_dataset::split::derive_seed;
use frac_dataset::{DesignView, PackedDesign};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Row access of the [`Primal`] margin source.
///
/// Three implementors: [`frac_dataset::PackedDesign`] — rows gathered into
/// one contiguous buffer per solve, so the monomorphized hot loop makes a
/// single unsegmented kernel call per visit — `dyn DesignView`, the
/// zero-copy fallback for designs beyond the packing budget
/// ([`PackedDesign::MAX_ELEMS`]), and [`Exact`], the strict path's exact
/// sequential kernels. The first two use the blocked kernels.
pub(crate) trait SolverRows {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of design columns.
    fn n_cols(&self) -> usize;
    /// `init + w · row(r)`.
    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64;
    /// `Σ_j row(r)[j]²`.
    fn sq_norm(&self, r: usize) -> f64;
    /// `w += alpha · row(r)` (bit-identical across kernels and tiers).
    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]);
}

impl SolverRows for PackedDesign {
    fn n_rows(&self) -> usize {
        PackedDesign::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        PackedDesign::n_cols(self)
    }

    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.row_dot_blocked(r, w, init)
    }

    fn sq_norm(&self, r: usize) -> f64 {
        self.row_sq_norm_blocked(r)
    }

    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.axpy_row_blocked(r, alpha, w);
    }
}

impl SolverRows for dyn DesignView + '_ {
    fn n_rows(&self) -> usize {
        DesignView::n_rows(self)
    }

    fn n_cols(&self) -> usize {
        DesignView::n_cols(self)
    }

    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.row_dot_blocked(r, w, init)
    }

    fn sq_norm(&self, r: usize) -> f64 {
        self.row_sq_norm_blocked(r)
    }

    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.axpy_row_blocked(r, alpha, w);
    }
}

/// A design view read through its exact sequential kernels (ascending
/// column folds): the strict path's rows.
pub(crate) struct Exact<'a>(pub(crate) &'a dyn DesignView);

impl SolverRows for Exact<'_> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }

    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.0.row_dot_acc(r, w, init)
    }

    fn sq_norm(&self, r: usize) -> f64 {
        self.0.row_sq_norm(r)
    }

    fn axpy(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.0.axpy_row(r, alpha, w);
    }
}

/// Gather `x` for a fast solve, or `None` when it exceeds
/// [`PackedDesign::MAX_ELEMS`] (the caller keeps the zero-copy view path).
///
/// When a solve context is active (see [`pack_cache`]) and a cached gather
/// matches it exactly, the cached [`PackedDesign`] is reused instead of
/// re-gathered — ensemble members and one-vs-rest classes of the same
/// (target, fold) problem then share one gather.
pub(crate) fn pack_for_solve(x: &dyn DesignView) -> Option<Rc<PackedDesign>> {
    if let Some(hit) = pack_cache::lookup(x.n_rows(), x.n_cols()) {
        stats::record_pack_reuse();
        return Some(hit);
    }
    let rc = Rc::new(PackedDesign::from_view(x)?);
    pack_cache::store(&rc);
    Some(rc)
}

/// The Gram matrix for `packed` with the bias augmentation folded in, and
/// the number of row-pair dots this call computed (the caller charges 2d
/// flops for each). When `packed` is a gather of the open fit scope (see
/// [`pack_cache`]), Q is gathered from the scope's one Q over all its rows,
/// so a solve computes only the entries no earlier solve of the scope
/// covered; otherwise Q is built in full. The budget is polled once per Q
/// row either way.
pub(crate) fn gram_for_solve(
    packed: &Rc<PackedDesign>,
    bias_sq: f64,
    budget: &TargetBudget,
) -> Result<(GramMatrix, u64), TrainError> {
    if let Some(gathered) = pack_cache::gather_gram(packed, bias_sq, || budget.check())? {
        return Ok(gathered);
    }
    let gram = GramMatrix::build(packed, bias_sq, budget)?;
    stats::record_gram_build();
    let n = packed.n_rows() as u64;
    Ok((gram, n * (n + 1) / 2))
}

/// Which margin source a fast solve uses.
///
/// * `Primal` — maintain `w = Xᵀα` and evaluate each gradient with an
///   O(d) row dot (`Primal`).
/// * `Gram` — precompute `Q = XXᵀ` (bias folded in) before the solve and
///   maintain the dual image, making a coordinate visit an O(1) gradient
///   read plus an O(n) row-of-Q update; `w` is reconstructed once at
///   convergence (`GramImage`). Wins when n ≪ d and Q fits in cache.
/// * `Auto` — pick per solve via [`GramPolicy::should_use_gram`].
///
/// Honoured only by [`SolverMode::Fast`]; the strict reference path always
/// runs the exact sequential primal sweep. Gram and primal converge to the
/// same objective (the equivalence gate checks 1e-8), but their rounding
/// differs — like fast-vs-strict, agreement is to solver tolerance, not
/// bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStrategy {
    /// Cost-model selection per solve (default).
    #[default]
    Auto,
    /// Always use the Gram-matrix dual image (falls back to primal only
    /// when the design cannot be packed).
    Gram,
    /// Always maintain the primal iterate.
    Primal,
}

impl SolverStrategy {
    /// Stable display / serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverStrategy::Auto => "auto",
            SolverStrategy::Gram => "gram",
            SolverStrategy::Primal => "primal",
        }
    }

    /// Whether a packed fast solve of `n` rows × `d` columns takes the
    /// Gram source.
    fn takes_gram(self, n: usize, d: usize) -> bool {
        match self {
            SolverStrategy::Primal => false,
            SolverStrategy::Gram => true,
            SolverStrategy::Auto => gram_policy().should_use_gram(n, d),
        }
    }
}

impl std::fmt::Display for SolverStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `solver_strategy` telemetry bit: a fast solve ran the primal loop.
pub const STRATEGY_PRIMAL_CODE: u64 = 1;
/// `solver_strategy` telemetry bit: a fast solve ran the Gram dual loop.
pub const STRATEGY_GRAM_CODE: u64 = 2;
// Bits 4 and 8 flagged the deleted f32-compute mode. They stay retired so
// old traces never decode to a wrong name (FORMATS.md §5).

/// Human name(s) for a `solver_strategy` telemetry mask (the OR of the
/// `STRATEGY_*_CODE` bits), comma-joined in flag order. `None` for an
/// empty mask or one with unknown bits.
pub fn describe_strategy_mask(mask: u64) -> Option<String> {
    const FLAGS: [(u64, &str); 2] =
        [(STRATEGY_PRIMAL_CODE, "primal"), (STRATEGY_GRAM_CODE, "gram")];
    const KNOWN: u64 = STRATEGY_PRIMAL_CODE | STRATEGY_GRAM_CODE;
    if mask == 0 || mask & !KNOWN != 0 {
        return None;
    }
    let names: Vec<&str> =
        FLAGS.iter().filter(|&&(bit, _)| mask & bit != 0).map(|&(_, name)| name).collect();
    Some(names.join(","))
}

/// Cost model deciding when [`SolverStrategy::Auto`] takes the Gram loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GramPolicy {
    /// Use Gram only when `n² · 8` bytes fit this budget (inclusive), so Q
    /// stays L1/L2-resident. Default 1 MiB (n ≤ 362).
    pub cache_budget_bytes: usize,
    /// Use Gram only when `d ≥ ratio · n`: below this the O(n) row-of-Q
    /// update is no cheaper than the O(d) primal dot and the build never
    /// amortizes. Default 0.25: per-visit arithmetic alone would put the
    /// crossover near d ≈ n, but a Gram visit whose Newton step is null
    /// costs O(1) (gradient read, no row update) where the primal loop
    /// still pays its O(d) dot, so the measured crossover
    /// (`BENCH_gram.json` d/n sweep) sits well below 1.
    pub crossover_ratio: f64,
}

impl Default for GramPolicy {
    fn default() -> Self {
        GramPolicy { cache_budget_bytes: 1 << 20, crossover_ratio: 0.25 }
    }
}

impl GramPolicy {
    /// Whether a fast solve of `n` rows × `d` columns should take the Gram
    /// loop. The byte test is inclusive: `n·n·8 == cache_budget_bytes`
    /// still fits.
    pub fn should_use_gram(&self, n: usize, d: usize) -> bool {
        n > 0
            && d > 0
            && n.saturating_mul(n).saturating_mul(8) <= self.cache_budget_bytes
            && (d as f64) >= self.crossover_ratio * (n as f64)
    }
}

/// The auto-selection policy [`SolverStrategy::Auto`] applies: always
/// [`GramPolicy::default`].
pub fn gram_policy() -> GramPolicy {
    GramPolicy::default()
}

/// A solve's Gram matrix `Q = XXᵀ + bias·𝟙` — n² doubles, symmetric, with
/// the bias augmentation folded into every entry so the dual loops never
/// special-case it. Each entry is one dispatched SIMD dot of two packed
/// rows (upper triangle mirrored). Outside a fit scope a solve builds it
/// in O(n²d/2); inside one, it is gathered from the scope's Q, whose
/// entries are computed once per fit scope (see [`pack_cache`]), or, for
/// an all-but-target problem, downdated from the fit's [`SharedGram`].
#[derive(Debug)]
pub struct GramMatrix {
    q: Vec<f64>,
    n: usize,
}

impl GramMatrix {
    /// Build from packed rows, polling `budget` once per Gram row.
    pub fn build(
        x: &PackedDesign,
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<GramMatrix, TrainError> {
        Self::from_rows(x.n_rows(), |r| x.row(r), bias_sq, budget)
    }

    /// Entry (i, j) is `dot_blocked(row(i), row(j), bias_sq)`, the lower
    /// triangle computed and mirrored; `budget` is polled once per row.
    fn from_rows<'r>(
        n: usize,
        row: impl Fn(usize) -> &'r [f64],
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<GramMatrix, TrainError> {
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            budget.check()?;
            let ri = row(i);
            for j in 0..=i {
                let v = frac_dataset::kernels::dot_blocked(ri, row(j), bias_sq);
                q[i * n + j] = v;
                q[j * n + i] = v;
            }
        }
        Ok(GramMatrix { q, n })
    }

    /// Number of rows (= columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `i` of Q as one contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.q[i * self.n..(i + 1) * self.n]
    }

    /// `Q_ii` (the dual coordinate's curvature, bias included).
    #[inline]
    pub fn diag(&self, i: usize) -> f64 {
        self.q[i * self.n + i]
    }
}

/// Contiguous rows a [`SharedGram`] is built over: one per training row,
/// each holding every encoded column of the data set in pool column order.
pub trait GramRows: Send + Sync {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Row `r`.
    fn row(&self, r: usize) -> &[f64];
}

impl GramRows for frac_dataset::EncodedPool {
    fn n_rows(&self) -> usize {
        frac_dataset::EncodedPool::n_rows(self)
    }

    fn row(&self, r: usize) -> &[f64] {
        frac_dataset::EncodedPool::row(self, r)
    }
}

impl GramRows for frac_dataset::DesignMatrix {
    fn n_rows(&self) -> usize {
        frac_dataset::DesignMatrix::n_rows(self)
    }

    fn row(&self, r: usize) -> &[f64] {
        frac_dataset::DesignMatrix::row(self, r)
    }
}

/// One fit's `G = [X | bias]·[X | bias]ᵀ` over every training row and every
/// encoded column, shared by the fit's threads and built on first use.
///
/// In full FRaC a target is predicted from every other column, so its Q is
/// G restricted to the solve's rows minus the outer product of each of the
/// target's encoded columns ([`SharedGram::downdate`]): one rank-1 term for
/// a real target, one per indicator for a one-hot one. Each entry of G is
/// one `kernels::dot_blocked` call over two whole rows, so its bits depend
/// neither on the thread count nor on the thread that builds it, and every
/// process that fits a target — a shard worker, a resume — computes the
/// same G and the same downdated Q.
pub struct SharedGram {
    rows: Arc<dyn GramRows>,
    /// Each G built so far with the bias² bits it folds in (an SVR and an
    /// SVC family of one fit may differ in bias).
    built: Mutex<Vec<(u64, Arc<GramMatrix>)>>,
    build_dots: AtomicU64,
}

impl SharedGram {
    /// A G over `rows`, not yet built.
    pub fn new(rows: Arc<dyn GramRows>) -> Self {
        SharedGram { rows, built: Mutex::new(Vec::new()), build_dots: AtomicU64::new(0) }
    }

    /// G with `bias_sq` folded in. The first caller builds it, polling
    /// `budget` once per row, while later callers wait for it; a build cut
    /// short by its budget stores nothing, so the next caller starts over.
    /// `Ok(None)` when G would pass the per-thread byte cap a scope Q is
    /// held to (see [`pack_cache`]): the caller keeps a per-target Q.
    pub fn gram(
        &self,
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<Option<Arc<GramMatrix>>, TrainError> {
        let n = self.rows.n_rows();
        if n.saturating_mul(n).saturating_mul(std::mem::size_of::<f64>()) > pack_cache::MAX_BYTES {
            return Ok(None);
        }
        let bits = bias_sq.to_bits();
        // A panic elsewhere cannot leave a half-built G in the list: only
        // finished ones are pushed.
        let mut built = self.built.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, g)) = built.iter().find(|(b, _)| *b == bits) {
            return Ok(Some(Arc::clone(g)));
        }
        stats::record_gram_build();
        let g = Arc::new(GramMatrix::from_rows(n, |r| self.rows.row(r), bias_sq, budget)?);
        self.build_dots.fetch_add((n * (n + 1) / 2) as u64, Ordering::Relaxed);
        built.push((bits, Arc::clone(&g)));
        Ok(Some(g))
    }

    /// Whether `cols` hold at most half of each of `rows`' squared norms
    /// in G: `G_aa ≤ 2·Q_aa`, with `Q_aa` the downdated diagonal. Under it
    /// a downdated entry's rounding error is within twice a direct
    /// build's; where a target's own columns dominate a row (an unscaled
    /// feature far larger than the rest), the subtraction would cancel
    /// most of G's bits and the caller keeps a per-target Q.
    pub fn admits(&self, g: &GramMatrix, cols: std::ops::Range<usize>, rows: &[usize]) -> bool {
        rows.iter().all(|&a| {
            let ra = &self.rows.row(a)[cols.clone()];
            let gaa = g.diag(a);
            gaa <= 2.0 * downdated(gaa, ra, ra)
        })
    }

    /// Q over `rows` of G: entry (i, j) is `G[rows[i]][rows[j]]` less
    /// `x_c[rows[i]]·x_c[rows[j]]` for each column `c` of `cols` in
    /// order, each product rounded before its subtraction, so the entry
    /// has the same bits on every kernel tier. Polls `budget` once per row.
    pub fn downdate(
        &self,
        g: &GramMatrix,
        cols: std::ops::Range<usize>,
        rows: &[usize],
        budget: &TargetBudget,
    ) -> Result<GramMatrix, TrainError> {
        let (n, k) = (rows.len(), cols.len());
        let mut xt = Vec::with_capacity(n * k);
        for &a in rows {
            xt.extend_from_slice(&self.rows.row(a)[cols.clone()]);
        }
        let mut q = vec![0.0f64; n * n];
        for (i, &a) in rows.iter().enumerate() {
            budget.check()?;
            let (ga, xa) = (g.row(a), &xt[i * k..(i + 1) * k]);
            for (j, &b) in rows[..=i].iter().enumerate() {
                let v = downdated(ga[b], xa, &xt[j * k..(j + 1) * k]);
                q[i * n + j] = v;
                q[j * n + i] = v;
            }
        }
        Ok(GramMatrix { q, n })
    }

    /// Flops spent building G: two per encoded column of each entry, over
    /// every build that finished.
    pub fn build_flops(&self) -> u64 {
        let d = if self.rows.n_rows() == 0 { 0 } else { self.rows.row(0).len() as u64 };
        self.build_dots.load(Ordering::Relaxed) * d * 2
    }
}

/// `g − Σ_c a[c]·b[c]`, subtracting in column order.
#[inline]
fn downdated(g: f64, a: &[f64], b: &[f64]) -> f64 {
    let mut v = g;
    for (x, y) in a.iter().zip(b) {
        v -= x * y;
    }
    v
}

/// Per-thread cache of solve-scoped [`PackedDesign`] gathers and the fit
/// scope's one [`GramMatrix`], and the scope's handle on its fit's
/// [`SharedGram`].
///
/// An all-but-target problem (its inputs are every encoded column of the
/// data set except its target's) is handed to its scope with a
/// [`pack_cache::Downdate`]: the fit's shared G, the target's columns in G's rows, and
/// the target's present rows. A fast Gram solve of such a scope takes its Q
/// from G — restricted to the solve's rows, less the outer product of each
/// target column — when the target passes [`SharedGram::admits`] over its
/// present rows; it gathers no design and fills no scope Q, and its `w` is
/// recovered through the solve's own view. Every other solve, and every
/// target the guard rejects, takes the path below.
///
/// The fit driver solves each fitted predictor problem several times —
/// once per CV fold and once on the full data, each once per one-vs-rest
/// class for SVC — over row sets drawn from the same design. It brackets
/// those solves with [`pack_cache::begin_scope`] (one scope per fitted
/// predictor problem, open while its guard lives) and
/// [`pack_cache::set_rows`] (the exact train-row indices of the upcoming
/// solve); `pack_for_solve` then reuses a cached gather only when the
/// stored row indices and the view shape match exactly, so a stale or
/// missing context degrades to a fresh gather, never a wrong one.
///
/// The scope also keeps one Q over its row-index space: entry (a, b) is
/// `dot_blocked(row a, row b, bias²)` over the packed rows. Every fold's
/// rows are a subset of the final fit's, so a Gram solve gathers its Q
/// from the scope Q and computes only the entries no earlier solve of the
/// scope covered. Both kernel tiers multiply lane-wise, so (a, b) and
/// (b, a) give the same bits, and every solve sees exactly the Q a
/// from-scratch build of its own rows would give.
///
/// Thread-local on purpose: the fit fleet runs one target per pool claim,
/// and a thread finishes a claimed target before it claims the next, so
/// entries never cross targets mid-problem, and `Rc` keeps the hot path
/// free of atomics.
///
/// The pool's threads are resident, so this state outlives the fit that
/// filled it, but no value can go stale: every entry and the scope Q
/// belong to one scope key, which hashes a per-fit nonce, and
/// [`pack_cache::begin_scope`] drops them all when the key changes, so a
/// later fit on the same thread reuses nothing from an earlier one. Only
/// the memory stays, at most 16 MiB per thread, until that thread's next
/// scope change.
pub mod pack_cache {
    use super::{stats, GramMatrix, SharedGram};
    use crate::budget::TargetBudget;
    use crate::fault::TrainError;
    use frac_dataset::PackedDesign;
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::rc::Rc;
    use std::sync::Arc;

    /// Byte cap per thread across packed buffers and the scope Q; the
    /// oldest packs are evicted past it, and a scope Q that alone would
    /// pass it is never built.
    pub(crate) const MAX_BYTES: usize = 16 << 20;

    struct Entry {
        slot: u64,
        rows: Vec<usize>,
        packed: Rc<PackedDesign>,
    }

    impl Entry {
        fn bytes(&self) -> usize {
            self.packed.approx_bytes() + self.rows.len() * std::mem::size_of::<usize>()
        }
    }

    /// The scope's Q, `dim × dim` over the row indices `set_rows` declares,
    /// filled lazily: `filled[a·dim + b]` marks the entries already
    /// computed. Each entry is final when written, so a solve cut short by
    /// its budget leaves only exact entries behind.
    struct ScopeGram {
        bias_bits: u64,
        n_cols: usize,
        dim: usize,
        q: Vec<f64>,
        filled: Vec<bool>,
    }

    impl ScopeGram {
        fn bytes(dim: usize) -> usize {
            dim * dim * (std::mem::size_of::<f64>() + std::mem::size_of::<bool>())
        }

        /// Widen to `dim` rows, keeping every filled entry.
        fn grow(&mut self, dim: usize) {
            if dim <= self.dim {
                return;
            }
            let mut q = vec![0.0f64; dim * dim];
            let mut filled = vec![false; dim * dim];
            for a in 0..self.dim {
                let (old, new) = (a * self.dim..(a + 1) * self.dim, a * dim..a * dim + self.dim);
                q[new.clone()].copy_from_slice(&self.q[old.clone()]);
                filled[new].copy_from_slice(&self.filled[old]);
            }
            self.q = q;
            self.filled = filled;
            self.dim = dim;
        }
    }

    /// What the fit driver hands the scope of an all-but-target problem:
    /// the fit's shared G, the target's encoded columns as a column range
    /// of G's rows, and the target's present rows (`present[p]` is the G
    /// row of the problem's row `p`, the index space `set_rows` declares).
    pub struct Downdate {
        /// The fit's shared G.
        pub gram: Arc<SharedGram>,
        /// The target's encoded columns in G's rows.
        pub cols: std::ops::Range<usize>,
        /// G row of each of the problem's rows.
        pub present: Vec<usize>,
    }

    struct ScopeDowndate {
        handed: Downdate,
        /// The guard's verdict over the present rows, per bias² bits.
        verdicts: Vec<(u64, bool)>,
    }

    struct State {
        /// Whether a scope's guard is alive: `set_rows` is inert otherwise,
        /// so code paths shared with direct trainer users (the CV drivers)
        /// can declare rows unconditionally without risking stale hits
        /// outside a scoped fit.
        open: bool,
        scope: u64,
        active: Option<(u64, Vec<usize>)>,
        entries: Vec<Entry>,
        gram: Option<ScopeGram>,
        /// The open scope's shared G, when it was handed one.
        downdate: Option<ScopeDowndate>,
    }

    thread_local! {
        static STATE: RefCell<State> = const {
            RefCell::new(State {
                open: false,
                scope: 0,
                active: None,
                entries: Vec::new(),
                gram: None,
                downdate: None,
            })
        };
    }

    /// Guard of an open solve scope; dropping it closes the scope. The
    /// cached gathers and Q stay, so reopening the same scope reuses them.
    #[must_use = "the scope closes when this guard drops"]
    pub struct Scope {
        _thread_bound: PhantomData<*const ()>,
    }

    impl Drop for Scope {
        fn drop(&mut self) {
            STATE.with(|s| {
                let mut s = s.borrow_mut();
                s.open = false;
                s.active = None;
                // The fit's G must not outlive its fit on a resident thread.
                s.downdate = None;
            });
        }
    }

    /// Open a solve scope (one per fitted predictor problem: target ×
    /// input set × fit) until the returned guard drops. A scope change
    /// drops every cached gather and the scope Q; the caller must pick
    /// keys that never collide across different designs (e.g. hash of a
    /// per-fit nonce, target id, and input set). `downdate` hands the scope
    /// its fit's shared G; the caller passes one only when every solve of
    /// the scope reads all of G's columns but `downdate.cols`, over the
    /// rows `downdate.present` maps.
    pub fn begin_scope(scope: u64, downdate: Option<Downdate>) -> Scope {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if s.scope != scope {
                s.scope = scope;
                s.entries.clear();
                s.gram = None;
            }
            s.open = true;
            s.active = None;
            s.downdate = downdate.map(|handed| ScopeDowndate { handed, verdicts: Vec::new() });
        });
        Scope { _thread_bound: PhantomData }
    }

    /// Declare the train rows of the next solve(s): `slot` names the fold
    /// (or final fit) and `rows` are the exact row indices, compared
    /// verbatim on lookup and indexing the scope Q. Stays active until the
    /// next `set_rows` / `clear_rows` / `begin_scope`, or the scope closes.
    pub fn set_rows(slot: u64, rows: &[usize]) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if s.open {
                s.active = Some((slot, rows.to_vec()));
            }
        });
    }

    /// Clear the active solve context (subsequent solves bypass the cache).
    pub fn clear_rows() {
        STATE.with(|s| s.borrow_mut().active = None);
    }

    pub(crate) fn lookup(n_rows: usize, n_cols: usize) -> Option<Rc<PackedDesign>> {
        STATE.with(|s| {
            let s = s.borrow();
            let (slot, rows) = s.active.as_ref()?;
            if rows.len() != n_rows {
                return None;
            }
            s.entries
                .iter()
                .find(|e| {
                    e.slot == *slot
                        && e.rows == *rows
                        && e.packed.n_rows() == n_rows
                        && e.packed.n_cols() == n_cols
                })
                .map(|e| Rc::clone(&e.packed))
        })
    }

    pub(crate) fn store(packed: &Rc<PackedDesign>) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let Some((slot, rows)) = s.active.clone() else { return };
            if rows.len() != packed.n_rows() {
                return;
            }
            s.entries.retain(|e| e.slot != slot);
            s.entries.push(Entry { slot, rows, packed: Rc::clone(packed) });
            let gram_bytes = s.gram.as_ref().map_or(0, |g| ScopeGram::bytes(g.dim));
            evict(&mut s.entries, gram_bytes);
        });
    }

    /// `packed`'s Q gathered from the scope Q, and the number of entries
    /// this call computed. `Ok(None)` when `packed` is not a gather stored
    /// in this scope, or when the scope Q would pass the byte cap; the
    /// caller then builds Q itself. A bias or width change replaces the
    /// scope Q. `poll` runs once per Q row; its error is returned as is.
    pub(crate) fn gather_gram(
        packed: &Rc<PackedDesign>,
        bias_sq: f64,
        mut poll: impl FnMut() -> Result<(), TrainError>,
    ) -> Result<Option<(GramMatrix, u64)>, TrainError> {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let State { entries, gram, .. } = &mut *s;
            let Some(rows) = entries.iter().find(|e| Rc::ptr_eq(&e.packed, packed)).map(|e| &e.rows)
            else {
                return Ok(None);
            };
            let dim = rows.iter().max().map_or(0, |&r| r + 1);
            if ScopeGram::bytes(dim) > MAX_BYTES {
                return Ok(None);
            }
            let (n, n_cols, bias_bits) = (packed.n_rows(), packed.n_cols(), bias_sq.to_bits());
            if gram.as_ref().is_some_and(|g| g.bias_bits != bias_bits || g.n_cols != n_cols) {
                *gram = None;
            }
            let sg = gram.get_or_insert_with(|| {
                stats::record_gram_build();
                ScopeGram { bias_bits, n_cols, dim: 0, q: Vec::new(), filled: Vec::new() }
            });
            sg.grow(dim);
            let mut q = vec![0.0f64; n * n];
            let mut dots = 0u64;
            for (i, &a) in rows.iter().enumerate() {
                poll()?;
                let ri = packed.row(i);
                for (j, &b) in rows[..=i].iter().enumerate() {
                    let ab = a * sg.dim + b;
                    if !sg.filled[ab] {
                        let v = frac_dataset::kernels::dot_blocked(ri, packed.row(j), bias_sq);
                        let ba = b * sg.dim + a;
                        sg.q[ab] = v;
                        sg.q[ba] = v;
                        sg.filled[ab] = true;
                        sg.filled[ba] = true;
                        dots += 1;
                    }
                    q[i * n + j] = sg.q[ab];
                    q[j * n + i] = sg.q[ab];
                }
            }
            let gram_bytes = ScopeGram::bytes(sg.dim);
            evict(entries, gram_bytes);
            Ok(Some((GramMatrix { q, n }, dots)))
        })
    }

    /// The next solve's Q downdated from the scope's shared G, and the
    /// flops the downdate cost (a multiply and a subtract per target
    /// column of each entry computed). `Ok(None)` — the caller takes a
    /// per-target Q — when the scope was handed no G, no rows of `n_rows`
    /// are declared, G would pass the byte cap, or the target fails the
    /// guard over its present rows. Building G polls `budget` once per G
    /// row, the downdate once per Q row; either error is returned as is.
    pub(crate) fn downdated_gram(
        n_rows: usize,
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<Option<(GramMatrix, u64)>, TrainError> {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let State { active, downdate, .. } = &mut *s;
            let (Some((_, rows)), Some(dd)) = (active.as_ref(), downdate.as_mut()) else {
                return Ok(None);
            };
            let present = &dd.handed.present;
            if rows.len() != n_rows || rows.iter().any(|&r| r >= present.len()) {
                return Ok(None);
            }
            let Some(g) = dd.handed.gram.gram(bias_sq, budget)? else { return Ok(None) };
            let (bits, cols) = (bias_sq.to_bits(), dd.handed.cols.clone());
            let admitted = match dd.verdicts.iter().find(|(b, _)| *b == bits) {
                Some(&(_, ok)) => ok,
                None => {
                    let ok = dd.handed.gram.admits(&g, cols.clone(), present);
                    dd.verdicts.push((bits, ok));
                    ok
                }
            };
            if !admitted {
                return Ok(None);
            }
            let g_rows: Vec<usize> = rows.iter().map(|&r| present[r]).collect();
            let q = dd.handed.gram.downdate(&g, cols.clone(), &g_rows, budget)?;
            let entries = (n_rows * (n_rows + 1) / 2) as u64;
            Ok(Some((q, entries * cols.len() as u64 * 2)))
        })
    }

    /// Drop the oldest packs while the cache, plus `gram_bytes` of scope
    /// Q, passes [`MAX_BYTES`]; the newest pack always stays.
    fn evict(entries: &mut Vec<Entry>, gram_bytes: usize) {
        let mut total: usize = gram_bytes + entries.iter().map(Entry::bytes).sum::<usize>();
        while total > MAX_BYTES && entries.len() > 1 {
            total -= entries.remove(0).bytes();
        }
    }
}

/// Fisher–Yates with multiply-shift index sampling (Lemire) — no integer
/// division. The fast solver paths shuffle the active set every epoch, so
/// the reference shuffle's rejection sampling (two 64-bit divisions per
/// element) is measurable next to a blocked dot over a short row. The
/// permutation is still a pure function of the RNG stream, just a
/// different one than `SliceRandom::shuffle` draws — covered by the fast
/// path's "iteration order differs from the reference" contract. Strict
/// keeps the reference shuffle.
fn shuffle_fast(v: &mut [usize], rng: &mut impl rand::RngCore) {
    for i in (1..v.len()).rev() {
        let j = (((rng.next_u64() as u128) * (i as u128 + 1)) >> 64) as usize;
        v.swap(i, j);
    }
}

/// Which coordinate-descent path [`crate::svr::SvrTrainer`] and
/// [`crate::svc::SvcTrainer`] use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Shrinking + warm starts + blocked kernels (default).
    #[default]
    Fast,
    /// The reference solver: full sweeps, exact sequential kernels.
    Strict,
}

/// The coordinate rule of a dual coordinate-descent solve: the half that
/// differs between ε-SVR ([`crate::svr`], duals on [−C, C]) and binary
/// hinge-loss SVC ([`crate::svc`], duals on [0, C]). [`sweep`] calls it on
/// every visit, monomorphized, so it costs no dispatch.
pub(crate) trait CoordRule {
    /// The box `(lo, hi)` warm-start duals are clamped into.
    fn bounds(&self) -> (f64, f64);
    /// Row i's coefficient in the margins for a dual value or change
    /// `dual` (SVR: `dual`; SVC: `dual·yᵢ`).
    fn coef(&self, i: usize, dual: f64) -> f64;
    /// Coordinate i's dual gradient, read from the margin source.
    fn grad<M: Margins>(&self, i: usize, m: &M) -> f64;
    /// The coordinate's projected-gradient violation (liblinear's stopping
    /// criterion), or `None` when it sits at a bound with its gradient
    /// pointing out of the box by more than `shrink`: the sweep then drops
    /// it until the next unshrink.
    fn violation(&self, dual: f64, g: f64, shrink: f64) -> Option<f64>;
    /// The step at curvature `h`: the new dual and row i's margin
    /// coefficient, or `None` when the dual stays. A zero coefficient sets
    /// the dual without moving the margins.
    fn step(&self, i: usize, dual: f64, g: f64, h: f64) -> Option<(f64, f64)>;
}

/// The margin source of a dual coordinate-descent solve: it keeps each
/// row's margin `w·xᵢ + w_bias·bias²` current as the duals move.
pub(crate) trait Margins {
    /// Number of rows, one dual each.
    fn n(&self) -> usize;
    /// `Q_ii`, the coordinate's curvature (bias included).
    fn curvature(&self, i: usize) -> f64;
    /// `off` plus row i's margin. [`Primal`] folds `off` (SVR passes −yᵢ)
    /// into its row dot's initial value, so the gradient is one fold with
    /// no extra rounding after it.
    fn margin(&self, i: usize, off: f64) -> f64;
    /// Move the margins by `coef ·` row i.
    fn update(&mut self, i: usize, coef: f64);
    /// Flops one visit costs: gradient read plus update.
    fn visit_flops(&self) -> u64;
    /// The primal weights and bias at `dual`, and the flops recovering
    /// them cost.
    fn into_primal(self, dual: &[f64], coef: impl Fn(usize, f64) -> f64) -> (Vec<f64>, f64, u64);
}

/// The primal margin source: maintains `w` (and its bias) and reads a
/// margin with one O(d) row dot. Its rows pick the kernels.
pub(crate) struct Primal<'r, R: SolverRows + ?Sized> {
    rows: &'r R,
    diag: Vec<f64>,
    w: Vec<f64>,
    w_bias: f64,
    bias_sq: f64,
}

impl<'r, R: SolverRows + ?Sized> Primal<'r, R> {
    pub(crate) fn new(rows: &'r R, bias_sq: f64) -> Self {
        let diag = (0..rows.n_rows()).map(|i| rows.sq_norm(i) + bias_sq).collect();
        Primal { rows, diag, w: vec![0.0; rows.n_cols()], w_bias: 0.0, bias_sq }
    }
}

impl<R: SolverRows + ?Sized> Margins for Primal<'_, R> {
    fn n(&self) -> usize {
        self.diag.len()
    }

    #[inline]
    fn curvature(&self, i: usize) -> f64 {
        self.diag[i]
    }

    #[inline]
    fn margin(&self, i: usize, off: f64) -> f64 {
        self.rows.dot(i, &self.w, off + self.w_bias * self.bias_sq)
    }

    #[inline]
    fn update(&mut self, i: usize, coef: f64) {
        self.rows.axpy(i, coef, &mut self.w);
        self.w_bias += coef * self.bias_sq;
    }

    fn visit_flops(&self) -> u64 {
        // The (d+1) augmented columns, touched twice at ~2 flops each.
        (self.w.len() as u64 + 1) * 4
    }

    fn into_primal(self, _: &[f64], _: impl Fn(usize, f64) -> f64) -> (Vec<f64>, f64, u64) {
        (self.w, self.w_bias, 0)
    }
}

/// The Gram margin source: maintains the dual image `Σ_j Q_ij·coef_j`,
/// which equals row i's margin because Q folds the bias into every entry.
/// A margin is an O(1) read and an update one O(n) row-of-Q axpy; `w` is
/// recovered once, from the nonzero duals, through its rows' axpy — packed
/// rows, or the solve's own view. Axpy works element by element and has the
/// same bits on every kernel and tier, so where the view's segments end
/// cannot change `w`.
pub(crate) struct GramImage<'a, R: SolverRows + ?Sized> {
    x: &'a R,
    q: &'a GramMatrix,
    img: Vec<f64>,
    bias_sq: f64,
}

impl<'a, R: SolverRows + ?Sized> GramImage<'a, R> {
    fn new(x: &'a R, q: &'a GramMatrix, bias_sq: f64) -> Self {
        GramImage { x, q, img: vec![0.0; q.n()], bias_sq }
    }
}

impl<R: SolverRows + ?Sized> Margins for GramImage<'_, R> {
    fn n(&self) -> usize {
        self.q.n()
    }

    #[inline]
    fn curvature(&self, i: usize) -> f64 {
        self.q.diag(i)
    }

    #[inline]
    fn margin(&self, i: usize, off: f64) -> f64 {
        self.img[i] + off
    }

    #[inline]
    fn update(&mut self, i: usize, coef: f64) {
        frac_dataset::kernels::axpy_blocked(coef, self.q.row(i), &mut self.img);
    }

    fn visit_flops(&self) -> u64 {
        // An (n+1)-entry row-of-Q axpy at ~4 flops per entry.
        (self.q.n() as u64 + 1) * 4
    }

    fn into_primal(self, dual: &[f64], coef: impl Fn(usize, f64) -> f64) -> (Vec<f64>, f64, u64) {
        let d = self.x.n_cols();
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        let mut nnz = 0u64;
        for (i, &v) in dual.iter().enumerate() {
            if v != 0.0 {
                let c = coef(i, v);
                self.x.axpy(i, c, &mut w);
                w_bias += c * self.bias_sq;
                nnz += 1;
            }
        }
        (w, w_bias, nnz * (d as u64 + 1) * 2)
    }
}

/// How a [`sweep`] orders and stops its epochs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Schedule {
    /// Epoch `e` shuffles with `derive_seed(seed, e)`.
    pub(crate) seed: u64,
    /// Epoch cap.
    pub(crate) max_epochs: usize,
    /// Converged when an epoch's worst violation falls below this.
    pub(crate) tolerance: f64,
    /// The strict reference: `SliceRandom::shuffle`, no shrinking, no warm
    /// start.
    pub(crate) strict: bool,
}

/// What one dual solve returns.
#[derive(Debug)]
pub(crate) struct Solved {
    /// Primal weights.
    pub(crate) w: Vec<f64>,
    /// Primal bias (zero without the bias augmentation).
    pub(crate) w_bias: f64,
    /// One dual per row, in row order.
    pub(crate) dual: Vec<f64>,
    /// Epochs run.
    pub(crate) epochs: u64,
    /// Coordinates visited (gradient evaluated): `epochs · n` when nothing
    /// shrinks.
    pub(crate) visits: u64,
    /// `STRATEGY_*` bits of the path the solve took (0 on the strict path,
    /// which predates the strategy telemetry).
    pub(crate) path_bits: u64,
    /// Flops performed: visits priced by the margin source, plus the
    /// primal recovery. Q entries are charged by [`SolvePlan::cost`].
    pub(crate) flops: u64,
}

/// The one dual coordinate-descent epoch loop behind every SVR and SVC
/// solve.
///
/// Warm-start duals are clamped into the rule's box and folded into the
/// margins first. Each epoch then polls `budget`, shuffles the active set
/// with a generator seeded from `(seed, epoch)` and visits it in order: a
/// coordinate pinned at a bound with its gradient beyond the previous
/// epoch's worst violation is swap-removed; any other gets its violation
/// recorded and its step taken. When an epoch's worst violation drops
/// below tolerance over the full set the solve has converged; over a shrunk
/// set, every coordinate comes back and shrinking is off for one
/// recheck epoch. The strict schedule never shrinks, so its active set is
/// always every coordinate.
pub(crate) fn sweep<R: CoordRule, M: Margins>(
    rule: &R,
    mut m: M,
    s: &Schedule,
    warm: Option<&[f64]>,
    budget: &TargetBudget,
) -> Result<Solved, TrainError> {
    let n = m.n();
    let mut dual = vec![0.0f64; n];
    if let Some(warm) = warm.filter(|_| !s.strict) {
        debug_assert_eq!(warm.len(), n, "warm-start dual length must match rows");
        let (lo, hi) = rule.bounds();
        for (i, &v) in warm.iter().enumerate() {
            // Any feasible point is a valid start, so a caller may pass
            // duals fit under a different C.
            let d = v.clamp(lo, hi);
            if d != 0.0 {
                dual[i] = d;
                m.update(i, rule.coef(i, d));
            }
        }
    }

    let mut active: Vec<usize> = (0..n).collect();
    let mut shrink = f64::INFINITY;
    let mut epochs = 0u64;
    let mut visits = 0u64;
    while epochs < s.max_epochs as u64 {
        budget.check()?;
        let mut rng = StdRng::seed_from_u64(derive_seed(s.seed, epochs));
        if s.strict {
            active.shuffle(&mut rng);
        } else {
            shuffle_fast(&mut active, &mut rng);
        }
        let mut max_violation = 0.0f64;
        let mut idx = 0usize;
        while idx < active.len() {
            let i = active[idx];
            let g = rule.grad(i, &m);
            visits += 1;
            let Some(violation) = rule.violation(dual[i], g, shrink) else {
                active.swap_remove(idx);
                continue;
            };
            max_violation = max_violation.max(violation);
            if let Some((d, coef)) = rule.step(i, dual[i], g, m.curvature(i)) {
                dual[i] = d;
                if coef != 0.0 {
                    m.update(i, coef);
                }
            }
            idx += 1;
        }
        epochs += 1;
        if max_violation < s.tolerance {
            if active.len() == n {
                break;
            }
            active = (0..n).collect();
            shrink = f64::INFINITY;
        } else if !s.strict {
            shrink = max_violation;
        }
    }

    let visit_flops = m.visit_flops();
    let (w, w_bias, recover_flops) = m.into_primal(&dual, |i, d| rule.coef(i, d));
    Ok(Solved {
        w,
        w_bias,
        dual,
        epochs,
        visits,
        path_bits: 0,
        flops: visits * visit_flops + recover_flops,
    })
}

/// The settings every dual solve of one trainer shares, from its
/// `SvrConfig` or `SvcConfig`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DualConfig {
    pub(crate) mode: SolverMode,
    pub(crate) strategy: SolverStrategy,
    pub(crate) bias: bool,
    pub(crate) max_epochs: usize,
    pub(crate) tolerance: f64,
}

/// One trainer call's solve path, chosen once and shared by all its dual
/// solves (one for SVR, one per one-vs-rest class for SVC — Q depends only
/// on the design, so the classes share one gather and one Q). A fast Gram
/// solve takes its Q downdated from the fit's [`SharedGram`] when its
/// scope was handed one and admits it (see [`pack_cache`]), and otherwise
/// from a gather of its design.
pub(crate) struct SolvePlan<'a> {
    x: &'a dyn DesignView,
    cfg: DualConfig,
    path: Path,
    /// 2d flops per Q entry this call computed.
    gram_flops: u64,
}

enum Path {
    Strict,
    /// Primal fast path over packed rows, or over the view when the design
    /// is beyond the packing budget.
    Rows(Option<Rc<PackedDesign>>),
    Gram(Rc<PackedDesign>, GramMatrix),
    /// Q downdated from the fit's shared G; `w` is recovered through the
    /// view.
    Downdated(GramMatrix),
}

impl<'a> SolvePlan<'a> {
    /// Pick the path for `x`. A fast Gram solve first asks its scope for a
    /// Q downdated from the shared G. Otherwise the fast path gathers the
    /// design when it fits the packing budget, and on the Gram path gathers
    /// or builds Q. Every Q build polls `budget` once per row.
    pub(crate) fn new(
        x: &'a dyn DesignView,
        cfg: DualConfig,
        budget: &TargetBudget,
    ) -> Result<Self, TrainError> {
        let (n, d) = (x.n_rows(), x.n_cols());
        let b2 = bias_sq(cfg.bias);
        let gram = cfg.strategy.takes_gram(n, d);
        let mut gram_flops = 0;
        let path = match cfg.mode {
            SolverMode::Strict => Path::Strict,
            SolverMode::Fast if n == 0 => Path::Rows(None),
            SolverMode::Fast => match gram.then(|| pack_cache::downdated_gram(n, b2, budget)) {
                Some(Err(e)) => return Err(e),
                Some(Ok(Some((q, flops)))) => {
                    gram_flops = flops;
                    Path::Downdated(q)
                }
                _ => match pack_for_solve(x) {
                    Some(p) if gram => {
                        let (q, dots) = gram_for_solve(&p, b2, budget)?;
                        gram_flops = dots * (d as u64) * 2;
                        Path::Gram(p, q)
                    }
                    packed => Path::Rows(packed),
                },
            },
        };
        Ok(SolvePlan { x, cfg, path, gram_flops })
    }

    /// One dual solve under `rule`, seeded by `seed`, recorded in [`stats`]
    /// and the telemetry counters. Fails only when `budget` trips.
    pub(crate) fn solve<R: CoordRule>(
        &self,
        rule: &R,
        seed: u64,
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<Solved, TrainError> {
        let b2 = bias_sq(self.cfg.bias);
        let s = Schedule {
            seed,
            max_epochs: self.cfg.max_epochs,
            tolerance: self.cfg.tolerance,
            strict: matches!(self.path, Path::Strict),
        };
        let (out, path_bits) = match &self.path {
            Path::Strict => (sweep(rule, Primal::new(&Exact(self.x), b2), &s, warm, budget)?, 0),
            Path::Rows(Some(p)) => {
                (sweep(rule, Primal::new(p.as_ref(), b2), &s, warm, budget)?, STRATEGY_PRIMAL_CODE)
            }
            Path::Rows(None) => {
                (sweep(rule, Primal::new(self.x, b2), &s, warm, budget)?, STRATEGY_PRIMAL_CODE)
            }
            Path::Gram(p, q) => {
                let out = sweep(rule, GramImage::new(p.as_ref(), q, b2), &s, warm, budget)?;
                stats::record_gram_solve();
                (out, STRATEGY_GRAM_CODE)
            }
            Path::Downdated(q) => {
                let out = sweep(rule, GramImage::new(self.x, q, b2), &s, warm, budget)?;
                stats::record_gram_solve();
                (out, STRATEGY_GRAM_CODE)
            }
        };
        stats::record(out.epochs, out.visits, out.epochs * self.x.n_rows() as u64);
        telemetry::counter_add(telemetry::Counter::SolverEpochs, out.epochs);
        telemetry::counter_add(telemetry::Counter::SolverVisits, out.visits);
        if path_bits != 0 {
            telemetry::counter_add(telemetry::Counter::SolverStrategy, path_bits);
        }
        Ok(Solved { path_bits, ..out })
    }

    /// The call's cost: its solves' `flops` plus the Q entries it computed
    /// (each charged only by the solve that computed it, never per read).
    /// The peak working set holds two n-vectors, w, the fast path's active
    /// set, and Q when a solve ran on it (`path_bits`). Warm-start fold-in
    /// is priced by the CV driver once per dual vector, never here: a
    /// cached dual vector may seed many solves.
    pub(crate) fn cost(&self, flops: u64, path_bits: u64) -> TrainingCost {
        let (n, d) = (self.x.n_rows(), self.x.n_cols());
        let f64_bytes = std::mem::size_of::<f64>();
        let active_set = match self.path {
            Path::Strict => 0,
            _ => n * std::mem::size_of::<usize>(),
        };
        let gram = if path_bits & STRATEGY_GRAM_CODE != 0 { (n * n + n) * f64_bytes } else { 0 };
        TrainingCost {
            flops: self.gram_flops + flops,
            peak_bytes: ((2 * n + d) * f64_bytes + active_set + gram) as u64,
        }
    }
}

/// The bias augmentation's squared value: 1 with a bias term, else 0.
pub(crate) fn bias_sq(bias: bool) -> f64 {
    if bias {
        1.0
    } else {
        0.0
    }
}

/// Process-wide solver instrumentation (see module docs).
pub mod stats {
    use super::*;

    static SOLVES: AtomicU64 = AtomicU64::new(0);
    static EPOCHS: AtomicU64 = AtomicU64::new(0);
    static VISITS: AtomicU64 = AtomicU64::new(0);
    static DENSE_SLOTS: AtomicU64 = AtomicU64::new(0);
    static GRAM_SOLVES: AtomicU64 = AtomicU64::new(0);
    static GRAM_BUILDS: AtomicU64 = AtomicU64::new(0);
    static PACK_REUSES: AtomicU64 = AtomicU64::new(0);

    /// A snapshot of the solver counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SolverStats {
        /// Binary subproblems solved (one per SVR fit, one per SVC class).
        pub solves: u64,
        /// Coordinate-descent epochs run, summed over solves.
        pub epochs: u64,
        /// Coordinates actually visited (gradient evaluated), summed.
        pub visits: u64,
        /// Coordinates a dense (non-shrinking) sweep would have visited:
        /// `Σ epochs · n`. `visits / dense_slots` is the mean active-set
        /// occupancy — 1.0 for the strict path, < 1 under shrinking.
        pub dense_slots: u64,
        /// Solves that ran the Gram-matrix dual loop.
        pub gram_solves: u64,
        /// Gram matrices begun: one shared G per fit whose all-but-target
        /// solves take the Gram loop (every such target downdates it; a
        /// second bias begins a second G), one per other fit scope whose
        /// solves take it — a target the downdate guard rejects, or an
        /// explicit input list (the scope's folds and final fit gather
        /// from that one Q; a bias change within a scope begins another)
        /// — plus one per Gram solve outside a scope. One-vs-rest classes
        /// share their solve's Q.
        pub gram_builds: u64,
        /// Solves that reused a cached [`frac_dataset::PackedDesign`]
        /// gather instead of re-gathering the design.
        pub pack_reuses: u64,
    }

    impl SolverStats {
        /// Mean active-set occupancy (`visits / dense_slots`), NaN when no
        /// sweeps ran.
        pub fn occupancy(&self) -> f64 {
            if self.dense_slots == 0 {
                return f64::NAN;
            }
            self.visits as f64 / self.dense_slots as f64
        }
    }

    /// Record one completed solve. Called once per binary subproblem, so
    /// the atomics are far off the inner loop.
    pub fn record(epochs: u64, visits: u64, dense_slots: u64) {
        SOLVES.fetch_add(1, Ordering::Relaxed);
        EPOCHS.fetch_add(epochs, Ordering::Relaxed);
        VISITS.fetch_add(visits, Ordering::Relaxed);
        DENSE_SLOTS.fetch_add(dense_slots, Ordering::Relaxed);
    }

    /// Record one solve that ran the Gram-matrix dual loop.
    pub fn record_gram_solve() {
        GRAM_SOLVES.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one Gram matrix begun (a fit's shared G, a scope Q, or a Q
    /// built outside a scope).
    pub fn record_gram_build() {
        GRAM_BUILDS.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one solve that reused a cached design gather.
    pub fn record_pack_reuse() {
        PACK_REUSES.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero all counters (bench harness, before a timed region).
    pub fn reset() {
        SOLVES.store(0, Ordering::Relaxed);
        EPOCHS.store(0, Ordering::Relaxed);
        VISITS.store(0, Ordering::Relaxed);
        DENSE_SLOTS.store(0, Ordering::Relaxed);
        GRAM_SOLVES.store(0, Ordering::Relaxed);
        GRAM_BUILDS.store(0, Ordering::Relaxed);
        PACK_REUSES.store(0, Ordering::Relaxed);
    }

    /// Read the counters.
    pub fn snapshot() -> SolverStats {
        SolverStats {
            solves: SOLVES.load(Ordering::Relaxed),
            epochs: EPOCHS.load(Ordering::Relaxed),
            visits: VISITS.load(Ordering::Relaxed),
            dense_slots: DENSE_SLOTS.load(Ordering::Relaxed),
            gram_solves: GRAM_SOLVES.load(Ordering::Relaxed),
            gram_builds: GRAM_BUILDS.load(Ordering::Relaxed),
            pack_reuses: PACK_REUSES.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::{DesignMatrix, RowSubset};
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn default_mode_is_fast() {
        assert_eq!(SolverMode::default(), SolverMode::Fast);
        assert_eq!(SolverStrategy::default(), SolverStrategy::Auto);
    }

    #[test]
    fn occupancy_ratio() {
        let s = stats::SolverStats {
            solves: 1,
            epochs: 2,
            visits: 30,
            dense_slots: 100,
            ..Default::default()
        };
        assert!((s.occupancy() - 0.3).abs() < 1e-12);
        assert!(stats::SolverStats::default().occupancy().is_nan());
    }

    #[test]
    fn describe_strategy_mask_names_flags() {
        assert_eq!(describe_strategy_mask(STRATEGY_PRIMAL_CODE).as_deref(), Some("primal"));
        assert_eq!(describe_strategy_mask(STRATEGY_GRAM_CODE).as_deref(), Some("gram"));
        assert_eq!(
            describe_strategy_mask(STRATEGY_PRIMAL_CODE | STRATEGY_GRAM_CODE).as_deref(),
            Some("primal,gram")
        );
        // Retired f32-mode bits decode as unknown.
        assert_eq!(describe_strategy_mask(4), None);
        assert_eq!(describe_strategy_mask(STRATEGY_GRAM_CODE | 8), None);
        assert_eq!(describe_strategy_mask(0), None);
        assert_eq!(describe_strategy_mask(16), None);
        assert_eq!(describe_strategy_mask(1 | 16), None);
    }

    #[test]
    fn gram_policy_crossover_cost_model() {
        let p = GramPolicy { cache_budget_bytes: 8 * 10 * 10, crossover_ratio: 2.0 };
        // Tiny n, wide d: Gram.
        assert!(p.should_use_gram(10, 400));
        // Exact byte boundary is inclusive: n·n·8 == budget still fits.
        assert_eq!(10 * 10 * 8, p.cache_budget_bytes);
        assert!(p.should_use_gram(10, 20));
        // One row over the budget: primal.
        assert!(!p.should_use_gram(11, 400));
        // Wide-enough budget but d/n below the crossover ratio: primal.
        assert!(!p.should_use_gram(10, 19));
        // Exact crossover ratio is inclusive.
        assert!(p.should_use_gram(10, 20));
        // Degenerate shapes never take Gram.
        assert!(!p.should_use_gram(0, 400));
        assert!(!p.should_use_gram(10, 0));
        // Large n always falls back regardless of width.
        assert!(!GramPolicy::default().should_use_gram(100_000, usize::MAX / 100_000));
        // The shipped default: 1 MiB budget (n ≤ 362), measured crossover
        // ratio 0.25 (BENCH_gram.json d/n sweep).
        let default = GramPolicy::default();
        assert_eq!(default.cache_budget_bytes, 1 << 20);
        assert_eq!(default.crossover_ratio, 0.25);
        assert!(default.should_use_gram(48, 12)); // d/n exactly at ratio
        assert!(!default.should_use_gram(48, 11)); // just below
        assert!(default.should_use_gram(362, 91)); // n at the byte budget
        assert!(!default.should_use_gram(363, 91)); // one row over
    }

    #[test]
    fn gram_matrix_is_symmetric_with_bias_folded() {
        let x = DesignMatrix::from_raw(3, 2, vec![1.0, 2.0, -0.5, 0.25, 3.0, -1.0]);
        let packed = std::rc::Rc::new(PackedDesign::from_view(&x).unwrap());
        let q = GramMatrix::build(&packed, 1.0, &TargetBudget::unlimited()).unwrap();
        assert_eq!(q.n(), 3);
        for i in 0..3 {
            for j in 0..3 {
                let expect: f64 = (0..2).map(|c| x.get(i, c) * x.get(j, c)).sum::<f64>() + 1.0;
                assert!((q.row(i)[j] - expect).abs() < 1e-12, "Q[{i},{j}]");
                assert_eq!(q.row(i)[j].to_bits(), q.row(j)[i].to_bits(), "symmetry");
            }
        }
        assert_eq!(q.diag(1), q.row(1)[1]);
    }

    #[test]
    fn pack_cache_reuses_gather_only_on_exact_row_match() {
        let x = DesignMatrix::from_raw(4, 2, vec![0.0; 8]);
        let scope = pack_cache::begin_scope(0xDEAD, None);
        pack_cache::set_rows(7, &[0, 1, 2, 3]);
        let a = pack_for_solve(&x).unwrap();
        let b = pack_for_solve(&x).unwrap();
        assert!(Rc::ptr_eq(&a, &b), "same scope+slot+rows must reuse the gather");
        // Same slot, different rows: exact row comparison rejects reuse.
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let c = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&a, &c));
        drop(scope);
        // Scope change drops everything.
        let scope = pack_cache::begin_scope(0xBEEF, None);
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let d = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&c, &d));
        // No active context: packs are fresh every time.
        pack_cache::clear_rows();
        let g = pack_for_solve(&x).unwrap();
        let h = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&g, &h));
        // A closed scope ignores declared rows.
        drop(scope);
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let e = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&d, &e));
        assert!(!Rc::ptr_eq(&e, &pack_for_solve(&x).unwrap()));
    }

    fn bits(q: &GramMatrix) -> Vec<u64> {
        (0..q.n()).flat_map(|i| q.row(i).to_vec()).map(f64::to_bits).collect()
    }

    /// Q built from scratch over a fresh gather of `rows` of `x`.
    fn own_q(x: &DesignMatrix, rows: &[usize], bias_sq: f64) -> Vec<u64> {
        let packed = PackedDesign::from_view(&RowSubset::new(x, rows)).unwrap();
        bits(&GramMatrix::build(&packed, bias_sq, &TargetBudget::unlimited()).unwrap())
    }

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A sequence of solves over random row subsets, in random order,
        /// under both bias values: each gathers exactly the Q a build over
        /// its own pack gives, and computes only the row pairs no earlier
        /// solve under the same bias covered.
        #[test]
        fn scope_q_gathers_each_solves_own_q(
            n in 1usize..25,
            d in 1usize..9,
            steps in 1usize..9,
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            // Uniform in [-4, 4): 53 random mantissa bits.
            let values: Vec<f64> = (0..n * d)
                .map(|_| (mix(&mut state) >> 11) as f64 / (1u64 << 50) as f64 - 4.0)
                .collect();
            let x = DesignMatrix::from_raw(n, d, values);
            let _scope = pack_cache::begin_scope(seed, None);
            let unlimited = TargetBudget::unlimited();
            let mut covered = HashSet::new();
            let mut last_bias = None;
            for step in 0..steps {
                let bias_sq = if below(&mut state, 3) == 0 { 0.0 } else { 1.0 };
                if last_bias != Some(bias_sq) {
                    covered.clear();
                    last_bias = Some(bias_sq);
                }
                let mut rows: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    rows.swap(i, below(&mut state, i + 1));
                }
                rows.truncate(1 + below(&mut state, n));
                pack_cache::set_rows(step as u64, &rows);
                let packed = pack_for_solve(&RowSubset::new(&x, &rows)).unwrap();
                let (q, dots) = gram_for_solve(&packed, bias_sq, &unlimited).unwrap();
                prop_assert_eq!(bits(&q), own_q(&x, &rows, bias_sq));
                let before = covered.len();
                for (i, &a) in rows.iter().enumerate() {
                    for &b in &rows[..=i] {
                        covered.insert((a.min(b), a.max(b)));
                    }
                }
                prop_assert_eq!(dots as usize, covered.len() - before);
            }
        }
    }

    #[test]
    fn budget_tripped_mid_fill_leaves_the_scope_q_exact() {
        let x = DesignMatrix::from_raw(6, 3, (0..18).map(|v| (v as f64).sin()).collect());
        let rows = [4, 0, 5, 2, 1, 3];
        let _scope = pack_cache::begin_scope(0xF111, None);
        pack_cache::set_rows(1, &rows);
        let packed = pack_for_solve(&RowSubset::new(&x, &rows)).unwrap();
        // The budget trips on its third poll, after two of Q's six rows.
        let (run, cancel) = crate::RunBudget::unlimited().cancellable();
        let budget = run.start_target();
        let mut polls = 0;
        let tripped = pack_cache::gather_gram(&packed, 1.0, || {
            polls += 1;
            if polls == 3 {
                cancel.cancel();
            }
            budget.check()
        });
        assert_eq!(tripped.err(), Some(TrainError::DeadlineExceeded));
        assert_eq!(polls, 3);
        // The next solve gets the exact Q and computes only the 21 − 3
        // entries the tripped one never reached.
        let (q, dots) = gram_for_solve(&packed, 1.0, &TargetBudget::unlimited()).unwrap();
        assert_eq!(bits(&q), own_q(&x, &rows, 1.0));
        assert_eq!(dots, 18);
    }

    #[test]
    fn a_shared_gram_cut_short_by_its_budget_leaves_nothing_behind() {
        let x = DesignMatrix::from_raw(6, 3, (0..18).map(|v| (v as f64).cos()).collect());
        let shared = SharedGram::new(Arc::new(x.clone()));
        let (run, cancel) = crate::RunBudget::unlimited().cancellable();
        cancel.cancel();
        assert_eq!(shared.gram(1.0, &run.start_target()).err(), Some(TrainError::DeadlineExceeded));
        assert_eq!(shared.build_flops(), 0);
        // The next caller builds G in full: the Q a direct build gives.
        let g = shared.gram(1.0, &TargetBudget::unlimited()).unwrap().unwrap();
        let all: Vec<usize> = (0..6).collect();
        assert_eq!(bits(&g), own_q(&x, &all, 1.0));
        assert_eq!(shared.build_flops(), 21 * 3 * 2);
        // Later callers share it.
        let again = shared.gram(1.0, &TargetBudget::unlimited()).unwrap().unwrap();
        assert!(Arc::ptr_eq(&g, &again));
    }

    #[test]
    fn scope_or_bias_change_never_serves_a_stale_entry() {
        // Two designs of one shape: an entry of one served to the other
        // would show as a wrong Q.
        let x1 = DesignMatrix::from_raw(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let x2 = DesignMatrix::from_raw(4, 2, vec![-1.0, 0.5, 2.0, -3.0, 0.25, 1.0, -2.0, 4.0]);
        let rows = [0, 1, 2, 3];
        let solve = |x: &DesignMatrix, bias_sq: f64| {
            pack_cache::set_rows(0, &rows);
            let packed = pack_for_solve(x).unwrap();
            let (q, dots) = gram_for_solve(&packed, bias_sq, &TargetBudget::unlimited()).unwrap();
            (bits(&q), dots)
        };
        let scope = pack_cache::begin_scope(1, None);
        assert_eq!(solve(&x1, 1.0), (own_q(&x1, &rows, 1.0), 10));
        // Same scope, rows and bias: every entry is served, none computed.
        assert_eq!(solve(&x1, 1.0), (own_q(&x1, &rows, 1.0), 0));
        // A bias change starts a new scope Q.
        assert_eq!(solve(&x1, 0.0), (own_q(&x1, &rows, 0.0), 10));
        drop(scope);
        // A scope change drops the gathers and the scope Q.
        let _scope = pack_cache::begin_scope(2, None);
        assert_eq!(solve(&x2, 0.0), (own_q(&x2, &rows, 0.0), 10));
    }
}
