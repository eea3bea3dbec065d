//! Solver-path selection and instrumentation for the linear SVM trainers.
//!
//! The per-feature SVR/SVC fleet executes thousands of independent dual
//! coordinate-descent solves per FRaC run, so the workspace keeps **two**
//! solver paths:
//!
//! * [`SolverMode::Fast`] (the default) — liblinear-style active-set
//!   **shrinking** (bound-pinned coordinates whose projected gradient
//!   exceeds the previous epoch's worst violation are dropped from the
//!   sweep, with a full unshrink-and-recheck pass before convergence is
//!   declared), optional **warm-started duals** via the
//!   `train_view_warm` entry points, and the blocked
//!   [`frac_dataset::DesignView::row_dot_blocked`] kernels in the inner
//!   loop. Iteration order differs from the reference, so results agree
//!   with it only to solver tolerance — the equivalence tests gate on
//!   NS-score tolerance and identical anomaly rankings, not bits.
//! * [`SolverMode::Strict`] — the original solvers, unchanged: full sweeps
//!   in a seeded random permutation, sequential exact kernels. This is the
//!   reference the fast path is validated against, and the path to use
//!   when bit-reproducibility across machines matters more than speed.
//!
//! [`stats`] exposes process-wide counters (solves, epochs, coordinate
//! visits, dense sweep slots) that both paths bump once per solve; the
//! `perfsnapshot` bench resets and snapshots them to report
//! epochs-to-converge and active-set occupancy per model family.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use frac_dataset::{DesignView, PackedDesign};

/// Row-access surface the fast solvers' epoch loops are generic over.
///
/// Two implementors: [`frac_dataset::PackedDesign`] — rows gathered into
/// one contiguous buffer per solve, so the monomorphized hot loop makes a
/// single unsegmented kernel call per visit — and `dyn DesignView`, the
/// zero-copy fallback for designs beyond the packing budget
/// ([`PackedDesign::MAX_ELEMS`]). Strict mode never goes through this
/// trait; it keeps the exact sequential per-view paths.
pub(crate) trait SolverRows {
    /// Number of rows.
    fn n_rows(&self) -> usize;
    /// Number of design columns.
    fn n_cols(&self) -> usize;
    /// `init + w · row(r)` (blocked kernel).
    fn dot(&self, r: usize, w: &[f64], init: f64) -> f64;
    /// `Σ_j row(r)[j]²` (blocked kernel).
    fn sq_norm(&self, r: usize) -> f64;
    /// `w += alpha · row(r)` (blocked kernel; bit-identical across tiers).
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

/// Gather `x` for the fast epoch loops, or `None` when it exceeds
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

/// The Gram matrix for `packed` with the bias augmentation folded in, from
/// the solve-context cache when one matches (members and one-vs-rest
/// classes then share one O(n²d) build) or built fresh. The budget is
/// polled once per Gram row during a build. The flag is true when this
/// call actually built Q (the caller charges the build flops then).
pub(crate) fn gram_for_solve(
    packed: &Rc<PackedDesign>,
    bias_sq: f64,
    budget: &TargetBudget,
) -> Result<(Rc<GramMatrix>, bool), TrainError> {
    if let Some(hit) = pack_cache::lookup_gram(packed, bias_sq) {
        return Ok((hit, false));
    }
    let gram = Rc::new(GramMatrix::build(packed, bias_sq, budget)?);
    stats::record_gram_build();
    pack_cache::store_gram(packed, bias_sq, &gram);
    Ok((gram, true))
}

/// Which execution strategy the fast dual coordinate-descent loops use.
///
/// * `Primal` — maintain `w = Xᵀα` and evaluate each gradient with an
///   O(d) row dot (the PR 2/PR 6 path).
/// * `Gram` — precompute `Q = XXᵀ` (bias folded in) once per solve and
///   maintain the dual gradient vector, making a coordinate visit an O(1)
///   gradient read plus an O(n) row-of-Q update; `w` is reconstructed once
///   at convergence. Wins when n ≪ d and Q fits in cache.
/// * `Auto` — pick per solve via [`GramPolicy::should_use_gram`].
///
/// Honoured only by [`SolverMode::Fast`]; the strict reference path always
/// runs the exact sequential primal sweep. Gram and primal converge to the
/// same objective (the equivalence gate checks 1e-8), but their rounding
/// and iteration histories differ — like fast-vs-strict, agreement is to
/// solver tolerance, not bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverStrategy {
    /// Cost-model selection per solve (default).
    #[default]
    Auto,
    /// Always use the Gram-matrix dual loop (falls back to primal only
    /// when the design cannot be packed).
    Gram,
    /// Always use the primal-maintenance loop.
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

    /// Parse a strategy name (`auto` / `gram` / `primal`).
    pub fn parse(s: &str) -> Option<SolverStrategy> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(SolverStrategy::Auto),
            "gram" => Some(SolverStrategy::Gram),
            "primal" => Some(SolverStrategy::Primal),
            _ => None,
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
/// special-case it. Built with the dispatched SIMD dot kernel over packed
/// rows (upper triangle mirrored), O(n²d/2) once per solve — or once per
/// (target, fold) when the [`pack_cache`] can share it.
#[derive(Debug)]
pub struct GramMatrix {
    q: Vec<f64>,
    n: usize,
}

impl GramMatrix {
    /// Build from packed rows, polling `budget` once per Gram row.
    pub(crate) fn build(
        x: &PackedDesign,
        bias_sq: f64,
        budget: &TargetBudget,
    ) -> Result<GramMatrix, TrainError> {
        let n = x.n_rows();
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            budget.check()?;
            let ri = x.row(i);
            for j in 0..=i {
                let v = frac_dataset::kernels::dot_blocked(ri, x.row(j), bias_sq);
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

    /// Resident bytes (for the pack cache's byte cap).
    pub fn approx_bytes(&self) -> usize {
        self.q.len() * std::mem::size_of::<f64>()
    }

    /// Flops of one build over `d` columns: n(n+1)/2 dots of 2d flops.
    pub fn build_flops(n: usize, d: usize) -> u64 {
        (n as u64) * (n as u64 + 1) / 2 * (d as u64) * 2
    }
}

/// Per-thread cache of solve-scoped [`PackedDesign`] gathers and their
/// [`GramMatrix`] builds.
///
/// The fit driver re-solves the same (target, fold) design many times —
/// once per ensemble member, once per one-vs-rest class, plus the final
/// full fit — and each fast solve used to re-gather the rows. The driver
/// brackets those solves with [`pack_cache::begin_scope`] (one scope per
/// fitted predictor problem) and [`pack_cache::set_rows`] (the exact
/// train-row indices of the
/// upcoming solve); `pack_for_solve` then reuses a cached gather only when
/// the stored row indices and the view shape match exactly, so a stale or
/// missing context degrades to a fresh gather, never a wrong one.
///
/// Thread-local on purpose: the fit fleet runs one target per rayon
/// thread, so entries never cross targets mid-problem, and `Rc` keeps the
/// hot path free of atomics.
pub mod pack_cache {
    use super::GramMatrix;
    use frac_dataset::PackedDesign;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Byte cap per thread across packed buffers and Gram matrices; the
    /// oldest entries are evicted past it.
    const MAX_BYTES: usize = 16 << 20;

    struct Entry {
        slot: u64,
        rows: Vec<usize>,
        packed: Rc<PackedDesign>,
        gram: Option<(u64, Rc<GramMatrix>)>,
    }

    impl Entry {
        fn bytes(&self) -> usize {
            self.packed.approx_bytes()
                + self.gram.as_ref().map_or(0, |(_, g)| g.approx_bytes())
                + self.rows.len() * std::mem::size_of::<usize>()
        }
    }

    struct State {
        /// Whether any scope was ever begun on this thread: `set_rows` is
        /// inert until then, so code paths shared with direct trainer users
        /// (the CV drivers) can declare rows unconditionally without risking
        /// stale hits outside a scoped fit.
        begun: bool,
        scope: u64,
        active: Option<(u64, Vec<usize>)>,
        entries: Vec<Entry>,
    }

    thread_local! {
        static STATE: RefCell<State> = const {
            RefCell::new(State { begun: false, scope: 0, active: None, entries: Vec::new() })
        };
    }

    /// Enter a solve scope (one per fitted predictor problem: target ×
    /// input set × fit). A scope change drops every cached entry; the
    /// caller must pick keys that never collide across different designs
    /// (e.g. hash of a per-fit nonce, target id, and input set).
    pub fn begin_scope(scope: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if !s.begun || s.scope != scope {
                s.scope = scope;
                s.entries.clear();
            }
            s.begun = true;
            s.active = None;
        });
    }

    /// Declare the train rows of the next solve(s): `slot` names the fold
    /// (or final fit) and `rows` are the exact row indices, compared
    /// verbatim on lookup. Stays active until the next `set_rows` /
    /// `clear_rows` / `begin_scope`.
    pub fn set_rows(slot: u64, rows: &[usize]) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if s.begun {
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
            s.entries.push(Entry { slot, rows, packed: Rc::clone(packed), gram: None });
            evict(&mut s.entries);
        });
    }

    pub(crate) fn lookup_gram(packed: &Rc<PackedDesign>, bias_sq: f64) -> Option<Rc<GramMatrix>> {
        STATE.with(|s| {
            s.borrow()
                .entries
                .iter()
                .find(|e| Rc::ptr_eq(&e.packed, packed))
                .and_then(|e| e.gram.as_ref())
                .filter(|(bits, _)| *bits == bias_sq.to_bits())
                .map(|(_, g)| Rc::clone(g))
        })
    }

    pub(crate) fn store_gram(packed: &Rc<PackedDesign>, bias_sq: f64, gram: &Rc<GramMatrix>) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(e) = s.entries.iter_mut().find(|e| Rc::ptr_eq(&e.packed, packed)) {
                e.gram = Some((bias_sq.to_bits(), Rc::clone(gram)));
            }
            evict(&mut s.entries);
        });
    }

    fn evict(entries: &mut Vec<Entry>) {
        let mut total: usize = entries.iter().map(Entry::bytes).sum();
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
pub(crate) fn shuffle_fast(v: &mut [usize], rng: &mut impl rand::RngCore) {
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
        /// Gram matrices actually built (< `gram_solves` when the pack
        /// cache shares one Q across members / classes / the d/n sweep).
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

    /// Record one Gram matrix actually built (cache misses only).
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

    #[test]
    fn default_mode_is_fast() {
        assert_eq!(SolverMode::default(), SolverMode::Fast);
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
    fn strategy_parse_round_trips() {
        for s in [SolverStrategy::Auto, SolverStrategy::Gram, SolverStrategy::Primal] {
            assert_eq!(SolverStrategy::parse(s.as_str()), Some(s));
        }
        assert_eq!(SolverStrategy::parse("GRAM"), Some(SolverStrategy::Gram));
        assert_eq!(SolverStrategy::parse("dual"), None);
        assert_eq!(SolverStrategy::default(), SolverStrategy::Auto);
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
        use frac_dataset::DesignMatrix;
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
        use frac_dataset::DesignMatrix;
        let x = DesignMatrix::from_raw(4, 2, vec![0.0; 8]);
        pack_cache::begin_scope(0xDEAD);
        pack_cache::set_rows(7, &[0, 1, 2, 3]);
        let a = pack_for_solve(&x).unwrap();
        let b = pack_for_solve(&x).unwrap();
        assert!(Rc::ptr_eq(&a, &b), "same scope+slot+rows must reuse the gather");
        // Same slot, different rows: exact row comparison rejects reuse.
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let c = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&a, &c));
        // Scope change drops everything.
        pack_cache::begin_scope(0xBEEF);
        pack_cache::set_rows(7, &[0, 1, 3, 2]);
        let d = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&c, &d));
        // No active context: packs are fresh every time.
        pack_cache::clear_rows();
        let g = pack_for_solve(&x).unwrap();
        let h = pack_for_solve(&x).unwrap();
        assert!(!Rc::ptr_eq(&g, &h));
        pack_cache::begin_scope(0);
    }

    #[test]
    fn gram_cache_shares_q_per_pack_and_bias() {
        use frac_dataset::DesignMatrix;
        let x = DesignMatrix::from_raw(3, 4, (0..12).map(|v| v as f64).collect());
        pack_cache::begin_scope(0xCAFE);
        pack_cache::set_rows(1, &[0, 1, 2]);
        let packed = pack_for_solve(&x).unwrap();
        let unlimited = TargetBudget::unlimited();
        let (q1, built1) = gram_for_solve(&packed, 1.0, &unlimited).unwrap();
        let (q2, built2) = gram_for_solve(&packed, 1.0, &unlimited).unwrap();
        assert!(built1 && !built2, "second solve must reuse the cached build");
        assert!(Rc::ptr_eq(&q1, &q2), "same pack + bias must share one Q build");
        let (q3, built3) = gram_for_solve(&packed, 0.0, &unlimited).unwrap();
        assert!(built3, "bias change invalidates the cached Q");
        assert!(!Rc::ptr_eq(&q1, &q3));
        pack_cache::begin_scope(0);
    }
}
