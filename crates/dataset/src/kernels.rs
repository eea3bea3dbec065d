//! Vectorized inner-loop kernels: the solver fast path's and the CRC-32's.
//!
//! The SVM coordinate-descent sweeps spend almost all their time in three
//! row-wise primitives: `dot`, `axpy`, and squared norm. Batched scoring
//! adds a fourth, `dot8`: one weight vector folded against
//! [`BLOCK_RECORDS`] = 8 records at once, laid out interleaved by column.
//! Two implementation tiers exist, selected **once per process** into a
//! kernel table of plain function pointers, so the dispatch decision never
//! sits in an inner loop:
//!
//! * [`KernelTier::Avx2Fma`] — explicit `std::arch` x86_64 AVX2/FMA
//!   kernels, 16 lanes per iteration in four independent 256-bit
//!   accumulator registers (enough chains to hide the FMA latency).
//!   Installed only after `is_x86_feature_detected!` confirms both
//!   features at runtime.
//! * [`KernelTier::Unrolled`] — the portable fallback: 4-wide unrolled
//!   scalar loops with independent accumulators (the compiler keeps them in
//!   separate registers / SIMD lanes), which breaks the ~4-cycle FP latency
//!   chain of a strict left-to-right fold.
//!
//! The lane split changes floating-point summation *grouping*, so blocked
//! results are not bit-identical to the sequential fold — they are used only
//! by the fast solver path ([`crate::DesignView::row_dot_blocked`] and
//! friends); the strict reference path keeps the exact sequential kernels.
//! `axpy` and `dot8` are the exceptions: neither has a cross-lane
//! reduction, so **every tier is bit-identical** to the sequential loop
//! (each lane performs the same multiply-then-add double rounding — the
//! AVX2 tier deliberately avoids FMA there). `dot8`'s lanes are records,
//! not stretches of one record: lane `b` folds record `b`'s terms in
//! column order, so each lane's sum has the bits of that record's one-row
//! fold, and the scoring plan's batches use it with no change to an NS
//! bit. Its AVX2 tier keeps the eight sums in two 256-bit registers and
//! broadcasts one weight per step; its portable tier is a plain 8-lane
//! loop the compiler vectorizes to the baseline SSE2. Within one tier the
//! grouping is a deterministic function of the slice length, so fast-path
//! results are reproducible run to run and across thread counts on one
//! machine; across machines the resolved tier may differ, which is why the
//! selected tier is recorded in telemetry and the perf snapshots.
//!
//! The environment variable `FRAC_KERNEL_TIER` (`avx2` / `unrolled`, plus
//! aliases below) overrides auto-detection at first use; [`force_tier`]
//! overrides it at any point thereafter (benchmark A/B harnesses swap tiers
//! mid-process). Forcing `avx2` on hardware without AVX2+FMA silently falls
//! back to the portable tier — the table never holds kernels the CPU cannot
//! execute.
//!
//! The module also holds the CRC-32 fold behind [`crate::crc::crc32`],
//! which checks every model, journal frame and FCB file. Its two folds,
//! [`CrcFold`], compute the same value by definition, so the choice moves
//! no bit; it is resolved once per process on its own, without resolving
//! the FP table:
//!
//! * [`CrcFold::Clmul`] — PCLMULQDQ carry-less multiplies folding four
//!   128-bit lanes, 64 B per step, then a Barrett reduction (Intel's "Fast
//!   CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Gopal et al., 2009; the reflected IEEE constants zlib and Linux use).
//!   Taken on x86_64 when `pclmulqdq` and `sse4.1` are detected, for the
//!   longest 16-byte multiple of an input of at least 64 B.
//! * [`CrcFold::SliceBy8`] — eight table lookups per 8 bytes, in
//!   [`crate::crc`]: every input on other CPUs, short inputs, and the
//!   carry-less fold's tail. `FRAC_KERNEL_TIER=unrolled` selects it alone.

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicPtr, AtomicU8, Ordering};

/// An implementation tier of the blocked kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Portable 4-wide unrolled scalar kernels (every platform).
    Unrolled,
    /// Explicit AVX2 + FMA kernels (x86_64 with both features detected).
    Avx2Fma,
}

/// Telemetry bit flag for a strict-mode solve (exact sequential kernels,
/// not part of the dispatch table). See [`KernelTier::code`].
pub const SEQUENTIAL_STRICT_CODE: u64 = 4;

impl KernelTier {
    /// Stable display / serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelTier::Unrolled => "unrolled",
            KernelTier::Avx2Fma => "avx2+fma",
        }
    }

    /// Telemetry bit flag: 1 = unrolled, 2 = avx2+fma (4 is
    /// [`SEQUENTIAL_STRICT_CODE`]). The `kernel_tier` counter OR-merges
    /// these into a mask of every tier the session's fits used, so a run
    /// mixing strict and fast families (or repeated fits) stays decodable
    /// — see [`describe_mask`].
    pub fn code(self) -> u64 {
        match self {
            KernelTier::Unrolled => 1,
            KernelTier::Avx2Fma => 2,
        }
    }

    /// Parse a tier name: `unrolled` / `portable` / `scalar`, or `avx2` /
    /// `avx2+fma` / `avx2fma`.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.to_ascii_lowercase().as_str() {
            "unrolled" | "portable" | "scalar" => Some(KernelTier::Unrolled),
            "avx2" | "avx2+fma" | "avx2fma" => Some(KernelTier::Avx2Fma),
            _ => None,
        }
    }

    /// Whether this tier's kernels can execute on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            KernelTier::Unrolled => true,
            KernelTier::Avx2Fma => avx2_table().is_some(),
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Human name(s) for a `kernel_tier` telemetry mask: the OR of
/// [`KernelTier::code`] bits and [`SEQUENTIAL_STRICT_CODE`], comma-joined
/// in flag order. `None` for an empty mask or one with unknown bits
/// (e.g. a trace written by an incompatible version).
pub fn describe_mask(mask: u64) -> Option<String> {
    const FLAGS: [(u64, &str); 3] =
        [(1, "unrolled"), (2, "avx2+fma"), (SEQUENTIAL_STRICT_CODE, "sequential-strict")];
    const KNOWN: u64 = 1 | 2 | SEQUENTIAL_STRICT_CODE;
    if mask == 0 || mask & !KNOWN != 0 {
        return None;
    }
    let names: Vec<&str> =
        FLAGS.iter().filter(|&&(bit, _)| mask & bit != 0).map(|&(_, name)| name).collect();
    Some(names.join(","))
}

/// The once-resolved kernel table: plain function pointers, so a kernel
/// call costs one relaxed atomic load plus an indirect call — no feature
/// detection anywhere near the inner loops.
struct KernelTable {
    tier: KernelTier,
    dot: fn(&[f64], &[f64], f64) -> f64,
    axpy: fn(f64, &[f64], &mut [f64]),
    sq_norm: fn(&[f64], f64) -> f64,
    dot8: fn(&[f64], &[f64], &mut [f64; BLOCK_RECORDS]),
}

static UNROLLED_TABLE: KernelTable = KernelTable {
    tier: KernelTier::Unrolled,
    dot: portable::dot,
    axpy: portable::axpy,
    sq_norm: portable::sq_norm,
    dot8: portable::dot8,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    tier: KernelTier::Avx2Fma,
    dot: avx2::dot,
    axpy: avx2::axpy,
    sq_norm: avx2::sq_norm,
    dot8: avx2::dot8,
};

/// The active table; null until first use. Only ever holds a pointer to
/// one of the `'static` tables above.
static ACTIVE: AtomicPtr<KernelTable> = AtomicPtr::new(std::ptr::null_mut());

fn table() -> &'static KernelTable {
    let p = ACTIVE.load(Ordering::Acquire);
    if p.is_null() {
        resolve()
    } else {
        // SAFETY: `ACTIVE` is written only by `install`, always with a
        // pointer to one of the immutable `'static` tables.
        unsafe { &*p }
    }
}

fn install(t: &'static KernelTable) -> &'static KernelTable {
    ACTIVE.store(t as *const KernelTable as *mut KernelTable, Ordering::Release);
    t
}

/// The tier `FRAC_KERNEL_TIER` names, if it is set to a parseable name.
fn requested_tier() -> Option<KernelTier> {
    std::env::var("FRAC_KERNEL_TIER")
        .ok()
        .and_then(|v| KernelTier::parse(&v))
}

/// First-use resolution: honor `FRAC_KERNEL_TIER` if set (unparseable
/// values fall through to auto-detection), else pick the best supported
/// tier.
fn resolve() -> &'static KernelTable {
    install(select(requested_tier()))
}

fn select(requested: Option<KernelTier>) -> &'static KernelTable {
    match requested {
        Some(KernelTier::Unrolled) => &UNROLLED_TABLE,
        Some(KernelTier::Avx2Fma) | None => avx2_table().unwrap_or(&UNROLLED_TABLE),
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_table() -> Option<&'static KernelTable> {
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    {
        Some(&AVX2_TABLE)
    } else {
        None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_table() -> Option<&'static KernelTable> {
    None
}

/// The tier currently serving the blocked kernels (resolving it on first
/// call).
pub fn active_tier() -> KernelTier {
    table().tier
}

/// Override the dispatch decision (benchmark A/B harnesses).
/// `None` re-runs auto-detection (ignoring the environment override).
/// Returns the tier actually installed — a request for an unsupported tier
/// falls back to the portable one.
///
/// Swapping tiers changes fast-path summation grouping from that point on;
/// strict-path results are unaffected. Not intended for use concurrent
/// with in-flight solves (the swap is atomic, but a solve spanning it
/// would mix groupings — still within the fast path's tolerance gate,
/// just not reproducible).
pub fn force_tier(requested: Option<KernelTier>) -> KernelTier {
    install(select(requested)).tier
}

/// `init + Σ_i x[i]·w[i]` through the active tier.
///
/// # Panics
/// Panics if `x.len() != w.len()` — the asserted equality is what keeps
/// the AVX2 tier's raw loads in bounds, so it is a hard assert, not a
/// debug one (the length compare is noise next to the kernel itself).
#[inline]
pub fn dot_blocked(x: &[f64], w: &[f64], init: f64) -> f64 {
    assert_eq!(x.len(), w.len());
    (table().dot)(x, w, init)
}

/// `w[i] += alpha · x[i]` through the active tier. Bit-identical to the
/// sequential loop on every tier (no cross-lane reduction; the AVX2 tier
/// uses separate multiply and add, never FMA).
///
/// # Panics
/// Panics if `x.len() != w.len()` (see [`dot_blocked`]).
#[inline]
pub fn axpy_blocked(alpha: f64, x: &[f64], w: &mut [f64]) {
    assert_eq!(x.len(), w.len());
    (table().axpy)(alpha, x, w);
}

/// `acc + Σ_i x[i]²` through the active tier.
#[inline]
pub fn sq_norm_blocked(x: &[f64], acc: f64) -> f64 {
    (table().sq_norm)(x, acc)
}

/// Records one [`dot8_blocked`] call folds: one per lane.
pub const BLOCK_RECORDS: usize = 8;

/// `acc[b] = acc[b] + w[j] · x[j · 8 + b]` for each `j` in order, through
/// the active tier: one weight vector folded against [`BLOCK_RECORDS`]
/// records interleaved by column (record `b`'s column `j` at
/// `x[j · 8 + b]`). Each product is rounded before its add, never fused,
/// so lane `b` ends with the bits of the one-row fold
/// `acc[b] + w[0]·x₀ + w[1]·x₁ + …` on every tier.
///
/// # Panics
/// Panics if `x.len() != 8 · w.len()` — what keeps the AVX2 tier's raw
/// loads in bounds (see [`dot_blocked`]).
#[inline]
pub fn dot8_blocked(w: &[f64], x: &[f64], acc: &mut [f64; BLOCK_RECORDS]) {
    assert_eq!(x.len(), BLOCK_RECORDS * w.len());
    (table().dot8)(w, x, acc);
}

/// Run one kernel under an explicit tier without touching the process-wide
/// table (equivalence tests exercise both tiers in one process).
///
/// # Panics
/// Panics if the tier is not [supported](KernelTier::supported) on this
/// CPU, or if `x.len() != w.len()` (see [`dot_blocked`]).
pub fn dot_for_tier(tier: KernelTier, x: &[f64], w: &[f64], init: f64) -> f64 {
    assert_eq!(x.len(), w.len());
    (table_for(tier).dot)(x, w, init)
}

/// Per-tier variant of [`axpy_blocked`]; see [`dot_for_tier`].
///
/// # Panics
/// Panics if the tier is not supported on this CPU, or if
/// `x.len() != w.len()`.
pub fn axpy_for_tier(tier: KernelTier, alpha: f64, x: &[f64], w: &mut [f64]) {
    assert_eq!(x.len(), w.len());
    (table_for(tier).axpy)(alpha, x, w);
}

/// Per-tier variant of [`sq_norm_blocked`]; see [`dot_for_tier`].
///
/// # Panics
/// Panics if the tier is not supported on this CPU.
pub fn sq_norm_for_tier(tier: KernelTier, x: &[f64], acc: f64) -> f64 {
    (table_for(tier).sq_norm)(x, acc)
}

/// Per-tier variant of [`dot8_blocked`]; see [`dot_for_tier`].
///
/// # Panics
/// Panics if the tier is not supported on this CPU, or if
/// `x.len() != 8 · w.len()`.
pub fn dot8_for_tier(tier: KernelTier, w: &[f64], x: &[f64], acc: &mut [f64; BLOCK_RECORDS]) {
    assert_eq!(x.len(), BLOCK_RECORDS * w.len());
    (table_for(tier).dot8)(w, x, acc);
}

fn table_for(tier: KernelTier) -> &'static KernelTable {
    match tier {
        KernelTier::Unrolled => &UNROLLED_TABLE,
        KernelTier::Avx2Fma => match avx2_table() {
            Some(t) => t,
            None => panic!("kernel tier avx2+fma is not supported on this CPU"),
        },
    }
}

/// An implementation of the CRC-32 fold (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcFold {
    /// Slice-by-8 table lookups (every platform).
    SliceBy8,
    /// PCLMULQDQ carry-less multiplies, 64 B per step (x86_64 with
    /// `pclmulqdq` and `sse4.1` detected).
    Clmul,
}

impl CrcFold {
    /// Whether this fold can execute on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            CrcFold::SliceBy8 => true,
            CrcFold::Clmul => clmul_fold().is_some(),
        }
    }
}

/// The resolved CRC fold: 0 until first use, then 1 (slice-by-8) or 2
/// (carry-less). Relaxed: the value publishes no other data, and racing
/// first uses resolve it to the same fold.
static CRC_FOLD: AtomicU8 = AtomicU8::new(0);

/// The CRC fold this process uses, resolved on first call: the carry-less
/// fold where the CPU has it, unless `FRAC_KERNEL_TIER` asks for the
/// portable tier. Resolving it leaves the FP kernel table alone.
pub fn active_crc_fold() -> CrcFold {
    match CRC_FOLD.load(Ordering::Relaxed) {
        1 => CrcFold::SliceBy8,
        2 => CrcFold::Clmul,
        _ => {
            let portable = requested_tier() == Some(KernelTier::Unrolled);
            let (fold, code) = if !portable && clmul_fold().is_some() {
                (CrcFold::Clmul, 2)
            } else {
                (CrcFold::SliceBy8, 1)
            };
            CRC_FOLD.store(code, Ordering::Relaxed);
            fold
        }
    }
}

/// Fold the head of `bytes` into the raw (pre-inversion) CRC-32 state
/// `crc` through `fold`, and return the new state with the bytes it left
/// for the slice-by-8 fold. The carry-less fold takes the longest 16-byte
/// multiple of an input of at least 64 B; otherwise every byte is left.
///
/// # Panics
/// Panics if `fold` is not [supported](CrcFold::supported) on this CPU.
pub(crate) fn crc32_head(fold: CrcFold, crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
    match fold {
        CrcFold::SliceBy8 => (crc, bytes),
        CrcFold::Clmul if bytes.len() < 64 => (crc, bytes),
        CrcFold::Clmul => match clmul_fold() {
            Some(fold) => {
                let (head, tail) = bytes.split_at(bytes.len() & !15);
                (fold(crc, head), tail)
            }
            None => panic!("CRC fold pclmulqdq is not supported on this CPU"),
        },
    }
}

/// The carry-less fold, if this CPU can run it.
#[cfg(target_arch = "x86_64")]
fn clmul_fold() -> Option<fn(u32, &[u8]) -> u32> {
    if std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        Some(clmul::fold)
    } else {
        None
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn clmul_fold() -> Option<fn(u32, &[u8]) -> u32> {
    None
}

/// Portable fallback tier: 4-wide unrolled with independent accumulators.
mod portable {
    use super::BLOCK_RECORDS;

    pub(super) fn dot(x: &[f64], w: &[f64], init: f64) -> f64 {
        let mut xc = x.chunks_exact(4);
        let mut wc = w.chunks_exact(4);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for (xs, ws) in (&mut xc).zip(&mut wc) {
            a0 += xs[0] * ws[0];
            a1 += xs[1] * ws[1];
            a2 += xs[2] * ws[2];
            a3 += xs[3] * ws[3];
        }
        let mut acc = init + ((a0 + a2) + (a1 + a3));
        for (xv, wv) in xc.remainder().iter().zip(wc.remainder()) {
            acc += xv * wv;
        }
        acc
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], w: &mut [f64]) {
        let mut xc = x.chunks_exact(4);
        let mut wc = w.chunks_exact_mut(4);
        for (xs, ws) in (&mut xc).zip(&mut wc) {
            ws[0] += alpha * xs[0];
            ws[1] += alpha * xs[1];
            ws[2] += alpha * xs[2];
            ws[3] += alpha * xs[3];
        }
        for (xv, wv) in xc.remainder().iter().zip(wc.into_remainder()) {
            *wv += alpha * xv;
        }
    }

    pub(super) fn sq_norm(x: &[f64], acc: f64) -> f64 {
        let mut xc = x.chunks_exact(4);
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for xs in &mut xc {
            a0 += xs[0] * xs[0];
            a1 += xs[1] * xs[1];
            a2 += xs[2] * xs[2];
            a3 += xs[3] * xs[3];
        }
        let mut acc = acc + ((a0 + a2) + (a1 + a3));
        for xv in xc.remainder() {
            acc += xv * xv;
        }
        acc
    }

    /// One lane per record; the compiler vectorizes the inner loop, and
    /// Rust never contracts the multiply and add into an FMA.
    pub(super) fn dot8(w: &[f64], x: &[f64], acc: &mut [f64; BLOCK_RECORDS]) {
        let mut a = *acc;
        for (&wj, xj) in w.iter().zip(x.chunks_exact(BLOCK_RECORDS)) {
            for (ab, &xb) in a.iter_mut().zip(xj) {
                *ab += wj * xb;
            }
        }
        *acc = a;
    }
}

/// Explicit AVX2/FMA tier. The safe entry points here are sound only when
/// the CPU has AVX2 and FMA — they are reachable exclusively through a
/// kernel table installed after runtime detection (`select`), or through
/// `table_for`, which panics on unsupported tiers.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK_RECORDS;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm_add_pd, _mm_add_sd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    pub(super) fn dot(x: &[f64], w: &[f64], init: f64) -> f64 {
        // SAFETY: reachable only via a table installed after runtime
        // detection of avx2+fma (see module docs).
        unsafe { dot_impl(x, w, init) }
    }

    pub(super) fn axpy(alpha: f64, x: &[f64], w: &mut [f64]) {
        // SAFETY: as for `dot`.
        unsafe { axpy_impl(alpha, x, w) }
    }

    pub(super) fn sq_norm(x: &[f64], acc: f64) -> f64 {
        // SAFETY: as for `dot`.
        unsafe { sq_norm_impl(x, acc) }
    }

    pub(super) fn dot8(w: &[f64], x: &[f64], acc: &mut [f64; BLOCK_RECORDS]) {
        // SAFETY: as for `dot`.
        unsafe { dot8_impl(w, x, acc) }
    }

    /// Horizontal sum of the four lanes, in a fixed (pairwise) order.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn hsum(v: __m256d) -> f64 {
        let lo = _mm256_castpd256_pd128(v);
        let hi = _mm256_extractf128_pd::<1>(v);
        let s = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)))
    }

    /// 16 lanes per iteration in four independent accumulator registers —
    /// enough chains to cover the ~4-cycle FMA latency at the loads' issue
    /// rate; FMA keeps each product unrounded until its lane add.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_impl(x: &[f64], w: &[f64], init: f64) -> f64 {
        // Equal lengths are hard-asserted at every public entry point;
        // bounding by the shorter slice anyway makes this function
        // memory-safe on its own rather than by caller contract.
        let n = x.len().min(w.len());
        let (xp, wp) = (x.as_ptr(), w.as_ptr());
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n ≤ min(x.len(), w.len())` keeps all eight
            // 4-lane loads in bounds.
            unsafe {
                acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(wp.add(i)), acc0);
                acc1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 4)),
                    _mm256_loadu_pd(wp.add(i + 4)),
                    acc1,
                );
                acc2 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 8)),
                    _mm256_loadu_pd(wp.add(i + 8)),
                    acc2,
                );
                acc3 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 12)),
                    _mm256_loadu_pd(wp.add(i + 12)),
                    acc3,
                );
            }
            i += 16;
        }
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` keeps both 4-lane loads in bounds.
            unsafe {
                acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(wp.add(i)), acc0);
            }
            i += 4;
        }
        let mut acc =
            init + hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc2), _mm256_add_pd(acc1, acc3)));
        while i < n {
            acc += x[i] * w[i];
            i += 1;
        }
        acc
    }

    /// 8 lanes per iteration; multiply *then* add (never FMA), so every
    /// lane performs the same double rounding as the sequential loop and
    /// the result stays bit-identical on every tier.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn axpy_impl(alpha: f64, x: &[f64], w: &mut [f64]) {
        let n = x.len().min(w.len());
        let a = _mm256_set1_pd(alpha);
        let xp = x.as_ptr();
        let wp = w.as_mut_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            // SAFETY: `i + 8 <= n` keeps every load/store in bounds; `x`
            // and `w` cannot alias (`&[f64]` vs `&mut [f64]`).
            unsafe {
                let x0 = _mm256_loadu_pd(xp.add(i));
                let x1 = _mm256_loadu_pd(xp.add(i + 4));
                let w0 = _mm256_loadu_pd(wp.add(i));
                let w1 = _mm256_loadu_pd(wp.add(i + 4));
                _mm256_storeu_pd(wp.add(i), _mm256_add_pd(w0, _mm256_mul_pd(a, x0)));
                _mm256_storeu_pd(wp.add(i + 4), _mm256_add_pd(w1, _mm256_mul_pd(a, x1)));
            }
            i += 8;
        }
        while i < n {
            w[i] += alpha * x[i];
            i += 1;
        }
    }

    /// The eight records' sums in two registers, one broadcast weight per
    /// step; multiply *then* add (never FMA), so each lane rounds as the
    /// one-row fold does.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot8_impl(w: &[f64], x: &[f64], acc: &mut [f64; BLOCK_RECORDS]) {
        // `x.len() == 8 · w.len()` is hard-asserted at every public entry
        // point; bounding by both slices anyway keeps this function
        // memory-safe on its own.
        let n = w.len().min(x.len() / BLOCK_RECORDS);
        let xp = x.as_ptr();
        let ap = acc.as_mut_ptr();
        // SAFETY: `acc` holds eight f64, so both 4-lane loads are in
        // bounds.
        let (mut a0, mut a1) = unsafe { (_mm256_loadu_pd(ap), _mm256_loadu_pd(ap.add(4))) };
        for (j, &wj) in w[..n].iter().enumerate() {
            let wv = _mm256_set1_pd(wj);
            // SAFETY: `j < n ≤ x.len() / 8`, so `8j + 8 ≤ x.len()` keeps
            // both 4-lane loads in bounds.
            unsafe {
                let x0 = _mm256_loadu_pd(xp.add(BLOCK_RECORDS * j));
                let x1 = _mm256_loadu_pd(xp.add(BLOCK_RECORDS * j + 4));
                a0 = _mm256_add_pd(a0, _mm256_mul_pd(wv, x0));
                a1 = _mm256_add_pd(a1, _mm256_mul_pd(wv, x1));
            }
        }
        // SAFETY: as for the loads from `acc`; `acc` is borrowed mutably,
        // so nothing else reads it.
        unsafe {
            _mm256_storeu_pd(ap, a0);
            _mm256_storeu_pd(ap.add(4), a1);
        }
    }

    /// 16 lanes per iteration in four independent accumulator registers.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn sq_norm_impl(x: &[f64], acc: f64) -> f64 {
        let n = x.len();
        let xp = x.as_ptr();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0usize;
        while i + 16 <= n {
            // SAFETY: `i + 16 <= n` keeps all four 4-lane loads in bounds.
            unsafe {
                let x0 = _mm256_loadu_pd(xp.add(i));
                let x1 = _mm256_loadu_pd(xp.add(i + 4));
                let x2 = _mm256_loadu_pd(xp.add(i + 8));
                let x3 = _mm256_loadu_pd(xp.add(i + 12));
                acc0 = _mm256_fmadd_pd(x0, x0, acc0);
                acc1 = _mm256_fmadd_pd(x1, x1, acc1);
                acc2 = _mm256_fmadd_pd(x2, x2, acc2);
                acc3 = _mm256_fmadd_pd(x3, x3, acc3);
            }
            i += 16;
        }
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` keeps the 4-lane load in bounds.
            unsafe {
                let x0 = _mm256_loadu_pd(xp.add(i));
                acc0 = _mm256_fmadd_pd(x0, x0, acc0);
            }
            i += 4;
        }
        let mut acc =
            acc + hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc2), _mm256_add_pd(acc1, acc3)));
        while i < n {
            acc += x[i] * x[i];
            i += 1;
        }
        acc
    }
}

/// The carry-less CRC-32 fold. Its safe entry point is sound only when the
/// CPU has PCLMULQDQ and SSE4.1 — it is reachable exclusively through
/// `clmul_fold`, which checks both at runtime.
///
/// The constants are Gopal et al.'s for the reflected IEEE polynomial
/// `P = 0x1_DB71_0641` (bit-reflected, with the `x³²` term): each `k` is
/// `x^e mod P` for the fold distance `e`, reflected and shifted one bit.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold one lane 512 bits forward: `x^(4·128+32)` and `x^(4·128−32)`.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Fold one lane 128 bits forward: `x^(128+32)` and `x^(128−32)`.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0xCCAA_009E;
    /// Fold 96 bits to 64: `x^64`.
    const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction: `P` itself and `μ = ⌊x⁶⁴ / P⌋`.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Fold `bytes` — at least 64 of them, a multiple of 16 — into the raw
    /// CRC state `crc`. Any other length is a caller bug; it would leave
    /// bytes out of the checksum.
    pub(super) fn fold(crc: u32, bytes: &[u8]) -> u32 {
        assert!(
            bytes.len() >= 64 && bytes.len().is_multiple_of(16),
            "carry-less fold of {} B",
            bytes.len()
        );
        // SAFETY: reachable only via `clmul_fold`, after runtime detection
        // of pclmulqdq and sse4.1 (see module docs).
        unsafe { fold_impl(crc, bytes) }
    }

    /// One 16-byte lane of `b` at byte `at`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn lane(b: &[u8], at: usize) -> __m128i {
        let b = &b[at..at + 16];
        // SAFETY: `b` holds exactly the 16 bytes read; the load is
        // unaligned.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `x` carried 128·k bits forward by the constant pair `k`, plus `y`:
    /// its low half times `k`'s low, its high half times `k`'s high.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_into(x: __m128i, k: __m128i, y: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), y)
    }

    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_impl(crc: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return crc;
        };
        // Four lanes in flight hide the multiplier's latency; the state
        // enters as the first lane's low 32 bits.
        let mut x = [
            _mm_xor_si128(lane(first, 0), _mm_cvtsi32_si128(crc as i32)),
            lane(first, 16),
            lane(first, 32),
            lane(first, 48),
        ];
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = fold_into(*xi, k1k2, lane(block, 16 * i));
            }
        }
        // The four lanes into one, then the 16-byte blocks left over.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_into(x[0], k3k4, x[1]);
        acc = fold_into(acc, k3k4, x[2]);
        acc = fold_into(acc, k3k4, x[3]);
        let rest = blocks.remainder();
        for at in (0..rest.len()).step_by(16) {
            acc = fold_into(acc, k3k4, lane(rest, at));
        }
        // 128 bits to 96 (the low half times x^(128−32)), then 96 to 64.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        acc = _mm_xor_si128(
            _mm_srli_si128::<8>(acc),
            _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5);
        acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k5),
        );
        // Barrett: q = ⌊acc · μ⌋ on the low 32 bits, acc − q · P.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), pmu);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, qp)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize) -> (Vec<f64>, Vec<f64>) {
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37 - 1.1).sin()).collect();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91 + 0.3).cos()).collect();
        (x, w)
    }

    fn tiers() -> Vec<KernelTier> {
        [KernelTier::Unrolled, KernelTier::Avx2Fma]
            .into_iter()
            .filter(|t| t.supported())
            .collect()
    }

    #[test]
    fn dot_matches_sequential_within_tolerance() {
        for tier in tiers() {
            for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 64, 129] {
                let (x, w) = vecs(n);
                let seq: f64 = 0.5 + x.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>();
                let blocked = dot_for_tier(tier, &x, &w, 0.5);
                assert!(
                    (seq - blocked).abs() <= 1e-10 * (1.0 + seq.abs()),
                    "{tier} n={n}: {seq} vs {blocked}"
                );
            }
        }
    }

    #[test]
    fn axpy_is_bit_identical_to_sequential() {
        for tier in tiers() {
            for n in [0, 1, 3, 4, 6, 7, 8, 9, 13, 65] {
                let (x, w0) = vecs(n);
                let mut a = w0.clone();
                let mut b = w0.clone();
                axpy_for_tier(tier, 1.75, &x, &mut a);
                for (wv, xv) in b.iter_mut().zip(&x) {
                    *wv += 1.75 * xv;
                }
                assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{tier} n={n}"
                );
            }
        }
    }

    #[test]
    fn sq_norm_matches_sequential_within_tolerance() {
        for tier in tiers() {
            for n in [0, 1, 2, 4, 7, 9, 31, 128] {
                let (x, _) = vecs(n);
                let seq: f64 = x.iter().map(|v| v * v).sum();
                let blocked = sq_norm_for_tier(tier, &x, 0.0);
                assert!((seq - blocked).abs() <= 1e-10 * (1.0 + seq), "{tier} n={n}");
            }
        }
    }

    #[test]
    fn blocked_results_are_deterministic() {
        // Per-tier entry points: the global table may be swapped by the
        // force test running in a sibling thread.
        for tier in tiers() {
            let (x, w) = vecs(101);
            assert_eq!(
                dot_for_tier(tier, &x, &w, 0.0).to_bits(),
                dot_for_tier(tier, &x, &w, 0.0).to_bits()
            );
            assert_eq!(
                sq_norm_for_tier(tier, &x, 0.0).to_bits(),
                sq_norm_for_tier(tier, &x, 0.0).to_bits()
            );
        }
    }

    #[test]
    fn tier_parse_and_codes_round_trip() {
        assert_eq!(KernelTier::parse("unrolled"), Some(KernelTier::Unrolled));
        assert_eq!(KernelTier::parse("portable"), Some(KernelTier::Unrolled));
        assert_eq!(KernelTier::parse("AVX2"), Some(KernelTier::Avx2Fma));
        assert_eq!(KernelTier::parse("avx2+fma"), Some(KernelTier::Avx2Fma));
        assert_eq!(KernelTier::parse("mmx"), None);
        for tier in [KernelTier::Unrolled, KernelTier::Avx2Fma] {
            assert_eq!(describe_mask(tier.code()).as_deref(), Some(tier.as_str()));
        }
        assert_eq!(
            describe_mask(SEQUENTIAL_STRICT_CODE).as_deref(),
            Some("sequential-strict")
        );
        assert_eq!(
            describe_mask(KernelTier::Avx2Fma.code() | SEQUENTIAL_STRICT_CODE).as_deref(),
            Some("avx2+fma,sequential-strict")
        );
        assert_eq!(describe_mask(0), None);
        assert_eq!(describe_mask(8), None);
        assert_eq!(describe_mask(1 | 8), None);
    }

    #[test]
    fn mismatched_lengths_panic_at_every_entry_point() {
        // A length mismatch would walk the AVX2 loads out of bounds if it
        // ever reached a kernel, so the public entry points hard-assert
        // equality in release builds too.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (x, w) = vecs(67);
        let mut wm = w.clone();
        assert!(catch_unwind(AssertUnwindSafe(|| dot_blocked(&x, &w[..33], 0.0))).is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| axpy_blocked(1.5, &x[..33], &mut wm))).is_err());
        for tier in tiers() {
            assert!(
                catch_unwind(AssertUnwindSafe(|| dot_for_tier(tier, &x, &w[..33], 0.0))).is_err(),
                "{tier}"
            );
        }
    }

    #[test]
    fn active_tier_is_supported_and_forceable() {
        let resolved = active_tier();
        assert!(resolved.supported());
        // Forcing the portable tier always succeeds; restore auto after.
        assert_eq!(force_tier(Some(KernelTier::Unrolled)), KernelTier::Unrolled);
        let (x, w) = vecs(37);
        let portable = dot_blocked(&x, &w, 0.0);
        assert_eq!(portable.to_bits(), dot_for_tier(KernelTier::Unrolled, &x, &w, 0.0).to_bits());
        let back = force_tier(None);
        assert!(back.supported());
    }
}
