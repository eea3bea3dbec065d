//! Property-based equivalence of the blocked/vectorized kernel tiers with
//! the exact sequential folds.
//!
//! Every supported tier is exercised through its per-tier entry point on
//! arbitrary lengths — including the remainder tails 1–7 that the 8-wide
//! AVX2 loop hands to scalar code — against three contracts:
//!
//! * `dot` / `sq_norm`: reassociated (and on AVX2, FMA-fused) reductions,
//!   within 1e-10 relative tolerance of the sequential fold;
//! * `axpy`: bit-identical on every tier (each lane performs the same
//!   multiply-then-add double rounding as the scalar loop);
//! * `dot8`: each of its eight lanes bit-identical to that record's
//!   sequential fold on every tier — every block fill, widths 0–67,
//!   unaligned slices, signed zeros, subnormals, infinities and NaN —
//!   checked exhaustively rather than by proptest.

use frac_dataset::kernels::{
    axpy_for_tier, dot8_blocked, dot8_for_tier, dot_for_tier, sq_norm_for_tier, KernelTier,
    BLOCK_RECORDS,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MAX_LEN: usize = 160;

fn supported_tiers() -> Vec<KernelTier> {
    [KernelTier::Unrolled, KernelTier::Avx2Fma]
        .into_iter()
        .filter(|t| t.supported())
        .collect()
}

/// The exact kernel: a left-to-right sequential fold from `init`.
fn seq_dot(xs: &[f64], ws: &[f64], init: f64) -> f64 {
    xs.iter().zip(ws).fold(init, |acc, (&x, &w)| acc + x * w)
}

fn seq_sq_norm(xs: &[f64], init: f64) -> f64 {
    xs.iter().fold(init, |acc, &x| acc + x * x)
}

/// Lengths biased toward the interesting cases: empty, the 1–7 scalar
/// tails of every block size, exact block multiples, and bigger slices.
fn len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        1usize..8,
        Just(8usize),
        Just(16usize),
        Just(64usize),
        9usize..MAX_LEN,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_matches_sequential_fold_on_every_tier(
        len in len_strategy(),
        xs in prop::collection::vec(-100.0f64..100.0, MAX_LEN),
        ws in prop::collection::vec(-100.0f64..100.0, MAX_LEN),
        init in -10.0f64..10.0,
    ) {
        let (xs, ws) = (&xs[..len], &ws[..len]);
        let reference = seq_dot(xs, ws, init);
        let scale = xs
            .iter()
            .zip(ws)
            .fold(init.abs(), |acc, (&x, &w)| acc + (x * w).abs());
        for tier in supported_tiers() {
            let got = dot_for_tier(tier, xs, ws, init);
            prop_assert!(
                (got - reference).abs() <= 1e-10 * (1.0 + scale),
                "{tier} dot len={len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn sq_norm_matches_sequential_fold_on_every_tier(
        len in len_strategy(),
        xs in prop::collection::vec(-100.0f64..100.0, MAX_LEN),
        init in 0.0f64..10.0,
    ) {
        let xs = &xs[..len];
        let reference = seq_sq_norm(xs, init);
        for tier in supported_tiers() {
            let got = sq_norm_for_tier(tier, xs, init);
            prop_assert!(
                (got - reference).abs() <= 1e-10 * (1.0 + reference.abs()),
                "{tier} sq_norm len={len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn axpy_is_bit_identical_on_every_tier(
        len in len_strategy(),
        xs in prop::collection::vec(-100.0f64..100.0, MAX_LEN),
        ws in prop::collection::vec(-100.0f64..100.0, MAX_LEN),
        alpha in -5.0f64..5.0,
    ) {
        let xs = &xs[..len];
        let mut reference = ws[..len].to_vec();
        for (w, &x) in reference.iter_mut().zip(xs) {
            *w += alpha * x;
        }
        for tier in supported_tiers() {
            let mut got = ws[..len].to_vec();
            axpy_for_tier(tier, alpha, xs, &mut got);
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{} axpy len={} lane {}: {} vs {}",
                    tier, len, i, g, r
                );
            }
        }
    }
}

/// Every fill of a block (1–8 records, the rest zero-padded as the scoring
/// plan lays them out), every width 0–67, slice starts at every alignment
/// mod 32 bytes, from a start accumulator of random cells: each lane must
/// end with its record's sequential fold, on every tier.
#[test]
fn dot8_lanes_are_bit_identical_to_each_records_fold() {
    let mut state = 0x5EED_D078;
    for fill in 1..=BLOCK_RECORDS {
        for width in 0..68 {
            for offset in 0..4 {
                for non_finite in [false, true] {
                    check_dot8(&mut state, fill, width, offset, non_finite);
                }
            }
        }
    }
}

fn check_dot8(state: &mut u64, fill: usize, width: usize, offset: usize, non_finite: bool) {
    let mut draw = || cell(state, non_finite);
    let acc0: [f64; BLOCK_RECORDS] = std::array::from_fn(|_| draw());
    // Each slice starts `offset` cells into a buffer of other cells.
    let wbuf: Vec<f64> = (0..offset + width + 3).map(|_| draw()).collect();
    let mut xbuf: Vec<f64> = (0..offset + BLOCK_RECORDS * width + 3).map(|_| draw()).collect();
    let x = &mut xbuf[offset..offset + BLOCK_RECORDS * width];
    for (i, v) in x.iter_mut().enumerate() {
        if i % BLOCK_RECORDS >= fill {
            *v = 0.0;
        }
    }
    let (w, x) = (&wbuf[offset..offset + width], &*x);
    let mut want = acc0;
    for (j, &wj) in w.iter().enumerate() {
        for (b, acc) in want.iter_mut().enumerate() {
            *acc += wj * x[j * BLOCK_RECORDS + b];
        }
    }
    for tier in supported_tiers() {
        let mut got = acc0;
        dot8_for_tier(tier, w, x, &mut got);
        for (b, (g, r)) in got.iter().zip(&want).enumerate() {
            // Rust leaves a NaN's sign and payload unspecified, so a NaN
            // matches any NaN; every other value matches bit for bit.
            assert!(
                g.to_bits() == r.to_bits() || (g.is_nan() && r.is_nan()),
                "{tier} dot8 fill={fill} width={width} offset={offset} lane {b}: {g:e} vs {r:e}"
            );
        }
    }
}

/// SplitMix64 step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A kernel input: mostly ordinary magnitudes, with signed zeros,
/// subnormals and the smallest normal often enough that a fold which
/// fused, reassociated or lost a `−0.0` would show in the bits; with
/// `non_finite`, now and then ±inf or NaN.
fn cell(state: &mut u64, non_finite: bool) -> f64 {
    let sign = if mix(state) & 1 == 0 { 1.0 } else { -1.0 };
    let pick = mix(state) % 32;
    sign * match pick {
        0..=2 => 0.0,
        3..=5 => f64::from_bits(1 + mix(state) % (1 << 52)),
        6 => f64::MIN_POSITIVE,
        7 if non_finite => f64::INFINITY,
        8 if non_finite => f64::NAN,
        _ => (mix(state) >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0,
    }
}

#[test]
fn dot8_refuses_a_block_of_the_wrong_length() {
    let w = [0.5; 5];
    for len in [0, 39, 41, 5] {
        let x = vec![1.0; len];
        let mut acc = [0.0; BLOCK_RECORDS];
        assert!(
            catch_unwind(AssertUnwindSafe(|| dot8_blocked(&w, &x, &mut acc))).is_err(),
            "dispatched, x of {len}"
        );
        for tier in supported_tiers() {
            assert!(
                catch_unwind(AssertUnwindSafe(|| dot8_for_tier(tier, &w, &x, &mut acc))).is_err(),
                "{tier}, x of {len}"
            );
        }
    }
}
