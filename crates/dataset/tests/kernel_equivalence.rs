//! Property-based equivalence of the blocked/vectorized kernel tiers with
//! the exact sequential folds.
//!
//! Every supported tier is exercised through its per-tier entry point on
//! arbitrary lengths — including the remainder tails 1–7 that the 8-wide
//! AVX2 loop hands to scalar code — against two contracts:
//!
//! * `dot` / `sq_norm`: reassociated (and on AVX2, FMA-fused) reductions,
//!   within 1e-10 relative tolerance of the sequential fold;
//! * `axpy`: bit-identical on every tier (each lane performs the same
//!   multiply-then-add double rounding as the scalar loop).

use frac_dataset::kernels::{axpy_for_tier, dot_for_tier, sq_norm_for_tier, KernelTier};
use proptest::prelude::*;

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
