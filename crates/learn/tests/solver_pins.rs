//! Bitwise pins of the linear SVM dual solves.
//!
//! One fixed n ≪ d problem is solved by ε-SVR and by 3-class one-vs-rest
//! SVC under every solver path: `SolverMode::Strict`, and `SolverMode::Fast`
//! with the primal and the Gram strategy, each cold and warm-started. The
//! warm start is the cold duals scaled by ½, with some entries pushed
//! outside the dual box so the clamp runs. A second pass drops the bias on a
//! design with one all-zero row, which gives that row zero curvature.
//!
//! Each run pins an FNV-1a hash of the `to_bits` of its weights, bias and
//! duals, plus the solver's `epochs`, `visits` and `cost.flops`. A change
//! that moves a pin has changed a fitted model or a work counter. The
//! portable kernel tier is forced, so the pins hold on every host.
//!
//! This file holds one test: it reads the process-wide solver counters, so
//! no other solve may run beside it.

use frac_dataset::kernels::{force_tier, KernelTier};
use frac_dataset::DesignMatrix;
use frac_learn::solver::stats;
use frac_learn::svc::{SvcConfig, SvcTrainer};
use frac_learn::svr::{SvrConfig, SvrTrainer};
use frac_learn::traits::{ClassifierTrainer, RegressorTrainer};
use frac_learn::{SolverMode, SolverStrategy, TargetBudget};

const N: usize = 30;
const D: usize = 150;
const CLASSES: u32 = 3;

/// What one run is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    hash: u64,
    epochs: u64,
    visits: u64,
    flops: u64,
}

/// splitmix64: a fixed stream for the problem's values.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [-1, 1) with 53 random mantissa bits.
fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// The design, real targets and class codes. Targets depend on a few
/// columns plus noise; classes follow the sign pattern of two columns.
/// With `zero_row`, row 10 is all zeros; its warm dual starts outside
/// the box, so the zero-curvature visit meets a nonzero dual.
fn problem(zero_row: bool) -> (DesignMatrix, Vec<f64>, Vec<u32>) {
    let mut state = 0x5EED_2017;
    let mut values: Vec<f64> = (0..N * D).map(|_| unit(&mut state)).collect();
    if zero_row {
        values[10 * D..11 * D].fill(0.0);
    }
    let x = DesignMatrix::from_raw(N, D, values);
    let y: Vec<f64> = (0..N)
        .map(|i| {
            let r = x.row(i);
            1.5 * r[0] - 0.8 * r[3] + 0.4 * r[11] + 0.3 * unit(&mut state) + 0.2
        })
        .collect();
    let classes: Vec<u32> = (0..N)
        .map(|i| {
            let r = x.row(i);
            if r[1] + 0.2 * unit(&mut state) > 0.3 {
                0
            } else if r[2] > 0.0 {
                1
            } else {
                2
            }
        })
        .collect();
    (x, y, classes)
}

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| v.to_bits())
}

/// The cold duals scaled by ½, with every fifth entry set above the box
/// and every seventh (from 3) below it.
fn warm_from(cold: &[f64]) -> Vec<f64> {
    cold.iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 5 == 0 {
                3.0
            } else if i % 7 == 3 {
                -2.0
            } else {
                0.5 * v
            }
        })
        .collect()
}

fn svr_run(
    x: &DesignMatrix,
    y: &[f64],
    cfg: SvrConfig,
    warm: Option<&[f64]>,
) -> (Pin, Vec<f64>) {
    let before = stats::snapshot();
    let (trained, duals) =
        SvrTrainer::new(cfg).fit(x, y, warm, &TargetBudget::unlimited()).expect("SVR fits");
    let after = stats::snapshot();
    let duals = duals.expect("SVR returns its duals");
    let model = &trained.model;
    let hash = fnv(bits(model.weights()).chain([model.bias().to_bits()]).chain(bits(&duals)));
    let pin = Pin {
        hash,
        epochs: after.epochs - before.epochs,
        visits: after.visits - before.visits,
        flops: trained.cost.flops,
    };
    (pin, duals)
}

fn svc_run(
    x: &DesignMatrix,
    classes: &[u32],
    cfg: SvcConfig,
    warm: Option<&[Vec<f64>]>,
) -> (Pin, Vec<Vec<f64>>) {
    let before = stats::snapshot();
    let (trained, duals) = SvcTrainer::new(cfg)
        .fit(x, classes, CLASSES, warm, &TargetBudget::unlimited())
        .expect("SVC fits");
    let after = stats::snapshot();
    let duals = duals.expect("SVC returns its duals");
    let model = &trained.model;
    let mut words = Vec::new();
    for k in 0..model.n_classes() {
        let (w, b) = model.hyperplane(k);
        words.extend(bits(w));
        words.push(b.to_bits());
    }
    for class in &duals {
        words.extend(bits(class));
    }
    let pin = Pin {
        hash: fnv(words),
        epochs: after.epochs - before.epochs,
        visits: after.visits - before.visits,
        flops: trained.cost.flops,
    };
    (pin, duals)
}

/// Every run of one problem, named: strict, then each fast strategy cold
/// and warm.
fn runs(zero_row: bool) -> Vec<(String, Pin)> {
    let (x, y, classes) = problem(zero_row);
    let bias = !zero_row;
    let mut out = Vec::new();

    let svr = SvrConfig { bias, tolerance: 1e-3, max_epochs: 400, ..SvrConfig::default() };
    let strict = SvrConfig { mode: SolverMode::Strict, ..svr };
    let (pin, _) = svr_run(&x, &y, strict, None);
    out.push(("svr strict".to_string(), pin));
    for strategy in [SolverStrategy::Primal, SolverStrategy::Gram] {
        let cfg = SvrConfig { mode: SolverMode::Fast, strategy, ..svr };
        let (cold, duals) = svr_run(&x, &y, cfg, None);
        assert!(duals.iter().any(|&b| b != 0.0), "the SVR solve must move its duals");
        let (hot, _) = svr_run(&x, &y, cfg, Some(&warm_from(&duals)));
        out.push((format!("svr {strategy} cold"), cold));
        out.push((format!("svr {strategy} warm"), hot));
    }

    let svc = SvcConfig { bias, tolerance: 1e-3, max_epochs: 400, ..SvcConfig::default() };
    let strict = SvcConfig { mode: SolverMode::Strict, ..svc };
    let (pin, _) = svc_run(&x, &classes, strict, None);
    out.push(("svc strict".to_string(), pin));
    for strategy in [SolverStrategy::Primal, SolverStrategy::Gram] {
        let cfg = SvcConfig { mode: SolverMode::Fast, strategy, ..svc };
        let (cold, duals) = svc_run(&x, &classes, cfg, None);
        assert!(duals.iter().flatten().any(|&a| a != 0.0), "the SVC solve must move its duals");
        let warm: Vec<Vec<f64>> = duals.iter().map(|class| warm_from(class)).collect();
        let (hot, _) = svc_run(&x, &classes, cfg, Some(&warm));
        out.push((format!("svc {strategy} cold"), cold));
        out.push((format!("svc {strategy} warm"), hot));
    }
    out
}

#[rustfmt::skip]
const PINS: &[(&str, Pin)] = &[
    ("svr strict", Pin { hash: 0xb049f2df26268d96, epochs: 9, visits: 270, flops: 163080 }),
    ("svr primal cold", Pin { hash: 0x375c0492980daa36, epochs: 10, visits: 300, flops: 181200 }),
    ("svr primal warm", Pin { hash: 0xa05fed2f042f29ef, epochs: 16, visits: 480, flops: 289920 }),
    ("svr gram cold", Pin { hash: 0x75b0beab5f724cc7, epochs: 10, visits: 300, flops: 185458 }),
    ("svr gram warm", Pin { hash: 0x8d0acbbe210ae02c, epochs: 16, visits: 480, flops: 207778 }),
    ("svc strict", Pin { hash: 0xac05338d1141a1c9, epochs: 32, visits: 960, flops: 579840 }),
    ("svc primal cold", Pin { hash: 0xaf5eab655fd3945e, epochs: 34, visits: 1019, flops: 615476 }),
    ("svc primal warm", Pin { hash: 0x19bec975d426a92c, epochs: 38, visits: 1138, flops: 687352 }),
    ("svc gram cold", Pin { hash: 0x8c2e241b36cfaf56, epochs: 34, visits: 1019, flops: 292734 }),
    ("svc gram warm", Pin { hash: 0xc04bea1e9e2618ac, epochs: 38, visits: 1138, flops: 307490 }),
    ("svr strict no-bias", Pin { hash: 0x7464e8ca3662a036, epochs: 10, visits: 300, flops: 181200 }),
    ("svr primal cold no-bias", Pin { hash: 0xdbe05ac92936c2f7, epochs: 10, visits: 288, flops: 173952 }),
    ("svr primal warm no-bias", Pin { hash: 0x01799d09dc8886ab, epochs: 16, visits: 464, flops: 280256 }),
    ("svr gram cold no-bias", Pin { hash: 0x96db9bdff2d5575e, epochs: 10, visits: 288, flops: 183064 }),
    ("svr gram warm no-bias", Pin { hash: 0xaf29eb9ae02a9f5e, epochs: 16, visits: 464, flops: 204888 }),
    ("svc strict no-bias", Pin { hash: 0x64f75deb7257a62d, epochs: 1200, visits: 36000, flops: 21744000 }),
    ("svc primal cold no-bias", Pin { hash: 0x6ba07acd9ff8d28e, epochs: 1200, visits: 36000, flops: 21744000 }),
    ("svc primal warm no-bias", Pin { hash: 0xb8d206ec9bbe4802, epochs: 39, visits: 1146, flops: 692184 }),
    ("svc gram cold no-bias", Pin { hash: 0xa956a48e8d99cebc, epochs: 1200, visits: 36000, flops: 4629472 }),
    ("svc gram warm no-bias", Pin { hash: 0x9823e105e431b334, epochs: 39, visits: 1146, flops: 308482 }),
];

#[test]
fn every_solver_path_reproduces_its_pinned_bits_and_counters() {
    assert_eq!(force_tier(Some(KernelTier::Unrolled)), KernelTier::Unrolled);
    let mut got = runs(false);
    got.extend(runs(true).into_iter().map(|(name, pin)| (format!("{name} no-bias"), pin)));
    let report: String = got
        .iter()
        .map(|(name, p)| {
            format!(
                "    (\"{name}\", Pin {{ hash: {:#018x}, epochs: {}, visits: {}, flops: {} }}),\n",
                p.hash, p.epochs, p.visits, p.flops
            )
        })
        .collect();
    let want: Vec<(String, Pin)> = PINS.iter().map(|&(name, pin)| (name.to_string(), pin)).collect();
    assert_eq!(got, want, "solver pins moved; this run reads:\n{report}");
}
