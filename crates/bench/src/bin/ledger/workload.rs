//! The workloads: which surrogate, at which shape, under which FRaC config.

use frac_core::FracConfig;
use frac_dataset::split::derive_seed;
use frac_dataset::Dataset;
use frac_synth::snp::CohortGroup;
use frac_synth::{
    ExpressionConfig, ExpressionGenerator, SnpConfig, SnpGenerator, SubpopulationMix,
};

/// One workload: a paper surrogate and the FRaC config the paper pairs it
/// with. The seed changes the samples, never the shape. Why each exists is
/// in the README and in BENCHMARK.json: `expr` is solver- and journal-bound
/// with linear predictors, `snp` is tree-bound with a small journal, so
/// each predicts "no change" for the other's optimizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real-valued expression profiles under linear SVR
    /// (`FracConfig::expression()`).
    Expr,
    /// Ternary SNP genotypes under decision trees (`FracConfig::snp()`).
    Snp,
}

/// Dataset shape: `features` columns; `train` normal rows to fit on; a test
/// set of `test_normal` held-out normals followed by `test_anomaly`
/// anomalies.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub features: usize,
    pub train: usize,
    pub test_normal: usize,
    pub test_anomaly: usize,
}

/// The benchmark's shape: the 400-feature × 80-row surrogates every
/// `BENCH_*.json` since the pooled encoder has used.
pub const FULL: Shape = Shape {
    features: 400,
    train: 80,
    test_normal: 40,
    test_anomaly: 40,
};

/// Generated inputs: training rows, test rows, and test labels
/// (`true` = anomaly).
pub struct Inputs {
    pub train: Dataset,
    pub test: Dataset,
    pub labels: Vec<bool>,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 2] = [Workload::Expr, Workload::Snp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Expr => "expr",
            Workload::Snp => "snp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn config(self) -> FracConfig {
        match self {
            Workload::Expr => FracConfig::expression(),
            Workload::Snp => FracConfig::snp(),
        }
    }

    /// Generate the inputs for `seed`. The study structure (modules, allele
    /// frequencies) and the cohort are both derived from it.
    pub fn generate(self, shape: Shape, seed: u64) -> Inputs {
        let structure_seed = derive_seed(seed, 1);
        let cohort_seed = derive_seed(seed, 2);
        let normals = shape.train + shape.test_normal;
        let (data, labels) = match self {
            Workload::Expr => ExpressionGenerator::new(ExpressionConfig {
                n_features: shape.features,
                n_modules: 12,
                relevant_fraction: 0.8,
                anomaly_modules: 3,
                anomaly_shift: 2.5,
                noise_sd: 0.6,
                structure_seed,
                ..ExpressionConfig::default()
            })
            .generate(normals, shape.test_anomaly, cohort_seed),
            Workload::Snp => SnpGenerator::new(SnpConfig {
                n_snps: shape.features,
                n_subpops: 2,
                fst: 0.1,
                n_disease_loci: (shape.features / 20).max(1),
                disease_effect: 0.2,
                structure_seed,
                ..SnpConfig::default()
            })
            .generate(
                &[
                    CohortGroup {
                        n: normals,
                        mix: SubpopulationMix::uniform(2),
                        is_case: false,
                    },
                    CohortGroup {
                        n: shape.test_anomaly,
                        mix: SubpopulationMix::uniform(2),
                        is_case: true,
                    },
                ],
                cohort_seed,
            ),
        };
        let rows = |r: std::ops::Range<usize>| r.collect::<Vec<_>>();
        Inputs {
            train: data.select_rows(&rows(0..shape.train)),
            test: data.select_rows(&rows(shape.train..data.n_rows())),
            labels: labels[shape.train..].to_vec(),
        }
    }
}
