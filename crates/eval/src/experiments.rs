//! Experiment roster and per-data-set settings (paper §III-B).
//!
//! * Expression data sets: linear SVMs, "exactly as in the original FRaC
//!   paper". SNP data sets: decision trees.
//! * Filtering at p = 0.05, ensembles of 10 (both random filtering and
//!   diverse), Diverse at p = ½ (p = 1/20 inside ensembles), JL at 1024
//!   projected dimensions (2048/4096 extras on schizophrenia).
//! * JL dimensions are rescaled to our surrogate sizes preserving the d/D
//!   ratio (documented in EXPERIMENTS.md).
//! * The schizophrenia full run is **extrapolated** from the autism run,
//!   exactly as the paper's Table II does.

use frac_core::{FeatureSelector, FracConfig, ResourceReport, Variant};
use frac_projection::JlMatrixKind;
use frac_synth::registry::{DatasetSpec, PaperModel};

/// A named method — one column group of Tables III/IV.
#[derive(Debug, Clone)]
pub struct MethodSpec {
    /// Display name matching the paper's tables.
    pub name: &'static str,
    /// The variant to run.
    pub variant: Variant,
}

/// The model configuration the paper used for this data set (§III-B):
/// linear SVMs for expression, decision trees for SNPs. SVMs run the
/// strict reference solver, the paper anchor (DESIGN.md §8): its cost
/// follows the paper's d-dominated model, and its arithmetic is the one
/// the archived `results/` runs used.
pub fn config_for(spec: &DatasetSpec) -> FracConfig {
    match spec.model {
        PaperModel::LinearSvm => {
            FracConfig::expression().with_solver_mode(frac_core::SolverMode::Strict)
        }
        PaperModel::DecisionTree => FracConfig::snp(),
    }
}

/// Scale the paper's projected dimension to our surrogate size, preserving
/// the ratio `d / D_paper` (minimum 8, rounded up to a multiple of 8).
pub fn jl_dim_for(spec: &DatasetSpec, paper_dim: usize) -> usize {
    let ratio = paper_dim as f64 / spec.paper_features as f64;
    let scaled = (ratio * spec.n_features() as f64).ceil() as usize;
    scaled.div_ceil(8).max(1) * 8
}

/// The five scalable methods of Tables III and IV, configured exactly as in
/// §III-B: random-filter ensemble (10 × p=.05, median), JL pre-projection,
/// entropy filtering (p=.05), Diverse (p=½), Diverse ensemble (10 × p=1/20).
pub fn paper_method_roster(spec: &DatasetSpec) -> Vec<MethodSpec> {
    vec![
        MethodSpec {
            name: "Ensemble of Random Filtering",
            variant: Variant::Ensemble {
                base: Box::new(Variant::FullFilter {
                    selector: FeatureSelector::Random,
                    p: 0.05,
                }),
                members: 10,
            },
        },
        MethodSpec {
            name: "JL",
            variant: Variant::JlProject {
                dim: jl_dim_for(spec, 1024),
                kind: JlMatrixKind::Gaussian,
            },
        },
        MethodSpec {
            name: "Entropy Filtering",
            variant: Variant::FullFilter { selector: FeatureSelector::Entropy, p: 0.05 },
        },
        MethodSpec {
            name: "Diverse",
            variant: Variant::Diverse { p: 0.5, models_per_feature: 1 },
        },
        MethodSpec {
            name: "Diverse Ensemble",
            variant: Variant::Ensemble {
                base: Box::new(Variant::Diverse { p: 1.0 / 20.0, models_per_feature: 1 }),
                members: 10,
            },
        },
    ]
}

/// An extrapolated full-run cost (the italic schizophrenia row of Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtrapolatedCost {
    /// Estimated flops of the (never executed) full run.
    pub flops: f64,
    /// Estimated peak bytes.
    pub peak_bytes: f64,
}

/// Extrapolate a full-FRaC run's cost from a measured smaller run, exactly
/// as the paper extrapolated schizophrenia from autism:
///
/// * training work scales as `f² · n` (f models, each over ~f inputs, n
///   samples);
/// * peak memory is dominated by retained model state, scaling as `f²`.
///
/// `measured` is the smaller data set's report; `(f, n)` pairs give the
/// feature/training-sample counts of the measured and target data sets.
pub fn extrapolate_full_run(
    measured: &ResourceReport,
    measured_fn: (usize, usize),
    target_fn: (usize, usize),
) -> ExtrapolatedCost {
    let (f0, n0) = (measured_fn.0 as f64, measured_fn.1 as f64);
    let (f1, n1) = (target_fn.0 as f64, target_fn.1 as f64);
    assert!(f0 > 0.0 && n0 > 0.0, "measured sizes must be positive");
    let f_ratio = f1 / f0;
    ExtrapolatedCost {
        flops: measured.flops as f64 * f_ratio * f_ratio * (n1 / n0),
        peak_bytes: measured.peak_bytes() as f64 * f_ratio * f_ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_synth::registry::spec;

    #[test]
    fn roster_matches_paper_settings() {
        let roster = paper_method_roster(&spec("biomarkers"));
        assert_eq!(roster.len(), 5);
        assert_eq!(roster[0].name, "Ensemble of Random Filtering");
        match &roster[0].variant {
            Variant::Ensemble { base, members } => {
                assert_eq!(*members, 10);
                match **base {
                    Variant::FullFilter { selector, p } => {
                        assert_eq!(selector, FeatureSelector::Random);
                        assert!((p - 0.05).abs() < 1e-12);
                    }
                    _ => panic!("wrong base"),
                }
            }
            _ => panic!("wrong variant"),
        }
        match &roster[3].variant {
            Variant::Diverse { p, models_per_feature } => {
                assert!((p - 0.5).abs() < 1e-12);
                assert_eq!(*models_per_feature, 1);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn jl_dims_preserve_paper_ratio() {
        let s = spec("biomarkers");
        let d = jl_dim_for(&s, 1024);
        // 1024/19739 ≈ 5.2% of 600 ≈ 31 → rounded to 32.
        assert_eq!(d, 32);
        let ratio_ours = d as f64 / s.n_features() as f64;
        let ratio_paper = 1024.0 / s.paper_features as f64;
        assert!((ratio_ours - ratio_paper).abs() < 0.02);
    }

    #[test]
    fn jl_dim_sweep_doubles() {
        let s = spec("schizophrenia");
        let d1 = jl_dim_for(&s, 1024);
        let d2 = jl_dim_for(&s, 2048);
        let d4 = jl_dim_for(&s, 4096);
        assert!(d1 < d2 && d2 < d4, "{d1} {d2} {d4}");
        assert!(d1 >= 8);
    }

    #[test]
    fn config_families_match_models() {
        use frac_core::config::{CatModel, RealModel};
        let expr = config_for(&spec("bild"));
        assert!(
            matches!(expr.real_model, RealModel::Svr(c) if c.mode == frac_core::SolverMode::Strict)
        );
        let snp = config_for(&spec("autism"));
        assert!(matches!(snp.real_model, RealModel::Tree(_)));
        assert!(matches!(snp.cat_model, CatModel::Tree(_)));
    }

    #[test]
    fn extrapolation_scaling_laws() {
        let measured = ResourceReport {
            flops: 1_000_000,
            model_bytes: 1_000_000,
            models_trained: 10,
            ..ResourceReport::default()
        };
        // 10× features, same samples → 100× flops and bytes.
        let e = extrapolate_full_run(&measured, (100, 50), (1000, 50));
        assert!((e.flops - 1e8).abs() < 1.0);
        assert!((e.peak_bytes - 1e8).abs() < 1.0);
        // 2× samples at same features → 2× flops, same bytes.
        let e = extrapolate_full_run(&measured, (100, 50), (100, 100));
        assert!((e.flops - 2e6).abs() < 1.0);
        assert!((e.peak_bytes - 1e6).abs() < 1.0);
    }

    #[test]
    fn extrapolated_schizophrenia_dwarfs_autism() {
        // Mirrors the paper's Table II: the extrapolated run is thousands of
        // times the autism run.
        let autism = spec("autism");
        let schizo = spec("schizophrenia");
        let measured = ResourceReport { flops: 1_000, model_bytes: 1_000, ..Default::default() };
        let e = extrapolate_full_run(
            &measured,
            (autism.n_features(), 105),
            (schizo.n_features(), 270),
        );
        assert!(e.flops / 1_000.0 > 100.0);
    }
}
