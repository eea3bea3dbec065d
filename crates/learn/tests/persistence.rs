//! Round-trip tests of every model type's binary serialization: a fitted
//! and a reloaded model must agree *exactly* on all predictions and
//! re-encode to the same bytes. The text readers of older model files are
//! checked for the same rejections as the binary ones.

use frac_dataset::binio::{ByteError, ByteReader, ByteWriter};
use frac_dataset::textio::TextReader;
use frac_dataset::DesignMatrix;
use frac_learn::baseline::{
    ConstantRegressor, ConstantRegressorTrainer, MajorityClassifier, MajorityClassifierTrainer,
};
use frac_learn::error::{ConfusionErrorModel, GaussianErrorModel};
use frac_learn::svc::SvcTrainer;
use frac_learn::svr::{LinearSvr, SvrTrainer};
use frac_learn::traits::{Classifier, ClassifierTrainer, Regressor, RegressorTrainer};
use frac_learn::tree::{
    ClassificationTree, ClassificationTreeTrainer, RegressionTree, RegressionTreeTrainer,
};
use frac_learn::LinearSvc;

fn matrix(n: usize, d: usize, seed: u64) -> DesignMatrix {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    DesignMatrix::from_raw(n, d, (0..n * d).map(|_| next()).collect())
}

fn encode<T>(model: &T, write: impl Fn(&T, &mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write(model, &mut w);
    w.finish()
}

/// Encode, decode (every byte consumed), and check the decoded model
/// encodes to the same bytes.
fn roundtrip<T>(
    model: &T,
    write: impl Fn(&T, &mut ByteWriter),
    parse: impl Fn(&mut ByteReader) -> Result<T, ByteError>,
) -> T {
    let bytes = encode(model, &write);
    let mut r = ByteReader::new(&bytes);
    let back = parse(&mut r).expect("roundtrip parse");
    r.finish("model").expect("every byte consumed");
    assert_eq!(encode(&back, &write), bytes, "one byte image per model");
    back
}

#[test]
fn svr_roundtrip_is_prediction_exact() {
    let x = matrix(30, 7, 1);
    let y: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
    let t = SvrTrainer::default().train(&x, &y);
    let back = roundtrip(&t.model, LinearSvr::write_bin, LinearSvr::parse_bin);
    for r in 0..30 {
        assert_eq!(
            t.model.predict(x.row(r)).to_bits(),
            back.predict(x.row(r)).to_bits(),
            "row {r}"
        );
    }
}

#[test]
fn svc_roundtrip_is_prediction_exact() {
    let x = matrix(40, 5, 2);
    let y: Vec<u32> = (0..40).map(|i| (i % 3) as u32).collect();
    let t = SvcTrainer::default().train(&x, &y, 3);
    let back = roundtrip(&t.model, LinearSvc::write_bin, LinearSvc::parse_bin);
    assert_eq!(back.n_classes(), 3);
    for r in 0..40 {
        assert_eq!(t.model.predict(x.row(r)), back.predict(x.row(r)));
        for k in 0..3 {
            assert_eq!(
                t.model.decision_value(k, x.row(r)).to_bits(),
                back.decision_value(k, x.row(r)).to_bits()
            );
        }
    }
}

#[test]
fn tree_roundtrips_preserve_structure() {
    let x = matrix(60, 4, 3);
    let yc: Vec<u32> = (0..60).map(|i| u32::from(x.get(i, 0) > 0.0)).collect();
    let yr: Vec<f64> = (0..60).map(|i| x.get(i, 1) * 2.0).collect();

    let ct = ClassificationTreeTrainer::default().train(&x, &yc, 2);
    let ct_back = roundtrip(&ct.model, ClassificationTree::write_bin, |r| {
        ClassificationTree::parse_bin(r)
    });
    assert_eq!(ct.model.n_nodes(), ct_back.n_nodes());
    assert_eq!(ct.model.n_leaves(), ct_back.n_leaves());

    let rt = RegressionTreeTrainer::default().train(&x, &yr);
    let rt_back =
        roundtrip(&rt.model, RegressionTree::write_bin, RegressionTree::parse_bin);
    for r in 0..60 {
        assert_eq!(ct.model.predict(x.row(r)), ct_back.predict(x.row(r)));
        assert_eq!(
            rt.model.predict(x.row(r)).to_bits(),
            rt_back.predict(x.row(r)).to_bits()
        );
    }
}

#[test]
fn error_model_roundtrips() {
    let pairs: Vec<(f64, f64)> = (0..50).map(|i| (i as f64 * 0.1, i as f64 * 0.09)).collect();
    let g = GaussianErrorModel::fit(&pairs);
    let g_back = roundtrip(&g, GaussianErrorModel::write_bin, |r| {
        GaussianErrorModel::parse_bin(r)
    });
    assert_eq!(g.surprisal(1.0, 0.5).to_bits(), g_back.surprisal(1.0, 0.5).to_bits());

    let cpairs: Vec<(u32, u32)> = (0..60).map(|i| ((i % 3) as u32, ((i / 2) % 3) as u32)).collect();
    let c = ConfusionErrorModel::fit(&cpairs, 3);
    let c_back = roundtrip(&c, ConfusionErrorModel::write_bin, |r| {
        ConfusionErrorModel::parse_bin(r)
    });
    for t in 0..3 {
        for p in 0..3 {
            assert_eq!(c.surprisal(t, p).to_bits(), c_back.surprisal(t, p).to_bits());
        }
    }
}

#[test]
fn baseline_roundtrips() {
    let x = matrix(10, 1, 5);
    let cr = ConstantRegressorTrainer.train(&x, &[1.0; 10]).model;
    let cr_back =
        roundtrip(&cr, ConstantRegressor::write_bin, ConstantRegressor::parse_bin);
    assert_eq!(cr.mean(), cr_back.mean());

    let mc = MajorityClassifierTrainer.train(&x, &[2; 10], 3).model;
    let mc_back =
        roundtrip(&mc, MajorityClassifier::write_bin, MajorityClassifier::parse_bin);
    assert_eq!(mc.class(), mc_back.class());
}

#[test]
fn corrupted_model_bytes_are_rejected() {
    fn parse_err<T>(
        bytes: &[u8],
        parse: impl Fn(&mut ByteReader) -> Result<T, ByteError>,
    ) -> String {
        match parse(&mut ByteReader::new(bytes)) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("corrupt bytes parsed"),
        }
    }
    let mut w = ByteWriter::new();
    // Out-of-range leaf class: arity 2, one leaf of class 7.
    w.u32(2);
    w.u32(1);
    w.u8(0);
    w.u32(7);
    assert!(parse_err(w.as_bytes(), ClassificationTree::parse_bin).contains("leaf class 7"));
    // Split child out of range: one split node pointing at nodes 3 and 4.
    let mut w = ByteWriter::new();
    w.u32(1);
    w.u8(1);
    w.u32(0);
    w.f64(0.5);
    w.u32(3);
    w.u32(4);
    assert!(parse_err(w.as_bytes(), RegressionTree::parse_bin).contains("out of range"));
    // Unknown node tag.
    let mut w = ByteWriter::new();
    w.u32(1);
    w.u8(2);
    w.f64(0.5);
    assert!(parse_err(w.as_bytes(), RegressionTree::parse_bin).contains("unknown node tag 2"));
    // Too few counts for the arity, and a non-positive alpha.
    let mut w = ByteWriter::new();
    w.u32(3);
    w.f64(1.0);
    for c in [1u64, 2, 3] {
        w.u64(c);
    }
    assert!(parse_err(w.as_bytes(), ConfusionErrorModel::parse_bin).contains("confusion counts"));
    let mut w = ByteWriter::new();
    w.u32(1);
    w.f64(0.0);
    w.u64(5);
    assert!(parse_err(w.as_bytes(), ConfusionErrorModel::parse_bin).contains("alpha"));
    // A σ under the floor has no writer (fits floor it) — refused, not
    // floored into a second byte image.
    let mut w = ByteWriter::new();
    w.f64(0.0);
    w.f64(0.0);
    assert!(parse_err(w.as_bytes(), GaussianErrorModel::parse_bin).contains("sigma"));
    // A weight count larger than the bytes left fails before allocating.
    let mut w = ByteWriter::new();
    w.f64(0.0);
    w.u32(u32::MAX);
    assert!(parse_err(w.as_bytes(), LinearSvr::parse_bin).contains("svr weights"));
}

#[test]
fn corrupted_model_text_is_rejected() {
    // Out-of-range leaf class.
    let text = "ctree_arity 2\ntree_nodes 1\nleaf 7\n";
    let mut r = TextReader::new(text);
    assert!(ClassificationTree::parse_text(&mut r).is_err());
    // Split child out of range.
    let text = "rtree\ntree_nodes 1\nsplit 0 0.5 3 4\n";
    let mut r = TextReader::new(text);
    assert!(RegressionTree::parse_text(&mut r).is_err());
    // Wrong counts length.
    let text = "conf_err 3 1.0\nconf_counts 1 2 3\n";
    let mut r = TextReader::new(text);
    assert!(ConfusionErrorModel::parse_text(&mut r).is_err());
}
