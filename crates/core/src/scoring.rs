//! Compiled scoring: a fitted model rewritten once into pool-column space.
//!
//! Scoring a record runs every per-feature predictor and sums
//! `surprisal − entropy` (paper §I-A). The predictors were fitted on
//! per-target design views; mapping those onto one encoded pool row is
//! setup that costs far more than the predictors on a single record, so a
//! [`ScoringPlan`] does it once per model:
//!
//! * the pool layout is fixed (the model's encoder table, one
//!   [`PoolSpec`] holding the encoder of every feature a predictor reads);
//! * linear SVR/SVC predictors become ascending pool-column segments; their
//!   weights stay in the model and are read against the encoded pool row
//!   directly;
//! * trees become flat node arrays whose split columns are already pool
//!   columns;
//! * a confusion error model becomes a `k × k` table of
//!   `surprisal(t | p) − H(f)`.
//!
//! **NS bits are unchanged.** Every predictor keeps its own fold order: a
//! linear dot product is still `Σ w·x` folded left to right over the
//! predictor's columns from `−0.0` (what `Iterator::sum` starts from), then
//! `+ bias`; a tree compares the same values against the same thresholds;
//! per row, predictor contributions are added in predictor order. The only
//! hoisted values are ones the reference path also computes as a unit:
//! `−ln P(t | p)` per confusion cell, then `− H(f)`. `contributions_unpooled`
//! (one owned encode per predictor, from a spec assembled out of the same
//! table) is the oracle this is tested against.
//!
//! **Independent chains overlap.** A dot product is one chain of dependent
//! adds, so the plan runs several at once, each with its own accumulator.
//! A call of three or more records (`BLOCKS_FROM`) on a plan with a
//! linear predictor encodes the batch once into blocks of eight records
//! interleaved by pool column, and every SVR and SVC hyperplane folds each
//! block through [`kernels::dot8_blocked`], one SIMD lane per record. A
//! smaller call folds up to four consecutive SVR predictors of equal width
//! together in one pass over each row. Neither changes any fold order: a
//! lane adds its record's rounded products in column order, exactly as the
//! one-row fold does.

use crate::model::{
    CatPredictor, ErrorModel, FeatureModel, FeaturePredictor, Inputs, PredictorModel, RealPredictor,
};
use frac_dataset::dataset::MISSING_CODE;
use frac_dataset::design::{DesignMatrix, PoolSpec};
use frac_dataset::kernels::{self, BLOCK_RECORDS};
use frac_dataset::{Column, Dataset};
use frac_learn::telemetry;
use frac_learn::tree::Node;
use frac_learn::LinearSvc;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Mutex, TryLockError};

/// Records from which a call folds its linear predictors in blocks of
/// [`BLOCK_RECORDS`] instead of lanes. A block costs about the same however
/// many of its eight slots hold records, so it pays once a call has enough
/// of them; DESIGN.md §6 "Blocks for batches" has the measurement.
const BLOCKS_FROM: usize = 3;

/// SVR predictors that share one pass over a record's pool row when a call
/// scores fewer than [`BLOCKS_FROM`] records. Each lane keeps its own
/// accumulator and reads its own weights and segments, so its fold order is
/// exactly the single-predictor order; the lanes only let independent
/// chains overlap.
const LANES: usize = 4;
const _: () = assert!(LANES == 4, "`lane_row` dispatches 1 to 4 lanes");

/// Work units charged per tree level walked, relative to one linear
/// multiply-add (a level is a dependent, usually cache-missing load).
const TREE_LEVEL_WORK: u64 = 8;

/// Below this much estimated work (records × [`ScoringPlan::work_per_row`])
/// a call scores on the calling thread instead of fanning features out
/// over the workspace rayon's resident workers. Fanning out wakes a parked
/// worker (13–16 µs) while the caller starts on the first feature group;
/// DESIGN.md §6 "Fan-out threshold" has the break-even table. At
/// `available_parallelism() = 2` on the 400-feature ledger surrogates, one
/// expression record (~160 k units) scores faster on both cores, and one
/// to four SNP records (~21 k units each) do not.
pub const PARALLEL_WORK_THRESHOLD: u64 = 100_000;

/// Feature groups a fanned-out call is cut into, per thread. More groups
/// than threads let a worker that wakes late take whatever groups are
/// left instead of a fixed share.
const GROUPS_PER_THREAD: usize = 8;

/// A maximal run of pool columns a predictor reads, in the order of its
/// design columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    start: u32,
    width: u32,
}

/// Split column marking a leaf in [`FlatNode`].
const LEAF: u32 = u32::MAX;

/// One tree node in pool-column space. A split sends `row[col] <= value`
/// to `left`; a leaf (`col == LEAF`) carries a regression value in `value`
/// or a class code in `left`. Child indices are relative to the tree's
/// first node.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    value: f64,
    col: u32,
    left: u32,
    right: u32,
}

/// How one predictor reads the pool row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// SVR or SVC: the model's weight vector(s) laid over `parts` segments.
    Linear,
    /// Regression or classification tree of `parts` nodes.
    Tree,
    /// Constant or majority baseline: reads nothing.
    Constant,
}

/// One compiled `(predictor, error model)` pair; its segments or nodes and
/// its confusion table live in the plan's shared arrays.
#[derive(Debug, Clone, Copy)]
struct CompiledPredictor {
    layout: Layout,
    /// First segment (`Linear`) or node (`Tree`), and how many.
    first: u32,
    parts: u32,
    /// Confusion error models only: `surprisal(t | p) − H(f)` lives at
    /// `tables[table + p · arity + t]`. Arity 0 for Gaussian error models.
    table: u32,
    arity: u32,
}

impl CompiledPredictor {
    /// Its segments or nodes in the plan's shared array.
    fn parts(&self) -> Range<usize> {
        self.first as usize..(self.first + self.parts) as usize
    }
}

/// A fitted model compiled for scoring; see the [module docs](self).
///
/// Built once per model by [`crate::FracModel::scoring_plan`] and shared
/// by `frac score`, the serving daemon, the variants and CSAX. Linear
/// weights and the encoder table are read from the model at score time,
/// so the plan adds only segment lists, flat trees and confusion tables —
/// kept in a handful of shared arrays rather than one allocation per
/// predictor.
#[derive(Debug)]
pub struct ScoringPlan {
    /// Model feature `i`'s predictors are
    /// `predictors[feature_start[i]..feature_start[i + 1]]`, in model order.
    feature_start: Vec<u32>,
    predictors: Vec<CompiledPredictor>,
    segments: Vec<Segment>,
    nodes: Vec<FlatNode>,
    tables: Vec<f64>,
    work_per_row: u64,
    /// Whether any predictor is an SVR or SVC, which batches fold in
    /// blocks, and whether any is a tree, which reads pool rows.
    linear: bool,
    trees: bool,
    /// The blocked layout's storage, kept between calls so a serving
    /// daemon's batches reuse one allocation. Every call rewrites all of
    /// it, so no state carries over; a call that finds it taken encodes
    /// into a buffer of its own.
    blocks: Mutex<Vec<f64>>,
}

impl ScoringPlan {
    /// Compile `features` (a model's fitted targets) over its encoder
    /// `table`. Fails on a model whose parts disagree — an input the table
    /// lacks, a weight vector of the wrong length, a tree splitting on a
    /// column its design lacks or whose children do not point forward, a
    /// predicted class outside its confusion table — which a parsed,
    /// CRC-valid file can still carry, and which would otherwise panic,
    /// loop or silently mis-score mid-request.
    pub(crate) fn compile(table: &PoolSpec, features: &[FeatureModel]) -> Result<ScoringPlan, String> {
        let n_predictors: usize = features.iter().map(|fm| fm.predictors.len()).sum();
        if u32::try_from(table.n_cols()).is_err() || u32::try_from(n_predictors).is_err() {
            return Err(format!(
                "{n_predictors} predictors over a pool of {} columns are too many to compile",
                table.n_cols()
            ));
        }
        let mut plan = ScoringPlan {
            feature_start: Vec::with_capacity(features.len() + 1),
            predictors: Vec::with_capacity(n_predictors),
            segments: Vec::new(),
            nodes: Vec::new(),
            tables: Vec::new(),
            work_per_row: 0,
            linear: false,
            trees: false,
            blocks: Mutex::new(Vec::new()),
        };
        let mut scratch = Scratch::default();
        for fm in features {
            plan.feature_start.push(plan.predictors.len() as u32);
            for fp in &fm.predictors {
                let cp = plan
                    .compile_predictor(table, fm, fp, &mut scratch)
                    .map_err(|e| format!("target {}: {e}", fm.target))?;
                plan.predictors.push(cp);
            }
        }
        plan.feature_start.push(plan.predictors.len() as u32);
        let too_big = |n: usize| u32::try_from(n).is_err();
        if too_big(plan.segments.len()) || too_big(plan.nodes.len()) || too_big(plan.tables.len()) {
            return Err("model is too large to compile".into());
        }
        Ok(plan)
    }

    /// Estimated cost of scoring one record, in linear multiply-adds (a
    /// tree level counts as several; see [`PARALLEL_WORK_THRESHOLD`]).
    pub fn work_per_row(&self) -> u64 {
        self.work_per_row
    }

    /// Per-feature contributions of `test` (already sanitized), feature
    /// major: feature `i`'s value for row `r` is at `i · n_rows + r`.
    /// `table` and `features` must be the ones this plan was compiled from.
    pub(crate) fn contributions(
        &self,
        table: &PoolSpec,
        features: &[FeatureModel],
        test: &Dataset,
    ) -> Vec<f64> {
        let n_rows = test.n_rows();
        let n_features = features.len();
        if n_rows == 0 || n_features == 0 {
            return Vec::new();
        }
        // Linear predictors of a batch read blocks; trees, and linear
        // predictors of a smaller call, read row-major pool rows. Both
        // layouts are built here, once, before any fan-out.
        let blocked = self.linear && n_rows >= BLOCKS_FROM;
        let rows = if self.trees || !blocked {
            table.encode_rows(test)
        } else {
            DesignMatrix::empty(n_rows)
        };
        let mut held = match blocked.then(|| self.blocks.try_lock()) {
            Some(Ok(buf)) => Some(buf),
            // Every call rewrites the whole buffer, so a panic mid-call
            // left nothing that needs repair.
            Some(Err(TryLockError::Poisoned(p))) => Some(p.into_inner()),
            Some(Err(TryLockError::WouldBlock)) | None => None,
        };
        let mut own = Vec::new();
        let blocks = blocked.then(|| {
            let buf = held.as_deref_mut().unwrap_or(&mut own);
            table.encode_blocks(test, buf);
            Blocks { values: buf, n_cols: table.n_cols(), n_rows }
        });
        let threads = rayon::current_num_threads().min(n_features);
        let work = self.work_per_row.saturating_mul(n_rows as u64);
        if threads <= 1 || work < PARALLEL_WORK_THRESHOLD {
            let mut out = vec![0.0f64; n_features * n_rows];
            self.score_range(features, 0..n_features, &rows, blocks, test, &mut out);
            return out;
        }
        // Contiguous feature groups, claimed one at a time; each fills its
        // own slab and the slabs concatenate in feature order.
        let per = n_features.div_ceil(threads * GROUPS_PER_THREAD);
        let groups: Vec<Range<usize>> = (0..n_features)
            .step_by(per)
            .map(|s| s..(s + per).min(n_features))
            .collect();
        let slabs: Vec<Vec<f64>> = groups
            .par_iter()
            .map(|g| {
                let mut slab = vec![0.0f64; g.len() * n_rows];
                self.score_range(features, g.clone(), &rows, blocks, test, &mut slab);
                slab
            })
            .collect();
        slabs.concat()
    }

    fn score_range(
        &self,
        features: &[FeatureModel],
        range: Range<usize>,
        rows: &DesignMatrix,
        blocks: Option<Blocks>,
        test: &Dataset,
        out: &mut [f64],
    ) {
        let n_rows = rows.n_rows();
        let mut linear = match blocks {
            Some(blocks) => Linear::Blocks(blocks),
            None => Linear::Lanes(LaneGroup::default()),
        };
        // Lane groups stop at the end of this call's features.
        let features = &features[..range.end];
        for (i, col) in range.zip(out.chunks_exact_mut(n_rows)) {
            self.score_feature(features, i, &mut linear, rows, test, col);
        }
    }

    /// Add feature `i`'s contributions to `col` (one slot per row). Under
    /// [`Linear::Lanes`], its SVRs take their dot products from the lane
    /// group, which is folded anew over `features[i..]` when it does not
    /// hold them.
    fn score_feature(
        &self,
        features: &[FeatureModel],
        i: usize,
        linear: &mut Linear,
        rows: &DesignMatrix,
        test: &Dataset,
        col: &mut [f64],
    ) {
        let fm = &features[i];
        let _target_guard = telemetry::target_guard(fm.target);
        let _score_span = telemetry::span(telemetry::Stage::Score);
        let n_rows = rows.n_rows();
        let first = self.feature_start[i] as usize;
        let compiled = fm.predictors.iter().zip(&self.predictors[first..]);
        for (p, (fp, cp)) in (first..).zip(compiled) {
            let parts = cp.parts();
            match (&fp.model, &fp.error, test.column(fm.target)) {
                (PredictorModel::Real(model), ErrorModel::Gaussian(err), Column::Real(truth)) => {
                    let present = (0..n_rows).filter(|&r| !truth[r].is_nan());
                    let mut add = |r: usize, pred: f64| {
                        col[r] += err.surprisal(truth[r], pred) - fm.entropy;
                    };
                    match (model, cp.layout) {
                        (RealPredictor::Svr(m), Layout::Linear) => match linear {
                            Linear::Blocks(blocks) => {
                                blocks.dots(m.weights(), &self.segments[parts], |r, dot| {
                                    if !truth[r].is_nan() {
                                        add(r, dot + m.bias());
                                    }
                                });
                            }
                            // A group's pass runs in the span of its first
                            // feature.
                            Linear::Lanes(group) => {
                                if !group.holds(p) {
                                    *group = self.fold_lanes(features, i, p, rows);
                                }
                                let lane = p - group.first;
                                for r in present {
                                    add(r, group.dots[r][lane] + m.bias());
                                }
                            }
                        },
                        (RealPredictor::Tree(_), Layout::Tree) => {
                            let nodes = &self.nodes[parts];
                            for r in present {
                                add(r, walk(nodes, rows.row(r)).value);
                            }
                        }
                        (RealPredictor::Constant(m), Layout::Constant) => {
                            for r in present {
                                add(r, m.mean());
                            }
                        }
                        _ => unreachable!("a plan is compiled from the model it scores"),
                    }
                }
                (
                    PredictorModel::Cat(model),
                    ErrorModel::Confusion(_),
                    Column::Categorical { codes, .. },
                ) => {
                    let present = (0..n_rows).filter(|&r| codes[r] != MISSING_CODE);
                    let k = cp.arity as usize;
                    let table = &self.tables[cp.table as usize..cp.table as usize + k * k];
                    let mut add = |r: usize, pred: u32| {
                        let p = pred as usize;
                        col[r] += table[p * k..(p + 1) * k][codes[r] as usize];
                    };
                    match (model, cp.layout) {
                        (CatPredictor::Svc(m), Layout::Linear) => {
                            let segs = &self.segments[parts];
                            match linear {
                                Linear::Blocks(blocks) => blocks.classes(m, segs, |r, class| {
                                    if codes[r] != MISSING_CODE {
                                        add(r, class);
                                    }
                                }),
                                Linear::Lanes(_) => {
                                    for r in present {
                                        add(r, svc_class(m, segs, rows.row(r)));
                                    }
                                }
                            }
                        }
                        (CatPredictor::Tree(_), Layout::Tree) => {
                            let nodes = &self.nodes[parts];
                            for r in present {
                                add(r, walk(nodes, rows.row(r)).left);
                            }
                        }
                        (CatPredictor::Majority(m), Layout::Constant) => {
                            for r in present {
                                add(r, m.class());
                            }
                        }
                        _ => unreachable!("a plan is compiled from the model it scores"),
                    }
                }
                _ => unreachable!("model/error/column kinds are constructed consistently"),
            }
        }
    }

    /// Fold the dot products of the SVR at plan index `p` (a predictor of
    /// feature `i`) and of the SVRs right after it in plan order, up to
    /// [`LANES`] of one width within `features`, in one pass per row. Any
    /// other predictor or a change of width ends the group.
    ///
    /// Kept out of line: inlined into [`Self::score_feature`] with its four
    /// lane kernels, it made one SNP record (trees only) score 9% slower
    /// on a 2-vCPU x86-64 host.
    #[inline(never)]
    fn fold_lanes(
        &self,
        features: &[FeatureModel],
        i: usize,
        p: usize,
        rows: &DesignMatrix,
    ) -> LaneGroup {
        let svrs = (i..features.len())
            .flat_map(|f| {
                let first = self.feature_start[f] as usize;
                features[f].predictors.iter().zip(&self.predictors[first..])
            })
            .skip(p - self.feature_start[i] as usize)
            .map_while(|(fp, cp)| match (&fp.model, cp.layout) {
                (PredictorModel::Real(RealPredictor::Svr(m)), Layout::Linear) => {
                    Some((m.weights(), &self.segments[cp.parts()]))
                }
                _ => None,
            });
        let (mut ws, mut segs) = ([&[][..]; LANES], [&[][..]; LANES]);
        let mut len = 0;
        for (w, s) in svrs.take(LANES) {
            if len > 0 && w.len() != ws[0].len() {
                break;
            }
            (ws[len], segs[len]) = (w, s);
            len += 1;
        }
        let mut group = LaneGroup {
            first: p,
            len,
            dots: [[0.0; LANES]; BLOCKS_FROM - 1],
        };
        for (r, dots) in group.dots.iter_mut().enumerate().take(rows.n_rows()) {
            *dots = lane_row(&ws[..len], &segs[..len], rows.row(r));
        }
        group
    }

    /// Compile one predictor into the plan's shared arrays, adding its
    /// per-row work to the estimate.
    fn compile_predictor(
        &mut self,
        table: &PoolSpec,
        fm: &FeatureModel,
        fp: &FeaturePredictor,
        scratch: &mut Scratch,
    ) -> Result<CompiledPredictor, String> {
        // Segments go in first; a predictor that turns out not to be
        // linear maps its tree's split columns through them and truncates
        // them again.
        let first_seg = self.segments.len();
        match &fp.inputs {
            Inputs::AllButTarget => push_all_but(table, fm.target, &mut self.segments),
            Inputs::List(list) => {
                push_segments(table, list.iter().map(|&j| j as usize), &mut self.segments)?
            }
        }
        let n_cols: usize = self.segments[first_seg..]
            .iter()
            .map(|s| s.width as usize)
            .sum();
        let check_len = |what: &str, len: usize| {
            if len == n_cols {
                Ok(())
            } else {
                Err(format!(
                    "{what} has {len} weights for a {n_cols}-column design"
                ))
            }
        };
        let linear = |plan: &Self| (first_seg as u32, (plan.segments.len() - first_seg) as u32);
        // `max_class`: the highest class code the predictor can emit.
        let (layout, (first, parts), work, max_class) = match &fp.model {
            PredictorModel::Real(RealPredictor::Svr(m)) => {
                check_len("SVR", m.weights().len())?;
                self.linear = true;
                (Layout::Linear, linear(self), n_cols as u64, None)
            }
            PredictorModel::Cat(CatPredictor::Svc(m)) => {
                for k in 0..m.n_classes() {
                    check_len("SVC hyperplane", m.hyperplane(k).0.len())?;
                }
                let top = m.n_classes().saturating_sub(1) as u32;
                self.linear = true;
                (
                    Layout::Linear,
                    linear(self),
                    (n_cols * m.n_classes()) as u64,
                    Some(top),
                )
            }
            other => {
                let first = self.nodes.len();
                let cols = ColumnMap::new(&self.segments[first_seg..], &mut scratch.ends);
                let (layout, depth, max_class) = match other {
                    PredictorModel::Real(RealPredictor::Tree(t)) => {
                        let depth =
                            flatten(t.nodes(), &cols, &mut scratch.depth, &mut self.nodes, |v| {
                                (v, 0)
                            })?;
                        (Layout::Tree, depth, None)
                    }
                    PredictorModel::Cat(CatPredictor::Tree(t)) => {
                        let depth =
                            flatten(t.nodes(), &cols, &mut scratch.depth, &mut self.nodes, |c| {
                                (0.0, c)
                            })?;
                        let top = self.nodes[first..]
                            .iter()
                            .filter(|n| n.col == LEAF)
                            .map(|n| n.left)
                            .max();
                        (Layout::Tree, depth, top)
                    }
                    PredictorModel::Cat(CatPredictor::Majority(m)) => {
                        (Layout::Constant, 0, Some(m.class()))
                    }
                    _ => (Layout::Constant, 0, None),
                };
                self.segments.truncate(first_seg);
                self.trees |= layout == Layout::Tree;
                let parts = (first as u32, (self.nodes.len() - first) as u32);
                let work = if layout == Layout::Tree {
                    (depth + 1) * TREE_LEVEL_WORK
                } else {
                    1
                };
                (layout, parts, work, max_class)
            }
        };
        self.work_per_row = self.work_per_row.saturating_add(work);
        let (table, arity) = match (&fp.model, &fp.error) {
            (PredictorModel::Real(_), ErrorModel::Gaussian(_)) => (0, 0),
            (PredictorModel::Cat(_), ErrorModel::Confusion(err)) => {
                let k = err.arity();
                if let Some(c) = max_class.filter(|&c| c >= k) {
                    return Err(format!(
                        "predictor emits class {c} but its error model has arity {k}"
                    ));
                }
                let table = self.tables.len() as u32;
                for p in 0..k {
                    self.tables
                        .extend((0..k).map(|t| err.surprisal(t, p) - fm.entropy));
                }
                (table, k)
            }
            _ => return Err("predictor and error model kinds disagree".into()),
        };
        Ok(CompiledPredictor {
            layout,
            first,
            parts,
            table,
            arity,
        })
    }
}

/// Reusable compile-time buffers, grown to the largest predictor of a plan.
#[derive(Default)]
struct Scratch {
    /// The end of each segment in design columns, for [`ColumnMap`].
    ends: Vec<u32>,
    /// Depth per node of the tree being flattened.
    depth: Vec<u64>,
}

/// A predictor's design columns → pool columns, through its segments: a
/// design column lies in the segment whose design range holds it, at the
/// same offset.
struct ColumnMap<'a> {
    segments: &'a [Segment],
    /// `ends[k]`: one past the last design column of `segments[k]`.
    ends: &'a [u32],
}

impl<'a> ColumnMap<'a> {
    fn new(segments: &'a [Segment], ends: &'a mut Vec<u32>) -> Self {
        ends.clear();
        let mut end = 0u32;
        ends.extend(segments.iter().map(|s| {
            end += s.width;
            end
        }));
        ColumnMap { segments, ends }
    }

    /// The design's width.
    fn n_cols(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// The pool column of design column `d`, if the design has one.
    fn pool_col(&self, d: usize) -> Option<u32> {
        let k = self.ends.partition_point(|&e| e as usize <= d);
        let s = self.segments.get(k)?;
        // `d` lies in segment `k`, which starts at design column
        // `ends[k] − width`; both fit in u32 (checked by `compile`).
        Some(s.start + (d as u32 - (self.ends[k] - s.width)))
    }
}

/// The dot products of up to [`LANES`] consecutive SVR predictors, from plan
/// index `first`, on each row of a call with fewer than [`BLOCKS_FROM`]
/// rows.
#[derive(Debug, Default)]
struct LaneGroup {
    first: usize,
    len: usize,
    /// `dots[row][lane]`: `Σ w·x` of predictor `first + lane` on `row`.
    dots: [[f64; LANES]; BLOCKS_FROM - 1],
}

impl LaneGroup {
    /// Whether plan predictor `p` is one of this group's lanes.
    fn holds(&self, p: usize) -> bool {
        (self.first..self.first + self.len).contains(&p)
    }
}

/// How a call's linear predictors read its records.
enum Linear<'a> {
    /// Fewer than [`BLOCKS_FROM`] records: SVRs fold in lane groups over
    /// the pool rows, SVC hyperplanes one row at a time.
    Lanes(LaneGroup),
    /// Every SVR and SVC hyperplane folds each block.
    Blocks(Blocks<'a>),
}

/// A call's records encoded by [`PoolSpec::encode_blocks`]: blocks of
/// [`BLOCK_RECORDS`] records interleaved by pool column, the last one
/// zero-padded.
#[derive(Clone, Copy)]
struct Blocks<'a> {
    values: &'a [f64],
    n_cols: usize,
    n_rows: usize,
}

impl Blocks<'_> {
    /// `Σ w·x` over `segs` for every record, one block at a time: lane `b`
    /// of a block folds its record's products left to right over the
    /// segments from `−0.0`, [`dot_row`]'s order, bit for bit. `emit` gets
    /// each record and its sum; a padded slot's sum is dropped.
    fn dots(&self, w: &[f64], segs: &[Segment], mut emit: impl FnMut(usize, f64)) {
        for (first, slab) in self.slabs() {
            let acc = block_dots(w, segs, slab);
            for (b, &dot) in acc.iter().enumerate().take(self.n_rows - first) {
                emit(first + b, dot);
            }
        }
    }

    /// One-vs-rest SVC prediction for every record: the first class with
    /// the strictly greatest decision value (`LinearSvc::predict`'s rule).
    fn classes(&self, m: &LinearSvc, segs: &[Segment], mut emit: impl FnMut(usize, u32)) {
        for (first, slab) in self.slabs() {
            let mut best = [0u32; BLOCK_RECORDS];
            let mut best_v = [f64::NEG_INFINITY; BLOCK_RECORDS];
            for k in 0..m.n_classes() {
                let (w, bias) = m.hyperplane(k);
                let acc = block_dots(w, segs, slab);
                for b in 0..BLOCK_RECORDS {
                    let v = acc[b] + bias;
                    if v > best_v[b] {
                        best_v[b] = v;
                        best[b] = k as u32;
                    }
                }
            }
            for (b, &class) in best.iter().enumerate().take(self.n_rows - first) {
                emit(first + b, class);
            }
        }
    }

    /// Each block's first record and its `8 · n_cols` values.
    fn slabs(&self) -> impl Iterator<Item = (usize, &[f64])> {
        let len = BLOCK_RECORDS * self.n_cols;
        (0..self.n_rows.div_ceil(BLOCK_RECORDS))
            .map(move |k| (k * BLOCK_RECORDS, &self.values[k * len..(k + 1) * len]))
    }
}

/// `Σ w·x` over `segs` for the eight records of one block `slab`, one lane
/// each, from `−0.0`, segment by segment.
fn block_dots(w: &[f64], segs: &[Segment], slab: &[f64]) -> [f64; BLOCK_RECORDS] {
    let mut acc = [-0.0f64; BLOCK_RECORDS];
    let mut wo = 0usize;
    for s in segs {
        let (start, width) = (s.start as usize, s.width as usize);
        let xs = &slab[start * BLOCK_RECORDS..(start + width) * BLOCK_RECORDS];
        kernels::dot8_blocked(&w[wo..wo + width], xs, &mut acc);
        wo += width;
    }
    acc
}

/// One-vs-rest SVC prediction for pool row `x` (see [`Blocks::classes`]).
fn svc_class(m: &LinearSvc, segs: &[Segment], x: &[f64]) -> u32 {
    let mut best = 0u32;
    let mut best_v = f64::NEG_INFINITY;
    for k in 0..m.n_classes() {
        let (w, bias) = m.hyperplane(k);
        let v = dot_row(w, segs, x) + bias;
        if v > best_v {
            best_v = v;
            best = k as u32;
        }
    }
    best
}

/// `Σ w·x` over `segs` for one pool row `x`: products are added left to
/// right over the segments from `−0.0` — `LinearSvr::predict`'s
/// `.sum::<f64>()` order, bit for bit.
///
/// The loop takes four weights per step (still added in order). A one-row
/// sum is a single chain of dependent adds, and a one-weight loop body is
/// small enough that its address decides its speed: the same machine code
/// ran 26% slower when it straddled a cache line. Four adds per step keep
/// it add-latency-bound wherever it lands. Only SVC hyperplanes of calls
/// under [`BLOCKS_FROM`] records fold here; SVRs of such calls fold in
/// [`lane_dots`].
fn dot_row(w: &[f64], segs: &[Segment], x: &[f64]) -> f64 {
    let mut acc = -0.0f64;
    let mut wo = 0usize;
    for s in segs {
        let (start, width) = (s.start as usize, s.width as usize);
        let (ws, xs) = (&w[wo..wo + width], &x[start..start + width]);
        let mut w4 = ws.chunks_exact(4);
        let mut x4 = xs.chunks_exact(4);
        for (w4, x4) in (&mut w4).zip(&mut x4) {
            acc += w4[0] * x4[0];
            acc += w4[1] * x4[1];
            acc += w4[2] * x4[2];
            acc += w4[3] * x4[3];
        }
        for (wv, xv) in w4.remainder().iter().zip(x4.remainder()) {
            acc += wv * xv;
        }
        wo += width;
    }
    acc
}

/// [`lane_dots`] over `ws.len()` lanes (1 to [`LANES`]) of pool row `x`;
/// the result's unused slots are 0.
fn lane_row(ws: &[&[f64]], segs: &[&[Segment]], x: &[f64]) -> [f64; LANES] {
    fn run<const L: usize>(ws: &[&[f64]], segs: &[&[Segment]], x: &[f64]) -> [f64; LANES] {
        let dots = lane_dots::<L>(
            std::array::from_fn(|l| ws[l]),
            std::array::from_fn(|l| segs[l]),
            x,
        );
        let mut out = [0.0; LANES];
        out[..L].copy_from_slice(&dots);
        out
    }
    match ws.len() {
        1 => run::<1>(ws, segs, x),
        2 => run::<2>(ws, segs, x),
        3 => run::<3>(ws, segs, x),
        4 => run::<4>(ws, segs, x),
        n => unreachable!("a lane group holds 1 to {LANES} predictors, not {n}"),
    }
}

/// `Σ w·x` of `L` linear predictors on one pool row `x`, in one pass over
/// the row. Lane `l` folds its weights `ws[l]` against its own segments
/// `segs[l]`, left to right from `−0.0`: [`dots`]'s order for one row, bit
/// for bit. Every lane covers `ws[0].len()` columns; the pass runs in
/// stretches that end wherever any lane's segment ends.
fn lane_dots<const L: usize>(ws: [&[f64]; L], segs: [&[Segment]; L], x: &[f64]) -> [f64; L] {
    let width = ws[0].len();
    let mut acc = [-0.0f64; L];
    // Per lane: the segment being read, and how far into it.
    let (mut seg, mut off) = ([0usize; L], [0usize; L]);
    let mut done = 0usize;
    while done < width {
        let run = (0..L)
            .map(|l| segs[l][seg[l]].width as usize - off[l])
            .min()
            .unwrap_or(0);
        let wr: [&[f64]; L] = std::array::from_fn(|l| &ws[l][done..done + run]);
        let xr: [&[f64]; L] = std::array::from_fn(|l| {
            let start = segs[l][seg[l]].start as usize + off[l];
            &x[start..start + run]
        });
        let quads = run - run % 4;
        for j in (0..quads).step_by(4) {
            for l in 0..L {
                let (w4, x4) = (&wr[l][j..j + 4], &xr[l][j..j + 4]);
                acc[l] += w4[0] * x4[0];
                acc[l] += w4[1] * x4[1];
                acc[l] += w4[2] * x4[2];
                acc[l] += w4[3] * x4[3];
            }
        }
        for j in quads..run {
            for l in 0..L {
                acc[l] += wr[l][j] * xr[l][j];
            }
        }
        done += run;
        for l in 0..L {
            off[l] += run;
            if off[l] == segs[l][seg[l]].width as usize {
                seg[l] += 1;
                off[l] = 0;
            }
        }
    }
    acc
}

/// Walk a flat tree from its root to the leaf for pool row `x`. Compile
/// checked that children point forward, so the walk terminates.
fn walk<'a>(nodes: &'a [FlatNode], x: &[f64]) -> &'a FlatNode {
    let mut i = 0usize;
    loop {
        let n = &nodes[i];
        if n.col == LEAF {
            return n;
        }
        i = if x[n.col as usize] <= n.value {
            n.left
        } else {
            n.right
        } as usize;
    }
}

/// Append the pool columns `inputs` occupy to `out`, as maximal non-empty
/// ascending runs in input order (adjacent features merge into one
/// segment). Fails on an input the pool does not cover.
fn push_segments(
    pool: &PoolSpec,
    inputs: impl Iterator<Item = usize>,
    out: &mut Vec<Segment>,
) -> Result<(), String> {
    let first = out.len();
    for j in inputs {
        if !pool.covers(j) {
            return Err(format!("input feature {j} is not in the encoder table"));
        }
        let cols = pool.col_range(j);
        // The pool is at most u32::MAX wide (checked by `compile`).
        push_run(out, first, cols.start as u32, cols.len() as u32);
    }
    Ok(())
}

/// Append the segments of every table feature but `target` to `out`: what
/// [`push_segments`] gives for [`Inputs::AllButTarget`], without walking
/// the features. Absent features have no columns, so the covered features
/// before the target fill `[0, start(target))` and those after it fill
/// `[end(target), n_cols)`; the two runs merge when the target has none.
fn push_all_but(pool: &PoolSpec, target: usize, out: &mut Vec<Segment>) {
    let n_cols = pool.n_cols();
    let gap = if target < pool.n_features() {
        pool.col_range(target)
    } else {
        n_cols..n_cols
    };
    let first = out.len();
    // The pool is at most u32::MAX wide (checked by `compile`).
    push_run(out, first, 0, gap.start as u32);
    push_run(out, first, gap.end as u32, (n_cols - gap.end) as u32);
}

/// Append `width` pool columns from `start` to the segments `out[first..]`:
/// onto the last one when they continue it, and not at all when empty.
fn push_run(out: &mut Vec<Segment>, first: usize, start: u32, width: u32) {
    if width == 0 {
        return;
    }
    match out[first..].last_mut() {
        Some(s) if s.start + s.width == start => s.width += width,
        _ => out.push(Segment { start, width }),
    }
}

/// Append a node arena, its split columns mapped to pool columns through
/// `cols`, to `out`; returns the tree's depth, tracking each node's in
/// `depth`. `leaf` splits a leaf payload into `(value, class)`.
fn flatten<L: Copy>(
    nodes: &[Node<L>],
    cols: &ColumnMap,
    depth: &mut Vec<u64>,
    out: &mut Vec<FlatNode>,
    leaf: impl Fn(L) -> (f64, u32),
) -> Result<u64, String> {
    if nodes.is_empty() || u32::try_from(nodes.len()).is_err() {
        return Err(format!("tree of {} nodes cannot be compiled", nodes.len()));
    }
    depth.clear();
    depth.resize(nodes.len(), 0);
    let mut max_depth = 0u64;
    for (i, node) in nodes.iter().enumerate() {
        out.push(match node {
            Node::Leaf(payload) => {
                let (value, class) = leaf(*payload);
                FlatNode {
                    value,
                    col: LEAF,
                    left: class,
                    right: 0,
                }
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                let col = cols.pool_col(*feature).ok_or_else(|| {
                    format!(
                        "tree splits on column {feature} of a {}-column design",
                        cols.n_cols()
                    )
                })?;
                for &child in [left, right] {
                    if child <= i || child >= nodes.len() {
                        return Err(format!("tree node {i} has child {child}, not a later node"));
                    }
                    depth[child] = depth[i] + 1;
                    max_depth = max_depth.max(depth[child]);
                }
                FlatNode {
                    value: *threshold,
                    col,
                    left: *left as u32,
                    right: *right as u32,
                }
            }
        });
    }
    Ok(max_depth)
}

#[cfg(test)]
mod tests {
    use super::{
        dot_row, lane_row, push_all_but, push_segments, svc_class, Blocks, ColumnMap, Segment,
        LANES,
    };
    use frac_dataset::kernels::BLOCK_RECORDS;
    use frac_learn::traits::Classifier;
    use frac_learn::LinearSvc;
    use crate::model::{CatPredictor, Inputs, PredictorModel, RealPredictor};
    use crate::{FracConfig, FracModel, TrainingPlan};
    use frac_dataset::binio::{ByteReader, ByteWriter};
    use frac_dataset::crc::crc32;
    use frac_dataset::dataset::DatasetBuilder;
    use frac_dataset::design::PoolSpec;
    use proptest::prelude::*;

    /// SplitMix64 step.
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

    /// A weight or row value: ordinary magnitudes, signed zeros and
    /// subnormals, so a fold that reassociated or dropped a `−0.0` start
    /// would show in the bits.
    fn value(state: &mut u64) -> f64 {
        let sign = if mix(state) & 1 == 0 { 1.0 } else { -1.0 };
        sign * match below(state, 6) {
            0 => 0.0,
            1 => f64::from_bits(1 + mix(state) % (1 << 52)),
            2 => f64::MIN_POSITIVE,
            3 => (below(state, 1 << 20) as f64) * 1e-3,
            _ => (mix(state) >> 11) as f64 / (1u64 << 53) as f64 * 4.0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_lane_folds_like_a_lone_dot_product(
            n_lanes in 1usize..(LANES + 1),
            width in 0usize..40,
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            // Each lane cuts `width` columns into segments at random points
            // (some empty) and lays them out ascending with random gaps.
            let lanes: Vec<Vec<Segment>> = (0..n_lanes)
                .map(|_| {
                    let mut segs = Vec::new();
                    let (mut left, mut at) = (width, below(&mut state, 3));
                    while left > 0 || segs.is_empty() {
                        let w = below(&mut state, left.min(9) + 1);
                        segs.push(Segment { start: at as u32, width: w as u32 });
                        at += w + below(&mut state, 3);
                        left -= w;
                    }
                    segs
                })
                .collect();
            let row_len = lanes
                .iter()
                .filter_map(|segs| segs.last().map(|s| (s.start + s.width) as usize))
                .max()
                .unwrap_or(0);
            let weights: Vec<Vec<f64>> = (0..n_lanes)
                .map(|_| (0..width).map(|_| value(&mut state)).collect())
                .collect();
            let row: Vec<f64> = (0..row_len).map(|_| value(&mut state)).collect();
            let ws: Vec<&[f64]> = weights.iter().map(Vec::as_slice).collect();
            let segs: Vec<&[Segment]> = lanes.iter().map(Vec::as_slice).collect();
            let folded = lane_row(&ws, &segs, &row);
            for l in 0..n_lanes {
                let alone = dot_row(ws[l], segs[l], &row);
                prop_assert_eq!(folded[l].to_bits(), alone.to_bits(), "lane {} of {}", l, n_lanes);
            }
        }
    }

    #[test]
    fn the_svc_argmax_keeps_the_first_of_tied_classes_in_blocks_and_rows() {
        // Classes 1 and 2 share a hyperplane and class 0 is the zero
        // hyperplane: a record with a positive decision value ties 1 with 2,
        // and a zero record ties every class. The strict `>` keeps the first.
        let w = vec![0.5, -1.0, 2.0];
        let m = LinearSvc::from_parts(vec![(vec![0.0; 3], 0.0), (w.clone(), 0.0), (w, 0.0)]);
        let segs = [Segment { start: 1, width: 3 }];
        let (n_rows, n_cols) = (11usize, 5usize);
        let cell = |r: usize, c: usize| {
            if r.is_multiple_of(4) { 0.0 } else { ((r * 7 + c * 3) % 5) as f64 - 2.0 }
        };
        let rows: Vec<Vec<f64>> =
            (0..n_rows).map(|r| (0..n_cols).map(|c| cell(r, c)).collect()).collect();
        let mut values = vec![0.0; n_rows.div_ceil(BLOCK_RECORDS) * BLOCK_RECORDS * n_cols];
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                let k = r / BLOCK_RECORDS;
                values[(k * n_cols + c) * BLOCK_RECORDS + r % BLOCK_RECORDS] = v;
            }
        }
        let blocks = Blocks { values: &values, n_cols, n_rows };
        let mut got = vec![u32::MAX; n_rows];
        blocks.classes(&m, &segs, |r, class| got[r] = class);
        let want: Vec<u32> = rows.iter().map(|row| m.predict(&row[1..4])).collect();
        assert_eq!(got, want);
        let by_row: Vec<u32> = rows.iter().map(|row| svc_class(&m, &segs, row)).collect();
        assert_eq!(by_row, want);
        assert!(want.contains(&0) && want.contains(&1) && !want.contains(&2), "{want:?}");
    }

    /// A random encoder table of `n` features: absent entries, real
    /// encoders and one-hot blocks 0 to 4 wide, ending in a covered one
    /// (a table's one byte image).
    fn random_table(state: &mut u64, n: usize) -> PoolSpec {
        let mut w = ByteWriter::new();
        w.len32(n);
        for j in 0..n {
            match below(state, 4) {
                0 if j + 1 < n => w.u8(0xFF),
                1 => {
                    w.u8(0);
                    w.f64(0.5);
                    w.f64(2.0);
                }
                _ => {
                    w.u8(2);
                    w.u32(below(state, 5) as u32);
                }
            }
        }
        PoolSpec::parse_bin(&mut ByteReader::new(w.as_bytes())).expect("a well-formed table")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The plan compiles `AllButTarget` inputs straight from the table
        /// and maps split columns through segments. Both must agree with
        /// the walk over every input and the per-column map they replace,
        /// for every target, including ones past the table's end, and for
        /// `List` inputs in any order.
        #[test]
        fn direct_segments_and_split_columns_match_the_walk(
            n in 0usize..12,
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let table = random_table(&mut state, n);
            let covered: Vec<usize> = table.covered().collect();
            for target in 0..n + 2 {
                let mut walked = Vec::new();
                let all = Inputs::AllButTarget.features(&table, target);
                push_segments(&table, all, &mut walked).expect("covered inputs");
                let mut direct = Vec::new();
                push_all_but(&table, target, &mut direct);
                prop_assert_eq!(&direct, &walked, "target {} of {:?}", target, table);

                let mut list: Vec<usize> = covered
                    .iter()
                    .copied()
                    .filter(|_| below(&mut state, 3) > 0)
                    .collect();
                for i in (1..list.len()).rev() {
                    list.swap(i, below(&mut state, i + 1));
                }
                let mut listed = Vec::new();
                push_segments(&table, list.iter().copied(), &mut listed).expect("covered inputs");
                for segs in [&direct, &listed] {
                    let col_map: Vec<u32> =
                        segs.iter().flat_map(|s| s.start..s.start + s.width).collect();
                    let mut ends = Vec::new();
                    let cols = ColumnMap::new(segs, &mut ends);
                    prop_assert_eq!(cols.n_cols(), col_map.len());
                    for d in 0..col_map.len() + 2 {
                        prop_assert_eq!(cols.pool_col(d), col_map.get(d).copied(), "column {}", d);
                    }
                }
            }
        }
    }

    #[test]
    fn a_list_input_outside_the_table_is_refused() {
        let mut state = 7;
        let table = random_table(&mut state, 6);
        let outside = (0..8)
            .find(|&j| !table.covers(j))
            .expect("a feature the table lacks");
        let err = push_segments(&table, [outside].into_iter(), &mut Vec::new()).unwrap_err();
        assert!(err.contains("not in the encoder table"), "{err}");
    }

    /// `model`'s v6 file with the first occurrence of `from` replaced by
    /// `to`, re-sealed with a valid CRC trailer — a well-formed file whose
    /// parts disagree.
    fn corrupted(model: &FracModel, from: &[u8], to: &[u8]) -> FracModel {
        let bytes = model.to_bytes();
        let body = &bytes[..bytes.len() - 4];
        let at = body
            .windows(from.len())
            .position(|w| w == from)
            .expect("the pattern is in the model bytes");
        let mut edited = [&body[..at], to, &body[at + from.len()..]].concat();
        let crc = crc32(&edited);
        edited.extend_from_slice(&crc.to_le_bytes());
        FracModel::from_bytes(&edited).expect("the corrupted file still parses")
    }

    #[test]
    fn compile_rejects_a_tree_whose_child_points_back() {
        // Two copies of one ternary SNP: each tree splits on the other.
        let codes: Vec<u32> = (0..30).map(|i| (i % 3) as u32).collect();
        let train = DatasetBuilder::new()
            .categorical("s1", 3, codes.clone())
            .categorical("s2", 3, codes)
            .build();
        let (model, _) = FracModel::fit(&train, &TrainingPlan::full(2), &FracConfig::snp());
        assert!(model.scoring_plan().is_ok());
        let PredictorModel::Cat(CatPredictor::Tree(tree)) = &model.features[0].predictors[0].model
        else {
            panic!("an SNP model grows classification trees")
        };
        let mut w = ByteWriter::new();
        tree.write_bin(&mut w);
        let tree_bytes = w.finish();
        // Arity, node count, then the root: a split tag, feature,
        // threshold, left, right. Send the root's left child back to the
        // root, which a walk would follow forever.
        assert_eq!(tree_bytes[8], 1, "the root is a split");
        let mut looped = tree_bytes.clone();
        looped[8 + 1 + 4 + 8..][..4].copy_from_slice(&0u32.to_le_bytes());
        let looped = corrupted(&model, &tree_bytes, &looped);
        let err = looped.scoring_plan().unwrap_err();
        assert!(err.contains("not a later node"), "{err}");
    }

    #[test]
    fn compile_rejects_a_weight_vector_of_the_wrong_length() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        let c: Vec<f64> = a.iter().map(|x| x * x).collect();
        let train = DatasetBuilder::new().real("a", a).real("b", b).real("c", c).build();
        let (model, _) = FracModel::fit(&train, &TrainingPlan::full(3), &FracConfig::default());
        assert!(model.scoring_plan().is_ok());
        let PredictorModel::Real(RealPredictor::Svr(svr)) = &model.features[0].predictors[0].model
        else {
            panic!("the default config fits linear SVRs")
        };
        // Drop a weight: a dot product zipped over the shorter side would
        // silently ignore the last input.
        let (mut from, mut to) = (ByteWriter::new(), ByteWriter::new());
        svr.write_bin(&mut from);
        let short = svr.weights()[..svr.weights().len() - 1].to_vec();
        frac_learn::LinearSvr::from_parts(short, svr.bias()).write_bin(&mut to);
        let short = corrupted(&model, from.as_bytes(), to.as_bytes());
        let err = short.scoring_plan().unwrap_err();
        assert!(err.contains("1 weights for a 2-column design"), "{err}");
    }
}
