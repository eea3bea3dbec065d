//! Entropy-minimizing classification trees (the paper's SNP model).

use super::splitter::{
    best_classification_split, count_rows, count_tables, subtract_tables, SplitScratch,
};
use super::{descend, Node, TreeConfig, BUDGET_CHECK_NODES};
use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::telemetry;
use crate::traits::{Classifier, ClassifierTrainer, Trained, TrainingCost};
use frac_dataset::{CatBlock, DesignView};
use std::sync::OnceLock;

/// A fitted classification tree predicting class codes.
#[derive(Debug, Clone)]
pub struct ClassificationTree {
    nodes: Vec<Node<u32>>,
    arity: u32,
}

impl ClassificationTree {
    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        super::arena_len(&self.nodes)
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf(_))).count()
    }

    /// Class arity this tree was trained for.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// The node arena, root first (read access for compiled scoring).
    pub fn nodes(&self) -> &[Node<u32>] {
        &self.nodes
    }

    /// Serialize into a byte writer (model persistence): the arity, then
    /// the node arena, leaves carrying their `u32` class.
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.u32(self.arity);
        super::write_nodes_bin(w, &self.nodes, |w, c| w.u32(*c));
    }

    /// Parse a model previously produced by
    /// [`ClassificationTree::write_bin`]; every leaf class must be below
    /// the arity.
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        let arity = r.u32("tree arity")?;
        let nodes = super::parse_nodes_bin(r, 4, |r| {
            let at = r.offset();
            let c = r.u32("leaf class")?;
            if c >= arity {
                return Err(frac_dataset::binio::ByteError::new(
                    at,
                    format!("leaf class {c} out of range for arity {arity}"),
                ));
            }
            Ok(c)
        })?;
        Ok(ClassificationTree { nodes, arity })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        let arity: u32 = r.parse_one("ctree_arity")?;
        let nodes = super::parse_nodes(r, |s| {
            let c: u32 = s.parse().map_err(|_| format!("bad class `{s}`"))?;
            if c >= arity {
                return Err(format!("leaf class {c} out of range for arity {arity}").into());
            }
            Ok(c)
        })?;
        Ok(ClassificationTree { nodes, arity })
    }
}

impl Classifier for ClassificationTree {
    fn predict(&self, x: &[f64]) -> u32 {
        *descend(&self.nodes, x)
    }

    fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<u32>>()
    }
}

/// Greedy top-down trainer for [`ClassificationTree`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassificationTreeTrainer {
    /// Hyperparameters.
    pub config: TreeConfig,
}

impl ClassificationTreeTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        ClassificationTreeTrainer { config }
    }

    /// This trainer bound to one problem, the view `x` with labels `y` of
    /// `arity` classes, for fits on row subsets of it: the CV folds and the
    /// final fit of one FRaC target. See [`ProblemTreeTrainer`].
    pub fn for_problem<'p>(
        &self,
        x: &'p dyn DesignView,
        y: &'p [u32],
        arity: u32,
    ) -> ProblemTreeTrainer<'p> {
        ProblemTreeTrainer {
            trainer: *self,
            x,
            y,
            arity,
            rows: OnceLock::new(),
            full: OnceLock::new(),
        }
    }

    /// Greedy top-down growth with cooperative budget polling every
    /// `BUDGET_CHECK_NODES` node expansions; see
    /// [`super::regression::RegressionTreeTrainer`] for the contract.
    ///
    /// A node is searched only if it is impure; a pure node is a leaf. On
    /// a view with categorical blocks, every node that will be searched
    /// carries its block count tables (`count_tables`). `root_tables` fills
    /// the root's from its samples `0..n` and returns the row × block cells
    /// it counted. At a split only the smaller child is counted (ties go
    /// left), and only when a child will be searched; when the larger one
    /// will be, its tables are the parent's minus the smaller's, derived in
    /// the parent's buffer. Buffers no open node needs go to a free list the
    /// tree reuses, so depth-first growth holds about `max_depth + 2` of
    /// them.
    fn grow(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        budget: &TargetBudget,
        root_tables: impl FnOnce(
            &[usize],
            &mut SplitScratch,
            &mut Vec<u32>,
        ) -> Result<u64, TrainError>,
    ) -> Result<Trained<ClassificationTree>, TrainError> {
        assert_eq!(x.n_rows(), y.len(), "target length must match rows");
        let _span = telemetry::span(telemetry::Stage::TreeGrow);
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();

        let mut nodes: Vec<Node<u32>> = Vec::new();
        let mut flops = 0u64;

        if n == 0 {
            nodes.push(Node::Leaf(0));
            return Ok(Trained {
                model: ClassificationTree { nodes, arity },
                cost: TrainingCost::default(),
            });
        }

        let classes = arity as usize;
        let label = |s: usize| y[s];
        // The search runs on a node at `depth` with these `samples` only
        // when they are impure and these hold (the last is the search's own
        // `min_leaf` test), so only such nodes need count tables.
        let searched = |samples: &[usize], depth: usize| {
            let m = samples.len();
            depth < cfg.max_depth
                && m >= cfg.min_samples_split
                && m >= 2 * cfg.min_samples_leaf
                && samples.first().is_some_and(|&f| samples.iter().any(|&s| y[s] != y[f]))
        };
        let mut scratch = SplitScratch::new(classes);
        let mut free: Vec<Vec<u32>> = Vec::new();
        let mut cells = 0u64;
        // Work stack of (node index, sample indices, depth, searched, count
        // tables).
        let root_samples: Vec<usize> = (0..n).collect();
        let root_searched = searched(&root_samples, 0);
        let root = if x.cat_blocks().is_some() && root_searched {
            let mut tables = Vec::new();
            cells += root_tables(&root_samples, &mut scratch, &mut tables)?;
            Some(tables)
        } else {
            None
        };
        nodes.push(Node::Leaf(0)); // placeholder, patched below
        let mut stack = vec![(0usize, root_samples, 0usize, root_searched, root)];
        let mut expansions = 0usize;

        while let Some((node_idx, samples, depth, search, tables)) = stack.pop() {
            if expansions.is_multiple_of(BUDGET_CHECK_NODES) {
                budget.check()?;
            }
            expansions += 1;
            let m = samples.len();
            // Split search cost: d features × (sort m log m + sweep m).
            flops += (d as u64)
                * (m as u64)
                * ((m.max(2) as f64).log2().ceil() as u64 + 2);

            let choice = if search {
                best_classification_split(
                    &samples,
                    x,
                    &label,
                    classes,
                    cfg.min_samples_leaf,
                    cfg.min_gain,
                    tables.as_deref().unwrap_or_default(),
                    &mut scratch,
                    budget,
                )?
            } else {
                None
            };

            match choice {
                None => {
                    nodes[node_idx] = Node::Leaf(majority(samples.iter().map(|&s| y[s]), arity));
                    free.extend(tables);
                }
                Some(c) => {
                    let split_col = x.col(c.feature);
                    let (left_samples, right_samples): (Vec<usize>, Vec<usize>) = samples
                        .iter()
                        .partition(|&&s| split_col.get(s) <= c.threshold);
                    let search_left = searched(&left_samples, depth + 1);
                    let search_right = searched(&right_samples, depth + 1);
                    let left_idx = nodes.len();
                    nodes.push(Node::Leaf(0));
                    let right_idx = nodes.len();
                    nodes.push(Node::Leaf(0));
                    nodes[node_idx] = Node::Split {
                        feature: c.feature,
                        threshold: c.threshold,
                        left: left_idx,
                        right: right_idx,
                    };
                    // Count the smaller child (ties go left) when either
                    // child will be searched, and derive the larger one in
                    // the parent's buffer when it will be. A child is
                    // searched only if its parent was, so a parent without
                    // tables has no child that needs them.
                    let (mut left_tables, mut right_tables) = (None, None);
                    if let Some(mut parent) = tables {
                        let left_smaller = left_samples.len() <= right_samples.len();
                        let (small, need_small, need_large) = if left_smaller {
                            (&left_samples, search_left, search_right)
                        } else {
                            (&right_samples, search_right, search_left)
                        };
                        let mut counted = free.pop().unwrap_or_default();
                        if need_small || need_large {
                            cells += count_tables(
                                small, x, &label, classes, &mut scratch, &mut counted, budget,
                            )?;
                        }
                        if need_large {
                            subtract_tables(&mut parent, &counted, budget)?;
                        }
                        let small_tables = keep(counted, need_small, &mut free);
                        let large_tables = keep(parent, need_large, &mut free);
                        (left_tables, right_tables) = if left_smaller {
                            (small_tables, large_tables)
                        } else {
                            (large_tables, small_tables)
                        };
                    }
                    stack.push((left_idx, left_samples, depth + 1, search_left, left_tables));
                    stack.push((right_idx, right_samples, depth + 1, search_right, right_tables));
                }
            }
        }

        let peak_bytes = (n * (std::mem::size_of::<usize>() + 16)
            + nodes.len() * std::mem::size_of::<Node<u32>>()) as u64;
        telemetry::counter_add(telemetry::Counter::TreeNodes, nodes.len() as u64);
        telemetry::counter_add(telemetry::Counter::TreeCountCells, cells);
        Ok(Trained {
            model: ClassificationTree { nodes, arity },
            cost: TrainingCost { flops, peak_bytes },
        })
    }
}

/// `tables` when a node needs them; otherwise back to the free list.
fn keep(tables: Vec<u32>, needed: bool, free: &mut Vec<Vec<u32>>) -> Option<Vec<u32>> {
    if needed {
        Some(tables)
    } else {
        free.push(tables);
        None
    }
}

fn majority(labels: impl Iterator<Item = u32>, arity: u32) -> u32 {
    let mut counts = vec![0usize; arity as usize];
    for l in labels {
        counts[l as usize] += 1;
    }
    // Lowest code wins ties, deterministically.
    counts
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(c, _)| c as u32)
        .unwrap_or(0)
}

impl ClassifierTrainer for ClassificationTreeTrainer {
    type Model = ClassificationTree;

    /// The [`ProblemTreeTrainer`] of `x`, `y` run on its own view. Trees
    /// have no duals: `warm` is ignored.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<ClassificationTree>, Option<Vec<Vec<f64>>>), TrainError> {
        self.for_problem(x, y, arity).fit(x, y, arity, warm, budget)
    }
}

/// A [`ClassificationTreeTrainer`] bound to one classification problem: a
/// design view with categorical blocks, its labels and their arity.
///
/// FRaC fits each target's tree on every CV fold, a row subset of the
/// target's problem, and then on the whole problem. This trainer counts the
/// problem's full root tables once, in the first fit that needs them, and
/// derives each fit's root as full − (the problem rows the fit leaves out),
/// counting only the rows left out. A fit with fewer rows than it leaves
/// out counts its own rows instead. Counts are integers, so a derived root
/// holds exactly what a direct count would.
///
/// A fit derives only when it has the problem's arity, its view has the
/// problem's blocks, and its rows are problem rows, none twice, with the
/// problem's labels; any other fit counts its root directly, as the plain
/// trainer does.
pub struct ProblemTreeTrainer<'p> {
    trainer: ClassificationTreeTrainer,
    x: &'p dyn DesignView,
    y: &'p [u32],
    arity: u32,
    /// The problem's rows, resolved by the first fit that needs a root;
    /// `None` when the problem cannot derive roots.
    rows: OnceLock<Option<ProblemRows<'p>>>,
    /// The full root tables, counted by the first fit that derives a root.
    full: OnceLock<Vec<u32>>,
}

/// A problem's categorical blocks and where its rows sit in storage.
struct ProblemRows<'p> {
    blocks: &'p [CatBlock<'p>],
    /// Storage row of each problem row.
    storage: Vec<usize>,
    /// Problem row of each storage row; `usize::MAX` off the problem.
    at: Vec<usize>,
}

impl<'p> ProblemRows<'p> {
    /// The rows of `x`, when it has blocks, a label below `arity` for every
    /// row, and no storage row twice.
    fn resolve(x: &'p dyn DesignView, y: &[u32], arity: u32) -> Option<ProblemRows<'p>> {
        let blocks = x.cat_blocks()?;
        if y.len() != x.n_rows() || y.iter().any(|&l| l >= arity) {
            return None;
        }
        let mut storage = Vec::with_capacity(y.len());
        blocks.resolve_rows(&(0..y.len()).collect::<Vec<_>>(), &mut storage);
        let mut at = vec![usize::MAX; storage.iter().max().map_or(0, |&r| r + 1)];
        for (p, &r) in storage.iter().enumerate() {
            if at[r] != usize::MAX {
                return None;
            }
            at[r] = p;
        }
        Some(ProblemRows { blocks: blocks.blocks(), storage, at })
    }

    /// The storage rows and labels of the problem rows (labelled
    /// `problem_y`) that a fit on `x`, `y` leaves out; `None` unless `x` has
    /// these blocks and its rows are problem rows, none twice, labelled as
    /// in the problem. `samples` are the fit's rows `0..n`; `rows` is
    /// scratch for their storage rows.
    fn left_out(
        &self,
        problem_y: &[u32],
        x: &dyn DesignView,
        y: &[u32],
        samples: &[usize],
        rows: &mut Vec<usize>,
    ) -> Option<(Vec<usize>, Vec<u32>)> {
        let theirs = x.cat_blocks()?;
        let same_blocks = self.blocks.len() == theirs.blocks().len()
            && self.blocks.iter().zip(theirs.blocks()).all(|(a, b)| {
                a.first == b.first && a.arity == b.arity && std::ptr::eq(a.codes, b.codes)
            });
        if !same_blocks {
            return None;
        }
        rows.clear();
        theirs.resolve_rows(samples, rows);
        let mut taken = vec![false; problem_y.len()];
        for (&r, &l) in rows.iter().zip(y) {
            let p = *self.at.get(r)?;
            if p == usize::MAX || taken[p] || problem_y[p] != l {
                return None;
            }
            taken[p] = true;
        }
        let out: Vec<usize> = (0..problem_y.len()).filter(|&p| !taken[p]).collect();
        let labels = out.iter().map(|&p| problem_y[p]).collect();
        Some((out.iter().map(|&p| self.storage[p]).collect(), labels))
    }
}

impl ProblemTreeTrainer<'_> {
    /// Fill `tables` with the root tables of a fit on `x`, `y` (its samples
    /// `0..n`): derived from the full root when the fit matches the problem
    /// and leaves out no more rows than it has, counted directly otherwise.
    /// Returns the row × block cells counted, a one-time full count
    /// included.
    #[allow(clippy::too_many_arguments)]
    fn root_tables(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        samples: &[usize],
        scratch: &mut SplitScratch,
        tables: &mut Vec<u32>,
        budget: &TargetBudget,
    ) -> Result<u64, TrainError> {
        let classes = arity as usize;
        let problem = self.rows.get_or_init(|| ProblemRows::resolve(self.x, self.y, self.arity));
        let problem = problem.as_ref().filter(|_| arity == self.arity);
        let left_out = problem.and_then(|p| p.left_out(self.y, x, y, samples, &mut scratch.rows));
        match (problem, left_out) {
            (Some(problem), Some((rows, labels))) if samples.len() >= rows.len() => {
                let mut cells = 0;
                let full = match self.full.get() {
                    Some(full) => full,
                    None => {
                        let (blocks, storage) = (problem.blocks, &problem.storage);
                        let mut full = Vec::new();
                        cells += count_rows(blocks, storage, self.y, classes, &mut full, budget)?;
                        self.full.get_or_init(|| full)
                    }
                };
                let mut held = Vec::new();
                cells += count_rows(problem.blocks, &rows, &labels, classes, &mut held, budget)?;
                tables.clear();
                tables.extend_from_slice(full);
                subtract_tables(tables, &held, budget)?;
                Ok(cells)
            }
            _ => count_tables(samples, x, &|s| y[s], classes, scratch, tables, budget),
        }
    }
}

impl ClassifierTrainer for ProblemTreeTrainer<'_> {
    type Model = ClassificationTree;

    /// Greedy growth with the budget checked every `BUDGET_CHECK_NODES`
    /// node expansions, and polled by every count and subtraction of the
    /// root's tables. Trees have no duals: `warm` is ignored.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        _warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<ClassificationTree>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        let trained = self.trainer.grow(x, y, arity, budget, |samples, scratch, tables| {
            self.root_tables(x, y, arity, samples, scratch, tables, budget)
        })?;
        Ok((trained, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    fn matrix(rows: &[&[f64]]) -> DesignMatrix {
        let n_cols = rows[0].len();
        let values: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DesignMatrix::from_raw(rows.len(), n_cols, values)
    }

    #[test]
    fn learns_axis_aligned_boundary() {
        let x = matrix(&[&[0.0], &[0.1], &[0.2], &[0.8], &[0.9], &[1.0]]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        assert_eq!(t.model.predict(&[0.05]), 0);
        assert_eq!(t.model.predict(&[0.95]), 1);
        assert_eq!(t.model.n_leaves(), 2);
    }

    #[test]
    fn learns_interval_rule_with_depth_two() {
        // y = 1 iff x ∈ (0.3, 0.7): needs two stacked splits on one feature.
        let x = matrix(&[
            &[0.0],
            &[0.1],
            &[0.2],
            &[0.4],
            &[0.5],
            &[0.6],
            &[0.8],
            &[0.9],
        ]);
        let y = vec![0, 0, 0, 1, 1, 1, 0, 0];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
        assert!(t.model.n_leaves() >= 3);
    }

    #[test]
    fn learns_xor_when_zero_gain_splits_allowed() {
        // Balanced XOR has zero information gain at the root, so a greedy
        // tree with min_gain ≥ 0 yields a majority stump; allowing zero-gain
        // splits (negative min_gain) lets depth-2 recursion solve it.
        let x = matrix(&[
            &[0.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[1.0, 1.0],
            &[0.1, 0.1],
            &[0.1, 0.9],
            &[0.9, 0.1],
            &[0.9, 0.9],
        ]);
        let y = vec![0, 1, 1, 0, 0, 1, 1, 0];
        let cfg = TreeConfig {
            min_samples_split: 2,
            min_samples_leaf: 1,
            min_gain: -1.0,
            ..TreeConfig::default()
        };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = vec![1, 1, 1, 0];
        let cfg = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 2);
        assert_eq!(t.model.n_nodes(), 1);
        for v in 0..4 {
            assert_eq!(t.model.predict(&[v as f64]), 1);
        }
    }

    #[test]
    fn one_hot_snp_inputs_are_splittable() {
        // Genotype of SNP B (one-hot, 3 cols) determines the label; SNP A is
        // noise. This is exactly the encoded shape FRaC feeds trees.
        let x = matrix(&[
            // A0 A1 A2 | B0 B1 B2
            &[1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
            &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
        ]);
        let y = vec![0, 0, 1, 1, 2, 2];
        let cfg = TreeConfig { min_samples_split: 2, min_samples_leaf: 1, ..TreeConfig::default() };
        let t = ClassificationTreeTrainer::new(cfg).train(&x, &y, 3);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
    }

    #[test]
    fn deterministic_training() {
        let x = matrix(&[&[0.3, 0.7], &[0.6, 0.1], &[0.9, 0.4], &[0.2, 0.8]]);
        let y = vec![0, 1, 1, 0];
        let a = ClassificationTreeTrainer::default().train(&x, &y, 2);
        let b = ClassificationTreeTrainer::default().train(&x, &y, 2);
        assert_eq!(a.model.nodes, b.model.nodes);
    }

    #[test]
    fn empty_training_set_predicts_class_zero() {
        let x = DesignMatrix::from_raw(0, 2, vec![]);
        let t = ClassificationTreeTrainer::default().train(&x, &[], 3);
        assert_eq!(t.model.predict(&[0.0, 0.0]), 0);
    }

    #[test]
    fn majority_tie_breaks_to_lowest_code() {
        assert_eq!(majority([0u32, 1, 1, 0].into_iter(), 2), 0);
        assert_eq!(majority([2u32, 2, 1].into_iter(), 3), 2);
    }

    #[test]
    fn cost_grows_with_samples() {
        let small = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let big = matrix(&refs);
        let ys: Vec<u32> = (0..64).map(|i| (i / 32) as u32).collect();
        let a = ClassificationTreeTrainer::default().train(&small, &[0, 0, 1, 1], 2);
        let b = ClassificationTreeTrainer::default().train(&big, &ys, 2);
        assert!(b.cost.flops > a.cost.flops);
    }
}
