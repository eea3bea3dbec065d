//! Entropy-minimizing classification trees (the paper's SNP model).

use super::splitter::{best_classification_split, count_tables, subtract_tables, SplitScratch};
use super::{descend, Node, TreeConfig, BUDGET_CHECK_NODES};
use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::telemetry;
use crate::traits::{Classifier, ClassifierTrainer, Trained, TrainingCost};
use frac_dataset::DesignView;

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

    /// Greedy top-down growth with cooperative budget polling every
    /// `BUDGET_CHECK_NODES` node expansions; see
    /// [`super::regression::RegressionTreeTrainer`] for the contract.
    ///
    /// On a view with categorical blocks, every node that will be searched
    /// carries its block count tables (`count_tables`). The root is counted
    /// once; at a split only the smaller child is counted (ties go left),
    /// and the larger child's tables are the parent's minus the smaller's,
    /// derived in the parent's buffer. Buffers no open node needs go to a
    /// free list the tree reuses, so depth-first growth holds about
    /// `max_depth + 2` of them.
    fn grow(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        budget: &TargetBudget,
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
        // The search runs on a node at `depth` with `m` samples only when
        // these hold (the last is the search's own `min_leaf` test), so only
        // such nodes need count tables.
        let searched = |m: usize, depth: usize| {
            depth < cfg.max_depth && m >= cfg.min_samples_split && m >= 2 * cfg.min_samples_leaf
        };
        let mut scratch = SplitScratch::new(classes);
        let mut free: Vec<Vec<u32>> = Vec::new();
        // Work stack of (node index, sample indices, depth, count tables).
        let root_samples: Vec<usize> = (0..n).collect();
        let root_tables = if x.cat_blocks().is_some() && searched(n, 0) {
            let mut tables = Vec::new();
            count_tables(&root_samples, x, &label, classes, &mut scratch, &mut tables, budget)?;
            Some(tables)
        } else {
            None
        };
        nodes.push(Node::Leaf(0)); // placeholder, patched below
        let mut stack = vec![(0usize, root_samples, 0usize, root_tables)];
        let mut expansions = 0usize;

        while let Some((node_idx, samples, depth, tables)) = stack.pop() {
            if expansions.is_multiple_of(BUDGET_CHECK_NODES) {
                budget.check()?;
            }
            expansions += 1;
            let m = samples.len();
            // Split search cost: d features × (sort m log m + sweep m).
            flops += (d as u64)
                * (m as u64)
                * ((m.max(2) as f64).log2().ceil() as u64 + 2);

            let choice = if searched(m, depth) {
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
                    // Count the smaller child (ties go left) and derive the
                    // larger one in the parent's buffer. A child is searched
                    // only if its parent was, so a parent without tables
                    // has no child that needs them.
                    let (mut left_tables, mut right_tables) = (None, None);
                    if let Some(mut parent) = tables {
                        let left_smaller = left_samples.len() <= right_samples.len();
                        let (small, large) = if left_smaller {
                            (&left_samples, &right_samples)
                        } else {
                            (&right_samples, &left_samples)
                        };
                        let need_small = searched(small.len(), depth + 1);
                        let need_large = searched(large.len(), depth + 1);
                        let mut counted = free.pop().unwrap_or_default();
                        if need_small || need_large {
                            count_tables(
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
                    stack.push((left_idx, left_samples, depth + 1, left_tables));
                    stack.push((right_idx, right_samples, depth + 1, right_tables));
                }
            }
        }

        let peak_bytes = (n * (std::mem::size_of::<usize>() + 16)
            + nodes.len() * std::mem::size_of::<Node<u32>>()) as u64;
        telemetry::counter_add(telemetry::Counter::TreeNodes, nodes.len() as u64);
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

    /// Greedy growth with the budget checked every `BUDGET_CHECK_NODES`
    /// node expansions. Trees have no duals: `warm` is ignored.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        _warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<ClassificationTree>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        Ok((self.grow(x, y, arity, budget)?, None))
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
