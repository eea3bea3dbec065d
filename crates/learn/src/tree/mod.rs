//! CART-style decision trees.
//!
//! The paper models discrete (SNP) features with decision trees — originally
//! the Waffles toolkit's entropy-minimizing trees — because "many modeling
//! techniques, such as SVMs, assume continuous data". We implement both
//! flavours over the all-real encoded design matrix:
//!
//! * [`ClassificationTree`] — greedy top-down induction minimizing the
//!   weighted Shannon entropy of children (information gain), axis-aligned
//!   threshold splits.
//! * [`RegressionTree`] — the same induction minimizing within-node variance
//!   (sum of squared errors).
//!
//! Both are deterministic: ties between equal-gain splits resolve to the
//! lowest feature index and smallest threshold.

mod classification;
mod regression;
mod splitter;

pub use classification::{ClassificationTree, ClassificationTreeTrainer, ProblemTreeTrainer};
pub use regression::{RegressionTree, RegressionTreeTrainer};

/// How many node expansions a tree grower performs between cooperative
/// budget checks. Each expansion is a full split search (O(d·m·log m)), so
/// 32 expansions keep the cancellation latency small relative to one solver
/// epoch while making the clock read negligible.
pub(crate) const BUDGET_CHECK_NODES: usize = 32;

/// Hyperparameters shared by both tree flavours.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0). Depth `d` allows at most `2^d`
    /// leaves.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples each child must receive.
    pub min_samples_leaf: usize,
    /// Minimum impurity decrease for a split to be kept.
    pub min_gain: f64,
}

impl Default for TreeConfig {
    fn default() -> Self {
        // Depth 10 with ≥2-sample leaves matches the capacity regime of the
        // Waffles trees at FRaC's sample sizes (tens to low hundreds of
        // training rows).
        TreeConfig {
            max_depth: 10,
            min_samples_split: 4,
            min_samples_leaf: 2,
            min_gain: 1e-9,
        }
    }
}

/// A node of a fitted tree, indices into the flat node arena. Children
/// always sit at higher indices than their parent (growth appends them).
#[derive(Debug, Clone, PartialEq)]
pub enum Node<L> {
    /// Terminal node carrying a prediction payload.
    Leaf(L),
    /// Internal axis-aligned split: `x[feature] <= threshold` goes left.
    Split {
        /// Design-matrix column the split reads.
        feature: usize,
        /// Split point; values at or below it go left.
        threshold: f64,
        /// Arena index of the left child.
        left: usize,
        /// Arena index of the right child.
        right: usize,
    },
}

/// Walk a node arena from the root to the leaf payload for input `x`.
pub(crate) fn descend<'a, L>(nodes: &'a [Node<L>], x: &[f64]) -> &'a L {
    let mut idx = 0usize;
    loop {
        match &nodes[idx] {
            Node::Leaf(payload) => return payload,
            Node::Split { feature, threshold, left, right } => {
                idx = if x[*feature] <= *threshold { *left } else { *right };
            }
        }
    }
}

/// Count tree nodes reachable from the root (all of them, by construction).
pub(crate) fn arena_len<L>(nodes: &[Node<L>]) -> usize {
    nodes.len()
}

/// Binary node tags (FORMATS.md §3).
const NODE_LEAF: u8 = 0;
const NODE_SPLIT: u8 = 1;

/// Serialize a node arena (model persistence): the node count, then per
/// node a tag byte and either the leaf payload (written by `leaf`) or the
/// split's feature, threshold and child indices.
pub(crate) fn write_nodes_bin<L>(
    w: &mut frac_dataset::binio::ByteWriter,
    nodes: &[Node<L>],
    leaf: impl Fn(&mut frac_dataset::binio::ByteWriter, &L),
) {
    w.len32(nodes.len());
    for node in nodes {
        match node {
            Node::Leaf(payload) => {
                w.u8(NODE_LEAF);
                leaf(w, payload);
            }
            Node::Split { feature, threshold, left, right } => {
                w.u8(NODE_SPLIT);
                w.len32(*feature);
                w.f64(*threshold);
                w.len32(*left);
                w.len32(*right);
            }
        }
    }
}

/// Parse a node arena previously produced by [`write_nodes_bin`]. `leaf_bytes`
/// is the size of one leaf payload, so the node count can be checked
/// against the bytes left before the arena is allocated. Rejects unknown
/// node tags and split children outside the arena.
pub(crate) fn parse_nodes_bin<L>(
    r: &mut frac_dataset::binio::ByteReader<'_>,
    leaf_bytes: usize,
    leaf: impl Fn(&mut frac_dataset::binio::ByteReader<'_>) -> Result<L, frac_dataset::binio::ByteError>,
) -> Result<Vec<Node<L>>, frac_dataset::binio::ByteError> {
    let n = r.count("tree nodes", 1 + leaf_bytes)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let at = r.offset();
        let node = match r.u8("node tag")? {
            NODE_LEAF => Node::Leaf(leaf(r)?),
            NODE_SPLIT => {
                let feature = r.index("split feature")?;
                let threshold = r.f64("split threshold")?;
                let left = r.index("split left child")?;
                let right = r.index("split right child")?;
                if left >= n || right >= n {
                    return Err(frac_dataset::binio::ByteError::new(
                        at,
                        format!("split child index out of range ({left}, {right} of {n} nodes)"),
                    ));
                }
                Node::Split { feature, threshold, left, right }
            }
            tag => {
                return Err(frac_dataset::binio::ByteError::new(at, format!("unknown node tag {tag}")))
            }
        };
        nodes.push(node);
    }
    Ok(nodes)
}

/// Parse a node arena from the text of a v1–v4 model file.
pub(crate) fn parse_nodes<L>(
    r: &mut frac_dataset::textio::TextReader<'_>,
    leaf: impl Fn(&str) -> Result<L, frac_dataset::textio::TextError>,
) -> Result<Vec<Node<L>>, frac_dataset::textio::TextError> {
    let n: usize = r.parse_one("tree_nodes")?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        if r.peek_is("leaf") {
            let fields = r.expect("leaf")?;
            if fields.len() != 1 {
                return Err("leaf expects one payload token".into());
            }
            nodes.push(Node::Leaf(leaf(fields[0])?));
        } else {
            let fields = r.expect("split")?;
            if fields.len() != 4 {
                return Err("split expects feature threshold left right".into());
            }
            let parse_usize = |s: &str| {
                s.parse::<usize>().map_err(|_| format!("bad split field `{s}`"))
            };
            nodes.push(Node::Split {
                feature: parse_usize(fields[0])?,
                threshold: fields[1]
                    .parse::<f64>()
                    .map_err(|_| format!("bad threshold `{}`", fields[1]))?,
                left: parse_usize(fields[2])?,
                right: parse_usize(fields[3])?,
            });
        }
    }
    // Structural sanity: child indices in range.
    for node in &nodes {
        if let Node::Split { left, right, .. } = node {
            if *left >= nodes.len() || *right >= nodes.len() {
                return Err("split child index out of range".into());
            }
        }
    }
    Ok(nodes)
}
