//! The fitted model tree.

use serde::{Deserialize, Serialize};

use mtperf_linalg::stats;

use crate::build::{assign_leaf_ids, build};
use crate::node::{LeafId, Node};
use crate::{Dataset, M5Params, MtreeError};

/// A fitted M5' model tree.
///
/// # Example
///
/// ```
/// use mtperf_mtree::{Dataset, M5Params, ModelTree};
///
/// let mut data = Dataset::new(vec!["x".into()]).unwrap();
/// for i in 0..200 {
///     let x = i as f64 / 10.0;
///     let y = if x < 10.0 { x } else { 30.0 - 2.0 * x };
///     data.push_row(&[x], y).unwrap();
/// }
/// let tree = ModelTree::fit(&data, &M5Params::default().with_min_instances(8)).unwrap();
/// assert!(tree.n_leaves() >= 2);
/// assert!((tree.predict(&[5.0]) - 5.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelTree {
    pub(crate) root: Node,
    pub(crate) attr_names: Vec<String>,
    pub(crate) params: M5Params,
    pub(crate) n_train: usize,
    pub(crate) root_sd: f64,
    pub(crate) root_mean: f64,
}

impl ModelTree {
    /// Trains a tree on `data` with `params`.
    ///
    /// # Errors
    ///
    /// Returns [`MtreeError::EmptyDataset`] for an empty dataset,
    /// [`MtreeError::BadParams`] for invalid parameters, and propagates
    /// solver failures.
    pub fn fit(data: &Dataset, params: &M5Params) -> Result<Self, MtreeError> {
        params.validate()?;
        if data.n_rows() == 0 {
            return Err(MtreeError::EmptyDataset);
        }
        let mut fit_span = mtperf_obs::span("fit");
        fit_span.annotate_num("rows", data.n_rows() as f64);
        fit_span.annotate_num("attrs", data.n_attrs() as f64);
        let root_sd = stats::std_dev(data.targets());
        let root_mean = stats::mean(data.targets());
        let idx: Vec<usize> = (0..data.n_rows()).collect();
        let mut built = build(data, idx, params, root_sd, 0)?;
        let mut next = 0;
        assign_leaf_ids(&mut built.node, &mut next);
        fit_span.add("leaves", built.node.n_leaves() as u64);
        fit_span.add("depth", built.node.depth() as u64);
        Ok(ModelTree {
            root: built.node,
            attr_names: data.attr_names().to_vec(),
            params: params.clone(),
            n_train: data.n_rows(),
            root_sd,
            root_mean,
        })
    }

    /// The root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Attribute names the tree was trained with.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Training parameters used.
    pub fn params(&self) -> &M5Params {
        &self.params
    }

    /// Number of training instances.
    pub fn n_train(&self) -> usize {
        self.n_train
    }

    /// Standard deviation of the training targets.
    pub fn root_sd(&self) -> f64 {
        self.root_sd
    }

    /// Mean of the training targets.
    pub fn root_mean(&self) -> f64 {
        self.root_mean
    }

    /// Number of leaves (performance classes).
    pub fn n_leaves(&self) -> usize {
        self.root.n_leaves()
    }

    /// Tree depth (a single-leaf tree has depth 1).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Predicts the target for `row`, applying smoothing if the tree was
    /// trained with it.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the attribute count.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert!(
            row.len() >= self.attr_names.len(),
            "row has {} values, tree expects {}",
            row.len(),
            self.attr_names.len()
        );
        if self.params.smoothing() {
            self.predict_smoothed(row)
        } else {
            self.leaf_for(row).model().predict(row)
        }
    }

    /// Predicts without smoothing (the raw leaf-model output); this is what
    /// the contribution analysis decomposes.
    pub fn predict_raw(&self, row: &[f64]) -> f64 {
        self.leaf_for(row).model().predict(row)
    }

    /// M5 smoothing: blend the leaf prediction with each ancestor model,
    /// `p' = (n·p + k·q) / (n + k)`, walking from the leaf to the root with
    /// `n` the instance count of the node below.
    fn predict_smoothed(&self, row: &[f64]) -> f64 {
        let k = self.params.smoothing_k();
        // Collect the path of nodes from root to leaf.
        let mut path: Vec<&Node> = Vec::new();
        let mut node = &self.root;
        loop {
            path.push(node);
            match node {
                Node::Leaf { .. } => break,
                Node::Split {
                    attr,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*attr] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
        let leaf = path.last().expect("non-empty path");
        let mut p = leaf.model().predict(row);
        // Walk back up: the n in the formula is the instance count of the
        // node we came *from*.
        for w in path.windows(2).rev() {
            let (ancestor, below) = (w[0], w[1]);
            let q = ancestor.model().predict(row);
            let n = below.n() as f64;
            p = (n * p + k * q) / (n + k);
        }
        p
    }

    /// The leaf `row` is routed to.
    pub fn leaf_for(&self, row: &[f64]) -> &Node {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { .. } => return node,
                Node::Split {
                    attr,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*attr] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// The identifier of the leaf `row` is routed to.
    pub fn leaf_id_for(&self, row: &[f64]) -> LeafId {
        match self.leaf_for(row) {
            Node::Leaf { id, .. } => *id,
            Node::Split { .. } => unreachable!("leaf_for returns leaves"),
        }
    }

    /// All leaves, left to right.
    pub fn leaves(&self) -> Vec<&Node> {
        let mut out = Vec::new();
        self.root.for_each_leaf(&mut |n| out.push(n));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn piecewise(n: i64) -> Dataset {
        let rows: Vec<[f64; 2]> = (0..n).map(|i| [(i % 40) as f64, (i % 7) as f64]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| {
                if r[0] <= 20.0 {
                    1.0 + 0.5 * r[0] + 0.1 * r[1]
                } else {
                    20.0 - 0.3 * r[0]
                }
            })
            .collect();
        Dataset::from_rows(vec!["x".into(), "z".into()], &rows, &ys).unwrap()
    }

    #[test]
    fn fit_predict_accuracy() {
        let d = piecewise(400);
        let tree = ModelTree::fit(
            &d,
            &M5Params::default()
                .with_min_instances(10)
                .with_smoothing(false),
        )
        .unwrap();
        // In-sample predictions must be near-exact for noise-free data.
        for i in 0..d.n_rows() {
            let p = tree.predict(&d.row(i));
            assert!(
                (p - d.target(i)).abs() < 0.5,
                "row {i}: {p} vs {}",
                d.target(i)
            );
        }
        assert_eq!(tree.n_train(), 400);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn smoothing_changes_predictions_but_stays_close() {
        let d = piecewise(400);
        let smooth = ModelTree::fit(
            &d,
            &M5Params::default()
                .with_min_instances(10)
                .with_smoothing(true),
        )
        .unwrap();
        let raw = smooth.predict_raw(&[5.0, 3.0]);
        let sm = smooth.predict(&[5.0, 3.0]);
        // Smoothed differs from raw but not wildly.
        assert!((raw - sm).abs() < 2.0);
        if smooth.n_leaves() > 1 {
            assert_ne!(raw, sm);
        }
    }

    #[test]
    fn empty_dataset_rejected() {
        let d = Dataset::new(vec!["x".into()]).unwrap();
        assert!(matches!(
            ModelTree::fit(&d, &M5Params::default()),
            Err(MtreeError::EmptyDataset)
        ));
    }

    #[test]
    fn bad_params_rejected() {
        let d = piecewise(50);
        assert!(matches!(
            ModelTree::fit(&d, &M5Params::default().with_min_instances(0)),
            Err(MtreeError::BadParams(_))
        ));
    }

    #[test]
    fn single_instance_dataset_is_one_leaf() {
        let d = Dataset::from_rows(vec!["x".into()], &[[1.0]], &[7.0]).unwrap();
        let tree = ModelTree::fit(&d, &M5Params::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[123.0]), 7.0);
    }

    #[test]
    fn leaf_routing_is_consistent_with_prediction() {
        let d = piecewise(200);
        let tree = ModelTree::fit(
            &d,
            &M5Params::default()
                .with_min_instances(10)
                .with_smoothing(false),
        )
        .unwrap();
        for i in (0..d.n_rows()).step_by(17) {
            let row = d.row(i);
            let leaf = tree.leaf_for(&row);
            assert_eq!(tree.predict(&row), leaf.model().predict(&row));
            let id = tree.leaf_id_for(&row);
            assert!(id.0 >= 1 && id.0 <= tree.n_leaves());
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn short_row_panics() {
        let d = piecewise(50);
        let tree = ModelTree::fit(&d, &M5Params::default()).unwrap();
        tree.predict(&[1.0]);
    }

    #[test]
    fn leaves_enumeration_matches_count() {
        let d = piecewise(400);
        let tree = ModelTree::fit(&d, &M5Params::default().with_min_instances(10)).unwrap();
        assert_eq!(tree.leaves().len(), tree.n_leaves());
    }

    #[test]
    fn serde_roundtrip() {
        let d = piecewise(100);
        let tree = ModelTree::fit(&d, &M5Params::default().with_min_instances(10)).unwrap();
        let json = serde_json::to_string(&tree).unwrap();
        let back: ModelTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
        assert_eq!(back.predict(&[3.0, 2.0]), tree.predict(&[3.0, 2.0]));
    }
}
