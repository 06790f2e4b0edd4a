//! M5' model trees, implemented from scratch.
//!
//! This crate is the primary contribution of the reproduced paper (*Using
//! Model Trees for Computer Architecture Performance Analysis of Software
//! Applications*, ISPASS 2007): a regression learner that recursively
//! partitions the input space by the most variance-reducing attribute and
//! fits **linear models at the nodes**, following Quinlan's M5 as refined by
//! Wang & Witten's M5' (the WEKA implementation the paper used).
//!
//! The pipeline:
//!
//! 1. **Growth** — at each node pick the (attribute, threshold) pair
//!    maximizing the standard-deviation reduction (SDR); stop on small or
//!    homogeneous subsets ([`best_split`]);
//! 2. **Node models** — fit a least-squares model at every node over the
//!    attributes referenced in its subtree, then greedily drop terms while
//!    the `(n + v)/(n - v)`-inflated training error improves ([`LinearModel`]).
//! 3. **Pruning** — bottom-up, replace a subtree by its node model when that
//!    lowers the estimated error.
//! 4. **Smoothing** — optionally blend leaf predictions with ancestor models
//!    (`p' = (n·p + k·q)/(n + k)`).
//!
//! On top of the learner sits the paper's *performance-analysis* layer
//! ([`analysis`]): classify a workload section to its leaf (performance
//! class), decompose its predicted CPI into per-event contributions (the
//! "what" and "how much" questions), and quantify split-variable impact.
//!
//! # Example
//!
//! ```
//! use mtperf_mtree::{Dataset, M5Params, ModelTree};
//!
//! // y = 2x below 0, y = 10 - 3x above: a piecewise-linear target.
//! let mut data = Dataset::new(vec!["x".into()]).unwrap();
//! for i in -50..50 {
//!     let x = i as f64 / 10.0;
//!     let y = if x <= 0.0 { 2.0 * x } else { 10.0 - 3.0 * x };
//!     data.push_row(&[x], y).unwrap();
//! }
//! let params = M5Params::default().with_min_instances(10).with_smoothing(false);
//! let tree = ModelTree::fit(&data, &params).unwrap();
//! assert!((tree.predict(&[-2.0]) - -4.0).abs() < 0.5);
//! assert!((tree.predict(&[2.0]) - 4.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod build;
pub mod compiled;
mod dataset;
mod error;
mod learner;
mod model;
mod node;
mod params;
mod persist;
mod phase;
mod render;
mod residual;
mod rules;
mod split;
mod tree;

pub use compiled::CompiledTree;
pub use dataset::Dataset;
pub use error::MtreeError;
pub use learner::{Learner, M5Learner, Predictor};
pub use model::LinearModel;
pub use node::{LeafId, Node};
pub use params::M5Params;
pub use persist::PersistError;
pub use phase::{Phase, PhaseTracker};
pub use residual::{residual_dataset, ResidualLearner, ResidualPredictor};
pub use rules::{Condition, Rule, RuleSet};
pub use split::{best_split, best_split_with, Split};
pub use tree::ModelTree;
