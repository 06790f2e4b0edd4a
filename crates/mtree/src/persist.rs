//! Model persistence: save and load fitted trees as JSON, crash-safely.
//!
//! The tree (structure, models, parameters, attribute names) serializes via
//! serde; these helpers add the file plumbing plus a versioned envelope so
//! incompatible or corrupt dumps fail loudly — with a *typed* error — instead
//! of deserializing garbage or panicking.
//!
//! # On-disk format
//!
//! Version 2 (written by [`ModelTree::to_json`]) is an integrity header line
//! followed by the version-1 body:
//!
//! ```text
//! {"format":"mtperf-model-tree","version":2,"checksum":"fnv1a64:<16 hex>","payload_len":N}
//! {
//!   "format": "mtperf-model-tree",
//!   "version": 1,
//!   "tree": { ... }
//! }
//! ```
//!
//! The checksum is 64-bit FNV-1a over the payload bytes (everything after the
//! header line), and `payload_len` pins the exact payload size, so torn
//! writes, truncations, and bit flips map to [`PersistError::Truncated`] and
//! [`PersistError::ChecksumMismatch`] rather than a JSON parse error deep in
//! the tree — or worse, a silently different model. Version-1 dumps (no
//! header line) still load.
//!
//! # Structural validation
//!
//! A checksum proves the bytes are the ones that were written, not that they
//! describe a usable tree: a headerless version-1 dump carries no checksum
//! at all. Every load therefore also checks the tree's structure (attribute
//! indices in range, finite numbers, leaf ids in order, valid parameters)
//! and reports a failure as [`PersistError::Invalid`], so no loaded tree can
//! panic in prediction, rendering or analysis. Depth needs no separate
//! bound: the JSON parser's nesting limit caps it.
//!
//! # Crash safety
//!
//! [`ModelTree::save`] writes through
//! [`mtperf_obs::fsio::atomic_write`]: temp file in the destination
//! directory, fsync, rename, fsync the directory. A crash — including
//! `kill -9` — mid-save leaves either the previous complete file or the new
//! complete file, never a torn one. Loads retry EINTR/EAGAIN-class transient
//! failures on a bounded deterministic backoff schedule.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::node::Node;
use crate::{LinearModel, ModelTree};

/// On-disk format version written by `save`/`to_json`; bumped on breaking
/// model-layout changes. Version 2 added the integrity header.
const FORMAT_VERSION: u32 = 2;

/// The body format carried inside the envelope (and the whole file for
/// pre-checksum dumps).
const BODY_VERSION: u32 = 1;

#[derive(Serialize, Deserialize)]
struct Envelope {
    format: String,
    version: u32,
    tree: ModelTree,
}

/// The version-2 integrity header: first line of the file, protecting the
/// payload (all following bytes) with a length and an FNV-1a checksum.
#[derive(Serialize, Deserialize)]
struct IntegrityHeader {
    format: String,
    version: u32,
    checksum: String,
    payload_len: usize,
}

/// Error loading or saving a persisted model.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a model dump or has an incompatible version.
    Format(String),
    /// The payload hashes differently than the integrity header says: the
    /// file was corrupted in place (bit flip, partial overwrite, spliced
    /// content).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the payload as found on disk.
        found: u64,
    },
    /// The payload is shorter or longer than the integrity header says: the
    /// file was torn by a crash mid-write (of a non-atomic writer) or
    /// truncated/extended after the fact.
    Truncated {
        /// Payload length recorded in the header.
        expected_len: usize,
        /// Payload length found on disk.
        found_len: usize,
    },
    /// The file parsed but does not describe a usable tree: an attribute
    /// index out of range, a non-finite number, leaf ids out of order, or
    /// invalid training parameters.
    Invalid(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model i/o error: {e}"),
            PersistError::Format(msg) => write!(f, "model format error: {msg}"),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "model file corrupt: checksum fnv1a64:{found:016x} does not match recorded fnv1a64:{expected:016x}"
            ),
            PersistError::Truncated {
                expected_len,
                found_len,
            } => write!(
                f,
                "model file torn: payload is {found_len} bytes, header records {expected_len}"
            ),
            PersistError::Invalid(msg) => write!(f, "model structure invalid: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Format marker of both the integrity header and the body envelope.
const FORMAT: &str = "mtperf-model-tree";

/// Wraps a version-1 body in the version-2 integrity envelope.
fn seal(mut body: String) -> String {
    if !body.ends_with('\n') {
        body.push('\n');
    }
    let header = serde_json::to_string(&IntegrityHeader {
        format: FORMAT.into(),
        version: FORMAT_VERSION,
        checksum: format!(
            "fnv1a64:{:016x}",
            mtperf_obs::fsio::fnv1a_64(body.as_bytes())
        ),
        payload_len: body.len(),
    })
    .expect("header serialization cannot fail");
    format!("{header}\n{body}")
}

/// Splits a dump into its verified version-1 body.
///
/// Version-2 dumps (integrity header on the first line) have their payload
/// length and checksum verified; version-1 dumps pass through whole. The
/// caller parses the returned body as the version-1 envelope.
fn open_sealed(text: &str) -> Result<&str, PersistError> {
    let first_line = text.lines().next().unwrap_or("");
    let Ok(header) = serde_json::from_str::<IntegrityHeader>(first_line) else {
        // No integrity header: a version-1 dump (or garbage the body parser
        // will reject with a Format error).
        return Ok(text);
    };
    if header.format != FORMAT {
        return Err(PersistError::Format(format!(
            "unexpected format marker {:?} (expected {FORMAT:?})",
            header.format
        )));
    }
    if header.version != FORMAT_VERSION {
        return Err(PersistError::Format(format!(
            "unsupported envelope version {} (expected {FORMAT_VERSION})",
            header.version
        )));
    }
    let expected = header
        .checksum
        .strip_prefix("fnv1a64:")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| {
            PersistError::Format(format!("unparsable checksum field {:?}", header.checksum))
        })?;
    let payload = text
        .split_once('\n')
        .map(|(_, rest)| rest)
        .unwrap_or_default();
    if payload.len() != header.payload_len {
        return Err(PersistError::Truncated {
            expected_len: header.payload_len,
            found_len: payload.len(),
        });
    }
    let found = mtperf_obs::fsio::fnv1a_64(payload.as_bytes());
    if found != expected {
        return Err(PersistError::ChecksumMismatch { expected, found });
    }
    Ok(payload)
}

/// Checks the body envelope's format marker and version.
fn check_body(found_format: &str, version: u32) -> Result<(), PersistError> {
    if found_format != FORMAT {
        return Err(PersistError::Format(format!(
            "unexpected format marker {found_format:?}"
        )));
    }
    if version != BODY_VERSION {
        return Err(PersistError::Format(format!(
            "unsupported version {version} (expected {BODY_VERSION})"
        )));
    }
    Ok(())
}

impl ModelTree {
    /// Serializes the tree as a version-2 dump: one integrity-header line
    /// (length + FNV-1a checksum of everything after it) followed by the
    /// versioned JSON envelope.
    pub fn to_json(&self) -> String {
        let body = serde_json::to_string_pretty(&Envelope {
            format: FORMAT.into(),
            version: BODY_VERSION,
            tree: self.clone(),
        })
        .expect("tree serialization cannot fail");
        seal(body)
    }

    /// Deserializes a tree from [`ModelTree::to_json`] output (version 2) or
    /// a pre-checksum version-1 dump.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Truncated`] / [`PersistError::ChecksumMismatch`]
    /// when a version-2 dump fails integrity verification, and
    /// [`PersistError::Format`] for non-model JSON or version mismatches,
    /// and [`PersistError::Invalid`] for a tree that fails structural
    /// validation.
    pub fn from_json(json: &str) -> Result<ModelTree, PersistError> {
        let body = open_sealed(json)?;
        let env: Envelope =
            serde_json::from_str(body).map_err(|e| PersistError::Format(e.to_string()))?;
        check_body(&env.format, env.version)?;
        env.tree.validate()?;
        Ok(env.tree)
    }

    /// Saves the tree to `path` atomically (temp file, fsync, rename, fsync
    /// directory): a crash mid-save can never leave a torn model file at
    /// `path`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        mtperf_obs::fsio::atomic_write(path, self.to_json().as_bytes())?;
        Ok(())
    }

    /// Loads a tree from a file written by [`ModelTree::save`], retrying
    /// transient (EINTR/EAGAIN-class) read failures on a bounded backoff.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on read failure and the typed corruption
    /// errors of [`ModelTree::from_json`] on malformed content.
    pub fn load(path: impl AsRef<Path>) -> Result<ModelTree, PersistError> {
        let path = path.as_ref();
        let json = mtperf_obs::fsio::with_retry("model_load", || {
            mtperf_detsim::fs::check(mtperf_detsim::fs::FsOp::Read, path)?;
            fs::read_to_string(path)
        })?;
        Self::from_json(&json)
    }

    /// Checks the structure every consumer of a tree relies on: split and
    /// term attributes index into `attr_names`, term attributes are strictly
    /// increasing, every threshold, coefficient, intercept and mean is
    /// finite, leaves are numbered `LM1..LMn` left to right, and the
    /// training parameters are valid.
    pub(crate) fn validate(&self) -> Result<(), PersistError> {
        self.params
            .validate()
            .map_err(|e| PersistError::Invalid(e.to_string()))?;
        finite("root_sd", self.root_sd)?;
        finite("root_mean", self.root_mean)?;
        validate_node(&self.root, self.attr_names.len(), &mut 0)
    }
}

fn finite(what: &str, v: f64) -> Result<(), PersistError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(PersistError::Invalid(format!("{what} is not finite ({v})")))
    }
}

fn validate_attr(what: &str, attr: usize, n_attrs: usize) -> Result<(), PersistError> {
    if attr < n_attrs {
        Ok(())
    } else {
        Err(PersistError::Invalid(format!(
            "{what} uses attribute {attr}, but the tree has {n_attrs} attributes"
        )))
    }
}

fn validate_model(model: &LinearModel, n_attrs: usize) -> Result<(), PersistError> {
    finite("model intercept", model.intercept())?;
    let mut prev = None;
    for &(attr, coef) in model.terms() {
        validate_attr("model term", attr, n_attrs)?;
        if prev.is_some_and(|p| p >= attr) {
            return Err(PersistError::Invalid(format!(
                "model term attributes are not strictly increasing at {attr}"
            )));
        }
        prev = Some(attr);
        finite("model coefficient", coef)?;
    }
    Ok(())
}

/// Validates `node`'s subtree; `leaves` counts the leaves seen so far in
/// left-to-right order.
fn validate_node(node: &Node, n_attrs: usize, leaves: &mut usize) -> Result<(), PersistError> {
    validate_model(node.model(), n_attrs)?;
    finite("node mean", node.mean())?;
    match node {
        Node::Leaf { id, .. } => {
            *leaves += 1;
            if id.0 != *leaves {
                return Err(PersistError::Invalid(format!(
                    "leaf {id} is out of order (expected LM{leaves})"
                )));
            }
        }
        Node::Split {
            attr,
            threshold,
            left,
            right,
            ..
        } => {
            validate_attr("split", *attr, n_attrs)?;
            finite("split threshold", *threshold)?;
            validate_node(left, n_attrs, leaves)?;
            validate_node(right, n_attrs, leaves)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, M5Params};

    fn tree() -> ModelTree {
        let rows: Vec<[f64; 1]> = (0..80).map(|i| [i as f64]).collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] <= 40.0 { r[0] } else { 80.0 - r[0] })
            .collect();
        let d = Dataset::from_rows(vec!["x".into()], &rows, &ys).unwrap();
        ModelTree::fit(&d, &M5Params::default().with_min_instances(8)).unwrap()
    }

    /// The version-1 rendering of a tree (no integrity header), as written
    /// by pre-checksum releases.
    fn v1_json(t: &ModelTree) -> String {
        serde_json::to_string_pretty(&Envelope {
            format: "mtperf-model-tree".into(),
            version: 1,
            tree: t.clone(),
        })
        .unwrap()
    }

    #[test]
    fn json_roundtrip() {
        let t = tree();
        let back = ModelTree::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.predict(&[17.0]), t.predict(&[17.0]));
    }

    #[test]
    fn v2_dump_has_integrity_header() {
        let json = tree().to_json();
        let first = json.lines().next().unwrap();
        assert!(first.contains("\"version\":2"), "{first}");
        assert!(first.contains("fnv1a64:"), "{first}");
        let header: IntegrityHeader = serde_json::from_str(first).unwrap();
        assert_eq!(header.payload_len, json.split_once('\n').unwrap().1.len());
    }

    #[test]
    fn v1_dump_still_loads() {
        let t = tree();
        let back = ModelTree::from_json(&v1_json(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn file_roundtrip() {
        let t = tree();
        let dir = std::env::temp_dir().join("mtperf-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        t.save(&path).unwrap();
        let back = ModelTree::load(&path).unwrap();
        assert_eq!(back, t);
        // Atomic save leaves no staging file behind.
        assert!(!mtperf_obs::fsio::staging_path(&path).unwrap().exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_detected_as_torn() {
        let t = tree();
        let json = t.to_json();
        let cut = &json[..json.len() - json.len() / 3];
        let err = ModelTree::from_json(cut).unwrap_err();
        assert!(matches!(err, PersistError::Truncated { .. }), "{err}");
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn bit_flip_is_detected_as_checksum_mismatch() {
        let t = tree();
        let json = t.to_json();
        // Flip one payload character without changing the length.
        let idx = json.rfind("\"tree\"").unwrap() + 1;
        let mut bytes = json.into_bytes();
        bytes[idx] = if bytes[idx] == b'x' { b'y' } else { b'x' };
        let corrupt = String::from_utf8(bytes).unwrap();
        let err = ModelTree::from_json(&corrupt).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("fnv1a64:"), "{err}");
    }

    #[test]
    fn rejects_wrong_format() {
        let err =
            ModelTree::from_json("{\"format\":\"other\",\"version\":1,\"tree\":null}").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err}");
        let err = ModelTree::from_json("not json at all").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
    }

    /// A chain of `depth` splits on `x`, each with a leaf on its left.
    fn chain(depth: usize) -> ModelTree {
        let leaf = |id: usize| Node::Leaf {
            id: crate::LeafId(id),
            model: LinearModel::constant(id as f64),
            n: 1,
            mean: id as f64,
        };
        let mut root = leaf(depth + 1);
        for d in (1..=depth).rev() {
            root = Node::Split {
                attr: 0,
                threshold: d as f64,
                model: LinearModel::constant(0.0),
                n: depth + 2 - d,
                mean: 0.0,
                left: Box::new(leaf(d)),
                right: Box::new(root),
            };
        }
        ModelTree {
            root,
            attr_names: vec!["x".into()],
            params: M5Params::default(),
            n_train: depth + 1,
            root_sd: 1.0,
            root_mean: 0.0,
        }
    }

    #[test]
    fn deep_chain_tree_roundtrips_through_a_file() {
        let t = chain(200);
        assert_eq!(t.depth(), 201);
        let dir = std::env::temp_dir().join("mtperf-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.json");
        t.save(&path).unwrap();
        let back = ModelTree::load(&path).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.predict(&[150.5]).to_bits(),
            t.predict(&[150.5]).to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    fn model(json: &str) -> LinearModel {
        serde_json::from_str(json).unwrap()
    }

    fn first_split(t: &mut ModelTree) -> (&mut usize, &mut f64) {
        match &mut t.root {
            Node::Split {
                attr, threshold, ..
            } => (attr, threshold),
            Node::Leaf { .. } => panic!("fixture tree has a split"),
        }
    }

    fn first_leaf(t: &mut ModelTree) -> &mut Node {
        let mut node = &mut t.root;
        while let Node::Split { left, .. } = node {
            node = left;
        }
        node
    }

    fn set_leaf_model(t: &mut ModelTree, m: LinearModel) {
        if let Node::Leaf { model, .. } = first_leaf(t) {
            *model = m;
        }
    }

    #[test]
    fn validation_names_each_structural_fault() {
        type Mutation = fn(&mut ModelTree);
        let cases: [(Mutation, &str); 9] = [
            (|t| *first_split(t).0 = 5, "split uses attribute 5"),
            (|t| *first_split(t).1 = f64::NAN, "split threshold"),
            (
                |t| set_leaf_model(t, model(r#"{"intercept":1,"terms":[[3,1.5]]}"#)),
                "model term uses attribute 3",
            ),
            (
                |t| set_leaf_model(t, model(r#"{"intercept":1,"terms":[[0,1],[0,2]]}"#)),
                "not strictly increasing",
            ),
            (
                |t| set_leaf_model(t, model(r#"{"intercept":1,"terms":[[0,1e400]]}"#)),
                "model coefficient",
            ),
            (
                |t| {
                    if let Node::Leaf { id, .. } = first_leaf(t) {
                        *id = crate::LeafId(7);
                    }
                },
                "leaf LM7 is out of order",
            ),
            (
                |t| {
                    if let Node::Leaf { mean, .. } = first_leaf(t) {
                        *mean = f64::INFINITY;
                    }
                },
                "node mean",
            ),
            (|t| t.root_sd = f64::NAN, "root_sd"),
            (
                |t| t.params = M5Params::default().with_sd_fraction(2.0),
                "sd_fraction",
            ),
        ];
        tree().validate().unwrap();
        for (mutate, want) in cases {
            let mut t = tree();
            mutate(&mut t);
            match t.validate() {
                Err(PersistError::Invalid(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("expected Invalid({want}), got {other:?}"),
            }
        }
        // The same check runs on every load.
        let mut t = tree();
        *first_split(&mut t).0 = 5;
        let err = ModelTree::from_json(&t.to_json()).unwrap_err();
        assert!(err.to_string().contains("model structure invalid"), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let t = tree();
        // Unsupported envelope version in the header line.
        let json = t.to_json().replacen("\"version\":2", "\"version\":999", 1);
        let err = ModelTree::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Unsupported body version in a headerless (v1-style) dump.
        let json = v1_json(&t).replace("\"version\": 1", "\"version\": 999");
        let err = ModelTree::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = ModelTree::load("/nonexistent/nope.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
