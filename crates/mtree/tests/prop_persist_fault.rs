//! Fault-injection properties for the persistence envelopes.
//!
//! Reuses the deterministic corruption operators of
//! `mtperf_counters::faultinject` (row drops, field truncation,
//! non-finite flips, saturation, duplication) against *saved model
//! envelopes* instead of counter CSVs. The operators never touch line 1 —
//! which for a v2 envelope is exactly the integrity header — so every
//! fault lands in the checksummed payload, the spot a torn or bit-rotted
//! file would actually differ.
//!
//! Properties:
//!
//! * any corruption that changes the envelope text makes `from_json`/
//!   `load` return a typed [`PersistError`] — never a panic, never a
//!   silently-wrong model;
//! * the v2 payload is itself a loadable v1 document (backward
//!   compatibility is structural, not best-effort);
//! * corrupting a bare (checksum-less) v1 document still never panics,
//!   and whatever model it still loads is safe to use;
//! * a structurally damaged tree under a *valid* checksum (the structural
//!   fault operator below) loads as a typed [`PersistError::Invalid`] or as
//!   a tree that predicts, renders and analyzes without panicking.

use mtperf_counters::faultinject::{FaultInjector, FaultOp};
use mtperf_mtree::{analysis, Dataset, M5Params, ModelTree, PersistError, RuleSet};
use proptest::prelude::*;
use serde::Value;

/// Strategy: a two-attribute dataset with a split-friendly piecewise target.
fn dataset(n: usize) -> impl Strategy<Value = Dataset> {
    (
        prop::collection::vec((-8.0..8.0f64, -4.0..4.0f64), n),
        prop::collection::vec(-0.15..0.15f64, n),
    )
        .prop_map(|(xs, noise)| {
            let rows: Vec<[f64; 2]> = xs.iter().map(|&(a, b)| [a, b]).collect();
            let ys: Vec<f64> = xs
                .iter()
                .zip(&noise)
                .map(|(&(a, b), &e)| {
                    let base = if a <= 0.0 {
                        1.5 + 0.6 * b
                    } else {
                        6.0 - 0.3 * b
                    };
                    base + e
                })
                .collect();
            Dataset::from_rows(vec!["a".into(), "b".into()], &rows, &ys).unwrap()
        })
}

fn fault_op() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        (1usize..6).prop_map(FaultOp::DropRows),
        (1usize..6).prop_map(FaultOp::TruncateFields),
        (1usize..6).prop_map(FaultOp::FlipNonFinite),
        (1usize..6).prop_map(FaultOp::SaturateCounters),
        (1usize..6).prop_map(FaultOp::DuplicateSections),
    ]
}

fn fit(d: &Dataset) -> ModelTree {
    ModelTree::fit(d, &M5Params::default().with_min_instances(6)).unwrap()
}

/// One structural mutation of a saved tree. The `usize` picks the site
/// (modulo the number of candidates) or the replacement value.
#[derive(Debug, Clone)]
enum Structural {
    /// A split attribute past the end of `attr_names`.
    SplitAttr(usize),
    /// A model term attribute past the end of `attr_names`.
    TermAttr(usize),
    /// An infinite threshold. JSON has no spelling for NaN (the writer
    /// emits `null`), so `±1e400` is the non-finite value a file can hold.
    InfThreshold(usize),
    /// An infinite coefficient (or intercept, for a constant model).
    InfCoefficient(usize),
    /// A leaf id replaced by an arbitrary one.
    LeafId(usize, usize),
    /// `attr_names` cut to a shorter prefix.
    TruncateNames(usize),
}

fn structural_op() -> impl Strategy<Value = Structural> {
    prop_oneof![
        (0usize..64).prop_map(Structural::SplitAttr),
        (0usize..64).prop_map(Structural::TermAttr),
        (0usize..64).prop_map(Structural::InfThreshold),
        (0usize..64).prop_map(Structural::InfCoefficient),
        ((0usize..64), (0usize..12)).prop_map(|(site, id)| Structural::LeafId(site, id)),
        (0usize..2).prop_map(Structural::TruncateNames),
    ]
}

/// Every value of an object field named `key`, in document order (the
/// search does not descend into a matched value).
fn fields<'a>(v: &'a mut Value, key: &str, out: &mut Vec<&'a mut Value>) {
    match v {
        Value::Object(entries) => {
            for (k, child) in entries.iter_mut() {
                if k == key {
                    out.push(child);
                } else {
                    fields(child, key, out);
                }
            }
        }
        Value::Array(items) => items.iter_mut().for_each(|item| fields(item, key, out)),
        _ => {}
    }
}

/// The `site`-th (cyclically) value of field `key`, if there is any.
fn field<'a>(v: &'a mut Value, key: &str, site: usize) -> Option<&'a mut Value> {
    let mut found = Vec::new();
    fields(v, key, &mut found);
    let n = found.len();
    found.into_iter().nth(site % n.max(1))
}

/// Stands in for a non-finite number until the body is printed.
const INF: &str = "INF_PLACEHOLDER";

/// Serializes a raw value tree through the vendored serde shim.
struct Raw(Value);

impl serde::Serialize for Raw {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

/// Applies `op` to the v1 body of `tree` and re-seals the result under a
/// valid v2 integrity header, so only the structural check can object.
fn mutate_and_reseal(tree: &ModelTree, op: &Structural) -> String {
    let sealed = tree.to_json();
    let (_, body) = sealed.split_once('\n').unwrap();
    let mut v = serde_json::parse_value(body).unwrap();
    let n_attrs = tree.attr_names().len();
    match *op {
        Structural::SplitAttr(site) => {
            if let Some(attr) = field(&mut v, "attr", site) {
                *attr = Value::U64((n_attrs + site) as u64);
            }
        }
        Structural::TermAttr(site) => {
            // Models without terms get one appended.
            if let Some(Value::Array(terms)) = field(&mut v, "terms", site) {
                let bad = Value::U64((n_attrs + site) as u64);
                match terms.first_mut() {
                    Some(Value::Array(term)) => term[0] = bad,
                    _ => terms.push(Value::Array(vec![bad, Value::F64(1.0)])),
                }
            }
        }
        Structural::InfThreshold(site) => {
            if let Some(t) = field(&mut v, "threshold", site) {
                *t = Value::Str(INF.into());
            }
        }
        Structural::InfCoefficient(site) => match field(&mut v, "terms", site) {
            Some(Value::Array(terms)) if !terms.is_empty() => {
                let n = terms.len();
                if let Value::Array(term) = &mut terms[site % n] {
                    term[1] = Value::Str(INF.into());
                }
            }
            _ => {
                if let Some(c) = field(&mut v, "intercept", site) {
                    *c = Value::Str(INF.into());
                }
            }
        },
        Structural::LeafId(site, id) => {
            if let Some(leaf) = field(&mut v, "id", site) {
                *leaf = Value::U64(id as u64);
            }
        }
        Structural::TruncateNames(keep) => {
            if let Some(Value::Array(names)) = field(&mut v, "attr_names", 0) {
                names.truncate(keep);
            }
        }
    }
    let inf = ["1e400", "-1e400"][tree.n_leaves() % 2];
    let body = serde_json::to_string_pretty(&Raw(v))
        .unwrap()
        .replace(&format!("\"{INF}\""), inf)
        + "\n";
    let header = format!(
        "{{\"format\":\"mtperf-model-tree\",\"version\":2,\"checksum\":\"fnv1a64:{:016x}\",\"payload_len\":{}}}",
        mtperf_obs::fsio::fnv1a_64(body.as_bytes()),
        body.len()
    );
    format!("{header}\n{body}")
}

/// Runs a loaded tree through every consumer of the artifact: interpreted
/// and compiled prediction (which must agree bit for bit), both renderers
/// and the opportunity ranking. Returning at all proves none panicked.
fn exercise(tree: &ModelTree, d: &Dataset) {
    let batch = tree.compile().predict_batch(&d.to_matrix());
    for (i, b) in batch.iter().enumerate() {
        assert_eq!(b.to_bits(), tree.predict(&d.row(i)).to_bits());
    }
    assert!(!tree.render("CPI").is_empty());
    assert!(!RuleSet::from_tree(tree).render("CPI").is_empty());
    assert!(analysis::rank_opportunities(tree, &d.row(0)).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Corrupting a sealed tree envelope anywhere in its payload yields a
    /// typed error — reaching the assertion at all proves no panic.
    #[test]
    fn corrupted_tree_envelope_is_a_typed_error(
        d in dataset(60),
        op in fault_op(),
        seed in 0u64..1024,
    ) {
        let tree = fit(&d);
        let sealed = tree.to_json();
        let corrupted = FaultInjector::new(seed).apply(op, &sealed);
        let result = ModelTree::from_json(&corrupted.text);
        if corrupted.text != sealed {
            prop_assert!(
                result.is_err(),
                "corruption {op:?} (seed {seed}) loaded as a valid model"
            );
        } else {
            // The operator happened to be an identity (e.g. a truncation
            // that kept every field): the envelope must still load.
            prop_assert!(result.is_ok());
        }
    }

    /// Same property through the file path: save, corrupt on disk, load.
    #[test]
    fn corrupted_tree_file_is_a_typed_error(
        d in dataset(60),
        op in fault_op(),
        seed in 0u64..1024,
    ) {
        let tree = fit(&d);
        let dir = std::env::temp_dir()
            .join(format!("mtperf-persist-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("model-{seed}.json"));
        tree.save(&path).unwrap();
        let sealed = std::fs::read_to_string(&path).unwrap();
        let corrupted = FaultInjector::new(seed).apply(op, &sealed);
        std::fs::write(&path, &corrupted.text).unwrap();
        let result = ModelTree::load(&path);
        if corrupted.text != sealed {
            prop_assert!(result.is_err(), "{op:?} seed {seed}");
        } else {
            prop_assert!(result.is_ok());
        }
        std::fs::remove_file(&path).ok();
    }

    /// The checksummed payload of a v2 envelope is itself a complete v1
    /// document: stripping the integrity header must load bit-identically,
    /// which is what keeps pre-envelope files loadable forever.
    #[test]
    fn v2_payload_is_a_loadable_v1_document(d in dataset(60)) {
        let tree = fit(&d);
        let sealed = tree.to_json();
        let (header, body) = sealed.split_once('\n').unwrap();
        prop_assert!(header.contains("\"version\":2"), "{header}");
        prop_assert!(header.contains("fnv1a64:"), "{header}");
        let loaded = ModelTree::from_json(body).unwrap();
        prop_assert_eq!(&loaded, &tree);
    }

    /// Corrupting an unprotected v1 document (no checksum line to catch
    /// it) must still never panic: it either fails parsing or — for
    /// value-level damage valid JSON can absorb — loads as *some* model.
    #[test]
    fn corrupted_bare_v1_never_panics(
        d in dataset(60),
        op in fault_op(),
        seed in 0u64..1024,
    ) {
        let tree = fit(&d);
        let sealed = tree.to_json();
        let (_, body) = sealed.split_once('\n').unwrap();
        let corrupted = FaultInjector::new(seed).apply(op, body);
        // Returning at all (Ok or Err) is the property under test, and a
        // tree that still loads must be safe to use.
        if let Ok(loaded) = ModelTree::from_json(&corrupted.text) {
            exercise(&loaded, &d);
        }
    }

    /// A structurally damaged tree under a valid checksum either fails
    /// validation with a typed error or loads as a tree every consumer can
    /// use without panicking.
    #[test]
    fn structural_fault_is_invalid_or_harmless(
        d in dataset(60),
        op in structural_op(),
    ) {
        let tree = fit(&d);
        let text = mutate_and_reseal(&tree, &op);
        match ModelTree::from_json(&text) {
            Ok(loaded) => exercise(&loaded, &d),
            Err(PersistError::Invalid(_)) => {}
            Err(e) => prop_assert!(false, "{op:?} gave an untyped failure: {e}"),
        }
    }
}
