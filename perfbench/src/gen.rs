//! Seeded input generation.
//!
//! Every input the program sees is a file made here from `--seed`:
//!
//! * a fixed, seed-independent base suite from `sim::simulate_suite` at a
//!   small scale (simulation is slow, so it is made once per checkout and
//!   cached);
//! * workload CSVs resampled from that base with seeded multiplicative
//!   jitter up to each workload's size;
//! * the model, trained in-process on its own seeded resample with the
//!   CLI's default parameters;
//! * serve request rows.
//!
//! Generated files are cached by (kind, seed, size) under the bench's own
//! work directory, so a repeated seed costs nothing and no generation ever
//! lands inside a timed phase.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use mtperf::counters::{self, SampleSet, SectionSample, N_EVENTS};
use mtperf::linalg::parallel;
use mtperf::mtree::{M5Params, ModelTree};
use mtperf_detsim::rng::{derive_seed, GenericRng, SimRng};

/// Instructions simulated per workload for the base suite (15 workloads,
/// 10k-instruction sections: 40 sections each, 600 in all).
const BASE_INSTRUCTIONS: u64 = 400_000;
const BASE_SECTION_LEN: u64 = 10_000;
const BASE_SEED: u64 = 2007;
/// Sections the per-seed model is trained on.
const TRAIN_SECTIONS: usize = 6_000;
/// Log-normal jitter applied to every resampled rate and CPI.
const JITTER_SIGMA: f64 = 0.05;
/// Version of the generator, part of every cache key: a change to how
/// inputs are made must bump it, so no stale file is reused.
const GEN_VERSION: u32 = 2;
/// Cache entries kept per kind; older ones are deleted (the predict CSVs
/// are hundreds of MB each).
const CACHE_KEEP: usize = 2;

/// The seeded stream of `domain` for `seed`: one seed gives independent
/// streams to every domain.
pub fn rng(seed: u64, domain: &str) -> SimRng {
    SimRng::seed_from_u64(derive_seed(seed, domain))
}

/// Approximately standard normal (Irwin–Hall sum of 12 uniforms).
pub fn normal(rng: &SimRng) -> f64 {
    (0..12).map(|_| rng.gen_f64()).sum::<f64>() - 6.0
}

/// The bench's work directory inside the checkout.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// The base suite, simulated once and cached as CSV (the CSV writer
/// round-trips every value exactly).
pub fn base_suite() -> Result<SampleSet, String> {
    let path = work_dir().join(format!(
        "base-{BASE_INSTRUCTIONS}-{BASE_SECTION_LEN}-{BASE_SEED}.csv"
    ));
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(set) = counters::read_csv(&bytes[..]) {
            return Ok(set);
        }
    }
    let set = mtperf::sim::simulate_suite(BASE_INSTRUCTIONS, BASE_SECTION_LEN, BASE_SEED);
    write_csv_atomic(&set, &path)?;
    Ok(set)
}

/// `n` sections resampled from `base` with seeded jitter. Every base
/// section is drawn equally often (in a seeded order, one shuffled pass
/// over the base after another), so seeds differ in jitter and order but
/// not in how much of each behaviour the input holds, which keeps the work
/// per run comparable across seeds. Section indices count up per workload,
/// as in a real trace.
pub fn resample(base: &SampleSet, seed: u64, domain: &str, n: usize) -> SampleSet {
    let rng = rng(seed, domain);
    let names = base.workloads();
    let mut next_index = vec![0usize; names.len()];
    let mut order: Vec<usize> = (0..base.len()).collect();
    let mut out = SampleSet::new();
    for i in 0..n {
        let k = i % base.len();
        if k == 0 {
            for j in (1..order.len()).rev() {
                order.swap(j, rng.gen_index(j + 1));
            }
        }
        let src = &base.samples()[order[k]];
        let w = names.binary_search(&src.workload).unwrap_or(0);
        let mut rates = [0.0; N_EVENTS];
        for (dst, &r) in rates.iter_mut().zip(src.as_row()) {
            *dst = r * (JITTER_SIGMA * normal(&rng)).exp();
        }
        let cpi = src.cpi * (JITTER_SIGMA * normal(&rng)).exp();
        out.push(SectionSample::new(
            src.workload.clone(),
            next_index[w],
            cpi,
            rates,
        ));
        next_index[w] += 1;
    }
    out
}

fn write_csv_atomic(set: &SampleSet, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension("tmp");
    let file = fs::File::create(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    counters::write_csv(set, &mut w)
        .map_err(|e| e.to_string())
        .and_then(|()| w.flush().map_err(|e| e.to_string()))
        .map_err(|e| format!("{}: {e}", tmp.display()))?;
    drop(w);
    fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The CLI's default training parameters for `n` rows.
pub fn cli_params(n: usize) -> M5Params {
    M5Params::default()
        .with_min_instances((n / 30).max(8))
        .with_smoothing(true)
        .with_parallelism(parallel::global())
}

/// Trains the model exactly as `mtperf train` would with default options.
pub fn train_model(data: &SampleSet) -> Result<ModelTree, String> {
    let data = mtperf::dataset_from_samples(data).map_err(|e| e.to_string())?;
    ModelTree::fit(&data, &cli_params(data.n_rows())).map_err(|e| e.to_string())
}

/// The cache directory of one generated input.
fn cache_dir(kind: &str, seed: u64, size: usize) -> PathBuf {
    work_dir()
        .join("cache")
        .join(format!("{kind}-s{seed}-n{size}-g{GEN_VERSION}"))
}

/// Deletes all but the newest [`CACHE_KEEP`] entries of `kind`.
fn evict(kind: &str, keep: &Path) {
    let root = work_dir().join("cache");
    let Ok(entries) = fs::read_dir(&root) else {
        return;
    };
    let mut dirs: Vec<(std::time::SystemTime, PathBuf)> = entries
        .filter_map(Result::ok)
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(&format!("{kind}-s"))
        })
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .filter(|(_, p)| p != keep)
        .collect();
    dirs.sort();
    let excess = (dirs.len() + 1).saturating_sub(CACHE_KEEP);
    for (_, p) in dirs.into_iter().take(excess) {
        let _ = fs::remove_dir_all(p);
    }
}

/// One workload's generated inputs on disk plus their in-memory copies.
pub struct Inputs {
    /// Model file.
    pub model_path: PathBuf,
    /// The model as trained (the oracle predicts with it).
    pub model: ModelTree,
    /// Workload CSV.
    pub data_path: PathBuf,
    /// The workload sections as written.
    pub data: SampleSet,
    /// The smallest input the command accepts (the first sections of
    /// `data`), for set-up timing.
    pub small_path: PathBuf,
    /// The sections in `small_path`.
    pub small: SampleSet,
}

/// Generates (or reuses) the model and a `size`-section workload CSV for
/// `seed`. The first `n_small` sections also go into the set-up input.
pub fn inputs(kind: &str, seed: u64, size: usize, n_small: usize) -> Result<Inputs, String> {
    let dir = cache_dir(kind, seed, size);
    let model_path = dir.join("model.json");
    let data_path = dir.join("data.csv");
    let small_path = dir.join("small.csv");
    let base = base_suite()?;
    let data = resample(&base, seed, kind, size);
    let mut small = SampleSet::new();
    for s in data.iter().take(n_small) {
        small.push(s.clone());
    }
    let complete = dir.join("complete");
    let model = if complete.exists() {
        ModelTree::load(&model_path).map_err(|e| format!("{}: {e}", model_path.display()))?
    } else {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let model = train_model(&resample(&base, seed, "train", TRAIN_SECTIONS))?;
        model
            .save(&model_path)
            .map_err(|e| format!("{}: {e}", model_path.display()))?;
        write_csv_atomic(&data, &data_path)?;
        write_csv_atomic(&small, &small_path)?;
        fs::write(&complete, b"").map_err(|e| format!("{}: {e}", complete.display()))?;
        model
    };
    evict(kind, &dir);
    Ok(Inputs {
        model_path,
        model,
        data_path,
        data,
        small_path,
        small,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base() -> SampleSet {
        let mut set = SampleSet::new();
        for (i, w) in ["a", "b", "c"].iter().enumerate() {
            for s in 0..4 {
                let mut rates = [0.0; N_EVENTS];
                for (j, r) in rates.iter_mut().enumerate() {
                    *r = 0.001 * (1 + i + s + j) as f64;
                }
                set.push(SectionSample::new(*w, s, 1.0 + 0.1 * s as f64, rates));
            }
        }
        set
    }

    fn csv_bytes(set: &SampleSet) -> Vec<u8> {
        let mut out = Vec::new();
        counters::write_csv(set, &mut out).unwrap();
        out
    }

    #[test]
    fn same_seed_gives_identical_bytes() {
        let base = tiny_base();
        let a = csv_bytes(&resample(&base, 42, "predict_csv", 500));
        let b = csv_bytes(&resample(&base, 42, "predict_csv", 500));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_or_domain_gives_different_bytes() {
        let base = tiny_base();
        let a = csv_bytes(&resample(&base, 42, "predict_csv", 500));
        let b = csv_bytes(&resample(&base, 43, "predict_csv", 500));
        let c = csv_bytes(&resample(&base, 42, "cv_fit", 500));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn resampled_sections_stay_well_formed_and_readable() {
        let set = resample(&tiny_base(), 7, "x", 300);
        assert_eq!(set.len(), 300);
        assert!(set.is_well_formed());
        let back = counters::read_csv(&csv_bytes(&set)[..]).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn every_base_section_is_drawn_equally_often() {
        let base = tiny_base();
        let set = resample(&base, 9, "x", 3 * base.len());
        for w in ["a", "b", "c"] {
            assert_eq!(set.for_workload(w).len(), 3 * 4);
        }
    }
}
