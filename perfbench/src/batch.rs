//! The three batch workloads: `predict_csv`, `sweep_grid`, `cv_fit`.
//!
//! Each runs one `mtperf` command on its seeded inputs over and over
//! until `--seconds` of command wall time has been measured, checking
//! every output. Set-up time is the same command on the smallest input it
//! accepts, repeated and reported as a median. The traced variants run the
//! command once untraced and once with `--trace-out`/`--metrics json`, and
//! replay the same inputs through the layers' public functions.

use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::Duration;

use mtperf::counters::{self, IngestPolicy, SampleSet};
use mtperf::eval::{cross_validate, Metrics};
use mtperf::linalg::{parallel, Matrix, Parallelism};
use mtperf::mtree::{analysis, best_split, LinearModel, M5Learner, ModelTree};
use mtperf::sweep::{self, SweepReport, SweepSpec};

use crate::gen;
use crate::metrics::{host_threads, Outcome};
use crate::oracle::check_predict_csv;
use crate::proc::{self, Exit};
use crate::stats;
use crate::trace::{ProgramReport, Recorder};

/// Sections in the `predict_csv` input.
pub const PREDICT_SECTIONS: usize = 250_000;
/// Sections in the `sweep_grid` input.
pub const SWEEP_SECTIONS: usize = 5_000;
/// Sections in the `cv_fit` input.
pub const CV_SECTIONS: usize = 10_000;
/// Folds of `cv_fit`.
pub const CV_K: usize = 10;
/// Inputs `sweep_grid` and `cv_fit` cycle through in one run. What one
/// invocation costs depends on the trees involved (the seed's model for
/// a sweep, the folds' trees for a CV), so it differs by 10–20 % from one
/// generated input to the next; a median over several inputs moves less
/// with the seed.
const CYCLED_INPUTS: usize = 4;
/// The frozen copy of `examples/sweep_spec.json` (1,152 configurations).
const SWEEP_SPEC: &str = "perfbench/sweep_spec.json";
/// After each full invocation, set-up invocations run until they have
/// taken this share of its wall time, and at least [`SETUP_MIN`] of them.
/// Set-up time is the median of all of them in the run.
const SETUP_SHARE: f64 = 0.15;
const SETUP_MIN: usize = 8;
/// Full invocations per run at the least, however long they take.
const MIN_RUNS: usize = 3;
/// Any single invocation is killed after this long.
const TIMEOUT: Duration = Duration::from_secs(60);

fn run_dir(workload: &str) -> Result<PathBuf, String> {
    let dir = gen::work_dir().join("run").join(workload);
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn s(x: impl AsRef<Path>) -> String {
    x.as_ref().display().to_string()
}

/// One command line and the check of what it wrote.
struct Cmd<'a> {
    args: Vec<String>,
    check: Box<dyn Fn() -> Result<(), String> + 'a>,
}

/// One batch workload: the command on its full inputs and on the smallest
/// input, and how to check each output.
struct Batch<'a> {
    bin: &'a str,
    /// The command on each full input of the run, all the same size; full
    /// runs cycle through them in order.
    full: Vec<Cmd<'a>>,
    small: Cmd<'a>,
    /// Rows of work one full invocation does (for `rows_per_s`).
    rows: f64,
    /// Where the command's stdout goes.
    stdout: PathBuf,
    /// Where the command's stderr goes.
    stderr: PathBuf,
}

impl Batch<'_> {
    /// Runs one invocation, stderr to the run directory's file.
    fn invoke(&self, args: &[String], extra: &[String]) -> Result<Exit, String> {
        let out =
            File::create(&self.stdout).map_err(|e| format!("{}: {e}", self.stdout.display()))?;
        let mut all = args.to_vec();
        all.extend_from_slice(extra);
        let err = proc::stderr_file(&self.stderr)?;
        let record = self.stdout.with_file_name("exit.txt");
        proc::run(self.bin, &all, Stdio::from(out), err, TIMEOUT, &record)
    }

    /// Runs `cmd` (with `extra` arguments) and checks it; returns its exit
    /// record after counting it as one operation.
    fn checked(&self, cmd: &Cmd, extra: &[String], o: &mut Outcome) -> Result<Exit, String> {
        let exit = self.invoke(&cmd.args, extra)?;
        let verdict = if !exit.ok() {
            Err(format!(
                "exit {:?}, timed out {}; {}",
                exit.code,
                exit.timed_out,
                proc::stderr_tail(&self.stderr)
            ))
        } else {
            (cmd.check)()
        };
        if let Err(e) = &verdict {
            eprintln!("perfbench: `{}` failed: {e}", cmd.args.join(" "));
        }
        o.op(verdict.is_ok());
        Ok(exit)
    }

    /// The untraced end-to-end measurement. Set-up runs are interleaved
    /// with the full runs, so both sample the whole window rather than one
    /// moment of a shared host's load. The run ends on a whole cycle of the
    /// full inputs, so each weighs the same in the median.
    fn measure(&self, seconds: f64) -> Result<Outcome, String> {
        eprintln!("perfbench: inputs ready, measuring");
        let mut o = Outcome::default();
        // One unmeasured run of each lets the page cache and the allocator
        // settle; users running the command repeatedly see the same.
        self.checked(&self.small, &[], &mut o)?;
        self.checked(&self.full[0], &[], &mut o)?;
        let (mut setup, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let spent = |setup: &[f64], walls: &[f64]| setup.iter().chain(walls).sum::<f64>();
        let k = self.full.len();
        while walls.len() < MIN_RUNS || walls.len() % k != 0 || spent(&setup, &walls) < seconds {
            let exit = self.checked(&self.full[walls.len() % k], &[], &mut o)?;
            let wall = exit.wall.as_secs_f64();
            walls.push(wall);
            rss.push(exit.peak_rss_mb);
            let (mut n, mut t) = (0, 0.0);
            while n < SETUP_MIN || t < SETUP_SHARE * wall {
                let w = self.checked(&self.small, &[], &mut o)?.wall.as_secs_f64();
                setup.push(w);
                n += 1;
                t += w;
            }
        }
        let setup_s = stats::median(&setup);
        let wall = stats::median(&walls);
        o.set("setup_s", setup_s, "s");
        o.set("rows_per_s", self.rows / wall, "rows/s");
        o.set("peak_rss_mb", stats::median(&rss), "MB");
        o.set("op_p50_ms", wall * 1e3, "ms");
        let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<_>>();
        if let Some((p, v)) = stats::tail(&ms(&setup)) {
            o.set(&stats::tail_name("small", p), v, "ms");
        }
        if let Some((p, v)) = stats::tail(&ms(&walls)) {
            o.set(&stats::tail_name("bulk", p), v, "ms");
        }
        if let Some(sp) = stats::spread(&walls) {
            o.set("bulk_iqr_share", sp, "fraction");
        }
        o.set("small_runs", setup.len() as f64, "count");
        o.set("bulk_runs", walls.len() as f64, "count");
        o.set("host_threads", host_threads() as f64, "count");
        Ok(o)
    }

    /// Untraced and traced invocations on the first full input,
    /// alternating, until `seconds` of wall have been spent (one pair at
    /// least). Returns the median
    /// untraced wall (ms), the last traced run's report, and the path of
    /// its trace stream.
    fn traced_pairs(
        &self,
        dir: &Path,
        seconds: f64,
        o: &mut Outcome,
    ) -> Result<(f64, ProgramReport, PathBuf), String> {
        let trace_path = dir.join("program_trace.jsonl");
        let extra = vec![
            "--trace-out".to_string(),
            s(&trace_path),
            "--metrics".to_string(),
            "json".to_string(),
        ];
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut report = ProgramReport::default();
        while plain.is_empty() || plain.iter().chain(&traced).sum::<f64>() < seconds * 1e3 {
            let a = self.checked(&self.full[0], &[], o)?;
            plain.push(a.wall.as_secs_f64() * 1e3);
            let b = self.checked(&self.full[0], &extra, o)?;
            traced.push(b.wall.as_secs_f64() * 1e3);
            let text = fs::read_to_string(&self.stderr).unwrap_or_default();
            report = ProgramReport::from_stderr(&text)?;
        }
        let (u, t) = (stats::median(&plain), stats::median(&traced));
        o.set("trace.overhead_pct", (t / u - 1.0) * 100.0, "%");
        o.set("trace.untraced_wall_ms", u, "ms");
        o.set("trace.traced_wall_ms", t, "ms");
        Ok((u, report, trace_path))
    }
}

/// Sets the pool and leaf-bucket metrics from a traced program run whose
/// pool-task spans end in `task_span`.
pub fn pool_metrics(o: &mut Outcome, report: &ProgramReport, task_span: &str) {
    let busy = report.spans_ending_us(task_span);
    let capacity = report.wall_us * host_threads() as f64;
    o.set("linalg.pool.utilization", busy / capacity.max(1.0), "ratio");
    o.set(
        "linalg.pool.dispatches",
        report.counter("pool.dispatches"),
        "count",
    );
    o.set(
        "linalg.pool.tasks_helped",
        report.counter("pool.tasks_helped"),
        "count",
    );
    let total = report.counter("predict.leaf_buckets_total");
    if total > 0.0 {
        o.set(
            "predict.leaf_bucket_hit_ratio",
            report.counter("predict.leaf_buckets_hit") / total,
            "ratio",
        );
    }
}

/// Replays the shared ingest path — `fsio::read`, strict CSV parse,
/// `dataset_from_samples` — under `rec`, returning the parsed samples.
fn replay_ingest(rec: &mut Recorder, o: &mut Outcome, path: &Path) -> Result<SampleSet, String> {
    let bytes = rec
        .time("obs.fsio.read", || mtperf_obs::fsio::read(path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let (samples, _) = rec
        .time("counters.csv.parse", || {
            counters::read_csv_with_policy(&bytes[..], IngestPolicy::Strict)
        })
        .map_err(|e| e.to_string())?;
    o.set("obs.fsio.read_ms", rec.total_ms("obs.fsio.read"), "ms");
    let parse_ms = rec.total_ms("counters.csv.parse");
    o.set("counters.csv.parse_ms", parse_ms, "ms");
    o.set(
        "counters.csv.mb_per_s",
        bytes.len() as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
    );
    Ok(samples)
}

fn finish_trace(
    rec: &Recorder,
    o: &mut Outcome,
    dir: &Path,
    wall_ms: f64,
    layers_ms: f64,
    program_trace: &Path,
) -> Result<(), String> {
    o.set("unattributed_ms", wall_ms - layers_ms, "ms");
    o.set("trace.replay_ms", rec.total_ms("replay"), "ms");
    rec.write(&dir.join("trace.jsonl"), Some(program_trace))
}

// ---------------------------------------------------------------- predict_csv

fn predict_batch<'a>(
    bin: &'a str,
    inp: &'a gen::Inputs,
    expected: &'a [f64],
    dir: &Path,
) -> Batch<'a> {
    let out = dir.join("out.csv");
    let small_out = dir.join("small_out.csv");
    let args = |data: &Path, out: &Path| {
        vec![
            "predict".to_string(),
            "--model".to_string(),
            s(&inp.model_path),
            "--data".to_string(),
            s(data),
            "--out".to_string(),
            s(out),
        ]
    };
    let full = Cmd {
        args: args(&inp.data_path, &out),
        check: Box::new(move || {
            let text = fs::read_to_string(&out).map_err(|e| e.to_string())?;
            check_predict_csv(&text, &inp.data, expected)
        }),
    };
    let n_small = inp.small.len();
    let small = Cmd {
        args: args(&inp.small_path, &small_out),
        check: Box::new(move || {
            let text = fs::read_to_string(&small_out).map_err(|e| e.to_string())?;
            check_predict_csv(&text, &inp.small, &expected[..n_small])
        }),
    };
    Batch {
        bin,
        full: vec![full],
        small,
        rows: inp.data.len() as f64,
        stdout: dir.join("stdout.txt"),
        stderr: dir.join("stderr.txt"),
    }
}

fn predict_inputs(seed: u64) -> Result<(gen::Inputs, Vec<f64>), String> {
    let inp = gen::inputs("predict_csv", seed, PREDICT_SECTIONS, 1)?;
    let expected = inp
        .data
        .iter()
        .map(|s| inp.model.predict(s.as_row()))
        .collect();
    Ok((inp, expected))
}

/// `predict_csv`, untraced.
pub fn predict_csv(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (inp, expected) = predict_inputs(seed)?;
    let dir = run_dir("predict_csv")?;
    let batch = predict_batch(bin, &inp, &expected, &dir);
    batch.measure(seconds)
}

/// `predict_csv`, traced: the CLI's path replayed layer by layer.
pub fn predict_csv_traced(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (inp, expected) = predict_inputs(seed)?;
    let dir = run_dir("predict_csv")?;
    let batch = predict_batch(bin, &inp, &expected, &dir);
    let mut o = Outcome::default();
    let (untraced, report, program_trace) = batch.traced_pairs(&dir, seconds, &mut o)?;
    pool_metrics(&mut o, &report, "predict_block");

    let mut rec = Recorder::new("predict_csv");
    rec.enter("replay");
    let tree = rec
        .time("mtree.persist.load", || ModelTree::load(&inp.model_path))
        .map_err(|e| e.to_string())?;
    let samples = replay_ingest(&mut rec, &mut o, &inp.data_path)?;
    let data = rec
        .time("mtperf.dataset", || mtperf::dataset_from_samples(&samples))
        .map_err(|e| e.to_string())?;
    let matrix = rec.time("mtree.dataset.to_matrix", || data.to_matrix());
    let compiled = rec.time("mtree.compiled.compile", || tree.compile());
    parallel::warm_up();
    let preds = rec
        .time("mtree.compiled.predict", || {
            compiled.try_predict_batch_with(&matrix, parallel::global())
        })
        .map_err(|e| e.to_string())?;
    rec.exit();
    o.op(preds
        .iter()
        .zip(&expected)
        .all(|(a, b)| a.to_bits() == b.to_bits()));

    set_model_metrics(&mut o, &rec, matrix.rows());
    o.set("mtperf.dataset_ms", rec.total_ms("mtperf.dataset"), "ms");
    o.set(
        "mtree.dataset.to_matrix_ms",
        rec.total_ms("mtree.dataset.to_matrix"),
        "ms",
    );
    let layers = rec.self_ms(&["obs.", "counters.", "mtperf.", "mtree."]);
    finish_trace(&rec, &mut o, &dir, untraced, layers, &program_trace)?;
    Ok(o)
}

fn set_model_metrics(o: &mut Outcome, rec: &Recorder, rows: usize) {
    o.set(
        "mtree.persist.load_ms",
        rec.total_ms("mtree.persist.load"),
        "ms",
    );
    o.set(
        "mtree.compiled.compile_ms",
        rec.total_ms("mtree.compiled.compile"),
        "ms",
    );
    let predict_ms = rec.total_ms("mtree.compiled.predict");
    o.set("mtree.compiled.predict_ms", predict_ms, "ms");
    o.set(
        "mtree.compiled.rows_per_s",
        rows as f64 / (predict_ms / 1e3),
        "rows/s",
    );
}

// ----------------------------------------------------------------- sweep_grid

fn load_spec() -> Result<SweepSpec, String> {
    let text = fs::read_to_string(SWEEP_SPEC).map_err(|e| format!("{SWEEP_SPEC}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{SWEEP_SPEC}: {e}"))
}

/// What `mtperf sweep --format json` must print, computed serially
/// in-process.
fn expected_sweep(
    spec: &SweepSpec,
    tree: &ModelTree,
    data: &SampleSet,
) -> Result<(SweepReport, String), String> {
    let report =
        sweep::run(spec, tree, data, false, Parallelism::Off).map_err(|e| e.to_string())?;
    let mut json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    json.push('\n');
    Ok((report, json))
}

/// One generated `sweep_grid` input (model and sections) with the report
/// `sweep` must print for it.
struct SweepInput {
    inp: gen::Inputs,
    report: SweepReport,
    json: String,
}

struct SweepSetup {
    spec: SweepSpec,
    inputs: Vec<SweepInput>,
    /// What `sweep` must print for the set-up input (the first input's
    /// model and leading section).
    small: String,
}

/// The first `n` of the seed's `sweep_grid` inputs.
fn sweep_setup(seed: u64, n: usize) -> Result<SweepSetup, String> {
    let spec = load_spec()?;
    let generated = (0..n)
        .map(|k| gen::inputs(&format!("sweep_grid.{k}"), seed, SWEEP_SECTIONS, 1))
        .collect::<Result<Vec<_>, _>>()?;
    // The serial oracles are the slowest part of set-up; they run side by
    // side, one thread per input.
    let expected: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = generated
            .iter()
            .map(|inp| scope.spawn(|| expected_sweep(&spec, &inp.model, &inp.data)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("sweep oracle panicked".into()))
            })
            .collect()
    });
    let mut inputs = Vec::with_capacity(n);
    for (inp, want) in generated.into_iter().zip(expected) {
        let (report, json) = want?;
        inputs.push(SweepInput { inp, report, json });
    }
    let first = &inputs[0].inp;
    let (_, small) = expected_sweep(&spec, &first.model, &first.small)?;
    Ok(SweepSetup {
        spec,
        inputs,
        small,
    })
}

fn sweep_batch<'a>(bin: &'a str, st: &'a SweepSetup, dir: &Path) -> Batch<'a> {
    let stdout = dir.join("stdout.json");
    let cmd = |inp: &gen::Inputs, data: &Path, want: &'a str| {
        let path = stdout.clone();
        Cmd {
            args: vec![
                "sweep".to_string(),
                "--spec".to_string(),
                SWEEP_SPEC.to_string(),
                "--model".to_string(),
                s(&inp.model_path),
                "--data".to_string(),
                s(data),
                "--format".to_string(),
                "json".to_string(),
            ],
            check: Box::new(move || {
                let got = fs::read(&path).map_err(|e| e.to_string())?;
                if got == want.as_bytes() {
                    Ok(())
                } else {
                    Err(format!(
                        "sweep output differs from the in-process report ({} vs {} bytes)",
                        got.len(),
                        want.len()
                    ))
                }
            }),
        }
    };
    let first = &st.inputs[0];
    Batch {
        bin,
        full: st
            .inputs
            .iter()
            .map(|i| cmd(&i.inp, &i.inp.data_path, &i.json))
            .collect(),
        small: cmd(&first.inp, &first.inp.small_path, &st.small),
        rows: (first.report.n_configs * first.inp.data.len()) as f64,
        stdout,
        stderr: dir.join("stderr.txt"),
    }
}

/// `sweep_grid`, untraced.
pub fn sweep_grid(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let st = sweep_setup(seed, CYCLED_INPUTS)?;
    let dir = run_dir("sweep_grid")?;
    let batch = sweep_batch(bin, &st, &dir);
    batch.measure(seconds)
}

/// `sweep_grid`, traced: transplant, predict, blame and render replayed
/// through the public functions `sweep::run` is built from.
pub fn sweep_grid_traced(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let st = sweep_setup(seed, 1)?;
    let (inp, spec) = (&st.inputs[0].inp, &st.spec);
    let points = spec.enumerate().map_err(|e| e.to_string())?;
    let dir = run_dir("sweep_grid")?;
    let batch = sweep_batch(bin, &st, &dir);
    let mut o = Outcome::default();
    let (untraced, report, program_trace) = batch.traced_pairs(&dir, seconds, &mut o)?;
    pool_metrics(&mut o, &report, "predict_block");

    let mut rec = Recorder::new("sweep_grid");
    rec.enter("replay");
    let tree = rec
        .time("mtree.persist.load", || ModelTree::load(&inp.model_path))
        .map_err(|e| e.to_string())?;
    let samples = replay_ingest(&mut rec, &mut o, &inp.data_path)?;
    let compiled = rec.time("mtree.compiled.compile", || tree.compile());
    parallel::warm_up();
    let base = spec.base().map_err(|e| e.to_string())?;
    let rows: Vec<&[f64]> = samples.iter().map(|s| s.as_row()).collect();
    let n = rows.len();
    let cols = compiled.n_attrs();
    // The same chunking as `sweep::run`: ~64k rows per batch.
    let per_chunk = (65_536 / n).max(1);
    let mut scored = 0usize;
    for chunk in points.chunks(per_chunk) {
        let block = rec.time("mtperf.analytic.transplant", || {
            let mut block = Matrix::zeros(chunk.len() * n, cols);
            for (c, point) in chunk.iter().enumerate() {
                let factors = mtperf::analytic::scale_factors(&base, &point.machine);
                for (r, rates) in rows.iter().enumerate() {
                    let moved = mtperf::analytic::transplant_rates(rates, &factors);
                    block.row_mut(c * n + r)[..moved.len()].copy_from_slice(&moved);
                }
            }
            block
        });
        let preds = rec
            .time("mtree.compiled.predict", || {
                compiled.try_predict_batch_with(&block, parallel::global())
            })
            .map_err(|e| e.to_string())?;
        scored += preds.len();
        rec.time("mtree.analysis.blame", || -> Result<(), String> {
            for c in 0..chunk.len() {
                let p = &preds[c * n..(c + 1) * n];
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| p[a].total_cmp(&p[b]).then(a.cmp(&b)));
                let row = block.row(c * n + order[(n - 1) / 2]);
                let contribs = analysis::contributions(&tree, row).map_err(|e| e.to_string())?;
                if let Some(top) = contribs
                    .iter()
                    .max_by(|a, b| a.amount.abs().total_cmp(&b.amount.abs()))
                {
                    analysis::what_if(&tree, row, top.attr, 0.0).map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        })?;
    }
    let rendered = rec
        .time("mtperf.sweep.render", || {
            serde_json::to_string_pretty(&st.inputs[0].report)
        })
        .map_err(|e| e.to_string())?;
    rec.exit();
    o.op(format!("{rendered}\n") == st.inputs[0].json);

    set_model_metrics(&mut o, &rec, scored);
    o.set(
        "mtperf.analytic.transplant_ms",
        rec.total_ms("mtperf.analytic.transplant"),
        "ms",
    );
    o.set(
        "mtree.analysis.blame_ms",
        rec.total_ms("mtree.analysis.blame"),
        "ms",
    );
    o.set(
        "mtperf.sweep.render_ms",
        rec.total_ms("mtperf.sweep.render"),
        "ms",
    );
    let layers = rec.self_ms(&["obs.", "counters.", "mtperf.", "mtree."]);
    finish_trace(&rec, &mut o, &dir, untraced, layers, &program_trace)?;
    Ok(o)
}

// --------------------------------------------------------------------- cv_fit

/// In-process 10-fold CV, as `mtperf evaluate` runs it (fold seed 7).
fn expected_cv(data: &SampleSet, k: usize) -> Result<Metrics, String> {
    let ds = mtperf::dataset_from_samples(data).map_err(|e| e.to_string())?;
    let learner = M5Learner::new(gen::cli_params(ds.n_rows()));
    let cv = cross_validate(&learner, &ds, k, 7).map_err(|e| e.to_string())?;
    Ok(cv.pooled)
}

/// One generated `cv_fit` input with the first line `evaluate` must print.
struct CvInput {
    inp: gen::Inputs,
    pooled: Metrics,
    line: String,
}

/// The first `n` of the seed's `cv_fit` inputs, and the line `evaluate`
/// must print for the set-up input (the first one's leading sections).
fn cv_setup(seed: u64, n: usize) -> Result<(Vec<CvInput>, String), String> {
    let mut inputs = Vec::with_capacity(n);
    for k in 0..n {
        let inp = gen::inputs(&format!("cv_fit.{k}"), seed, CV_SECTIONS, CV_K)?;
        let pooled = expected_cv(&inp.data, CV_K)?;
        let line = format!("{CV_K}-fold CV: {pooled}");
        inputs.push(CvInput { inp, pooled, line });
    }
    let small = format!(
        "{CV_K}-fold CV: {}",
        expected_cv(&inputs[0].inp.small, CV_K)?
    );
    Ok((inputs, small))
}

fn cv_batch<'a>(bin: &'a str, inputs: &'a [CvInput], small: &'a str, dir: &Path) -> Batch<'a> {
    let stdout = dir.join("stdout.txt");
    let cmd = |data: &Path, want: &'a str| {
        let path = stdout.clone();
        Cmd {
            args: vec![
                "evaluate".to_string(),
                "--data".to_string(),
                s(data),
                "--k".to_string(),
                CV_K.to_string(),
            ],
            check: Box::new(move || {
                let text = fs::read_to_string(&path).map_err(|e| e.to_string())?;
                match text.lines().next() {
                    Some(line) if line == want => Ok(()),
                    got => Err(format!(
                        "evaluate printed {got:?}, in-process CV gives {want:?}"
                    )),
                }
            }),
        }
    };
    Batch {
        bin,
        full: inputs
            .iter()
            .map(|c| cmd(&c.inp.data_path, &c.line))
            .collect(),
        small: cmd(&inputs[0].inp.small_path, small),
        rows: inputs[0].inp.data.len() as f64,
        stdout,
        stderr: dir.join("stderr.txt"),
    }
}

/// `cv_fit`, untraced.
pub fn cv_fit(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (inputs, small) = cv_setup(seed, CYCLED_INPUTS)?;
    let dir = run_dir("cv_fit")?;
    let mut o = cv_batch(bin, &inputs, &small, &dir).measure(seconds)?;
    o.set("cv_rae_pct", inputs[0].pooled.rae_percent, "%");
    Ok(o)
}

/// `cv_fit`, traced: fit time comes from the program's own `cv/fold/fit`
/// spans; the root split search and root leaf fit are replayed.
pub fn cv_fit_traced(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (inputs, small) = cv_setup(seed, 1)?;
    let inp = &inputs[0].inp;
    let dir = run_dir("cv_fit")?;
    let batch = cv_batch(bin, &inputs, &small, &dir);
    let mut o = Outcome::default();
    let (_, report, program_trace) = batch.traced_pairs(&dir, seconds, &mut o)?;
    pool_metrics(&mut o, &report, "cv/fold");
    o.set("mtree.fit_ms", report.span_us("cv/fold/fit") / 1e3, "ms");
    for c in [
        "mtree.split_searches",
        "mtree.nodes_built",
        "mtree.pruned_subtrees",
    ] {
        o.set(c, report.counter(c), "count");
    }

    let mut rec = Recorder::new("cv_fit");
    rec.enter("replay");
    let samples = replay_ingest(&mut rec, &mut o, &inp.data_path)?;
    let data = rec
        .time("mtperf.dataset", || mtperf::dataset_from_samples(&samples))
        .map_err(|e| e.to_string())?;
    let idx: Vec<usize> = (0..data.n_rows()).collect();
    let attrs: Vec<usize> = (0..data.n_attrs()).collect();
    let min = gen::cli_params(data.n_rows()).min_instances();
    let split = rec.time("mtree.split.root", || best_split(&data, &idx, min));
    let fit = rec.time("mtree.model.root_fit", || {
        LinearModel::fit_with_elimination(&data, &idx, &attrs)
    });
    rec.exit();
    o.op(split.is_some() && fit.is_ok());
    o.set("mtperf.dataset_ms", rec.total_ms("mtperf.dataset"), "ms");
    o.set(
        "mtree.split.root_ms",
        rec.total_ms("mtree.split.root"),
        "ms",
    );
    o.set(
        "mtree.model.root_fit_ms",
        rec.total_ms("mtree.model.root_fit"),
        "ms",
    );
    // Coverage of the traced run by the program's own top-level spans:
    // ingest, the CV, and the final fit of the breakdown table.
    let covered = (report.span_us("ingest") + report.span_us("cv") + report.span_us("fit")) / 1e3;
    finish_trace(
        &rec,
        &mut o,
        &dir,
        report.wall_us / 1e3,
        covered,
        &program_trace,
    )?;
    Ok(o)
}
