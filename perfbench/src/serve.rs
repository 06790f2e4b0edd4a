//! `serve_mix`: one daemon on a Unix socket, two closed-loop connections.
//!
//! * **bulk** sends back-to-back 10k-row predicts, each a fresh random
//!   draw from a 50k-row pool (never repeated; too large to be cached);
//! * **small** sends back-to-back 1-row predicts whose rows follow a Zipf
//!   popularity over a pool four times the daemon's default cache (256
//!   entries), and once a second promotes a byte-identical copy of the
//!   model as a new version, which makes every cached key stale.
//!
//! Each caller waits for its reply before sending again. Latency runs
//! from the first byte sent to the end of the reply line. The daemon keeps
//! its defaults (2 workers, queue depth 64, cache size 256).

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mtperf::linalg::{parallel, CancelToken, Matrix};
use mtperf::mtree::ModelTree;
use mtperf::serve::admission::FairQueue;
use mtperf::serve::cache::PredictionCache;
use mtperf::serve::engine::{self, LoadedModel, PredictOutcome};
use mtperf::serve::protocol::{Request, Response};
use mtperf_detsim::rng::{GenericRng, SimRng};

use crate::gen;
use crate::metrics::{host_threads, Outcome};
use crate::oracle;
use crate::proc::{self, Exit};
use crate::stats;
use crate::trace::{ProgramReport, Recorder};

/// Rows per bulk request.
pub const BULK_ROWS: usize = 10_000;
/// Distinct rows bulk requests draw from.
const BULK_POOL: usize = 50_000;
/// Distinct rows small requests draw from: 4× the default cache size.
const SMALL_POOL: usize = 1_024;
/// Zipf exponent of small-request popularity.
const ZIPF_S: f64 = 1.0;
/// Interval between promotes on the small connection.
const PROMOTE_EVERY: Duration = Duration::from_secs(1);
/// Daemon start-ups per run; set-up time is their median.
const SETUP_REPS: usize = 24;
/// Unmeasured traffic before the measured window (fills the cache).
const WARMUP: Duration = Duration::from_secs(1);
/// Replies slower than this fail the request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests of each class the traced run replays in-process.
const REPLAY_BULK: usize = 16;
const REPLAY_SMALL: usize = 4_000;

/// The generated pools, as JSON row text and as expected predictions.
struct Pools {
    model_path: PathBuf,
    copy_path: PathBuf,
    small_rows: Vec<String>,
    small_expected: Vec<f64>,
    bulk_rows: Vec<String>,
    bulk_expected: Vec<f64>,
    /// Zipf CDF over the small pool.
    zipf: Vec<f64>,
}

fn row_json(row: &[f64]) -> String {
    let vals: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", vals.join(","))
}

fn pools(seed: u64, dir: &Path) -> Result<Pools, String> {
    let inp = gen::inputs("serve_mix", seed, SMALL_POOL + BULK_POOL, 1)?;
    let rows: Vec<&[f64]> = inp.data.iter().map(|s| s.as_row()).collect();
    let expected: Vec<f64> = rows.iter().map(|r| inp.model.predict(r)).collect();
    let json: Vec<String> = rows.iter().map(|r| row_json(r)).collect();
    let copy_path = dir.join("model-copy.json");
    fs::copy(&inp.model_path, &copy_path).map_err(|e| format!("{}: {e}", copy_path.display()))?;
    let mut zipf = Vec::with_capacity(SMALL_POOL);
    let mut acc = 0.0;
    for k in 0..SMALL_POOL {
        acc += 1.0 / ((k + 1) as f64).powf(ZIPF_S);
        zipf.push(acc);
    }
    for c in &mut zipf {
        *c /= acc;
    }
    Ok(Pools {
        model_path: inp.model_path,
        copy_path,
        small_rows: json[..SMALL_POOL].to_vec(),
        small_expected: expected[..SMALL_POOL].to_vec(),
        bulk_rows: json[SMALL_POOL..].to_vec(),
        bulk_expected: expected[SMALL_POOL..].to_vec(),
        zipf,
    })
}

impl Pools {
    fn zipf_key(&self, rng: &SimRng) -> usize {
        let u = rng.gen_f64();
        self.zipf.partition_point(|&c| c < u).min(SMALL_POOL - 1)
    }

    fn bulk_line(&self, id: usize, idx: &[usize]) -> String {
        let mut line = String::with_capacity(idx.len() * 420 + 64);
        line.push_str(&format!("{{\"op\":\"predict\",\"id\":\"b{id}\",\"rows\":["));
        for (i, &k) in idx.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&self.bulk_rows[k]);
        }
        line.push_str("]}\n");
        line
    }

    fn small_line(&self, id: usize, key: usize) -> String {
        format!(
            "{{\"op\":\"predict\",\"id\":\"s{id}\",\"rows\":[{}]}}\n",
            self.small_rows[key]
        )
    }

    fn promote_line(&self, id: usize) -> String {
        format!(
            "{{\"op\":\"promote\",\"id\":\"p{id}\",\"path\":\"{}\"}}\n",
            self.copy_path.display()
        )
    }
}

/// One closed-loop connection.
struct Conn {
    w: UnixStream,
    r: BufReader<UnixStream>,
    buf: String,
}

impl Conn {
    fn open(sock: &Path) -> std::io::Result<Conn> {
        let w = UnixStream::connect(sock)?;
        w.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let r = BufReader::with_capacity(1 << 20, w.try_clone()?);
        Ok(Conn {
            w,
            r,
            buf: String::new(),
        })
    }

    /// Sends one line and waits for one reply line.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        self.buf.clear();
        self.w
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        match self.r.read_line(&mut self.buf) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// A running daemon.
struct Daemon {
    /// `None` once reaped.
    child: Option<Child>,
    spawned: Instant,
    sock: PathBuf,
}

impl Daemon {
    /// Spawns the daemon, its stderr to [`daemon_stderr`], and waits for
    /// its first good `health` reply; returns it with the spawn-to-healthy
    /// time.
    fn start(
        bin: &str,
        model: &Path,
        dir: &Path,
        extra: &[String],
    ) -> Result<(Daemon, f64), String> {
        let stderr = proc::stderr_file(&daemon_stderr(dir))?;
        let sock = dir.join("serve.sock");
        let _ = fs::remove_file(&sock);
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--model")
            .arg(model)
            .arg("--socket")
            .arg(&sock)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {bin} serve: {e}"))?;
        let d = Daemon {
            child: Some(child),
            spawned,
            sock,
        };
        loop {
            let healthy = Conn::open(&d.sock).is_ok_and(|mut c| {
                c.call("{\"op\":\"health\",\"id\":\"h\"}\n")
                    .is_ok_and(|r| r.contains("\"ok\":true") && r.contains("\"ready\":true"))
            });
            if healthy {
                let setup = spawned.elapsed().as_secs_f64();
                return Ok((d, setup));
            }
            if spawned.elapsed() > REPLY_TIMEOUT {
                d.stop();
                return Err(format!(
                    "daemon never answered health; {}",
                    proc::stderr_tail(&daemon_stderr(dir))
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's peak resident memory so far, MB. Read from the running
    /// process: its `wait4` figure would also count the benchmark's own
    /// memory, from which it was spawned.
    fn peak_rss_mb(&self) -> Option<f64> {
        proc::vm_hwm_mb(self.child.as_ref()?.id())
    }

    /// Asks the daemon to shut down, then reaps it (killing it if it does
    /// not drain in time).
    fn stop(mut self) -> Exit {
        let acked = Conn::open(&self.sock).ok().and_then(|mut c| {
            c.call("{\"op\":\"shutdown\",\"id\":\"x\"}\n")
                .ok()
                .map(|r| r.contains("\"ok\":true"))
        });
        self.reap(acked == Some(true))
    }

    /// Reaps the daemon, signalling it first unless it is already draining.
    fn reap(&mut self, draining: bool) -> Exit {
        let child = self.child.take().expect("a daemon is reaped once");
        if !draining {
            proc::terminate(&child);
        }
        let exit = proc::reap(child, self.spawned, self.spawned.elapsed() + REPLY_TIMEOUT);
        let _ = fs::remove_file(&self.sock);
        if !exit.ok() {
            let dir = self.sock.parent().unwrap_or(Path::new("."));
            eprintln!(
                "perfbench: daemon exit {:?}, timed out {}; {}",
                exit.code,
                exit.timed_out,
                proc::stderr_tail(&daemon_stderr(dir))
            );
        }
        exit
    }
}

impl Drop for Daemon {
    /// A daemon left running by an early return or a panic is stopped
    /// here, so no run leaves a process behind.
    fn drop(&mut self) {
        if self.child.is_some() {
            self.reap(false);
        }
    }
}

/// What one connection saw in the measured window.
#[derive(Default)]
struct Side {
    attempted: u64,
    failed: u64,
    rows_ok: u64,
    /// Latency (ms) of every measured request; failures read +inf.
    latencies: Vec<f64>,
    /// Latency (ms) of promotes.
    promotes: Vec<f64>,
    /// Small keys (or `usize::MAX` for a promote) / bulk index lists sent
    /// in the window, for the traced replay.
    small_keys: Vec<usize>,
    bulk_idx: Vec<Vec<usize>>,
}

impl Side {
    /// Counts one operation (warm-up ones too); only requests sent inside
    /// the measured window contribute latency and rows.
    fn record(&mut self, measured: bool, verdict: Result<(), String>, ms: f64, rows: usize) {
        self.attempted += 1;
        match verdict {
            Ok(()) if measured => {
                self.rows_ok += rows as u64;
                self.latencies.push(ms);
            }
            Ok(()) => {}
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("perfbench: request failed: {e}");
                }
                self.failed += 1;
                if measured {
                    self.latencies.push(f64::INFINITY);
                }
            }
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn bulk_loop(
    p: &Pools,
    sock: &Path,
    seed: u64,
    from: Instant,
    to: Instant,
) -> Result<Side, String> {
    let mut c = Conn::open(sock).map_err(|e| e.to_string())?;
    let rng = gen::rng(seed, "serve_mix/bulk");
    let mut side = Side::default();
    let mut id = 0;
    while Instant::now() < to {
        let idx: Vec<usize> = (0..BULK_ROWS).map(|_| rng.gen_index(BULK_POOL)).collect();
        let line = p.bulk_line(id, &idx);
        id += 1;
        let measured = Instant::now() >= from;
        let t = Instant::now();
        let verdict = c.call(&line).and_then(|reply| {
            let want: Vec<f64> = idx.iter().map(|&k| p.bulk_expected[k]).collect();
            oracle::check_predict_reply(reply, &want)
        });
        side.record(measured, verdict, ms_since(t), BULK_ROWS);
        if measured && side.bulk_idx.len() < REPLAY_BULK {
            side.bulk_idx.push(idx);
        }
    }
    Ok(side)
}

fn small_loop(
    p: &Pools,
    sock: &Path,
    seed: u64,
    from: Instant,
    to: Instant,
) -> Result<Side, String> {
    let mut c = Conn::open(sock).map_err(|e| e.to_string())?;
    let rng = gen::rng(seed, "serve_mix/small");
    let mut side = Side::default();
    let mut next_promote = Instant::now() + PROMOTE_EVERY;
    let mut id = 0;
    while Instant::now() < to {
        id += 1;
        let measured = Instant::now() >= from;
        if Instant::now() >= next_promote {
            next_promote += PROMOTE_EVERY;
            let t = Instant::now();
            let verdict = c.call(&p.promote_line(id)).and_then(oracle::check_ack);
            let ms = ms_since(t);
            if measured && verdict.is_ok() {
                side.promotes.push(ms);
                side.small_keys.push(usize::MAX);
            }
            side.attempted += 1;
            if let Err(e) = verdict {
                eprintln!("perfbench: promote failed: {e}");
                side.failed += 1;
            }
            continue;
        }
        let key = p.zipf_key(&rng);
        let t = Instant::now();
        let verdict = c
            .call(&p.small_line(id, key))
            .and_then(|reply| oracle::check_predict_reply(reply, &p.small_expected[key..=key]));
        side.record(measured, verdict, ms_since(t), 1);
        if measured {
            side.small_keys.push(key);
        }
    }
    Ok(side)
}

/// Drives both connections against a running daemon.
fn drive(p: &Pools, sock: &Path, seed: u64, seconds: f64) -> Result<(Side, Side, f64), String> {
    let from = Instant::now() + WARMUP;
    let to = from + Duration::from_secs_f64(seconds);
    let (bulk, small) = std::thread::scope(|s| {
        let b = s.spawn(|| bulk_loop(p, sock, seed, from, to));
        let m = s.spawn(|| small_loop(p, sock, seed, from, to));
        (
            b.join()
                .unwrap_or_else(|_| Err("bulk client panicked".into())),
            m.join()
                .unwrap_or_else(|_| Err("small client panicked".into())),
        )
    });
    // The window closes when the last in-flight request returns.
    let window = Instant::now().saturating_duration_since(from).as_secs_f64();
    Ok((bulk?, small?, window))
}

/// The daemon's stderr file in the run directory.
fn daemon_stderr(dir: &Path) -> PathBuf {
    dir.join("daemon_stderr.txt")
}

fn run_dir() -> Result<PathBuf, String> {
    let dir = gen::work_dir().join("run").join("serve_mix");
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn set_latency_metrics(o: &mut Outcome, bulk: &Side, small: &Side) {
    o.set("op_p50_ms", stats::median(&small.latencies), "ms");
    o.set("small_p50_ms", stats::median(&small.latencies), "ms");
    o.set("bulk_p50_ms", stats::median(&bulk.latencies), "ms");
    for (prefix, side) in [("small", small), ("bulk", bulk)] {
        if let Some((p, v)) = stats::tail(&side.latencies) {
            o.set(&stats::tail_name(prefix, p), v, "ms");
        }
        o.set(
            &format!("{prefix}_requests"),
            side.latencies.len() as f64,
            "count",
        );
    }
    if !small.promotes.is_empty() {
        o.set("promote_p50_ms", stats::median(&small.promotes), "ms");
    }
}

fn tally(o: &mut Outcome, sides: &[&Side]) {
    for s in sides {
        o.attempted += s.attempted;
        o.failed += s.failed;
    }
}

/// `serve_mix`, untraced.
pub fn serve_mix(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = run_dir()?;
    let p = pools(seed, &dir)?;
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let mut start_up = || -> Result<Daemon, String> {
        let (d, setup) = Daemon::start(bin, &p.model_path, &dir, &[])?;
        setups.push(setup);
        Ok(d)
    };
    // Half the start-ups before the measured window, half after it; the
    // last one before it serves the window.
    for _ in 1..SETUP_REPS / 2 {
        let d = start_up()?;
        o.op(d.stop().ok());
    }
    let d = start_up()?;
    let driven = drive(&p, &d.sock, seed, seconds);
    let peak_rss_mb = d.peak_rss_mb();
    let exit = d.stop();
    o.op(exit.ok());
    for _ in SETUP_REPS / 2..SETUP_REPS {
        let d = start_up()?;
        o.op(d.stop().ok());
    }
    let (bulk, small, window) = driven?;
    tally(&mut o, &[&bulk, &small]);
    o.set("setup_s", stats::median(&setups), "s");
    o.set(
        "rows_per_s",
        (bulk.rows_ok + small.rows_ok) as f64 / window,
        "rows/s",
    );
    let peak_rss_mb = peak_rss_mb.ok_or("cannot read the daemon's VmHWM")?;
    o.set("peak_rss_mb", peak_rss_mb, "MB");
    set_latency_metrics(&mut o, &bulk, &small);
    o.set("host_threads", host_threads() as f64, "count");
    Ok(o)
}

/// Timings of one replayed request, ms.
#[derive(Default)]
struct Replayed {
    decode: Vec<f64>,
    validate: Vec<f64>,
    lookup_us: Vec<f64>,
    push_pop_us: Vec<f64>,
    predict: Vec<f64>,
    encode: Vec<f64>,
    total: Vec<f64>,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The router's checks on a decoded predict: width, equal lengths,
/// finiteness, then the row-major matrix.
fn validate(req: &Request, n_attrs: usize) -> Result<Matrix, String> {
    let rows = req.rows.as_ref().ok_or("no rows")?;
    let width = rows.first().map_or(0, Vec::len);
    if rows.is_empty() || width < n_attrs || rows.iter().any(|r| r.len() != width) {
        return Err("bad shape".to_string());
    }
    if rows.iter().flatten().any(|v| !v.is_finite()) {
        return Err("non-finite".to_string());
    }
    let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    Matrix::from_rows(&refs).map_err(|e| e.to_string())
}

fn timed<R>(rec: &mut Recorder, name: &str, out: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = rec.time(name, f);
    out.push(ms_since(t));
    r
}

/// Replays one request through decode → validate → [cache] → [admission →
/// predict] → encode, checking the predictions against `expected`.
fn replay_request(
    rec: &mut Recorder,
    model: &LoadedModel,
    cache: Option<(&mut PredictionCache, &str)>,
    queue: &FairQueue<()>,
    line: &str,
    expected: &[f64],
    r: &mut Replayed,
) -> Result<(), String> {
    let t0 = Instant::now();
    let req: Request = timed(rec, "serve.protocol.decode", &mut r.decode, || {
        serde_json::from_str(line)
    })
    .map_err(|e| e.to_string())?;
    let matrix = timed(rec, "serve.router.validate", &mut r.validate, || {
        validate(&req, model.n_attrs())
    })?;
    let rows = req.rows.as_deref().unwrap_or(&[]);
    let mut hit = None;
    if let Some((cache, version)) = &cache {
        let t = Instant::now();
        hit = rec.time("serve.cache.lookup", || {
            cache.lookup("default", version, rows)
        });
        r.lookup_us.push(ms_since(t) * 1e3);
    }
    let preds = match hit {
        Some(p) => p,
        None => {
            let t = Instant::now();
            rec.time("serve.admission.push_pop", || {
                let _ = queue.try_push("default", ());
                queue.pop();
            });
            r.push_pop_us.push(ms_since(t) * 1e3);
            let outcome = timed(rec, "serve.engine.predict", &mut r.predict, || {
                engine::predict(model, &matrix, parallel::global(), &CancelToken::new())
            });
            let PredictOutcome::Ok { predictions, .. } = outcome else {
                return Err(format!("replayed predict failed: {outcome:?}"));
            };
            if let Some((cache, version)) = cache {
                cache.insert("default", version, rows, &predictions);
            }
            predictions
        }
    };
    let ok = preds.len() == expected.len()
        && preds
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let line = timed(rec, "serve.protocol.encode", &mut r.encode, || {
        Response::predictions(req.id.clone(), preds, false).to_line()
    });
    r.total.push(ms_since(t0));
    if ok && !line.is_empty() {
        Ok(())
    } else {
        Err("replayed predictions differ from the oracle".to_string())
    }
}

/// `serve_mix`, traced: an untraced and a traced daemon each serve the
/// mix for half the run; the traced half's requests are then replayed
/// through the serving layers' public functions.
pub fn serve_mix_traced(bin: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let dir = run_dir()?;
    let p = pools(seed, &dir)?;
    let mut o = Outcome::default();
    let half = (seconds / 2.0).max(1.0);

    let (d, _) = Daemon::start(bin, &p.model_path, &dir, &[])?;
    let driven = drive(&p, &d.sock, seed, half);
    o.op(d.stop().ok());
    let (bulk0, small0, window0) = driven?;
    tally(&mut o, &[&bulk0, &small0]);
    let plain_rps = (bulk0.rows_ok + small0.rows_ok) as f64 / window0;

    let program_trace = dir.join("program_trace.jsonl");
    let extra = [
        "--trace-out".to_string(),
        program_trace.display().to_string(),
        "--metrics".to_string(),
        "json".to_string(),
    ];
    let (d, _) = Daemon::start(bin, &p.model_path, &dir, &extra)?;
    let driven = drive(&p, &d.sock, seed, half);
    o.op(d.stop().ok());
    let (bulk, small, window) = driven?;
    tally(&mut o, &[&bulk, &small]);
    let traced_rps = (bulk.rows_ok + small.rows_ok) as f64 / window;
    let report =
        ProgramReport::from_stderr(&fs::read_to_string(daemon_stderr(&dir)).unwrap_or_default())?;
    o.set(
        "trace.overhead_pct",
        (plain_rps / traced_rps - 1.0) * 100.0,
        "%",
    );
    o.set("trace.untraced_wall_ms", window0 * 1e3, "ms");
    o.set("trace.traced_wall_ms", window * 1e3, "ms");

    let hits = report.counter("serve.cache_hits");
    let lookups = hits + report.counter("serve.cache_misses");
    o.set(
        "serve.cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    );
    o.set(
        "serve.overloaded",
        report.counter("serve.overloaded"),
        "count",
    );
    o.set(
        "serve.deadline_miss",
        report.counter("serve.deadline_miss"),
        "count",
    );
    o.set(
        "serve.registry.promote_ms",
        stats::median(&small.promotes),
        "ms",
    );
    crate::batch::pool_metrics(&mut o, &report, "predict_block");

    // Replay.
    let mut rec = Recorder::new("serve_mix");
    rec.enter("replay");
    let tree = rec
        .time("mtree.persist.load", || ModelTree::load(&p.model_path))
        .map_err(|e| e.to_string())?;
    let compiled = rec.time("mtree.compiled.compile", || tree.compile());
    let model = LoadedModel { tree, compiled };
    parallel::warm_up();
    let queue = FairQueue::new(64, 64);
    let mut rb = Replayed::default();
    for (i, idx) in bulk.bulk_idx.iter().enumerate() {
        let want: Vec<f64> = idx.iter().map(|&k| p.bulk_expected[k]).collect();
        let ok = replay_request(
            &mut rec,
            &model,
            None,
            &queue,
            &p.bulk_line(i, idx),
            &want,
            &mut rb,
        );
        o.op(ok.is_ok());
    }
    let mut rs = Replayed::default();
    let mut cache = PredictionCache::new(256);
    let mut version = 0;
    for (i, &key) in small.small_keys.iter().take(REPLAY_SMALL).enumerate() {
        if key == usize::MAX {
            version += 1;
            continue;
        }
        let v = format!("v{version}");
        let ok = replay_request(
            &mut rec,
            &model,
            Some((&mut cache, &v)),
            &queue,
            &p.small_line(i, key),
            &p.small_expected[key..=key],
            &mut rs,
        );
        o.op(ok.is_ok());
    }
    rec.exit();

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
    o.set("serve.protocol.decode_ms.bulk", mean(&rb.decode), "ms");
    o.set("serve.protocol.decode_ms.small", mean(&rs.decode), "ms");
    o.set("serve.router.validate_ms", mean(&rb.validate), "ms");
    o.set("serve.engine.predict_ms", mean(&rb.predict), "ms");
    o.set("serve.protocol.encode_ms", mean(&rb.encode), "ms");
    o.set("serve.cache.lookup_us", mean(&rs.lookup_us), "us");
    o.set("serve.admission.push_pop_us", mean(&rs.push_pop_us), "us");
    let finite = |xs: &[f64]| {
        xs.iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect::<Vec<_>>()
    };
    let (lat_s, lat_b) = (finite(&small.latencies), finite(&bulk.latencies));
    o.set(
        "serve.transport_queue_ms",
        mean(&lat_s) - mean(&rs.total),
        "ms",
    );
    // Unattributed: client-observed request time not covered by the
    // replayed layers, extrapolated from the replayed sample per class.
    let unattributed = (mean(&lat_s) - mean(&rs.total)) * lat_s.len() as f64
        + (mean(&lat_b) - mean(&rb.total)) * lat_b.len() as f64;
    o.set("unattributed_ms", unattributed, "ms");
    o.set("trace.replay_ms", rec.total_ms("replay"), "ms");
    set_latency_metrics(&mut o, &bulk, &small);
    rec.write(&dir.join("trace.jsonl"), Some(&program_trace))?;
    Ok(o)
}
