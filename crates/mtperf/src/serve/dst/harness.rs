//! The harness every deterministic simulation runs on.
//!
//! A scenario — the single daemon ([`super::run_sim`]) or the fleet
//! router ([`crate::serve::fleet::dst::run_fleet_sim`]) — only scripts
//! sessions and checks its own invariants. Everything else is shared and
//! lives here: the process-wide sim lock, the clean per-seed working
//! directory with its three artifacts, seam install and restore, the
//! seed streams, the response audit, and the report with its
//! fingerprint.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mtperf_detsim::clock::{self, VirtualClock};
use mtperf_detsim::fs as simfs;
use mtperf_detsim::rng::{self, derive_seed, SimRng};
use mtperf_detsim::FaultScript;
use mtperf_linalg::parallel::{self, Parallelism};
use mtperf_mtree::{Dataset, M5Params, ModelTree};
use serde::Deserialize;

use super::super::admission::FairQueue;
use super::super::cache::PredictionCache;
use super::super::registry::Registry;
use super::super::{protocol, Shared, Stats, SHUTDOWN};

/// One simulated run's parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Root seed; every stream in the run derives from it.
    pub seed: u64,
    /// Number of client sessions to simulate.
    pub sessions: usize,
}

/// A scenario's own coverage counters, plus the two naming choices its
/// mined fingerprints depend on.
pub trait Scenario: Default {
    /// Prefixed to the working-directory name and to every seed-stream
    /// name, so scenarios sharing a seed explore independent schedules.
    const PREFIX: &'static str;
    /// Whether the fingerprint hashes a newline after the last trace line.
    const FINAL_NEWLINE: bool;
}

/// Outcome of one simulated run: the core every scenario reports, plus
/// the scenario's own `counts`.
#[derive(Debug)]
pub struct Report<C> {
    /// The seed that produced this run (replay key).
    pub seed: u64,
    /// Sessions simulated.
    pub sessions: usize,
    /// Request lines fed to the stack.
    pub requests: u64,
    /// Response lines observed.
    pub responses: u64,
    /// Responses that were typed protocol errors.
    pub typed_errors: u64,
    /// Invariant violations (empty = run passed).
    pub violations: Vec<String>,
    /// The deterministic event trace (replay fingerprint source).
    pub trace: Vec<String>,
    /// The scenario's own coverage counters.
    pub counts: C,
}

/// How a response's `id` must route back to its issuer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route<'a> {
    /// Any id: a single-connection session owns every response.
    Any,
    /// An id with this connection prefix (multi-connection sessions).
    Prefix(&'a str),
    /// Exactly the issuing request's id (fleet dispatch).
    Exact(Option<&'a str>),
}

/// Lenient mirror of the response schema, for invariant checking.
#[derive(Debug, Deserialize)]
struct WireResponse {
    proto: Option<String>,
    id: Option<String>,
    ok: Option<bool>,
    error: Option<WireError>,
}

#[derive(Debug, Deserialize)]
struct WireError {
    kind: Option<String>,
}

const KNOWN_KINDS: [&str; 11] = [
    protocol::E_BAD_REQUEST,
    protocol::E_OVERLOADED,
    protocol::E_DEADLINE,
    protocol::E_SHUTTING_DOWN,
    protocol::E_RELOAD_FAILED,
    protocol::E_SAVE_FAILED,
    protocol::E_INTERNAL,
    protocol::E_UNKNOWN_MODEL,
    protocol::E_PROMOTE_FAILED,
    protocol::E_ROLLBACK_FAILED,
    protocol::E_UNAVAILABLE,
];

impl<C: Scenario> Report<C> {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Report {
            seed: cfg.seed,
            sessions: cfg.sessions,
            requests: 0,
            responses: 0,
            typed_errors: 0,
            violations: Vec::new(),
            trace: Vec::new(),
            counts: C::default(),
        }
    }

    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// FNV-1a hash of the event trace: the run's replay fingerprint. Two
    /// runs of the same seed must produce equal hashes (and equal traces)
    /// — including across processes and machines, because sim-dir paths
    /// are sanitized out of the trace.
    pub fn trace_hash(&self) -> u64 {
        let mut joined = self.trace.join("\n");
        if C::FINAL_NEWLINE && !self.trace.is_empty() {
            joined.push('\n');
        }
        mtperf_obs::fsio::fnv1a_64(joined.as_bytes())
    }

    /// Writes the event trace to `path` atomically (one line per event,
    /// with a header naming the seed and verdict).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut text = format!(
            "# mtperf dst trace seed={} sessions={} hash={:016x} verdict={}\n",
            self.seed,
            self.sessions,
            self.trace_hash(),
            if self.passed() { "pass" } else { "FAIL" }
        );
        for v in &self.violations {
            text.push_str(&format!("# violation: {v}\n"));
        }
        for line in &self.trace {
            text.push_str(line);
            text.push('\n');
        }
        mtperf_obs::fsio::atomic_write(path, text.as_bytes())
    }

    /// Audits every non-blank response line in `raw` (see
    /// [`Report::audit_line`]) and returns how many there were.
    pub(crate) fn audit_lines(&mut self, at: &str, raw: &[u8], route: Route<'_>) -> u64 {
        let text = String::from_utf8_lossy(raw);
        let mut n = 0u64;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            n += 1;
            self.audit_line(at, line, route);
        }
        n
    }

    /// Audits one response line against the protocol invariants: the
    /// `proto` marker, an `ok` field, routing back to its issuer, and an
    /// error kind from the closed set. `at` names the session (and op) in
    /// violation messages.
    pub(crate) fn audit_line(&mut self, at: &str, line: &str, route: Route<'_>) {
        let resp = match serde_json::from_str::<WireResponse>(line) {
            Ok(resp) => resp,
            Err(e) => {
                self.violations
                    .push(format!("{at}: unparsable response line ({e}): {line}"));
                return;
            }
        };
        if resp.proto.as_deref() != Some(protocol::PROTOCOL) {
            self.violations
                .push(format!("{at}: response missing proto marker: {line}"));
        }
        if resp.ok.is_none() {
            self.violations
                .push(format!("{at}: response missing ok field: {line}"));
        }
        let id = resp.id.as_deref();
        let routed = match route {
            Route::Any => true,
            Route::Prefix(prefix) => id.is_some_and(|id| id.starts_with(prefix)),
            Route::Exact(want) => id == want,
        };
        if !routed {
            self.violations.push(format!(
                "{at}: response routed to the wrong issuer (want {route:?}, got {id:?}): {line}"
            ));
        }
        if let Some(err) = resp.error {
            self.typed_errors += 1;
            match err.kind.as_deref() {
                Some(kind) if KNOWN_KINDS.contains(&kind) => {}
                other => self.violations.push(format!(
                    "{at}: error kind {other:?} is not in the closed set"
                )),
            }
        }
    }
}

/// Serializes simulated runs process-wide: the seams are global, so two
/// concurrent simulations would corrupt each other's time and faults.
pub(crate) static SIM_LOCK: Mutex<()> = Mutex::new(());

/// The simulated seams, installed for one run (callers hold
/// [`SIM_LOCK`]) and restored on scope exit, panic unwinds included, so a
/// failing simulation cannot leave the process on virtual time.
pub(crate) struct SeamGuard {
    saved_parallelism: Parallelism,
}

impl SeamGuard {
    /// Captures the caller's parallelism setting, then installs a virtual
    /// clock, an RNG seeded with `jitter_seed`, the `faults` filesystem
    /// hook, and serial parallelism — a single logical thread is what
    /// makes the schedule (and therefore the trace) deterministic.
    pub(crate) fn install(jitter_seed: u64, faults: Arc<FaultScript>) -> SeamGuard {
        let guard = SeamGuard {
            saved_parallelism: parallel::global(),
        };
        clock::install(VirtualClock::auto());
        rng::install(Arc::new(SimRng::seed_from_u64(jitter_seed)));
        simfs::install(faults as Arc<dyn simfs::FaultHook>);
        parallel::set_global(Parallelism::Off);
        SHUTDOWN.store(false, Ordering::SeqCst);
        guard
    }
}

impl Drop for SeamGuard {
    fn drop(&mut self) {
        clock::uninstall();
        rng::uninstall();
        simfs::uninstall();
        parallel::set_global(self.saved_parallelism);
        SHUTDOWN.store(false, Ordering::SeqCst);
    }
}

/// One run's exclusive hold on the simulated world: the sim lock, a
/// clean seed-derived working directory with the default (`model.json`),
/// alternate (`alt.json`) and poisoned (`poison.json`) artifacts, the
/// filesystem fault script, and the installed seams. Dropping it removes
/// the directory, restores the seams, and only then releases the lock.
pub(crate) struct Harness {
    pub(crate) dir: PathBuf,
    dir_text: String,
    /// The default artifact's model, for re-seeding a lost artifact.
    pub(crate) model: ModelTree,
    pub(crate) model_path: PathBuf,
    pub(crate) alt_path: PathBuf,
    pub(crate) poison_path: PathBuf,
    pub(crate) faults: Arc<FaultScript>,
    seed: u64,
    prefix: &'static str,
    _seams: SeamGuard,
    _exclusive: MutexGuard<'static, ()>,
}

impl Harness {
    /// Takes the sim lock, lays out the working directory from a clean
    /// slate (so a replay starts from the same filesystem state), then
    /// installs the seams with the scenario's `jitter` stream. `None`,
    /// with the setup violation recorded in `report`, when the directory
    /// or an artifact cannot be written.
    pub(crate) fn open<C: Scenario>(report: &mut Report<C>) -> Option<Harness> {
        Self::setup::<C>(report.seed)
            .map_err(|violation| report.violations.push(violation))
            .ok()
    }

    fn setup<C: Scenario>(seed: u64) -> Result<Harness, String> {
        let exclusive = SIM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Seed-derived, never PID- or time-derived: stable across replays.
        let dir = std::env::temp_dir().join(format!("mtperf-dst-{}{seed:016x}", C::PREFIX));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("setup: cannot create {}: {e}", dir.display()))?;
        let model = sim_model(2.0);
        let model_path = dir.join("model.json");
        let alt_path = dir.join("alt.json");
        let poison_path = dir.join("poison.json");
        model
            .save(&model_path)
            .map_err(|e| format!("setup: cannot save model: {e}"))?;
        sim_model(-3.0)
            .save(&alt_path)
            .map_err(|e| format!("setup: cannot save alt model: {e}"))?;
        std::fs::write(&poison_path, b"{ definitely not a model }")
            .map_err(|e| format!("setup: cannot write poison artifact: {e}"))?;

        let faults = Arc::new(FaultScript::new());
        let jitter = derive_seed(seed, &format!("{}jitter", C::PREFIX));
        Ok(Harness {
            dir_text: dir.display().to_string(),
            dir,
            model,
            model_path,
            alt_path,
            poison_path,
            _seams: SeamGuard::install(jitter, Arc::clone(&faults)),
            faults,
            seed,
            prefix: C::PREFIX,
            _exclusive: exclusive,
        })
    }

    /// The scenario's seed stream `name`.
    pub(crate) fn stream(&self, name: &str) -> SimRng {
        SimRng::seed_from_u64(derive_seed(self.seed, &format!("{}{name}", self.prefix)))
    }

    /// Hash of response bytes with working-directory paths rewritten to a
    /// `<sim>` token, so fingerprints are stable across machines with
    /// different temp directories.
    pub(crate) fn out_hash(&self, raw: &[u8]) -> u64 {
        let text = String::from_utf8_lossy(raw).replace(&self.dir_text, "<sim>");
        mtperf_obs::fsio::fnv1a_64(text.as_bytes())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A deterministic tiny model: same shape as the serve unit-test fixture,
/// trained from a fixed arithmetic dataset so every run of every seed
/// serves byte-identical predictions. `slope` distinguishes the default
/// artifact from the alternate one promotes install.
fn sim_model(slope: f64) -> ModelTree {
    let names = vec!["a0".to_string(), "a1".to_string()];
    let rows: Vec<Vec<f64>> = (0..24)
        .map(|r| vec![((r * 7) % 11) as f64, ((r * 3) % 5) as f64])
        .collect();
    let targets: Vec<f64> = rows.iter().map(|r| 1.0 + slope * r[0] - r[1]).collect();
    let data = Dataset::from_rows(names, &rows, &targets).expect("static dataset is valid");
    ModelTree::fit(&data, &M5Params::default().with_min_instances(4)).expect("fit cannot fail")
}

/// A fresh daemon incarnation over `reg`, with a tiny queue (4 deep, 2 per
/// tenant) and cache so overload and eviction happen often.
pub(crate) fn new_shared(reg: Registry) -> Arc<Shared> {
    Arc::new(Shared {
        registry: Mutex::new(reg),
        queue: FairQueue::new(4, 2),
        cache: Mutex::new(PredictionCache::new(8)),
        stats: Stats::default(),
        draining: AtomicBool::new(false),
        workers: 1,
        default_deadline_ms: None,
    })
}

/// `path` as a JSON string literal.
pub(crate) fn json_path(path: &Path) -> String {
    serde_json::to_string(&path.display().to_string()).unwrap_or_default()
}

/// A row as a JSON array, each value in shortest round-trip form.
pub(crate) fn fmt_f64_row(row: &[f64]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", cells.join(","))
}

/// An in-memory response sink.
pub(crate) struct VecWriter(pub(crate) Arc<Mutex<Vec<u8>>>);

impl std::io::Write for VecWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
