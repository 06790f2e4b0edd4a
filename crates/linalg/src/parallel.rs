//! Deterministic data parallelism on a persistent worker pool.
//!
//! The workspace deliberately has no external dependencies (the registry is
//! not reachable from every build environment), so this module builds its
//! parallel sections directly on the lazily-started pool in
//! [`crate::pool`]. Earlier revisions spawned scoped threads per call;
//! the pool keeps workers alive across calls, which is what lets a 90 µs
//! batch-prediction dispatch actually profit from parallelism instead of
//! drowning in thread spawn/join overhead (see `pool.rs` for the history
//! and the soundness argument).
//!
//! # One engine
//!
//! Every section runs through [`try_par_fill`]: cut the output into
//! blocks, hand contiguous runs of blocks to the pool, catch panics per
//! block, and reduce the outcomes. [`par_map`] and [`try_par_map`] are
//! adapters that fill a pre-sized output one item per block.
//!
//! # Determinism contract
//!
//! Work is split into *statically chosen contiguous chunks* and every
//! block writes its own positional slice of the output, so results never
//! depend on which worker finished first: [`par_map`] returns results in
//! **input order** regardless of thread count or scheduling. Callers that
//! keep their per-item computation free of shared mutable state therefore
//! get bit-identical results at any [`Parallelism`] setting — the property
//! the split search, cross validation, compiled batch prediction, and
//! baseline suite rely on.
//!
//! # Panic isolation
//!
//! Worker closures run under [`std::panic::catch_unwind`], so a panicking
//! item never tears down the process or poisons sibling workers. [`par_map`]
//! re-raises the first panic (lowest input index) on the calling thread for
//! backward compatibility; [`try_par_map`] surfaces it as a structured
//! [`crate::LinalgError::WorkerPanic`] instead, which is what the training
//! and evaluation pipelines use.
//!
//! # Example
//!
//! ```
//! use mtperf_linalg::parallel::{par_map, Parallelism};
//!
//! let squares = par_map(Parallelism::Auto, &[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use mtperf_detsim::clock;

use crate::error::LinalgError;
use crate::pool;

/// Poison-tolerant lock: per-chunk slots hold plain data and are never
/// left torn (user panics are caught before the slot write).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cooperative cancellation signal shared between a controller and the
/// workers of a parallel section.
///
/// Tokens are cheap to clone (an [`Arc`] around one atomic flag plus an
/// optional deadline). Workers observe cancellation *between* items — a
/// running closure is never interrupted mid-flight, so partially computed
/// items are simply discarded and no shared state is left torn. A token with
/// a deadline reports itself cancelled once the deadline passes, which is
/// how per-request deadlines thread through batch prediction.
///
/// # Example
///
/// ```
/// use mtperf_linalg::parallel::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
///
/// // Already-expired deadlines cancel immediately and deterministically.
/// let expired = CancelToken::with_deadline(Duration::ZERO);
/// assert!(expired.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Absolute deadline as a global-clock timestamp ([`clock::now`]), so a
    /// simulated clock controls deadline expiry the same way the real one
    /// does.
    deadline: Option<Duration>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally reports cancelled once `timeout` from now
    /// has elapsed (measured on the global clock seam).
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        Self::with_deadline_at(clock::now() + timeout)
    }

    /// A token with an absolute deadline, as a timestamp on the global
    /// clock (duration since the clock's epoch, i.e. [`clock::now`]).
    pub fn with_deadline_at(deadline: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation; all clones of this token observe it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested or the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
            || self
                .inner
                .deadline
                .is_some_and(|deadline| clock::now() >= deadline)
    }

    /// The absolute deadline (global-clock timestamp), if this token
    /// carries one.
    pub fn deadline(&self) -> Option<Duration> {
        self.inner.deadline
    }

    /// Time remaining before the deadline ([`Duration::ZERO`] once passed;
    /// `None` for tokens without one). The serving layer uses this for
    /// per-request deadline accounting.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|deadline| deadline.saturating_sub(clock::now()))
    }
}

/// How many worker threads parallel sections may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the machine's available parallelism.
    #[default]
    Auto,
    /// Run everything serially on the calling thread.
    Off,
    /// Use exactly this many threads (≥ 1; 1 behaves like [`Parallelism::Off`]).
    Fixed(usize),
}

impl Parallelism {
    /// The concrete thread count this setting resolves to on this machine.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl FromStr for Parallelism {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Parallelism::Auto),
            "off" => Ok(Parallelism::Off),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Parallelism::Fixed)
                .ok_or_else(|| {
                    format!("invalid parallelism {s:?}: expected \"auto\", \"off\", or a thread count >= 1")
                }),
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto"),
            Parallelism::Off => write!(f, "off"),
            Parallelism::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// Global default used when a caller does not pass an explicit setting.
/// Encoding: 0 = Auto, 1 = Off, n ≥ 2 = Fixed(n − 1).
static GLOBAL: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default [`Parallelism`] (e.g. from a `--threads`
/// CLI flag).
pub fn set_global(par: Parallelism) {
    let encoded = match par {
        Parallelism::Auto => 0,
        Parallelism::Off => 1,
        Parallelism::Fixed(n) => n.max(1) + 1,
    };
    GLOBAL.store(encoded, Ordering::Relaxed);
}

/// The process-wide default [`Parallelism`].
pub fn global() -> Parallelism {
    match GLOBAL.load(Ordering::Relaxed) {
        0 => Parallelism::Auto,
        1 => Parallelism::Off,
        n => Parallelism::Fixed(n - 1),
    }
}

thread_local! {
    /// True inside a parallel section's worker: nested calls run serially
    /// instead of oversubscribing the machine.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the nested-parallelism flag set, restoring it even on
/// unwind (pool workers are reused across jobs, so a leaked flag would
/// silently serialize every later job on that thread).
fn with_parallel_flag<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_PARALLEL.with(|flag| flag.set(self.0));
        }
    }
    let _reset = Reset(IN_PARALLEL.with(Cell::get));
    IN_PARALLEL.with(|flag| flag.set(true));
    f()
}

/// The first caught worker panic: the input-order index of the item whose
/// closure panicked, plus the original panic payload.
struct FirstPanic {
    index: usize,
    payload: Box<dyn Any + Send + 'static>,
}

impl FirstPanic {
    /// Renders the payload as text the way the default panic hook does.
    fn message(&self) -> String {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    }
}

/// Why a parallel section stopped early: a worker panicked, or the caller's
/// cancellation token fired between blocks.
enum ParFailure {
    Panic(FirstPanic),
    Cancelled,
}

impl ParFailure {
    fn into_error(self) -> LinalgError {
        match self {
            ParFailure::Panic(p) => LinalgError::WorkerPanic {
                index: p.index,
                message: p.message(),
            },
            ParFailure::Cancelled => LinalgError::Cancelled,
        }
    }
}

/// Maps `f` over `items`, possibly on multiple threads, preserving input
/// order in the result: element `i` of the return value is always
/// `f(&items[i])`. Runs on [`try_par_fill`] with one item per block.
///
/// # Panics
///
/// Re-raises the first worker panic (lowest input index) on the calling
/// thread. Use [`try_par_map`] to receive it as a [`LinalgError`] instead.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match map_items(par, items, f) {
        Ok(results) => results,
        Err(ParFailure::Panic(p)) => std::panic::resume_unwind(p.payload),
        // Unreachable: no token was passed, so nothing can cancel.
        Err(ParFailure::Cancelled) => unreachable!("cancelled without a token"),
    }
}

/// Panic-isolated [`par_map`]: identical output for non-failing runs (bit
/// for bit, at any thread count), but a panicking worker closure surfaces as
/// [`LinalgError::WorkerPanic`] instead of unwinding through the caller.
///
/// The reported index is deterministic — the lowest input-order index whose
/// closure panicked among the panics observed — so retries and error
/// messages are stable across thread counts and scheduling.
///
/// # Errors
///
/// Returns [`LinalgError::WorkerPanic`] when any worker closure panics.
///
/// # Example
///
/// ```
/// use mtperf_linalg::parallel::{try_par_map, Parallelism};
///
/// let ok = try_par_map(Parallelism::Fixed(2), &[1, 2, 3], |&x| x * x);
/// assert_eq!(ok.unwrap(), vec![1, 4, 9]);
///
/// let err = try_par_map(Parallelism::Fixed(2), &[1, 2, 3], |&x| {
///     assert!(x != 2, "bad item");
///     x
/// });
/// assert!(err.is_err());
/// ```
pub fn try_par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Result<Vec<R>, LinalgError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_items(par, items, f).map_err(ParFailure::into_error)
}

/// The map adapter: fills a pre-sized output with block size 1, so block
/// indices are item indices.
fn map_items<T, R, F>(par: Parallelism, items: &[T], f: F) -> Result<Vec<R>, ParFailure>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    fill_blocks(par, &mut out, 1, None, |i, slot| {
        slot[0] = Some(f(&items[i]))
    })?;
    Ok(out.into_iter().flatten().collect())
}

/// In-place deterministic parallel fill: splits `out` into `block`-sized
/// row blocks, assigns contiguous runs of blocks to up to
/// `par.threads()` chunks, and calls `fill(start, &mut out[start..])` once
/// per block. Because every block writes directly into its own disjoint
/// region of `out`, there is no per-block allocation and no reduction
/// copy. This is the one engine under every parallel section: compiled
/// batch prediction, the CSV scan, and (through [`par_map`] and
/// [`try_par_map`]) the split search, CV folds and report rendering.
///
/// Block → output mapping is positional, so the contents of `out` are
/// bit-identical at any [`Parallelism`] setting (for a `fill` free of
/// shared mutable state). `cancel`, when given, is consulted before every
/// block on every worker, so a fired token (explicit
/// [`CancelToken::cancel`] or an expired deadline) stops the section
/// within one block's worth of work per thread. Panics inside `fill` are
/// caught per block and reported with the lowest panicking *block index*;
/// a panic outranks concurrent cancellation.
///
/// On error, `out` contents are unspecified (some blocks written, others
/// not) — callers must discard the buffer.
///
/// # Errors
///
/// [`LinalgError::Cancelled`] when the token fires before the last block
/// completes; [`LinalgError::WorkerPanic`] (lowest block index, with the
/// panic message) when `fill` panics.
///
/// # Example
///
/// ```
/// use mtperf_linalg::parallel::{try_par_fill, CancelToken, Parallelism};
/// use mtperf_linalg::LinalgError;
///
/// let mut out = vec![0u64; 10];
/// try_par_fill(Parallelism::Fixed(3), &mut out, 4, None, |start, block| {
///     for (i, v) in block.iter_mut().enumerate() {
///         *v = (start + i) as u64 * 2;
///     }
/// })
/// .unwrap();
/// assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<u64>>());
///
/// let token = CancelToken::new();
/// token.cancel();
/// let err = try_par_fill(Parallelism::Fixed(2), &mut out, 1, Some(&token), |_, _| {});
/// assert!(matches!(err, Err(LinalgError::Cancelled)));
/// ```
pub fn try_par_fill<R, F>(
    par: Parallelism,
    out: &mut [R],
    block: usize,
    cancel: Option<&CancelToken>,
    fill: F,
) -> Result<(), LinalgError>
where
    R: Send,
    F: Fn(usize, &mut [R]) + Sync,
{
    fill_blocks(par, out, block, cancel, fill).map_err(ParFailure::into_error)
}

/// The engine behind [`try_par_fill`], keeping the panic payload so
/// [`par_map`] can re-raise it.
fn fill_blocks<R, F>(
    par: Parallelism,
    out: &mut [R],
    block: usize,
    cancel: Option<&CancelToken>,
    fill: F,
) -> Result<(), ParFailure>
where
    R: Send,
    F: Fn(usize, &mut [R]) + Sync,
{
    let n = out.len();
    if n == 0 {
        return Ok(());
    }
    let block = block.max(1);
    let n_blocks = n.div_ceil(block);

    // Runs blocks `start_block..start_block + blocks` over `span`, which
    // covers exactly those blocks' rows.
    let run_span = |start_block: usize, blocks: usize, span: &mut [R]| -> Result<(), ParFailure> {
        let mut rest = span;
        for b in 0..blocks {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(ParFailure::Cancelled);
            }
            let abs = start_block + b;
            let len = rest.len().min(block);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            catch_unwind(AssertUnwindSafe(|| fill(abs * block, head))).map_err(|payload| {
                ParFailure::Panic(FirstPanic {
                    index: abs,
                    payload,
                })
            })?;
        }
        Ok(())
    };

    let threads = par.threads().min(n_blocks);
    if threads <= 1 || IN_PARALLEL.with(Cell::get) {
        return run_span(0, n_blocks, out);
    }

    // Near-equal contiguous runs of blocks per chunk; the first `rem`
    // chunks get one extra block. Each slot owns its chunk's slice of
    // `out`, taken by whichever thread runs the chunk.
    type FillSlot<'s, R> = Mutex<(Option<(usize, usize, &'s mut [R])>, Option<ParFailure>)>;
    let base = n_blocks / threads;
    let rem = n_blocks % threads;
    let mut slots: Vec<FillSlot<'_, R>> = Vec::with_capacity(threads);
    let mut remaining = out;
    let mut start_block = 0;
    for c in 0..threads {
        let blocks = base + usize::from(c < rem);
        let rows = remaining.len().min(blocks * block);
        let (head, tail) = remaining.split_at_mut(rows);
        remaining = tail;
        slots.push(Mutex::new((Some((start_block, blocks, head)), None)));
        start_block += blocks;
    }
    debug_assert_eq!(start_block, n_blocks);
    debug_assert!(remaining.is_empty());

    // Capture the caller's span context (if tracing is on) so spans opened
    // inside worker closures nest under the span that dispatched the
    // section. `None` when tracing is disabled: workers then run the
    // closure directly. Re-installing the same frame on the calling thread
    // (chunk 0) is harmless — span ids hash the logical call path, so the
    // extra frame changes nothing.
    let obs_ctx = mtperf_obs::current_context();
    pool::run_chunked(threads, &|c: usize| {
        let mut slot = lock(&slots[c]);
        if let Some((sb, blocks, span)) = slot.0.take() {
            let outcome = mtperf_obs::in_context(obs_ctx.as_ref(), || {
                with_parallel_flag(|| run_span(sb, blocks, span))
            });
            slot.1 = outcome.err();
        }
    });

    // Deterministic reduction: the panic with the lowest block index wins
    // regardless of which worker finished first, and a panic anywhere
    // outranks cancellation (the panic names a concrete defect,
    // cancellation is just the controller giving up). A chunk whose input
    // was never taken (worker died before starting) reports as a panic on
    // its first block.
    let mut first: Option<FirstPanic> = None;
    let mut cancelled = false;
    for slot in slots {
        let (input, outcome) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        let outcome = match input {
            Some((sb, _, _)) => Some(ParFailure::Panic(FirstPanic {
                index: sb,
                payload: Box::new("worker terminated without reporting a result".to_string()),
            })),
            None => outcome,
        };
        match outcome {
            None => {}
            Some(ParFailure::Cancelled) => cancelled = true,
            Some(ParFailure::Panic(p)) if first.as_ref().is_none_or(|f| p.index < f.index) => {
                first = Some(p);
            }
            Some(ParFailure::Panic(_)) => {}
        }
    }
    match (first, cancelled) {
        (Some(p), _) => Err(ParFailure::Panic(p)),
        (None, true) => Err(ParFailure::Cancelled),
        (None, false) => Ok(()),
    }
}

/// Starts the worker pool for the current global thread budget and
/// measures the dispatch overhead, so the first real parallel section
/// (e.g. the first request a serving daemon answers) pays neither lazy
/// thread spawn nor calibration cost.
pub fn warm_up() {
    let threads = global().threads();
    if threads > 1 {
        pool::ensure_workers(threads - 1);
        let _ = dispatch_overhead();
    }
}

/// Measured round-trip cost of dispatching one multi-chunk job through
/// the pool (median of several no-op dispatches; measured once per
/// process, [`Duration::ZERO`] before the pool is ever used in a
/// single-threaded configuration). This is the constant the adaptive
/// serial/parallel cutover in compiled batch prediction weighs against
/// measured per-row compute cost — a measured number, not a guess.
pub fn dispatch_overhead() -> Duration {
    static OVERHEAD: OnceLock<Duration> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        // Representative fan-out: 4 chunks (or the machine width if
        // smaller). One throwaway dispatch warms lazy worker spawn so the
        // measured samples see the steady state.
        let chunks = global().threads().clamp(2, 4);
        pool::ensure_workers(chunks - 1);
        pool::run_chunked(chunks, &|_| {});
        let mut samples: Vec<Duration> = (0..9)
            .map(|_| {
                let t0 = clock::now();
                pool::run_chunked(chunks, &|c| {
                    std::hint::black_box(c);
                });
                clock::now().saturating_sub(t0)
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let serial = par_map(Parallelism::Off, &items, |&x| x * 3);
        for threads in [1, 2, 3, 4, 7, 16] {
            let parallel = par_map(Parallelism::Fixed(threads), &items, |&x| x * 3);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(Parallelism::Auto, &empty, |&x| x).is_empty());
        assert_eq!(par_map(Parallelism::Fixed(8), &[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    fn par_fill_matches_serial_at_any_thread_count_and_block_size() {
        let n = 1003; // deliberately not a multiple of any block size
        let mut serial = vec![0.0f64; n];
        try_par_fill(Parallelism::Off, &mut serial, 64, None, |start, block| {
            for (i, v) in block.iter_mut().enumerate() {
                *v = ((start + i) as f64).sqrt().sin();
            }
        })
        .unwrap();
        for threads in [2usize, 3, 7, 16] {
            for block in [1usize, 64, 512, 4096] {
                let mut out = vec![0.0f64; n];
                try_par_fill(
                    Parallelism::Fixed(threads),
                    &mut out,
                    block,
                    None,
                    |start, blk| {
                        for (i, v) in blk.iter_mut().enumerate() {
                            *v = ((start + i) as f64).sqrt().sin();
                        }
                    },
                )
                .unwrap();
                for (i, (a, b)) in out.iter().zip(&serial).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "threads {threads}, block {block}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_fill_panic_reports_lowest_block_index() {
        for threads in [1usize, 2, 7] {
            let mut out = vec![0u32; 1000];
            let err = try_par_fill(
                Parallelism::Fixed(threads),
                &mut out,
                10,
                None,
                |start, _block| {
                    assert!(!(30..700).contains(&start), "fill boom");
                },
            )
            .unwrap_err();
            let LinalgError::WorkerPanic { index, message } = err else {
                panic!("wrong variant");
            };
            assert_eq!(index, 3, "threads = {threads}"); // block 3 starts at row 30
            assert!(message.contains("fill boom"), "{message}");
        }
    }

    #[test]
    fn par_fill_cancellation_and_empty_output() {
        let token = CancelToken::new();
        token.cancel();
        let mut out = vec![0u8; 100];
        let err = try_par_fill(Parallelism::Fixed(4), &mut out, 8, Some(&token), |_, _| {});
        assert!(matches!(err, Err(LinalgError::Cancelled)));
        // Empty output: trivially done, even with a fired token.
        let mut empty: [u8; 0] = [];
        try_par_fill(
            Parallelism::Fixed(4),
            &mut empty,
            8,
            Some(&token),
            |_, _| {},
        )
        .unwrap();
    }

    #[test]
    fn dispatch_overhead_is_measured_once_and_small() {
        let a = dispatch_overhead();
        let b = dispatch_overhead();
        assert_eq!(a, b, "memoized");
        assert!(a < Duration::from_millis(100), "{a:?}");
        warm_up(); // must be callable at any time, any thread budget
    }

    #[test]
    fn nested_calls_run_serially_and_correctly() {
        let outer: Vec<usize> = (0..8).collect();
        let got = par_map(Parallelism::Fixed(4), &outer, |&i| {
            let inner: Vec<usize> = (0..4).collect();
            par_map(Parallelism::Fixed(4), &inner, move |&j| i * 10 + j)
        });
        for (i, row) in got.iter().enumerate() {
            assert_eq!(row, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        par_map(Parallelism::Fixed(4), &items, |&x| {
            assert!(x < 60, "worker boom");
            x
        });
    }

    #[test]
    fn try_par_map_matches_par_map_on_clean_runs() {
        let items: Vec<usize> = (0..500).collect();
        let plain = par_map(Parallelism::Off, &items, |&x| (x as f64).sqrt());
        for threads in [1, 2, 3, 8] {
            let tried =
                try_par_map(Parallelism::Fixed(threads), &items, |&x| (x as f64).sqrt()).unwrap();
            assert_eq!(tried.len(), plain.len());
            for (a, b) in tried.iter().zip(plain.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn panicking_closure_returns_error_instead_of_unwinding() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 8] {
            let err = try_par_map(Parallelism::Fixed(threads), &items, |&x| {
                assert!(x != 17, "deliberate failure");
                x
            })
            .unwrap_err();
            match err {
                LinalgError::WorkerPanic { index, message } => {
                    assert_eq!(index, 17, "threads = {threads}");
                    assert!(message.contains("deliberate failure"), "{message}");
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn first_panic_index_is_deterministic_across_thread_counts() {
        // Multiple failing items: the reported index must always be the
        // lowest one, no matter how chunks are scheduled.
        let items: Vec<usize> = (0..100).collect();
        for threads in [2, 3, 7, 16] {
            let err = try_par_map(Parallelism::Fixed(threads), &items, |&x| {
                assert!(!(x >= 23 && x % 3 == 2), "multi-fail");
                x
            })
            .unwrap_err();
            let LinalgError::WorkerPanic { index, .. } = err else {
                panic!("wrong variant");
            };
            assert_eq!(index, 23, "threads = {threads}");
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let err = try_par_map(Parallelism::Off, &[1u32], |_| {
            std::panic::panic_any(42u32);
            #[allow(unreachable_code)]
            0u32
        })
        .unwrap_err();
        let LinalgError::WorkerPanic { message, .. } = err else {
            panic!("wrong variant");
        };
        assert!(message.contains("non-string"), "{message}");
    }

    /// Fills `out[i] = i + 1`, one row per block, under `token`.
    fn fill_cancellable(
        threads: usize,
        out: &mut [usize],
        token: &CancelToken,
    ) -> Result<(), LinalgError> {
        try_par_fill(
            Parallelism::Fixed(threads),
            out,
            1,
            Some(token),
            |i, slot| {
                slot[0] = i + 1;
            },
        )
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_work() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 2, 8] {
            let mut out = vec![0usize; 100];
            let err = fill_cancellable(threads, &mut out, &token).unwrap_err();
            assert!(matches!(err, LinalgError::Cancelled), "threads = {threads}");
            assert!(out.iter().all(|&v| v == 0), "threads = {threads}: work ran");
        }
    }

    #[test]
    fn expired_deadline_cancels() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        let err = fill_cancellable(4, &mut [0; 50], &token).unwrap_err();
        assert!(matches!(err, LinalgError::Cancelled));
    }

    #[test]
    fn future_deadline_lets_work_complete() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        let mut out = vec![0usize; 64];
        fill_cancellable(4, &mut out, &token).unwrap();
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn mid_run_cancel_from_another_thread_stops_the_section() {
        let mut out = vec![0usize; 10_000];
        let token = CancelToken::new();
        let witness = token.clone();
        let err = try_par_fill(
            Parallelism::Fixed(2),
            &mut out,
            1,
            Some(&token),
            |i, slot| {
                if i == 5 {
                    witness.cancel();
                }
                slot[0] = i;
            },
        )
        .unwrap_err();
        assert!(matches!(err, LinalgError::Cancelled));
    }

    #[test]
    fn worker_panic_outranks_cancellation() {
        // One item panics, another cancels: the panic must win so the defect
        // is reported, at any thread count.
        for threads in [1, 2, 8] {
            let mut out = vec![0usize; 64];
            let token = CancelToken::new();
            let witness = token.clone();
            let err = try_par_fill(
                Parallelism::Fixed(threads),
                &mut out,
                1,
                Some(&token),
                |i, slot| {
                    assert!(i != 0, "defect first");
                    if i == 1 {
                        witness.cancel();
                    }
                    slot[0] = i;
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, LinalgError::WorkerPanic { index: 0, .. }),
                "threads = {threads}: {err}"
            );
        }
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(a.deadline().is_none());
        assert!(CancelToken::with_deadline(Duration::from_secs(1))
            .deadline()
            .is_some());
    }

    #[test]
    fn parallelism_parses_and_displays() {
        assert_eq!("auto".parse::<Parallelism>().unwrap(), Parallelism::Auto);
        assert_eq!("off".parse::<Parallelism>().unwrap(), Parallelism::Off);
        assert_eq!("6".parse::<Parallelism>().unwrap(), Parallelism::Fixed(6));
        assert!("0".parse::<Parallelism>().is_err());
        assert!("fast".parse::<Parallelism>().is_err());
        for p in [Parallelism::Auto, Parallelism::Off, Parallelism::Fixed(3)] {
            assert_eq!(p.to_string().parse::<Parallelism>().unwrap(), p);
        }
    }

    #[test]
    fn global_default_round_trips() {
        let original = global();
        for p in [Parallelism::Off, Parallelism::Fixed(5), Parallelism::Auto] {
            set_global(p);
            assert_eq!(global(), p);
        }
        set_global(original);
    }

    #[test]
    fn threads_resolves_sensibly() {
        assert_eq!(Parallelism::Off.threads(), 1);
        assert_eq!(Parallelism::Fixed(3).threads(), 3);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
    }
}
