//! Child processes: spawn, time, reap with resource usage, and never leak.
//!
//! Peak resident memory of a finished child comes from `wait4(2)`'s
//! `ru_maxrss`, the kernel's high-water mark over the child's whole life.
//! `std::process` does not expose it, hence the small FFI below. The mark
//! also covers the address space the child ran in before its `exec`, which
//! is its parent's: a command spawned straight from the benchmark, which
//! holds every generated input and oracle, would report at least the
//! benchmark's own peak. [`run`] therefore spawns each command through a
//! fresh copy of this binary ([`WRAP_FLAG`]) that has almost nothing
//! resident; it spawns, times and reaps the command and hands the exit
//! record back in a file. A daemon's peak is read from its
//! `/proc/<pid>/status` while it still runs ([`vm_hwm_mb`]).

use std::fs::{self, File};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const SIGKILL: c_int = 9;
const SIGTERM: c_int = 15;
/// Lines of a failed child's stderr quoted in its failure message.
const TAIL_LINES: usize = 20;
/// First argument that makes this binary the measuring wrapper of [`run`].
pub const WRAP_FLAG: &str = "--run-measured";
/// Time the wrapper may take beyond its command's own limit.
const WRAP_MARGIN: Duration = Duration::from_secs(10);

/// How a reaped child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Whether the watchdog had to kill it.
    pub timed_out: bool,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
    /// Spawn to reap.
    pub wall: Duration,
}

impl Exit {
    /// Exit code 0 within the time limit.
    pub fn ok(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }

    /// The record the wrapper writes: code (-1 for a signal), timed out
    /// (0/1), peak RSS in MB, wall in seconds.
    fn to_record(&self) -> String {
        format!(
            "{} {} {:?} {:?}",
            self.code.unwrap_or(-1),
            u8::from(self.timed_out),
            self.peak_rss_mb,
            self.wall.as_secs_f64()
        )
    }

    fn from_record(text: &str) -> Result<Exit, String> {
        let bad = || format!("malformed exit record {text:?}");
        let f: Vec<&str> = text.split_whitespace().collect();
        let [code, timed_out, rss, wall] = f[..] else {
            return Err(bad());
        };
        let code: i32 = code.parse().map_err(|_| bad())?;
        Ok(Exit {
            code: (code >= 0).then_some(code),
            timed_out: timed_out == "1",
            peak_rss_mb: rss.parse().map_err(|_| bad())?,
            wall: Duration::from_secs_f64(wall.parse().map_err(|_| bad())?),
        })
    }
}

/// Blocks until `child` exits, killing it once `timeout` has passed since
/// `started`. Consumes the child: it is reaped here and nowhere else.
pub fn reap(child: Child, started: Instant, timeout: Duration) -> Exit {
    let pid = child.id() as c_int;
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let remaining = timeout.saturating_sub(started.elapsed());
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(remaining).is_err() {
            // SAFETY: `pid` is our unreaped child (reaping happens only in
            // the wait4 below, which has not returned yet).
            unsafe { kill(pid, SIGKILL) };
            return true;
        }
        false
    });
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    let rc = loop {
        // SAFETY: valid pointers to locals; `pid` is our child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == -1 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted {
            continue;
        }
        break rc;
    };
    let wall = started.elapsed();
    let _ = done_tx.send(());
    let timed_out = watchdog.join().unwrap_or(false);
    drop(child);
    let code = if rc == pid && status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    Exit {
        code,
        timed_out,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
        wall,
    }
}

/// Asks a child to stop with SIGTERM (the daemon drains and exits 0).
pub fn terminate(child: &Child) {
    // SAFETY: signalling our own unreaped child.
    unsafe { kill(child.id() as c_int, SIGTERM) };
}

/// Spawns `bin args…` from this process and reaps it, killing it after
/// `timeout`.
fn spawn_and_reap(
    bin: &str,
    args: &[String],
    stdout: Stdio,
    stderr: Stdio,
    timeout: Duration,
) -> Result<Exit, String> {
    let started = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))?;
    Ok(reap(child, started, timeout))
}

/// Runs `bin args…` to completion through the measuring wrapper, with its
/// output sent to `stdout` and `stderr`, and returns its exit record. The
/// wrapper writes the record to `record`.
pub fn run(
    bin: &str,
    args: &[String],
    stdout: Stdio,
    stderr: Stdio,
    timeout: Duration,
    record: &Path,
) -> Result<Exit, String> {
    let _ = fs::remove_file(record);
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let mut all = vec![
        WRAP_FLAG.to_string(),
        record.display().to_string(),
        timeout.as_millis().to_string(),
        bin.to_string(),
    ];
    all.extend_from_slice(args);
    let exe = exe.display().to_string();
    let wrapper = spawn_and_reap(&exe, &all, stdout, stderr, timeout + WRAP_MARGIN)?;
    let text = fs::read_to_string(record).map_err(|e| {
        format!(
            "no exit record from the wrapper of {bin} ({:?}): {e}",
            wrapper.code
        )
    })?;
    Exit::from_record(&text)
}

/// The measuring wrapper (`perfbench --run-measured <record> <timeout ms>
/// <bin> <args>…`): runs the command with this process's stdio, and
/// writes its exit record to `<record>`.
pub fn wrapper_main(args: &[String]) -> ExitCode {
    let [record, timeout_ms, bin, rest @ ..] = args else {
        eprintln!("perfbench: {WRAP_FLAG} needs <record> <timeout ms> <bin> [args]");
        return ExitCode::from(2);
    };
    let Ok(ms) = timeout_ms.parse() else {
        eprintln!("perfbench: bad timeout {timeout_ms:?}");
        return ExitCode::from(2);
    };
    let timeout = Duration::from_millis(ms);
    let written = spawn_and_reap(bin, rest, Stdio::inherit(), Stdio::inherit(), timeout)
        .and_then(|exit| fs::write(record, exit.to_record()).map_err(|e| format!("{record}: {e}")));
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Peak resident memory (`VmHWM`) of the running process `pid`, MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A file for a child's stderr, created (or truncated) at `path`.
pub fn stderr_file(path: &Path) -> Result<Stdio, String> {
    File::create(path)
        .map(Stdio::from)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The last lines of a child's stderr file, for a failure message.
pub fn stderr_tail(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    let tail = lines[lines.len().saturating_sub(TAIL_LINES)..].join("\n");
    format!("stderr ({}):\n{tail}", path.display())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_codes_and_rss() {
        let ok = spawn_and_reap(
            "true",
            &[],
            Stdio::null(),
            Stdio::null(),
            Duration::from_secs(10),
        )
        .unwrap();
        assert!(ok.ok());
        assert!(ok.peak_rss_mb > 0.0);
        let bad = spawn_and_reap(
            "false",
            &[],
            Stdio::null(),
            Stdio::null(),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(bad.code, Some(1));
        assert!(!bad.ok());
    }

    #[test]
    fn kills_children_that_overrun() {
        let e = spawn_and_reap(
            "sleep",
            &["5".to_string()],
            Stdio::null(),
            Stdio::null(),
            Duration::from_millis(100),
        )
        .unwrap();
        assert!(e.timed_out);
        assert!(!e.ok());
        assert!(e.wall < Duration::from_secs(4));
    }

    #[test]
    fn exit_records_round_trip() {
        for exit in [
            Exit {
                code: Some(0),
                timed_out: false,
                peak_rss_mb: 177.6875,
                wall: Duration::from_nanos(1_234_567_891),
            },
            Exit {
                code: None,
                timed_out: true,
                peak_rss_mb: 0.1,
                wall: Duration::from_millis(60_000),
            },
        ] {
            let back = Exit::from_record(&exit.to_record()).unwrap();
            assert_eq!(back.code, exit.code);
            assert_eq!(back.timed_out, exit.timed_out);
            assert_eq!(back.peak_rss_mb, exit.peak_rss_mb);
            assert!((back.wall.as_secs_f64() - exit.wall.as_secs_f64()).abs() < 1e-6);
        }
        assert!(Exit::from_record("0 0 1.0").is_err());
    }

    #[test]
    fn reads_the_peak_of_a_running_process() {
        let mb = vm_hwm_mb(std::process::id()).unwrap();
        assert!(mb > 0.0);
    }
}
