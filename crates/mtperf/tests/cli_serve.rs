//! End-to-end contracts of `mtperf serve`, driven through the real binary:
//!
//! * startup failures exit 69 (`EX_UNAVAILABLE`), usage errors exit 2;
//! * a structurally invalid model (split on a missing attribute, no
//!   checksum to catch it) is a typed exit — 65 for the model commands,
//!   69 for `serve` — never a panic;
//! * a request nested deeper than the JSON parser's limit is a
//!   `bad_request`, not a stack overflow that aborts the daemon;
//! * a lockstep stdio session answers health/predict/reload/save/shutdown,
//!   bit-identically across repeats, and refuses malformed requests with
//!   `bad_request` instead of dropping the connection;
//! * an expired deadline yields a `deadline_exceeded` response, not a hang;
//! * SIGTERM and stdin EOF both drain queued work and exit 0;
//! * a poisoned hot reload leaves the daemon serving the last-known-good
//!   model with `degraded: true` until a good reload heals it;
//! * the Unix-socket transport speaks the same protocol;
//! * `kill -9` during a stream of atomic saves never corrupts the model:
//!   a fresh daemon restarts from it and batch predictions are
//!   bit-identical to the pre-crash golden run;
//! * the named-model registry serves many models over one session
//!   (load/promote/rollback/list with typed error codes), a poisoned
//!   promote keeps the last-known-good version, and the registry
//!   manifest survives promote → `kill -9` → restart un-torn;
//! * the TCP transport speaks the same protocol as stdio and the Unix
//!   socket.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Output, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mtperf")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove("MTPERF_TRACE")
        .env_remove("MTPERF_TRACE_OUT")
        .env_remove("MTPERF_METRICS")
        .output()
        .expect("spawn mtperf")
}

fn stderr_of(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// A scratch directory with a tiny simulated CSV and a trained model.
struct Fixture {
    dir: PathBuf,
    csv: String,
    model: String,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("mtperf-serve-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let csv = dir.join("suite.csv").display().to_string();
        let model = dir.join("model.json").display().to_string();
        let sim = run(&[
            "simulate",
            "--out",
            &csv,
            "--instructions",
            "60000",
            "--seed",
            "3",
        ]);
        assert!(sim.status.success(), "simulate failed: {}", stderr_of(&sim));
        let train = run(&["train", "--data", &csv, "--out", &model]);
        assert!(
            train.status.success(),
            "train failed: {}",
            stderr_of(&train)
        );
        Fixture { dir, csv, model }
    }

    /// Trains a second, distinct model (different simulation seed) in the
    /// fixture directory — candidate material for load/promote tests.
    fn alt_model(&self, name: &str) -> String {
        let csv = self.dir.join(format!("{name}.csv")).display().to_string();
        let model = self.dir.join(format!("{name}.json")).display().to_string();
        let sim = run(&[
            "simulate",
            "--out",
            &csv,
            "--instructions",
            "60000",
            "--seed",
            "7",
        ]);
        assert!(sim.status.success(), "simulate failed: {}", stderr_of(&sim));
        let train = run(&["train", "--data", &csv, "--out", &model]);
        assert!(
            train.status.success(),
            "train failed: {}",
            stderr_of(&train)
        );
        model
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A `predict` rows payload: one row of `width` small finite values.
fn rows_json(width: usize) -> String {
    let vals: Vec<String> = (0..width)
        .map(|i| format!("{:.2}", 0.05 + i as f64 * 0.01))
        .collect();
    format!("[[{}]]", vals.join(","))
}

/// A running `mtperf serve` child with a lockstep stdio session.
struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<String>,
    stderr: Arc<Mutex<String>>,
}

impl Serve {
    fn start(args: &[&str]) -> Serve {
        let mut child = Command::new(bin())
            .arg("serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .env_remove("MTPERF_TRACE")
            .env_remove("MTPERF_TRACE_OUT")
            .env_remove("MTPERF_METRICS")
            .spawn()
            .expect("spawn mtperf serve");
        let stdout = child.stdout.take().expect("child stdout");
        let (tx, lines) = mpsc::channel();
        thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        let child_err = child.stderr.take().expect("child stderr");
        let stderr = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stderr);
        thread::spawn(move || {
            let mut text = String::new();
            let mut r = BufReader::new(child_err);
            let _ = r.read_to_string(&mut text);
            *sink.lock().unwrap() = text;
        });
        let stdin = child.stdin.take();
        Serve {
            child,
            stdin,
            lines,
            stderr,
        }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        writeln!(stdin, "{line}").expect("write request");
        stdin.flush().expect("flush request");
    }

    /// Sends one request and waits for one response line.
    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.next_response()
    }

    fn next_response(&mut self) -> String {
        self.lines
            .recv_timeout(Duration::from_secs(60))
            .expect("daemon response within 60s")
    }

    /// Closes stdin (EOF drains the daemon) and waits for exit.
    fn finish(mut self) -> (std::process::ExitStatus, String) {
        self.stdin.take();
        let status = self.wait();
        let err = self.stderr.lock().unwrap().clone();
        (status, err)
    }

    fn wait(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "daemon did not exit within 60s");
            thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.try_wait();
    }
}

#[test]
fn startup_failures_exit_unavailable() {
    // Missing model file.
    let out = run(&["serve", "--model", "/nonexistent/model.json"]);
    assert_eq!(out.status.code(), Some(69), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("unavailable"),
        "{}",
        stderr_of(&out)
    );

    // Corrupt model file: validation refuses it before serving starts.
    let dir = std::env::temp_dir().join(format!("mtperf-serve-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{ torn mid-write").unwrap();
    let out = run(&["serve", "--model", &bad.display().to_string()]);
    assert_eq!(out.status.code(), Some(69), "{}", stderr_of(&out));
    std::fs::remove_dir_all(&dir).ok();

    // Unbindable socket path (model must be valid to reach the bind).
    let fx = Fixture::new("badsock");
    let out = run(&[
        "serve",
        "--model",
        &fx.model,
        "--socket",
        "/nonexistent-dir/serve.sock",
    ]);
    assert_eq!(out.status.code(), Some(69), "{}", stderr_of(&out));
}

#[test]
fn usage_errors_exit_2() {
    let out = run(&["serve"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let out = run(&["serve", "--model", "m.json", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let out = run(&["serve", "--model", "m.json", "--queue-depth", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let out = run(&["serve", "--model", "m.json", "--tenant-quota", "0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let out = run(&["serve", "--model", "m.json", "--cache-size", "lots"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}

#[test]
fn stdio_session_serves_health_predict_and_shutdown() {
    let fx = Fixture::new("stdio");
    let mut serve = Serve::start(&["--model", &fx.model, "--workers", "1"]);

    // Readiness probe.
    let health = serve.request(r#"{"op":"health","id":"h1"}"#);
    assert!(health.contains("\"id\":\"h1\""), "{health}");
    assert!(health.contains("\"ready\":true"), "{health}");
    assert!(health.contains("\"degraded\":false"), "{health}");

    // Predictions flow and are bit-identical across repeats.
    let predict = format!(r#"{{"op":"predict","id":"p1","rows":{}}}"#, rows_json(20));
    let first = serve.request(&predict);
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(first.contains("\"id\":\"p1\""), "{first}");
    assert!(first.contains("\"degraded\":false"), "{first}");
    assert!(first.contains("\"predictions\":["), "{first}");
    let second = serve.request(&predict);
    assert_eq!(first, second, "repeat predictions must be bit-identical");

    // Malformed requests answer bad_request without killing the session.
    for (req, detail) in [
        ("not json at all", "unparsable"),
        (r#"{"op":"frobnicate"}"#, "unknown op"),
        (r#"{"op":"predict"}"#, "non-empty rows"),
        (r#"{"op":"predict","rows":[[1.0,2.0]]}"#, "model expects"),
    ] {
        let resp = serve.request(req);
        assert!(resp.contains("\"kind\":\"bad_request\""), "{req} -> {resp}");
        assert!(resp.contains(detail), "{req} -> {resp}");
    }

    // An already-expired deadline is a timeout response, not a hang.
    let late = serve.request(&format!(
        r#"{{"op":"predict","id":"late","rows":{},"deadline_ms":0}}"#,
        rows_json(20)
    ));
    assert!(late.contains("\"kind\":\"deadline_exceeded\""), "{late}");
    assert!(late.contains("\"id\":\"late\""), "{late}");

    // Stats surfaced through the probe.
    let health = serve.request(r#"{"op":"health","id":"h2"}"#);
    assert!(health.contains("\"deadline_misses\":1"), "{health}");

    // Graceful shutdown: ack, drain, exit 0.
    let bye = serve.request(r#"{"op":"shutdown","id":"bye"}"#);
    assert!(bye.contains("\"id\":\"bye\""), "{bye}");
    assert!(bye.contains("\"ok\":true"), "{bye}");
    let (status, err) = serve.finish();
    assert!(status.success(), "exit: {status:?}, stderr: {err}");
    assert!(err.contains("drained"), "{err}");
}

/// Saves `model` without its checksum header and with the root split's
/// attribute set to 99 — still a loadable version-1 file, but a tree whose
/// routing indexes past every row.
fn attr99_model(fx: &Fixture) -> String {
    let text = std::fs::read_to_string(&fx.model).expect("read model");
    let (_, body) = text.split_once('\n').expect("v2 header line");
    let at = body.find("\"attr\": ").expect("fixture model has a split") + 8;
    let end = at + body[at..].find(',').expect("attr value");
    let bad = fx.dir.join("attr99.json").display().to_string();
    std::fs::write(&bad, format!("{}99{}", &body[..at], &body[end..])).expect("write");
    bad
}

#[test]
fn structurally_invalid_model_is_a_typed_exit_for_every_command() {
    let fx = Fixture::new("attr99");
    let bad = attr99_model(&fx);
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/sweep_smoke.json"
    );
    let commands: [&[&str]; 5] = [
        &["predict", "--model", &bad, "--data", &fx.csv],
        &["show", "--model", &bad],
        &["show", "--model", &bad, "--rules"],
        &["analyze", "--model", &bad, "--data", &fx.csv],
        &["sweep", "--spec", spec, "--model", &bad, "--data", &fx.csv],
    ];
    for args in commands {
        let out = run(args);
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(65), "{args:?}: {err}");
        assert!(err.contains("model structure invalid"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let out = run(&["serve", "--model", &bad]);
    let err = stderr_of(&out);
    assert_eq!(out.status.code(), Some(69), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line reason expected: {err}");
    assert!(err.contains("attribute 99"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn deeply_nested_request_is_a_bad_request() {
    let fx = Fixture::new("deep");
    let mut serve = Serve::start(&["--model", &fx.model]);
    let deep = format!(
        r#"{{"op":"predict","id":"deep","rows":{}{}}}"#,
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    let resp = serve.request(&deep);
    assert!(resp.contains("\"kind\":\"bad_request\""), "{resp}");
    assert!(resp.contains("recursion limit exceeded"), "{resp}");
    let health = serve.request(r#"{"op":"health","id":"after"}"#);
    assert!(health.contains("\"ready\":true"), "{health}");
    let (status, err) = serve.finish();
    assert!(status.success(), "exit: {status:?}, stderr: {err}");
}

#[test]
fn stdin_eof_drains_and_exits_cleanly() {
    let fx = Fixture::new("eof");
    let mut serve = Serve::start(&["--model", &fx.model]);
    let resp = serve.request(&format!(r#"{{"op":"predict","rows":{}}}"#, rows_json(20)));
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let (status, err) = serve.finish();
    assert!(status.success(), "exit: {status:?}, stderr: {err}");
}

#[test]
fn sigterm_drains_then_exits_zero() {
    let fx = Fixture::new("sigterm");
    let mut serve = Serve::start(&["--model", &fx.model]);
    // Prove the daemon is up before signalling.
    let resp = serve.request(r#"{"op":"ready"}"#);
    assert!(resp.contains("\"ready\":true"), "{resp}");

    let pid = serve.child.id().to_string();
    let kill = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("spawn kill");
    assert!(kill.success());
    let status = serve.wait();
    assert!(
        status.success(),
        "SIGTERM must drain and exit 0: {status:?}"
    );
    let err = serve.stderr.lock().unwrap().clone();
    assert!(err.contains("drained"), "{err}");
}

#[test]
fn poisoned_reload_serves_degraded_until_healed() {
    let fx = Fixture::new("reload");
    let good_bytes = std::fs::read(&fx.model).unwrap();
    let mut serve = Serve::start(&["--model", &fx.model, "--workers", "1"]);

    let predict = format!(r#"{{"op":"predict","id":"p","rows":{}}}"#, rows_json(20));
    let healthy = serve.request(&predict);
    assert!(healthy.contains("\"degraded\":false"), "{healthy}");

    // Poison the model file on disk; the hot reload must refuse it.
    std::fs::write(&fx.model, "poisoned mid-deploy").unwrap();
    let reload = serve.request(r#"{"op":"reload","id":"g1"}"#);
    assert!(reload.contains("\"kind\":\"reload_failed\""), "{reload}");
    assert!(reload.contains("\"degraded\":true"), "{reload}");

    // Still serving — same answers as before, now flagged degraded.
    let degraded = serve.request(&predict);
    assert!(degraded.contains("\"ok\":true"), "{degraded}");
    assert!(degraded.contains("\"degraded\":true"), "{degraded}");
    let probe = serve.request(r#"{"op":"health"}"#);
    assert!(probe.contains("\"degraded\":true"), "{probe}");
    assert!(probe.contains("\"ready\":true"), "{probe}");

    // Restore the good bytes: reload heals, degraded clears.
    std::fs::write(&fx.model, &good_bytes).unwrap();
    let reload = serve.request(r#"{"op":"reload","id":"g2"}"#);
    assert!(reload.contains("\"ok\":true"), "{reload}");
    let healed = serve.request(&predict);
    assert!(healed.contains("\"degraded\":false"), "{healed}");
    assert_eq!(
        healthy, healed,
        "healed daemon must answer bit-identically to the original"
    );

    let bye = serve.request(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(serve.finish().0.success());
}

#[test]
fn unix_socket_transport_speaks_the_same_protocol() {
    use std::os::unix::net::UnixStream;

    let fx = Fixture::new("socket");
    let sock = fx.dir.join("serve.sock");
    let sock_str = sock.display().to_string();
    // Socket-only daemon: stdio transport off, so stdin EOF cannot drain it.
    let mut serve = Serve::start(&["--model", &fx.model, "--socket", &sock_str]);

    // Wait for the listener to come up.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        if let Ok(s) = UnixStream::connect(&sock) {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "socket never came up: {}",
            serve.stderr.lock().unwrap()
        );
        thread::sleep(Duration::from_millis(20));
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> String {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };

    let health = ask(r#"{"op":"health","id":"s1"}"#);
    assert!(health.contains("\"ready\":true"), "{health}");
    let predict = ask(&format!(
        r#"{{"op":"predict","id":"s2","rows":{}}}"#,
        rows_json(20)
    ));
    assert!(predict.contains("\"ok\":true"), "{predict}");
    assert!(predict.contains("\"id\":\"s2\""), "{predict}");

    // A second concurrent connection works too.
    let mut other = UnixStream::connect(&sock).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    writeln!(other, r#"{{"op":"ready","id":"s3"}}"#).unwrap();
    let mut resp = String::new();
    BufReader::new(other.try_clone().unwrap())
        .read_line(&mut resp)
        .unwrap();
    assert!(resp.contains("\"id\":\"s3\""), "{resp}");

    // Shutdown over the socket drains the daemon; the socket file goes away.
    let bye = ask(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    let status = serve.wait();
    assert!(status.success(), "{status:?}");
    assert!(!sock.exists(), "socket file must be removed on exit");
}

#[test]
fn multi_model_session_covers_registry_lifecycle_and_error_codes() {
    let fx = Fixture::new("registry");
    let alt = fx.alt_model("alt");
    let alt_json = serde_json_escape(&alt);
    let mut serve = Serve::start(&["--model", &fx.model, "--workers", "1"]);
    let predict_default = format!(r#"{{"op":"predict","id":"d1","rows":{}}}"#, rows_json(20));

    // v1-shaped requests (no model field) keep working under v2.
    let first = serve.request(&predict_default);
    assert!(first.contains("\"ok\":true"), "{first}");

    // Predicting against a model that is not loaded is a typed error.
    let ghost = serve.request(&format!(
        r#"{{"op":"predict","id":"g1","rows":{},"model":"alpha"}}"#,
        rows_json(20)
    ));
    assert!(ghost.contains("\"kind\":\"unknown_model\""), "{ghost}");

    // Load the candidate under a name; it becomes servable immediately.
    let load = serve.request(&format!(
        r#"{{"op":"load","id":"l1","model":"alpha","path":{alt_json}}}"#
    ));
    assert!(load.contains("\"ok\":true"), "{load}");
    let alpha1 = serve.request(&format!(
        r#"{{"op":"predict","id":"a1","rows":{},"model":"alpha"}}"#,
        rows_json(20)
    ));
    assert!(alpha1.contains("\"ok\":true"), "{alpha1}");

    // The default model is untouched by the named load.
    let still_default = serve.request(&predict_default.replace("\"d1\"", "\"d2\""));
    assert_eq!(
        first.replace("\"d1\"", "\"d2\""),
        still_default,
        "default model changed by a named load"
    );

    // Promote a second version onto alpha, then roll it back.
    let promote = serve.request(&format!(
        r#"{{"op":"promote","id":"pr1","model":"alpha","path":{alt_json}}}"#
    ));
    assert!(promote.contains("\"ok\":true"), "{promote}");
    let rollback = serve.request(r#"{"op":"rollback","id":"rb1","model":"alpha"}"#);
    assert!(rollback.contains("\"ok\":true"), "{rollback}");
    // A second rollback has no history left: typed rollback_failed.
    let rollback2 = serve.request(r#"{"op":"rollback","id":"rb2","model":"alpha"}"#);
    assert!(
        rollback2.contains("\"kind\":\"rollback_failed\""),
        "{rollback2}"
    );

    // Registry ops against unknown models are unknown_model, not crashes.
    for req in [
        r#"{"op":"promote","id":"e1","model":"ghost","path":"/tmp/x.json"}"#,
        r#"{"op":"rollback","id":"e2","model":"ghost"}"#,
    ] {
        let resp = serve.request(req);
        assert!(
            resp.contains("\"kind\":\"unknown_model\""),
            "{req} -> {resp}"
        );
    }

    // A poisoned promote keeps the last-known-good version serving.
    let poison = fx.dir.join("poison.json");
    std::fs::write(&poison, "{ not a model }").unwrap();
    let bad = serve.request(&format!(
        r#"{{"op":"promote","id":"pr2","model":"alpha","path":{}}}"#,
        serde_json_escape(&poison.display().to_string())
    ));
    assert!(bad.contains("\"kind\":\"promote_failed\""), "{bad}");
    let alpha2 = serve.request(&alpha1_request_with_id("a2"));
    assert!(alpha2.contains("\"ok\":true"), "{alpha2}");
    assert_eq!(
        alpha1.replace("\"a1\"", "\"a2\""),
        alpha2.replace("\"degraded\":true", "\"degraded\":false"),
        "poisoned promote changed alpha's answers"
    );

    // `list` reports both models with version/active markers.
    let list = serve.request(r#"{"op":"list","id":"ls1"}"#);
    assert!(list.contains("\"ok\":true"), "{list}");
    assert!(list.contains("\"default\""), "{list}");
    assert!(list.contains("\"alpha\""), "{list}");
    assert!(list.contains("\"active\":true"), "{list}");

    // Health counts the registry.
    let health = serve.request(r#"{"op":"health","id":"h"}"#);
    assert!(health.contains("\"models\":2"), "{health}");

    let bye = serve.request(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(serve.finish().0.success());
}

/// JSON-escapes a path for embedding in a request line.
fn serde_json_escape(path: &str) -> String {
    format!("{path:?}")
}

/// The alpha predict request with a fresh id (shared row payload).
fn alpha1_request_with_id(id: &str) -> String {
    format!(
        r#"{{"op":"predict","id":"{id}","rows":{},"model":"alpha"}}"#,
        rows_json(20)
    )
}

#[test]
fn registry_manifest_survives_promote_and_kill_nine() {
    let fx = Fixture::new("manifest");
    let alt = fx.alt_model("cand");
    let alt_json = serde_json_escape(&alt);
    let manifest = fx.dir.join("registry.json").display().to_string();

    // Round 1: promote the default model to the candidate artifact, let
    // the manifest persist, then SIGKILL without any grace.
    let mut serve = Serve::start(&[
        "--model",
        &fx.model,
        "--registry",
        &manifest,
        "--workers",
        "1",
    ]);
    let promote = serve.request(&format!(
        r#"{{"op":"promote","id":"pr","model":"default","path":{alt_json}}}"#
    ));
    assert!(promote.contains("\"ok\":true"), "{promote}");
    // The promoted model answers now (bit-identity checked after restart).
    let before = serve.request(&format!(
        r#"{{"op":"predict","id":"pb","rows":{}}}"#,
        rows_json(20)
    ));
    assert!(before.contains("\"ok\":true"), "{before}");
    serve.child.kill().expect("SIGKILL");
    let _ = serve.child.wait();

    // Restart from the manifest: the *promoted* version must be active —
    // same answers as the pre-kill daemon, not the original --model.
    let mut serve = Serve::start(&[
        "--model",
        &fx.model,
        "--registry",
        &manifest,
        "--workers",
        "1",
    ]);
    let after = serve.request(&format!(
        r#"{{"op":"predict","id":"pb","rows":{}}}"#,
        rows_json(20)
    ));
    assert_eq!(before, after, "promoted version lost across kill -9");
    let list = serve.request(r#"{"op":"list","id":"ls"}"#);
    assert!(list.contains("\"versions\""), "{list}");

    // Round 2: flood promotes (alternating artifacts) without reading
    // responses and SIGKILL mid-stream, several timings. However the
    // manifest write is interrupted, a fresh daemon must start cleanly
    // from it — promoted or prior version, never a torn manifest.
    for (round, delay_ms) in [5u64, 20, 45].iter().enumerate() {
        let mut serve = Serve::start(&[
            "--model",
            &fx.model,
            "--registry",
            &manifest,
            "--workers",
            "1",
        ]);
        let resp = serve.request(r#"{"op":"ready"}"#);
        assert!(resp.contains("\"ready\":true"), "round {round}: {resp}");
        let orig_json = serde_json_escape(&fx.model);
        for i in 0..100 {
            let path = if i % 2 == 0 { &alt_json } else { &orig_json };
            serve.send(&format!(
                r#"{{"op":"promote","id":"f{i}","model":"default","path":{path}}}"#
            ));
        }
        thread::sleep(Duration::from_millis(*delay_ms));
        serve.child.kill().expect("SIGKILL");
        let _ = serve.child.wait();

        let mut serve = Serve::start(&[
            "--model",
            &fx.model,
            "--registry",
            &manifest,
            "--workers",
            "1",
        ]);
        let health = serve.request(r#"{"op":"health","id":"h"}"#);
        assert!(
            health.contains("\"ready\":true"),
            "round {round}: torn manifest broke restart: {health}"
        );
        let predict = serve.request(&format!(
            r#"{{"op":"predict","id":"p","rows":{}}}"#,
            rows_json(20)
        ));
        assert!(
            predict.contains("\"ok\":true"),
            "round {round}: restarted daemon cannot serve: {predict}"
        );
        let bye = serve.request(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("\"ok\":true"), "round {round}: {bye}");
        assert!(serve.finish().0.success());
    }
}

#[test]
fn tcp_transport_speaks_the_same_protocol() {
    use std::net::TcpStream;

    let fx = Fixture::new("tcp");
    // Port 0 would be ideal but the ready line is the only channel for the
    // chosen port; a fixed high port keeps the test self-contained.
    let addr = "127.0.0.1:47707";
    let mut serve = Serve::start(&["--model", &fx.model, "--tcp", addr]);

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut stream = loop {
        if let Ok(s) = TcpStream::connect(addr) {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "TCP listener never came up: {}",
            serve.stderr.lock().unwrap()
        );
        thread::sleep(Duration::from_millis(20));
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> String {
        writeln!(stream, "{line}").unwrap();
        stream.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        resp
    };

    let health = ask(r#"{"op":"health","id":"t1"}"#);
    assert!(health.contains("\"ready\":true"), "{health}");
    assert!(health.contains("mtperf-serve-v2"), "{health}");
    let predict = ask(&format!(
        r#"{{"op":"predict","id":"t2","rows":{}}}"#,
        rows_json(20)
    ));
    assert!(predict.contains("\"ok\":true"), "{predict}");
    assert!(predict.contains("\"id\":\"t2\""), "{predict}");

    // A malformed line gets a typed refusal and the connection survives.
    let bad = ask("not json");
    assert!(bad.contains("\"kind\":\"bad_request\""), "{bad}");
    let again = ask(r#"{"op":"ready","id":"t3"}"#);
    assert!(again.contains("\"id\":\"t3\""), "{again}");

    // A second concurrent connection is served.
    let mut other = TcpStream::connect(addr).unwrap();
    other
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    writeln!(other, r#"{{"op":"ready","id":"t4"}}"#).unwrap();
    let mut resp = String::new();
    BufReader::new(other.try_clone().unwrap())
        .read_line(&mut resp)
        .unwrap();
    assert!(resp.contains("\"id\":\"t4\""), "{resp}");

    // Shutdown over TCP drains the daemon.
    let bye = ask(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    let status = serve.wait();
    assert!(status.success(), "{status:?}");
}

#[test]
fn kill_nine_mid_save_never_corrupts_the_model() {
    let fx = Fixture::new("kill9");
    // Golden predictions before any crash.
    let golden = run(&["predict", "--model", &fx.model, "--data", &fx.csv]);
    assert!(golden.status.success(), "{}", stderr_of(&golden));

    // Several rounds with different kill timings: start a daemon, stream
    // save requests at it, SIGKILL it mid-stream.
    for (round, delay_ms) in [5u64, 20, 45].iter().enumerate() {
        let mut serve = Serve::start(&["--model", &fx.model, "--workers", "1"]);
        // Confirm liveness, then flood saves without reading responses.
        let resp = serve.request(r#"{"op":"ready"}"#);
        assert!(resp.contains("\"ready\":true"), "round {round}: {resp}");
        for _ in 0..200 {
            serve.send(r#"{"op":"save"}"#);
        }
        thread::sleep(Duration::from_millis(*delay_ms));
        serve.child.kill().expect("SIGKILL");
        let _ = serve.child.wait();

        // The model file must be loadable and predict bit-identically.
        let after = run(&["predict", "--model", &fx.model, "--data", &fx.csv]);
        assert!(
            after.status.success(),
            "round {round}: model corrupted by kill -9: {}",
            stderr_of(&after)
        );
        assert_eq!(
            golden.stdout, after.stdout,
            "round {round}: predictions diverged after kill -9"
        );
    }

    // And a fresh daemon restarts cleanly from the surviving file.
    let mut serve = Serve::start(&["--model", &fx.model]);
    let health = serve.request(r#"{"op":"health"}"#);
    assert!(health.contains("\"ready\":true"), "{health}");
    assert!(health.contains("\"degraded\":false"), "{health}");
    let bye = serve.request(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"ok\":true"), "{bye}");
    assert!(serve.finish().0.success());
}
