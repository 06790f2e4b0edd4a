//! `perfbench` — the end-to-end benchmark of record for `mtperf`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <predict_csv|serve_mix|sweep_grid|cv_fit|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the release `mtperf` binary,
//! generates every input from `--seed`, drives the workload against the
//! binary for `--seconds` of measured work, checks every output against an
//! in-process oracle, and prints one JSON object as the last stdout line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced replay with `--trace 1`. `--workload all` runs every
//! workload and prints each one's full report. See `perfbench/README.md`.

mod batch;
mod gen;
mod metrics;
mod oracle;
mod proc;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use metrics::{Outcome, E2E, LAYERS};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["predict_csv", "serve_mix", "sweep_grid", "cv_fit"];

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?} or all)",
            opts.workload
        ));
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(opts)
}

/// Builds the release `mtperf` binary from the repository at the working
/// directory and returns its path.
fn build_mtperf() -> Result<String, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "mtperf",
            "--bin",
            "mtperf",
            "--message-format=json",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building mtperf failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .filter(|l| l.contains("\"reason\":\"compiler-artifact\""))
        .find_map(|l| {
            let rest = &l[l.find("\"executable\":\"")? + 14..];
            Some(rest[..rest.find('"')?].to_string())
        })
        .ok_or_else(|| "cargo reported no mtperf executable".to_string())
}

fn run_one(bin: &str, workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let seconds = opts.seconds;
    match (workload, opts.trace) {
        ("predict_csv", false) => batch::predict_csv(bin, opts.seed, seconds),
        ("predict_csv", true) => batch::predict_csv_traced(bin, opts.seed, seconds),
        ("sweep_grid", false) => batch::sweep_grid(bin, opts.seed, seconds),
        ("sweep_grid", true) => batch::sweep_grid_traced(bin, opts.seed, seconds),
        ("cv_fit", false) => batch::cv_fit(bin, opts.seed, seconds),
        ("cv_fit", true) => batch::cv_fit_traced(bin, opts.seed, seconds),
        ("serve_mix", false) => serve::serve_mix(bin, opts.seed, seconds),
        ("serve_mix", true) => serve::serve_mix_traced(bin, opts.seed, seconds),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(proc::WRAP_FLAG) {
        return proc::wrapper_main(&args[1..]);
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bin = match build_mtperf() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!(
        "perfbench: host threads {}, seed {}, {} s per run",
        metrics::host_threads(),
        opts.seed,
        opts.seconds
    );
    let names: Vec<&str> = if opts.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let mut outcomes = Vec::new();
    for w in &names {
        let calib = metrics::host_calib_ms();
        match run_one(&bin, w, &opts) {
            Ok(mut o) => {
                o.set("host_calib_ms", calib, "ms");
                print!("{}", o.report(w));
                outcomes.push((*w, o));
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let wanted = if opts.trace { &LAYERS[..] } else { &E2E[..] };
    let prefix = names.len() > 1;
    println!("{}", metrics::result_line(&outcomes, wanted, prefix));
    ExitCode::SUCCESS
}
