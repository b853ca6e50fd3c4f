//! The repository benchmark: six pinned workloads, end-to-end medians,
//! and an outside-in per-layer trace. See `README.md` beside this file.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload scale_10k_seq --seed 42 --seconds 8 --trace 0
//! ```

#![forbid(unsafe_code)]

mod api;
mod compare;
mod json;
mod layers;
mod metrics;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Opts, Report};

const USAGE: &str = "usage:
  egm_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
  egm_benchmark --seed <n> [...]               every workload, each in a process of its own
  egm_benchmark --compare <a.jsonl> <b.jsonl>  two sets of --out results, row by row
  egm_benchmark --describe                     workloads, metrics and predictions as JSON";

/// Variables that select an engine, a thread count or a test size in the
/// program. All are removed before anything runs; only the pins below are
/// set, so the machine's environment cannot decide what a workload
/// measures.
const SCRUBBED_PREFIXES: [&str; 3] = ["EGM_", "RAYON_NUM_THREADS", "PROPTEST_CASES"];

/// Threads a workload may use: the sweep's worker pool and the sharded
/// engine's window driver (`EGM_SHARD_THREADS=1` forces the threaded
/// driver whatever the core count).
const PINNED_ENV: [(&str, &str); 2] = [("RAYON_NUM_THREADS", "2"), ("EGM_SHARD_THREADS", "1")];

fn pin_environment(out_dir: &std::path::Path) {
    for (key, _) in std::env::vars_os() {
        let name = key.to_string_lossy();
        if SCRUBBED_PREFIXES.iter().any(|p| name.starts_with(p)) {
            std::env::remove_var(&key);
        }
    }
    for (key, value) in PINNED_ENV {
        std::env::set_var(key, value);
    }
    // The 100k preset spools traffic tallies under the temp directory;
    // keep that inside the build directory.
    let tmp = out_dir.join("tmp");
    std::fs::create_dir_all(&tmp).expect("create the benchmark's temp directory");
    std::env::set_var("TMPDIR", &tmp);
}

/// `<build dir>/benchmark`, next to the profile directory this
/// executable was built into.
fn default_out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let profile_dir = exe.parent().expect("executable has a directory");
    profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("benchmark")
}

struct Args {
    workload: Option<String>,
    opts: Opts,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: 8.0,
            trace: false,
            quick: false,
            out_dir: default_out_dir(),
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !metrics::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; known: {}",
                        metrics::WORKLOADS.join(", ")
                    ));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                parsed.opts.seconds = s;
            }
            "--trace" => {
                parsed.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => parsed.opts.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run_workload(name: &str, opts: &Opts) -> Report {
    match (name, opts.trace) {
        ("server_jobs", false) => server::measure(opts),
        ("server_jobs", true) => server::trace(opts),
        ("figure_sweep_100", false) => workloads::measure_sweep(opts),
        ("figure_sweep_100", true) => layers::trace_sweep(opts),
        (sim, false) => workloads::measure_sim(&workloads::sim_plan(sim, opts), opts),
        (sim, true) => layers::trace_sim(sim, &workloads::sim_plan(sim, opts), opts),
    }
}

/// The result object: the last line of standard output.
fn result_json(name: &str, opts: &Opts, report: &Report) -> Result<String, String> {
    let mut entries = Vec::new();
    let mut emit = |metric: &str, unit: &str, value: f64| -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("{metric} is not finite ({value})"));
        }
        println!("{name} {metric} {value} {unit}");
        entries.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json::quote(metric),
            json::quote(unit)
        ));
        Ok(())
    };
    if opts.trace {
        // A layer that is not on this workload's path reads 0.
        for layer in &metrics::PER_LAYER {
            emit(
                layer.name,
                layer.unit,
                report.values.get(layer.name).unwrap_or(0.0),
            )?;
        }
    } else {
        for (metric, unit) in metrics::END_TO_END {
            let value = report
                .values
                .get(metric)
                .ok_or_else(|| format!("{name} did not measure {metric}"))?;
            emit(metric, unit, value)?;
        }
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.checks.failed == 0,
        report.checks.attempted.max(1),
        report.checks.failed,
        entries.join(",")
    ))
}

/// The record `--out` appends: the result plus what produced it.
fn out_record(name: &str, opts: &Opts, report: &Report, result: &str) -> String {
    let config: Vec<String> = report
        .config
        .iter()
        .map(|(k, v)| format!("{}:{}", json::quote(k), json::quote(v)))
        .collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"config\":{{{}}},\"result\":{result}}}",
        json::quote(name),
        opts.seed,
        u8::from(opts.trace),
        config.join(",")
    )
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_one(name: &str, opts: &Opts, out: Option<&PathBuf>) -> ExitCode {
    pin_environment(&opts.out_dir);
    let mut report = run_workload(name, opts);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.config.extend([
        ("nproc", nproc.to_string()),
        ("git", git_revision()),
        ("seconds", opts.seconds.to_string()),
        ("quick", opts.quick.to_string()),
    ]);
    for (key, value) in PINNED_ENV {
        report.config.push((key, value.to_string()));
    }
    for (key, value) in &report.config {
        println!("{name} config {key} {value}");
    }
    for note in &report.notes {
        println!("{name} note {note}");
    }
    let line = match result_json(name, opts, &report) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = out {
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", out_record(name, opts, &report, &line)));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if report.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a process of its own, so peak RSS is per
/// workload, and fails if any of them does.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut failed = false;
    for name in metrics::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", name])
            .status()
            .expect("re-run this executable");
        failed |= !status.success();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--serve") => {
            if let Err(e) = api::serve_from_env() {
                eprintln!("server: {e}");
            }
            return ExitCode::FAILURE;
        }
        Some("--describe") => {
            println!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            return match args.as_slice() {
                [_, a, b] => compare::run(a, b),
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match &parsed.workload {
        Some(name) => run_one(name, &parsed.opts, parsed.out.as_ref()),
        None => run_all(&args),
    }
}
