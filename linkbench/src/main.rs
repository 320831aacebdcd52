//! `linkbench`: end-to-end and per-layer benchmark of the linking engine.
//!
//! ```text
//! linkbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale paper|tiny] [--out DIR]
//! linkbench run [--seed N] [--seconds S] [--scale paper|tiny] [--out DIR]
//! linkbench check A.jsonl B.jsonl [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form measures one workload in this process and ends its
//! standard output with the one-line JSON result `BENCHMARK.json`'s
//! contract asks for. `run` measures all three, each pass in a child process
//! of its own, prints every metric as `workload metric value unit` and
//! writes `DIR/results.jsonl` plus the span files. `check` compares two
//! result files against the bounds recorded in `BENCHMARK.json`.

use linkbench::inputs::{self, Scale};
use linkbench::report::{self, Header, Kind, Record};
use linkbench::workload::{self, Options, WORKLOADS};
use linkbench::{json, layers};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Measuring time of one pass under `linkbench run` (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 32.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("linkbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and the positional arguments around them.
fn parse_args(args: &[String]) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let (mut flags, mut positional) = (BTreeMap::new(), Vec::new());
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.strip_prefix("--") {
            Some(key) => {
                let value = args
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((flags, positional))
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("--{key}: cannot read {text:?}")),
        None => Ok(default),
    }
}

fn scale_of(flags: &BTreeMap<String, String>) -> Result<Scale, String> {
    let name = flags.get("scale").map_or("paper", String::as_str);
    Scale::parse(name).ok_or_else(|| format!("--scale: {name:?} is neither paper nor tiny"))
}

/// The contract's result line for one pass: the metrics `BENCHMARK.json`
/// declares for it, and only those.
fn contract_line(records: &[Record], attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = records
        .iter()
        .filter(|r| {
            r.metric != "failed_share" && layers::DENSE_REFERENCE.iter().all(|d| d.0 != r.metric)
        })
        .map(|r| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&r.metric),
                report::number(r.value),
                json::quote(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// One workload, one pass, in this process.
fn run_one(args: &[String]) -> Result<bool, String> {
    let (flags, positional) = parse_args(args)?;
    if let Some(stray) = positional.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    let options = Options {
        workload: flags
            .get("workload")
            .ok_or("--workload is required")?
            .clone(),
        seed: parsed(&flags, "seed", inputs::DEFAULT_SEED)?,
        seconds: parsed(&flags, "seconds", DEFAULT_SECONDS)?,
        trace: parsed::<u8>(&flags, "trace", 0)? != 0,
        scale: scale_of(&flags)?,
        out: flags.get("out").map(PathBuf::from),
    };
    let outcome = workload::run(&options)?;
    for record in &outcome.records {
        println!("{}", record.to_line());
    }
    println!(
        "{}",
        contract_line(&outcome.records, outcome.attempted, outcome.failed)
    );
    Ok(outcome.failed == 0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// All three workloads, pass A (untraced) then pass B (traced), each in a
/// child process so that peak memory and page faults are a workload's own.
fn run_all(args: &[String]) -> Result<bool, String> {
    let (flags, _) = parse_args(args)?;
    let seed: u64 = parsed(&flags, "seed", inputs::DEFAULT_SEED)?;
    let seconds: f64 = parsed(&flags, "seconds", DEFAULT_SECONDS)?;
    let scale = scale_of(&flags)?;
    let out = PathBuf::from(flags.get("out").map_or("linkbench-out", String::as_str));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut header = Header {
        nproc: inputs::nproc(),
        threads: inputs::threads(),
        rustc: command_line("rustc", &["-V"]),
        commit: command_line("git", &["rev-parse", "HEAD"]),
        seed,
        scale: scale.name().to_string(),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or("unknown".to_string(), |k| k.trim().to_string()),
        seconds,
        wall_s: BTreeMap::new(),
    };
    let mut records = Vec::new();
    let mut healthy = true;
    for workload in WORKLOADS {
        for (pass, trace) in [("A", "0"), ("B", "1")] {
            let started = Instant::now();
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--trace",
                    trace,
                    "--scale",
                    scale.name(),
                ])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&out)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            header.wall_s.insert(
                format!("{workload}.{pass}"),
                started.elapsed().as_secs_f64(),
            );
            let stdout = String::from_utf8_lossy(&child.stdout);
            let measured = report::records_in(&stdout);
            print!("{}", report::table(&measured));
            if !child.status.success() || measured.is_empty() {
                eprintln!(
                    "linkbench: {workload} pass {pass} failed ({})",
                    child.status
                );
                healthy = false;
            }
            records.extend(measured);
        }
    }
    let path = out.join("results.jsonl");
    let mut text = header.to_line();
    for record in &records {
        text.push('\n');
        text.push_str(&record.to_line());
    }
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("linkbench: wrote {}", path.display());
    let failed = records
        .iter()
        .any(|r| r.kind == Kind::EndToEnd && r.metric == "failed_share" && r.value > 0.0);
    Ok(healthy && !failed)
}

fn check(args: &[String]) -> Result<bool, String> {
    let (flags, files) = parse_args(args)?;
    let [a, b] = files.as_slice() else {
        return Err(
            "usage: linkbench check A.jsonl B.jsonl [--benchmark BENCHMARK.json]".to_string(),
        );
    };
    let benchmark = report::read_benchmark(Path::new(
        flags
            .get("benchmark")
            .map_or("BENCHMARK.json", String::as_str),
    ))?;
    let (text, pass) = report::check(&benchmark, Path::new(a), Path::new(b))?;
    print!("{text}");
    println!("{}", if pass { "check: ok" } else { "check: FAILED" });
    Ok(pass)
}
