//! End-to-end smoke tests at `--scale tiny`: the command line, the result
//! files and `check`, against the metric names `BENCHMARK.json` declares.

use linkbench::json;
use linkbench::report::{self, Benchmark, Header, Kind, Record};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const EXE: &str = env!("CARGO_BIN_EXE_linkbench");

fn benchmark_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn benchmark() -> Benchmark {
    report::read_benchmark(&benchmark_path()).expect("BENCHMARK.json reads")
}

/// A scratch directory of this test binary; children run inside it, so
/// their work directories land there too.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// `linkbench run` at the tiny scale with reps cut short.
fn run_suite(name: &str, seed: u64) -> (PathBuf, Header, Vec<Record>) {
    let dir = scratch(name);
    let status = Command::new(EXE)
        .current_dir(&dir)
        .args(["run", "--scale", "tiny", "--seconds", "0.1", "--out", "out"])
        .args(["--seed", &seed.to_string()])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("linkbench runs");
    assert!(status.success(), "`linkbench run` failed: {status}");
    let results = dir.join("out/results.jsonl");
    let (header, records) = report::read_results(&results).expect("results read back");
    (results, header, records)
}

fn seed_three() -> &'static (PathBuf, Header, Vec<Record>) {
    static SUITE: OnceLock<(PathBuf, Header, Vec<Record>)> = OnceLock::new();
    SUITE.get_or_init(|| run_suite("seed3", 3))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload() {
    let benchmark = benchmark();
    let (results, header, records) = seed_three();
    assert_eq!(benchmark.workloads, linkbench::workload::WORKLOADS);
    assert_eq!((header.seed, header.scale.as_str()), (3, "tiny"));
    assert_eq!(header.wall_s.len(), 2 * benchmark.workloads.len());
    for workload in &benchmark.workloads {
        for (kind, declared) in [
            (Kind::EndToEnd, &benchmark.end_to_end),
            (Kind::Layer, &benchmark.per_layer),
        ] {
            for metric in declared {
                assert!(
                    valid_name(&metric.name),
                    "{:?} is not a metric name",
                    metric.name
                );
                let emitted: Vec<&Record> = records
                    .iter()
                    .filter(|r| &r.workload == workload && r.metric == metric.name)
                    .collect();
                assert_eq!(emitted.len(), 1, "{workload} {}", metric.name);
                assert_eq!(
                    (emitted[0].kind, &emitted[0].unit, &emitted[0].better),
                    (kind, &metric.unit, &metric.better),
                    "{workload} {}",
                    metric.name
                );
                assert!(
                    emitted[0].summary.n >= 1,
                    "{workload} {} has no sample",
                    metric.name
                );
            }
        }
        let failed = records
            .iter()
            .find(|r| &r.workload == workload && r.metric == "failed_share")
            .expect("failed_share is reported");
        assert_eq!(failed.value, 0.0, "{workload} failed an oracle");
        assert!(results
            .with_file_name(format!("trace-{workload}.jsonl"))
            .exists());
    }
    // Nothing undeclared besides `failed_share` and the dense-output
    // reference pair of `batch_standard`.
    let declared = benchmark.end_to_end.len() + benchmark.per_layer.len() + 1;
    assert_eq!(
        records.len(),
        declared * benchmark.workloads.len() + linkbench::layers::DENSE_REFERENCE.len()
    );
}

/// The last line of a single-workload run: the contract's result object.
fn contract_metrics(workload: &str, trace: &str) -> json::Json {
    let dir = scratch(&format!("contract-{workload}-{trace}"));
    let output = Command::new(EXE)
        .current_dir(&dir)
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0.1",
            "--trace",
            trace,
            "--scale",
            "tiny",
        ])
        .output()
        .expect("linkbench runs");
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn the_result_line_holds_exactly_the_declared_metrics_of_its_pass() {
    let benchmark = benchmark();
    for (trace, declared) in [("0", &benchmark.end_to_end), ("1", &benchmark.per_layer)] {
        let line = contract_metrics("batch_bigram", trace);
        assert_eq!(line.get("correct"), Some(&json::Json::Bool(true)));
        assert!(line.num("attempted").unwrap() >= 1.0);
        assert_eq!(line.num("failed"), Some(0.0));
        let json::Json::Obj(metrics) = line.get("metrics").unwrap() else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "--trace {trace}");
        for metric in declared {
            assert_eq!(
                metrics[&metric.name].str("unit"),
                Some(metric.unit.as_str())
            );
            assert!(metrics[&metric.name].num("value").is_some());
        }
    }
}

#[test]
fn a_seed_repeats_its_exact_counts_and_another_seed_changes_them() {
    let (_, _, first) = seed_three();
    let (_, _, again) = run_suite("seed3-again", 3);
    let (_, _, other) = run_suite("seed4", 4);
    let exact = |records: &[Record]| -> Vec<(String, String, f64)> {
        records
            .iter()
            .filter(|r| report::repeats_exactly(&r.metric))
            .map(|r| (r.workload.clone(), r.metric.clone(), r.value))
            .collect()
    };
    assert!(exact(first).len() >= 3 * 8);
    assert_eq!(exact(first), exact(&again));
    assert_ne!(exact(first), exact(&other));
}

fn check(a: &Path, b: &Path) -> bool {
    let output = Command::new(EXE)
        .arg("check")
        .args([a, b])
        .arg("--benchmark")
        .arg(benchmark_path())
        .output()
        .expect("linkbench check runs");
    assert!(
        output.status.code().is_some_and(|code| code < 2),
        "check could not compare the files"
    );
    output.status.success()
}

#[test]
fn check_passes_a_file_against_itself_and_fails_a_slower_link() {
    let (results, _, _) = seed_three();
    assert!(check(results, results));

    // Two copies with the samples of one `link_s` made tight, so that the
    // change cannot hide in the spread (a 0.1 s tiny-scale run is noisy);
    // in the second the value is worse by twice its bound.
    let bound = benchmark()
        .end_to_end
        .iter()
        .find(|m| m.name == "link_s")
        .and_then(|m| m.bound)
        .expect("link_s has a bound");
    let rewritten = |name: &str, factor: f64| -> PathBuf {
        let path = results.with_file_name(name);
        let text: String = std::fs::read_to_string(results)
            .unwrap()
            .lines()
            .map(|line| match report::records_in(line).pop() {
                Some(mut record)
                    if record.workload == "batch_standard" && record.metric == "link_s" =>
                {
                    record.value *= factor;
                    record.summary.q1 = record.summary.median;
                    record.summary.q3 = record.summary.median;
                    record.to_line() + "\n"
                }
                _ => line.to_string() + "\n",
            })
            .collect();
        std::fs::write(&path, text).unwrap();
        path
    };
    let (tight, slower) = (
        rewritten("tight.jsonl", 1.0),
        rewritten("slower.jsonl", 1.0 + 2.0 * bound),
    );
    assert!(check(&tight, &tight));
    assert!(!check(&tight, &slower));
    assert!(check(&slower, &tight), "a faster link is not a regression");

    // Files measured on different seeds are refused.
    let (other, _, _) = run_suite("seed5", 5);
    let refused = Command::new(EXE)
        .arg("check")
        .args([results, &other])
        .arg("--benchmark")
        .arg(benchmark_path())
        .status()
        .unwrap();
    assert_eq!(refused.code(), Some(2));
}
