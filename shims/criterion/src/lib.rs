//! Minimal wall-clock stand-in for `criterion` 0.5 (see
//! `shims/README.md`).
//!
//! Provides the API surface the workspace's bench targets use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`], [`BenchmarkId`],
//! [`Throughput`], [`black_box`] and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Timing is plain `std::time::Instant`: each
//! benchmark warms up briefly, then runs enough iterations to fill a
//! small measurement window and prints one summary line. No statistics,
//! no plots — the goal is that `cargo bench` runs the real pipelines
//! end-to-end and reports a usable per-iteration time.
//!
//! Two environment variables hook the shim into CI and snapshots:
//!
//! * `CLASSILINK_BENCH_QUICK=1` — smoke mode: run every benchmark for a
//!   single iteration (no measurement window). CI uses this to assert
//!   bench code still compiles and runs without paying full bench time.
//! * `CLASSILINK_BENCH_JSON=<path>` — append one JSON line per
//!   benchmark (`label`, `mean_ns`, iterations, optional throughput
//!   rate) to `<path>`, so runs can be committed as snapshots (e.g. the
//!   `BENCH_pr*.json` series under `crates/bench/history/`).

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export so `use criterion::black_box` works as upstream.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\nbenchmark group: {name}");
        BenchmarkGroup {
            _criterion: self,
            group: name,
            throughput: None,
            sample_size: 10,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        run_benchmark(None, &id.render(), None, 10, f);
    }
}

/// A named set of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    group: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples (the shim folds this into the
    /// measurement window).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declare how much work one iteration performs.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmark a closure under an id.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        run_benchmark(
            Some(&self.group),
            &id.render(),
            self.throughput,
            self.sample_size,
            f,
        );
        self
    }

    /// Benchmark a closure over a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// End the group (upstream consumes `self`; the shim keeps the
    /// signature).
    pub fn finish(self) {}
}

/// Work-per-iteration declaration, used to print a rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier, optionally parameterised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    name: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// An id with a function name and a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: name.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// An id from a parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            name: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self) -> String {
        match &self.parameter {
            Some(p) if self.name.is_empty() => p.clone(),
            Some(p) => format!("{}/{}", self.name, p),
            None => self.name.clone(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            name: name.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId {
            name,
            parameter: None,
        }
    }
}

/// Passed to the benchmark closure; [`Bencher::iter`] does the timing.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over this sample's iterations.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// `true` when `CLASSILINK_BENCH_QUICK` requests single-iteration smoke
/// runs.
fn quick_mode() -> bool {
    std::env::var("CLASSILINK_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Append one JSON result line to the `CLASSILINK_BENCH_JSON` file, if
/// requested. Failures to write are reported but never fail the bench.
fn append_json(label: &str, mean: Duration, iterations: u64, throughput: Option<Throughput>) {
    let Ok(path) = std::env::var("CLASSILINK_BENCH_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!(
            ",\"elements\":{n},\"elements_per_sec\":{:.1}",
            n as f64 / mean.as_secs_f64()
        ),
        Some(Throughput::Bytes(n)) => format!(
            ",\"bytes\":{n},\"bytes_per_sec\":{:.1}",
            n as f64 / mean.as_secs_f64()
        ),
        None => String::new(),
    };
    let line = format!(
        "{{\"label\":{label:?},\"mean_ns\":{},\"iterations\":{iterations}{rate}}}\n",
        mean.as_nanos()
    );
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut file| std::io::Write::write_all(&mut file, line.as_bytes()));
    if let Err(error) = written {
        eprintln!("criterion shim: cannot append to {path}: {error}");
    }
}

fn run_benchmark(
    group: Option<&str>,
    name: &str,
    throughput: Option<Throughput>,
    sample_size: usize,
    mut f: impl FnMut(&mut Bencher),
) {
    // One calibration pass: how long does a single iteration take?
    let mut calibration = Bencher {
        iterations: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut calibration);
    let per_iter = calibration.elapsed.max(Duration::from_nanos(1));

    let label = match group {
        Some(g) => format!("{g}/{name}"),
        None => name.to_string(),
    };
    if quick_mode() {
        // Smoke mode: the calibration pass already proved the bench
        // runs; report it and move on.
        println!("{label:<50} time: {per_iter:>12.3?}/iter  [1 iter, quick]");
        append_json(&label, per_iter, 1, throughput);
        return;
    }

    // Aim for a measurement window proportional to the requested sample
    // count, capped so slow pipeline benches stay responsive.
    let window = Duration::from_millis((20 * sample_size as u64).clamp(50, 1_000));
    let iterations = (window.as_nanos() / per_iter.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut bencher = Bencher {
        iterations,
        elapsed: Duration::ZERO,
    };
    f(&mut bencher);
    let mean = bencher.elapsed / iterations.max(1) as u32;

    let rate = throughput
        .map(|t| match t {
            Throughput::Elements(n) => {
                format!("  ({:.1} Kelem/s)", n as f64 / mean.as_secs_f64() / 1e3)
            }
            Throughput::Bytes(n) => {
                format!(
                    "  ({:.1} MiB/s)",
                    n as f64 / mean.as_secs_f64() / (1 << 20) as f64
                )
            }
        })
        .unwrap_or_default();
    println!("{label:<50} time: {mean:>12.3?}/iter  [{iterations} iters]{rate}");
    append_json(&label, mean, iterations, throughput);
}

/// Mirror of `criterion_group!`: builds a function running each target.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Mirror of `criterion_main!`: the bench binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_runs_and_times() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-self-test");
        group.sample_size(1);
        group.throughput(Throughput::Elements(10));
        let mut runs = 0u64;
        group.bench_function("counting", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.bench_with_input(BenchmarkId::new("param", 3), &3usize, |b, n| {
            b.iter(|| n * 2)
        });
        group.finish();
        assert!(runs > 0);
    }

    #[test]
    fn benchmark_id_renders_all_forms() {
        assert_eq!(BenchmarkId::new("f", "x").render(), "f/x");
        assert_eq!(BenchmarkId::from_parameter(7).render(), "7");
        assert_eq!(BenchmarkId::from("plain").render(), "plain");
    }
}
