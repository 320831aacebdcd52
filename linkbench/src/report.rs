//! Result files and `linkbench check`.
//!
//! A result file is JSON lines: one run header, then one flat record per
//! workload × metric (`workload, metric, kind, unit, better, n, min, q1,
//! median, q3, max, value`). `value` is the statistic that is compared and
//! gated (see the README for which one each metric uses); the five-number
//! summary beside it is over the samples of the run.

use crate::json::{self, Json};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    Layer,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::EndToEnd => "end_to_end",
            Kind::Layer => "per_layer",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    pub kind: Kind,
    pub unit: String,
    pub better: String,
    pub summary: Summary,
    pub value: f64,
}

/// A float as JSON, with all its digits.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

impl Record {
    pub fn to_line(&self) -> String {
        let s = &self.summary;
        format!(
            "{{\"workload\":{},\"metric\":{},\"kind\":\"{}\",\"unit\":{},\"better\":\"{}\",\"n\":{},\
             \"min\":{},\"q1\":{},\"median\":{},\"q3\":{},\"max\":{},\"value\":{}}}",
            json::quote(&self.workload),
            json::quote(&self.metric),
            self.kind.name(),
            json::quote(&self.unit),
            self.better,
            s.n,
            number(s.min),
            number(s.q1),
            number(s.median),
            number(s.q3),
            number(s.max),
            number(self.value),
        )
    }

    fn from_json(line: &Json) -> Option<Record> {
        Some(Record {
            workload: line.str("workload")?.to_string(),
            metric: line.str("metric")?.to_string(),
            kind: match line.str("kind")? {
                "end_to_end" => Kind::EndToEnd,
                "per_layer" => Kind::Layer,
                _ => return None,
            },
            unit: line.str("unit")?.to_string(),
            better: line.str("better")?.to_string(),
            summary: Summary {
                n: line.num("n")? as usize,
                min: line.num("min")?,
                q1: line.num("q1")?,
                median: line.num("median")?,
                q3: line.num("q3")?,
                max: line.num("max")?,
            },
            value: line.num("value")?,
        })
    }
}

/// Where and how a result file was measured.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Header {
    pub nproc: usize,
    pub threads: usize,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
    pub scale: String,
    pub kernel: String,
    pub seconds: f64,
    /// Wall time of each child process, keyed `<workload>.<A|B>`.
    pub wall_s: BTreeMap<String, f64>,
}

impl Header {
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "{{\"header\":true,\"nproc\":{},\"threads\":{},\"rustc\":{},\"commit\":{},\"seed\":{},\
             \"scale\":{},\"kernel\":{},\"seconds\":{}",
            self.nproc,
            self.threads,
            json::quote(&self.rustc),
            json::quote(&self.commit),
            self.seed,
            json::quote(&self.scale),
            json::quote(&self.kernel),
            number(self.seconds),
        );
        for (key, wall) in &self.wall_s {
            let _ = write!(
                line,
                ",{}:{}",
                json::quote(&format!("wall_s.{key}")),
                number(*wall)
            );
        }
        line.push('}');
        line
    }

    fn from_json(line: &Json) -> Option<Header> {
        let mut wall_s = BTreeMap::new();
        if let Json::Obj(map) = line {
            for (key, value) in map {
                if let (Some(key), Json::Num(wall)) = (key.strip_prefix("wall_s."), value) {
                    wall_s.insert(key.to_string(), *wall);
                }
            }
        }
        Some(Header {
            nproc: line.num("nproc")? as usize,
            threads: line.num("threads")? as usize,
            rustc: line.str("rustc")?.to_string(),
            commit: line.str("commit")?.to_string(),
            seed: line.num("seed")? as u64,
            scale: line.str("scale")?.to_string(),
            kernel: line.str("kernel")?.to_string(),
            seconds: line.num("seconds")?,
            wall_s,
        })
    }
}

/// The record lines among `text`'s lines (a child's standard output mixes
/// them with its final contract line, which is skipped).
pub fn records_in(text: &str) -> Vec<Record> {
    text.lines()
        .filter_map(|line| json::parse(line).ok())
        .filter_map(|line| Record::from_json(&line))
        .collect()
}

pub fn read_results(path: &Path) -> Result<(Header, Vec<Record>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = text
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .find(|line| line.get("header").is_some())
        .and_then(|line| Header::from_json(&line))
        .ok_or_else(|| format!("{}: no run header", path.display()))?;
    Ok((header, records_in(&text)))
}

/// One declared metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Benchmark {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: f64,
}

pub fn read_benchmark(path: &Path) -> Result<Benchmark, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let declared = |key: &str| -> Vec<Declared> {
        doc.arr(key)
            .iter()
            .filter_map(|m| {
                Some(Declared {
                    name: m.str("name")?.to_string(),
                    unit: m.str("unit")?.to_string(),
                    better: m.str("better")?.to_string(),
                    bound: m.num("bound"),
                })
            })
            .collect()
    };
    Ok(Benchmark {
        workloads: doc
            .arr("workloads")
            .iter()
            .filter_map(|w| w.str("name").map(str::to_string))
            .collect(),
        end_to_end: declared("end_to_end"),
        per_layer: declared("per_layer"),
        run_seconds: doc.num("run_seconds").unwrap_or(0.0),
    })
}

/// Counts that two runs on the same seed must repeat exactly.
pub fn repeats_exactly(metric: &str) -> bool {
    metric.starts_with("pair_")
        || metric == "reduction_ratio"
        || metric.ends_with(".candidates")
        || metric == "pipeline.comparisons"
        || matches!(
            metric,
            "blocking.bigram.postings_skipped_length"
                | "blocking.bigram.grams_skipped_prefix"
                | "blocking.bigram.postings_skipped_position"
                | "blocking.bigram.verify_merges"
        )
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The change exceeds the bound but so does the spread of a side's own
    /// samples: not shown either way.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    let delta = if better == "higher" { a - b } else { b - a };
    if a == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

pub fn judge(declared: &Declared, a: &Record, b: &Record) -> Verdict {
    if repeats_exactly(&declared.name) {
        return if a.value == b.value {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    let bound = declared.bound.unwrap_or(0.0);
    if worsening(&declared.better, a.value, b.value) <= bound {
        Verdict::Ok
    } else if a.summary.spread() > bound || b.summary.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// `linkbench check A B`: the report, and whether B passes against A.
pub fn check(
    benchmark: &Benchmark,
    a_path: &Path,
    b_path: &Path,
) -> Result<(String, bool), String> {
    let (a_header, a) = read_results(a_path)?;
    let (b_header, b) = read_results(b_path)?;
    if (a_header.seed, &a_header.scale, a_header.threads)
        != (b_header.seed, &b_header.scale, b_header.threads)
    {
        return Err(format!(
            "not comparable: seed/scale/threads are {}/{}/{} and {}/{}/{}",
            a_header.seed,
            a_header.scale,
            a_header.threads,
            b_header.seed,
            b_header.scale,
            b_header.threads
        ));
    }
    let find = |records: &[Record], workload: &str, metric: &str| -> Option<Record> {
        records
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .cloned()
    };
    let mut report = String::new();
    let mut pass = true;
    let _ = writeln!(
        report,
        "{:<16} {:<28} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for workload in &benchmark.workloads {
        for declared in &benchmark.end_to_end {
            let (Some(ra), Some(rb)) = (
                find(&a, workload, &declared.name),
                find(&b, workload, &declared.name),
            ) else {
                let _ = writeln!(
                    report,
                    "{workload:<16} {:<28} missing from a result file",
                    declared.name
                );
                pass = false;
                continue;
            };
            let verdict = judge(declared, &ra, &rb);
            pass &= verdict != Verdict::Regressed;
            let _ = writeln!(
                report,
                "{workload:<16} {:<28} {:>14.6} {:>14.6} {:>+7.1}%  {}",
                declared.name,
                ra.value,
                rb.value,
                100.0 * worsening("lower", ra.value, rb.value),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
        // Exact-repeat counts among the per-layer records, and failures.
        for ra in a.iter().filter(|r| &r.workload == workload) {
            let Some(rb) = find(&b, workload, &ra.metric) else {
                continue;
            };
            let layer_count_differs =
                ra.kind == Kind::Layer && repeats_exactly(&ra.metric) && ra.value != rb.value;
            let more_failures = ra.metric == "failed_share" && rb.value > ra.value;
            if layer_count_differs || more_failures {
                pass = false;
                let _ = writeln!(
                    report,
                    "{workload:<16} {:<28} {:>14.6} {:>14.6} {:>8}  regressed",
                    ra.metric, ra.value, rb.value, "",
                );
            }
        }
    }
    Ok((report, pass))
}

/// The `workload metric value unit` table of a result set.
pub fn table(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(
            out,
            "{:<16} {:<44} {:>16} {}",
            r.workload,
            r.metric,
            number(r.value),
            r.unit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(metric: &str, value: f64, spread: f64) -> Record {
        Record {
            workload: "w".into(),
            metric: metric.into(),
            kind: Kind::EndToEnd,
            unit: "s".into(),
            better: "lower".into(),
            summary: Summary {
                n: 5,
                min: value,
                q1: value,
                median: value,
                q3: value * (1.0 + spread),
                max: value * (1.0 + spread),
            },
            value,
        }
    }

    fn declared(name: &str, better: &str, bound: f64) -> Declared {
        Declared {
            name: name.into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn records_and_headers_round_trip() {
        let r = record("link_s", 0.123456789012, 0.05);
        assert_eq!(records_in(&r.to_line()), vec![r]);
        let header = Header {
            nproc: 2,
            threads: 2,
            rustc: "rustc 1.95.0 (\"x\")".into(),
            commit: "unknown".into(),
            seed: 20120326,
            scale: "paper".into(),
            kernel: "6.18".into(),
            seconds: 12.0,
            wall_s: [("batch_standard.A".to_string(), 19.5)].into(),
        };
        let parsed = Header::from_json(&json::parse(&header.to_line()).unwrap()).unwrap();
        assert_eq!(parsed, header);
    }

    #[test]
    fn a_change_is_judged_against_the_bound_and_the_spread() {
        let link = declared("link_s", "lower", 0.10);
        assert_eq!(
            judge(
                &link,
                &record("link_s", 1.0, 0.0),
                &record("link_s", 1.09, 0.0)
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge(
                &link,
                &record("link_s", 1.0, 0.0),
                &record("link_s", 1.2, 0.0)
            ),
            Verdict::Regressed
        );
        assert_eq!(
            judge(
                &link,
                &record("link_s", 1.0, 0.3),
                &record("link_s", 1.2, 0.0)
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &link,
                &record("link_s", 1.0, 0.0),
                &record("link_s", 0.5, 0.0)
            ),
            Verdict::Ok
        );
        let recall = declared("pair_recall", "higher", 0.05);
        assert_eq!(
            judge(
                &recall,
                &record("pair_recall", 0.6, 0.0),
                &record("pair_recall", 0.6, 0.0)
            ),
            Verdict::Ok
        );
        // Exact-repeat counts ignore the bound: any difference fails.
        assert_eq!(
            judge(
                &recall,
                &record("pair_recall", 0.6, 0.0),
                &record("pair_recall", 0.61, 0.0)
            ),
            Verdict::Regressed
        );
        let rss = declared("peak_rss_mb", "lower", 0.10);
        assert_eq!(
            judge(
                &rss,
                &record("peak_rss_mb", 100.0, 0.0),
                &record("peak_rss_mb", 111.0, 0.0)
            ),
            Verdict::Regressed
        );
    }
}
