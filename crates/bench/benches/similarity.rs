//! Micro-benchmark of the string-similarity measures used by the downstream
//! linking method.
//!
//! Two series per measure: `compare_pairs/*` is the classic per-call API
//! (allocates char buffers / hash sets per pair — the pre-PR-3
//! behaviour), `scratch_pairs/*` threads one reusable [`SimScratch`]
//! through the kernel variants (the comparison hot path; for the
//! edit/Jaro family this is the allocation-free path, the set measures
//! additionally need the store-level token index, measured end to end
//! by `linkbench`).

use classilink_bench::part_number_corpus;
use classilink_linking::{SimScratch, SimilarityMeasure};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_similarity(c: &mut Criterion) {
    let corpus = part_number_corpus(200);
    let pairs: Vec<(&str, &str)> = corpus
        .iter()
        .zip(corpus.iter().skip(1))
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let mut group = c.benchmark_group("similarity");
    group.throughput(Throughput::Elements(pairs.len() as u64));
    for measure in SimilarityMeasure::all() {
        group.bench_with_input(
            BenchmarkId::new("compare_pairs", measure.name()),
            &pairs,
            |b, pairs| {
                b.iter(|| {
                    pairs
                        .iter()
                        .map(|(x, y)| measure.compare(x, y))
                        .sum::<f64>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scratch_pairs", measure.name()),
            &pairs,
            |b, pairs| {
                let mut scratch = SimScratch::new();
                b.iter(|| {
                    pairs
                        .iter()
                        .map(|(x, y)| measure.compare_with(&mut scratch, x, y))
                        .sum::<f64>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_similarity);
criterion_main!(benches);
