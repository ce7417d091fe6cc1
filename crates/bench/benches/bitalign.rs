//! Criterion microbenchmarks of the alignment kernels: BitAlign vs the
//! exact graph DP (PaSGAL-like) vs Myers, across read lengths — the
//! software-side view of the Figure 17 comparison.

use segram_align::{
    bitalign, graph_dp_distance, myers_distance, windowed_bitalign, StartMode, WindowConfig,
};
use segram_graph::{build_graph, DnaSeq, LinearizedGraph};
use segram_sim::{
    generate_reference, simulate_reads, simulate_variants, ErrorProfile, GenomeConfig, ReadConfig,
    VariantConfig,
};
use segram_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};

struct Fixture {
    lin: LinearizedGraph,
    reads: Vec<DnaSeq>,
}

fn fixture(read_len: usize, region_len: usize) -> Fixture {
    let reference = generate_reference(&GenomeConfig::human_like(region_len, 5));
    let variants = simulate_variants(&reference, &VariantConfig::human_like(6));
    let built = build_graph(&reference, variants).expect("synthetic inputs");
    let reads = simulate_reads(
        &built.graph,
        &ReadConfig {
            count: 4,
            len: read_len,
            errors: ErrorProfile::illumina(),
            seed: 7,
        },
    )
    .into_iter()
    .map(|r| r.seq)
    .collect();
    let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars())
        .expect("non-empty graph");
    Fixture { lin, reads }
}

fn bench_short_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("s2g_alignment_short");
    group.sample_size(20);
    for read_len in [100usize, 250] {
        let f = fixture(read_len, 2_000);
        group.bench_with_input(BenchmarkId::new("bitalign", read_len), &f, |b, f| {
            b.iter(|| {
                for read in &f.reads {
                    let _ = bitalign(&f.lin, read, (read.len() / 4) as u32);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("graph_dp", read_len), &f, |b, f| {
            b.iter(|| {
                for read in &f.reads {
                    let _ = graph_dp_distance(&f.lin, read, StartMode::Free);
                }
            })
        });
    }
    group.finish();
}

/// BitAlign as the short-read mapper calls it: a 100 bp read against a
/// candidate region of ~170 characters at `k = 12`. One region holds the
/// read's locus (level 0 or 1 answers, and traceback runs); the other does
/// not, so the threshold is declared exceeded after all `k + 1` levels.
/// Both pay for all levels today; the pair is kept apart so a level stop
/// shows as `_locus` falling below `_miss`.
fn bench_pipeline_region(c: &mut Criterion) {
    let mut group = c.benchmark_group("s2g_pipeline_region");
    group.sample_size(20);
    let f = fixture(100, 2_000);
    let read = &f.reads[0];
    let hit = bitalign(&f.lin, read, 12).expect("simulated read aligns");
    let region = |from: usize| f.lin.window(from, (from + 170).min(f.lin.len()));
    let locus = region(hit.text_start.saturating_sub(35));
    let elsewhere = region((hit.text_start + 900) % (f.lin.len() - 170));
    assert!(bitalign(&locus, read, 12).is_ok() && bitalign(&elsewhere, read, 12).is_err());
    group.bench_function("bitalign_100bp_170c_k12_locus", |b| {
        b.iter(|| bitalign(&locus, read, 12))
    });
    group.bench_function("bitalign_100bp_170c_k12_miss", |b| {
        b.iter(|| bitalign(&elsewhere, read, 12))
    });
    group.finish();
}

fn bench_long_alignment(c: &mut Criterion) {
    let mut group = c.benchmark_group("s2g_alignment_long");
    group.sample_size(10);
    let f = fixture(2_000, 4_000);
    group.bench_function("windowed_bitalign_2kbp", |b| {
        b.iter(|| {
            for read in &f.reads {
                let _ = windowed_bitalign(&f.lin, read, WindowConfig::bitalign(), StartMode::Free);
            }
        })
    });
    group.bench_function("graph_dp_distance_2kbp", |b| {
        b.iter(|| {
            for read in &f.reads {
                let _ = graph_dp_distance(&f.lin, read, StartMode::Free);
            }
        })
    });
    group.finish();
}

fn bench_s2s_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("s2s_kernels");
    group.sample_size(20);
    let reference = generate_reference(&GenomeConfig::human_like(4_000, 9));
    let text = reference.as_slice().to_vec();
    let read = reference.slice(700, 950);
    let lin = LinearizedGraph::from_linear_seq(&reference);
    group.bench_function("bitalign_linear_250bp", |b| {
        b.iter(|| bitalign(&lin, &read, 32))
    });
    group.bench_function("myers_250bp", |b| {
        b.iter(|| myers_distance(&text, read.as_slice()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_short_alignment,
    bench_pipeline_region,
    bench_long_alignment,
    bench_s2s_kernels
);
criterion_main!(benches);
