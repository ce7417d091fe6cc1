//! Criterion microbenchmarks of the seeding path: minimizer extraction
//! (the O(m) single-loop algorithm), index construction and its phases,
//! index lookups, and full MinSeed seeding per read.

use segram_index::{
    extract_minimizers, extract_minimizers_from, frequency_threshold, GraphIndex, MinSeed,
    MinSeedConfig, MinimizerScheme,
};
use segram_io::{read_fasta, write_fasta, Ambiguity, FastaRecord};
use segram_sim::{
    generate_reference, simulate_reads, simulate_variants, ErrorProfile, GenomeConfig, ReadConfig,
    VariantConfig,
};
use segram_testkit::bench::{criterion_group, criterion_main, Criterion};

fn bench_minimizer_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("minimizer_extraction");
    group.sample_size(30);
    let reference = generate_reference(&GenomeConfig::human_like(50_000, 3));
    let read_10k = reference.slice(0, 10_000);
    let read_150 = reference.slice(0, 150);
    let scheme = MinimizerScheme::new(10, 15);
    group.bench_function("10kbp_read", |b| {
        b.iter(|| extract_minimizers(&read_10k, &scheme))
    });
    group.bench_function("150bp_read", |b| {
        b.iter(|| extract_minimizers(&read_150, &scheme))
    });
    group.finish();
}

fn bench_index_and_seeding(c: &mut Criterion) {
    let reference = generate_reference(&GenomeConfig::human_like(100_000, 11));
    let variants = simulate_variants(&reference, &VariantConfig::human_like(12));
    let built = segram_graph::build_graph(&reference, variants).expect("synthetic inputs");
    let scheme = MinimizerScheme::new(10, 15);

    let mut group = c.benchmark_group("index");
    group.sample_size(10);
    group.bench_function("build_100kbp", |b| {
        b.iter(|| GraphIndex::build(&built.graph, scheme, 16))
    });
    group.finish();

    let index = GraphIndex::build(&built.graph, scheme, 16);
    let minseed = MinSeed::new(
        &built.graph,
        &index,
        MinSeedConfig {
            error_rate: 0.05,
            frequency_threshold: frequency_threshold(&index, 0.0002),
        },
    );
    let reads: Vec<_> = simulate_reads(
        &built.graph,
        &ReadConfig {
            count: 8,
            len: 150,
            errors: ErrorProfile::illumina(),
            seed: 13,
        },
    )
    .into_iter()
    .map(|r| r.seq)
    .collect();

    let minimizers: Vec<_> = reads
        .iter()
        .flat_map(|read| extract_minimizers(read, &scheme))
        .collect();

    let mut group = c.benchmark_group("seeding");
    group.sample_size(30);
    group.bench_function("minseed_150bp_read", |b| {
        b.iter(|| {
            for read in &reads {
                let _ = minseed.seed(read);
            }
        })
    });
    // The index half of seeding alone: every minimizer of the eight reads
    // looked up (frequency and locations).
    group.bench_function("lookup_150bp_read", |b| {
        b.iter(|| {
            minimizers
                .iter()
                .map(|m| index.frequency(m.rank) as usize + index.lookup(m).len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// The phases of `segram index build` on one 2 Mbp reference, so the
/// README's phase table can be regenerated: FASTA decode, minimizer
/// extraction over every node, the whole `GraphIndex::build` (extraction,
/// filing into bucket runs and ordering them, level assembly), and level
/// assembly alone — the one-shard `extract_shard` streams the finished
/// index's sorted pairs through the same level builder. Filing and
/// ordering is `build` minus the other two.
fn bench_index_build_phases(c: &mut Criterion) {
    let reference = generate_reference(&GenomeConfig::human_like(2_000_000, 17));
    let fasta = write_fasta(&[FastaRecord::new("chr1", reference.clone())], 60);
    let variants = simulate_variants(&reference, &VariantConfig::human_like(18));
    let graph = segram_graph::build_graph(&reference, variants)
        .expect("synthetic inputs")
        .graph;
    let scheme = MinimizerScheme::new(10, 15);
    let index = GraphIndex::build(&graph, scheme, 16);
    let whole = [0, graph.total_chars()];

    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_function("fasta_decode_2mbp", |b| {
        b.iter(|| read_fasta(&fasta, Ambiguity::Reject).expect("own FASTA"))
    });
    group.bench_function("extraction_2mbp", |b| {
        b.iter(|| {
            graph
                .node_ids()
                .map(|node| extract_minimizers_from(graph.seq(node), &scheme).len())
                .sum::<usize>()
        })
    });
    group.bench_function("build_2mbp", |b| {
        b.iter(|| GraphIndex::build(&graph, scheme, 16))
    });
    group.bench_function("level_assembly_2mbp", |b| {
        b.iter(|| index.extract_shard(&graph, &whole, 0))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_minimizer_extraction,
    bench_index_and_seeding,
    bench_index_build_phases
);
criterion_main!(benches);
