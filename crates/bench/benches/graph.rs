//! Criterion benchmarks of the graph substrate: construction (the paper's
//! pre-processing step 0.1), topological sorting, linearization, and the
//! structural diff behind `index update`.

use segram_graph::{apply_variants, build_graph, diff_graphs, LinearizedGraph, VariantSet};
use segram_sim::{generate_reference, simulate_variants, GenomeConfig, VariantConfig};
use segram_testkit::bench::{criterion_group, criterion_main, Criterion};

fn bench_graph_substrate(c: &mut Criterion) {
    let reference = generate_reference(&GenomeConfig::human_like(100_000, 21));
    let variants = simulate_variants(&reference, &VariantConfig::human_like(22));

    let mut group = c.benchmark_group("graph_substrate");
    group.sample_size(10);
    group.bench_function("build_graph_100kbp", |b| {
        b.iter(|| build_graph(&reference, variants.clone()))
    });

    let built = build_graph(&reference, variants.clone()).expect("synthetic inputs");
    group.bench_function("topological_sort", |b| {
        b.iter(|| built.graph.topological_sort())
    });
    group.bench_function("linearize_full_graph", |b| {
        b.iter(|| LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()))
    });
    let delta: VariantSet = simulate_variants(&reference, &VariantConfig::human_like(23))
        .iter()
        .step_by(50)
        .cloned()
        .collect();
    let update = apply_variants(&reference, &built.applied, &delta, 0).expect("delta applies");
    group.bench_function("diff_graphs_delta", |b| {
        b.iter(|| diff_graphs(&update.old, &update.new))
    });
    group.bench_function("extract_1kbp_region", |b| {
        b.iter(|| LinearizedGraph::extract(&built.graph, 50_000, 51_000))
    });
    group.finish();
}

criterion_group!(benches, bench_graph_substrate);
criterion_main!(benches);
