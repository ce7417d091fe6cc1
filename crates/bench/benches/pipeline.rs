//! Criterion benchmarks of end-to-end mapping: SeGraM's software pipeline
//! vs the baseline mappers — the per-read software costs behind the
//! Figure 15/16 throughput measurements.

use segram_core::{
    BaselineMapper, EngineOptions, GraphAlignerLike, MapEngine, SegramConfig, SegramMapper, VgLike,
};
use segram_sim::DatasetConfig;
use segram_testkit::bench::{criterion_group, criterion_main, Criterion};

fn bench_end_to_end(c: &mut Criterion) {
    let dataset = DatasetConfig {
        reference_len: 100_000,
        read_count: 8,
        long_read_len: 2_000,
        seed: 77,
    }
    .illumina(150);
    let mut config = SegramConfig::short_reads();
    config.max_regions = 8;
    let segram = SegramMapper::new(dataset.graph().clone(), config);
    let ga = GraphAlignerLike::new(dataset.graph().clone(), config);
    let vg = VgLike::new(dataset.graph().clone(), config);

    let mut group = c.benchmark_group("end_to_end_150bp");
    group.sample_size(10);
    group.bench_function("segram_software", |b| {
        // The SeGraM software pipeline runs through the engine (serial
        // configuration), the same path `segram map --threads 1` takes.
        let engine = MapEngine::new(&segram, EngineOptions::new().threads(1));
        b.iter(|| engine.map_stream(dataset.reads.iter(), |r| &r.seq, |_, _| {}))
    });
    group.bench_function("graphaligner_like", |b| {
        b.iter(|| {
            for read in &dataset.reads {
                let _ = ga.map_read(&read.seq);
            }
        })
    });
    group.bench_function("vg_like", |b| {
        b.iter(|| {
            for read in &dataset.reads {
                let _ = vg.map_read(&read.seq);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
