//! Criterion benchmarks of the batched multi-threaded `MapEngine`: batch
//! throughput at 1/2/4 worker threads (the baseline perf trajectory for
//! the scaling PRs — async IO, region batching) plus the backend matrix
//! (the native index and every baseline × thread count through the same
//! engine, the apples-to-apples throughput comparison the paper's
//! evaluation rests on). Sharded-index throughput and load-balance live in
//! `benches/sharding.rs`; these benches run in CI's bench-smoke tier
//! (`SEGRAM_BENCH_SAMPLES`/`SEGRAM_BENCH_JSON`).

use segram_core::{
    sam_record_for, BaselineAdapter, EngineOptions, GraphAlignerLike, HgaLike, MapEngine,
    ReadMapper, SegramConfig, SegramMapper, ShardedIndex, VgLike,
};
use segram_graph::DnaSeq;
use segram_io::{
    bgzf_compress, write_fastq, Ambiguity, BgzfFastqFramer, BgzfMode, FastqFramer, FastqRecord,
    SamWriter,
};
use segram_sim::DatasetConfig;
use segram_testkit::bench::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};

fn bench_engine_batch(c: &mut Criterion) {
    let dataset = DatasetConfig {
        reference_len: 100_000,
        read_count: 32,
        long_read_len: 2_000,
        seed: 171,
    }
    .illumina(150);
    let mut config = SegramConfig::short_reads();
    config.max_regions = 8;
    let mapper = SegramMapper::new(dataset.graph().clone(), config);
    let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();

    let mut group = c.benchmark_group("engine_batch_150bp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));
    for threads in [1usize, 2, 4] {
        // The same shared builder the CLI's map/serve paths configure
        // their engines with.
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(threads));
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                let (outcomes, report) = engine.map_batch(black_box(&reads));
                black_box((outcomes.len(), report.mapped))
            })
        });
    }
    group.finish();
}

fn bench_backend_matrix(c: &mut Criterion) {
    // A smaller dataset than the engine-batch one: the HGA-like backend
    // runs whole-graph DP per read, so the matrix stays affordable while
    // still ranking the backends' relative throughput.
    let dataset = DatasetConfig {
        reference_len: 20_000,
        read_count: 16,
        long_read_len: 2_000,
        seed: 175,
    }
    .illumina(100);
    let mut config = SegramConfig::short_reads();
    config.max_regions = 8;
    let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();

    let mut group = c.benchmark_group("backend_matrix_100bp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));
    let graph = || dataset.graph().clone();
    bench_mapper(&mut group, &ShardedIndex::build(graph(), config, 1), &reads);
    let graphaligner = GraphAlignerLike::new(graph(), config);
    bench_mapper(
        &mut group,
        &BaselineAdapter::new(graphaligner, config, "graphaligner"),
        &reads,
    );
    let vg = VgLike::new(graph(), config);
    bench_mapper(&mut group, &BaselineAdapter::new(vg, config, "vg"), &reads);
    let hga = HgaLike::new(graph());
    bench_mapper(
        &mut group,
        &BaselineAdapter::new(hga, config, "hga"),
        &reads,
    );
    group.finish();
}

/// One mapper's row of the backend matrix: `<name>/t1` and `<name>/t4`.
fn bench_mapper<M: ReadMapper>(group: &mut BenchmarkGroup<'_>, mapper: &M, reads: &[DnaSeq]) {
    for threads in [1usize, 4] {
        let engine = MapEngine::new(mapper, EngineOptions::new().threads(threads));
        let id = BenchmarkId::new(mapper.backend_name(), format!("t{threads}"));
        group.bench_function(id, |b| {
            b.iter(|| {
                let (outcomes, report) = engine.map_batch(black_box(reads));
                black_box((outcomes.len(), report.mapped))
            })
        });
    }
}

fn bench_engine_stream_io(c: &mut Criterion) {
    // The IO-inclusive path `segram map` actually runs: FASTQ bytes ->
    // FastqFramer + decode (producer) -> map -> render -> SAM writer on
    // the dedicated writer thread. Unlike engine_batch —
    // which starts from pre-decoded reads and discards outcomes into a
    // Vec — this measures whether the overlapped design keeps transport
    // work off the mapping workers: on a multi-core host, 1 -> 4 threads
    // should scale near-linearly where the old serial-ends path was flat.
    let dataset = DatasetConfig {
        reference_len: 100_000,
        read_count: 64,
        long_read_len: 2_000,
        seed: 177,
    }
    .illumina(150);
    let mut config = SegramConfig::short_reads();
    config.max_regions = 8;
    let mapper = SegramMapper::new(dataset.graph().clone(), config);
    let total_chars = dataset.graph().total_chars();
    let fastq: Vec<FastqRecord> = dataset
        .reads
        .iter()
        .map(|r| FastqRecord::with_uniform_quality(format!("read{}", r.id), r.seq.clone(), 30))
        .collect();
    let bytes = write_fastq(&fastq).into_bytes();

    let mut group = c.benchmark_group("engine_stream_io_150bp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fastq.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                // Several batches per worker even at 8 threads: 64 reads
                // in 16 batches of 4, so the measurement is stage overlap,
                // not batch granularity.
                let engine_config = EngineOptions::new().threads(threads).batch_size(4);
                let engine = MapEngine::new(&mapper, engine_config);
                let mut framer = FastqFramer::new(black_box(bytes.as_slice()));
                let records = std::iter::from_fn(|| match framer.next() {
                    Some(Ok(raw)) => raw.decode(Ambiguity::Reject).ok(),
                    _ => None,
                });
                let mut sam = SamWriter::new(Vec::with_capacity(bytes.len()), "graph", total_chars)
                    .expect("vec write cannot fail");
                let report = engine.map_stream(
                    records,
                    |record| &record.seq,
                    |record, outcome| {
                        let rec = sam_record_for(&record.id, &record.seq, &outcome);
                        sam.write_line(&rec.to_sam_line())
                            .expect("vec write cannot fail");
                    },
                );
                black_box((report.reads, sam.records_written()))
            })
        });
    }
    group.finish();
}

fn bench_engine_stream_bgzf(c: &mut Criterion) {
    // The compressed twin of engine_stream_io: the same FASTQ bytes, but
    // BGZF-compressed with the in-tree codec, streamed as the CLI's
    // compressed path runs them — the producer-side transport stage
    // (`BgzfFastqFramer`) inflates + splices members into the records the
    // plain framer gives, and everything after it is engine_stream_io.
    // The difference between the two groups is the cost of compressed
    // ingest.
    let dataset = DatasetConfig {
        reference_len: 100_000,
        read_count: 64,
        long_read_len: 2_000,
        seed: 177,
    }
    .illumina(150);
    let mut config = SegramConfig::short_reads();
    config.max_regions = 8;
    let mapper = SegramMapper::new(dataset.graph().clone(), config);
    let total_chars = dataset.graph().total_chars();
    let fastq: Vec<FastqRecord> = dataset
        .reads
        .iter()
        .map(|r| FastqRecord::with_uniform_quality(format!("read{}", r.id), r.seq.clone(), 30))
        .collect();
    let bytes = write_fastq(&fastq).into_bytes();
    // 4 KiB members: records straddling boundaries, and enough DEFLATE
    // work per member to measure.
    let compressed = bgzf_compress(&bytes, 4096, BgzfMode::Fixed);

    let mut group = c.benchmark_group("engine_stream_bgzf_150bp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(fastq.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                let engine_config = EngineOptions::new().threads(threads).batch_size(4);
                let engine = MapEngine::new(&mapper, engine_config);
                let mut framer = BgzfFastqFramer::new(black_box(compressed.as_slice()));
                let records = std::iter::from_fn(|| match framer.next() {
                    Some(Ok(raw)) => raw.decode(Ambiguity::Reject).ok(),
                    _ => None,
                });
                let mut sam = SamWriter::new(Vec::with_capacity(bytes.len()), "graph", total_chars)
                    .expect("vec write cannot fail");
                let report = engine.map_stream(
                    records,
                    |record| &record.seq,
                    |record, outcome| {
                        let rec = sam_record_for(&record.id, &record.seq, &outcome);
                        sam.write_line(&rec.to_sam_line())
                            .expect("vec write cannot fail");
                    },
                );
                black_box((report.reads, sam.records_written()))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_batch,
    bench_engine_stream_io,
    bench_engine_stream_bgzf,
    bench_backend_matrix
);
criterion_main!(benches);
