//! Criterion benchmarks for the persistent on-disk index and the
//! multi-request serve engine: what `segram index build` buys (encode /
//! decode vs. rebuilding the index from scratch on every run), and how
//! the shared `MultiEngine` behaves as concurrent requests stack up on
//! one worker pool.

use std::sync::Arc;

use segram_core::{EngineOptions, MultiEngine, SegramConfig, SegramMapper};
use segram_graph::DnaSeq;
use segram_index::{
    decode_index, decode_index_sharded, encode_index, frequency_threshold, GraphIndex,
    PersistedIndex,
};
use segram_io::{fnv1a64, xxh64};
use segram_sim::DatasetConfig;
use segram_testkit::bench::{
    black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput,
};

fn setup() -> (Vec<DnaSeq>, SegramConfig, segram_sim::Dataset) {
    setup_over(100_000)
}

fn setup_over(reference_len: usize) -> (Vec<DnaSeq>, SegramConfig, segram_sim::Dataset) {
    let dataset = DatasetConfig {
        reference_len,
        read_count: 32,
        long_read_len: 2_000,
        seed: 211,
    }
    .illumina(150);
    let mut config = SegramConfig::short_reads();
    config.max_regions = 8;
    let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
    (reads, config, dataset)
}

fn persisted(config: SegramConfig, dataset: &segram_sim::Dataset) -> PersistedIndex {
    let graph = dataset.graph().clone();
    let index = GraphIndex::build(&graph, config.scheme, config.bucket_bits);
    let freq_threshold = frequency_threshold(&index, config.discard_frac);
    PersistedIndex {
        graph,
        index,
        discard_frac: config.discard_frac,
        freq_threshold,
        changelog: None,
        provenance: None,
    }
}

/// The cold-start trade the `.sgi` file exists to win: every `segram map
/// --graph` run pays `GraphIndex::build`; `segram map --index` and
/// `segram serve` pay `decode_index` instead (encode is the one-time
/// `index build` cost). At 100 kb the store is all fixed cost (the 2^16
/// bucket array); the 8 Mbp group — the perf ledger's store size — is
/// where the codec and the section checksum show, in MB/s of `.sgi`.
fn bench_persist_round_trip(c: &mut Criterion) {
    persist_group(c, "persist_100kb", 100_000);
    persist_group(c, "persist_8mbp", 8_000_000);
}

fn persist_group(c: &mut Criterion, name: &str, reference_len: usize) {
    let (_, config, dataset) = setup_over(reference_len);
    let persisted = persisted(config, &dataset);
    let bytes = encode_index(&persisted);

    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("rebuild_index", |b| {
        b.iter(|| {
            let index = GraphIndex::build(
                black_box(&persisted.graph),
                config.scheme,
                config.bucket_bits,
            );
            black_box(index.footprint().total_bytes())
        })
    });
    group.bench_function("encode", |b| {
        b.iter(|| black_box(encode_index(black_box(&persisted))).len())
    });
    group.bench_function("decode", |b| {
        b.iter(|| {
            let loaded = decode_index(black_box(&bytes)).expect("decode");
            black_box(loaded.index.footprint().total_bytes())
        })
    });
    // The load `map --index --shards 4` runs: the index section read
    // twice, every location filed straight into its shard.
    group.bench_function("decode_shards4", |b| {
        b.iter(|| {
            let loaded = decode_index_sharded(black_box(&bytes), 4).expect("decode");
            black_box(loaded.shards.len())
        })
    });
    // The v2 section checksum beside the v1 one it replaced.
    group.bench_function("checksum_xxh64", |b| {
        b.iter(|| black_box(xxh64(black_box(&bytes))))
    });
    group.bench_function("checksum_fnv1a64", |b| {
        b.iter(|| black_box(fnv1a64(black_box(&bytes))))
    });
    group.finish();

    println!(
        "  info: .sgi payload {} bytes for a {}-char graph (index footprint {} bytes)",
        bytes.len(),
        persisted.graph.total_chars(),
        persisted.index.footprint().total_bytes()
    );
}

/// N concurrent requests through one shared engine: the serve-mode shape.
/// Total read throughput should hold roughly flat as the same work is
/// split across more interleaved requests (round-robin scheduling,
/// per-request reorder buffers).
fn bench_multi_engine_requests(c: &mut Criterion) {
    let (reads, config, dataset) = setup();
    let loaded = {
        let bytes = encode_index(&persisted(config, &dataset));
        decode_index(&bytes).expect("decode")
    };
    let mapper = SegramMapper::from_parts(
        Arc::new(loaded.graph),
        loaded.index,
        config,
        loaded.freq_threshold,
    );
    fn identity(read: &DnaSeq) -> &DnaSeq {
        read
    }
    let engine = MultiEngine::new(
        Arc::new(mapper),
        identity,
        EngineOptions::new()
            .threads(4)
            .queue_depth(64)
            .max_queued(1024),
    );

    const BATCH: usize = 4;
    let mut group = c.benchmark_group("multi_engine_150bp");
    group.sample_size(10);
    group.throughput(Throughput::Elements(reads.len() as u64));
    for requests in [1usize, 2, 4] {
        group.bench_function(BenchmarkId::new("requests", requests), |b| {
            b.iter(|| {
                // The same total workload, interleaved across `requests`
                // open handles: batches round-robin in, ordered drains out.
                let mut handles: Vec<_> = (0..requests)
                    .map(|_| engine.open().expect("admission"))
                    .collect();
                for (i, batch) in reads.chunks(BATCH).enumerate() {
                    assert!(handles[i % requests].push(batch.to_vec()));
                }
                let mut mapped = 0usize;
                for handle in handles.drain(..) {
                    handle.finish_input();
                    while let Some(batch) = handle.next_output() {
                        mapped += batch
                            .iter()
                            .filter(|(_, outcome)| outcome.mapping.is_some())
                            .count();
                    }
                    handle.finish().expect("request");
                }
                black_box(mapped)
            })
        });
    }
    group.finish();
    engine.shutdown();
}

criterion_group!(
    benches,
    bench_persist_round_trip,
    bench_multi_engine_requests
);
criterion_main!(benches);
