//! Property tests for the elastic schedule: on random simulated datasets,
//! the SAM and GAF documents produced through per-shard-group pools are
//! byte-identical to the single-threaded fanout documents —
//!
//! * across shard counts {1, 2, 4} x thread counts {1, 4} over the boot
//!   placement `segram map` and `segram serve` route by, and
//! * across pool counts {1, 2, 4} x thread counts {1, 4} under routes
//!   nobody would choose — everything to pool 0, round-robin, always
//!   spill, seeded random including out-of-range answers — because the
//!   route only tags a batch: it is released through its request's one
//!   reorder buffer whichever worker maps it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use segram_core::{
    elastic_route, gaf_record_for, sam_record_for, EngineOptions, MapEngine, ReadMapper,
    ReadOutcome, RouteHook, SegramConfig, SegramMapper, ShardPlacement, ShardedIndex,
};
use segram_graph::DnaSeq;
use segram_io::{GafWriter, SamWriter};
use segram_sim::DatasetConfig;
use segram_testkit::prelude::*;

type Read = (String, DnaSeq);

/// Renders both output documents exactly as the CLI's streaming path does
/// (shared renderers, shared writers) from whatever schedule `run` feeds
/// the render sink to.
fn documents<'r, M: ReadMapper>(
    mapper: &M,
    run: impl FnOnce(&mut (dyn FnMut(&'r Read, ReadOutcome) + Send)),
) -> (Vec<u8>, Vec<u8>) {
    let mut sam = SamWriter::new(Vec::new(), "graph", mapper.graph().total_chars())
        .expect("vec write cannot fail");
    let mut gaf = GafWriter::new(Vec::new());
    run(&mut |(id, seq), outcome| {
        let record = sam_record_for(id, seq, &outcome);
        sam.write_line(&record.to_sam_line())
            .expect("vec write cannot fail");
        if let Some(record) =
            gaf_record_for(id, seq, mapper.graph(), &outcome).expect("consistent graph path")
        {
            gaf.write_record(&record).expect("vec write cannot fail");
        }
    });
    (
        sam.finish().expect("vec flush cannot fail"),
        gaf.finish().expect("vec flush cannot fail"),
    )
}

/// Tiny batches force batch interleaving across workers and pools even on
/// the small datasets the strategy generates.
fn options(threads: usize, both_strands: bool) -> EngineOptions {
    EngineOptions::new()
        .threads(threads)
        .both_strands(both_strands)
        .batch_size(2)
}

/// The reference documents: the fanout schedule on one thread.
fn fanout_documents(
    mapper: &SegramMapper,
    reads: &[Read],
    both_strands: bool,
) -> (Vec<u8>, Vec<u8>) {
    documents(mapper, |sink| {
        MapEngine::new(mapper, options(1, both_strands)).map_stream(
            reads.iter(),
            |(_, seq)| seq,
            sink,
        );
    })
}

/// A random dataset with named reads.
fn dataset(seed: u64, read_count: usize, read_len: usize) -> (segram_sim::Dataset, Vec<Read>) {
    let mut dataset_config = DatasetConfig::tiny(seed);
    dataset_config.read_count = read_count;
    let dataset = dataset_config.illumina(read_len);
    let reads = dataset
        .reads
        .iter()
        .map(|r| (format!("read{}", r.id), r.seq.clone()))
        .collect();
    (dataset, reads)
}

proptest! {
    #[test]
    fn elastic_sam_and_gaf_bytes_match_fanout(
        seed in 0u64..5_000,
        read_count in 3usize..8,
        read_len in prop::sample::select(vec![80usize, 100, 130]),
        both_strands in any::<bool>(),
    ) {
        let (dataset, reads) = dataset(seed, read_count, read_len);
        let config = SegramConfig::short_reads();
        let mapper = SegramMapper::new(dataset.graph().clone(), config);
        let (sam_base, gaf_base) = fanout_documents(&mapper, &reads, both_strands);

        for shards in [1usize, 2, 4] {
            let graph = dataset.graph().clone();
            let index = ShardedIndex::build(graph, config, shards);
            for threads in [1usize, 4] {
                // The route hook `segram map` and `segram serve` use.
                let placement = ShardPlacement::for_index(&index, threads);
                let pools = placement.pools();
                let hook = elastic_route(placement);
                let engine = MapEngine::new(&index, options(threads, both_strands))
                    .with_routing(pools, hook);
                let (sam, gaf) = documents(&index, |sink| {
                    engine.map_stream(reads.iter(), |(_, seq)| seq, sink);
                });
                prop_assert_eq!(
                    &sam, &sam_base,
                    "sam bytes differ: shards={} threads={}", shards, threads
                );
                prop_assert_eq!(
                    &gaf, &gaf_base,
                    "gaf bytes differ: shards={} threads={}", shards, threads
                );
            }
        }
    }

    #[test]
    fn adversarial_routes_cannot_change_bytes(
        seed in 0u64..5_000,
        read_count in 3usize..8,
        both_strands in any::<bool>(),
    ) {
        let (dataset, reads) = dataset(seed, read_count, 100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let (sam_base, gaf_base) = fanout_documents(&mapper, &reads, both_strands);

        for pools in [1usize, 2, 4] {
            for threads in [1usize, 4] {
                for route_name in ["all-to-pool-0", "round-robin", "always-spill", "random"] {
                    let calls = AtomicUsize::new(0);
                    let state = AtomicU64::new(seed);
                    let route: RouteHook<SegramMapper> = Arc::new(move |_, _| {
                        let call = calls.fetch_add(1, Ordering::SeqCst) + 1;
                        match route_name {
                            "all-to-pool-0" => Some(0),
                            "round-robin" => Some(call % pools),
                            "always-spill" => None,
                            _ => {
                                // A 64-bit LCG; one answer in five is out
                                // of range, which must spill, not panic.
                                let next = state
                                    .load(Ordering::SeqCst)
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                state.store(next, Ordering::SeqCst);
                                Some((next >> 33) as usize % (pools + pools / 4 + 1))
                            }
                        }
                    });
                    let mut run = None;
                    let (sam, gaf) = documents(&mapper, |sink| {
                        run = Some(
                            MapEngine::new(&mapper, options(threads, both_strands))
                                .with_routing(pools, route)
                                .map_stream(reads.iter(), |(_, seq)| seq, sink),
                        );
                    });
                    let what = format!("pools={pools} threads={threads} route={route_name}");
                    prop_assert_eq!(&sam, &sam_base, "sam bytes differ: {}", what);
                    prop_assert_eq!(&gaf, &gaf_base, "gaf bytes differ: {}", what);

                    let report = run.expect("the run happened");
                    // Every pool has a worker, so pools clamp to threads.
                    prop_assert_eq!(report.pools.len(), pools.min(threads), "{}", what);
                    prop_assert_eq!(report.batches, reads.len().div_ceil(2), "{}", what);
                    prop_assert_eq!(
                        report.routed() + report.spilled(),
                        report.batches as u64,
                        "every batch is routed or spilled: {}", what
                    );
                    prop_assert_eq!(
                        report.pools.iter().map(|p| p.batches).sum::<u64>(),
                        report.batches as u64,
                        "per-pool batches sum to the total: {}", what
                    );
                }
            }
        }
    }
}
