//! Property tests for the stage-based map engine: on random simulated
//! datasets, the SAM and GAF documents the engine produces are
//! byte-identical for every thread count **and** every shard count (the
//! sharded path routes seeding through per-coordinate-range index shards
//! and merges before prefilter/alignment). This is the in-process half of
//! the determinism guarantee (`ci.sh` checks the same property end to end
//! through the built binary). The read is the engine's unit of work
//! whatever carried it: records framed out of a few large BGZF members
//! batch, map and spread over workers exactly as the plain records do.

use segram_core::{
    elastic_route, gaf_record_for, sam_record_for, EngineOptions, EngineReport, MapEngine,
    ReadMapper, ReadOutcome, SegramConfig, SegramMapper, ShardPlacement, ShardedIndex,
};
use segram_filter::FilterSpec;
use segram_graph::DnaSeq;
use segram_io::{
    bgzf_compress, write_fastq, Ambiguity, BgzfFastqFramer, BgzfMode, FastqFramer, FastqRecord,
    GafWriter, RawFastqRecord, SamWriter,
};
use segram_sim::DatasetConfig;
use segram_testkit::prelude::*;

/// Runs one engine pass and renders both output documents, exactly as the
/// CLI's streaming path does (shared renderers, shared writers). Generic
/// over the mapper so the monolithic and sharded paths share the harness.
fn render_documents<M: ReadMapper>(
    mapper: &M,
    reads: &[(String, DnaSeq)],
    threads: usize,
    both_strands: bool,
) -> (Vec<u8>, Vec<u8>) {
    // Tiny batches force batch interleaving across workers even on the
    // small datasets the strategy generates.
    let config = EngineOptions::new()
        .threads(threads)
        .both_strands(both_strands)
        .batch_size(2);
    let (sam, gaf, _) = render_with_config(mapper, reads, config);
    (sam, gaf)
}

/// [`render_documents`] with a caller-supplied engine config, also
/// returning the run report (the batch-boundary property checks the
/// batch size it carries).
fn render_with_config<M: ReadMapper>(
    mapper: &M,
    reads: &[(String, DnaSeq)],
    config: EngineOptions,
) -> (Vec<u8>, Vec<u8>, EngineReport) {
    let engine = MapEngine::new(mapper, config);
    let mut sam = SamWriter::new(Vec::new(), "graph", mapper.graph().total_chars())
        .expect("vec write cannot fail");
    let mut gaf = GafWriter::new(Vec::new());
    let report = engine.map_stream(
        reads.iter(),
        |(_, seq)| seq,
        |(id, seq), outcome| {
            let record = sam_record_for(id, seq, &outcome);
            sam.write_line(&record.to_sam_line())
                .expect("vec write cannot fail");
            if let Some(record) =
                gaf_record_for(id, seq, mapper.graph(), &outcome).expect("consistent graph path")
            {
                gaf.write_record(&record).expect("vec write cannot fail");
            }
        },
    );
    (
        sam.finish().expect("vec flush cannot fail"),
        gaf.finish().expect("vec flush cannot fail"),
        report,
    )
}

/// What the plain-vs-BGZF comparison holds equal per read.
fn placements(outcomes: &[(String, ReadOutcome)]) -> Vec<(&str, Option<(u64, u32)>)> {
    outcomes
        .iter()
        .map(|(id, outcome)| {
            let mapping = outcome.mapping.as_ref();
            (
                id.as_str(),
                mapping.map(|m| (m.linear_start, m.alignment.edit_distance)),
            )
        })
        .collect()
}

#[test]
fn bgzf_sourced_records_batch_and_spread_like_plain_ones() {
    const BATCH: usize = 4;
    let mut dataset_config = DatasetConfig::tiny(4021);
    dataset_config.read_count = 6 * BATCH + 1;
    let dataset = dataset_config.illumina(100);
    let records: Vec<FastqRecord> = dataset
        .reads
        .iter()
        .map(|r| FastqRecord::with_uniform_quality(format!("read{}", r.id), r.seq.clone(), 30))
        .collect();
    let plain = write_fastq(&records).into_bytes();
    // Three members for 25 reads: with the member as the work item this
    // was one batch on one worker.
    let compressed = bgzf_compress(&plain, plain.len().div_ceil(3), BgzfMode::Fixed);
    // The transport stage, then decode on the producer, as `segram map`.
    let decode = |raw: RawFastqRecord| raw.decode(Ambiguity::Reject).expect("well-formed");
    let plain_source = || FastqFramer::new(&plain[..]).map(|raw| decode(raw.expect("in memory")));
    let bgzf_source =
        || BgzfFastqFramer::new(&compressed[..]).map(|raw| decode(raw.expect("intact")));
    let options = || EngineOptions::new().threads(2).batch_size(BATCH);
    let batches = records.len().div_ceil(BATCH);

    let index = ShardedIndex::build(dataset.graph().clone(), SegramConfig::short_reads(), 4);
    let fanout = |source: &mut dyn Iterator<Item = FastqRecord>| {
        let mut outcomes = Vec::new();
        let report = MapEngine::new(&index, options()).map_stream(
            source,
            |record| &record.seq,
            |record, outcome| outcomes.push((record.id, outcome)),
        );
        (outcomes, report)
    };
    let (plain_outcomes, plain_report) = fanout(&mut plain_source());
    let (bgzf_outcomes, bgzf_report) = fanout(&mut bgzf_source());
    assert_eq!(plain_report.batches, batches);
    assert_eq!(bgzf_report.batches, batches);
    assert_eq!(bgzf_report.reads, records.len());
    assert_eq!(placements(&bgzf_outcomes), placements(&plain_outcomes));

    // Elastic: the placement is fixed, so which pool a majority batch
    // routes to depends on the batch alone.
    let placement = ShardPlacement::for_index(&index, 2);
    let pools = placement.pools();
    let mut outcomes = Vec::new();
    let report = MapEngine::new(&index, options())
        .with_routing(pools, elastic_route(placement))
        .map_stream(
            bgzf_source(),
            |record| &record.seq,
            |record, outcome| outcomes.push((record.id, outcome)),
        );
    assert_eq!(report.batches, batches);
    assert_eq!(placements(&outcomes), placements(&plain_outcomes));
    let tagged = report
        .pools
        .iter()
        .filter(|pool| pool.routed + pool.spilled > 0)
        .count();
    assert!(
        tagged > 1,
        "one pool was tagged every batch: {:?}",
        report.pools
    );
    let per_pool: u64 = report.pools.iter().map(|pool| pool.batches).sum();
    assert_eq!(per_pool, batches as u64);
}

proptest! {
    #[test]
    fn sam_and_gaf_bytes_are_thread_and_shard_invariant(
        seed in 0u64..5_000,
        read_count in 3usize..8,
        read_len in prop::sample::select(vec![80usize, 100, 130]),
        shards in prop::sample::select(vec![2usize, 3, 4]),
        with_filter in any::<bool>(),
        both_strands in any::<bool>(),
    ) {
        let mut dataset_config = DatasetConfig::tiny(seed);
        dataset_config.read_count = read_count;
        let dataset = dataset_config.illumina(read_len);
        let mut config = SegramConfig::short_reads();
        if with_filter {
            config.prefilter = Some(FilterSpec::cascade());
        }
        let mapper = SegramMapper::new(dataset.graph().clone(), config);
        let reads: Vec<(String, DnaSeq)> = dataset
            .reads
            .iter()
            .map(|r| (format!("read{}", r.id), r.seq.clone()))
            .collect();

        let (sam_serial, gaf_serial) = render_documents(&mapper, &reads, 1, both_strands);
        // The serial document contains one SAM record per read.
        let records = sam_serial.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        prop_assert_eq!(records, reads.len() + 3); // 3 header lines

        for threads in [2usize, 4] {
            let (sam, gaf) = render_documents(&mapper, &reads, threads, both_strands);
            prop_assert_eq!(&sam, &sam_serial);
            prop_assert_eq!(&gaf, &gaf_serial);
        }

        // The sharded engine (router seeding over per-range index shards)
        // must emit the same bytes as the monolithic serial baseline, at
        // any thread count.
        let sharded = ShardedIndex::build(dataset.graph().clone(), config, shards);
        for threads in [1usize, 4] {
            let (sam, gaf) = render_documents(&sharded, &reads, threads, both_strands);
            prop_assert_eq!(&sam, &sam_serial);
            prop_assert_eq!(&gaf, &gaf_serial);
        }
    }

    /// Batch size is an internal throughput knob: it only moves where the
    /// batch boundaries fall, and the reorder buffer restores input order
    /// regardless — so any fixed size at any thread count emits the bytes
    /// of the serial default-batch run.
    #[test]
    fn batch_boundaries_cannot_change_output_bytes(
        seed in 0u64..5_000,
        read_count in 4usize..10,
        batch_size in 1usize..=64,
        threads in prop::sample::select(vec![1usize, 2, 4]),
        both_strands in any::<bool>(),
    ) {
        let mut dataset_config = DatasetConfig::tiny(seed);
        dataset_config.read_count = read_count;
        let dataset = dataset_config.illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let reads: Vec<(String, DnaSeq)> = dataset
            .reads
            .iter()
            .map(|r| (format!("read{}", r.id), r.seq.clone()))
            .collect();

        let serial = EngineOptions::new().threads(1).both_strands(both_strands);
        let (sam_serial, gaf_serial, _) = render_with_config(&mapper, &reads, serial);

        let config = EngineOptions::new()
            .threads(threads)
            .both_strands(both_strands)
            .batch_size(batch_size);
        let (sam, gaf, report) = render_with_config(&mapper, &reads, config);
        prop_assert_eq!(&sam, &sam_serial, "batch size {} changed the SAM bytes", batch_size);
        prop_assert_eq!(&gaf, &gaf_serial, "batch size {} changed the GAF bytes", batch_size);
        prop_assert_eq!(report.batch_size, batch_size);
        prop_assert_eq!(report.batches, reads.len().div_ceil(batch_size));
    }
}
