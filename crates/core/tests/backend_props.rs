//! Differential property tests for the four mappers `segram eval compare`
//! runs: on random simulated datasets, **every** one driven through the
//! [`MapEngine`] produces SAM and GAF documents byte-identical to its own
//! serial path (direct `map_read` calls, no engine) at every thread
//! count — and the native one (the one-shard coordinate-range index the
//! binary runs) agrees with the single-index reference [`SegramMapper`] on
//! every document, mapping and seeding count. The binary writes documents
//! for the native index only, so this is where the baselines' bytes are
//! pinned; `ci.sh`'s backend-matrix tier checks their `eval compare` counts
//! across thread counts.

use segram_core::{
    gaf_record_for, sam_record_for, BaselineAdapter, EngineOptions, GraphAlignerLike, HgaLike,
    MapEngine, MapStats, ReadMapper, ReadOutcome, SegramConfig, SegramMapper, ShardedIndex, VgLike,
};
use segram_graph::DnaSeq;
use segram_io::{write_fastq, Ambiguity, FastqFramer, FastqRecord, GafWriter, SamWriter};
use segram_sim::{DatasetConfig, Strand};
use segram_testkit::prelude::*;
use segram_testkit::prop::TestCaseError;

type Documents = (Vec<u8>, Vec<u8>);

/// Renders both output documents from direct per-read `map_read` calls —
/// the backend's own serial path, no engine, no batching — using the same
/// shared renderers and writers as the CLI.
fn render_serial<M: ReadMapper>(mapper: &M, reads: &[(String, DnaSeq)]) -> Documents {
    let mut sam = SamWriter::new(Vec::new(), "graph", mapper.graph().total_chars())
        .expect("vec write cannot fail");
    let mut gaf = GafWriter::new(Vec::new());
    for (id, seq) in reads {
        let (mapping, stats) = mapper.map_read(seq);
        let outcome = ReadOutcome {
            mapping,
            strand: Strand::Forward,
            stats,
        };
        let record = sam_record_for(id, seq, &outcome);
        sam.write_line(&record.to_sam_line())
            .expect("vec write cannot fail");
        if let Some(record) =
            gaf_record_for(id, seq, mapper.graph(), &outcome).expect("consistent graph path")
        {
            gaf.write_record(&record).expect("vec write cannot fail");
        }
    }
    (
        sam.finish().expect("vec flush cannot fail"),
        gaf.finish().expect("vec flush cannot fail"),
    )
}

/// Renders both output documents through the engine, exactly as the CLI's
/// streaming path does.
fn render_engine<M: ReadMapper>(
    mapper: &M,
    reads: &[(String, DnaSeq)],
    threads: usize,
) -> Documents {
    // Tiny batches force interleaving across workers even on the small
    // datasets the strategy generates.
    let config = EngineOptions::new().threads(threads).batch_size(2);
    let engine = MapEngine::new(mapper, config);
    let mut sam = SamWriter::new(Vec::new(), "graph", mapper.graph().total_chars())
        .expect("vec write cannot fail");
    let mut gaf = GafWriter::new(Vec::new());
    engine.map_stream(
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
    )
}

/// Renders both output documents through the *overlapped* path: the
/// reads serialized to FASTQ bytes, framed by [`FastqFramer`] and decoded
/// on the producer, mapped by the workers, rendered from the decoded
/// records on the writer thread — the exact pipeline `segram map` runs.
fn render_engine_overlapped<M: ReadMapper>(
    mapper: &M,
    reads: &[(String, DnaSeq)],
    threads: usize,
) -> Documents {
    let fastq: Vec<FastqRecord> = reads
        .iter()
        .map(|(id, seq)| FastqRecord::with_uniform_quality(id.clone(), seq.clone(), 30))
        .collect();
    let bytes = write_fastq(&fastq).into_bytes();
    let config = EngineOptions::new().threads(threads).batch_size(2);
    let engine = MapEngine::new(mapper, config);
    let mut sam = SamWriter::new(Vec::new(), "graph", mapper.graph().total_chars())
        .expect("vec write cannot fail");
    let mut gaf = GafWriter::new(Vec::new());
    // A tiny block size forces records to straddle block boundaries even
    // on the small documents the strategy generates.
    let mut framer = FastqFramer::with_block_size(bytes.as_slice(), 7);
    let records = std::iter::from_fn(|| match framer.next() {
        Some(Ok(raw)) => Some(raw.decode(Ambiguity::Reject).expect("well-formed FASTQ")),
        Some(Err(err)) => panic!("in-memory framing cannot fail: {err}"),
        None => None,
    });
    engine.map_stream(
        records,
        |record| &record.seq,
        |record, outcome| {
            let rec = sam_record_for(&record.id, &record.seq, &outcome);
            sam.write_line(&rec.to_sam_line())
                .expect("vec write cannot fail");
            if let Some(rec) = gaf_record_for(&record.id, &record.seq, mapper.graph(), &outcome)
                .expect("consistent graph path")
            {
                gaf.write_record(&rec).expect("vec write cannot fail");
            }
        },
    );
    (
        sam.finish().expect("vec flush cannot fail"),
        gaf.finish().expect("vec flush cannot fail"),
    )
}

/// The engine is invisible in `mapper`'s documents: through the engine at
/// 1 and 4 threads, and through the overlapped path (FASTQ bytes -> framer
/// -> producer decode -> writer thread), they equal the serial path's.
/// Returns the serial documents.
fn engine_invariant<M: ReadMapper>(
    mapper: &M,
    reads: &[(String, DnaSeq)],
) -> Result<Documents, TestCaseError> {
    let name = mapper.backend_name();
    let serial = render_serial(mapper, reads);
    for threads in [1usize, 4] {
        let engine = render_engine(mapper, reads, threads);
        prop_assert_eq!(&engine, &serial, "{} at {} threads", name, threads);
    }
    let overlapped = render_engine_overlapped(mapper, reads, 4);
    prop_assert_eq!(&overlapped, &serial, "{} overlapped", name);
    Ok(serial)
}

/// The seeding and alignment work counts of one read.
fn counts(stats: &MapStats) -> [usize; 4] {
    [
        stats.minimizers,
        stats.filtered_minimizers,
        stats.seed_locations,
        stats.regions_aligned,
    ]
}

proptest! {
    #[test]
    fn every_backend_is_engine_and_thread_invariant(
        seed in 0u64..5_000,
        read_count in 3usize..6,
        read_len in prop::sample::select(vec![80usize, 100]),
    ) {
        // A smaller reference than `tiny()`'s 30 kb: the HGA baseline runs
        // whole-graph DP per read, and this test maps every read 4 times
        // per mapper (serial, engine at 2 thread counts, overlapped).
        let mut dataset_config = DatasetConfig::tiny(seed);
        dataset_config.reference_len = 8_000;
        dataset_config.read_count = read_count;
        let dataset = dataset_config.illumina(read_len);
        let config = SegramConfig::short_reads();
        let reads: Vec<(String, DnaSeq)> = dataset
            .reads
            .iter()
            .map(|r| (format!("read{}", r.id), r.seq.clone()))
            .collect();
        let graph = || dataset.graph().clone();

        // The single-index reference implementation.
        let native = SegramMapper::new(graph(), config);
        let reference = render_serial(&native, &reads);
        // One SAM record per read, whatever the mapper emits later.
        let records = reference.0.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        prop_assert_eq!(records, reads.len() + 3); // 3 header lines

        // The one-shard runtime mapper is the reference, read for read:
        // same documents, same mappings, same seeding work.
        let index = ShardedIndex::build(graph(), config, 1);
        prop_assert_eq!(&engine_invariant(&index, &reads)?, &reference);
        for (id, seq) in &reads {
            let (expected, reference_stats) = native.map_read(seq);
            let (mapping, stats) = index.map_read(seq);
            prop_assert_eq!(&mapping, &expected, "{}", id);
            prop_assert_eq!(counts(&stats), counts(&reference_stats), "{}", id);
        }

        let graphaligner = GraphAlignerLike::new(graph(), config);
        engine_invariant(&BaselineAdapter::new(graphaligner, config, "graphaligner"), &reads)?;
        engine_invariant(&BaselineAdapter::new(VgLike::new(graph(), config), config, "vg"), &reads)?;
        engine_invariant(&BaselineAdapter::new(HgaLike::new(graph()), config, "hga"), &reads)?;
    }
}

/// Deterministic (non-property) spot check that the adapter layer maps
/// MapStats stage times into the engine's aggregate: a baseline's engine
/// report accounts seeding and alignment separately, exactly as the
/// serial [`segram_core::StepTimes`] did.
#[test]
fn baseline_engine_report_carries_stage_times() {
    let mut dataset_config = DatasetConfig::tiny(777);
    dataset_config.reference_len = 8_000;
    dataset_config.read_count = 4;
    let dataset = dataset_config.illumina(100);
    let config = SegramConfig::short_reads();
    let adapter = BaselineAdapter::new(
        GraphAlignerLike::new(dataset.graph().clone(), config),
        config,
        "graphaligner",
    );
    let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
    let engine = MapEngine::new(&adapter, EngineOptions::new().threads(2));
    let (outcomes, report) = engine.map_batch(&reads);
    assert_eq!(report.backend, "graphaligner");
    assert!(report.stats.seeding > std::time::Duration::ZERO);
    assert!(report.stats.alignment > std::time::Duration::ZERO);
    // Counts aggregate exactly like any MapStats.
    let mut summed = MapStats::default();
    for outcome in &outcomes {
        summed.merge(&outcome.stats);
    }
    assert_eq!(summed.regions_aligned, report.stats.regions_aligned);
}
