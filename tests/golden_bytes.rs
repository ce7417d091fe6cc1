//! Golden output bytes across commits.
//!
//! The determinism tiers compare documents *within* one binary (threads ×
//! shards × schedule). These digests pin the documents themselves, so a
//! kernel rewrite that changes a tie-break, a CIGAR or a path fails here
//! even when every in-binary comparison still agrees with itself.
//!
//! A digest may only change in a commit whose purpose is to change output
//! bytes; a performance change must leave this file untouched.

use segram_core::{
    gaf_record_for, sam_document, sam_record_for, EngineOptions, MapEngine, ReadMapper,
    ReadOutcome, SegramConfig, SegramMapper, ShardedIndex,
};
use segram_graph::{DnaSeq, GenomeGraph};
use segram_io::{fnv1a64, write_gaf};
use segram_sim::{simulate_stranded_reads, DatasetConfig, ReadConfig, SimulatedRead};

/// Maps `seqs` on one thread, both strands, as `segram map --both-strands`
/// does.
fn outcomes(mapper: &impl ReadMapper, seqs: &[DnaSeq]) -> Vec<ReadOutcome> {
    let options = EngineOptions::new().threads(1).both_strands(true);
    MapEngine::new(mapper, options).map_batch(seqs).0
}

/// Hands `check` the outcomes of the single-index reference implementation
/// and of the mapper the binary runs, at one shard and at three: one
/// pinned document, whichever produced it.
fn with_every_native_mapper(
    graph: &GenomeGraph,
    config: SegramConfig,
    reads: &[SimulatedRead],
    check: impl Fn(&str, &[DnaSeq], &[ReadOutcome]),
) {
    let seqs: Vec<DnaSeq> = reads.iter().map(|r| r.seq.clone()).collect();
    let reference = SegramMapper::new(graph.clone(), config);
    check("reference mapper", &seqs, &outcomes(&reference, &seqs));
    for shards in [1usize, 3] {
        let runtime = ShardedIndex::build(graph.clone(), config, shards);
        let what = format!("runtime backend, {shards} shard(s)");
        check(&what, &seqs, &outcomes(&runtime, &seqs));
    }
}

fn assert_digest(what: &str, document: &str, mapped: usize, min_mapped: usize, golden: u64) {
    assert!(
        mapped >= min_mapped,
        "{what}: only {mapped} reads mapped; the document pins too little"
    );
    let digest = fnv1a64(document.as_bytes());
    assert_eq!(
        digest, golden,
        "{what}: document digest is {digest:#018x}, golden is {golden:#018x} — output bytes changed"
    );
}

/// The short-preset both-strand SAM document (100 bp reads at 1 % error, so
/// every region goes through the whole-read `BitAligner`).
#[test]
fn short_preset_sam_document_is_pinned() {
    let mut dataset = DatasetConfig::tiny(211);
    dataset.read_count = 0;
    let dataset = dataset.illumina(100);
    let reads =
        simulate_stranded_reads(dataset.graph(), &ReadConfig::short_reads(40, 100, 212), 0.5);
    let graph = dataset.graph();
    with_every_native_mapper(
        graph,
        SegramConfig::short_reads(),
        &reads,
        |what, seqs, outcomes| {
            let records: Vec<_> = seqs
                .iter()
                .zip(outcomes)
                .enumerate()
                .map(|(i, (seq, outcome))| sam_record_for(&format!("read{i}"), seq, outcome))
                .collect();
            let mapped = records.iter().filter(|r| r.is_mapped()).count();
            let document = sam_document("graph", graph.total_chars(), &records);
            assert_digest(
                &format!("short SAM, {what}"),
                &document,
                mapped,
                36,
                0x421b_6925_44cb_8a2b,
            );
        },
    );
}

/// The `long10` GAF document (500 bp reads at 10 % error: `windowed_bitalign`
/// with the free first window and path-reachable later windows).
#[test]
fn long10_gaf_document_is_pinned() {
    let mut dataset = DatasetConfig::tiny(223);
    dataset.read_count = 6;
    dataset.long_read_len = 500;
    let dataset = dataset.ont_10();
    let graph = dataset.graph();
    with_every_native_mapper(
        graph,
        SegramConfig::long_reads(0.10),
        &dataset.reads,
        |what, seqs, outcomes| {
            let records: Vec<_> = seqs
                .iter()
                .zip(outcomes)
                .enumerate()
                .filter_map(|(i, (seq, outcome))| {
                    gaf_record_for(&format!("read{i}"), seq, graph, outcome)
                        .expect("mapping converts to GAF")
                })
                .collect();
            let document = write_gaf(&records);
            assert_digest(
                &format!("long10 GAF, {what}"),
                &document,
                records.len(),
                4,
                0xca2b_d664_c5ba_ea6b,
            );
        },
    );
}

/// The `.sgi` store `index build --buckets 8` writes for the committed
/// `fixtures/sgi_v1/{ref.fa, base.vcf}` (FASTA and VCF decode, graph
/// construction, index build, epoch-0 changelog), and the store `index
/// update` writes from it for `delta.vcf`: every section's bytes, the
/// changelog's packed reference included. Provenance is left out, so the
/// digest names no path.
#[test]
fn fixture_store_bytes_are_pinned() {
    use segram_graph::build_graph;
    use segram_index::{
        encode_index, frequency_threshold, initial_changelog, update_store, GraphIndex,
        PersistedIndex,
    };
    use segram_io::{read_fasta, read_vcf, Ambiguity, VcfOptions};

    let vcf = |text: &str| {
        read_vcf(text, VcfOptions::default())
            .expect("fixture VCF parses")
            .into_single_chrom()
            .expect("one CHROM")
            .1
    };
    let records = read_fasta(include_str!("fixtures/sgi_v1/ref.fa"), Ambiguity::Reject)
        .expect("fixture FASTA parses");
    let reference = records[0].seq.clone();
    let built = build_graph(
        &reference,
        vcf(include_str!("fixtures/sgi_v1/base.vcf")).into_sorted(),
    )
    .expect("variants apply");
    let config = SegramConfig::short_reads();
    let index = GraphIndex::build(&built.graph, config.scheme, 8);
    let built_store = PersistedIndex {
        changelog: Some(initial_changelog(reference, &built, "base.vcf")),
        freq_threshold: frequency_threshold(&index, config.discard_frac),
        graph: built.graph,
        index,
        discard_frac: config.discard_frac,
        provenance: None,
    };
    let delta = vcf(include_str!("fixtures/sgi_v1/delta.vcf"));
    let updated = update_store(built_store.clone(), &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    for (what, store, golden) in [
        ("built store", &built_store, 0x3943_0315_ed0a_f4b0),
        ("updated store", &updated, 0x8f83_40fe_d440_0dc2),
    ] {
        let digest = fnv1a64(&encode_index(store));
        assert_eq!(
            digest, golden,
            "{what}: digest is {digest:#018x}, golden is {golden:#018x} — store bytes changed"
        );
    }
}
