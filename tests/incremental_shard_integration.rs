//! Differential tests for the dirty-shard hot swap: a sharded index
//! evolved by [`ShardedIndex::apply_delta`] must map every read — and
//! render every SAM/GAF byte — exactly like a fresh re-shard of the new
//! store, across shard counts and thread counts, while provably keeping
//! the clean shards' index allocations shared with the predecessor.

use segram_core::{
    gaf_record_for, sam_record_for, EngineOptions, MapEngine, ReadMapper, SegramConfig,
    ShardedIndex,
};
use segram_graph::{build_graph, Base, DnaSeq, NodeId, Variant, VariantSet};
use segram_index::{
    frequency_threshold, initial_changelog, update_store, GraphIndex, MinimizerScheme,
    PersistError, PersistedIndex,
};
use segram_sim::{simulate_reads, ReadConfig, SimulatedRead};

const DISCARD: f64 = 0.02;

fn reference() -> DnaSeq {
    "ACGTTGCAGTCATGCAACGGTTAC"
        .repeat(120)
        .parse()
        .expect("valid bases")
}

fn build_store(reference: &DnaSeq, variants: VariantSet, source: &str) -> PersistedIndex {
    let built = build_graph(reference, variants).expect("variants apply");
    let changelog = initial_changelog(reference.clone(), &built, source);
    let index = GraphIndex::build(&built.graph, MinimizerScheme::new(5, 11), 6);
    let freq_threshold = frequency_threshold(&index, DISCARD);
    PersistedIndex {
        graph: built.graph,
        index,
        discard_frac: DISCARD,
        freq_threshold,
        changelog: Some(changelog),
        provenance: None,
    }
}

/// Epoch-0 variants spread over the whole reference; the delta confined
/// to the tail, so early shards stay clean at every tested shard count.
fn stores() -> (PersistedIndex, PersistedIndex) {
    let reference = reference();
    let base: VariantSet = vec![
        Variant::snp(40, Base::C),
        Variant::insertion(301, "TTAG".parse().expect("valid bases")),
        Variant::deletion(702, 3),
        Variant::snp(1203, Base::A),
        Variant::deletion(1804, 2),
    ]
    .into_iter()
    .collect();
    let delta: VariantSet = vec![
        Variant::snp(2610, Base::A),
        Variant::insertion(2650, "CATT".parse().expect("valid bases")),
        Variant::deletion(2700, 4),
    ]
    .into_iter()
    .collect();
    let v1 = build_store(&reference, base, "base.vcf");
    let v2 = update_store(v1.clone(), &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    (v1, v2)
}

/// Mirrors the CLI's config override: the store's scheme/buckets/discard
/// take precedence over the preset's.
fn config_for(store: &PersistedIndex) -> SegramConfig {
    let mut config = SegramConfig::short_reads();
    config.scheme = *store.index.scheme();
    config.bucket_bits = store.index.bucket_bits();
    config.discard_frac = store.discard_frac;
    config
}

/// Renders the full SAM + GAF documents for `reads` through the batched
/// engine, the way `segram map`/`segram serve` do.
fn render_documents(
    mapper: &ShardedIndex,
    reads: &[SimulatedRead],
    threads: usize,
) -> (Vec<u8>, Vec<u8>) {
    let config = EngineOptions::new().threads(threads).batch_size(8);
    let engine = MapEngine::new(mapper, config);
    let mut sam = Vec::new();
    let mut gaf = Vec::new();
    engine.map_stream(
        reads.iter(),
        |read| &read.seq,
        |read, outcome| {
            let id = format!("r{}", read.id);
            let rec = sam_record_for(&id, &read.seq, &outcome);
            sam.extend_from_slice(rec.to_sam_line().as_bytes());
            sam.push(b'\n');
            match gaf_record_for(&id, &read.seq, mapper.graph(), &outcome).expect("gaf renders") {
                None => {}
                Some(rec) => {
                    gaf.extend_from_slice(rec.to_gaf_line().as_bytes());
                    gaf.push(b'\n');
                }
            }
        },
    );
    (sam, gaf)
}

#[test]
fn delta_swap_maps_byte_identically_to_a_fresh_reshard() {
    let (v1, v2) = stores();
    let config = config_for(&v2);
    let reads = simulate_reads(&v2.graph, &ReadConfig::short_reads(60, 60, 7));

    for shards in [2usize, 4] {
        let scratch = ShardedIndex::from_persisted(v2.clone(), config, shards);
        let base = ShardedIndex::from_persisted(v1.clone(), config, shards);
        let (swapped, report) = base.apply_delta(v2.clone()).expect("parent matches");

        assert_eq!(report.epoch, 1);
        assert_eq!(swapped.shards().len(), base.shards().len());
        assert_eq!(
            report.dirty + report.clean(),
            swapped.shards().len(),
            "dirty + clean must partition the shard set at {shards} shards"
        );
        assert!(report.dirty >= 1, "the touched tail must dirty a shard");
        // The delta is confined to the tail: early shards stay clean, and
        // the clean ones share the predecessor's index Arcs.
        assert!(
            report.dirty < swapped.shards().len(),
            "a localized delta must not dirty every one of {shards} shards"
        );
        let shared = base
            .shards()
            .iter()
            .zip(swapped.shards())
            .filter(|(old, new)| old.shares_index_with(new))
            .count();
        assert_eq!(shared, report.shared, "Arc-sharing count disagrees");
        assert!(shared >= 1, "no shard allocation was shared");

        for threads in [1usize, 4] {
            let (sam_a, gaf_a) = render_documents(&scratch, &reads, threads);
            let (sam_b, gaf_b) = render_documents(&swapped, &reads, threads);
            assert_eq!(
                sam_a, sam_b,
                "SAM bytes diverged at {shards} shards, {threads} threads"
            );
            assert_eq!(
                gaf_a, gaf_b,
                "GAF bytes diverged at {shards} shards, {threads} threads"
            );
        }
    }
}

#[test]
fn chained_delta_swaps_track_scratch_resharding() {
    let (v1, v2) = stores();
    let delta2: VariantSet = vec![Variant::snp(150, Base::G), Variant::deletion(180, 2)]
        .into_iter()
        .collect();
    let v3 = update_store(v2.clone(), &delta2, "d2.vcf")
        .expect("second delta applies")
        .persisted;
    let config = config_for(&v3);
    let reads = simulate_reads(&v3.graph, &ReadConfig::short_reads(40, 60, 11));

    let base = ShardedIndex::from_persisted(v1, config, 4);
    let (step1, r1) = base.apply_delta(v2).expect("epoch 0 -> 1");
    let (step2, r2) = step1.apply_delta(v3.clone()).expect("epoch 1 -> 2");
    assert_eq!((r1.epoch, r2.epoch), (1, 2));

    let scratch = ShardedIndex::from_persisted(v3, config, 4);
    let (sam_a, gaf_a) = render_documents(&scratch, &reads, 4);
    let (sam_b, gaf_b) = render_documents(&step2, &reads, 4);
    assert_eq!(sam_a, sam_b);
    assert_eq!(gaf_a, gaf_b);
}

#[test]
fn a_delta_swap_maps_against_the_child_graph_it_was_handed() {
    let (v1, v2) = stores();
    let config = config_for(&v2);
    let base = ShardedIndex::from_persisted(v1, config, 4);
    // The child's character table: the graph moves into the swapped
    // index rather than being copied.
    let chars = v2.graph.seq(NodeId(0)).as_ptr();
    let (swapped, _) = base.apply_delta(v2).expect("parent matches");
    assert_eq!(swapped.graph().seq(NodeId(0)).as_ptr(), chars);
}

/// Why `on` declined `child` as a delta, after checking that the store it
/// handed back is `child`.
fn declined(on: &ShardedIndex, child: &PersistedIndex) -> PersistError {
    let declined = on
        .apply_delta(child.clone())
        .expect_err("the delta must be declined");
    assert_eq!(declined.store.identity(), child.identity());
    declined.reason
}

#[test]
fn delta_swap_preconditions_fail_with_named_errors() {
    let (v1, v2) = stores();
    let config = config_for(&v2);

    // Wrong parent: v2's parent is v1, not v2 itself.
    let on_v2 = ShardedIndex::from_persisted(v2.clone(), config, 2);
    assert!(matches!(
        declined(&on_v2, &v2),
        PersistError::ParentMismatch { .. }
    ));

    // Right parent, forged epoch: the chain must advance by exactly one.
    let on_v1 = ShardedIndex::from_persisted(v1.clone(), config, 2);
    let mut skewed = v2.clone();
    skewed.changelog.as_mut().expect("versioned").epoch = 5;
    assert!(matches!(
        declined(&on_v1, &skewed),
        PersistError::EpochSkew { .. }
    ));

    // Legacy stores on either side refuse by name.
    let legacy = PersistedIndex {
        changelog: None,
        ..v1.clone()
    };
    let on_legacy = ShardedIndex::from_persisted(legacy.clone(), config, 2);
    assert!(matches!(
        declined(&on_legacy, &v2),
        PersistError::NoChangelog
    ));
    assert!(matches!(
        declined(&on_v1, &legacy),
        PersistError::NoChangelog
    ));

    // One shard has no clean shard a delta could carry over: it keeps no
    // lineage (the reference and variant set would be held for nothing)
    // and declines the delta route by the same name.
    let one = ShardedIndex::from_persisted(v1, config, 1);
    assert!(one.lineage().is_none() && on_v1.lineage().is_some());
    assert!(matches!(declined(&one, &v2), PersistError::NoChangelog));
}
