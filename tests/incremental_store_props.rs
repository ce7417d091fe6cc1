//! Differential and corruption-class tests for the versioned pangenome
//! store.
//!
//! The core contract: [`update_store`] applied to a persisted epoch-N
//! store plus a variant delta — or [`update_index_file`] to its file —
//! must produce exactly the graph and index payloads a from-scratch build
//! over the combined variant set would — while provably re-extracting
//! only the touched coordinate ranges. And
//! every CHANGELOG corruption class (truncation, epoch skew,
//! parent-checksum mismatch, missing changelog, non-reconstructing
//! history) must surface as a named [`PersistError`], never a panic.

use segram_graph::{build_graph, graphs_identical, Base, DnaSeq, Variant, VariantSet};
use segram_index::{
    decode_index, encode_index, frequency_threshold, initial_changelog, update_index_file,
    update_store, write_index_file, GraphIndex, MinimizerScheme, PersistError, PersistedIndex,
};

const DISCARD: f64 = 0.02;
const BUCKET_BITS: u32 = 6;

fn scheme() -> MinimizerScheme {
    MinimizerScheme::new(5, 11)
}

/// 2880 bp of non-trivial periodic reference.
fn reference() -> DnaSeq {
    "ACGTTGCAGTCATGCAACGGTTAC"
        .repeat(120)
        .parse()
        .expect("valid bases")
}

/// Builds a complete epoch-0 store the way `segram index build` does:
/// graph from reference + variants, index over the graph, changelog
/// recording the reference and the applied set.
fn build_store(reference: &DnaSeq, variants: VariantSet, source: &str) -> PersistedIndex {
    build_store_at(reference, variants, source, BUCKET_BITS)
}

fn build_store_at(
    reference: &DnaSeq,
    variants: VariantSet,
    source: &str,
    bucket_bits: u32,
) -> PersistedIndex {
    let built = build_graph(reference, variants).expect("variants apply");
    let changelog = initial_changelog(reference.clone(), &built, source);
    let index = GraphIndex::build(&built.graph, scheme(), bucket_bits);
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

/// Widely spaced epoch-0 variants across the whole reference (no two
/// conflict, so the applied set equals the input set).
fn base_variants() -> Vec<Variant> {
    vec![
        Variant::snp(40, Base::C),
        Variant::insertion(301, "TTAG".parse().expect("valid bases")),
        Variant::deletion(702, 3),
        Variant::snp(1203, Base::A),
        Variant::deletion(1804, 2),
        Variant::snp(2205, Base::G),
    ]
}

/// The delta: confined to the last ~10 % of the reference, including one
/// deliberately conflicting pair (the SNP sits inside the deletion's
/// footprint) so the conflict-dropping path is exercised too.
fn delta_variants() -> Vec<Variant> {
    vec![
        Variant::snp(2610, Base::A),
        Variant::insertion(2650, "CATT".parse().expect("valid bases")),
        Variant::deletion(2700, 4),
        Variant::snp(2702, Base::C),
    ]
}

/// A second delta, elsewhere, for epoch-chaining tests.
fn second_delta() -> Vec<Variant> {
    vec![Variant::snp(150, Base::G), Variant::deletion(180, 2)]
}

fn store_and_delta() -> (PersistedIndex, VariantSet) {
    let reference = reference();
    let v1 = build_store(
        &reference,
        base_variants().into_iter().collect(),
        "base.vcf",
    );
    (v1, delta_variants().into_iter().collect())
}

/// The union the incremental path effectively builds over: the parent's
/// *applied* set plus the delta.
fn combined(parent: &PersistedIndex, delta: &VariantSet) -> VariantSet {
    let applied = &parent.changelog.as_ref().expect("versioned store").applied;
    applied.iter().chain(delta.iter()).cloned().collect()
}

#[test]
fn update_store_equals_scratch_build_over_combined_variants() {
    let (v1, delta) = store_and_delta();
    let out = update_store(v1.clone(), &delta, "delta.vcf").expect("delta applies");

    let scratch = build_store(&reference(), combined(&v1, &delta), "combined.vcf");
    assert!(
        graphs_identical(&out.persisted.graph, &scratch.graph),
        "updated graph differs from the scratch build"
    );
    // identity() hashes the encoded GRAPH and INDEX payload bytes, so
    // equality here is byte-identity of everything mapping consumes.
    assert_eq!(out.persisted.identity(), scratch.identity());
    assert_eq!(out.persisted.freq_threshold, scratch.freq_threshold);

    // The update was genuinely partial: most locations carried over, and
    // the re-extracted characters are a fraction of the genome.
    assert!(out.stats.carried_locations > 0, "nothing carried");
    assert!(
        out.stats.carried_locations > out.stats.extracted_locations,
        "carried {} <= extracted {}",
        out.stats.carried_locations,
        out.stats.extracted_locations
    );
    let total = out.persisted.graph.total_chars();
    assert!(
        out.stats.extracted_chars < total / 2,
        "re-extracted {} of {total} chars — not a partial update",
        out.stats.extracted_chars
    );
    // The touched ranges cover a strict subset of the reference.
    let touched_span: u64 = out.log.touched.iter().map(|(s, e)| e - s).sum();
    assert!(!out.log.touched.is_empty());
    assert!(touched_span < reference().len() as u64 / 2);

    // Epoch bookkeeping: one step forward, full history retained.
    let log = out.persisted.changelog.as_ref().expect("still versioned");
    assert_eq!(log.epoch, 1);
    assert_eq!(log.parent, v1.identity());
    assert_eq!(log.history.len(), 2);
    assert_eq!(log.history[1].source, "delta.vcf");
    assert!(log.history[1].added_variants > 0);
    assert!(
        log.history[1].dropped_variants > 0,
        "the conflicting SNP should have been dropped"
    );
}

/// `apply_delta` streams the carried walk and the sorted fresh pairs
/// straight into the level builder, whose only check of their order is a
/// debug assertion on consecutive pairs — so this runs where that is armed
/// (the test profile keeps debug assertions on), and the streamed result
/// has to be `build`'s at bucket counts from two buckets of everything to
/// mostly empty ones.
#[test]
#[cfg(debug_assertions)]
fn streamed_apply_delta_equals_build_with_the_order_assert_armed() {
    let reference = reference();
    for bucket_bits in [1, 4, BUCKET_BITS, 16] {
        let base: VariantSet = base_variants().into_iter().collect();
        let v1 = build_store_at(&reference, base, "base.vcf", bucket_bits);
        let mut store = v1.clone();
        for (delta, source) in [(delta_variants(), "d1.vcf"), (second_delta(), "d2.vcf")] {
            let delta: VariantSet = delta.into_iter().collect();
            let all = combined(&store, &delta);
            store = update_store(store, &delta, source)
                .expect("delta applies")
                .persisted;
            let scratch = build_store_at(&reference, all, "all.vcf", bucket_bits);
            assert_eq!(store.index.bucket_bits(), bucket_bits);
            assert_eq!(
                store.identity(),
                scratch.identity(),
                "2^{bucket_bits} buckets after {source}"
            );
        }
    }
}

#[test]
fn chained_updates_equal_one_scratch_build_in_memory_and_through_disk() {
    let (v1, delta1) = store_and_delta();
    let delta2: VariantSet = second_delta().into_iter().collect();

    // In-memory chain: v1 -> v2 -> v3 without touching disk.
    let v2 = update_store(v1, &delta1, "d1.vcf")
        .expect("d1 applies")
        .persisted;
    let v3 = update_store(v2.clone(), &delta2, "d2.vcf")
        .expect("d2 applies")
        .persisted;

    let all = combined(&v2, &delta2);
    let scratch = build_store(&reference(), all, "all.vcf");
    assert!(graphs_identical(&v3.graph, &scratch.graph));
    assert_eq!(v3.identity(), scratch.identity());
    assert_eq!(v3.freq_threshold, scratch.freq_threshold);

    // Disk chain: persist v2, reload it, and update the reloaded copy —
    // the CHANGELOG section alone must be enough to continue the chain.
    let reloaded = decode_index(&encode_index(&v2)).expect("own encoding loads");
    assert_eq!(reloaded.identity(), v2.identity());
    let v3_from_disk = update_store(reloaded, &delta2, "d2.vcf")
        .expect("reloaded store updates")
        .persisted;
    assert_eq!(v3_from_disk.identity(), v3.identity());
    let log = v3_from_disk.changelog.as_ref().expect("versioned");
    assert_eq!(log.epoch, 2);
    assert_eq!(
        log.history.iter().map(|e| e.epoch).collect::<Vec<_>>(),
        vec![0, 1, 2]
    );

    // File chain: write v2 and update the file, which streams v2's index
    // section into the merge instead of loading it — the same store,
    // byte for byte, as the reloaded copy's in-memory update.
    let path =
        std::env::temp_dir().join(format!("segram-chained-updates-{}.sgi", std::process::id()));
    write_index_file(&v2, &path).expect("write v2");
    let from_file = update_index_file(&path, &delta2, "d2.vcf");
    let _ = std::fs::remove_file(&path);
    let v3_from_file = from_file.expect("v2's file updates").persisted;
    assert_eq!(encode_index(&v3_from_file), encode_index(&v3_from_disk));
}

#[test]
fn updated_store_round_trips_byte_identically() {
    let (v1, delta) = store_and_delta();
    let out = update_store(v1, &delta, "delta.vcf").expect("delta applies");
    let bytes = encode_index(&out.persisted);
    let loaded = decode_index(&bytes).expect("own encoding loads");
    assert_eq!(encode_index(&loaded), bytes);
    assert_eq!(loaded.identity(), out.persisted.identity());
    let log = loaded.changelog.as_ref().expect("changelog survives");
    assert_eq!(log.history.len(), 2);
    assert_eq!(log.history[1].touched, out.log.touched);
}

#[test]
fn legacy_store_without_changelog_is_refused_by_name() {
    let (v1, delta) = store_and_delta();
    let legacy = PersistedIndex {
        changelog: None,
        ..v1
    };
    assert!(matches!(
        update_store(legacy, &delta, "delta.vcf"),
        Err(PersistError::NoChangelog)
    ));
}

#[test]
fn epoch_skew_in_the_persisted_chain_is_detected() {
    let (v1, delta) = store_and_delta();
    let mut v2 = update_store(v1, &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;

    // Tamper the *top-level* epoch: encode re-stamps identities from the
    // payloads, but epochs are trusted as stored — the decoder must catch
    // the disagreement with the history tail.
    v2.changelog.as_mut().expect("versioned").epoch = 5;
    let err = decode_index(&encode_index(&v2)).expect_err("skewed epoch must not load");
    assert!(
        matches!(
            err,
            PersistError::EpochSkew {
                expected: 1,
                found: 5
            }
        ),
        "got {err}"
    );

    // Tamper an *inner* history epoch: entries must count 0..n.
    let (v1, delta) = store_and_delta();
    let mut v2 = update_store(v1, &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    v2.changelog.as_mut().expect("versioned").history[0].epoch = 3;
    let err = decode_index(&encode_index(&v2)).expect_err("skewed history must not load");
    assert!(matches!(err, PersistError::EpochSkew { .. }), "got {err}");
}

#[test]
fn parent_checksum_mismatch_in_the_chain_is_detected() {
    let (v1, delta) = store_and_delta();
    let mut v2 = update_store(v1, &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;

    // Break the hash chain between history entries: entry 1's parent no
    // longer equals entry 0's identity.
    v2.changelog.as_mut().expect("versioned").history[0].identity ^= 0xdead_beef;
    let err = decode_index(&encode_index(&v2)).expect_err("broken chain must not load");
    assert!(
        matches!(err, PersistError::ParentMismatch { .. }),
        "got {err}"
    );

    // Break the top-level parent against the history tail.
    let (v1, delta) = store_and_delta();
    let mut v2 = update_store(v1, &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    v2.changelog.as_mut().expect("versioned").parent ^= 1;
    let err = decode_index(&encode_index(&v2)).expect_err("forged parent must not load");
    assert!(
        matches!(err, PersistError::ParentMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn non_reconstructing_changelog_is_refused_before_any_delta_math() {
    // A changelog whose applied set does not rebuild the stored graph
    // must be rejected — otherwise it would seed a silently wrong delta.
    let (v1, delta) = store_and_delta();
    let mut forged = v1.clone();
    forged.changelog.as_mut().expect("versioned").applied = std::iter::empty::<Variant>().collect();
    match update_store(forged, &delta, "delta.vcf") {
        Err(PersistError::Corrupt { section, .. }) => assert_eq!(section, "changelog"),
        other => panic!("forged applied set gave {other:?}"),
    }
}

#[test]
fn every_truncation_point_of_a_versioned_store_errors_cleanly() {
    let (v1, delta) = store_and_delta();
    let v2 = update_store(v1, &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    let bytes = encode_index(&v2);
    for cut in 0..bytes.len() {
        let err = decode_index(&bytes[..cut]).expect_err("truncated file must not load");
        match err {
            PersistError::BadMagic
            | PersistError::Truncated { .. }
            | PersistError::ChecksumMismatch { .. }
            | PersistError::Corrupt { .. } => {}
            other => panic!("truncation at {cut} gave unexpected error {other}"),
        }
    }
}

#[test]
fn changelog_payload_flips_are_caught_by_the_section_checksum() {
    let (v1, delta) = store_and_delta();
    let v2 = update_store(v1, &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    let bytes = encode_index(&v2);
    // A versioned store has four sections; everything past the header is
    // checksummed payload.
    let header = 8 + 4 + 4 + 4 * 28;
    for pos in [header, header + (bytes.len() - header) / 2, bytes.len() - 1] {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x40;
        let err = decode_index(&flipped).expect_err("flip must be detected");
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { .. }
                    | PersistError::Truncated { .. }
                    | PersistError::Corrupt { .. }
            ),
            "payload flip at {pos} gave {err}"
        );
    }
}
