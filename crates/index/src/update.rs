//! Incremental store evolution — the engine behind `segram index update`.
//!
//! A persisted store carries everything needed to extend its own epoch
//! chain (the linear reference and the embedded variant set live in the
//! CHANGELOG section), so applying a VCF delta needs no access to the
//! original FASTA: [`update_store`] replays the graph construction with
//! the combined variant set, diffs the graphs into a
//! [`ChangeLog`](segram_graph::ChangeLog), and asks
//! [`GraphIndex::apply_delta`](crate::GraphIndex::apply_delta) to carry
//! every untouched minimizer over — re-extracting only the nodes the
//! delta created. The result is byte-identical to a from-scratch build
//! over the combined VCFs while doing work proportional to the delta.

use segram_graph::{
    apply_variants, graphs_identical, ChangeLog, ConstructedGraph, DnaSeq, PackedSeq, VariantSet,
};

use crate::index::DeltaStats;
use crate::minseed::frequency_threshold;
use crate::persist::{EpochEntry, PersistError, PersistedIndex, StoreChangelog};

/// Result of [`update_store`]: the evolved store plus the evidence that
/// the update was partial (stats) and what changed (log).
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// The evolved store, at epoch `parent.epoch + 1`, ready for
    /// [`write_index_file`](crate::write_index_file).
    pub persisted: PersistedIndex,
    /// Carried/dropped/re-extracted counters from the index delta — the
    /// proof that only the touched ranges were re-processed.
    pub stats: DeltaStats,
    /// The graph-level change log (ops, touched ranges, variant counts).
    pub log: ChangeLog,
}

/// The epoch-0 changelog for a fresh `index build`, which keeps
/// `reference` packed.
///
/// Identity fields are left 0; [`encode_index`](crate::encode_index)
/// stamps them from the actual payload bytes at write time.
pub fn initial_changelog(
    reference: DnaSeq,
    built: &ConstructedGraph,
    source: impl Into<String>,
) -> StoreChangelog {
    let ref_len = reference.len() as u64;
    StoreChangelog {
        epoch: 0,
        parent: 0,
        identity: 0,
        reference: PackedSeq::from_seq(&reference),
        applied: built.applied.clone(),
        history: vec![EpochEntry {
            epoch: 0,
            parent: 0,
            identity: 0,
            source: source.into(),
            added_variants: built.embedded_variants as u64,
            dropped_variants: built.dropped_variants as u64,
            touched: vec![(0, ref_len)],
        }],
    }
}

/// Applies a variant `delta` to a persisted store, producing the next
/// epoch.
///
/// `source` labels the new [`EpochEntry`] (conventionally the VCF path).
/// The new store's changelog and provenance are extended, its identity
/// fields are left 0 for [`encode_index`](crate::encode_index) to stamp
/// from the bytes it writes (as [`initial_changelog`] does), and its
/// frequency threshold is recomputed from the merged index's occurrence
/// counts — no global genome pass.
///
/// # Errors
///
/// * [`PersistError::NoChangelog`] — the store predates versioning.
/// * [`PersistError::Corrupt`] — the changelog does not reconstruct the
///   stored graph, or the delta itself is invalid against the reference
///   (out-of-bounds variants).
pub fn update_store(
    parent: &PersistedIndex,
    delta: &VariantSet,
    source: &str,
) -> Result<UpdateOutcome, PersistError> {
    let log = parent.changelog.as_ref().ok_or(PersistError::NoChangelog)?;
    let built = apply_variants(&log.reference, &log.applied, delta, log.epoch).map_err(|e| {
        PersistError::Corrupt {
            section: "changelog",
            detail: format!("delta does not apply: {e}"),
        }
    })?;
    // The replayed parent graph must be the graph the index was built
    // over — compare actual content, not just summary stats, so a
    // mismatched changelog can never seed a silently wrong delta.
    if !graphs_identical(&built.old.graph, &parent.graph) {
        return Err(PersistError::Corrupt {
            section: "changelog",
            detail: "changelog does not reconstruct the stored graph".into(),
        });
    }
    // Accepted, the replay has served its purpose: the diff is in
    // `built.log`, and the index delta reads the stored graph.
    drop(built.old);

    let (index, stats) = parent
        .index
        .apply_delta(&parent.graph, &built.new.graph, &built.log);
    let freq_threshold = frequency_threshold(&index, parent.discard_frac);

    let parent_identity = parent.identity();
    let epoch = log.epoch + 1;
    let mut history = log.history.clone();
    // A parent that never went through `encode_index` still has its tail
    // identity unstamped (0); stamp it now so the hash chain the decoder
    // verifies is intact whether or not the parent ever touched disk.
    if let Some(last) = history.last_mut() {
        if last.identity == 0 {
            last.identity = parent_identity;
        }
    }
    history.push(EpochEntry {
        epoch,
        parent: parent_identity,
        identity: 0,
        source: source.to_string(),
        added_variants: built.log.added_variants as u64,
        dropped_variants: built.log.dropped_variants as u64,
        touched: built.log.touched.clone(),
    });
    let changelog = StoreChangelog {
        epoch,
        parent: parent_identity,
        identity: 0,
        reference: log.reference.clone(),
        applied: built.new.applied.clone(),
        history,
    };
    let provenance = parent.provenance.clone().map(|mut p| {
        p.vcf_paths.push(source.to_string());
        p.epoch = epoch;
        p
    });

    Ok(UpdateOutcome {
        persisted: PersistedIndex {
            graph: built.new.graph,
            index,
            discard_frac: parent.discard_frac,
            freq_threshold,
            changelog: Some(changelog),
            provenance,
        },
        stats,
        log: built.log,
    })
}
