//! Incremental store evolution — the engine behind `segram index update`.
//!
//! A persisted store carries everything needed to extend its own epoch
//! chain (the linear reference and the embedded variant set live in the
//! CHANGELOG section), so applying a VCF delta needs no access to the
//! original FASTA: an update replays the graph construction with the
//! combined variant set, diffs the graphs into a
//! [`ChangeLog`](segram_graph::ChangeLog), and merges the parent index's
//! seeds into the child's — every untouched minimizer carried over with
//! its node id translated, only the nodes the delta created re-extracted.
//! The result is byte-identical to a from-scratch build over the combined
//! VCFs while doing work proportional to the delta.
//!
//! [`update_index_file`] never holds the parent's index: it decodes the
//! parent's other sections, replays, and then walks the parent's index
//! section off the file into the merge, with every check a load runs.
//! [`update_store`] feeds the same merge an index in memory.

use std::fs;
use std::io::{Read, Seek};
use std::path::Path;

use segram_graph::{
    build_graph, extend_graph, graphs_identical, ChangeLog, ConstructedGraph, DnaSeq, GenomeGraph,
    GraphError, PackedSeq, VariantSet,
};

use crate::index::{DeltaMerge, DeltaStats, GraphIndex};
use crate::minseed::frequency_threshold;
use crate::persist::{
    read_parent, EpochEntry, IndexProvenance, PersistError, PersistedIndex, StoreChangelog,
};

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
/// The new store's changelog and provenance are extended — the parent's
/// reference and history move into it — its identity fields are left 0
/// for [`encode_index`](crate::encode_index) to stamp from the bytes it
/// writes (as [`initial_changelog`] does), and its frequency threshold is
/// recomputed from the merged index's occurrence counts — no global
/// genome pass. The parent's graph is dropped once the replay has
/// matched it, and its index once the child's is merged.
///
/// # Errors
///
/// * [`PersistError::NoChangelog`] — the store predates versioning.
/// * [`PersistError::Corrupt`] — the changelog does not reconstruct the
///   stored graph, or the delta itself is invalid against the reference
///   (out-of-bounds variants).
pub fn update_store(
    parent: PersistedIndex,
    delta: &VariantSet,
    source: &str,
) -> Result<UpdateOutcome, PersistError> {
    if parent.changelog.is_none() {
        return Err(PersistError::NoChangelog);
    }
    let identity = parent.identity();
    let PersistedIndex {
        graph,
        index,
        discard_frac,
        changelog,
        provenance,
        ..
    } = parent;
    let parent = Parent {
        graph,
        changelog,
        identity,
        discard_frac,
        provenance,
    };
    evolve(parent, delta, source, |replayed| {
        let mut merge = replayed.merge();
        index.walk_into(&mut merge);
        Ok(merge.finish())
    })
}

/// [`update_store`] of the store at `path`, which never holds the
/// parent's index: the parent's graph, meta and changelog sections are
/// decoded and verified as a load verifies them, the replay runs, and
/// only then is the index section walked — twice, every check of a load
/// in the first pass, both of its levels re-hashed in the second — with
/// each seed merged straight into the child's index. So the peak is about
/// the child store, and the child equals [`update_store`]'s of the loaded
/// parent byte for byte.
///
/// # Errors
///
/// As [`update_store`]; and a store that does not load fails with the
/// named error [`read_index_file`](crate::read_index_file) gives for it,
/// checksums first. A store that changes between the two reads of its
/// index section fails with [`PersistError::ChecksumMismatch`] (or
/// [`PersistError::Truncated`] where it shrank).
pub fn update_index_file(
    path: impl AsRef<Path>,
    delta: &VariantSet,
    source: &str,
) -> Result<UpdateOutcome, PersistError> {
    update_from(&mut fs::File::open(path)?, delta, source)
}

/// [`update_index_file`] of the store `src` holds.
pub(crate) fn update_from<R: Read + Seek>(
    src: &mut R,
    delta: &VariantSet,
    source: &str,
) -> Result<UpdateOutcome, PersistError> {
    read_parent(src, |parent, index| {
        evolve(parent, delta, source, |replayed| {
            let mut merge = replayed.merge();
            let lens = &replayed.parent_node_lens;
            index.walk(|node| lens.get(node.index()).copied(), &mut merge)?;
            Ok(merge.finish())
        })
    })
}

/// A parent store but its index: what an update reads before it merges
/// the parent's seeds.
#[derive(Debug)]
pub(crate) struct Parent {
    pub(crate) graph: GenomeGraph,
    pub(crate) changelog: Option<StoreChangelog>,
    /// The parent's store identity, the child's `parent`.
    pub(crate) identity: u64,
    pub(crate) discard_frac: f64,
    pub(crate) provenance: Option<IndexProvenance>,
}

/// What the replay of a parent's changelog leaves for the index merge: the
/// child graph, the change log from the parent graph to it, and the
/// parent graph's node lengths — all that a checked walk of the parent's
/// index reads of the parent graph.
struct Replayed {
    new: ConstructedGraph,
    log: ChangeLog,
    parent_node_lens: Vec<usize>,
}

impl Replayed {
    /// The merge of the parent's index into the child's.
    fn merge(&self) -> DeltaMerge<'_> {
        DeltaMerge::new(self.parent_node_lens.len(), &self.new.graph, &self.log)
    }
}

/// The update behind [`update_store`] and [`update_index_file`]: replays
/// the parent's changelog with `delta`, has `merge` build the child's
/// index from the replay, and assembles the child store, moving the
/// parent's reference and history into its changelog.
fn evolve(
    parent: Parent,
    delta: &VariantSet,
    source: &str,
    merge: impl FnOnce(&Replayed) -> Result<(GraphIndex, DeltaStats), PersistError>,
) -> Result<UpdateOutcome, PersistError> {
    let log = parent.changelog.ok_or(PersistError::NoChangelog)?;
    let StoreChangelog {
        epoch,
        reference,
        applied,
        mut history,
        ..
    } = log;
    let replayed = replay(parent.graph, &reference, applied, delta, epoch)?;
    let (index, stats) = merge(&replayed)?;
    let freq_threshold = frequency_threshold(&index, parent.discard_frac);
    let Replayed {
        new, log: change, ..
    } = replayed;

    let parent_identity = parent.identity;
    let epoch = epoch + 1;
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
        added_variants: change.added_variants as u64,
        dropped_variants: change.dropped_variants as u64,
        touched: change.touched.clone(),
    });
    let changelog = StoreChangelog {
        epoch,
        parent: parent_identity,
        identity: 0,
        reference,
        applied: new.applied,
        history,
    };
    let provenance = parent.provenance.map(|mut p| {
        p.vcf_paths.push(source.to_string());
        p.epoch = epoch;
        p
    });

    Ok(UpdateOutcome {
        persisted: PersistedIndex {
            graph: new.graph,
            index,
            discard_frac: parent.discard_frac,
            freq_threshold,
            changelog: Some(changelog),
            provenance,
        },
        stats,
        log: change,
    })
}

/// Replays the parent's construction in two steps, each input dropped
/// once it has served: the parent graph, built from `(reference,
/// applied)` and matched against the `stored` one, which then goes; the
/// child graph over `applied ∪ delta`, diffed against the parent graph,
/// which then goes with the unpacked reference.
fn replay(
    stored: GenomeGraph,
    reference: &PackedSeq,
    applied: VariantSet,
    delta: &VariantSet,
    epoch: u64,
) -> Result<Replayed, PersistError> {
    let does_not_apply = |e: GraphError| PersistError::Corrupt {
        section: "changelog",
        detail: format!("delta does not apply: {e}"),
    };
    let reference = reference.unpack();
    let old = build_graph(&reference, applied.clone()).map_err(does_not_apply)?;
    // The replayed parent graph must be the graph the index was built
    // over — compare actual content, not just summary stats, so a
    // mismatched changelog can never seed a silently wrong delta.
    if !graphs_identical(&old.graph, &stored) {
        return Err(PersistError::Corrupt {
            section: "changelog",
            detail: "changelog does not reconstruct the stored graph".into(),
        });
    }
    drop(stored);
    let (new, log) =
        extend_graph(&reference, &old, &applied, delta, epoch).map_err(does_not_apply)?;
    let parent_node_lens = old
        .graph
        .node_ids()
        .map(|n| old.graph.node_len(n))
        .collect();
    Ok(Replayed {
        new,
        log,
        parent_node_lens,
    })
}
