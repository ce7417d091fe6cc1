//! Graph change-operations: applying a variant delta to an existing
//! genome graph as a **logged, versioned operation** instead of an opaque
//! rebuild.
//!
//! The model follows the git-for-genomes idea (operations + changelog over
//! a graph database): a pangenome release is the result of a chain of
//! variant applications, each stamped with a monotonically increasing
//! *epoch*. [`apply_variants`] takes the linear reference, the variant set
//! already embedded in the current graph, and a delta set, and returns
//!
//! * the rebuilt graph (byte-identical to a from-scratch
//!   [`build_graph`](crate::build_graph) on the combined set — the
//!   equivalence every downstream incremental structure leans on), and
//! * a [`ChangeLog`]: the [`GraphOp`]s performed, the *carried* node pairs
//!   (old node → new node with identical sequence content), the *fresh*
//!   nodes that exist only in the new graph, and the merged
//!   reference-coordinate ranges the delta touched.
//!
//! Because minimizers never cross node boundaries, a carried node's index
//! entries are valid in the new graph after nothing more than a node-id
//! translation — that is what lets `segram-index` re-extract only fresh
//! nodes and `segram-core` rebuild only dirty shards.
//!
//! Conflict rule: the combined set is sorted and overlap-dropped exactly
//! like a scratch build, so earlier-sorting variants win regardless of
//! which epoch introduced them. A delta variant overlapping an embedded
//! one is counted in [`ChangeLog::dropped_variants`].

use std::borrow::Cow;

use crate::{build_graph, ConstructedGraph, DnaSeq, GenomeGraph, GraphError, NodeId, VariantSet};

/// One logged operation performed on the graph by a variant application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphOp {
    /// A node that exists only in the new graph (its minimizers must be
    /// extracted from scratch).
    AddNode {
        /// Node id in the **new** graph.
        node: NodeId,
        /// Reference coordinate the node's interval starts at.
        ref_start: u64,
        /// Sequence length in characters.
        len: u64,
        /// Whether the node is a linear-reference backbone segment.
        backbone: bool,
    },
    /// A node of the old graph with no counterpart in the new graph.
    DropNode {
        /// Node id in the **old** graph.
        node: NodeId,
    },
    /// An edge of the new graph that is not the image of an old edge
    /// under the carried-node mapping.
    AddEdge {
        /// Source node id in the **new** graph.
        from: NodeId,
        /// Target node id in the **new** graph.
        to: NodeId,
    },
}

/// The versioned record of one variant application: which nodes carried
/// over, which are fresh, and which reference ranges were touched.
#[derive(Clone, Debug, Default)]
pub struct ChangeLog {
    /// Epoch of the graph the delta was applied to.
    pub parent_epoch: u64,
    /// Epoch of the resulting graph (`parent_epoch + 1`).
    pub epoch: u64,
    /// The operations performed, in new-graph node/edge order.
    pub ops: Vec<GraphOp>,
    /// `(old, new)` pairs of content-identical nodes, strictly increasing
    /// in **both** components (the mapping preserves coordinate order).
    pub carried: Vec<(NodeId, NodeId)>,
    /// New-graph nodes with no old counterpart (need re-extraction).
    pub fresh: Vec<NodeId>,
    /// Old-graph nodes with no new counterpart (their index entries die).
    pub dropped: Vec<NodeId>,
    /// Merged half-open reference-coordinate ranges covered by fresh and
    /// dropped nodes — the part of the genome the delta touched.
    pub touched: Vec<(u64, u64)>,
    /// Delta variants embedded in the new graph.
    pub added_variants: usize,
    /// Delta variants discarded because they overlapped the combined set.
    pub dropped_variants: usize,
}

impl ChangeLog {
    /// Old-node → new-node translation table (`None` for dropped nodes),
    /// indexed by old node id.
    pub fn carried_map(&self, old_nodes: usize) -> Vec<Option<NodeId>> {
        let mut map = vec![None; old_nodes];
        for &(old, new) in &self.carried {
            map[old.index()] = Some(new);
        }
        map
    }

    /// Half-open linear-coordinate intervals of the fresh nodes in the
    /// new graph — the character ranges an incremental indexer must
    /// re-extract (everything else is carried).
    pub fn fresh_linear(&self, new_graph: &GenomeGraph) -> Vec<(u64, u64)> {
        merge_ranges(
            self.fresh
                .iter()
                .map(|&n| {
                    let start = new_graph.char_start(n);
                    (start, start + new_graph.node_len(n) as u64)
                })
                .collect(),
        )
    }

    /// Total characters across the fresh nodes — the re-extraction work.
    pub fn fresh_chars(&self, new_graph: &GenomeGraph) -> u64 {
        self.fresh
            .iter()
            .map(|&n| new_graph.node_len(n) as u64)
            .sum()
    }
}

/// Result of [`apply_variants`]: both builds plus the change log.
#[derive(Clone, Debug)]
pub struct DeltaBuild {
    /// The parent graph, rebuilt from `(reference, applied)` — needed by
    /// callers that only persisted the graph itself.
    pub old: ConstructedGraph,
    /// The child graph, built from the combined variant set; identical to
    /// a from-scratch [`build_graph`] on `applied ∪ delta`.
    pub new: ConstructedGraph,
    /// What changed between them.
    pub log: ChangeLog,
}

/// Applies a variant delta to the graph described by
/// `(reference, applied)` and logs the operations.
///
/// `applied` must be the embedded (sorted, non-overlapping) set of the
/// parent build — exactly what [`ConstructedGraph::applied`] reports and
/// the `.sgi` changelog section persists. `parent_epoch` stamps the log;
/// the new graph is epoch `parent_epoch + 1`. `reference` is a
/// [`DnaSeq`] or a [`PackedSeq`](crate::PackedSeq), which is unpacked once
/// for both builds.
///
/// # Errors
///
/// Fails like [`build_graph`] does: variants out of bounds or an empty
/// reference.
pub fn apply_variants<'a>(
    reference: impl Into<Cow<'a, DnaSeq>>,
    applied: &VariantSet,
    delta: &VariantSet,
    parent_epoch: u64,
) -> Result<DeltaBuild, GraphError> {
    let reference = reference.into();
    let old = build_graph(&reference, applied.clone())?;
    let (new, log) = extend_graph(&reference, &old, applied, delta, parent_epoch)?;
    Ok(DeltaBuild { old, new, log })
}

/// The second step of [`apply_variants`], for a caller that builds (and
/// checks) the parent graph `old` itself, from `(reference, applied)`:
/// the child graph over `applied ∪ delta` and the log from `old` to it.
/// The caller can drop `old` as soon as this returns.
///
/// # Errors
///
/// As [`apply_variants`].
pub fn extend_graph(
    reference: &DnaSeq,
    old: &ConstructedGraph,
    applied: &VariantSet,
    delta: &VariantSet,
    parent_epoch: u64,
) -> Result<(ConstructedGraph, ChangeLog), GraphError> {
    let mut combined = applied.clone();
    combined.extend(delta.iter().cloned());
    let new = build_graph(reference, combined)?;
    // Every drop in the combined build beyond the parent's own is caused
    // by the delta (either a delta variant lost to the embedded set, or —
    // rarely — an embedded variant displaced by an earlier-sorting delta
    // variant; both count as delta conflicts).
    let dropped_variants = (applied.len() + delta.len()) - new.applied.len();
    let added_variants = delta.len() - dropped_variants.min(delta.len());
    let mut log = diff_graphs(old, &new);
    log.parent_epoch = parent_epoch;
    log.epoch = parent_epoch + 1;
    log.added_variants = added_variants;
    log.dropped_variants = dropped_variants;
    Ok((new, log))
}

/// Structural diff between two constructed graphs: matches
/// content-identical nodes (same reference start, same backbone role,
/// same sequence) in coordinate order and derives the op log.
///
/// The matching is conservative: any pair it reports as carried has
/// byte-identical sequence content, and the kept pairs are strictly
/// monotone in both graphs' node ids — unmatched nodes fall back to
/// fresh/dropped, which downstream consumers handle by re-extracting.
pub fn diff_graphs(old: &ConstructedGraph, new: &ConstructedGraph) -> ChangeLog {
    // Old nodes in (reference start, backbone role, id) order; a new node
    // takes the first one not yet taken with its key and its sequence.
    let key = |built: &ConstructedGraph, node: NodeId| {
        (
            built.ref_starts[node.index()],
            built.is_backbone[node.index()],
        )
    };
    let mut pool: Vec<((u64, bool), NodeId)> = old
        .graph
        .node_ids()
        .map(|node| (key(old, node), node))
        .collect();
    pool.sort_unstable();
    let mut taken = vec![false; old.graph.node_count()];
    let mut take = |node: NodeId| {
        let want = key(new, node);
        let seq = new.graph.seq(node);
        let first = pool.partition_point(|&(k, _)| k < want);
        let (_, old_node) = *pool[first..]
            .iter()
            .take_while(|&&(k, _)| k == want)
            .find(|&&(_, o)| !taken[o.index()] && old.graph.seq(o) == seq)?;
        taken[old_node.index()] = true;
        Some(old_node)
    };

    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut fresh: Vec<NodeId> = Vec::new();
    for node in new.graph.node_ids() {
        match take(node) {
            Some(old_node) => pairs.push((old_node, node)),
            None => fresh.push(node),
        }
    }
    // Enforce strict monotonicity in the old component (the new component
    // is increasing by construction): a match that would cross an earlier
    // one is demoted to fresh + dropped, never mis-carried.
    let mut carried: Vec<(NodeId, NodeId)> = Vec::with_capacity(pairs.len());
    let mut demoted_old: Vec<NodeId> = Vec::new();
    let mut last_old: Option<NodeId> = None;
    for (old_node, new_node) in pairs {
        if last_old.is_none_or(|prev| old_node > prev) {
            last_old = Some(old_node);
            carried.push((old_node, new_node));
        } else {
            demoted_old.push(old_node);
            fresh.push(new_node);
        }
    }
    fresh.sort_unstable();

    let matched_old: Vec<bool> = {
        let mut m = vec![false; old.graph.node_count()];
        for &(o, _) in &carried {
            m[o.index()] = true;
        }
        for &o in &demoted_old {
            m[o.index()] = true; // demoted: counted via `dropped` below
        }
        m
    };
    let mut dropped: Vec<NodeId> = old
        .graph
        .node_ids()
        .filter(|n| !matched_old[n.index()])
        .collect();
    dropped.extend(demoted_old);
    dropped.sort_unstable();

    // Edge image of the old graph under the carried map, to isolate the
    // genuinely new edges.
    let old_to_new = {
        let mut map = vec![None; old.graph.node_count()];
        for &(o, n) in &carried {
            map[o.index()] = Some(n);
        }
        map
    };
    let mut mapped_edges: Vec<(NodeId, NodeId)> = old
        .graph
        .edges()
        .filter_map(|(a, b)| Some((old_to_new[a.index()]?, old_to_new[b.index()]?)))
        .collect();
    mapped_edges.sort_unstable();

    let mut ops: Vec<GraphOp> = Vec::new();
    for &node in &fresh {
        ops.push(GraphOp::AddNode {
            node,
            ref_start: new.ref_starts[node.index()],
            len: new.graph.node_len(node) as u64,
            backbone: new.is_backbone[node.index()],
        });
    }
    for &node in &dropped {
        ops.push(GraphOp::DropNode { node });
    }
    for (a, b) in new.graph.edges() {
        if mapped_edges.binary_search(&(a, b)).is_err() {
            ops.push(GraphOp::AddEdge { from: a, to: b });
        }
    }

    // Touched reference ranges: every fresh/dropped node's footprint on
    // the linear reference (insertions and alts count at least one
    // coordinate so the range is never empty).
    let mut touched: Vec<(u64, u64)> = Vec::new();
    for &node in &fresh {
        let start = new.ref_starts[node.index()];
        let len = if new.is_backbone[node.index()] {
            new.graph.node_len(node) as u64
        } else {
            1
        };
        touched.push((start, start + len.max(1)));
    }
    for &node in &dropped {
        let start = old.ref_starts[node.index()];
        let len = if old.is_backbone[node.index()] {
            old.graph.node_len(node) as u64
        } else {
            1
        };
        touched.push((start, start + len.max(1)));
    }

    ChangeLog {
        parent_epoch: 0,
        epoch: 0,
        ops,
        carried,
        fresh,
        dropped,
        touched: merge_ranges(touched),
        added_variants: 0,
        dropped_variants: 0,
    }
}

/// Full content equality of two graphs: node sequences in id order plus
/// the edge list — their tables. Used to verify that a replayed
/// construction reproduces a stored graph before trusting a delta derived
/// from it.
pub fn graphs_identical(a: &GenomeGraph, b: &GenomeGraph) -> bool {
    a == b
}

/// Sorts and merges overlapping or adjacent half-open ranges.
pub fn merge_ranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(s, e)| e > s);
    ranges.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        match merged.last_mut() {
            Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Whether two half-open ranges intersect.
pub fn ranges_intersect(a: (u64, u64), b: (u64, u64)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Base, Variant};

    fn reference() -> DnaSeq {
        "ACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap()
    }

    fn assert_graphs_equal(a: &GenomeGraph, b: &GenomeGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for node in a.node_ids() {
            assert_eq!(a.seq(node), b.seq(node), "node {node:?} differs");
        }
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn delta_graph_matches_scratch_build() {
        let v1: VariantSet = [Variant::snp(3, Base::G)].into_iter().collect();
        let built1 = build_graph(&reference(), v1.clone()).unwrap();
        let delta: VariantSet = [
            Variant::insertion(10, "TT".parse().unwrap()),
            Variant::deletion(20, 2),
        ]
        .into_iter()
        .collect();
        let result = apply_variants(&reference(), &built1.applied, &delta, 0).unwrap();
        let mut combined = v1;
        combined.extend(delta);
        let scratch = build_graph(&reference(), combined).unwrap();
        assert_graphs_equal(&result.new.graph, &scratch.graph);
        assert_eq!(result.log.epoch, 1);
        assert_eq!(result.log.added_variants, 2);
        assert_eq!(result.log.dropped_variants, 0);
    }

    #[test]
    fn carried_nodes_have_identical_sequences_and_are_monotone() {
        let v1: VariantSet = [Variant::snp(5, Base::A)].into_iter().collect();
        let built1 = build_graph(&reference(), v1).unwrap();
        let delta: VariantSet = [Variant::snp(25, Base::C)].into_iter().collect();
        let result = apply_variants(&reference(), &built1.applied, &delta, 3).unwrap();
        assert_eq!(result.log.parent_epoch, 3);
        assert_eq!(result.log.epoch, 4);
        let mut last: Option<(NodeId, NodeId)> = None;
        for &(old, new) in &result.log.carried {
            assert_eq!(result.old.graph.seq(old), result.new.graph.seq(new));
            if let Some((po, pn)) = last {
                assert!(old > po && new > pn, "carried pairs must be monotone");
            }
            last = Some((old, new));
        }
        // The prefix before the delta's coordinate carries with identity
        // node ids; the suffix carries with shifted ids.
        assert!(!result.log.carried.is_empty());
        assert!(!result.log.fresh.is_empty());
    }

    #[test]
    fn untouched_prefix_keeps_identity_ids() {
        let built1 = build_graph(&reference(), VariantSet::new()).unwrap();
        // Single node graph; a variant at coordinate 16 splits it.
        let delta: VariantSet = [Variant::snp(16, Base::A)].into_iter().collect();
        let result = apply_variants(&reference(), &built1.applied, &delta, 0).unwrap();
        // The old single node is split, so nothing carries: the whole
        // graph is fresh and the touched range covers the full node.
        assert!(result.log.carried.is_empty());
        assert_eq!(result.log.touched, vec![(0, 32)]);
    }

    #[test]
    fn touched_ranges_stay_local_with_dense_breakpoints() {
        let v1: VariantSet = (0..32)
            .step_by(4)
            .map(|p| Variant::snp(p, Base::A))
            .collect();
        let built1 = build_graph(&reference(), v1).unwrap();
        let delta: VariantSet = [Variant::snp(18, Base::C)].into_iter().collect();
        let result = apply_variants(&reference(), &built1.applied, &delta, 0).unwrap();
        // Only the backbone segment containing coordinate 18 (and the new
        // alt node) may be touched; the rest of the graph carries.
        let span: u64 = result.log.touched.iter().map(|&(s, e)| e - s).sum();
        assert!(span <= 8, "touched span {span} should stay local");
        assert!(result.log.carried.len() >= built1.graph.node_count() - 2);
    }

    #[test]
    fn conflicting_delta_variant_is_dropped() {
        let v1: VariantSet = [Variant::deletion(4, 4)].into_iter().collect();
        let built1 = build_graph(&reference(), v1).unwrap();
        let delta: VariantSet = [Variant::snp(5, Base::A)].into_iter().collect();
        let result = apply_variants(&reference(), &built1.applied, &delta, 0).unwrap();
        assert_eq!(result.log.added_variants, 0);
        assert_eq!(result.log.dropped_variants, 1);
        assert_graphs_equal(&result.new.graph, &result.old.graph);
        assert!(result.log.fresh.is_empty() && result.log.dropped.is_empty());
    }

    #[test]
    fn empty_delta_is_identity() {
        let v1: VariantSet = [Variant::snp(3, Base::G)].into_iter().collect();
        let built1 = build_graph(&reference(), v1).unwrap();
        let result = apply_variants(&reference(), &built1.applied, &VariantSet::new(), 7).unwrap();
        assert_eq!(result.log.epoch, 8);
        assert!(result.log.fresh.is_empty());
        assert!(result.log.dropped.is_empty());
        assert!(result.log.touched.is_empty());
        assert_eq!(
            result.log.carried.len(),
            result.old.graph.node_count(),
            "every node carries on an empty delta"
        );
        for &(old, new) in &result.log.carried {
            assert_eq!(old, new, "empty delta must carry with identity ids");
        }
    }

    #[test]
    fn merge_ranges_merges_overlaps_and_adjacency() {
        assert_eq!(
            merge_ranges(vec![(5, 7), (0, 2), (2, 4), (6, 9), (9, 9)]),
            vec![(0, 4), (5, 9)]
        );
    }

    #[test]
    fn ops_cover_fresh_dropped_and_new_edges() {
        let built1 = build_graph(&reference(), VariantSet::new()).unwrap();
        let delta: VariantSet = [Variant::snp(8, Base::A)].into_iter().collect();
        let result = apply_variants(&reference(), &built1.applied, &delta, 0).unwrap();
        let adds = result
            .log
            .ops
            .iter()
            .filter(|op| matches!(op, GraphOp::AddNode { .. }))
            .count();
        let drops = result
            .log
            .ops
            .iter()
            .filter(|op| matches!(op, GraphOp::DropNode { .. }))
            .count();
        let edges = result
            .log
            .ops
            .iter()
            .filter(|op| matches!(op, GraphOp::AddEdge { .. }))
            .count();
        assert_eq!(adds, result.log.fresh.len());
        assert_eq!(drops, result.log.dropped.len());
        assert_eq!(edges, result.new.graph.edge_count());
    }
}
