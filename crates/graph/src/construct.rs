//! Graph-based reference generation: builds a topologically sorted genome
//! graph from a linear reference plus a set of known variants, playing the
//! role of the paper's `vg construct` + `vg ids -s` pre-processing step
//! (Section 5).

use crate::{DnaSeq, GenomeGraph, GraphBuilder, GraphError, NodeId, VariantSet};

/// Outcome of [`build_graph`]: the graph plus bookkeeping useful for
/// experiments.
#[derive(Clone, Debug)]
pub struct ConstructedGraph {
    /// The topologically sorted genome graph.
    pub graph: GenomeGraph,
    /// Node that carries reference position 0 (the backbone head), when the
    /// reference is non-empty.
    pub backbone_head: Option<NodeId>,
    /// For every node, the reference coordinate its interval starts at.
    /// Alternative-allele nodes report the start of the interval they
    /// replace; insertion nodes report their anchor position.
    pub ref_starts: Vec<u64>,
    /// For every node, whether it is part of the linear reference backbone.
    pub is_backbone: Vec<bool>,
    /// Number of variants dropped because they overlapped earlier variants.
    pub dropped_variants: usize,
    /// Number of variants embedded in the graph.
    pub embedded_variants: usize,
    /// The embedded variant set (sorted, overlap-dropped) — the exact
    /// input a later [`apply_variants`](crate::apply_variants) call needs
    /// to evolve this graph incrementally.
    pub applied: VariantSet,
}

impl ConstructedGraph {
    /// Convenience accessor for the graph's statistics.
    pub fn stats(&self) -> crate::GraphStats {
        self.graph.stats()
    }
}

/// Builds a genome graph from a linear reference and a variant set.
///
/// The construction mirrors `vg construct`:
///
/// 1. the reference is split at every variant boundary into *backbone*
///    segments;
/// 2. every variant contributes an *alternative* node carrying its alt
///    allele (deletions contribute only a skip edge);
/// 3. junctions are wired so every combination of alleles at distinct sites
///    is a path.
///
/// Node ids are assigned in reference-coordinate order with insertions
/// before the backbone segment at the same coordinate, which makes the
/// output **topologically sorted by construction** (asserted in debug
/// builds and covered by tests) — the property the alignment step requires
/// (Section 5: "we need to make sure the nodes of each graph are
/// topologically sorted").
///
/// Overlapping variants are dropped (first-come-first-kept), matching the
/// behaviour of graph constructors that reject conflicting records.
///
/// # Errors
///
/// Returns an error when a variant lies outside the reference or the
/// reference is empty.
///
/// # Examples
///
/// ```
/// use segram_graph::{build_graph, Base, Variant, VariantSet};
///
/// // Figure 1: ACGTACGT with a SNP (T->G), an insertion (T) and a deletion.
/// let reference = "ACGTACGT".parse()?;
/// let variants: VariantSet = [
///     Variant::snp(3, Base::G),
///     Variant::insertion(4, "T".parse()?),
///     Variant::deletion(3, 1),
/// ]
/// .into_iter()
/// .collect();
/// let built = build_graph(&reference, variants)?;
/// assert!(built.graph.is_topologically_sorted());
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
pub fn build_graph(
    reference: &DnaSeq,
    variants: VariantSet,
) -> Result<ConstructedGraph, GraphError> {
    if reference.is_empty() {
        return Err(GraphError::EmptyNode);
    }
    let ref_len = reference.len() as u64;
    let mut variants = variants.into_sorted();
    for v in variants.iter() {
        let (start, end) = v.ref_interval();
        if start > ref_len || end > ref_len {
            return Err(GraphError::VariantOutOfBounds {
                pos: v.pos,
                ref_len,
            });
        }
        if v.alt_seq().is_empty() && !matches!(v.kind, crate::VariantKind::Deletion { .. }) {
            // Replacement/insertion with empty alt would create an empty node.
            return Err(GraphError::EmptyNode);
        }
    }
    let dropped_variants = variants.drop_overlapping();

    // A deletion spanning the whole reference would leave an empty path;
    // treat it as out of bounds for simplicity.
    // (Zero-length graphs are rejected by GraphBuilder anyway.)

    // ---- collect breakpoints ----
    let mut breakpoints: Vec<u64> = vec![0, ref_len];
    for v in variants.iter() {
        let (start, end) = v.ref_interval();
        breakpoints.push(start);
        breakpoints.push(end);
    }
    breakpoints.sort_unstable();
    breakpoints.dedup();

    // ---- plan nodes in (ref_start, rank) order ----
    // rank 0: insertion nodes anchored at the coordinate
    // rank 1: the backbone segment starting at the coordinate
    // rank 2: alternative-allele nodes whose interval starts here
    #[derive(Debug)]
    struct Planned {
        /// An allele's sequence; `None` for a backbone segment, which is
        /// the reference's `start..end`.
        seq: Option<DnaSeq>,
        start: u64,
        end: u64,
        backbone: bool,
        insertion: bool,
    }
    let mut planned: Vec<Planned> = Vec::new();
    let mut keyed: Vec<(u64, u8, usize)> = Vec::new(); // (start, rank, planned idx)

    for window in breakpoints.windows(2) {
        let (start, end) = (window[0], window[1]);
        if start == end {
            continue;
        }
        keyed.push((start, 1, planned.len()));
        planned.push(Planned {
            seq: None,
            start,
            end,
            backbone: true,
            insertion: false,
        });
    }
    let embedded_variants = variants.len();
    for v in variants.iter() {
        let (start, end) = v.ref_interval();
        let alt = v.alt_seq();
        if alt.is_empty() {
            continue; // deletion: skip edge only, added below
        }
        let insertion = start == end;
        keyed.push((start, if insertion { 0 } else { 2 }, planned.len()));
        planned.push(Planned {
            seq: Some(alt),
            start,
            end,
            backbone: false,
            insertion,
        });
    }
    keyed.sort_by_key(|&(start, rank, idx)| (start, rank, idx));

    // ---- create nodes ----
    let mut builder = GraphBuilder::new();
    let chars = planned.iter().map(|p| match &p.seq {
        Some(alt) => alt.len(),
        None => (p.end - p.start) as usize,
    });
    builder.reserve(planned.len(), chars.sum());
    let mut ids: Vec<NodeId> = vec![NodeId(0); planned.len()];
    let mut ref_starts = Vec::with_capacity(planned.len());
    let mut is_backbone = Vec::with_capacity(planned.len());
    let mut backbone_head = None;
    for &(_, _, idx) in &keyed {
        // The wiring below needs only the coordinates of a planned node.
        let p = &mut planned[idx];
        let id = match p.seq.take() {
            Some(alt) => builder.add_node(alt)?,
            None => builder.push_node(&reference.as_slice()[p.start as usize..p.end as usize]),
        };
        ids[idx] = id;
        ref_starts.push(p.start);
        is_backbone.push(p.backbone);
        if p.backbone && p.start == 0 {
            backbone_head = Some(id);
        }
    }

    // ---- wire junctions ----
    // For every reference coordinate p: nodes whose interval *ends* at p
    // connect to nodes whose interval *starts* at p. Insertion nodes are
    // spliced between the two sides (ends -> ins -> starts) and are mutually
    // parallel. Each side lists `(coordinate, planned idx)` in coordinate
    // order, so a coordinate's nodes are one run of it.
    let mut ends = Vec::with_capacity(planned.len());
    let mut starts = Vec::with_capacity(planned.len());
    let mut inserts = Vec::new();
    for (idx, p) in planned.iter().enumerate() {
        if p.insertion {
            inserts.push((p.start, idx));
        } else {
            ends.push((p.end, idx));
            starts.push((p.start, idx));
        }
    }
    for side in [&mut ends, &mut starts, &mut inserts] {
        side.sort_unstable();
    }
    /// The run of `side` at coordinate `p`, from `from` on, which it leaves
    /// at the run: coordinates asked in ascending order walk each side once.
    fn run_at<'a>(side: &'a [(u64, usize)], from: &mut usize, p: u64) -> &'a [(u64, usize)] {
        while side.get(*from).is_some_and(|&(q, _)| q < p) {
            *from += 1;
        }
        let len = side[*from..].iter().take_while(|&&(q, _)| q == p).count();
        &side[*from..*from + len]
    }
    /// The run of `side` at coordinate `p`, searched for.
    fn run_of(side: &[(u64, usize)], p: u64) -> &[(u64, usize)] {
        let from = side.partition_point(|&(q, _)| q < p);
        let len = side[from..].partition_point(|&(q, _)| q == p);
        &side[from..from + len]
    }
    let mut link = |a: usize, b: usize| {
        if builder.has_edge(ids[a], ids[b]) {
            Ok(())
        } else {
            builder.add_edge(ids[a], ids[b])
        }
    };
    let mut junctions: Vec<u64> = breakpoints.clone();
    junctions.extend(inserts.iter().map(|&(p, _)| p));
    junctions.sort_unstable();
    junctions.dedup();
    let mut from = [0; 3];
    for &p in &junctions {
        let left = run_at(&ends, &mut from[0], p);
        let right = run_at(&starts, &mut from[1], p);
        let mid = run_at(&inserts, &mut from[2], p);
        for &(_, a) in left {
            for &(_, b) in right.iter().chain(mid) {
                link(a, b)?;
            }
        }
        for &(_, m) in mid {
            for &(_, b) in right {
                link(m, b)?;
            }
        }
    }
    // Deletion skip edges: for a deletion [s, e), connect nodes ending at s
    // to nodes starting at e.
    for v in variants.iter() {
        let (start, end) = v.ref_interval();
        if !v.alt_seq().is_empty() || start == end {
            continue;
        }
        for &(_, a) in run_of(&ends, start) {
            for &(_, b) in run_of(&starts, end) {
                link(a, b)?;
            }
        }
    }

    // ref_starts / is_backbone were pushed in keyed (= id) order already.
    let graph = builder.finish()?;
    debug_assert!(graph.is_topologically_sorted());
    Ok(ConstructedGraph {
        graph,
        backbone_head,
        ref_starts,
        is_backbone,
        dropped_variants,
        embedded_variants,
        applied: variants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Base, Variant};

    fn seqs_spelled(built: &ConstructedGraph) -> Vec<String> {
        built
            .graph
            .node_ids()
            .map(|id| DnaSeq::from(built.graph.seq(id).to_vec()).to_string())
            .collect()
    }

    /// Enumerate every full source-to-sink path's sequence (small graphs).
    fn all_path_seqs(graph: &GenomeGraph) -> Vec<String> {
        let mut out = Vec::new();
        let sources: Vec<NodeId> = graph
            .node_ids()
            .filter(|&n| graph.predecessors(n).is_empty())
            .collect();
        fn rec(graph: &GenomeGraph, node: NodeId, mut prefix: String, out: &mut Vec<String>) {
            prefix.push_str(&DnaSeq::from(graph.seq(node).to_vec()).to_string());
            if graph.successors(node).is_empty() {
                out.push(prefix);
                return;
            }
            for &next in graph.successors(node) {
                rec(graph, next, prefix.clone(), out);
            }
        }
        for s in sources {
            rec(graph, s, String::new(), &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn no_variants_gives_single_node() {
        let built = build_graph(&"ACGTACGT".parse().unwrap(), VariantSet::new()).unwrap();
        assert_eq!(built.graph.node_count(), 1);
        assert_eq!(
            DnaSeq::from(built.graph.seq(NodeId(0)).to_vec()).to_string(),
            "ACGTACGT"
        );
        assert_eq!(built.backbone_head, Some(NodeId(0)));
    }

    #[test]
    fn snp_creates_bubble() {
        let built = build_graph(
            &"ACGTACGT".parse().unwrap(),
            [Variant::snp(3, Base::G)].into_iter().collect(),
        )
        .unwrap();
        // ACG -> {T, G} -> ACGT
        assert_eq!(seqs_spelled(&built), vec!["ACG", "T", "G", "ACGT"]);
        let paths = all_path_seqs(&built.graph);
        assert_eq!(paths, vec!["ACGGACGT", "ACGTACGT"]);
        assert!(built.graph.is_topologically_sorted());
    }

    #[test]
    fn figure1_graph_reconstructed_from_variants() {
        // Figure 1's four sequences: ACGTACGT (ref), ACGGACGT (SNP),
        // ACGTTACGT (insertion), ACGACGT (deletion).
        let built = build_graph(
            &"ACGTACGT".parse().unwrap(),
            [
                Variant::snp(3, Base::G),
                Variant::insertion(3, "T".parse().unwrap()),
                Variant::deletion(3, 1),
            ]
            .into_iter()
            .collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        for expect in ["ACGTACGT", "ACGGACGT", "ACGTTACGT", "ACGACGT"] {
            assert!(
                paths.contains(&expect.to_string()),
                "missing {expect}: {paths:?}"
            );
        }
    }

    #[test]
    fn deletion_adds_skip_edge() {
        let built = build_graph(
            &"AACCGGTT".parse().unwrap(),
            [Variant::deletion(2, 2)].into_iter().collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        assert_eq!(paths, vec!["AACCGGTT".to_string(), "AAGGTT".to_string()]);
    }

    #[test]
    fn insertion_splices_between_segments() {
        let built = build_graph(
            &"AATT".parse().unwrap(),
            [Variant::insertion(2, "GGG".parse().unwrap())]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        assert_eq!(paths, vec!["AAGGGTT".to_string(), "AATT".to_string()]);
        assert!(built.graph.is_topologically_sorted());
    }

    #[test]
    fn replacement_structural_variant() {
        let built = build_graph(
            &"AAAACCCC".parse().unwrap(),
            [Variant::replacement(2, 4, "G".parse().unwrap())]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        assert_eq!(paths, vec!["AAAACCCC".to_string(), "AAGCC".to_string()]);
    }

    #[test]
    fn multiallelic_site_keeps_both_alts() {
        let built = build_graph(
            &"AACAA".parse().unwrap(),
            [Variant::snp(2, Base::G), Variant::snp(2, Base::T)]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        assert_eq!(
            paths,
            vec![
                "AACAA".to_string(),
                "AAGAA".to_string(),
                "AATAA".to_string()
            ]
        );
    }

    #[test]
    fn overlapping_variants_are_dropped() {
        let built = build_graph(
            &"AAAAAAAA".parse().unwrap(),
            [Variant::deletion(1, 4), Variant::snp(2, Base::C)]
                .into_iter()
                .collect(),
        )
        .unwrap();
        assert_eq!(built.dropped_variants, 1);
        assert_eq!(built.embedded_variants, 1);
    }

    #[test]
    fn variant_past_reference_is_rejected() {
        let err = build_graph(
            &"ACGT".parse().unwrap(),
            [Variant::snp(4, Base::A)].into_iter().collect(),
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::VariantOutOfBounds { .. }));
    }

    #[test]
    fn variant_at_position_zero() {
        let built = build_graph(
            &"ACGT".parse().unwrap(),
            [Variant::snp(0, Base::T)].into_iter().collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        assert_eq!(paths, vec!["ACGT".to_string(), "TCGT".to_string()]);
        assert!(built.graph.is_topologically_sorted());
    }

    #[test]
    fn variant_touching_reference_end() {
        let built = build_graph(
            &"ACGT".parse().unwrap(),
            [
                Variant::snp(3, Base::A),
                Variant::insertion(4, "GG".parse().unwrap()),
            ]
            .into_iter()
            .collect(),
        )
        .unwrap();
        let paths = all_path_seqs(&built.graph);
        // Full source-to-sink paths include the insertion; the insertion-free
        // alleles are their prefixes (graph walks may stop at any node).
        assert_eq!(paths, vec!["ACGAGG".to_string(), "ACGTGG".to_string()]);
    }

    #[test]
    fn dense_variants_remain_topologically_sorted() {
        let reference: DnaSeq = "ACGTACGTACGTACGTACGT".parse().unwrap();
        let variants: VariantSet = (0..20)
            .step_by(2)
            .map(|p| Variant::snp(p, Base::A))
            .collect();
        let built = build_graph(&reference, variants).unwrap();
        assert!(built.graph.is_topologically_sorted());
        // Backbone path must spell the reference.
        let backbone: Vec<NodeId> = built
            .graph
            .node_ids()
            .filter(|n| built.is_backbone[n.index()])
            .collect();
        let spelled = built.graph.path_seq(&backbone).unwrap().to_string();
        assert_eq!(spelled, "ACGTACGTACGTACGTACGT");
    }
}
