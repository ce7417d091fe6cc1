//! Property tests for the core algorithmic claim of the reproduction:
//! BitAlign (Algorithm 1) computes exactly the semi-global sequence-to-
//! graph edit distance that the DP formulation defines, on arbitrary
//! variation graphs — and reduces to classical sequence-to-sequence
//! algorithms (Myers, semi-global NW) on linear references.

use segram_align::{
    bitalign, graph_dp_distance, myers_distance, semiglobal_distance, windowed_bitalign,
    AlignError, BitAlignConfig, BitAligner, EditPreference, StartMode, WindowConfig,
};
use segram_graph::{
    build_graph, Base, DnaSeq, GenomeGraph, LinearizedGraph, NodeId, Variant, VariantSet,
};
use segram_testkit::prelude::*;

fn arb_seq(min: usize, max: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, min..=max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code_masked).collect())
}

/// A random variation graph built from a random reference + random variants.
fn arb_graph() -> impl Strategy<Value = GenomeGraph> {
    arb_graph_of(20, 80, 6)
}

fn arb_graph_of(
    min_len: usize,
    max_len: usize,
    max_variants: usize,
) -> impl Strategy<Value = GenomeGraph> {
    (
        arb_seq(min_len, max_len),
        prop::collection::vec((0u64..max_len as u64, 0u8..4), 0..max_variants),
    )
        .prop_map(|(reference, raw_variants)| {
            let len = reference.len() as u64;
            let variants: VariantSet = raw_variants
                .into_iter()
                .filter(|&(pos, _)| pos + 4 < len)
                .map(|(pos, kind)| match kind {
                    0 => Variant::snp(pos, reference[pos as usize].complement()),
                    1 => Variant::insertion(pos, "GT".parse().unwrap()),
                    2 => Variant::deletion(pos, 2),
                    _ => Variant::replacement(pos, 3, "A".parse().unwrap()),
                })
                .collect();
            build_graph(&reference, variants)
                .expect("valid variants")
                .graph
        })
}

/// A linearized graph with hops and a pattern of `min_m..=max_m` bases
/// that mostly follows one of its paths: a walk from a random character
/// (random branch at every hop), a few substitutions/indels, random bases
/// where the walk ran out. Near-path patterns put the optimum at a low
/// level, random tails at a high one, so both ends of the level range and
/// both sides of a small threshold occur.
fn arb_region_and_pattern(
    min_m: usize,
    max_m: usize,
) -> impl Strategy<Value = (LinearizedGraph, DnaSeq)> {
    (
        arb_graph_of(120, 260, 12),
        any::<prop::sample::Index>(),
        min_m..=max_m,
        prop::collection::vec(0u8..=255, max_m),
        prop::collection::vec((any::<prop::sample::Index>(), 0u8..3, 0u8..4), 0..5),
    )
        .prop_map(move |(graph, start, m, noise, edits)| {
            let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
            let mut bases: Vec<Base> = Vec::with_capacity(m + edits.len());
            let mut at = Some(start.index(lin.len()));
            for &byte in noise.iter().take(m) {
                match at {
                    Some(i) => {
                        bases.push(lin.base(i));
                        let succ = lin.successors(i);
                        at = (!succ.is_empty()).then(|| succ[byte as usize % succ.len()] as usize);
                    }
                    None => bases.push(Base::from_code_masked(byte)),
                }
            }
            for (pos, kind, code) in edits {
                let pos = pos.index(bases.len());
                match kind {
                    0 => bases[pos] = Base::from_code_masked(code),
                    1 => bases.insert(pos, Base::from_code_masked(code)),
                    _ if bases.len() > 1 => drop(bases.remove(pos)),
                    _ => {}
                }
            }
            bases.truncate(max_m);
            (lin, bases.into_iter().collect())
        })
}

const PREFERENCES: [EditPreference; 4] = [
    EditPreference::SubDelIns,
    EditPreference::SubInsDel,
    EditPreference::DelSubIns,
    EditPreference::InsSubDel,
];

/// `align()` on a fresh aligner against an explicit `compute()` before it
/// (the fill is idempotent) and against the exact DP, for one start mode and
/// every edit preference.
fn check_kernel(
    lin: &LinearizedGraph,
    pattern: &DnaSeq,
    start: StartMode,
    small_k: u32,
) -> Result<(), segram_testkit::prop::TestCaseError> {
    let (exact, _) = graph_dp_distance(lin, pattern, start).unwrap();
    for preference in PREFERENCES {
        let aligner = |k: u32| {
            let config = BitAlignConfig {
                k,
                start,
                preference,
            };
            BitAligner::new(lin, pattern, config).unwrap()
        };
        let aligned = aligner(pattern.len() as u32).align().unwrap();
        let mut full = aligner(pattern.len() as u32);
        full.compute();
        prop_assert_eq!(
            &aligned,
            &full.align().unwrap(),
            "{:?} {:?}",
            start,
            preference
        );
        prop_assert_eq!(aligned.edit_distance, exact, "{:?} {:?}", start, preference);
        let fragment = aligned.ref_fragment(lin);
        prop_assert!(aligned
            .cigar
            .replay(&fragment, pattern.as_slice())
            .is_some());
        if let StartMode::Anchored(anchor) = start {
            prop_assert_eq!(aligned.path.first().map_or(anchor, |&f| f as usize), anchor);
        }

        // A threshold the optimum may or may not fit under.
        match aligner(small_k).align() {
            Ok(a) => {
                prop_assert!(exact <= small_k, "aligned past the oracle: {}", exact);
                prop_assert_eq!(a, aligned, "the threshold must not change the alignment");
            }
            Err(err) => {
                prop_assert!(
                    exact > small_k,
                    "missed distance {} at k {}",
                    exact,
                    small_k
                );
                prop_assert_eq!(err, AlignError::ExceedsThreshold { k: small_k });
            }
        }
    }
    Ok(())
}

/// `LinearizedGraph::extract`'s successor lists as the pre-CSR builder
/// produced them: one `Vec` per character, kept here as the reference.
fn nested_successors(graph: &GenomeGraph, start: u64, end: u64) -> Vec<Vec<u32>> {
    let to_local = |linear: u64| (linear >= start && linear < end).then(|| (linear - start) as u32);
    let first = graph.graph_pos(start).unwrap();
    let mut lists = Vec::new();
    let (mut node, mut offset) = (first.node, first.offset as usize);
    while lists.len() < (end - start) as usize {
        let seq = graph.seq(node);
        while offset < seq.len() && lists.len() < (end - start) as usize {
            let mut list: Vec<u32> = if offset + 1 < seq.len() {
                to_local(graph.char_start(node) + offset as u64 + 1)
                    .into_iter()
                    .collect()
            } else {
                graph
                    .successors(node)
                    .iter()
                    .filter_map(|&next| to_local(graph.char_start(next)))
                    .collect()
            };
            list.sort_unstable();
            lists.push(list);
            offset += 1;
        }
        node = NodeId(node.0 + 1);
        offset = 0;
    }
    lists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-word bitvectors (`m <= 64`).
    #[test]
    fn kernel_matches_explicit_compute_and_dp_one_word(
        case in arb_region_and_pattern(1, 64),
        anchor in any::<prop::sample::Index>(),
        small_k in 0u32..6,
    ) {
        let (lin, pattern) = case;
        check_kernel(&lin, &pattern, StartMode::Free, small_k)?;
        check_kernel(&lin, &pattern, StartMode::Anchored(anchor.index(lin.len())), small_k)?;
    }

    /// Two-word bitvectors: the accelerator's `W = 128` window.
    #[test]
    fn kernel_matches_explicit_compute_and_dp_two_words(
        case in arb_region_and_pattern(65, 128),
        anchor in any::<prop::sample::Index>(),
        small_k in 0u32..6,
    ) {
        let (lin, pattern) = case;
        check_kernel(&lin, &pattern, StartMode::Free, small_k)?;
        check_kernel(&lin, &pattern, StartMode::Anchored(anchor.index(lin.len())), small_k)?;
    }

    /// Wider bitvectors (three and four words).
    #[test]
    fn kernel_matches_explicit_compute_and_dp_wide(
        case in arb_region_and_pattern(129, 200),
        anchor in any::<prop::sample::Index>(),
        small_k in 0u32..6,
    ) {
        let (lin, pattern) = case;
        check_kernel(&lin, &pattern, StartMode::Free, small_k)?;
        check_kernel(&lin, &pattern, StartMode::Anchored(anchor.index(lin.len())), small_k)?;
    }

    /// The CSR store hands back exactly the lists it was built from:
    /// `from_parts` round-trips, and `extract` agrees with the nested-list
    /// builder on any window.
    #[test]
    fn csr_successors_round_trip(
        graph in arb_graph_of(40, 160, 10),
        from in any::<prop::sample::Index>(),
        len in any::<prop::sample::Index>(),
    ) {
        let total = graph.total_chars();
        let start = from.index(total as usize) as u64;
        let end = start + 1 + len.index((total - start) as usize) as u64;
        let lin = LinearizedGraph::extract(&graph, start, end).unwrap();
        let lists = nested_successors(&graph, start, end);
        prop_assert_eq!(lin.len(), lists.len());
        for (i, list) in lists.iter().enumerate() {
            prop_assert_eq!(lin.successors(i), list.as_slice(), "extract, char {}", i);
        }
        let rebuilt =
            LinearizedGraph::from_parts(lin.bases().to_vec(), lists.clone(), start).unwrap();
        for (i, list) in lists.iter().enumerate() {
            prop_assert_eq!(rebuilt.successors(i), list.as_slice(), "from_parts, char {}", i);
        }
    }

    /// `from_parts` stores every list sorted, so the order the caller wrote
    /// the successors in changes neither equality nor the alignment (whose
    /// tie-break is "first successor in list order").
    #[test]
    fn successor_order_given_to_from_parts_is_irrelevant(
        case in arb_region_and_pattern(8, 40),
    ) {
        let (lin, pattern) = case;
        let lists: Vec<Vec<u32>> = (0..lin.len()).map(|i| lin.successors(i).to_vec()).collect();
        let reversed = lists.iter().map(|l| l.iter().rev().copied().collect()).collect();
        let a = LinearizedGraph::from_parts(lin.bases().to_vec(), lists, 0).unwrap();
        let b = LinearizedGraph::from_parts(lin.bases().to_vec(), reversed, 0).unwrap();
        prop_assert_eq!(&a, &b);
        let k = pattern.len() as u32;
        prop_assert_eq!(bitalign(&a, &pattern, k).unwrap(), bitalign(&b, &pattern, k).unwrap());
    }

    /// On any DAG, BitAlign's distance equals the exact DP distance.
    #[test]
    fn bitalign_matches_graph_dp(graph in arb_graph(), pattern in arb_seq(3, 30)) {
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let (dp, _) = graph_dp_distance(&lin, &pattern, StartMode::Free).unwrap();
        let ba = bitalign(&lin, &pattern, pattern.len() as u32).unwrap();
        prop_assert_eq!(ba.edit_distance, dp);
    }

    /// The bit-level invariant: bit l-1 of R[i][d] is 0 iff E[i][l] <= d.
    #[test]
    fn status_bitvectors_encode_dp_cells(
        graph in arb_graph(),
        pattern in arb_seq(3, 12),
        d in 0u32..4,
    ) {
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let mut aligner = BitAligner::new(
            &lin,
            &pattern,
            BitAlignConfig { k: d, ..BitAlignConfig::default() },
        ).unwrap();
        aligner.compute();
        let m = pattern.len();
        // Exact DP for every anchored start.
        for i in 0..lin.len().min(20) {
            let (anchored, _) =
                graph_dp_distance(&lin, &pattern, StartMode::Anchored(i)).unwrap();
            let bit = aligner
                .status_bitvector(i, d.min(m as u32) as usize)
                .unwrap()
                .bit(m - 1);
            // bit == 0 (match state) iff anchored distance <= d
            prop_assert_eq!(!bit, anchored <= d.min(m as u32), "i={}, d={}", i, d);
        }
    }

    /// On a linear reference, BitAlign == Myers == semi-global DP.
    #[test]
    fn linear_case_matches_classical_aligners(
        text in arb_seq(10, 120),
        pattern in arb_seq(2, 40),
    ) {
        let lin = LinearizedGraph::from_linear_seq(&text);
        let ba = bitalign(&lin, &pattern, pattern.len() as u32).unwrap();
        let myers = myers_distance(text.as_slice(), pattern.as_slice()).unwrap();
        let nw = semiglobal_distance(text.as_slice(), pattern.as_slice()).unwrap();
        prop_assert_eq!(ba.edit_distance, myers);
        prop_assert_eq!(ba.edit_distance, nw);
    }

    /// The traceback CIGAR replays the read against the chosen path, costs
    /// exactly the reported distance, and walks only real edges.
    #[test]
    fn traceback_is_sound(graph in arb_graph(), pattern in arb_seq(3, 30)) {
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let a = bitalign(&lin, &pattern, pattern.len() as u32).unwrap();
        prop_assert_eq!(a.cigar.edit_count(), a.edit_distance);
        prop_assert_eq!(a.cigar.read_len() as usize, pattern.len());
        let fragment = a.ref_fragment(&lin);
        prop_assert!(a.cigar.replay(&fragment, pattern.as_slice()).is_some());
        for pair in a.path.windows(2) {
            prop_assert!(lin.successors(pair[0] as usize).contains(&pair[1]));
        }
    }

    /// Windowed BitAlign never reports less than the exact distance, and is
    /// exact for reads with sparse errors.
    #[test]
    fn windowed_upper_bounds_exact(text in arb_seq(300, 500), start in 0usize..100) {
        let lin = LinearizedGraph::from_linear_seq(&text);
        let end = (start + 250).min(text.len());
        let pattern = text.slice(start, end);
        let (exact, _) = graph_dp_distance(&lin, &pattern, StartMode::Free).unwrap();
        prop_assert_eq!(exact, 0); // substring: exact distance is 0
        let a = windowed_bitalign(&lin, &pattern, WindowConfig::bitalign(), StartMode::Free)
            .unwrap();
        prop_assert_eq!(a.edit_distance, 0);
    }

    /// Anchored-mode distances are never smaller than free-start distances.
    #[test]
    fn anchoring_cannot_improve(graph in arb_graph(), pattern in arb_seq(3, 20)) {
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let (free, _) = graph_dp_distance(&lin, &pattern, StartMode::Free).unwrap();
        for anchor in [0usize, lin.len() / 2, lin.len() - 1] {
            let (anchored, _) =
                graph_dp_distance(&lin, &pattern, StartMode::Anchored(anchor)).unwrap();
            prop_assert!(anchored >= free);
        }
    }

    /// Hop-limiting a linearization can only increase the distance (it
    /// removes paths), and with a generous limit it changes nothing.
    #[test]
    fn hop_limit_monotonicity(graph in arb_graph(), pattern in arb_seq(3, 20)) {
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let (full, _) = graph_dp_distance(&lin, &pattern, StartMode::Free).unwrap();
        let (generous, dropped) = lin.with_hop_limit(lin.len() as u32);
        prop_assert_eq!(dropped, 0);
        let (g, _) = graph_dp_distance(&generous, &pattern, StartMode::Free).unwrap();
        prop_assert_eq!(g, full);
        let (tight, _) = lin.with_hop_limit(2);
        let (t, _) = graph_dp_distance(&tight, &pattern, StartMode::Free).unwrap();
        prop_assert!(t >= full);
    }
}

/// Deterministic regression: the paper's Figure 1 graph aligns all four of
/// its represented sequences with zero edits.
#[test]
fn figure1_sequences_align_exactly() {
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
    let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()).unwrap();
    for seq in ["ACGTACGT", "ACGGACGT", "ACGTTACGT", "ACGACGT"] {
        let a = bitalign(&lin, &seq.parse().unwrap(), 2).unwrap();
        assert_eq!(a.edit_distance, 0, "sequence {seq}");
    }
}
