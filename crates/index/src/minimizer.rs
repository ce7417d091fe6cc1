//! `<w,k>`-minimizer extraction (Section 6 of the paper).
//!
//! A `<w,k>`-minimizer is the smallest k-mer in a window of `w` consecutive
//! k-mers, under a configurable ordering. Using minimizers instead of all
//! k-mers shrinks the index by a factor of `2/(w+1)` and guarantees that
//! two sequences sharing an exact match of at least `w + k - 1` bases share
//! a minimizer.
//!
//! The single-loop extraction below is the paper's `O(m)` algorithm
//! ("we can eliminate the inner loop by caching the previous minimum
//! k-mers within the current window"), implemented as minimap2's
//! `mm_sketch` does: a ring of the last `w` k-mers and the tracked minimum,
//! rescanned only when that minimum leaves the window.

use segram_graph::{Base, DnaSeq};

/// How k-mers are ranked when picking window minima.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KmerOrdering {
    /// Invertible 64-bit mix of the 2-bit packed k-mer (minimap2-style).
    /// Spreads minimizers uniformly; the production setting.
    #[default]
    Hash,
    /// Plain lexicographic order of the packed k-mer — the ordering used in
    /// the paper's Figure 8 example.
    Lexicographic,
}

/// Parameters of the minimizer scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinimizerScheme {
    /// Window size `w` (in k-mers).
    pub w: usize,
    /// K-mer length `k` (max 31 with 2-bit packing in a u64).
    pub k: usize,
    /// Ranking function.
    pub ordering: KmerOrdering,
}

impl MinimizerScheme {
    /// Creates a scheme with the default (hash) ordering.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`, `k > 31`, or `w == 0`.
    pub fn new(w: usize, k: usize) -> Self {
        assert!(k > 0 && k <= 31, "k must be in 1..=31");
        assert!(w > 0, "w must be positive");
        Self {
            w,
            k,
            ordering: KmerOrdering::Hash,
        }
    }

    /// Same, with lexicographic ranking (Figure 8 semantics).
    pub fn lexicographic(w: usize, k: usize) -> Self {
        Self {
            ordering: KmerOrdering::Lexicographic,
            ..Self::new(w, k)
        }
    }

    /// Span of bases covered by one full window (`w + k - 1`).
    pub fn window_span(&self) -> usize {
        self.w + self.k - 1
    }

    /// Ranks a packed k-mer according to the scheme's ordering.
    #[inline]
    pub fn rank(&self, packed: u64) -> u64 {
        match self.ordering {
            KmerOrdering::Hash => hash64(packed, kmer_mask(self.k)),
            KmerOrdering::Lexicographic => packed,
        }
    }
}

/// A selected minimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Minimizer {
    /// Rank value under the scheme's ordering (hash value for the index).
    pub rank: u64,
    /// 2-bit packed k-mer.
    pub packed: u64,
    /// Start offset of the k-mer within the source sequence.
    pub pos: u32,
}

impl Minimizer {
    /// End offset (exclusive) of the k-mer within the source sequence.
    pub fn end(&self, k: usize) -> u32 {
        self.pos + k as u32
    }
}

/// Bitmask selecting the low `2k` bits of a packed k-mer.
#[inline]
pub fn kmer_mask(k: usize) -> u64 {
    if k >= 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    }
}

/// The invertible hash of minimap2 (`hash64`), confining the result to the
/// packed-k-mer domain via `mask`.
#[inline]
pub fn hash64(key: u64, mask: u64) -> u64 {
    let mut key = key & mask;
    key = (!key).wrapping_add(key << 21) & mask;
    key ^= key >> 24;
    key = (key.wrapping_add(key << 3)).wrapping_add(key << 8) & mask;
    key ^= key >> 14;
    key = (key.wrapping_add(key << 2)).wrapping_add(key << 4) & mask;
    key ^= key >> 28;
    key = key.wrapping_add(key << 31) & mask;
    key
}

/// Packs `k` bases into the low `2k` bits of a u64 (first base in the
/// highest bit pair, so lexicographic order equals integer order).
pub fn pack_kmer(bases: &[Base]) -> u64 {
    debug_assert!(bases.len() <= 31);
    bases
        .iter()
        .fold(0u64, |acc, &b| (acc << 2) | b.code() as u64)
}

/// Extracts the `<w,k>`-minimizers of `seq` in `O(len)` time.
///
/// Consecutive duplicate selections (the same k-mer occurrence winning
/// several windows) are reported once, as in minimap2's `mm_sketch`.
/// Sequences shorter than `k` yield nothing; sequences shorter than one
/// full window still yield the overall minimum.
///
/// # Examples
///
/// ```
/// use segram_index::{extract_minimizers, MinimizerScheme};
///
/// // Figure 8: the <5,3>-minimizer of AGTAGCA's first window is AGC.
/// let seq = "AGTAGCA".parse()?;
/// let scheme = MinimizerScheme::lexicographic(5, 3);
/// let ms = extract_minimizers(&seq, &scheme);
/// assert_eq!(ms.len(), 1);
/// assert_eq!(ms[0].pos, 3); // AGC starts at offset 3
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
pub fn extract_minimizers(seq: &DnaSeq, scheme: &MinimizerScheme) -> Vec<Minimizer> {
    extract_minimizers_from(seq.as_slice(), scheme)
}

/// Slice-based variant of [`extract_minimizers`].
pub fn extract_minimizers_from(bases: &[Base], scheme: &MinimizerScheme) -> Vec<Minimizer> {
    let (w, k) = (scheme.w, scheme.k);
    let len = bases.len();
    if len < k {
        return Vec::new();
    }
    let n_kmers = len - k + 1;
    let mask = kmer_mask(k);
    let mut packed = bases[..k - 1]
        .iter()
        .fold(0u64, |acc, &b| (acc << 2) | b.code() as u64);
    let mut next_kmer = |b: Base| {
        packed = ((packed << 2) | b.code() as u64) & mask;
        (scheme.rank(packed), packed)
    };
    // A quarter above the expected density of `2 / (w + 1)`.
    let mut out: Vec<Minimizer> = Vec::with_capacity(5 * n_kmers / (2 * (w + 1)) + 4);
    // The `(rank, packed)` of the last `w` k-mers.
    let mut ring = vec![(0u64, 0u64); w];

    // The first window (or the whole of a shorter sequence) reports its
    // leftmost smallest k-mer: strictly smaller only, so a tie keeps the
    // earlier occurrence.
    let (first, rest) = bases[k - 1..].split_at(w.min(n_kmers));
    let mut min = Minimizer {
        rank: u64::MAX,
        packed: 0,
        pos: 0,
    };
    for (idx, &b) in first.iter().enumerate() {
        let (rank, packed) = next_kmer(b);
        ring[idx] = (rank, packed);
        if idx == 0 || rank < min.rank {
            min = Minimizer {
                rank,
                packed,
                pos: idx as u32,
            };
        }
    }
    out.push(min);

    // Every later k-mer completes a window whose minimum is the tracked
    // one unless the k-mer beats it or it has left the window. Either way
    // the new minimum is another occurrence, so each is reported once.
    let mut slot = w - 1;
    for (kmer_idx, &b) in (w..).zip(rest) {
        let (rank, packed) = next_kmer(b);
        slot = if slot + 1 == w { 0 } else { slot + 1 };
        ring[slot] = (rank, packed);
        if rank < min.rank {
            min = Minimizer {
                rank,
                packed,
                pos: kmer_idx as u32,
            };
        } else if min.pos as usize + w <= kmer_idx {
            // Rescan the window [kmer_idx + 1 - w, kmer_idx], oldest
            // k-mer (the slot after the current one) first.
            let oldest = if slot + 1 == w { 0 } else { slot + 1 };
            let (mut best, mut best_rank) = (oldest, ring[oldest].0);
            for s in (oldest + 1..w).chain(0..oldest) {
                if ring[s].0 < best_rank {
                    (best, best_rank) = (s, ring[s].0);
                }
            }
            let age = (best + w - oldest) % w;
            min = Minimizer {
                rank: best_rank,
                packed: ring[best].1,
                pos: (kmer_idx + 1 - w + age) as u32,
            };
        } else {
            continue;
        }
        out.push(min);
    }
    out
}

/// Expected index-size reduction factor of minimizers vs all k-mers
/// (`2 / (w + 1)`, Section 6).
pub fn density(w: usize) -> f64 {
    2.0 / (w as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    /// Brute-force reference: minimum of every window, deduplicated by
    /// occurrence.
    fn brute_force(bases: &[Base], scheme: &MinimizerScheme) -> Vec<Minimizer> {
        let (w, k) = (scheme.w, scheme.k);
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

    #[test]
    fn figure8_example() {
        // Sequence AGTAGCA, k=3, w=5: k-mers AGT GTA TAG AGC GCA;
        // lexicographically smallest is AGC at position 3 (0-based).
        let ms = extract_minimizers(&seq("AGTAGCA"), &MinimizerScheme::lexicographic(5, 3));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].pos, 3);
        assert_eq!(ms[0].packed, pack_kmer(seq("AGC").as_slice()));
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases = [
            ("ACGTACGTTGCAGTACCGGTAATA", 5, 4),
            ("AAAAAAAAAAAA", 3, 3),
            ("ACGT", 4, 2),
            ("TGCATGCAGTAGCTAGCATCGATCGTACGATC", 8, 5),
            ("AC", 3, 3), // shorter than k: empty
        ];
        for (s, w, k) in cases {
            for scheme in [
                MinimizerScheme::new(w, k),
                MinimizerScheme::lexicographic(w, k),
            ] {
                let fast = extract_minimizers(&seq(s), &scheme);
                let slow = brute_force(seq(s).as_slice(), &scheme);
                assert_eq!(fast, slow, "seq {s} w {w} k {k} {:?}", scheme.ordering);
            }
        }
    }

    #[test]
    fn shared_substring_shares_a_minimizer() {
        // Section 6: two sequences sharing >= w+k-1 bases share a minimizer.
        let scheme = MinimizerScheme::new(5, 4);
        let shared = "ACGGTTACCATG"; // 12 >= 5+4-1 = 8
        let a = format!("TTTTT{shared}AAAA");
        let b = format!("CCG{shared}TGCATG");
        let ma: std::collections::HashSet<u64> = extract_minimizers(&seq(&a), &scheme)
            .iter()
            .map(|m| m.packed)
            .collect();
        let mb: std::collections::HashSet<u64> = extract_minimizers(&seq(&b), &scheme)
            .iter()
            .map(|m| m.packed)
            .collect();
        assert!(!ma.is_disjoint(&mb));
    }

    #[test]
    fn density_reduction_holds_statistically() {
        // Pseudo-random sequence; selected fraction ~ 2/(w+1).
        let mut state = 0xdeadbeefu64;
        let bases: Vec<Base> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                Base::from_code_masked((state >> 33) as u8)
            })
            .collect();
        let w = 9;
        let scheme = MinimizerScheme::new(w, 15);
        let ms = extract_minimizers_from(&bases, &scheme);
        let measured = ms.len() as f64 / (bases.len() - 14) as f64;
        let expected = density(w);
        assert!(
            (measured - expected).abs() < expected * 0.25,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn positions_are_within_sequence() {
        let s = seq("ACGTTGCAGTACCGGTA");
        let scheme = MinimizerScheme::new(4, 5);
        for m in extract_minimizers(&s, &scheme) {
            assert!((m.end(scheme.k) as usize) <= s.len());
        }
    }

    #[test]
    fn pack_kmer_is_lexicographic() {
        assert!(pack_kmer(seq("AAC").as_slice()) < pack_kmer(seq("AAG").as_slice()));
        assert!(pack_kmer(seq("ACA").as_slice()) < pack_kmer(seq("CAA").as_slice()));
    }

    #[test]
    fn hash64_is_invertible_domain_preserving() {
        let mask = kmer_mask(11);
        let mut seen = std::collections::HashSet::new();
        for key in 0..4096u64 {
            let h = hash64(key, mask);
            assert!(h <= mask);
            assert!(seen.insert(h), "collision for {key}");
        }
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn oversized_k_rejected() {
        MinimizerScheme::new(5, 32);
    }
}
