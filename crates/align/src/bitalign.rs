//! BitAlign: the paper's bitvector-based sequence-to-graph alignment
//! algorithm (Section 7, Algorithm 1), including the traceback that
//! regenerates intermediate bitvectors from the stored `R[d]` vectors.
//!
//! The semantics are *semi-global*: the query read (pattern) is consumed in
//! full, while the alignment may start at any character of the linearized
//! subgraph (free start) or at a fixed anchor, and ends wherever the
//! pattern runs out (free end). That is exactly what the mapping pipeline
//! needs: MinSeed supplies a subgraph window guaranteed (up to the error
//! rate) to contain the read.
//!
//! # The `allR` store
//!
//! The status bitvectors of one (subgraph, read) pair are stored
//! **level-major**: level `d` holds `R[i][d]` for the `n` characters of
//! the subgraph, and row `n` of every level is the *virtual sink*
//! `ones << d` ("a pattern suffix of length `l` can be completed past the
//! end of the subgraph with `l` insertions"). A character without
//! successors borrows the one-element list `[n]`, so generation and
//! traceback treat the sink like any other successor row; every other
//! character borrows its successor list straight from the linearization.
//!
//! Algorithm 1 walks characters outermost and levels innermost. The
//! dependencies allow the transposed order: `R[i][d]` reads `R[i][d-1]`,
//! `R[s][d-1]` and `R[s][d]` for successors `s > i` only — never a level
//! above `d`. Filling level `d` for all characters (last to first) before
//! level `d + 1` therefore produces bit-identical vectors. The distance
//! scan looks at levels ascending and, within a level, start characters
//! ascending, and traceback from a hit at level `d` only ever reads levels
//! `≤ d`, so generation *could* stop at the first level that shows a 0 MSB.
//! It does not yet: [`BitAligner::compute`] fills all `k + 1` levels before
//! the scan, as Algorithm 1 does (ROADMAP open item 2 has the measurements
//! and why the stop is a change of its own).

use segram_graph::{Base, DnaSeq, GraphPos, LinearizedGraph};

use crate::{AlignError, Bitvector, Cigar, CigarOp, PatternBitmasks};

/// Where an alignment is allowed to start within the subgraph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StartMode {
    /// The alignment may start at any character (seed-extension mode).
    #[default]
    Free,
    /// The alignment must start exactly at the given character index.
    Anchored(usize),
}

/// The order in which traceback prefers edit operations when several can
/// explain a 0 bit — GenASM/BitAlign's "user-supplied alignment scoring
/// function" (Section 7). Exact matches are always taken first (cost 0);
/// the preference orders the three unit-cost edits.
///
/// All orders yield the same (optimal) edit distance; they differ only in
/// which co-optimal CIGAR is reported — e.g. indel-averse scoring prefers
/// substitutions, while gap-affine-style post-processing may prefer
/// grouped deletions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EditPreference {
    /// Substitution, then deletion, then insertion (default; mismatch-
    /// tolerant, indel-averse — the common mapper convention).
    #[default]
    SubDelIns,
    /// Substitution, then insertion, then deletion.
    SubInsDel,
    /// Deletion, then substitution, then insertion.
    DelSubIns,
    /// Insertion, then substitution, then deletion.
    InsSubDel,
}

impl EditPreference {
    /// The three unit-cost ops in preference order.
    pub fn order(self) -> [CigarOp; 3] {
        match self {
            EditPreference::SubDelIns => [CigarOp::Subst, CigarOp::Del, CigarOp::Ins],
            EditPreference::SubInsDel => [CigarOp::Subst, CigarOp::Ins, CigarOp::Del],
            EditPreference::DelSubIns => [CigarOp::Del, CigarOp::Subst, CigarOp::Ins],
            EditPreference::InsSubDel => [CigarOp::Ins, CigarOp::Subst, CigarOp::Del],
        }
    }
}

/// A completed alignment between a read and a (sub)graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alignment {
    /// Minimum number of edits (substitutions + insertions + deletions).
    pub edit_distance: u32,
    /// The traceback output.
    pub cigar: Cigar,
    /// Index (within the linearized subgraph) of the first consumed
    /// reference character. Equal to the anchor in anchored mode. When the
    /// alignment consumes no reference characters (all-insertion CIGAR),
    /// this is the candidate start position that was evaluated.
    pub text_start: usize,
    /// One past the index of the last consumed reference character.
    pub text_end: usize,
    /// The reference characters consumed, in path order (indices into the
    /// linearized subgraph). Non-contiguous jumps witness hops.
    pub path: Vec<u32>,
}

impl Alignment {
    /// Maps the consumed path back to graph positions via the
    /// linearization's provenance.
    pub fn graph_path(&self, lin: &LinearizedGraph) -> Vec<GraphPos> {
        self.path.iter().map(|&i| lin.origin(i as usize)).collect()
    }

    /// The reference fragment this alignment consumed.
    pub fn ref_fragment(&self, lin: &LinearizedGraph) -> Vec<Base> {
        self.path.iter().map(|&i| lin.base(i as usize)).collect()
    }
}

/// Configuration of a [`BitAligner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitAlignConfig {
    /// Edit-distance threshold `k` (Algorithm 1 input). Capped at the
    /// pattern length internally.
    pub k: u32,
    /// Start-position mode.
    pub start: StartMode,
    /// Traceback preference among co-optimal edit operations.
    pub preference: EditPreference,
}

impl Default for BitAlignConfig {
    fn default() -> Self {
        Self {
            k: 0,
            start: StartMode::Free,
            preference: EditPreference::default(),
        }
    }
}

impl BitAlignConfig {
    /// Convenience constructor for free-start alignment with threshold `k`.
    pub fn with_k(k: u32) -> Self {
        Self {
            k,
            ..Self::default()
        }
    }
}

/// The BitAlign aligner: owns the `allR` bitvector store for one (subgraph,
/// read) pair, exactly as the hardware's bitvector scratchpad does
/// (Section 8.2), and fills it one edit level at a time.
///
/// # Examples
///
/// ```
/// use segram_align::{BitAlignConfig, BitAligner};
/// use segram_graph::{build_graph, Base, LinearizedGraph, Variant};
///
/// let built = build_graph(
///     &"ACGTACGT".parse()?,
///     [Variant::snp(3, Base::G)].into_iter().collect(),
/// )?;
/// let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars())?;
/// // A read spelling the ALT path aligns with 0 edits.
/// let read = "ACGGACGT".parse()?;
/// let alignment = BitAligner::new(&lin, &read, BitAlignConfig::with_k(2))?
///     .align()?;
/// assert_eq!(alignment.edit_distance, 0);
/// assert_eq!(alignment.cigar.to_string(), "8=");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BitAligner<'a> {
    lin: &'a LinearizedGraph,
    masks: PatternBitmasks,
    k: usize,
    start: StartMode,
    preference: EditPreference,
    /// The level-major store (see the module docs and [`row`]): level `d`
    /// holds `R[i][d]` and, as row `n`, the virtual sink.
    levels: Vec<Vec<Bitvector>>,
    /// Successor list of a character without successors: the sink row.
    sink: [u32; 1],
}

impl<'a> BitAligner<'a> {
    /// Prepares an aligner for one (subgraph, read) pair.
    ///
    /// # Errors
    ///
    /// Returns an error when the pattern or text is empty, or the anchor is
    /// out of bounds.
    pub fn new(
        lin: &'a LinearizedGraph,
        pattern: &DnaSeq,
        config: BitAlignConfig,
    ) -> Result<Self, AlignError> {
        Self::from_bases(lin, pattern.as_slice(), config)
    }

    /// Prepares an aligner from a base slice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::new`].
    pub fn from_bases(
        lin: &'a LinearizedGraph,
        pattern: &[Base],
        config: BitAlignConfig,
    ) -> Result<Self, AlignError> {
        if pattern.is_empty() {
            return Err(AlignError::EmptyPattern);
        }
        if lin.is_empty() {
            return Err(AlignError::EmptyText);
        }
        if let StartMode::Anchored(a) = config.start {
            if a >= lin.len() {
                return Err(AlignError::AnchorOutOfBounds {
                    anchor: a,
                    text_len: lin.len(),
                });
            }
        }
        let m = pattern.len();
        let k = (config.k as usize).min(m);
        Ok(Self {
            lin,
            masks: PatternBitmasks::from_bases(pattern),
            k,
            start: config.start,
            preference: config.preference,
            levels: Vec::with_capacity(k + 1),
            sink: [lin.len() as u32],
        })
    }

    /// Pattern length.
    pub fn pattern_len(&self) -> usize {
        self.masks.len()
    }

    /// Effective threshold (capped at the pattern length).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Active-low read of bit `p` of `R[i][d]` (`i == lin.len()` is the sink
    /// row), with the implicit 0 that a shift injects below bit 0
    /// (`p == -1`).
    #[inline]
    fn bit_is_zero(&self, i: usize, d: usize, p: isize) -> bool {
        p < 0 || !row(&self.levels[d], self.lin.len(), i).bit(p as usize)
    }

    /// Generates the next level `d = self.levels.len()` of the store
    /// (Algorithm 1 lines 11–14 for `d = 0`, lines 16–24 otherwise), pushing
    /// each row as it is finished: the sink, then characters last to first.
    fn push_level(&mut self) {
        let (n, m, d) = (self.lin.len(), self.masks.len(), self.levels.len());
        let ones = Bitvector::all_ones(m);
        let mut level = Vec::with_capacity(n + 1);
        level.push(Bitvector::ones_shifted(m, d));
        let prev = self.levels.last();
        let mut tmp = ones.clone();
        let mut acc = ones.clone();
        for i in (0..n).rev() {
            let pm = self.masks.mask(self.lin.base(i));
            match prev {
                None => acc.copy_from(&ones),
                // Insertion: does not consume a reference character.
                Some(prev) => acc.shl1_from(row(prev, n, i)),
            }
            for &s in successor_rows(self.lin, &self.sink, i) {
                if let Some(prev) = prev {
                    // Deletion: successor's R[d-1] unshifted.
                    acc.and_assign(row(prev, n, s as usize));
                    // Substitution: successor's R[d-1] shifted.
                    tmp.shl1_from(row(prev, n, s as usize));
                    acc.and_assign(&tmp);
                }
                // Match: successor's R[d] shifted, OR pattern mask.
                tmp.shl1_from(row(&level, n, s as usize));
                tmp.or_assign(pm);
                acc.and_assign(&tmp);
            }
            level.push(acc.clone());
        }
        self.levels.push(level);
    }

    /// Runs the whole bitvector-generation phase (Algorithm 1 lines 5–24),
    /// filling all `k + 1` levels of the `allR` store. Idempotent;
    /// [`Self::edit_distance`] and [`Self::align`] call it themselves.
    pub fn compute(&mut self) {
        while self.levels.len() <= self.k {
            self.push_level();
        }
    }

    /// Returns the minimum edit distance and its start position, without
    /// traceback, or `None` when the threshold is exceeded.
    ///
    /// The scan honours the configured [`StartMode`]: levels ascending, and
    /// within a level the leftmost start whose `R[i][d]` has a 0 MSB.
    pub fn edit_distance(&mut self) -> Option<(u32, usize)> {
        let candidates = match self.start {
            StartMode::Free => 0..self.lin.len(),
            StartMode::Anchored(a) => a..a + 1,
        };
        let msb = self.masks.len() as isize - 1;
        self.compute();
        for d in 0..=self.k {
            if let Some(i) = candidates.clone().find(|&i| self.bit_is_zero(i, d, msb)) {
                return Some((d as u32, i));
            }
        }
        None
    }

    /// Runs the full pipeline: bitvector generation, distance extraction,
    /// and traceback (Algorithm 1 line 25).
    ///
    /// # Errors
    ///
    /// Returns [`AlignError::ExceedsThreshold`] when no alignment with at
    /// most `k` edits exists under the configured start mode.
    pub fn align(&mut self) -> Result<Alignment, AlignError> {
        let (dist, start) = self
            .edit_distance()
            .ok_or(AlignError::ExceedsThreshold { k: self.k as u32 })?;
        Ok(self.traceback(start, dist as usize))
    }

    /// Traceback from a start character with a known distance budget; reads
    /// levels `0..=dist` only.
    ///
    /// Regenerates the intermediate match/substitution/deletion/insertion
    /// bitvectors on demand from the stored `R[d]` vectors, as the paper's
    /// hardware does ("we store only k+1 bitvectors per node ... from which
    /// the 3(k+1) bitvectors per edge can be regenerated on-demand during
    /// traceback", Section 7).
    fn traceback(&self, start: usize, dist: usize) -> Alignment {
        debug_assert!(dist < self.levels.len());
        let sink = self.lin.len();
        let mut cigar = Cigar::new();
        let mut path: Vec<u32> = Vec::new();
        let mut i = start;
        let mut p = self.masks.len() as isize - 1; // suffix bit under consideration
        let mut d = dist;

        while p >= 0 {
            if i == sink {
                // Only insertions remain past the end of the subgraph.
                cigar.push_run(CigarOp::Ins, p as u32 + 1);
                break;
            }
            let pm = self.masks.mask(self.lin.base(i));
            let succs = successor_rows(self.lin, &self.sink, i);
            let next_with =
                |d: usize, p: isize| succs.iter().find(|&&s| self.bit_is_zero(s as usize, d, p));
            // 1) Exact match: pattern head equals text[i] and some successor
            //    continues the remaining suffix within the same budget.
            if !pm.bit(p as usize) {
                if let Some(&next) = next_with(d, p - 1) {
                    cigar.push(CigarOp::Match);
                    path.push(i as u32);
                    i = next as usize;
                    p -= 1;
                    continue;
                }
            }
            debug_assert!(d > 0, "stuck traceback: R bit was 0 but no op applies");
            // 2) Unit-cost edits, in the configured preference order.
            let mut applied = false;
            for op in self.preference.order() {
                match op {
                    CigarOp::Subst => {
                        if let Some(&next) = next_with(d - 1, p - 1) {
                            cigar.push(CigarOp::Subst);
                            path.push(i as u32);
                            i = next as usize;
                            p -= 1;
                            d -= 1;
                            applied = true;
                        }
                    }
                    CigarOp::Del => {
                        // Consumes the reference character only.
                        if let Some(&next) = next_with(d - 1, p) {
                            cigar.push(CigarOp::Del);
                            path.push(i as u32);
                            i = next as usize;
                            d -= 1;
                            applied = true;
                        }
                    }
                    CigarOp::Ins => {
                        // Consumes the pattern character only.
                        if self.bit_is_zero(i, d - 1, p - 1) {
                            cigar.push(CigarOp::Ins);
                            p -= 1;
                            d -= 1;
                            applied = true;
                        }
                    }
                    CigarOp::Match => unreachable!("matches are handled above"),
                }
                if applied {
                    break;
                }
            }
            debug_assert!(applied, "stuck traceback: no edit operation applies");
        }
        let text_end = path.last().map_or(start, |&last| last as usize + 1);
        Alignment {
            edit_distance: cigar.edit_count(),
            cigar,
            text_start: path.first().map_or(start, |&f| f as usize),
            text_end,
            path,
        }
    }

    /// Access to a stored status bitvector (for tests and the hardware
    /// model). `None` when the indices are out of range or
    /// [`Self::compute`] has not run.
    pub fn status_bitvector(&self, i: usize, d: usize) -> Option<&Bitvector> {
        if i >= self.lin.len() {
            return None;
        }
        self.levels
            .get(d)
            .map(|level| row(level, self.lin.len(), i))
    }
}

/// Row `i` of a level over `n` characters. Rows are kept in the order they
/// are generated — the sink (`i = n`) first, then characters last to first —
/// so a level is built by pushing finished rows, and a row's successors
/// (`s > i`) are always already there.
#[inline]
fn row(level: &[Bitvector], n: usize, i: usize) -> &Bitvector {
    &level[n - i]
}

/// Successors of character `i` as rows of a level: the linearization's own
/// list, or the sink row when `i` ends the subgraph.
#[inline]
fn successor_rows<'a>(lin: &'a LinearizedGraph, sink: &'a [u32; 1], i: usize) -> &'a [u32] {
    match lin.successors(i) {
        [] => sink,
        list => list,
    }
}

/// One-shot convenience: align `pattern` against `lin` with threshold `k`
/// and a free start.
///
/// # Errors
///
/// See [`BitAligner::align`].
///
/// # Examples
///
/// ```
/// use segram_align::bitalign;
/// use segram_graph::LinearizedGraph;
///
/// let lin = LinearizedGraph::from_linear_seq(&"ACGTACGT".parse()?);
/// let alignment = bitalign(&lin, &"GTAC".parse()?, 1)?;
/// assert_eq!(alignment.edit_distance, 0);
/// assert_eq!(alignment.text_start, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn bitalign(lin: &LinearizedGraph, pattern: &DnaSeq, k: u32) -> Result<Alignment, AlignError> {
    BitAligner::new(lin, pattern, BitAlignConfig::with_k(k))?.align()
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_graph::{build_graph, Variant};

    fn linear(text: &str) -> LinearizedGraph {
        LinearizedGraph::from_linear_seq(&text.parse().unwrap())
    }

    fn align_str(text: &str, pattern: &str, k: u32) -> Result<Alignment, AlignError> {
        bitalign(&linear(text), &pattern.parse().unwrap(), k)
    }

    #[test]
    fn exact_match_anywhere() {
        let a = align_str("ACGTACGT", "GTAC", 0).unwrap();
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.cigar.to_string(), "4=");
        assert_eq!(a.text_start, 2);
        assert_eq!(a.text_end, 6);
        assert_eq!(a.path, vec![2, 3, 4, 5]);
    }

    #[test]
    fn single_substitution() {
        let a = align_str("AAAAACGTAAAA", "ACTT", 1).unwrap();
        assert_eq!(a.edit_distance, 1);
        assert_eq!(a.cigar.edit_count(), 1);
    }

    #[test]
    fn single_insertion_in_read() {
        // read has an extra T relative to the text
        let a = align_str("AACCGG", "AACTCGG", 1).unwrap();
        assert_eq!(a.edit_distance, 1);
        assert_eq!(a.cigar.read_len(), 7);
        assert_eq!(a.cigar.ref_len(), 6);
    }

    #[test]
    fn single_deletion_in_read() {
        let a = align_str("AACTCGG", "AACCGG", 1).unwrap();
        assert_eq!(a.edit_distance, 1);
        assert_eq!(a.cigar.read_len(), 6);
        assert_eq!(a.cigar.ref_len(), 7);
    }

    #[test]
    fn threshold_is_respected() {
        let err = align_str("AAAA", "TTTT", 2).unwrap_err();
        assert_eq!(err, AlignError::ExceedsThreshold { k: 2 });
        let a = align_str("AAAA", "TTTT", 4).unwrap();
        assert_eq!(a.edit_distance, 4);
    }

    #[test]
    fn anchored_start_changes_answer() {
        let lin = linear("ACGTACGT");
        let pattern: DnaSeq = "ACGT".parse().unwrap();
        // Free start: 0 edits at position 0 (or 4).
        let free = bitalign(&lin, &pattern, 2).unwrap();
        assert_eq!(free.edit_distance, 0);
        // Anchored at 1: best alignment of "ACGT" starting exactly at 'C'
        // needs edits.
        let mut anchored = BitAligner::new(
            &lin,
            &pattern,
            BitAlignConfig {
                k: 2,
                start: StartMode::Anchored(1),
                ..BitAlignConfig::default()
            },
        )
        .unwrap();
        let a = anchored.align().unwrap();
        assert!(a.edit_distance >= 1);
        assert_eq!(a.text_start, 1);
    }

    #[test]
    fn anchor_out_of_bounds_rejected() {
        let lin = linear("ACGT");
        let err = BitAligner::new(
            &lin,
            &"AC".parse().unwrap(),
            BitAlignConfig {
                k: 0,
                start: StartMode::Anchored(4),
                ..BitAlignConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, AlignError::AnchorOutOfBounds { .. }));
    }

    #[test]
    fn snp_graph_aligns_both_alleles_exactly() {
        let built = build_graph(
            &"ACGTACGT".parse().unwrap(),
            [Variant::snp(3, segram_graph::Base::G)]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()).unwrap();
        for allele in ["ACGTACGT", "ACGGACGT"] {
            let a = bitalign(&lin, &allele.parse().unwrap(), 1).unwrap();
            assert_eq!(a.edit_distance, 0, "allele {allele}");
            assert_eq!(a.cigar.to_string(), "8=");
        }
        // A read matching neither allele needs one substitution.
        let a = bitalign(&lin, &"ACGCACGT".parse().unwrap(), 1).unwrap();
        assert_eq!(a.edit_distance, 1);
    }

    #[test]
    fn deletion_graph_uses_skip_edge() {
        let built = build_graph(
            &"AACCCCTT".parse().unwrap(),
            [Variant::deletion(2, 4)].into_iter().collect(),
        )
        .unwrap();
        let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()).unwrap();
        let a = bitalign(&lin, &"AATT".parse().unwrap(), 0).unwrap();
        assert_eq!(a.edit_distance, 0);
        // The path must jump over the deleted CCCC characters.
        assert_eq!(a.path, vec![0, 1, 6, 7]);
    }

    #[test]
    fn insertion_graph_offers_both_paths() {
        let built = build_graph(
            &"AATT".parse().unwrap(),
            [Variant::insertion(2, "GGG".parse().unwrap())]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()).unwrap();
        for read in ["AATT", "AAGGGTT"] {
            let a = bitalign(&lin, &read.parse().unwrap(), 0).unwrap();
            assert_eq!(a.edit_distance, 0, "read {read}");
        }
    }

    #[test]
    fn traceback_cigar_replays_against_path() {
        let built = build_graph(
            &"ACGTACGTACGT".parse().unwrap(),
            [
                Variant::snp(3, segram_graph::Base::A),
                Variant::deletion(7, 2),
            ]
            .into_iter()
            .collect(),
        )
        .unwrap();
        let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()).unwrap();
        let read: DnaSeq = "CGAACGCG".parse().unwrap();
        let a = bitalign(&lin, &read, 3).unwrap();
        let fragment = a.ref_fragment(&lin);
        let replayed = a
            .cigar
            .replay(&fragment, read.as_slice())
            .expect("cigar must be consistent with the chosen path");
        assert_eq!(replayed, read.as_slice());
        assert_eq!(a.cigar.edit_count(), a.edit_distance);
    }

    #[test]
    fn path_respects_graph_successors() {
        let built = build_graph(
            &"ACGTACGT".parse().unwrap(),
            [Variant::snp(3, segram_graph::Base::G)]
                .into_iter()
                .collect(),
        )
        .unwrap();
        let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars()).unwrap();
        let a = bitalign(&lin, &"ACGGACGT".parse().unwrap(), 2).unwrap();
        for pair in a.path.windows(2) {
            assert!(
                lin.successors(pair[0] as usize).contains(&pair[1]),
                "path step {} -> {} is not an edge",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn read_longer_than_text_uses_virtual_insertions() {
        // Text has only 4 chars; read has 6: at least 2 insertions needed.
        let a = align_str("ACGT", "ACGTAA", 2).unwrap();
        assert_eq!(a.edit_distance, 2);
        assert_eq!(a.cigar.read_len(), 6);
    }

    #[test]
    fn empty_inputs_rejected() {
        let lin = linear("ACGT");
        assert_eq!(
            BitAligner::from_bases(&lin, &[], BitAlignConfig::default()).unwrap_err(),
            AlignError::EmptyPattern
        );
    }

    #[test]
    fn k_zero_finds_only_exact() {
        assert!(align_str("ACGTACGT", "ACGA", 0).is_err());
        assert_eq!(align_str("ACGTACGT", "ACGT", 0).unwrap().edit_distance, 0);
    }

    #[test]
    fn edit_preferences_share_the_distance_and_replay() {
        // A read with an ambiguous optimum: 1 edit explainable as either
        // an indel pair or substitutions depending on preference.
        let lin = linear("AACCGGTTAACC");
        let read: DnaSeq = "ACCGTTAAC".parse().unwrap();
        let mut cigars = std::collections::HashSet::new();
        let mut distances = std::collections::HashSet::new();
        for preference in [
            EditPreference::SubDelIns,
            EditPreference::SubInsDel,
            EditPreference::DelSubIns,
            EditPreference::InsSubDel,
        ] {
            let mut aligner = BitAligner::new(
                &lin,
                &read,
                BitAlignConfig {
                    k: 4,
                    start: StartMode::Free,
                    preference,
                },
            )
            .unwrap();
            let a = aligner.align().unwrap();
            distances.insert(a.edit_distance);
            cigars.insert(a.cigar.to_string());
            // Every preference's traceback must replay.
            let fragment = a.ref_fragment(&lin);
            assert!(
                a.cigar.replay(&fragment, read.as_slice()).is_some(),
                "{preference:?}: {}",
                a.cigar
            );
            assert_eq!(a.cigar.edit_count(), a.edit_distance);
        }
        assert_eq!(distances.len(), 1, "all preferences are co-optimal");
    }

    #[test]
    fn status_bitvectors_follow_suffix_semantics() {
        // Text "ACGT", pattern "GT": after compute, bit 1 of R[2][0] must be
        // 0 (suffix "GT" matches starting at text index 2).
        let lin = linear("ACGT");
        let mut aligner =
            BitAligner::new(&lin, &"GT".parse().unwrap(), BitAlignConfig::with_k(0)).unwrap();
        aligner.compute();
        let r = aligner.status_bitvector(2, 0).unwrap();
        assert!(!r.bit(1));
        let r0 = aligner.status_bitvector(0, 0).unwrap();
        assert!(r0.bit(1));
    }
}
