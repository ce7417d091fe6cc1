//! Subgraph extraction and linearization.
//!
//! MinSeed hands BitAlign "the subgraph surrounding the seed" (Section 4,
//! step 7). BitAlign consumes a *linearized and topologically sorted*
//! subgraph (Algorithm 1) together with per-character successor
//! information — the HopBits adjacency of Figure 12. This module extracts a
//! linear-coordinate window `[start, end)` from a genome graph and produces
//! that character-level representation.

use crate::{Base, GenomeGraph, GraphError, GraphPos, NodeId};

/// A linearized, topologically sorted subgraph at character granularity.
///
/// Position `i` holds one reference character; `successors(i)` lists the
/// indices of the characters that can follow it on some path. Successor
/// index `i + 1` is the ordinary "neighbor" dependency of sequence-to-
/// sequence alignment; larger jumps are *hops* (Figure 3b).
///
/// # Examples
///
/// ```
/// use segram_graph::{build_graph, Base, LinearizedGraph, Variant};
///
/// let built = build_graph(
///     &"ACGTACGT".parse()?,
///     [Variant::snp(3, Base::G)].into_iter().collect(),
/// )?;
/// let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars())?;
/// assert_eq!(lin.len(), 9); // ACG + T + G + ACGT
/// // The last char of "ACG" hops to both the ref and the alt allele.
/// assert_eq!(lin.successors(2), &[3, 4]);
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinearizedGraph {
    bases: Vec<Base>,
    /// Successor lists in CSR form: character `i`'s successors are
    /// `succ_flat[succ_off[i]..succ_off[i + 1]]`, sorted ascending.
    /// `succ_off` always holds `len() + 1` offsets.
    succ_off: Vec<u32>,
    succ_flat: Vec<u32>,
    /// Graph provenance of every character.
    origins: Vec<GraphPos>,
    /// Linear coordinate (in the full graph) of the first character.
    start_linear: u64,
}

impl LinearizedGraph {
    /// Extracts and linearizes the window `[start, end)` of `graph`'s
    /// linear coordinate space.
    ///
    /// The graph must be topologically sorted. Characters are emitted in
    /// linear-coordinate order, which preserves topological order; edges
    /// leaving the window are clipped.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LinearPosOutOfBounds`] when the window is
    /// empty or exceeds the graph.
    pub fn extract(graph: &GenomeGraph, start: u64, end: u64) -> Result<Self, GraphError> {
        if start >= end || end > graph.total_chars() {
            return Err(GraphError::LinearPosOutOfBounds {
                pos: end,
                total: graph.total_chars(),
            });
        }
        let first = graph.graph_pos(start)?;
        let len = (end - start) as usize;
        let mut bases = Vec::with_capacity(len);
        let mut succ_off = Vec::with_capacity(len + 1);
        let mut succ_flat = Vec::with_capacity(len + len / 8);
        let mut origins = Vec::with_capacity(len);
        succ_off.push(0);

        let mut node = first.node;
        let mut offset = first.offset as usize;
        while bases.len() < len {
            let seq = graph.seq(node);
            let take = (seq.len() - offset).min(len - bases.len());
            let first_local = bases.len() as u32;
            bases.extend_from_slice(&seq[offset..offset + take]);
            origins.extend((offset..offset + take).map(|o| GraphPos::new(node, o as u32)));
            // Intra-node neighbors: every taken character but the node's
            // last one is followed by the next character, if in the window.
            let ends_node = offset + take == seq.len();
            let interior = (take - usize::from(ends_node)) as u32;
            for next in first_local + 1..=first_local + interior {
                if (next as usize) < len {
                    succ_flat.push(next);
                }
                succ_off.push(succ_flat.len() as u32);
            }
            if ends_node {
                // Node boundary: hop to the first character of every
                // successor node that falls inside the window.
                let begin = succ_flat.len();
                for &next_node in graph.successors(node) {
                    let linear = graph.char_start(next_node);
                    if linear >= start && linear < end {
                        succ_flat.push((linear - start) as u32);
                    }
                }
                succ_flat[begin..].sort_unstable();
                debug_assert!(succ_flat[begin..]
                    .iter()
                    .all(|&s| s >= first_local + take as u32));
                succ_off.push(succ_flat.len() as u32);
            }
            // Advance to the next node in id (= topological / linear) order.
            node = NodeId(node.0 + 1);
            offset = 0;
        }
        Ok(Self {
            bases,
            succ_off,
            succ_flat,
            origins,
            start_linear: start,
        })
    }

    /// Assembles a linearization from one successor list per character,
    /// given in character order. The lists must already be sorted ascending
    /// and point strictly forward.
    fn from_lists<L: IntoIterator<Item = u32>>(
        bases: Vec<Base>,
        lists: impl Iterator<Item = L>,
        origins: Vec<GraphPos>,
        start_linear: u64,
    ) -> Self {
        let mut succ_off = Vec::with_capacity(bases.len() + 1);
        let mut succ_flat = Vec::with_capacity(bases.len());
        succ_off.push(0);
        for list in lists {
            succ_flat.extend(list);
            succ_off.push(succ_flat.len() as u32);
        }
        assert_eq!(succ_off.len(), bases.len() + 1, "one list per character");
        Self {
            bases,
            succ_off,
            succ_flat,
            origins,
            start_linear,
        }
    }

    /// Builds a linearization directly from parts (used by tests and by the
    /// simulator for hand-crafted subgraphs).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] when any successor does not point
    /// strictly forward (which would violate topological order), and
    /// [`GraphError::DuplicateEdge`] when a list names a successor twice.
    /// Each list is stored sorted ascending, whatever order it arrives in.
    pub fn from_parts(
        bases: Vec<Base>,
        mut succ: Vec<Vec<u32>>,
        start_linear: u64,
    ) -> Result<Self, GraphError> {
        assert_eq!(
            bases.len(),
            succ.len(),
            "bases and successor lists must align"
        );
        for (i, list) in succ.iter_mut().enumerate() {
            if list
                .iter()
                .any(|&s| s as usize <= i || s as usize >= bases.len())
            {
                return Err(GraphError::CyclicGraph);
            }
            list.sort_unstable();
            if let Some(pair) = list.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(GraphError::DuplicateEdge {
                    from: i as u32,
                    to: pair[0],
                });
            }
        }
        let origins = (0..bases.len())
            .map(|i| GraphPos::new(NodeId(0), i as u32))
            .collect();
        Ok(Self::from_lists(
            bases,
            succ.into_iter(),
            origins,
            start_linear,
        ))
    }

    /// Builds a purely linear text (every character's only successor is the
    /// next one) — the sequence-to-sequence special case.
    pub fn from_linear_seq(seq: &crate::DnaSeq) -> Self {
        let n = seq.len() as u32;
        Self::from_lists(
            seq.iter().collect(),
            (1..=n).map(|next| (next < n).then_some(next)),
            (0..n).map(|i| GraphPos::new(NodeId(0), i)).collect(),
            0,
        )
    }

    /// Number of characters.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Returns `true` when the subgraph holds no characters.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Character at position `i`.
    pub fn base(&self, i: usize) -> Base {
        self.bases[i]
    }

    /// All characters.
    pub fn bases(&self) -> &[Base] {
        &self.bases
    }

    /// Successor indices of position `i` (sorted ascending, all `> i`).
    #[inline]
    pub fn successors(&self, i: usize) -> &[u32] {
        &self.succ_flat[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Every character's successor list, in character order.
    fn successor_lists(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(|i| self.successors(i))
    }

    /// Graph position the character at `i` came from.
    pub fn origin(&self, i: usize) -> GraphPos {
        self.origins[i]
    }

    /// Linear coordinate (in the source graph) of character 0.
    pub fn start_linear(&self) -> u64 {
        self.start_linear
    }

    /// Iterates over every hop `(from, to)` whose distance `to - from`
    /// exceeds 1 — the dependencies that need the hop queue in hardware.
    pub fn hops(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.successor_lists().enumerate().flat_map(|(i, list)| {
            list.iter()
                .filter(move |&&s| s != i as u32 + 1)
                .map(move |&s| (i as u32, s))
        })
    }

    /// Returns a copy with every successor farther than `hop_limit`
    /// characters removed, together with the number of dropped hops.
    ///
    /// This models the hardware's bounded hop queue (Section 8.2 /
    /// Figure 13: "when we select 12 as the hop limit, we cover more than
    /// 99% of all hops"). Successor distance 1 is always kept.
    pub fn with_hop_limit(&self, hop_limit: u32) -> (Self, usize) {
        let limited = Self::from_lists(
            self.bases.clone(),
            self.successor_lists().enumerate().map(|(i, list)| {
                list.iter()
                    .copied()
                    .filter(move |&s| s - i as u32 <= hop_limit.max(1))
            }),
            self.origins.clone(),
            self.start_linear,
        );
        let dropped = self.succ_flat.len() - limited.succ_flat.len();
        (limited, dropped)
    }

    /// Statistics over hop distances: for each hop `(i, j)` the distance is
    /// `j - i`. Returns the multiset of distances of *hops* (distance > 1).
    pub fn hop_distances(&self) -> Vec<u32> {
        self.hops().map(|(a, b)| b - a).collect()
    }

    /// Dense HopBits adjacency matrix (Figure 12): entry `(x, y)` is `true`
    /// when character `y` is a successor of character `x`.
    ///
    /// Intended for small subgraphs (tests, visualization, the hardware
    /// model's scratchpad accounting); the matrix is `len²` bits.
    pub fn hop_bits(&self) -> Vec<Vec<bool>> {
        let n = self.len();
        let mut m = vec![vec![false; n]; n];
        for (i, list) in self.successor_lists().enumerate() {
            for &s in list {
                m[i][s as usize] = true;
            }
        }
        m
    }

    /// Extracts the sub-graph of all characters reachable from `from`
    /// within `path_len` path steps (edges followed, hops included),
    /// remapped to dense local indices. Returns the window plus the map
    /// from local index back to the index in `self`.
    ///
    /// This is how anchored alignment windows must be built: a linear
    /// slice `[from, from + len)` can clip the landing site of a hop (for
    /// example, an alignment path skipping over a structural-variant
    /// branch whose characters sit inline in the linearization), whereas
    /// path-reachability keeps every continuation the aligner may need —
    /// mirroring how the hardware fetches subgraphs by walking nodes.
    ///
    /// # Panics
    ///
    /// Panics when `from >= self.len()`.
    pub fn reachable_window(&self, from: usize, path_len: usize) -> (Self, Vec<u32>) {
        assert!(from < self.len());
        // BFS with unit edge weights: dist = characters consumed so far.
        let mut dist: Vec<u32> = vec![u32::MAX; self.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        dist[from] = 0;
        while let Some(i) = queue.pop_front() {
            if dist[i] as usize >= path_len {
                continue;
            }
            for &j in self.successors(i) {
                let j = j as usize;
                if dist[j] == u32::MAX {
                    dist[j] = dist[i] + 1;
                    queue.push_back(j);
                }
            }
        }
        let selected: Vec<u32> = (0..self.len() as u32)
            .filter(|&i| dist[i as usize] != u32::MAX)
            .collect();
        let mut local_of = vec![u32::MAX; self.len()];
        for (local, &parent) in selected.iter().enumerate() {
            local_of[parent as usize] = local as u32;
        }
        let window = Self::from_lists(
            selected.iter().map(|&p| self.bases[p as usize]).collect(),
            selected.iter().map(|&p| {
                self.successors(p as usize)
                    .iter()
                    .map(|&s| local_of[s as usize])
                    .filter(|&l| l != u32::MAX)
            }),
            selected.iter().map(|&p| self.origins[p as usize]).collect(),
            self.start_linear + from as u64,
        );
        (window, selected)
    }

    /// The sub-window `[from, to)` of this linearization (clipping edges
    /// that leave the window), used by windowed (divide-and-conquer)
    /// alignment.
    ///
    /// # Panics
    ///
    /// Panics when `from >= to` or `to > self.len()`.
    pub fn window(&self, from: usize, to: usize) -> Self {
        assert!(from < to && to <= self.len());
        Self::from_lists(
            self.bases[from..to].to_vec(),
            (from..to).map(|i| {
                self.successors(i)
                    .iter()
                    .filter(move |&&s| (s as usize) < to)
                    .map(move |&s| s - from as u32)
            }),
            self.origins[from..to].to_vec(),
            self.start_linear + from as u64,
        )
    }

    /// Splits the linearization into maximal straight-line *segments*:
    /// runs in which every character's only successor is the next
    /// character and no interior character is a hop target. Returns each
    /// segment as a `(start, end)` half-open char range.
    fn segments(&self) -> Vec<(usize, usize)> {
        let n = self.len();
        let mut is_target = vec![false; n];
        for (_, s) in self.hops() {
            is_target[s as usize] = true;
        }
        let mut segments = Vec::new();
        let mut start = 0usize;
        for i in 0..n {
            let continues = self.successors(i) == [i as u32 + 1] && i + 1 < n && !is_target[i + 1];
            if !continues {
                segments.push((start, i + 1));
                start = i + 1;
            }
        }
        segments
    }

    /// Returns an equivalent linearization whose segment order is chosen
    /// to shorten hop distances — the paper's footnote-2 future work
    /// ("overcoming the [hop-limit] tradeoff and improving accuracy").
    ///
    /// The default linearization emits nodes in linear-coordinate order;
    /// any topological order is equally valid for BitAlign, and in
    /// principle an order that places a branch's targets sooner lets more
    /// hops fit within the hardware's hop limit (Figure 13). This method
    /// re-orders the straight-line segments greedily: among the ready
    /// segments (all predecessors placed) it always places the one whose
    /// *oldest* pending incoming edge is earliest — the classic
    /// oldest-pending-edge bandwidth heuristic.
    ///
    /// The `fig13` experiment applies this to pangenome graphs and finds a
    /// **negative result**: bubble-shaped variant graphs leave essentially
    /// no ordering freedom (every bubble's hop distances are fixed by its
    /// allele lengths — one of the two edges crossing a long allele must
    /// span it in any order), which is *why* the paper's simple
    /// linear-coordinate order plus hop limit 12 suffices. The method
    /// still helps hand-built DAGs with parallel independent branches.
    ///
    /// Alignment semantics are unchanged (same characters, same edges, a
    /// permuted order); per-character provenance ([`Self::origin`]) is
    /// permuted along, so mappings remain traceable to graph coordinates.
    /// Linear *window* arithmetic (`start_linear + index`) does **not**
    /// survive reordering — callers must go through [`Self::origin`].
    pub fn reordered_for_hops(&self) -> Self {
        let segments = self.segments();
        let seg_count = segments.len();
        if seg_count <= 2 {
            return self.clone();
        }
        // Map char -> segment, and build the segment DAG.
        let mut seg_of = vec![0usize; self.len()];
        for (s, &(a, b)) in segments.iter().enumerate() {
            seg_of[a..b].fill(s);
        }
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); seg_count];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); seg_count];
        for (s, &(_, b)) in segments.iter().enumerate() {
            for &t in self.successors(b - 1) {
                let to = seg_of[t as usize];
                succs[s].push(to);
                preds[to].push(s);
            }
        }

        // Greedy topological order. `placed_end[s]` = char position just
        // past segment s in the new order (once placed).
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..seg_count).filter(|&s| indegree[s] == 0).collect();
        let mut placed_end = vec![usize::MAX; seg_count];
        let mut order = Vec::with_capacity(seg_count);
        let mut cursor = 0usize;
        while let Some(pick_idx) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| {
                // Deadline: the earliest placed predecessor's end — the
                // edge that has been stretching the longest. Sources sort
                // by their original position.
                let oldest = preds[s]
                    .iter()
                    .map(|&p| placed_end[p])
                    .min()
                    .unwrap_or(segments[s].0);
                (oldest, segments[s].0)
            })
            .map(|(i, _)| i)
        {
            let s = ready.swap_remove(pick_idx);
            order.push(s);
            cursor += segments[s].1 - segments[s].0;
            placed_end[s] = cursor;
            for &t in &succs[s] {
                indegree[t] -= 1;
                if indegree[t] == 0 {
                    ready.push(t);
                }
            }
        }
        debug_assert_eq!(order.len(), seg_count, "segment DAG must be acyclic");

        // Rebuild in the new order.
        let old_order: Vec<usize> = order
            .iter()
            .flat_map(|&s| segments[s].0..segments[s].1)
            .collect();
        let mut new_index = vec![0u32; self.len()];
        for (nc, &c) in old_order.iter().enumerate() {
            new_index[c] = nc as u32;
        }
        Self::from_lists(
            old_order.iter().map(|&c| self.bases[c]).collect(),
            old_order.iter().map(|&c| {
                let mut list: Vec<u32> = self
                    .successors(c)
                    .iter()
                    .map(|&t| new_index[t as usize])
                    .collect();
                list.sort_unstable();
                debug_assert!(
                    list.iter().all(|&t| t > new_index[c]),
                    "order must stay topological"
                );
                list
            }),
            old_order.iter().map(|&c| self.origins[c]).collect(),
            self.start_linear,
        )
    }

    /// The largest hop distance in this linearization (0 when hop-free) —
    /// the hop-queue depth a hardware run of this subgraph would need.
    pub fn max_hop_distance(&self) -> u32 {
        self.hop_distances().into_iter().max().unwrap_or(0)
    }

    /// Fraction of this linearization's hops with distance at most
    /// `hop_limit` (1.0 when hop-free) — Figure 13's quantity for a single
    /// subgraph.
    pub fn hop_coverage_at(&self, hop_limit: u32) -> f64 {
        let distances = self.hop_distances();
        if distances.is_empty() {
            return 1.0;
        }
        distances.iter().filter(|&&d| d <= hop_limit).count() as f64 / distances.len() as f64
    }
}

/// Fraction of hops in `graph` (linearized in full) whose distance is at
/// most `hop_limit` — the quantity plotted in Figure 13.
///
/// # Errors
///
/// Returns an error when the graph is empty.
pub fn hop_coverage(graph: &GenomeGraph, hop_limit: u32) -> Result<f64, GraphError> {
    let lin = LinearizedGraph::extract(graph, 0, graph.total_chars())?;
    let distances = lin.hop_distances();
    if distances.is_empty() {
        return Ok(1.0);
    }
    let covered = distances.iter().filter(|&&d| d <= hop_limit).count();
    Ok(covered as f64 / distances.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_graph, Variant, VariantSet};

    fn snp_graph() -> GenomeGraph {
        build_graph(
            &"ACGTACGT".parse().unwrap(),
            [Variant::snp(3, crate::Base::G)].into_iter().collect(),
        )
        .unwrap()
        .graph
    }

    #[test]
    fn full_extraction_matches_graph() {
        let g = snp_graph();
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        assert_eq!(lin.len(), 9);
        let spelled: String = lin.bases().iter().map(|b| char::from(*b)).collect();
        assert_eq!(spelled, "ACGTGACGT"); // ACG | T | G | ACGT in id order
                                          // char 2 = 'G' end of node 0 -> successors are starts of T (3) and G (4)
        assert_eq!(lin.successors(2), &[3, 4]);
        // char 3 = ref allele T -> start of ACGT (5)
        assert_eq!(lin.successors(3), &[5]);
        // char 4 = alt allele G -> start of ACGT (5)
        assert_eq!(lin.successors(4), &[5]);
        // last char has no successors
        assert!(lin.successors(8).is_empty());
    }

    #[test]
    fn window_extraction_clips_edges() {
        let g = snp_graph();
        // Window [2, 6): chars G T G A
        let lin = LinearizedGraph::extract(&g, 2, 6).unwrap();
        assert_eq!(lin.len(), 4);
        assert_eq!(lin.successors(0), &[1, 2]);
        assert_eq!(lin.successors(1), &[3]);
        assert_eq!(lin.successors(2), &[3]);
        assert_eq!(lin.start_linear(), 2);
        assert_eq!(lin.origin(0), GraphPos::new(NodeId(0), 2));
    }

    #[test]
    fn invalid_windows_rejected() {
        let g = snp_graph();
        assert!(LinearizedGraph::extract(&g, 3, 3).is_err());
        assert!(LinearizedGraph::extract(&g, 0, 10).is_err());
    }

    #[test]
    fn hops_and_distances() {
        let g = snp_graph();
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        // Hops (distance > 1): 2->4 (alt branch) and 3->5 (rejoin over alt).
        let hops: Vec<(u32, u32)> = lin.hops().collect();
        assert_eq!(hops, vec![(2, 4), (3, 5)]);
        assert_eq!(lin.hop_distances(), vec![2, 2]);
    }

    #[test]
    fn hop_limit_drops_long_hops() {
        let g = build_graph(
            &"AACCCCCCTT".parse().unwrap(),
            [Variant::deletion(2, 6)].into_iter().collect(),
        )
        .unwrap()
        .graph;
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        // The deletion skip edge jumps 7 characters (A at idx 1 -> T at idx 8).
        assert_eq!(lin.hop_distances(), vec![7]);
        let (limited, dropped) = lin.with_hop_limit(6);
        assert_eq!(dropped, 1);
        assert!(limited.hop_distances().is_empty());
        let (kept, dropped) = lin.with_hop_limit(7);
        assert_eq!(dropped, 0);
        assert_eq!(kept.hop_distances(), vec![7]);
    }

    #[test]
    fn hop_coverage_is_monotonic() {
        let reference: crate::DnaSeq = "ACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let variants: VariantSet = [
            Variant::snp(3, crate::Base::A),
            Variant::deletion(8, 5),
            Variant::insertion(20, "GG".parse().unwrap()),
        ]
        .into_iter()
        .collect();
        let g = build_graph(&reference, variants).unwrap().graph;
        let mut prev = 0.0;
        for limit in 1..16 {
            let c = hop_coverage(&g, limit).unwrap();
            assert!(c >= prev, "coverage must grow with the hop limit");
            prev = c;
        }
        assert!((hop_coverage(&g, 64).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hop_bits_matches_successors() {
        let g = snp_graph();
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        let m = lin.hop_bits();
        for (i, row) in m.iter().enumerate() {
            for (j, &bit) in row.iter().enumerate() {
                assert_eq!(bit, lin.successors(i).contains(&(j as u32)));
            }
        }
    }

    #[test]
    fn from_linear_seq_is_a_chain() {
        let lin = LinearizedGraph::from_linear_seq(&"ACGT".parse().unwrap());
        assert_eq!(lin.len(), 4);
        assert_eq!(lin.successors(0), &[1]);
        assert!(lin.successors(3).is_empty());
        assert!(lin.hop_distances().is_empty());
    }

    #[test]
    fn from_parts_validates_forward_edges() {
        use crate::Base::*;
        assert!(LinearizedGraph::from_parts(vec![A, C], vec![vec![1], vec![]], 0).is_ok());
        assert!(LinearizedGraph::from_parts(vec![A, C], vec![vec![0], vec![]], 0).is_err());
        assert!(LinearizedGraph::from_parts(vec![A, C], vec![vec![2], vec![]], 0).is_err());
    }

    #[test]
    fn from_parts_sorts_lists_and_rejects_duplicates() {
        use crate::Base::*;
        let bases = vec![A, C, G, T];
        let sorted = vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![]];
        let shuffled = vec![vec![3, 1, 2], vec![3, 2], vec![3], vec![]];
        let a = LinearizedGraph::from_parts(bases.clone(), sorted, 0).unwrap();
        let b = LinearizedGraph::from_parts(bases.clone(), shuffled, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.successors(0), &[1, 2, 3]);
        assert_eq!(
            LinearizedGraph::from_parts(bases, vec![vec![2, 1, 2], vec![], vec![], vec![]], 0),
            Err(GraphError::DuplicateEdge { from: 0, to: 2 })
        );
    }

    #[test]
    fn reachable_window_follows_hops() {
        // A deletion bubble: chars of the deleted segment sit inline, but a
        // path-reachable window from before the bubble must include the
        // landing site beyond it.
        let g = build_graph(
            &"AACCCCCCTT".parse().unwrap(),
            [Variant::deletion(2, 6)].into_iter().collect(),
        )
        .unwrap()
        .graph;
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        // From char 1 ('A' before the bubble) with 3 path steps: reaches
        // C (idx 2..), and T T (idx 8, 9) via the skip edge.
        let (w, map) = lin.reachable_window(1, 3);
        assert!(map.contains(&8), "landing site must be reachable: {map:?}");
        assert_eq!(map[0], 1);
        // Local successor structure is consistent with the parent.
        for (local, &parent) in map.iter().enumerate() {
            for &ls in w.successors(local) {
                let parent_succ = map[ls as usize];
                assert!(lin.successors(parent as usize).contains(&parent_succ));
            }
        }
        // Bases survive the remap.
        for (local, &parent) in map.iter().enumerate() {
            assert_eq!(w.base(local), lin.base(parent as usize));
        }
    }

    #[test]
    fn reachable_window_on_linear_text_is_a_slice() {
        let lin = LinearizedGraph::from_linear_seq(&"ACGTACGT".parse().unwrap());
        let (w, map) = lin.reachable_window(2, 3);
        assert_eq!(map, vec![2, 3, 4, 5]);
        assert_eq!(w.len(), 4);
        assert_eq!(w.successors(0), &[1]);
    }

    #[test]
    fn window_of_linearization() {
        let g = snp_graph();
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        let w = lin.window(2, 6);
        let direct = LinearizedGraph::extract(&g, 2, 6).unwrap();
        assert_eq!(w.bases(), direct.bases());
        assert_eq!(
            (0..w.len())
                .map(|i| w.successors(i).to_vec())
                .collect::<Vec<_>>(),
            (0..direct.len())
                .map(|i| direct.successors(i).to_vec())
                .collect::<Vec<_>>()
        );
    }

    /// Checks that `reordered` is a char-level permutation of `lin` with
    /// exactly the same edge set (as origin pairs) and valid topology.
    fn assert_equivalent(lin: &LinearizedGraph, reordered: &LinearizedGraph) {
        assert_eq!(lin.len(), reordered.len());
        let edge_set = |l: &LinearizedGraph| {
            let mut edges: Vec<(GraphPos, GraphPos)> = (0..l.len())
                .flat_map(|i| {
                    l.successors(i)
                        .iter()
                        .map(|&s| (l.origin(i), l.origin(s as usize)))
                        .collect::<Vec<_>>()
                })
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(edge_set(lin), edge_set(reordered));
        let mut chars: Vec<(GraphPos, Base)> = (0..lin.len())
            .map(|i| (lin.origin(i), lin.base(i)))
            .collect();
        let mut chars2: Vec<(GraphPos, Base)> = (0..reordered.len())
            .map(|i| (reordered.origin(i), reordered.base(i)))
            .collect();
        chars.sort();
        chars2.sort();
        assert_eq!(chars, chars2);
        for i in 0..reordered.len() {
            assert!(reordered.successors(i).iter().all(|&s| s as usize > i));
        }
    }

    #[test]
    fn reorder_preserves_structure_on_variant_graph() {
        let reference: crate::DnaSeq = "ACGTACGTACGTACGTACGTACGTACGTACGT".parse().unwrap();
        let mut set = VariantSet::new();
        set.push(Variant::snp(3, crate::Base::G));
        set.push(Variant::insertion(10, "TTTT".parse().unwrap()));
        set.push(Variant::deletion(20, 3));
        let g = build_graph(&reference, set.into_sorted()).unwrap().graph;
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        let reordered = lin.reordered_for_hops();
        assert_equivalent(&lin, &reordered);
    }

    #[test]
    fn reorder_shrinks_hops_on_parallel_branches() {
        // One source fanning out to three parallel alleles of lengths
        // 6, 1, 6, converging on a tail. In source order the short allele
        // sits between the long ones, stretching the source->branch hops;
        // the greedy order places each branch as soon as its edge ages.
        //   chars: S | AAAAAA | C | GGGGGG | T(tail)
        let bases: Vec<Base> = "AAAAAAACGGGGGGT"
            .parse::<crate::DnaSeq>()
            .unwrap()
            .into_bases();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); bases.len()];
        succ[0] = vec![1, 7, 8]; // S -> three branch starts
        for (i, s) in succ.iter_mut().enumerate().take(6).skip(1) {
            *s = vec![i as u32 + 1];
        }
        succ[6] = vec![14]; // branch 1 -> tail
        succ[7] = vec![14]; // branch 2 -> tail
        for (i, s) in succ.iter_mut().enumerate().take(13).skip(8) {
            *s = vec![i as u32 + 1];
        }
        succ[13] = vec![14]; // branch 3 -> tail
        let lin = LinearizedGraph::from_parts(bases, succ, 0).unwrap();
        let reordered = lin.reordered_for_hops();
        assert_equivalent(&lin, &reordered);
        assert!(
            reordered.max_hop_distance() <= lin.max_hop_distance(),
            "reorder should not stretch the worst hop: {} vs {}",
            reordered.max_hop_distance(),
            lin.max_hop_distance()
        );
        assert!(reordered.hop_coverage_at(7) >= lin.hop_coverage_at(7));
    }

    #[test]
    fn reorder_is_identity_on_linear_text() {
        let lin = LinearizedGraph::from_linear_seq(&"ACGTACGTACGT".parse().unwrap());
        let reordered = lin.reordered_for_hops();
        assert_eq!(lin, reordered);
    }

    #[test]
    fn hop_metrics_on_snp_graph() {
        let g = snp_graph();
        let lin = LinearizedGraph::extract(&g, 0, g.total_chars()).unwrap();
        assert_eq!(lin.max_hop_distance(), 2);
        assert_eq!(lin.hop_coverage_at(1), 0.0);
        assert_eq!(lin.hop_coverage_at(2), 1.0);
    }
}
