//! The genome graph: a directed acyclic sequence graph in which every node
//! carries one or more base pairs and multiple outgoing edges capture genetic
//! variation (Figure 1 of the paper).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::{Base, DnaSeq, GraphError};

/// Identifier of a node in a [`GenomeGraph`].
///
/// Node ids are dense (`0..node_count`) and, after
/// [`GenomeGraph::topological_sort`], respect topological order: every edge
/// points from a smaller id to a larger id.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(id: u32) -> Self {
        NodeId(id)
    }
}

/// A position inside a genome graph: a node plus a character offset within
/// that node's sequence.
///
/// This is exactly the third-level entry of the paper's hash-table index
/// (Figure 6: "node ID, offset").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphPos {
    /// Node containing the character.
    pub node: NodeId,
    /// 0-based offset of the character within the node's sequence.
    pub offset: u32,
}

impl GraphPos {
    /// Creates a graph position.
    pub fn new(node: NodeId, offset: u32) -> Self {
        Self { node, offset }
    }
}

impl fmt::Display for GraphPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.offset)
    }
}

/// Summary statistics of a genome graph, mirroring the numbers the paper
/// reports for its 24 chromosome graphs (Section 10: "20.4 M nodes, 27.9 M
/// edges, 3.1 B sequence characters").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of directed edges.
    pub edge_count: usize,
    /// Total number of sequence characters across all nodes.
    pub total_chars: u64,
}

/// Bytes per node-table entry (Figure 5: "each entry in the node table
/// requires 32 B").
pub const NODE_ENTRY_BYTES: u64 = 32;

/// Bytes per edge-table entry (Figure 5: "each entry in the edge table
/// requires 4 B").
pub const EDGE_ENTRY_BYTES: u64 = 4;

/// Byte footprint of a graph in the accelerator's main-memory layout, per
/// the paper's formulas (Figure 5: `#nodes * 32 B`, `total sequence length
/// * 2 bits`, `#edges * 4 B`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphFootprint {
    /// Bytes of the node table.
    pub node_table_bytes: u64,
    /// Bytes of the character table.
    pub char_table_bytes: u64,
    /// Bytes of the edge table.
    pub edge_table_bytes: u64,
}

impl GraphFootprint {
    /// Total bytes across the three tables.
    pub fn total_bytes(&self) -> u64 {
        self.node_table_bytes + self.char_table_bytes + self.edge_table_bytes
    }
}

/// A directed acyclic genome graph, held as the paper's flat tables
/// (Figure 5): one character table with every node's bases in id order,
/// each node's start in it, and the edges as compressed sparse rows —
/// out-edges and, derived from them, in-edges.
///
/// Built through [`GraphBuilder`] or
/// [`build_graph`](crate::construct::build_graph); most pipeline stages
/// require the graph to be topologically sorted (the paper sorts with
/// `vg ids -s` during pre-processing, Section 5).
///
/// # Examples
///
/// ```
/// use segram_graph::{DnaSeq, GraphBuilder};
///
/// // The Figure 1 graph: ACG -> {T, G, TT, ε} -> ACGT
/// let mut b = GraphBuilder::new();
/// let acg = b.add_node("ACG".parse()?)?;
/// let t = b.add_node("T".parse()?)?;
/// let g = b.add_node("G".parse()?)?;
/// let tt = b.add_node("TT".parse()?)?;
/// let acgt = b.add_node("ACGT".parse()?)?;
/// for alt in [t, g, tt] {
///     b.add_edge(acg, alt)?;
///     b.add_edge(alt, acgt)?;
/// }
/// b.add_edge(acg, acgt)?; // deletion path
/// let graph = b.finish()?;
/// assert_eq!(graph.stats().node_count, 5);
/// assert!(graph.is_topologically_sorted());
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenomeGraph {
    /// The character table, one byte per base.
    chars: Vec<Base>,
    /// `char_starts[i]` is node `i`'s first character in `chars` — its
    /// linear coordinate — and the last of the `node_count + 1` entries is
    /// `chars.len()`.
    char_starts: Vec<u64>,
    /// Node `i`'s successors are `out_targets[out_starts[i]..out_starts[i + 1]]`,
    /// ascending.
    out_starts: Vec<u32>,
    out_targets: Vec<NodeId>,
    /// Node `i`'s predecessors are `in_sources[in_starts[i]..in_starts[i + 1]]`,
    /// ascending.
    in_starts: Vec<u32>,
    in_sources: Vec<NodeId>,
}

impl Default for GenomeGraph {
    fn default() -> Self {
        Self {
            chars: Vec::new(),
            char_starts: vec![0],
            out_starts: vec![0],
            out_targets: Vec::new(),
            in_starts: vec![0],
            in_sources: Vec::new(),
        }
    }
}

impl GenomeGraph {
    /// Assembles a graph from its tables: the character table, each node's
    /// start in it, and the out-edge table in source order — node `i`'s
    /// successors are `out_targets[out_starts[i]..out_starts[i + 1]]`, in
    /// any order. The successor runs are sorted and the in-edge table is
    /// derived here.
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyNode`] when a node's start is not below the
    /// next one's;
    /// [`GraphError::NodeOutOfBounds`], [`GraphError::SelfLoop`] or
    /// [`GraphError::DuplicateEdge`] for a bad edge; and
    /// [`GraphError::CyclicGraph`] when the edges form a cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `char_starts` runs from 0 to `chars.len()` and
    /// `out_starts` holds one entry per node plus one, running from 0 to
    /// `out_targets.len()` without descending.
    pub fn from_tables(
        chars: Vec<Base>,
        char_starts: Vec<u64>,
        out_starts: Vec<u32>,
        mut out_targets: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let n = char_starts.len() - 1;
        assert!(
            char_starts[0] == 0 && char_starts[n] == chars.len() as u64,
            "node starts must span the character table"
        );
        assert!(
            out_starts.len() == n + 1
                && out_starts[0] == 0
                && out_starts[n] as usize == out_targets.len()
                && out_starts.windows(2).all(|w| w[0] <= w[1]),
            "edge starts must span the edge table"
        );
        if char_starts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(GraphError::EmptyNode);
        }
        let mut sorted = true;
        for from in 0..n {
            let run = &mut out_targets[out_starts[from] as usize..out_starts[from + 1] as usize];
            run.sort_unstable();
            for (i, &to) in run.iter().enumerate() {
                if to.index() >= n {
                    return Err(GraphError::NodeOutOfBounds {
                        node: to.0,
                        node_count: n,
                    });
                }
                if to.index() == from {
                    return Err(GraphError::SelfLoop { node: to.0 });
                }
                if i > 0 && run[i - 1] == to {
                    return Err(GraphError::DuplicateEdge {
                        from: from as u32,
                        to: to.0,
                    });
                }
                sorted &= to.index() > from;
            }
        }
        // In-edges by counting: walking the sources in order leaves every
        // predecessor run ascending.
        let mut in_starts = vec![0u32; n + 1];
        for &to in &out_targets {
            in_starts[to.index() + 1] += 1;
        }
        for i in 1..=n {
            in_starts[i] += in_starts[i - 1];
        }
        let mut in_sources = vec![NodeId(0); out_targets.len()];
        for from in 0..n {
            for &to in &out_targets[out_starts[from] as usize..out_starts[from + 1] as usize] {
                let slot = &mut in_starts[to.index()];
                in_sources[*slot as usize] = NodeId(from as u32);
                *slot += 1;
            }
        }
        // Each cursor now sits at the next node's start: shift them back.
        in_starts.copy_within(0..n, 1);
        in_starts[0] = 0;
        let graph = Self {
            chars,
            char_starts,
            out_starts,
            out_targets,
            in_starts,
            in_sources,
        };
        // A graph whose edges all point to larger ids is acyclic; any
        // other is checked by Kahn's algorithm.
        if !sorted && graph.kahn_order().len() != n {
            return Err(GraphError::CyclicGraph);
        }
        Ok(graph)
    }

    /// Node ids in Kahn order, smallest ready id first; shorter than the
    /// node count when the graph has a cycle.
    fn kahn_order(&self) -> Vec<NodeId> {
        let mut in_deg: Vec<usize> = self
            .node_ids()
            .map(|v| self.predecessors(v).len())
            .collect();
        let mut ready: BinaryHeap<Reverse<NodeId>> = self
            .node_ids()
            .filter(|v| in_deg[v.index()] == 0)
            .map(Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.node_count());
        while let Some(Reverse(v)) = ready.pop() {
            order.push(v);
            for &u in self.successors(v) {
                in_deg[u.index()] -= 1;
                if in_deg[u.index()] == 0 {
                    ready.push(Reverse(u));
                }
            }
        }
        order
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.char_starts.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Total number of characters stored across all node sequences.
    pub fn total_chars(&self) -> u64 {
        self.chars.len() as u64
    }

    /// Summary statistics.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            node_count: self.node_count(),
            edge_count: self.edge_count(),
            total_chars: self.total_chars(),
        }
    }

    /// Byte footprint of the graph in the paper's main-memory layout
    /// (Figure 5), whose character table packs 2 bits per base; this
    /// in-memory table holds a byte per base.
    ///
    /// # Examples
    ///
    /// ```
    /// use segram_graph::{build_graph, Base, Variant};
    ///
    /// let built = build_graph(
    ///     &"ACGTACGT".parse()?,
    ///     [Variant::snp(3, Base::G)].into_iter().collect(),
    /// )?;
    /// assert_eq!(built.graph.node_count(), 4);
    /// // 4 nodes * 32 B + ceil(9 chars / 4) B + 4 edges * 4 B
    /// assert_eq!(built.graph.footprint().total_bytes(), 4 * 32 + 3 + 4 * 4);
    /// # Ok::<(), segram_graph::GraphError>(())
    /// ```
    pub fn footprint(&self) -> GraphFootprint {
        GraphFootprint {
            node_table_bytes: self.node_count() as u64 * NODE_ENTRY_BYTES,
            char_table_bytes: self.total_chars().div_ceil(4),
            edge_table_bytes: self.edge_count() as u64 * EDGE_ENTRY_BYTES,
        }
    }

    /// Sequence of a node: its run of the character table.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of bounds.
    pub fn seq(&self, node: NodeId) -> &[Base] {
        let i = node.index();
        &self.chars[self.char_starts[i] as usize..self.char_starts[i + 1] as usize]
    }

    /// Length (in characters) of a node's sequence.
    pub fn node_len(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.char_starts[i + 1] - self.char_starts[i]) as usize
    }

    /// Outgoing edges of a node, sorted by destination id.
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.out_targets[self.out_starts[i] as usize..self.out_starts[i + 1] as usize]
    }

    /// Incoming edges of a node, sorted by source id.
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.in_sources[self.in_starts[i] as usize..self.in_starts[i + 1] as usize]
    }

    /// Iterates over all node ids in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |from| self.successors(from).iter().map(move |&to| (from, to)))
    }

    /// Returns `true` when every edge points from a smaller id to a larger
    /// id, i.e. node ids form a topological order.
    pub fn is_topologically_sorted(&self) -> bool {
        self.edges().all(|(a, b)| a < b)
    }

    /// Returns a relabelled copy of the graph whose node ids are in
    /// topological order, together with the mapping `old id -> new id`.
    ///
    /// This mirrors the paper's `vg ids -s` pre-processing step (Section 5).
    /// The sort is Kahn's algorithm with a smallest-id-first tie-break so the
    /// result is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] when the graph has a cycle.
    pub fn topological_sort(&self) -> Result<(GenomeGraph, Vec<NodeId>), GraphError> {
        let order = self.kahn_order();
        if order.len() != self.node_count() {
            return Err(GraphError::CyclicGraph);
        }
        // old -> new mapping
        let mut mapping = vec![NodeId(0); order.len()];
        for (new, &old) in order.iter().enumerate() {
            mapping[old.index()] = NodeId(new as u32);
        }
        let mut builder = GraphBuilder::new();
        for &old in &order {
            builder.push_node(self.seq(old));
        }
        for (from, to) in self.edges() {
            builder.add_edge(mapping[from.index()], mapping[to.index()])?;
        }
        Ok((builder.finish()?, mapping))
    }

    /// Linear coordinate of a node's first character.
    ///
    /// Linear coordinates index the concatenation of all node sequences in
    /// id order — the character table itself; they are the coordinate
    /// system in which MinSeed computes candidate regions (Figure 9).
    pub fn char_start(&self, node: NodeId) -> u64 {
        self.char_starts[node.index()]
    }

    /// Converts a graph position to its linear coordinate.
    ///
    /// # Errors
    ///
    /// Returns an error when the node or the offset is out of bounds.
    pub fn linear_pos(&self, pos: GraphPos) -> Result<u64, GraphError> {
        let node_len = self.checked_node_len(pos.node)?;
        if pos.offset as usize >= node_len {
            return Err(GraphError::OffsetOutOfBounds {
                node: pos.node.0,
                offset: pos.offset,
                node_len,
            });
        }
        Ok(self.char_start(pos.node) + pos.offset as u64)
    }

    fn checked_node_len(&self, node: NodeId) -> Result<usize, GraphError> {
        if node.index() >= self.node_count() {
            return Err(GraphError::NodeOutOfBounds {
                node: node.0,
                node_count: self.node_count(),
            });
        }
        Ok(self.node_len(node))
    }

    /// Converts a linear coordinate back to a graph position.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::LinearPosOutOfBounds`] when `pos` is at or past
    /// [`total_chars`](Self::total_chars).
    pub fn graph_pos(&self, pos: u64) -> Result<GraphPos, GraphError> {
        if pos >= self.total_chars() {
            return Err(GraphError::LinearPosOutOfBounds {
                pos,
                total: self.total_chars(),
            });
        }
        // The last node whose start is <= pos.
        let idx = self.char_starts.partition_point(|&start| start <= pos) - 1;
        Ok(GraphPos::new(
            NodeId(idx as u32),
            (pos - self.char_starts[idx]) as u32,
        ))
    }

    /// Returns the base at a graph position.
    ///
    /// # Errors
    ///
    /// Returns an error when the position is out of bounds.
    pub fn base_at(&self, pos: GraphPos) -> Result<Base, GraphError> {
        let linear = self.linear_pos(pos)?;
        Ok(self.chars[linear as usize])
    }

    /// Walks a path of node ids and concatenates their sequences.
    ///
    /// # Errors
    ///
    /// Returns an error when consecutive nodes are not connected by an edge
    /// or a node id is out of bounds.
    pub fn path_seq(&self, path: &[NodeId]) -> Result<DnaSeq, GraphError> {
        let mut seq = DnaSeq::new();
        for (i, &node) in path.iter().enumerate() {
            self.checked_node_len(node)?;
            if i > 0 {
                let prev = path[i - 1];
                if !self.successors(prev).contains(&node) {
                    return Err(GraphError::DuplicateEdge {
                        from: prev.0,
                        to: node.0,
                    });
                }
            }
            seq.extend(self.seq(node).iter().copied());
        }
        Ok(seq)
    }

    /// Performs a breadth-first search from `start` and returns all nodes
    /// reachable within `max_nodes` expansions (including `start`).
    pub fn reachable_from(&self, start: NodeId, max_nodes: usize) -> Vec<NodeId> {
        let mut seen = vec![false; self.node_count()];
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        seen[start.index()] = true;
        while let Some(v) = queue.pop_front() {
            out.push(v);
            if out.len() >= max_nodes {
                break;
            }
            for &u in self.successors(v) {
                if !seen[u.index()] {
                    seen[u.index()] = true;
                    queue.push_back(u);
                }
            }
        }
        out
    }
}

/// Incremental builder for [`GenomeGraph`] (see [`GenomeGraph`] docs for an
/// example): node sequences are appended to the character table as they
/// arrive, edges are collected per node and laid out as rows at
/// [`Self::finish`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    chars: Vec<Base>,
    char_starts: Vec<u64>,
    /// Each node's successors, in the order they were added.
    successors: Vec<Vec<NodeId>>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.char_starts.len()
    }

    /// Adds a node carrying `seq` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyNode`] when `seq` is empty: the paper's
    /// node table stores at least one character per node.
    pub fn add_node(&mut self, seq: DnaSeq) -> Result<NodeId, GraphError> {
        if seq.is_empty() {
            return Err(GraphError::EmptyNode);
        }
        Ok(self.push_node(seq.as_slice()))
    }

    /// Room for `nodes` more nodes of `chars` characters in all.
    pub(crate) fn reserve(&mut self, nodes: usize, chars: usize) {
        self.chars.reserve_exact(chars);
        self.char_starts.reserve_exact(nodes);
        self.successors.reserve_exact(nodes);
    }

    /// Appends a non-empty node sequence to the character table.
    pub(crate) fn push_node(&mut self, seq: &[Base]) -> NodeId {
        let id = NodeId(self.char_starts.len() as u32);
        self.char_starts.push(self.chars.len() as u64);
        self.chars.extend_from_slice(seq);
        self.successors.push(Vec::new());
        id
    }

    /// Adds a directed edge `from -> to`.
    ///
    /// # Errors
    ///
    /// Returns an error when either endpoint is unknown, when the edge is a
    /// self loop, or when the edge already exists.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        let n = self.node_count();
        for node in [from, to] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfBounds {
                    node: node.0,
                    node_count: n,
                });
            }
        }
        if from == to {
            return Err(GraphError::SelfLoop { node: from.0 });
        }
        if self.has_edge(from, to) {
            return Err(GraphError::DuplicateEdge {
                from: from.0,
                to: to.0,
            });
        }
        self.successors[from.index()].push(to);
        Ok(())
    }

    /// Returns `true` if the edge already exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.successors
            .get(from.index())
            .is_some_and(|next| next.contains(&to))
    }

    /// Finalizes the graph: lays the edges out as sorted rows
    /// ([`GenomeGraph::from_tables`]) and derives the in-edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicGraph`] when the edges form a cycle.
    pub fn finish(mut self) -> Result<GenomeGraph, GraphError> {
        let mut out_starts = Vec::with_capacity(self.successors.len() + 1);
        out_starts.push(0);
        let mut out_targets = Vec::new();
        for next in &self.successors {
            out_targets.extend_from_slice(next);
            out_starts.push(out_targets.len() as u32);
        }
        self.char_starts.push(self.chars.len() as u64);
        GenomeGraph::from_tables(self.chars, self.char_starts, out_starts, out_targets)
    }
}

/// Builds a graph with a single linear chain of nodes from a sequence —
/// the degenerate "linear reference" case that makes SeGraM a
/// sequence-to-sequence mapper (Section 9: "a graph where each node has an
/// outgoing edge to exactly one other node").
///
/// The sequence is split into nodes of at most `node_len` characters.
///
/// # Errors
///
/// Returns [`GraphError::EmptyNode`] when `seq` is empty or `node_len` is 0.
///
/// # Examples
///
/// ```
/// use segram_graph::linear_graph;
///
/// let graph = linear_graph(&"ACGTACGT".parse()?, 3)?;
/// assert_eq!(graph.node_count(), 3); // ACG, TAC, GT
/// assert!(graph.is_topologically_sorted());
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
pub fn linear_graph(seq: &DnaSeq, node_len: usize) -> Result<GenomeGraph, GraphError> {
    if seq.is_empty() || node_len == 0 {
        return Err(GraphError::EmptyNode);
    }
    let mut builder = GraphBuilder::new();
    let mut prev: Option<NodeId> = None;
    let mut start = 0;
    while start < seq.len() {
        let end = (start + node_len).min(seq.len());
        let id = builder.push_node(&seq.as_slice()[start..end]);
        if let Some(p) = prev {
            builder.add_edge(p, id)?;
        }
        prev = Some(id);
        start = end;
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_graph() -> GenomeGraph {
        // Figure 1: linear sequence ACGTACGT with variations producing
        // sequences ACGTACGT / ACGGACGT / ACGTTACGT / ACGACGT.
        let mut b = GraphBuilder::new();
        let acg = b.add_node("ACG".parse().unwrap()).unwrap();
        let t = b.add_node("T".parse().unwrap()).unwrap();
        let g = b.add_node("G".parse().unwrap()).unwrap();
        let tt = b.add_node("TT".parse().unwrap()).unwrap();
        let acgt = b.add_node("ACGT".parse().unwrap()).unwrap();
        for alt in [t, g, tt] {
            b.add_edge(acg, alt).unwrap();
            b.add_edge(alt, acgt).unwrap();
        }
        b.add_edge(acg, acgt).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn figure1_stats() {
        let g = figure1_graph();
        assert_eq!(g.stats().node_count, 5);
        assert_eq!(g.stats().edge_count, 7);
        assert_eq!(g.stats().total_chars, 3 + 1 + 1 + 2 + 4);
        assert!(g.is_topologically_sorted());
    }

    #[test]
    fn figure1_represents_all_four_sequences() {
        let g = figure1_graph();
        let paths: [(&str, Vec<NodeId>); 4] = [
            ("ACGTACGT", vec![NodeId(0), NodeId(1), NodeId(4)]),
            ("ACGGACGT", vec![NodeId(0), NodeId(2), NodeId(4)]),
            ("ACGTTACGT", vec![NodeId(0), NodeId(3), NodeId(4)]),
            ("ACGACGT", vec![NodeId(0), NodeId(4)]),
        ];
        for (expect, path) in paths {
            assert_eq!(g.path_seq(&path).unwrap().to_string(), expect);
        }
    }

    #[test]
    fn path_seq_rejects_disconnected_hops() {
        let g = figure1_graph();
        assert!(g.path_seq(&[NodeId(1), NodeId(2)]).is_err());
    }

    #[test]
    fn linear_coordinates_round_trip() {
        let g = figure1_graph();
        for node in g.node_ids() {
            for offset in 0..g.node_len(node) as u32 {
                let pos = GraphPos::new(node, offset);
                let linear = g.linear_pos(pos).unwrap();
                assert_eq!(g.graph_pos(linear).unwrap(), pos);
            }
        }
        assert!(g.graph_pos(g.total_chars()).is_err());
        assert!(g
            .linear_pos(GraphPos::new(NodeId(0), 3))
            .is_err_and(|e| matches!(e, GraphError::OffsetOutOfBounds { .. })));
    }

    #[test]
    fn base_at_reads_node_sequences() {
        let g = figure1_graph();
        assert_eq!(g.base_at(GraphPos::new(NodeId(0), 2)).unwrap(), Base::G);
        assert_eq!(g.base_at(GraphPos::new(NodeId(4), 0)).unwrap(), Base::A);
        assert!(g.base_at(GraphPos::new(NodeId(9), 0)).is_err());
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A".parse().unwrap()).unwrap();
        let c = b.add_node("C".parse().unwrap()).unwrap();
        assert!(b.add_edge(a, a).is_err());
        b.add_edge(a, c).unwrap();
        assert!(matches!(
            b.add_edge(a, c),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(b.add_edge(a, NodeId(7)).is_err());
        assert!(b.add_node(DnaSeq::new()).is_err());
    }

    #[test]
    fn cycle_is_detected_at_finish() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("A".parse().unwrap()).unwrap();
        let c = b.add_node("C".parse().unwrap()).unwrap();
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert_eq!(b.finish().unwrap_err(), GraphError::CyclicGraph);
    }

    #[test]
    fn topological_sort_relabels_reverse_graph() {
        // Build a graph with ids deliberately in reverse topological order.
        let mut b = GraphBuilder::new();
        let last = b.add_node("T".parse().unwrap()).unwrap();
        let mid = b.add_node("G".parse().unwrap()).unwrap();
        let first = b.add_node("A".parse().unwrap()).unwrap();
        b.add_edge(first, mid).unwrap();
        b.add_edge(mid, last).unwrap();
        let g = b.finish().unwrap();
        assert!(!g.is_topologically_sorted());
        let (sorted, mapping) = g.topological_sort().unwrap();
        assert!(sorted.is_topologically_sorted());
        assert_eq!(mapping[first.index()], NodeId(0));
        assert_eq!(mapping[mid.index()], NodeId(1));
        assert_eq!(mapping[last.index()], NodeId(2));
        assert_eq!(
            DnaSeq::from(sorted.seq(NodeId(0)).to_vec()).to_string(),
            "A"
        );
        assert_eq!(
            DnaSeq::from(sorted.seq(NodeId(2)).to_vec()).to_string(),
            "T"
        );
    }

    #[test]
    fn linear_graph_chains_nodes() {
        let g = linear_graph(&"ACGTACGTAC".parse().unwrap(), 4).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(DnaSeq::from(g.seq(NodeId(2)).to_vec()).to_string(), "AC");
        // Every node except the last has exactly one successor.
        for node in g.node_ids() {
            let expected = usize::from(node.index() + 1 < g.node_count());
            assert_eq!(g.successors(node).len(), expected);
        }
    }

    #[test]
    fn reachable_from_respects_cap() {
        let g = figure1_graph();
        let all = g.reachable_from(NodeId(0), 100);
        assert_eq!(all.len(), 5);
        let capped = g.reachable_from(NodeId(0), 2);
        assert_eq!(capped.len(), 2);
    }
    #[test]
    fn tables_hold_every_node_and_edge() {
        let g = figure1_graph();
        // The character table is the node sequences in id order, so a
        // node's run starts at its linear coordinate.
        let text: DnaSeq = "ACGTGTTACGT".parse().unwrap();
        assert_eq!(g.chars, text.as_slice());
        assert_eq!(g.char_starts, [0, 3, 4, 5, 7, 11]);
        for node in g.node_ids() {
            let start = g.char_start(node) as usize;
            assert_eq!(
                g.seq(node),
                &text.as_slice()[start..start + g.node_len(node)]
            );
        }
        // Out-edge rows in source order; the in-edge rows are their
        // transpose.
        assert_eq!(g.out_starts, [0, 4, 5, 6, 7, 7]);
        let ids = |ids: &[u32]| ids.iter().copied().map(NodeId).collect::<Vec<_>>();
        assert_eq!(g.out_targets, ids(&[1, 2, 3, 4, 4, 4, 4]));
        assert_eq!(g.in_starts, [0, 0, 1, 2, 3, 7]);
        assert_eq!(g.in_sources, ids(&[0, 0, 0, 0, 1, 2, 3]));
        for (from, to) in g.edges() {
            assert!(g.predecessors(to).contains(&from));
        }
    }

    #[test]
    fn from_tables_rejects_what_the_builder_rejects() {
        let tables = |targets: &[u32]| {
            let chars: DnaSeq = "ACG".parse().unwrap();
            let out_starts = vec![
                0,
                targets.len() as u32,
                targets.len() as u32,
                targets.len() as u32,
            ];
            let targets = targets.iter().copied().map(NodeId).collect();
            GenomeGraph::from_tables(chars.into_bases(), vec![0, 1, 2, 3], out_starts, targets)
        };
        // Node 0's row may arrive in any order.
        let g = tables(&[2, 1]).unwrap();
        assert_eq!(g.successors(NodeId(0)), [NodeId(1), NodeId(2)]);
        assert_eq!(g.predecessors(NodeId(2)), [NodeId(0)]);
        assert!(matches!(
            tables(&[3]),
            Err(GraphError::NodeOutOfBounds { node: 3, .. })
        ));
        assert_eq!(tables(&[0]).unwrap_err(), GraphError::SelfLoop { node: 0 });
        assert_eq!(
            tables(&[1, 1]).unwrap_err(),
            GraphError::DuplicateEdge { from: 0, to: 1 }
        );
        let empty = GenomeGraph::from_tables(vec![Base::A], vec![0, 0, 1], vec![0, 0, 0], vec![]);
        assert_eq!(empty.unwrap_err(), GraphError::EmptyNode);
        // Edges 1 -> 0 and 0 -> 1: a cycle.
        let cyclic = GenomeGraph::from_tables(
            vec![Base::A, Base::C],
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![NodeId(1), NodeId(0)],
        );
        assert_eq!(cyclic.unwrap_err(), GraphError::CyclicGraph);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let g = figure1_graph();
        assert!(matches!(
            g.linear_pos(GraphPos::new(NodeId(99), 0)),
            Err(GraphError::NodeOutOfBounds { node: 99, .. })
        ));
        assert!(g.path_seq(&[NodeId(0), NodeId(99)]).is_err());
    }

    #[test]
    fn footprint_formulas_match_paper() {
        let g = figure1_graph();
        let fp = g.footprint();
        assert_eq!(fp.node_table_bytes, g.node_count() as u64 * 32);
        assert_eq!(fp.char_table_bytes, g.total_chars().div_ceil(4));
        assert_eq!(fp.edge_table_bytes, g.edge_count() as u64 * 4);
    }

    #[test]
    fn human_scale_footprint_extrapolation() {
        // The paper: 20.4 M nodes, 27.9 M edges, 3.1 B chars -> 1.4 GB.
        let bytes = 20_400_000u64 * NODE_ENTRY_BYTES
            + 3_100_000_000u64 / 4
            + 27_900_000u64 * EDGE_ENTRY_BYTES;
        let gib = bytes as f64 / (1 << 30) as f64;
        assert!((1.2..1.6).contains(&gib), "got {gib} GiB");
    }
}
