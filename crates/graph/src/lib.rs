//! # segram-graph
//!
//! Genome-graph substrate for the SeGraM reproduction (Senol Cali et al.,
//! *SeGraM: A Universal Hardware Accelerator for Genomic Sequence-to-Graph
//! and Sequence-to-Sequence Mapping*, ISCA 2022).
//!
//! A genome graph combines a linear reference genome with the known genetic
//! variations of a population: nodes carry one or more base pairs, and
//! multiple outgoing edges capture variation (Figure 1 of the paper). This
//! crate provides:
//!
//! * the 2-bit DNA alphabet ([`Base`]) and sequences ([`DnaSeq`],
//!   [`PackedSeq`]);
//! * the graph itself ([`GenomeGraph`], [`GraphBuilder`]) in the paper's
//!   flat memory layout (Figure 5: a character table and edge tables,
//!   [`GenomeGraph::footprint`] for the byte accounting) with topological
//!   sorting (the paper's `vg ids -s` step);
//! * graph construction from a linear reference plus variants
//!   ([`build_graph`], the paper's `vg construct` step);
//! * subgraph extraction and linearization for alignment
//!   ([`LinearizedGraph`], Figure 12), including hop statistics
//!   ([`hop_coverage`], Figure 13);
//! * a minimal GFA v1 reader/writer ([`gfa`]).
//!
//! ## Example
//!
//! ```
//! use segram_graph::{build_graph, Base, LinearizedGraph, Variant};
//!
//! // A reference with one SNP becomes a bubble graph...
//! let built = build_graph(
//!     &"ACGTACGT".parse()?,
//!     [Variant::snp(3, Base::G)].into_iter().collect(),
//! )?;
//! assert!(built.graph.is_topologically_sorted());
//!
//! // ...which linearizes into the character-level form BitAlign consumes.
//! let lin = LinearizedGraph::extract(&built.graph, 0, built.graph.total_chars())?;
//! assert_eq!(lin.hop_distances(), vec![2, 2]);
//! # Ok::<(), segram_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod base;
mod construct;
mod error;
pub mod gfa;
mod graph;
mod ops;
mod region;
mod seq;
mod variants;

pub use base::{Base, ALPHABET_SIZE, BASES};
pub use construct::{build_graph, ConstructedGraph};
pub use error::GraphError;
pub use graph::{
    linear_graph, GenomeGraph, GraphBuilder, GraphFootprint, GraphPos, GraphStats, NodeId,
    EDGE_ENTRY_BYTES, NODE_ENTRY_BYTES,
};
pub use ops::{
    apply_variants, diff_graphs, extend_graph, graphs_identical, merge_ranges, ranges_intersect,
    ChangeLog, DeltaBuild, GraphOp,
};
pub use region::{hop_coverage, LinearizedGraph};
pub use seq::{pack_bases, DnaSeq, PackedSeq};
pub use variants::{Variant, VariantKind, VariantSet};
