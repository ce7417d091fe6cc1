//! # segram-index
//!
//! MinSeed: the minimizer-based seeding front-end of the SeGraM
//! reproduction (ISCA 2022, Sections 5–6):
//!
//! * `<w,k>`-minimizer extraction in `O(m)` ([`extract_minimizers`],
//!   Figure 8);
//! * the three-level hash-table index over graph nodes ([`GraphIndex`],
//!   Figure 6) with the paper's exact byte accounting ([`IndexFootprint`],
//!   Figure 7);
//! * the seeding step itself ([`MinSeed`]): frequency filtering (top
//!   0.02 % rule) and candidate-region arithmetic (Figure 9).
//!
//! ## Example
//!
//! ```
//! use segram_index::{GraphIndex, MinSeed, MinSeedConfig, MinimizerScheme};
//! use segram_graph::linear_graph;
//!
//! let text: segram_graph::DnaSeq = "ACGTTGCAGTCATGCAACGGTTAC".repeat(30).parse()?;
//! let graph = linear_graph(&text, 64)?;
//! let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 12);
//! let minseed = MinSeed::new(&graph, &index, MinSeedConfig::default());
//! let result = minseed.seed(&text.slice(64, 164));
//! assert!(!result.regions.is_empty());
//! # Ok::<(), segram_graph::GraphError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chain;
mod index;
mod minimizer;
mod minseed;
mod persist;
mod update;

pub use chain::{chain_anchors, Anchor, Chain, ChainConfig};
pub use index::{
    shard_boundaries, DeltaStats, GraphIndex, IndexFootprint, BUCKET_ENTRY_BYTES,
    DEFAULT_BUCKET_BITS, LOCATION_ENTRY_BYTES, MINIMIZER_ENTRY_BYTES,
};
pub use minimizer::{
    density, extract_minimizers, extract_minimizers_from, hash64, kmer_mask, pack_kmer,
    KmerOrdering, Minimizer, MinimizerScheme,
};
pub use minseed::{
    frequency_threshold, seed_region, visit_seed_hits, MinSeed, MinSeedConfig, SeedRegion,
    SeedingResult, SeedingStats,
};
pub use persist::{
    decode_index, decode_index_sharded, encode_index, read_index_file, read_index_file_sharded,
    read_section_table, section_table, write_index_file, EpochEntry, IndexProvenance, PersistError,
    PersistedIndex, SectionEntry, SectionTable, ShardedStore, StoreChangelog, CHANGELOG_VERSION,
    INDEX_FORMAT_VERSION, INDEX_MAGIC, PROVENANCE_VERSION,
};
pub use update::{initial_changelog, update_index_file, update_store, UpdateOutcome};
