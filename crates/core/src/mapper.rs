//! The end-to-end SeGraM mapper: MinSeed seeding + BitAlign alignment
//! (the "End-to-End Mapping" use case of Section 9), for both
//! sequence-to-graph and sequence-to-sequence mapping, short and long
//! reads.
//!
//! [`SegramMapper`] is the single-index **reference implementation**: a
//! thin facade that owns the graph, one whole-graph index, and the
//! configuration, and wires the default stage implementations into a
//! [`MapPipeline`](crate::pipeline::MapPipeline), which hosts the actual
//! seeding → prefilter → alignment flow. It is the library's simplest
//! entry point and the oracle the runtime mapper is held to: the `segram`
//! binary maps with the coordinate-range
//! [`ShardedIndex`](crate::ShardedIndex) (one shard by default), and the
//! tests, the golden digests and the perf ledger's in-process replay
//! require it to agree with this mapper byte for byte. Batched
//! multi-threaded mapping lives in
//! [`MapEngine`](crate::pipeline::MapEngine).

use std::sync::Arc;
use std::time::Duration;

use segram_align::{AlignError, Alignment};
use segram_graph::{linear_graph, DnaSeq, GenomeGraph, GraphError, GraphPos, LinearizedGraph};
use segram_index::{frequency_threshold, GraphIndex, MinSeedConfig, SeedRegion};

use crate::config::SegramConfig;
use crate::pipeline::{Aligner, BitAlignStage, MapPipeline, MinSeedStage, Seeder, SpecPrefilter};

/// Anything that can map one read end to end: the abstraction
/// [`MapEngine`](crate::pipeline::MapEngine) drives, implemented by the
/// single-index reference [`SegramMapper`], the coordinate-range
/// [`ShardedIndex`](crate::ShardedIndex) the binary runs, and the adapted
/// baselines. Implementations must be `Sync`
/// because the engine shares one mapper across its worker threads.
pub trait ReadMapper: Sync {
    /// The reference graph mappings refer to (SAM/GAF rendering needs it).
    fn graph(&self) -> &GenomeGraph;

    /// Short stable identifier of the backend this mapper implements
    /// (`"segram"`, `"graphaligner"`, `"vg"`, `"hga"`), threaded into
    /// [`EngineReport`](crate::EngineReport) and the `eval compare` table
    /// so every measurement names the mapper that produced it. The default
    /// is the native SeGraM pipeline.
    fn backend_name(&self) -> &'static str {
        "segram"
    }

    /// Maps one read end to end; returns the best mapping (fewest edits,
    /// then leftmost) and the per-stage pipeline statistics.
    fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats);

    /// Maps a read trying both strands, returning the better mapping and
    /// the strand it mapped on.
    fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, segram_sim::Strand)>, MapStats);
}

/// Merges a forward-strand and a reverse-complement mapping attempt into
/// the better of the two (fewest edits; **forward wins ties**) and the
/// strand it mapped on. Every both-strand mapper shares this exact
/// tie-break so outputs stay comparable across backends.
pub(crate) fn better_stranded(
    forward: Option<Mapping>,
    reverse: Option<Mapping>,
) -> Option<(Mapping, segram_sim::Strand)> {
    use segram_sim::Strand;
    match (forward, reverse) {
        (Some(f), Some(r)) => {
            if f.alignment.edit_distance <= r.alignment.edit_distance {
                Some((f, Strand::Forward))
            } else {
                Some((r, Strand::Reverse))
            }
        }
        (Some(f), None) => Some((f, Strand::Forward)),
        (None, Some(r)) => Some((r, Strand::Reverse)),
        (None, None) => None,
    }
}

/// A completed read mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// The winning alignment.
    pub alignment: Alignment,
    /// The candidate region it came from.
    pub region: SeedRegion,
    /// Graph position of the alignment's first consumed character.
    pub start: GraphPos,
    /// Linear coordinate of the alignment's first consumed character.
    pub linear_start: u64,
    /// Graph provenance of every consumed reference character, in path
    /// order (the input for GAF output, where the node path is explicit).
    pub path: Vec<GraphPos>,
}

/// Per-read pipeline statistics (times + counts), the instrumentation the
/// Section 3 observations and Section 11.4 analysis are based on.
#[derive(Clone, Copy, Debug, Default)]
pub struct MapStats {
    /// Time spent decoding the read from its raw transport bytes (zero
    /// per read; `segram map` decodes on its producer and puts the run's
    /// total into the report's stats). Transport work, not
    /// mapping work: reported separately and excluded from
    /// [`total_time`](Self::total_time) /
    /// [`alignment_fraction`](Self::alignment_fraction).
    pub decode: Duration,
    /// Time the transport stage spent inflating compressed input (zero
    /// on plain input; on BGZF input the producer-side stage inflates,
    /// verifies and splices members ahead of the record queue, and
    /// `segram map` fills the run's total into the aggregate — no single
    /// read owns a share). Transport work like [`decode`](Self::decode):
    /// reported separately and excluded from
    /// [`total_time`](Self::total_time) /
    /// [`alignment_fraction`](Self::alignment_fraction).
    pub inflate: Duration,
    /// Time spent in the seeding step.
    pub seeding: Duration,
    /// Time spent in the optional pre-alignment filter step (zero when
    /// [`SegramConfig::prefilter`](crate::SegramConfig) is `None`).
    pub filtering: Duration,
    /// Time spent in the alignment step (region extraction + BitAlign,
    /// excluding pre-alignment filtering).
    pub alignment: Duration,
    /// Minimizers extracted.
    pub minimizers: usize,
    /// Minimizers discarded by the frequency filter.
    pub filtered_minimizers: usize,
    /// Seed locations fetched.
    pub seed_locations: usize,
    /// Candidate regions aligned.
    pub regions_aligned: usize,
    /// Candidate regions rejected by the optional pre-alignment filter
    /// before reaching BitAlign (always 0 when
    /// [`SegramConfig::prefilter`](crate::SegramConfig) is `None`).
    pub regions_filtered: usize,
    /// Sum of aligned region lengths (for workload measurement).
    pub total_region_len: u64,
}

impl MapStats {
    /// Merges another read's stats into an aggregate.
    pub fn merge(&mut self, other: &MapStats) {
        self.decode += other.decode;
        self.inflate += other.inflate;
        self.seeding += other.seeding;
        self.filtering += other.filtering;
        self.alignment += other.alignment;
        self.minimizers += other.minimizers;
        self.filtered_minimizers += other.filtered_minimizers;
        self.seed_locations += other.seed_locations;
        self.regions_aligned += other.regions_aligned;
        self.regions_filtered += other.regions_filtered;
        self.total_region_len += other.total_region_len;
    }

    /// Total *mapping* pipeline time: seeding + filtering + alignment.
    /// [`decode`](Self::decode) is transport time and deliberately not
    /// included, so enabling the overlapped input path does not shift
    /// the Observation 1 stage fractions.
    pub fn total_time(&self) -> Duration {
        self.seeding + self.filtering + self.alignment
    }

    /// Fraction of pipeline time spent in alignment (Observation 1
    /// metric). Pre-alignment filtering counts toward the denominator but
    /// not toward alignment, so enabling a filter visibly *lowers* this
    /// fraction instead of silently inflating it.
    pub fn alignment_fraction(&self) -> f64 {
        let total = self.total_time().as_secs_f64();
        if total == 0.0 {
            return 0.0;
        }
        self.alignment.as_secs_f64() / total
    }
}

/// The SeGraM mapper bound to one reference graph.
///
/// # Examples
///
/// ```
/// use segram_core::{SegramConfig, SegramMapper};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
/// let read = &dataset.reads[0];
/// let (mapping, _stats) = mapper.map_read(&read.seq);
/// let mapping = mapping.expect("simulated read must map");
/// // The mapping lands near the read's true origin.
/// let err = mapping.linear_start.abs_diff(read.true_start_linear);
/// assert!(err < 50, "mapped {} vs true {}", mapping.linear_start, read.true_start_linear);
/// ```
#[derive(Debug)]
pub struct SegramMapper {
    /// Shared, so further mappers over the same graph need no clone of it.
    graph: Arc<GenomeGraph>,
    index: GraphIndex,
    config: SegramConfig,
    freq_threshold: u32,
}

impl SegramMapper {
    /// Builds the mapper: indexes the graph and derives the frequency
    /// threshold (the two pre-processing steps of Section 5).
    pub fn new(graph: GenomeGraph, config: SegramConfig) -> Self {
        let graph = Arc::new(graph);
        let index = GraphIndex::build(&graph, config.scheme, config.bucket_bits);
        let freq_threshold = frequency_threshold(&index, config.discard_frac);
        Self {
            graph,
            index,
            config,
            freq_threshold,
        }
    }

    /// Assembles a mapper from pre-built parts: a shared graph, an index
    /// over it, and an externally derived frequency threshold (e.g. the
    /// three a persisted `.sgi` store holds) — no index pass.
    pub fn from_parts(
        graph: Arc<GenomeGraph>,
        index: GraphIndex,
        config: SegramConfig,
        freq_threshold: u32,
    ) -> Self {
        Self {
            graph,
            index,
            config,
            freq_threshold,
        }
    }

    /// The shared handle to the reference graph (cheap to clone; used to
    /// build further mappers over the same graph).
    pub fn shared_graph(&self) -> Arc<GenomeGraph> {
        Arc::clone(&self.graph)
    }

    /// Builds a sequence-to-sequence mapper from a linear reference
    /// (Section 9: S2S mapping is the single-successor special case).
    ///
    /// # Errors
    ///
    /// Returns an error when the reference is empty.
    pub fn new_linear(reference: &DnaSeq, config: SegramConfig) -> Result<Self, GraphError> {
        let graph = linear_graph(reference, 4096)?;
        Ok(Self::new(graph, config))
    }

    /// The reference graph.
    pub fn graph(&self) -> &GenomeGraph {
        self.graph.as_ref()
    }

    /// The hash-table index.
    pub fn index(&self) -> &GraphIndex {
        &self.index
    }

    /// The configuration.
    pub fn config(&self) -> &SegramConfig {
        &self.config
    }

    /// The derived frequency-filter threshold.
    pub fn freq_threshold(&self) -> u32 {
        self.freq_threshold
    }

    /// Assembles the default stage pipeline over this mapper's graph,
    /// index, and configuration. All mapping entry points below are thin
    /// wrappers over the pipeline this returns.
    pub fn pipeline(&self) -> MapPipeline<'_, MinSeedStage<'_>, SpecPrefilter, BitAlignStage> {
        MapPipeline::new(
            self.graph.as_ref(),
            MinSeedStage::new(
                self.graph.as_ref(),
                &self.index,
                MinSeedConfig {
                    error_rate: self.config.error_rate,
                    frequency_threshold: self.freq_threshold,
                },
            ),
            SpecPrefilter::new(self.config.prefilter),
            BitAlignStage::new(&self.config),
            self.config,
        )
    }

    /// Runs the seeding step only (the "Seeding" use case of Section 9).
    pub fn seed(&self, read: &DnaSeq) -> segram_index::SeedingResult {
        self.pipeline().seeder().seed(read)
    }

    /// Aligns a read against one already-extracted subgraph (the
    /// "Alignment" use case of Section 9) with this mapper's thresholds.
    ///
    /// # Errors
    ///
    /// Propagates alignment errors (e.g. threshold exceeded).
    pub fn align_region(
        &self,
        lin: &LinearizedGraph,
        read: &DnaSeq,
    ) -> Result<Alignment, AlignError> {
        BitAlignStage::new(&self.config).align(lin, read)
    }

    /// Maps one read end to end; returns the best mapping (fewest edits,
    /// then leftmost) and the pipeline statistics.
    pub fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        self.pipeline().map_read(read)
    }

    /// Maps a read trying **both strands** (the read as given and its
    /// reverse complement), returning the better mapping and the strand it
    /// mapped on.
    pub fn map_read_both(
        &self,
        read: &DnaSeq,
    ) -> (Option<(Mapping, segram_sim::Strand)>, MapStats) {
        self.pipeline().map_read_both(read)
    }

    /// Maps a batch of reads serially, returning per-read mappings and the
    /// aggregated statistics. For multi-threaded batches use
    /// [`MapEngine`](crate::pipeline::MapEngine).
    pub fn map_all<'r>(
        &self,
        reads: impl IntoIterator<Item = &'r DnaSeq>,
    ) -> (Vec<Option<Mapping>>, MapStats) {
        let pipeline = self.pipeline();
        let mut aggregate = MapStats::default();
        let mut out = Vec::new();
        for read in reads {
            let (mapping, stats) = pipeline.map_read(read);
            aggregate.merge(&stats);
            out.push(mapping);
        }
        (out, aggregate)
    }
}

impl ReadMapper for SegramMapper {
    fn graph(&self) -> &GenomeGraph {
        SegramMapper::graph(self)
    }

    fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        SegramMapper::map_read(self, read)
    }

    fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, segram_sim::Strand)>, MapStats) {
        SegramMapper::map_read_both(self, read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_sim::{DatasetConfig, ErrorProfile, ReadConfig};

    #[test]
    fn short_reads_map_accurately() {
        let dataset = DatasetConfig::tiny(31).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let mut mapped = 0usize;
        let mut near_truth = 0usize;
        for read in &dataset.reads {
            let (mapping, _) = mapper.map_read(&read.seq);
            if let Some(m) = mapping {
                mapped += 1;
                if m.linear_start.abs_diff(read.true_start_linear) < 100 {
                    near_truth += 1;
                }
            }
        }
        assert!(mapped >= dataset.reads.len() * 9 / 10, "mapped {mapped}");
        assert!(
            near_truth * 10 >= mapped * 9,
            "near {near_truth} of {mapped}"
        );
    }

    #[test]
    fn long_noisy_reads_map() {
        let dataset = {
            let mut c = DatasetConfig::tiny(33);
            c.read_count = 5;
            c.long_read_len = 1500;
            c
        }
        .pacbio_5();
        // Cap the candidate regions: unlimited (the default) aligns every
        // seeded region — hundreds per 1.5 kbp read — which is the
        // ablation binaries' job, not this smoke test's.
        let mut config = SegramConfig::long_reads(0.05);
        config.max_regions = 16;
        let mapper = SegramMapper::new(dataset.graph().clone(), config);
        let mut hits = 0;
        for read in &dataset.reads {
            let (mapping, stats) = mapper.map_read(&read.seq);
            assert!(stats.minimizers > 0);
            if let Some(m) = mapping {
                if m.linear_start.abs_diff(read.true_start_linear) < 200 {
                    hits += 1;
                }
            }
        }
        assert!(hits >= 4, "only {hits}/5 long reads mapped near truth");
    }

    #[test]
    fn s2s_mode_maps_against_linear_reference() {
        let reference =
            segram_sim::generate_reference(&segram_sim::GenomeConfig::human_like(20_000, 55));
        let mapper = SegramMapper::new_linear(&reference, SegramConfig::short_reads()).unwrap();
        // Every node of the linear graph has at most one successor.
        for node in mapper.graph().node_ids() {
            assert!(mapper.graph().successors(node).len() <= 1);
        }
        let read = reference.slice(5000, 5100);
        let (mapping, _) = mapper.map_read(&read);
        let m = mapping.expect("exact read must map");
        assert_eq!(m.alignment.edit_distance, 0);
        assert_eq!(m.linear_start, 5000);
    }

    #[test]
    fn early_exit_reduces_alignments() {
        let dataset = DatasetConfig::tiny(37).illumina(150);
        let mut eager = SegramConfig::short_reads();
        eager.early_exit_edits = 3;
        let lazy_mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let eager_mapper = SegramMapper::new(dataset.graph().clone(), eager);
        let read = &dataset.reads[0].seq;
        let (_, lazy_stats) = lazy_mapper.map_read(read);
        let (_, eager_stats) = eager_mapper.map_read(read);
        assert!(eager_stats.regions_aligned <= lazy_stats.regions_aligned);
    }

    #[test]
    fn unmappable_read_returns_none() {
        let dataset = DatasetConfig::tiny(39).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        // A read from a *different* genome seed: overwhelmingly unlikely to
        // share full-length matches.
        let alien = segram_sim::simulate_reads(
            &segram_graph::linear_graph(
                &segram_sim::generate_reference(&segram_sim::GenomeConfig::human_like(5_000, 999)),
                4096,
            )
            .unwrap(),
            &ReadConfig {
                count: 1,
                len: 100,
                errors: ErrorProfile::perfect(),
                seed: 1000,
            },
        );
        let (mapping, _) = mapper.map_read(&alien[0].seq);
        if let Some(m) = mapping {
            // If anything maps it must be a poor alignment, not a fake exact hit.
            assert!(m.alignment.edit_distance > 5);
        }
    }

    #[test]
    fn both_strand_mapping_recovers_reverse_reads() {
        let dataset = DatasetConfig::tiny(43).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let stranded = segram_sim::simulate_stranded_reads(
            dataset.graph(),
            &ReadConfig::short_reads(20, 100, 44),
            1.0, // all reverse
        );
        let mut forward_only_hits = 0usize;
        let mut both_hits = 0usize;
        for read in &stranded {
            if let (Some(m), _) = mapper.map_read(&read.seq) {
                if m.linear_start.abs_diff(read.true_start_linear) < 100
                    && m.alignment.edit_distance < 10
                {
                    forward_only_hits += 1;
                }
            }
            if let (Some((m, strand)), _) = mapper.map_read_both(&read.seq) {
                if m.linear_start.abs_diff(read.true_start_linear) < 100
                    && m.alignment.edit_distance < 10
                {
                    both_hits += 1;
                    assert_eq!(strand, segram_sim::Strand::Reverse);
                }
            }
        }
        // Forward-only mapping misses reverse-strand reads almost always;
        // both-strand mapping recovers them.
        assert!(both_hits >= 16, "both-strand hits {both_hits}");
        assert!(
            forward_only_hits < both_hits / 2,
            "forward-only {forward_only_hits} vs both {both_hits}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let dataset = DatasetConfig::tiny(41).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let reads: Vec<&DnaSeq> = dataset.reads.iter().map(|r| &r.seq).take(5).collect();
        let (mappings, stats) = mapper.map_all(reads);
        assert_eq!(mappings.len(), 5);
        assert!(stats.minimizers > 0);
        assert!(stats.alignment_fraction() > 0.0);
    }

    #[test]
    fn filtering_time_is_tracked_and_bounded() {
        let dataset = DatasetConfig::tiny(45).illumina(100);
        let filtered_config =
            SegramConfig::short_reads().with_prefilter(segram_filter::FilterSpec::cascade());
        let plain = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let filtered = SegramMapper::new(dataset.graph().clone(), filtered_config);
        let read = &dataset.reads[0].seq;
        let (_, plain_stats) = plain.map_read(read);
        assert_eq!(plain_stats.filtering, Duration::ZERO);
        let (_, filtered_stats) = filtered.map_read(read);
        assert!(filtered_stats.filtering > Duration::ZERO);
        // The fraction denominator includes all three stages.
        let total = filtered_stats.total_time();
        assert_eq!(
            total,
            filtered_stats.seeding + filtered_stats.filtering + filtered_stats.alignment
        );
        assert!(filtered_stats.alignment_fraction() < 1.0);
    }
}
