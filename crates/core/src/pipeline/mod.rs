//! The mapping pipeline as explicit stages plus the batched parallel
//! engine on top.
//!
//! The paper's end-to-end system is a pipeline — MinSeed feeds candidate
//! regions through optional pre-alignment filtering into BitAlign
//! (Figure 2). This module makes that dataflow explicit:
//!
//! ```text
//!            ┌────────┐   regions   ┌───────────┐  surviving  ┌─────────┐
//!   read ───►│ Seeder │────────────►│ Prefilter │────────────►│ Aligner │──► Mapping
//!            └────────┘             └───────────┘   regions   └─────────┘
//!             MinSeed               SHD-family                 BitAlign
//! ```
//!
//! * [`Seeder`] / [`Prefilter`] / [`Aligner`] — the stage traits, with
//!   [`MinSeedStage`], [`SpecPrefilter`], and [`BitAlignStage`] as the
//!   paper's default implementations ([`stages`]);
//! * [`MapPipeline`] — the per-read driver: candidate clustering, region
//!   extraction/widening, early exit, and per-stage time accounting;
//! * the one scheduler (the `multi` module): a worker loop over per-request
//!   queues, reorder buffers and ordered outputs, with QoS picks, pool
//!   routing and stealing. [`MultiEngine`] runs it for the long-lived
//!   daemon behind `segram serve`; [`MapEngine`] runs it for one stream
//!   ([`engine`]) — the producer pushes batches, a scoped writer thread
//!   runs the sink, a [`CancelToken`] stops both ends on failure;
//! * [`ShardRouter`] — the runtime mapper's seeding stage, for any shard
//!   count: per-shard index lookups merged into the single-index
//!   candidate order before prefilter/alignment ([`router`]), plus
//!   [`route_batch`], the elastic batch-to-pool policy;
//! * [`elastic_route`] — the elastic schedule ([`elastic`]): the route
//!   hook both engines use, over a [`ShardPlacement`] of shards on pools
//!   fixed at boot — same bytes as the fanout schedule, because it is the
//!   same scheduler;
//! * [`sam_record_for`] / [`gaf_record_for`] — render one engine outcome
//!   into the interchange formats, shared by the CLI and the test suite.
//!
//! [`SegramMapper`](crate::SegramMapper) (the single-index reference) and
//! [`ShardedIndex`](crate::ShardedIndex) (what the binary runs) are thin
//! facades over this module: each owns the graph + index and wires its
//! seeder and the default later stages into a [`MapPipeline`].

mod elastic;
mod engine;
mod multi;
mod router;
mod stages;

pub use elastic::{elastic_route, ShardPlacement};
pub use engine::{
    CancelToken, EngineOptions, EngineReport, MapEngine, PoolReport, QueueStats, ReadOutcome,
};
pub use multi::{
    EngineBusy, MultiEngine, Priority, QueueDelayStats, RequestHandle, RequestPanicked, RouteHook,
};
pub use router::{route_batch, ShardRouter};

pub(crate) use engine::DEFAULT_BATCH_SIZE;
pub use stages::{Aligner, BitAlignStage, MinSeedStage, Prefilter, Seeder, SpecPrefilter};

use std::time::{Duration, Instant};

use segram_graph::{DnaSeq, GenomeGraph, LinearizedGraph};
use segram_index::SeedRegion;
use segram_io::{FormatError, GafRecord};
use segram_sim::Strand;

use crate::config::SegramConfig;
use crate::mapper::{MapStats, Mapping};
use crate::sam::{mapq_estimate, SamRecord};

/// The per-read pipeline: three stages plus the driver logic that connects
/// them (candidate clustering, region extraction and widening, early
/// exit, and per-stage statistics).
///
/// Generic over the stage implementations so alternative components can be
/// benchmarked against the defaults without touching the driver.
#[derive(Clone, Copy, Debug)]
pub struct MapPipeline<'g, S, P, A> {
    graph: &'g GenomeGraph,
    seeder: S,
    prefilter: P,
    aligner: A,
    config: SegramConfig,
}

impl<'g, S: Seeder, P: Prefilter, A: Aligner> MapPipeline<'g, S, P, A> {
    /// Assembles a pipeline from its stages.
    ///
    /// `config` supplies the driver knobs (`max_regions`, `error_rate`,
    /// `early_exit_edits`, thresholds); the stages carry their own
    /// parameters.
    pub fn new(
        graph: &'g GenomeGraph,
        seeder: S,
        prefilter: P,
        aligner: A,
        config: SegramConfig,
    ) -> Self {
        Self {
            graph,
            seeder,
            prefilter,
            aligner,
            config,
        }
    }

    /// The reference graph the pipeline maps against.
    pub fn graph(&self) -> &'g GenomeGraph {
        self.graph
    }

    /// The seeding stage.
    pub fn seeder(&self) -> &S {
        &self.seeder
    }

    /// The pre-alignment filter stage.
    pub fn prefilter(&self) -> &P {
        &self.prefilter
    }

    /// The alignment stage.
    pub fn aligner(&self) -> &A {
        &self.aligner
    }

    /// The pipeline's optional clustering step (Figure 2, step 2): seeds
    /// from one locus produce near-identical regions, so cluster them
    /// before truncating — otherwise the cap keeps only the read's first
    /// (often repeat-heavy) minimizers and drops the true locus entirely.
    /// MinSeed itself stays cluster-free (Section 11.4); this only runs
    /// when the caller opted into a region cap.
    fn cap_regions(&self, mut regions: Vec<SeedRegion>, read_len: usize) -> Vec<SeedRegion> {
        if self.config.max_regions == 0 || regions.len() <= self.config.max_regions {
            return regions;
        }
        regions.sort_by_key(|r| r.start);
        let merge_within = (read_len as u64).max(64);
        let mut clusters: Vec<(SeedRegion, usize)> = Vec::new();
        for region in regions.drain(..) {
            match clusters.last_mut() {
                Some((head, count)) if region.start.saturating_sub(head.start) < merge_within => {
                    *count += 1;
                }
                _ => clusters.push((region, 1)),
            }
        }
        // Rank loci by seed support: the true locus collects hits from
        // many of the read's minimizers, repeats collect few each.
        clusters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.start.cmp(&b.0.start)));
        clusters
            .into_iter()
            .take(self.config.max_regions)
            .map(|(region, _)| region)
            .collect()
    }

    /// Maps one read end to end; returns the best mapping (fewest edits,
    /// then leftmost) and the per-stage pipeline statistics.
    pub fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        let mut stats = MapStats::default();
        let t0 = Instant::now();
        let seeding = self.seeder.seed(read);
        stats.seeding = t0.elapsed();
        stats.minimizers = seeding.stats.minimizers;
        stats.filtered_minimizers = seeding.stats.filtered_minimizers;
        stats.seed_locations = seeding.stats.seed_locations;

        let t1 = Instant::now();
        let mut filtering = Duration::ZERO;
        let mut best: Option<Mapping> = None;
        let regions = self.cap_regions(seeding.regions, read.len());
        // An alignment whose edit count stays below this is plausibly
        // error-only; anything above it hints that the read's path left the
        // linear-coordinate window (e.g. a hop across a structural-variant
        // deletion, whose deleted characters sit inline in the
        // linearization), so the region is retried wider.
        let plausible = ((read.len() as f64) * self.config.error_rate * 1.5).ceil() as u32 + 4;
        let filter_k = self.config.threshold_for(read.len()).max(plausible);
        for region in regions {
            let mut window_start = region.start;
            let mut window_end = region.end;
            let mut outcome: Option<(segram_align::Alignment, LinearizedGraph)> = None;
            for attempt in 0..3u32 {
                let Ok(lin) = LinearizedGraph::extract(self.graph, window_start, window_end) else {
                    break;
                };
                let accepted = if self.prefilter.is_pass_through() {
                    true
                } else {
                    let tf = Instant::now();
                    let accepted = self.prefilter.accept(read, &lin, filter_k);
                    filtering += tf.elapsed();
                    accepted
                };
                if !accepted {
                    // Treat a rejection like an implausible alignment:
                    // widen and re-filter, so structural-variant hops
                    // that the narrow window clips still get rescued.
                    stats.regions_filtered += 1;
                    let ext = (read.len() as u64).max(256) << attempt;
                    window_start = window_start.saturating_sub(ext);
                    window_end = (window_end + ext).min(self.graph.total_chars());
                    continue;
                }
                stats.regions_aligned += 1;
                stats.total_region_len += window_end - window_start;
                match self.aligner.align(&lin, read) {
                    Ok(a) if a.edit_distance <= plausible => {
                        outcome = Some((a, lin));
                        break;
                    }
                    Ok(a) => outcome = Some((a, lin)),
                    Err(_) => {}
                }
                // Widen and retry (bounded): covers SV-sized hops.
                let ext = (read.len() as u64).max(256) << attempt;
                window_start = window_start.saturating_sub(ext);
                window_end = (window_end + ext).min(self.graph.total_chars());
            }
            let Some((alignment, lin)) = outcome else {
                continue;
            };
            // From the kept attempt's own window: the loop may have
            // widened `window_start` past it since.
            let linear_start = lin.start_linear() + alignment.text_start as u64;
            let candidate = Mapping {
                start: lin.origin(alignment.text_start.min(lin.len() - 1)),
                linear_start,
                path: alignment.graph_path(&lin),
                alignment,
                region,
            };
            let better = match &best {
                None => true,
                Some(current) => {
                    (candidate.alignment.edit_distance, candidate.linear_start)
                        < (current.alignment.edit_distance, current.linear_start)
                }
            };
            if better {
                best = Some(candidate);
            }
            if let Some(current) = &best {
                if self.config.early_exit_edits > 0
                    && current.alignment.edit_distance <= self.config.early_exit_edits
                {
                    break;
                }
            }
        }
        stats.filtering = filtering;
        stats.alignment = t1.elapsed().saturating_sub(filtering);
        (best, stats)
    }

    /// Maps a read trying **both strands** (the read as given and its
    /// reverse complement), returning the better mapping and the strand it
    /// mapped on. Sequencers emit reads from either strand with equal
    /// probability, so end-to-end mappers always do this double query; the
    /// hardware does too (each orientation is just another read stream).
    pub fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
        let (forward, mut stats) = self.map_read(read);
        let rc = read.reverse_complement();
        let (reverse, reverse_stats) = self.map_read(&rc);
        stats.merge(&reverse_stats);
        (crate::mapper::better_stranded(forward, reverse), stats)
    }
}

/// Renders one engine outcome as a SAM record: a mapped record with a
/// MAPQ estimated from the read's own seed support, or an unmapped
/// placeholder. Shared by the CLI and the thread-invariance tests so both
/// produce identical bytes.
pub fn sam_record_for(id: &str, read: &DnaSeq, outcome: &ReadOutcome) -> SamRecord {
    match &outcome.mapping {
        Some(mapping) => {
            let mapq = mapq_estimate(
                outcome.stats.regions_aligned,
                mapping.alignment.edit_distance,
                read.len(),
            );
            SamRecord::from_mapping(id, "graph", read, mapping, mapq)
        }
        None => SamRecord::unmapped(id, read),
    }
}

/// Renders one engine outcome as a GAF record, or `None` for unmapped
/// reads (GAF has no unmapped-record convention).
///
/// # Errors
///
/// Propagates [`FormatError`] when the mapping's graph path is
/// inconsistent with `graph` (which would indicate a mapper bug).
pub fn gaf_record_for(
    id: &str,
    read: &DnaSeq,
    graph: &GenomeGraph,
    outcome: &ReadOutcome,
) -> Result<Option<GafRecord>, FormatError> {
    let Some(mapping) = &outcome.mapping else {
        return Ok(None);
    };
    let mapq = mapq_estimate(
        outcome.stats.regions_aligned,
        mapping.alignment.edit_distance,
        read.len(),
    );
    GafRecord::from_char_path(
        id,
        read.len(),
        graph,
        &mapping.path,
        &mapping.alignment.cigar,
        mapping.alignment.edit_distance,
        mapq,
    )
    .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SegramConfig, SegramMapper};
    use segram_sim::DatasetConfig;

    #[test]
    fn mapper_facade_equals_direct_pipeline() {
        let dataset = DatasetConfig::tiny(21).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let pipeline = mapper.pipeline();
        for read in dataset.reads.iter().take(5) {
            let (a, _) = mapper.map_read(&read.seq);
            let (b, _) = pipeline.map_read(&read.seq);
            assert_eq!(a, b);
        }
    }

    /// An outcome kept from an attempt the loop then widened past must
    /// still be reported in that attempt's own window: `POS` and the
    /// tie-break key are where its path starts.
    #[test]
    fn linear_start_is_where_the_kept_alignments_path_starts() {
        let reference = segram_sim::generate_reference(&segram_sim::GenomeConfig {
            repeat_count: 0,
            ..segram_sim::GenomeConfig::human_like(20_000, 17)
        });
        let graph = segram_graph::linear_graph(&reference, 1_000).unwrap();
        let mapper = SegramMapper::new(graph, SegramConfig::short_reads());
        // 150 bp: an alignment is accepted up to k = 17 edits but counts as
        // plausible only up to 16, so 17 substitutions (all in the first
        // half; the second half seeds) survive every widening attempt.
        let mut bases = reference.slice(5_000, 5_150).into_bases();
        for base in bases.iter_mut().step_by(4).take(17) {
            *base = base.complement();
        }
        let (mapping, _) = mapper.map_read(&DnaSeq::from(bases));
        let mapping = mapping.expect("17 edits are within the threshold");
        assert_eq!(mapping.alignment.edit_distance, 17);
        assert_eq!(
            mapping.linear_start,
            mapper.graph().linear_pos(mapping.start).unwrap()
        );
        assert_eq!(mapping.linear_start, 5_000);
    }

    #[test]
    fn renderers_cover_mapped_and_unmapped_outcomes() {
        let dataset = DatasetConfig::tiny(23).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(1));
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (outcomes, _) = engine.map_batch(&reads);
        let mapped = outcomes
            .iter()
            .position(|o| o.mapping.is_some())
            .expect("some read maps");
        let sam = sam_record_for("r", &reads[mapped], &outcomes[mapped]);
        assert!(sam.is_mapped());
        let gaf = gaf_record_for("r", &reads[mapped], mapper.graph(), &outcomes[mapped]).unwrap();
        assert!(gaf.is_some());

        let unmapped = ReadOutcome {
            mapping: None,
            strand: Strand::Forward,
            stats: MapStats::default(),
        };
        assert!(!sam_record_for("r", &reads[0], &unmapped).is_mapped());
        assert!(gaf_record_for("r", &reads[0], mapper.graph(), &unmapped)
            .unwrap()
            .is_none());
    }
}
