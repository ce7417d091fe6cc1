//! The evaluation's comparison instrument: the software baselines as
//! [`ReadMapper`]s, and the one measurement path every mapper of `segram
//! eval compare` runs through.
//!
//! The paper's evaluation hinges on apples-to-apples comparison: the same
//! read stream driven through SeGraM and through the software baselines
//! (GraphAligner-like, vg-like, HGA-like), measured under one
//! methodology. The baselines are measuring instruments, not runtime
//! modes — `segram map` and `segram serve` run only the native
//! [`ShardedIndex`](crate::ShardedIndex):
//!
//! * [`BaselineAdapter`] lifts any [`BaselineMapper`] into the
//!   [`ReadMapper`] interface the [`MapEngine`] drives, adapting
//!   [`BaselineMapping`]/[`StepTimes`] into [`Mapping`]/[`MapStats`] (the
//!   located window is re-aligned with BitAlign so every mapper emits the
//!   same SAM/GAF record shape);
//! * [`run_backend_eval`] drives any one mapper over one read set through
//!   the engine and distills the comparison row `eval compare` prints —
//!   throughput, per-stage times, truth accuracy, and the accelerator
//!   occupancy the mapper's candidate-region stream implies in the
//!   `segram-hw` pipeline simulator.
//!
//! Because every mapper runs through the same engine (same batching, same
//! order-preserving output, same queue accounting), each one's output is
//! byte-identical across thread counts; the differential property test
//! (`tests/backend_props.rs`) enforces this for all four.

use std::time::Instant;

use segram_graph::{DnaSeq, GenomeGraph, LinearizedGraph};
use segram_hw::{simulate_pipeline, SeedJob};
use segram_index::SeedRegion;
use segram_sim::Strand;

use crate::baseline::{BaselineMapper, BaselineMapping, StepTimes};
use crate::config::SegramConfig;
use crate::mapper::{MapStats, Mapping, ReadMapper};
use crate::pipeline::{Aligner, BitAlignStage, EngineOptions, EngineReport, MapEngine};

/// Modeled MinSeed time per candidate region when a backend's region
/// stream is fed into the hardware pipeline simulator (the Section 8.3
/// steady-state figure, shared with `benches/sharding.rs`).
pub const MODELED_MINSEED_NS: f64 = 10.0;

/// Modeled BitAlign time for a candidate region of
/// [`MODELED_REGION_CHARS`] reference characters (Section 8.3); longer
/// regions scale linearly, the way the windowed systolic array does.
pub const MODELED_BITALIGN_NS: f64 = 34.0;

/// Nominal region length the [`MODELED_BITALIGN_NS`] figure corresponds
/// to (one short-read window). Scaling BitAlign time by actual region
/// length is what makes modeled occupancy comparable across backends:
/// HGA's single whole-graph candidate costs what whole-graph DP costs,
/// not what one short window costs.
pub const MODELED_REGION_CHARS: f64 = 128.0;

/// Lifts a [`BaselineMapper`] into the [`ReadMapper`] interface the
/// engine drives.
///
/// The baselines report a *locus* — best edit distance plus linear start —
/// because they are throughput comparators, not CIGAR producers. To emit
/// the same SAM/GAF record shape as the native path (and with it a graph
/// path `gaf_record_for` can validate), the adapter re-aligns the located
/// window with BitAlign; the re-alignment time is charged to the
/// alignment stage so stage-time comparisons stay honest.
#[derive(Debug)]
pub struct BaselineAdapter<B> {
    inner: B,
    config: SegramConfig,
    backend: &'static str,
}

impl<B: BaselineMapper> BaselineAdapter<B> {
    /// Wraps a baseline with the configuration used to finalize its loci
    /// and the backend name reported to the engine.
    pub fn new(inner: B, config: SegramConfig, backend: &'static str) -> Self {
        Self {
            inner,
            config,
            backend,
        }
    }

    /// Turns a located window into a full [`Mapping`]: extract a padded
    /// window around the locus and BitAlign the read against it. Returns
    /// `None` when the window cannot be extracted or exceeds the edit
    /// threshold — deterministically, so engine output stays
    /// thread-invariant.
    fn finalize(&self, read: &DnaSeq, located: BaselineMapping) -> Option<Mapping> {
        let total = self.inner.graph().total_chars();
        let pad = (read.len() as u64 / 4).max(32);
        let start = located.linear_start.saturating_sub(pad);
        let end = (located.linear_start + read.len() as u64 + pad).min(total);
        if end <= start {
            return None;
        }
        let lin = LinearizedGraph::extract(self.inner.graph(), start, end).ok()?;
        let alignment = BitAlignStage::new(&self.config).align(&lin, read).ok()?;
        let anchor = lin.origin(alignment.text_start.min(lin.len().saturating_sub(1)));
        Some(Mapping {
            start: anchor,
            linear_start: start + alignment.text_start as u64,
            path: alignment.graph_path(&lin),
            region: SeedRegion {
                start,
                end,
                seed: anchor,
                read_offset: 0,
            },
            alignment,
        })
    }
}

/// [`StepTimes`] carried over into the engine's stage accounting: stage
/// times map one-to-one, and the baseline's alignment-step workload
/// (candidates evaluated, reference characters covered) becomes the
/// region accounting — so MAPQ estimation and the cross-backend
/// occupancy model both see the baseline's *real* candidate stream, not
/// just the one finalized window.
fn stats_from_times(times: &StepTimes) -> MapStats {
    MapStats {
        seeding: times.seeding,
        filtering: times.filtering,
        alignment: times.alignment,
        regions_aligned: times.candidates,
        total_region_len: times.aligned_chars,
        ..MapStats::default()
    }
}

impl<B: BaselineMapper> ReadMapper for BaselineAdapter<B> {
    fn graph(&self) -> &GenomeGraph {
        self.inner.graph()
    }

    fn backend_name(&self) -> &'static str {
        self.backend
    }

    fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        let (located, times) = self.inner.map_read(read);
        let mut stats = stats_from_times(&times);
        let Some(located) = located else {
            return (None, stats);
        };
        let finalize_started = Instant::now();
        let mapping = self.finalize(read, located);
        stats.alignment += finalize_started.elapsed();
        (mapping, stats)
    }

    fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
        let (forward, mut stats) = self.map_read(read);
        let rc = read.reverse_complement();
        let (reverse, reverse_stats) = self.map_read(&rc);
        stats.merge(&reverse_stats);
        (crate::mapper::better_stranded(forward, reverse), stats)
    }
}

/// One read of an `eval compare` input: the sequence plus, when the FASTQ
/// came from `segram simulate`, the simulated truth location parsed from
/// its description.
#[derive(Clone, Debug)]
pub struct EvalRead {
    /// The read sequence.
    pub seq: DnaSeq,
    /// Linear coordinate the read was simulated from, when known.
    pub truth_linear: Option<u64>,
}

/// One backend's row of an `eval compare` run: the engine report plus
/// wall-clock, truth accuracy, and the modeled accelerator occupancy its
/// candidate-region stream implies.
#[derive(Clone, Debug)]
pub struct BackendEval {
    /// Mapper identifier (from [`ReadMapper::backend_name`]).
    pub backend: &'static str,
    /// The engine's aggregate report for this run.
    pub report: EngineReport,
    /// Wall-clock seconds for the whole run.
    pub seconds: f64,
    /// Reads that carried a simulated truth location.
    pub with_truth: usize,
    /// Truth-carrying reads mapped within the tolerance.
    pub correct: usize,
    /// Modeled makespan of this backend's candidate-region stream on the
    /// two-stage accelerator pipeline (ns).
    pub modeled_makespan_ns: f64,
    /// Modeled BitAlign-stage utilization under the same stream.
    pub modeled_bitalign_utilization: f64,
}

impl BackendEval {
    /// Reads *consumed* per wall-clock second (total throughput; unmapped
    /// reads cost pipeline time too and count toward it).
    pub fn reads_per_second(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.report.reads as f64 / self.seconds
        }
    }

    /// Fraction of truth-carrying reads mapped within the tolerance, or
    /// `None` when the input carried no truth at all.
    pub fn accuracy(&self) -> Option<f64> {
        if self.with_truth == 0 {
            None
        } else {
            Some(self.correct as f64 / self.with_truth as f64)
        }
    }
}

/// Drives one mapper over one read set through the engine and distills
/// the comparison row: throughput, per-stage times (in
/// [`BackendEval::report`]), truth accuracy, and the modeled accelerator
/// occupancy of the mapper's candidate-region stream. Each aligned
/// region becomes one MinSeed+BitAlign job in the `segram-hw` pipeline
/// simulator — preserving the per-read burstiness the averaged analytic
/// model hides — with BitAlign time scaled by the read's average region
/// length, so a backend that aligns few huge candidates (HGA) and one
/// that aligns many small ones (SeGraM) are charged their real relative
/// workloads.
pub fn run_backend_eval<M: ReadMapper>(
    mapper: &M,
    reads: &[EvalRead],
    threads: usize,
    both_strands: bool,
    tolerance: u64,
) -> BackendEval {
    let engine = MapEngine::new(
        mapper,
        EngineOptions::new()
            .threads(threads)
            .both_strands(both_strands),
    );
    let mut jobs: Vec<SeedJob> = Vec::new();
    let mut with_truth = 0usize;
    let mut correct = 0usize;
    let started = Instant::now();
    let report = engine.map_stream(
        reads.iter(),
        |read| &read.seq,
        |read, outcome| {
            if outcome.stats.regions_aligned > 0 {
                let avg_chars =
                    outcome.stats.total_region_len as f64 / outcome.stats.regions_aligned as f64;
                let bitalign_ns = MODELED_BITALIGN_NS * (avg_chars / MODELED_REGION_CHARS);
                for _ in 0..outcome.stats.regions_aligned {
                    jobs.push(SeedJob {
                        minseed_ns: MODELED_MINSEED_NS,
                        bitalign_ns,
                    });
                }
            }
            if let Some(truth) = read.truth_linear {
                with_truth += 1;
                if let Some(mapping) = &outcome.mapping {
                    if mapping.linear_start.abs_diff(truth) <= tolerance {
                        correct += 1;
                    }
                }
            }
        },
    );
    let seconds = started.elapsed().as_secs_f64();
    let trace = simulate_pipeline(&jobs);
    BackendEval {
        backend: report.backend,
        report,
        seconds,
        with_truth,
        correct,
        modeled_makespan_ns: trace.makespan_ns(),
        modeled_bitalign_utilization: trace.bitalign_utilization(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphAlignerLike, HgaLike, SegramMapper, ShardedIndex, VgLike};
    use segram_sim::DatasetConfig;

    fn dataset() -> segram_sim::Dataset {
        // The full 30 kb tiny reference: smaller genomes carry exact
        // repeats that legitimately divert a few 0-edit mappings away
        // from the simulated origin, which is not what these tests probe.
        let mut config = DatasetConfig::tiny(201);
        config.read_count = 12;
        config.illumina(100)
    }

    #[test]
    fn segram_backend_is_identical_to_the_direct_mapper() {
        let dataset = dataset();
        let config = SegramConfig::short_reads();
        let direct = SegramMapper::new(dataset.graph().clone(), config);
        let index = ShardedIndex::build(dataset.graph().clone(), config, 1);
        assert_eq!(index.backend_name(), "segram");
        for read in &dataset.reads {
            let (a, a_stats) = direct.map_read(&read.seq);
            let (b, b_stats) = index.map_read(&read.seq);
            assert_eq!(a, b);
            assert_eq!(a_stats.regions_aligned, b_stats.regions_aligned);
        }
    }

    /// At least 70 % of `dataset`'s reads map near their origin through
    /// `adapter`, each as a complete mapping.
    fn assert_maps_near_truth<B: BaselineMapper>(
        adapter: &BaselineAdapter<B>,
        dataset: &segram_sim::Dataset,
    ) {
        let name = adapter.backend_name();
        assert_eq!(adapter.graph().total_chars(), dataset.graph().total_chars());
        let mut near = 0usize;
        for read in &dataset.reads {
            let (mapping, stats) = adapter.map_read(&read.seq);
            if let Some(m) = mapping {
                // The adapter produces a *complete* mapping: a CIGAR, a
                // graph path, and a region — everything SAM/GAF needs.
                assert!(!m.path.is_empty(), "{name}: empty graph path");
                assert!(!m.alignment.cigar.is_empty(), "{name}: empty CIGAR");
                assert!(m.region.start <= m.linear_start);
                assert!(stats.regions_aligned >= 1);
                if m.linear_start.abs_diff(read.true_start_linear) < 150 {
                    near += 1;
                }
            }
        }
        assert!(
            near * 10 >= dataset.reads.len() * 7,
            "{name}: only {near}/{} near truth",
            dataset.reads.len()
        );
    }

    #[test]
    fn baseline_backends_map_near_truth_with_full_mappings() {
        let dataset = dataset();
        let config = SegramConfig::short_reads();
        let graph = || dataset.graph().clone();
        assert_maps_near_truth(
            &BaselineAdapter::new(
                GraphAlignerLike::new(graph(), config),
                config,
                "graphaligner",
            ),
            &dataset,
        );
        assert_maps_near_truth(
            &BaselineAdapter::new(VgLike::new(graph(), config), config, "vg"),
            &dataset,
        );
        assert_maps_near_truth(
            &BaselineAdapter::new(HgaLike::new(graph()), config, "hga"),
            &dataset,
        );
    }

    #[test]
    fn adapter_both_strand_mapping_recovers_reverse_reads() {
        let dataset = dataset();
        let config = SegramConfig::short_reads();
        let adapter = BaselineAdapter::new(
            GraphAlignerLike::new(dataset.graph().clone(), config),
            config,
            "graphaligner",
        );
        let stranded = segram_sim::simulate_stranded_reads(
            dataset.graph(),
            &segram_sim::ReadConfig::short_reads(8, 100, 203),
            1.0, // all reverse
        );
        let mut reverse_hits = 0usize;
        for read in &stranded {
            if let (Some((m, strand)), _) = adapter.map_read_both(&read.seq) {
                if m.linear_start.abs_diff(read.true_start_linear) < 150 {
                    assert_eq!(strand, Strand::Reverse);
                    reverse_hits += 1;
                }
            }
        }
        assert!(reverse_hits >= 6, "only {reverse_hits}/8 recovered");
    }

    #[test]
    fn backend_eval_measures_throughput_accuracy_and_occupancy() {
        let dataset = dataset();
        let config = SegramConfig::short_reads();
        let reads: Vec<EvalRead> = dataset
            .reads
            .iter()
            .map(|r| EvalRead {
                seq: r.seq.clone(),
                truth_linear: Some(r.true_start_linear),
            })
            .collect();
        let index = ShardedIndex::build(dataset.graph().clone(), config, 1);
        let eval = run_backend_eval(&index, &reads, 2, false, 150);
        assert_eq!(eval.backend, "segram");
        assert_eq!(eval.report.reads, reads.len());
        assert_eq!(eval.with_truth, reads.len());
        assert!(eval.accuracy().expect("truth present") > 0.7);
        assert!(eval.reads_per_second() > 0.0);
        // Every aligned region became one modeled pipeline job.
        assert!(eval.modeled_makespan_ns > 0.0);
        assert!(eval.modeled_bitalign_utilization > 0.0);

        // Without truth annotations, accuracy is reported as absent, not 0.
        let blind: Vec<EvalRead> = reads
            .iter()
            .map(|r| EvalRead {
                seq: r.seq.clone(),
                truth_linear: None,
            })
            .collect();
        let eval = run_backend_eval(&index, &blind, 1, false, 150);
        assert_eq!(eval.with_truth, 0);
        assert!(eval.accuracy().is_none());
    }
}
