//! Workload measurement: runs the software pipeline over a dataset and
//! distills the per-read quantities ([`segram_hw::SeedWorkload`]) that
//! parameterize the hardware performance model — the same
//! "measure-then-model" methodology the paper uses (Section 10).

use segram_hw::SeedWorkload;
use segram_sim::SimulatedRead;

use crate::mapper::SegramMapper;
use crate::pipeline::{EngineOptions, MapEngine, DEFAULT_BATCH_SIZE};

/// Aggregated measurement over a read set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WorkloadMeasurement {
    /// Number of reads measured.
    pub reads: usize,
    /// The averaged hardware workload.
    pub workload: SeedWorkload,
    /// Fraction of reads that produced a mapping.
    pub mapped_fraction: f64,
    /// Fraction of mapped reads whose location is within `tolerance` of
    /// the simulated truth.
    pub accuracy: f64,
}

/// Runs `mapper` over `reads` and measures the averaged seeding workload
/// plus mapping accuracy (truth within `tolerance` linear characters).
pub fn measure_workload(
    mapper: &SegramMapper,
    reads: &[SimulatedRead],
    tolerance: u64,
) -> WorkloadMeasurement {
    if reads.is_empty() {
        return WorkloadMeasurement::default();
    }
    let mut minimizers = 0usize;
    let mut filtered = 0usize;
    let mut seeds = 0usize;
    let mut region_len = 0u64;
    let mut regions = 0usize;
    let mut mapped = 0usize;
    let mut accurate = 0usize;
    let mut read_len = 0usize;
    for read in reads {
        read_len += read.seq.len();
        let (mapping, stats) = mapper.map_read(&read.seq);
        minimizers += stats.minimizers;
        filtered += stats.filtered_minimizers;
        seeds += stats.seed_locations;
        region_len += stats.total_region_len;
        regions += stats.regions_aligned;
        if let Some(m) = mapping {
            mapped += 1;
            if m.linear_start.abs_diff(read.true_start_linear) <= tolerance {
                accurate += 1;
            }
        }
    }
    let n = reads.len() as f64;
    WorkloadMeasurement {
        reads: reads.len(),
        workload: SeedWorkload {
            read_len: read_len / reads.len(),
            minimizers_per_read: minimizers as f64 / n,
            surviving_minimizers: (minimizers - filtered) as f64 / n,
            seeds_per_read: (seeds as f64 / n).max(1.0),
            avg_region_len: if regions == 0 {
                0.0
            } else {
                region_len as f64 / regions as f64
            },
        },
        mapped_fraction: mapped as f64 / n,
        accuracy: if mapped == 0 {
            0.0
        } else {
            accurate as f64 / mapped as f64
        },
    }
}

/// Maps a dataset with `threads` worker threads, the instrument behind
/// the Observation 4 thread-scaling experiment. Returns wall-clock
/// seconds and the reads mapped.
///
/// A thin wrapper over [`MapEngine`]: one engine run with the requested
/// thread count and an outcome-discarding sink.
pub fn map_with_threads(
    mapper: &SegramMapper,
    reads: &[SimulatedRead],
    threads: usize,
) -> (f64, usize) {
    // Size batches so every worker gets several, even on the small read
    // sets the scaling experiments use — with the engine's default batch
    // size, 60 reads would form only 4 batches and leave workers idle at
    // 8 threads, measuring batch granularity instead of mapper scaling.
    let batch_size = reads
        .len()
        .div_ceil(threads.max(1) * 4)
        .clamp(1, DEFAULT_BATCH_SIZE);
    let options = EngineOptions::new().threads(threads).batch_size(batch_size);
    let engine = MapEngine::new(mapper, options);
    let start = std::time::Instant::now();
    let report = engine.map_stream(reads.iter(), |read| &read.seq, |_, _| {});
    (start.elapsed().as_secs_f64(), report.mapped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SegramConfig;
    use segram_sim::DatasetConfig;

    #[test]
    fn measurement_produces_plausible_workload() {
        let dataset = DatasetConfig::tiny(81).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let m = measure_workload(&mapper, &dataset.reads, 100);
        assert_eq!(m.reads, dataset.reads.len());
        assert!(m.workload.minimizers_per_read > 1.0);
        assert!(m.workload.seeds_per_read >= 1.0);
        assert!(m.workload.read_len == 100);
        assert!(m.mapped_fraction > 0.8);
        assert!(m.accuracy > 0.8);
    }

    #[test]
    fn threaded_mapping_matches_serial_counts() {
        let dataset = DatasetConfig::tiny(83).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let (_, serial) = map_with_threads(&mapper, &dataset.reads, 1);
        let (_, parallel) = map_with_threads(&mapper, &dataset.reads, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_reads_yield_default() {
        let dataset = DatasetConfig::tiny(85).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let m = measure_workload(&mapper, &[], 10);
        assert_eq!(m.reads, 0);
    }
}
