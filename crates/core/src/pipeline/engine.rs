//! The engines' shared vocabulary — [`EngineOptions`], [`CancelToken`],
//! [`ReadOutcome`], [`EngineReport`] — and [`MapEngine`], the one-shot
//! driver: one stream, one request, on the workspace's one scheduler.
//!
//! [`MapEngine::map_stream`] opens a single request on the scheduler of
//! [`MultiEngine`](super::MultiEngine) and runs its worker loop under
//! `std::thread::scope`, so the mapper is borrowed and the items need not
//! be `'static`. The calling thread is the producer: it cuts the stream
//! into batches of [`EngineOptions::batch_size`] reads and pushes them,
//! blocking at `queue_depth` queued batches. A scoped writer thread — the
//! only thread that runs the sink — drains the request's ordered output,
//! so neither input nor rendering/IO blocks a mapping worker, and a slow
//! sink holds the workers back instead of growing a buffer. The items are
//! whatever the producer's iterator yields: `segram map` decodes FASTQ
//! there, after its transport stage, so the first malformed record in
//! file order is the one that stops the run.
//!
//! Ordering guarantee: the request releases batches strictly in push
//! order, so the output of `threads = N` is byte-identical to
//! `threads = 1` for any `N`, pool count and route (the mapper itself is
//! deterministic). `ci.sh` enforces this end to end.
//!
//! Failure model: cancelling [`EngineOptions::cancel`] — from the sink,
//! the input iterator, anywhere — stops the producer and drops queued
//! batches unmapped. A sink panic is re-raised with its original payload,
//! a mapper panic with its message, once every thread has wound down.
//! (The daemon turns the latter into one request's
//! [`RequestPanicked`](super::RequestPanicked) instead.)

use std::fmt;
use std::ops::Deref;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use segram_graph::DnaSeq;
use segram_sim::Strand;

use super::multi::{worker_loop, Priority, RouteHook, Shared};
use crate::mapper::{MapStats, Mapping, ReadMapper, SegramMapper};

/// A shared cooperative stop flag: cloning yields handles onto the same
/// flag, so the CLI (or any engine embedder) can hand one clone to the
/// engine via [`EngineOptions::cancel`] and keep another to pull when its sink or
/// input stream fails. Once cancelled, the engine's producer stops
/// consuming input and workers drop still-queued batches unmapped —
/// instead of faithfully mapping a stream whose output already failed.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag on every clone of this token. Idempotent.
    ///
    /// Sequentially consistent so that anything stored before the cancel
    /// (e.g. an embedder's error slot) is visible to every thread that
    /// observes the cancellation.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }
}

/// Reads per batch when [`EngineOptions::batch_size`] is left at 0.
pub(crate) const DEFAULT_BATCH_SIZE: usize = 16;

/// The tuning knobs of every engine in the workspace — the one-shot
/// [`MapEngine`] and the serve-mode [`MultiEngine`](super::MultiEngine)
/// both take this builder directly. A zero field means "derive the
/// default" (all cores, 16-read batches, a `2 × threads` queue, a
/// `4 × queue_depth` admission limit). Each setter says which engines read
/// it.
///
/// # Examples
///
/// ```
/// use segram_core::{EngineOptions, MapEngine, SegramConfig, SegramMapper};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
/// let options = EngineOptions::new().threads(4).queue_depth(8).both_strands(true);
/// let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// let (_, report) = MapEngine::new(&mapper, options).map_batch(&reads);
/// assert_eq!(report.threads, 4);
/// assert_eq!(report.batch_size, 16);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    pub(crate) threads: usize,
    pub(crate) batch_size: usize,
    pub(crate) queue_depth: usize,
    pub(crate) max_queued: usize,
    pub(crate) both_strands: bool,
    pub(crate) cancel: CancelToken,
}

impl EngineOptions {
    /// Default options: every field derived (see the type docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker thread count (0 = all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Reads per work item; batching amortizes scheduler synchronization
    /// (0 = 16). The multi-request engine batches on the wire and does not
    /// read this.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Per-request input-queue capacity in batches (0 = `2 × threads`):
    /// how far a producer can run ahead of the workers. It also caps the
    /// released batches waiting for the reader.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Multi-request admission limit in total queued batches
    /// (0 = `4 ×` queue depth). Admission is a multi-request concept; the
    /// one-shot engine does not read this.
    pub fn max_queued(mut self, max_queued: usize) -> Self {
        self.max_queued = max_queued;
        self
    }

    /// Map each read on both strands and keep the better mapping.
    pub fn both_strands(mut self, enabled: bool) -> Self {
        self.both_strands = enabled;
        self
    }

    /// Shared stop flag of a one-shot run: cancel it (from the sink, the
    /// input stream, or anywhere else holding a clone) and the run winds
    /// down promptly. The multi-request engine cancels per request and
    /// does not read this.
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The worker count these options ask for (0 resolved to all cores).
    pub(crate) fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// The per-queue capacity for `threads` workers (0 resolved to
    /// `2 × threads`).
    pub(crate) fn resolved_queue_depth(&self, threads: usize) -> usize {
        match self.queue_depth {
            0 => threads * 2,
            n => n,
        }
    }
}

/// Poison-tolerant lock: a panic inside mapping is already captured as a
/// request failure, so other threads keep the lock usable instead of dying
/// on the poison flag.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine's per-read result: the mapping (if any), the strand it was
/// found on, and this read's per-stage statistics (the inputs SAM/GAF
/// rendering needs, e.g. for MAPQ estimation).
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The winning mapping, if the read mapped.
    pub mapping: Option<Mapping>,
    /// Strand the mapping was found on ([`Strand::Forward`] unless
    /// [`EngineOptions::both_strands`] found a better reverse mapping).
    pub strand: Strand,
    /// This read's pipeline statistics.
    pub stats: MapStats,
}

/// Aggregate of one engine run, whatever the schedule.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// The backend that produced this run
    /// ([`ReadMapper::backend_name`]), so reports and artifacts always
    /// name the mapper behind the numbers.
    pub backend: &'static str,
    /// Reads released to the sink.
    pub reads: usize,
    /// Reads that produced a mapping.
    pub mapped: usize,
    /// Batches the workers actually mapped — counted at worker
    /// completion, not at producer enqueue, so a cancelled run reports
    /// the work that happened rather than the work that was queued.
    pub batches: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Per-stage statistics summed over every read and worker.
    pub stats: MapStats,
    /// Queue depth and wait counters for this run.
    pub queue: QueueStats,
    /// Reads per batch the producer cut the stream into (the last batch
    /// may be shorter).
    pub batch_size: usize,
    /// One entry per worker pool of a one-shot run (a fanout run has one;
    /// empty for a [`MultiEngine`](super::MultiEngine) request, whose
    /// pools belong to the engine, not the request).
    pub pools: Vec<PoolReport>,
}

impl EngineReport {
    /// Batches the route policy sent to a pool of its choice.
    pub fn routed(&self) -> u64 {
        self.pools.iter().map(|pool| pool.routed).sum()
    }

    /// Batches the route policy declined, spilled to the least-loaded pool.
    pub fn spilled(&self) -> u64 {
        self.pools.iter().map(|pool| pool.spilled).sum()
    }

    /// Batches a worker mapped although they were tagged for another pool.
    pub fn stolen(&self) -> u64 {
        self.pools.iter().map(|pool| pool.stolen).sum()
    }
}

impl Default for EngineReport {
    fn default() -> Self {
        Self {
            backend: "segram",
            reads: 0,
            mapped: 0,
            batches: 0,
            threads: 0,
            stats: MapStats::default(),
            queue: QueueStats::default(),
            batch_size: 0,
            pools: Vec::new(),
        }
    }
}

/// Depth and wait counters of the scheduler — the backpressure
/// observability that locates the bottleneck: the producer side (input
/// queue, producer vs workers) and the reader side (released batches,
/// workers vs the writer thread).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// High-water mark of queued input batches.
    pub max_depth: usize,
    /// Times the producer blocked on a full input queue.
    pub producer_waits: u64,
    /// Total time the producer spent blocked on a full input queue.
    pub producer_wait: Duration,
    /// Times a worker found nothing it could pick and waited (the end of
    /// the stream is not counted). One idle period counts once.
    pub worker_waits: u64,
    /// Total time workers spent waiting that way.
    pub worker_wait: Duration,
    /// High-water mark of released batches waiting for the reader.
    pub output_max_depth: usize,
    /// Times the request was held back with input queued: it held
    /// `queue_depth + threads` batches between pickup and the reader, so
    /// the workers skipped it — a slow reader or one slow batch is the
    /// bottleneck.
    pub output_stall_waits: u64,
    /// Total time the request spent held back that way.
    pub output_stall_wait: Duration,
    /// Times the reader blocked waiting for the next released batch
    /// (mapping is the bottleneck; excludes the end-of-stream drain).
    pub writer_waits: u64,
    /// Total time the reader spent blocked.
    pub writer_wait: Duration,
}

/// Per-pool counters of a pool-routed engine; a fanout run is one pool.
#[derive(Clone, Debug, Default)]
pub struct PoolReport {
    /// Worker threads serving this pool.
    pub workers: usize,
    /// Batches this pool's workers mapped, stolen ones included.
    pub batches: u64,
    /// Batches the route hook tagged for this pool.
    pub routed: u64,
    /// Batches tagged for this pool because the hook declined and it was
    /// the least loaded.
    pub spilled: u64,
    /// Batches this pool's workers mapped although they were tagged for
    /// another pool.
    pub stolen: u64,
    /// `max_depth` = most batches queued for this pool at once, and the
    /// `worker_*` waits of this pool's workers.
    pub queue: QueueStats,
}

/// Maps one read under the engines' shared strand policy: both strands
/// keeping the better mapping, or forward only.
pub(crate) fn map_one<M: ReadMapper + ?Sized>(
    mapper: &M,
    both_strands: bool,
    read: &DnaSeq,
) -> ReadOutcome {
    if both_strands {
        let (best, stats) = mapper.map_read_both(read);
        let (mapping, strand) = match best {
            Some((mapping, strand)) => (Some(mapping), strand),
            None => (None, Strand::Forward),
        };
        ReadOutcome {
            mapping,
            strand,
            stats,
        }
    } else {
        let (mapping, stats) = mapper.map_read(read);
        ReadOutcome {
            mapping,
            strand: Strand::Forward,
            stats,
        }
    }
}

/// Shuts the scheduler down when the run ends — normally, or by a panic
/// of the producer's iterator — so the scope can join its workers.
struct StopOnDrop<'a, H: Deref, T, R>(&'a Shared<H, T, R>);

impl<H: Deref, T, R> Drop for StopOnDrop<'_, H, T, R> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// The batched, multi-threaded, order-preserving mapping engine, generic
/// over the [`ReadMapper`] it drives (the coordinate-range
/// [`ShardedIndex`](crate::ShardedIndex), the reference [`SegramMapper`],
/// an adapted baseline).
///
/// # Examples
///
/// ```
/// use segram_core::{EngineOptions, MapEngine, SegramConfig, SegramMapper};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
/// let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2));
/// let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// let (outcomes, report) = engine.map_batch(&reads);
/// assert_eq!(outcomes.len(), reads.len());
/// assert_eq!(report.reads, reads.len());
/// assert!(report.mapped > 0);
/// ```
pub struct MapEngine<'m, M: ReadMapper = SegramMapper> {
    mapper: &'m M,
    options: EngineOptions,
    pools: usize,
    route: Option<RouteHook<M>>,
}

// Manual impl: the route hook is a closure.
impl<M: ReadMapper> fmt::Debug for MapEngine<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MapEngine")
            .field("options", &self.options)
            .field("pools", &self.pools)
            .finish_non_exhaustive()
    }
}

impl<'m, M: ReadMapper> MapEngine<'m, M> {
    /// Binds the engine to a mapper (the fanout schedule: one pool).
    pub fn new(mapper: &'m M, options: EngineOptions) -> Self {
        Self {
            mapper,
            options,
            pools: 1,
            route: None,
        }
    }

    /// Pool routing, as [`MultiEngine::with_routing`](super::MultiEngine::with_routing)
    /// does it: workers split into `pools` pools (clamped to
    /// `1..=threads`), `route` tags each batch with a preferred pool, and
    /// a worker with nothing of its own steals. The elastic schedule is
    /// this with [`elastic_route`](super::elastic_route). Output bytes do
    /// not depend on it.
    pub fn with_routing(mut self, pools: usize, route: RouteHook<M>) -> Self {
        self.pools = pools;
        self.route = Some(route);
        self
    }

    /// Streams `reads` through the engine, calling `sink(item, outcome)`
    /// once per read **in input order** on a dedicated writer thread (see
    /// the module docs). Returns the run's totals with one [`PoolReport`]
    /// per pool.
    ///
    /// # Panics
    ///
    /// If the sink panics, its payload is re-raised from this call; if
    /// the mapper panics, its message is. Either way the run is cancelled
    /// and every thread has wound down first.
    pub fn map_stream<T, R, F>(
        &self,
        mut reads: impl Iterator<Item = T>,
        read_of: R,
        sink: F,
    ) -> EngineReport
    where
        T: Send,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        let batch_size = match self.options.batch_size {
            0 => DEFAULT_BATCH_SIZE,
            n => n,
        };
        let cancel = &self.options.cancel;
        let shared = Shared::new(read_of, &self.options, self.pools, self.route.clone());
        let id = shared
            .open(self.mapper, cancel.clone(), Priority::Normal, None)
            .expect("a fresh scheduler admits its one request");
        let shared = &shared;
        let (sink_panic, finished) = std::thread::scope(|scope| {
            let _stop = StopOnDrop(shared);
            for worker in 0..shared.threads {
                scope.spawn(move || worker_loop(shared, worker % shared.pools));
            }
            let writer = scope.spawn(move || {
                let mut sink = sink;
                let drained = catch_unwind(AssertUnwindSafe(|| {
                    while let Some(batch) = shared.next_output(id) {
                        for (item, outcome) in batch {
                            sink(item, outcome);
                        }
                    }
                }));
                if drained.is_err() {
                    shared.cancel(id, false);
                }
                drained
            });
            while !cancel.is_cancelled() {
                let batch: Vec<T> = reads.by_ref().take(batch_size).collect();
                if batch.is_empty() || !shared.push(id, self.mapper, batch) {
                    break;
                }
            }
            shared.finish_input(id);
            let drained = writer.join().expect("the writer catches the sink's panic");
            (drained.err(), shared.finish(id))
        });
        if let Some(payload) = sink_panic {
            resume_unwind(payload);
        }
        let mut report = finished.unwrap_or_else(|failed| resume_unwind(Box::new(failed.message)));
        report.batch_size = batch_size;
        report.pools = shared.pool_reports();
        for pool in &report.pools {
            report.queue.worker_waits += pool.queue.worker_waits;
            report.queue.worker_wait += pool.queue.worker_wait;
        }
        report
    }

    /// Maps a slice of reads, returning the outcomes in input order plus
    /// the aggregate report (the batch-oriented convenience entry point).
    pub fn map_batch(&self, reads: &[DnaSeq]) -> (Vec<ReadOutcome>, EngineReport) {
        let mut outcomes = Vec::with_capacity(reads.len());
        let report = self.map_stream(
            reads.iter(),
            |read| *read,
            |_, outcome| outcomes.push(outcome),
        );
        (outcomes, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegramConfig;
    use segram_sim::DatasetConfig;
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    fn setup() -> (segram_sim::Dataset, SegramMapper) {
        let dataset = DatasetConfig::tiny(91).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        (dataset, mapper)
    }

    #[test]
    fn outcomes_preserve_input_order_across_thread_counts() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let serial = MapEngine::new(&mapper, EngineOptions::new().threads(1));
        let (base, base_report) = serial.map_batch(&reads);
        assert_eq!(base_report.reads, reads.len());
        for threads in [2usize, 4] {
            // force interleaving across workers
            let config = EngineOptions::new().threads(threads).batch_size(3);
            let engine = MapEngine::new(&mapper, config);
            let (outcomes, report) = engine.map_batch(&reads);
            assert_eq!(report.threads, threads);
            assert_eq!(report.reads, reads.len());
            assert_eq!(report.mapped, base_report.mapped);
            for (a, b) in base.iter().zip(&outcomes) {
                assert_eq!(
                    a.mapping
                        .as_ref()
                        .map(|m| (m.linear_start, m.alignment.edit_distance)),
                    b.mapping
                        .as_ref()
                        .map(|m| (m.linear_start, m.alignment.edit_distance)),
                );
                assert_eq!(a.strand, b.strand);
            }
        }
    }

    #[test]
    fn tiny_queue_backpressure_still_preserves_order() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, _) = MapEngine::new(&mapper, EngineOptions::new().threads(1)).map_batch(&reads);
        // One-read batches through a one-slot queue with four workers:
        // maximum contention on the input queue and on the bound
        // (max_ahead = 5 with 20 batches in flight).
        let config = EngineOptions::new().threads(4).batch_size(1).queue_depth(1);
        let engine = MapEngine::new(&mapper, config);
        let (outcomes, report) = engine.map_batch(&reads);
        assert_eq!(report.reads, reads.len());
        assert_eq!(report.batches, reads.len());
        for (a, b) in base.iter().zip(&outcomes) {
            assert_eq!(
                a.mapping.as_ref().map(|m| m.linear_start),
                b.mapping.as_ref().map(|m| m.linear_start),
            );
        }
    }

    #[test]
    fn per_stage_stats_aggregation_matches_serial_sums() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();

        // Serial reference: sum per-read stats by hand.
        let mut serial = MapStats::default();
        let mut serial_mapped = 0usize;
        for read in &reads {
            let (mapping, stats) = mapper.map_read(read);
            serial.merge(&stats);
            if mapping.is_some() {
                serial_mapped += 1;
            }
        }

        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(4));
        let (_, report) = engine.map_batch(&reads);
        // Counts are deterministic and must match the serial sums exactly;
        // durations are wall-clock measurements, so only their presence is
        // checked.
        assert_eq!(report.mapped, serial_mapped);
        assert_eq!(report.stats.minimizers, serial.minimizers);
        assert_eq!(report.stats.filtered_minimizers, serial.filtered_minimizers);
        assert_eq!(report.stats.seed_locations, serial.seed_locations);
        assert_eq!(report.stats.regions_aligned, serial.regions_aligned);
        assert_eq!(report.stats.regions_filtered, serial.regions_filtered);
        assert_eq!(report.stats.total_region_len, serial.total_region_len);
        assert!(report.stats.seeding > Duration::ZERO);
        assert!(report.stats.alignment > Duration::ZERO);
    }

    #[test]
    fn prefiltered_engine_accounts_filtering_time_separately() {
        let dataset = DatasetConfig::tiny(93).illumina(100);
        let config =
            SegramConfig::short_reads().with_prefilter(segram_filter::FilterSpec::cascade());
        let mapper = SegramMapper::new(dataset.graph().clone(), config);
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert!(report.stats.filtering > Duration::ZERO);
        let fraction = report.stats.alignment_fraction();
        assert!(fraction > 0.0 && fraction < 1.0);
    }

    #[test]
    fn queue_stats_observe_depth_and_waits() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        // A one-slot queue with one-read batches maximizes contention: the
        // producer must block while workers drain.
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(1);
        let engine = MapEngine::new(&mapper, config);
        let (_, report) = engine.map_batch(&reads);
        assert!(report.queue.max_depth >= 1);
        assert!(
            report.queue.max_depth <= 1,
            "bounded queue must bound depth"
        );
        // With 20 single-read batches through one slot, someone must have
        // waited at least once on either side.
        assert!(
            report.queue.producer_waits + report.queue.worker_waits > 0,
            "contended run recorded no waits: {:?}",
            report.queue
        );
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let (_, mapper) = setup();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(3));
        let report = engine.map_stream(std::iter::empty::<DnaSeq>(), |r| r, |_, _| {});
        assert_eq!(report.reads, 0);
        assert_eq!(report.batches, 0);
        assert_eq!(report.mapped, 0);
    }

    #[test]
    fn report_names_the_backend() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset
            .reads
            .iter()
            .map(|r| r.seq.clone())
            .take(3)
            .collect();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert_eq!(report.backend, "segram");
        assert_eq!(EngineReport::default().backend, "segram");
    }

    /// A [`ReadMapper`] that sleeps per read: cancellation and backpressure
    /// tests need a mapper slow enough that the producer is still feeding
    /// (and batches still queued) when it matters.
    struct SlowMapper {
        graph: segram_graph::GenomeGraph,
        delay: Duration,
    }

    impl SlowMapper {
        fn with_delay(delay: Duration) -> Self {
            let dataset = DatasetConfig::tiny(97).illumina(100);
            Self {
                graph: dataset.graph().clone(),
                delay,
            }
        }
    }

    impl ReadMapper for SlowMapper {
        fn graph(&self) -> &segram_graph::GenomeGraph {
            &self.graph
        }

        fn map_read(&self, _read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            std::thread::sleep(self.delay);
            (None, MapStats::default())
        }

        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (mapping, stats) = self.map_read(read);
            (mapping.map(|m| (m, Strand::Forward)), stats)
        }
    }

    fn slow_engine_reads(count: usize) -> Vec<DnaSeq> {
        let dataset = DatasetConfig::tiny(97).illumina(100);
        let read = dataset.reads[0].seq.clone();
        vec![read; count]
    }

    #[test]
    fn work_queue_depth_high_water_never_exceeds_capacity() {
        // Slow workers behind a 3-slot input queue: the producer runs
        // ahead until the queue is full, and never past it.
        let mapper = SlowMapper::with_delay(Duration::from_millis(1));
        let reads = slow_engine_reads(20);
        let config = EngineOptions::new().threads(1).batch_size(1).queue_depth(3);
        let (_, report) = MapEngine::new(&mapper, config).map_batch(&reads);
        assert_eq!(report.reads, 20);
        assert!(report.queue.max_depth >= 1);
        assert!(
            report.queue.max_depth <= 3,
            "high-water {} exceeds capacity 3",
            report.queue.max_depth
        );
        assert_eq!(report.pools[0].queue.max_depth, report.queue.max_depth);
    }

    #[test]
    fn queue_wait_counters_are_consistent() {
        // A slow worker behind a one-slot queue must block the producer;
        // every recorded wait carries recorded blocked time, and vice
        // versa, on every side.
        let mapper = SlowMapper::with_delay(Duration::from_millis(2));
        let reads = slow_engine_reads(5);
        let config = EngineOptions::new().threads(1).batch_size(1).queue_depth(1);
        let (_, report) = MapEngine::new(&mapper, config).map_batch(&reads);
        let queue = report.queue;
        assert!(
            queue.producer_waits >= 1,
            "slow consumer on a 1-slot queue must block the producer: {queue:?}"
        );
        assert_eq!(
            queue.producer_waits > 0,
            queue.producer_wait > Duration::ZERO
        );
        assert_eq!(queue.worker_waits > 0, queue.worker_wait > Duration::ZERO);
        assert_eq!(queue.writer_waits > 0, queue.writer_wait > Duration::ZERO);
        assert_eq!(
            queue.output_stall_waits > 0,
            queue.output_stall_wait > Duration::ZERO
        );
        assert_eq!(queue.max_depth, 1);
    }

    #[test]
    fn worker_wait_is_counted_only_for_real_starvation() {
        // A producer slower than the worker starves it: every gap between
        // reads is one counted wait with its blocked time.
        let (dataset, mapper) = setup();
        let read = dataset.reads[0].seq.clone();
        let trickle = (0..4).map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            read.clone()
        });
        let config = EngineOptions::new().threads(1).batch_size(1);
        let report = MapEngine::new(&mapper, config).map_stream(trickle, |r| r, |_, _| {});
        assert!(report.queue.worker_waits >= 1, "{:?}", report.queue);
        assert!(report.queue.worker_wait >= Duration::from_millis(10));

        // End of stream is not starvation: workers that only ever wait
        // for the run to end record nothing.
        let empty = MapEngine::new(&mapper, EngineOptions::new().threads(2)).map_stream(
            std::iter::empty::<DnaSeq>(),
            |r| r,
            |_, _| {},
        );
        assert_eq!(empty.queue.worker_waits, 0);
        assert_eq!(empty.queue.worker_wait, Duration::ZERO);
    }

    #[test]
    fn sink_cancellation_stops_producer_and_workers_promptly() {
        // 100 reads x 5 ms = 500 ms of serial mapping; the sink cancels
        // on the very first outcome, so a prompt stop maps only the few
        // batches that were already in flight.
        let mapper = SlowMapper::with_delay(Duration::from_millis(5));
        let reads = slow_engine_reads(100);
        let cancel = CancelToken::new();
        let config = EngineOptions::new()
            .threads(2)
            .cancel(cancel.clone())
            .batch_size(1)
            .queue_depth(2);
        let engine = MapEngine::new(&mapper, config);

        let produced = std::cell::Cell::new(0usize);
        let mut reads_iter = reads.iter();
        let stream = std::iter::from_fn(|| {
            let next = reads_iter.next()?;
            produced.set(produced.get() + 1);
            Some(next)
        });
        let mut sunk = 0usize;
        let started = Instant::now();
        let report = engine.map_stream(
            stream,
            |read| *read,
            |_, _| {
                sunk += 1;
                cancel.cancel(); // the CLI does this on a write error
            },
        );
        let elapsed = started.elapsed();

        assert!(
            produced.get() < reads.len(),
            "producer must stop early, consumed {}/{}",
            produced.get(),
            reads.len()
        );
        // Truthful accounting: batches counts mapped work only, and the
        // released reads can never exceed what was produced.
        assert!(report.batches <= produced.get(), "{report:?}");
        assert!(report.reads <= produced.get(), "{report:?}");
        assert!(sunk >= 1);
        assert!(
            elapsed < Duration::from_millis(300),
            "cancelled run still took {elapsed:?} (serial estimate 500 ms)"
        );
    }

    #[test]
    fn decode_failure_cancels_the_run() {
        // The producer decodes (as `segram map` does): a malformed record
        // records its error out of band, cancels, and ends the stream.
        let mapper = SlowMapper::with_delay(Duration::from_millis(2));
        let reads = slow_engine_reads(60);
        let cancel = CancelToken::new();
        let config = EngineOptions::new()
            .threads(2)
            .cancel(cancel.clone())
            .batch_size(1)
            .queue_depth(2);
        let engine = MapEngine::new(&mapper, config);
        let decode_failures = AtomicUsize::new(0);
        let decoded = reads.iter().enumerate().map_while(|(i, read)| {
            if i == 3 {
                decode_failures.fetch_add(1, Ordering::Relaxed);
                cancel.cancel();
                return None;
            }
            Some(read)
        });
        let report = engine.map_stream(decoded, |read| *read, |_, _| {});
        assert_eq!(decode_failures.load(Ordering::Relaxed), 1);
        assert!(cancel.is_cancelled(), "decode failure must cancel the run");
        assert!(
            report.reads < reads.len(),
            "run must not map the whole stream: {report:?}"
        );
    }

    #[test]
    fn decode_errors_settle_to_the_files_first_failure() {
        // Two malformed records (stream indices 5 and 9) in a 16-record
        // stream, two workers, batch_size 8. The engine pulls its input on
        // the calling thread, in order, and never past a cancellation, so
        // the first failure is the only one the decoder ever sees — the
        // file's first malformed record, whatever the interleaving.
        let (dataset, mapper) = setup();
        let read = dataset.reads[0].seq.clone();
        for attempt in 0..8 {
            let cancel = CancelToken::new();
            let config = EngineOptions::new()
                .threads(2)
                .cancel(cancel.clone())
                .batch_size(8)
                .queue_depth(4);
            let engine = MapEngine::new(&mapper, config);
            let mut errors = Vec::new();
            let decoded = (0..16usize).map_while(|i| {
                if cancel.is_cancelled() {
                    return None;
                }
                if i == 5 || i == 9 {
                    errors.push(i);
                    cancel.cancel();
                    return None;
                }
                Some(read.clone())
            });
            engine.map_stream(decoded, |r| r, |_, _| {});
            assert_eq!(
                errors,
                vec![5],
                "attempt {attempt}: the decode error must be the file's first malformed record"
            );
        }
    }

    #[test]
    fn already_cancelled_token_maps_nothing() {
        let (_, mapper) = setup();
        let cancel = CancelToken::new();
        cancel.cancel();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2).cancel(cancel));
        let reads = slow_engine_reads(10);
        let report = engine.map_stream(reads.iter(), |r| *r, |_, _| {});
        assert_eq!(report.reads, 0);
        assert_eq!(report.batches, 0);
    }

    #[test]
    fn sink_panic_surfaces_the_original_payload_once() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let config = EngineOptions::new().threads(4).batch_size(1);
        let engine = MapEngine::new(&mapper, config);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map_stream(reads.iter(), |r| *r, |_, _| panic!("sink exploded"));
        }));
        let payload = result.expect_err("sink panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is the original message");
        assert!(
            message.contains("sink exploded"),
            "expected the sink's own panic, got {message:?}"
        );
    }

    #[test]
    fn a_mapper_panic_surfaces_its_message() {
        // The worker loop turns a mapping panic into the request's failure;
        // the one-shot driver re-raises its message once the run is down.
        let mapper = SlowMapper::with_delay(Duration::ZERO);
        let reads = slow_engine_reads(6);
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2).batch_size(2));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map_stream(
                reads.iter(),
                |read| {
                    assert!(read.len() > 1_000, "mapper exploded");
                    *read
                },
                |_, _| {},
            );
        }));
        let payload = result.expect_err("the mapping panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("mapper exploded"), "{message:?}");
    }

    #[test]
    fn sink_runs_on_one_dedicated_thread_in_input_order() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        // interleave batches across workers
        let config = EngineOptions::new().threads(4).batch_size(2);
        let engine = MapEngine::new(&mapper, config);
        let caller = std::thread::current().id();
        let mut sink_threads = Vec::new();
        let mut order = Vec::new();
        engine.map_stream(
            reads.iter().enumerate(),
            |(_, read)| *read,
            |(index, _), _| {
                sink_threads.push(std::thread::current().id());
                order.push(index);
            },
        );
        assert_eq!(order, (0..reads.len()).collect::<Vec<_>>());
        assert!(
            sink_threads.iter().all(|&id| id == sink_threads[0]),
            "sink must run on exactly one thread"
        );
        assert_ne!(
            sink_threads[0], caller,
            "the writer is a dedicated thread, not the producer"
        );
    }

    #[test]
    fn writer_channel_stats_observe_depth_and_stalls() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        // At most queue_depth released batches wait for the writer.
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(1);
        let engine = MapEngine::new(&mapper, config);
        let mut outcomes = Vec::new();
        let report = engine.map_stream(
            reads.iter(),
            |r| *r,
            |_, outcome| {
                // A deliberately slow sink: the bound must hold back and
                // stall the workers, never grow the output.
                std::thread::sleep(Duration::from_millis(2));
                outcomes.push(outcome);
            },
        );
        assert_eq!(outcomes.len(), reads.len());
        assert!(report.queue.output_max_depth >= 1);
        assert!(
            report.queue.output_max_depth <= 1,
            "the bound must cap the released batches: {:?}",
            report.queue
        );
        assert!(
            report.queue.output_stall_waits > 0,
            "slow writer must stall workers: {:?}",
            report.queue
        );
        // A recorded wait implies recorded blocked time, and vice versa.
        assert_eq!(
            report.queue.output_stall_waits > 0,
            report.queue.output_stall_wait > Duration::ZERO
        );
        assert_eq!(
            report.queue.writer_waits > 0,
            report.queue.writer_wait > Duration::ZERO
        );
    }

    /// A [`ReadMapper`] that is slow only on one sentinel read: it waits
    /// until `ahead` other reads have been mapped, then sleeps `delay` —
    /// the tool for making exactly one batch slow while the others are
    /// known to have run ahead of it.
    struct SelectiveSlowMapper {
        graph: segram_graph::GenomeGraph,
        slow: DnaSeq,
        ahead: usize,
        delay: Duration,
        fast_mapped: AtomicUsize,
    }

    impl SelectiveSlowMapper {
        fn new(ahead: usize, delay: Duration) -> (Self, DnaSeq, DnaSeq) {
            let dataset = DatasetConfig::tiny(97).illumina(100);
            let slow = dataset.reads[0].seq.clone();
            let fast = dataset.reads[1].seq.clone();
            assert_ne!(slow, fast);
            let mapper = Self {
                graph: dataset.graph().clone(),
                slow: slow.clone(),
                ahead,
                delay,
                fast_mapped: AtomicUsize::new(0),
            };
            (mapper, slow, fast)
        }
    }

    impl ReadMapper for SelectiveSlowMapper {
        fn graph(&self) -> &segram_graph::GenomeGraph {
            &self.graph
        }

        fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            if *read == self.slow {
                let waited = Instant::now();
                while self.fast_mapped.load(Ordering::SeqCst) < self.ahead
                    && waited.elapsed() < Duration::from_secs(10)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(self.delay);
            } else {
                self.fast_mapped.fetch_add(1, Ordering::SeqCst);
            }
            (None, MapStats::default())
        }

        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (mapping, stats) = self.map_read(read);
            (mapping.map(|m| (m, Strand::Forward)), stats)
        }
    }

    #[test]
    fn a_slow_batch_holds_back_the_workers_that_ran_ahead() {
        // Batch 0 maps for 400 ms once batches 1 and 2 are mapped, so with
        // queue_depth 1 and 2 threads (max_ahead = 3) the request is held
        // back, its next batch queued, for the rest of the slow batch.
        let (mapper, slow, fast) = SelectiveSlowMapper::new(2, Duration::from_millis(400));
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(1);
        let engine = MapEngine::new(&mapper, config);
        let mut reads = vec![slow];
        reads.extend(std::iter::repeat_with(|| fast.clone()).take(7));
        let (_, report) = engine.map_batch(&reads);
        let queue = report.queue;
        assert!(
            queue.output_stall_waits >= 1,
            "the request must be held back behind the slow batch: {queue:?}"
        );
        assert!(
            queue.output_stall_wait >= Duration::from_millis(200),
            "the hold spans most of the slow batch: {queue:?}"
        );
        assert_eq!(
            queue.output_stall_waits > 0,
            queue.output_stall_wait > Duration::ZERO
        );
    }

    #[test]
    fn a_lopsided_route_is_stolen_instead_of_idling_a_pool() {
        // Every batch is tagged for pool 0, and batch 0 does not finish
        // before the other five are mapped: the worker busy with it cannot
        // have mapped them, so the other pool's worker stole at least one.
        let (mapper, slow, fast) = SelectiveSlowMapper::new(5, Duration::ZERO);
        let mut reads = vec![slow];
        reads.extend(std::iter::repeat_with(|| fast.clone()).take(5));
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(8);
        let all_to_zero: RouteHook<SelectiveSlowMapper> = Arc::new(|_, _| Some(0));
        let (outcomes, report) = MapEngine::new(&mapper, config)
            .with_routing(2, all_to_zero)
            .map_batch(&reads);
        assert_eq!(outcomes.len(), reads.len());
        assert_eq!(report.routed(), reads.len() as u64, "{:?}", report.pools);
        assert_eq!(report.pools[0].routed, reads.len() as u64);
        assert!(report.pools[1].batches >= 1, "{:?}", report.pools);
        assert_eq!(report.pools[1].stolen, report.pools[1].batches);
        assert_eq!(report.stolen(), report.pools[1].batches);
    }

    #[test]
    fn unparked_runs_record_no_park_stalls() {
        // Plenty of headroom (two batches, queue_depth 4): no worker is
        // ever held back, so the stall counter stays zero.
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert_eq!(report.queue.output_stall_waits, 0, "{:?}", report.queue);
        assert_eq!(report.queue.output_stall_wait, Duration::ZERO);
    }

    #[test]
    fn both_strand_engine_recovers_reverse_reads() {
        let dataset = DatasetConfig::tiny(95).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        let stranded = segram_sim::simulate_stranded_reads(
            dataset.graph(),
            &segram_sim::ReadConfig::short_reads(10, 100, 96),
            1.0,
        );
        let reads: Vec<DnaSeq> = stranded.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2).both_strands(true));
        let (outcomes, report) = engine.map_batch(&reads);
        assert!(report.mapped >= 8, "only {} of 10 mapped", report.mapped);
        assert!(outcomes
            .iter()
            .filter_map(|o| o.mapping.as_ref().map(|_| o.strand))
            .any(|s| s == Strand::Reverse));
    }

    #[test]
    fn fixed_runs_report_their_batch_size_as_the_trajectory() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let config = EngineOptions::new().threads(2).batch_size(5);
        let engine = MapEngine::new(&mapper, config);
        let (_, report) = engine.map_batch(&reads);
        assert_eq!(report.batch_size, 5);
        assert_eq!(report.batches, reads.len().div_ceil(5));
    }
}
