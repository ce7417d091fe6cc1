//! The batched, multi-threaded, order-preserving map engine with
//! overlapped IO — the workspace's one one-shot stream loop.
//!
//! [`MapEngine`] is the production driver around any [`ReadMapper`]: it
//! consumes a stream of reads, groups them into batches, hands the batches
//! to `std::thread::scope` workers through bounded work queues (so an
//! arbitrarily long input stream never piles up in memory), and emits
//! per-read outcomes to a sink **in input order**, whatever the worker
//! interleaving. Per-stage [`MapStats`] are aggregated across all workers.
//!
//! One loop, two schedules. [`MapEngine::map_routed_stream`] runs
//! `pools >= 1` bounded queues: worker `w` serves queue `w % pools`, and a
//! producer-side `route` hook names the queue of each batch (`None`, or a
//! named queue that is full while another has room, spills it to the
//! shortest one). The *fanout* schedule is `pools = 1`
//! ([`MapEngine::map_raw_stream`] and its wrappers); the *elastic*
//! schedule ([`ElasticScheduler`](super::ElasticScheduler)) is a routing
//! policy over this same loop — it owns no thread, queue or reorder buffer
//! of its own. Every pool releases through the one shared reorder buffer
//! and the one writer thread, so output bytes cannot depend on the pool
//! count or on any routing decision.
//!
//! The read is the unit of work: a raw unit is one undecoded read, a batch
//! is [`EngineOptions::batch_size`] of them, and the loop never sees how
//! they were transported — the producer's iterator is the transport stage
//! (`segram_io::FastqFramer` slicing record boundaries out of plain bytes,
//! `segram_io::BgzfFastqFramer` inflating BGZF members on the way), and
//! both hand on the same records.
//!
//! Mapping workers never touch IO. On the input side, `decode` runs in the
//! worker stage (timed into [`MapStats::decode`]), so the producer thread
//! does transport work only. On the output side, the reorder buffer never
//! calls the sink under its lock: released batches are handed — still
//! strictly in input order — over a bounded channel to a dedicated writer
//! thread, the only thread that runs the sink. The [`CancelToken`] in
//! [`EngineOptions`] stops the
//! producer *and* the workers promptly when either end fails (sink write
//! error, input stream error) instead of mapping every queued batch first.
//!
//! Ordering guarantee: batches are numbered by the producer and the
//! reorder buffer releases them to the writer strictly sequentially, so
//! the output of `threads = N` is byte-identical to `threads = 1` for any
//! `N` (the mapper itself is deterministic). `ci.sh` enforces this end to
//! end, including through the overlapped framer+decode path.
//!
//! Every bounded queue exposes depth/wait counters ([`QueueStats`], per
//! pool in [`PoolReport`]) to locate the producer-vs-worker-vs-writer
//! bottleneck.
//!
//! Failure model: the first panic anywhere in the pipeline (decode,
//! mapper, sink) is captured, the run is cancelled, and the original
//! payload is re-raised once from the calling thread — not buried under
//! the poisoned-lock panic cascade every other worker would otherwise die
//! with. The multi-request [`MultiEngine`](super::MultiEngine) shares the
//! per-read strand policy ([`map_one`]) and the reorder release
//! ([`Reorder::release`]) with this loop and nothing else: it isolates a
//! panic to one request instead of re-raising it.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use segram_graph::DnaSeq;
use segram_sim::Strand;

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
    /// (e.g. the engine's decode-failure flag, or an embedder's error
    /// slot) is visible to every thread that observes the cancellation.
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
/// [`MapEngine`] / [`ElasticScheduler`](super::ElasticScheduler) and the
/// serve-mode [`MultiEngine`](super::MultiEngine) all take this builder
/// directly. A zero field means "derive the default" (all cores, 16-read
/// batches, a `2 × threads` queue, a `4 × queue_depth` admission limit).
/// Each setter says which engines read it.
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

    /// Reads per work item; batching amortizes queue synchronization
    /// (0 = 16). The multi-request engine batches on the wire and does not
    /// read this.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Bounded input-queue capacity in batches (0 = `2 × threads`): how
    /// far the producer can run ahead of the workers. One-shot engines use
    /// it per pool queue and for the ordered channel to the writer thread;
    /// the multi-request engine uses it per request.
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Multi-request admission limit in total queued batches
    /// (0 = `4 ×` queue depth). Admission is a multi-request concept; the
    /// one-shot engines do not read this.
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

/// Poison-tolerant lock: a panicking thread is already captured by the
/// engine's first-failure slot, so other threads keep the lock usable
/// instead of dying on the poison flag (the cascade this replaces).
/// Crate-visible because the multi-request engine shares the failure
/// model.
pub(crate) fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The first panic payload captured from any pipeline stage; later
/// failures (usually knock-on effects of the first) are dropped.
#[derive(Default)]
struct FirstFailure {
    slot: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl FirstFailure {
    fn record(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = relock(&self.slot);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take(&self) -> Option<Box<dyn Any + Send + 'static>> {
        relock(&self.slot).take()
    }
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
    /// Reads consumed from the input stream.
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
    /// Work-queue depth and wait counters for this run.
    pub queue: QueueStats,
    /// Reads per batch the producer cut the stream into (the last batch
    /// may be shorter).
    pub batch_size: usize,
    /// One entry per worker pool of a stream run (a fanout run has one;
    /// empty for a [`MultiEngine`](super::MultiEngine) request, whose
    /// pools belong to the engine, not the request).
    pub pools: Vec<PoolReport>,
    /// Shards the elastic schedule's live rebalancer moved between pools
    /// (0 under fanout).
    pub migrations: u64,
}

impl EngineReport {
    /// Batches the route policy sent to a pool of its choice.
    pub fn routed(&self) -> u64 {
        self.pools.iter().map(|pool| pool.routed).sum()
    }

    /// Batches the route policy declined, spilled to the shortest queue.
    pub fn spilled(&self) -> u64 {
        self.pools.iter().map(|pool| pool.spilled).sum()
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
            migrations: 0,
        }
    }
}

/// Depth/wait counters of the engine's two bounded queues — the
/// backpressure observability that locates the bottleneck at high thread
/// counts: the producer side (input queue, producer vs workers) and the
/// writer side (ordered output channel, workers vs the writer thread),
/// each with symmetric push/pop accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueStats {
    /// High-water mark of queued input batches.
    pub max_depth: usize,
    /// Times the producer blocked on a full input queue.
    pub producer_waits: u64,
    /// Total time the producer spent blocked on a full input queue.
    pub producer_wait: Duration,
    /// Times a worker blocked on an empty input queue (excluding the
    /// final end-of-stream drain).
    pub worker_waits: u64,
    /// Total time workers spent blocked on an empty input queue.
    pub worker_wait: Duration,
    /// High-water mark of released batches queued to the writer thread.
    pub output_max_depth: usize,
    /// Times a worker blocked handing a released batch to the full
    /// output channel (the writer is the bottleneck).
    pub output_stall_waits: u64,
    /// Total time workers spent blocked on the full output channel.
    pub output_stall_wait: Duration,
    /// Times the writer thread blocked on an empty output channel
    /// (mapping is the bottleneck; excludes the end-of-stream drain).
    pub writer_waits: u64,
    /// Total time the writer thread spent blocked on an empty channel.
    pub writer_wait: Duration,
    /// Times a worker genuinely parked on a full reorder buffer (ran too
    /// far ahead of a slow batch). One parked period counts once, however
    /// many 50 ms cancellation-poll wakeups it spans — so the counter
    /// stays an honest backpressure signal for admission control.
    pub park_waits: u64,
    /// Total time workers spent parked on a full reorder buffer.
    pub park_wait: Duration,
}

/// A bounded single-producer / multi-consumer batch queue (Mutex +
/// Condvar; no external dependencies). `push` blocks while the queue is
/// full, `pop` blocks while it is empty, and `close` wakes everyone so
/// drained workers observe end-of-stream. The stream loop runs one of
/// these per worker pool plus one as the writer channel.
struct WorkQueue<T> {
    inner: Mutex<WorkQueueInner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    // Wait accounting lives outside the mutex so blocked-time bookkeeping
    // never extends the critical section.
    producer_waits: AtomicU64,
    producer_wait_ns: AtomicU64,
    worker_waits: AtomicU64,
    worker_wait_ns: AtomicU64,
}

struct WorkQueueInner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
    /// High-water mark of `items.len()`.
    max_depth: usize,
}

impl<T> WorkQueue<T> {
    /// A queue holding at most `capacity` items (clamped to >= 1).
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(WorkQueueInner {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
                max_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            producer_waits: AtomicU64::new(0),
            producer_wait_ns: AtomicU64::new(0),
            worker_waits: AtomicU64::new(0),
            worker_wait_ns: AtomicU64::new(0),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Pushing onto a
    /// closed queue silently drops the item — the consumer has already
    /// decided the stream is over.
    fn push(&self, item: T) {
        let mut inner = relock(&self.inner);
        if inner.items.len() >= inner.capacity && !inner.closed {
            let blocked = Instant::now();
            while inner.items.len() >= inner.capacity && !inner.closed {
                inner = self
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.producer_waits.fetch_add(1, Ordering::Relaxed);
            self.producer_wait_ns
                .fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if inner.closed {
            return;
        }
        inner.items.push_back(item);
        inner.max_depth = inner.max_depth.max(inner.items.len());
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Dequeues the next item, blocking while the queue is empty;
    /// `None` once the queue is closed and drained.
    fn pop(&self) -> Option<T> {
        let mut inner = relock(&self.inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            // One blocked period counts as one wait, however many
            // (possibly spurious) wakeups it takes — mirroring the
            // producer-side accounting so the two columns compare.
            // End-of-stream wakeups (close with no work) are not
            // starvation and are not counted.
            let blocked = Instant::now();
            while inner.items.is_empty() && !inner.closed {
                inner = self
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if !inner.items.is_empty() {
                self.worker_waits.fetch_add(1, Ordering::Relaxed);
                self.worker_wait_ns
                    .fetch_add(blocked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
    }

    /// Current queued-item count — the live load signal behind the
    /// routed loop's shortest-queue spill decision.
    fn len(&self) -> usize {
        relock(&self.inner).items.len()
    }

    /// Snapshot of the queue's depth/wait counters (push side reported as
    /// `producer_*`, pop side as `worker_*`; callers remap for the output
    /// channel).
    fn stats(&self) -> QueueStats {
        QueueStats {
            max_depth: relock(&self.inner).max_depth,
            producer_waits: self.producer_waits.load(Ordering::Relaxed),
            producer_wait: Duration::from_nanos(self.producer_wait_ns.load(Ordering::Relaxed)),
            worker_waits: self.worker_waits.load(Ordering::Relaxed),
            worker_wait: Duration::from_nanos(self.worker_wait_ns.load(Ordering::Relaxed)),
            ..QueueStats::default()
        }
    }

    /// Closes the queue: wakes every blocked producer and consumer so
    /// they observe end-of-stream. Idempotent.
    fn close(&self) {
        // Closing must succeed even after a worker panicked while holding
        // the lock — liveness beats the poison flag here (relock).
        relock(&self.inner).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue when dropped — including during a panic unwind. Both
/// the producer and every worker hold one, so a panic anywhere (input
/// iterator, route hook, sink, pipeline) releases the threads blocked on
/// the queue and lets `std::thread::scope` propagate the panic instead of
/// deadlocking.
struct CloseOnDrop<'a, T>(&'a WorkQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The in-order release side: completed batches park in `pending` until
/// every earlier batch has been handed on, still in input order. The
/// stream loop keeps one behind a mutex for all of its pools (which is
/// what keeps pool-routed output byte-identical) and the multi-request
/// engine embeds one per request; the lock covers only this bookkeeping —
/// rendering and IO happen elsewhere.
pub(crate) struct Reorder<T> {
    /// Index of the next batch to release.
    pub(crate) next: usize,
    pub(crate) pending: BTreeMap<usize, Vec<(T, ReadOutcome)>>,
    /// Totals over the *released* reads.
    pub(crate) report: EngineReport,
}

impl<T> Reorder<T> {
    pub(crate) fn new() -> Self {
        Reorder {
            next: 0,
            pending: BTreeMap::new(),
            report: EngineReport::default(),
        }
    }

    /// Parks batch `index`, then hands every batch now contiguous with the
    /// released prefix to `emit`, in order, folding its reads into
    /// `report`. Returns whether anything was released.
    pub(crate) fn release(
        &mut self,
        index: usize,
        outcomes: Vec<(T, ReadOutcome)>,
        mut emit: impl FnMut(Vec<(T, ReadOutcome)>),
    ) -> bool {
        self.pending.insert(index, outcomes);
        let mut advanced = false;
        while let Some(ready) = self.pending.remove(&self.next) {
            self.next += 1;
            advanced = true;
            for (_, outcome) in &ready {
                self.report.reads += 1;
                if outcome.mapping.is_some() {
                    self.report.mapped += 1;
                }
                self.report.stats.merge(&outcome.stats);
            }
            emit(ready);
        }
        advanced
    }
}

/// Per-pool slice of a routed run ([`MapEngine::map_routed_stream`]).
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Shard ids the pool owned when the run finished. The loop routes by
    /// pool index and leaves this empty; the owner of the routing policy
    /// ([`ElasticScheduler`](super::ElasticScheduler)) fills it in, with
    /// [`EngineReport::migrations`].
    pub shards: Vec<usize>,
    /// Worker threads serving this pool's queue.
    pub workers: usize,
    /// Batches this pool's workers mapped.
    pub batches: u64,
    /// Batches the route hook sent here.
    pub routed: u64,
    /// Batches that spilled here (the hook declined, or named a full
    /// queue; this was the shortest queue).
    pub spilled: u64,
    /// This pool's input-queue depth/wait counters (`producer_*` = the
    /// routing producer blocked on this pool's full queue, `worker_*` =
    /// this pool's workers starved on it).
    pub queue: QueueStats,
}

/// Maps one read under the engines' shared strand policy: both strands
/// keeping the better mapping, or forward only.
pub(crate) fn map_one<M: ReadMapper>(mapper: &M, both_strands: bool, read: &DnaSeq) -> ReadOutcome {
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
#[derive(Debug)]
pub struct MapEngine<'m, M: ReadMapper = SegramMapper> {
    mapper: &'m M,
    options: EngineOptions,
}

impl<'m, M: ReadMapper> MapEngine<'m, M> {
    /// Binds the engine to a mapper.
    pub fn new(mapper: &'m M, options: EngineOptions) -> Self {
        Self { mapper, options }
    }

    /// Streams `reads` through the engine, calling `sink(item, outcome)`
    /// once per read **in input order** — already-decoded items, the
    /// trivial-decode special case of [`map_raw_stream`](Self::map_raw_stream).
    pub fn map_stream<T, R, F>(
        &self,
        reads: impl Iterator<Item = T>,
        read_of: R,
        sink: F,
    ) -> EngineReport
    where
        T: Send,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        self.map_raw_stream(reads, Some, read_of, sink)
    }

    /// The fanout schedule: every worker pops the one shared queue —
    /// [`map_routed_stream`](Self::map_routed_stream) with a single pool.
    /// Streams *undecoded* items through the engine, one read per raw
    /// unit; `decode` runs in the worker stage.
    pub fn map_raw_stream<Q, T, D, R, F>(
        &self,
        raw: impl Iterator<Item = Q>,
        decode: D,
        read_of: R,
        sink: F,
    ) -> EngineReport
    where
        Q: Send,
        T: Send,
        D: Fn(Q) -> Option<T> + Sync,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        self.map_routed_stream(raw, decode, read_of, sink, 1, |_| Some(0))
    }

    /// The stream loop. Streams *undecoded* items through `pools` bounded
    /// queues: the calling thread (the producer) slices `raw` into batches
    /// and asks `route` which pool's queue each batch joins — `None`, or an
    /// index outside `0..pools`, spills it to the currently shortest queue,
    /// and so does a queue that is full while another has room: the one
    /// producer never waits on one pool while a second runs dry, so a run of
    /// batches for one pool (or a lopsided `route`) costs affinity, not
    /// workers.
    /// Worker `w` serves queue `w % pools` (`pools` is clamped to
    /// `1..=threads` so every queue has a worker). `decode` runs in the
    /// worker stage ahead of seeding (timed into [`MapStats::decode`]), and
    /// `sink(item, outcome)` is called once per read **in input order** on
    /// a dedicated writer thread — the only thread that ever runs the sink
    /// — so neither input parsing nor output rendering/IO blocks a mapping
    /// worker.
    ///
    /// All pools release through one reorder buffer keyed by the producer's
    /// batch index, so the sink sees the same sequence for every `pools`
    /// and every `route`. A worker that runs too far ahead of a slow batch
    /// parks until the reorder buffer drains, and released batches flow
    /// through a bounded channel to the writer, so at most
    /// `(pools + 2) × queue_depth + 2 × threads` batches exist at any
    /// moment — memory stays bounded for arbitrarily long streams.
    ///
    /// Cancellation: when [`EngineOptions::cancel`] is cancelled — by the
    /// sink, the input iterator, anyone holding a clone — the producer
    /// stops consuming `raw` and workers drop still-queued batches
    /// unmapped. `decode` returning `None` cancels the run the same way
    /// (the decoder is expected to have recorded its error out of band),
    /// except that queued batches are then *settled* decode-only, so the
    /// earliest recorded error is the stream's first malformed record.
    /// [`EngineReport::batches`] counts batches that were actually
    /// mapped, so a cancelled run's report stays truthful.
    ///
    /// Returns the run's totals with one [`PoolReport`] per pool.
    ///
    /// # Panics
    ///
    /// If decode, the mapper, or the sink panics, the run is cancelled
    /// and the **first** panic payload is re-raised from this call once
    /// every thread has wound down.
    pub fn map_routed_stream<Q, T, D, R, F>(
        &self,
        mut raw: impl Iterator<Item = Q>,
        decode: D,
        read_of: R,
        sink: F,
        pools: usize,
        mut route: impl FnMut(&[Q]) -> Option<usize>,
    ) -> EngineReport
    where
        Q: Send,
        T: Send,
        D: Fn(Q) -> Option<T> + Sync,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        let threads = self.options.resolved_threads();
        let pools = pools.clamp(1, threads);
        let batch_size = match self.options.batch_size {
            0 => DEFAULT_BATCH_SIZE,
            n => n,
        };
        let queue_depth = self.options.resolved_queue_depth(threads);
        let cancel = &self.options.cancel;
        let both_strands = self.options.both_strands;
        let queues: Vec<WorkQueue<(usize, Vec<Q>)>> =
            (0..pools).map(|_| WorkQueue::new(queue_depth)).collect();
        let close_all = |queues: &[WorkQueue<(usize, Vec<Q>)>]| {
            for queue in queues {
                queue.close();
            }
        };
        // The ordered handoff to the writer thread: released batches enter
        // in input order (pushes happen under the reorder lock) and the
        // bound makes a slow sink back-pressure the workers.
        let out_queue: WorkQueue<Vec<(T, ReadOutcome)>> = WorkQueue::new(queue_depth);
        // The reorder buffer is bounded too: a worker whose finished batch
        // is further than this ahead of the next-to-release batch parks
        // until the slow batch releases, so one pathological read cannot
        // make `pending` absorb the rest of the stream.
        let max_ahead = queue_depth + threads;
        let reorder: Mutex<Reorder<T>> = Mutex::new(Reorder::new());
        let released = Condvar::new();
        let failure = FirstFailure::default();
        let pool_batches: Vec<AtomicU64> = (0..pools).map(|_| AtomicU64::new(0)).collect();
        // Raised (before `cancel`, which is SeqCst) when a decode failure
        // stopped the run. Workers that observe the cancellation then
        // *settle* still-queued batches decode-only instead of dropping
        // them blind, so the decoder's error recording deterministically
        // covers every record up to and including the file's first
        // malformed one — whatever the worker interleaving.
        let decode_failed = AtomicBool::new(false);
        // Reorder-park accounting (one count per genuine parked period;
        // see `QueueStats::park_waits`).
        let park_waits = AtomicU64::new(0);
        let park_wait_ns = AtomicU64::new(0);
        let decode = &decode;
        let read_of = &read_of;
        let mut pool_routed = vec![0u64; pools];
        let mut pool_spilled = vec![0u64; pools];

        std::thread::scope(|scope| {
            // The writer: drains ordered batches and runs the sink. A sink
            // panic is captured as the run's failure, the run is
            // cancelled, and every queue closes so no thread stays blocked.
            let writer_handle = {
                let out_queue = &out_queue;
                let queues = &queues;
                let failure = &failure;
                let released = &released;
                let mut sink = sink;
                scope.spawn(move || {
                    while let Some(batch) = out_queue.pop() {
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            for (item, outcome) in batch {
                                sink(item, outcome);
                            }
                        }));
                        if let Err(payload) = result {
                            failure.record(payload);
                            cancel.cancel();
                            out_queue.close();
                            close_all(queues);
                            // Wake workers parked on the reorder buffer so
                            // they observe the cancellation now instead of
                            // at the next 50 ms poll.
                            released.notify_all();
                            break;
                        }
                    }
                })
            };

            let worker_handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let queue = &queues[worker % pools];
                    let pool_batches = &pool_batches[worker % pools];
                    let queues = &queues;
                    let out_queue = &out_queue;
                    let reorder = &reorder;
                    let released = &released;
                    let failure = &failure;
                    let decode_failed = &decode_failed;
                    let park_waits = &park_waits;
                    let park_wait_ns = &park_wait_ns;
                    scope.spawn(move || {
                        // Unblocks the producer and this pool's workers if
                        // this worker dies in a way `catch_unwind` cannot
                        // see (sibling pools keep draining; the explicit
                        // failure path below closes everything).
                        // Note: no such guard on `out_queue` — the first
                        // worker to finish must not close the channel
                        // under peers that are still releasing batches;
                        // the producer closes it after joining every
                        // worker (and the explicit failure path closes it
                        // eagerly).
                        let _close_guard = CloseOnDrop(queue);
                        while let Some((index, raws)) = queue.pop() {
                            if cancel.is_cancelled() {
                                // Drain path: the producer is already
                                // stopping and queued batches are not
                                // mapped. If the stop was a decode
                                // failure, settle the batch decode-only —
                                // the decoder records errors out of band,
                                // and the producer pushed batches in file
                                // order, so settling every queued batch
                                // guarantees the earliest recorded error
                                // is the file's *first* malformed record.
                                if decode_failed.load(Ordering::SeqCst) {
                                    let result = catch_unwind(AssertUnwindSafe(|| {
                                        for raw in raws {
                                            let _ = decode(raw);
                                        }
                                    }));
                                    if let Err(payload) = result {
                                        failure.record(payload);
                                    }
                                }
                                continue;
                            }
                            // `true` = batch released; `false` = run
                            // cancelled mid-batch (batch abandoned).
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                // Decode + map: the parallel stage.
                                let mut outcomes: Vec<(T, ReadOutcome)> =
                                    Vec::with_capacity(raws.len());
                                let mut settling = false;
                                for raw in raws {
                                    if !settling && cancel.is_cancelled() {
                                        if decode_failed.load(Ordering::SeqCst) {
                                            // Another worker hit a decode
                                            // failure: finish this batch
                                            // decode-only (see the drain
                                            // path above) so error
                                            // reporting stays
                                            // deterministic.
                                            settling = true;
                                        } else {
                                            return false;
                                        }
                                    }
                                    if settling {
                                        let _ = decode(raw);
                                        continue;
                                    }
                                    let started = Instant::now();
                                    let Some(item) = decode(raw) else {
                                        // The decoder records its own
                                        // error; stopping the run is the
                                        // engine's job. Everything after
                                        // this record is later in the
                                        // file, so nothing here needs
                                        // settling.
                                        decode_failed.store(true, Ordering::SeqCst);
                                        cancel.cancel();
                                        return false;
                                    };
                                    let decode_time = started.elapsed();
                                    let mut outcome =
                                        map_one(self.mapper, both_strands, read_of(&item));
                                    outcome.stats.decode = decode_time;
                                    outcomes.push((item, outcome));
                                }
                                if settling {
                                    return false;
                                }
                                // Counted at worker completion, not at
                                // producer enqueue: a cancelled run reports
                                // the work that happened.
                                pool_batches.fetch_add(1, Ordering::Relaxed);
                                // Reorder bookkeeping: the lock covers map
                                // insertion and release accounting only —
                                // rendering and IO happen on the writer
                                // thread, outside any engine lock.
                                let mut guard = relock(reorder);
                                // Backpressure: the worker owning batch
                                // `next` is never parked here — in any
                                // pool, since each queue is FIFO in batch
                                // order — so release always advances. The
                                // wait is timed out as a safety net so a
                                // cancellation path without a handle on
                                // this condvar cannot strand a parked
                                // worker — but one parked period is *one*
                                // stall, however many timeout wakeups it
                                // spans: admission control reads these
                                // counters, and counting poll wakeups
                                // would inflate them ~20×/s per parked
                                // worker.
                                if index >= guard.next + max_ahead {
                                    let blocked = Instant::now();
                                    let mut parked = false;
                                    let record = |since: Instant| {
                                        park_waits.fetch_add(1, Ordering::Relaxed);
                                        park_wait_ns.fetch_add(
                                            since.elapsed().as_nanos() as u64,
                                            Ordering::Relaxed,
                                        );
                                    };
                                    while index >= guard.next + max_ahead {
                                        if cancel.is_cancelled() {
                                            if parked {
                                                record(blocked);
                                            }
                                            return false;
                                        }
                                        parked = true;
                                        guard = released
                                            .wait_timeout(guard, Duration::from_millis(50))
                                            .unwrap_or_else(PoisonError::into_inner)
                                            .0;
                                    }
                                    record(blocked);
                                }
                                // Pushing under the lock keeps the channel
                                // order identical to release order; a full
                                // channel blocks here, which is exactly
                                // the backpressure a lagging writer must
                                // exert on the workers.
                                let advanced =
                                    guard.release(index, outcomes, |ready| out_queue.push(ready));
                                drop(guard);
                                if advanced {
                                    released.notify_all();
                                }
                                true
                            }));
                            match result {
                                Ok(true) => {}
                                // Cancelled mid-batch: keep draining the
                                // queue so the producer never blocks.
                                Ok(false) => continue,
                                Err(payload) => {
                                    // First failure wins; wind everyone
                                    // down and let the calling thread
                                    // re-raise it once.
                                    failure.record(payload);
                                    cancel.cancel();
                                    close_all(queues);
                                    out_queue.close();
                                    released.notify_all();
                                    break;
                                }
                            }
                        }
                    })
                })
                .collect();

            // The calling thread is the producer: it only slices the raw
            // stream into batches and routes them — decode belongs to the
            // workers. The guards also close every queue if the input
            // iterator or the route hook panics, so no thread is ever left
            // blocked.
            let _close_guards: Vec<_> = queues.iter().map(CloseOnDrop).collect();
            let _out_close_guard = CloseOnDrop(&out_queue);
            let mut produced = 0usize;
            loop {
                if cancel.is_cancelled() {
                    break;
                }
                let batch: Vec<Q> = raw.by_ref().take(batch_size).collect();
                if batch.is_empty() {
                    break;
                }
                // A route is a preference: it holds while its queue has
                // room. A full queue is an overloaded pool, and waiting on
                // it would starve every other pool of its supply (one
                // producer feeds them all), so the batch spills instead.
                // Only with every queue full does the producer wait.
                let lens: Vec<usize> = queues.iter().map(WorkQueue::len).collect();
                let shortest = (0..pools)
                    .min_by_key(|&pool| lens[pool])
                    .expect("at least one pool");
                let has_room = |pool: usize| lens[pool] < queue_depth;
                let pool = match route(&batch).filter(|&pool| pool < pools) {
                    Some(pool) if has_room(pool) || !has_room(shortest) => {
                        pool_routed[pool] += 1;
                        pool
                    }
                    _ => {
                        pool_spilled[shortest] += 1;
                        shortest
                    }
                };
                queues[pool].push((produced, batch));
                produced += 1;
            }
            close_all(&queues);
            // Workers first, then the channel, then the writer: the writer
            // must not see end-of-stream before every released batch is in
            // the channel.
            for handle in worker_handles {
                if let Err(payload) = handle.join() {
                    failure.record(payload);
                }
            }
            out_queue.close();
            if let Err(payload) = writer_handle.join() {
                failure.record(payload);
            }
        });

        if let Some(payload) = failure.take() {
            // Surface the original failure once, instead of the
            // poisoned-lock panic cascade every other thread would
            // otherwise die with.
            resume_unwind(payload);
        }

        let pool_reports: Vec<PoolReport> = (0..pools)
            .map(|pool| PoolReport {
                shards: Vec::new(),
                workers: (0..threads).filter(|w| w % pools == pool).count(),
                batches: pool_batches[pool].load(Ordering::Relaxed),
                routed: pool_routed[pool],
                spilled: pool_spilled[pool],
                queue: queues[pool].stats(),
            })
            .collect();
        let reorder = reorder.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut report = reorder.report;
        report.backend = self.mapper.backend_name();
        report.batches = pool_reports.iter().map(|p| p.batches as usize).sum();
        report.threads = threads;
        report.batch_size = batch_size;
        // Run-level queue view: input counters summed over the pools
        // (depth as the max across them), then the writer channel and the
        // reorder park.
        let output = out_queue.stats();
        report.queue = QueueStats {
            output_max_depth: output.max_depth,
            output_stall_waits: output.producer_waits,
            output_stall_wait: output.producer_wait,
            writer_waits: output.worker_waits,
            writer_wait: output.worker_wait,
            park_waits: park_waits.load(Ordering::Relaxed),
            park_wait: Duration::from_nanos(park_wait_ns.load(Ordering::Relaxed)),
            ..QueueStats::default()
        };
        for pool in &pool_reports {
            report.queue.max_depth = report.queue.max_depth.max(pool.queue.max_depth);
            report.queue.producer_waits += pool.queue.producer_waits;
            report.queue.producer_wait += pool.queue.producer_wait;
            report.queue.worker_waits += pool.queue.worker_waits;
            report.queue.worker_wait += pool.queue.worker_wait;
        }
        report.pools = pool_reports;
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
    use std::time::Duration;

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
        // maximum contention on both the work queue and the bounded
        // reorder buffer (max_ahead = 5 with 20 batches in flight).
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

    #[test]
    fn work_queue_depth_high_water_never_exceeds_capacity() {
        // Direct accounting check on the bounded queue: with a consumer
        // draining a 3-slot queue, max_depth reflects occupancy and stays
        // within the configured capacity.
        let queue: WorkQueue<u32> = WorkQueue::new(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for item in 0..20u32 {
                    queue.push(item);
                }
                queue.close();
            });
            let mut popped = Vec::new();
            while let Some(item) = queue.pop() {
                popped.push(item);
            }
            assert_eq!(popped, (0..20).collect::<Vec<_>>());
        });
        let stats = queue.stats();
        assert!(stats.max_depth >= 1);
        assert!(
            stats.max_depth <= 3,
            "high-water {} exceeds capacity 3",
            stats.max_depth
        );
    }

    #[test]
    fn work_queue_wait_counters_are_monotone_and_consistent() {
        let queue: WorkQueue<u32> = WorkQueue::new(1);
        // Producer wait: fill the single slot, then push from another
        // thread while this one drains slowly.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for item in 0..5u32 {
                    queue.push(item); // blocks whenever the slot is full
                }
                queue.close();
            });
            let mut snapshots = Vec::new();
            while let Some(_item) = queue.pop() {
                std::thread::sleep(Duration::from_millis(2));
                snapshots.push(queue.stats());
            }
            // Counters only ever grow between snapshots.
            for pair in snapshots.windows(2) {
                assert!(pair[1].producer_waits >= pair[0].producer_waits);
                assert!(pair[1].worker_waits >= pair[0].worker_waits);
                assert!(pair[1].producer_wait >= pair[0].producer_wait);
                assert!(pair[1].worker_wait >= pair[0].worker_wait);
            }
        });
        let stats = queue.stats();
        assert!(
            stats.producer_waits >= 1,
            "slow consumer on a 1-slot queue must block the producer: {stats:?}"
        );
        // A recorded wait implies recorded blocked time, and vice versa.
        assert_eq!(
            stats.producer_waits > 0,
            stats.producer_wait > Duration::ZERO
        );
        assert_eq!(stats.worker_waits > 0, stats.worker_wait > Duration::ZERO);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn worker_wait_is_counted_only_for_real_starvation() {
        // Whether the consumer actually blocks before the push depends on
        // scheduling, so retry until a starved pop is observed instead of
        // trusting one sleep; a barrier removes the thread-spawn delay
        // from the race window. Consistency (a recorded wait carries
        // recorded blocked time) is asserted on every attempt.
        let mut starved = false;
        for _ in 0..20 {
            let queue: WorkQueue<u32> = WorkQueue::new(4);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                let consumer = scope.spawn(|| {
                    barrier.wait();
                    // Blocks on the empty queue until the item arrives.
                    assert_eq!(queue.pop(), Some(7));
                });
                barrier.wait();
                std::thread::sleep(Duration::from_millis(10));
                queue.push(7);
                consumer.join().expect("consumer");
            });
            let stats = queue.stats();
            assert_eq!(stats.worker_waits > 0, stats.worker_wait > Duration::ZERO);
            if stats.worker_waits >= 1 {
                starved = true;
                break;
            }
        }
        assert!(starved, "consumer never observed starving in 20 attempts");

        // End-of-stream drain: a pop woken only by close() is not counted
        // as starvation, however the pop and the close interleave.
        let drained: WorkQueue<u32> = WorkQueue::new(4);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| drained.pop());
            std::thread::sleep(Duration::from_millis(5));
            drained.close();
            assert_eq!(consumer.join().expect("consumer"), None);
        });
        assert_eq!(drained.stats().worker_waits, 0);
        assert_eq!(drained.stats().worker_wait, Duration::ZERO);
    }

    /// A [`ReadMapper`] that sleeps per read: cancellation tests need a
    /// mapper slow enough that the producer is still feeding (and workers
    /// still queued up) when the failure fires.
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
        let report = engine.map_raw_stream(
            reads.iter().enumerate(),
            |(i, read)| {
                if i == 3 {
                    // A real decoder records its error here.
                    decode_failures.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    Some(read)
                }
            },
            |read| *read,
            |_, _| {},
        );
        assert_eq!(decode_failures.load(Ordering::Relaxed), 1);
        assert!(cancel.is_cancelled(), "decode failure must cancel the run");
        assert!(
            report.reads < reads.len(),
            "run must not map the whole stream: {report:?}"
        );
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
    fn worker_decode_is_timed_into_stats() {
        let (dataset, mapper) = setup();
        let texts: Vec<(String, String)> = dataset
            .reads
            .iter()
            .map(|r| (format!("read{}", r.id), r.seq.to_string()))
            .collect();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2));
        let report = engine.map_raw_stream(
            texts.iter(),
            |(_, text)| text.parse::<DnaSeq>().ok(),
            |read| read,
            |_, _| {},
        );
        assert_eq!(report.reads, texts.len());
        assert!(
            report.stats.decode > Duration::ZERO,
            "decode stage must be timed: {:?}",
            report.stats
        );
        // Transport time is excluded from the mapping-stage total.
        assert_eq!(
            report.stats.total_time(),
            report.stats.seeding + report.stats.filtering + report.stats.alignment
        );
    }

    #[test]
    fn writer_channel_stats_observe_depth_and_stalls() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        // output channel capacity follows
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(1);
        let engine = MapEngine::new(&mapper, config);
        let (_, report) = {
            let mut outcomes = Vec::new();
            let report = engine.map_stream(
                reads.iter(),
                |r| *r,
                |_, outcome| {
                    // A deliberately slow sink: the bounded channel must fill
                    // and stall the workers, never the other way around.
                    std::thread::sleep(Duration::from_millis(2));
                    outcomes.push(outcome);
                },
            );
            (outcomes, report)
        };
        assert!(report.queue.output_max_depth >= 1);
        assert!(
            report.queue.output_max_depth <= 1,
            "bounded channel must bound depth: {:?}",
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

    #[test]
    fn decode_errors_settle_to_the_files_first_failure() {
        // Two malformed records (stream indices 5 and 9) in a 16-record
        // stream, two workers, batch_size 8: one worker is still inside
        // batch 0 (records 0..8, held open by record 0) when the other
        // worker's record 9 fails and cancels the run. Before the settle
        // path, the first worker dropped records 1..8 undecoded on the
        // cancellation check and the run reported record 9 — the racy
        // behavior this test pins down.
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
            let first_error: Mutex<Option<usize>> = Mutex::new(None);
            let gate = cancel.clone();
            engine.map_raw_stream(
                0..16usize,
                |i| {
                    if i == 0 {
                        // Hold batch 0 open until the cancellation fires
                        // (bounded so a regression cannot hang the test).
                        let waited = Instant::now();
                        while !gate.is_cancelled() && waited.elapsed() < Duration::from_secs(2) {
                            std::thread::yield_now();
                        }
                    }
                    if i == 5 || i == 9 {
                        // A real decoder keeps the smallest failing line,
                        // exactly as the CLI's error slot does.
                        let mut slot = relock(&first_error);
                        *slot = Some(slot.map_or(i, |prev| prev.min(i)));
                        return None;
                    }
                    Some(read.clone())
                },
                |r| r,
                |_, _| {},
            );
            assert_eq!(
                *relock(&first_error),
                Some(5),
                "attempt {attempt}: the settled decode error must be the \
                 file's first malformed record"
            );
        }
    }

    /// A [`ReadMapper`] that sleeps only on one sentinel read — the tool
    /// for making exactly one batch slow while the rest of the stream is
    /// fast (reorder-park scenarios).
    struct SelectiveSlowMapper {
        graph: segram_graph::GenomeGraph,
        slow: DnaSeq,
        delay: Duration,
    }

    impl ReadMapper for SelectiveSlowMapper {
        fn graph(&self) -> &segram_graph::GenomeGraph {
            &self.graph
        }

        fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            if *read == self.slow {
                std::thread::sleep(self.delay);
            }
            (None, MapStats::default())
        }

        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (mapping, stats) = self.map_read(read);
            (mapping.map(|m| (m, Strand::Forward)), stats)
        }
    }

    #[test]
    fn reorder_park_counts_one_stall_per_period_not_per_poll_wakeup() {
        // Batch 0 maps for ~400 ms while everything else is instant, so
        // with queue_depth 1 and 2 threads (max_ahead = 3) the second
        // worker finishes batches 1 and 2 and then parks on batch 3 for
        // the rest of the slow batch — a single genuine stall spanning
        // many 50 ms cancellation-poll wakeups. Counting wakeups instead
        // of periods would report ~8 stalls here and poison the
        // admission-control signal.
        let dataset = DatasetConfig::tiny(97).illumina(100);
        let slow = dataset.reads[0].seq.clone();
        let fast = dataset.reads[1].seq.clone();
        assert_ne!(slow, fast);
        let mapper = SelectiveSlowMapper {
            graph: dataset.graph().clone(),
            slow: slow.clone(),
            delay: Duration::from_millis(400),
        };
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(1);
        let engine = MapEngine::new(&mapper, config);
        let mut reads = vec![slow];
        reads.extend(std::iter::repeat_with(|| fast.clone()).take(7));
        let (_, report) = engine.map_batch(&reads);
        assert!(
            report.queue.park_waits >= 1,
            "the second worker must park behind the slow batch: {:?}",
            report.queue
        );
        assert!(
            report.queue.park_wait >= Duration::from_millis(200),
            "the park spans most of the slow batch: {:?}",
            report.queue
        );
        // The pinned bug: the parked period above spans at least four
        // 50 ms poll wakeups; per-wakeup counting would report >= 4.
        assert!(
            report.queue.park_waits <= 2,
            "one parked period must count once, not once per poll wakeup: {:?}",
            report.queue
        );
        // A recorded park implies recorded parked time, and vice versa.
        assert_eq!(
            report.queue.park_waits > 0,
            report.queue.park_wait > Duration::ZERO
        );
    }

    #[test]
    fn a_full_pool_spills_instead_of_holding_the_producer() {
        // Every batch is routed to pool 0, whose worker cannot finish its
        // first batch until the route hook has been asked about the
        // fourth. By then pool 0 holds a batch in its worker and two in
        // its two-slot queue, so the fourth batch at the latest must go to
        // pool 1 rather than keep the producer waiting on pool 0.
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        assert!(reads.len() >= 8);
        let (base, _) = MapEngine::new(&mapper, EngineOptions::new().threads(1)).map_batch(&reads);
        let asked = AtomicUsize::new(0);
        let config = EngineOptions::new().threads(2).batch_size(1).queue_depth(2);
        let mut outcomes = Vec::new();
        let report = MapEngine::new(&mapper, config).map_routed_stream(
            reads.iter(),
            |read| {
                while asked.load(Ordering::SeqCst) < 4 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Some(read)
            },
            |read| *read,
            |_, outcome| outcomes.push(outcome),
            2,
            |_| {
                asked.fetch_add(1, Ordering::SeqCst);
                Some(0)
            },
        );
        assert!(report.spilled() >= 1, "{:?}", report.pools);
        assert_eq!(report.spilled(), report.pools[1].spilled);
        assert!(report.pools[1].batches >= 1, "{:?}", report.pools);
        assert_eq!(report.routed() + report.spilled(), reads.len() as u64);
        // Where a batch ran is not visible in what comes out, or in which
        // order.
        assert_eq!(outcomes.len(), base.len());
        for (a, b) in base.iter().zip(&outcomes) {
            assert_eq!(
                a.mapping.as_ref().map(|m| m.linear_start),
                b.mapping.as_ref().map(|m| m.linear_start)
            );
        }
    }

    #[test]
    fn unparked_runs_record_no_park_stalls() {
        // Plenty of reorder headroom: nobody should ever park, so the
        // counter must stay zero (no spurious counts from the poll loop).
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(2));
        let (_, report) = engine.map_batch(&reads);
        assert_eq!(report.queue.park_waits, 0, "{:?}", report.queue);
        assert_eq!(report.queue.park_wait, Duration::ZERO);
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
