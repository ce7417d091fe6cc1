//! The long-lived multi-request mapping engine behind `segram serve`.
//!
//! [`MapEngine`](super::MapEngine) drives **one** stream to completion and
//! returns. A mapping daemon has the opposite shape: the expensive state
//! (graph + index, loaded once from a persistent `.sgi` file) lives for
//! hours, while N short mapping requests arrive, run concurrently, and
//! leave. [`MultiEngine`] is that daemon core: a fixed pool of worker
//! threads multiplexes every open request over one shared
//! [`ReadMapper`], with the properties a server needs:
//!
//! * **Request isolation** — every batch is tagged with its request id;
//!   each request has its own [`CancelToken`], reorder buffer, and ordered
//!   output queue, so concurrent requests never interleave outputs and
//!   cancelling one (say, a disconnected client) leaves the others
//!   untouched. A panic inside one request's mapping is captured as *that
//!   request's* failure; the engine keeps serving.
//! * **QoS scheduling** — every request carries a [`Priority`] class and
//!   an optional deadline hint ([`MultiEngine::open_with`]). Workers pick
//!   the most urgent runnable request: a request past its deadline first
//!   (earliest in rotation among the late), then by priority class, with
//!   round-robin rotation *within* a class so one huge request cannot
//!   starve its peers. A request whose reorder buffer has run `max_ahead`
//!   past its slowest in-flight batch is deprioritized rather than
//!   parking a worker — the queued/in-flight depth bound that also caps
//!   how many lower-priority batches can ever be picked ahead of a
//!   runnable higher-priority one.
//! * **Queueing-delay accounting** — every batch records its enqueue →
//!   worker-pickup delay; [`MultiEngine::queue_delays`] aggregates
//!   p50/p95/p99 per priority class over the engine lifetime and
//!   [`RequestHandle::queue_delay`] reports one request's own percentiles
//!   (the daemon surfaces both).
//! * **Admission control** — the live queued-batch depth (the same
//!   backpressure signal [`QueueStats`] exposes for the single-stream
//!   engine) gates [`MultiEngine::open`]: past `max_queued` the engine
//!   answers [`EngineBusy`] instead of accepting work it would only
//!   queue, including a retry hint derived from the observed drain rate.
//! * **Hot mapper swap** — [`MultiEngine::swap_mapper`] replaces the
//!   shared mapper between requests: every request captures its mapper
//!   `Arc` at open, so in-flight requests finish (and render) against the
//!   old index while new requests map against the new one — the
//!   zero-downtime `RELOAD` hook of `segram serve`.
//! * **Pool routing** (optional, [`MultiEngine::with_routing`]) — the
//!   elastic-schedule analogue for the daemon: workers are partitioned
//!   into pools (worker `w` → pool `w % pools`), a route hook tags each
//!   pushed batch with a preferred pool (e.g. its dominant shard group
//!   via [`ShardRouter::route_hits`](super::ShardRouter::route_hits)),
//!   and workers prefer batches tagged for their own pool, *stealing*
//!   cross-pool only when nothing of their own is runnable — so locality
//!   never costs liveness, and per-request ordering (hence output bytes)
//!   is untouched by where a batch actually ran. [`PoolCounters`] reports
//!   how many batches were routed, spilled, and stolen.
//!
//! Ordering guarantee: within a request, outputs are released strictly in
//! push order, so a request's output is byte-identical to running the same
//! reads through a one-shot [`MapEngine`](super::MapEngine) — `ci.sh`
//! enforces exactly that equivalence through `segram serve`.
//!
//! What this engine shares with the one-shot stream loop is what is
//! actually the same: the tuning knobs ([`EngineOptions`]), the per-read
//! strand policy (`map_one`), the in-order release (`Reorder::release`,
//! one buffer per request here) and the elastic route policy
//! ([`route_batch`](super::route_batch), through a [`RouteHook`]). It
//! stays a separate scheduler on purpose: `'static` workers over an `Arc`
//! mapper that can be swapped, admission, per-request cancellation and
//! reorder, and a panic turned into one request's error message — against
//! scoped borrows, worker-stage decode and the original payload re-raised.
//! One loop serving both would branch on its caller at every one of those
//! points.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use segram_graph::DnaSeq;

use crate::mapper::ReadMapper;

use super::engine::{
    map_one, relock, CancelToken, EngineOptions, EngineReport, ReadOutcome, Reorder,
};

/// A request's priority class, ordered by urgency: workers always pick a
/// runnable request of a higher class before any lower one, and
/// round-robin within a class. An overdue deadline outranks even class
/// (see [`MultiEngine::open_with`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Throughput traffic (batch re-mapping jobs): yields to everything.
    Bulk,
    /// The default class for unmarked requests.
    #[default]
    Normal,
    /// Latency-sensitive traffic (a user waiting on the reply): picked
    /// before every lower class whenever one of its batches is runnable.
    Interactive,
}

impl Priority {
    /// Every class, most urgent first (the daemon's report order).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Bulk];

    /// Parses the wire/CLI name of a class (`interactive|normal|bulk`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "interactive" => Some(Self::Interactive),
            "normal" => Some(Self::Normal),
            "bulk" => Some(Self::Bulk),
            _ => None,
        }
    }

    /// The wire/CLI name of this class.
    pub fn name(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Normal => "normal",
            Self::Bulk => "bulk",
        }
    }

    /// Scheduling rank (higher = more urgent) and the per-class slot in
    /// the delay aggregation.
    fn index(self) -> usize {
        match self {
            Self::Bulk => 0,
            Self::Normal => 1,
            Self::Interactive => 2,
        }
    }
}

/// Queueing-delay percentiles over a set of batches, measured from
/// [`RequestHandle::push`] enqueue to worker pickup — the time a batch
/// spent waiting for a worker, the QoS signal the scheduler exists to
/// shape. `batches` counts every recorded batch; the percentiles are
/// computed over a bounded sliding window of the most recent samples so a
/// long-lived daemon's memory stays flat.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueDelayStats {
    /// Batches recorded (engine lifetime, not just the window).
    pub batches: u64,
    /// Median queueing delay.
    pub p50: Duration,
    /// 95th-percentile queueing delay.
    pub p95: Duration,
    /// 99th-percentile queueing delay.
    pub p99: Duration,
}

/// Samples kept per delay window (per class, and per request).
const DELAY_WINDOW: usize = 4096;

/// A bounded sliding window of queueing-delay samples.
#[derive(Debug, Default)]
struct DelayWindow {
    total: u64,
    samples: Vec<Duration>,
    /// Overwrite cursor once the window is full.
    next: usize,
}

impl DelayWindow {
    fn record(&mut self, delay: Duration) {
        if self.samples.len() < DELAY_WINDOW {
            self.samples.push(delay);
        } else {
            self.samples[self.next] = delay;
            self.next = (self.next + 1) % DELAY_WINDOW;
        }
        self.total += 1;
    }

    /// Nearest-rank percentiles over the window; `None` before the first
    /// sample.
    fn stats(&self) -> Option<QueueDelayStats> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let pick = |p: f64| {
            let rank = ((sorted.len() as f64) * p).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Some(QueueDelayStats {
            batches: self.total,
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
        })
    }
}

/// Admission refusal: the engine's queued-batch depth has reached the
/// configured limit. Clients should retry later (the `segram serve` line
/// protocol surfaces this as a `BUSY` reply carrying the depth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineBusy {
    /// Batches currently queued across all open requests.
    pub queued: usize,
    /// The configured admission limit.
    pub capacity: usize,
    /// Suggested client back-off before retrying: the time the current
    /// queue needs to drain at the engine's recently observed pick rate
    /// (clamped to 10 ms … 5 s; a flat 100 ms before any rate is known).
    pub retry_hint: Duration,
}

impl fmt::Display for EngineBusy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "engine busy: {} of {} queued batches (retry in ~{} ms)",
            self.queued,
            self.capacity,
            self.retry_hint.as_millis()
        )
    }
}

impl Error for EngineBusy {}

/// A request failed because mapping panicked. The panic is scoped to the
/// request — the engine and every other request keep running.
#[derive(Clone, Debug)]
pub struct RequestPanicked {
    /// The panic message, as well as it could be recovered.
    pub message: String,
}

impl fmt::Display for RequestPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request failed: mapping panicked: {}", self.message)
    }
}

impl Error for RequestPanicked {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Route/spill/steal totals of a pool-routed [`MultiEngine`] (all zero
/// without routing): `routed` batches carried a route-hook pool tag,
/// `spilled` ones fell back to the least-loaded pool, and `stolen` ones
/// were ultimately mapped by a worker from a *different* pool (the
/// work-stealing that keeps routing from ever idling a worker).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Batches the route hook assigned to a specific pool.
    pub routed: u64,
    /// Batches the hook declined (straddling groups, or no signal),
    /// tagged with the least-loaded pool instead.
    pub spilled: u64,
    /// Batches mapped by a worker outside their tagged pool.
    pub stolen: u64,
}

/// One queued input batch of a request, in push order.
struct QueuedBatch<T> {
    /// Position in the request's push order (the reorder key).
    index: usize,
    items: Vec<T>,
    /// The pool this batch is tagged for.
    pool: usize,
    /// When [`RequestHandle::push`] enqueued it — the queueing-delay
    /// measurement starts here and ends at worker pickup.
    enqueued: Instant,
}

/// Per-request scheduler state. Everything lives under the one scheduler
/// lock; mapping itself always runs outside it.
struct ReqState<M, T> {
    /// Queued input batches, in push order.
    input: VecDeque<QueuedBatch<T>>,
    input_closed: bool,
    cancel: CancelToken,
    /// Scheduling class: workers pick the most urgent runnable request.
    priority: Priority,
    /// Absolute deadline (open time + the client's hint); once passed,
    /// this request outranks every on-time one.
    deadline: Option<Instant>,
    /// The mapper captured at open: stable across
    /// [`MultiEngine::swap_mapper`], so one request never mixes indexes.
    mapper: Arc<M>,
    /// This request's own queueing-delay samples.
    delays: DelayWindow,
    /// Batches popped by workers and not yet released or discarded.
    inflight: usize,
    /// The per-request reorder buffer (releases into `out`) and the
    /// request's running totals.
    reorder: Reorder<T>,
    /// Released batches, strictly in push order. Unbounded: a request's
    /// outputs never exceed what its producer already pushed in, and
    /// admission bounds the queued total across requests.
    out: VecDeque<Vec<(T, ReadOutcome)>>,
    /// All work released or discarded; `next_output` returns `None` once
    /// `out` also drains.
    done: bool,
    /// Handle dropped without `finish`: discard outputs, remove when idle.
    detached: bool,
    failure: Option<String>,
}

impl<M, T> ReqState<M, T> {
    fn new(
        cancel: CancelToken,
        priority: Priority,
        deadline: Option<Instant>,
        mapper: Arc<M>,
    ) -> Self {
        Self {
            input: VecDeque::new(),
            input_closed: false,
            cancel,
            priority,
            deadline,
            mapper,
            delays: DelayWindow::default(),
            inflight: 0,
            reorder: Reorder::new(),
            out: VecDeque::new(),
            done: false,
            detached: false,
            failure: None,
        }
    }
}

struct Sched<M, T> {
    requests: BTreeMap<u64, ReqState<M, T>>,
    /// Rotation order *within* an urgency class: workers pick the most
    /// urgent runnable request (overdue deadline, then priority class)
    /// and break ties by this order; a worker that pops from a request
    /// moves it to the back.
    rr: VecDeque<u64>,
    next_id: u64,
    /// Total queued input batches across requests — the live admission /
    /// backpressure depth.
    queued_total: usize,
    /// Queued batches per pool tag — the least-loaded spill signal.
    queued_per_pool: Vec<usize>,
    counters: PoolCounters,
    /// Lifetime queueing-delay windows, indexed by [`Priority::index`].
    class_delays: [DelayWindow; 3],
    /// Timestamps of the most recent worker picks — the live drain-rate
    /// estimate behind [`EngineBusy::retry_hint`].
    recent_picks: VecDeque<Instant>,
    shutdown: bool,
}

/// Picks kept for the drain-rate estimate.
const RECENT_PICKS: usize = 64;

impl<M, T> Sched<M, T> {
    /// Suggested back-off for a refused request: the time the current
    /// queue needs to drain at the recently observed pick rate.
    fn retry_hint(&self) -> Duration {
        let (Some(first), Some(last)) = (self.recent_picks.front(), self.recent_picks.back())
        else {
            return Duration::from_millis(100);
        };
        let span = last.saturating_duration_since(*first);
        if self.recent_picks.len() < 2 || span.is_zero() {
            return Duration::from_millis(100);
        }
        let per_batch = span.as_secs_f64() / (self.recent_picks.len() - 1) as f64;
        Duration::from_secs_f64((per_batch * self.queued_total as f64).clamp(0.010, 5.0))
    }

    /// Re-derives a request's lifecycle after any state change:
    /// cancellation drops queued and pending work immediately, completion
    /// flips `done`, and a detached request is removed once idle.
    fn settle(&mut self, id: u64) {
        let Some(req) = self.requests.get_mut(&id) else {
            return;
        };
        if req.cancel.is_cancelled() {
            self.queued_total -= req.input.len();
            for batch in &req.input {
                self.queued_per_pool[batch.pool] -= 1;
            }
            req.input.clear();
            req.reorder.pending.clear();
            if req.inflight == 0 {
                req.done = true;
            }
        } else if req.input_closed
            && req.input.is_empty()
            && req.inflight == 0
            && req.reorder.pending.is_empty()
        {
            req.done = true;
        }
        if req.done && req.detached && req.inflight == 0 {
            self.requests.remove(&id);
            self.rr.retain(|&r| r != id);
        }
    }
}

/// The optional batch-routing hook of [`MultiEngine::with_routing`]:
/// given the mapper the batch's request captured at open — not whichever
/// one is active now, so the hook holds no mapper of its own and a swapped
/// out one is freed with its last request — returns the preferred pool for
/// the batch, or `None` to spill it to the least-loaded pool.
pub type RouteHook<M, T> = Arc<dyn Fn(&M, &[T]) -> Option<usize> + Send + Sync>;

struct Shared<M, T> {
    /// The mapper *new* requests capture at open. [`MultiEngine::swap_mapper`]
    /// replaces it; requests already open keep the `Arc` they captured.
    mapper: Mutex<Arc<M>>,
    read_of: fn(&T) -> &DnaSeq,
    threads: usize,
    /// Worker pools (1 = unrouted). Worker `w` serves pool `w % pools`.
    pools: usize,
    /// Routes a pushed batch to its preferred pool ([`RouteHook`]).
    route: Option<RouteHook<M, T>>,
    queue_depth: usize,
    /// A request with this many batches in flight + parked in its reorder
    /// buffer is deprioritized until its slowest batch releases (the
    /// single-stream engine's `max_ahead` bound, per request).
    max_ahead: usize,
    max_queued: usize,
    both_strands: bool,
    sched: Mutex<Sched<M, T>>,
    /// Workers wait here for a runnable request.
    work_ready: Condvar,
    /// Producers wait here for per-request input space.
    space_ready: Condvar,
    /// Consumers wait here for ordered output or completion.
    output_ready: Condvar,
}

/// The worker loop: pick the most urgent runnable request — past-deadline
/// first, then by [`Priority`] class, preferring a front batch tagged for
/// this worker's `pool` and breaking remaining ties in rotation order
/// (the steal that keeps every worker busy whatever the routing skew) —
/// then map one batch outside the lock, release in order, repeat. Note
/// the steal ordering: lateness and class outrank pool affinity, so a
/// worker abandons locality to serve a late or higher-class request.
fn worker_loop<M: ReadMapper, T>(shared: &Shared<M, T>, pool: usize) {
    let mut guard = relock(&shared.sched);
    loop {
        if guard.shutdown {
            return;
        }
        // One pass over the rotation, keeping the most urgent runnable
        // candidate: the key orders by (overdue, class, own-pool), and a
        // strictly-greater comparison keeps the earliest rotation slot on
        // ties — round-robin within each urgency level.
        let now = Instant::now();
        let mut best: Option<(usize, u64, (bool, usize, bool))> = None;
        for slot in 0..guard.rr.len() {
            let id = guard.rr[slot];
            let Some(req) = guard.requests.get(&id) else {
                continue;
            };
            let Some(front) = req.input.front() else {
                continue;
            };
            // A cancelled request's batches are always poppable (cheap
            // discard); a live one is skipped while its reorder buffer is
            // full — the pick then favors the requests that can make
            // release progress, and bounds how many lower-priority
            // batches can ever overtake a higher-priority request.
            if !req.cancel.is_cancelled()
                && req.inflight + req.reorder.pending.len() >= shared.max_ahead
            {
                continue;
            }
            let key = (
                req.deadline.is_some_and(|deadline| now >= deadline),
                req.priority.index(),
                front.pool == pool,
            );
            if best.as_ref().is_none_or(|&(_, _, best_key)| key > best_key) {
                best = Some((slot, id, key));
            }
        }
        let Some((slot, id, _)) = best else {
            guard = shared
                .work_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        guard.rr.remove(slot);
        guard.rr.push_back(id);
        let req = guard.requests.get_mut(&id).expect("picked request exists");
        let QueuedBatch {
            index,
            items,
            pool: batch_pool,
            enqueued,
        } = req.input.pop_front().expect("picked request has input");
        req.inflight += 1;
        let cancel = req.cancel.clone();
        let mapper = Arc::clone(&req.mapper);
        // Queueing delay = enqueue → this pickup. Cancelled requests'
        // batches are discards, not service, and are left out.
        let live = !cancel.is_cancelled();
        let waited = now.saturating_duration_since(enqueued);
        let class = req.priority.index();
        if live {
            req.delays.record(waited);
        }
        guard.queued_total -= 1;
        guard.queued_per_pool[batch_pool] -= 1;
        if live {
            guard.class_delays[class].record(waited);
        }
        guard.recent_picks.push_back(now);
        if guard.recent_picks.len() > RECENT_PICKS {
            guard.recent_picks.pop_front();
        }
        if batch_pool != pool {
            guard.counters.stolen += 1;
        }
        drop(guard);
        shared.space_ready.notify_all();

        // Map outside the lock. A mid-batch cancellation abandons the rest
        // of the batch; a panic becomes this request's failure only.
        let mut outcomes: Vec<(T, ReadOutcome)> = Vec::with_capacity(items.len());
        let result = catch_unwind(AssertUnwindSafe(|| {
            for item in items {
                if cancel.is_cancelled() {
                    return false;
                }
                let read = (shared.read_of)(&item);
                let outcome = map_one(mapper.as_ref(), shared.both_strands, read);
                outcomes.push((item, outcome));
            }
            true
        }));

        guard = relock(&shared.sched);
        if let Some(req) = guard.requests.get_mut(&id) {
            req.inflight -= 1;
            match result {
                Err(payload) => {
                    if req.failure.is_none() {
                        req.failure = Some(panic_message(payload));
                    }
                    req.cancel.cancel();
                }
                Ok(true) if !req.cancel.is_cancelled() => {
                    req.reorder.report.batches += 1;
                    // Strictly in push order; a detached request's outputs
                    // have no reader left.
                    let (out, detached) = (&mut req.out, req.detached);
                    req.reorder
                        .release(index, std::mem::take(&mut outcomes), |ready| {
                            if !detached {
                                out.push_back(ready);
                            }
                        });
                }
                // Cancelled mid-batch or just after: outputs are dropped.
                Ok(_) => {}
            }
            guard.settle(id);
        }
        drop(guard);
        shared.output_ready.notify_all();
        shared.work_ready.notify_all();
        shared.space_ready.notify_all();
        guard = relock(&shared.sched);
    }
}

/// The long-lived multi-request engine: a worker pool multiplexing
/// concurrent mapping requests over one shared mapper (see the module
/// docs for the isolation/fairness/admission contract).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use segram_core::{EngineOptions, MultiEngine, SegramConfig, SegramMapper};
/// use segram_graph::DnaSeq;
/// use segram_sim::DatasetConfig;
///
/// fn seq_of(read: &DnaSeq) -> &DnaSeq {
///     read
/// }
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
/// let engine = MultiEngine::new(Arc::new(mapper), seq_of, EngineOptions::new().threads(2));
///
/// let mut request = engine.open().expect("engine accepts");
/// let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// request.push(reads.clone());
/// request.finish_input();
/// let mut mapped = 0;
/// while let Some(batch) = request.next_output() {
///     mapped += batch.iter().filter(|(_, o)| o.mapping.is_some()).count();
/// }
/// let report = request.finish().expect("no panic");
/// assert_eq!(report.reads, reads.len());
/// assert_eq!(report.mapped, mapped);
/// engine.shutdown();
/// ```
pub struct MultiEngine<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> {
    shared: Arc<Shared<M, T>>,
    workers: Vec<JoinHandle<()>>,
}

// Manual impl: `derive` would demand `M: Debug` + `T: Debug`, which the
// mapper has no reason to provide.
impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> fmt::Debug for MultiEngine<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiEngine")
            .field("shared", &self.shared)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> fmt::Debug for Shared<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("threads", &self.threads)
            .field("queue_depth", &self.queue_depth)
            .field("max_queued", &self.max_queued)
            .finish_non_exhaustive()
    }
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> MultiEngine<M, T> {
    /// Spawns the worker pool over a shared mapper. `read_of` projects the
    /// sequence out of a work item (e.g. `|record| &record.seq`).
    pub fn new(mapper: Arc<M>, read_of: fn(&T) -> &DnaSeq, options: EngineOptions) -> Self {
        Self::with_routing(mapper, read_of, options, 1, None)
    }

    /// [`Self::new`] plus pool routing: workers are partitioned into
    /// `pools` pools (worker `w` → pool `w % pools`, clamped so every
    /// pool has a worker), and `route` tags each pushed batch with its
    /// preferred pool — `None` spills to the least-loaded one. Workers
    /// prefer their own pool's batches and steal otherwise, so routing
    /// shapes locality without affecting ordering, output bytes, or
    /// liveness.
    pub fn with_routing(
        mapper: Arc<M>,
        read_of: fn(&T) -> &DnaSeq,
        options: EngineOptions,
        pools: usize,
        route: Option<RouteHook<M, T>>,
    ) -> Self {
        let threads = options.resolved_threads();
        let pools = pools.clamp(1, threads);
        // Per request: `RequestHandle::push` blocks past this, so one
        // producer cannot buffer its whole stream into the engine.
        let queue_depth = options.resolved_queue_depth(threads);
        // Past this many queued batches across all open requests,
        // `open` refuses with `EngineBusy`.
        let max_queued = match options.max_queued {
            0 => queue_depth * 4,
            n => n,
        };
        let shared = Arc::new(Shared {
            mapper: Mutex::new(mapper),
            read_of,
            threads,
            pools,
            route,
            queue_depth,
            max_ahead: queue_depth + threads,
            max_queued,
            both_strands: options.both_strands,
            sched: Mutex::new(Sched {
                requests: BTreeMap::new(),
                rr: VecDeque::new(),
                next_id: 0,
                queued_total: 0,
                queued_per_pool: vec![0; pools],
                counters: PoolCounters::default(),
                class_delays: Default::default(),
                recent_picks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            output_ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("segram-serve-{i}"))
                    .spawn(move || worker_loop(shared.as_ref(), i % pools))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Opens a new request at [`Priority::Normal`] with no deadline,
    /// subject to admission control.
    ///
    /// # Errors
    ///
    /// [`EngineBusy`] when the queued-batch depth has reached the limit
    /// (or the engine is shutting down).
    pub fn open(&self) -> Result<RequestHandle<M, T>, EngineBusy> {
        self.open_with(Priority::Normal, None)
    }

    /// [`Self::open`] with an explicit QoS class and optional deadline
    /// hint. Workers always pick the most urgent queued batch: a request
    /// past its deadline outranks every on-time one, then higher
    /// [`Priority`] classes outrank lower ones, then pool affinity breaks
    /// ties (round-robin within a level). The request maps against the
    /// mapper active at open time, even across a
    /// [`swap_mapper`](Self::swap_mapper).
    ///
    /// # Errors
    ///
    /// [`EngineBusy`] when the queued-batch depth has reached the limit
    /// (or the engine is shutting down); its `retry_hint` estimates the
    /// queue drain time.
    pub fn open_with(
        &self,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<RequestHandle<M, T>, EngineBusy> {
        let mapper = Arc::clone(&relock(&self.shared.mapper));
        let mut guard = relock(&self.shared.sched);
        if guard.shutdown || guard.queued_total >= self.shared.max_queued {
            return Err(EngineBusy {
                queued: guard.queued_total,
                capacity: self.shared.max_queued,
                retry_hint: guard.retry_hint(),
            });
        }
        let id = guard.next_id;
        guard.next_id += 1;
        let cancel = CancelToken::new();
        let deadline = deadline.map(|d| Instant::now() + d);
        guard.requests.insert(
            id,
            ReqState::new(cancel.clone(), priority, deadline, Arc::clone(&mapper)),
        );
        guard.rr.push_back(id);
        Ok(RequestHandle {
            shared: Arc::clone(&self.shared),
            mapper,
            id,
            cancel,
            produced: 0,
            finished: false,
        })
    }

    /// Replaces the mapper for **future** requests; requests already open
    /// keep mapping against the mapper they captured at open time. This is
    /// the zero-downtime half of `RELOAD`: build the new index off-thread,
    /// then swap between requests.
    pub fn swap_mapper(&self, mapper: Arc<M>) {
        *relock(&self.shared.mapper) = mapper;
    }

    /// The mapper new requests would currently capture.
    pub fn active_mapper(&self) -> Arc<M> {
        Arc::clone(&relock(&self.shared.mapper))
    }

    /// Lifetime queueing-delay percentiles per priority class (classes
    /// that never queued a batch are omitted), most urgent first.
    pub fn queue_delays(&self) -> Vec<(Priority, QueueDelayStats)> {
        let guard = relock(&self.shared.sched);
        Priority::ALL
            .iter()
            .filter_map(|&p| guard.class_delays[p.index()].stats().map(|s| (p, s)))
            .collect()
    }

    /// The live queued-batch depth across all open requests — the
    /// admission/backpressure signal (`BUSY <depth>` in the serve
    /// protocol).
    pub fn queued_batches(&self) -> usize {
        relock(&self.shared.sched).queued_total
    }

    /// Open (not yet finished or removed) requests.
    pub fn open_requests(&self) -> usize {
        relock(&self.shared.sched).requests.len()
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Worker pools (1 unless built [`with_routing`](Self::with_routing)).
    pub fn pools(&self) -> usize {
        self.shared.pools
    }

    /// Route/spill/steal totals since the engine started.
    pub fn pool_counters(&self) -> PoolCounters {
        relock(&self.shared.sched).counters
    }

    /// Stops the pool: cancels every open request and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut guard = relock(&self.shared.sched);
            guard.shutdown = true;
            for req in guard.requests.values() {
                req.cancel.cancel();
            }
            let ids: Vec<u64> = guard.requests.keys().copied().collect();
            for id in ids {
                guard.settle(id);
            }
        }
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        self.shared.output_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> Drop for MultiEngine<M, T> {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// One open mapping request on a [`MultiEngine`]: push input batches, read
/// ordered output batches, then [`finish`](Self::finish) for the report.
/// Dropping the handle without finishing cancels the request and discards
/// its outputs.
pub struct RequestHandle<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> {
    shared: Arc<Shared<M, T>>,
    mapper: Arc<M>,
    id: u64,
    cancel: CancelToken,
    produced: usize,
    finished: bool,
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> fmt::Debug for RequestHandle<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.id)
            .field("produced", &self.produced)
            .field("finished", &self.finished)
            .finish()
    }
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> RequestHandle<M, T> {
    /// This request's engine-assigned id (the batch tag in logs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The mapper this request captured at open time — stable across
    /// [`MultiEngine::swap_mapper`], so rendering (e.g. SAM headers against
    /// the mapped graph) stays consistent with the outcomes.
    pub fn mapper(&self) -> Arc<M> {
        Arc::clone(&self.mapper)
    }

    /// Queueing-delay percentiles over this request's picked batches so
    /// far (`None` before the first pick).
    pub fn queue_delay(&self) -> Option<QueueDelayStats> {
        relock(&self.shared.sched)
            .requests
            .get(&self.id)
            .and_then(|req| req.delays.stats())
    }

    /// A clone of this request's cancellation token — hand it to whatever
    /// watches the client connection; cancelling stops only this request.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cancels this request now: queued input and parked outputs are
    /// dropped, in-flight batches wind down, other requests are untouched.
    pub fn cancel(&self) {
        self.cancel.cancel();
        let mut guard = relock(&self.shared.sched);
        guard.settle(self.id);
        drop(guard);
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        self.shared.output_ready.notify_all();
    }

    /// Pushes one input batch, blocking while this request's input queue
    /// is full. Returns `false` — and discards the batch — once the
    /// request is cancelled or the engine is shutting down.
    pub fn push(&mut self, items: Vec<T>) -> bool {
        if items.is_empty() {
            return !self.cancel.is_cancelled();
        }
        let shared = self.shared.as_ref();
        // The pre-route pass runs on the producer (connection) thread,
        // outside the scheduler lock — minimizer extraction must never
        // block the worker pool.
        let preferred = if shared.pools > 1 {
            shared
                .route
                .as_ref()
                .and_then(|route| route(&self.mapper, &items))
                .filter(|&pool| pool < shared.pools)
        } else {
            Some(0)
        };
        let mut guard = relock(&shared.sched);
        let mut blocked: Option<Instant> = None;
        loop {
            if self.cancel.is_cancelled() || guard.shutdown {
                return false;
            }
            let Some(req) = guard.requests.get_mut(&self.id) else {
                return false;
            };
            if req.input.len() < shared.queue_depth {
                if let Some(since) = blocked {
                    req.reorder.report.queue.producer_waits += 1;
                    req.reorder.report.queue.producer_wait += since.elapsed();
                }
                break;
            }
            blocked.get_or_insert_with(Instant::now);
            guard = shared
                .space_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // The spill decision needs the live per-pool depths, so it waits
        // for the lock (routed batches already know their pool).
        let pool = match preferred {
            Some(pool) => {
                if shared.pools > 1 {
                    guard.counters.routed += 1;
                }
                pool
            }
            None => {
                guard.counters.spilled += 1;
                (0..shared.pools)
                    .min_by_key(|&p| guard.queued_per_pool[p])
                    .expect("at least one pool")
            }
        };
        let req = guard
            .requests
            .get_mut(&self.id)
            .expect("request checked above");
        req.input.push_back(QueuedBatch {
            index: self.produced,
            items,
            pool,
            enqueued: Instant::now(),
        });
        let depth = req.input.len();
        let queue = &mut req.reorder.report.queue;
        queue.max_depth = queue.max_depth.max(depth);
        self.produced += 1;
        guard.queued_total += 1;
        guard.queued_per_pool[pool] += 1;
        drop(guard);
        shared.work_ready.notify_all();
        true
    }

    /// Declares end of input: once every pushed batch is released the
    /// request completes and [`next_output`](Self::next_output) returns
    /// `None` after draining.
    pub fn finish_input(&mut self) {
        let mut guard = relock(&self.shared.sched);
        if let Some(req) = guard.requests.get_mut(&self.id) {
            req.input_closed = true;
        }
        guard.settle(self.id);
        drop(guard);
        self.shared.work_ready.notify_all();
        self.shared.output_ready.notify_all();
    }

    /// Blocks for the next output batch, **strictly in push order**.
    /// Returns `None` once the request is complete (all input released, or
    /// cancelled) and every released batch has been taken.
    pub fn next_output(&mut self) -> Option<Vec<(T, ReadOutcome)>> {
        let mut guard = relock(&self.shared.sched);
        loop {
            let req = guard.requests.get_mut(&self.id)?;
            if let Some(batch) = req.out.pop_front() {
                return Some(batch);
            }
            if req.done || guard.shutdown {
                return None;
            }
            guard = self
                .shared
                .output_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Completes the request: closes input if still open, waits for every
    /// in-flight batch, removes the request from the engine, and returns
    /// its report.
    ///
    /// # Errors
    ///
    /// [`RequestPanicked`] when mapping panicked inside this request (the
    /// engine itself keeps serving).
    pub fn finish(mut self) -> Result<EngineReport, RequestPanicked> {
        self.finish_input();
        let shared = Arc::clone(&self.shared);
        let mut guard = relock(&shared.sched);
        loop {
            let Some(req) = guard.requests.get(&self.id) else {
                // Already removed (shutdown raced us): report what we know.
                self.finished = true;
                return Ok(EngineReport {
                    threads: shared.threads,
                    ..EngineReport::default()
                });
            };
            if req.done || guard.shutdown {
                break;
            }
            guard = shared
                .output_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let state = guard.requests.remove(&self.id).expect("checked above");
        guard.rr.retain(|&r| r != self.id);
        drop(guard);
        self.finished = true;
        let mut report = state.reorder.report;
        report.backend = state.mapper.backend_name();
        report.threads = shared.threads;
        match state.failure {
            Some(message) => Err(RequestPanicked { message }),
            None => Ok(report),
        }
    }
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> Drop for RequestHandle<M, T> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.cancel.cancel();
        let mut guard = relock(&self.shared.sched);
        if let Some(req) = guard.requests.get_mut(&self.id) {
            req.detached = true;
            req.out.clear();
        }
        guard.settle(self.id);
        drop(guard);
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        self.shared.output_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::engine::{EngineOptions, MapEngine};
    use crate::{MapStats, Mapping, SegramConfig, SegramMapper};
    use segram_graph::GenomeGraph;
    use segram_sim::{DatasetConfig, Strand};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn seq_of(read: &DnaSeq) -> &DnaSeq {
        read
    }

    fn setup() -> (segram_sim::Dataset, SegramMapper) {
        let dataset = DatasetConfig::tiny(91).illumina(100);
        let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
        (dataset, mapper)
    }

    fn key(outcome: &ReadOutcome) -> Option<(u64, u32)> {
        outcome
            .mapping
            .as_ref()
            .map(|m| (m.linear_start, m.alignment.edit_distance))
    }

    /// Drives one request end to end: push every read in `chunk`-sized
    /// batches, then drain, returning flattened outcomes + the report.
    fn run_request(
        engine: &MultiEngine<SegramMapper, DnaSeq>,
        reads: &[DnaSeq],
        chunk: usize,
    ) -> (Vec<ReadOutcome>, EngineReport) {
        let mut request = engine.open().expect("admission");
        for batch in reads.chunks(chunk) {
            assert!(request.push(batch.to_vec()));
        }
        request.finish_input();
        let mut outcomes = Vec::new();
        let mut echoed: Vec<DnaSeq> = Vec::new();
        while let Some(batch) = request.next_output() {
            for (read, outcome) in batch {
                echoed.push(read);
                outcomes.push(outcome);
            }
        }
        assert_eq!(echoed, reads, "outputs echo inputs in push order");
        let report = request.finish().expect("no panic");
        (outcomes, report)
    }

    #[test]
    fn concurrent_requests_each_match_the_single_stream_engine() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, base_report) =
            MapEngine::new(&mapper, EngineOptions::new().threads(1)).map_batch(&reads);

        let engine = MultiEngine::new(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new().threads(2).queue_depth(2),
        );
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let engine = &engine;
                    let reads = &reads;
                    // Different chunk sizes force different interleavings.
                    scope.spawn(move || run_request(engine, reads, 1 + i * 2))
                })
                .collect();
            for handle in handles {
                let (outcomes, report) = handle.join().expect("request thread");
                assert_eq!(report.reads, base_report.reads);
                assert_eq!(report.mapped, base_report.mapped);
                assert_eq!(outcomes.len(), base.len());
                for (a, b) in base.iter().zip(&outcomes) {
                    assert_eq!(key(a), key(b));
                    assert_eq!(a.strand, b.strand);
                }
            }
        });
        assert_eq!(engine.open_requests(), 0, "finished requests are removed");
        engine.shutdown();
    }

    /// A mapper that sleeps per read, to make scheduling observable.
    struct SlowMapper {
        graph: GenomeGraph,
        delay: Duration,
    }

    impl ReadMapper for SlowMapper {
        fn graph(&self) -> &GenomeGraph {
            &self.graph
        }
        fn map_read(&self, _read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            std::thread::sleep(self.delay);
            (None, MapStats::default())
        }
        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (_, stats) = self.map_read(read);
            let _ = read;
            (None, stats)
        }
    }

    #[test]
    fn cancelling_one_request_leaves_the_other_intact() {
        let (dataset, _) = setup();
        let mapper = SlowMapper {
            graph: dataset.graph().clone(),
            delay: Duration::from_millis(60),
        };
        let read: DnaSeq = dataset.reads[0].seq.clone();
        let engine = MultiEngine::new(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new()
                .threads(2)
                .queue_depth(8)
                .max_queued(64),
        );
        std::thread::scope(|scope| {
            let victim = scope.spawn(|| {
                let mut request = engine.open().expect("admission");
                for _ in 0..8 {
                    assert!(request.push(vec![read.clone()]));
                }
                // Cancel mid-flight, right after the first output: most of
                // the eight batches are still queued or in flight.
                let first = request.next_output();
                request.cancel();
                while request.next_output().is_some() {}
                (first.is_some(), request.finish())
            });
            let survivor = scope.spawn(|| run_request_slow(&engine, &read, 10));
            let (saw_output, report) = victim.join().expect("victim thread");
            assert!(saw_output, "victim produced output before cancellation");
            let report = report.expect("cancellation is not a panic");
            assert!(report.reads < 8, "cancellation cut the victim short");
            let survivor_reads = survivor.join().expect("survivor thread");
            assert_eq!(survivor_reads, 10, "survivor completed every read");
        });
        engine.shutdown();
    }

    /// `run_request` for the SlowMapper engine: returns released reads.
    fn run_request_slow(
        engine: &MultiEngine<SlowMapper, DnaSeq>,
        read: &DnaSeq,
        count: usize,
    ) -> usize {
        let mut request = engine.open().expect("admission");
        for _ in 0..count {
            assert!(request.push(vec![read.clone()]));
        }
        request.finish_input();
        let mut released = 0;
        while let Some(batch) = request.next_output() {
            released += batch.len();
        }
        assert_eq!(request.finish().expect("no panic").reads, released);
        released
    }

    /// A mapper that blocks until released — admission tests need the
    /// queue to stay full without timing assumptions.
    struct GatedMapper {
        graph: GenomeGraph,
        gate: Arc<AtomicBool>,
    }

    impl ReadMapper for GatedMapper {
        fn graph(&self) -> &GenomeGraph {
            &self.graph
        }
        fn map_read(&self, _read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            let start = Instant::now();
            while !self.gate.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
            (None, MapStats::default())
        }
        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (_, stats) = self.map_read(read);
            let _ = read;
            (None, stats)
        }
    }

    #[test]
    fn admission_refuses_past_the_queued_batch_limit() {
        let (dataset, _) = setup();
        let gate = Arc::new(AtomicBool::new(false));
        let mapper = GatedMapper {
            graph: dataset.graph().clone(),
            gate: Arc::clone(&gate),
        };
        let read: DnaSeq = dataset.reads[0].seq.clone();
        let engine = MultiEngine::new(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new().threads(1).queue_depth(2).max_queued(1),
        );
        let mut request = engine.open().expect("empty engine admits");
        // Two batches: the worker blocks inside the first (gated), the
        // second stays queued, so the depth sits at the limit.
        assert!(request.push(vec![read.clone()]));
        assert!(request.push(vec![read.clone()]));
        let busy = engine.open().expect_err("over the admission limit");
        assert_eq!(busy.capacity, 1);
        assert!(busy.queued >= 1, "refusal reports the live depth");
        assert!(
            busy.retry_hint > Duration::ZERO,
            "refusals always carry a usable retry hint"
        );
        assert!(
            busy.to_string().contains("retry in ~"),
            "the hint is part of the message: {busy}"
        );

        gate.store(true, Ordering::SeqCst);
        request.finish_input();
        while request.next_output().is_some() {}
        assert_eq!(request.finish().expect("no panic").reads, 2);
        assert_eq!(engine.queued_batches(), 0);
        engine.open().expect("drained engine admits again");
        engine.shutdown();
    }

    #[test]
    fn round_robin_lets_a_small_request_overtake_a_big_one() {
        let (dataset, _) = setup();
        let delay = Duration::from_millis(25);
        let mapper = SlowMapper {
            graph: dataset.graph().clone(),
            delay,
        };
        let read: DnaSeq = dataset.reads[0].seq.clone();
        // One worker: completion order is exactly the scheduling order.
        let engine = MultiEngine::new(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new()
                .threads(1)
                .queue_depth(16)
                .max_queued(64),
        );
        std::thread::scope(|scope| {
            let big = scope.spawn(|| {
                let mut request = engine.open().expect("admission");
                for _ in 0..8 {
                    assert!(request.push(vec![read.clone()]));
                }
                request.finish_input();
                while request.next_output().is_some() {}
                let finished = Instant::now();
                request.finish().expect("no panic");
                finished
            });
            // Give the big request a head start so its batches are queued.
            std::thread::sleep(delay);
            let small = scope.spawn(|| {
                let mut request = engine.open().expect("admission");
                assert!(request.push(vec![read.clone()]));
                request.finish_input();
                while request.next_output().is_some() {}
                let finished = Instant::now();
                request.finish().expect("no panic");
                finished
            });
            let big_done = big.join().expect("big request");
            let small_done = small.join().expect("small request");
            assert!(
                small_done < big_done,
                "round-robin must not make the one-batch request wait \
                 behind all eight batches of the earlier request"
            );
        });
        engine.shutdown();
    }

    /// Panics on a marker read, to test request-scoped failure.
    struct FaultyMapper {
        inner: SegramMapper,
        poison: DnaSeq,
    }

    impl ReadMapper for FaultyMapper {
        fn graph(&self) -> &GenomeGraph {
            self.inner.graph()
        }
        fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            assert!(*read != self.poison, "poisoned read");
            self.inner.map_read(read)
        }
        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            ReadMapper::map_read_both(&self.inner, read)
        }
    }

    #[test]
    fn a_panicking_request_fails_alone_and_the_engine_keeps_serving() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let poison = reads[3].clone();
        let engine = MultiEngine::new(
            Arc::new(FaultyMapper {
                inner: mapper,
                poison: poison.clone(),
            }),
            seq_of,
            EngineOptions::new().threads(2),
        );

        let mut doomed = engine.open().expect("admission");
        assert!(doomed.push(vec![reads[0].clone(), poison.clone()]));
        doomed.finish_input();
        while doomed.next_output().is_some() {}
        let failure = doomed.finish().expect_err("the poison read panics");
        assert!(
            failure.message.contains("poisoned read"),
            "failure carries the panic message, got: {}",
            failure.message
        );

        // The engine survives: a clean request still completes fully.
        let clean: Vec<DnaSeq> = reads.iter().filter(|r| **r != poison).cloned().collect();
        let mut request = engine.open().expect("engine still admits");
        assert!(request.push(clean.clone()));
        request.finish_input();
        let mut released = 0;
        while let Some(batch) = request.next_output() {
            released += batch.len();
        }
        assert_eq!(released, clean.len());
        assert_eq!(request.finish().expect("no panic").reads, clean.len());
        engine.shutdown();
    }

    #[test]
    fn pool_routing_preserves_outcomes_and_accounts_every_batch() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, _) = MapEngine::new(&mapper, EngineOptions::new().threads(1)).map_batch(&reads);
        // Alternate pool tags, declining every third batch so the spill
        // path (least-loaded fallback) is exercised too.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let route: RouteHook<SegramMapper, DnaSeq> = {
            let calls = Arc::clone(&calls);
            Arc::new(move |_mapper, _batch| {
                let n = calls.fetch_add(1, Ordering::SeqCst);
                if n % 3 == 2 {
                    None
                } else {
                    Some(n % 2)
                }
            })
        };
        let engine = MultiEngine::with_routing(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new().threads(2).queue_depth(4),
            2,
            Some(route),
        );
        assert_eq!(engine.pools(), 2);
        let (outcomes, report) = run_request(&engine, &reads, 2);
        assert_eq!(report.reads, reads.len());
        for (a, b) in base.iter().zip(&outcomes) {
            assert_eq!(key(a), key(b), "routing must not change outcomes");
        }
        let counters = engine.pool_counters();
        let batches = reads.len().div_ceil(2) as u64;
        assert_eq!(
            counters.routed + counters.spilled,
            batches,
            "every batch is either routed or spilled: {counters:?}"
        );
        assert!(counters.spilled > 0, "the declining hook must spill");
        assert!(
            counters.stolen <= batches,
            "steals are a subset of batches: {counters:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn dropping_a_handle_detaches_and_cleans_up() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MultiEngine::new(Arc::new(mapper), seq_of, EngineOptions::new().threads(2));
        {
            let mut request = engine.open().expect("admission");
            assert!(request.push(reads.clone()));
            // Dropped without finish: cancelled + detached.
        }
        // The request must disappear once its in-flight work winds down.
        let start = Instant::now();
        while engine.open_requests() > 0 && start.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(engine.open_requests(), 0);
        assert_eq!(engine.queued_batches(), 0);
        engine.shutdown();
    }

    /// A gated mapper that also logs every read it maps, so tests can
    /// assert the exact pick order of a single worker.
    struct RecordingMapper {
        graph: GenomeGraph,
        gate: Arc<AtomicBool>,
        log: Arc<std::sync::Mutex<Vec<DnaSeq>>>,
    }

    impl ReadMapper for RecordingMapper {
        fn graph(&self) -> &GenomeGraph {
            &self.graph
        }
        fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            relock(&self.log).push(read.clone());
            let start = Instant::now();
            while !self.gate.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
            (None, MapStats::default())
        }
        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (_, stats) = self.map_read(read);
            (None, stats)
        }
    }

    /// The pick-order test rig: a single-worker engine over a
    /// [`RecordingMapper`], its gate and log, and distinguishable reads.
    type RecordingRig = (
        MultiEngine<RecordingMapper, DnaSeq>,
        Arc<AtomicBool>,
        Arc<std::sync::Mutex<Vec<DnaSeq>>>,
        Vec<DnaSeq>,
    );

    fn recording_engine(queue_depth: usize) -> RecordingRig {
        let (dataset, _) = setup();
        let gate = Arc::new(AtomicBool::new(false));
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mapper = RecordingMapper {
            graph: dataset.graph().clone(),
            gate: Arc::clone(&gate),
            log: Arc::clone(&log),
        };
        let engine = MultiEngine::new(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new()
                .threads(1)
                .queue_depth(queue_depth)
                .max_queued(64),
        );
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        (engine, gate, log, reads)
    }

    /// Waits (bounded) until the single worker has picked `n` reads.
    fn await_log(log: &std::sync::Mutex<Vec<DnaSeq>>, n: usize) {
        let start = Instant::now();
        while relock(log).len() < n && start.elapsed() < Duration::from_secs(10) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn interactive_request_overtakes_queued_bulk_batches() {
        let (engine, gate, log, reads) = recording_engine(8);
        let bulk_read = reads[0].clone();
        let fast_read = reads[1].clone();
        assert_ne!(bulk_read, fast_read, "reads must be distinguishable");

        let mut bulk = engine.open_with(Priority::Bulk, None).expect("admission");
        for _ in 0..4 {
            assert!(bulk.push(vec![bulk_read.clone()]));
        }
        // The single worker is now inside (at most) one bulk batch; the
        // rest sit queued.
        await_log(&log, 1);
        let mut fast = engine
            .open_with(Priority::Interactive, None)
            .expect("admission");
        assert!(fast.push(vec![fast_read.clone()]));
        gate.store(true, Ordering::SeqCst);

        bulk.finish_input();
        fast.finish_input();
        while fast.next_output().is_some() {}
        while bulk.next_output().is_some() {}
        fast.finish().expect("no panic");
        bulk.finish().expect("no panic");

        let order = relock(&log).clone();
        let fast_at = order
            .iter()
            .position(|r| *r == fast_read)
            .expect("interactive read was mapped");
        assert!(
            fast_at <= 1,
            "the interactive batch must be picked right after the one \
             in-flight bulk batch, not at position {fast_at} of {order:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn late_deadline_outranks_class() {
        let (engine, gate, log, reads) = recording_engine(8);
        let filler_read = reads[0].clone();
        let fast_read = reads[1].clone();
        let late_read = reads[2].clone();

        // Park the single worker inside a filler batch.
        let mut filler = engine.open().expect("admission");
        assert!(filler.push(vec![filler_read.clone()]));
        await_log(&log, 1);

        // Queue an on-time interactive batch first, then a bulk batch
        // whose deadline has already passed: lateness must win.
        let mut fast = engine
            .open_with(Priority::Interactive, None)
            .expect("admission");
        assert!(fast.push(vec![fast_read.clone()]));
        let mut late = engine
            .open_with(Priority::Bulk, Some(Duration::ZERO))
            .expect("admission");
        assert!(late.push(vec![late_read.clone()]));
        gate.store(true, Ordering::SeqCst);

        for request in [&mut filler, &mut fast, &mut late] {
            request.finish_input();
        }
        while filler.next_output().is_some() {}
        while fast.next_output().is_some() {}
        while late.next_output().is_some() {}
        filler.finish().expect("no panic");
        fast.finish().expect("no panic");
        late.finish().expect("no panic");

        let order = relock(&log).clone();
        let late_at = order
            .iter()
            .position(|r| *r == late_read)
            .expect("late read was mapped");
        let fast_at = order
            .iter()
            .position(|r| *r == fast_read)
            .expect("interactive read was mapped");
        assert!(
            late_at < fast_at,
            "a past-deadline bulk batch outranks an on-time interactive \
             one, got pick order {order:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn queueing_delays_are_recorded_per_class_and_per_request() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MultiEngine::new(
            Arc::new(mapper),
            seq_of,
            EngineOptions::new().threads(2).queue_depth(4),
        );
        assert!(
            engine.queue_delays().is_empty(),
            "no class has samples before the first pick"
        );

        let mut request = engine
            .open_with(Priority::Interactive, None)
            .expect("admission");
        let mut batches = 0u64;
        for batch in reads.chunks(4) {
            assert!(request.push(batch.to_vec()));
            batches += 1;
        }
        request.finish_input();
        while request.next_output().is_some() {}
        let delay = request
            .queue_delay()
            .expect("per-request delays after draining");
        assert_eq!(delay.batches, batches);
        assert!(delay.p50 <= delay.p95 && delay.p95 <= delay.p99);
        request.finish().expect("no panic");

        let per_class = engine.queue_delays();
        assert_eq!(
            per_class.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![Priority::Interactive],
            "only the class that queued batches reports"
        );
        assert_eq!(per_class[0].1.batches, batches);
        engine.shutdown();
    }

    /// A mapper whose outcomes carry a marker, so a test can tell which
    /// mapper generation produced each outcome across a hot swap.
    struct MarkedMapper {
        graph: GenomeGraph,
        mark: usize,
    }

    impl ReadMapper for MarkedMapper {
        fn graph(&self) -> &GenomeGraph {
            &self.graph
        }
        fn map_read(&self, _read: &DnaSeq) -> (Option<Mapping>, MapStats) {
            (
                None,
                MapStats {
                    minimizers: self.mark,
                    ..MapStats::default()
                },
            )
        }
        fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, Strand)>, MapStats) {
            let (_, stats) = self.map_read(read);
            let _ = read;
            (None, stats)
        }
    }

    #[test]
    fn swap_mapper_leaves_in_flight_requests_on_the_old_index() {
        let (dataset, _) = setup();
        let read: DnaSeq = dataset.reads[0].seq.clone();
        let old = Arc::new(MarkedMapper {
            graph: dataset.graph().clone(),
            mark: 1,
        });
        let new = Arc::new(MarkedMapper {
            graph: dataset.graph().clone(),
            mark: 2,
        });
        let engine = MultiEngine::new(
            Arc::clone(&old),
            seq_of,
            EngineOptions::new()
                .threads(1)
                .queue_depth(8)
                .max_queued(64),
        );

        // Open before the swap, but push (and map) everything after it:
        // the capture at open time is what pins the index.
        let mut before = engine.open().expect("admission");
        engine.swap_mapper(Arc::clone(&new));
        assert!(Arc::ptr_eq(&engine.active_mapper(), &new));
        let mut after = engine.open().expect("admission");
        assert!(Arc::ptr_eq(&after.mapper(), &new));
        assert!(Arc::ptr_eq(&before.mapper(), &old));

        for request in [&mut before, &mut after] {
            assert!(request.push(vec![read.clone(), read.clone()]));
            request.finish_input();
        }
        let marks_of = |request: &mut RequestHandle<MarkedMapper, DnaSeq>| {
            let mut marks = Vec::new();
            while let Some(batch) = request.next_output() {
                marks.extend(batch.iter().map(|(_, o)| o.stats.minimizers));
            }
            marks
        };
        assert_eq!(
            marks_of(&mut before),
            vec![1, 1],
            "the in-flight request keeps mapping on the pre-swap index"
        );
        assert_eq!(
            marks_of(&mut after),
            vec![2, 2],
            "requests opened after the swap map on the new index"
        );
        before.finish().expect("no panic");
        after.finish().expect("no panic");
        engine.shutdown();
    }
}
