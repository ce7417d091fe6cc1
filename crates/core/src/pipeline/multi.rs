//! The workspace's one scheduler, and the long-lived multi-request engine
//! behind `segram serve` that exposes it.
//!
//! A fixed set of workers runs [`worker_loop`] over a table of open
//! requests. Each request has its own input queue, [`CancelToken`],
//! reorder buffer and ordered output; every batch is mapped outside the
//! one scheduler lock. [`MultiEngine`] owns `'static` workers over an
//! `Arc` mapper for a daemon's lifetime;
//! [`MapEngine::map_stream`](super::MapEngine::map_stream) runs the same
//! loop under `std::thread::scope` for one request over a borrowed mapper.
//! The properties:
//!
//! * **Request isolation** — concurrent requests never interleave
//!   outputs, and cancelling one (say, a disconnected client) leaves the
//!   others untouched. A panic inside one request's mapping becomes *that
//!   request's* [`RequestPanicked`]; the engine keeps serving.
//! * **QoS scheduling** — every request carries a [`Priority`] class and
//!   an optional deadline hint ([`MultiEngine::open_with`]). Workers pick
//!   the most urgent runnable request: a request past its deadline first,
//!   then by class, round-robin within a class so one huge request cannot
//!   starve its peers.
//! * **Bounded memory** — a request whose picked, pending and released but
//!   not yet taken batches reach `max_ahead = queue_depth + threads` is
//!   skipped until its reader catches up, and at most `queue_depth`
//!   released batches wait for the reader. A slow sink therefore stalls
//!   the workers instead of growing a buffer, and [`RequestHandle::push`]
//!   blocks past `queue_depth` queued batches. The reader must drain while
//!   the producer pushes.
//! * **Queueing-delay accounting** — every batch records its enqueue →
//!   pickup delay; [`MultiEngine::queue_delays`] aggregates p50/p95/p99
//!   per class and [`RequestHandle::queue_delay`] per request.
//! * **Admission control** — past `max_queued` queued batches across
//!   requests, [`MultiEngine::open`] answers [`EngineBusy`] with a retry
//!   hint derived from the observed drain rate.
//! * **Hot mapper swap** — every request captures its mapper at open, so
//!   [`MultiEngine::swap_mapper`] changes only what later requests map
//!   against: the zero-downtime `RELOAD` of `segram serve`.
//! * **Pool routing** (optional) — workers are partitioned into pools
//!   (worker `w` → pool `w % pools`), a [`RouteHook`] tags each pushed
//!   batch with a preferred pool (the elastic schedule's is
//!   [`elastic_route`](super::elastic_route)), and a worker prefers a
//!   request whose next batch is tagged for its own pool, *stealing* when
//!   nothing of its own is runnable. Per [`PoolReport`]: batches mapped,
//!   routed, spilled and stolen.
//!
//! Within a request outputs are released strictly in push order, so its
//! output is byte-identical to any other schedule of the same reads —
//! `ci.sh` enforces that through `segram map` and `segram serve`.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use segram_graph::DnaSeq;

use crate::mapper::ReadMapper;

use super::engine::{
    map_one, relock, CancelToken, EngineOptions, EngineReport, PoolReport, ReadOutcome,
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

/// One queued input batch of a request, in push order.
struct QueuedBatch<T> {
    /// Position in the request's push order (the reorder key).
    index: usize,
    items: Vec<T>,
    /// The pool this batch is tagged for.
    pool: usize,
    /// When it was pushed — the queueing delay runs from here to pickup.
    enqueued: Instant,
}

/// Per-request scheduler state. Everything lives under the one scheduler
/// lock; mapping itself always runs outside it. `H` is how the request
/// holds its mapper: an `Arc` in the daemon, a borrow in a one-shot run.
struct ReqState<H, T> {
    /// Queued input batches, in push order.
    input: VecDeque<QueuedBatch<T>>,
    input_closed: bool,
    /// Batches pushed so far (the next batch's reorder key).
    pushed: usize,
    cancel: CancelToken,
    /// Scheduling class: workers pick the most urgent runnable request.
    priority: Priority,
    /// Absolute deadline (open time + the client's hint); once passed,
    /// this request outranks every on-time one.
    deadline: Option<Instant>,
    /// The mapper captured at open: stable across
    /// [`MultiEngine::swap_mapper`], so one request never mixes indexes.
    mapper: H,
    /// This request's own queueing-delay samples.
    delays: DelayWindow,
    /// Batches popped by workers and not yet pending or discarded.
    inflight: usize,
    /// Index of the next batch to release into `out`.
    next: usize,
    /// Mapped batches waiting for an earlier one, or for room in `out`.
    pending: BTreeMap<usize, Vec<(T, ReadOutcome)>>,
    /// Released batches, strictly in push order, not yet taken; at most
    /// `queue_depth` of them.
    out: VecDeque<Vec<(T, ReadOutcome)>>,
    /// Totals over the released reads, plus this request's queue counters.
    report: EngineReport,
    /// All work released or discarded; `next_output` returns `None` once
    /// `out` also drains.
    done: bool,
    /// Handle dropped without `finish`: discard outputs, remove when idle.
    detached: bool,
    failure: Option<String>,
    /// Since when the request has been held back with input queued.
    held_since: Option<Instant>,
}

impl<H, T> ReqState<H, T> {
    /// Whether the request holds `max_ahead` batches between pickup and
    /// its reader: workers leave it alone until the reader catches up. A
    /// cancelled request's batches are always poppable (cheap discard).
    fn held(&self, max_ahead: usize) -> bool {
        !self.cancel.is_cancelled()
            && self.inflight + self.pending.len() + self.out.len() >= max_ahead
    }

    /// Times each period the request spends held back with input queued
    /// into its `output_stall_*` counters; called after every change to
    /// what [`held`](Self::held) reads.
    fn track_hold(&mut self, max_ahead: usize) {
        let held = !self.input.is_empty() && self.held(max_ahead);
        match (held, self.held_since) {
            (true, None) => self.held_since = Some(Instant::now()),
            (false, Some(since)) => {
                self.held_since = None;
                self.report.queue.output_stall_waits += 1;
                self.report.queue.output_stall_wait += since.elapsed();
            }
            _ => {}
        }
    }

    /// Moves the batches contiguous with the released prefix from
    /// `pending` into `out` while `out` has fewer than `room`, folding
    /// their reads into the report (a detached request's are dropped).
    fn release(&mut self, room: usize) {
        while self.detached || self.out.len() < room {
            let Some(ready) = self.pending.remove(&self.next) else {
                break;
            };
            self.next += 1;
            for (_, outcome) in &ready {
                self.report.reads += 1;
                self.report.mapped += usize::from(outcome.mapping.is_some());
                self.report.stats.merge(&outcome.stats);
            }
            if !self.detached {
                self.out.push_back(ready);
            }
        }
        let queue = &mut self.report.queue;
        queue.output_max_depth = queue.output_max_depth.max(self.out.len());
    }
}

struct Sched<H, T> {
    requests: BTreeMap<u64, ReqState<H, T>>,
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
    /// Per-pool counters over the engine's lifetime.
    pools: Vec<PoolReport>,
    /// A request with this many batches picked, pending or released but not
    /// yet taken is skipped until its reader catches up.
    max_ahead: usize,
    /// Lifetime queueing-delay windows, indexed by [`Priority::index`].
    class_delays: [DelayWindow; 3],
    /// Timestamps of the most recent worker picks — the live drain-rate
    /// estimate behind [`EngineBusy::retry_hint`].
    recent_picks: VecDeque<Instant>,
    shutdown: bool,
}

/// Picks kept for the drain-rate estimate.
const RECENT_PICKS: usize = 64;

impl<H, T> Sched<H, T> {
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
            req.pending.clear();
            if req.inflight == 0 {
                req.done = true;
            }
        } else if req.input_closed
            && req.input.is_empty()
            && req.inflight == 0
            && req.pending.is_empty()
        {
            req.done = true;
        }
        req.track_hold(self.max_ahead);
        if req.done && req.detached && req.inflight == 0 {
            self.requests.remove(&id);
            self.rr.retain(|&r| r != id);
        }
    }
}

/// The optional batch-routing hook of pool-routed engines: given the
/// mapper the batch's request captured at open — not whichever one is
/// active now, so the hook holds no mapper of its own and a swapped-out
/// one is freed with its last request — and the batch's reads, returns
/// the preferred pool, or `None` to spill the batch to the least-loaded
/// pool.
pub type RouteHook<M> = Arc<dyn Fn(&M, &[&DnaSeq]) -> Option<usize> + Send + Sync>;

/// The scheduler: request table, configuration and wakeups, shared by the
/// workers, the producers and the readers of every open request. `H` is
/// the per-request mapper handle, `R` projects a read out of an item.
pub(crate) struct Shared<H: Deref, T, R> {
    read_of: R,
    pub(crate) threads: usize,
    /// Worker pools (1 = unrouted). Worker `w` serves pool `w % pools`.
    pub(crate) pools: usize,
    route: Option<RouteHook<H::Target>>,
    queue_depth: usize,
    max_queued: usize,
    both_strands: bool,
    sched: Mutex<Sched<H, T>>,
    /// Workers wait here for a runnable request.
    work_ready: Condvar,
    /// Producers wait here for per-request input space.
    space_ready: Condvar,
    /// Readers wait here for ordered output or completion.
    output_ready: Condvar,
}

impl<H, T, R> Shared<H, T, R>
where
    H: Deref + Clone,
    H::Target: ReadMapper,
    R: Fn(&T) -> &DnaSeq,
{
    /// A scheduler for `options` (zero fields derived: see
    /// [`EngineOptions`]) with `pools` routing pools, clamped to
    /// `1..=threads` so every pool has a worker.
    pub(crate) fn new(
        read_of: R,
        options: &EngineOptions,
        pools: usize,
        route: Option<RouteHook<H::Target>>,
    ) -> Self {
        let threads = options.resolved_threads();
        let pools = pools.clamp(1, threads);
        let queue_depth = options.resolved_queue_depth(threads);
        let max_queued = match options.max_queued {
            0 => queue_depth * 4,
            n => n,
        };
        let pool_reports = (0..pools)
            .map(|pool| PoolReport {
                workers: (0..threads).filter(|w| w % pools == pool).count(),
                ..PoolReport::default()
            })
            .collect();
        Shared {
            read_of,
            threads,
            pools,
            route,
            queue_depth,
            max_queued,
            both_strands: options.both_strands,
            sched: Mutex::new(Sched {
                requests: BTreeMap::new(),
                rr: VecDeque::new(),
                next_id: 0,
                queued_total: 0,
                queued_per_pool: vec![0; pools],
                pools: pool_reports,
                max_ahead: queue_depth + threads,
                class_delays: Default::default(),
                recent_picks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            output_ready: Condvar::new(),
        }
    }

    /// Opens a request over `mapper`, subject to admission control.
    pub(crate) fn open(
        &self,
        mapper: H,
        cancel: CancelToken,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<u64, EngineBusy> {
        let mut guard = self.lock();
        if guard.shutdown || guard.queued_total >= self.max_queued {
            return Err(EngineBusy {
                queued: guard.queued_total,
                capacity: self.max_queued,
                retry_hint: guard.retry_hint(),
            });
        }
        let id = guard.next_id;
        guard.next_id += 1;
        let state = ReqState {
            input: VecDeque::new(),
            input_closed: false,
            pushed: 0,
            cancel,
            priority,
            deadline: deadline.map(|d| Instant::now() + d),
            mapper,
            delays: DelayWindow::default(),
            inflight: 0,
            next: 0,
            pending: BTreeMap::new(),
            out: VecDeque::new(),
            report: EngineReport::default(),
            done: false,
            detached: false,
            failure: None,
            held_since: None,
        };
        guard.requests.insert(id, state);
        guard.rr.push_back(id);
        Ok(id)
    }

    /// Pushes one input batch of request `id` (whose mapper is `mapper`),
    /// blocking while its input queue is full. Returns `false` — and drops
    /// the batch — once the request is cancelled or the engine stops.
    pub(crate) fn push(&self, id: u64, mapper: &H::Target, items: Vec<T>) -> bool {
        // The route hook runs on the producer thread, outside the lock:
        // minimizer extraction must never block the workers.
        let preferred = match &self.route {
            Some(route) if self.pools > 1 && !items.is_empty() => {
                let reads: Vec<&DnaSeq> = items.iter().map(&self.read_of).collect();
                route(mapper, &reads).filter(|&pool| pool < self.pools)
            }
            _ => Some(0),
        };
        let mut guard = self.lock();
        let mut blocked: Option<Instant> = None;
        loop {
            let shutdown = guard.shutdown;
            let Some(req) = guard.requests.get_mut(&id) else {
                return false;
            };
            if req.cancel.is_cancelled() || shutdown {
                return false;
            }
            if items.is_empty() {
                return true;
            }
            if req.input.len() < self.queue_depth {
                if let Some(since) = blocked {
                    req.report.queue.producer_waits += 1;
                    req.report.queue.producer_wait += since.elapsed();
                }
                break;
            }
            blocked.get_or_insert_with(Instant::now);
            guard = self
                .space_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let sched = &mut *guard;
        let pool = match preferred {
            Some(pool) => {
                sched.pools[pool].routed += 1;
                pool
            }
            None => {
                let pool = (0..self.pools)
                    .min_by_key(|&p| sched.queued_per_pool[p])
                    .expect("at least one pool");
                sched.pools[pool].spilled += 1;
                pool
            }
        };
        sched.queued_total += 1;
        sched.queued_per_pool[pool] += 1;
        let pool_depth = &mut sched.pools[pool].queue.max_depth;
        *pool_depth = (*pool_depth).max(sched.queued_per_pool[pool]);
        let req = sched.requests.get_mut(&id).expect("request checked above");
        req.input.push_back(QueuedBatch {
            index: req.pushed,
            items,
            pool,
            enqueued: Instant::now(),
        });
        req.pushed += 1;
        req.track_hold(sched.max_ahead);
        let queue = &mut req.report.queue;
        queue.max_depth = queue.max_depth.max(req.input.len());
        drop(guard);
        self.work_ready.notify_all();
        true
    }

    /// Declares the end of request `id`'s input.
    pub(crate) fn finish_input(&self, id: u64) {
        let mut guard = self.lock();
        if let Some(req) = guard.requests.get_mut(&id) {
            req.input_closed = true;
        }
        guard.settle(id);
        drop(guard);
        self.notify_all();
    }

    /// Blocks for request `id`'s next output batch, strictly in push
    /// order; `None` once it is complete and drained.
    pub(crate) fn next_output(&self, id: u64) -> Option<Vec<(T, ReadOutcome)>> {
        let mut guard = self.lock();
        let mut blocked: Option<Instant> = None;
        loop {
            let (shutdown, max_ahead) = (guard.shutdown, guard.max_ahead);
            let req = guard.requests.get_mut(&id)?;
            let was_held = req.held(max_ahead);
            if let Some(batch) = req.out.pop_front() {
                if let Some(since) = blocked {
                    req.report.queue.writer_waits += 1;
                    req.report.queue.writer_wait += since.elapsed();
                }
                req.release(self.queue_depth);
                // A cancellation raised on the token alone is settled
                // here: it may free a producer blocked on a full queue.
                guard.settle(id);
                let settled = guard
                    .requests
                    .get(&id)
                    .is_none_or(|req| req.done || req.cancel.is_cancelled());
                drop(guard);
                if was_held || settled {
                    self.notify_all();
                }
                return Some(batch);
            }
            if req.done || shutdown {
                return None;
            }
            blocked.get_or_insert_with(Instant::now);
            guard = self
                .output_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits until request `id` is complete, removes it, and returns its
    /// report.
    pub(crate) fn finish(&self, id: u64) -> Result<EngineReport, RequestPanicked> {
        self.finish_input(id);
        let mut guard = self.lock();
        loop {
            let Some(req) = guard.requests.get(&id) else {
                // Already removed (shutdown raced us): report what we know.
                return Ok(EngineReport {
                    threads: self.threads,
                    ..EngineReport::default()
                });
            };
            if req.done || guard.shutdown {
                break;
            }
            guard = self
                .output_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let state = guard.requests.remove(&id).expect("checked above");
        guard.rr.retain(|&r| r != id);
        drop(guard);
        let mut report = state.report;
        report.backend = state.mapper.backend_name();
        report.threads = self.threads;
        match state.failure {
            Some(message) => Err(RequestPanicked { message }),
            None => Ok(report),
        }
    }

    /// Cancels request `id`: queued input and pending outputs are dropped,
    /// in-flight batches wind down; `detach` also discards its outputs and
    /// removes it once idle.
    pub(crate) fn cancel(&self, id: u64, detach: bool) {
        let mut guard = self.lock();
        if let Some(req) = guard.requests.get_mut(&id) {
            req.cancel.cancel();
            if detach {
                req.detached = true;
                req.out.clear();
            }
        }
        guard.settle(id);
        drop(guard);
        self.notify_all();
    }
}

impl<H: Deref, T, R> Shared<H, T, R> {
    fn lock(&self) -> MutexGuard<'_, Sched<H, T>> {
        relock(&self.sched)
    }

    fn notify_all(&self) {
        self.work_ready.notify_all();
        self.space_ready.notify_all();
        self.output_ready.notify_all();
    }

    /// Stops the workers: cancels every open request and wakes everyone.
    pub(crate) fn shutdown(&self) {
        let mut guard = self.lock();
        guard.shutdown = true;
        let ids: Vec<u64> = guard.requests.keys().copied().collect();
        for id in ids {
            if let Some(req) = guard.requests.get(&id) {
                req.cancel.cancel();
            }
            guard.settle(id);
        }
        drop(guard);
        self.notify_all();
    }

    /// The per-pool counters so far.
    pub(crate) fn pool_reports(&self) -> Vec<PoolReport> {
        self.lock().pools.clone()
    }
}

/// The worker loop — the only one in the workspace: pick the most urgent
/// runnable request — past-deadline first, then by [`Priority`] class,
/// then one whose next batch is tagged for this worker's `pool`, breaking
/// remaining ties in rotation order (the steal that keeps every worker
/// busy whatever the routing skew) — then map its next batch outside the
/// lock, release in order, repeat until shutdown.
pub(crate) fn worker_loop<H, T, R>(shared: &Shared<H, T, R>, pool: usize)
where
    H: Deref + Clone,
    H::Target: ReadMapper,
    R: Fn(&T) -> &DnaSeq,
{
    let mut guard = shared.lock();
    // Since when this worker has found nothing it may pick; recorded when
    // the wait ends in a pick (one cut short by shutdown is the end of the
    // stream, not a wait).
    let mut idle: Option<Instant> = None;
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
            if req.held(guard.max_ahead) {
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
            idle.get_or_insert(now);
            guard = shared
                .work_ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let sched = &mut *guard;
        let counters = &mut sched.pools[pool];
        if let Some(since) = idle.take() {
            counters.queue.worker_waits += 1;
            counters.queue.worker_wait += since.elapsed();
        }
        sched.rr.remove(slot);
        sched.rr.push_back(id);
        let req = sched.requests.get_mut(&id).expect("picked request exists");
        let QueuedBatch {
            index,
            items,
            pool: batch_pool,
            enqueued,
        } = req.input.pop_front().expect("picked request has input");
        req.inflight += 1;
        req.track_hold(sched.max_ahead);
        let cancel = req.cancel.clone();
        let mapper = req.mapper.clone();
        // Queueing delay = enqueue → this pickup. Cancelled requests'
        // batches are discards, not service, and are left out.
        let live = !cancel.is_cancelled();
        let waited = now.saturating_duration_since(enqueued);
        if live {
            req.delays.record(waited);
            sched.class_delays[req.priority.index()].record(waited);
        }
        if batch_pool != pool {
            counters.stolen += 1;
        }
        sched.queued_total -= 1;
        sched.queued_per_pool[batch_pool] -= 1;
        sched.recent_picks.push_back(now);
        if sched.recent_picks.len() > RECENT_PICKS {
            sched.recent_picks.pop_front();
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
                let outcome = map_one(&*mapper, shared.both_strands, (shared.read_of)(&item));
                outcomes.push((item, outcome));
            }
            true
        }));
        drop(mapper);

        guard = shared.lock();
        let sched = &mut *guard;
        if let Some(req) = sched.requests.get_mut(&id) {
            req.inflight -= 1;
            match result {
                Err(payload) => {
                    if req.failure.is_none() {
                        req.failure = Some(panic_message(payload));
                    }
                    req.cancel.cancel();
                }
                Ok(true) if !req.cancel.is_cancelled() => {
                    req.report.batches += 1;
                    sched.pools[pool].batches += 1;
                    req.pending.insert(index, outcomes);
                    req.release(shared.queue_depth);
                }
                // Cancelled mid-batch or just after: outputs are dropped.
                Ok(_) => {}
            }
            sched.settle(id);
        }
        drop(guard);
        shared.notify_all();
        guard = shared.lock();
    }
}

/// The mapper handle and read projection of a daemon's scheduler.
type DaemonShared<M, T> = Shared<Arc<M>, T, fn(&T) -> &DnaSeq>;

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
/// let request = engine.open().expect("engine accepts");
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
    shared: Arc<DaemonShared<M, T>>,
    /// The mapper *new* requests capture at open.
    mapper: Mutex<Arc<M>>,
    workers: Vec<JoinHandle<()>>,
}

// Manual impl: `derive` would demand `M: Debug` + `T: Debug`, which the
// mapper has no reason to provide.
impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> fmt::Debug for MultiEngine<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiEngine")
            .field("threads", &self.shared.threads)
            .field("pools", &self.shared.pools)
            .field("queue_depth", &self.shared.queue_depth)
            .field("max_queued", &self.shared.max_queued)
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
        route: Option<RouteHook<M>>,
    ) -> Self {
        let shared = Arc::new(Shared::new(read_of, &options, pools, route));
        let workers = (0..shared.threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("segram-serve-{i}"))
                    .spawn(move || worker_loop(shared.as_ref(), i % shared.pools))
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            shared,
            mapper: Mutex::new(mapper),
            workers,
        }
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
        let mapper = self.active_mapper();
        let cancel = CancelToken::new();
        let id = self
            .shared
            .open(Arc::clone(&mapper), cancel.clone(), priority, deadline)?;
        Ok(RequestHandle {
            shared: Arc::clone(&self.shared),
            mapper,
            id,
            cancel,
            finished: false,
        })
    }

    /// Replaces the mapper for **future** requests; requests already open
    /// keep mapping against the mapper they captured at open time. This is
    /// the zero-downtime half of `RELOAD`: build the new index off-thread,
    /// then swap between requests.
    pub fn swap_mapper(&self, mapper: Arc<M>) {
        *relock(&self.mapper) = mapper;
    }

    /// The mapper new requests would currently capture.
    pub fn active_mapper(&self) -> Arc<M> {
        Arc::clone(&relock(&self.mapper))
    }

    /// Lifetime queueing-delay percentiles per priority class (classes
    /// that never queued a batch are omitted), most urgent first.
    pub fn queue_delays(&self) -> Vec<(Priority, QueueDelayStats)> {
        let guard = self.shared.lock();
        Priority::ALL
            .iter()
            .filter_map(|&p| guard.class_delays[p.index()].stats().map(|s| (p, s)))
            .collect()
    }

    /// The live queued-batch depth across all open requests — the
    /// admission/backpressure signal (`BUSY <depth>` in the serve
    /// protocol).
    pub fn queued_batches(&self) -> usize {
        self.shared.lock().queued_total
    }

    /// Open (not yet finished or removed) requests.
    pub fn open_requests(&self) -> usize {
        self.shared.lock().requests.len()
    }

    /// Worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Worker pools (1 unless built [`with_routing`](Self::with_routing)).
    pub fn pools(&self) -> usize {
        self.shared.pools
    }

    /// Per-pool batch and wait counters since the engine started.
    pub fn pool_reports(&self) -> Vec<PoolReport> {
        self.shared.pool_reports()
    }

    /// Stops the pool: cancels every open request and joins the workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown();
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
/// ordered output batches — from another thread than the pushes, unless
/// the whole input fits under the engine's bound — then
/// [`finish`](Self::finish) for the report. Dropping the handle without
/// finishing cancels the request and discards its outputs.
pub struct RequestHandle<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> {
    shared: Arc<DaemonShared<M, T>>,
    mapper: Arc<M>,
    id: u64,
    cancel: CancelToken,
    finished: bool,
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> fmt::Debug for RequestHandle<M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.id)
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
        self.shared
            .lock()
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
        self.shared.cancel(self.id, false);
    }

    /// Pushes one input batch, blocking while this request's input queue
    /// is full. Returns `false` — and discards the batch — once the
    /// request is cancelled or the engine is shutting down.
    pub fn push(&self, items: Vec<T>) -> bool {
        self.shared.push(self.id, &self.mapper, items)
    }

    /// Declares end of input: once every pushed batch is released the
    /// request completes and [`next_output`](Self::next_output) returns
    /// `None` after draining.
    pub fn finish_input(&self) {
        self.shared.finish_input(self.id);
    }

    /// Blocks for the next output batch, **strictly in push order**.
    /// Returns `None` once the request is complete (all input released, or
    /// cancelled) and every released batch has been taken.
    pub fn next_output(&self) -> Option<Vec<(T, ReadOutcome)>> {
        self.shared.next_output(self.id)
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
        self.finished = true;
        self.shared.finish(self.id)
    }
}

impl<M: ReadMapper + Send + Sync + 'static, T: Send + 'static> Drop for RequestHandle<M, T> {
    fn drop(&mut self) {
        if !self.finished {
            self.shared.cancel(self.id, true);
        }
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
    /// batches while another thread drains, returning flattened outcomes +
    /// the report.
    fn run_request<M: ReadMapper + Send + Sync + 'static>(
        engine: &MultiEngine<M, DnaSeq>,
        reads: &[DnaSeq],
        chunk: usize,
    ) -> (Vec<ReadOutcome>, EngineReport) {
        let request = engine.open().expect("admission");
        let (echoed, outcomes): (Vec<DnaSeq>, Vec<ReadOutcome>) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut released = Vec::new();
                while let Some(batch) = request.next_output() {
                    released.extend(batch);
                }
                released.into_iter().unzip()
            });
            for batch in reads.chunks(chunk) {
                assert!(request.push(batch.to_vec()));
            }
            request.finish_input();
            reader.join().expect("reader thread")
        });
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
                let request = engine.open().expect("admission");
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
            let survivor = scope.spawn(|| run_request(&engine, &vec![read.clone(); 10], 1).0.len());
            let (saw_output, report) = victim.join().expect("victim thread");
            assert!(saw_output, "victim produced output before cancellation");
            let report = report.expect("cancellation is not a panic");
            assert!(report.reads < 8, "cancellation cut the victim short");
            let survivor_reads = survivor.join().expect("survivor thread");
            assert_eq!(survivor_reads, 10, "survivor completed every read");
        });
        engine.shutdown();
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
        let request = engine.open().expect("empty engine admits");
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
                let request = engine.open().expect("admission");
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
                let request = engine.open().expect("admission");
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
        let mapper = Arc::new(FaultyMapper {
            inner: mapper,
            poison: poison.clone(),
        });
        let clean: Vec<DnaSeq> = reads.iter().filter(|r| **r != poison).cloned().collect();
        // Unrouted, and over two pools with every other batch tagged for
        // the other pool, so the failing batch can be a stolen one.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let route: RouteHook<FaultyMapper> =
            Arc::new(move |_, _| Some(calls.fetch_add(1, Ordering::SeqCst) % 2));
        for (pools, route) in [(1, None), (2, Some(route))] {
            let engine = MultiEngine::with_routing(
                Arc::clone(&mapper),
                seq_of,
                EngineOptions::new().threads(2),
                pools,
                route,
            );
            let doomed = engine.open().expect("admission");
            for batch in [&reads[..3], &reads[3..5]] {
                assert!(doomed.push(batch.to_vec()));
            }
            doomed.finish_input();
            while doomed.next_output().is_some() {}
            let failure = doomed.finish().expect_err("the poison read panics");
            assert!(
                failure.message.contains("poisoned read"),
                "failure carries the panic message, got: {}",
                failure.message
            );

            // The engine survives: a clean request still completes fully.
            let (outcomes, report) = run_request(&engine, &clean, 3);
            assert_eq!(outcomes.len(), clean.len(), "pools {pools}");
            assert_eq!(report.reads, clean.len(), "pools {pools}");
            engine.shutdown();
        }
    }

    #[test]
    fn pool_routing_preserves_outcomes_and_accounts_every_batch() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (base, _) = MapEngine::new(&mapper, EngineOptions::new().threads(1)).map_batch(&reads);
        // Alternate pool tags, declining every third batch so the spill
        // path (least-loaded fallback) is exercised too.
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let route: RouteHook<SegramMapper> = {
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
        let pools = engine.pool_reports();
        let sum = |field: fn(&PoolReport) -> u64| pools.iter().map(field).sum::<u64>();
        let batches = reads.len().div_ceil(2) as u64;
        assert_eq!(
            sum(|p| p.routed) + sum(|p| p.spilled),
            batches,
            "every batch is either routed or spilled: {pools:?}"
        );
        assert!(sum(|p| p.spilled) > 0, "the declining hook must spill");
        assert_eq!(sum(|p| p.batches), batches, "{pools:?}");
        assert!(
            sum(|p| p.stolen) <= batches,
            "steals are a subset of batches: {pools:?}"
        );
        engine.shutdown();
    }

    #[test]
    fn dropping_a_handle_detaches_and_cleans_up() {
        let (dataset, mapper) = setup();
        let reads: Vec<DnaSeq> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let engine = MultiEngine::new(Arc::new(mapper), seq_of, EngineOptions::new().threads(2));
        {
            let request = engine.open().expect("admission");
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

        let bulk = engine.open_with(Priority::Bulk, None).expect("admission");
        for _ in 0..4 {
            assert!(bulk.push(vec![bulk_read.clone()]));
        }
        // The single worker is now inside (at most) one bulk batch; the
        // rest sit queued.
        await_log(&log, 1);
        let fast = engine
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
        let filler = engine.open().expect("admission");
        assert!(filler.push(vec![filler_read.clone()]));
        await_log(&log, 1);

        // Queue an on-time interactive batch first, then a bulk batch
        // whose deadline has already passed: lateness must win.
        let fast = engine
            .open_with(Priority::Interactive, None)
            .expect("admission");
        assert!(fast.push(vec![fast_read.clone()]));
        let late = engine
            .open_with(Priority::Bulk, Some(Duration::ZERO))
            .expect("admission");
        assert!(late.push(vec![late_read.clone()]));
        gate.store(true, Ordering::SeqCst);

        for request in [&filler, &fast, &late] {
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

        let request = engine
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
        let before = engine.open().expect("admission");
        engine.swap_mapper(Arc::clone(&new));
        assert!(Arc::ptr_eq(&engine.active_mapper(), &new));
        let after = engine.open().expect("admission");
        assert!(Arc::ptr_eq(&after.mapper(), &new));
        assert!(Arc::ptr_eq(&before.mapper(), &old));

        for request in [&before, &after] {
            assert!(request.push(vec![read.clone(), read.clone()]));
            request.finish_input();
        }
        let marks_of = |request: &RequestHandle<MarkedMapper, DnaSeq>| {
            let mut marks = Vec::new();
            while let Some(batch) = request.next_output() {
                marks.extend(batch.iter().map(|(_, o)| o.stats.minimizers));
            }
            marks
        };
        assert_eq!(
            marks_of(&before),
            vec![1, 1],
            "the in-flight request keeps mapping on the pre-swap index"
        );
        assert_eq!(
            marks_of(&after),
            vec![2, 2],
            "requests opened after the swap map on the new index"
        );
        before.finish().expect("no panic");
        after.finish().expect("no panic");
        engine.shutdown();
    }
}
