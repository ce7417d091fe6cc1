//! Elastic shard scheduling: a routing policy over the one stream loop —
//! per-shard-group worker pools, routed batches, live imbalance-driven
//! rebalancing.
//!
//! The paper scales by *per-channel provisioning*: each HBM channel owns
//! a slice of the index and a private accelerator pipeline, so requests
//! for a channel's slice never contend with the others (Section 8.3).
//! [`ElasticScheduler`] is the software analogue on top of
//! [`ShardedIndex`]: the shards are spread over N worker *pools* with the
//! paper's greedy size-balanced placement
//! ([`balance_loads`](crate::balance_loads)), and every batch is steered
//! to the pool owning most of its seed hits.
//!
//! ```text
//!                      route by dominant shard group
//!            ┌──────────────────┬──────────────────┐
//!   producer │  pool 0 queue    │  pool 1 queue    │ ... (spill → shortest
//!   (decode  ▼                  ▼                  ▼      queue)
//!   + route) workers w%P==0    workers w%P==1     ...
//!            └───────┬──────────┴───────┬─────────┘
//!                    ▼ shared reorder buffer ▼   (input-order release)
//!                     └─── writer thread ───┘    → byte-identical output
//! ```
//!
//! Everything below the routing decision — queues, workers, reorder
//! buffer, writer thread, cancellation, first-panic capture — is
//! [`MapEngine::map_routed_stream`], the same loop the fanout schedule
//! runs with one pool. This module adds only what is elastic:
//!
//! * **Pre-decode** — the router needs the decoded read, so the shell
//!   decodes on the producer thread (serially, in input order: the first
//!   failure it sees *is* the stream's first malformed record) and hands
//!   the loop already-decoded items.
//! * **Route** — [`route_batch`]: one minimizer extraction per read
//!   ([`ShardRouter::route_hits`](super::ShardRouter::route_hits)), a
//!   strict majority of the batch's seed hits routes it to that group's
//!   pool; anything that straddles groups (or hits nothing) *spills* to
//!   the pool with the shortest live queue, and so does a batch whose
//!   pool's queue is full while another has room (the loop's rule: one
//!   producer feeds every pool, so it must not wait on one of them).
//! * **Rebalance** — a [`Rebalancer`] watches the live per-shard seed-hit
//!   counters ([`ShardStats`](crate::ShardStats), the signal behind
//!   [`ShardedIndex::seed_imbalance`]) and migrates shard ownership
//!   between pools at batch boundaries, re-running the greedy placement
//!   with hysteresis (an imbalance threshold plus a post-migration
//!   cooldown) so it cannot thrash. Migration is safe at any batch
//!   boundary because pool ownership only steers *scheduling*: every read
//!   still maps against the full sharded index.

use std::time::{Duration, Instant};

use segram_graph::DnaSeq;

use crate::pipeline::engine::{EngineOptions, EngineReport, MapEngine};
use crate::pipeline::router::route_batch;
use crate::pipeline::ReadOutcome;
use crate::shard::{balance_loads, load_imbalance, ShardedIndex};

/// Hysteresis knobs of the live [`Rebalancer`].
#[derive(Clone, Copy, Debug)]
pub struct RebalanceConfig {
    /// Minimum max-over-mean imbalance of per-pool loads
    /// ([`load_imbalance`](crate::load_imbalance)) before a migration is
    /// even considered. Below it the current placement is good enough.
    pub threshold: f64,
    /// Observations (batch boundaries) to hold still after a migration —
    /// the hysteresis that keeps alternating proposals from thrashing
    /// shards back and forth.
    pub cooldown: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        Self {
            threshold: 1.5,
            cooldown: 8,
        }
    }
}

/// Live shard-ownership table with imbalance-driven migration and
/// hysteresis.
///
/// Owns the shard → pool assignment the producer routes by. Each batch
/// boundary feeds it the current per-shard load vector via
/// [`observe`](Self::observe); when the per-pool aggregate imbalance
/// exceeds the threshold (and the cooldown has elapsed), it re-runs the
/// paper's greedy placement ([`balance_loads`](crate::balance_loads)) on
/// the live loads, relabels the proposal to maximize agreement with the
/// current assignment (a relabeled identical partition is *not* a
/// migration), and applies whatever actually moved.
///
/// Because `balance_loads` is deterministic, proposals stabilize as the
/// cumulative load proportions stabilize — so migrations provably stop on
/// a stationary workload, which is the hysteresis property the tests pin.
#[derive(Debug)]
pub struct Rebalancer {
    /// Shard id → owning pool.
    assignment: Vec<usize>,
    pools: usize,
    config: RebalanceConfig,
    observations: u64,
    last_migration: Option<u64>,
    migrations: u64,
}

impl Rebalancer {
    /// Starts from an initial placement (per pool, the shard ids it
    /// owns).
    ///
    /// # Panics
    ///
    /// Panics when `initial` is empty or does not cover every shard in
    /// `0..shard_count` exactly once.
    pub fn new(initial: &[Vec<usize>], shard_count: usize, config: RebalanceConfig) -> Self {
        assert!(!initial.is_empty(), "at least one pool");
        let mut assignment = vec![usize::MAX; shard_count];
        for (pool, shards) in initial.iter().enumerate() {
            for &shard in shards {
                assert!(
                    assignment[shard] == usize::MAX,
                    "shard {shard} placed twice"
                );
                assignment[shard] = pool;
            }
        }
        assert!(
            assignment.iter().all(|&p| p != usize::MAX),
            "initial placement must cover every shard"
        );
        Self {
            assignment,
            pools: initial.len(),
            config,
            observations: 0,
            last_migration: None,
            migrations: 0,
        }
    }

    /// The placement both schedulers boot with: the index's shards spread
    /// over `min(threads, shards)` pools, balanced by per-shard memory
    /// bytes. The shard count is the index's own — it clamps a requested
    /// `--shards` to its non-empty coordinate ranges.
    pub fn for_index(index: &ShardedIndex, threads: usize, config: RebalanceConfig) -> Self {
        let loads = index.shard_loads();
        let pools = threads.clamp(1, loads.len());
        Self::new(&balance_loads(&loads, pools), index.shards().len(), config)
    }

    /// Number of pools the shards are spread over.
    pub fn pools(&self) -> usize {
        self.pools
    }

    /// Number of shards the placement covers.
    pub fn shards(&self) -> usize {
        self.assignment.len()
    }

    /// The pool currently owning `shard`.
    pub fn pool_of(&self, shard: usize) -> usize {
        self.assignment[shard]
    }

    /// Current ownership, per pool.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.pools];
        for (shard, &pool) in self.assignment.iter().enumerate() {
            groups[pool].push(shard);
        }
        groups
    }

    /// Total shards migrated since construction.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Feeds one load observation (per-shard cumulative loads, e.g. live
    /// seed-hit counters) and migrates ownership if the imbalance
    /// warrants it. Returns how many shards changed pools (0 = no
    /// migration: balanced enough, inside the cooldown, or the balanced
    /// proposal already equals the current assignment).
    pub fn observe(&mut self, shard_loads: &[u64]) -> usize {
        assert_eq!(
            shard_loads.len(),
            self.assignment.len(),
            "load vector must cover every shard"
        );
        self.observations += 1;
        if let Some(last) = self.last_migration {
            if self.observations.saturating_sub(last) <= self.config.cooldown {
                return 0;
            }
        }
        let mut pool_loads = vec![0u64; self.pools];
        for (&pool, &load) in self.assignment.iter().zip(shard_loads) {
            pool_loads[pool] += load;
        }
        if load_imbalance(&pool_loads) < self.config.threshold {
            return 0;
        }
        let proposal = balance_loads(shard_loads, self.pools);
        let relabeled = self.relabel(&proposal, shard_loads);
        let moved = relabeled
            .iter()
            .zip(&self.assignment)
            .filter(|(a, b)| a != b)
            .count();
        if moved == 0 {
            return 0;
        }
        self.assignment = relabeled;
        self.migrations += moved as u64;
        self.last_migration = Some(self.observations);
        moved
    }

    /// Maps proposal bins onto current pools by greedy maximum load
    /// overlap, so a proposal that merely permutes bin labels over the
    /// same partition counts as zero migrations.
    fn relabel(&self, proposal: &[Vec<usize>], shard_loads: &[u64]) -> Vec<usize> {
        let pools = self.pools;
        let mut overlap = vec![vec![0u64; pools]; pools];
        for (bin, members) in proposal.iter().enumerate() {
            for &shard in members {
                // `max(1)`: zero-load shards still vote for staying put.
                overlap[bin][self.assignment[shard]] += shard_loads[shard].max(1);
            }
        }
        let mut bin_to_pool = vec![usize::MAX; pools];
        let mut pool_taken = vec![false; pools];
        let mut bin_taken = vec![false; pools];
        for _ in 0..pools {
            let mut best: Option<(u64, usize, usize)> = None;
            for (bin, row) in overlap.iter().enumerate() {
                if bin_taken[bin] {
                    continue;
                }
                for (pool, &weight) in row.iter().enumerate() {
                    if pool_taken[pool] {
                        continue;
                    }
                    // Strict `>` keeps ties on the lowest (bin, pool)
                    // pair — deterministic for reproducible migrations.
                    if best.is_none_or(|(w, _, _)| weight > w) {
                        best = Some((weight, bin, pool));
                    }
                }
            }
            let (_, bin, pool) = best.expect("unmatched bin/pool pair remains");
            bin_to_pool[bin] = pool;
            bin_taken[bin] = true;
            pool_taken[pool] = true;
        }
        let mut assignment = self.assignment.clone();
        for (bin, members) in proposal.iter().enumerate() {
            for &shard in members {
                assignment[shard] = bin_to_pool[bin];
            }
        }
        assignment
    }
}

/// The per-shard-group pool schedule over a [`ShardedIndex`] — the
/// *elastic* counterpart of [`MapEngine`]'s fanout schedule (`segram map
/// --schedule elastic`), as a routing shell over the same loop.
///
/// # Examples
///
/// ```
/// use segram_core::{ElasticScheduler, EngineOptions, SegramConfig, ShardedIndex};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let index = ShardedIndex::build(dataset.graph().clone(), SegramConfig::short_reads(), 2);
/// let scheduler = ElasticScheduler::new(&index, EngineOptions::new().threads(2));
/// let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// let (outcomes, report) = scheduler.map_batch(&reads);
/// assert_eq!(outcomes.len(), reads.len());
/// assert_eq!(report.routed() + report.spilled(), report.batches as u64);
/// ```
#[derive(Debug)]
pub struct ElasticScheduler<'m> {
    index: &'m ShardedIndex,
    options: EngineOptions,
    rebalance: RebalanceConfig,
}

impl<'m> ElasticScheduler<'m> {
    /// Binds the scheduler to a sharded index. The pools boot with
    /// [`Rebalancer::for_index`]'s placement for the options' thread
    /// count.
    pub fn new(index: &'m ShardedIndex, options: EngineOptions) -> Self {
        Self {
            index,
            options,
            rebalance: RebalanceConfig::default(),
        }
    }

    /// Returns a copy with the given rebalancer hysteresis knobs.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Streams *undecoded* items through the pool-routed schedule:
    /// `decode` runs on the producer thread (the router needs the decoded
    /// read to extract minimizers; its time still lands in
    /// [`MapStats::decode`](crate::MapStats)), batches are routed to
    /// per-group pools, and `sink(item, outcome)` runs once per read **in
    /// input order** on a dedicated writer thread.
    ///
    /// Ordering, cancellation, and failure semantics are
    /// [`MapEngine::map_routed_stream`]'s: output bytes are independent of
    /// pool count, routing decisions, and migrations; a cancel winds every
    /// pool down promptly; the first panic anywhere is re-raised once. A
    /// decode failure (`decode` returning `None`) cancels the run. The
    /// report is the loop's, with each pool's final shard ownership and the
    /// rebalancer's migration count filled in.
    ///
    /// # Panics
    ///
    /// If decode, the mapper, or the sink panics, the run is cancelled
    /// and the **first** panic payload is re-raised from this call once
    /// every thread has wound down.
    pub fn map_raw_stream<Q, T, D, R, F>(
        &self,
        raw: impl Iterator<Item = Q>,
        decode: D,
        read_of: R,
        mut sink: F,
    ) -> EngineReport
    where
        Q: Send,
        T: Send,
        D: Fn(Q) -> Option<T>,
        R: Fn(&T) -> &DnaSeq + Sync,
        F: FnMut(T, ReadOutcome) + Send,
    {
        let cancel = &self.options.cancel;
        let mut rebalancer =
            Rebalancer::for_index(self.index, self.options.resolved_threads(), self.rebalance);
        let pools = rebalancer.pools();
        let read_of = &read_of;
        // The decoder records its own error; stopping the run is ours.
        let decoded = raw.map_while(|raw_item| {
            let started = Instant::now();
            let item = decode(raw_item);
            if item.is_none() {
                cancel.cancel();
            }
            Some((item?, started.elapsed()))
        });
        // The loop times its own (trivial) worker-stage decode; the real
        // decode happened above, so its time is put back per read on the
        // way out and into the totals afterwards.
        let mut decode_time = Duration::ZERO;
        let mut report = MapEngine::new(self.index, self.options.clone()).map_routed_stream(
            decoded,
            Some,
            |(item, _)| read_of(item),
            |(item, decoded_in), mut outcome| {
                outcome.stats.decode = decoded_in;
                decode_time += decoded_in;
                sink(item, outcome);
            },
            pools,
            |batch| {
                let reads = batch.iter().map(|(item, _)| read_of(item));
                route_batch(self.index, &mut rebalancer, reads)
            },
        );
        report.stats.decode = decode_time;
        for (pool, shards) in report.pools.iter_mut().zip(rebalancer.groups()) {
            pool.shards = shards;
        }
        report.migrations = rebalancer.migrations();
        report
    }

    /// Streams already-decoded reads through the schedule (the
    /// trivial-decode special case of
    /// [`map_raw_stream`](Self::map_raw_stream)).
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

    /// Maps a slice of reads, returning the outcomes in input order plus
    /// the run's report.
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
    use crate::{MapEngine, SegramConfig, ShardedIndex};
    use segram_sim::DatasetConfig;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sharded(shards: usize) -> (segram_sim::Dataset, ShardedIndex) {
        let dataset = DatasetConfig::tiny(61).illumina(100);
        let index =
            ShardedIndex::build(dataset.graph().clone(), SegramConfig::short_reads(), shards);
        (dataset, index)
    }

    fn scheduler_for(index: &ShardedIndex, threads: usize) -> ElasticScheduler<'_> {
        // batch_size 3: interleave batches across pools
        ElasticScheduler::new(index, EngineOptions::new().threads(threads).batch_size(3))
    }

    #[test]
    fn elastic_outcomes_match_fanout_across_pool_counts() {
        for shards in [1usize, 2, 4] {
            let (dataset, index) = sharded(shards);
            let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
            let fanout = MapEngine::new(&index, EngineOptions::new().threads(1));
            let (base, base_report) = fanout.map_batch(&reads);
            for threads in [1usize, 4] {
                let scheduler = scheduler_for(&index, threads);
                let (outcomes, report) = scheduler.map_batch(&reads);
                assert_eq!(report.reads, reads.len(), "shards {shards}");
                assert_eq!(report.mapped, base_report.mapped, "shards {shards}");
                for (a, b) in base.iter().zip(&outcomes) {
                    assert_eq!(
                        a.mapping.as_ref().map(|m| m.linear_start),
                        b.mapping.as_ref().map(|m| m.linear_start),
                    );
                    assert_eq!(a.strand, b.strand);
                }
            }
        }
    }

    #[test]
    fn every_batch_is_either_routed_or_spilled() {
        let (dataset, index) = sharded(4);
        let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let scheduler = scheduler_for(&index, 4);
        let (_, report) = scheduler.map_batch(&reads);
        assert_eq!(report.pools.len(), 4);
        assert_eq!(
            report.routed() + report.spilled(),
            report.batches as u64,
            "{report:?}"
        );
        let per_pool: u64 = report.pools.iter().map(|p| p.batches).sum();
        assert_eq!(per_pool, report.batches as u64);
        // The final ownership is still a partition of the shards.
        let mut owned: Vec<usize> = report
            .pools
            .iter()
            .flat_map(|p| p.shards.iter().copied())
            .collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..4).collect::<Vec<_>>());
        // Every pool got at least one worker.
        assert!(report.pools.iter().all(|p| p.workers >= 1));
    }

    #[test]
    fn elastic_runs_report_their_batch_trajectory() {
        // The batch size comes from the one loop, so an elastic run fills
        // it exactly as a fanout run does (it used to read zero).
        let (dataset, index) = sharded(2);
        let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let (_, report) = scheduler_for(&index, 2).map_batch(&reads);
        assert_eq!(report.batch_size, 3);
        assert_eq!(report.batches, reads.len().div_ceil(3));
    }

    #[test]
    fn placement_is_sized_by_the_index_not_by_the_request() {
        // Asking for more shards than the reference has coordinates: the
        // index clamps, and the placement must cover exactly what it kept.
        let mut tiny = DatasetConfig::tiny(61);
        tiny.reference_len = 400;
        let dataset = tiny.illumina(100);
        let requested = dataset.graph().total_chars() as usize * 4;
        let index = ShardedIndex::build(
            dataset.graph().clone(),
            SegramConfig::short_reads(),
            requested,
        );
        let kept = index.shards().len();
        assert!(kept < requested);
        let rebalancer = Rebalancer::for_index(&index, 3, RebalanceConfig::default());
        assert_eq!(rebalancer.pools(), 3);
        let mut owned: Vec<usize> = rebalancer.groups().into_iter().flatten().collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..kept).collect::<Vec<_>>());
        // More workers than shards: one pool per shard.
        let (_, two) = sharded(2);
        assert_eq!(
            Rebalancer::for_index(&two, 8, RebalanceConfig::default()).pools(),
            2
        );
    }

    #[test]
    fn rebalancer_migrates_on_skewed_loads() {
        // Initial placement from (roughly equal) memory loads: pools own
        // {0, 1} and {2, 3} in some order. Then the observed seeding load
        // is extremely skewed onto shard 0, so the balanced proposal
        // isolates shard 0 — at least one shard must migrate.
        let initial = balance_loads(&[100, 100, 100, 100], 2);
        let mut rebalancer = Rebalancer::new(
            &initial,
            4,
            RebalanceConfig {
                threshold: 1.5,
                cooldown: 2,
            },
        );
        let skewed = [10_000u64, 10, 10, 10];
        let mut migrated = 0;
        for _ in 0..16 {
            migrated += rebalancer.observe(&skewed);
        }
        assert!(migrated > 0, "skewed load must trigger a migration");
        assert!(rebalancer.migrations() >= migrated as u64);
        // Shard 0 ends up alone in its pool; the rest share the other.
        let heavy = rebalancer.pool_of(0);
        for shard in 1..4 {
            assert_ne!(rebalancer.pool_of(shard), heavy, "{rebalancer:?}");
        }
    }

    #[test]
    fn rebalancer_hysteresis_stops_migrations_on_stationary_load() {
        let initial = balance_loads(&[100, 100, 100, 100], 2);
        let mut rebalancer = Rebalancer::new(
            &initial,
            4,
            RebalanceConfig {
                threshold: 1.5,
                cooldown: 2,
            },
        );
        // Stationary skew: cumulative proportions never change, so after
        // the placement adapts once, proposals keep matching the current
        // assignment and migrations stop.
        let mut hits = [4_000u64, 4, 4, 4];
        let mut history = Vec::new();
        for _ in 0..32 {
            history.push(rebalancer.observe(&hits));
            for h in &mut hits {
                *h *= 2; // same proportions, growing totals
            }
        }
        assert!(
            history.iter().sum::<usize>() > 0,
            "must adapt at least once"
        );
        assert!(
            history[history.len() - 16..].iter().all(|&m| m == 0),
            "migrations must stop once the placement matches the load: {history:?}"
        );
    }

    #[test]
    fn rebalancer_holds_still_below_threshold_and_during_cooldown() {
        let initial = balance_loads(&[100, 100, 100, 100], 2);
        let mut rebalancer = Rebalancer::new(
            &initial,
            4,
            RebalanceConfig {
                threshold: 1.5,
                cooldown: 8,
            },
        );
        // Balanced loads: imbalance 1.0 < 1.5, never migrates.
        for _ in 0..16 {
            assert_eq!(rebalancer.observe(&[50, 50, 50, 50]), 0);
        }
        assert_eq!(rebalancer.migrations(), 0);
        // All-zero loads degenerate to imbalance 1.0 — also a no-op.
        assert_eq!(rebalancer.observe(&[0, 0, 0, 0]), 0);
        // A migration starts the cooldown: the immediately following
        // observations cannot migrate again, however skewed.
        let first = rebalancer.observe(&[10_000, 10, 10, 10]);
        assert!(first > 0);
        for _ in 0..8 {
            assert_eq!(
                rebalancer.observe(&[10, 10, 10, 10_000]),
                0,
                "cooldown must suppress immediate re-migration"
            );
        }
    }

    #[test]
    fn elastic_cancellation_winds_all_pools_down() {
        let (dataset, index) = sharded(2);
        let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let cancel = crate::CancelToken::new();
        let options = EngineOptions::new()
            .threads(2)
            .cancel(cancel.clone())
            .batch_size(1);
        let scheduler = ElasticScheduler::new(&index, options);
        let mut sunk = 0usize;
        let report = scheduler.map_stream(
            reads.iter(),
            |read| *read,
            |_, _| {
                sunk += 1;
                cancel.cancel();
            },
        );
        assert!(sunk >= 1);
        assert!(
            report.reads <= reads.len(),
            "cancelled run must not over-report: {report:?}"
        );
    }

    #[test]
    fn elastic_sink_panic_surfaces_original_payload() {
        let (dataset, index) = sharded(2);
        let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let scheduler = scheduler_for(&index, 2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            scheduler.map_stream(reads.iter(), |r| *r, |_, _| panic!("elastic sink exploded"));
        }));
        let payload = result.expect_err("sink panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is the original message");
        assert!(message.contains("elastic sink exploded"), "{message:?}");
    }

    #[test]
    fn elastic_decode_failure_cancels_the_run() {
        let (dataset, index) = sharded(2);
        let reads: Vec<_> = dataset
            .reads
            .iter()
            .map(|r| r.seq.clone())
            .collect::<Vec<_>>();
        let cancel = crate::CancelToken::new();
        let options = EngineOptions::new()
            .threads(2)
            .cancel(cancel.clone())
            .batch_size(2);
        let scheduler = ElasticScheduler::new(&index, options);
        let failures = AtomicUsize::new(0);
        let report = scheduler.map_raw_stream(
            reads.iter().enumerate(),
            |(i, read)| {
                if i == 5 {
                    failures.fetch_add(1, Ordering::Relaxed);
                    None
                } else {
                    Some(read)
                }
            },
            |read| *read,
            |_, _| {},
        );
        assert_eq!(failures.load(Ordering::Relaxed), 1);
        assert!(cancel.is_cancelled());
        assert!(report.reads <= 5, "{report:?}");
    }
}
