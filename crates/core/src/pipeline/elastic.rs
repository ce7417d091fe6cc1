//! Elastic shard scheduling: per-shard-group worker pools, batches routed
//! by their dominant shard group, live imbalance-driven rebalancing — a
//! route hook on the one scheduler, not a scheduler of its own.
//!
//! The paper scales by *per-channel provisioning*: each HBM channel owns
//! a slice of the index and a private accelerator pipeline, so requests
//! for a channel's slice never contend with the others (Section 8.3).
//! The software analogue over a [`ShardedIndex`] spreads the shards over
//! N worker *pools* with the paper's greedy size-balanced placement
//! ([`balance_loads`](crate::balance_loads)) and steers every batch to the
//! pool owning most of its seed hits:
//!
//! ```text
//!   producer ── push ──► request queue (each batch tagged with a pool)
//!   (route)                  │
//!            ┌───────────────┼───────────────┐
//!            ▼               ▼               ▼
//!   pool 0 workers    pool 1 workers       ...   own tag first, else steal
//!            └───────► per-request reorder ◄─┘   (push-order release)
//!                              └── reader ──► byte-identical output
//! ```
//!
//! Queues, workers, reorder, cancellation and stealing are the
//! scheduler's (`MultiEngine`'s worker loop, which
//! [`MapEngine::with_routing`](super::MapEngine::with_routing) runs for a
//! one-shot stream). This module adds only what is elastic:
//!
//! * **Route** — [`elastic_route`], the hook `segram map --schedule
//!   elastic` and `segram serve --schedule elastic` share over the one
//!   mapper both hold, the request's own [`ShardedIndex`]:
//!   [`route_batch`]'s strict majority of the batch's seed hits names a
//!   pool; a batch that straddles groups (or hits nothing) spills to the
//!   least-loaded pool.
//! * **Rebalance** — a [`Rebalancer`] watches the live per-shard seed-hit
//!   counters ([`ShardStats`](crate::ShardStats), the signal behind
//!   [`ShardedIndex::seed_imbalance`]) and migrates shard ownership
//!   between pools at batch boundaries, re-running the greedy placement
//!   with hysteresis (an imbalance threshold plus a post-migration
//!   cooldown) so it cannot thrash. Migration is safe at any batch
//!   boundary because pool ownership only steers *scheduling*: every read
//!   still maps against the full sharded index.

use std::sync::{Arc, Mutex};

use crate::pipeline::multi::RouteHook;
use crate::pipeline::router::route_batch;
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

/// The elastic schedule's route hook, shared by `segram map` and `segram
/// serve`: [`route_batch`] over one rebalancer for every request of the
/// engine, so pool ownership follows observed load across requests. It
/// routes by the index of the request's own mapper, whose seed-hit
/// counters that request's workers fill in: after a `RELOAD` the hook
/// neither keeps the old index alive nor feeds the rebalancer frozen
/// counters. A poisoned rebalancer spills.
///
/// # Examples
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use segram_core::{elastic_route, EngineOptions, MapEngine};
/// use segram_core::{RebalanceConfig, Rebalancer, SegramConfig, ShardedIndex};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let graph = dataset.graph().clone();
/// let index = ShardedIndex::build(graph, SegramConfig::short_reads(), 2);
/// let rebalancer = Rebalancer::for_index(&index, 2, RebalanceConfig::default());
/// let pools = rebalancer.pools();
/// let hook = elastic_route(Arc::new(Mutex::new(rebalancer)));
/// let engine = MapEngine::new(&index, EngineOptions::new().threads(2)).with_routing(pools, hook);
/// let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// let (outcomes, report) = engine.map_batch(&reads);
/// assert_eq!(outcomes.len(), reads.len());
/// assert_eq!(report.routed() + report.spilled(), report.batches as u64);
/// ```
pub fn elastic_route(rebalancer: Arc<Mutex<Rebalancer>>) -> RouteHook<ShardedIndex> {
    Arc::new(move |index, reads| {
        let mut rebalancer = rebalancer.lock().ok()?;
        route_batch(index, &mut rebalancer, reads.iter().copied())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelToken, EngineOptions, EngineReport, MapEngine, ReadOutcome, SegramConfig};
    use segram_graph::DnaSeq;
    use segram_sim::DatasetConfig;
    use std::panic::AssertUnwindSafe;

    fn sharded(shards: usize) -> (Vec<DnaSeq>, ShardedIndex) {
        let dataset = DatasetConfig::tiny(61).illumina(100);
        let reads = dataset.reads.iter().map(|r| r.seq.clone()).collect();
        let config = SegramConfig::short_reads();
        let index = ShardedIndex::build(dataset.graph().clone(), config, shards);
        (reads, index)
    }

    /// The elastic schedule over `index`: a fresh rebalancer, its pools,
    /// the shared route hook. Returns the rebalancer for ownership checks.
    fn elastic(
        index: &ShardedIndex,
        options: EngineOptions,
    ) -> (MapEngine<'_, ShardedIndex>, Arc<Mutex<Rebalancer>>) {
        let boot = Rebalancer::for_index(index, options.resolved_threads(), Default::default());
        let pools = boot.pools();
        let rebalancer = Arc::new(Mutex::new(boot));
        let hook = elastic_route(Arc::clone(&rebalancer));
        (
            MapEngine::new(index, options).with_routing(pools, hook),
            rebalancer,
        )
    }

    /// batch_size 3: interleave batches across pools.
    fn run(
        index: &ShardedIndex,
        reads: &[DnaSeq],
        threads: usize,
    ) -> (Vec<ReadOutcome>, EngineReport, Vec<Vec<usize>>) {
        let options = EngineOptions::new().threads(threads).batch_size(3);
        let (engine, rebalancer) = elastic(index, options);
        let (outcomes, report) = engine.map_batch(reads);
        let groups = rebalancer.lock().expect("not poisoned").groups();
        (outcomes, report, groups)
    }

    #[test]
    fn elastic_outcomes_match_fanout_across_pool_counts() {
        for shards in [1usize, 2, 4] {
            let (reads, index) = sharded(shards);
            let fanout = MapEngine::new(&index, EngineOptions::new().threads(1));
            let (base, base_report) = fanout.map_batch(&reads);
            for threads in [1usize, 4] {
                let (outcomes, report, _) = run(&index, &reads, threads);
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
        let (reads, index) = sharded(4);
        let (_, report, groups) = run(&index, &reads, 4);
        assert_eq!(report.pools.len(), 4);
        assert_eq!(
            report.routed() + report.spilled(),
            report.batches as u64,
            "{report:?}"
        );
        let per_pool: u64 = report.pools.iter().map(|p| p.batches).sum();
        assert_eq!(per_pool, report.batches as u64);
        assert!(report.stolen() <= report.batches as u64);
        // The final ownership is still a partition of the shards.
        let mut owned: Vec<usize> = groups.into_iter().flatten().collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..4).collect::<Vec<_>>());
        // Every pool got at least one worker.
        assert!(report.pools.iter().all(|p| p.workers >= 1));
    }

    #[test]
    fn elastic_runs_report_their_batch_trajectory() {
        // The batch size is the one-shot driver's, so an elastic run fills
        // it exactly as a fanout run does.
        let (reads, index) = sharded(2);
        let (_, report, _) = run(&index, &reads, 2);
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
        let (reads, index) = sharded(2);
        let cancel = CancelToken::new();
        let options = EngineOptions::new()
            .threads(2)
            .cancel(cancel.clone())
            .batch_size(1);
        let (engine, _) = elastic(&index, options);
        let mut sunk = 0usize;
        let report = engine.map_stream(
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
        let (reads, index) = sharded(2);
        let (engine, _) = elastic(&index, EngineOptions::new().threads(2).batch_size(3));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            engine.map_stream(reads.iter(), |r| *r, |_, _| panic!("elastic sink exploded"));
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
        // The producer decodes: a malformed record (here: index 5) records
        // its error, cancels, and ends the stream at that record.
        let (reads, index) = sharded(2);
        let cancel = CancelToken::new();
        let options = EngineOptions::new()
            .threads(2)
            .cancel(cancel.clone())
            .batch_size(2);
        let (engine, _) = elastic(&index, options);
        let mut failures = 0;
        let decoded = reads.iter().enumerate().map_while(|(i, read)| {
            if i == 5 {
                failures += 1;
                cancel.cancel();
                return None;
            }
            Some(read)
        });
        let report = engine.map_stream(decoded, |read| *read, |_, _| {});
        assert_eq!(failures, 1);
        assert!(cancel.is_cancelled());
        assert!(report.reads <= 5, "{report:?}");
    }
}
