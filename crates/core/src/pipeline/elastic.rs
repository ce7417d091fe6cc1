//! Elastic shard scheduling: per-shard-group worker pools and batches
//! routed by their dominant shard group over a placement fixed at boot —
//! a route hook on the one scheduler, not a scheduler of its own.
//!
//! The paper scales by *per-channel provisioning*: each HBM channel owns
//! a slice of the index and a private accelerator pipeline, so requests
//! for a channel's slice never contend with the others (Section 8.3).
//! The software analogue over a [`ShardedIndex`] spreads the shards over
//! N worker *pools* once, with the paper's greedy size-balanced placement
//! ([`balance_loads`](crate::balance_loads)), and steers every batch to
//! the pool owning most of its seed hits:
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
//! * **Place** — a [`ShardPlacement`]: which pool owns which shard,
//!   computed once from the index's per-shard memory bytes and never
//!   changed, so a run's route decisions and its reported groups do not
//!   depend on thread timing. Load that the placement did not foresee is
//!   evened out by stealing, not by moving shards.
//! * **Route** — [`elastic_route`], the hook `segram map --schedule
//!   elastic` and `segram serve --schedule elastic` share over the one
//!   mapper both hold, the request's own [`ShardedIndex`]:
//!   [`route_batch`]'s strict majority of the batch's seed hits names a
//!   pool; a batch that straddles groups (or hits nothing) spills to the
//!   least-loaded pool. Pool ownership only steers *scheduling*: every
//!   read still maps against the full sharded index.

use std::sync::Arc;

use crate::pipeline::multi::RouteHook;
use crate::pipeline::router::route_batch;
use crate::shard::{balance_loads, ShardedIndex};

/// The elastic schedule's shard → pool ownership, fixed at boot.
#[derive(Clone, Debug)]
pub struct ShardPlacement {
    /// Shard id → owning pool.
    assignment: Vec<usize>,
    pools: usize,
}

impl ShardPlacement {
    /// The index's shards spread over `min(threads, shards)` pools,
    /// balanced by per-shard memory bytes. The shard count is the index's
    /// own — it clamps a requested `--shards` to its non-empty coordinate
    /// ranges.
    pub fn for_index(index: &ShardedIndex, threads: usize) -> Self {
        let loads = index.shard_loads();
        let pools = threads.clamp(1, loads.len());
        let mut assignment = vec![0; loads.len()];
        for (pool, shards) in balance_loads(&loads, pools).into_iter().enumerate() {
            for shard in shards {
                assignment[shard] = pool;
            }
        }
        Self { assignment, pools }
    }

    /// Number of pools the shards are spread over.
    pub fn pools(&self) -> usize {
        self.pools
    }

    /// Number of shards the placement covers.
    pub fn shards(&self) -> usize {
        self.assignment.len()
    }

    /// The pool owning `shard`.
    pub fn pool_of(&self, shard: usize) -> usize {
        self.assignment[shard]
    }

    /// Ownership, per pool.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.pools];
        for (shard, &pool) in self.assignment.iter().enumerate() {
            groups[pool].push(shard);
        }
        groups
    }
}

/// The elastic schedule's route hook, shared by `segram map` and `segram
/// serve`: [`route_batch`] over one placement for every request of the
/// engine. It routes by the index of the request's own mapper, so after a
/// `RELOAD` the hook does not keep the old index alive.
///
/// # Examples
///
/// ```
/// use segram_core::{elastic_route, EngineOptions, MapEngine};
/// use segram_core::{SegramConfig, ShardPlacement, ShardedIndex};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(3).illumina(100);
/// let graph = dataset.graph().clone();
/// let index = ShardedIndex::build(graph, SegramConfig::short_reads(), 2);
/// let placement = ShardPlacement::for_index(&index, 2);
/// let pools = placement.pools();
/// let hook = elastic_route(placement);
/// let engine = MapEngine::new(&index, EngineOptions::new().threads(2)).with_routing(pools, hook);
/// let reads: Vec<_> = dataset.reads.iter().map(|r| r.seq.clone()).collect();
/// let (outcomes, report) = engine.map_batch(&reads);
/// assert_eq!(outcomes.len(), reads.len());
/// assert_eq!(report.routed() + report.spilled(), report.batches as u64);
/// ```
pub fn elastic_route(placement: ShardPlacement) -> RouteHook<ShardedIndex> {
    Arc::new(move |index, reads| route_batch(index, &placement, reads.iter().copied()))
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

    /// The elastic schedule over `index`: its placement's pools and the
    /// shared route hook. Returns the placement for ownership checks.
    fn elastic(
        index: &ShardedIndex,
        options: EngineOptions,
    ) -> (MapEngine<'_, ShardedIndex>, ShardPlacement) {
        let placement = ShardPlacement::for_index(index, options.resolved_threads());
        let hook = elastic_route(placement.clone());
        (
            MapEngine::new(index, options).with_routing(placement.pools(), hook),
            placement,
        )
    }

    /// batch_size 3: interleave batches across pools.
    fn run(
        index: &ShardedIndex,
        reads: &[DnaSeq],
        threads: usize,
    ) -> (Vec<ReadOutcome>, EngineReport, Vec<Vec<usize>>) {
        let options = EngineOptions::new().threads(threads).batch_size(3);
        let (engine, placement) = elastic(index, options);
        let (outcomes, report) = engine.map_batch(reads);
        (outcomes, report, placement.groups())
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
        // Ownership is a partition of the shards.
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
        let placement = ShardPlacement::for_index(&index, 3);
        assert_eq!(placement.pools(), 3);
        let mut owned: Vec<usize> = placement.groups().into_iter().flatten().collect();
        owned.sort_unstable();
        assert_eq!(owned, (0..kept).collect::<Vec<_>>());
        // More workers than shards: one pool per shard.
        let (_, two) = sharded(2);
        assert_eq!(ShardPlacement::for_index(&two, 8).pools(), 2);
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
