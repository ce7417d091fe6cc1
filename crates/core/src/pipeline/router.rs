//! The seeding-stage router — the runtime mapper's [`Seeder`], for every
//! shard count including one: dispatches a read's minimizers to the
//! shard(s) whose index slice can answer them and merges the per-shard
//! hits into one candidate-region list **before** prefilter/alignment.
//!
//! Byte-identity with the single-index reference
//! ([`MinSeedStage`](super::MinSeedStage)) holds by construction:
//!
//! 1. both run the one seeding loop, [`segram_index::visit_seed_hits`]:
//!    the shards partition the whole index's seed locations, so for every
//!    minimizer the frequency it sums over the shards equals the global
//!    frequency (the frequency filter makes identical decisions);
//! 2. candidate regions are computed with the same Figure 9 arithmetic
//!    ([`segram_index::seed_region`]) against the same shared graph;
//! 3. the merged region list goes through the exact single-index
//!    sort-by-`(start, end, seed)` + dedup-by-`(start, end)`: ties on the
//!    full key share a seed location, so they live in one shard and the
//!    stable sort keeps their minimizer order, whatever the split.
//!
//! The router also feeds each shard's occupancy counters (seed hits,
//! regions produced), the observability behind the paper's Section 8.3
//! load-balance study.
//!
//! The same module holds the elastic schedule's *batch* routing policy
//! ([`route_batch`]): which worker pool a batch of reads belongs to, given
//! who owns which shard, behind the one elastic route hook
//! ([`elastic_route`](super::elastic_route)) that `segram map` and `segram
//! serve` share.

use segram_graph::{DnaSeq, GenomeGraph};
use segram_index::{
    extract_minimizers, seed_region, visit_seed_hits, GraphIndex, MinimizerScheme, SeedRegion,
    SeedingResult, SeedingStats,
};

use crate::pipeline::{Seeder, ShardPlacement};
use crate::shard::{IndexShard, ShardedIndex};

/// The sharded [`Seeder`]: minimizer extraction once per read, a global
/// frequency decision, then per-shard index lookups merged into the
/// single-index candidate order.
#[derive(Clone, Copy, Debug)]
pub struct ShardRouter<'a> {
    graph: &'a GenomeGraph,
    shards: &'a [IndexShard],
    error_rate: f64,
    frequency_threshold: u32,
}

impl<'a> ShardRouter<'a> {
    /// Binds the router to a shard set. `frequency_threshold` must be the
    /// *global* (whole-graph) threshold, not a shard-local one.
    pub fn new(
        graph: &'a GenomeGraph,
        shards: &'a [IndexShard],
        error_rate: f64,
        frequency_threshold: u32,
    ) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        Self {
            graph,
            shards,
            error_rate,
            frequency_threshold,
        }
    }

    /// The shards this router dispatches to.
    pub fn shards(&self) -> &'a [IndexShard] {
        self.shards
    }

    /// The minimizer scheme every shard's slice was built with.
    fn scheme(&self) -> &'a MinimizerScheme {
        self.shards[0].index().scheme()
    }

    /// The shards' index slices, as the parts [`visit_seed_hits`] walks.
    fn parts(&self) -> impl Iterator<Item = &'a GraphIndex> + Clone {
        self.shards.iter().map(IndexShard::index)
    }

    /// Per-shard seed-hit counts for one read — the elastic scheduler's
    /// cheap pre-route pass. Extracts the read's minimizers once and
    /// applies the same global frequency filter as [`Seeder::seed`], but
    /// records **nothing** into the shard occupancy counters (routing a
    /// batch must not double-count the seeding load the mapping pass will
    /// record again).
    pub fn route_hits(&self, read: &DnaSeq) -> Vec<u64> {
        let minimizers = extract_minimizers(read, self.scheme());
        let mut hits = vec![0u64; self.shards.len()];
        visit_seed_hits(
            self.parts(),
            &minimizers,
            self.frequency_threshold,
            |shard, _, locs| hits[shard] += locs.len() as u64,
        );
        hits
    }
}

/// The pool holding a strict majority of a batch's seed hits, if any:
/// `None` (spill) when nothing hit, or when no pool holds more than half —
/// which covers equal maxima, since two pools cannot both exceed half.
fn dominant_pool(pool_hits: &[u64]) -> Option<usize> {
    let total: u64 = pool_hits.iter().sum();
    pool_hits.iter().position(|&hits| 2 * hits > total)
}

/// The elastic route policy for one batch: sums the reads' per-shard seed
/// hits ([`ShardRouter::route_hits`] — one minimizer extraction per read,
/// no occupancy counter touched), folds them onto the pools that own
/// those shards, and returns the pool with a strict majority — or `None`
/// to spill a batch that straddles groups or hits nothing. A pure
/// function of the placement and the batch.
///
/// `index` is the one the batch will be mapped against — in a daemon, the
/// request's own, which a `RELOAD` may have made a different one than the
/// placement was sized for: if its shard count differs, the placement says
/// nothing about it and the batch spills.
pub fn route_batch<'r>(
    index: &ShardedIndex,
    placement: &ShardPlacement,
    reads: impl IntoIterator<Item = &'r DnaSeq>,
) -> Option<usize> {
    if index.shards().len() != placement.shards() {
        return None;
    }
    let router = index.router();
    let mut pool_hits = vec![0u64; placement.pools()];
    for read in reads {
        for (shard, hits) in router.route_hits(read).into_iter().enumerate() {
            pool_hits[placement.pool_of(shard)] += hits;
        }
    }
    dominant_pool(&pool_hits)
}

impl Seeder for ShardRouter<'_> {
    fn seed(&self, read: &DnaSeq) -> SeedingResult {
        let minimizers = extract_minimizers(read, self.scheme());
        let k = self.scheme().k;
        let mut stats = SeedingStats {
            minimizers: minimizers.len(),
            ..SeedingStats::default()
        };
        let mut regions: Vec<SeedRegion> = Vec::new();
        stats.filtered_minimizers = visit_seed_hits(
            self.parts(),
            &minimizers,
            self.frequency_threshold,
            |part, m, locs| {
                let shard = &self.shards[part];
                shard.record_seed_hits(locs.len() as u64);
                stats.seed_locations += locs.len();
                for &loc in locs {
                    if let Some(region) =
                        seed_region(self.graph, self.error_rate, read.len(), m, loc, k)
                    {
                        shard.record_region();
                        regions.push(region);
                    }
                }
            },
        );
        regions.sort_by_key(|r| (r.start, r.end, r.seed));
        regions.dedup_by_key(|r| (r.start, r.end));
        stats.regions = regions.len();
        SeedingResult { regions, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegramConfig;
    use segram_sim::DatasetConfig;

    #[test]
    fn dominant_pool_needs_a_strict_majority() {
        // Nothing hit anywhere: no signal, spill.
        assert_eq!(dominant_pool(&[0, 0, 0]), None);
        assert_eq!(dominant_pool(&[0]), None);
        // Exactly half is not a majority.
        assert_eq!(dominant_pool(&[5, 5]), None);
        assert_eq!(dominant_pool(&[4, 2, 2]), None);
        // A strict majority wins, wherever it sits.
        assert_eq!(dominant_pool(&[5, 4]), Some(0));
        assert_eq!(dominant_pool(&[1, 2, 9]), Some(2));
        assert_eq!(dominant_pool(&[0, 1]), Some(1));
        // Equal maxima can never both exceed half: always a spill, so
        // there is no tie for a pool index to break.
        assert_eq!(dominant_pool(&[3, 3, 1]), None);
        assert_eq!(dominant_pool(&[7, 7]), None);
    }

    #[test]
    fn route_batch_follows_ownership_and_is_deterministic() {
        let dataset = DatasetConfig::tiny(61).illumina(100);
        let index = ShardedIndex::build(dataset.graph().clone(), SegramConfig::short_reads(), 4);
        let reads: Vec<&DnaSeq> = dataset.reads.iter().map(|r| &r.seq).collect();
        let placement = ShardPlacement::for_index(&index, 4);
        let router = index.router();
        for read in &reads {
            // One read's hits sit (almost always) in one shard: the batch
            // must route to whichever pool owns the majority shard.
            let hits = router.route_hits(read);
            let total: u64 = hits.iter().sum();
            let expected = hits
                .iter()
                .position(|&h| 2 * h > total)
                .map(|shard| placement.pool_of(shard));
            let routed = route_batch(&index, &placement, [*read]);
            assert_eq!(routed, expected, "hits {hits:?}");
            // Same batch, same placement: same decision, however often.
            assert_eq!(route_batch(&index, &placement, [*read]), routed);
        }
        // An empty batch has no hits: spill.
        assert_eq!(route_batch(&index, &placement, []), None);
        // An index the placement was not sized for spills too, whatever
        // the batch holds.
        let other = ShardedIndex::build(dataset.graph().clone(), SegramConfig::short_reads(), 3);
        assert_eq!(route_batch(&other, &placement, reads.iter().copied()), None);
        // The pre-route pass records nothing into the occupancy counters.
        assert!(index.shard_stats().iter().all(|s| s.seed_hits == 0));
    }
}
