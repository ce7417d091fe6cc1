//! The seeding-stage router: dispatches a read's minimizers to the
//! shard(s) whose index slice can answer them and merges the per-shard
//! hits into one candidate-region list **before** prefilter/alignment.
//!
//! Byte-identity with the unsharded path holds by construction:
//!
//! 1. the shards partition the monolithic index's seed locations, so for
//!    every minimizer the summed per-shard frequency equals the global
//!    frequency (the frequency filter makes identical decisions);
//! 2. candidate regions are computed with the same Figure 9 arithmetic
//!    ([`segram_index::seed_region`]) against the same shared graph;
//! 3. the merged region list ends in the exact monolithic
//!    sort-by-`(start, end, seed)` + dedup-by-`(start, end)` ordering —
//!    but since the shards are coordinate-disjoint by construction of
//!    `split_by_ranges`, the merge concatenates the per-shard sorted
//!    lists in shard order instead of re-sorting the whole set, falling
//!    back to the monolithic sort only when region padding crosses a
//!    shard boundary (a debug assertion checks the result is sorted
//!    either way).
//!
//! The router also feeds each shard's occupancy counters (seed hits,
//! regions produced), the observability behind the paper's Section 8.3
//! load-balance study.
//!
//! The same module holds the elastic schedule's *batch* routing policy
//! ([`route_batch`]): which worker pool a batch of reads belongs to, given
//! who owns which shard. `segram map --schedule elastic` and the `segram
//! serve` route hook both call it, so the two cannot drift.

use segram_graph::{DnaSeq, GenomeGraph};
use segram_index::{extract_minimizers, seed_region, SeedRegion, SeedingResult, SeedingStats};

use crate::pipeline::{Rebalancer, Seeder};
use crate::shard::{IndexShard, ShardedIndex};

/// The sharded [`Seeder`]: minimizer extraction once per read, a global
/// frequency decision, then per-shard index lookups merged into the
/// monolithic candidate order.
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

    /// Per-shard seed-hit counts for one read — the elastic scheduler's
    /// cheap pre-route pass. Extracts the read's minimizers once and
    /// applies the same global frequency filter as [`Seeder::seed`], but
    /// records **nothing** into the shard occupancy counters (routing a
    /// batch must not double-count the seeding load the mapping pass will
    /// record again).
    pub fn route_hits(&self, read: &DnaSeq) -> Vec<u64> {
        let scheme = *self.shards[0].mapper().index().scheme();
        let minimizers = extract_minimizers(read, &scheme);
        let mut hits = vec![0u64; self.shards.len()];
        let mut counts: Vec<u32> = vec![0; self.shards.len()];
        for m in &minimizers {
            for (count, shard) in counts.iter_mut().zip(self.shards) {
                *count = shard.mapper().index().lookup(m).len() as u32;
            }
            let freq: u32 = counts.iter().sum();
            if freq > self.frequency_threshold {
                continue;
            }
            for (hit, count) in hits.iter_mut().zip(&counts) {
                *hit += u64::from(*count);
            }
        }
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
/// no occupancy counter touched), folds them onto the pools that currently
/// own those shards, and returns the pool with a strict majority — or
/// `None` to spill a batch that straddles groups or hits nothing.
///
/// Each call is a batch boundary, so after deciding it feeds the live
/// per-shard seed-hit counters the mapping workers are filling in to
/// [`Rebalancer::observe`]; ownership follows the observed load.
pub fn route_batch<'r>(
    index: &ShardedIndex,
    rebalancer: &mut Rebalancer,
    reads: impl IntoIterator<Item = &'r DnaSeq>,
) -> Option<usize> {
    let router = index.router();
    let mut pool_hits = vec![0u64; rebalancer.pools()];
    for read in reads {
        for (shard, hits) in router.route_hits(read).into_iter().enumerate() {
            pool_hits[rebalancer.pool_of(shard)] += hits;
        }
    }
    let target = dominant_pool(&pool_hits);
    let live: Vec<u64> = index
        .shard_stats()
        .iter()
        .map(|stats| stats.seed_hits)
        .collect();
    rebalancer.observe(&live);
    target
}

/// Merges per-shard candidate lists into the monolithic
/// `(start, end, seed)` order: each list is sorted, then the lists are
/// concatenated in shard (coordinate) order. `seed_region` pads windows
/// around the seed location, so a region from shard `i+1` can start
/// before shard `i`'s last — that boundary overlap is detected and falls
/// back to the monolithic whole-list sort (same bytes, since ties on the
/// full key always live in one shard and stable sorting preserves their
/// insertion order).
fn merge_shard_regions(mut per_shard: Vec<Vec<SeedRegion>>) -> Vec<SeedRegion> {
    let key = |r: &SeedRegion| (r.start, r.end, r.seed);
    for list in &mut per_shard {
        list.sort_by_key(key);
    }
    let mut concat_sorted = true;
    let mut last_key = None;
    for list in &per_shard {
        if let (Some(prev), Some(first)) = (last_key, list.first()) {
            if prev > key(first) {
                concat_sorted = false;
                break;
            }
        }
        if let Some(tail) = list.last() {
            last_key = Some(key(tail));
        }
    }
    let mut regions: Vec<SeedRegion> = per_shard.into_iter().flatten().collect();
    if !concat_sorted {
        regions.sort_by_key(key);
    }
    debug_assert!(
        regions.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
        "merged per-shard regions must arrive sorted"
    );
    regions
}

impl Seeder for ShardRouter<'_> {
    fn seed(&self, read: &DnaSeq) -> SeedingResult {
        let scheme = *self.shards[0].mapper().index().scheme();
        let minimizers = extract_minimizers(read, &scheme);
        let mut stats = SeedingStats {
            minimizers: minimizers.len(),
            ..SeedingStats::default()
        };
        // Regions accumulate per shard so the merge can concatenate the
        // per-shard sorted lists instead of re-sorting everything.
        let mut shard_regions: Vec<Vec<SeedRegion>> = vec![Vec::new(); self.shards.len()];
        // One index probe per shard per minimizer: the location slice
        // answers both the routing question (who holds this minimizer)
        // and the frequency question (its length *is* the shard-local
        // frequency), so no separate frequency lookup is needed.
        let mut per_shard: Vec<&[segram_graph::GraphPos]> = Vec::with_capacity(self.shards.len());
        for m in &minimizers {
            per_shard.clear();
            per_shard.extend(self.shards.iter().map(|s| s.mapper().index().lookup(m)));
            // Summed shard-local frequencies reproduce the monolithic
            // frequency-filter decision (the shards partition the index).
            let freq: u32 = per_shard.iter().map(|locs| locs.len() as u32).sum();
            if freq > self.frequency_threshold {
                stats.filtered_minimizers += 1;
                continue;
            }
            for ((shard, locs), regions) in self
                .shards
                .iter()
                .zip(&per_shard)
                .zip(shard_regions.iter_mut())
            {
                if locs.is_empty() {
                    continue;
                }
                shard.record_seed_hits(locs.len() as u64);
                for &loc in *locs {
                    stats.seed_locations += 1;
                    if let Some(region) =
                        seed_region(self.graph, self.error_rate, read.len(), m, loc, scheme.k)
                    {
                        shard.record_region();
                        regions.push(region);
                    }
                }
            }
        }
        let mut regions = merge_shard_regions(shard_regions);
        regions.dedup_by_key(|r| (r.start, r.end));
        stats.regions = regions.len();
        SeedingResult { regions, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RebalanceConfig;
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
        // A threshold nothing reaches: ownership stays at the boot
        // placement, so decisions depend on the batch alone.
        let still = RebalanceConfig {
            threshold: f64::INFINITY,
            cooldown: 0,
        };
        let mut a = Rebalancer::for_index(&index, 4, still);
        let mut b = Rebalancer::for_index(&index, 4, still);
        let router = index.router();
        for read in &reads {
            // One read's hits sit (almost always) in one shard: the batch
            // must route to whichever pool owns the majority shard.
            let hits = router.route_hits(read);
            let total: u64 = hits.iter().sum();
            let expected = hits
                .iter()
                .position(|&h| 2 * h > total)
                .map(|shard| a.pool_of(shard));
            let routed = route_batch(&index, &mut a, [*read]);
            assert_eq!(routed, expected, "hits {hits:?}");
            // Same batch, same rebalancer state: same decision — what the
            // `map` shell and the `serve` hook rely on by both calling
            // this routine.
            assert_eq!(route_batch(&index, &mut b, [*read]), routed);
        }
        // An empty batch has no hits: spill.
        assert_eq!(route_batch(&index, &mut a, []), None);
        // The pre-route pass records nothing into the occupancy counters.
        assert!(index.shard_stats().iter().all(|s| s.seed_hits == 0));
    }
}
