//! Coordinate-range sharding of the mapping engine: the software analogue
//! of the paper's per-HBM-channel accelerator instances (Section 8.3),
//! where each channel owns a private slice of the graph and index so
//! seeding never crosses channels.
//!
//! [`ShardedIndex`] is the one mapper `segram map` and `segram serve`
//! hold. It splits one reference graph's coordinate space into `N ≥ 1`
//! contiguous ranges and owns one index slice per range: all shards share
//! the graph (via `Arc`), and each shard's minimizer index holds exactly
//! the seed locations whose linear coordinate falls in its range. The
//! shard count is a provisioning number, not a second design: `N = 1` (no
//! `--shards`) is the whole index, moved in without a split pass, behind
//! the same router. The seeding-stage router
//! ([`ShardRouter`](crate::pipeline::ShardRouter)) dispatches each read's
//! minimizers to the shard(s) whose index can answer them and merges the
//! per-shard hits **before** prefilter/alignment, so SAM/GAF output is
//! byte-identical for every `N` (`ci.sh` enforces this end to end) and to
//! the single-index reference implementation,
//! [`SegramMapper`](crate::SegramMapper), which tests and the perf ledger
//! replay against it.
//!
//! The same greedy size-balanced placement the paper uses to distribute
//! chromosomes over memory channels ([`balance_loads`]) places shards on
//! the elastic schedule's worker pools once, at boot
//! ([`ShardPlacement`](crate::ShardPlacement), behind
//! [`elastic_route`](crate::elastic_route)); idle pools steal rather than
//! shards moving. The fanout schedule has no placement: every worker
//! serves every shard.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use segram_graph::{
    build_graph, diff_graphs, graphs_identical, merge_ranges, ranges_intersect, ChangeLog, DnaSeq,
    GenomeGraph, PackedSeq, VariantSet,
};
use segram_index::{
    frequency_threshold, shard_boundaries, GraphIndex, PersistError, PersistedIndex, ShardedStore,
    StoreChangelog,
};

use crate::config::SegramConfig;
use crate::mapper::{MapStats, Mapping, ReadMapper};
use crate::pipeline::{BitAlignStage, MapPipeline, ShardRouter, SpecPrefilter};

/// Greedy largest-first load balancing: assigns `loads.len()` items to
/// `bins` bins, always placing the next-largest item into the currently
/// lightest bin. Returns, per bin, the item indices assigned to it (every
/// item exactly once; bins beyond the item count stay empty).
///
/// This is the paper's Section 8.3 placement rule (chromosomes → memory
/// channels); here it places shards on the elastic schedule's worker
/// pools ([`ShardPlacement`](crate::pipeline::ShardPlacement)).
///
/// # Panics
///
/// Panics when `bins` is zero.
pub fn balance_loads(loads: &[u64], bins: usize) -> Vec<Vec<usize>> {
    assert!(bins > 0, "at least one bin");
    let mut order: Vec<(usize, u64)> = loads.iter().copied().enumerate().collect();
    order.sort_by_key(|&(_, load)| std::cmp::Reverse(load));
    let mut totals = vec![0u64; bins];
    let mut placement = vec![Vec::new(); bins];
    for (idx, load) in order {
        let target = (0..bins).min_by_key(|&b| totals[b]).expect("bins > 0");
        totals[target] += load;
        placement[target].push(idx);
    }
    placement
}

/// Max-over-mean imbalance of per-bin load totals (1.0 = perfectly
/// balanced; 0 bins or all-zero loads report 1.0).
pub fn load_imbalance(loads: &[u64]) -> f64 {
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// One coordinate-range shard: a linear range `[start, end)` of the shared
/// graph plus the index slice holding exactly that range's seed locations.
/// Carries per-shard occupancy counters filled in by the seeding router.
#[derive(Debug)]
pub struct IndexShard {
    id: usize,
    start: u64,
    end: u64,
    // Arc so a delta reload can *share* a clean shard with its successor
    // instead of rebuilding it: in-flight requests keep the old
    // `ShardedIndex` alive, new admissions see the new one, and the
    // untouched shards are literally the same allocation in both.
    index: Arc<GraphIndex>,
    seed_hits: AtomicU64,
    regions: AtomicU64,
    wins: AtomicU64,
}

impl IndexShard {
    fn new(id: usize, start: u64, end: u64, index: Arc<GraphIndex>) -> Self {
        Self {
            id,
            start,
            end,
            index,
            seed_hits: AtomicU64::new(0),
            regions: AtomicU64::new(0),
            wins: AtomicU64::new(0),
        }
    }

    /// Shard id (0-based, in coordinate order).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The shard's linear coordinate range `[start, end)`.
    pub fn range(&self) -> (u64, u64) {
        (self.start, self.end)
    }

    /// The shard's range-restricted index slice.
    pub fn index(&self) -> &GraphIndex {
        self.index.as_ref()
    }

    /// Whether this shard shares its index allocation with `other` — the
    /// observable fact a delta reload's `shared` counter reports.
    pub fn shares_index_with(&self, other: &IndexShard) -> bool {
        Arc::ptr_eq(&self.index, &other.index)
    }

    /// Bytes of reference data this shard owns in the paper's memory
    /// layout: its index slice plus its share of the 2-bit-packed graph
    /// characters.
    pub fn memory_bytes(&self) -> u64 {
        self.index.footprint().total_bytes() + (self.end - self.start).div_ceil(4)
    }

    pub(crate) fn record_seed_hits(&self, hits: u64) {
        self.seed_hits.fetch_add(hits, Ordering::Relaxed);
    }

    pub(crate) fn record_region(&self) {
        self.regions.fetch_add(1, Ordering::Relaxed);
    }

    fn record_win(&self) {
        self.wins.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of this shard's counters.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            shard: self.id,
            start: self.start,
            end: self.end,
            seed_hits: self.seed_hits.load(Ordering::Relaxed),
            regions: self.regions.load(Ordering::Relaxed),
            wins: self.wins.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one shard's per-run occupancy counters (the load-balance
/// observability the paper's Section 8.3 study needs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard id.
    pub shard: usize,
    /// Linear range start (inclusive).
    pub start: u64,
    /// Linear range end (exclusive).
    pub end: u64,
    /// Seed locations this shard's index served.
    pub seed_hits: u64,
    /// Candidate regions this shard produced (pre-dedup).
    pub regions: u64,
    /// Reads whose winning mapping's seed lay in this shard.
    pub wins: u64,
}

/// A reference graph sharded by coordinate range: `N ≥ 1` index slices
/// over one shared graph, mapped jointly through a seeding router whose
/// merged output is byte-identical to the single-index reference,
/// [`SegramMapper`](crate::SegramMapper), for every `N`.
///
/// # Examples
///
/// ```
/// use segram_core::{ReadMapper, SegramConfig, SegramMapper, ShardedIndex};
/// use segram_sim::DatasetConfig;
///
/// let dataset = DatasetConfig::tiny(7).illumina(100);
/// let config = SegramConfig::short_reads();
/// let mono = SegramMapper::new(dataset.graph().clone(), config);
/// let sharded = ShardedIndex::build(dataset.graph().clone(), config, 4);
/// for read in dataset.reads.iter().take(3) {
///     let (a, _) = mono.map_read(&read.seq);
///     let (b, _) = sharded.map_read(&read.seq);
///     assert_eq!(a, b);
/// }
/// ```
#[derive(Debug)]
pub struct ShardedIndex {
    graph: Arc<GenomeGraph>,
    config: SegramConfig,
    freq_threshold: u32,
    boundaries: Vec<u64>,
    shards: Vec<IndexShard>,
    lineage: Option<StoreLineage>,
}

/// The versioned-store lineage a [`ShardedIndex`] carries when it was
/// loaded from a `.sgi` file with a changelog: enough to verify that a
/// proposed replacement store is this store's direct child and to replay
/// the graph delta between them ([`ShardedIndex::apply_delta`]).
#[derive(Clone, Debug)]
pub struct StoreLineage {
    /// The store's epoch.
    pub epoch: u64,
    /// The store's identity checksum (what a child's `parent` must name).
    pub identity: u64,
    /// The linear reference the graph was constructed from, packed.
    pub reference: PackedSeq,
    /// The embedded (sorted, non-overlapping) variant set.
    pub applied: VariantSet,
}

/// What a delta swap did, per reload: how many shards were rebuilt
/// because the delta touched their coordinate range, and how many were
/// carried into the new [`ShardedIndex`] untouched (shared allocation)
/// or with only a node-id translation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaSwapReport {
    /// The epoch the swap moved to.
    pub epoch: u64,
    /// Shards rebuilt from the new index (their range intersects the
    /// delta's touched coordinates).
    pub dirty: usize,
    /// Clean shards sharing the predecessor's index allocation.
    pub shared: usize,
    /// Clean shards cloned with only a node-id translation (no minimizer
    /// re-extraction) because fresh nodes upstream shifted their ids.
    pub remapped: usize,
}

impl DeltaSwapReport {
    /// Shards that did **not** need a rebuild.
    pub fn clean(&self) -> usize {
        self.shared + self.remapped
    }
}

/// A child store [`ShardedIndex::apply_delta`] declined, handed back
/// with the reason so the caller can still shard it whole.
#[derive(Debug)]
pub struct DeclinedDelta {
    /// The child store, untouched.
    pub store: PersistedIndex,
    /// Why the delta route does not apply.
    pub reason: PersistError,
}

impl ShardedIndex {
    /// Builds the sharded index: one whole-graph index pass (so the
    /// frequency threshold is derived from *global* minimizer counts,
    /// exactly as [`SegramMapper::new`](crate::SegramMapper::new) does),
    /// then an exact partition of the seed locations into `shards`
    /// equal-width coordinate ranges.
    ///
    /// Degenerate requests (`shards` exceeding the reference length) are
    /// clamped by [`shard_boundaries`], so [`Self::shards`] may report
    /// fewer ranges than requested rather than silently empty ones.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn build(graph: GenomeGraph, config: SegramConfig, shards: usize) -> Self {
        let graph = Arc::new(graph);
        let index = GraphIndex::build(&graph, config.scheme, config.bucket_bits);
        let freq_threshold = frequency_threshold(&index, config.discard_frac);
        Self::from_parts(graph, index, config, freq_threshold, shards)
    }

    /// Shards an already-built whole-graph index without re-running the
    /// index pass. `freq_threshold` must be the global threshold that
    /// accompanied `index` — a store's recorded value, or
    /// [`frequency_threshold`](segram_index::frequency_threshold) over the
    /// whole index. One shard takes `index` as it is: the partition of an
    /// index into one range is that index, so there is no split pass and
    /// no second copy of its locations. More shards are split off `index`
    /// while it is held whole; a store on disk loads already split
    /// ([`Self::from_store`]).
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn from_parts(
        graph: Arc<GenomeGraph>,
        index: GraphIndex,
        config: SegramConfig,
        freq_threshold: u32,
        shards: usize,
    ) -> Self {
        assert!(shards > 0, "at least one shard");
        let boundaries = shard_boundaries(graph.total_chars(), shards);
        let slices = if boundaries.len() == 2 {
            vec![index]
        } else {
            index.split_by_ranges(&graph, &boundaries)
        };
        Self::from_slices(graph, boundaries, slices, config, freq_threshold)
    }

    /// The index over `slices`, one per range `boundaries` cut, with no
    /// lineage.
    fn from_slices(
        graph: Arc<GenomeGraph>,
        boundaries: Vec<u64>,
        slices: Vec<GraphIndex>,
        config: SegramConfig,
        freq_threshold: u32,
    ) -> Self {
        assert_eq!(slices.len() + 1, boundaries.len(), "one slice per range");
        let shards = slices
            .into_iter()
            .enumerate()
            .map(|(id, slice)| {
                IndexShard::new(id, boundaries[id], boundaries[id + 1], Arc::new(slice))
            })
            .collect();
        Self {
            graph,
            config,
            freq_threshold,
            boundaries,
            shards,
            lineage: None,
        }
    }

    /// Shards a store held whole in memory — a RELOAD's child store the
    /// delta route declined, or one fresh from `index update` — splitting
    /// its index with [`Self::from_parts`]. Lineage as [`Self::from_store`].
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn from_persisted(persisted: PersistedIndex, config: SegramConfig, shards: usize) -> Self {
        // Read before the graph and index move out; a store without a
        // changelog has no lineage to name, and is not checksummed for one.
        let identity = persisted.changelog.is_some().then(|| persisted.identity());
        Self::from_parts(
            Arc::new(persisted.graph),
            persisted.index,
            config,
            persisted.freq_threshold,
            shards,
        )
        .with_lineage(persisted.changelog, identity)
    }

    /// The index over a store the loader split as it read it
    /// ([`read_index_file_sharded`](segram_index::read_index_file_sharded)),
    /// so the whole index was never built. With more than one shard it
    /// keeps the store's changelog lineage, so later [`Self::apply_delta`]
    /// calls can verify parentage and swap only the dirty shards; a
    /// one-shard index has no clean shard a delta could carry over, so it
    /// drops the lineage (the reference and variant set) instead of
    /// holding it for nothing.
    pub fn from_store(store: ShardedStore, config: SegramConfig) -> Self {
        // A loaded changelog's identity is verified against its payloads.
        let identity = store.changelog.as_ref().map(|log| log.identity);
        Self::from_slices(
            Arc::new(store.graph),
            store.boundaries,
            store.shards,
            config,
            store.freq_threshold,
        )
        .with_lineage(store.changelog, identity)
    }

    /// Keeps the lineage of a store whose identity is `identity`, where a
    /// delta could use it: more than one shard.
    fn with_lineage(mut self, changelog: Option<StoreChangelog>, identity: Option<u64>) -> Self {
        if self.shards.len() > 1 {
            self.lineage = changelog.zip(identity).map(|(log, identity)| StoreLineage {
                epoch: log.epoch,
                identity,
                reference: log.reference,
                applied: log.applied,
            });
        }
        self
    }

    /// The lineage carried from the persisted store, when there is one.
    pub fn lineage(&self) -> Option<&StoreLineage> {
        self.lineage.as_ref()
    }

    /// Builds the successor [`ShardedIndex`] for a store delta, rebuilding
    /// **only** the shards whose coordinate range the delta touched.
    ///
    /// `new` must be the direct child of the store this index was loaded
    /// from: its changelog's `parent` must name this lineage's identity
    /// (else [`PersistError::ParentMismatch`]) and its epoch must be
    /// exactly one ahead (else [`PersistError::EpochSkew`]). A declined
    /// delta hands `new` back beside the reason, so the caller (the serve
    /// RELOAD path) can fall back to a full re-shard of it.
    ///
    /// The old shard boundaries are translated into the new coordinate
    /// space *through the carried nodes*, so a clean shard's location set
    /// is exactly its old one (node ids translated where fresh nodes
    /// shifted them) and no location is ever duplicated into — or lost
    /// between — a clean and a rebuilt shard. Untouched shards with an
    /// identity translation share the predecessor's index allocation
    /// outright, and the successor maps against `new`'s own graph; the
    /// router's merged output is byte-identical to a full re-shard either
    /// way. A one-shard index carries no lineage ([`Self::from_store`])
    /// and answers [`PersistError::NoChangelog`].
    pub fn apply_delta(
        &self,
        new: PersistedIndex,
    ) -> Result<(Self, DeltaSwapReport), Box<DeclinedDelta>> {
        match self.child_changes(&new) {
            Ok(log) => Ok(self.swap_in(new, &log)),
            Err(reason) => Err(Box::new(DeclinedDelta { store: new, reason })),
        }
    }

    /// Verifies that `new` is this store's direct child and diffs the two
    /// graphs.
    fn child_changes(&self, new: &PersistedIndex) -> Result<ChangeLog, PersistError> {
        let lineage = self.lineage.as_ref().ok_or(PersistError::NoChangelog)?;
        let new_log = new.changelog.as_ref().ok_or(PersistError::NoChangelog)?;
        if new_log.parent != lineage.identity {
            return Err(PersistError::ParentMismatch {
                expected: lineage.identity,
                found: new_log.parent,
            });
        }
        if new_log.epoch != lineage.epoch + 1 {
            return Err(PersistError::EpochSkew {
                expected: lineage.epoch + 1,
                found: new_log.epoch,
            });
        }
        let corrupt = |detail: String| PersistError::Corrupt {
            section: "changelog",
            detail,
        };
        if lineage.reference != new_log.reference {
            return Err(corrupt("reference changed between epochs".into()));
        }
        if *new.index.scheme() != self.config.scheme
            || new.index.bucket_bits() != self.config.bucket_bits
        {
            return Err(corrupt("minimizer scheme changed between epochs".into()));
        }
        // Replay both constructions to recover the coordinate metadata the
        // diff needs, verifying each replay against the graph actually
        // loaded — a delta is only trusted against proven lineage. The two
        // references are equal: one unpacking serves both.
        let reference = lineage.reference.unpack();
        let built_old = build_graph(&reference, lineage.applied.clone())
            .map_err(|e| corrupt(format!("lineage does not rebuild: {e}")))?;
        if !graphs_identical(&built_old.graph, &self.graph) {
            return Err(corrupt(
                "lineage does not reconstruct the active graph".into(),
            ));
        }
        let built_new = build_graph(&reference, new_log.applied.clone())
            .map_err(|e| corrupt(format!("child changelog does not rebuild: {e}")))?;
        if !graphs_identical(&built_new.graph, &new.graph) {
            return Err(corrupt(
                "child changelog does not reconstruct its graph".into(),
            ));
        }
        Ok(diff_graphs(&built_old, &built_new))
    }

    /// The successor over `new`, a verified child whose graph differs from
    /// this one by `log`: `new`'s graph moves in, and its index is read
    /// only for the dirty shards.
    fn swap_in(&self, new: PersistedIndex, log: &ChangeLog) -> (Self, DeltaSwapReport) {
        let identity = new.identity();
        let new_log = new.changelog.expect("a verified child has a changelog");
        let new_graph = Arc::new(new.graph);

        let new_boundaries = self.translate_boundaries(log, &new_graph);
        let fresh_new = log.fresh_linear(&new_graph);
        let dropped_old = merge_ranges(
            log.dropped
                .iter()
                .map(|&n| {
                    let start = self.graph.char_start(n);
                    (start, start + self.graph.node_len(n) as u64)
                })
                .collect(),
        );
        let carried_map = log.carried_map(self.graph.node_count());

        enum Plan {
            Dirty,
            Shared,
            Remapped(GraphIndex),
        }
        let plans: Vec<Plan> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let old_range = (self.boundaries[i], self.boundaries[i + 1]);
                let new_range = (new_boundaries[i], new_boundaries[i + 1]);
                let touched = fresh_new.iter().any(|&r| ranges_intersect(r, new_range))
                    || dropped_old.iter().any(|&r| ranges_intersect(r, old_range));
                if touched {
                    return Plan::Dirty;
                }
                if shard.index.remap_is_identity(&carried_map) {
                    return Plan::Shared;
                }
                match shard.index.remap_nodes(&carried_map) {
                    Some(idx) => Plan::Remapped(idx),
                    None => Plan::Dirty,
                }
            })
            .collect();
        // Only dirty shards pay for a partition of the new index: each is
        // extracted alone, so the clean shards' locations are never
        // re-bucketed at all.
        let mut rebuilt: Vec<Option<GraphIndex>> = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| match plan {
                Plan::Dirty => Some(new.index.extract_shard(&new_graph, &new_boundaries, i)),
                _ => None,
            })
            .collect();
        drop(new.index);

        let mut report = DeltaSwapReport {
            epoch: new_log.epoch,
            ..DeltaSwapReport::default()
        };
        let shards: Vec<IndexShard> = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let index = match plan {
                    Plan::Shared => {
                        report.shared += 1;
                        Arc::clone(&self.shards[i].index)
                    }
                    Plan::Remapped(idx) => {
                        report.remapped += 1;
                        Arc::new(idx)
                    }
                    Plan::Dirty => {
                        report.dirty += 1;
                        Arc::new(rebuilt[i].take().expect("split computed for dirty shards"))
                    }
                };
                IndexShard::new(i, new_boundaries[i], new_boundaries[i + 1], index)
            })
            .collect();

        (
            Self {
                graph: new_graph,
                config: self.config,
                freq_threshold: new.freq_threshold,
                boundaries: new_boundaries,
                shards,
                lineage: Some(StoreLineage {
                    epoch: new_log.epoch,
                    identity,
                    reference: new_log.reference,
                    applied: new_log.applied,
                }),
            },
            report,
        )
    }

    /// Maps the old shard boundaries into the new graph's coordinate
    /// space: each boundary lands at the new position of the first carried
    /// character at or after it (cutting carried nodes at the same
    /// offset), so for every carried seed location *old shard membership
    /// and new shard membership agree* — the invariant that lets clean and
    /// rebuilt shards partition the new index without overlap or gaps.
    fn translate_boundaries(&self, log: &ChangeLog, new_graph: &GenomeGraph) -> Vec<u64> {
        let old_graph = self.graph.as_ref();
        let new_total = new_graph.total_chars();
        let old_ends: Vec<u64> = log
            .carried
            .iter()
            .map(|&(o, _)| old_graph.char_start(o) + old_graph.node_len(o) as u64)
            .collect();
        let translate = |b: u64| -> u64 {
            // First carried node whose footprint ends past `b`: the node
            // containing `b`, or the first one after the gap `b` sits in.
            let i = old_ends.partition_point(|&e| e <= b);
            match log.carried.get(i) {
                Some(&(old, new)) => {
                    let old_start = old_graph.char_start(old);
                    let new_start = new_graph.char_start(new);
                    if old_start <= b {
                        new_start + (b - old_start)
                    } else {
                        new_start
                    }
                }
                None => new_total,
            }
        };
        let mut boundaries = Vec::with_capacity(self.boundaries.len());
        boundaries.push(0);
        for &b in &self.boundaries[1..self.boundaries.len() - 1] {
            let prev = *boundaries.last().expect("non-empty");
            boundaries.push(translate(b).clamp(prev, new_total));
        }
        boundaries.push(new_total);
        boundaries
    }

    /// The shards, in coordinate order.
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// The shared reference graph all shards map against.
    pub fn shared_graph(&self) -> Arc<GenomeGraph> {
        Arc::clone(&self.graph)
    }

    /// The shared configuration.
    pub fn config(&self) -> &SegramConfig {
        &self.config
    }

    /// The global frequency-filter threshold (identical to the
    /// single-index reference mapper's, by construction).
    pub fn freq_threshold(&self) -> u32 {
        self.freq_threshold
    }

    /// The shard owning linear coordinate `linear`.
    pub fn shard_of(&self, linear: u64) -> usize {
        let inner = &self.boundaries[1..self.boundaries.len() - 1];
        inner
            .partition_point(|&b| b <= linear)
            .min(self.shards.len() - 1)
    }

    /// The seeding-stage router over this index's shards.
    pub fn router(&self) -> ShardRouter<'_> {
        ShardRouter::new(
            self.graph.as_ref(),
            &self.shards,
            self.config.error_rate,
            self.freq_threshold,
        )
    }

    /// Assembles the pipeline: the router as the seeding stage, the
    /// default prefilter/aligner after the merge — so everything past
    /// seeding is exactly the reference mapper's path.
    pub fn pipeline(&self) -> MapPipeline<'_, ShardRouter<'_>, SpecPrefilter, BitAlignStage> {
        MapPipeline::new(
            self.graph.as_ref(),
            self.router(),
            SpecPrefilter::new(self.config.prefilter),
            BitAlignStage::new(&self.config),
            self.config,
        )
    }

    /// Per-shard memory loads (the inputs to the elastic pool placement).
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shards.iter().map(IndexShard::memory_bytes).collect()
    }

    /// Snapshot of every shard's occupancy counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(IndexShard::stats).collect()
    }

    /// Resets the per-shard occupancy counters (between engine runs).
    pub fn reset_shard_stats(&self) {
        for shard in &self.shards {
            shard.seed_hits.store(0, Ordering::Relaxed);
            shard.regions.store(0, Ordering::Relaxed);
            shard.wins.store(0, Ordering::Relaxed);
        }
    }

    /// Max-over-mean imbalance of per-shard seed hits since the last
    /// reset (1.0 = perfectly balanced seeding load).
    pub fn seed_imbalance(&self) -> f64 {
        let hits: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.seed_hits.load(Ordering::Relaxed))
            .collect();
        load_imbalance(&hits)
    }

    fn attribute_win(&self, mapping: &Mapping) {
        if let Ok(linear) = self.graph.linear_pos(mapping.region.seed) {
            self.shards[self.shard_of(linear)].record_win();
        }
    }
}

impl ReadMapper for ShardedIndex {
    fn graph(&self) -> &GenomeGraph {
        self.graph.as_ref()
    }

    fn map_read(&self, read: &DnaSeq) -> (Option<Mapping>, MapStats) {
        let (mapping, stats) = self.pipeline().map_read(read);
        if let Some(m) = &mapping {
            self.attribute_win(m);
        }
        (mapping, stats)
    }

    fn map_read_both(&self, read: &DnaSeq) -> (Option<(Mapping, segram_sim::Strand)>, MapStats) {
        let (best, stats) = self.pipeline().map_read_both(read);
        if let Some((m, _)) = &best {
            self.attribute_win(m);
        }
        (best, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegramMapper;
    use segram_sim::DatasetConfig;

    fn setup(shards: usize) -> (segram_sim::Dataset, SegramMapper, ShardedIndex) {
        let dataset = DatasetConfig::tiny(61).illumina(100);
        let config = SegramConfig::short_reads();
        let mono = SegramMapper::new(dataset.graph().clone(), config);
        let sharded = ShardedIndex::build(dataset.graph().clone(), config, shards);
        (dataset, mono, sharded)
    }

    #[test]
    fn sharded_seeding_equals_monolithic_seeding() {
        let (dataset, mono, sharded) = setup(4);
        let router = sharded.router();
        use crate::pipeline::Seeder;
        for read in &dataset.reads {
            let a = mono.seed(&read.seq);
            let b = router.seed(&read.seq);
            assert_eq!(a.regions, b.regions);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn sharded_mapping_equals_monolithic_mapping() {
        for shards in [1usize, 2, 3, 4] {
            let (dataset, mono, sharded) = setup(shards);
            for read in &dataset.reads {
                let (a, a_stats) = mono.map_read(&read.seq);
                let (b, b_stats) = sharded.map_read(&read.seq);
                assert_eq!(a, b, "shards {shards}");
                assert_eq!(a_stats.regions_aligned, b_stats.regions_aligned);
                assert_eq!(a_stats.seed_locations, b_stats.seed_locations);
            }
        }
    }

    #[test]
    fn shard_index_partition_is_exact() {
        let (_, mono, sharded) = setup(4);
        let total: usize = sharded
            .shards()
            .iter()
            .map(|s| s.index().total_locations())
            .sum();
        assert_eq!(total, mono.index().total_locations());
        assert_eq!(sharded.freq_threshold(), mono.freq_threshold());
        // Ranges tile the coordinate space.
        let shards = sharded.shards();
        assert_eq!(shards[0].range().0, 0);
        assert_eq!(shards.last().unwrap().range().1, mono.graph().total_chars());
        for w in shards.windows(2) {
            assert_eq!(w[0].range().1, w[1].range().0);
        }
    }

    #[test]
    fn one_shard_takes_the_loaded_index_whole() {
        let dataset = DatasetConfig::tiny(61).illumina(100);
        let graph = Arc::new(dataset.graph().clone());
        let config = SegramConfig::short_reads();
        let index = GraphIndex::build(&graph, config.scheme, config.bucket_bits);
        let (locations, minimizers) = (index.total_locations(), index.distinct_minimizers());
        let total_chars = graph.total_chars();
        let one = ShardedIndex::from_parts(graph, index, config, u32::MAX, 1);
        // The partition into one range is the index itself: same entries,
        // one range spanning the reference.
        assert_eq!(one.shards().len(), 1);
        assert_eq!(one.shards()[0].range(), (0, total_chars));
        assert_eq!(one.shards()[0].index().total_locations(), locations);
        assert_eq!(one.shards()[0].index().distinct_minimizers(), minimizers);
        assert_eq!(one.shard_of(total_chars - 1), 0);
    }

    #[test]
    fn shard_counters_track_seeding_load() {
        let (dataset, _, sharded) = setup(3);
        for read in dataset.reads.iter().take(8) {
            let _ = sharded.map_read(&read.seq);
        }
        let stats = sharded.shard_stats();
        let hits: u64 = stats.iter().map(|s| s.seed_hits).sum();
        let wins: u64 = stats.iter().map(|s| s.wins).sum();
        assert!(hits > 0, "router must record seed hits");
        assert!(wins > 0, "mapped reads must attribute a winning shard");
        assert!(sharded.seed_imbalance() >= 1.0);
        sharded.reset_shard_stats();
        assert!(sharded.shard_stats().iter().all(|s| s.seed_hits == 0));
    }

    #[test]
    fn shard_of_respects_boundaries() {
        let (_, _, sharded) = setup(4);
        for (i, shard) in sharded.shards().iter().enumerate() {
            let (start, end) = shard.range();
            if end > start {
                assert_eq!(sharded.shard_of(start), i);
                assert_eq!(sharded.shard_of(end - 1), i);
            }
        }
    }

    #[test]
    fn seed_imbalance_tracks_recorded_hits_exactly() {
        let (_, _, sharded) = setup(3);
        // No hits recorded yet: the all-zero degenerate case reports 1.0
        // (perfectly balanced), not a division by zero.
        assert_eq!(sharded.seed_imbalance(), 1.0);
        for shard in sharded.shards() {
            shard.record_seed_hits(30);
        }
        assert!((sharded.seed_imbalance() - 1.0).abs() < 1e-9);
        // Skew one shard: hits become [90, 30, 30] -> max 90 / mean 50.
        sharded.shards()[0].record_seed_hits(60);
        assert!((sharded.seed_imbalance() - 1.8).abs() < 1e-9);
        // Reset restores the balanced baseline.
        sharded.reset_shard_stats();
        assert_eq!(sharded.seed_imbalance(), 1.0);
    }

    #[test]
    fn shard_stats_snapshot_mirrors_recorded_counters() {
        let (_, _, sharded) = setup(2);
        sharded.shards()[1].record_seed_hits(5);
        sharded.shards()[1].record_region();
        sharded.shards()[1].record_region();
        let stats = sharded.shard_stats();
        assert_eq!(stats[0].seed_hits, 0);
        assert_eq!(stats[1].seed_hits, 5);
        assert_eq!(stats[1].regions, 2);
        assert_eq!(stats[1].wins, 0);
        // The snapshot carries the shard's identity and range.
        assert_eq!(stats[1].shard, 1);
        assert_eq!((stats[1].start, stats[1].end), sharded.shards()[1].range());
    }

    #[test]
    fn balance_loads_places_every_item_once() {
        let placement = balance_loads(&[50, 30, 20, 15, 10, 8], 3);
        assert_eq!(placement.len(), 3);
        let mut seen: Vec<usize> = placement.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        // Largest-first: 50 alone beats any pair from the tail.
        let totals: Vec<u64> = placement
            .iter()
            .map(|bin| bin.iter().map(|&i| [50u64, 30, 20, 15, 10, 8][i]).sum())
            .collect();
        assert!(load_imbalance(&totals) < 1.35);
    }

    #[test]
    fn load_imbalance_degenerate_cases() {
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[0, 0]), 1.0);
        assert_eq!(load_imbalance(&[5, 5, 5]), 1.0);
        assert!(load_imbalance(&[10, 0]) > 1.9);
    }
}
