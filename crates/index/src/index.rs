//! The hash-table-based index of the genome graph (Figure 6): a
//! three-level structure of buckets → minimizers → seed locations, with the
//! paper's byte accounting (4 B per bucket, 12 B per minimizer, 8 B per
//! location).

use std::collections::HashMap;

use segram_graph::{ChangeLog, GenomeGraph, GraphPos, NodeId};

use crate::minimizer::{extract_minimizers_from, Minimizer, MinimizerScheme};

/// Bytes per first-level bucket entry (Figure 6).
pub const BUCKET_ENTRY_BYTES: u64 = 4;
/// Bytes per second-level minimizer entry (Figure 6).
pub const MINIMIZER_ENTRY_BYTES: u64 = 12;
/// Bytes per third-level seed-location entry (Figure 6).
pub const LOCATION_ENTRY_BYTES: u64 = 8;

/// The paper's empirically chosen bucket count, `2^24` (Figure 7 ff.).
pub const DEFAULT_BUCKET_BITS: u32 = 24;

/// The first-level bucket of a minimizer hash: its low `bucket_bits` bits.
#[inline]
pub(crate) fn bucket_of(hash: u64, bucket_bits: u32) -> usize {
    (hash & ((1u64 << bucket_bits) - 1)) as usize
}

/// The three-level hash-table index over a genome graph's nodes.
///
/// # Examples
///
/// ```
/// use segram_index::{GraphIndex, MinimizerScheme};
/// use segram_graph::linear_graph;
///
/// let graph = linear_graph(&"ACGTTGCAGTCATGCA".repeat(20).parse()?, 64)?;
/// let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 8), 10);
/// assert!(index.distinct_minimizers() > 0);
/// // Every indexed minimizer can be queried back.
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphIndex {
    pub(crate) scheme: MinimizerScheme,
    pub(crate) bucket_bits: u32,
    /// First level: per bucket, the range of second-level entries.
    pub(crate) bucket_starts: Vec<u32>,
    /// Second level, sorted by (bucket, hash): the distinct minimizer
    /// hashes, and beside them where each one's locations start in the
    /// third level, plus a sentinel — 12 B per entry, as in Figure 6.
    /// Minimizer `m`'s locations are `locations[starts[m]..starts[m + 1]]`.
    pub(crate) hashes: Vec<u64>,
    pub(crate) starts: Vec<u32>,
    /// Third level, grouped per minimizer, sorted by (node, offset).
    pub(crate) locations: Vec<GraphPos>,
}

impl GraphIndex {
    /// Indexes the nodes of `graph` (Section 5: "the nodes of the graph
    /// structure are indexed and stored in the hash-table-based index").
    ///
    /// K-mers are taken *within* nodes; `bucket_bits` selects the
    /// first-level bucket count `2^bucket_bits`.
    ///
    /// # Panics
    ///
    /// Panics when `bucket_bits` is 0 or exceeds 32.
    pub fn build(graph: &GenomeGraph, scheme: MinimizerScheme, bucket_bits: u32) -> Self {
        assert!(
            (1..=32).contains(&bucket_bits),
            "bucket_bits must be 1..=32"
        );
        // Collect (hash, node, offset) for every node's minimizers, filed
        // by the top bits of their bucket into runs of adjacent buckets.
        let run_bits = bucket_bits.min(8);
        let expected = graph.total_chars() as usize * 5 / (2 * (scheme.w + 1));
        let mut runs: Vec<Vec<(u64, GraphPos)>> = (0..1usize << run_bits)
            .map(|_| Vec::with_capacity(expected >> run_bits))
            .collect();
        for node in graph.node_ids() {
            for m in extract_minimizers_from(graph.seq(node), &scheme) {
                let run = bucket_of(m.rank, bucket_bits) >> (bucket_bits - run_bits);
                runs[run].push((m.rank, GraphPos::new(node, m.pos)));
            }
        }
        // Order each run's few thousand pairs. The bucket is the hash's low
        // bits: rotated to the top, integer order is (bucket, hash) order.
        for run in &mut runs {
            run.sort_unstable_by_key(|&(hash, pos)| (hash.rotate_right(bucket_bits), pos));
        }
        let pairs = runs.iter().map(Vec::len).sum();
        Self::from_sorted(
            scheme,
            bucket_bits,
            (pairs, pairs),
            runs.into_iter().flatten(),
        )
    }

    /// Assembles the three levels from a stream of `(hash, location)` pairs
    /// in `(bucket, hash, location)` order, into second and third levels
    /// of about `capacity` = `(minimizers, locations)` entries.
    fn from_sorted(
        scheme: MinimizerScheme,
        bucket_bits: u32,
        capacity: (usize, usize),
        seeds: impl Iterator<Item = (u64, GraphPos)>,
    ) -> Self {
        let mut index = Self::unsealed(scheme, bucket_bits, capacity);
        seeds.for_each(|seed| index.push_seed(seed));
        index.sealed()
    }

    /// An index under assembly — the one level builder behind
    /// [`Self::build`], [`Self::apply_delta`], the splits and the sharded
    /// `.sgi` load: [`Self::push_seed`] fills the second and third level and
    /// the first up to the latest minimizer's bucket, [`Self::sealed`] the
    /// rest of it. `capacity` is `(minimizers, locations)`.
    pub(crate) fn unsealed(
        scheme: MinimizerScheme,
        bucket_bits: u32,
        capacity: (usize, usize),
    ) -> Self {
        Self {
            scheme,
            bucket_bits,
            bucket_starts: Vec::with_capacity((1usize << bucket_bits) + 1),
            hashes: Vec::with_capacity(capacity.0),
            starts: Vec::with_capacity(capacity.0 + 1),
            locations: Vec::with_capacity(capacity.1),
        }
    }

    #[inline]
    pub(crate) fn push_seed(&mut self, (hash, pos): (u64, GraphPos)) {
        let bucket = bucket_of(hash, self.bucket_bits);
        debug_assert!(
            self.hashes.last().is_none_or(|&last| {
                let last = (bucket_of(last, self.bucket_bits), last);
                (last, self.locations.last()) <= ((bucket, hash), Some(&pos))
            }),
            "seeds must arrive in (bucket, hash, location) order"
        );
        if self.hashes.last() != Some(&hash) {
            // Every bucket up to this one starts at or before this entry.
            let entries = self.hashes.len() as u32;
            if self.bucket_starts.len() <= bucket {
                self.bucket_starts.resize(bucket + 1, entries);
            }
            self.hashes.push(hash);
            self.starts.push(self.locations.len() as u32);
        }
        self.locations.push(pos);
    }

    /// Completes the first level and the second level's sentinel, and
    /// gives back whatever capacity the estimate left over, so the levels
    /// hold what [`Self::footprint`] counts.
    pub(crate) fn sealed(mut self) -> Self {
        let entries = self.hashes.len() as u32;
        self.bucket_starts
            .resize((1usize << self.bucket_bits) + 1, entries);
        self.starts.push(self.locations.len() as u32);
        self.hashes.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.locations.shrink_to_fit();
        self
    }

    /// The minimizer scheme the index was built with.
    pub fn scheme(&self) -> &MinimizerScheme {
        &self.scheme
    }

    /// `log2` of the bucket count.
    pub fn bucket_bits(&self) -> u32 {
        self.bucket_bits
    }

    /// Number of distinct minimizers (second-level entries).
    pub fn distinct_minimizers(&self) -> usize {
        self.hashes.len()
    }

    /// Total number of seed locations (third-level entries).
    pub fn total_locations(&self) -> usize {
        self.locations.len()
    }

    /// Occurrence frequency of a minimizer hash (the value MinSeed fetches
    /// first, step 3 in Figure 4). Zero when absent.
    pub fn frequency(&self, hash: u64) -> u32 {
        self.entry(hash)
            .map_or(0, |m| self.starts[m + 1] - self.starts[m])
    }

    /// All seed locations of a minimizer hash (step 5 in Figure 4).
    pub fn locations(&self, hash: u64) -> &[GraphPos] {
        match self.entry(hash) {
            Some(m) => self.locations_of(m),
            None => &[],
        }
    }

    /// The second-level entry of `hash`: a binary search of its bucket's
    /// run of the hash array.
    fn entry(&self, hash: u64) -> Option<usize> {
        let bucket = bucket_of(hash, self.bucket_bits);
        let start = self.bucket_starts[bucket] as usize;
        let end = self.bucket_starts[bucket + 1] as usize;
        let at = self.hashes[start..end].binary_search(&hash).ok()?;
        Some(start + at)
    }

    /// The third-level run of second-level entry `m`.
    fn locations_of(&self, m: usize) -> &[GraphPos] {
        &self.locations[self.starts[m] as usize..self.starts[m + 1] as usize]
    }

    /// Every second-level entry's third-level run, in order.
    fn runs(&self) -> impl Iterator<Item = &[GraphPos]> + '_ {
        (self.starts.windows(2)).map(|run| &self.locations[run[0] as usize..run[1] as usize])
    }

    /// Queries a [`Minimizer`] extracted from a read.
    pub fn lookup(&self, minimizer: &Minimizer) -> &[GraphPos] {
        self.locations(minimizer.rank)
    }

    /// Splits this index into per-coordinate-range shard indexes — the
    /// software analogue of the paper's per-HBM-channel index slices
    /// (Section 8.3). `boundaries` are `N + 1` ascending linear-coordinate
    /// cut points; shard `s` receives exactly the seed locations whose
    /// linear coordinate falls in `[boundaries[s], boundaries[s + 1])`.
    ///
    /// The shards partition this index: every location lands in exactly
    /// one shard, so summing a minimizer's per-shard frequencies
    /// reproduces [`Self::frequency`] and concatenating per-shard
    /// [`Self::locations`] reproduces the monolithic location multiset.
    /// Each shard keeps the parent's scheme and bucket count.
    ///
    /// # Panics
    ///
    /// Panics when `boundaries` has fewer than two entries, is not
    /// ascending, or when a location does not resolve against `graph`
    /// (i.e. `graph` is not the graph this index was built from).
    pub fn split_by_ranges(&self, graph: &GenomeGraph, boundaries: &[u64]) -> Vec<GraphIndex> {
        let owner = checked_shard_owner(graph, boundaries);
        let mut filing = ShardFiling::new(boundaries.len() - 1, owner);
        self.walk_into(&mut filing);
        filing.into_shards()
    }

    /// Extracts the single shard `shard` of the [`Self::split_by_ranges`]
    /// partition without materializing the other shards — the dirty-shard
    /// delta swap rebuilds only the touched shards, so partitioning the
    /// clean ones would be wasted work. Ownership is identical to
    /// `split_by_ranges(graph, boundaries)[shard]`.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::split_by_ranges`], plus `shard` must be a
    /// valid shard number for `boundaries`.
    pub fn extract_shard(
        &self,
        graph: &GenomeGraph,
        boundaries: &[u64],
        shard: usize,
    ) -> GraphIndex {
        let owner = shard_owner(graph, boundaries);
        let shards = boundaries.len() - 1;
        assert!(shard < shards, "shard {shard} out of {shards}");
        let capacity = self.shard_sizes(shards, &owner)[shard];
        let kept = self.seeds().filter(|&(_, loc)| owner(loc) == shard);
        Self::from_sorted(self.scheme, self.bucket_bits, capacity, kept)
    }

    /// Every shard's exact level sizes under `owner`, `(minimizers,
    /// locations)`, from one counting walk — so a split allocates each
    /// level once, at its final size, instead of growing it by pushes.
    fn shard_sizes(&self, shards: usize, owner: impl Fn(GraphPos) -> usize) -> Vec<(usize, usize)> {
        let mut sizes = ShardSizes::new(shards);
        for (m, run) in self.runs().enumerate() {
            for &loc in run {
                sizes.count(m, owner(loc));
            }
        }
        sizes.into_sizes()
    }

    /// Every `(hash, location)` pair in `(bucket, hash, location)` order.
    fn seeds(&self) -> impl Iterator<Item = (u64, GraphPos)> + '_ {
        (self.hashes.iter().zip(self.runs()))
            .flat_map(|(&hash, run)| run.iter().map(move |&loc| (hash, loc)))
    }

    /// Walks this index into `filing` as a store's index section is walked
    /// (`persist`'s checked walk): every location counted with its
    /// second-level entry, then every `(hash, location)` pair filed in
    /// `(bucket, hash, location)` order.
    ///
    /// # Panics
    ///
    /// Panics when `filing` has no place for a location of this index.
    pub(crate) fn walk_into(&self, filing: &mut impl SeedFiling) {
        for (m, run) in self.runs().enumerate() {
            for &pos in run {
                filing.count(m, pos);
            }
        }
        filing.begin(self.scheme, self.bucket_bits);
        for seed in self.seeds() {
            assert!(
                filing.file(seed),
                "index location must resolve against its own graph"
            );
        }
    }

    /// Incrementally maintains the index across a graph delta: carried
    /// nodes keep their already-extracted minimizers (only the node id is
    /// translated), fresh nodes are re-extracted, dropped nodes' entries
    /// die — **no minimizer outside the touched ranges is re-hashed**.
    ///
    /// `self` must be the index of `old_graph`, and `log` the
    /// [`ChangeLog`] mapping `old_graph` to `new_graph`. The result is
    /// byte-identical to `GraphIndex::build(new_graph, ...)` because
    /// minimizers never cross node boundaries (a content-identical node
    /// yields the identical minimizer set) and the carried-node mapping is
    /// monotone (the carried entry stream stays sorted, so the merge with
    /// the freshly extracted stream needs no global re-sort). This index
    /// is walked into the same merge a streamed `segram index update`
    /// walks its parent's index section into.
    pub fn apply_delta(
        &self,
        old_graph: &GenomeGraph,
        new_graph: &GenomeGraph,
        log: &ChangeLog,
    ) -> (GraphIndex, DeltaStats) {
        let mut merge = DeltaMerge::new(old_graph.node_count(), new_graph, log);
        self.walk_into(&mut merge);
        merge.finish()
    }

    /// The per-minimizer occurrence counts (used to derive the frequency
    /// filter threshold).
    pub fn frequencies(&self) -> impl Iterator<Item = u32> + '_ {
        self.starts.windows(2).map(|run| run[1] - run[0])
    }

    /// Translates every location's node id through `map`, preserving the
    /// index structure byte-for-byte otherwise. Returns `None` when a
    /// location's node is unmapped or the translation would perturb the
    /// in-entry location order — callers treat that as "rebuild instead".
    ///
    /// This is the clean-shard path of the sharded delta swap: a shard
    /// whose coordinate range the delta never touched holds only carried
    /// nodes, so its slice survives with nothing but an id translation
    /// (no re-extraction, no re-sort, no re-partition).
    pub fn remap_nodes(&self, map: &[Option<NodeId>]) -> Option<GraphIndex> {
        let mut locations = Vec::with_capacity(self.locations.len());
        for run in self.runs() {
            let start = locations.len();
            for loc in run {
                let new_node = *map.get(loc.node.index())?;
                locations.push(GraphPos::new(new_node?, loc.offset));
            }
            if locations[start..].windows(2).any(|w| w[0] > w[1]) {
                return None;
            }
        }
        Some(GraphIndex {
            scheme: self.scheme,
            bucket_bits: self.bucket_bits,
            bucket_starts: self.bucket_starts.clone(),
            hashes: self.hashes.clone(),
            starts: self.starts.clone(),
            locations,
        })
    }

    /// Whether `map` is the identity over every node this index touches —
    /// when true, [`Self::remap_nodes`] would return a clone and the
    /// caller can share the existing structure instead.
    pub fn remap_is_identity(&self, map: &[Option<NodeId>]) -> bool {
        self.locations
            .iter()
            .all(|loc| map.get(loc.node.index()).copied().flatten() == Some(loc.node))
    }

    /// Byte footprint at this index's own bucket count.
    pub fn footprint(&self) -> IndexFootprint {
        self.footprint_with_buckets(self.bucket_bits)
    }

    /// Byte footprint of the same minimizer content under a different
    /// bucket count — the Figure 7 sweep.
    pub fn footprint_with_buckets(&self, bucket_bits: u32) -> IndexFootprint {
        IndexFootprint {
            bucket_bits,
            bucket_bytes: (1u64 << bucket_bits) * BUCKET_ENTRY_BYTES,
            minimizer_bytes: self.hashes.len() as u64 * MINIMIZER_ENTRY_BYTES,
            location_bytes: self.locations.len() as u64 * LOCATION_ENTRY_BYTES,
            max_minimizers_per_bucket: self.max_bucket_load(bucket_bits),
        }
    }

    /// Maximum number of distinct minimizers hashing to one bucket under a
    /// hypothetical bucket count (right axis of Figure 7).
    fn max_bucket_load(&self, bucket_bits: u32) -> usize {
        let mut loads: HashMap<usize, usize> = HashMap::new();
        for &hash in &self.hashes {
            *loads.entry(bucket_of(hash, bucket_bits)).or_insert(0) += 1;
        }
        loads.values().copied().max().unwrap_or(0)
    }
}

/// The shard that owns each location under [`GraphIndex::split_by_ranges`]'s
/// rule — the range `[boundaries[s], boundaries[s + 1])` its linear
/// coordinate falls in, coordinates past the last cut staying in the final
/// shard. The owner is resolved once per *node*; only a location on a node
/// that straddles a cut pays the per-location search.
pub(crate) fn shard_owner<'a>(
    graph: &'a GenomeGraph,
    boundaries: &'a [u64],
) -> impl Fn(GraphPos) -> usize + 'a {
    let owner = checked_shard_owner(graph, boundaries);
    move |loc| owner(loc).expect("index location must resolve against its own graph")
}

/// [`shard_owner`] for locations not yet known to be in `graph`: `None`
/// for a node the graph does not have, or an offset past the end of a node
/// that straddles a cut (the offset on any other node goes unchecked).
pub(crate) fn checked_shard_owner<'a>(
    graph: &'a GenomeGraph,
    boundaries: &'a [u64],
) -> impl Fn(GraphPos) -> Option<usize> + 'a {
    assert!(boundaries.len() >= 2, "need at least one shard range");
    assert!(
        boundaries.windows(2).all(|w| w[0] <= w[1]),
        "shard boundaries must be ascending"
    );
    let cuts = &boundaries[1..boundaries.len() - 1];
    let of_linear = move |linear: u64| cuts.partition_point(|&b| b <= linear);
    let of_node: Vec<Option<u32>> = graph
        .node_ids()
        .map(|node| {
            let first = graph.char_start(node);
            let owner = of_linear(first);
            let last = first + graph.node_len(node) as u64 - 1;
            (of_linear(last) == owner).then_some(owner as u32)
        })
        .collect();
    move |loc| match *of_node.get(loc.node.index())? {
        Some(owner) => Some(owner as usize),
        None => graph.linear_pos(loc).ok().map(of_linear),
    }
}

/// Where a two-pass walk of an index's seeds files them: the destination
/// of the one checked walk of a store's index section, and of
/// [`GraphIndex::walk_into`] over an index in memory.
pub(crate) trait SeedFiling {
    /// Pass 1: location `pos` of second-level entry `m`, every location in
    /// level order, so the destination can size its levels.
    fn count(&mut self, m: usize, pos: GraphPos);
    /// Between the passes: the walked index's scheme and bucket count.
    fn begin(&mut self, scheme: MinimizerScheme, bucket_bits: u32);
    /// Pass 2: files one seed, the seeds in `(bucket, hash, location)`
    /// order; `false` for a location pass 1 could not have counted.
    fn file(&mut self, seed: (u64, GraphPos)) -> bool;
}

/// Files each seed into the coordinate-range shard `owner` names, into
/// levels sized exactly by the count: [`GraphIndex::split_by_ranges`] and
/// the sharded `.sgi` load. A filter of the ordered walk keeps its order,
/// so no shard needs a re-sort.
pub(crate) struct ShardFiling<O> {
    owner: O,
    sizes: ShardSizes,
    shards: Vec<GraphIndex>,
}

impl<O: Fn(GraphPos) -> Option<usize>> ShardFiling<O> {
    pub(crate) fn new(shards: usize, owner: O) -> Self {
        Self {
            owner,
            sizes: ShardSizes::new(shards),
            shards: Vec::new(),
        }
    }

    pub(crate) fn into_shards(self) -> Vec<GraphIndex> {
        self.shards.into_iter().map(GraphIndex::sealed).collect()
    }
}

impl<O: Fn(GraphPos) -> Option<usize>> SeedFiling for ShardFiling<O> {
    #[inline]
    fn count(&mut self, m: usize, pos: GraphPos) {
        let shard = (self.owner)(pos).expect("index location must resolve against its own graph");
        self.sizes.count(m, shard);
    }

    fn begin(&mut self, scheme: MinimizerScheme, bucket_bits: u32) {
        self.shards = (self.sizes.sizes.iter())
            .map(|&capacity| GraphIndex::unsealed(scheme, bucket_bits, capacity))
            .collect();
    }

    #[inline]
    fn file(&mut self, seed: (u64, GraphPos)) -> bool {
        match (self.owner)(seed.1) {
            Some(shard) => {
                self.shards[shard].push_seed(seed);
                true
            }
            None => false,
        }
    }
}

/// The child index of a graph delta, merged from its parent index's seeds:
/// a carried location's node id translated, a dropped one left out, and
/// the fresh nodes' seeds — extracted and sorted once the walk names the
/// scheme — merged in. Monotone carried maps preserve the walk's order;
/// the debug assert in `push_seed` guards it. The one merge behind
/// [`GraphIndex::apply_delta`] and a streamed `segram index update`.
pub(crate) struct DeltaMerge<'a> {
    new_graph: &'a GenomeGraph,
    log: &'a ChangeLog,
    /// Parent node → child node, `None` for a dropped node.
    carried_map: Vec<Option<NodeId>>,
    /// Pass 1's tally of the carried entries and locations, and of every
    /// parent location.
    carried: ShardSizes,
    parent_locations: usize,
    /// The fresh seeds in `(bucket, hash, location)` order, and the next
    /// one to merge.
    fresh: Vec<(u64, GraphPos)>,
    next_fresh: usize,
    index: Option<GraphIndex>,
    stats: DeltaStats,
}

impl<'a> DeltaMerge<'a> {
    /// The merge of a parent index over `parent_nodes` nodes into the
    /// index of `new_graph`, which `log` maps the parent graph to.
    pub(crate) fn new(parent_nodes: usize, new_graph: &'a GenomeGraph, log: &'a ChangeLog) -> Self {
        Self {
            new_graph,
            log,
            carried_map: log.carried_map(parent_nodes),
            carried: ShardSizes::new(1),
            parent_locations: 0,
            fresh: Vec::new(),
            next_fresh: 0,
            index: None,
            stats: DeltaStats {
                carried_nodes: log.carried.len(),
                fresh_nodes: log.fresh.len(),
                ..DeltaStats::default()
            },
        }
    }

    /// Merges the fresh seeds past the last carried one and seals the
    /// child index.
    pub(crate) fn finish(mut self) -> (GraphIndex, DeltaStats) {
        let mut index = self
            .index
            .take()
            .expect("the merge begins before it finishes");
        for &seed in &self.fresh[self.next_fresh..] {
            index.push_seed(seed);
        }
        let index = index.sealed();
        let mut stats = self.stats;
        stats.carried_locations = index.locations.len() - stats.extracted_locations;
        stats.dropped_locations = self.parent_locations - stats.carried_locations;
        (index, stats)
    }
}

impl SeedFiling for DeltaMerge<'_> {
    #[inline]
    fn count(&mut self, m: usize, pos: GraphPos) {
        self.parent_locations += 1;
        if let Some(Some(_)) = self.carried_map.get(pos.node.index()) {
            self.carried.count(m, 0);
        }
    }

    fn begin(&mut self, scheme: MinimizerScheme, bucket_bits: u32) {
        for &node in &self.log.fresh {
            let seq = self.new_graph.seq(node);
            self.stats.extracted_chars += seq.len() as u64;
            for m in extract_minimizers_from(seq, &scheme) {
                self.fresh.push((m.rank, GraphPos::new(node, m.pos)));
            }
        }
        self.fresh
            .sort_unstable_by_key(|&(hash, pos)| (hash.rotate_right(bucket_bits), pos));
        self.stats.extracted_locations = self.fresh.len();
        // Room for every carried entry and every fresh hash; a fresh hash
        // that is also carried leaves its entry unused.
        let fresh_entries = self.fresh.chunk_by(|a, b| a.0 == b.0).count();
        let (entries, locations) = self.carried.sizes[0];
        self.index = Some(GraphIndex::unsealed(
            scheme,
            bucket_bits,
            (entries + fresh_entries, locations + self.fresh.len()),
        ));
    }

    #[inline]
    fn file(&mut self, (hash, pos): (u64, GraphPos)) -> bool {
        let node = match self.carried_map.get(pos.node.index()) {
            None => return false,
            Some(None) => return true,
            Some(&Some(node)) => node,
        };
        let index = self
            .index
            .as_mut()
            .expect("the merge begins before it files");
        let bits = index.bucket_bits;
        let key = |(hash, pos): (u64, GraphPos)| (hash.rotate_right(bits), pos);
        let carried = (hash, GraphPos::new(node, pos.offset));
        while let Some(&seed) =
            (self.fresh.get(self.next_fresh)).filter(|&&s| key(s) < key(carried))
        {
            index.push_seed(seed);
            self.next_fresh += 1;
        }
        index.push_seed(carried);
        true
    }
}

/// A counting walk's tally of every shard's level sizes, `(minimizers,
/// locations)`, fed the locations of a partition in second-level order.
pub(crate) struct ShardSizes {
    sizes: Vec<(usize, usize)>,
    /// The last second-level entry each shard counted an entry for.
    counted: Vec<usize>,
}

impl ShardSizes {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            sizes: vec![(0, 0); shards],
            counted: vec![usize::MAX; shards],
        }
    }

    /// Counts a location of second-level entry `m` that `shard` owns.
    #[inline]
    pub(crate) fn count(&mut self, m: usize, shard: usize) {
        self.sizes[shard].1 += 1;
        if self.counted[shard] != m {
            self.counted[shard] = m;
            self.sizes[shard].0 += 1;
        }
    }

    pub(crate) fn into_sizes(self) -> Vec<(usize, usize)> {
        self.sizes
    }
}

/// Equal-width coordinate cut points for `shards` shards over a graph of
/// `total_chars` linear characters: `shards + 1` ascending boundaries with
/// the remainder spread over the leading shards, suitable for
/// [`GraphIndex::split_by_ranges`].
///
/// Degenerate requests are clamped: asking for more shards than there are
/// characters would force duplicate boundaries (silently empty shards), so
/// the effective shard count is `min(shards, max(total_chars, 1))` and the
/// returned vector may be shorter than `shards + 1`. Callers that must
/// honor the requested count exactly should compare `len() - 1` against it
/// (the CLI warns on this).
///
/// # Panics
///
/// Panics when `shards` is zero.
pub fn shard_boundaries(total_chars: u64, shards: usize) -> Vec<u64> {
    assert!(shards > 0, "at least one shard");
    let shards = (shards as u64).min(total_chars.max(1));
    // boundary[s] = base·s + min(s, rem) is the overflow-safe split;
    // the naive `total_chars * s / shards` overflows u64 once
    // total_chars × shards exceeds 2^64 (human-scale totals at high
    // shard counts).
    let base = total_chars / shards;
    let rem = total_chars % shards;
    (0..=shards).map(|s| base * s + s.min(rem)).collect()
}

/// Work accounting for one [`GraphIndex::apply_delta`] call — the proof
/// that the update re-extracted only the touched ranges (surfaced by
/// `segram index update`'s report and asserted in CI).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Old-index locations carried over with only a node-id translation.
    pub carried_locations: usize,
    /// Old-index locations discarded with their dropped nodes.
    pub dropped_locations: usize,
    /// Locations extracted fresh from the delta's new nodes.
    pub extracted_locations: usize,
    /// Characters the minimizer extractor actually re-scanned.
    pub extracted_chars: u64,
    /// Nodes whose index entries carried over.
    pub carried_nodes: usize,
    /// Nodes extracted from scratch.
    pub fresh_nodes: usize,
}

/// Byte footprint of the index (Figure 7's left axis) plus the bucket-load
/// metric (right axis). At the index's own bucket count it is also the
/// heap its three levels hold, but for the two sentinel entries (the first
/// level's last bucket start, the second level's last location start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexFootprint {
    /// `log2` bucket count this footprint was computed for.
    pub bucket_bits: u32,
    /// First-level bytes: `2^bits * 4 B`.
    pub bucket_bytes: u64,
    /// Second-level bytes: `#distinct minimizers * 12 B`.
    pub minimizer_bytes: u64,
    /// Third-level bytes: `#locations * 8 B`.
    pub location_bytes: u64,
    /// Maximum number of minimizers in any one bucket.
    pub max_minimizers_per_bucket: usize,
}

impl IndexFootprint {
    /// Total bytes across all three levels.
    pub fn total_bytes(&self) -> u64 {
        self.bucket_bytes + self.minimizer_bytes + self.location_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::extract_minimizers_from;
    use segram_graph::{build_graph, linear_graph, Variant};
    use segram_graph::{DnaSeq, GenomeGraph, NodeId};

    fn lcg_seq(len: usize, seed: u64) -> DnaSeq {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                segram_graph::Base::from_code_masked((state >> 33) as u8)
            })
            .collect()
    }

    /// The construction as it was before bucket placement and the
    /// streaming level builder — one comparison sort of every pair by
    /// `(bucket, hash, location)`, per-bucket counts, prefix sums — kept
    /// as the oracle for both.
    fn from_raw(
        scheme: MinimizerScheme,
        bucket_bits: u32,
        mut raw: Vec<(u64, GraphPos)>,
    ) -> GraphIndex {
        let bucket_count = 1usize << bucket_bits;
        let bucket_of = |hash: u64| -> usize { (hash % bucket_count as u64) as usize };
        raw.sort_by_key(|&(hash, pos)| (bucket_of(hash), hash, pos));
        let mut bucket_starts = vec![0u32; bucket_count + 1];
        let mut hashes: Vec<u64> = Vec::new();
        let mut starts: Vec<u32> = Vec::new();
        let mut locations: Vec<GraphPos> = Vec::with_capacity(raw.len());
        for (hash, pos) in raw {
            if hashes.last() != Some(&hash) {
                hashes.push(hash);
                starts.push(locations.len() as u32);
                bucket_starts[bucket_of(hash) + 1] += 1;
            }
            locations.push(pos);
        }
        starts.push(locations.len() as u32);
        for b in 1..=bucket_count {
            bucket_starts[b] += bucket_starts[b - 1];
        }
        GraphIndex {
            scheme,
            bucket_bits,
            bucket_starts,
            hashes,
            starts,
            locations,
        }
    }

    fn raw_seeds(graph: &GenomeGraph, scheme: &MinimizerScheme) -> Vec<(u64, GraphPos)> {
        let mut raw = Vec::new();
        for node in graph.node_ids() {
            for m in extract_minimizers_from(graph.seq(node), scheme) {
                raw.push((m.rank, GraphPos::new(node, m.pos)));
            }
        }
        raw
    }

    fn assert_same_levels(got: &GraphIndex, want: &GraphIndex, what: &str) {
        assert_eq!(got.bucket_starts, want.bucket_starts, "{what}: level 1");
        assert_eq!(got.hashes, want.hashes, "{what}: level 2 hashes");
        assert_eq!(got.starts, want.starts, "{what}: level 2 starts");
        assert_eq!(got.locations, want.locations, "{what}: level 3");
    }

    #[test]
    fn build_equals_the_comparison_sort_reference() {
        for seed in 0..6u64 {
            let reference = lcg_seq(1500 + 700 * seed as usize, 11 + seed);
            let step = 40 + 13 * seed;
            let variants = (0..reference.len() as u64 / step)
                .map(|i| match (i + seed) % 3 {
                    0 => Variant::snp(
                        i * step + 5,
                        reference[(i * step + 5) as usize].complement(),
                    ),
                    1 => Variant::insertion(i * step + 5, lcg_seq(1 + (i % 30) as usize, i)),
                    _ => Variant::deletion(i * step + 5, 1 + i % 4),
                })
                .collect();
            let graph = build_graph(&reference, variants).unwrap().graph;
            for scheme in [MinimizerScheme::new(5, 11), MinimizerScheme::new(3, 4)] {
                for bucket_bits in [1, 4, 16] {
                    let want = from_raw(scheme, bucket_bits, raw_seeds(&graph, &scheme));
                    let got = GraphIndex::build(&graph, scheme, bucket_bits);
                    let what = format!("seed {seed} {scheme:?} 2^{bucket_bits}");
                    assert_same_levels(&got, &want, &what);
                }
            }
        }
    }

    #[test]
    fn build_handles_an_empty_index_and_a_single_bucket() {
        // Every node shorter than k: nothing to place.
        let short = linear_graph(&lcg_seq(40, 2), 8).unwrap();
        let scheme = MinimizerScheme::new(5, 11);
        for bucket_bits in [1, 4, 16] {
            let empty = GraphIndex::build(&short, scheme, bucket_bits);
            assert_same_levels(&empty, &from_raw(scheme, bucket_bits, Vec::new()), "empty");
            assert_eq!(empty.total_locations(), 0);
            assert_eq!(empty.bucket_starts, vec![0; (1 << bucket_bits) + 1]);
            assert_eq!(empty.frequency(7), 0);
        }
        // A homopolymer under lexicographic order has the one hash 0: all
        // of its locations file under bucket 0 of however many buckets.
        let poly: DnaSeq = "A".repeat(300).parse().unwrap();
        let graph = linear_graph(&poly, 64).unwrap();
        let scheme = MinimizerScheme::lexicographic(4, 6);
        for bucket_bits in [1, 4, 16] {
            let got = GraphIndex::build(&graph, scheme, bucket_bits);
            let want = from_raw(scheme, bucket_bits, raw_seeds(&graph, &scheme));
            assert_same_levels(&got, &want, "one bucket");
            assert_eq!(got.distinct_minimizers(), 1);
            assert_eq!(got.bucket_starts[1..], vec![1; 1 << bucket_bits]);
            assert_eq!(got.frequency(0) as usize, got.total_locations());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "(bucket, hash, location) order")]
    fn from_sorted_checks_the_order_of_consecutive_pairs() {
        // Bucket order first: with four buckets hash 5 files before hash 2.
        let at = |offset| GraphPos::new(NodeId(0), offset);
        let seeds = [(5, at(0)), (2, at(1)), (6, at(2)), (6, at(1))];
        GraphIndex::from_sorted(MinimizerScheme::new(5, 11), 2, (4, 4), seeds.into_iter());
    }

    fn test_graph() -> GenomeGraph {
        let reference = lcg_seq(5000, 3);
        build_graph(
            &reference,
            (0..20)
                .map(|i| Variant::snp(i * 230 + 7, reference[(i * 230 + 7) as usize].complement()))
                .collect(),
        )
        .unwrap()
        .graph
    }

    #[test]
    fn every_extracted_minimizer_is_queryable() {
        let graph = test_graph();
        let scheme = MinimizerScheme::new(5, 11);
        let index = GraphIndex::build(&graph, scheme, 12);
        for node in graph.node_ids() {
            for m in extract_minimizers_from(graph.seq(node), &scheme) {
                let locs = index.lookup(&m);
                assert!(
                    locs.contains(&GraphPos::new(node, m.pos)),
                    "minimizer at {node}:{} missing",
                    m.pos
                );
                assert_eq!(index.frequency(m.rank) as usize, locs.len());
            }
        }
    }

    #[test]
    fn queries_return_exactly_linear_scan_results() {
        let graph = test_graph();
        let scheme = MinimizerScheme::new(5, 11);
        let index = GraphIndex::build(&graph, scheme, 8);
        // Brute-force collection of all (hash -> positions).
        let mut expected: HashMap<u64, Vec<GraphPos>> = HashMap::new();
        for node in graph.node_ids() {
            for m in extract_minimizers_from(graph.seq(node), &scheme) {
                expected
                    .entry(m.rank)
                    .or_default()
                    .push(GraphPos::new(node, m.pos));
            }
        }
        for (hash, mut positions) in expected {
            positions.sort();
            positions.dedup();
            let mut got = index.locations(hash).to_vec();
            got.sort();
            got.dedup();
            assert_eq!(got, positions, "hash {hash}");
        }
    }

    #[test]
    fn absent_minimizer_yields_empty() {
        let graph = linear_graph(&lcg_seq(300, 9), 64).unwrap();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(4, 13), 10);
        assert_eq!(index.frequency(u64::MAX / 3), 0);
        assert!(index.locations(u64::MAX / 3).is_empty());
    }

    #[test]
    fn footprint_formulas_match_paper() {
        let graph = test_graph();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 12);
        let fp = index.footprint();
        assert_eq!(fp.bucket_bytes, (1 << 12) * 4);
        assert_eq!(fp.minimizer_bytes, index.distinct_minimizers() as u64 * 12);
        assert_eq!(fp.location_bytes, index.total_locations() as u64 * 8);
        assert_eq!(
            fp.total_bytes(),
            fp.bucket_bytes + fp.minimizer_bytes + fp.location_bytes
        );
    }

    #[test]
    fn footprint_is_the_heap_of_the_level_arrays_but_the_sentinels() {
        let graph = test_graph();
        for bucket_bits in [4, 12] {
            let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), bucket_bits);
            let bytes = |len: usize, size: usize| (len * size) as u64;
            let levels = bytes(index.bucket_starts.capacity(), 4)
                + bytes(index.hashes.capacity(), 8)
                + bytes(index.starts.capacity(), 4)
                + bytes(index.locations.capacity(), std::mem::size_of::<GraphPos>());
            let sentinels = 2 * 4;
            assert_eq!(index.footprint().total_bytes() + sentinels, levels);
        }
    }

    #[test]
    fn figure7_tradeoff_direction() {
        // Fewer buckets -> smaller footprint but higher max bucket load.
        let graph = test_graph();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 16);
        let small = index.footprint_with_buckets(6);
        let large = index.footprint_with_buckets(16);
        assert!(small.total_bytes() < large.total_bytes());
        assert!(small.max_minimizers_per_bucket >= large.max_minimizers_per_bucket);
    }

    #[test]
    fn human_scale_footprint_extrapolation() {
        // Paper: 2^24 buckets + human-genome minimizer counts -> 9.8 GB.
        // With ~540 M distinct minimizers and ~740 M locations:
        let total = (1u64 << 24) * BUCKET_ENTRY_BYTES
            + 540_000_000 * MINIMIZER_ENTRY_BYTES
            + 400_000_000 * LOCATION_ENTRY_BYTES;
        let gb = total as f64 / 1e9;
        assert!((8.0..11.0).contains(&gb), "got {gb} GB");
    }

    #[test]
    fn shard_boundaries_cover_and_ascend() {
        for shards in [1usize, 2, 3, 4, 7] {
            let bounds = shard_boundaries(10_007, shards);
            assert_eq!(bounds.len(), shards + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), 10_007);
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        }
        // Human-scale totals at high shard counts used to overflow the
        // naive `total * s / shards` computation; the widths must still be
        // within one character of each other.
        for total in [3_100_000_000u64, u64::MAX / 2, u64::MAX] {
            for shards in [64usize, 1024, 4096] {
                let bounds = shard_boundaries(total, shards);
                assert_eq!(bounds.len(), shards + 1, "total {total} × {shards}");
                assert_eq!(bounds[0], 0);
                assert_eq!(*bounds.last().unwrap(), total);
                assert!(bounds.windows(2).all(|w| w[0] < w[1]));
                let widths: Vec<u64> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
                let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split: {min}..{max}");
            }
        }
        // More shards than characters is clamped rather than producing
        // duplicate boundaries (silently empty shards).
        for (total, shards) in [(5u64, 8usize), (1, 4), (0, 3)] {
            let bounds = shard_boundaries(total, shards);
            assert_eq!(bounds.len() as u64, total.max(1).min(shards as u64) + 1);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), total);
            if total > 0 {
                assert!(
                    bounds.windows(2).all(|w| w[0] < w[1]),
                    "no empty shard for total {total} × {shards}: {bounds:?}"
                );
            }
        }
    }

    #[test]
    fn split_by_ranges_partitions_every_location() {
        let graph = test_graph();
        let scheme = MinimizerScheme::new(5, 11);
        let index = GraphIndex::build(&graph, scheme, 10);
        for shard_count in [1usize, 2, 4] {
            let bounds = shard_boundaries(graph.total_chars(), shard_count);
            let shards = index.split_by_ranges(&graph, &bounds);
            assert_eq!(shards.len(), shard_count);
            let total: usize = shards.iter().map(GraphIndex::total_locations).sum();
            assert_eq!(total, index.total_locations());
            // Every shard location sits inside its coordinate range, and
            // per-minimizer shard frequencies sum to the global frequency.
            for (s, shard) in shards.iter().enumerate() {
                for m in 0..shard.hashes.len() {
                    for &loc in shard.locations_of(m) {
                        let linear = graph.linear_pos(loc).unwrap();
                        assert!(
                            bounds[s] <= linear && linear < bounds[s + 1].max(bounds[s] + 1),
                            "location {linear} escaped shard {s} {:?}",
                            (bounds[s], bounds[s + 1])
                        );
                    }
                }
            }
            for &hash in &index.hashes {
                let summed: u32 = shards.iter().map(|s| s.frequency(hash)).sum();
                assert_eq!(summed, index.frequency(hash), "hash {hash}");
                let mut merged: Vec<GraphPos> = shards
                    .iter()
                    .flat_map(|s| s.locations(hash).iter().copied())
                    .collect();
                merged.sort();
                let mut expected = index.locations(hash).to_vec();
                expected.sort();
                assert_eq!(merged, expected);
            }
        }
    }

    /// The partition as it was computed before the per-node owner: every
    /// location searched against the cuts, every shard re-sorted.
    fn split_reference(index: &GraphIndex, graph: &GenomeGraph, bounds: &[u64]) -> Vec<GraphIndex> {
        let shards = bounds.len() - 1;
        let mut raw: Vec<Vec<(u64, GraphPos)>> = vec![Vec::new(); shards];
        for (m, &hash) in index.hashes.iter().enumerate() {
            for &loc in index.locations_of(m) {
                let linear = graph.linear_pos(loc).unwrap();
                let shard = bounds[1..shards]
                    .partition_point(|&b| b <= linear)
                    .min(shards - 1);
                raw[shard].push((hash, loc));
            }
        }
        raw.into_iter()
            .map(|r| from_raw(index.scheme, index.bucket_bits, r))
            .collect()
    }

    #[test]
    fn split_and_extract_equal_the_resorting_reference_when_cuts_cross_nodes() {
        let graph = test_graph();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 10);
        let total = graph.total_chars();
        // A cut one past the start of a multi-character node lands
        // strictly inside it (asserted below); the doubled cut makes an
        // empty shard, the short list leaves a tail past the last cut.
        let inside = |n: u32| graph.char_start(NodeId(n)) + 1;
        let last = graph.node_count() as u32 - 1;
        for bounds in [
            vec![0, inside(0), inside(7), inside(last), total],
            vec![0, inside(3), inside(3), total],
            vec![0, total / 3, total / 2],
            shard_boundaries(total, 7),
        ] {
            assert!(bounds[1..bounds.len() - 1].iter().any(|&cut| graph
                .graph_pos(cut)
                .unwrap()
                .offset
                > 0));
            let want = split_reference(&index, &graph, &bounds);
            let split = index.split_by_ranges(&graph, &bounds);
            assert_eq!(split.len(), want.len());
            for (i, want) in want.iter().enumerate() {
                let alone = index.extract_shard(&graph, &bounds, i);
                for got in [&split[i], &alone] {
                    assert_eq!(
                        got.bucket_starts, want.bucket_starts,
                        "{bounds:?} shard {i}"
                    );
                    assert_eq!(got.hashes, want.hashes, "{bounds:?} shard {i}");
                    assert_eq!(got.starts, want.starts, "{bounds:?} shard {i}");
                    assert_eq!(got.locations, want.locations, "{bounds:?} shard {i}");
                    // The counting walk sized both levels exactly.
                    assert_eq!(got.hashes.capacity(), got.hashes.len());
                    assert_eq!(got.starts.capacity(), got.starts.len());
                    assert_eq!(got.locations.capacity(), got.locations.len());
                }
            }
        }
    }

    #[test]
    fn multiple_occurrences_grouped_and_sorted() {
        // A repeated segment guarantees repeated minimizers.
        let unit = lcg_seq(60, 4).to_string();
        let text: DnaSeq = format!("{unit}{}{unit}", lcg_seq(40, 5)).parse().unwrap();
        let graph = linear_graph(&text, text.len()).unwrap(); // single node
        let scheme = MinimizerScheme::new(4, 9);
        let index = GraphIndex::build(&graph, scheme, 8);
        let repeated: Vec<u32> = index.frequencies().filter(|&f| f >= 2).collect();
        assert!(!repeated.is_empty(), "repeat should duplicate minimizers");
        for m in 0..index.hashes.len() {
            let locs = index.locations_of(m);
            assert!(locs.windows(2).all(|w| w[0] <= w[1]), "locations sorted");
        }
    }
}
