//! The MinSeed algorithm (Section 6): minimizer extraction from the query
//! read, frequency-filtered index lookup, and candidate-region calculation
//! (Figure 9).
//!
//! The minimizer → frequency filter → lookup loop is written once, as
//! [`visit_seed_hits`] over an index held in one or more parts. [`MinSeed`]
//! (whole and batched) runs it over its single index; `segram-core`'s
//! sharded seeding router runs it over its shards' slices.

use segram_graph::{DnaSeq, GenomeGraph, GraphError, GraphPos, LinearizedGraph};

use crate::index::GraphIndex;
use crate::minimizer::{extract_minimizers, Minimizer};

/// Configuration of MinSeed's filtering and region arithmetic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MinSeedConfig {
    /// Expected error rate `E` of the reads (enters the left/right
    /// extension of Figure 9).
    pub error_rate: f64,
    /// Discard minimizers whose occurrence frequency exceeds this
    /// threshold. The paper pre-computes it per chromosome so that the top
    /// 0.02 % most frequent minimizers are discarded; see
    /// [`frequency_threshold`].
    pub frequency_threshold: u32,
}

impl Default for MinSeedConfig {
    fn default() -> Self {
        Self {
            error_rate: 0.10,
            frequency_threshold: u32::MAX,
        }
    }
}

/// Computes the frequency cutoff that discards the `discard_frac` most
/// frequent distinct minimizers (the paper's 0.02 % rule, Section 6).
///
/// Returns `u32::MAX` for an empty index (nothing to discard).
pub fn frequency_threshold(index: &GraphIndex, discard_frac: f64) -> u32 {
    let mut freqs: Vec<u32> = index.frequencies().collect();
    if freqs.is_empty() {
        return u32::MAX;
    }
    let discard = ((freqs.len() as f64) * discard_frac).ceil() as usize;
    if discard == 0 {
        return u32::MAX;
    }
    // The frequency a sort would put at `idx`, without the sort.
    let idx = freqs.len().saturating_sub(discard + 1);
    (*freqs.select_nth_unstable(idx).1).max(1)
}

/// Figure 9's candidate-region arithmetic as a free function, shared by
/// [`MinSeed`] and the sharded seeding router. With the minimizer spanning
/// read offsets `[a, b]` and the seed spanning reference linear
/// coordinates `[c, d]`:
///
/// ```text
/// x = c - a * (1 + E)            (left extension)
/// y = d + (m - b - 1) * (1 + E)  (right extension)
/// ```
///
/// Returns `None` when the seed's linear coordinate cannot be resolved or
/// the clamped window collapses to nothing.
pub fn seed_region(
    graph: &GenomeGraph,
    error_rate: f64,
    read_len: usize,
    minimizer: &Minimizer,
    loc: GraphPos,
    k: usize,
) -> Option<SeedRegion> {
    let a = minimizer.pos as f64;
    let b = (minimizer.end(k) - 1) as f64;
    let m = read_len as f64;
    let c = graph.linear_pos(loc).ok()?;
    let d = c + k as u64 - 1;
    let left = (a * (1.0 + error_rate)).ceil() as u64;
    let right = ((m - b - 1.0) * (1.0 + error_rate)).ceil() as u64;
    let start = c.saturating_sub(left);
    let end = (d + right + 1).min(graph.total_chars());
    (end > start).then_some(SeedRegion {
        start,
        end,
        seed: loc,
        read_offset: minimizer.pos,
    })
}

/// The one seeding loop (steps 3–5 of Figure 4) over an index held in
/// one or more parts: for each minimizer, one lookup per part, the
/// frequency filter on the *summed* hit count — for parts that partition
/// an index ([`GraphIndex::split_by_ranges`]) that sum is the whole
/// index's frequency, so the decision does not depend on how the index is
/// split — then `visit(part, minimizer, locations)` for every part of a
/// surviving minimizer that holds it. Returns how many minimizers the
/// filter discarded.
///
/// [`MinSeed`] calls it over its single index; the sharded seeding router
/// in `segram-core` over its shards' slices.
pub fn visit_seed_hits<'p>(
    parts: impl Iterator<Item = &'p GraphIndex> + Clone,
    minimizers: &[Minimizer],
    frequency_threshold: u32,
    mut visit: impl FnMut(usize, &Minimizer, &'p [GraphPos]),
) -> usize {
    // The location slice answers both questions: who holds the minimizer,
    // and (by its length) how often it occurs there.
    let mut hits: Vec<&'p [GraphPos]> = Vec::new();
    let mut filtered = 0usize;
    for m in minimizers {
        hits.clear();
        hits.extend(parts.clone().map(|part| part.lookup(m)));
        let frequency: usize = hits.iter().map(|locs| locs.len()).sum();
        if frequency > frequency_threshold as usize {
            filtered += 1;
            continue;
        }
        for (part, locs) in hits.iter().enumerate() {
            if !locs.is_empty() {
                visit(part, m, locs);
            }
        }
    }
    filtered
}

/// A candidate mapping region: the subgraph window MinSeed hands BitAlign.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SeedRegion {
    /// Leftmost linear coordinate `x` of the candidate region (Figure 9).
    pub start: u64,
    /// Rightmost linear coordinate `y` (exclusive).
    pub end: u64,
    /// The seed's location in the graph.
    pub seed: GraphPos,
    /// Offset of the matching minimizer within the query read.
    pub read_offset: u32,
}

impl SeedRegion {
    /// Region width in characters.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Regions are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Per-read seeding statistics (drives the §11.4 MinSeed analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeedingStats {
    /// Minimizers extracted from the read.
    pub minimizers: usize,
    /// Minimizers discarded by the frequency filter.
    pub filtered_minimizers: usize,
    /// Seed locations fetched from the index.
    pub seed_locations: usize,
    /// Candidate regions produced (after dedup).
    pub regions: usize,
}

/// Output of [`MinSeed::seed`]: candidate regions plus statistics.
#[derive(Clone, Debug, Default)]
pub struct SeedingResult {
    /// Candidate regions, sorted by start coordinate.
    pub regions: Vec<SeedRegion>,
    /// Statistics for this read.
    pub stats: SeedingStats,
}

/// The MinSeed front-end bound to one graph + index.
///
/// # Examples
///
/// ```
/// use segram_index::{frequency_threshold, GraphIndex, MinSeed, MinSeedConfig, MinimizerScheme};
/// use segram_graph::linear_graph;
///
/// let text: segram_graph::DnaSeq = "ACGTTGCAGTCATGCAACGGTTAC".repeat(30).parse()?;
/// let graph = linear_graph(&text, 64)?;
/// let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 12);
/// let minseed = MinSeed::new(&graph, &index, MinSeedConfig {
///     error_rate: 0.0,
///     frequency_threshold: frequency_threshold(&index, 0.0002),
/// });
/// let read = text.slice(100, 180);
/// let result = minseed.seed(&read);
/// assert!(result.regions.iter().any(|r| r.start <= 100 && r.end >= 180));
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MinSeed<'a> {
    graph: &'a GenomeGraph,
    index: &'a GraphIndex,
    config: MinSeedConfig,
}

impl<'a> MinSeed<'a> {
    /// Binds MinSeed to a graph and its index.
    pub fn new(graph: &'a GenomeGraph, index: &'a GraphIndex, config: MinSeedConfig) -> Self {
        Self {
            graph,
            index,
            config,
        }
    }

    /// The bound configuration.
    pub fn config(&self) -> MinSeedConfig {
        self.config
    }

    /// Runs the complete seeding step for one read: extract minimizers,
    /// filter by frequency, fetch locations, compute candidate regions
    /// (steps 2–6 of Figure 4) — [`Self::seed_in_batches`] with the whole
    /// read as one batch.
    pub fn seed(&self, read: &DnaSeq) -> SeedingResult {
        self.seed_in_batches(read, usize::MAX).0
    }

    /// Batched seeding (Section 8.3: "If the minimizers do not fit in the
    /// minimizer scratchpad, we can perform a batching approach, where ...
    /// a batch (i.e., a subset) of minimizers is found, stored, and used,
    /// and then the next batch will be generated out of the read").
    ///
    /// Produces exactly the same result as [`Self::seed`] while touching at
    /// most `batch_size` minimizers at a time; also returns the number of
    /// batches the hardware would execute.
    ///
    /// # Panics
    ///
    /// Panics when `batch_size` is 0.
    pub fn seed_in_batches(&self, read: &DnaSeq, batch_size: usize) -> (SeedingResult, usize) {
        assert!(batch_size > 0, "batch size must be positive");
        let scheme = self.index.scheme();
        let minimizers = extract_minimizers(read, scheme);
        let mut stats = SeedingStats {
            minimizers: minimizers.len(),
            ..SeedingStats::default()
        };
        let mut regions: Vec<SeedRegion> = Vec::new();
        let mut batches = 0usize;
        for batch in minimizers.chunks(batch_size) {
            batches += 1;
            let filtered = visit_seed_hits(
                std::iter::once(self.index),
                batch,
                self.config.frequency_threshold,
                |_, m, locs| {
                    stats.seed_locations += locs.len();
                    regions.extend(locs.iter().filter_map(|&loc| {
                        let error_rate = self.config.error_rate;
                        seed_region(self.graph, error_rate, read.len(), m, loc, scheme.k)
                    }));
                },
            );
            stats.filtered_minimizers += filtered;
        }
        regions.sort_by_key(|r| (r.start, r.end, r.seed));
        regions.dedup_by_key(|r| (r.start, r.end));
        stats.regions = regions.len();
        (SeedingResult { regions, stats }, batches.max(1))
    }

    /// Extracts the linearized subgraph of a candidate region (step 7 of
    /// Figure 4 — the fetch into BitAlign's input scratchpad).
    ///
    /// # Errors
    ///
    /// Propagates window-extraction errors.
    pub fn extract_region(&self, region: &SeedRegion) -> Result<LinearizedGraph, GraphError> {
        LinearizedGraph::extract(self.graph, region.start, region.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::MinimizerScheme;
    use segram_graph::{linear_graph, Base};

    fn lcg_seq(len: usize, seed: u64) -> DnaSeq {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                Base::from_code_masked((state >> 33) as u8)
            })
            .collect()
    }

    fn setup(len: usize) -> (GenomeGraph, GraphIndex) {
        let text = lcg_seq(len, 11);
        let graph = linear_graph(&text, 64).unwrap();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 12);
        (graph, index)
    }

    use segram_graph::GenomeGraph;

    #[test]
    fn perfect_read_region_covers_true_location() {
        let (graph, index) = setup(4000);
        let minseed = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.0,
                frequency_threshold: u32::MAX,
            },
        );
        // A read copied from linear position 1000..1120.
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let read: DnaSeq = (1000..1120).map(|i| lin.base(i)).collect();
        let result = minseed.seed(&read);
        assert!(result.stats.minimizers > 0);
        assert!(
            result
                .regions
                .iter()
                .any(|r| r.start <= 1000 && r.end >= 1120),
            "no region covers the true location: {:?}",
            result.regions
        );
    }

    #[test]
    fn error_rate_widens_regions() {
        let (graph, index) = setup(4000);
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let read: DnaSeq = (2000..2100).map(|i| lin.base(i)).collect();
        let narrow = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.0,
                frequency_threshold: u32::MAX,
            },
        )
        .seed(&read);
        let wide = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.15,
                frequency_threshold: u32::MAX,
            },
        )
        .seed(&read);
        let narrow_max = narrow.regions.iter().map(|r| r.len()).max().unwrap();
        let wide_max = wide.regions.iter().map(|r| r.len()).max().unwrap();
        assert!(wide_max > narrow_max);
    }

    #[test]
    fn frequency_filter_reduces_seeds() {
        // Build a graph with a heavy repeat so some minimizers are frequent.
        let unit = lcg_seq(80, 21).to_string();
        let text: DnaSeq = format!(
            "{}{}{}{}{}",
            unit,
            lcg_seq(500, 22),
            unit,
            lcg_seq(500, 23),
            unit
        )
        .parse()
        .unwrap();
        let graph = linear_graph(&text, 64).unwrap();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(4, 9), 10);
        let read: DnaSeq = format!("{}{}", unit, &lcg_seq(500, 22).to_string()[..40])
            .parse()
            .unwrap();
        let unfiltered = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.0,
                frequency_threshold: u32::MAX,
            },
        )
        .seed(&read);
        let filtered = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.0,
                frequency_threshold: 2,
            },
        )
        .seed(&read);
        assert!(filtered.stats.filtered_minimizers > 0);
        assert!(filtered.stats.seed_locations < unfiltered.stats.seed_locations);
    }

    #[test]
    fn threshold_quantile_behaviour() {
        let (_, index) = setup(6000);
        // Discarding nothing -> MAX threshold.
        assert_eq!(frequency_threshold(&index, 0.0), u32::MAX);
        // Discarding everything -> minimal threshold.
        let all = frequency_threshold(&index, 1.0);
        assert!(all <= index.frequencies().max().unwrap());
        // The paper's 0.02% keeps nearly everything on a small index.
        let paper = frequency_threshold(&index, 0.0002);
        let kept = index.frequencies().filter(|&f| f <= paper).count();
        assert!(kept as f64 / index.distinct_minimizers() as f64 > 0.99);
    }

    #[test]
    fn figure9_arithmetic() {
        // Hand-checked example: read m=100, minimizer at read [20, 30]
        // (k=11 => a=20, b=30), seed at linear c=500 (d=510), E=0.1:
        // x = 500 - ceil(20*1.1) = 500 - 22 = 478
        // y = 510 + ceil((100-30-1)*1.1) = 510 + ceil(75.9) = 586 (incl.)
        let (graph, _) = setup(4000);
        let m = Minimizer {
            rank: 0,
            packed: 0,
            pos: 20,
        };
        let loc = graph.graph_pos(500).unwrap();
        let region = seed_region(&graph, 0.1, 100, &m, loc, 11).unwrap();
        assert_eq!(region.start, 478);
        assert_eq!(region.end, 587); // exclusive end = y + 1
    }

    #[test]
    fn batched_seeding_equals_unbatched() {
        let (graph, index) = setup(4000);
        let minseed = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.05,
                frequency_threshold: u32::MAX,
            },
        );
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let read: DnaSeq = (500..900).map(|i| lin.base(i)).collect();
        let whole = minseed.seed(&read);
        for batch_size in [1usize, 3, 7, 1000, usize::MAX] {
            let (batched, batches) = minseed.seed_in_batches(&read, batch_size);
            assert_eq!(batched.regions, whole.regions, "batch size {batch_size}");
            assert_eq!(batched.stats, whole.stats, "batch size {batch_size}");
            let expected = whole.stats.minimizers.div_ceil(batch_size).max(1);
            assert_eq!(batches, expected, "batch size {batch_size}");
        }
    }

    #[test]
    fn the_kernel_over_a_split_index_equals_minseed_over_the_whole() {
        // A repeat-heavy text and a low threshold, so the frequency filter
        // fires and has to decide on the frequency summed over the parts.
        let unit = lcg_seq(90, 31).to_string();
        let text: DnaSeq = format!(
            "{unit}{}{unit}{}{unit}{}",
            lcg_seq(700, 32),
            lcg_seq(700, 33),
            lcg_seq(700, 34)
        )
        .parse()
        .unwrap();
        let graph = linear_graph(&text, 64).unwrap();
        let index = GraphIndex::build(&graph, MinimizerScheme::new(4, 9), 10);
        let config = MinSeedConfig {
            error_rate: 0.05,
            frequency_threshold: 2,
        };
        let minseed = MinSeed::new(&graph, &index, config);
        let reads = [
            text.slice(0, 200),
            text.slice(750, 900),
            text.slice(1500, 1700),
        ];
        let scheme = *index.scheme();
        for shards in 1..=4usize {
            let boundaries = crate::shard_boundaries(graph.total_chars(), shards);
            let parts = index.split_by_ranges(&graph, &boundaries);
            assert_eq!(parts.len(), shards);
            for read in &reads {
                let whole = minseed.seed(read);
                assert!(whole.stats.filtered_minimizers > 0 && whole.stats.seed_locations > 0);
                let minimizers = extract_minimizers(read, &scheme);
                let mut stats = SeedingStats {
                    minimizers: minimizers.len(),
                    ..SeedingStats::default()
                };
                let mut regions = Vec::new();
                stats.filtered_minimizers = visit_seed_hits(
                    parts.iter(),
                    &minimizers,
                    config.frequency_threshold,
                    |part, m, locs| {
                        assert!(part < shards && !locs.is_empty());
                        stats.seed_locations += locs.len();
                        regions.extend(locs.iter().filter_map(|&loc| {
                            seed_region(&graph, config.error_rate, read.len(), m, loc, scheme.k)
                        }));
                    },
                );
                regions.sort_by_key(|r| (r.start, r.end, r.seed));
                regions.dedup_by_key(|r| (r.start, r.end));
                stats.regions = regions.len();
                assert_eq!(regions, whole.regions, "{shards} parts");
                assert_eq!(stats, whole.stats, "{shards} parts");
                for batch_size in [1usize, 3, usize::MAX] {
                    let (batched, _) = minseed.seed_in_batches(read, batch_size);
                    assert_eq!(batched.regions, whole.regions, "batch size {batch_size}");
                    assert_eq!(batched.stats, whole.stats, "batch size {batch_size}");
                }
            }
        }
    }

    #[test]
    fn regions_clamped_to_graph() {
        let (graph, index) = setup(500);
        let minseed = MinSeed::new(
            &graph,
            &index,
            MinSeedConfig {
                error_rate: 0.5,
                frequency_threshold: u32::MAX,
            },
        );
        let lin = LinearizedGraph::extract(&graph, 0, graph.total_chars()).unwrap();
        let read: DnaSeq = (0..200).map(|i| lin.base(i)).collect();
        let result = minseed.seed(&read);
        for r in &result.regions {
            assert!(r.end <= graph.total_chars());
            assert!(r.start < r.end);
            assert!(minseed.extract_region(r).is_ok());
        }
    }
}
