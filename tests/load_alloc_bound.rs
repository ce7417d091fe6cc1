//! The streaming loader's memory bound, pinned in bytes of live heap
//! rather than in resident pages, so it holds whatever the allocator does
//! with its thresholds: while [`read_index_file`] loads a simulated store
//! of over a megabase, the live heap peaks within 1.15× the heap the
//! returned store keeps (a loader holding the file in one buffer sits
//! near 2×), and no single allocation reaches the index section's length
//! — the decoded level arrays, each smaller than their section, are the
//! largest. The store itself keeps within 1.15× the file's bytes: the
//! graph's one character table at a byte per base, its edges as rows, a
//! 12-byte second-level entry per minimizer and the changelog's reference
//! kept packed (a graph of a sequence and two edge lists per node, 16-byte
//! entries and an unpacked reference kept about 1.4×).
//!
//! A four-shard [`read_index_file_sharded`] of the same store keeps the
//! same bound against the graph and shards it returns: it files every
//! location straight into its shard, where a whole load split in memory
//! holds the whole index beside its shards (about 1.7×).
//!
//! A counting global allocator measures both. It counts every allocation
//! in the process, so this binary holds this one test alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use segram_core::SegramConfig;
use segram_graph::build_graph;
use segram_index::{
    frequency_threshold, initial_changelog, read_index_file, read_index_file_sharded,
    read_section_table, write_index_file, GraphIndex, PersistedIndex,
};
use segram_sim::{generate_reference, simulate_variants, GenomeConfig, VariantConfig};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The largest single allocation since it was last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn allocated(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    LARGEST.fetch_max(size, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// bookkeeping on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // A moving realloc holds the old block and the new one at once:
            // count the new one before letting the old one go.
            allocated(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn loading_a_store_holds_little_beyond_the_store_it_returns() {
    let path = std::env::temp_dir().join(format!(
        "segram-load-alloc-bound-{}.sgi",
        std::process::id()
    ));
    {
        let reference = generate_reference(&GenomeConfig::human_like(1_200_000, 5));
        let variants = simulate_variants(&reference, &VariantConfig::human_like(5));
        let built = build_graph(&reference, variants.into_sorted()).expect("variants apply");
        let config = SegramConfig::short_reads();
        let index = GraphIndex::build(&built.graph, config.scheme, config.bucket_bits);
        let store = PersistedIndex {
            changelog: Some(initial_changelog(reference, &built, "build")),
            freq_threshold: frequency_threshold(&index, config.discard_frac),
            graph: built.graph,
            index,
            discard_frac: config.discard_frac,
            provenance: None,
        };
        write_index_file(&store, &path).expect("write store");
    }
    let table = read_section_table(&path).expect("own header");
    let index_len = table
        .sections
        .iter()
        .find(|s| s.name == "index")
        .expect("index section")
        .len as usize;

    let file_len = table.sections.iter().map(|s| s.offset + s.len).max();
    let file_len = file_len.expect("sections") as usize;

    let (loaded, load) = measured(|| read_index_file(&path));
    let loaded = loaded.expect("own store loads");
    assert!(loaded.graph.total_chars() >= 1_000_000);
    assert!(
        load.kept as f64 <= 1.15 * file_len as f64,
        "the loaded store keeps {} live bytes for a {file_len}-byte file",
        load.kept
    );
    load.check("load", index_len);
    drop(loaded);

    let (sharded, shards) = measured(|| read_index_file_sharded(&path, 4));
    let _ = std::fs::remove_file(&path);
    assert_eq!(sharded.expect("own store loads").shards.len(), 4);
    shards.check("4-shard load", index_len);
    eprintln!(
        "file {file_len} B, store {} B ({:.3}x), index section {index_len} B",
        load.kept,
        load.kept as f64 / file_len as f64,
    );
}

/// What a load did to the live heap.
struct Measured {
    /// The most the live heap rose above where it started.
    peak: usize,
    /// The largest single allocation.
    largest: usize,
    /// What the returned value keeps.
    kept: usize,
}

impl Measured {
    /// The load peaked within 1.15× what it keeps, and allocated nothing
    /// as long as the index section.
    fn check(&self, what: &str, index_len: usize) {
        let Self {
            peak,
            largest,
            kept,
        } = *self;
        assert!(
            peak as f64 <= 1.15 * kept as f64,
            "{what} peaked at {peak} live bytes for a store of {kept}"
        );
        assert!(
            largest < index_len,
            "a {largest}-byte allocation during the {what}; the index section is {index_len} bytes"
        );
        eprintln!(
            "{what}: keeps {kept} B, peak {peak} B ({:.3}x), largest allocation {largest} B",
            peak as f64 / kept as f64
        );
    }
}

/// Runs `load` with the counters reset, and what it did to the heap.
fn measured<T>(load: impl FnOnce() -> T) -> (T, Measured) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    LARGEST.store(0, Relaxed);
    let loaded = load();
    let measured = Measured {
        peak: PEAK.load(Relaxed) - before,
        largest: LARGEST.load(Relaxed),
        kept: LIVE.load(Relaxed) - before,
    };
    (loaded, measured)
}
