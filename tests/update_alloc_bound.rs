//! The streamed update's memory bound, pinned in bytes of live heap rather
//! than in resident pages: while [`update_index_file`] evolves a simulated
//! store of over a megabase by a delta of every 50th of its variants, the
//! live heap peaks within 1.6× the heap of the child store it returns.
//! The parent's index is never held: the update decodes the parent's
//! other sections, replays its changelog, and walks the parent's index
//! section off the file into the child's. An update of a loaded parent
//! holds the parent's index beside the child's and its graph through the
//! replay (about 2.3×).
//!
//! A counting global allocator measures it. It counts every allocation in
//! the process, so this binary holds this one test alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use segram_core::SegramConfig;
use segram_graph::{build_graph, VariantSet};
use segram_index::{
    encode_index, frequency_threshold, initial_changelog, read_index_file, update_index_file,
    update_store, write_index_file, GraphIndex, PersistedIndex,
};
use segram_sim::{generate_reference, simulate_variants, GenomeConfig, VariantConfig};

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn allocated(size: usize) {
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
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
fn updating_a_store_from_its_file_holds_little_beyond_the_child_it_returns() {
    let path = std::env::temp_dir().join(format!(
        "segram-update-alloc-bound-{}.sgi",
        std::process::id()
    ));
    let delta = {
        let reference = generate_reference(&GenomeConfig::human_like(1_200_000, 5));
        let variants = simulate_variants(&reference, &VariantConfig::human_like(5)).into_sorted();
        // Every 50th variant is the delta, the rest the parent's.
        let (mut base, mut delta) = (VariantSet::new(), VariantSet::new());
        for (i, variant) in variants.into_iter().enumerate() {
            if i % 50 == 49 {
                delta.push(variant);
            } else {
                base.push(variant);
            }
        }
        let built = build_graph(&reference, base).expect("variants apply");
        let config = SegramConfig::short_reads();
        let index = GraphIndex::build(&built.graph, config.scheme, config.bucket_bits);
        let store = PersistedIndex {
            changelog: Some(initial_changelog(reference, &built, "base.vcf")),
            freq_threshold: frequency_threshold(&index, config.discard_frac),
            graph: built.graph,
            index,
            discard_frac: config.discard_frac,
            provenance: None,
        };
        write_index_file(&store, &path).expect("write store");
        delta
    };
    assert!(!delta.is_empty());

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let updated = update_index_file(&path, &delta, "delta.vcf").expect("own store updates");
    let peak = PEAK.load(Relaxed) - before;
    let kept = LIVE.load(Relaxed) - before;
    assert!(updated.persisted.graph.total_chars() >= 1_000_000);
    assert!(updated.stats.carried_locations > updated.stats.extracted_locations);
    assert!(
        peak as f64 <= 1.6 * kept as f64,
        "the update peaked at {peak} live bytes for a child of {kept}"
    );
    eprintln!(
        "update: child keeps {kept} B, peak {peak} B ({:.3}x)",
        peak as f64 / kept as f64
    );

    // The child is the in-memory update's of the loaded parent.
    let parent = read_index_file(&path).expect("own store loads");
    let _ = std::fs::remove_file(&path);
    let in_memory = update_store(parent, &delta, "delta.vcf").expect("loaded store updates");
    assert_eq!(
        encode_index(&updated.persisted),
        encode_index(&in_memory.persisted)
    );
    assert_eq!(updated.stats, in_memory.stats);
}
