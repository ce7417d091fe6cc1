//! Criterion benchmarks for the incremental index maintenance path: what
//! `segram index update` buys over rebuilding from scratch when a small
//! VCF delta lands on a large reference, and what the dirty-shard hot
//! swap buys over re-sharding the whole store.

use segram_core::{SegramConfig, ShardedIndex};
use segram_graph::{build_graph, DnaSeq, Variant, VariantSet};
use segram_index::{
    frequency_threshold, initial_changelog, update_index_file, update_store, write_index_file,
    GraphIndex, PersistedIndex,
};
use segram_sim::{generate_reference, simulate_variants, GenomeConfig, VariantConfig};
use segram_testkit::bench::{black_box, criterion_group, criterion_main, Criterion};

const REF_LEN: usize = 200_000;
const SHARDS: usize = 8;

fn store_from(reference: &DnaSeq, variants: VariantSet, source: &str) -> PersistedIndex {
    let config = SegramConfig::short_reads();
    let built = build_graph(reference, variants).expect("variants apply");
    let changelog = initial_changelog(reference.clone(), &built, source);
    let index = GraphIndex::build(&built.graph, config.scheme, config.bucket_bits);
    let freq_threshold = frequency_threshold(&index, config.discard_frac);
    PersistedIndex {
        graph: built.graph,
        index,
        discard_frac: config.discard_frac,
        freq_threshold,
        changelog: Some(changelog),
        provenance: None,
    }
}

/// An epoch-0 store over a human-like 200 kb reference with simulated
/// variant density, plus a delta confined to the last ~5 % of the
/// coordinate space (indels only, so no alt can collide with the
/// generated reference base).
fn setup() -> (DnaSeq, PersistedIndex, VariantSet) {
    let reference = generate_reference(&GenomeConfig::human_like(REF_LEN, 211));
    let base = simulate_variants(&reference, &VariantConfig::human_like(211 ^ 0xabcd));
    let v1 = store_from(&reference, base, "base.vcf");
    let delta: VariantSet = vec![
        Variant::insertion(190_500, "ACGT".parse().expect("valid bases")),
        Variant::deletion(191_200, 5),
        Variant::insertion(195_000, "TTCA".parse().expect("valid bases")),
        Variant::deletion(199_000, 3),
    ]
    .into_iter()
    .collect();
    (reference, v1, delta)
}

/// The headline trade of the versioned store: an update replays the
/// graph delta and re-extracts minimizers only inside the touched
/// coordinate ranges, where the scratch path re-runs graph construction
/// and full index extraction over all 200 kb.
fn bench_update_vs_scratch(c: &mut Criterion) {
    let (reference, v1, delta) = setup();
    let combined: VariantSet = v1
        .changelog
        .as_ref()
        .expect("versioned")
        .applied
        .iter()
        .chain(delta.iter())
        .cloned()
        .collect();
    let config = SegramConfig::short_reads();

    let mut group = c.benchmark_group("index_update_200kb");
    group.sample_size(10);
    group.bench_function("scratch_rebuild", |b| {
        b.iter(|| {
            let built =
                build_graph(black_box(&reference), combined.clone()).expect("variants apply");
            let index = GraphIndex::build(&built.graph, config.scheme, config.bucket_bits);
            black_box(index.footprint().total_bytes())
        })
    });
    // The in-memory update consumes its parent, so each sample pays a
    // clone of it; the file update streams the parent's index section off
    // disk into the merge, the path `segram index update` takes.
    group.bench_function("update_store", |b| {
        b.iter(|| {
            let out =
                update_store(black_box(v1.clone()), &delta, "delta.vcf").expect("delta applies");
            black_box(out.persisted.index.footprint().total_bytes())
        })
    });
    let parent = std::env::temp_dir().join(format!(
        "segram-bench-index-update-{}.sgi",
        std::process::id()
    ));
    write_index_file(&v1, &parent).expect("write the parent store");
    group.bench_function("update_index_file", |b| {
        b.iter(|| {
            let out =
                update_index_file(black_box(&parent), &delta, "delta.vcf").expect("delta applies");
            black_box(out.persisted.index.footprint().total_bytes())
        })
    });
    group.finish();
    let _ = std::fs::remove_file(&parent);

    let out = update_store(v1, &delta, "delta.vcf").expect("delta applies");
    println!(
        "  info: delta re-extracted {} of {} chars across {} fresh nodes \
         ({} locations carried, {} extracted)",
        out.stats.extracted_chars,
        out.persisted.graph.total_chars(),
        out.stats.fresh_nodes,
        out.stats.carried_locations,
        out.stats.extracted_locations
    );
}

/// The serve-side half: swapping only the shards whose coordinate ranges
/// the delta touched vs. re-sharding the whole new store.
fn bench_shard_swap(c: &mut Criterion) {
    let (_, v1, delta) = setup();
    let v2 = update_store(v1.clone(), &delta, "delta.vcf")
        .expect("delta applies")
        .persisted;
    let mut config = SegramConfig::short_reads();
    config.scheme = *v2.index.scheme();
    config.bucket_bits = v2.index.bucket_bits();
    config.discard_frac = v2.discard_frac;
    let base = ShardedIndex::from_persisted(v1, config, SHARDS);

    let mut group = c.benchmark_group("shard_swap_200kb");
    group.sample_size(10);
    // Both arms consume a copy of the child store, so both pay its clone.
    group.bench_function("reshard_scratch", |b| {
        b.iter(|| {
            let sharded = ShardedIndex::from_persisted(v2.clone(), config, SHARDS);
            black_box(sharded.shards().len())
        })
    });
    group.bench_function("apply_delta", |b| {
        b.iter(|| {
            let (swapped, report) = base
                .apply_delta(black_box(v2.clone()))
                .expect("parent matches");
            black_box((swapped.shards().len(), report.dirty))
        })
    });
    group.finish();

    let (_, report) = base.apply_delta(v2).expect("parent matches");
    println!(
        "  info: delta swap rebuilt {} of {} shards ({} kept clean)",
        report.dirty,
        SHARDS,
        report.clean()
    );
}

criterion_group!(benches, bench_update_vs_scratch, bench_shard_swap);
criterion_main!(benches);
