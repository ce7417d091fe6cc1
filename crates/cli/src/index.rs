//! Everything that builds or reads a graph and its index: `segram
//! construct`, the `segram index` footprint report, and the persistent
//! `.sgi` store's `index build` / `update` / `inspect`. The store's byte
//! layout lives in `segram_index::persist` and nowhere else — `inspect`
//! prints the section table that module hands out. [`load_backend`] is
//! the store-to-mapper path `segram map --index` and the `segram serve`
//! boot share, loading the index already split into its shards;
//! [`load_store`] + [`backend_from_store`] are `RELOAD`'s, whose delta
//! route reads the child's whole index.

use std::fmt::Write as _;
use std::fs;

use segram_core::{SegramConfig, ShardedIndex};
use segram_graph::{build_graph, gfa, ConstructedGraph, DnaSeq, VariantSet};
use segram_index::{
    frequency_threshold, initial_changelog, read_index_file, read_index_file_sharded,
    read_section_table, update_index_file, write_index_file, GraphIndex, IndexProvenance,
    MinimizerScheme, PersistedIndex, StoreChangelog, INDEX_FORMAT_VERSION,
};
use segram_io::{read_fasta, read_vcf, VcfOptions};

use crate::args::Options;
use crate::commands::{ambiguity, load_graph, preset, read_file, write_file};
use crate::error::CliError;

const CONSTRUCT_HELP: &str = "\
segram construct — build a genome graph from a reference and variants
(the paper's `vg construct` + `vg ids -s` pre-processing, Section 5)

OPTIONS:
    --reference <ref.fa>   FASTA reference (required)
    --vcf <vars.vcf>       VCF with variants (optional: none = linear graph)
    --output <graph.gfa>   output GFA path (required)
    --chrom <name>         FASTA record / VCF CHROM to use (default: first)
    --lenient              substitute ambiguous bases and skip unsupported
                           VCF records instead of failing
";

/// Shared FASTA(+VCF) → graph front half of `construct` and
/// `index build`: picks the reference record (`--chrom` or first),
/// collects its variants, and builds the graph. Returns the record id,
/// the reference sequence, the constructed graph, the variant count, and
/// the VCF-skipped count.
fn build_reference_graph(
    options: &Options,
) -> Result<(String, DnaSeq, ConstructedGraph, usize, usize), CliError> {
    let ref_path = options.require("reference")?;
    let records = read_fasta(&read_file(ref_path)?, ambiguity(options))
        .map_err(|e| CliError::format(ref_path, e))?;
    let mut records = records.into_iter();
    let record = match options.get("chrom") {
        Some(name) => records
            .find(|r| r.id == name)
            .ok_or_else(|| CliError::usage(format!("{ref_path}: no record named {name:?}")))?,
        None => records
            .next()
            .ok_or_else(|| CliError::usage(format!("{ref_path}: empty FASTA")))?,
    };

    let (variants, skipped) = match options.get("vcf") {
        None => (VariantSet::new(), 0),
        Some(vcf_path) => {
            let vcf_options = if options.switch("lenient") {
                VcfOptions::lenient()
            } else {
                VcfOptions::default()
            };
            let mut doc = read_vcf(&read_file(vcf_path)?, vcf_options)
                .map_err(|e| CliError::format(vcf_path, e))?;
            let skipped = doc.skipped;
            // A VCF whose one CHROM is merely spelled differently ("1" for
            // "chr1") still names the default record; rows of any other
            // CHROM never stand in for the chosen one.
            let lone = doc.per_chrom.len() == 1 && options.get("chrom").is_none();
            let set = match doc.per_chrom.remove(&record.id) {
                Some(set) => set,
                None if lone || doc.per_chrom.is_empty() => doc
                    .per_chrom
                    .pop_first()
                    .map(|(_, set)| set)
                    .unwrap_or_default(),
                None => {
                    let chroms: Vec<&str> = doc.per_chrom.keys().map(String::as_str).collect();
                    return Err(CliError::usage(format!(
                        "{vcf_path}: no CHROM named {:?} (the chosen record of {ref_path}); \
                         the VCF holds {}",
                        record.id,
                        chroms.join(", ")
                    )));
                }
            };
            (set, skipped)
        }
    };

    let variant_count = variants.len();
    let built = build_graph(&record.seq, variants.into_sorted())?;
    Ok((record.id, record.seq, built, variant_count, skipped))
}

/// `segram construct`.
pub(crate) fn construct(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(CONSTRUCT_HELP.to_owned());
    }
    options.reject_unknown(&["reference", "vcf", "output", "chrom", "lenient"])?;
    let out_path = options.require("output")?;
    let (record_id, _, built, variant_count, skipped) = build_reference_graph(options)?;
    write_file(out_path, gfa::to_gfa(&built.graph))?;

    let stats = built.graph.stats();
    let mut report = String::new();
    let _ = writeln!(report, "constructed {out_path} from {record_id}:");
    let _ = writeln!(
        report,
        "  {} nodes, {} edges, {} characters",
        stats.node_count, stats.edge_count, stats.total_chars
    );
    let _ = writeln!(
        report,
        "  {} variants embedded ({} dropped as overlapping, {} skipped in VCF)",
        variant_count - built.dropped_variants,
        built.dropped_variants,
        skipped
    );
    Ok(report)
}

const INDEX_HELP: &str = "\
segram index — build the minimizer hash-table index and report the
Figure 5/6 memory footprints

USAGE:
    segram index [OPTIONS]          footprint report (below)
    segram index build [OPTIONS]    persist graph + index to a .sgi file
                                    (`segram index build --help`)
    segram index update [OPTIONS]   apply a VCF delta to a .sgi store
                                    (`segram index update --help`)
    segram index inspect [OPTIONS]  dump a store's sections, provenance,
                                    and epoch history
                                    (`segram index inspect --help`)

OPTIONS:
    --graph <graph.gfa>   input graph (required)
    --w <int>             minimizer window (default 10)
    --k <int>             k-mer length (default 15)
    --buckets <int>       log2 of the first-level bucket count (default 16)
";

/// `segram index`.
pub(crate) fn index(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(INDEX_HELP.to_owned());
    }
    options.reject_unknown(&["graph", "w", "k", "buckets"])?;
    let graph = load_graph(options.require("graph")?)?;
    let w: usize = options.number("w", 10)?;
    let k: usize = options.number("k", 15)?;
    let bucket_bits: u32 = options.number("buckets", 16)?;
    if !(1..=32).contains(&bucket_bits) {
        return Err(CliError::usage("--buckets must be within 1..=32"));
    }
    if !(1..=31).contains(&k) || w == 0 {
        return Err(CliError::usage("--k must be 1..=31 and --w >= 1"));
    }

    let index = GraphIndex::build(&graph, MinimizerScheme::new(w, k), bucket_bits);
    let stats = graph.stats();
    let graph_bytes =
        stats.node_count as u64 * 32 + stats.total_chars.div_ceil(4) + stats.edge_count as u64 * 4;
    let footprint = index.footprint();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "graph: {} nodes, {} edges, {} chars -> {} bytes (32 B/node + 2 bit/char + 4 B/edge)",
        stats.node_count, stats.edge_count, stats.total_chars, graph_bytes
    );
    let _ = writeln!(
        report,
        "index (<w,k> = <{w},{k}>, 2^{bucket_bits} buckets):"
    );
    let _ = writeln!(
        report,
        "  level 1 (buckets):    {:>12} bytes",
        footprint.bucket_bytes
    );
    let _ = writeln!(
        report,
        "  level 2 (minimizers): {:>12} bytes",
        footprint.minimizer_bytes
    );
    let _ = writeln!(
        report,
        "  level 3 (locations):  {:>12} bytes",
        footprint.location_bytes
    );
    let _ = writeln!(
        report,
        "  total:                {:>12} bytes (max {} minimizers in one bucket)",
        footprint.total_bytes(),
        footprint.max_minimizers_per_bucket
    );
    Ok(report)
}

const INDEX_BUILD_HELP: &str = "\
segram index build — construct the graph and its minimizer index once,
persist both to a versioned .sgi file (magic + section table + checksums;
written as format v2, format v1 stores still load)

`segram map --index ref.sgi` and `segram serve --index ref.sgi` load the
file instead of re-running construction and indexing; a load round-trips
byte-identically and a corrupt or truncated file fails with a named
error, never a panic.

OPTIONS:
    --reference <ref.fa>  FASTA reference (required)
    --vcf <vars.vcf>      VCF with variants (optional: none = linear graph)
    --output <ref.sgi>    output index path (required)
    --chrom <name>        FASTA record / VCF CHROM to use (default: first)
    --preset <short|long5|long10>
                          scheme/bucket/discard defaults (default short)
    --w <int>             minimizer window override
    --k <int>             k-mer length override
    --buckets <int>       log2 bucket-count override
    --discard <float>     most-frequent-minimizer discard fraction override
    --lenient             substitute ambiguous bases and skip unsupported
                          VCF records instead of failing
";

/// `segram index build`.
pub(crate) fn index_build(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(INDEX_BUILD_HELP.to_owned());
    }
    options.reject_unknown(&[
        "reference",
        "vcf",
        "output",
        "chrom",
        "preset",
        "w",
        "k",
        "buckets",
        "discard",
        "lenient",
    ])?;
    let out_path = options.require("output")?;
    let config = preset(options.get("preset").unwrap_or("short"))?;
    let w: usize = options.number("w", config.scheme.w)?;
    let k: usize = options.number("k", config.scheme.k)?;
    let bucket_bits: u32 = options.number("buckets", config.bucket_bits)?;
    let discard_frac: f64 = options.number("discard", config.discard_frac)?;
    if !(1..=32).contains(&bucket_bits) {
        return Err(CliError::usage("--buckets must be within 1..=32"));
    }
    if !(1..=31).contains(&k) || w == 0 {
        return Err(CliError::usage("--k must be 1..=31 and --w >= 1"));
    }
    if !(0.0..=1.0).contains(&discard_frac) {
        return Err(CliError::usage("--discard must be within 0.0..=1.0"));
    }

    let (record_id, reference, built, variant_count, _) = build_reference_graph(options)?;
    let index = GraphIndex::build(&built.graph, MinimizerScheme::new(w, k), bucket_bits);
    let freq_threshold = frequency_threshold(&index, discard_frac);
    let footprint = index.footprint();
    let distinct = index.distinct_minimizers();
    let source = options.get("vcf").unwrap_or("build").to_owned();
    let changelog = initial_changelog(reference, &built, source);
    let provenance = IndexProvenance {
        reference_path: options.require("reference")?.to_owned(),
        vcf_paths: options.get("vcf").map(str::to_owned).into_iter().collect(),
        preset: options.get("preset").unwrap_or("short").to_owned(),
        epoch: 0,
    };
    let persisted = PersistedIndex {
        graph: built.graph,
        index,
        discard_frac,
        freq_threshold,
        changelog: Some(changelog),
        provenance: Some(provenance),
    };
    let (bytes, identity) =
        write_index_file(&persisted, out_path).map_err(|e| CliError::index(out_path, e))?;

    let stats = persisted.graph.stats();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "wrote {out_path}: format v{INDEX_FORMAT_VERSION}, {bytes} bytes"
    );
    let _ = writeln!(
        report,
        "  graph: {} nodes, {} edges, {} characters from {record_id} \
         ({} variants embedded)",
        stats.node_count,
        stats.edge_count,
        stats.total_chars,
        variant_count - built.dropped_variants
    );
    let _ = writeln!(
        report,
        "  index: <w,k> = <{w},{k}>, 2^{bucket_bits} buckets, {distinct} distinct \
         minimizers ({} bytes in memory)",
        footprint.total_bytes()
    );
    let _ = writeln!(
        report,
        "  frequency threshold {freq_threshold} (discard fraction {discard_frac})"
    );
    let _ = writeln!(report, "  changelog: epoch 0, identity {identity:#018x}");
    Ok(report)
}

const INDEX_UPDATE_HELP: &str = "\
segram index update — apply a VCF delta to a persisted .sgi store

The store carries its own linear reference and embedded variant set (the
CHANGELOG section), so no FASTA is needed: the delta is applied against
the persisted state alone, minimizers are re-extracted only for the
coordinate ranges the delta touched, and the output is byte-identical to
a from-scratch `index build` over the combined VCFs. The store's epoch
advances by one and the history chain records what changed.

Stores written before the changelog existed fail with a named error and
must be rebuilt once with `index build`.

OPTIONS:
    --index <ref.sgi>     parent store (required)
    --vcf <delta.vcf>     VCF with the delta variants (required)
    --output <out.sgi>    output store path (required; the write is
                          atomic, so it may equal --index)
    --chrom <name>        VCF CHROM to use (default: first)
    --lenient             skip unsupported VCF records instead of failing
";

/// `segram index update`.
pub(crate) fn index_update(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(INDEX_UPDATE_HELP.to_owned());
    }
    options.reject_unknown(&["index", "vcf", "output", "chrom", "lenient"])?;
    let index_path = options.require("index")?;
    let vcf_path = options.require("vcf")?;
    let out_path = options.require("output")?;

    let vcf_options = if options.switch("lenient") {
        VcfOptions::lenient()
    } else {
        VcfOptions::default()
    };
    let doc =
        read_vcf(&read_file(vcf_path)?, vcf_options).map_err(|e| CliError::format(vcf_path, e))?;
    let skipped = doc.skipped;
    let delta = match options.get("chrom") {
        Some(name) => doc
            .chrom(name)
            .cloned()
            .ok_or_else(|| CliError::usage(format!("{vcf_path}: no CHROM named {name:?}")))?,
        None => doc.per_chrom.values().next().cloned().unwrap_or_default(),
    };
    let delta_count = delta.len();

    let outcome = update_index_file(index_path, &delta, vcf_path)
        .map_err(|e| CliError::index(index_path, e))?;
    let (bytes, identity) =
        write_index_file(&outcome.persisted, out_path).map_err(|e| CliError::index(out_path, e))?;

    let log = outcome
        .persisted
        .changelog
        .as_ref()
        .expect("update always writes a changelog");
    let total_chars = outcome.persisted.graph.total_chars();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "updated {index_path} -> {out_path}: epoch {}, {bytes} bytes",
        log.epoch
    );
    let _ = writeln!(
        report,
        "  delta: {} of {delta_count} variants embedded ({} dropped as conflicting, \
         {skipped} skipped in VCF)",
        outcome.log.added_variants, outcome.log.dropped_variants
    );
    let _ = writeln!(
        report,
        "  touched {} coordinate ranges: re-extracted {} of {total_chars} chars \
         across {} fresh nodes",
        outcome.log.touched.len(),
        outcome.stats.extracted_chars,
        outcome.stats.fresh_nodes
    );
    let _ = writeln!(
        report,
        "  index: {} locations carried, {} extracted, {} dropped",
        outcome.stats.carried_locations,
        outcome.stats.extracted_locations,
        outcome.stats.dropped_locations
    );
    let _ = writeln!(
        report,
        "  identity {identity:#018x} (parent {:#018x})",
        log.parent
    );
    Ok(report)
}

const INDEX_INSPECT_HELP: &str = "\
segram index inspect — dump a persisted store's layout and lineage

Prints the section table (id, size, checksum), the graph and index
summaries, the build provenance recorded in the META section, and the
full epoch history chain from the CHANGELOG section.

OPTIONS:
    --index <ref.sgi>     store to inspect (required)
";

/// `segram index inspect`.
pub(crate) fn index_inspect(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(INDEX_INSPECT_HELP.to_owned());
    }
    options.reject_unknown(&["index"])?;
    let path = options.require("index")?;
    // The header alone for the table, then the streaming load: the store
    // is never held as one buffer.
    let table = read_section_table(path).map_err(|e| CliError::index(path, e))?;
    let loaded = read_index_file(path).map_err(|e| CliError::index(path, e))?;
    let file_len = fs::metadata(path).map_err(|e| CliError::io(path, e))?.len();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{path}: format v{}, {file_len} bytes",
        table.version
    );
    for section in &table.sections {
        let _ = writeln!(
            report,
            "  section {} ({}): {} bytes at {}, {} {:#018x}",
            section.id,
            section.name,
            section.len,
            section.offset,
            table.checksum_name,
            section.checksum
        );
    }

    let stats = loaded.graph.stats();
    let _ = writeln!(
        report,
        "  graph: {} nodes, {} edges, {} characters",
        stats.node_count, stats.edge_count, stats.total_chars
    );
    let scheme = loaded.index.scheme();
    let _ = writeln!(
        report,
        "  index: <w,k> = <{},{}>, 2^{} buckets, {} distinct minimizers, \
         {} locations",
        scheme.w,
        scheme.k,
        loaded.index.bucket_bits(),
        loaded.index.distinct_minimizers(),
        loaded.index.total_locations()
    );
    let _ = writeln!(
        report,
        "  meta: frequency threshold {} (discard fraction {})",
        loaded.freq_threshold, loaded.discard_frac
    );
    match &loaded.provenance {
        Some(p) => {
            let _ = writeln!(
                report,
                "  provenance: reference {}, preset {}, epoch {}",
                p.reference_path, p.preset, p.epoch
            );
            if p.vcf_paths.is_empty() {
                let _ = writeln!(report, "    no VCFs applied (linear graph)");
            }
            for (i, vcf) in p.vcf_paths.iter().enumerate() {
                let _ = writeln!(report, "    vcf[{i}]: {vcf}");
            }
        }
        None => {
            let _ = writeln!(report, "  provenance: none recorded");
        }
    }
    match &loaded.changelog {
        Some(log) => {
            let _ = writeln!(
                report,
                "  changelog: epoch {}, identity {:#018x}, parent {:#018x}, \
                 {} variants embedded",
                log.epoch,
                log.identity,
                log.parent,
                log.applied.len()
            );
            for entry in &log.history {
                let _ = writeln!(
                    report,
                    "    epoch {}: {} — {} variants added, {} dropped, \
                     {} ranges touched (identity {:#018x})",
                    entry.epoch,
                    entry.source,
                    entry.added_variants,
                    entry.dropped_variants,
                    entry.touched.len(),
                    entry.identity
                );
            }
        }
        None => {
            let _ = writeln!(
                report,
                "  changelog: none (pre-versioning store; `index update` unavailable)"
            );
        }
    }
    Ok(report)
}

/// Loads a persistent `.sgi` store whole, mapping persistence errors into
/// the CLI error shape — what a RELOAD needs, since the delta route reads
/// the child's whole index. The second half is the store's label
/// ([`store_label`]).
pub(crate) fn load_store(path: &str) -> Result<(PersistedIndex, String), CliError> {
    let loaded = read_index_file(path).map_err(|e| CliError::index(path, e))?;
    let label = store_label(&loaded.provenance, &loaded.changelog);
    Ok((loaded, label))
}

/// A store's one-line provenance summary for reports (`map`'s `loaded
/// persistent index` line, `serve`'s `active index:` line and reload
/// logs): epoch plus build preset when the store records them.
fn store_label(provenance: &Option<IndexProvenance>, changelog: &Option<StoreChangelog>) -> String {
    match (provenance, changelog) {
        (Some(p), _) => format!("epoch {}, preset {}", p.epoch, p.preset),
        (None, Some(log)) => format!("epoch {}", log.epoch),
        (None, None) => "unversioned".to_owned(),
    }
}

/// Loads the store at `path` as the mapper `map --index` and `serve` boot
/// with: its index filed into `shards` coordinate ranges as it is read,
/// so the whole index is never held beside its shards. The scheme, bucket
/// count, and discard fraction recorded in the file override the preset's
/// (seeding reads the scheme from the index itself; overriding keeps
/// reports and derived knobs coherent with it). The mapper keeps the
/// store's changelog lineage wherever a later RELOAD can take the
/// dirty-shard delta route. The second half is the store's label.
pub(crate) fn load_backend(
    path: &str,
    config: SegramConfig,
    shards: usize,
) -> Result<(ShardedIndex, String), CliError> {
    let store = read_index_file_sharded(path, shards).map_err(|e| CliError::index(path, e))?;
    let label = store_label(&store.provenance, &store.changelog);
    let config = store_config(config, &store.shards[0], store.discard_frac);
    Ok((ShardedIndex::from_store(store, config), label))
}

/// [`load_backend`] for a store already loaded whole — a RELOAD's child
/// that the delta route declined, split in memory.
pub(crate) fn backend_from_store(
    loaded: PersistedIndex,
    config: SegramConfig,
    shards: usize,
) -> ShardedIndex {
    let config = store_config(config, &loaded.index, loaded.discard_frac);
    ShardedIndex::from_persisted(loaded, config, shards)
}

/// `config` with the scheme and bucket count of a store's `index` and the
/// discard fraction it records.
fn store_config(mut config: SegramConfig, index: &GraphIndex, discard_frac: f64) -> SegramConfig {
    config.scheme = *index.scheme();
    config.bucket_bits = index.bucket_bits();
    config.discard_frac = discard_frac;
    config
}
