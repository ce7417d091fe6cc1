//! The subcommands: `construct`, `index` (with its `build` subcommand),
//! `map`, `simulate`, `eval` (with its `compare` subcommand), plus the
//! daemon pair `serve` / `request` hosted in [`crate::serve`].
//!
//! Each command is a pure function from parsed [`Options`] to a
//! human-readable report string; file I/O happens at the edges so the
//! integration tests can drive commands exactly as the binary does.

use std::fmt::Write as _;
use std::fs;
use std::io::{BufReader, BufWriter, Cursor, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use segram_core::{
    gaf_record_for, run_backend_eval, sam_record_for, Backend, BackendEval, BackendKind,
    CancelToken, DecodedBlock, ElasticReport, ElasticScheduler, EngineOptions, EngineReport,
    EvalRead, MapEngine, ReadMapper, ReadOutcome, SegramConfig, SegramMapper, ShardedIndex,
    WorkQueue,
};
use segram_filter::FilterSpec;
use segram_graph::{build_graph, gfa, ConstructedGraph, DnaSeq, GenomeGraph, VariantSet};
use segram_index::{
    frequency_threshold, initial_changelog, read_index_file, update_store, write_index_file,
    GraphIndex, IndexProvenance, MinimizerScheme, PersistedIndex, INDEX_FORMAT_VERSION,
};
use segram_io::{
    bgzf_compress, looks_like_gzip, phred_from_error_rate, read_fasta, read_vcf, write_fasta,
    write_fastq, write_vcf, Ambiguity, BgzfBlock, BgzfBlocks, BgzfError, BgzfMode, BgzfWriter,
    FastaRecord, FastqFramer, FastqReader, FastqRecord, FastqSplice, GafWriter, RawFastqRecord,
    SamWriter, StreamError, VcfOptions, BGZF_MAX_PLAIN,
};
use segram_sim::{
    generate_reference, simulate_reads, simulate_variants, ErrorProfile, GenomeConfig, ReadConfig,
    VariantConfig,
};
use segram_testkit::Serialize;

use crate::args::Options;
use crate::error::CliError;

/// Top-level usage text.
pub const USAGE: &str = "\
segram — universal sequence-to-graph and sequence-to-sequence mapper
(Rust reproduction of SeGraM, ISCA 2022)

USAGE:
    segram <COMMAND> [OPTIONS]

COMMANDS:
    construct   Build a genome graph from a FASTA reference and a VCF
    index       Build the minimizer index for a graph and report footprints
                (`index build`: persist graph + index to a .sgi file)
    map         Map FASTQ reads to a graph, emitting SAM or GAF
    serve       Long-lived mapping daemon over a persistent .sgi index,
                multiplexing concurrent requests through one shared engine
    request     Line-protocol client for `segram serve`
    simulate    Generate a synthetic reference/VCF/graph/reads bundle
    bgzip       BGZF-compress a file with the in-tree DEFLATE compressor
                (`segram map` auto-detects BGZF-compressed FASTQ)
    eval        Evaluation harnesses (`eval compare`: same reads through
                several mapping backends, one comparison table)

Run `segram <COMMAND> --help` for per-command options.
";

fn read_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::io(path, e))
}

pub(crate) fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| CliError::io(path, e))?;
        }
    }
    fs::write(path, contents).map_err(|e| CliError::io(path, e))
}

fn ambiguity(options: &Options) -> Ambiguity {
    if options.switch("lenient") {
        Ambiguity::Substitute(segram_graph::Base::A)
    } else {
        Ambiguity::Reject
    }
}

fn load_graph(path: &str) -> Result<GenomeGraph, CliError> {
    let text = read_file(path)?;
    Ok(gfa::from_gfa(&text)?)
}

// ---------------------------------------------------------------------------
// construct
// ---------------------------------------------------------------------------

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
    let record = match options.get("chrom") {
        Some(name) => records
            .iter()
            .find(|r| r.id == name)
            .ok_or_else(|| CliError::usage(format!("{ref_path}: no record named {name:?}")))?,
        None => records
            .first()
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
            let doc = read_vcf(&read_file(vcf_path)?, vcf_options)
                .map_err(|e| CliError::format(vcf_path, e))?;
            let skipped = doc.skipped;
            let set = doc
                .chrom(&record.id)
                .cloned()
                .or_else(|| doc.per_chrom.values().next().cloned())
                .unwrap_or_default();
            (set, skipped)
        }
    };

    let variant_count = variants.len();
    let built = build_graph(&record.seq, variants.into_sorted())?;
    Ok((
        record.id.clone(),
        record.seq.clone(),
        built,
        variant_count,
        skipped,
    ))
}

/// `segram construct`.
pub fn construct(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(CONSTRUCT_HELP.to_owned());
    }
    options.reject_unknown(&["reference", "vcf", "output", "chrom", "lenient"])?;
    let out_path = options.require("output")?;
    let (record_id, _, built, variant_count, skipped) = build_reference_graph(options)?;
    write_file(out_path, &gfa::to_gfa(&built.graph))?;

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

// ---------------------------------------------------------------------------
// index
// ---------------------------------------------------------------------------

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
pub fn index(options: &Options) -> Result<String, CliError> {
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

// ---------------------------------------------------------------------------
// index build
// ---------------------------------------------------------------------------

const INDEX_BUILD_HELP: &str = "\
segram index build — construct the graph and its minimizer index once,
persist both to a versioned .sgi file (magic + section table + checksums)

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
pub fn index_build(options: &Options) -> Result<String, CliError> {
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
    let bytes = write_index_file(&persisted, out_path).map_err(|e| CliError::index(out_path, e))?;

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
    let _ = writeln!(
        report,
        "  changelog: epoch 0, identity {:#018x}",
        persisted.identity()
    );
    Ok(report)
}

// ---------------------------------------------------------------------------
// index update / index inspect
// ---------------------------------------------------------------------------

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
pub fn index_update(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(INDEX_UPDATE_HELP.to_owned());
    }
    options.reject_unknown(&["index", "vcf", "output", "chrom", "lenient"])?;
    let index_path = options.require("index")?;
    let vcf_path = options.require("vcf")?;
    let out_path = options.require("output")?;

    let parent = read_index_file(index_path).map_err(|e| CliError::index(index_path, e))?;
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

    let outcome =
        update_store(&parent, &delta, vcf_path).map_err(|e| CliError::index(index_path, e))?;
    let bytes =
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
        "  identity {:#018x} (parent {:#018x})",
        log.identity, log.parent
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
pub fn index_inspect(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(INDEX_INSPECT_HELP.to_owned());
    }
    options.reject_unknown(&["index"])?;
    let path = options.require("index")?;
    let bytes = fs::read(path).map_err(|e| CliError::io(path, e))?;
    let loaded = read_index_file(path).map_err(|e| CliError::index(path, e))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{path}: format v{INDEX_FORMAT_VERSION}, {} bytes",
        bytes.len()
    );
    // Section dump straight from the table (decode already verified it).
    let mut r = segram_io::ByteReader::new(&bytes);
    let corrupted = |_| CliError::usage(format!("{path}: header truncated"));
    r.take_bytes(8).map_err(corrupted)?;
    r.take_u32().map_err(corrupted)?;
    let section_count = r.take_u32().map_err(corrupted)?;
    for _ in 0..section_count {
        let id = r.take_u32().map_err(corrupted)?;
        let offset = r.take_u64().map_err(corrupted)?;
        let len = r.take_u64().map_err(corrupted)?;
        let checksum = r.take_u64().map_err(corrupted)?;
        let name = match id {
            1 => "graph",
            2 => "index",
            3 => "meta",
            4 => "changelog",
            _ => "unknown",
        };
        let _ = writeln!(
            report,
            "  section {id} ({name}): {len} bytes at {offset}, fnv1a64 {checksum:#018x}"
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

/// Loads a persistent `.sgi` store, mapping persistence errors into the
/// CLI error shape.
pub(crate) fn persisted_from_index_file(path: &str) -> Result<PersistedIndex, CliError> {
    read_index_file(path).map_err(|e| CliError::index(path, e))
}

/// One-line provenance summary of a loaded store, for reports (`serve`'s
/// `active index:` line, reload logs): epoch plus build preset when the
/// store records them.
pub(crate) fn provenance_label(loaded: &PersistedIndex) -> String {
    match (&loaded.provenance, &loaded.changelog) {
        (Some(p), _) => format!("epoch {}, preset {}", p.epoch, p.preset),
        (None, Some(log)) => format!("epoch {}", log.epoch),
        (None, None) => "unversioned".to_owned(),
    }
}

/// Turns a loaded store into a ready [`SegramMapper`]. The scheme, bucket
/// count, and discard fraction recorded in the file override the preset's
/// (seeding reads the scheme from the index itself; overriding keeps
/// reports and derived knobs coherent with it).
pub(crate) fn mapper_from_persisted(
    loaded: PersistedIndex,
    mut config: SegramConfig,
) -> SegramMapper {
    config.scheme = *loaded.index.scheme();
    config.bucket_bits = loaded.index.bucket_bits();
    config.discard_frac = loaded.discard_frac;
    SegramMapper::from_parts(
        Arc::new(loaded.graph),
        loaded.index,
        config,
        loaded.freq_threshold,
    )
}

/// Re-shards a loaded store into `shards` coordinate-range shards
/// (`segram serve --shards`). Applies the same config overrides as
/// [`mapper_from_persisted`], so shard mapping stays byte-identical to the
/// monolithic loaded index.
pub(crate) fn sharded_from_persisted(
    loaded: PersistedIndex,
    mut config: SegramConfig,
    shards: usize,
) -> ShardedIndex {
    config.scheme = *loaded.index.scheme();
    config.bucket_bits = loaded.index.bucket_bits();
    config.discard_frac = loaded.discard_frac;
    // `from_persisted` keeps the store's changelog lineage, which is what
    // lets a later RELOAD take the dirty-shard delta route.
    ShardedIndex::from_persisted(loaded, config, shards)
}

// ---------------------------------------------------------------------------
// map
// ---------------------------------------------------------------------------

const MAP_HELP: &str = "\
segram map — map FASTQ reads to a genome graph (MinSeed + BitAlign)

Reads are streamed through the stage pipeline (seed -> prefilter -> align)
by a batched multi-threaded engine; output order is the input order and is
byte-identical for every --threads and --shards value.

OPTIONS:
    --graph <graph.gfa>    input graph (one of --graph/--index required)
    --index <ref.sgi>      persistent index from `segram index build`:
                           skips construction + indexing entirely (the
                           file records the scheme, buckets, and discard
                           fraction; --backend segram only — --shards
                           re-shards the loaded store)
    --reads <reads.fq>     input FASTQ, plain or BGZF-compressed (required;
                           the container is auto-detected by its gzip
                           magic — blocks are sliced by the producer and
                           inflated on the worker threads)
    --output <path>        output file (default: stdout section of report)
    --format <sam|gaf>     output format (default sam)
    --output-sam <path>    split emission: write SAM here and (with
                           --output-gaf) GAF in the same pass, each on its
                           own writer thread; exclusive with
                           --output/--format
    --output-gaf <path>    split emission: the GAF half (see --output-sam)
    --batch-size <n|auto|auto:MIN:MAX>
                           reads per engine batch: a fixed count, or
                           `auto` to let the producer grow/shrink the
                           batch from queue depth/stall imbalance
                           (default auto bounds 4:256; --schedule fanout
                           only)
    --backend <segram|graphaligner|vg|hga>
                           mapping backend (default segram); the software
                           baselines run through the same engine for
                           apples-to-apples comparison (`segram eval
                           compare` runs several at once)
    --threads <int>        worker threads (default: all available cores)
    --shards <int>         split the index into N coordinate-range shards
                           with a seeding router in front (default 1; the
                           software analogue of the paper's per-HBM-channel
                           accelerator instances; --backend segram only)
    --schedule <fanout|elastic>
                           worker schedule (default fanout: all workers pop
                           one shared queue). elastic gives each shard group
                           a dedicated worker pool with its own queue,
                           routes batches by their dominant shard group, and
                           rebalances shard ownership live; output bytes are
                           identical either way (--backend segram only)
    --preset <short|long5|long10>
                           mapper preset (default short)
    --filter <none|base-count|qgram|shd|snake|cascade>
                           pre-alignment filter (default none, as in the
                           paper; --backend segram only)
    --both-strands         also try each read's reverse complement
    --compress-output      BGZF-compress the output document(s) on the
                           writer threads (requires a file output; a clean
                           close appends the canonical 28-byte EOF marker)
    --lenient              substitute ambiguous read bases instead of failing
";

pub(crate) fn preset(name: &str) -> Result<SegramConfig, CliError> {
    match name {
        "short" => Ok(SegramConfig::short_reads()),
        "long5" => Ok(SegramConfig::long_reads(0.05)),
        "long10" => Ok(SegramConfig::long_reads(0.10)),
        other => Err(CliError::usage(format!(
            "unknown preset {other:?} (expected short|long5|long10)"
        ))),
    }
}

fn filter_spec(name: &str) -> Result<Option<FilterSpec>, CliError> {
    match name {
        "none" => Ok(None),
        "base-count" => Ok(Some(FilterSpec::BaseCount)),
        "qgram" => Ok(Some(FilterSpec::QGram { q: 5 })),
        "shd" => Ok(Some(FilterSpec::ShiftedHamming)),
        "snake" => Ok(Some(FilterSpec::SneakySnake)),
        "cascade" => Ok(Some(FilterSpec::cascade())),
        other => Err(CliError::usage(format!(
            "unknown filter {other:?} (expected none|base-count|qgram|shd|snake|cascade)"
        ))),
    }
}

/// Worker-thread count for `segram map` / `segram serve`: `--threads N`
/// with `N >= 1`, or every available core when the option is absent.
pub(crate) fn thread_count(options: &Options) -> Result<usize, CliError> {
    match options.get("threads") {
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
        Some(text) => match text.parse::<usize>() {
            Ok(0) => Err(CliError::usage("--threads must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(CliError::usage(format!(
                "--threads: unparsable value {text:?}"
            ))),
        },
    }
}

/// Mapping backend for `segram map` / `segram eval compare`:
/// `--backend name` (default the native SeGraM pipeline).
fn backend_kind(options: &Options) -> Result<BackendKind, CliError> {
    match options.get("backend") {
        None => Ok(BackendKind::Segram),
        Some(name) => BackendKind::parse(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown backend {name:?} (expected segram|graphaligner|vg|hga)"
            ))
        }),
    }
}

/// Rejects `--shards` for backends without a sharded index, pointing at
/// the fix instead of silently ignoring the flag.
fn reject_foreign_shards(backend: BackendKind, options: &Options) -> Result<(), CliError> {
    if !backend.supports_shards() && options.get("shards").is_some() {
        return Err(CliError::usage(format!(
            "--shards only applies to --backend segram (the coordinate-range sharded \
             index is SeGraM's per-HBM-channel split); drop --shards or use \
             --backend segram to shard, got --backend {}",
            backend.name()
        )));
    }
    Ok(())
}

/// Rejects `--filter` for the baseline backends, which run their own
/// fixed filtering surrogates (chaining, region truncation) and never
/// consult the SeGraM prefilter stage — silently ignoring the flag would
/// make a filtered-vs-filtered comparison apples-to-oranges.
fn reject_foreign_filter(backend: BackendKind, options: &Options) -> Result<(), CliError> {
    if backend != BackendKind::Segram && options.get("filter").is_some() {
        return Err(CliError::usage(format!(
            "--filter only applies to --backend segram (the baselines have fixed \
             filtering of their own); drop --filter for --backend {}",
            backend.name()
        )));
    }
    Ok(())
}

/// Index-shard count for `segram map` / `segram serve`: `--shards N`
/// with `N >= 1` (default 1 = the unsharded mapper).
pub(crate) fn shard_count(options: &Options) -> Result<usize, CliError> {
    match options.get("shards") {
        None => Ok(1),
        Some(text) => match text.parse::<usize>() {
            Ok(0) => Err(CliError::usage("--shards must be at least 1")),
            Ok(n) => Ok(n),
            Err(_) => Err(CliError::usage(format!(
                "--shards: unparsable value {text:?}"
            ))),
        },
    }
}

/// Worker schedule for `segram map` / `segram serve`: the default fanout
/// (one shared queue) or the elastic per-shard-group pool schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Every worker pops the one shared queue.
    Fanout,
    /// Per-shard-group worker pools with routed batches and live
    /// rebalancing ([`ElasticScheduler`]).
    Elastic,
}

/// Parses `--schedule fanout|elastic` (default fanout).
pub(crate) fn schedule_kind(options: &Options) -> Result<Schedule, CliError> {
    match options.get("schedule") {
        None | Some("fanout") => Ok(Schedule::Fanout),
        Some("elastic") => Ok(Schedule::Elastic),
        Some(other) => Err(CliError::usage(format!(
            "unknown schedule {other:?} (expected fanout|elastic)"
        ))),
    }
}

/// `--shards N` asks for N coordinate ranges, but the index keeps only
/// the non-empty ones; say so instead of silently mapping with fewer.
pub(crate) fn warn_clamped_shards(requested: usize, sharded: &ShardedIndex) {
    let actual = sharded.shards().len();
    if actual < requested {
        eprintln!(
            "warning: --shards {requested} exceeds the reference length; \
             clamped to {actual} non-empty coordinate ranges"
        );
    }
}

/// How `segram map` sizes engine batches: a fixed read count or the
/// producer-side adaptive controller within `[min, max]` bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BatchSpec {
    Fixed(usize),
    Auto { min: usize, max: usize },
}

/// Default `--batch-size auto` bounds: wide enough to matter, small
/// enough that one batch never dominates the reorder window.
const AUTO_BATCH_MIN: usize = 4;
const AUTO_BATCH_MAX: usize = 256;

/// Parses `--batch-size N`, `--batch-size auto`, or
/// `--batch-size auto:MIN:MAX` (absent = the engine's fixed default).
fn batch_spec(options: &Options) -> Result<Option<BatchSpec>, CliError> {
    let Some(text) = options.get("batch-size") else {
        return Ok(None);
    };
    if text == "auto" {
        return Ok(Some(BatchSpec::Auto {
            min: AUTO_BATCH_MIN,
            max: AUTO_BATCH_MAX,
        }));
    }
    if let Some(bounds) = text.strip_prefix("auto:") {
        let parts: Vec<&str> = bounds.split(':').collect();
        let parsed = match parts.as_slice() {
            [min, max] => min
                .parse::<usize>()
                .ok()
                .zip(max.parse::<usize>().ok())
                .filter(|(min, max)| *min >= 1 && max >= min),
            _ => None,
        };
        return match parsed {
            Some((min, max)) => Ok(Some(BatchSpec::Auto { min, max })),
            None => Err(CliError::usage(format!(
                "--batch-size: expected auto:MIN:MAX with 1 <= MIN <= MAX, got {text:?}"
            ))),
        };
    }
    match text.parse::<usize>() {
        Ok(0) => Err(CliError::usage("--batch-size must be at least 1")),
        Ok(n) => Ok(Some(BatchSpec::Fixed(n))),
        Err(_) => Err(CliError::usage(format!(
            "--batch-size: expected a count, auto, or auto:MIN:MAX, got {text:?}"
        ))),
    }
}

/// The opened reads file with its sniffed head re-attached, so both the
/// plain framer and the BGZF slicer see the stream from byte zero.
type ReadsSource = std::io::Chain<Cursor<Vec<u8>>, fs::File>;

/// An opened `--reads` file, classified by its leading magic bytes.
struct MapReads {
    source: ReadsSource,
    /// The file starts with the gzip magic: BGZF path.
    compressed: bool,
}

/// Opens the reads file and sniffs the first two bytes for the gzip
/// magic (BGZF members are gzip members). The consumed head is chained
/// back in front of the file handle.
fn open_reads(reads_path: &str) -> Result<MapReads, CliError> {
    let mut file = fs::File::open(reads_path).map_err(|e| CliError::io(reads_path, e))?;
    let mut head = Vec::with_capacity(2);
    let mut byte = [0u8; 1];
    while head.len() < 2 {
        match file.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(CliError::io(reads_path, err)),
        }
    }
    let compressed = looks_like_gzip(&head);
    Ok(MapReads {
        source: Cursor::new(head).chain(file),
        compressed,
    })
}

/// Where `segram map` gets its graph + index from: a GFA file (construct
/// the index now) or a persistent `.sgi` file (load both).
enum MapSource<'a> {
    Graph(&'a str),
    Index(&'a str),
}

/// What `segram map` emits: one document in one format (to a file or the
/// report), or the split dual-format pass (SAM and GAF in one mapping
/// run, each document on its own writer thread).
#[derive(Clone, Copy, Debug)]
enum OutputPlan<'a> {
    Single {
        format: &'a str,
        path: Option<&'a str>,
    },
    Split {
        sam: &'a str,
        gaf: &'a str,
    },
}

/// Where the streamed output records go: a buffered file, a
/// BGZF-compressing file (`--compress-output`), or an in-memory buffer
/// that is appended to the report (the no-`--output` case).
enum MapTarget {
    File(BufWriter<fs::File>),
    /// `--compress-output`: members are cut on the thread that writes the
    /// document (the engine's writer thread, or a split-pass byte-writer
    /// thread), and the 28-byte EOF marker lands in the clean-close path.
    Bgzf(BgzfWriter<BufWriter<fs::File>>),
    Memory(Vec<u8>),
}

impl MapTarget {
    /// Wraps a created output file, compressing when asked to.
    fn file(file: BufWriter<fs::File>, compress: bool) -> Self {
        if compress {
            Self::Bgzf(BgzfWriter::new(file, BgzfMode::Fixed))
        } else {
            Self::File(file)
        }
    }

    /// Clean close: flushes a plain file, or cuts the tail member and
    /// appends the canonical BGZF EOF marker. (An error path never gets
    /// here, so an aborted compressed document stays EOF-less — readers
    /// classify it as truncated.)
    fn finish(self, path: &str) -> Result<(), CliError> {
        match self {
            Self::Bgzf(w) => w.finish().map(drop).map_err(|e| CliError::io(path, e)),
            Self::File(mut w) => w.flush().map_err(|e| CliError::io(path, e)),
            Self::Memory(_) => Ok(()),
        }
    }
}

impl Write for MapTarget {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Self::File(w) => w.write(buf),
            Self::Bgzf(w) => w.write(buf),
            Self::Memory(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Self::File(w) => w.flush(),
            Self::Bgzf(w) => w.flush(),
            Self::Memory(w) => w.flush(),
        }
    }
}

/// The format-specific streaming writer side of `segram map`.
enum MapWriter {
    Sam(SamWriter<MapTarget>),
    Gaf(GafWriter<MapTarget>),
}

/// Everything one engine pass produces that the report needs.
struct EngineRun {
    report: EngineReport,
    /// The full elastic report (elastic runs only): per-pool
    /// depth/stall/batch counters plus route/spill/migration totals.
    elastic: Option<ElasticReport>,
    /// The report's closing lines, per [`OutputPlan`]: where each document
    /// went (after the split pass's per-channel writer counters), or the
    /// rendered document itself when no `--output` path was given.
    output: String,
}

/// Removes partially written output files on drop unless disarmed — the
/// one cleanup path for the header-failure case, the post-run failure
/// case, and every early `?` in between, so no truncated document ever
/// survives an error. Declare it *before* the writers: drop order then
/// guarantees the `BufWriter` handles are flushed and closed before the
/// files are unlinked. Holds up to two paths (the split SAM+GAF pass).
struct OutputCleanup<'a> {
    paths: Vec<&'a str>,
}

impl<'a> OutputCleanup<'a> {
    /// A guard armed for nothing yet.
    fn new() -> Self {
        Self { paths: Vec::new() }
    }

    /// Arms the guard for one more created file.
    fn arm(&mut self, path: &'a str) {
        self.paths.push(path);
    }

    /// Keeps the files: the run completed and flushed successfully.
    fn disarm(&mut self) {
        self.paths.clear();
    }
}

impl Drop for OutputCleanup<'_> {
    fn drop(&mut self) {
        for path in &self.paths {
            let _ = fs::remove_file(path);
        }
    }
}

/// Takes the first recorded error out of a worker-shared slot.
fn take_error<E>(slot: Mutex<Option<E>>) -> Option<E> {
    slot.into_inner().unwrap_or_else(PoisonError::into_inner)
}

/// Input-side error slots shared between the producer and the workers:
/// each family records the earliest failure it can observe.
#[derive(Default)]
struct InputErrors {
    /// Plain path: the producer's framing/transport error.
    frame: Mutex<Option<StreamError>>,
    /// Compressed path: the producer's block-slicing error (bad framing,
    /// truncation, a missing EOF marker).
    bgzf_frame: Mutex<Option<BgzfError>>,
    /// Compressed path: the earliest worker-side block error (corrupt
    /// DEFLATE data, checksum mismatches), keyed by block index.
    bgzf_block: Mutex<Option<(usize, BgzfError)>>,
    /// The earliest FASTQ decode error, keyed by line number.
    decode: Mutex<Option<(usize, StreamError)>>,
}

/// Resolves the input-side slots into the one error the user sees.
///
/// Priority: the slicer's own error first — a producer failure cancels
/// the run before every queued block is inflated, so whether a worker
/// slot also filled is a race; the producer slot is not. Then the
/// earliest worker block error and the earliest FASTQ decode error —
/// both deterministic the other way round: the failing worker puts the
/// engine in settle mode, which drains every block and record before the
/// failure whatever the thread count.
fn input_failure(errors: InputErrors, reads_path: &str) -> Option<CliError> {
    if let Some(err) = take_error(errors.bgzf_frame) {
        return Some(CliError::bgzf(reads_path, err));
    }
    if let Some((_, err)) = take_error(errors.bgzf_block) {
        return Some(CliError::bgzf(reads_path, err));
    }
    match take_error(errors.frame).or_else(|| take_error(errors.decode).map(|(_, err)| err)) {
        Some(StreamError::Io(err)) => Some(CliError::io(reads_path, err)),
        Some(StreamError::Format(err)) => Some(CliError::format(reads_path, err)),
        None => None,
    }
}

/// The producer side of a run: hands on the frames of `frames` — raw
/// FASTQ records off a [`FastqFramer`], or still-compressed blocks off
/// [`BgzfBlocks`]; it never parses FASTQ or inflates, that happens on the
/// worker threads. A framing/transport error stops the stream, records
/// itself in `slot`, and cancels the run.
fn frames_until_error<'a, T, E>(
    mut frames: impl Iterator<Item = Result<T, E>> + 'a,
    cancel: &CancelToken,
    slot: &'a Mutex<Option<E>>,
) -> impl Iterator<Item = T> + 'a {
    let cancel = cancel.clone();
    std::iter::from_fn(move || {
        if cancel.is_cancelled() {
            return None;
        }
        match frames.next()? {
            Ok(frame) => Some(frame),
            Err(err) => {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(err);
                cancel.cancel();
                None
            }
        }
    })
}

/// Runs the engine pass for one schedule × input-encoding combination
/// with the given writer-thread sink, returning the engine report and,
/// for the elastic schedule (`elastic` = the sharded index to route by),
/// the elastic report. Producer-side framing errors and worker-side
/// inflate/decode errors land in `errors`; the first of any of them
/// cancels the run.
///
/// Worker-stage decode: FASTQ parsing happens on the mapping threads,
/// timed into `MapStats::decode` (and, on the compressed path, block
/// inflation timed into `MapStats::inflate`). The earliest failing
/// record wins its slot, and the engine settles in-flight batches
/// decode-only when a decode failure cancels the run, so every record
/// before the observed failure is guaranteed to reach the decode
/// closure: the reported error is deterministically the file's *first*
/// malformed record, whatever the thread count or worker interleaving.
#[allow(clippy::too_many_arguments)]
fn drive_engine<M, F>(
    mapper: &M,
    elastic: Option<&ShardedIndex>,
    engine_config: EngineOptions,
    reads: MapReads,
    decode_ambiguity: Ambiguity,
    cancel: &CancelToken,
    errors: &InputErrors,
    sink: F,
) -> (EngineReport, Option<ElasticReport>)
where
    M: ReadMapper,
    F: FnMut(FastqRecord, ReadOutcome) + Send,
{
    let decode = |raw: RawFastqRecord| match raw.decode(decode_ambiguity) {
        Ok(record) => Some(record),
        Err(err) => {
            let mut slot = errors.decode.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.as_ref().is_none_or(|(line, _)| raw.line() < *line) {
                *slot = Some((raw.line(), err));
            }
            None
        }
    };
    if !reads.compressed {
        let raws = frames_until_error(FastqFramer::new(reads.source), cancel, &errors.frame);
        return match elastic {
            Some(sharded) => {
                let report = ElasticScheduler::new(sharded, engine_config).map_raw_stream(
                    raws,
                    decode,
                    |record| &record.seq,
                    sink,
                );
                (report.engine, Some(report))
            }
            None => {
                let engine = MapEngine::new(mapper, engine_config);
                let run = engine.map_raw_stream(raws, decode, |record| &record.seq, sink);
                (run, None)
            }
        };
    }
    // BGZF input runs the fanout schedule only — `map` rejects it under
    // the elastic one before it gets here: the in-order splice turnstile
    // below needs the single queue to drain deadlock-free.
    let blocks = frames_until_error(BgzfBlocks::new(reads.source), cancel, &errors.bgzf_frame);
    // Workers inflate their blocks in parallel, then enter the turnstile
    // in block order to re-join records straddling block boundaries
    // against one shared scanner — the decoded record stream is exactly
    // what the plain framer would have produced from the uncompressed
    // bytes.
    let splice = FastqSplice::new();
    let decode_block = |block: BgzfBlock| {
        let started = Instant::now();
        let plain = match block.inflate() {
            Ok(plain) => plain,
            Err(err) => {
                let mut slot = errors
                    .bgzf_block
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if slot.as_ref().is_none_or(|(at, _)| block.index() < *at) {
                    *slot = Some((block.index(), err));
                }
                return None;
            }
        };
        let raws = splice.splice(block.index(), &plain, block.is_last(), || {
            cancel.is_cancelled()
        })?;
        // Inflation + the turnstile wait are transport work; what remains
        // of the closure is FASTQ decoding proper.
        let inflate = started.elapsed();
        let mut items = Vec::with_capacity(raws.len());
        for raw in raws {
            items.push(decode(raw)?);
        }
        Some(DecodedBlock { items, inflate })
    };
    let engine = MapEngine::new(mapper, engine_config);
    let run = engine.map_block_stream(blocks, decode_block, |record| &record.seq, sink);
    (run, None)
}

/// Rendered lines buffered between the engine's sink and one split
/// writer thread.
const SPLIT_QUEUE_LINES: usize = 4096;

/// The body of one split-output writer thread: drains rendered lines
/// from its channel onto the document writer. A write failure records
/// the first error, cancels the run, and closes the channel so the
/// sink's subsequent pushes drop instead of blocking on a reader that
/// is gone.
fn drain_split_channel(
    queue: &WorkQueue<String>,
    mut write_line: impl FnMut(&str) -> std::io::Result<()>,
    cancel: &CancelToken,
    error: &Mutex<Option<std::io::Error>>,
) {
    while let Some(line) = queue.pop() {
        if let Err(err) = write_line(&line) {
            let mut slot = error.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(err);
            }
            cancel.cancel();
            queue.close();
            return;
        }
    }
}

/// Creates an output file (with parent directories), arming the cleanup
/// guard only after the create succeeds — a failed create (say, an
/// unwritable pre-existing file) must never unlink a file this run did
/// not produce.
fn create_output<'a>(
    path: &'a str,
    cleanup: &mut OutputCleanup<'a>,
) -> Result<BufWriter<fs::File>, CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| CliError::io(path, e))?;
        }
    }
    let file = fs::File::create(path).map_err(|e| CliError::io(path, e))?;
    cleanup.arm(path);
    Ok(BufWriter::new(file))
}

/// Streams the FASTQ in `reads` — plain or BGZF-compressed — through a
/// [`MapEngine`] over any [`ReadMapper`] (monolithic or sharded) with
/// fully overlapped IO: the producer thread only frames raw record
/// boundaries (plain) or slices compressed blocks (BGZF); decompression
/// and FASTQ decode run in the worker stage ahead of seeding; and
/// rendering + file writes happen off the mapping threads as each batch
/// is released in input order (on the engine's writer thread, plus one
/// dedicated byte-writer thread per document in the split SAM+GAF
/// pass). A failure at any point (framing, inflation, decode, write)
/// cancels the shared [`CancelToken`] so the whole pipeline stops
/// promptly instead of mapping the rest of the stream first.
#[allow(clippy::too_many_arguments)]
fn run_map_stream<M: ReadMapper>(
    mapper: &M,
    elastic: Option<&ShardedIndex>,
    threads: usize,
    both: bool,
    options: &Options,
    output: OutputPlan<'_>,
    reads: MapReads,
    reads_path: &str,
    batch: Option<BatchSpec>,
) -> Result<EngineRun, CliError> {
    let cancel = CancelToken::new();
    let errors = InputErrors::default();
    let decode_ambiguity = ambiguity(options);
    let mut engine_config = EngineOptions::new()
        .threads(threads)
        .both_strands(both)
        .cancel(cancel.clone());
    match batch {
        Some(BatchSpec::Fixed(n)) => engine_config = engine_config.batch_size(n),
        Some(BatchSpec::Auto { min, max }) => {
            engine_config = engine_config.adaptive_batch(min, max)
        }
        None => {}
    }

    // One RAII guard owns partial-file removal for every failure path
    // below (see `create_output` for the arming rule). It is declared
    // before the writers, so on failure the buffered handles close and
    // flush first, then the files are unlinked.
    let mut cleanup = OutputCleanup::new();
    let compress = options.switch("compress-output");
    let note = if compress { " (BGZF-compressed)" } else { "" };

    match output {
        OutputPlan::Single {
            format,
            path: out_path,
        } => {
            let out_name = out_path.unwrap_or("<report>");
            // Output side: records are rendered and written on the
            // engine's writer thread as their batch is released, so the
            // document is never held in memory when writing to a file.
            let target = match out_path {
                Some(path) => MapTarget::file(create_output(path, &mut cleanup)?, compress),
                None => MapTarget::Memory(Vec::new()),
            };
            let mut writer = match format {
                "sam" => match SamWriter::new(target, "graph", mapper.graph().total_chars()) {
                    Ok(writer) => MapWriter::Sam(writer),
                    // The header failed after the file was created; the
                    // cleanup guard removes the header-less stub.
                    Err(err) => return Err(CliError::io(out_name, err)),
                },
                _ => MapWriter::Gaf(GafWriter::new(target)),
            };

            // Writer-thread sink: render + write only; a failure cancels
            // the run.
            let write_error: Mutex<Option<CliError>> = Mutex::new(None);
            let sink = |record: FastqRecord, outcome: ReadOutcome| {
                let mut slot = write_error.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.is_some() {
                    return;
                }
                let result = match &mut writer {
                    MapWriter::Sam(w) => {
                        let rec = sam_record_for(&record.id, &record.seq, &outcome);
                        w.write_line(&rec.to_sam_line())
                            .map_err(|e| CliError::io(out_name, e))
                    }
                    MapWriter::Gaf(w) => {
                        match gaf_record_for(&record.id, &record.seq, mapper.graph(), &outcome) {
                            Err(e) => Err(CliError::format(reads_path, e)),
                            Ok(None) => Ok(()),
                            Ok(Some(rec)) => {
                                w.write_record(&rec).map_err(|e| CliError::io(out_name, e))
                            }
                        }
                    }
                };
                if let Err(err) = result {
                    *slot = Some(err);
                    cancel.cancel();
                }
            };

            let (run, elastic) = drive_engine(
                mapper,
                elastic,
                engine_config,
                reads,
                decode_ambiguity,
                &cancel,
                &errors,
                sink,
            );

            // Input-side failures outrank output-side ones, mirroring the
            // pre-overlap behaviour (decode errors *are* the old read
            // errors, they just surface from the worker stage now).
            if let Some(err) = input_failure(errors, reads_path).or_else(|| take_error(write_error))
            {
                // The cleanup guard removes the partial file (after
                // `writer` drops and flushes, per declaration order).
                return Err(err);
            }
            let target = match writer {
                MapWriter::Sam(w) => w.finish(),
                MapWriter::Gaf(w) => w.finish(),
            }
            .map_err(|e| CliError::io(out_name, e))?;
            let output = match target {
                MapTarget::Memory(buffer) => String::from_utf8_lossy(&buffer).into_owned(),
                file => {
                    file.finish(out_name)?;
                    format!("wrote {} to {out_name}{note}\n", format.to_uppercase())
                }
            };
            cleanup.disarm();

            Ok(EngineRun {
                report: run,
                elastic,
                output,
            })
        }
        OutputPlan::Split {
            sam: sam_path,
            gaf: gaf_path,
        } => {
            let sam_file = MapTarget::file(create_output(sam_path, &mut cleanup)?, compress);
            let mut gaf_file = MapTarget::file(create_output(gaf_path, &mut cleanup)?, compress);
            let mut sam_writer = SamWriter::new(sam_file, "graph", mapper.graph().total_chars())
                .map_err(|e| CliError::io(sam_path, e))?;

            // The engine's writer thread renders both documents per
            // record; byte IO happens on one dedicated thread per
            // document, fed by a bounded channel each.
            let sam_queue: WorkQueue<String> = WorkQueue::new(SPLIT_QUEUE_LINES);
            let gaf_queue: WorkQueue<String> = WorkQueue::new(SPLIT_QUEUE_LINES);
            let sam_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
            let gaf_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
            let write_error: Mutex<Option<CliError>> = Mutex::new(None);

            let (run, elastic) = std::thread::scope(|scope| {
                scope.spawn(|| {
                    drain_split_channel(
                        &sam_queue,
                        |line| sam_writer.write_line(line),
                        &cancel,
                        &sam_error,
                    )
                });
                scope.spawn(|| {
                    drain_split_channel(
                        &gaf_queue,
                        |line| {
                            gaf_file.write_all(line.as_bytes())?;
                            gaf_file.write_all(b"\n")
                        },
                        &cancel,
                        &gaf_error,
                    )
                });

                let sink = |record: FastqRecord, outcome: ReadOutcome| {
                    {
                        let slot = write_error.lock().unwrap_or_else(PoisonError::into_inner);
                        if slot.is_some() {
                            return;
                        }
                    }
                    let rec = sam_record_for(&record.id, &record.seq, &outcome);
                    sam_queue.push(rec.to_sam_line());
                    match gaf_record_for(&record.id, &record.seq, mapper.graph(), &outcome) {
                        Err(e) => {
                            *write_error.lock().unwrap_or_else(PoisonError::into_inner) =
                                Some(CliError::format(reads_path, e));
                            cancel.cancel();
                        }
                        // GAF carries no unmapped records.
                        Ok(None) => {}
                        Ok(Some(rec)) => gaf_queue.push(rec.to_gaf_line()),
                    }
                };

                let result = drive_engine(
                    mapper,
                    elastic,
                    engine_config,
                    reads,
                    decode_ambiguity,
                    &cancel,
                    &errors,
                    sink,
                );
                // End of stream: close both channels and let the writer
                // threads drain what remains (the scope joins them).
                sam_queue.close();
                gaf_queue.close();
                result
            });

            let failure = input_failure(errors, reads_path)
                .or_else(|| take_error(write_error))
                .or_else(|| take_error(sam_error).map(|e| CliError::io(sam_path, e)))
                .or_else(|| take_error(gaf_error).map(|e| CliError::io(gaf_path, e)));
            if let Some(err) = failure {
                // The cleanup guard removes both partial files (after the
                // writers drop and flush, per declaration order).
                return Err(err);
            }
            sam_writer
                .finish()
                .map_err(|e| CliError::io(sam_path, e))?
                .finish(sam_path)?;
            gaf_file.finish(gaf_path)?;
            cleanup.disarm();

            // Per-channel counters of the two writer threads: push side =
            // the engine's sink, pop side = the file writer.
            let mut output = String::new();
            for (label, stats) in [("sam", sam_queue.stats()), ("gaf", gaf_queue.stats())] {
                let _ = writeln!(
                    output,
                    "writer {label}: max depth {}, sink stalled {}x ({:.2} ms), \
                     writer waited {}x ({:.2} ms)",
                    stats.max_depth,
                    stats.producer_waits,
                    stats.producer_wait.as_secs_f64() * 1e3,
                    stats.worker_waits,
                    stats.worker_wait.as_secs_f64() * 1e3
                );
            }
            let _ = writeln!(output, "wrote SAM to {sam_path}{note}");
            let _ = writeln!(output, "wrote GAF to {gaf_path}{note}");
            Ok(EngineRun {
                report: run,
                elastic,
                output,
            })
        }
    }
}

/// The per-shard section of a sharded run's report: occupancy counters,
/// seeding-load imbalance, and under the elastic schedule the per-pool
/// depth/stall/migration counters.
fn shard_report(sharded: &ShardedIndex, elastic: Option<&ElasticReport>) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut section = String::new();
    let _ = writeln!(
        section,
        "shards: {} coordinate ranges (seed-hit imbalance {:.2})",
        sharded.shards().len(),
        sharded.seed_imbalance()
    );
    for stats in sharded.shard_stats() {
        let _ = writeln!(
            section,
            "  shard {} [{}, {}): {} seed hits, {} regions, {} wins",
            stats.shard, stats.start, stats.end, stats.seed_hits, stats.regions, stats.wins
        );
    }
    if let Some(report) = elastic {
        let _ = writeln!(
            section,
            "schedule: elastic — {} pools, {} batches routed, {} spilled, \
             {} shard migrations",
            report.pools.len(),
            report.routed,
            report.spilled,
            report.migrations
        );
        for (p, pool) in report.pools.iter().enumerate() {
            let _ = writeln!(
                section,
                "  pool {p} -> shards {:?} ({} workers): {} batches \
                 ({} routed, {} spilled), queue max depth {}, \
                 producer stalled {}x ({:.2} ms), workers starved {}x ({:.2} ms)",
                pool.shards,
                pool.workers,
                pool.batches,
                pool.routed,
                pool.spilled,
                pool.queue.max_depth,
                pool.queue.producer_waits,
                ms(pool.queue.producer_wait),
                pool.queue.worker_waits,
                ms(pool.queue.worker_wait)
            );
        }
    }
    section
}

/// `segram map`.
pub fn map(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(MAP_HELP.to_owned());
    }
    options.reject_unknown(&[
        "graph",
        "index",
        "reads",
        "output",
        "format",
        "output-sam",
        "output-gaf",
        "backend",
        "threads",
        "shards",
        "schedule",
        "batch-size",
        "preset",
        "filter",
        "both-strands",
        "compress-output",
        "lenient",
    ])?;
    let source = match (options.get("graph"), options.get("index")) {
        (Some(graph), None) => MapSource::Graph(graph),
        (None, Some(index)) => MapSource::Index(index),
        (Some(_), Some(_)) => {
            return Err(CliError::usage(
                "--graph and --index are mutually exclusive (the .sgi file \
                 already contains the graph)",
            ))
        }
        (None, None) => return Err(CliError::usage("one of --graph or --index is required")),
    };
    let reads_path = options.require("reads")?;
    let format = options.get("format").unwrap_or("sam");
    if format != "sam" && format != "gaf" {
        return Err(CliError::usage(format!(
            "unknown format {format:?} (expected sam|gaf)"
        )));
    }
    // Validate the cheap options before touching the filesystem, so usage
    // errors win over I/O errors.
    let backend = backend_kind(options)?;
    reject_foreign_shards(backend, options)?;
    reject_foreign_filter(backend, options)?;
    let threads = thread_count(options)?;
    let shards = shard_count(options)?;
    let schedule = schedule_kind(options)?;
    if schedule == Schedule::Elastic && backend != BackendKind::Segram {
        return Err(CliError::usage(format!(
            "--schedule elastic only applies to --backend segram (the pool \
             schedule routes by the sharded index); drop --schedule or use \
             --backend segram, got --backend {}",
            backend.name()
        )));
    }
    let batch = batch_spec(options)?;
    if matches!(batch, Some(BatchSpec::Auto { .. })) && schedule == Schedule::Elastic {
        return Err(CliError::usage(
            "--batch-size auto only applies to --schedule fanout (the elastic \
             pools route fixed-size batches); use a fixed --batch-size or drop \
             --schedule elastic",
        ));
    }
    let mut config = preset(options.get("preset").unwrap_or("short"))?;
    config.prefilter = filter_spec(options.get("filter").unwrap_or("none"))?;
    let both = options.switch("both-strands");

    // Output plan: the split SAM+GAF pass is exclusive with the
    // single-document options (it names both documents itself).
    let out_sam = options.get("output-sam");
    let out_gaf = options.get("output-gaf");
    if (out_sam.is_some() || out_gaf.is_some())
        && (options.get("output").is_some() || options.get("format").is_some())
    {
        return Err(CliError::usage(
            "--output-sam/--output-gaf are mutually exclusive with \
             --output/--format (the split pass names both documents itself)",
        ));
    }
    let output = match (out_sam, out_gaf) {
        (Some(sam), Some(gaf)) => OutputPlan::Split { sam, gaf },
        // One split option alone is just a single-format run with an
        // explicit format baked into the option name.
        (Some(sam), None) => OutputPlan::Single {
            format: "sam",
            path: Some(sam),
        },
        (None, Some(gaf)) => OutputPlan::Single {
            format: "gaf",
            path: Some(gaf),
        },
        (None, None) => OutputPlan::Single {
            format,
            path: options.get("output"),
        },
    };
    if options.switch("compress-output") {
        if let OutputPlan::Single { path: None, .. } = output {
            return Err(CliError::usage(
                "--compress-output requires a file output (--output, \
                 --output-sam, or --output-gaf); the report cannot hold \
                 BGZF bytes",
            ));
        }
    }

    // A persistent index is native-only: the baseline backends rebuild
    // their own structures from the GFA. (--shards and --schedule elastic
    // are fine: the loaded store is re-sharded the same way `segram serve
    // --shards` does it.)
    if let MapSource::Index(_) = source {
        if backend != BackendKind::Segram {
            return Err(CliError::usage(format!(
                "--index only applies to --backend segram (the .sgi file \
                 holds the SeGraM index); use --graph for --backend {}",
                backend.name()
            )));
        }
    }

    // Sniff the reads file last, after every cheap option check: the
    // compressed path feeds an in-order splice turnstile that only the
    // single-queue fanout schedule can drain deadlock-free.
    let reads = open_reads(reads_path)?;
    let compressed = reads.compressed;
    if compressed && schedule == Schedule::Elastic {
        return Err(CliError::usage(
            "--schedule elastic cannot read BGZF-compressed input (the \
             multi-pool schedule cannot feed the in-order block splice); \
             decompress the reads or drop --schedule elastic",
        ));
    }

    // Every mapper is a `Backend` variant, so one engine pass serves them
    // all. Sharded and/or elastic runs need the sharded index (the elastic
    // schedule over --shards 1 is a single pool, still exercising the
    // routed path); a loaded store is re-sharded exactly as `segram serve
    // --shards` does it, so mapping stays byte-identical to the GFA-built
    // sharded run.
    let sharded_run = shards > 1 || schedule == Schedule::Elastic;
    let (mapper, source_note) = match source {
        MapSource::Index(index_path) => {
            let loaded = persisted_from_index_file(index_path)?;
            let note = format!(
                "loaded persistent index {index_path} ({})\n",
                provenance_label(&loaded)
            );
            let mapper = if sharded_run {
                Backend::Sharded(sharded_from_persisted(loaded, config, shards))
            } else {
                Backend::Segram(mapper_from_persisted(loaded, config))
            };
            (mapper, note)
        }
        MapSource::Graph(graph_path) => {
            let graph = load_graph(graph_path)?;
            let mapper = if backend == BackendKind::Segram && sharded_run {
                Backend::Sharded(ShardedIndex::build(graph, config, shards))
            } else {
                // The monolithic native mapper, or a baseline backend:
                // same engine, same streaming output path, so the run is
                // directly comparable to (and diffable against) the
                // native one.
                Backend::build(backend, graph, config, 1)
            };
            (mapper, String::new())
        }
    };
    let sharded = mapper.sharded();
    if let Some(sharded) = sharded {
        warn_clamped_shards(shards, sharded);
    }
    let run = run_map_stream(
        &mapper,
        sharded.filter(|_| schedule == Schedule::Elastic),
        threads,
        both,
        options,
        output,
        reads,
        reads_path,
        batch,
    )?;
    let shard_section = sharded
        .map(|sharded| shard_report(sharded, run.elastic.as_ref()))
        .unwrap_or_default();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let stats = run.report;
    let mut report = source_note;
    let _ = writeln!(
        report,
        "mapped {}/{} reads ({} regions aligned, {} filtered)",
        stats.mapped, stats.reads, stats.stats.regions_aligned, stats.stats.regions_filtered
    );
    let _ = writeln!(report, "backend: {}", stats.backend);
    let _ = writeln!(
        report,
        "threads: {threads} ({} batches of up to {} reads)",
        stats.batches, stats.batching.initial
    );
    let _ = writeln!(
        report,
        "stage times: seeding {:.2} ms, filtering {:.2} ms, alignment {:.2} ms, \
         decode {:.2} ms (alignment fraction {:.0}%)",
        ms(stats.stats.seeding),
        ms(stats.stats.filtering),
        ms(stats.stats.alignment),
        ms(stats.stats.decode),
        stats.stats.alignment_fraction() * 100.0
    );
    if compressed {
        let _ = writeln!(
            report,
            "inflate: {:.2} ms (BGZF decompression + block splice, worker stage)",
            ms(stats.stats.inflate)
        );
    }
    if stats.batching.adaptive {
        let b = stats.batching;
        let _ = writeln!(
            report,
            "batching: adaptive, batch {} -> {} (used [{}, {}], {} grows, {} shrinks)",
            b.initial, b.last, b.min_used, b.max_used, b.grows, b.shrinks
        );
    }
    let _ = writeln!(
        report,
        "queue: max depth {}, producer waited {}x ({:.2} ms), workers waited {}x ({:.2} ms)",
        stats.queue.max_depth,
        stats.queue.producer_waits,
        ms(stats.queue.producer_wait),
        stats.queue.worker_waits,
        ms(stats.queue.worker_wait)
    );
    let _ = writeln!(
        report,
        "writer: max depth {}, workers stalled {}x ({:.2} ms), writer waited {}x ({:.2} ms)",
        stats.queue.output_max_depth,
        stats.queue.output_stall_waits,
        ms(stats.queue.output_stall_wait),
        stats.queue.writer_waits,
        ms(stats.queue.writer_wait)
    );
    report.push_str(&shard_section);
    report.push_str(&run.output);
    Ok(report)
}

// ---------------------------------------------------------------------------
// bgzip
// ---------------------------------------------------------------------------

const BGZIP_HELP: &str = "\
segram bgzip — BGZF-compress a file with the in-tree DEFLATE compressor

The output is a standard BGZF stream (gzip members with the BC/BSIZE
extra subfield, CRC32 + ISIZE trailers, and the canonical EOF marker)
that `segram map` auto-detects by its magic bytes. This is also the
fixture factory for the compressed-IO tests and CI tier.

OPTIONS:
    --input <file>         file to compress (required)
    --output <file.gz>     output BGZF path (required)
    --block-bytes <int>    uncompressed payload bytes per BGZF block
                           (default 16384, clamped to 1..=57000)
    --mode <fixed|stored>  DEFLATE encoding per block (default fixed:
                           fixed-Huffman codes over a greedy LZ77 parse;
                           stored emits uncompressed blocks)
";

/// `segram bgzip`.
pub fn bgzip(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(BGZIP_HELP.to_owned());
    }
    options.reject_unknown(&["input", "output", "block-bytes", "mode"])?;
    let mode = match options.get("mode") {
        None | Some("fixed") => BgzfMode::Fixed,
        Some("stored") => BgzfMode::Stored,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown mode {other:?} (expected fixed|stored)"
            )))
        }
    };
    let block_bytes: usize = options.number("block-bytes", 16 * 1024)?;
    if block_bytes == 0 {
        return Err(CliError::usage("--block-bytes must be at least 1"));
    }
    let input = options.require("input")?;
    let output = options.require("output")?;
    let data = fs::read(input).map_err(|e| CliError::io(input, e))?;
    let compressed = bgzf_compress(&data, block_bytes, mode);
    if let Some(parent) = Path::new(output).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).map_err(|e| CliError::io(output, e))?;
        }
    }
    fs::write(output, &compressed).map_err(|e| CliError::io(output, e))?;

    let blocks = data.len().div_ceil(block_bytes.min(BGZF_MAX_PLAIN));
    let mut report = String::new();
    let _ = writeln!(
        report,
        "wrote {blocks} BGZF blocks + EOF marker to {output} ({} -> {} bytes)",
        data.len(),
        compressed.len()
    );
    Ok(report)
}

// ---------------------------------------------------------------------------
// simulate
// ---------------------------------------------------------------------------

const SIMULATE_HELP: &str = "\
segram simulate — generate a synthetic reference/VCF/graph/reads bundle
(the scaled-down stand-in for GRCh38 + GIAB + PBSIM2/Mason, Section 10)

OPTIONS:
    --out-prefix <path>   file prefix for the bundle (required); writes
                          <prefix>.fa, <prefix>.vcf, <prefix>.gfa, <prefix>.fq
    --length <int>        reference length (default 100000)
    --reads <int>         number of reads (default 100)
    --read-len <int>      read length (default 150)
    --error <float>       read error rate: 0.01|0.05|0.10 pick the Illumina/
                          PacBio/ONT profile (default 0.01)
    --seed <int>          RNG seed (default 42)
";

/// `segram simulate`.
pub fn simulate(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(SIMULATE_HELP.to_owned());
    }
    options.reject_unknown(&["out-prefix", "length", "reads", "read-len", "error", "seed"])?;
    let prefix = options.require("out-prefix")?;
    let length: usize = options.number("length", 100_000)?;
    let read_count: usize = options.number("reads", 100)?;
    let read_len: usize = options.number("read-len", 150)?;
    let error: f64 = options.number("error", 0.01)?;
    let seed: u64 = options.number("seed", 42)?;
    if length < read_len || read_len == 0 {
        return Err(CliError::usage(
            "--length must be at least --read-len, both positive",
        ));
    }

    let reference = generate_reference(&GenomeConfig::human_like(length, seed));
    let variants = simulate_variants(&reference, &VariantConfig::human_like(seed ^ 0xabcd));
    let vcf_text = write_vcf("chr1", &reference, &variants)
        .map_err(|e| CliError::format(format!("{prefix}.vcf"), e))?;
    let built = build_graph(&reference, variants)?;

    let errors = if error >= 0.075 {
        ErrorProfile::ont_10()
    } else if error >= 0.03 {
        ErrorProfile::pacbio_5()
    } else {
        ErrorProfile::illumina()
    };
    let reads = simulate_reads(
        &built.graph,
        &ReadConfig {
            count: read_count,
            len: read_len,
            errors,
            seed: seed ^ 0x1234,
        },
    );
    let phred = phred_from_error_rate(error.max(1e-4));
    let fastq: Vec<FastqRecord> = reads
        .iter()
        .map(|r| {
            let mut record =
                FastqRecord::with_uniform_quality(format!("read{}", r.id), r.seq.clone(), phred);
            record.description = format!(
                "truth:linear={} strand={:?} errors={}",
                r.true_start_linear, r.strand, r.injected_errors
            );
            record
        })
        .collect();

    write_file(
        &format!("{prefix}.fa"),
        &write_fasta(&[FastaRecord::new("chr1", reference.clone())], 70),
    )?;
    write_file(&format!("{prefix}.vcf"), &vcf_text)?;
    write_file(&format!("{prefix}.gfa"), &gfa::to_gfa(&built.graph))?;
    write_file(&format!("{prefix}.fq"), &write_fastq(&fastq))?;

    let stats = built.graph.stats();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "wrote {prefix}.fa ({length} bp), {prefix}.vcf, {prefix}.gfa ({} nodes), {prefix}.fq ({read_count} reads x {read_len} bp)",
        stats.node_count
    );
    Ok(report)
}

// ---------------------------------------------------------------------------
// eval compare
// ---------------------------------------------------------------------------

const EVAL_HELP: &str = "\
segram eval — evaluation harnesses

USAGE:
    segram eval <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    compare    drive one read stream through several mapping backends and
               compare throughput, stage times, accuracy, and modeled
               accelerator occupancy under one methodology

Run `segram eval compare --help` for options.
";

const COMPARE_HELP: &str = "\
segram eval compare — the same reads through N backends, one table
(the paper's apples-to-apples comparison methodology: every backend runs
through the same batched engine and the same measurement path)

OPTIONS:
    --graph <graph.gfa>    input graph (required)
    --reads <reads.fq>     input FASTQ (required); records carrying
                           `truth:linear=` descriptions (as written by
                           `segram simulate`) also get per-backend accuracy
    --backends <list>      comma-separated backends to run, in order
                           (default segram,graphaligner,vg,hga)
    --threads <int>        worker threads per run (default: all cores)
    --shards <int>         shard count for the segram backend (default 1)
    --preset <short|long5|long10>
                           mapper preset (default short)
    --tolerance <int>      max distance from truth counted correct
                           (default 150)
    --json <path>          also write the table as a JSON artifact
    --both-strands         map each read on both strands
    --lenient              substitute ambiguous read bases instead of failing
";

/// Parses the `--backends` list, preserving order and dropping duplicates.
fn parse_backends(list: &str) -> Result<Vec<BackendKind>, CliError> {
    let mut kinds = Vec::new();
    for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let kind = BackendKind::parse(name).ok_or_else(|| {
            CliError::usage(format!(
                "unknown backend {name:?} in --backends (expected a comma-separated \
                 subset of segram,graphaligner,vg,hga)"
            ))
        })?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    if kinds.is_empty() {
        return Err(CliError::usage(
            "--backends names no backends (expected e.g. segram,vg)",
        ));
    }
    Ok(kinds)
}

/// The simulated truth location embedded in a FASTQ description by
/// `segram simulate` (`truth:linear=N strand=... errors=...`), if any.
fn truth_linear(description: &str) -> Option<u64> {
    description
        .split_whitespace()
        .find_map(|token| token.strip_prefix("truth:linear=")?.parse().ok())
}

/// Reads the whole FASTQ into [`EvalRead`]s (compare runs the same
/// materialized read set through every backend, unlike `map`'s streaming).
fn load_eval_reads(reads_path: &str, ambiguity: Ambiguity) -> Result<Vec<EvalRead>, CliError> {
    let reads_file = fs::File::open(reads_path).map_err(|e| CliError::io(reads_path, e))?;
    let mut reads = Vec::new();
    for record in FastqReader::new(BufReader::new(reads_file), ambiguity) {
        let record = match record {
            Ok(record) => record,
            Err(StreamError::Io(err)) => return Err(CliError::io(reads_path, err)),
            Err(StreamError::Format(err)) => return Err(CliError::format(reads_path, err)),
        };
        reads.push(EvalRead {
            truth_linear: truth_linear(&record.description),
            seq: record.seq,
        });
    }
    Ok(reads)
}

/// One JSON row of the `--json` artifact (testkit's offline serializer).
#[derive(Serialize)]
struct CompareRow {
    backend: String,
    reads: usize,
    mapped: usize,
    with_truth: usize,
    correct: usize,
    accuracy: Option<f64>,
    seconds: f64,
    reads_per_second: f64,
    seeding_ms: f64,
    filtering_ms: f64,
    alignment_ms: f64,
    alignment_fraction: f64,
    regions_aligned: usize,
    modeled_makespan_ns: f64,
    modeled_bitalign_utilization: f64,
}

#[derive(Serialize)]
struct CompareDoc {
    threads: usize,
    tolerance: u64,
    backends: Vec<CompareRow>,
}

impl CompareRow {
    fn from_eval(eval: &BackendEval) -> Self {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Self {
            backend: eval.backend.to_owned(),
            reads: eval.report.reads,
            mapped: eval.report.mapped,
            with_truth: eval.with_truth,
            correct: eval.correct,
            accuracy: eval.accuracy(),
            seconds: eval.seconds,
            reads_per_second: eval.reads_per_second(),
            seeding_ms: ms(eval.report.stats.seeding),
            filtering_ms: ms(eval.report.stats.filtering),
            alignment_ms: ms(eval.report.stats.alignment),
            alignment_fraction: eval.report.stats.alignment_fraction(),
            regions_aligned: eval.report.stats.regions_aligned,
            modeled_makespan_ns: eval.modeled_makespan_ns,
            modeled_bitalign_utilization: eval.modeled_bitalign_utilization,
        }
    }
}

/// `segram eval compare`.
pub fn compare(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(COMPARE_HELP.to_owned());
    }
    options.reject_unknown(&[
        "graph",
        "reads",
        "backends",
        "threads",
        "shards",
        "preset",
        "tolerance",
        "json",
        "both-strands",
        "lenient",
    ])?;
    let graph_path = options.require("graph")?;
    let reads_path = options.require("reads")?;
    let kinds = parse_backends(
        options
            .get("backends")
            .unwrap_or("segram,graphaligner,vg,hga"),
    )?;
    let threads = thread_count(options)?;
    let shards = shard_count(options)?;
    // `--shards` configures the segram backend only; with none in the
    // list the flag would be a silent no-op, so reject it like `map` does.
    if options.get("shards").is_some() && !kinds.iter().any(|k| k.supports_shards()) {
        return Err(CliError::usage(
            "--shards only applies to the segram backend, and --backends does not \
             include segram; drop --shards or add segram to the list",
        ));
    }
    let config = preset(options.get("preset").unwrap_or("short"))?;
    let tolerance: u64 = options.number("tolerance", 150)?;
    let both = options.switch("both-strands");

    let graph = load_graph(graph_path)?;
    let reads = load_eval_reads(reads_path, ambiguity(options))?;
    if reads.is_empty() {
        return Err(CliError::usage(format!(
            "{reads_path}: no reads to compare backends on"
        )));
    }

    let mut evals = Vec::new();
    for kind in kinds {
        let backend_shards = if kind.supports_shards() { shards } else { 1 };
        let backend = Backend::build(kind, graph.clone(), config, backend_shards);
        evals.push(run_backend_eval(&backend, &reads, threads, both, tolerance));
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut report = String::new();
    let with_truth = evals.first().map_or(0, |e| e.with_truth);
    let _ = writeln!(
        report,
        "compared {} backends on {} reads ({} with truth labels; threads {threads}, \
         tolerance {tolerance})",
        evals.len(),
        reads.len(),
        with_truth
    );
    let _ = writeln!(
        report,
        "  {:<14} {:>9} {:>9} {:>10} {:>11} {:>12} {:>11} {:>7} {:>14} {:>9}",
        "backend",
        "mapped",
        "accuracy",
        "reads/s",
        "seeding-ms",
        "filtering-ms",
        "aligning-ms",
        "align%",
        "hw-makespan-us",
        "hw-util"
    );
    for eval in &evals {
        let accuracy = match eval.accuracy() {
            Some(a) => format!("{:.0}%", a * 100.0),
            None => "n/a".to_owned(),
        };
        let _ = writeln!(
            report,
            "  {:<14} {:>9} {:>9} {:>10.1} {:>11.2} {:>12.2} {:>11.2} {:>6.0}% {:>14.1} {:>8.0}%",
            eval.backend,
            format!("{}/{}", eval.report.mapped, eval.report.reads),
            accuracy,
            eval.reads_per_second(),
            ms(eval.report.stats.seeding),
            ms(eval.report.stats.filtering),
            ms(eval.report.stats.alignment),
            eval.report.stats.alignment_fraction() * 100.0,
            eval.modeled_makespan_ns / 1e3,
            eval.modeled_bitalign_utilization * 100.0
        );
    }

    if let Some(json_path) = options.get("json") {
        let doc = CompareDoc {
            threads,
            tolerance,
            backends: evals.iter().map(CompareRow::from_eval).collect(),
        };
        let text = segram_testkit::json::to_string_pretty(&doc)
            .map_err(|e| CliError::usage(format!("--json serialization failed: {e}")))?;
        write_file(json_path, &text)?;
        let _ = writeln!(report, "wrote comparison JSON to {json_path}");
    }
    Ok(report)
}

/// `segram eval`: dispatches its subcommands.
fn eval(args: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(EVAL_HELP.to_owned());
    };
    match sub.as_str() {
        "compare" => {
            let options = Options::parse(rest)?;
            compare(&options)
        }
        "--help" | "help" => Ok(EVAL_HELP.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown eval subcommand {other:?}; run `segram eval --help`"
        ))),
    }
}

/// Dispatches a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands, bad options, and any I/O or
/// parse failure; `main` prints it and exits with
/// [`CliError::exit_code`].
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(USAGE.to_owned());
    };
    // `eval` hosts subcommands of its own, so its first argument is a
    // positional name the flag parser must not see.
    if command == "eval" {
        return eval(rest);
    }
    // Likewise `index build`/`update`/`inspect`; a bare `index` stays the
    // footprint report.
    if command == "index" {
        if let Some((sub, tail)) = rest.split_first() {
            match sub.as_str() {
                "build" => return index_build(&Options::parse(tail)?),
                "update" => return index_update(&Options::parse(tail)?),
                "inspect" => return index_inspect(&Options::parse(tail)?),
                _ => {}
            }
        }
    }
    let options = Options::parse(rest)?;
    match command.as_str() {
        "construct" => construct(&options),
        "index" => index(&options),
        "map" => map(&options),
        "serve" => crate::serve::serve(&options),
        "request" => crate::serve::request(&options),
        "simulate" => simulate(&options),
        "bgzip" => bgzip(&options),
        "--help" | "help" => Ok(USAGE.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}; run `segram help`"
        ))),
    }
}

/// The DNA alphabet type, re-exported for test helpers.
pub type Seq = DnaSeq;

#[cfg(test)]
mod tests {
    use super::*;

    /// A failing split-writer sink records the first error only, cancels
    /// the run, and closes its channel so the engine-side pushes drop
    /// instead of blocking on a writer that is gone.
    #[test]
    fn split_channel_write_failure_cancels_and_closes_the_queue() {
        let queue = WorkQueue::<String>::new(8);
        let cancel = CancelToken::new();
        let error: Mutex<Option<std::io::Error>> = Mutex::new(None);

        queue.push("first".to_owned());
        queue.push("second".to_owned());
        queue.push("third".to_owned());

        let mut written = Vec::new();
        drain_split_channel(
            &queue,
            |line: &str| {
                if line == "second" {
                    return Err(std::io::Error::other("disk full"));
                }
                written.push(line.to_owned());
                Ok(())
            },
            &cancel,
            &error,
        );

        assert_eq!(written, ["first"], "drain stops at the failing line");
        assert!(cancel.is_cancelled(), "a write failure cancels the engine");
        let slot = error.lock().unwrap();
        let recorded = slot.as_ref().expect("first error recorded");
        assert_eq!(recorded.to_string(), "disk full");
        // The channel is closed: lines buffered before the failure still
        // drain, but later sink pushes drop silently (no deadlock).
        assert_eq!(queue.pop().as_deref(), Some("third"));
        queue.push("after-close".to_owned());
        assert!(queue.pop().is_none(), "pushes after close are dropped");
    }

    /// The happy path drains every line in order and leaves the run
    /// uncancelled.
    #[test]
    fn split_channel_drains_in_order_until_closed() {
        let queue = WorkQueue::<String>::new(8);
        let cancel = CancelToken::new();
        let error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        for i in 0..5 {
            queue.push(format!("line-{i}"));
        }
        queue.close();

        let mut written = Vec::new();
        drain_split_channel(
            &queue,
            |line: &str| {
                written.push(line.to_owned());
                Ok(())
            },
            &cancel,
            &error,
        );
        assert_eq!(
            written,
            (0..5).map(|i| format!("line-{i}")).collect::<Vec<_>>()
        );
        assert!(!cancel.is_cancelled());
        assert!(error.lock().unwrap().is_none());
    }
}
