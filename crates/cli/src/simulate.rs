//! `segram simulate` and `segram bgzip`: the fixture factories. One writes
//! the synthetic reference / VCF / graph / reads bundle every test, CI tier
//! and ledger workload starts from; the other BGZF-compresses a file with
//! the in-tree DEFLATE encoder so the compressed-input path has inputs
//! without external tooling.

use std::fmt::Write as _;
use std::fs;

use segram_graph::{build_graph, gfa};
use segram_io::{
    bgzf_compress, phred_from_error_rate, write_fasta, write_fastq, write_vcf, BgzfMode,
    FastaRecord, FastqRecord, BGZF_MAX_PLAIN,
};
use segram_sim::{
    generate_reference, simulate_reads, simulate_variants, ErrorProfile, GenomeConfig, ReadConfig,
    VariantConfig,
};

use crate::args::Options;
use crate::commands::write_file;
use crate::error::CliError;

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
pub(crate) fn simulate(options: &Options) -> Result<String, CliError> {
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
        write_fasta(&[FastaRecord::new("chr1", reference.clone())], 70),
    )?;
    write_file(&format!("{prefix}.vcf"), &vcf_text)?;
    write_file(&format!("{prefix}.gfa"), gfa::to_gfa(&built.graph))?;
    write_file(&format!("{prefix}.fq"), write_fastq(&fastq))?;

    let stats = built.graph.stats();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "wrote {prefix}.fa ({length} bp), {prefix}.vcf, {prefix}.gfa ({} nodes), {prefix}.fq ({read_count} reads x {read_len} bp)",
        stats.node_count
    );
    Ok(report)
}

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
pub(crate) fn bgzip(options: &Options) -> Result<String, CliError> {
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
    write_file(output, &compressed)?;

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
