//! The command table: [`USAGE`], [`dispatch`], and the option parsers and
//! file helpers more than one subcommand shares. The subcommands
//! themselves live one module each — `index` (with `construct`), `map`,
//! `eval`, `simulate` (with `bgzip`), and the daemon pair in `serve`.
//!
//! Each command is a pure function from parsed [`Options`] to a
//! human-readable report string; file I/O happens at the edges so the
//! integration tests can drive commands exactly as the binary does.

use std::fs;
use std::path::Path;

use segram_core::{SegramConfig, ShardedIndex};
use segram_graph::{gfa, GenomeGraph};
use segram_io::Ambiguity;

use crate::args::Options;
use crate::error::CliError;
use crate::{eval, index, map, serve, simulate};

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

pub(crate) fn read_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::io(path, e))
}

/// Creates the directories an output path sits in, so every command that
/// writes a file accepts a path into a directory that does not exist yet.
pub(crate) fn ensure_parent(path: &str) -> Result<(), CliError> {
    match Path::new(path).parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            fs::create_dir_all(parent).map_err(|e| CliError::io(path, e))
        }
        _ => Ok(()),
    }
}

pub(crate) fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    ensure_parent(path)?;
    fs::write(path, contents).map_err(|e| CliError::io(path, e))
}

pub(crate) fn ambiguity(options: &Options) -> Ambiguity {
    if options.switch("lenient") {
        Ambiguity::Substitute(segram_graph::Base::A)
    } else {
        Ambiguity::Reject
    }
}

pub(crate) fn load_graph(path: &str) -> Result<GenomeGraph, CliError> {
    let text = read_file(path)?;
    Ok(gfa::from_gfa(&text)?)
}

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

/// `--<key> N` with `N >= 1`, or `None` when the option is absent: the
/// one grammar of `--threads`, `--shards` and `--batch-size`.
pub(crate) fn positive_count(options: &Options, key: &str) -> Result<Option<usize>, CliError> {
    match options.get(key).map(|text| (text, text.parse::<usize>())) {
        None => Ok(None),
        Some((_, Ok(n))) if n >= 1 => Ok(Some(n)),
        Some((text, _)) => Err(CliError::usage(format!(
            "--{key}: expected a count of at least 1, got {text:?}"
        ))),
    }
}

/// Worker-thread count for `segram map` / `segram serve`: `--threads N`,
/// or every available core when the option is absent.
pub(crate) fn thread_count(options: &Options) -> Result<usize, CliError> {
    Ok(positive_count(options, "threads")?.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }))
}

/// Index-shard count for `segram map` / `segram serve`: `--shards N`
/// (default 1 = the whole index in one shard).
pub(crate) fn shard_count(options: &Options) -> Result<usize, CliError> {
    Ok(positive_count(options, "shards")?.unwrap_or(1))
}

/// Worker schedule for `segram map` / `segram serve`: the default fanout
/// (one shared queue) or the elastic per-shard-group pool schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Every worker serves every batch, in push order.
    Fanout,
    /// Per-shard-group worker pools over a boot-time shard placement,
    /// with routed batches and stealing (`segram_core::elastic_route`).
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
        return eval::eval(rest);
    }
    // Likewise `index build`/`update`/`inspect`; a bare `index` stays the
    // footprint report.
    if command == "index" {
        if let Some((sub, tail)) = rest.split_first() {
            match sub.as_str() {
                "build" => return index::index_build(&Options::parse(tail)?),
                "update" => return index::index_update(&Options::parse(tail)?),
                "inspect" => return index::index_inspect(&Options::parse(tail)?),
                _ => {}
            }
        }
    }
    let options = Options::parse(rest)?;
    match command.as_str() {
        "construct" => index::construct(&options),
        "index" => index::index(&options),
        "map" => map::map(&options),
        "serve" => serve::serve(&options),
        "request" => serve::request(&options),
        "simulate" => simulate::simulate(&options),
        "bgzip" => simulate::bgzip(&options),
        "--help" | "help" => Ok(USAGE.to_owned()),
        other => Err(CliError::usage(format!(
            "unknown command {other:?}; run `segram help`"
        ))),
    }
}
