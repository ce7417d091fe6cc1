//! `segram eval` and its `compare` subcommand: one materialized read set
//! through several mappers — the native index and the software baselines,
//! the paper's comparison instruments, which the binary runs nowhere
//! else — every one of them driven by the same engine and the same
//! measurement path, rendered as one table (and, with `--json`, one
//! artifact).

use std::fmt::Write as _;
use std::time::Duration;

use segram_core::{
    run_backend_eval, BackendEval, BaselineAdapter, EvalRead, GraphAlignerLike, HgaLike,
    ShardedIndex, VgLike,
};
use segram_io::{Ambiguity, RawFastqRecord};
use segram_testkit::Serialize;

use crate::args::Options;
use crate::commands::{
    ambiguity, load_graph, preset, shard_count, thread_count, warn_clamped_shards, write_file,
};
use crate::error::CliError;
use crate::map::open_reads;

/// The mappers `eval compare` knows, by name, in the evaluation's order.
const BACKENDS: [&str; 4] = ["segram", "graphaligner", "vg", "hga"];

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
    --reads <reads.fq>     input FASTQ, plain or BGZF-compressed (required,
                           read as `segram map` reads it); records carrying
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
fn parse_backends(list: &str) -> Result<Vec<&'static str>, CliError> {
    let mut names = Vec::new();
    for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let Some(known) = BACKENDS.into_iter().find(|&known| known == name) else {
            return Err(CliError::usage(format!(
                "unknown backend {name:?} in --backends (expected a comma-separated \
                 subset of segram,graphaligner,vg,hga)"
            )));
        };
        if !names.contains(&known) {
            names.push(known);
        }
    }
    if names.is_empty() {
        return Err(CliError::usage(
            "--backends names no backends (expected e.g. segram,vg)",
        ));
    }
    Ok(names)
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
/// The file is opened, framed and decoded as `segram map` does it, so
/// plain and BGZF input give the same reads.
fn load_eval_reads(reads_path: &str, ambiguity: Ambiguity) -> Result<Vec<EvalRead>, CliError> {
    let decode = |raw: Result<RawFastqRecord, CliError>| {
        let record = raw?
            .decode(ambiguity)
            .map_err(|err| CliError::stream(err, reads_path, reads_path))?;
        Ok(EvalRead {
            truth_linear: truth_linear(&record.description),
            seq: record.seq,
        })
    };
    let (reads, _) = open_reads(reads_path)?.frame(reads_path, |raws| raws.map(decode).collect());
    reads
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
fn compare(options: &Options) -> Result<String, CliError> {
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
    let names = parse_backends(
        options
            .get("backends")
            .unwrap_or("segram,graphaligner,vg,hga"),
    )?;
    let threads = thread_count(options)?;
    let shards = shard_count(options)?;
    // `--shards` configures the segram backend only; with none in the
    // list the flag would be a silent no-op, so reject it.
    if options.get("shards").is_some() && !names.contains(&"segram") {
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

    // Each name builds its own mapper over a copy of the graph; the native
    // one is the index `segram map` runs, at `--shards`.
    let mut evals = Vec::new();
    for name in names {
        let graph = graph.clone();
        let eval = match name {
            "segram" => {
                let index = ShardedIndex::build(graph, config, shards);
                warn_clamped_shards(shards, &index);
                run_backend_eval(&index, &reads, threads, both, tolerance)
            }
            "graphaligner" => {
                let adapter =
                    BaselineAdapter::new(GraphAlignerLike::new(graph, config), config, name);
                run_backend_eval(&adapter, &reads, threads, both, tolerance)
            }
            "vg" => {
                let adapter = BaselineAdapter::new(VgLike::new(graph, config), config, name);
                run_backend_eval(&adapter, &reads, threads, both, tolerance)
            }
            // "hga", the last name `parse_backends` admits.
            _ => {
                let adapter = BaselineAdapter::new(HgaLike::new(graph), config, name);
                run_backend_eval(&adapter, &reads, threads, both, tolerance)
            }
        };
        evals.push(eval);
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
pub(crate) fn eval(args: &[String]) -> Result<String, CliError> {
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
