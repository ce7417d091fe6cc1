//! `ledger` — the repository's benchmark.
//!
//! Two ways to run it, both from the root of a checkout:
//!
//! * as the benchmark driver does,
//!   `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//!   one run of one workload, whose last line of output is one JSON object
//!   with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//!   (`--trace 1`);
//! * as a person does, `ledger [--seed 11] [--workload <name>]
//!   [--no-trace | --trace-only] [--check-repeat]`: every workload, five
//!   measuring passes each, every metric by name with unit, median,
//!   quartiles and sample count, plus one traced run per workload.
//!
//! See `README.md` next to this package for the metric definitions.

mod check;
mod gen;
mod layers;
mod proc;
mod spec;
mod stats;
mod trace;
mod wire;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use segram_testkit::json::{self, Json, Serialize};
use spec::{Better, Metric};
use workloads::{Case, Ctx, Report};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    check_repeat: bool,
    trace_only: bool,
    no_trace: bool,
}

const USAGE: &str = "\
usage: ledger [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
              [--check-repeat] [--trace-only] [--no-trace]

With --trace, runs one workload once and prints one JSON result line (the
benchmark driver's protocol). Without it, prepares every workload (or the
one named), measures it five times with tracing off, then once traced, and
prints every metric with median, quartiles and sample count. --check-repeat
runs two such sets and fails if any pair of medians differs by more than
the bound.";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        check_repeat: false,
        trace_only: false,
        no_trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--check-repeat" => args.check_repeat = true,
            "--trace-only" => args.trace_only = true,
            "--no-trace" => args.no_trace = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if workloads::case(name).is_none() {
            let known: Vec<&str> = workloads::CASES.iter().map(|c| c.name).collect();
            return Err(format!("unknown workload {name:?} (one of {known:?})"));
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_owned());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Cargo's target directory for this checkout: where the `segram` binary
/// is built and where the ledger keeps its scratch files.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the `segram` binary of the checkout the ledger runs in. The
/// benchmark measures the program as built from the source beside it,
/// never a binary left over from another commit.
fn build_segram() -> Result<PathBuf, String> {
    let target = target_dir();
    let status = Command::new("cargo")
        .args(["build", "--release", "--locked", "--offline", "--quiet"])
        .args(["-p", "segram-cli", "--bin", "segram"])
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building segram failed: {status}"));
    }
    let binary = target.join("release").join("segram");
    fs::canonicalize(&binary).map_err(|e| format!("{}: {e}", binary.display()))
}

fn first_line(command: &mut Command) -> String {
    command
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where the numbers come from: a different host or toolchain is flagged
/// instead of read as a performance change.
fn host_fingerprint(seed: u64) -> Vec<(String, String)> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    [
        ("nproc", nproc().to_string()),
        ("cpu", cpu.to_owned()),
        ("kernel", kernel.trim().to_owned()),
        ("rustc", first_line(Command::new("rustc").arg("-V"))),
        (
            "commit",
            first_line(Command::new("git").args(["rev-parse", "HEAD"])),
        ),
        ("seed", seed.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The scratch directory and store cache of this process. The directory is
/// removed when the context drops; span files stay beside it.
fn context(args: &Args, segram: PathBuf) -> Result<Ctx, String> {
    let dir = seed_dir(args.seed).join(format!("work.{}", std::process::id()));
    Ctx::new(segram, &dir, args.seed, args.seconds)
}

fn seed_dir(seed: u64) -> PathBuf {
    target_dir().join("ledger").join(seed.to_string())
}

/// One run of one workload: prepare, then one measuring pass or the
/// traced run. Every metric of the run's kind must come out as a number.
fn run_once(case: &Case, ctx: &Ctx, traced: bool) -> Result<Report, String> {
    let prep = workloads::prepare(case, ctx)?;
    let report = if traced {
        let trace_file = seed_dir(ctx.seed).join(format!("trace_{}.json", case.name));
        layers::run_traced(case, ctx, &prep, &trace_file)?
    } else {
        workloads::measure(case, ctx, &prep)?.complete(&prep)
    };
    for metric in spec::metrics(traced) {
        match report.metric(metric.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("{}: {} is {v}", case.name, metric.name)),
            None => return Err(format!("{}: {} was not measured", case.name, metric.name)),
        }
    }
    Ok(report)
}

fn json_object(pairs: &[(String, String)]) -> Json {
    Json::Object(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::String(v.clone())))
            .collect(),
    )
}

fn print_json(value: &Json) {
    println!(
        "{}",
        json::to_string(value).expect("the JSON model is total")
    );
}

/// The result line of the driver's protocol.
fn result_line(report: &Report, metrics: &[Metric]) -> Json {
    let values = metrics
        .iter()
        .filter_map(|m| {
            let fields = vec![
                ("value".to_owned(), report.metric(m.name)?.to_json()),
                ("unit".to_owned(), Json::String(m.unit.to_owned())),
            ];
            Some((m.name.to_owned(), Json::Object(fields)))
        })
        .collect();
    Json::Object(vec![
        ("correct".to_owned(), Json::Bool(report.failed == 0)),
        ("attempted".to_owned(), report.attempted.max(1).to_json()),
        ("failed".to_owned(), report.failed.to_json()),
        ("metrics".to_owned(), Json::Object(values)),
    ])
}

fn driver_run(args: &Args, case: &Case, traced: bool) -> Result<bool, String> {
    // A checkout whose `segram` does not build cannot be measured at all:
    // that is an error with no result line.
    let ctx = context(args, build_segram()?)?;
    // A run that could not finish is one failed operation with no
    // metrics, never a missing row.
    let report = run_once(case, &ctx, traced).unwrap_or_else(|problem| {
        eprintln!("ledger: FAILED: {problem}");
        Report {
            attempted: 1,
            failed: 1,
            ..Report::default()
        }
    });
    let mut fingerprint = host_fingerprint(args.seed);
    fingerprint.push(("workload".to_owned(), case.name.to_owned()));
    fingerprint.extend(report.notes.iter().cloned());
    print_json(&Json::Object(vec![(
        "fingerprint".to_owned(),
        json_object(&fingerprint),
    )]));
    print_json(&result_line(&report, spec::metrics(traced)));
    Ok(report.failed == 0)
}

/// Per workload and metric, the values of one set of runs.
type Set = BTreeMap<(&'static str, &'static str), Vec<f64>>;

fn summary(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    format!(
        "median {:.6} q1 {:.6} q3 {:.6} spread {:.1}% n={}",
        stats::median(values),
        q1,
        q3,
        stats::relative_iqr(values) * 100.0,
        values.len()
    )
}

/// Prepares every selected workload once and measures it
/// [`spec::REPETITIONS`] times with tracing off, then prints each
/// end-to-end metric over its samples: one per pass for what a pass
/// measures, the store's own builds, updates and probes for the rest.
/// Returns the samples and whether all was correct.
fn end_to_end_set(cases: &[&'static Case], ctx: &Ctx) -> (Set, bool) {
    let mut set = Set::new();
    let mut correct = true;
    for case in cases {
        let prep = workloads::prepare(case, ctx);
        let mut passes = Vec::new();
        match &prep {
            Ok(prep) => {
                println!("{} inputs: {:?}", case.name, prep.notes);
                passes.extend((0..spec::REPETITIONS).map(|_| workloads::measure(case, ctx, prep)));
            }
            Err(problem) => passes.push(Err(problem.clone())),
        }
        let (mut attempted, mut failed) = (0, 0);
        for pass in passes {
            match pass {
                Ok(report) => {
                    attempted += report.attempted;
                    failed += report.failed;
                    for (name, value) in report.metrics {
                        set.entry((case.name, name)).or_default().push(value);
                    }
                }
                // A pass that could not finish is one failed operation,
                // never a silently missing row.
                Err(problem) => {
                    eprintln!("ledger: FAILED: {problem}");
                    attempted += 1;
                    failed += 1;
                }
            }
        }
        // What no pass measures comes from preparing, with its own samples.
        for (name, samples) in prep.iter().flat_map(|p| &p.measured) {
            set.entry((case.name, name))
                .or_insert_with(|| samples.clone());
        }
        correct &= failed == 0;
        for metric in spec::END_TO_END {
            match set.get(&(case.name, metric.name)) {
                Some(values) => println!(
                    "{:<16} {:<22} {:<8} {} ({} is better, bound {})",
                    case.name,
                    metric.name,
                    metric.unit,
                    summary(values),
                    metric.better.as_str(),
                    metric.bound.expect("end-to-end metrics have bounds"),
                ),
                None => {
                    println!("{:<16} {:<22} no pass finished", case.name, metric.name);
                    correct = false;
                }
            }
        }
        println!(
            "{:<16} failed_share {failed}/{attempted} operations",
            case.name
        );
    }
    (set, correct)
}

fn traced_set(cases: &[&'static Case], ctx: &Ctx) -> bool {
    let mut correct = true;
    for case in cases {
        match run_once(case, ctx, true) {
            Ok(report) => {
                correct &= report.failed == 0;
                println!("{} trace: {:?}", case.name, report.notes);
                for metric in spec::PER_LAYER {
                    let value = report.metric(metric.name).expect("checked by run_once");
                    println!(
                        "{:<16} {:<32} {:<8} {value:.6}",
                        case.name, metric.name, metric.unit
                    );
                }
            }
            Err(problem) => {
                eprintln!("ledger: FAILED: {problem}");
                correct = false;
            }
        }
    }
    correct
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(metric: &Metric, first: f64, second: f64) -> f64 {
    match metric.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Prints both medians of every workload x end-to-end metric with their
/// relative difference; false if any pair disagrees by more than its bound
/// in either direction.
fn compare_sets(first: &Set, second: &Set) -> bool {
    let mut agree = true;
    for ((workload, name), a) in first {
        let metric = spec::END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("sets hold end-to-end metrics");
        let bound = metric.bound.expect("end-to-end metrics have bounds");
        let Some(b) = second.get(&(*workload, *name)) else {
            println!("{workload:<16} {name:<22} missing from the second set");
            agree = false;
            continue;
        };
        let (a, b) = (stats::median(a), stats::median(b));
        let worse = worsening(metric, a, b);
        let ok = worse.abs() <= bound;
        agree &= ok;
        println!(
            "{workload:<16} {name:<22} first {a:.6} second {b:.6} worse by {:+.2}% bound {:.1}% {}",
            worse * 100.0,
            bound * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    agree
}

fn human_run(args: &Args) -> Result<bool, String> {
    let cases: Vec<&'static Case> = workloads::CASES
        .iter()
        .filter(|c| args.workload.as_deref().is_none_or(|name| name == c.name))
        .collect();
    let ctx = context(args, build_segram()?)?;
    println!("host: {:?}", host_fingerprint(args.seed));
    let mut correct = true;
    if !args.trace_only {
        let (first, ok) = end_to_end_set(&cases, &ctx);
        correct &= ok;
        if args.check_repeat {
            ctx.forget_stores();
            let (second, ok) = end_to_end_set(&cases, &ctx);
            correct &= ok;
            correct &= compare_sets(&first, &second);
        }
    }
    if !args.no_trace {
        correct &= traced_set(&cases, &ctx);
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    if nproc() < 2 {
        // Every workload runs two workers beside the harness; on one core
        // the numbers would be flat lines, not measurements.
        eprintln!(
            "not measurable: {} core(s), the load shape needs 2",
            nproc()
        );
        return ExitCode::from(1);
    }
    let outcome = match (args.trace, args.workload.as_deref()) {
        (Some(traced), Some(name)) => {
            let case = workloads::case(name).expect("checked while parsing");
            driver_run(&args, case, traced)
        }
        _ => human_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(problem) => {
            eprintln!("ledger: {problem}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.1),
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(&metric(Better::Lower), 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&metric(Better::Higher), 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worsening(&metric(Better::Higher), 100.0, 80.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_protocol_keys_and_every_metric() {
        let report = Report {
            metrics: vec![("reads_per_s", 1234.5), ("setup_s", 0.25)],
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        let line = json::to_string(&result_line(&report, &spec::END_TO_END[..1])).unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":10,\"failed\":1,\"metrics\":\
             {\"reads_per_s\":{\"value\":1234.5,\"unit\":\"reads/s\"}}}"
        );
        // A run that could not finish: failed, with no metrics.
        let unfinished = Report {
            attempted: 1,
            failed: 1,
            ..Report::default()
        };
        assert_eq!(
            json::to_string(&result_line(&unfinished, spec::END_TO_END)).unwrap(),
            "{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{}}"
        );
    }

    #[test]
    fn sets_within_bounds_agree_and_outliers_do_not() {
        let mut first = Set::new();
        first.insert(("short_fanout", "reads_per_s"), vec![100.0, 102.0, 98.0]);
        let mut second = first.clone();
        assert!(compare_sets(&first, &second));
        second.insert(("short_fanout", "reads_per_s"), vec![60.0, 61.0, 59.0]);
        assert!(!compare_sets(&first, &second));
        second.clear();
        assert!(!compare_sets(&first, &second));
    }
}
