//! The seven workloads, run end to end through the `segram` binary with
//! tracing off.
//!
//! Every workload goes through the same life cycle a user's store does —
//! `index build` over the base VCF (timed: `setup_s`), `index update` with
//! the delta VCF (timed: `index_update_s`), then mapping against the
//! updated store — because the benchmark driver wants every end-to-end
//! metric measured on every workload. What differs is the reference size,
//! the reads, the transport and the schedule.
//!
//! A workload is prepared once ([`prepare`]: store, reads, reference
//! document) and then measured ([`measure`]) as often as wanted.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use segram_io::fnv1a64;

use crate::check::{self, Format};
use crate::gen::{self, Reads, Reference};
use crate::proc::{self, Daemon, Finished};
use crate::stats::{median, percentile};
use crate::wire::{self, Exchange, Refusal};

/// Worker threads every `segram` invocation gets. The box has two cores;
/// the harness itself is one process with at most two client threads.
pub const THREADS: &str = "2";

/// No child the harness starts runs longer than a few seconds; ten times
/// the slowest (the one-thread reference document) is the cut-off.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Reads per bulk request and per interactive request of `serve_mixed`,
/// and how many distinct requests of each class the clients cycle through.
/// Latency follows the cost of the bulk batches a request waits behind, so
/// several distinct bulk requests keep one seed's draw from deciding it.
const BULK_READS: usize = 256;
const BULK_REQUESTS: usize = 4;
const INTERACTIVE_READS: usize = 4;
const INTERACTIVE_REQUESTS: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeated `segram map` runs over one read file.
    Map,
    /// A `segram serve` daemon under a closed loop of two connections.
    Serve,
    /// Repeated `index update` + small map + load probe on a big store.
    Lifecycle,
}

/// One workload's frozen sizes and flags.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub name: &'static str,
    pub kind: Kind,
    pub ref_len: usize,
    pub preset: &'static str,
    pub format: Format,
    pub reads: Reads,
    /// BGZF-compressed input and `--compress-output`.
    pub bgzf: bool,
    /// Scheduling flags of the measured runs (the reference document is
    /// made without them).
    pub schedule: &'static [&'static str],
}

const SHORT_READS: Reads = Reads::Short {
    count: 800,
    len: 100,
};

pub const CASES: &[Case] = &[
    Case {
        name: "short_fanout",
        kind: Kind::Map,
        ref_len: 8_000_000,
        preset: "short",
        format: Format::Sam,
        reads: SHORT_READS,
        bgzf: false,
        schedule: &[],
    },
    Case {
        name: "short_bgzf",
        kind: Kind::Map,
        ref_len: 8_000_000,
        preset: "short",
        format: Format::Sam,
        reads: SHORT_READS,
        bgzf: true,
        schedule: &[],
    },
    Case {
        name: "short_elastic",
        kind: Kind::Map,
        ref_len: 8_000_000,
        preset: "short",
        format: Format::Sam,
        reads: SHORT_READS,
        bgzf: false,
        schedule: &["--shards", "4", "--schedule", "elastic"],
    },
    Case {
        name: "long_fanout",
        kind: Kind::Map,
        ref_len: 8_000_000,
        preset: "long10",
        format: Format::Gaf,
        reads: Reads::Long {
            count: 56,
            len: 500,
        },
        bgzf: false,
        schedule: &["--batch-size", "2"],
    },
    Case {
        name: "transport_bgzf",
        kind: Kind::Map,
        ref_len: 50_000,
        preset: "short",
        format: Format::Sam,
        reads: Reads::Random {
            count: 24_000,
            len: 150,
        },
        bgzf: true,
        schedule: &[],
    },
    Case {
        name: "serve_mixed",
        kind: Kind::Serve,
        ref_len: 8_000_000,
        preset: "short",
        format: Format::Sam,
        reads: Reads::Short {
            count: BULK_REQUESTS * BULK_READS + INTERACTIVE_REQUESTS * INTERACTIVE_READS,
            len: 100,
        },
        bgzf: false,
        schedule: &[],
    },
    Case {
        name: "index_lifecycle",
        kind: Kind::Lifecycle,
        ref_len: 12_000_000,
        preset: "short",
        format: Format::Sam,
        reads: Reads::Short {
            count: 256,
            len: 100,
        },
        bgzf: false,
        schedule: &[],
    },
];

pub fn case(name: &str) -> Option<&'static Case> {
    CASES.iter().find(|c| c.name == name)
}

/// Where and how this process runs workloads: the binary, the seed, one
/// scratch directory (removed when the context drops) and the stores
/// built in it so far.
pub struct Ctx {
    /// The `segram` binary built from this checkout.
    pub segram: PathBuf,
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Workloads with the same reference and preset share one store: the
    /// three `short_*` workloads and `serve_mixed`, and the repetitions of
    /// any workload. The driver runs one workload per process, so there
    /// the cache holds one store.
    stores: RefCell<Vec<Rc<Store>>>,
}

impl Ctx {
    pub fn new(segram: PathBuf, dir: &Path, seed: u64, seconds: f64) -> Result<Self, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self {
            segram,
            dir: fs::canonicalize(dir).map_err(|e| format!("{}: {e}", dir.display()))?,
            seed,
            seconds,
            stores: RefCell::default(),
        })
    }

    /// Drops the stores built so far, so that a second set of runs builds
    /// and times its own.
    pub fn forget_stores(&self) {
        self.stores.borrow_mut().clear();
    }

    fn segram(&self, args: &[&str]) -> Command {
        let mut command = Command::new(&self.segram);
        command.args(args);
        command
    }

    pub fn run(&self, command: &mut Command) -> Result<Finished, String> {
        proc::run(command, &self.dir, CHILD_TIMEOUT)
    }

    /// The store for `case`'s reference and preset, built on first use.
    fn store(&self, case: &Case) -> Result<Rc<Store>, String> {
        let cached = self
            .stores
            .borrow()
            .iter()
            .find(|s| (s.ref_len, s.preset) == (case.ref_len, case.preset))
            .cloned();
        if let Some(store) = cached {
            return Ok(store);
        }
        let store = Rc::new(Store::build(self, case.ref_len, case.preset)?);
        self.stores.borrow_mut().push(Rc::clone(&store));
        Ok(store)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted and failed: reads, or requests for
    /// `serve_mixed`, plus one for each identity check.
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Input fingerprints and sample counts, printed with the result.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, value)| *value)
    }

    pub fn fail(&mut self, operations: u64, problem: String) {
        self.failed += operations;
        eprintln!("ledger: FAILED: {problem}");
        self.problems.push(problem);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    /// Adds what preparing measured and this pass did not measure again.
    pub fn complete(mut self, prep: &Prepared) -> Self {
        for (name, samples) in &prep.measured {
            if self.metric(name).is_none() {
                self.metrics.push((name, median(samples)));
            }
        }
        self.notes.splice(0..0, prep.notes.iter().cloned());
        self
    }
}

/// Calls `sample` at least `min` times, then until `budget_s` is spent or
/// `max` samples exist. Cheap operations get many samples, dear ones few.
fn samples(
    min: usize,
    max: usize,
    budget_s: f64,
    mut sample: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut values = Vec::new();
    while values.len() < min || (values.len() < max && started.elapsed().as_secs_f64() < budget_s) {
        values.push(sample()?);
    }
    Ok(values)
}

/// A reference's store through its life cycle, on disk: `ref.fa` and the
/// VCFs, `base.sgi` (built over the base VCF) and `ref.sgi` (the base
/// store updated with the delta VCF), which is what workloads map
/// against. Building it times each step several times.
pub struct Store {
    ref_len: usize,
    preset: &'static str,
    dir: PathBuf,
    pub reference: Reference,
    /// Wall seconds of each `index build`, `index update` and load probe.
    pub setup_s: Vec<f64>,
    pub update_s: Vec<f64>,
    pub load_s: Vec<f64>,
    pub sgi_bytes: u64,
    /// The `identity 0x...` line of `index update`'s report.
    pub identity: String,
}

fn file_len(path: &Path) -> Result<u64, String> {
    fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

impl Store {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// The updated store every mapping step runs against.
    pub fn updated(&self) -> PathBuf {
        self.path("ref.sgi")
    }

    fn build(ctx: &Ctx, ref_len: usize, preset: &'static str) -> Result<Self, String> {
        let dir = ctx.dir.join(format!("store.{ref_len}.{preset}"));
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let reference = gen::reference(ref_len, ctx.seed)?;
        gen::write_reference(&dir, &reference)?;
        gen::write(&dir.join("one.fq"), gen::probe_fastq(&reference.seq))?;
        let store = Store {
            ref_len,
            preset,
            dir,
            reference,
            setup_s: Vec::new(),
            update_s: Vec::new(),
            load_s: Vec::new(),
            sgi_bytes: 0,
            identity: String::new(),
        };
        let setup_s = samples(3, 15, 0.3, || {
            let built = store.index_build(ctx, "base.vcf", "base.sgi")?;
            Ok(built.wall.as_secs_f64())
        })?;
        let mut identity = String::new();
        let update_s = samples(3, 10, 0.5, || {
            let updated = store.index_update(ctx)?;
            if let Some(line) = updated.stdout.lines().find(|l| l.contains("identity 0x")) {
                identity = line.trim().to_owned();
            }
            Ok(updated.wall.as_secs_f64())
        })?;
        let sgi_bytes = file_len(&store.updated())?;
        let load_s = samples(5, 15, 0.5, || store.load_probe(ctx))?;
        Ok(Store {
            setup_s,
            update_s,
            load_s,
            sgi_bytes,
            identity,
            ..store
        })
    }

    /// `segram index build` over `ref.fa` and the named VCF.
    fn index_build(&self, ctx: &Ctx, vcf: &str, output: &str) -> Result<Finished, String> {
        ctx.run(ctx.segram(&["index", "build"]).args([
            "--reference".as_ref(),
            self.path("ref.fa").as_os_str(),
            "--vcf".as_ref(),
            self.path(vcf).as_os_str(),
            "--preset".as_ref(),
            self.preset.as_ref(),
            "--output".as_ref(),
            self.path(output).as_os_str(),
        ]))
    }

    /// `segram index update`: `base.sgi` + `delta.vcf` -> `ref.sgi`.
    fn index_update(&self, ctx: &Ctx) -> Result<Finished, String> {
        ctx.run(ctx.segram(&["index", "update"]).args([
            "--index".as_ref(),
            self.path("base.sgi").as_os_str(),
            "--vcf".as_ref(),
            self.path("delta.vcf").as_os_str(),
            "--output".as_ref(),
            self.updated().as_os_str(),
        ]))
    }

    /// `segram map` over one 32-base read of the reference: process start,
    /// `.sgi` read and validation, engine up and down. Wall seconds.
    fn load_probe(&self, ctx: &Ctx) -> Result<f64, String> {
        let mut command = self.map_command(
            ctx,
            Format::Sam,
            &self.path("one.fq"),
            &self.path("one.out"),
        );
        Ok(ctx
            .run(command.args(["--threads", THREADS]))?
            .wall
            .as_secs_f64())
    }

    fn map_command(&self, ctx: &Ctx, format: Format, reads: &Path, output: &Path) -> Command {
        let mut command = ctx.segram(&["map", "--both-strands"]);
        command.args([
            "--index".as_ref(),
            self.updated().as_os_str(),
            "--reads".as_ref(),
            reads.as_os_str(),
            "--preset".as_ref(),
            self.preset.as_ref(),
            "--format".as_ref(),
            format.name().as_ref(),
            "--output".as_ref(),
            output.as_os_str(),
        ]);
        command
    }
}

/// A workload ready to be measured: its store, its reads on disk and the
/// reference document. Measuring does not change it, so the repetitions of
/// a workload share one.
pub struct Prepared {
    pub store: Rc<Store>,
    pub fastq: String,
    /// The read file the measured runs get (plain or BGZF).
    pub input: PathBuf,
    /// Where the measured runs write.
    output: PathBuf,
    /// One thread, plain input, fanout, no compression. Every measured
    /// output must equal it byte for byte.
    pub reference_doc: String,
    /// What preparing measured, as samples whose median is the metric: the
    /// store's life cycle and the placement of the reference document's
    /// reads. A measuring pass that times one of these itself
    /// (`serve_mixed` adds the daemon's start to `setup_s`,
    /// `index_lifecycle` updates in every cycle) overrides it.
    pub measured: Vec<(&'static str, Vec<f64>)>,
    pub notes: Vec<(String, String)>,
}

const MIB: f64 = 1024.0 * 1024.0;

fn read_document(path: &Path, compressed: bool) -> Result<String, String> {
    let bytes = fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let plain = if compressed {
        check::inflate_bgzf(&bytes).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        bytes
    };
    String::from_utf8(plain).map_err(|_| format!("{}: not UTF-8", path.display()))
}

/// Builds (or finds) the store, generates the reads and makes the
/// reference document.
pub fn prepare(case: &Case, ctx: &Ctx) -> Result<Prepared, String> {
    let store = ctx.store(case)?;
    // The three `short_*` workloads draw the same reads from a seed, so
    // their numbers compare.
    let fastq = gen::fastq(case.reads, &store.reference.graph, ctx.seed);
    let plain_reads = ctx.dir.join(format!("{}.fq", case.name));
    gen::write(&plain_reads, &fastq)?;
    let input = if case.bgzf {
        let path = ctx.dir.join(format!("{}.fq.gz", case.name));
        gen::write(&path, gen::bgzf(fastq.as_bytes()))?;
        path
    } else {
        plain_reads.clone()
    };

    let output = ctx.dir.join(format!("{}.out", case.name));
    let mut command = store.map_command(ctx, case.format, &plain_reads, &output);
    ctx.run(command.args(["--threads", "1"]))?;
    let reference_doc = read_document(&output, false)?;
    let correct =
        check::correct_reads(&fastq, &reference_doc, case.format, &store.reference.graph)?;

    let measured = vec![
        ("setup_s", store.setup_s.clone()),
        (
            "mapped_correct_share",
            vec![correct as f64 / case.reads.count() as f64],
        ),
        ("index_update_s", store.update_s.clone()),
        ("index_load_s", store.load_s.clone()),
        ("sgi_mb", vec![store.sgi_bytes as f64 / MIB]),
    ];
    let mut notes = vec![
        (
            "fastq_fnv1a64".to_owned(),
            format!("{:#018x}", fnv1a64(fastq.as_bytes())),
        ),
        ("store".to_owned(), store.identity.clone()),
    ];
    for (name, samples) in &measured {
        notes.push((format!("samples.{name}"), samples.len().to_string()));
    }
    Ok(Prepared {
        store,
        fastq,
        input,
        output,
        reference_doc,
        measured,
        notes,
    })
}

/// One measured `segram map` run in the workload's own configuration.
pub fn measured_map(case: &Case, ctx: &Ctx, prep: &Prepared) -> Result<(Finished, String), String> {
    let _ = fs::remove_file(&prep.output);
    let mut command = prep
        .store
        .map_command(ctx, case.format, &prep.input, &prep.output);
    command.args(["--threads", THREADS]).args(case.schedule);
    if case.bgzf {
        command.arg("--compress-output");
    }
    let finished = ctx.run(&mut command)?;
    Ok((finished, read_document(&prep.output, case.bgzf)?))
}

/// A measured map run whose output is compared to the reference document;
/// a mismatch or a failing child counts the run's reads as failed.
fn checked_map(
    case: &Case,
    ctx: &Ctx,
    prep: &Prepared,
    report: &mut Report,
) -> Result<Option<Finished>, String> {
    let reads = case.reads.count() as u64;
    report.attempted += reads;
    match measured_map(case, ctx, prep) {
        Ok((finished, document)) => {
            if document != prep.reference_doc {
                report.fail(
                    reads,
                    format!("{}: output differs from the reference document", case.name),
                );
            }
            Ok(Some(finished))
        }
        Err(problem) => {
            report.fail(reads, problem);
            if report.problems.len() >= 3 {
                return Err(format!("{}: giving up after repeated failures", case.name));
            }
            Ok(None)
        }
    }
}

/// Throughput, CPU, latency and memory of repeated `segram map` runs over
/// `reads` reads each, medians over the runs. `peaks_kib` holds one memory
/// high-water mark per run.
fn map_metrics(report: &mut Report, reads: usize, runs: &[Finished], peaks_kib: &[f64]) {
    let wall: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64()).collect();
    let cpu: Vec<f64> = runs.iter().map(|r| r.cpu.as_secs_f64()).collect();
    report.metrics.extend([
        ("reads_per_s", reads as f64 / median(&wall)),
        ("cpu_ms_per_read", median(&cpu) * 1e3 / reads as f64),
        ("req_latency_tail_ms", median(&wall) * 1e3),
        ("peak_rss_mb", median(peaks_kib) / 1024.0),
    ]);
    report.note("samples.map_runs", runs.len());
}

fn measure_map(case: &Case, ctx: &Ctx, prep: &Prepared, report: &mut Report) -> Result<(), String> {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds {
        runs.extend(checked_map(case, ctx, prep, report)?);
    }
    let peaks: Vec<f64> = runs.iter().map(|r| r.peak_rss_kib as f64).collect();
    map_metrics(report, case.reads.count(), &runs, &peaks);
    Ok(())
}

fn inspect_layout(ctx: &Ctx, store: &Path) -> Result<Vec<String>, String> {
    let inspected = ctx.run(
        ctx.segram(&["index", "inspect"])
            .args(["--index".as_ref(), store.as_os_str()]),
    )?;
    // The graph and index sections (sizes and checksums) and their
    // summaries; meta and changelog differ by design (epoch, history).
    Ok(inspected
        .stdout
        .lines()
        .map(str::trim)
        .filter(|l| {
            [
                "section 1 ",
                "section 2 ",
                "graph:",
                "index:",
                "meta: frequency",
            ]
            .iter()
            .any(|prefix| l.starts_with(prefix))
        })
        .map(str::to_owned)
        .collect())
}

fn measure_lifecycle(
    case: &Case,
    ctx: &Ctx,
    prep: &Prepared,
    report: &mut Report,
) -> Result<(), String> {
    let store = &prep.store;
    // Each cycle is what a store's owner does after a new call set
    // arrives: update, then map against the updated store.
    let started = Instant::now();
    let (mut runs, mut peaks) = (Vec::new(), Vec::new());
    let (mut updates, mut loads) = (Vec::new(), Vec::new());
    while runs.len() < 3 || started.elapsed().as_secs_f64() < ctx.seconds {
        let updated = store.index_update(ctx)?;
        updates.push(updated.wall.as_secs_f64());
        if let Some(mapped) = checked_map(case, ctx, prep, report)? {
            peaks.push(updated.peak_rss_kib.max(mapped.peak_rss_kib) as f64);
            runs.push(mapped);
        }
        loads.push(store.load_probe(ctx)?);
    }

    // The incremental path must equal a scratch build over all variants.
    report.attempted += 1;
    store.index_build(ctx, "all.vcf", "scratch.sgi")?;
    let (updated, rebuilt) = (
        inspect_layout(ctx, &store.updated())?,
        inspect_layout(ctx, &store.path("scratch.sgi"))?,
    );
    if updated.len() != 5 || updated != rebuilt {
        report.fail(
            1,
            format!("updated store differs from the scratch build: {updated:?} vs {rebuilt:?}"),
        );
    }

    map_metrics(report, case.reads.count(), &runs, &peaks);
    report.metrics.extend([
        ("index_update_s", median(&updates)),
        ("index_load_s", median(&loads)),
    ]);
    report.note("samples.cycles", updates.len());
    Ok(())
}

/// What the two clients of `serve_mixed` saw.
#[derive(Default)]
pub struct ServeLoad {
    pub interactive: Vec<Exchange>,
    pub bulk: Vec<Exchange>,
    pub wall: Duration,
    /// Reads of all completed requests.
    pub reads: usize,
    pub daemon_cpu: Duration,
    pub daemon_peak_kib: u64,
    pub startup_s: Vec<f64>,
}

fn serve_command(ctx: &Ctx, store: &Store, addr_file: &Path) -> Command {
    let mut command = ctx.segram(&["serve", "--both-strands", "--quiet"]);
    command.args([
        "--index".as_ref(),
        store.updated().as_os_str(),
        "--threads".as_ref(),
        THREADS.as_ref(),
        "--preset".as_ref(),
        store.preset.as_ref(),
        "--addr-file".as_ref(),
        addr_file.as_os_str(),
    ]);
    command
}

/// A request payload and the reply document it must produce.
type Request<'a> = (&'a str, String);

/// Cuts `fastq` into requests of `reads` reads each, with the reply each
/// must produce: the reference document's header and its reads' records.
fn requests<'a>(
    mut fastq: &'a str,
    reads: usize,
    header: &str,
    records: &HashMap<&str, &str>,
) -> Result<Vec<Request<'a>>, String> {
    let mut requests = Vec::new();
    while !fastq.is_empty() {
        let payload = gen::fastq_prefix(fastq, reads);
        let mut expected = header.to_owned();
        for (id, _) in check::truths(payload) {
            expected.push_str(
                records
                    .get(id)
                    .ok_or(format!("no reference record for {id}"))?,
            );
        }
        requests.push((payload, expected));
        fastq = &fastq[payload.len()..];
    }
    Ok(requests)
}

/// The fixed request sequence: the first [`BULK_REQUESTS`] x
/// [`BULK_READS`] reads make the bulk requests client B cycles through, the
/// rest the [`INTERACTIVE_READS`]-read requests client I cycles through.
fn serve_requests<'a>(
    fastq: &'a str,
    reference_doc: &str,
) -> Result<(Vec<Request<'a>>, Vec<Request<'a>>), String> {
    let (header, records) = check::sam_records(reference_doc);
    let bulk_part = gen::fastq_prefix(fastq, BULK_REQUESTS * BULK_READS);
    Ok((
        requests(bulk_part, BULK_READS, &header, &records)?,
        requests(
            &fastq[bulk_part.len()..],
            INTERACTIVE_READS,
            &header,
            &records,
        )?,
    ))
}

/// Starts the daemon (three times: two starts are only timed) and drives
/// the closed loop for `seconds`: client B sends bulk requests back to
/// back; client I sends interactive requests back to back until B's
/// request in flight at the deadline has completed.
pub fn serve_load(
    ctx: &Ctx,
    prep: &Prepared,
    seconds: f64,
    report: &mut Report,
) -> Result<ServeLoad, String> {
    let (bulk, interactive) = serve_requests(&prep.fastq, &prep.reference_doc)?;
    let addr_file = ctx.dir.join("addr.txt");
    let mut load = ServeLoad::default();
    let mut daemon = loop {
        let mut command = serve_command(ctx, &prep.store, &addr_file);
        let daemon = Daemon::start(&mut command, &ctx.dir, &addr_file, CHILD_TIMEOUT)?;
        load.startup_s.push(daemon.startup.as_secs_f64());
        if load.startup_s.len() == 3 {
            break daemon;
        }
        daemon.stop(CHILD_TIMEOUT)?;
    };

    let addr = daemon.addr.clone();
    let bulk_done = AtomicBool::new(false);
    let started = Instant::now();
    let client = |requests: &[Request], prio: &str, stop: &dyn Fn() -> bool| {
        let mut exchanges = Vec::new();
        for (payload, _) in requests.iter().cycle() {
            exchanges.push(wire::map_request(
                &addr,
                payload.as_bytes(),
                prio,
                CHILD_TIMEOUT,
            ));
            if stop() {
                break;
            }
        }
        exchanges
    };
    std::thread::scope(|scope| {
        let bulk_client = scope.spawn(|| {
            let done = client(&bulk, "bulk", &|| {
                started.elapsed().as_secs_f64() >= seconds
            });
            bulk_done.store(true, Ordering::SeqCst);
            done
        });
        let interactive_client = scope.spawn(|| {
            client(&interactive, "interactive", &|| {
                bulk_done.load(Ordering::SeqCst)
            })
        });
        while !interactive_client.is_finished() {
            daemon.poll_rss();
            std::thread::sleep(Duration::from_millis(10));
        }
        load.bulk = bulk_client.join().expect("bulk client panicked");
        load.interactive = interactive_client
            .join()
            .expect("interactive client panicked");
    });
    load.wall = started.elapsed();
    (load.daemon_cpu, load.daemon_peak_kib) = daemon.stop(CHILD_TIMEOUT)?;

    // Every reply must be the one-shot document of its reads.
    for (class, requests, exchanges, reads) in [
        ("bulk", &bulk, &load.bulk, BULK_READS),
        (
            "interactive",
            &interactive,
            &load.interactive,
            INTERACTIVE_READS,
        ),
    ] {
        for (exchange, (_, expected)) in exchanges.iter().zip(requests.iter().cycle()) {
            report.attempted += 1;
            match &exchange.outcome {
                Ok((document, _)) if document == expected.as_bytes() => load.reads += reads,
                Ok(_) => report.fail(
                    1,
                    format!("{class} reply differs from the one-shot document"),
                ),
                Err(Refusal::Busy { queued, retry_ms }) => report.fail(
                    1,
                    format!("{class} request refused: BUSY {queued} retry-ms={retry_ms}"),
                ),
                Err(Refusal::Err(message)) => {
                    report.fail(1, format!("{class} request: ERR {message}"))
                }
                Err(Refusal::Protocol(message)) => {
                    report.fail(1, format!("{class} request: {message}"))
                }
            }
        }
    }
    Ok(load)
}

pub fn latencies_ms(exchanges: &[Exchange]) -> Vec<f64> {
    exchanges
        .iter()
        .filter(|e| e.outcome.is_ok())
        .map(|e| e.latency.as_secs_f64() * 1e3)
        .collect()
}

fn measure_serve(ctx: &Ctx, prep: &Prepared, report: &mut Report) -> Result<(), String> {
    let load = serve_load(ctx, prep, ctx.seconds, report)?;
    let interactive = latencies_ms(&load.interactive);
    if load.reads == 0 || interactive.is_empty() {
        return Err("serve_mixed: no request completed".to_owned());
    }
    report.metrics.extend([
        // Before the first read can be mapped the daemon must also be up.
        (
            "setup_s",
            median(&prep.store.setup_s) + median(&load.startup_s),
        ),
        ("reads_per_s", load.reads as f64 / load.wall.as_secs_f64()),
        (
            "cpu_ms_per_read",
            load.daemon_cpu.as_secs_f64() * 1e3 / load.reads as f64,
        ),
        ("req_latency_tail_ms", percentile(&interactive, 95.0)),
        ("peak_rss_mb", load.daemon_peak_kib as f64 / 1024.0),
    ]);
    report.note("samples.daemon_starts", load.startup_s.len());
    report.note("samples.interactive_requests", interactive.len());
    report.note("samples.bulk_requests", load.bulk.len());
    Ok(())
}

/// One measuring pass over a prepared workload, tracing off. Reports what
/// the pass itself measured; [`Report::complete`] adds the rest.
pub fn measure(case: &Case, ctx: &Ctx, prep: &Prepared) -> Result<Report, String> {
    let mut report = Report::default();
    match case.kind {
        Kind::Map => measure_map(case, ctx, prep, &mut report)?,
        Kind::Serve => measure_serve(ctx, prep, &mut report)?,
        Kind::Lifecycle => measure_lifecycle(case, ctx, prep, &mut report)?,
    }
    Ok(report)
}

/// Request payloads by read id, for tests of the request cutter.
#[cfg(test)]
fn ids(payload: &str) -> Vec<&str> {
    check::truths(payload)
        .into_iter()
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_io::write_fastq;

    #[test]
    fn serve_requests_cut_the_pool_and_expect_one_shot_documents() {
        let bulk_reads = BULK_REQUESTS * BULK_READS;
        let fastq = write_fastq(&gen::random_reads(bulk_reads + 10, 20, 5));
        let mut reference_doc = String::from("@HD\tVN:1.6\n");
        for (id, _) in check::truths(&fastq) {
            reference_doc.push_str(&format!("{id}\t4\t*\t0\n"));
        }
        let (bulk, interactive) = serve_requests(&fastq, &reference_doc).unwrap();
        assert_eq!(bulk.len(), BULK_REQUESTS);
        for (i, (payload, expected)) in bulk.iter().enumerate() {
            assert_eq!(ids(payload).len(), BULK_READS);
            assert_eq!(ids(payload)[0], format!("rand{}", i * BULK_READS));
            assert_eq!(expected.lines().count(), 1 + BULK_READS);
        }
        // 10 leftover reads: two full interactive requests and a short one.
        let sizes: Vec<usize> = interactive.iter().map(|(p, _)| ids(p).len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(ids(interactive[0].0)[0], format!("rand{bulk_reads}"));
        assert_eq!(
            interactive[2].1,
            format!(
                "@HD\tVN:1.6\nrand{}\t4\t*\t0\nrand{}\t4\t*\t0\n",
                bulk_reads + 8,
                bulk_reads + 9
            )
        );
    }

    #[test]
    fn every_workload_of_the_contract_has_a_case() {
        let cases: Vec<&str> = CASES.iter().map(|c| c.name).collect();
        assert_eq!(cases.len(), 7);
    }

    #[test]
    fn samples_respect_minimum_maximum_and_budget() {
        let mut calls = 0;
        let values = samples(3, 5, 0.0, || {
            calls += 1;
            Ok(calls as f64)
        })
        .unwrap();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        let values = samples(1, 4, 60.0, || Ok(0.0)).unwrap();
        assert_eq!(values.len(), 4);
        assert!(samples(1, 4, 60.0, || Err("boom".to_owned())).is_err());
    }
}
