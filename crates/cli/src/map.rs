//! `segram map`: stream a FASTQ — plain or BGZF — through the engine and
//! write SAM and/or GAF.
//!
//! There is one output path. A run writes a list of one or two documents
//! (`--output`/`--format`, or the split `--output-sam` + `--output-gaf`
//! pass); each is a [`DocWriter`] — the type `segram serve` renders its
//! replies with — over a [`MapTarget`], and the engine's writer thread
//! renders every released record into every document, inline. The one
//! piece of byte work that leaves that thread is deflate (a
//! [`DeflateThread`] per `--compress-output` document): it is the only
//! output step measured to cost more than the hand-off (README, "Compressed
//! IO").

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Cursor, Read, Write};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use segram_core::{
    elastic_route, gaf_record_for, sam_record_for, CancelToken, EngineOptions, EngineReport,
    MapEngine, ReadMapper, ReadOutcome, ShardPlacement, ShardedIndex,
};
use segram_filter::FilterSpec;
use segram_graph::GenomeGraph;
use segram_io::{
    looks_like_gzip, Ambiguity, BgzfFastqFramer, BgzfMode, BgzfWriter, FastqFramer, FastqRecord,
    GafWriter, RawFastqRecord, SamWriter, StreamError, BGZF_MAX_PLAIN,
};

use crate::args::Options;
use crate::commands::{
    ambiguity, ensure_parent, load_graph, positive_count, preset, schedule_kind, shard_count,
    thread_count, warn_clamped_shards, Schedule,
};
use crate::error::CliError;
use crate::index::load_backend;

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
                           fraction; --shards splits the loaded store)
    --reads <reads.fq>     input FASTQ, plain or BGZF-compressed (required;
                           the container is auto-detected by its gzip
                           magic — the producer-side transport stage
                           inflates it into the same records plain input
                           gives)
    --output <path>        output file (default: stdout section of report)
    --format <sam|gaf>     output format (default sam)
    --output-sam <path>    split emission: write SAM here and (with
                           --output-gaf) GAF in the same pass, through the
                           same writer as a single document; exclusive
                           with --output/--format
    --output-gaf <path>    split emission: the GAF half (see --output-sam)
    --batch-size <n>       reads per engine batch (default 16); output
                           bytes do not depend on it
    --threads <int>        worker threads (default: all available cores)
    --shards <int>         split the index into N coordinate-range shards
                           behind the seeding router (default 1 = the
                           whole index in one shard; the software analogue
                           of the paper's per-HBM-channel accelerator
                           instances)
    --schedule <fanout|elastic>
                           worker schedule (default fanout: every worker
                           serves every batch). elastic gives each shard
                           group a worker pool, tags batches with their
                           dominant shard group (idle pools steal) over a
                           placement fixed at start; output bytes are
                           identical either way
    --preset <short|long5|long10>
                           mapper preset (default short)
    --filter <none|base-count|qgram|shd|snake|cascade>
                           pre-alignment filter (default none, as in the
                           paper)
    --both-strands         also try each read's reverse complement
    --compress-output      BGZF-compress the output document(s), each on a
                           deflate thread of its own (requires a file
                           output; a clean close appends the canonical
                           28-byte EOF marker)
    --lenient              substitute ambiguous read bases instead of failing
";

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

/// The opened reads file with its sniffed head re-attached, so the plain
/// and the BGZF framer alike see the stream from byte zero.
type ReadsSource = std::io::Chain<Cursor<Vec<u8>>, fs::File>;

/// An opened `--reads` file, classified by its leading magic bytes.
pub(crate) struct MapReads {
    source: ReadsSource,
    /// The file starts with the gzip magic: BGZF path.
    compressed: bool,
}

impl MapReads {
    /// Hands `consume` the file's raw records from the transport stage —
    /// the plain framer or the BGZF one, the only place the input encoding
    /// shows — and returns what it returns with the time spent inflating
    /// (zero for plain input).
    pub(crate) fn frame<T>(
        self,
        reads_path: &str,
        consume: impl FnOnce(&mut dyn Iterator<Item = Result<RawFastqRecord, CliError>>) -> T,
    ) -> (T, Duration) {
        if self.compressed {
            let mut framer = BgzfFastqFramer::new(self.source);
            let consumed = consume(
                &mut framer
                    .by_ref()
                    .map(|record| record.map_err(|err| CliError::bgzf(reads_path, err))),
            );
            (consumed, framer.inflate_time())
        } else {
            let consumed =
                consume(&mut FastqFramer::new(self.source).map(|record| {
                    record.map_err(|err| CliError::stream(err, reads_path, reads_path))
                }));
            (consumed, Duration::ZERO)
        }
    }
}

/// Opens the reads file and sniffs the first two bytes for the gzip
/// magic (BGZF members are gzip members). The consumed head is chained
/// back in front of the file handle.
pub(crate) fn open_reads(reads_path: &str) -> Result<MapReads, CliError> {
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

/// Output format of one document — `--format`, the split options' baked-in
/// formats, and the `fmt` of a `segram serve` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DocFormat {
    Sam,
    Gaf,
}

impl DocFormat {
    pub(crate) fn parse(name: &str) -> Option<Self> {
        match name {
            "sam" => Some(Self::Sam),
            "gaf" => Some(Self::Gaf),
            _ => None,
        }
    }

    /// The name reports spell it by (`wrote SAM to ...`).
    fn label(self) -> &'static str {
        match self {
            Self::Sam => "SAM",
            Self::Gaf => "GAF",
        }
    }
}

/// One SAM or GAF document being written to `W`: the only place in the
/// CLI that turns a mapped read into output bytes, for `map`'s files and
/// report buffer and for `serve`'s replies alike.
pub(crate) enum DocWriter<W: Write> {
    Sam(SamWriter<W>),
    Gaf(GafWriter<W>),
}

impl<W: Write> DocWriter<W> {
    /// Opens the document on `sink`. SAM gets its header (one reference
    /// sequence spanning the graph); GAF has none.
    pub(crate) fn new(format: DocFormat, sink: W, graph: &GenomeGraph) -> io::Result<Self> {
        Ok(match format {
            DocFormat::Sam => Self::Sam(SamWriter::new(sink, "graph", graph.total_chars())?),
            DocFormat::Gaf => Self::Gaf(GafWriter::new(sink)),
        })
    }

    /// Renders one read's outcome and appends it. A sink failure is
    /// [`StreamError::Io`]; a mapping whose graph path does not fit
    /// `graph` is [`StreamError::Format`].
    pub(crate) fn write(
        &mut self,
        record: &FastqRecord,
        outcome: &ReadOutcome,
        graph: &GenomeGraph,
    ) -> Result<(), StreamError> {
        match self {
            Self::Sam(w) => {
                let rec = sam_record_for(&record.id, &record.seq, outcome);
                w.write_line(&rec.to_sam_line())?;
            }
            Self::Gaf(w) => {
                // GAF carries no unmapped records.
                if let Some(rec) = gaf_record_for(&record.id, &record.seq, graph, outcome)? {
                    w.write_record(&rec)?;
                }
            }
        }
        Ok(())
    }

    /// Flushes and returns the sink.
    pub(crate) fn finish(self) -> io::Result<W> {
        match self {
            Self::Sam(w) => w.finish(),
            Self::Gaf(w) => w.finish(),
        }
    }
}

/// Member-sized plain buffers in flight between a document's writer and
/// its deflate thread: enough to ride out a slow member, small enough
/// (4 x 57 kB) not to show in the run's peak memory.
const DEFLATE_QUEUE_MEMBERS: usize = 4;

/// A `--compress-output` target: the front half is a [`Write`] that only
/// gathers plain bytes into member-sized buffers; a thread that owns the
/// [`BgzfWriter`] deflates them and writes the members to `W`.
///
/// The bytes are those of an inline `BgzfWriter` by construction — it cuts
/// members by byte offset, not by how its input was chunked. A sink error
/// stops the thread, which cancels the run at once; the error itself comes
/// back from the next hand-off or from [`finish`](Self::finish), once.
/// Dropping the target without `finish` joins the thread and leaves the
/// stream without its EOF marker — how a truncated file should look.
struct DeflateThread<W: Write> {
    /// Plain bytes not handed off yet.
    buffer: Vec<u8>,
    tx: Option<SyncSender<Vec<u8>>>,
    thread: Option<JoinHandle<io::Result<BgzfWriter<W>>>>,
}

impl<W: Write> DeflateThread<W> {
    /// Ends the hand-off and collects the thread: its writer once the
    /// queue has drained, or the sink error that stopped it. A thread
    /// already collected reads as a broken pipe, so an error surfaces once.
    fn join(&mut self) -> io::Result<BgzfWriter<W>> {
        self.tx = None;
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("the deflate thread panicked")),
            None => Err(io::ErrorKind::BrokenPipe.into()),
        }
    }

    /// Sends the gathered bytes to the thread.
    fn hand_off(&mut self) -> io::Result<()> {
        let full = std::mem::replace(&mut self.buffer, Vec::with_capacity(BGZF_MAX_PLAIN));
        if self.tx.as_ref().is_some_and(|tx| tx.send(full).is_ok()) {
            return Ok(());
        }
        // The receiver is gone: the thread stopped on a sink error.
        self.join()?;
        Err(io::ErrorKind::BrokenPipe.into())
    }

    /// Clean close: the tail member, the EOF marker, a flushed sink.
    fn finish(mut self) -> io::Result<W> {
        self.hand_off()?;
        self.join()?.finish()
    }
}

impl<W: Write + Send + 'static> DeflateThread<W> {
    fn spawn(sink: W, cancel: CancelToken) -> Self {
        let (tx, rx) = sync_channel::<Vec<u8>>(DEFLATE_QUEUE_MEMBERS);
        let thread = std::thread::spawn(move || {
            let mut writer = BgzfWriter::new(sink, BgzfMode::Fixed);
            for plain in rx {
                if let Err(err) = writer.write_all(&plain) {
                    cancel.cancel();
                    // Returning drops `rx`: the front half's next send
                    // fails, and it comes here for the error.
                    return Err(err);
                }
            }
            Ok(writer)
        });
        Self {
            buffer: Vec::with_capacity(BGZF_MAX_PLAIN),
            tx: Some(tx),
            thread: Some(thread),
        }
    }
}

impl<W: Write> Write for DeflateThread<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buffer.extend_from_slice(buf);
        if self.buffer.len() >= BGZF_MAX_PLAIN {
            self.hand_off()?;
        }
        Ok(buf.len())
    }

    /// Nothing to flush on this side: the thread's `BgzfWriter` holds the
    /// member being filled until `finish`.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl<W: Write> Drop for DeflateThread<W> {
    fn drop(&mut self) {
        // Joined here so the thread has closed its file before the
        // cleanup guard (declared earlier, dropped later) unlinks it.
        let _ = self.join();
    }
}

/// Where a document's bytes go: a buffered file, written inline; a
/// BGZF-compressing file (`--compress-output`), deflated on a thread of
/// its own; or an in-memory buffer that is appended to the report (the
/// no-`--output` case).
enum MapTarget {
    File(BufWriter<fs::File>),
    Bgzf(DeflateThread<BufWriter<fs::File>>),
    Memory(Vec<u8>),
}

impl MapTarget {
    /// Clean close: flushes a plain file, or cuts the tail member and
    /// appends the canonical BGZF EOF marker. (An error path never gets
    /// here, so an aborted compressed document stays EOF-less — readers
    /// classify it as truncated.) Hands back the in-memory document.
    fn finish(self) -> io::Result<Option<Vec<u8>>> {
        match self {
            Self::File(mut w) => w.flush().map(|()| None),
            Self::Bgzf(w) => w.finish().map(|_| None),
            Self::Memory(buffer) => Ok(Some(buffer)),
        }
    }
}

impl Write for MapTarget {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::File(w) => w.write(buf),
            Self::Bgzf(w) => w.write(buf),
            Self::Memory(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::File(w) => w.flush(),
            Self::Bgzf(w) => w.flush(),
            Self::Memory(w) => w.flush(),
        }
    }
}

/// One document `segram map` was asked for: its format, and the file it
/// goes to (`None` = rendered into the report).
#[derive(Clone, Copy, Debug)]
struct DocSpec<'a> {
    format: DocFormat,
    path: Option<&'a str>,
}

impl DocSpec<'_> {
    /// The name errors and reports call this document by.
    fn name(&self) -> &str {
        self.path.unwrap_or("<report>")
    }
}

/// Everything one engine pass produces that the report needs.
struct EngineRun {
    /// The engine's totals, with the per-pool depth/stall/batch counters
    /// whatever the schedule.
    report: EngineReport,
    /// The report's closing lines: where each document went, or the
    /// rendered document itself when no `--output` path was given.
    output: String,
}

/// Removes partially written output files on drop unless emptied first
/// — the one cleanup path for the header-failure case, the post-run
/// failure case, and every early `?` in between, so no truncated document
/// ever survives an error. Declare it *before* the writers: drop order
/// then guarantees the `BufWriter` handles are flushed and closed — and a
/// [`DeflateThread`] joined — before the files are unlinked. Holds up to
/// two paths (the split SAM+GAF pass), and only ever paths of regular
/// files this run created (see [`create_output`]).
struct OutputCleanup<'a>(Vec<&'a str>);

impl Drop for OutputCleanup<'_> {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = fs::remove_file(path);
        }
    }
}

/// Creates an output file (with parent directories), arming the cleanup
/// guard only for what this run may unlink: the create succeeded — a
/// failed create (say, an unwritable pre-existing file) must never remove
/// a file this run did not produce — and the handle is a regular file.
/// `--output /dev/null`, a FIFO, a socket or a tty existed before the run
/// and is someone else's to remove.
fn create_output<'a>(
    path: &'a str,
    cleanup: &mut OutputCleanup<'a>,
) -> Result<BufWriter<fs::File>, CliError> {
    ensure_parent(path)?;
    let file = fs::File::create(path).map_err(|e| CliError::io(path, e))?;
    if file.metadata().is_ok_and(|meta| meta.is_file()) {
        cleanup.0.push(path);
    }
    Ok(BufWriter::new(file))
}

/// The input side of one `segram map` run, bundled: what to map with,
/// how to drive the engine, and the reads to stream through it.
struct MapJob<'a> {
    mapper: &'a ShardedIndex,
    /// The elastic schedule's shard placement (`None` under fanout).
    placement: Option<ShardPlacement>,
    /// Threads, strands and batch size; carries a clone of `cancel`.
    engine: EngineOptions,
    /// The run's stop flag: any failing stage pulls it.
    cancel: CancelToken,
    reads: MapReads,
    reads_path: &'a str,
    decode_ambiguity: Ambiguity,
}

/// Runs the engine pass of `job` with the given writer-thread sink,
/// returning the engine report. The calling thread is the producer: it
/// runs the transport stage ([`MapReads::frame`], so every schedule and
/// `--batch-size` mean the same thing on plain and BGZF input) and decodes
/// each record right behind it, timed into `MapStats::decode`. The first failure in file order, a
/// transport error or a malformed record alike, ends the stream, lands in
/// `input_error` and cancels the run: the reported error is the file's
/// first defect whatever the thread count or schedule.
fn drive_engine<F>(job: MapJob<'_>, input_error: &mut Option<CliError>, sink: F) -> EngineReport
where
    F: FnMut(FastqRecord, ReadOutcome) + Send,
{
    let MapJob {
        mapper,
        placement,
        engine,
        cancel,
        reads,
        reads_path,
        decode_ambiguity,
    } = job;
    let mut engine = MapEngine::new(mapper, engine);
    if let Some(placement) = placement {
        engine = engine.with_routing(placement.pools(), elastic_route(placement));
    }
    let mut decode_time = Duration::ZERO;
    let run = |raws: &mut dyn Iterator<Item = Result<RawFastqRecord, CliError>>| {
        let records = std::iter::from_fn(|| {
            if cancel.is_cancelled() {
                return None;
            }
            let record = raws.next()?.and_then(|raw| {
                let started = Instant::now();
                let record = raw.decode(decode_ambiguity);
                decode_time += started.elapsed();
                record.map_err(|err| CliError::stream(err, reads_path, reads_path))
            });
            record
                .map_err(|err| {
                    *input_error = Some(err);
                    cancel.cancel();
                })
                .ok()
        });
        engine.map_stream(records, |record| &record.seq, sink)
    };
    let (mut report, inflate) = reads.frame(reads_path, run);
    report.stats.inflate = inflate;
    report.stats.decode = decode_time;
    report
}

/// Streams the FASTQ of `job` — plain or BGZF-compressed — through the
/// engine with fully overlapped IO and writes `docs`, one or two
/// documents, in one sequence: the producer thread runs the transport
/// stage (framing raw record boundaries, after inflation for BGZF) and
/// FASTQ decode; the workers map; and the engine's writer thread renders
/// each released batch, in input order, into every document (see
/// [`MapTarget`] for where the bytes go from there). A
/// failure at any point (framing, inflation, decode, write) cancels the
/// shared [`CancelToken`] so the whole pipeline stops promptly instead of
/// mapping the rest of the stream first.
fn run_map_stream(
    job: MapJob<'_>,
    docs: &[DocSpec<'_>],
    compress: bool,
) -> Result<EngineRun, CliError> {
    let graph = job.mapper.graph();
    let (cancel, reads_path) = (job.cancel.clone(), job.reads_path);

    // One RAII guard owns partial-file removal for every failure path
    // below (see `create_output` for the arming rule). It is declared
    // before the writers, so on failure the buffered handles close and
    // flush — and the deflate threads are joined — first, then the files
    // are unlinked.
    let mut cleanup = OutputCleanup(Vec::new());
    let mut writers = Vec::with_capacity(docs.len());
    for doc in docs {
        let target = match doc.path {
            Some(path) if compress => MapTarget::Bgzf(DeflateThread::spawn(
                create_output(path, &mut cleanup)?,
                cancel.clone(),
            )),
            Some(path) => MapTarget::File(create_output(path, &mut cleanup)?),
            None => MapTarget::Memory(Vec::new()),
        };
        // A header that fails after the file was created leaves a stub;
        // the cleanup guard removes it.
        let writer =
            DocWriter::new(doc.format, target, graph).map_err(|e| CliError::io(doc.name(), e))?;
        writers.push(writer);
    }

    // Writer-thread sink: render + write only; the first failure is kept
    // and cancels the run.
    let mut write_error: Option<CliError> = None;
    let sink = |record: FastqRecord, outcome: ReadOutcome| {
        if write_error.is_some() {
            return;
        }
        for (doc, writer) in docs.iter().zip(&mut writers) {
            if let Err(err) = writer.write(&record, &outcome, graph) {
                write_error = Some(CliError::stream(err, doc.name(), reads_path));
                cancel.cancel();
                return;
            }
        }
    };
    let mut input_error = None;
    let report = drive_engine(job, &mut input_error, sink);

    // Input-side failures outrank output-side ones. Returning drops the
    // writers, then the cleanup guard removes the partial files.
    if let Some(err) = input_error.or(write_error) {
        return Err(err);
    }
    let note = if compress { " (BGZF-compressed)" } else { "" };
    let mut output = String::new();
    for (doc, writer) in docs.iter().zip(writers) {
        let document = writer
            .finish()
            .and_then(MapTarget::finish)
            .map_err(|e| CliError::io(doc.name(), e))?;
        match document {
            Some(buffer) => output.push_str(&String::from_utf8_lossy(&buffer)),
            None => {
                let _ = writeln!(
                    output,
                    "wrote {} to {}{note}",
                    doc.format.label(),
                    doc.name()
                );
            }
        }
    }
    // Every document closed cleanly: keep the files.
    cleanup.0.clear();

    Ok(EngineRun { report, output })
}

/// The per-shard section of a run's report: occupancy counters,
/// seeding-load imbalance, and under the elastic schedule (`placement`)
/// the per-pool batch, steal and wait counters with each pool's shards.
fn shard_report(
    sharded: &ShardedIndex,
    report: &EngineReport,
    placement: Option<&ShardPlacement>,
) -> String {
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
    if let Some(placement) = placement {
        let _ = writeln!(
            section,
            "schedule: elastic — {} pools, {} batches routed, {} spilled, {} stolen",
            report.pools.len(),
            report.routed(),
            report.spilled(),
            report.stolen()
        );
        for ((p, pool), shards) in report.pools.iter().enumerate().zip(placement.groups()) {
            let _ = writeln!(
                section,
                "  pool {p} -> shards {shards:?} ({} workers): {} batches \
                 ({} routed, {} spilled, {} stolen), queue max depth {}, \
                 workers starved {}x ({:.2} ms)",
                pool.workers,
                pool.batches,
                pool.routed,
                pool.spilled,
                pool.stolen,
                pool.queue.max_depth,
                pool.queue.worker_waits,
                ms(pool.queue.worker_wait)
            );
        }
    }
    section
}

/// `segram map`.
pub(crate) fn map(options: &Options) -> Result<String, CliError> {
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
    let format = DocFormat::parse(format)
        .ok_or_else(|| CliError::usage(format!("unknown format {format:?} (expected sam|gaf)")))?;
    // Validate the cheap options before touching the filesystem, so usage
    // errors win over I/O errors.
    let threads = thread_count(options)?;
    let shards = shard_count(options)?;
    let schedule = schedule_kind(options)?;
    // Absent = 0 = the engine's default.
    let batch_size = positive_count(options, "batch-size")?.unwrap_or(0);
    let mut config = preset(options.get("preset").unwrap_or("short"))?;
    config.prefilter = filter_spec(options.get("filter").unwrap_or("none"))?;

    // The documents to write: the split SAM+GAF pass is exclusive with
    // the single-document options (it names both documents itself), and
    // one split option alone is just a single-format run with the format
    // baked into the option name.
    let split = [
        (DocFormat::Sam, options.get("output-sam")),
        (DocFormat::Gaf, options.get("output-gaf")),
    ];
    let mut docs: Vec<DocSpec<'_>> = split
        .iter()
        .filter(|(_, path)| path.is_some())
        .map(|&(format, path)| DocSpec { format, path })
        .collect();
    if !docs.is_empty() && (options.get("output").is_some() || options.get("format").is_some()) {
        return Err(CliError::usage(
            "--output-sam/--output-gaf are mutually exclusive with \
             --output/--format (the split pass names both documents itself)",
        ));
    }
    if docs.is_empty() {
        docs.push(DocSpec {
            format,
            path: options.get("output"),
        });
    }
    let compress = options.switch("compress-output");
    if compress && docs.iter().any(|doc| doc.path.is_none()) {
        return Err(CliError::usage(
            "--compress-output requires a file output (--output, \
             --output-sam, or --output-gaf); the report cannot hold \
             BGZF bytes",
        ));
    }

    // Open the reads file last, after every cheap option check, so usage
    // errors win over I/O errors.
    let reads = open_reads(reads_path)?;
    let compressed = reads.compressed;

    // The one mapper: the coordinate-range index at whatever shard count
    // was asked for, built from the GFA or loaded already split the way
    // `segram serve` boots, so the bytes do not depend on which.
    let (mapper, source_note) = match source {
        MapSource::Index(index_path) => {
            let (mapper, label) = load_backend(index_path, config, shards)?;
            let note = format!("loaded persistent index {index_path} ({label})\n");
            (mapper, note)
        }
        MapSource::Graph(graph_path) => {
            let graph = load_graph(graph_path)?;
            (ShardedIndex::build(graph, config, shards), String::new())
        }
    };
    warn_clamped_shards(shards, &mapper);
    // The elastic schedule is the fanout one plus a route hook over a
    // placement sized for the index, the same hook `segram serve` uses.
    let placement =
        (schedule == Schedule::Elastic).then(|| ShardPlacement::for_index(&mapper, threads));
    let cancel = CancelToken::new();
    let job = MapJob {
        mapper: &mapper,
        placement: placement.clone(),
        engine: EngineOptions::new()
            .threads(threads)
            .both_strands(options.switch("both-strands"))
            .batch_size(batch_size)
            .cancel(cancel.clone()),
        cancel,
        reads,
        reads_path,
        decode_ambiguity: ambiguity(options),
    };
    let run = run_map_stream(job, &docs, compress)?;

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let stats = run.report;
    let mut report = source_note;
    let _ = writeln!(
        report,
        "mapped {}/{} reads ({} regions aligned, {} filtered)",
        stats.mapped, stats.reads, stats.stats.regions_aligned, stats.stats.regions_filtered
    );
    let _ = writeln!(
        report,
        "threads: {threads} ({} batches of up to {} reads)",
        stats.batches, stats.batch_size
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
            "inflate: {:.2} ms (BGZF decompression + splice, transport stage on the producer thread)",
            ms(stats.stats.inflate)
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
    // One shard under the default schedule has nothing to break down.
    let breakdown = shards > 1 || schedule == Schedule::Elastic;
    if breakdown {
        report.push_str(&shard_report(&mapper, &stats, placement.as_ref()));
    }
    report.push_str(&run.output);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_io::{bgzf_compress, bgzf_member, BGZF_EOF};
    use segram_testkit::prelude::*;
    use std::sync::{Arc, Mutex};

    /// A sink the test can still read once the writer that owned it is
    /// gone, and that reports a full disk after `ok_writes` writes.
    #[derive(Clone)]
    struct TestSink {
        written: Arc<Mutex<Vec<u8>>>,
        ok_writes: usize,
    }

    impl TestSink {
        fn failing_at(write: usize) -> Self {
            Self {
                written: Arc::default(),
                ok_writes: write - 1,
            }
        }
    }

    impl Write for TestSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.ok_writes -= 1;
            self.written.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Line-structured text that is neither constant nor periodic at a
    /// short distance.
    fn plain(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| b"ACGT\n"[(i / 7 + i * i / 151) % 5])
            .collect()
    }

    proptest! {
        /// Members are cut by byte offset on the deflate thread, so the
        /// document is the library compressor's whatever the write size.
        #[test]
        fn deflate_thread_emits_bgzf_compress_bytes_for_any_write_size(
            len in 0usize..150_000,
            write_size in 1usize..70_000,
        ) {
            let data = plain(len);
            let mut target = DeflateThread::spawn(Vec::new(), CancelToken::new());
            for chunk in data.chunks(write_size) {
                target.write_all(chunk).expect("vec write cannot fail");
            }
            let written = target.finish().expect("vec write cannot fail");
            prop_assert!(
                written == bgzf_compress(&data, BGZF_MAX_PLAIN, BgzfMode::Fixed),
                "{} plain bytes in writes of {}", len, write_size
            );
        }
    }

    #[test]
    fn dropping_a_deflate_thread_without_finish_leaves_no_eof_marker() {
        let sink = TestSink::failing_at(usize::MAX);
        let data = plain(BGZF_MAX_PLAIN * 2 + 1000);
        let mut target = DeflateThread::spawn(sink.clone(), CancelToken::new());
        target.write_all(&data).unwrap();
        // The drop joins the thread, so what was handed off is on the sink.
        drop(target);
        let written = sink.written.lock().unwrap().clone();
        let full_members: Vec<u8> = data
            .chunks(BGZF_MAX_PLAIN)
            .take(2)
            .flat_map(|chunk| bgzf_member(chunk, BgzfMode::Fixed))
            .collect();
        assert_eq!(written, full_members, "two full members, no tail");
        assert!(!written.ends_with(&BGZF_EOF));
    }

    #[test]
    fn a_sink_failure_comes_back_once_and_cancels_the_run() {
        let member = plain(BGZF_MAX_PLAIN);
        let disk_full = |errors: &[String]| errors.iter().filter(|e| *e == "disk full").count();
        for failing_write in [1usize, 2, 4] {
            // The failing member is followed by more than the channel
            // holds: a later write must come back with the error.
            let cancel = CancelToken::new();
            let mut target =
                DeflateThread::spawn(TestSink::failing_at(failing_write), cancel.clone());
            let mut errors = Vec::new();
            for _ in 0..failing_write + DEFLATE_QUEUE_MEMBERS + 2 {
                errors.extend(target.write_all(&member).err().map(|e| e.to_string()));
            }
            assert_eq!(disk_full(&errors), 1, "from a write: {errors:?}");
            errors.extend(target.finish().err().map(|e| e.to_string()));
            assert_eq!(disk_full(&errors), 1, "not again from finish: {errors:?}");
            assert!(cancel.is_cancelled());

            // The failing member is the last one handed off: no write can
            // see the failure, `finish` has to.
            let cancel = CancelToken::new();
            let mut target =
                DeflateThread::spawn(TestSink::failing_at(failing_write), cancel.clone());
            for _ in 0..failing_write {
                target.write_all(&member).expect("nothing has failed yet");
            }
            let err = target.finish().err().expect("finish reports the failure");
            assert_eq!(err.to_string(), "disk full");
            assert!(cancel.is_cancelled());
        }
    }
}
