//! `segram serve` and `segram request`: the long-lived mapping daemon and
//! its minimal line-protocol client.
//!
//! The daemon loads a persistent `.sgi` index once (the expensive part of
//! every `segram map` run), then multiplexes N concurrent map requests
//! through one shared [`MultiEngine`]: per-request cancellation (a client
//! disconnect cancels only that request), per-request ordered output,
//! QoS-aware scheduling (priority classes + deadline hints), queued-batch
//! admission control (`BUSY` replies past the limit, with a retry hint),
//! and zero-downtime index reload (`RELOAD` swaps the mapper between
//! requests; in-flight requests finish on the index they opened against).
//!
//! There is one daemon body. The store is loaded into the same
//! [`ShardedIndex`] a one-shot `segram map --index` maps with (one shard
//! unless `--shards` asks for more),
//! every reply is rendered by the [`DocWriter`] `map` writes its files
//! with, and `RELOAD` is one closure that takes the dirty-shard delta route
//! whenever the active index has more than one shard and the new store is
//! its direct child.
//!
//! ## Wire protocol (one request per TCP connection, line-framed)
//!
//! ```text
//! client:  MAP/2 <payload-bytes> [key=value ...]\n
//!              keys: fmt=sam|gaf (default sam)
//!                    prio=interactive|normal|bulk (default normal)
//!                    deadline-ms=<int> (optional deadline hint)
//!              then exactly <payload-bytes> bytes of FASTQ, or
//!          MAP <sam|gaf> <payload-bytes>\n    the v1 compatibility form
//!              (normal priority, no deadline), or
//!          RELOAD <index.sgi>\n               hot-swap the index, or
//!          QUIT\n                             stop the daemon
//! server:  OK\n                               request accepted + mapped,
//!          CHUNK <len>\n + <len> bytes        output document pieces,
//!          END reads=<n> mapped=<m> prio=<class>
//!              p50us=<a> p95us=<b> p99us=<c>\n request complete
//!              (queueing-delay percentiles of this request); or
//!          BUSY <queued-batches> retry-ms=<n>\n admission refused, or
//!          RELOADED <index.sgi>\n             swap complete, or
//!          ERR <message>\n                    malformed request/input, or
//!          BYE\n                              QUIT acknowledged
//! ```
//!
//! A request's output document is byte-identical to a one-shot
//! `segram map --index ref.sgi` over the same reads — `ci.sh`'s serve
//! tiers diff exactly that, including across a mid-flight `RELOAD`.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use segram_core::{
    elastic_route, DeclinedDelta, DeltaSwapReport, EngineOptions, MultiEngine, PoolReport,
    Priority, QueueDelayStats, ReadMapper, RequestHandle, ShardPlacement, ShardedIndex,
};
use segram_graph::DnaSeq;
use segram_io::{Ambiguity, FastqReader, FastqRecord};

use crate::args::Options;
use crate::commands::{
    preset, schedule_kind, shard_count, thread_count, warn_clamped_shards, write_file, Schedule,
};
use crate::error::CliError;
use crate::index::{backend_from_store, load_backend, load_store};
use crate::map::{DocFormat, DocWriter};

/// Reads per engine batch: small enough that a request's first outputs
/// stream back while its payload is still arriving.
const SERVE_BATCH: usize = 32;

/// Maximum bytes per `CHUNK` reply line.
const CHUNK_BYTES: usize = 64 * 1024;

const SERVE_HELP: &str = "\
segram serve — long-lived mapping daemon over a persistent .sgi index

Loads the index once, then answers concurrent `segram request` calls
through one shared multi-request engine: per-request cancellation (a
client disconnect cancels only that request), per-request ordered output
(byte-identical to a one-shot `segram map --index`), priority- and
deadline-aware scheduling (interactive > normal > bulk; overdue requests
first), queued-batch admission control (BUSY past the limit, with a
retry-ms hint), and zero-downtime index reload (`segram request
--reload new.sgi`: in-flight requests finish on the old index, new ones
map against the new one). Stops when a client sends QUIT
(`segram request --shutdown`).

OPTIONS:
    --index <ref.sgi>      persistent index from `segram index build`
                           (required)
    --addr <host:port>     listen address (default 127.0.0.1:0 = any free
                           port; the chosen address is printed as
                           `listening on <addr>`)
    --addr-file <path>     also write the chosen address to this file
                           (for scripts that need to find the port)
    --threads <int>        worker threads (default: all available cores)
    --shards <int>         split the loaded index into N coordinate
                           ranges behind the seeding router (default 1 =
                           the whole index in one shard; replies stay
                           byte-identical, and with N > 1 a RELOAD onto
                           the active store's direct child rebuilds only
                           the shards its delta touched)
    --schedule <fanout|elastic>
                           worker schedule (default fanout: all workers
                           serve every request batch). elastic splits the
                           workers into per-shard-group pools, routes each
                           request batch to the pool owning its dominant
                           shard group (idle pools steal) over a placement
                           fixed at boot
    --queue-depth <int>    per-request input-queue capacity in batches
                           (default 2 x threads)
    --max-queued <int>     total queued batches before new requests are
                           refused BUSY (default 4 x queue depth)
    --preset <short|long5|long10>
                           mapper preset for thresholds (default short;
                           scheme/buckets/discard come from the .sgi file)
    --both-strands         also try each read's reverse complement
    --quiet                suppress per-request log lines on stderr
";

const REQUEST_HELP: &str = "\
segram request — line-protocol client for `segram serve`

Sends one FASTQ payload, receives the mapped SAM/GAF document. With
--cancel-after it instead disconnects mid-payload, which makes the
server cancel just that request (the test hook for cancellation
isolation). With --reload it asks the daemon to hot-swap its index; with
--shutdown it asks the daemon to stop.

OPTIONS:
    --addr <host:port>     server address (required; the daemon prints it)
    --reads <reads.fq>     input FASTQ (required unless --shutdown or
                           --reload)
    --format <sam|gaf>     output format (default sam)
    --priority <class>     interactive|normal|bulk (default normal; any
                           value other than the default sends the MAP/2
                           header)
    --deadline-ms <int>    deadline hint: past it, the server schedules
                           this request ahead of every on-time one
    --retry                on BUSY, honor the server's retry-ms hint with
                           one bounded retry (default: fail immediately)
    --output <path>        write the returned document here (default:
                           stdout section of report)
    --cancel-after <int>   send only this many payload bytes, then
                           disconnect without reading a reply
    --reload <index.sgi>   send RELOAD <path> instead of a mapping request
                           (the daemon builds the new index, then swaps it
                           in between requests — zero downtime)
    --shutdown             send QUIT instead of a mapping request
";

fn seq_of(record: &FastqRecord) -> &DnaSeq {
    &record.seq
}

/// A parsed `MAP`/`MAP/2` request line: what to map, how much of it, and
/// how urgently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RequestHeader {
    format: DocFormat,
    payload_len: u64,
    priority: Priority,
    deadline: Option<Duration>,
}

/// Everything that can be wrong with a request line, as named variants so
/// tests pin the classification (the client only ever sees the rendered
/// `ERR` message).
#[derive(Debug, PartialEq, Eq)]
enum HeaderError {
    /// First token is not `MAP`, `MAP/…`, `RELOAD`, or `QUIT`.
    UnknownCommand(String),
    /// A `MAP/<version>` this server does not speak.
    UnsupportedVersion(String),
    /// Missing or unparsable payload byte count.
    BadPayloadLen(String),
    /// v1 format token or v2 `fmt=` value is not `sam`/`gaf`.
    BadFormat(String),
    /// v2 `prio=` value is not a known class.
    BadPriority(String),
    /// v2 `deadline-ms=` value is not a non-negative integer.
    BadDeadline(String),
    /// A v2 token without `=`, or a key this server does not know.
    UnknownKey(String),
    /// Extra tokens after a complete v1 header.
    TrailingTokens(String),
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownCommand(header) => {
                write!(
                    f,
                    "unknown command {header:?} (expected MAP, RELOAD, or QUIT)"
                )
            }
            Self::UnsupportedVersion(version) => {
                write!(
                    f,
                    "unsupported protocol version MAP/{version} (this server speaks MAP and MAP/2)"
                )
            }
            Self::BadPayloadLen(token) => write!(f, "bad payload length {token:?}"),
            Self::BadFormat(token) => write!(f, "bad format {token:?} (expected sam|gaf)"),
            Self::BadPriority(token) => {
                write!(
                    f,
                    "bad priority {token:?} (expected interactive|normal|bulk)"
                )
            }
            Self::BadDeadline(token) => {
                write!(
                    f,
                    "bad deadline-ms {token:?} (expected a non-negative integer)"
                )
            }
            Self::UnknownKey(token) => write!(
                f,
                "unknown key {token:?} (expected key=value with key in fmt|prio|deadline-ms)"
            ),
            Self::TrailingTokens(header) => write!(f, "trailing tokens in {header:?}"),
        }
    }
}

/// Parses a request line: the versioned `MAP/2 <bytes> key=value...` form
/// or the v1 `MAP <sam|gaf> <bytes>` compatibility form.
fn parse_request_header(header: &str) -> Result<RequestHeader, HeaderError> {
    let mut tokens = header.split_whitespace();
    let command = tokens.next().unwrap_or("");
    let v2 = match command {
        "MAP" => false,
        "MAP/2" => true,
        _ => {
            return Err(match command.strip_prefix("MAP/") {
                Some(version) => HeaderError::UnsupportedVersion(version.to_owned()),
                None => HeaderError::UnknownCommand(header.to_owned()),
            })
        }
    };
    if !v2 {
        let format_token = tokens.next().unwrap_or("");
        let format = DocFormat::parse(format_token)
            .ok_or_else(|| HeaderError::BadFormat(format_token.to_owned()))?;
        let len_token = tokens.next().unwrap_or("");
        let payload_len: u64 = len_token
            .parse()
            .map_err(|_| HeaderError::BadPayloadLen(len_token.to_owned()))?;
        if tokens.next().is_some() {
            return Err(HeaderError::TrailingTokens(header.to_owned()));
        }
        return Ok(RequestHeader {
            format,
            payload_len,
            priority: Priority::Normal,
            deadline: None,
        });
    }
    let len_token = tokens.next().unwrap_or("");
    let payload_len: u64 = len_token
        .parse()
        .map_err(|_| HeaderError::BadPayloadLen(len_token.to_owned()))?;
    let mut parsed = RequestHeader {
        format: DocFormat::Sam,
        payload_len,
        priority: Priority::Normal,
        deadline: None,
    };
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return Err(HeaderError::UnknownKey(token.to_owned()));
        };
        match key {
            "fmt" => {
                parsed.format = DocFormat::parse(value)
                    .ok_or_else(|| HeaderError::BadFormat(value.to_owned()))?;
            }
            "prio" => {
                parsed.priority = Priority::parse(value)
                    .ok_or_else(|| HeaderError::BadPriority(value.to_owned()))?;
            }
            "deadline-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| HeaderError::BadDeadline(value.to_owned()))?;
                parsed.deadline = Some(Duration::from_millis(ms));
            }
            _ => return Err(HeaderError::UnknownKey(token.to_owned())),
        }
    }
    Ok(parsed)
}

/// Lifetime counters the daemon reports when it exits.
#[derive(Default)]
struct ServeStats {
    served: AtomicU64,
    cancelled: AtomicU64,
    refused: AtomicU64,
    failed: AtomicU64,
    reloads: AtomicU64,
    /// Reloads that took the dirty-shard delta route (parent-checksum
    /// match) instead of a full rebuild.
    delta_reloads: AtomicU64,
    /// Shards rebuilt across every delta reload.
    dirty_shards: AtomicU64,
    /// Shards carried over (Arc-shared or id-remapped) across every delta
    /// reload.
    clean_shards: AtomicU64,
}

impl ServeStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// How a `RELOAD` produced its replacement mapper.
enum ReloadKind {
    /// Built from scratch off the `.sgi` file. `fallback` carries the
    /// reason the delta route was declined when one was attempted (parent
    /// mismatch, epoch skew, legacy store without a changelog).
    Full { fallback: Option<String> },
    /// Derived from the active index by rebuilding only the shards whose
    /// coordinate ranges the delta touched.
    Delta(DeltaSwapReport),
}

/// What the reload hook hands back: the replacement mapper, how it was
/// built, and the store's provenance label for the daemon report.
struct ReloadOutcome {
    mapper: Arc<ShardedIndex>,
    kind: ReloadKind,
    label: String,
}

/// What the accept loop should do after a connection is handled.
enum Control {
    Continue,
    Quit,
}

/// A reader that counts how many payload bytes actually arrived, so a
/// short payload (the client vanished mid-transfer) is distinguishable
/// from a complete one that merely ended at a record boundary.
struct CountingReader<R> {
    inner: R,
    seen: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf).map_err(|err| {
            if timed_out(&err) {
                std::io::Error::new(err.kind(), "timed out waiting for the payload")
            } else {
                err
            }
        })?;
        self.seen.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// How long the daemon waits on a client socket — for the next request
/// byte, or for room to write a reply — before it drops the connection.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Whether a socket operation failed on the timeout set from
/// [`Daemon::client_timeout`] (platforms differ on the kind).
fn timed_out(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// `segram serve`.
pub fn serve(options: &Options) -> Result<String, CliError> {
    serve_with_timeout(options, CLIENT_TIMEOUT)
}

/// `segram serve` with a caller-chosen client socket timeout in place of
/// the daemon's 30 s, so a test of stalled clients need not wait that long.
pub fn serve_with_timeout(options: &Options, client_timeout: Duration) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(SERVE_HELP.to_owned());
    }
    options.reject_unknown(&[
        "index",
        "addr",
        "addr-file",
        "threads",
        "shards",
        "schedule",
        "queue-depth",
        "max-queued",
        "preset",
        "both-strands",
        "quiet",
    ])?;
    let index_path = options.require("index")?;
    let threads = thread_count(options)?;
    let shards = shard_count(options)?;
    let schedule = schedule_kind(options)?;
    let config = preset(options.get("preset").unwrap_or("short"))?;
    // The shared builder `map` and the benches use too; `MultiEngine`
    // derives its own defaults from the zero fields.
    let engine_options = EngineOptions::new()
        .threads(threads)
        .queue_depth(options.number("queue-depth", 0)?)
        .max_queued(options.number("max-queued", 0)?)
        .both_strands(options.switch("both-strands"));

    // The store becomes the same index a one-shot `map --index` run maps
    // with (same graph, same shard count, same frequency threshold), so
    // replies stay byte-identical to it.
    let (index, boot_label) = load_backend(index_path, config, shards)?;
    let index = Arc::new(index);
    warn_clamped_shards(shards, &index);
    // A RELOAD whose store is the direct child of the active one (parent
    // checksum matches) takes the delta route when the active index has
    // more than one shard — only dirty shards are rebuilt, clean shards
    // keep sharing the active Arcs; anything else, and every reload of a
    // one-shard index, builds the new file's index from scratch.
    let reload = move |path: &str, current: &ShardedIndex| {
        let (loaded, label) = load_store(path)?;
        let (mapper, kind) = if current.shards().len() > 1 {
            match current.apply_delta(loaded) {
                Ok((next, report)) => (next, ReloadKind::Delta(report)),
                Err(declined) => {
                    let DeclinedDelta { store, reason } = *declined;
                    let fallback = Some(reason.to_string());
                    let mapper = backend_from_store(store, config, shards);
                    (mapper, ReloadKind::Full { fallback })
                }
            }
        } else {
            let mapper = backend_from_store(loaded, config, shards);
            (mapper, ReloadKind::Full { fallback: None })
        };
        Ok(ReloadOutcome {
            mapper: Arc::new(mapper),
            kind,
            label,
        })
    };
    // The elastic schedule is the same engine plus a route hook over a
    // placement sized for the boot index.
    let placement =
        (schedule == Schedule::Elastic).then(|| ShardPlacement::for_index(&index, threads));
    let pools = placement.as_ref().map_or(1, ShardPlacement::pools);
    let route = placement.map(elastic_route);
    let engine = MultiEngine::with_routing(index, seq_of, engine_options, pools, route);
    run_daemon(
        options,
        engine,
        index_path,
        boot_label,
        reload,
        client_timeout,
    )
}

/// The index-reload hook a daemon runs on `RELOAD <path>`: given the
/// path and the active mapper, produce the replacement (delta or full).
type ReloadFn<'a> =
    dyn Fn(&str, &ShardedIndex) -> Result<ReloadOutcome, CliError> + Send + Sync + 'a;

/// Per-daemon context the connection handlers share: the engine, the
/// index-reload hook, and the lifetime counters.
#[derive(Clone, Copy)]
struct Daemon<'a> {
    engine: &'a MultiEngine<ShardedIndex, FastqRecord>,
    reload: &'a ReloadFn<'a>,
    /// Path and provenance label (epoch, build preset) of the index new
    /// requests currently map against (updated by each successful `RELOAD`).
    active: &'a Mutex<(String, String)>,
    quiet: bool,
    stats: &'a ServeStats,
    /// Read and write timeout set on every accepted stream: a client that
    /// stalls mid-request or stops reading its reply is dropped after it
    /// instead of holding its connection thread forever.
    client_timeout: Duration,
}

/// The daemon proper: accept loop, per-connection handlers, lifetime
/// report. `reload` builds the replacement mapper from an `.sgi` path
/// and the active one (the `RELOAD` hook).
fn run_daemon(
    options: &Options,
    engine: MultiEngine<ShardedIndex, FastqRecord>,
    index_path: &str,
    boot_label: String,
    reload: impl Fn(&str, &ShardedIndex) -> Result<ReloadOutcome, CliError> + Send + Sync,
    client_timeout: Duration,
) -> Result<String, CliError> {
    let quiet = options.switch("quiet");
    let addr = options.get("addr").unwrap_or("127.0.0.1:0");
    let listener = TcpListener::bind(addr).map_err(|e| CliError::io(addr, e))?;
    let local = listener.local_addr().map_err(|e| CliError::io(addr, e))?;
    // Announce the address *before* blocking in accept: stdout for humans,
    // --addr-file for scripts and tests that must discover the port.
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    if let Some(path) = options.get("addr-file") {
        write_file(path, format!("{local}\n"))?;
    }

    let stats = ServeStats::default();
    let active = Mutex::new((index_path.to_owned(), boot_label));
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let daemon = Daemon {
                engine: &engine,
                reload: &reload,
                active: &active,
                quiet,
                stats: &stats,
                client_timeout,
            };
            let stop = &stop;
            scope.spawn(move || {
                if let Control::Quit = handle_connection(stream, daemon) {
                    stop.store(true, Ordering::SeqCst);
                    // The accept loop is blocked in `incoming()`; one
                    // throwaway connection wakes it to observe `stop`.
                    let _ = TcpStream::connect(local);
                }
            });
        }
    });
    let pools = engine.pool_reports();
    let delays = engine.queue_delays();
    engine.shutdown();

    let mut report = String::new();
    let _ = writeln!(
        report,
        "served {} requests ({} cancelled by clients, {} refused busy, {} failed)",
        stats.served.load(Ordering::Relaxed),
        stats.cancelled.load(Ordering::Relaxed),
        stats.refused.load(Ordering::Relaxed),
        stats.failed.load(Ordering::Relaxed)
    );
    for (priority, delay) in &delays {
        let _ = writeln!(
            report,
            "queueing delay {}: batches={} {}",
            priority.name(),
            delay.batches,
            delay_fields(delay)
        );
    }
    let reloads = stats.reloads.load(Ordering::Relaxed);
    let delta = stats.delta_reloads.load(Ordering::Relaxed);
    let (active_index, active_label) = active.into_inner().unwrap_or_else(|e| e.into_inner());
    let _ = writeln!(
        report,
        "reloads: {reloads}, active index: {active_index} ({active_label}; {} delta, {} full; \
         dirty shards swapped: {}, clean shards kept: {})",
        delta,
        reloads - delta,
        stats.dirty_shards.load(Ordering::Relaxed),
        stats.clean_shards.load(Ordering::Relaxed)
    );
    if pools.len() > 1 {
        let sum = |count: fn(&PoolReport) -> u64| pools.iter().map(count).sum::<u64>();
        let _ = writeln!(
            report,
            "elastic schedule: {} pools, {} batches routed, {} spilled, {} stolen",
            pools.len(),
            sum(|p| p.routed),
            sum(|p| p.spilled),
            sum(|p| p.stolen)
        );
    }
    Ok(report)
}

/// Renders queueing-delay percentiles the way both the report and the
/// `END` line spell them: whole microseconds, so scripts compare integers.
fn delay_fields(stats: &QueueDelayStats) -> String {
    format!(
        "p50us={} p95us={} p99us={}",
        stats.p50.as_micros(),
        stats.p95.as_micros(),
        stats.p99.as_micros()
    )
}

/// Handles one client connection: parse the header line, then run the
/// request (or RELOAD the index, or acknowledge QUIT). Reply-side write
/// failures are ignored — the client is gone, and its request has already
/// been settled.
fn handle_connection(stream: TcpStream, daemon: Daemon<'_>) -> Control {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_owned());
    let timeout = Some(daemon.client_timeout);
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return Control::Continue;
    }
    let Ok(read_half) = stream.try_clone() else {
        return Control::Continue;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    let mut header = String::new();
    match reader.read_line(&mut header) {
        Ok(n) if n > 0 => {}
        Err(err) if timed_out(&err) => {
            let _ = writeln!(writer, "ERR timed out waiting for the request line");
            let _ = writer.flush();
            return Control::Continue;
        }
        _ => return Control::Continue,
    }
    let header = header.trim_end();
    if header == "QUIT" {
        let _ = writer.write_all(b"BYE\n");
        let _ = writer.flush();
        if !daemon.quiet {
            eprintln!("serve: shutdown requested by {peer}");
        }
        return Control::Quit;
    }
    if let Some(path) = header.strip_prefix("RELOAD ") {
        handle_reload(writer, path.trim(), daemon, &peer);
        return Control::Continue;
    }

    match parse_request_header(header) {
        Err(error) => {
            let _ = writeln!(writer, "ERR {error}");
            let _ = writer.flush();
        }
        Ok(request) => {
            handle_map(reader, writer, request, daemon, &peer);
        }
    }
    Control::Continue
}

/// Runs a `RELOAD <path>`: builds the replacement mapper on this
/// connection's thread — never a worker thread, so mapping throughput is
/// untouched — then swaps it in for future requests. In-flight requests
/// keep the mapper they opened with, so there is no drain barrier and no
/// downtime; a failed build leaves the active index exactly as it was.
///
/// The reload hook sees the currently active mapper, so a daemon with
/// more than one shard can take the dirty-shard delta route when the new
/// store's parent checksum matches the active one; the `RELOADED` reply
/// reports which route it took (`mode=delta dirty=… clean=…` or
/// `mode=full`).
fn handle_reload(mut writer: BufWriter<TcpStream>, path: &str, daemon: Daemon<'_>, peer: &str) {
    if !daemon.quiet {
        eprintln!("serve: reload of {path} requested by {peer}");
    }
    let current = daemon.engine.active_mapper();
    match (daemon.reload)(path, &current) {
        Ok(outcome) => {
            daemon.engine.swap_mapper(outcome.mapper);
            *daemon.active.lock().unwrap_or_else(|e| e.into_inner()) =
                (path.to_owned(), outcome.label);
            ServeStats::bump(&daemon.stats.reloads);
            let detail = match &outcome.kind {
                ReloadKind::Delta(report) => {
                    ServeStats::bump(&daemon.stats.delta_reloads);
                    daemon
                        .stats
                        .dirty_shards
                        .fetch_add(report.dirty as u64, Ordering::Relaxed);
                    daemon
                        .stats
                        .clean_shards
                        .fetch_add(report.clean() as u64, Ordering::Relaxed);
                    format!(
                        "mode=delta epoch={} dirty={} clean={}",
                        report.epoch,
                        report.dirty,
                        report.clean()
                    )
                }
                ReloadKind::Full { fallback } => {
                    if let Some(reason) = fallback {
                        if !daemon.quiet {
                            eprintln!(
                                "serve: delta route unavailable for {path} ({reason}); \
                                 rebuilt from scratch"
                            );
                        }
                    }
                    "mode=full".to_owned()
                }
            };
            if !daemon.quiet {
                eprintln!("serve: index swapped to {path} ({detail})");
            }
            let _ = writeln!(writer, "RELOADED {path} {detail}");
        }
        Err(error) => {
            if !daemon.quiet {
                eprintln!("serve: reload of {path} failed: {error}");
            }
            let _ = writeln!(writer, "ERR reload failed: {error}");
        }
    }
    let _ = writer.flush();
}

/// Runs one MAP request end to end: admission (QoS class + deadline from
/// the header), streaming FASTQ decode off the socket (pushing batches as
/// they parse, so mapping overlaps the transfer) while a scoped thread
/// renders the ordered output, then the reply.
fn handle_map(
    reader: BufReader<TcpStream>,
    mut writer: BufWriter<TcpStream>,
    request: RequestHeader,
    daemon: Daemon<'_>,
    peer: &str,
) {
    let Daemon {
        engine,
        quiet,
        stats,
        ..
    } = daemon;
    let RequestHeader {
        format,
        payload_len,
        priority,
        deadline,
    } = request;
    let handle = match engine.open_with(priority, deadline) {
        Ok(handle) => handle,
        Err(busy) => {
            ServeStats::bump(&stats.refused);
            if !quiet {
                eprintln!("serve: refused {peer}: {busy}");
            }
            // Drain the announced payload before replying: closing the
            // socket while the client is still sending would RST the BUSY
            // line away before the client reads it.
            let _ = std::io::copy(&mut reader.take(payload_len), &mut std::io::sink());
            let _ = writeln!(
                writer,
                "BUSY {} retry-ms={}",
                busy.queued,
                busy.retry_hint.as_millis()
            );
            let _ = writer.flush();
            return;
        }
    };
    let id = handle.id();
    if !quiet {
        eprintln!(
            "serve: request {id} from {peer}: {payload_len} payload bytes, {} priority",
            priority.name()
        );
    }

    // Input side: decode FASTQ straight off the socket, bounded by the
    // declared payload length so the parser cannot over-read into a next
    // request. The byte counter distinguishes "client disconnected
    // mid-payload" (cancel this request only) from a complete payload.
    let seen = Arc::new(AtomicU64::new(0));
    let mut limited = BufReader::new(CountingReader {
        inner: reader.take(payload_len),
        seen: Arc::clone(&seen),
    });
    // Output side, concurrently: the engine holds a request's workers back
    // once `queue_depth + threads` of its batches wait for the reader, so
    // a long request renders while it is still being pushed.
    let (short_payload, decode_failure, rendered) = std::thread::scope(|scope| {
        let render = scope.spawn(|| render_document(&handle, format));
        let mut decode_failure: Option<String> = None;
        let mut batch: Vec<FastqRecord> = Vec::with_capacity(SERVE_BATCH);
        for record in FastqReader::new(&mut limited, Ambiguity::Reject) {
            match record {
                Ok(record) => {
                    batch.push(record);
                    if batch.len() == SERVE_BATCH && !handle.push(std::mem::take(&mut batch)) {
                        break;
                    }
                }
                Err(err) => {
                    decode_failure = Some(err.to_string());
                    break;
                }
            }
        }
        if decode_failure.is_none() && !batch.is_empty() {
            handle.push(batch);
        }
        // Drain any unparsed remainder (a decode error or a failed render
        // stops the parser mid-payload): replying over a socket with
        // unread inbound bytes risks an RST that discards the reply.
        let _ = std::io::copy(&mut limited, &mut std::io::sink());
        let short_payload = seen.load(Ordering::Relaxed) < payload_len;
        if short_payload || decode_failure.is_some() {
            // Cancel *this* request: queued and in-flight batches wind
            // down, every other request is untouched.
            handle.cancel();
        } else {
            handle.finish_input();
        }
        let rendered = render
            .join()
            .unwrap_or_else(|_| Err("render failed: the render thread panicked".to_owned()));
        (short_payload, decode_failure, rendered)
    });
    if short_payload || decode_failure.is_some() {
        ServeStats::bump(&stats.cancelled);
        if let Some(message) = decode_failure {
            let _ = writeln!(writer, "ERR {message}");
            let _ = writer.flush();
        }
        if !quiet {
            eprintln!(
                "serve: request {id} cancelled ({} of {payload_len} payload bytes)",
                seen.load(Ordering::Relaxed)
            );
        }
        return;
    }

    let outcome = rendered.and_then(|document| {
        // Sampled before `finish` removes the request from the engine.
        let delay = handle.queue_delay();
        let report = handle
            .finish()
            .map_err(|p| format!("mapping panicked: {}", p.message))?;
        Ok((document, report, delay))
    });
    match outcome {
        Ok((document, report, delay)) => {
            ServeStats::bump(&stats.served);
            if !quiet {
                eprintln!(
                    "serve: request {id} done: {}/{} reads mapped",
                    report.mapped, report.reads
                );
            }
            let _ = writeln!(writer, "OK");
            for chunk in document.chunks(CHUNK_BYTES) {
                let _ = writeln!(writer, "CHUNK {}", chunk.len());
                let _ = writer.write_all(chunk);
            }
            let _ = writeln!(
                writer,
                "END reads={} mapped={} prio={} {}",
                report.reads,
                report.mapped,
                priority.name(),
                delay_fields(&delay.unwrap_or_default())
            );
            let _ = writer.flush();
        }
        Err(message) => {
            ServeStats::bump(&stats.failed);
            if !quiet {
                eprintln!("serve: request {id} failed: {message}");
            }
            let _ = writeln!(writer, "ERR {message}");
            let _ = writer.flush();
        }
    }
}

/// Drains a request's ordered output into a rendered SAM/GAF document,
/// against the graph of the mapper the request captured at open time (a
/// concurrent `RELOAD` must not change what an in-flight request renders).
/// A render failure cancels the request.
fn render_document(
    handle: &RequestHandle<ShardedIndex, FastqRecord>,
    format: DocFormat,
) -> Result<Vec<u8>, String> {
    let mapper = handle.mapper();
    let graph = mapper.graph();
    let failed = |err: &dyn std::fmt::Display| {
        handle.cancel();
        format!("render failed: {err}")
    };
    let mut doc = DocWriter::new(format, Vec::new(), graph).map_err(|e| failed(&e))?;
    while let Some(batch) = handle.next_output() {
        for (record, outcome) in &batch {
            doc.write(record, outcome, graph).map_err(|e| failed(&e))?;
        }
    }
    doc.finish().map_err(|e| failed(&e))
}

/// Sends one control line (`QUIT`, `RELOAD <path>`) and returns the
/// server's one-line reply, trimmed.
fn one_line_command(addr: &str, command: &str) -> Result<String, CliError> {
    let stream = TcpStream::connect(addr).map_err(|e| CliError::io(addr, e))?;
    let read_half = stream.try_clone().map_err(|e| CliError::io(addr, e))?;
    let mut writer = BufWriter::new(stream);
    writeln!(writer, "{command}")
        .and_then(|()| writer.flush())
        .map_err(|e| CliError::io(addr, e))?;
    let mut line = String::new();
    BufReader::new(read_half)
        .read_line(&mut line)
        .map_err(|e| CliError::io(addr, e))?;
    Ok(line.trim_end().to_owned())
}

/// `segram request`.
pub fn request(options: &Options) -> Result<String, CliError> {
    if options.switch("help") {
        return Ok(REQUEST_HELP.to_owned());
    }
    options.reject_unknown(&[
        "addr",
        "reads",
        "format",
        "priority",
        "deadline-ms",
        "retry",
        "output",
        "cancel-after",
        "reload",
        "shutdown",
    ])?;
    let addr = options.require("addr")?;

    if options.switch("shutdown") {
        let reply = one_line_command(addr, "QUIT")?;
        if reply != "BYE" {
            return Err(CliError::server(format!(
                "unexpected shutdown reply {reply:?}"
            )));
        }
        return Ok("server acknowledged shutdown\n".to_owned());
    }
    if let Some(path) = options.get("reload") {
        let reply = one_line_command(addr, &format!("RELOAD {path}"))?;
        if let Some(message) = reply.strip_prefix("ERR ") {
            return Err(CliError::server(message.to_owned()));
        }
        let Some(detail) = reply.strip_prefix("RELOADED ") else {
            return Err(CliError::server(format!(
                "unexpected reload reply {reply:?}"
            )));
        };
        // `detail` is `<path> mode=delta dirty=… clean=…` or
        // `<path> mode=full` — surfaced so scripts can assert which route
        // the daemon took.
        return Ok(format!("server swapped its index to {detail}\n"));
    }

    let reads_path = options.require("reads")?;
    let format = options.get("format").unwrap_or("sam");
    if DocFormat::parse(format).is_none() {
        return Err(CliError::usage(format!(
            "unknown format {format:?} (expected sam|gaf)"
        )));
    }
    let priority = options.get("priority").unwrap_or("normal");
    if Priority::parse(priority).is_none() {
        return Err(CliError::usage(format!(
            "unknown priority {priority:?} (expected interactive|normal|bulk)"
        )));
    }
    let deadline_ms: Option<u64> = options.optional_number("deadline-ms")?;
    let cancel_after: Option<usize> = options.optional_number("cancel-after")?;
    let payload = std::fs::read(reads_path).map_err(|e| CliError::io(reads_path, e))?;

    // QoS fields need the v2 header; plain requests stay on the v1 form so
    // old daemons keep answering them.
    let mut header = if priority != "normal" || deadline_ms.is_some() {
        let mut line = format!("MAP/2 {} fmt={format} prio={priority}", payload.len());
        if let Some(ms) = deadline_ms {
            let _ = write!(line, " deadline-ms={ms}");
        }
        line
    } else {
        format!("MAP {format} {}", payload.len())
    };
    header.push('\n');

    let mut retries = if options.switch("retry") { 1u32 } else { 0 };
    let (document, summary) = loop {
        let stream = TcpStream::connect(addr).map_err(|e| CliError::io(addr, e))?;
        let read_half = stream.try_clone().map_err(|e| CliError::io(addr, e))?;
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(header.as_bytes())
            .map_err(|e| CliError::io(addr, e))?;

        if let Some(cut) = cancel_after {
            let cut = cut.min(payload.len());
            writer
                .write_all(&payload[..cut])
                .and_then(|()| writer.flush())
                .map_err(|e| CliError::io(addr, e))?;
            // Drop both halves: the server sees EOF mid-payload and
            // cancels only this request.
            drop(writer);
            drop(read_half);
            return Ok(format!(
                "disconnected after {cut} of {} payload bytes (server cancels this request)\n",
                payload.len()
            ));
        }

        writer
            .write_all(&payload)
            .and_then(|()| writer.flush())
            .map_err(|e| CliError::io(addr, e))?;

        let mut reader = BufReader::new(read_half);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| CliError::io(addr, e))?;
        let status = line.trim_end().to_owned();
        if let Some(busy) = status.strip_prefix("BUSY ") {
            // `BUSY <depth> retry-ms=<hint>`: one bounded retry when the
            // caller opted in, after (a capped version of) the server's
            // drain estimate.
            if retries > 0 {
                retries -= 1;
                let hint_ms: u64 = busy
                    .split_whitespace()
                    .find_map(|token| token.strip_prefix("retry-ms="))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(100);
                std::thread::sleep(Duration::from_millis(hint_ms.min(2_000)));
                continue;
            }
            return Err(CliError::server(format!(
                "server busy ({busy}); retry later"
            )));
        }
        if let Some(message) = status.strip_prefix("ERR ") {
            return Err(CliError::server(message.to_owned()));
        }
        if status != "OK" {
            return Err(CliError::server(format!("unexpected reply {status:?}")));
        }

        let mut document: Vec<u8> = Vec::new();
        let summary = loop {
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| CliError::io(addr, e))?;
            let trimmed = line.trim_end();
            if let Some(len) = trimmed.strip_prefix("CHUNK ") {
                let len: usize = len
                    .parse()
                    .map_err(|_| CliError::server(format!("bad chunk length {trimmed:?}")))?;
                let start = document.len();
                document.resize(start + len, 0);
                reader
                    .read_exact(&mut document[start..])
                    .map_err(|e| CliError::io(addr, e))?;
            } else if let Some(summary) = trimmed.strip_prefix("END ") {
                break summary.to_owned();
            } else {
                return Err(CliError::server(format!("unexpected reply {trimmed:?}")));
            }
        };
        break (document, summary);
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "received {} document bytes from {addr} ({summary})",
        document.len()
    );
    match options.get("output") {
        Some(path) => {
            // Raw bytes, not a lossy string round-trip: the document must
            // diff byte-identically against a one-shot `segram map` run.
            write_file(path, &document)?;
            let _ = writeln!(report, "wrote {} to {path}", format.to_uppercase());
        }
        None => report.push_str(&String::from_utf8_lossy(&document)),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_core::route_batch;

    fn parse(header: &str) -> Result<RequestHeader, HeaderError> {
        parse_request_header(header)
    }

    fn native_index(graph: &segram_graph::GenomeGraph, shards: usize) -> Arc<ShardedIndex> {
        let config = segram_core::SegramConfig::short_reads();
        Arc::new(ShardedIndex::build(graph.clone(), config, shards))
    }

    fn record_of(id: usize, seq: DnaSeq) -> FastqRecord {
        FastqRecord::with_uniform_quality(format!("read{id}"), seq, 30)
    }

    #[test]
    fn the_route_hook_decides_exactly_as_the_map_schedule_does() {
        // Same batch, same placement: the one elastic hook (both `segram
        // map` and the daemon route by it) must decide exactly as the
        // policy it wraps, batch after batch.
        let dataset = segram_sim::DatasetConfig::tiny(61).illumina(100);
        let index = native_index(dataset.graph(), 4);
        let placement = ShardPlacement::for_index(&index, 4);
        let hook = elastic_route(placement.clone());
        let records: Vec<FastqRecord> = dataset
            .reads
            .iter()
            .map(|read| record_of(read.id as usize, read.seq.clone()))
            .collect();
        let reads: Vec<&DnaSeq> = records.iter().map(|r| &r.seq).collect();
        let mut routed = 0;
        for batch in reads.chunks(3) {
            let expected = route_batch(&index, &placement, batch.iter().copied());
            assert_eq!(hook(&index, batch), expected);
            routed += usize::from(expected.is_some());
        }
        assert!(routed > 0, "no batch had a dominant pool");
        // A mapper whose index the placement was not sized for spills.
        let other = native_index(dataset.graph(), 3);
        assert_eq!(hook(&other, &reads[..3]), None);
    }

    #[test]
    fn after_a_reload_the_route_hook_lets_the_boot_index_go() {
        let dataset = segram_sim::DatasetConfig::tiny(61).illumina(100);
        let records: Vec<FastqRecord> = dataset
            .reads
            .iter()
            .map(|read| record_of(read.id as usize, read.seq.clone()))
            .collect();
        let boot = native_index(dataset.graph(), 4);
        let boot_weak = Arc::downgrade(&boot);
        let placement = ShardPlacement::for_index(&boot, 2);
        let engine = MultiEngine::with_routing(
            boot,
            seq_of,
            EngineOptions::new().threads(2),
            2,
            Some(elastic_route(placement)),
        );
        let push_all = |records: &[FastqRecord]| {
            let request = engine.open().expect("engine admits");
            for batch in records.chunks(4) {
                assert!(request.push(batch.to_vec()));
            }
            request
        };
        let complete = |request: RequestHandle<ShardedIndex, FastqRecord>| {
            request.finish_input();
            while request.next_output().is_some() {}
            request.finish().expect("no panic");
        };
        // A request in flight across the swap finishes on the boot index,
        // the only thing that may keep it alive.
        let in_flight = push_all(&records);
        let next = native_index(dataset.graph(), 4);
        engine.swap_mapper(Arc::clone(&next));
        assert!(boot_weak.upgrade().is_some(), "the open request maps on it");
        complete(in_flight);
        // A worker drops its clone just after the request settles.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while boot_weak.upgrade().is_some() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            boot_weak.upgrade().is_none(),
            "with its last request finished, nothing may keep the boot index alive"
        );
        // Requests after the swap map on, and are counted by, the new index.
        complete(push_all(&records));
        let hits: u64 = next.shard_stats().iter().map(|shard| shard.seed_hits).sum();
        assert!(hits > 0, "workers count on the request's own index");
        engine.shutdown();
    }

    #[test]
    fn v1_header_parses_with_default_qos() {
        let parsed = parse("MAP gaf 1234").expect("valid v1 header");
        assert!(parsed.format == DocFormat::Gaf);
        assert_eq!(parsed.payload_len, 1234);
        assert_eq!(parsed.priority, Priority::Normal);
        assert_eq!(parsed.deadline, None);
    }

    #[test]
    fn v2_header_parses_with_defaults_and_full_qos() {
        let bare = parse("MAP/2 77").expect("keys are all optional");
        assert!(bare.format == DocFormat::Sam);
        assert_eq!(bare.payload_len, 77);
        assert_eq!(bare.priority, Priority::Normal);
        assert_eq!(bare.deadline, None);

        let full =
            parse("MAP/2 512 fmt=gaf prio=interactive deadline-ms=250").expect("valid v2 header");
        assert!(full.format == DocFormat::Gaf);
        assert_eq!(full.payload_len, 512);
        assert_eq!(full.priority, Priority::Interactive);
        assert_eq!(full.deadline, Some(Duration::from_millis(250)));
    }

    #[test]
    fn v2_keys_are_order_independent_and_last_wins() {
        let parsed = parse("MAP/2 9 prio=bulk fmt=sam prio=interactive").expect("valid");
        assert_eq!(parsed.priority, Priority::Interactive);
        assert!(parsed.format == DocFormat::Sam);
    }

    #[test]
    fn errors_are_classified_by_named_variant() {
        assert_eq!(
            parse("PING"),
            Err(HeaderError::UnknownCommand("PING".to_owned()))
        );
        assert_eq!(
            parse("MAP/3 10"),
            Err(HeaderError::UnsupportedVersion("3".to_owned()))
        );
        assert_eq!(
            parse("MAP/2 ten"),
            Err(HeaderError::BadPayloadLen("ten".to_owned()))
        );
        assert_eq!(
            parse("MAP/2"),
            Err(HeaderError::BadPayloadLen(String::new()))
        );
        assert_eq!(
            parse("MAP/2 10 fmt=bam"),
            Err(HeaderError::BadFormat("bam".to_owned()))
        );
        assert_eq!(
            parse("MAP/2 10 prio=urgent"),
            Err(HeaderError::BadPriority("urgent".to_owned()))
        );
        assert_eq!(
            parse("MAP/2 10 deadline-ms=-5"),
            Err(HeaderError::BadDeadline("-5".to_owned()))
        );
        assert_eq!(
            parse("MAP/2 10 color=red"),
            Err(HeaderError::UnknownKey("color=red".to_owned()))
        );
        assert_eq!(
            parse("MAP/2 10 junk"),
            Err(HeaderError::UnknownKey("junk".to_owned()))
        );
        assert_eq!(
            parse("MAP bam 10"),
            Err(HeaderError::BadFormat("bam".to_owned()))
        );
        assert_eq!(
            parse("MAP sam ten"),
            Err(HeaderError::BadPayloadLen("ten".to_owned()))
        );
        assert_eq!(
            parse("MAP sam 10 extra"),
            Err(HeaderError::TrailingTokens("MAP sam 10 extra".to_owned()))
        );
        // v1 has no QoS keys: they read as trailing junk, not as options.
        assert_eq!(
            parse("MAP sam 10 prio=interactive"),
            Err(HeaderError::TrailingTokens(
                "MAP sam 10 prio=interactive".to_owned()
            ))
        );
    }
}
