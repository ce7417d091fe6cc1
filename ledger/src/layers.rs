//! The traced run: per-layer metrics.
//!
//! End-to-end numbers are taken with tracing off, from the `segram`
//! binary. This run is separate: it replays a fixed prefix of the
//! workload's reads in-process, on one thread, through the public
//! functions of each crate — the same calls the binary's workers make —
//! and wraps each call in a span. Seeding and alignment are observed
//! through timing decorators over the public `Seeder`/`Aligner` traits
//! inside `MapPipeline`; the calls the driver makes itself (region
//! extraction) and the halves of a stage (minimizers vs lookup, bitvector
//! generation vs traceback) are then re-timed on exactly the inputs the
//! decorators saw. The serve layer is read off the wire and the cli layer
//! off process walls, which are outside already.

use std::fs;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use segram_align::{
    windowed_bitalign, AlignError, Alignment, BitAlignConfig, BitAligner, StartMode,
};
use segram_core::{
    gaf_record_for, sam_record_for, Aligner, BitAlignStage, MapPipeline, MinSeedStage, ReadOutcome,
    Seeder, SegramConfig, SegramMapper, SpecPrefilter, MODELED_BITALIGN_NS, MODELED_MINSEED_NS,
    MODELED_REGION_CHARS,
};
use segram_graph::{apply_variants, build_graph, DnaSeq, GenomeGraph, LinearizedGraph};
use segram_hw::{simulate_pipeline, SeedJob};
use segram_index::{
    decode_index, encode_index, extract_minimizers, GraphIndex, MinSeedConfig, SeedingResult,
};
use segram_io::{
    Ambiguity, BgzfBlocks, BgzfMode, BgzfWriter, FastqFramer, FastqRecord, FastqSplice, GafWriter,
    RawFastqRecord, SamWriter,
};
use segram_sim::Strand;

use crate::check::{self, Format};
use crate::stats::{median, percentile};
use crate::trace::{self, span, Span};
use crate::wire::{Exchange, Refusal};
use crate::workloads::{
    self, latencies_ms, measured_map, Case, Ctx, Kind, Prepared, Report, THREADS,
};

/// Share of a workload's reads the traced run replays, from the start of
/// the file (the issue asks for at least a quarter).
pub const REPLAY_SHARE: f64 = 0.5;

/// What the decorators saw: the inputs of every stage call, kept so the
/// halves of each stage can be re-timed on the same inputs.
#[derive(Default)]
struct Seen {
    seeded: Vec<DnaSeq>,
    minimizers: usize,
    seed_locations: usize,
    seed_regions: usize,
    /// `(read as aligned, window start, window length)` per align call.
    aligned: Vec<(DnaSeq, u64, usize)>,
}

struct TimedSeeder<'a, S> {
    inner: S,
    seen: &'a Mutex<Seen>,
}

impl<S: Seeder> Seeder for TimedSeeder<'_, S> {
    fn seed(&self, read: &DnaSeq) -> SeedingResult {
        let result = {
            let _span = span("index.seed");
            self.inner.seed(read)
        };
        let mut seen = self.seen.lock().expect("the traced run has one thread");
        seen.seeded.push(read.clone());
        seen.minimizers += result.stats.minimizers;
        seen.seed_locations += result.stats.seed_locations;
        seen.seed_regions += result.regions.len();
        result
    }
}

struct TimedAligner<'a, A> {
    inner: A,
    seen: &'a Mutex<Seen>,
}

impl<A: Aligner> Aligner for TimedAligner<'_, A> {
    fn align(&self, region: &LinearizedGraph, read: &DnaSeq) -> Result<Alignment, AlignError> {
        let result = {
            let _span = span("align.align");
            self.inner.align(region, read)
        };
        let mut seen = self.seen.lock().expect("the traced run has one thread");
        seen.aligned
            .push((read.clone(), region.start_linear(), region.len()));
        result
    }
}

fn preset_config(preset: &str) -> SegramConfig {
    match preset {
        "long10" => SegramConfig::long_reads(0.10),
        _ => SegramConfig::short_reads(),
    }
}

/// Frames the workload's input the way the binary's producer and workers
/// do: BGZF blocks are inflated and spliced, plain bytes are framed.
fn frame_input(case: &Case, prep: &Prepared) -> Result<(Vec<RawFastqRecord>, u64), String> {
    let bytes = fs::read(&prep.input).map_err(|e| format!("{}: {e}", prep.input.display()))?;
    let mut records = Vec::new();
    let mut inflated = 0u64;
    if case.bgzf {
        let splice = FastqSplice::new();
        for block in BgzfBlocks::new(&bytes[..]) {
            let block = block.map_err(|e| e.to_string())?;
            let plain = {
                let _span = span("io.inflate");
                block.inflate().map_err(|e| e.to_string())?
            };
            inflated += plain.len() as u64;
            let _span = span("io.frame");
            let framed = splice.splice(block.index(), &plain, block.is_last(), || false);
            records.extend(framed.expect("nothing cancels the traced run"));
        }
    } else {
        let mut framer = FastqFramer::new(&bytes[..]);
        loop {
            let next = {
                let _span = span("io.frame");
                framer.next()
            };
            match next {
                Some(record) => records.push(record.map_err(|e| e.to_string())?),
                None => break,
            }
        }
    }
    Ok((records, inflated))
}

enum Writer {
    Sam(SamWriter<Vec<u8>>),
    Gaf(GafWriter<Vec<u8>>),
}

/// Decodes, maps, renders and writes the replayed reads under spans, one
/// parent `core.map_read` span per read. Returns the document and how
/// many reads mapped.
fn replay<S: Seeder, A: Aligner>(
    pipeline: &MapPipeline<'_, S, SpecPrefilter, A>,
    format: Format,
    raw: &[RawFastqRecord],
) -> Result<(Vec<u8>, Vec<FastqRecord>, usize), String> {
    let graph = pipeline.graph();
    let mut writer = match format {
        Format::Sam => Writer::Sam(
            SamWriter::new(Vec::new(), "graph", graph.total_chars()).map_err(|e| e.to_string())?,
        ),
        Format::Gaf => Writer::Gaf(GafWriter::new(Vec::new())),
    };
    let mut decoded = Vec::with_capacity(raw.len());
    let mut mapped = 0;
    for (i, raw) in raw.iter().enumerate() {
        trace::set_read(i as u32);
        let record = {
            let _span = span("io.decode");
            raw.decode(Ambiguity::Reject).map_err(|e| e.to_string())?
        };
        let (hit, stats) = {
            let _span = span("core.map_read");
            pipeline.map_read_both(&record.seq)
        };
        mapped += usize::from(hit.is_some());
        let (mapping, strand) = match hit {
            Some((mapping, strand)) => (Some(mapping), strand),
            None => (None, Strand::Forward),
        };
        let outcome = ReadOutcome {
            mapping,
            strand,
            stats,
        };
        match &mut writer {
            Writer::Sam(w) => {
                let line = {
                    let _span = span("core.render");
                    sam_record_for(&record.id, &record.seq, &outcome).to_sam_line()
                };
                let _span = span("io.write");
                w.write_line(&line).map_err(|e| e.to_string())?;
            }
            Writer::Gaf(w) => {
                let rendered = {
                    let _span = span("core.render");
                    gaf_record_for(&record.id, &record.seq, graph, &outcome)
                        .map_err(|e| e.to_string())?
                };
                if let Some(rendered) = rendered {
                    let _span = span("io.write");
                    w.write_record(&rendered).map_err(|e| e.to_string())?;
                }
            }
        }
        decoded.push(record);
    }
    trace::set_read(trace::NO_READ);
    let document = match writer {
        Writer::Sam(w) => w.finish(),
        Writer::Gaf(w) => w.finish(),
    }
    .map_err(|e| e.to_string())?;
    Ok((document, decoded, mapped))
}

/// Re-times the halves of the seeding stage on the reads the seeder saw.
fn retime_seeding(index: &GraphIndex, threshold: u32, seeded: &[DnaSeq]) {
    for read in seeded {
        let minimizers = {
            let _span = span("index.minimizer");
            extract_minimizers(read, index.scheme())
        };
        let _span = span("index.lookup");
        for m in &minimizers {
            if index.frequency(m.rank) <= threshold {
                std::hint::black_box(index.lookup(m));
            }
        }
    }
}

/// Re-times region extraction and the halves of alignment on the windows
/// the aligner saw. Returns the nominal cell count (computed from sizes:
/// region chars x read length x (k + 1)).
fn retime_alignment(
    graph: &GenomeGraph,
    config: &SegramConfig,
    aligned: &[(DnaSeq, u64, usize)],
) -> Result<f64, String> {
    let mut cells = 0.0;
    for (read, start, len) in aligned {
        let lin = {
            let _span = span("graph.extract");
            LinearizedGraph::extract(graph, *start, *start + *len as u64)
                .map_err(|e| format!("window {start}+{len} no longer extracts: {e}"))?
        };
        if read.len() <= config.window.window {
            let k = config.threshold_for(read.len());
            cells += (len * read.len()) as f64 * f64::from(k + 1);
            let Ok(mut aligner) = BitAligner::new(&lin, read, BitAlignConfig::with_k(k)) else {
                continue;
            };
            {
                let _span = span("align.compute");
                aligner.compute();
            }
            let _span = span("align.traceback");
            let _ = std::hint::black_box(aligner.align());
        } else {
            let mut window = config.window;
            window.window_k = window.window_k.max(window.overlap as u32);
            cells += (len * read.len()) as f64 * f64::from(window.window_k + 1);
            let _span = span("align.windowed");
            let _ = std::hint::black_box(windowed_bitalign(&lin, read, window, StartMode::Free));
        }
    }
    Ok(cells)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}

/// Build-side layers, timed on the workload's own reference: graph
/// construction, index build, delta application, store decode and encode.
/// Returns the mapper the binary builds from the loaded store.
fn time_index_layers(
    case: &Case,
    prep: &Prepared,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<SegramMapper, String> {
    let mut config = preset_config(case.preset);
    let reference = &prep.store.reference;
    let (built, construct_s) = timed(|| build_graph(&reference.seq, reference.base.clone()));
    let built = built.map_err(|e| format!("base graph: {e}"))?;
    let (index, build_s) =
        timed(|| GraphIndex::build(&built.graph, config.scheme, config.bucket_bits));
    drop((built, index));

    let read = |name: &str| fs::read(prep.store.path(name)).map_err(|e| format!("{name}: {e}"));
    let base = decode_index(&read("base.sgi")?).map_err(|e| format!("base.sgi: {e}"))?;
    let log = base.changelog.as_ref().ok_or("base.sgi has no changelog")?;
    let delta = apply_variants(&log.reference, &log.applied, &reference.delta, log.epoch)
        .map_err(|e| format!("delta does not apply: {e}"))?;
    let ((_, delta_stats), apply_delta_s) = timed(|| {
        base.index
            .apply_delta(&base.graph, &delta.new.graph, &delta.log)
    });
    let carried = delta_stats.carried_locations as f64;
    drop((base, delta));

    let store_bytes = read("ref.sgi")?;
    let (store, decode_s) = timed(|| decode_index(&store_bytes));
    let store = store.map_err(|e| format!("ref.sgi: {e}"))?;
    let (_, encode_s) = timed(|| std::hint::black_box(encode_index(&store)));

    out.extend([
        ("graph.construct_s", construct_s),
        ("index.build_s", build_s),
        ("index.apply_delta_s", apply_delta_s),
        (
            "index.carried_location_share",
            carried / (carried + delta_stats.extracted_locations as f64),
        ),
        ("index.decode_s", decode_s),
        ("index.encode_s", encode_s),
    ]);

    // As `segram map --index` does: what the file records overrides the
    // preset.
    config.scheme = *store.index.scheme();
    config.bucket_bits = store.index.bucket_bits();
    config.discard_frac = store.discard_frac;
    Ok(SegramMapper::from_parts(
        Arc::new(store.graph),
        store.index,
        config,
        store.freq_threshold,
    ))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The serve layer's metrics, in the order `outside_layers` fills them;
/// all 0 on a workload without a daemon.
const SERVE_METRICS: [&str; 6] = [
    "serve.req_latency_p50_ms",
    "serve.queue_delay_p50_us",
    "serve.queue_delay_p95_us",
    "serve.connect_to_ok_us",
    "serve.first_chunk_ms",
    "serve.busy_refusals",
];

/// The end-to-end throughput of the workload's own command, what its
/// report says about the elastic pools, and the serve layer's numbers
/// where there is a daemon. Tracing has not started yet.
fn outside_layers(
    case: &Case,
    ctx: &Ctx,
    prep: &Prepared,
    report: &mut Report,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(f64, Option<String>), String> {
    let starts = (0..5)
        .map(|_| {
            ctx.run(std::process::Command::new(&ctx.segram).arg("--help"))
                .map(|f| f.wall.as_secs_f64() * 1e3)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    out.extend([
        ("cli.process_start_ms", median(&starts)),
        ("cli.index_load_ms", median(&prep.store.load_s) * 1e3),
    ]);

    let mut serve = [0.0; 6];
    let mut busiest_pool_share = 0.0;
    let (reads_per_s, document) = if case.kind == Kind::Serve {
        let load = workloads::serve_load(ctx, prep, ctx.seconds / 2.0, report)?;
        let interactive = latencies_ms(&load.interactive);
        if interactive.is_empty() {
            return Err("serve_mixed: no interactive request completed".to_owned());
        }
        // Medians over the interactive requests of what each reply said
        // or when each milestone passed.
        let median_of = |pick: &dyn Fn(&Exchange) -> Option<f64>| {
            median(&load.interactive.iter().filter_map(pick).collect::<Vec<_>>())
        };
        let delays = |e: &Exchange| {
            let (_, end) = e.outcome.as_ref().ok()?;
            Some((end.p50_us as f64, end.p95_us as f64))
        };
        let refused = load
            .interactive
            .iter()
            .chain(&load.bulk)
            .filter(|e| matches!(e.outcome, Err(Refusal::Busy { .. })))
            .count();
        serve = [
            percentile(&interactive, 50.0),
            median_of(&|e| delays(e).map(|d| d.0)),
            median_of(&|e| delays(e).map(|d| d.1)),
            median_of(&|e| e.connect_to_status.map(|d| d.as_secs_f64() * 1e6)),
            median_of(&|e| e.connect_to_first_chunk.map(|d| d.as_secs_f64() * 1e3)),
            refused as f64,
        ];
        report.note("samples.interactive_requests", interactive.len());
        (load.reads as f64 / load.wall.as_secs_f64(), None)
    } else {
        report.attempted += case.reads.count() as u64;
        let (finished, document) = measured_map(case, ctx, prep)?;
        // The elastic schedule's report says how many batches each pool
        // mapped; no other schedule has pools.
        let pools = check::pool_batches(&finished.stdout);
        if let Some(&busiest) = pools.iter().max() {
            busiest_pool_share = ratio(busiest as f64, pools.iter().sum::<u64>() as f64);
        }
        (
            case.reads.count() as f64 / finished.wall.as_secs_f64(),
            Some(document),
        )
    };
    out.extend(SERVE_METRICS.into_iter().zip(serve));
    out.push(("core.elastic_busiest_pool_share", busiest_pool_share));
    Ok((reads_per_s, document))
}

/// Runs one workload's traced run and returns every per-layer metric.
pub fn run_traced(
    case: &Case,
    ctx: &Ctx,
    prep: &Prepared,
    trace_file: &std::path::Path,
) -> Result<Report, String> {
    let mut report = Report {
        notes: prep.notes.clone(),
        ..Report::default()
    };
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let (e2e_reads_per_s, binary_document) =
        outside_layers(case, ctx, prep, &mut report, &mut out)?;
    let mapper = time_index_layers(case, prep, &mut out)?;
    let config = *mapper.config();
    let graph = mapper.graph();

    let seen = Mutex::new(Seen::default());
    let seed_stage = MinSeedStage::new(
        graph,
        mapper.index(),
        MinSeedConfig {
            error_rate: config.error_rate,
            frequency_threshold: mapper.freq_threshold(),
        },
    );
    let traced = MapPipeline::new(
        graph,
        TimedSeeder {
            inner: seed_stage,
            seen: &seen,
        },
        SpecPrefilter::new(None),
        TimedAligner {
            inner: BitAlignStage::new(&config),
            seen: &seen,
        },
        config,
    );

    trace::start();
    let (raw, inflated_bytes) = frame_input(case, prep)?;
    let framed = raw.len();
    let replayed = ((framed as f64 * REPLAY_SHARE).ceil() as usize).clamp(1, framed);
    let (document, decoded, mapped) = replay(&traced, case.format, &raw[..replayed])?;
    let mut deflate_ratio = 0.0;
    if case.bgzf {
        let _span = span("io.deflate");
        let mut packer = BgzfWriter::new(Vec::new(), BgzfMode::Fixed);
        packer.write_all(&document).map_err(|e| e.to_string())?;
        let packed = packer.finish().map_err(|e| e.to_string())?;
        deflate_ratio = ratio(packed.len() as f64, document.len() as f64);
    }
    let seen = seen.into_inner().expect("the traced run has one thread");
    retime_seeding(mapper.index(), mapper.freq_threshold(), &seen.seeded);
    let cells = retime_alignment(graph, &config, &seen.aligned)?;
    let spans: Vec<Span> = trace::finish();
    fs::write(trace_file, trace::to_json(&spans))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    // The same reads through the undecorated pipeline, recorder off: the
    // one-thread software speed, and what the decorators cost.
    let plain = mapper.pipeline();
    let started = Instant::now();
    for record in &decoded {
        std::hint::black_box(plain.map_read_both(&record.seq));
    }
    let undecorated_ns = started.elapsed().as_nanos() as f64;

    // In-process replay and the binary must agree byte for byte on the
    // replayed prefix.
    if let Some(binary_document) = &binary_document {
        report.attempted += replayed as u64;
        if !binary_document.as_bytes().starts_with(&document) {
            report.fail(
                replayed as u64,
                format!(
                    "{}: in-process replay differs from the binary's output",
                    case.name
                ),
            );
        }
    }

    let totals = trace::totals(&spans);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let count = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64);
    let per = |name: &str, n: f64| ratio(total(name), n);
    let reads = replayed as f64;
    let regions = seen.aligned.len() as f64;
    let region_chars: f64 = seen.aligned.iter().map(|(_, _, len)| *len as f64).sum();
    let map_read = total("core.map_read");
    // What `map_read` does outside the two stages, in place: region
    // extraction (re-timed alone as `graph.extract`), clustering, widening.
    let driver_self = totals.get("core.map_read").map_or(0.0, |t| t.2 as f64);

    let jobs: Vec<SeedJob> = seen
        .aligned
        .iter()
        .map(|(_, _, len)| SeedJob {
            minseed_ns: MODELED_MINSEED_NS,
            bitalign_ns: MODELED_BITALIGN_NS * (*len as f64 / MODELED_REGION_CHARS),
        })
        .collect();
    let modeled = simulate_pipeline(&jobs);
    let modeled_ns_per_read = modeled.makespan_ns() / reads;

    out.extend([
        ("io.inflate_ns_per_read", per("io.inflate", framed as f64)),
        (
            "io.inflate_mb_per_s",
            ratio(
                inflated_bytes as f64 / (1024.0 * 1024.0),
                total("io.inflate") / 1e9,
            ),
        ),
        ("io.frame_ns_per_read", per("io.frame", framed as f64)),
        ("io.decode_ns_per_read", per("io.decode", reads)),
        ("io.write_ns_per_read", per("io.write", reads)),
        ("io.deflate_ns_per_read", per("io.deflate", reads)),
        ("io.deflate_ratio", deflate_ratio),
        ("index.seed_ns_per_read", per("index.seed", reads)),
        ("index.minimizer_ns_per_read", per("index.minimizer", reads)),
        ("index.lookup_ns_per_read", per("index.lookup", reads)),
        ("index.minimizers_per_read", seen.minimizers as f64 / reads),
        (
            "index.seed_locations_per_read",
            seen.seed_locations as f64 / reads,
        ),
        ("index.regions_per_read", seen.seed_regions as f64 / reads),
        ("graph.extract_ns_per_region", per("graph.extract", regions)),
        ("graph.region_chars_per_read", region_chars / reads),
        ("align.align_ns_per_region", per("align.align", regions)),
        (
            "align.compute_ns_per_region",
            per("align.compute", count("align.compute")),
        ),
        (
            "align.traceback_ns_per_region",
            per("align.traceback", count("align.traceback")),
        ),
        (
            "align.windowed_ns_per_region",
            per("align.windowed", count("align.windowed")),
        ),
        ("align.regions_per_read", regions / reads),
        ("align.cells_per_read", cells / reads),
        ("align.ns_per_cell", ratio(total("align.align"), cells)),
        ("align.useful_region_share", ratio(mapped as f64, regions)),
        ("core.map_read_ns_per_read", map_read / reads),
        ("core.driver_self_ns_per_read", driver_self / reads),
        ("core.render_ns_per_read", per("core.render", reads)),
        (
            "core.alignment_share",
            ratio(total("align.align"), map_read),
        ),
        (
            "core.engine_efficiency",
            ratio(
                e2e_reads_per_s,
                THREADS.parse::<f64>().expect("a number") * reads / (undecorated_ns / 1e9),
            ),
        ),
        ("hw.modeled_ns_per_read", modeled_ns_per_read),
        ("hw.bitalign_utilization", modeled.bitalign_utilization()),
        (
            "hw.sw_over_modeled",
            ratio(undecorated_ns / reads, modeled_ns_per_read),
        ),
        (
            "trace.overhead_share",
            ratio(map_read - undecorated_ns, undecorated_ns),
        ),
    ]);

    // Three separately timed layers against the span that contains them
    // (extraction re-timed on the same windows): near 1 when the driver
    // itself does nothing of weight inside `map_read`.
    let layers = total("index.seed") + total("graph.extract") + total("align.align");
    let worker = total("io.inflate")
        + total("io.frame")
        + total("io.decode")
        + map_read
        + total("core.render")
        + total("io.write")
        + total("io.deflate");
    report.note("trace.replayed_reads", format!("{replayed} of {framed}"));
    report.note("trace.spans", spans.len());
    report.note("trace.file", trace_file.display());
    report.note(
        "trace.layer_self_sum_over_map_read",
        format!("{:.4}", ratio(layers, map_read)),
    );
    report.note(
        "trace.align_share_of_worker_time",
        format!("{:.4}", ratio(total("align.align"), worker)),
    );
    report.metrics = out;
    Ok(report)
}
