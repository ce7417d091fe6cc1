//! **Ablation: pre-alignment filtering** — the study the paper's footnote 6
//! leaves to future work: "Employing a filtering approach as part of our
//! design would increase SeGraM's performance and efficiency".
//!
//! For each filter (none / base-count / q-gram / shifted-Hamming /
//! SneakySnake / cascade) we map the Section-10-style datasets and record
//! (a) the fraction of candidate regions rejected before BitAlign, (b) the
//! mapping accuracy (which soundness says must not drop), and (c) the
//! modeled accelerator throughput when BitAlign only sees the surviving
//! regions. Filter logic itself is simple comparators and counters —
//! GateKeeper/SneakySnake-class designs fit in a few kGE next to MinSeed —
//! so the model charges it zero cycles (it hides under MinSeed's
//! already-pipelined latency).

use segram_bench::{header, timed, write_results, Scale};
use segram_core::{EngineOptions, MapEngine, SegramConfig, SegramMapper};
use segram_filter::FilterSpec;
use segram_hw::{SeedWorkload, SegramSystem};
use segram_sim::Dataset;
use segram_testkit::Serialize;

#[derive(Serialize)]
struct FilterRow {
    filter: String,
    reject_fraction: f64,
    regions_aligned_per_read: f64,
    mapped: usize,
    accurate: usize,
    software_ms: f64,
    modeled_system_reads_per_s: f64,
    modeled_speedup_vs_unfiltered: f64,
}

#[derive(Serialize)]
struct FilterAblation {
    dataset: String,
    reads: usize,
    rows: Vec<FilterRow>,
}

fn specs() -> [(String, Option<FilterSpec>); 6] {
    [
        ("none (paper)".into(), None),
        ("base-count".into(), Some(FilterSpec::BaseCount)),
        ("q-gram(5)".into(), Some(FilterSpec::QGram { q: 5 })),
        ("shifted-hamming".into(), Some(FilterSpec::ShiftedHamming)),
        ("sneaky-snake".into(), Some(FilterSpec::SneakySnake)),
        ("cascade".into(), Some(FilterSpec::cascade())),
    ]
}

fn run_dataset(dataset: &Dataset, base: SegramConfig, tolerance: u64) -> FilterAblation {
    let system = SegramSystem::default();
    let mut rows = Vec::new();
    let mut unfiltered_throughput = 0.0f64;

    for (name, spec) in specs() {
        let mut config = base;
        config.prefilter = spec;
        // Bound the per-read candidate list so the software measurement
        // stays tractable on repeat-heavy synthetic genomes; the same cap
        // applies to every row, so the filter comparison is fair.
        config.max_regions = 48;
        let mapper = SegramMapper::new(dataset.graph().clone(), config);

        let mut mapped = 0usize;
        let mut accurate = 0usize;
        let mut aligned = 0usize;
        let mut filtered = 0usize;
        let mut minimizers = 0usize;
        let mut survivors = 0usize;
        let mut seeds = 0usize;
        let mut region_len = 0u64;
        // One serial engine run per filter: single-threaded so the
        // software-time column stays a per-core measurement, with the
        // per-read truth check done in the order-preserving sink.
        let engine = MapEngine::new(&mapper, EngineOptions::new().threads(1));
        let (_, software_s) = timed(|| {
            let report = engine.map_stream(
                dataset.reads.iter(),
                |read| &read.seq,
                |read, outcome| {
                    if let Some(m) = &outcome.mapping {
                        mapped += 1;
                        if m.linear_start.abs_diff(read.true_start_linear) <= tolerance {
                            accurate += 1;
                        }
                    }
                },
            );
            aligned += report.stats.regions_aligned;
            filtered += report.stats.regions_filtered;
            minimizers += report.stats.minimizers;
            survivors += report.stats.minimizers - report.stats.filtered_minimizers;
            seeds += report.stats.seed_locations;
            region_len += report.stats.total_region_len;
        });

        let n = dataset.reads.len() as f64;
        // The accelerator model: seeding fetches every seed as before, but
        // BitAlign only runs on regions the filter accepted.
        let workload = SeedWorkload {
            read_len: dataset.read_len(),
            minimizers_per_read: minimizers as f64 / n,
            surviving_minimizers: survivors as f64 / n,
            seeds_per_read: (aligned as f64 / n).max(1.0),
            avg_region_len: if aligned == 0 {
                0.0
            } else {
                region_len as f64 / aligned as f64
            },
        };
        let throughput = system.throughput_reads_per_s(&workload);
        if spec.is_none() {
            unfiltered_throughput = throughput;
        }
        rows.push(FilterRow {
            filter: name,
            reject_fraction: if aligned + filtered == 0 {
                0.0
            } else {
                filtered as f64 / (aligned + filtered) as f64
            },
            regions_aligned_per_read: aligned as f64 / n,
            mapped,
            accurate,
            software_ms: software_s * 1e3,
            modeled_system_reads_per_s: throughput,
            modeled_speedup_vs_unfiltered: if unfiltered_throughput > 0.0 {
                throughput / unfiltered_throughput
            } else {
                1.0
            },
        });
    }

    FilterAblation {
        dataset: dataset.name.clone(),
        reads: dataset.reads.len(),
        rows,
    }
}

fn print_ablation(ablation: &FilterAblation) {
    println!(
        "\n  dataset: {} ({} reads)",
        ablation.dataset, ablation.reads
    );
    println!(
        "  {:<16} {:>9} {:>12} {:>8} {:>9} {:>12} {:>14} {:>9}",
        "filter",
        "reject %",
        "regions/read",
        "mapped",
        "accurate",
        "software ms",
        "model reads/s",
        "speedup"
    );
    for row in &ablation.rows {
        println!(
            "  {:<16} {:>8.1}% {:>12.2} {:>8} {:>9} {:>12.1} {:>14.0} {:>8.2}x",
            row.filter,
            row.reject_fraction * 100.0,
            row.regions_aligned_per_read,
            row.mapped,
            row.accurate,
            row.software_ms,
            row.modeled_system_reads_per_s,
            row.modeled_speedup_vs_unfiltered,
        );
    }
}

fn main() {
    let scale = Scale::from_env();
    header("Ablation: pre-alignment filtering (paper footnote 6 future work)");

    let short = scale.dataset_config(331).illumina(150);
    let short_result = run_dataset(&short, SegramConfig::short_reads(), 200);
    print_ablation(&short_result);

    let mut long_cfg = scale.dataset_config(332);
    long_cfg.read_count = (long_cfg.read_count / 4).max(10);
    long_cfg.long_read_len = long_cfg.long_read_len.min(1_500);
    let long = long_cfg.pacbio_5();
    let long_result = run_dataset(&long, SegramConfig::long_reads(0.05), 500);
    print_ablation(&long_result);

    println!(
        "\n  Soundness check: accuracy must be identical down the column (a sound\n  \
         filter only removes work, never mappings)."
    );
    write_results("ablation_filter", &vec![short_result, long_result]);
}
