//! Mapping a population's reads to its genome graph: the paper's
//! motivating scenario (Section 1).
//!
//! Reads are sequenced from individuals whose genomes carry population
//! variants. Mapping them to a single linear reference suffers *reference
//! bias*; mapping to the genome graph recovers the variant alleles with
//! fewer edits and better locations.
//!
//! Run with: `cargo run --release --example pangenome_mapping`

use segram_core::{measure_workload, SegramConfig, SegramMapper};
use segram_hw::SegramSystem;
use segram_sim::DatasetConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down population: 120 kbp reference, human-like variant mix,
    // 150 bp Illumina-like reads drawn from graph paths.
    let dataset = DatasetConfig {
        reference_len: 120_000,
        read_count: 60,
        long_read_len: 3_000,
        seed: 2024,
    }
    .illumina(150);
    println!(
        "dataset {}: {} variants embedded, {} reads",
        dataset.name,
        dataset.built.embedded_variants,
        dataset.reads.len()
    );

    // Map against the graph and against the bare linear reference.
    let graph_mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let linear_mapper = SegramMapper::new_linear(&dataset.reference, SegramConfig::short_reads())?;

    let mut graph_edits = 0u64;
    let mut linear_edits = 0u64;
    let mut reads_helped = 0usize;
    for read in &dataset.reads {
        let (g, _) = graph_mapper.map_read(&read.seq);
        let (l, _) = linear_mapper.map_read(&read.seq);
        let g_edits = g.map_or(read.seq.len() as u32, |m| m.alignment.edit_distance);
        let l_edits = l.map_or(read.seq.len() as u32, |m| m.alignment.edit_distance);
        graph_edits += u64::from(g_edits);
        linear_edits += u64::from(l_edits);
        if g_edits < l_edits {
            reads_helped += 1;
        }
    }
    println!("total edits against the graph:  {graph_edits}");
    println!("total edits against the linear: {linear_edits}");
    println!(
        "reads where the graph removed reference bias: {reads_helped}/{}",
        dataset.reads.len()
    );
    assert!(graph_edits <= linear_edits);

    // Accuracy against simulation ground truth + hardware projection.
    let measurement = measure_workload(&graph_mapper, &dataset.reads, 150);
    println!(
        "mapping accuracy vs simulation truth: {:.0}% ({} reads measured)",
        measurement.accuracy * 100.0,
        measurement.reads
    );
    let system = SegramSystem::default();
    println!(
        "SeGraM hardware projection: {:.0} reads/s on 32 accelerators \
         ({:.1} us per seed, {:.1} W system power)",
        system.throughput_reads_per_s(&measurement.workload),
        system.per_seed_latency_us(&measurement.workload),
        segram_hw::system_cost(32, segram_hw::HbmConfig::default().total_dynamic_power_w())
            .total_power_w,
    );
    Ok(())
}
