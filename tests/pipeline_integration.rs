//! Cross-crate integration tests: the full pipeline (simulate → construct →
//! index → seed → align → model) wired end to end.

use segram_core::{
    measure_workload, BaselineMapper, GraphAlignerLike, HgaLike, SegramConfig, SegramMapper,
};
use segram_graph::{gfa, hop_coverage};
use segram_hw::{system_cost, BitAlignStorage, HbmConfig, MinSeedScratchpads, SegramSystem};
use segram_sim::{DatasetConfig, ErrorProfile, ReadConfig};

#[test]
fn end_to_end_s2g_mapping_is_accurate() {
    let dataset = DatasetConfig::tiny(101).illumina(100);
    let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let measurement = measure_workload(&mapper, &dataset.reads, 100);
    assert!(measurement.mapped_fraction > 0.9, "{measurement:?}");
    // Reads drawn from injected repeats legitimately multi-map, so a small
    // fraction may report an equally-good location elsewhere.
    assert!(measurement.accuracy >= 0.85, "{measurement:?}");
}

#[test]
fn graph_mapping_beats_linear_mapping_on_variant_reads() {
    // The paper's core motivation: reads drawn from a population (graph
    // paths with variants) map better to the graph than to the bare linear
    // reference.
    let mut config = DatasetConfig::tiny(103);
    config.read_count = 40;
    let dataset = config.illumina(150);
    let graph_mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let linear_mapper =
        SegramMapper::new_linear(&dataset.reference, SegramConfig::short_reads()).unwrap();
    let mut graph_edits = 0u64;
    let mut linear_edits = 0u64;
    let mut both = 0usize;
    for read in &dataset.reads {
        let (g, _) = graph_mapper.map_read(&read.seq);
        let (l, _) = linear_mapper.map_read(&read.seq);
        if let (Some(g), Some(l)) = (g, l) {
            graph_edits += g.alignment.edit_distance as u64;
            linear_edits += l.alignment.edit_distance as u64;
            both += 1;
        }
    }
    assert!(both > 20, "too few commonly mapped reads: {both}");
    assert!(
        graph_edits <= linear_edits,
        "graph mapping should never need more edits: graph {graph_edits} vs linear {linear_edits}"
    );
}

#[test]
fn segram_agrees_with_whole_graph_dp_on_small_inputs() {
    let mut config = DatasetConfig::tiny(105);
    config.reference_len = 4_000;
    config.read_count = 8;
    let dataset = config.illumina(100);
    let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let oracle = HgaLike::new(dataset.graph().clone());
    for read in &dataset.reads {
        let (mapping, _) = mapper.map_read(&read.seq);
        let (oracle_mapping, _) = oracle.map_read(&read.seq);
        let oracle_dist = oracle_mapping.unwrap().edit_distance;
        if let Some(m) = mapping {
            // The seeded mapper may only lose to the global optimum if the
            // seed was missed entirely; when it maps, it must match.
            assert!(
                m.alignment.edit_distance >= oracle_dist,
                "seeded {} < oracle {}",
                m.alignment.edit_distance,
                oracle_dist
            );
            assert!(
                m.alignment.edit_distance <= oracle_dist + 2,
                "seeded {} much worse than oracle {}",
                m.alignment.edit_distance,
                oracle_dist
            );
        }
    }
}

#[test]
fn graph_survives_gfa_round_trip_and_still_maps() {
    let dataset = DatasetConfig::tiny(107).illumina(100);
    let text = gfa::to_gfa(dataset.graph());
    let round = gfa::from_gfa(&text).unwrap();
    assert_eq!(round.stats(), dataset.graph().stats());
    let mapper = SegramMapper::new(round, SegramConfig::short_reads());
    let (mapping, _) = mapper.map_read(&dataset.reads[0].seq);
    assert!(mapping.is_some());
}

#[test]
fn measured_workload_drives_hardware_model() {
    let dataset = DatasetConfig::tiny(109).illumina(150);
    let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let measurement = measure_workload(&mapper, &dataset.reads, 100);
    let system = SegramSystem::default();
    let throughput = system.throughput_reads_per_s(&measurement.workload);
    // Short reads on 32 accelerators: must be far beyond software rates.
    assert!(throughput > 10_000.0, "throughput {throughput}");
    // And the per-seed latency must be far below a long-read alignment.
    assert!(system.per_seed_latency_us(&measurement.workload) < 34.0);
}

#[test]
fn hardware_scratchpads_support_measured_workloads() {
    let dataset = DatasetConfig::tiny(111).illumina(250);
    let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let pads = MinSeedScratchpads::default();
    for read in dataset.reads.iter().take(10) {
        let result = mapper.seed(&read.seq);
        // Reads, minimizer counts and per-minimizer location counts all fit
        // the paper's scratchpad sizing at our scales.
        let max_locs = segram_index::extract_minimizers(&read.seq, mapper.index().scheme())
            .iter()
            .map(|m| mapper.index().frequency(m.rank) as usize)
            .max()
            .unwrap_or(0)
            .max(1);
        assert!(pads.supports(read.seq.len(), result.stats.minimizers, max_locs));
    }
}

#[test]
fn hop_coverage_and_hop_queue_depth_are_consistent() {
    // Figure 13's hop limit of 12 must cover >99% of hops on human-like
    // variation graphs, and the hop queue must hold exactly that depth.
    let dataset = DatasetConfig::tiny(113).illumina(100);
    let coverage = hop_coverage(dataset.graph(), 12).unwrap();
    assert!(coverage > 0.9, "coverage at limit 12: {coverage}");
    let storage = BitAlignStorage::default();
    assert_eq!(storage.hop_queue_depth(128), 12);
}

#[test]
fn table1_and_memory_capacity_hold_at_paper_scale() {
    let sys = system_cost(32, HbmConfig::default().total_dynamic_power_w());
    assert!((sys.per_accelerator.area_mm2 - 0.867).abs() < 0.02);
    assert!((sys.total_power_w - 28.1).abs() < 0.6);
    // The paper's human-scale graph (1.4 GB) + index (9.8 GB) fit per stack.
    let hbm = HbmConfig::default();
    assert!(hbm.fits_per_stack(1_400_000_000, 9_800_000_000));
}

#[test]
fn long_reads_flow_through_windowed_alignment() {
    let mut config = DatasetConfig::tiny(115);
    config.read_count = 3;
    config.long_read_len = 1_200;
    let dataset = config.pacbio_5();
    // Cap candidate regions (as real long-read configs do): the unlimited
    // default aligns hundreds of regions per read, which belongs in the
    // ablation binaries, not a smoke test.
    let mut mapper_config = SegramConfig::long_reads(0.05);
    mapper_config.max_regions = 12;
    let mapper = SegramMapper::new(dataset.graph().clone(), mapper_config);
    let mut mapped = 0;
    for read in &dataset.reads {
        let (mapping, stats) = mapper.map_read(&read.seq);
        assert!(stats.regions_aligned > 0 || stats.minimizers == 0);
        if let Some(m) = mapping {
            mapped += 1;
            assert_eq!(m.alignment.cigar.read_len() as usize, read.seq.len());
        }
    }
    assert!(mapped >= 2, "only {mapped}/3 long reads mapped");
}

#[test]
fn baseline_and_segram_agree_on_locations() {
    let dataset = DatasetConfig::tiny(117).illumina(100);
    let segram = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
    let baseline = GraphAlignerLike::new(dataset.graph().clone(), SegramConfig::short_reads());
    let mut agreements = 0usize;
    let mut comparable = 0usize;
    for read in dataset.reads.iter().take(10) {
        let (s, _) = segram.map_read(&read.seq);
        let (b, _) = baseline.map_read(&read.seq);
        if let (Some(s), Some(b)) = (s, b) {
            comparable += 1;
            if s.linear_start.abs_diff(b.linear_start) < 150 {
                agreements += 1;
            }
        }
    }
    assert!(comparable >= 5);
    assert!(
        agreements * 10 >= comparable * 8,
        "{agreements}/{comparable}"
    );
}

#[test]
fn s2s_special_case_reads_map_like_s2g() {
    // Section 9: S2S is the single-successor special case; a linear-graph
    // mapper must handle plain resequencing reads.
    let reference =
        segram_sim::generate_reference(&segram_sim::GenomeConfig::human_like(30_000, 119));
    let graph = segram_graph::linear_graph(&reference, 4096).unwrap();
    let reads = segram_sim::simulate_reads(
        &graph,
        &ReadConfig {
            count: 15,
            len: 120,
            errors: ErrorProfile::illumina(),
            seed: 120,
        },
    );
    let mapper = SegramMapper::new_linear(&reference, SegramConfig::short_reads()).unwrap();
    let measurement = measure_workload(&mapper, &reads, 100);
    assert!(measurement.mapped_fraction > 0.85, "{measurement:?}");
    // ~20% of the synthetic genome is repeat families, so up to that
    // fraction of reads legitimately multi-map to another repeat copy.
    assert!(measurement.accuracy >= 0.75, "{measurement:?}");
}

#[test]
fn graph_tables_round_trip_a_dataset_graph() {
    let dataset = DatasetConfig::tiny(121).illumina(100);
    let graph = dataset.graph();
    let fp = graph.footprint();
    assert_eq!(fp.node_table_bytes, graph.node_count() as u64 * 32);
    assert_eq!(fp.char_table_bytes, graph.total_chars().div_ceil(4));
    assert_eq!(fp.edge_table_bytes, graph.edge_count() as u64 * 4);
    // Rebuilt node by node and edge by edge, the graph is the same tables.
    assert_eq!(&gfa::from_gfa(&gfa::to_gfa(graph)).unwrap(), graph);
    for node in graph.node_ids().take(50) {
        for &next in graph.successors(node) {
            assert!(graph.predecessors(next).contains(&node));
        }
    }
}

/// With a region cap in effect, the mapper's clustering step (Figure 2's
/// optional step 2) must keep the true locus: long reads whose early
/// minimizers hit repeats still map, because clusters are ranked by seed
/// support rather than read order.
#[test]
fn capped_long_read_mapping_keeps_the_true_locus() {
    let mut config = DatasetConfig::tiny(29);
    config.read_count = 10;
    let dataset = config.pacbio_5();
    let mut mapper_config = SegramConfig::long_reads(0.05);
    mapper_config.max_regions = 8; // aggressive cap
    let mapper = SegramMapper::new(dataset.graph().clone(), mapper_config);
    let mut accurate = 0usize;
    for read in &dataset.reads {
        let (mapping, _) = mapper.map_read(&read.seq);
        if let Some(m) = mapping {
            if m.linear_start.abs_diff(read.true_start_linear) <= 500 {
                accurate += 1;
            }
        }
    }
    assert!(
        accurate >= 8,
        "only {accurate}/10 capped long reads found their locus"
    );
}
