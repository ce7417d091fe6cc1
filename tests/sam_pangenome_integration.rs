//! Integration: the full downstream-consumer path — map a stranded read
//! set against a population graph and emit a valid SAM document.

use segram_align::Cigar;
use segram_core::{mapq_estimate, sam_document, SamRecord, SegramConfig, SegramMapper};
use segram_graph::build_graph;
use segram_sim::{
    generate_reference, simulate_stranded_reads, simulate_variants, GenomeConfig, ReadConfig,
    VariantConfig,
};

#[test]
fn stranded_mapping_to_sam_document() {
    let reference = generate_reference(&GenomeConfig::human_like(40_000, 401));
    let variants = simulate_variants(&reference, &VariantConfig::human_like(402));
    let built = build_graph(&reference, variants).unwrap();
    let mapper = SegramMapper::new(built.graph.clone(), SegramConfig::short_reads());
    let reads = simulate_stranded_reads(&built.graph, &ReadConfig::short_reads(25, 120, 403), 0.5);

    let mut records = Vec::new();
    let mut correct = 0usize;
    for (i, read) in reads.iter().enumerate() {
        let (mapping, stats) = mapper.map_read_both(&read.seq);
        match mapping {
            Some((m, strand)) => {
                if m.linear_start.abs_diff(read.true_start_linear) < 120 {
                    correct += 1;
                    // The reported strand must match the simulated one for
                    // low-edit mappings at the true position.
                    if m.alignment.edit_distance <= 3 {
                        assert_eq!(strand, read.strand, "read {i}");
                    }
                }
                let mapq = mapq_estimate(
                    stats.regions_aligned,
                    m.alignment.edit_distance,
                    read.seq.len(),
                );
                records.push(SamRecord::from_mapping(
                    format!("read{i}"),
                    "graph",
                    &read.seq,
                    &m,
                    mapq,
                ));
            }
            None => records.push(SamRecord::unmapped(format!("read{i}"), &read.seq)),
        }
    }
    assert!(correct >= 18, "only {correct}/25 correct");

    let doc = sam_document("graph", built.graph.total_chars(), &records);
    let lines: Vec<&str> = doc.lines().collect();
    assert_eq!(lines.len(), 3 + records.len());
    // Every mapped record's CIGAR parses and consumes the read exactly.
    for line in &lines[3..] {
        let fields: Vec<&str> = line.split('\t').collect();
        assert!(fields.len() >= 11, "short SAM line: {line}");
        let cigar: Cigar = fields[5].parse().expect("valid CIGAR");
        if fields[1] != "4" {
            assert_eq!(cigar.read_len() as usize, fields[9].len(), "line {line}");
        }
    }
}
