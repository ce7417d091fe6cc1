//! Seeded inputs. Everything `segram` is given is a file made here from
//! `--seed` with `segram-sim` and the testkit's ChaCha RNG: the same seed
//! gives the same bytes, and the fingerprints printed with every result
//! show when a simulator change has silently altered a dataset.

use std::fs;
use std::path::Path;

use segram_graph::{build_graph, DnaSeq, GenomeGraph, VariantSet, BASES};
use segram_io::{
    bgzf_compress, phred_from_error_rate, write_fasta, write_fastq, write_vcf, BgzfMode,
    FastaRecord, FastqRecord,
};
use segram_sim::{
    generate_reference, simulate_stranded_reads, simulate_variants, ErrorProfile, GenomeConfig,
    ReadConfig, SimulatedRead, VariantConfig,
};
use segram_testkit::rng::{ChaCha8Rng, Rng, SeedableRng};

/// Plain bytes per BGZF member of the compressed inputs.
pub const BGZF_BLOCK: usize = 16 * 1024;

/// Every how-many-th variant goes to the delta VCF (2 % of them).
const DELTA_EVERY: usize = 50;

/// The reads a workload maps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reads {
    /// Illumina-profile reads (1 % error) simulated from the graph.
    Short { count: usize, len: usize },
    /// ONT-profile reads (10 % error) simulated from the graph.
    Long { count: usize, len: usize },
    /// Uniform-random reads with no origin in the reference.
    Random { count: usize, len: usize },
}

impl Reads {
    pub fn count(self) -> usize {
        match self {
            Reads::Short { count, .. }
            | Reads::Long { count, .. }
            | Reads::Random { count, .. } => count,
        }
    }
}

/// A reference with its variants split into a base set and a delta, and
/// the graph over all of them (what reads are simulated from).
pub struct Reference {
    pub seq: DnaSeq,
    pub base: VariantSet,
    pub delta: VariantSet,
    pub all: VariantSet,
    pub graph: GenomeGraph,
}

/// A human-like reference of `len` bases. Repeat density is a tenth of
/// `GenomeConfig::human_like`'s (2 % of the genome, not 20 %): at 20 % a
/// handful of repeat-family reads cost 50x the median read and decide the
/// run's wall time, so two seeds differ by a third and no bound holds.
pub fn reference(len: usize, seed: u64) -> Result<Reference, String> {
    let config = GenomeConfig {
        repeat_count: len / 15_000,
        ..GenomeConfig::human_like(len, seed)
    };
    let seq = generate_reference(&config);
    let all = simulate_variants(&seq, &VariantConfig::human_like(seed ^ 0xabcd)).into_sorted();
    let (base, delta) = split_variants(&all);
    let graph = build_graph(&seq, all.clone())
        .map_err(|e| format!("simulated variants do not build a graph: {e}"))?
        .graph;
    Ok(Reference {
        seq,
        base,
        delta,
        all,
        graph,
    })
}

/// Splits a sorted variant set into a base set and a delta of about every
/// [`DELTA_EVERY`]-th variant. A variant goes to the delta only when its
/// reference interval touches no neighbour's: where a delta variant shares
/// a site with a base variant, `index update` orders the sibling allele
/// nodes by arrival and a scratch build by allele, so the two graphs are
/// isomorphic but not byte-identical (seen on 3 of 10 seeds at 12 Mbp),
/// and the workloads must be ones on which no operation fails.
fn split_variants(sorted: &VariantSet) -> (VariantSet, VariantSet) {
    let variants = sorted.as_slice();
    let mut base = VariantSet::new();
    let mut delta = VariantSet::new();
    // First reference position no earlier variant reaches.
    let mut frontier = 0;
    for (i, variant) in variants.iter().enumerate() {
        let (start, end) = variant.ref_interval();
        let clear_before = i == 0 || start > frontier;
        let clear_after = variants
            .get(i + 1)
            .is_none_or(|next| next.ref_interval().0 > end);
        frontier = frontier.max(end);
        if (i + 1) % DELTA_EVERY == 0 && clear_before && clear_after {
            delta.push(variant.clone());
        } else {
            base.push(variant.clone());
        }
    }
    (base, delta)
}

fn truth_record(read: &SimulatedRead, phred: u8) -> FastqRecord {
    let mut record =
        FastqRecord::with_uniform_quality(format!("read{}", read.id), read.seq.clone(), phred);
    record.description = format!(
        "truth:linear={} strand={:?} errors={}",
        read.true_start_linear, read.strand, read.injected_errors
    );
    record
}

/// The FASTQ text for `reads`: simulated reads carry their origin as
/// `truth:linear=<pos>` in the description, random reads carry none.
pub fn fastq(reads: Reads, graph: &GenomeGraph, seed: u64) -> String {
    let records: Vec<FastqRecord> = match reads {
        Reads::Short { count, len } => {
            let config = ReadConfig::short_reads(count, len, seed ^ 0x1234);
            let phred = phred_from_error_rate(0.01);
            simulate_stranded_reads(graph, &config, 0.5)
                .iter()
                .map(|r| truth_record(r, phred))
                .collect()
        }
        Reads::Long { count, len } => {
            let config = ReadConfig::long_reads(count, len, ErrorProfile::ont_10(), seed ^ 0x1234);
            let phred = phred_from_error_rate(0.10);
            simulate_stranded_reads(graph, &config, 0.5)
                .iter()
                .map(|r| truth_record(r, phred))
                .collect()
        }
        Reads::Random { count, len } => random_reads(count, len, seed ^ 0x5678),
    };
    write_fastq(&records)
}

/// `count` reads of `len` uniform-random bases.
pub fn random_reads(count: usize, len: usize, seed: u64) -> Vec<FastqRecord> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let seq: DnaSeq = (0..len).map(|_| BASES[rng.gen_range(0..4)]).collect();
            FastqRecord::with_uniform_quality(format!("rand{i}"), seq, 30)
        })
        .collect()
}

/// The first `count` records of a FASTQ text (4 lines each).
pub fn fastq_prefix(fastq: &str, count: usize) -> &str {
    let end = fastq
        .match_indices('\n')
        .nth(4 * count - 1)
        .map_or(fastq.len(), |(i, _)| i + 1);
    &fastq[..end]
}

/// A one-read FASTQ that costs next to nothing to map: the reference's
/// first 32 bases. Mapping it times the process start and the store load.
pub fn probe_fastq(reference: &DnaSeq) -> String {
    let probe: DnaSeq = reference.iter().take(32).collect();
    write_fastq(&[FastqRecord::with_uniform_quality("probe", probe, 30)])
}

pub fn bgzf(plain: &[u8]) -> Vec<u8> {
    bgzf_compress(plain, BGZF_BLOCK, BgzfMode::Fixed)
}

pub fn write(path: &Path, bytes: impl AsRef<[u8]>) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Writes `ref.fa`, `base.vcf`, `delta.vcf` and `all.vcf` under `dir`.
pub fn write_reference(dir: &Path, reference: &Reference) -> Result<(), String> {
    let fasta = write_fasta(&[FastaRecord::new("chr1", reference.seq.clone())], 70);
    write(&dir.join("ref.fa"), fasta)?;
    for (name, set) in [
        ("base.vcf", &reference.base),
        ("delta.vcf", &reference.delta),
        ("all.vcf", &reference.all),
    ] {
        let text = write_vcf("chr1", &reference.seq, set).map_err(|e| format!("{name}: {e}"))?;
        write(&dir.join(name), text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_io::fnv1a64;

    #[test]
    fn random_reads_are_seed_deterministic() {
        let a = write_fastq(&random_reads(50, 150, 11));
        let b = write_fastq(&random_reads(50, 150, 11));
        let c = write_fastq(&random_reads(50, 150, 12));
        assert_eq!(fnv1a64(a.as_bytes()), fnv1a64(b.as_bytes()));
        assert_ne!(fnv1a64(a.as_bytes()), fnv1a64(c.as_bytes()));
        assert_eq!(a.lines().count(), 200);
        assert!(a.lines().nth(1).is_some_and(|seq| seq.len() == 150));
    }

    #[test]
    fn simulated_inputs_are_seed_deterministic_and_carry_truth() {
        let one = reference(60_000, 3).unwrap();
        let two = reference(60_000, 3).unwrap();
        assert_eq!(one.seq, two.seq);
        assert_eq!(one.all, two.all);
        assert_eq!(one.base.len() + one.delta.len(), one.all.len());
        let fiftieth = one.all.len() / DELTA_EVERY;
        assert!(one.delta.len() <= fiftieth && one.delta.len() * 10 >= fiftieth * 9);
        let reads = Reads::Short { count: 8, len: 100 };
        let text = fastq(reads, &one.graph, 3);
        assert_eq!(text, fastq(reads, &two.graph, 3));
        assert_ne!(text, fastq(reads, &one.graph, 4));
        assert!(text.lines().step_by(4).all(|h| h.contains("truth:linear=")));
    }

    #[test]
    fn delta_variants_touch_no_neighbour() {
        use segram_graph::{Base, Variant};
        let mut all = VariantSet::new();
        for i in 0..200u64 {
            all.push(Variant::snp(10 * i, Base::A));
        }
        // Neighbours for some every-50th candidates: a second allele on the
        // same site, a deletion that covers one, an insertion at one's end.
        all.push(Variant::snp(490, Base::C));
        all.push(Variant::deletion(985, 10));
        all.push(Variant::insertion(1491, "GG".parse().unwrap()));
        let all = all.into_sorted();
        let (base, delta) = split_variants(&all);
        assert_eq!(base.len() + delta.len(), all.len());
        let positions: Vec<u64> = delta.iter().map(|v| v.pos).collect();
        assert!(!positions.contains(&490) && !positions.contains(&990));
        assert!(!positions.contains(&1490));
        assert!(!delta.is_empty());
        for picked in delta.iter() {
            let (start, end) = picked.ref_interval();
            let touching = all
                .iter()
                .filter(|v| {
                    let (s, e) = v.ref_interval();
                    s <= end && start <= e
                })
                .count();
            assert_eq!(touching, 1, "{picked} touches a neighbour");
        }
    }

    /// Known defect, kept here as a failing test for the issue that fixes
    /// it (run with `--ignored`): two alleles on one site come out in
    /// arrival order, so an update whose delta allele sorts first in the
    /// full call set builds sibling nodes in the other order than a
    /// scratch build. [`split_variants`] keeps such variants in the base.
    #[test]
    #[ignore = "known defect: same-site alleles are ordered by arrival, so update != scratch build"]
    fn update_equals_scratch_build_when_a_delta_variant_shares_a_site() {
        use segram_graph::{apply_variants, graphs_identical, Base, Variant};
        let seq: DnaSeq = "ACGT".repeat(100).parse().unwrap();
        let delta_first = Variant::snp(100, Base::C);
        let base_second = Variant::snp(100, Base::T);
        let mut all = VariantSet::new();
        all.push(delta_first.clone());
        all.push(base_second.clone());
        let (mut base, mut delta) = (VariantSet::new(), VariantSet::new());
        base.push(base_second);
        delta.push(delta_first);
        let updated = apply_variants(&seq, &base, &delta, 0).unwrap().new.graph;
        let scratch = build_graph(&seq, all.into_sorted()).unwrap().graph;
        assert!(graphs_identical(&updated, &scratch));
    }

    #[test]
    fn probe_is_one_short_read() {
        let seq: DnaSeq = "ACGT".repeat(20).parse().unwrap();
        let probe = probe_fastq(&seq);
        let lines: Vec<&str> = probe.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!((lines[0], lines[1]), ("@probe", &"ACGT".repeat(8)[..]));
        assert_eq!(lines[3].len(), 32);
    }

    #[test]
    fn prefix_keeps_whole_records() {
        let text = write_fastq(&random_reads(5, 20, 1));
        let two = fastq_prefix(&text, 2);
        assert_eq!(two.lines().count(), 8);
        assert!(text.starts_with(two));
        assert_eq!(fastq_prefix(&text, 9), text);
    }
}
