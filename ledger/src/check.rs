//! Output checks: byte identity against the reference document, and
//! placement against the simulator's truth.

use std::collections::HashMap;

use segram_graph::GenomeGraph;
use segram_io::{read_gaf, BgzfBlocks};

/// A read counts as correctly placed within this many linear positions of
/// its origin (the `segram eval compare --tolerance` default).
pub const TOLERANCE: u64 = 150;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    Sam,
    Gaf,
}

impl Format {
    pub fn name(self) -> &'static str {
        match self {
            Format::Sam => "sam",
            Format::Gaf => "gaf",
        }
    }
}

/// Inflates a whole BGZF document through the same block slicer and
/// inflater `segram` uses on input.
pub fn inflate_bgzf(bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut plain = Vec::new();
    for block in BgzfBlocks::new(bytes) {
        let block = block.map_err(|e| e.to_string())?;
        plain.extend_from_slice(&block.inflate().map_err(|e| e.to_string())?);
    }
    Ok(plain)
}

/// The truth rule. A read with a simulated origin is right when it is
/// mapped within [`TOLERANCE`] of it; a read without one (random bases) is
/// right when it is left unmapped.
pub fn placed_correctly(truth: Option<u64>, mapped_at: Option<u64>) -> bool {
    match (truth, mapped_at) {
        (Some(truth), Some(at)) => truth.abs_diff(at) <= TOLERANCE,
        (None, None) => true,
        _ => false,
    }
}

/// Read id and simulated origin of every FASTQ record, in input order.
pub fn truths(fastq: &str) -> Vec<(&str, Option<u64>)> {
    fastq
        .lines()
        .step_by(4)
        .map(|header| {
            let mut tokens = header.trim_start_matches('@').split_whitespace();
            let id = tokens.next().unwrap_or("");
            let truth = tokens.find_map(|t| t.strip_prefix("truth:linear=")?.parse().ok());
            (id, truth)
        })
        .collect()
}

/// Where each read of a SAM or GAF document was placed, as a 0-based
/// linear coordinate. GAF path starts are converted through the graph's
/// linear coordinates; reads absent from a GAF document are unmapped.
pub fn placements(
    document: &str,
    format: Format,
    graph: &GenomeGraph,
) -> Result<HashMap<String, Option<u64>>, String> {
    let mut placed = HashMap::new();
    match format {
        Format::Sam => {
            for line in document.lines().filter(|l| !l.starts_with('@')) {
                let fields: Vec<&str> = line.split('\t').collect();
                if fields.len() < 4 {
                    return Err(format!("short SAM record {line:?}"));
                }
                let flag: u32 = fields[1]
                    .parse()
                    .map_err(|_| format!("bad FLAG {line:?}"))?;
                let pos: u64 = fields[3].parse().map_err(|_| format!("bad POS {line:?}"))?;
                let at = (flag & 0x4 == 0 && pos > 0).then(|| pos - 1);
                placed.insert(fields[0].to_owned(), at);
            }
        }
        Format::Gaf => {
            for record in read_gaf(document).map_err(|e| e.to_string())? {
                let first = *record.path.first().ok_or("GAF record with an empty path")?;
                if first.index() >= graph.node_count() {
                    return Err(format!("GAF path names unknown node {first}"));
                }
                placed.insert(record.qname, Some(graph.char_start(first) + record.pstart));
            }
        }
    }
    Ok(placed)
}

/// How many of `fastq`'s reads `document` places correctly.
pub fn correct_reads(
    fastq: &str,
    document: &str,
    format: Format,
    graph: &GenomeGraph,
) -> Result<usize, String> {
    let placed = placements(document, format, graph)?;
    Ok(truths(fastq)
        .into_iter()
        .filter(|(id, truth)| placed_correctly(*truth, placed.get(*id).copied().flatten()))
        .count())
}

/// Batches each pool mapped, from the `pool <n> -> shards [...] (<w>
/// workers): <b> batches` lines of `segram map --schedule elastic`'s
/// report. Empty for any other schedule.
pub fn pool_batches(report: &str) -> Vec<u64> {
    report
        .lines()
        .filter_map(|l| {
            let (_, after) = l.trim_start().strip_prefix("pool ")?.split_once("): ")?;
            after.split(' ').next()?.parse().ok()
        })
        .collect()
}

/// The SAM records (non-header lines) of `document`, keyed by read id.
pub fn sam_records(document: &str) -> (String, HashMap<&str, &str>) {
    let mut header = String::new();
    let mut records = HashMap::new();
    for line in document.split_inclusive('\n') {
        if line.starts_with('@') {
            header.push_str(line);
        } else if let Some(id) = line.split('\t').next() {
            records.insert(id, line);
        }
    }
    (header, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use segram_graph::{linear_graph, DnaSeq};
    use segram_io::{bgzf_compress, BgzfMode};

    #[test]
    fn truth_rule_has_a_150_base_tolerance_both_ways() {
        assert!(placed_correctly(Some(1000), Some(1000)));
        assert!(placed_correctly(Some(1000), Some(1150)));
        assert!(placed_correctly(Some(1000), Some(850)));
        assert!(!placed_correctly(Some(1000), Some(1151)));
        assert!(!placed_correctly(Some(1000), Some(849)));
        assert!(placed_correctly(Some(10), Some(0)));
        // A read with an origin must be mapped; one without must not be.
        assert!(!placed_correctly(Some(1000), None));
        assert!(placed_correctly(None, None));
        assert!(!placed_correctly(None, Some(5)));
    }

    #[test]
    fn fastq_headers_yield_ids_and_truths() {
        let fastq =
            "@read0 truth:linear=41 strand=Forward errors=0\nACGT\n+\nIIII\n@rand1\nAC\n+\nII\n";
        assert_eq!(truths(fastq), vec![("read0", Some(41)), ("rand1", None)]);
    }

    #[test]
    fn sam_and_gaf_placements_agree_on_linear_coordinates() {
        let seq: DnaSeq = "ACGT".repeat(50).parse().unwrap();
        let graph = linear_graph(&seq, 32).unwrap();
        let sam = "@HD\tVN:1.6\nr0\t0\tgraph\t71\t20\t4=\t*\t0\t0\tACGT\t*\tNM:i:0\nr1\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\t*\n";
        let placed = placements(sam, Format::Sam, &graph).unwrap();
        assert_eq!(placed["r0"], Some(70));
        assert_eq!(placed["r1"], None);
        // Node 2 starts at linear 64; offset 6 inside it is linear 70.
        let gaf = "r0\t4\t0\t4\t+\t>2\t32\t6\t10\t4\t4\t20\tNM:i:0\tcg:Z:4=\n";
        let placed = placements(gaf, Format::Gaf, &graph).unwrap();
        assert_eq!(placed["r0"], Some(70));

        let fastq = "@r0 truth:linear=60\nACGT\n+\nIIII\n@r1\nACGT\n+\nIIII\n";
        assert_eq!(correct_reads(fastq, sam, Format::Sam, &graph).unwrap(), 2);
        // In GAF the unmapped random read is simply absent.
        assert_eq!(correct_reads(fastq, gaf, Format::Gaf, &graph).unwrap(), 2);
    }

    #[test]
    fn bgzf_documents_inflate_back() {
        let plain = b"@HD\tVN:1.6\n".repeat(3000);
        let packed = bgzf_compress(&plain, 16 * 1024, BgzfMode::Fixed);
        assert_eq!(inflate_bgzf(&packed).unwrap(), plain);
        assert!(inflate_bgzf(&packed[..packed.len() - 5]).is_err());
    }

    #[test]
    fn elastic_reports_yield_batches_per_pool() {
        let report = "threads: 2 (50 batches of up to 16 reads)\n\
            schedule: elastic — 2 pools, 49 batches routed, 1 spilled, 2 shard migrations\n  \
            pool 0 -> shards [1, 3] (1 workers): 19 batches (18 routed, 1 spilled), queue max depth 4\n  \
            pool 1 -> shards [0, 2] (1 workers): 31 batches (31 routed, 0 spilled), queue max depth 4\n";
        assert_eq!(pool_batches(report), vec![19, 31]);
        assert!(pool_batches("threads: 2 (50 batches of up to 16 reads)\n").is_empty());
    }

    #[test]
    fn sam_documents_split_into_header_and_records() {
        let sam = "@HD\tVN:1.6\n@SQ\tSN:graph\nr0\t0\tgraph\t1\nr1\t4\t*\t0\n";
        let (header, records) = sam_records(sam);
        assert_eq!(header, "@HD\tVN:1.6\n@SQ\tSN:graph\n");
        assert_eq!(records["r1"], "r1\t4\t*\t0\n");
        assert_eq!(records.len(), 2);
    }
}
