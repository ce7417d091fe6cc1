//! Minimal GFA v1 import/export (`S` segment and `L` link records), the
//! interchange format the paper converts its graphs into during
//! pre-processing ("we convert our VG-formatted graphs to GFA-formatted
//! graphs ... since GFA is easier to work with", Section 5).

use std::collections::HashMap;

use crate::{DnaSeq, GenomeGraph, GraphBuilder, GraphError, NodeId};

/// Serializes a graph to GFA v1 text.
///
/// Node ids are written 1-based (GFA convention); every link uses a `0M`
/// overlap, as produced by `vg view` for variation graphs.
///
/// # Examples
///
/// ```
/// use segram_graph::{gfa, linear_graph};
///
/// let graph = linear_graph(&"ACGT".parse()?, 2)?;
/// let text = gfa::to_gfa(&graph);
/// assert!(text.contains("S\t1\tAC"));
/// assert!(text.contains("L\t1\t+\t2\t+\t0M"));
/// let round = gfa::from_gfa(&text)?;
/// assert_eq!(round.stats(), graph.stats());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_gfa(graph: &GenomeGraph) -> String {
    let mut out = String::from("H\tVN:Z:1.0\n");
    for node in graph.node_ids() {
        out.push_str(&format!("S\t{}\t", node.0 + 1));
        out.extend(graph.seq(node).iter().map(|base| base.to_ascii() as char));
        out.push('\n');
    }
    for (from, to) in graph.edges() {
        out.push_str(&format!("L\t{}\t+\t{}\t+\t0M\n", from.0 + 1, to.0 + 1));
    }
    out
}

/// Parses the GFA v1 subset written by [`to_gfa`] (forward-strand `S`/`L`
/// records; `H` and unknown record types are ignored).
///
/// Segment names may be arbitrary strings; they are assigned dense ids in
/// order of first appearance, then the graph is topologically sorted.
///
/// # Errors
///
/// Returns [`GraphError::MalformedGfa`] for records with missing fields,
/// links that reference unknown segments, or reverse-strand links (which
/// this subset does not model), and propagates graph-construction errors
/// (empty segments, duplicate links, cycles).
pub fn from_gfa(text: &str) -> Result<GenomeGraph, GraphError> {
    let mut builder = GraphBuilder::new();
    let mut names: HashMap<&str, NodeId> = HashMap::new();
    let mut links: Vec<(NodeId, NodeId, usize)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        match fields.next() {
            Some("S") => {
                let name = fields.next().ok_or_else(|| GraphError::MalformedGfa {
                    line: lineno + 1,
                    reason: "segment record missing name".into(),
                })?;
                let seq_text = fields.next().ok_or_else(|| GraphError::MalformedGfa {
                    line: lineno + 1,
                    reason: "segment record missing sequence".into(),
                })?;
                let seq: DnaSeq = DnaSeq::from_ascii(seq_text.as_bytes()).map_err(|e| {
                    GraphError::MalformedGfa {
                        line: lineno + 1,
                        reason: e.to_string(),
                    }
                })?;
                let id = builder.add_node(seq)?;
                if names.insert(name, id).is_some() {
                    return Err(GraphError::MalformedGfa {
                        line: lineno + 1,
                        reason: format!("duplicate segment name {name}"),
                    });
                }
            }
            Some("L") => {
                let from = fields.next();
                let from_orient = fields.next();
                let to = fields.next();
                let to_orient = fields.next();
                let (Some(from), Some(from_orient), Some(to), Some(to_orient)) =
                    (from, from_orient, to, to_orient)
                else {
                    return Err(GraphError::MalformedGfa {
                        line: lineno + 1,
                        reason: "link record missing fields".into(),
                    });
                };
                if from_orient != "+" || to_orient != "+" {
                    return Err(GraphError::MalformedGfa {
                        line: lineno + 1,
                        reason: "only forward-strand links are supported".into(),
                    });
                }
                let resolve = |name: &str| {
                    names
                        .get(name)
                        .copied()
                        .ok_or_else(|| GraphError::MalformedGfa {
                            line: lineno + 1,
                            reason: format!("link references unknown segment {name}"),
                        })
                };
                links.push((resolve(from)?, resolve(to)?, lineno + 1));
            }
            _ => {} // headers, paths, comments: ignored
        }
    }
    for (from, to, _line) in links {
        builder.add_edge(from, to)?;
    }
    let graph = builder.finish()?;
    if graph.is_topologically_sorted() {
        Ok(graph)
    } else {
        Ok(graph.topological_sort()?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_graph, Variant};

    #[test]
    fn round_trip_preserves_structure() {
        let graph = build_graph(
            &"ACGTACGT".parse().unwrap(),
            [Variant::snp(3, crate::Base::G), Variant::deletion(5, 2)]
                .into_iter()
                .collect(),
        )
        .unwrap()
        .graph;
        let text = to_gfa(&graph);
        let round = from_gfa(&text).unwrap();
        assert_eq!(round.stats(), graph.stats());
        for node in graph.node_ids() {
            assert_eq!(round.seq(node), graph.seq(node));
            assert_eq!(round.successors(node), graph.successors(node));
        }
    }

    #[test]
    fn unsorted_input_is_resorted() {
        let text = "S\tb\tTT\nS\ta\tAC\nL\ta\t+\tb\t+\t0M\n";
        let graph = from_gfa(text).unwrap();
        assert!(graph.is_topologically_sorted());
        assert_eq!(
            DnaSeq::from(graph.seq(NodeId(0)).to_vec()).to_string(),
            "AC"
        );
        assert_eq!(
            DnaSeq::from(graph.seq(NodeId(1)).to_vec()).to_string(),
            "TT"
        );
    }

    #[test]
    fn malformed_records_are_reported_with_line_numbers() {
        let missing_seq = "S\tonly_name\n";
        match from_gfa(missing_seq).unwrap_err() {
            GraphError::MalformedGfa { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
        let unknown_link = "S\ta\tAC\nL\ta\t+\tzzz\t+\t0M\n";
        assert!(matches!(
            from_gfa(unknown_link),
            Err(GraphError::MalformedGfa { line: 2, .. })
        ));
        let reverse = "S\ta\tAC\nS\tb\tGG\nL\ta\t+\tb\t-\t0M\n";
        assert!(from_gfa(reverse).is_err());
        let dup = "S\ta\tAC\nS\ta\tGG\n";
        assert!(from_gfa(dup).is_err());
    }

    #[test]
    fn ambiguous_bases_rejected_at_parse() {
        assert!(from_gfa("S\ta\tACGN\n").is_err());
    }
}
