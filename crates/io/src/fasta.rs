//! FASTA reading and writing (the paper's reference-genome input format,
//! Section 5).
//!
//! The parser is line based and tolerant of Windows line endings, blank
//! lines between records, and arbitrary line wrapping inside sequences.
//! Lower-case bases (soft-masked repeats in real references) are accepted
//! and upper-cased. Ambiguity codes (`N` etc.) are handled according to an
//! explicit [`Ambiguity`] policy because the downstream 2-bit alphabet
//! cannot represent them.

use std::fmt::Write as _;

use segram_graph::{Base, DnaSeq};

use crate::error::FormatError;

/// Policy for sequence characters outside the `A`/`C`/`G`/`T` alphabet.
///
/// Real references contain `N` runs (assembly gaps, centromeres); the
/// paper's 2-bit character table (Figure 5) has no room for them, so the
/// caller must choose what to do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Ambiguity {
    /// Fail parsing with [`FormatError::InvalidBase`]. The default: silent
    /// data mangling is worse than an error.
    #[default]
    Reject,
    /// Substitute every ambiguous character with a fixed base. This is the
    /// deterministic counterpart of the common "random base" convention and
    /// keeps runs reproducible.
    Substitute(Base),
}

/// One FASTA record: a header and its sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FastaRecord {
    /// Sequence identifier: the first whitespace-delimited token after `>`.
    pub id: String,
    /// The rest of the header line (may be empty).
    pub description: String,
    /// The sequence, upper-cased and validated.
    pub seq: DnaSeq,
}

impl FastaRecord {
    /// Creates a record with an empty description.
    pub fn new(id: impl Into<String>, seq: DnaSeq) -> Self {
        Self {
            id: id.into(),
            description: String::new(),
            seq,
        }
    }
}

/// Parses a FASTA document with the given ambiguity policy.
///
/// # Errors
///
/// Returns [`FormatError`] when the document contains sequence data before
/// the first header, an empty header, an empty record, or (under
/// [`Ambiguity::Reject`]) a non-`ACGT` character.
///
/// # Examples
///
/// ```
/// use segram_io::{read_fasta, Ambiguity};
///
/// let records = read_fasta(">chr1 test\nACGT\nacgt\n>chr2\nTTTT\n", Ambiguity::Reject)?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].id, "chr1");
/// assert_eq!(records[0].seq.to_string(), "ACGTACGT");
/// # Ok::<(), segram_io::FormatError>(())
/// ```
pub fn read_fasta(text: &str, ambiguity: Ambiguity) -> Result<Vec<FastaRecord>, FormatError> {
    let mut records: Vec<FastaRecord> = Vec::new();
    let mut current: Option<(String, String, DnaSeq, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('>') {
            if let Some(done) = current.take() {
                records.push(finish_record(done)?);
            }
            let header = header.trim();
            let (id, description) = match header.split_once(char::is_whitespace) {
                Some((id, desc)) => (id.to_owned(), desc.trim().to_owned()),
                None => (header.to_owned(), String::new()),
            };
            if id.is_empty() {
                return Err(FormatError::malformed(line_no, "empty FASTA header"));
            }
            current = Some((id, description, DnaSeq::new(), line_no));
        } else if line.starts_with(';') {
            // Historical FASTA comment lines; ignored.
            continue;
        } else {
            let Some((_, _, seq, _)) = current.as_mut() else {
                return Err(FormatError::malformed(
                    line_no,
                    "sequence data before the first '>' header",
                ));
            };
            append_bases(seq, line.as_bytes(), line_no, ambiguity)?;
        }
    }
    if let Some(done) = current.take() {
        records.push(finish_record(done)?);
    }
    Ok(records)
}

fn finish_record(
    (id, description, seq, line): (String, String, DnaSeq, usize),
) -> Result<FastaRecord, FormatError> {
    if seq.is_empty() {
        return Err(FormatError::invalid_record(
            line,
            format!("record {id:?} has an empty sequence"),
        ));
    }
    Ok(FastaRecord {
        id,
        description,
        seq,
    })
}

const NOT_A_BASE: u8 = 4;
/// 2-bit code of each `ACGTacgt` byte; [`NOT_A_BASE`] for every other.
const BASE_CLASS: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut byte = 0;
    while byte < 256 {
        if let Some(base) = Base::from_ascii(byte as u8) {
            table[byte] = base.code();
        }
        byte += 1;
    }
    table
};

/// Appends validated bases to `seq`, applying the ambiguity policy.
pub(crate) fn append_bases(
    seq: &mut DnaSeq,
    bytes: &[u8],
    line_no: usize,
    ambiguity: Ambiguity,
) -> Result<(), FormatError> {
    // The common line holds nothing but bases: one table lookup per byte.
    // Any other line takes the per-byte path, which owns every policy
    // decision and error.
    if bytes.iter().all(|&b| BASE_CLASS[b as usize] != NOT_A_BASE) {
        seq.extend(
            bytes
                .iter()
                .map(|&b| Base::from_code_masked(BASE_CLASS[b as usize])),
        );
        return Ok(());
    }
    append_bases_checked(seq, bytes, line_no, ambiguity)
}

fn append_bases_checked(
    seq: &mut DnaSeq,
    bytes: &[u8],
    line_no: usize,
    ambiguity: Ambiguity,
) -> Result<(), FormatError> {
    for &byte in bytes {
        match Base::from_ascii(byte) {
            Some(base) => seq.push(base),
            None if byte.is_ascii_alphabetic() => match ambiguity {
                Ambiguity::Reject => {
                    return Err(FormatError::InvalidBase {
                        line: line_no,
                        byte,
                    })
                }
                Ambiguity::Substitute(base) => seq.push(base),
            },
            None => {
                return Err(FormatError::InvalidBase {
                    line: line_no,
                    byte,
                })
            }
        }
    }
    Ok(())
}

/// Renders records as a FASTA document, wrapping sequence lines at
/// `width` characters (a `width` of 0 disables wrapping).
///
/// # Examples
///
/// ```
/// use segram_io::{write_fasta, FastaRecord};
///
/// let rec = FastaRecord::new("chr1", "ACGTACGT".parse()?);
/// assert_eq!(write_fasta(&[rec], 4), ">chr1\nACGT\nACGT\n");
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
pub fn write_fasta(records: &[FastaRecord], width: usize) -> String {
    let mut out = String::new();
    for rec in records {
        if rec.description.is_empty() {
            let _ = writeln!(out, ">{}", rec.id);
        } else {
            let _ = writeln!(out, ">{} {}", rec.id, rec.description);
        }
        write_wrapped(&mut out, &rec.seq, width);
    }
    out
}

pub(crate) fn write_wrapped(out: &mut String, seq: &DnaSeq, width: usize) {
    if width == 0 {
        let _ = writeln!(out, "{seq}");
        return;
    }
    let bases = seq.as_slice();
    for chunk in bases.chunks(width) {
        for &base in chunk {
            out.push(char::from(base));
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_record_wrapped_input() {
        let text = ">one first record\nACGT\nACG\n\n>two\r\nTT\r\nGG\r\n";
        let records = read_fasta(text, Ambiguity::Reject).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "one");
        assert_eq!(records[0].description, "first record");
        assert_eq!(records[0].seq.to_string(), "ACGTACG");
        assert_eq!(records[1].id, "two");
        assert_eq!(records[1].seq.to_string(), "TTGG");
    }

    #[test]
    fn lower_case_is_upper_cased() {
        let records = read_fasta(">x\nacgt\n", Ambiguity::Reject).unwrap();
        assert_eq!(records[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn rejects_ambiguity_by_default() {
        let err = read_fasta(">x\nACNGT\n", Ambiguity::Reject).unwrap_err();
        assert!(matches!(
            err,
            FormatError::InvalidBase {
                line: 2,
                byte: b'N'
            }
        ));
    }

    #[test]
    fn substitutes_ambiguity_when_asked() {
        let records = read_fasta(">x\nACNGT\n", Ambiguity::Substitute(Base::A)).unwrap();
        assert_eq!(records[0].seq.to_string(), "ACAGT");
    }

    #[test]
    fn digits_are_never_substituted() {
        let err = read_fasta(">x\nAC1GT\n", Ambiguity::Substitute(Base::A)).unwrap_err();
        assert!(matches!(
            err,
            FormatError::InvalidBase {
                line: 2,
                byte: b'1'
            }
        ));
    }

    /// Every outcome of the table path must be the per-byte path's.
    fn append_both_ways(line: &[u8], ambiguity: Ambiguity) -> Result<DnaSeq, FormatError> {
        let prefix: DnaSeq = "GT".parse().unwrap();
        let (mut table, mut checked) = (prefix.clone(), prefix);
        let got = append_bases(&mut table, line, 7, ambiguity);
        let want = append_bases_checked(&mut checked, line, 7, ambiguity);
        assert_eq!(
            got.as_ref().map_err(ToString::to_string),
            want.as_ref().map_err(ToString::to_string),
            "{:?}",
            String::from_utf8_lossy(line)
        );
        if got.is_ok() {
            assert_eq!(table, checked);
        }
        got.map(|()| table)
    }

    #[test]
    fn table_path_equals_the_per_byte_path() {
        let policies = [Ambiguity::Reject, Ambiguity::Substitute(Base::C)];
        let lines: [&[u8]; 10] = [
            b"",
            b"ACGTTGCAACGT",
            b"acgtACGTtgca",
            b"ACGTNACGT",
            b"nACGT",
            b"ACGT\r",
            b"ACGT ACGT",
            b"ACG*",
            b"AC1GT",
            b"ACGT\xc3\xa9",
        ];
        for ambiguity in policies {
            for line in lines {
                let _ = append_both_ways(line, ambiguity);
            }
            // All 256 byte values, alone and behind a run of bases.
            for byte in 0..=255u8 {
                let _ = append_both_ways(&[byte], ambiguity);
                let _ = append_both_ways(&[b'A', b'c', b'G', byte, b't'], ambiguity);
            }
        }
        assert_eq!(
            append_both_ways(b"acgtACGT", Ambiguity::Reject)
                .unwrap()
                .to_string(),
            "GTACGTACGT"
        );
        assert_eq!(
            append_both_ways(b"ACNNGT", Ambiguity::Substitute(Base::C))
                .unwrap()
                .to_string(),
            "GTACCCGT"
        );
        for ambiguity in policies {
            let err = append_both_ways(b"ACGT\xc3\xa9", ambiguity).unwrap_err();
            assert!(matches!(
                err,
                FormatError::InvalidBase {
                    line: 7,
                    byte: 0xc3
                }
            ));
        }
        let err = append_both_ways(b"ACGTNAC-", Ambiguity::Reject).unwrap_err();
        assert!(matches!(
            err,
            FormatError::InvalidBase {
                line: 7,
                byte: b'N'
            }
        ));
    }

    #[test]
    fn documents_parse_the_same_whatever_path_their_lines_take() {
        // CRLF, lower case, blank and `;` lines, wrapped records: the same
        // records as the one-line spelling, under either policy.
        let text = ">one first\r\nACGT\r\nacg\r\n\r\n; note\r\nTTNA\r\n>two\nGG\n\nCC\n";
        let flat = ">one first\nACGTACGTTNA\n>two\nGGCC\n";
        let lenient = Ambiguity::Substitute(Base::G);
        assert_eq!(
            read_fasta(text, lenient).unwrap(),
            read_fasta(flat, lenient).unwrap()
        );
        assert_eq!(
            read_fasta(text, lenient).unwrap()[0].seq.to_string(),
            "ACGTACGTTGA"
        );
        let err = read_fasta(text, Ambiguity::Reject).unwrap_err();
        assert!(matches!(
            err,
            FormatError::InvalidBase {
                line: 6,
                byte: b'N'
            }
        ));
        // A non-ASCII byte is never substituted, and is reported as its
        // first byte on its own line.
        let err = read_fasta(">x\nACGT\nAC\u{e9}GT\n", lenient).unwrap_err();
        assert!(matches!(
            err,
            FormatError::InvalidBase {
                line: 3,
                byte: 0xc3
            }
        ));
    }

    #[test]
    fn rejects_sequence_before_header() {
        let err = read_fasta("ACGT\n>x\nACGT\n", Ambiguity::Reject).unwrap_err();
        assert_eq!(err.line(), 1);
    }

    #[test]
    fn rejects_empty_record_and_empty_header() {
        let err = read_fasta(">x\n>y\nACGT\n", Ambiguity::Reject).unwrap_err();
        assert!(matches!(err, FormatError::InvalidRecord { line: 1, .. }));
        let err = read_fasta(">\nACGT\n", Ambiguity::Reject).unwrap_err();
        assert!(matches!(err, FormatError::Malformed { line: 1, .. }));
    }

    #[test]
    fn comment_lines_are_ignored() {
        let records = read_fasta(">x\n; a comment\nACGT\n", Ambiguity::Reject).unwrap();
        assert_eq!(records[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn empty_input_yields_no_records() {
        assert!(read_fasta("", Ambiguity::Reject).unwrap().is_empty());
        assert!(read_fasta("\n\n", Ambiguity::Reject).unwrap().is_empty());
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = vec![
            FastaRecord {
                id: "a".into(),
                description: "desc here".into(),
                seq: "ACGTACGTACGT".parse().unwrap(),
            },
            FastaRecord::new("b", "TTTT".parse().unwrap()),
        ];
        let text = write_fasta(&records, 5);
        let parsed = read_fasta(&text, Ambiguity::Reject).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn unwrapped_output_has_one_sequence_line() {
        let rec = FastaRecord::new("x", "ACGTACGT".parse().unwrap());
        let text = write_fasta(&[rec], 0);
        assert_eq!(text, ">x\nACGTACGT\n");
    }
}
