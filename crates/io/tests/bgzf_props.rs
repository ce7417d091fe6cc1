//! Differential property tests for the BGZF compressed-input path: on
//! random FASTQ-shaped inputs — including CRLF line endings, malformed
//! records, and records straddling BGZF block boundaries — the full
//! compressed pipeline ([`bgzf_compress`] → [`BgzfFastqFramer`], i.e.
//! [`BgzfBlocks`] → [`BgzfBlock::inflate`] → [`FastqSplice`], →
//! [`RawFastqRecord::decode`]) produces exactly the records *and* exactly
//! the first error that the inline [`FastqReader`] produces on the plain
//! bytes, at every block size and in both compressor modes. Truncating the
//! *compressed* stream at an arbitrary byte yields a prefix of those
//! records plus a named [`BgzfError`] — never a panic. The record stage
//! itself is held to [`FastqFramer`] over the plain bytes: same frames,
//! same line numbers, same truncation errors, for every member size.

use segram_io::{
    bgzf_compress, bgzf_member, Ambiguity, BgzfFastqFramer, BgzfMode, FastqFramer, FastqReader,
    FastqRecord, RawFastqRecord, BGZF_EOF,
};
use segram_testkit::prelude::*;

/// Everything observable from reading a stream to its first failure:
/// the records before it and a debug rendering of the error (the error
/// types carry no `PartialEq` across families).
type Outcome = (Vec<FastqRecord>, Option<String>);

fn reader_outcome(bytes: &[u8], ambiguity: Ambiguity) -> Outcome {
    let mut records = Vec::new();
    let mut error = None;
    for item in FastqReader::new(bytes, ambiguity) {
        match item {
            Ok(record) => records.push(record),
            Err(err) => error = Some(format!("{err:?}")), // reader fuses
        }
    }
    (records, error)
}

/// The compressed path as `segram map` runs it: the transport stage
/// frames records in file order, decode follows. Fuses on the first error
/// of either family, exactly as the engine cancels the run.
fn bgzf_outcome(compressed: &[u8], ambiguity: Ambiguity) -> Outcome {
    let mut records = Vec::new();
    let mut error = None;
    for item in BgzfFastqFramer::new(compressed) {
        match item.map(|raw| raw.decode(ambiguity)) {
            Ok(Ok(record)) => records.push(record),
            Ok(Err(err)) => {
                error = Some(format!("{err:?}"));
                break;
            }
            Err(err) => error = Some(format!("{err:?}")), // the stage fuses
        }
    }
    (records, error)
}

/// One synthesized record's text, with injected quirks.
fn render_record(
    id: &str,
    seq: &str,
    qual_len: usize,
    crlf: bool,
    plus_tail: bool,
    blanks_before: usize,
) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut out = String::new();
    for _ in 0..blanks_before {
        out.push_str(eol);
    }
    out.push('@');
    out.push_str(id);
    out.push_str(eol);
    out.push_str(seq);
    out.push_str(eol);
    out.push('+');
    if plus_tail {
        out.push_str(id);
    }
    out.push_str(eol);
    out.push_str(&"I".repeat(qual_len));
    out.push_str(eol);
    out
}

fn mode_of(fixed: bool) -> BgzfMode {
    if fixed {
        BgzfMode::Fixed
    } else {
        BgzfMode::Stored
    }
}

/// What a framer hands on: each frame's header line number and raw bytes,
/// plus each frame's decode result (so truncation errors compare too).
fn frames(records: impl Iterator<Item = RawFastqRecord>) -> Vec<(usize, Vec<u8>, String)> {
    records
        .map(|raw| {
            let decoded = format!("{:?}", raw.decode(Ambiguity::Reject));
            (raw.line(), raw.as_bytes().to_vec(), decoded)
        })
        .collect()
}

#[test]
fn record_stage_equals_the_plain_framer_for_every_member_size() {
    // CRLF endings, blank lines between records, an id-tailed separator,
    // and — in the second text — a record cut off mid-way, which both
    // framers must hand on for decode to name as truncation at line 11.
    let whole = "@r1 first\r\nACGT\r\n+\r\nIIII\r\n\n\n@r2\nTTAACC\n+r2\nJJJJJJ\n@r3\nGG\n+\nII\n";
    let cut = &whole[..whole.len() - 6];
    for text in [whole, cut, ""] {
        let expected = frames(FastqFramer::new(text.as_bytes()).map(|raw| raw.expect("in memory")));
        for member in [1usize, 2, 3, 7, 64, 512, 16_384] {
            for mode in [BgzfMode::Fixed, BgzfMode::Stored] {
                let compressed = bgzf_compress(text.as_bytes(), member, mode);
                let actual = frames(
                    BgzfFastqFramer::new(&compressed[..]).map(|raw| raw.expect("intact stream")),
                );
                assert_eq!(
                    actual,
                    expected,
                    "{member}-byte {mode:?} members over {} bytes",
                    text.len()
                );
            }
        }
    }
    assert!(
        frames(FastqFramer::new(cut.as_bytes()).map(|raw| raw.expect("in memory")))
            .last()
            .is_some_and(|(line, _, decoded)| *line == 11 && decoded.contains("UnexpectedEof"))
    );
}

#[test]
fn record_stage_passes_over_empty_members_and_the_eof_only_file() {
    // The EOF marker alone is a valid, empty stream.
    assert_eq!(BgzfFastqFramer::new(&BGZF_EOF[..]).count(), 0);

    // Empty members between, before and after the data change nothing,
    // even inside a record. (Stored ones: an empty fixed-Huffman member
    // *is* the EOF marker, and ends the stream.)
    let text = b"@r1\nACGT\n+\nIIII\n@r2\nTT\n+\nII\n";
    let expected = frames(FastqFramer::new(&text[..]).map(|raw| raw.expect("in memory")));
    let empty = bgzf_member(b"", BgzfMode::Stored);
    for mode in [BgzfMode::Fixed, BgzfMode::Stored] {
        let mut compressed = empty.clone();
        for chunk in text.chunks(5) {
            compressed.extend(bgzf_member(chunk, mode));
            compressed.extend(&empty);
        }
        compressed.extend(BGZF_EOF);
        let actual =
            frames(BgzfFastqFramer::new(&compressed[..]).map(|raw| raw.expect("intact stream")));
        assert_eq!(actual, expected, "{mode:?}");
    }
}

#[test]
fn record_stage_yields_earlier_records_then_the_error_then_nothing() {
    // Member 1 of 3 is corrupt: the records completed by member 0 come
    // out, then the named error, then the stage is fused — member 2 is
    // never spliced onto a scanner that missed member 1.
    let members: [&[u8]; 3] = [
        b"@r1\nACGT\n+\nIIII\n@r2\nTT",
        b"\n+\nII\n",
        b"@r3\nG\n+\nI\n",
    ];
    let mut compressed = Vec::new();
    let mut offsets = Vec::new();
    for member in members {
        offsets.push(compressed.len());
        compressed.extend(bgzf_member(member, BgzfMode::Stored));
    }
    compressed.extend(BGZF_EOF);
    // Stored member: 18 header bytes, 5 DEFLATE bytes, then the payload.
    compressed[offsets[1] + 18 + 5] ^= 0x20;
    let mut framer = BgzfFastqFramer::new(&compressed[..]);
    let first = framer.next().expect("r1").expect("member 0 is intact");
    assert_eq!(
        first.decode(Ambiguity::Reject).expect("well-formed").id,
        "r1"
    );
    let err = framer
        .next()
        .expect("the error")
        .expect_err("member 1 is corrupt");
    assert!(format!("{err:?}").starts_with("CrcMismatch"), "{err:?}");
    assert!(framer.next().is_none());
    assert!(framer.inflate_time() > std::time::Duration::ZERO);
}

proptest! {
    #[test]
    fn compressed_path_is_identical_to_the_inline_reader(
        entries in prop::collection::vec(
            (
                "[A-Za-z0-9_.-]{1,8}",        // id
                "[ACGTN]{1,40}",              // sequence (N exercises ambiguity)
                0usize..3,                    // quality-length skew
                any::<bool>(),                // CRLF
                any::<bool>(),                // '+' separator tail
                0usize..3,                    // blank lines before the record
            ),
            1..5,
        ),
        truncate_tail in 0usize..20,
        block in prop::sample::select(vec![1usize, 2, 3, 7, 61, 509, 4096]),
        fixed in any::<bool>(),
        reject in any::<bool>(),
    ) {
        let mut text = String::new();
        for (id, seq, skew, crlf, plus_tail, blanks) in &entries {
            // Skewed quality lengths produce invalid records on purpose.
            let qual_len = seq.len().saturating_sub(*skew).max(1);
            text.push_str(&render_record(id, seq, qual_len, *crlf, *plus_tail, *blanks));
        }
        // Truncate the *plain* tail to exercise a mid-record end of input
        // surviving compression intact.
        let cut = text.len().saturating_sub(truncate_tail);
        let bytes = &text.as_bytes()[..cut];
        let ambiguity = if reject {
            Ambiguity::Reject
        } else {
            Ambiguity::Substitute(segram_graph::Base::A)
        };

        // Tiny blocks force records to straddle many block boundaries.
        let compressed = bgzf_compress(bytes, block, mode_of(fixed));
        let expected = reader_outcome(bytes, ambiguity);
        let actual = bgzf_outcome(&compressed, ambiguity);
        prop_assert_eq!(
            &actual.0, &expected.0,
            "records diverge at block {} ({:?})", block, mode_of(fixed)
        );
        prop_assert_eq!(
            &actual.1, &expected.1,
            "errors diverge at block {} ({:?})", block, mode_of(fixed)
        );
    }

    #[test]
    fn truncated_compressed_streams_yield_a_record_prefix_and_a_named_error(
        entries in prop::collection::vec(
            ("[A-Za-z0-9_.-]{1,8}", "[ACGT]{1,40}", any::<bool>()),
            1..6,
        ),
        block in prop::sample::select(vec![1usize, 5, 47, 512]),
        fixed in any::<bool>(),
        cut_seed in any::<u32>(),
    ) {
        let mut text = String::new();
        for (id, seq, crlf) in &entries {
            text.push_str(&render_record(id, seq, seq.len(), *crlf, false, 0));
        }
        let compressed = bgzf_compress(text.as_bytes(), block, mode_of(fixed));
        let (full_records, full_error) = bgzf_outcome(&compressed, Ambiguity::Reject);
        prop_assert_eq!(full_error, None, "intact stream of valid records");

        // Cut the *compressed* stream at an arbitrary byte (strictly
        // short of the EOF marker's last byte, so an error is certain).
        let cut = cut_seed as usize % compressed.len();
        let (records, error) = bgzf_outcome(&compressed[..cut], Ambiguity::Reject);

        prop_assert!(
            records.len() <= full_records.len()
                && records == full_records[..records.len()],
            "decoded records must be a prefix of the intact stream's at cut {cut}"
        );
        let error = error.expect("a truncated stream always names its failure");
        prop_assert!(
            error.starts_with("Truncated") || error.starts_with("MissingEof"),
            "cut {cut}: expected Truncated or MissingEof, got {error}"
        );
    }

    #[test]
    fn byte_soup_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..2000),
    ) {
        // Arbitrary bytes through the whole compressed path: every
        // outcome is acceptable except a panic.
        let _ = bgzf_outcome(&data, Ambiguity::Reject);
    }
}
