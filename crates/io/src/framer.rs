//! Raw FASTQ framing: byte-level record slicing for the overlapped map
//! engine input path.
//!
//! [`FastqReader`](crate::FastqReader) parses records inline — UTF-8
//! validation, base decoding, Phred conversion — which is exactly the
//! work a multi-threaded consumer wants *off* the producer thread: when
//! the reader feeds `segram_core`'s `MapEngine`, every worker serializes
//! behind the single thread doing the parsing. [`FastqFramer`] splits the
//! job: the producer only scans bytes for record boundaries (newline
//! counting over block reads) and hands out [`RawFastqRecord`] frames;
//! [`RawFastqRecord::decode`] — the expensive half — runs wherever the
//! consumer wants, typically inside the worker pool, and is guaranteed to
//! behave byte-for-byte like `FastqReader` (same records, same errors,
//! same line numbers) because it *is* the same parser, pointed at the
//! frame.
//!
//! Both front-ends share one boundary scanner ([`FrameScanner`], a push
//! parser fed arbitrary byte chunks), and both run on the producer thread:
//! `FastqFramer` feeds it block reads, and [`BgzfFastqFramer`] — the
//! transport stage of compressed input — feeds it each BGZF member's
//! inflated payload through [`FastqSplice`]. A record straddling a member
//! boundary is carried over inside the scanner, so the compressed path
//! frames exactly the records the plain path would, and everything
//! downstream of either framer is the same record stream.
//!
//! ```
//! use segram_io::{Ambiguity, FastqFramer};
//!
//! let bytes: &[u8] = b"@r1\nACGT\n+\nIIII\n";
//! let mut framer = FastqFramer::new(bytes);
//! let raw = framer.next().unwrap().unwrap();
//! assert_eq!(raw.line(), 1);
//! let record = raw.decode(Ambiguity::Reject).unwrap();
//! assert_eq!(record.id, "r1");
//! assert!(framer.next().is_none());
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read};
use std::time::{Duration, Instant};

use crate::bgzf::BgzfBlocks;
use crate::error::BgzfError;
use crate::fasta::Ambiguity;
use crate::fastq::{decode_framed, FastqRecord};
use crate::stream::StreamError;

/// Default block size of [`FastqFramer`]'s block reads.
pub const FRAMER_BLOCK: usize = 64 * 1024;

/// One framed FASTQ record: the raw bytes of its lines (endings
/// included), still undecoded, plus the 1-based line number of its
/// header — everything [`decode`](Self::decode) needs to reproduce
/// [`FastqReader`](crate::FastqReader)'s behaviour exactly, including
/// error line numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawFastqRecord {
    bytes: Vec<u8>,
    line: usize,
}

impl RawFastqRecord {
    /// 1-based line number of the record's header line in the source.
    pub fn line(&self) -> usize {
        self.line
    }

    /// The record's raw bytes: its header line and up to three following
    /// lines, verbatim (line endings included; fewer lines only at a
    /// truncated end of input).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Parses the frame into a [`FastqRecord`] — the decode half of the
    /// split reader, safe to run on any thread.
    ///
    /// # Errors
    ///
    /// Returns exactly the [`StreamError`] a [`FastqReader`] reading the
    /// whole source would report for this record (same variant, same line
    /// number): truncation, bad markers, length mismatches, invalid
    /// bases or quality characters, invalid UTF-8.
    ///
    /// [`FastqReader`]: crate::FastqReader
    pub fn decode(&self, ambiguity: Ambiguity) -> Result<FastqRecord, StreamError> {
        decode_framed(&self.bytes, self.line, ambiguity)
    }
}

/// The shared record-boundary scanner: a push parser fed arbitrary byte
/// chunks that emits complete four-line [`RawFastqRecord`] frames and
/// carries partial lines/records across chunk boundaries. It never
/// inspects record *contents* — it only counts lines (skipping the blank
/// lines between records that [`FastqReader`](crate::FastqReader)
/// tolerates) and slices frames; judging the lines is `decode`'s job.
///
/// [`FastqFramer`] drives it with block reads; [`FastqSplice`] drives it
/// with inflated BGZF payloads. One implementation means the two paths
/// cannot drift.
#[derive(Debug, Default)]
pub struct FrameScanner {
    /// Bytes of an incomplete final line, carried to the next chunk.
    tail: Vec<u8>,
    /// 1-based count of lines fed so far.
    line: usize,
    /// Accumulated lines of the in-progress record.
    current: Vec<u8>,
    /// Header line number of the in-progress record.
    record_line: usize,
    /// Complete lines in the in-progress record (0..=3).
    lines_in_record: usize,
}

impl FrameScanner {
    /// A scanner with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// 1-based number of lines consumed so far (a carried partial line
    /// does not count until it completes or the stream ends).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Feeds one chunk, appending every record it completes to `out`.
    pub fn push(&mut self, chunk: &[u8], out: &mut Vec<RawFastqRecord>) {
        let mut rest = chunk;
        while let Some(newline) = rest.iter().position(|&b| b == b'\n') {
            let (line, remainder) = rest.split_at(newline + 1);
            rest = remainder;
            if self.tail.is_empty() {
                self.feed_line(line, out);
            } else {
                let mut whole = std::mem::take(&mut self.tail);
                whole.extend_from_slice(line);
                self.feed_line(&whole, out);
            }
        }
        self.tail.extend_from_slice(rest);
    }

    /// Ends the stream: a final unterminated line still counts (mirroring
    /// `BufRead::read_until`), and a partial record is emitted for decode
    /// to report as truncation with the right line numbers.
    pub fn finish(&mut self, out: &mut Vec<RawFastqRecord>) {
        if !self.tail.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            self.feed_line(&tail, out);
        }
        if self.lines_in_record > 0 {
            out.push(RawFastqRecord {
                bytes: std::mem::take(&mut self.current),
                line: self.record_line,
            });
            self.lines_in_record = 0;
        }
    }

    /// Consumes one complete raw line (terminator included, except for an
    /// unterminated final line).
    fn feed_line(&mut self, line: &[u8], out: &mut Vec<RawFastqRecord>) {
        self.line += 1;
        if self.lines_in_record == 0 {
            // Skip blank lines between records, exactly as FastqReader
            // does (its line counter advances over them too).
            if is_blank(line) {
                return;
            }
            self.record_line = self.line;
        }
        self.current.extend_from_slice(line);
        self.lines_in_record += 1;
        if self.lines_in_record == 4 {
            out.push(RawFastqRecord {
                bytes: std::mem::take(&mut self.current),
                line: self.record_line,
            });
            self.lines_in_record = 0;
        }
    }
}

/// A byte-scanning FASTQ record framer over block reads: the
/// producer-side half of the split reader (see the module docs).
///
/// Iterating costs a newline scan plus one memcpy per record; the reads
/// are synchronous on the calling thread — the pipeline-level IO/compute
/// overlap comes from this framer living on the *producer* thread while
/// decoding and mapping run in the worker pool. Transport errors surface
/// here (after any records already sliced from earlier blocks); format
/// errors surface from [`RawFastqRecord::decode`].
#[derive(Debug)]
pub struct FastqFramer<R: Read> {
    source: R,
    scanner: FrameScanner,
    /// Records sliced but not yet yielded.
    ready: VecDeque<RawFastqRecord>,
    /// Reusable block read buffer.
    block: Vec<u8>,
    /// Block size of each read.
    block_size: usize,
    /// Set after end-of-input or a transport error; the iterator fuses.
    done: bool,
}

impl<R: Read> FastqFramer<R> {
    /// Wraps a byte source with the default block size.
    pub fn new(source: R) -> Self {
        Self::with_block_size(source, FRAMER_BLOCK)
    }

    /// Wraps a byte source with an explicit block size (clamped to at
    /// least 1). Small blocks are useful in tests to exercise records
    /// straddling block boundaries.
    pub fn with_block_size(source: R, block_size: usize) -> Self {
        Self {
            source,
            scanner: FrameScanner::new(),
            ready: VecDeque::new(),
            block: Vec::new(),
            block_size: block_size.max(1),
            done: false,
        }
    }

    /// 1-based number of the last line consumed from the source.
    pub fn line(&self) -> usize {
        self.scanner.line()
    }
}

/// Whether a raw line is blank once its `\n`/`\r\n` terminator is
/// stripped — the framing-level mirror of `FastqReader`'s blank check.
fn is_blank(line: &[u8]) -> bool {
    let line = line.strip_suffix(b"\n").unwrap_or(line);
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    line.is_empty()
}

impl<R: Read> Iterator for FastqFramer<R> {
    type Item = Result<RawFastqRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(raw) = self.ready.pop_front() {
                return Some(Ok(raw));
            }
            if self.done {
                return None;
            }
            self.block.resize(self.block_size, 0);
            let n = loop {
                match self.source.read(&mut self.block) {
                    Ok(n) => break n,
                    Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                    Err(err) => {
                        self.done = true;
                        return Some(Err(StreamError::Io(err)));
                    }
                }
            };
            let mut out = Vec::new();
            if n == 0 {
                self.done = true;
                self.scanner.finish(&mut out);
            } else {
                self.scanner.push(&self.block[..n], &mut out);
            }
            self.ready.extend(out);
        }
    }
}

/// The carry-over splice of the compressed transport stage: re-joins
/// records that straddle BGZF member boundaries.
///
/// Each member's inflated bytes are fed, in file order, to one
/// [`FrameScanner`], which carries a partial line or record over to the
/// next call. Because the scanner is the same one `FastqFramer` uses, the
/// record stream (ids, line numbers, truncation errors) is identical to
/// framing the plain uncompressed bytes. [`BgzfFastqFramer`] is the stage
/// that drives it.
#[derive(Debug, Default)]
pub struct FastqSplice {
    state: RefCell<SpliceState>,
}

#[derive(Debug, Default)]
struct SpliceState {
    /// The index of the member expected next.
    next: usize,
    scanner: FrameScanner,
    /// Set once the final member has been spliced and flushed.
    finished: bool,
}

impl FastqSplice {
    /// A splice expecting member 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splices member `index`'s inflated bytes into the scanner, returning
    /// the records that completed. `last` flushes the carry (the stream's
    /// final, possibly partial, record).
    ///
    /// Members arrive in file order and the call never waits. An `index`
    /// out of turn means an earlier member was dropped: that is `None` —
    /// without splicing — when `cancelled` reports the run is over.
    ///
    /// # Panics
    ///
    /// On an `index` out of turn in a run that is not cancelled: the
    /// caller skipped a member.
    pub fn splice(
        &self,
        index: usize,
        bytes: &[u8],
        last: bool,
        cancelled: impl Fn() -> bool,
    ) -> Option<Vec<RawFastqRecord>> {
        let mut state = self.state.borrow_mut();
        if state.next != index {
            assert!(
                cancelled(),
                "BGZF member {index} spliced out of turn (expected {})",
                state.next
            );
            return None;
        }
        let mut out = Vec::new();
        if !state.finished {
            state.scanner.push(bytes, &mut out);
            if last {
                state.scanner.finish(&mut out);
                state.finished = true;
            }
        }
        state.next = index + 1;
        Some(out)
    }

    /// 1-based number of lines spliced so far.
    pub fn line(&self) -> usize {
        self.state.borrow().scanner.line()
    }
}

/// The transport stage of compressed input: the BGZF twin of
/// [`FastqFramer`], run on the producer thread.
///
/// For each member off [`BgzfBlocks`] it inflates and verifies the payload
/// ([`BgzfBlock::inflate`](crate::BgzfBlock::inflate)), splices the bytes
/// ([`FastqSplice::splice`]) and yields the records that completed — so
/// the consumer sees exactly the [`RawFastqRecord`]s `FastqFramer` would
/// slice from the uncompressed bytes, in file order, and never sees how
/// they were transported. Every transport failure (bad framing,
/// truncation, a missing EOF marker, corrupt DEFLATE data, an ISIZE or
/// CRC32 mismatch) surfaces here, after the records of the members before
/// it, and fuses the iterator; format errors surface from
/// [`RawFastqRecord::decode`].
///
/// ```
/// use segram_io::{bgzf_compress, Ambiguity, BgzfFastqFramer, BgzfMode};
///
/// let compressed = bgzf_compress(b"@r1\nACGT\n+\nIIII\n", 5, BgzfMode::Fixed);
/// let mut framer = BgzfFastqFramer::new(&compressed[..]);
/// let raw = framer.next().unwrap()?;
/// assert_eq!(raw.decode(Ambiguity::Reject).unwrap().id, "r1");
/// assert!(framer.next().is_none());
/// # Ok::<(), segram_io::BgzfError>(())
/// ```
#[derive(Debug)]
pub struct BgzfFastqFramer<R: Read> {
    blocks: BgzfBlocks<R>,
    splice: FastqSplice,
    /// Records spliced but not yet yielded.
    ready: VecDeque<RawFastqRecord>,
    /// Time spent in inflate + splice so far.
    inflate_time: Duration,
    /// Set after a transport error; the iterator fuses.
    failed: bool,
}

impl<R: Read> BgzfFastqFramer<R> {
    /// Wraps a BGZF-compressed byte source.
    pub fn new(source: R) -> Self {
        Self {
            blocks: BgzfBlocks::new(source),
            splice: FastqSplice::new(),
            ready: VecDeque::new(),
            inflate_time: Duration::ZERO,
            failed: false,
        }
    }

    /// Time spent inflating, verifying and splicing members so far — the
    /// stage's own work, without the reads of the source.
    pub fn inflate_time(&self) -> Duration {
        self.inflate_time
    }
}

impl<R: Read> Iterator for BgzfFastqFramer<R> {
    type Item = Result<RawFastqRecord, BgzfError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(raw) = self.ready.pop_front() {
                return Some(Ok(raw));
            }
            if self.failed {
                return None;
            }
            let block = self.blocks.next()?;
            let started = Instant::now();
            let spliced = block.and_then(|block| {
                let plain = block.inflate()?;
                Ok(self
                    .splice
                    .splice(block.index(), &plain, block.is_last(), || false)
                    .expect("BgzfBlocks numbers members in file order"))
            });
            match spliced {
                Ok(records) => {
                    self.ready.extend(records);
                    self.inflate_time += started.elapsed();
                }
                Err(err) => {
                    self.failed = true;
                    return Some(Err(err));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastq::read_fastq;

    fn frames(text: &str, block: usize) -> Vec<RawFastqRecord> {
        FastqFramer::with_block_size(text.as_bytes(), block)
            .map(|r| r.expect("in-memory source cannot fail"))
            .collect()
    }

    #[test]
    fn frames_agree_with_batch_parser_across_block_sizes() {
        let text = "@r1 first\nACGT\n+\nII5I\n\n@r2\nTTAA\n+anything\n!!!!\n";
        let batch = read_fastq(text, Ambiguity::Reject).unwrap();
        for block in [1usize, 2, 3, 7, 64, FRAMER_BLOCK] {
            let decoded: Vec<FastqRecord> = frames(text, block)
                .iter()
                .map(|raw| raw.decode(Ambiguity::Reject).expect("well-formed"))
                .collect();
            assert_eq!(decoded, batch, "block size {block}");
        }
    }

    #[test]
    fn frames_carry_header_line_numbers_past_blanks_and_crlf() {
        let text = "\r\n\n@r1\r\nACGT\r\n+\r\nIIII\r\n\n@r2\nTT\n+\nII\n";
        let raw = frames(text, 4);
        assert_eq!(raw.len(), 2);
        assert_eq!(raw[0].line(), 3);
        assert_eq!(raw[1].line(), 8);
        let rec = raw[0].decode(Ambiguity::Reject).unwrap();
        assert_eq!(rec.id, "r1");
        assert_eq!(rec.seq.to_string(), "ACGT");
    }

    #[test]
    fn truncated_tail_decodes_to_the_reader_error() {
        // Frame the truncated record, then check decode reports the same
        // UnexpectedEof line the streaming reader would.
        let text = "@r1\nACGT\n+\nIIII\n@r2\nTT\n";
        let raw = frames(text, 5);
        assert_eq!(raw.len(), 2);
        assert!(raw[0].decode(Ambiguity::Reject).is_ok());
        let err = raw[1].decode(Ambiguity::Reject).unwrap_err();
        let direct = crate::FastqReader::new(text.as_bytes(), Ambiguity::Reject)
            .nth(1)
            .unwrap()
            .unwrap_err();
        assert_eq!(format!("{err:?}"), format!("{direct:?}"));
    }

    #[test]
    fn unterminated_final_line_is_framed() {
        let raw = frames("@r1\nACGT\n+\nIIII", 3);
        assert_eq!(raw.len(), 1);
        let rec = raw[0].decode(Ambiguity::Reject).unwrap();
        assert_eq!(rec.qual.len(), 4);
    }

    #[test]
    fn empty_and_blank_only_sources_frame_nothing() {
        assert!(frames("", 8).is_empty());
        assert!(frames("\n\r\n\n", 2).is_empty());
    }

    #[test]
    fn scanner_chunking_is_invisible() {
        // Feeding the same bytes in any chunking yields the same frames
        // as the framer over the whole text — including a chunk boundary
        // inside a CRLF ending.
        let text = b"@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\nTTAA\n+\nJJJJ";
        let whole = frames(std::str::from_utf8(text).unwrap(), FRAMER_BLOCK);
        for chunk_size in 1..=text.len() {
            let mut scanner = FrameScanner::new();
            let mut out = Vec::new();
            for chunk in text.chunks(chunk_size) {
                scanner.push(chunk, &mut out);
            }
            scanner.finish(&mut out);
            assert_eq!(out, whole, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn cancelled_splice_waiting_on_a_lost_block_gives_up() {
        let splice = FastqSplice::new();
        // Block 1 arrives but block 0 never did: a cancelled run gets
        // `None`, and nothing was spliced.
        assert_eq!(splice.splice(1, b"@r\n", true, || true), None);
        assert_eq!(splice.line(), 0);
        // Block 0 is still the one expected.
        assert!(splice.splice(0, b"", false, || false).is_some());
    }
}
