//! BGZF container framing and an offline, in-tree DEFLATE codec.
//!
//! Real sequencing traffic arrives BGZF-compressed (the blocked gzip
//! dialect of htslib: a stream of independent gzip members, each carrying
//! a `BC` extra subfield with the compressed block size, terminated by a
//! canonical empty EOF-marker member). Reading one is two steps per
//! member: slice it off the stream ([`BgzfBlocks`]), then inflate and
//! verify it ([`BgzfBlock::inflate`]). For FASTQ input both run in the
//! producer-thread transport stage
//! ([`BgzfFastqFramer`](crate::BgzfFastqFramer)), which hands on the same
//! raw records `FastqFramer` slices from plain bytes.
//!
//! Everything is implemented here, offline, with no external crates:
//!
//! * a DEFLATE (RFC 1951) inflater supporting stored, fixed-Huffman and
//!   dynamic-Huffman blocks ([`inflate`]), bit-by-bit canonical Huffman
//!   decoding in the style of Mark Adler's `puff`;
//! * gzip's CRC32 ([`crc32`]) for payload verification;
//! * BGZF member parsing with `BSIZE` bookkeeping, CRC32 + ISIZE
//!   verification and EOF-marker detection — every failure mode a named
//!   [`BgzfError`] variant, never a panic;
//! * a minimal compressor ([`bgzf_compress`]) emitting stored or
//!   fixed-Huffman members, so tests and `ci.sh` fabricate compressed
//!   fixtures with zero external tooling.
//!
//! ```
//! use segram_io::{bgzf_compress, BgzfBlocks, BgzfMode};
//!
//! let plain = b"@r1\nACGT\n+\nIIII\n";
//! let compressed = bgzf_compress(plain, 8, BgzfMode::Fixed);
//! let mut out = Vec::new();
//! for block in BgzfBlocks::new(&compressed[..]) {
//!     out.extend(block?.inflate()?);
//! }
//! assert_eq!(out, plain);
//! # Ok::<(), segram_io::BgzfError>(())
//! ```

use std::io::{self, Read, Write};

use crate::error::BgzfError;

/// The two magic bytes every gzip member (and thus every BGZF block)
/// starts with — [`looks_like_gzip`] sniffs them to auto-detect
/// compressed input.
pub const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

/// The canonical 28-byte BGZF EOF marker: an empty member (zero-length
/// payload in one fixed-Huffman block) that htslib appends to every
/// complete file and requires at end of stream.
pub const BGZF_EOF: [u8; 28] = [
    0x1f, 0x8b, 0x08, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0x06, 0x00, 0x42, 0x43, 0x02, 0x00,
    0x1b, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];

/// Whether a 2-byte sniff of a stream head is a gzip member header —
/// the format auto-detection used by `segram map` to route a reads file
/// down the compressed or the plain framing path.
pub fn looks_like_gzip(head: &[u8]) -> bool {
    head.len() >= 2 && head[..2] == GZIP_MAGIC
}

// ---------------------------------------------------------------------
// CRC32 (the gzip/IEEE polynomial, reflected).
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

/// CRC32 of `data` (IEEE polynomial, as stored in gzip trailers).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &byte in data {
        c = CRC_TABLE[((c ^ byte as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// DEFLATE inflate (RFC 1951).
// ---------------------------------------------------------------------

/// Maximum number of bits in a DEFLATE Huffman code.
const MAX_BITS: usize = 15;
/// Literal/length alphabet size.
const MAX_LCODES: usize = 286;
/// Distance alphabet size.
const MAX_DCODES: usize = 30;
/// Order in which code-length code lengths are stored (RFC 1951 §3.2.7).
const CLEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];
/// Base match lengths for length codes 257..=285.
const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
/// Extra bits for length codes 257..=285.
const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
/// Base distances for distance codes 0..=29.
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
/// Extra bits for distance codes 0..=29.
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// An LSB-first bit reader over a byte slice; running out of bytes is a
/// named error, never a panic.
struct BitReader<'a> {
    data: &'a [u8],
    /// Next unread byte.
    byte: usize,
    /// Bits already consumed from `data[byte]`.
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            byte: 0,
            bit: 0,
        }
    }

    /// Reads `count` bits (LSB first), `count <= 16`.
    fn take(&mut self, count: u32) -> Result<u32, &'static str> {
        let mut value = 0u32;
        for i in 0..count {
            let Some(&byte) = self.data.get(self.byte) else {
                return Err("deflate stream ended inside a block");
            };
            value |= (((byte >> self.bit) & 1) as u32) << i;
            self.bit += 1;
            if self.bit == 8 {
                self.bit = 0;
                self.byte += 1;
            }
        }
        Ok(value)
    }

    /// Discards bits up to the next byte boundary (stored-block headers
    /// are byte-aligned).
    fn align(&mut self) {
        if self.bit != 0 {
            self.bit = 0;
            self.byte += 1;
        }
    }

    /// Whether every payload byte has been consumed (a partially-read
    /// final byte counts as consumed: it is legal bit padding).
    fn exhausted(&self) -> bool {
        self.byte + usize::from(self.bit > 0) >= self.data.len()
    }
}

/// A canonical Huffman decoding table in `puff` style: symbol counts per
/// code length plus symbols sorted by (length, symbol).
struct Huffman {
    count: [u16; MAX_BITS + 1],
    symbol: Vec<u16>,
}

impl Huffman {
    /// Builds the table from per-symbol code lengths (0 = unused).
    /// Rejects over-subscribed length sets; incomplete sets are allowed
    /// (decoding an unassigned code then errors), matching `puff` and
    /// what real encoders emit for single-symbol distance alphabets.
    fn build(lengths: &[u8]) -> Result<Self, &'static str> {
        let mut count = [0u16; MAX_BITS + 1];
        for &len in lengths {
            if len as usize > MAX_BITS {
                return Err("code length exceeds 15 bits");
            }
            count[len as usize] += 1;
        }
        if count[0] as usize == lengths.len() {
            return Err("huffman alphabet has no symbols");
        }
        let mut left = 1i32;
        for &n in count.iter().take(MAX_BITS + 1).skip(1) {
            left <<= 1;
            left -= n as i32;
            if left < 0 {
                return Err("over-subscribed huffman code lengths");
            }
        }
        let mut offsets = [0usize; MAX_BITS + 2];
        for len in 1..=MAX_BITS {
            offsets[len + 1] = offsets[len] + count[len] as usize;
        }
        let mut symbol = vec![0u16; lengths.len() - count[0] as usize];
        for (sym, &len) in lengths.iter().enumerate() {
            if len != 0 {
                symbol[offsets[len as usize]] = sym as u16;
                offsets[len as usize] += 1;
            }
        }
        Ok(Self { count, symbol })
    }

    /// Decodes one symbol, reading the stream bit by bit.
    fn decode(&self, bits: &mut BitReader<'_>) -> Result<u16, &'static str> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=MAX_BITS {
            code |= bits.take(1)? as i32;
            let count = self.count[len] as i32;
            if code - first < count {
                return Ok(self.symbol[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err("invalid huffman code (unassigned)")
    }
}

/// The fixed literal/length code of RFC 1951 §3.2.6.
fn fixed_literal_lengths() -> [u8; 288] {
    let mut lengths = [8u8; 288];
    for len in lengths.iter_mut().take(256).skip(144) {
        *len = 9;
    }
    for len in lengths.iter_mut().take(280).skip(256) {
        *len = 7;
    }
    lengths
}

/// Decodes the compressed body of one block given its two code tables;
/// shared by the fixed and dynamic paths.
fn inflate_codes(
    bits: &mut BitReader<'_>,
    lit: &Huffman,
    dist: &Huffman,
    out: &mut Vec<u8>,
) -> Result<(), &'static str> {
    loop {
        let symbol = lit.decode(bits)?;
        match symbol {
            0..=255 => out.push(symbol as u8),
            256 => return Ok(()),
            257..=285 => {
                let idx = symbol as usize - 257;
                let length =
                    LENGTH_BASE[idx] as usize + bits.take(LENGTH_EXTRA[idx] as u32)? as usize;
                let dsym = dist.decode(bits)? as usize;
                if dsym >= MAX_DCODES {
                    return Err("invalid distance symbol");
                }
                let distance =
                    DIST_BASE[dsym] as usize + bits.take(DIST_EXTRA[dsym] as u32)? as usize;
                if distance > out.len() {
                    return Err("back-reference before start of output");
                }
                let start = out.len() - distance;
                // Overlapping copies are the LZ77 run-length idiom
                // (distance < length), so copy byte by byte.
                for i in 0..length {
                    let byte = out[start + i];
                    out.push(byte);
                }
            }
            _ => return Err("invalid literal/length symbol"),
        }
    }
}

/// Decodes the dynamic-Huffman table definition at the head of a
/// BTYPE=10 block and returns the (literal, distance) tables.
fn dynamic_tables(bits: &mut BitReader<'_>) -> Result<(Huffman, Huffman), &'static str> {
    let hlit = bits.take(5)? as usize + 257;
    let hdist = bits.take(5)? as usize + 1;
    let hclen = bits.take(4)? as usize + 4;
    if hlit > MAX_LCODES || hdist > MAX_DCODES {
        return Err("too many literal or distance codes");
    }
    let mut clen_lengths = [0u8; 19];
    for &pos in CLEN_ORDER.iter().take(hclen) {
        clen_lengths[pos] = bits.take(3)? as u8;
    }
    let clen = Huffman::build(&clen_lengths)?;
    let mut lengths = [0u8; MAX_LCODES + MAX_DCODES];
    let total = hlit + hdist;
    let mut index = 0;
    while index < total {
        let symbol = clen.decode(bits)?;
        match symbol {
            0..=15 => {
                lengths[index] = symbol as u8;
                index += 1;
            }
            16 => {
                if index == 0 {
                    return Err("repeat code with no previous length");
                }
                let prev = lengths[index - 1];
                let repeat = 3 + bits.take(2)? as usize;
                if index + repeat > total {
                    return Err("code-length repeat overruns the alphabet");
                }
                lengths[index..index + repeat].fill(prev);
                index += repeat;
            }
            17 | 18 => {
                let repeat = if symbol == 17 {
                    3 + bits.take(3)? as usize
                } else {
                    11 + bits.take(7)? as usize
                };
                if index + repeat > total {
                    return Err("code-length repeat overruns the alphabet");
                }
                index += repeat; // already zero
            }
            _ => return Err("invalid code-length symbol"),
        }
    }
    if lengths[256] == 0 {
        return Err("dynamic block has no end-of-block code");
    }
    let lit = Huffman::build(&lengths[..hlit])?;
    let dist = Huffman::build(&lengths[hlit..total])?;
    Ok((lit, dist))
}

/// Inflates a raw DEFLATE stream (RFC 1951: stored, fixed-Huffman and
/// dynamic-Huffman blocks). `size_hint` pre-sizes the output (callers
/// pass the trailer's ISIZE, clamped — a hostile hint cannot
/// over-allocate).
///
/// # Errors
///
/// A static description of the first structural violation; the BGZF
/// layer wraps it into [`BgzfError::BadDeflate`]. Hostile input never
/// panics and never reads out of bounds.
pub fn inflate(data: &[u8], size_hint: usize) -> Result<Vec<u8>, &'static str> {
    let mut bits = BitReader::new(data);
    let mut out = Vec::with_capacity(size_hint.min(2 * BGZF_MAX_PLAIN));
    loop {
        let last = bits.take(1)? == 1;
        match bits.take(2)? {
            0 => {
                bits.align();
                let Some(header) = bits.data.get(bits.byte..bits.byte + 4) else {
                    return Err("stored block header truncated");
                };
                let len = u16::from_le_bytes([header[0], header[1]]) as usize;
                let nlen = u16::from_le_bytes([header[2], header[3]]);
                if nlen != !(len as u16) {
                    return Err("stored block length check (NLEN) failed");
                }
                bits.byte += 4;
                let Some(body) = bits.data.get(bits.byte..bits.byte + len) else {
                    return Err("stored block overruns the payload");
                };
                out.extend_from_slice(body);
                bits.byte += len;
            }
            1 => {
                let lit = Huffman::build(&fixed_literal_lengths())?;
                let dist = Huffman::build(&[5u8; 30])?;
                inflate_codes(&mut bits, &lit, &dist, &mut out)?;
            }
            2 => {
                let (lit, dist) = dynamic_tables(&mut bits)?;
                inflate_codes(&mut bits, &lit, &dist, &mut out)?;
            }
            _ => return Err("reserved block type (BTYPE=11)"),
        }
        if last {
            break;
        }
    }
    if !bits.exhausted() {
        return Err("trailing garbage after the final block");
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// BGZF container parsing.
// ---------------------------------------------------------------------

/// Fixed gzip member header length up to (and including) XLEN.
const GZIP_HEADER: usize = 12;
/// Most plain bytes packed into one member by [`bgzf_compress`]; chosen
/// so even a worst-case fixed-Huffman expansion (9 bits/byte) plus
/// framing stays under the `BSIZE` u16 ceiling.
pub const BGZF_MAX_PLAIN: usize = 57000;

/// One sliced (still compressed) BGZF block; [`Self::inflate`] turns it
/// into its plain bytes.
#[derive(Clone, Debug)]
pub struct BgzfBlock {
    index: usize,
    offset: u64,
    cdata: Vec<u8>,
    crc: u32,
    isize: u32,
    last: bool,
}

impl BgzfBlock {
    /// 0-based position of this block in the stream.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Byte offset of the block's member header in the compressed input.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Whether this is the stream's final block (the EOF marker).
    pub fn is_last(&self) -> bool {
        self.last
    }

    /// The still-compressed DEFLATE payload (tests corrupt this).
    pub fn cdata(&self) -> &[u8] {
        &self.cdata
    }

    /// Inflates and verifies the payload: DEFLATE decode, then ISIZE,
    /// then CRC32.
    ///
    /// # Errors
    ///
    /// [`BgzfError::BadDeflate`] on a malformed payload,
    /// [`BgzfError::CrcMismatch`] when the inflated bytes fail either
    /// integrity check. Never panics.
    pub fn inflate(&self) -> Result<Vec<u8>, BgzfError> {
        let out =
            inflate(&self.cdata, self.isize as usize).map_err(|reason| BgzfError::BadDeflate {
                block: self.index,
                reason,
            })?;
        if out.len() as u32 != self.isize {
            return Err(BgzfError::CrcMismatch {
                block: self.index,
                check: "ISIZE",
                stored: self.isize,
                computed: out.len() as u32,
            });
        }
        let computed = crc32(&out);
        if computed != self.crc {
            return Err(BgzfError::CrcMismatch {
                block: self.index,
                check: "CRC32",
                stored: self.crc,
                computed,
            });
        }
        Ok(out)
    }
}

/// An iterator slicing a byte stream into [`BgzfBlock`]s. It parses member
/// headers and `BSIZE`s only; payloads stay compressed until
/// [`BgzfBlock::inflate`].
///
/// The stream must end with the canonical EOF marker ([`BGZF_EOF`]);
/// the marker is yielded as the final block with
/// [`BgzfBlock::is_last`] set (its payload inflates to nothing), and a
/// clean end of input without it is [`BgzfError::MissingEof`]. After
/// yielding an error the iterator fuses.
#[derive(Debug)]
pub struct BgzfBlocks<R: Read> {
    source: R,
    /// Bytes read from the source but not yet consumed into blocks.
    buffer: Vec<u8>,
    /// Byte offset of `buffer[0]` in the overall stream.
    offset: u64,
    /// The source reported end of input.
    eof: bool,
    /// Blocks sliced so far.
    index: usize,
    /// Set once the iterator has finished (marker seen or error yielded).
    done: bool,
}

impl<R: Read> BgzfBlocks<R> {
    /// Wraps a compressed byte source.
    pub fn new(source: R) -> Self {
        Self {
            source,
            buffer: Vec::new(),
            offset: 0,
            eof: false,
            index: 0,
            done: false,
        }
    }

    /// Ensures at least `need` bytes are buffered; returns the number
    /// actually available (less only at end of input).
    fn fill_to(&mut self, need: usize) -> std::io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        while self.buffer.len() < need && !self.eof {
            let n = match self.source.read(&mut chunk) {
                Ok(n) => n,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) => return Err(err),
            };
            if n == 0 {
                self.eof = true;
            } else {
                self.buffer.extend_from_slice(&chunk[..n]);
            }
        }
        Ok(self.buffer.len().min(need))
    }

    /// Parses the next block off the buffer. `Ok(None)` is clean end of
    /// input (no bytes left at a block boundary).
    fn read_block(&mut self) -> Result<Option<BgzfBlock>, BgzfError> {
        let offset = self.offset;
        let truncated = BgzfError::Truncated { offset };
        let io_as_truncated = |_| BgzfError::Truncated { offset };
        if self.fill_to(GZIP_HEADER).map_err(io_as_truncated)? == 0 {
            return Ok(None);
        }
        if self.buffer.len() < GZIP_HEADER {
            // Partial header: enough bytes to know more was coming.
            return Err(
                if self.buffer.len() >= 2 && !looks_like_gzip(&self.buffer) {
                    BgzfError::BadMagic { offset }
                } else {
                    truncated
                },
            );
        }
        if self.buffer[..2] != GZIP_MAGIC || self.buffer[2] != 0x08 {
            return Err(BgzfError::BadMagic { offset });
        }
        let flags = self.buffer[3];
        if flags & 0x04 == 0 {
            return Err(BgzfError::BadExtra {
                offset,
                reason: "no FEXTRA field (plain gzip, not BGZF)",
            });
        }
        let xlen = u16::from_le_bytes([self.buffer[10], self.buffer[11]]) as usize;
        let header_len = GZIP_HEADER + xlen;
        if self.fill_to(header_len).map_err(io_as_truncated)? < header_len {
            return Err(truncated);
        }
        // Scan the extra subfields for BC (SLEN must be 2).
        let mut bsize: Option<usize> = None;
        let extra = &self.buffer[GZIP_HEADER..header_len];
        let mut at = 0;
        while at + 4 <= extra.len() {
            let slen = u16::from_le_bytes([extra[at + 2], extra[at + 3]]) as usize;
            if at + 4 + slen > extra.len() {
                return Err(BgzfError::BadExtra {
                    offset,
                    reason: "extra subfield overruns XLEN",
                });
            }
            if extra[at] == b'B' && extra[at + 1] == b'C' {
                if slen != 2 {
                    return Err(BgzfError::BadExtra {
                        offset,
                        reason: "BC subfield length is not 2",
                    });
                }
                bsize = Some(u16::from_le_bytes([extra[at + 4], extra[at + 5]]) as usize + 1);
            }
            at += 4 + slen;
        }
        if at != extra.len() {
            return Err(BgzfError::BadExtra {
                offset,
                reason: "trailing bytes after the last extra subfield",
            });
        }
        let Some(total) = bsize else {
            return Err(BgzfError::BadExtra {
                offset,
                reason: "no BC subfield (BSIZE missing)",
            });
        };
        if total < header_len + 8 {
            return Err(BgzfError::BadExtra {
                offset,
                reason: "BSIZE smaller than the member's own framing",
            });
        }
        if self.fill_to(total).map_err(io_as_truncated)? < total {
            return Err(truncated);
        }
        let cdata = self.buffer[header_len..total - 8].to_vec();
        let crc = u32::from_le_bytes(self.buffer[total - 8..total - 4].try_into().unwrap());
        let isize = u32::from_le_bytes(self.buffer[total - 4..total].try_into().unwrap());
        let last = self.buffer[..total] == BGZF_EOF;
        self.buffer.drain(..total);
        self.offset += total as u64;
        let block = BgzfBlock {
            index: self.index,
            offset,
            cdata,
            crc,
            isize,
            last,
        };
        self.index += 1;
        Ok(Some(block))
    }
}

impl<R: Read> Iterator for BgzfBlocks<R> {
    type Item = Result<BgzfBlock, BgzfError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_block() {
            Ok(Some(block)) => {
                if block.last {
                    // The EOF marker ends the stream; anything after it
                    // (concatenated archives) is out of scope here.
                    self.done = true;
                }
                Some(Ok(block))
            }
            Ok(None) => {
                self.done = true;
                Some(Err(BgzfError::MissingEof))
            }
            Err(err) => {
                self.done = true;
                Some(Err(err))
            }
        }
    }
}

// ---------------------------------------------------------------------
// The minimal in-tree compressor (fixture factory for tests and ci.sh).
// ---------------------------------------------------------------------

/// How [`bgzf_compress`] encodes each member's DEFLATE payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BgzfMode {
    /// Stored (BTYPE=00) blocks: no compression, trivially correct.
    Stored,
    /// Fixed-Huffman (BTYPE=01) blocks with a greedy LZ77 matcher.
    Fixed,
}

/// An LSB-first bit writer (the mirror of [`BitReader`]).
struct BitWriter {
    out: Vec<u8>,
    bit: u32,
}

impl BitWriter {
    fn new() -> Self {
        Self {
            out: Vec::new(),
            bit: 0,
        }
    }

    /// Writes `count` bits of `value`, LSB first (extra-bit fields).
    fn put(&mut self, value: u32, count: u32) {
        for i in 0..count {
            if self.bit == 0 {
                self.out.push(0);
            }
            if value >> i & 1 != 0 {
                *self.out.last_mut().expect("pushed above") |= 1 << self.bit;
            }
            self.bit = (self.bit + 1) % 8;
        }
    }

    /// Writes a Huffman code: MSB of the code first (RFC 1951 §3.1.1).
    fn put_code(&mut self, code: u32, len: u32) {
        for i in (0..len).rev() {
            self.put(code >> i & 1, 1);
        }
    }

    fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// The fixed-Huffman code for one literal/length symbol.
fn fixed_code(symbol: u16) -> (u32, u32) {
    match symbol {
        0..=143 => (0x30 + symbol as u32, 8),
        144..=255 => (0x190 + (symbol as u32 - 144), 9),
        256..=279 => (symbol as u32 - 256, 7),
        _ => (0xc0 + (symbol as u32 - 280), 8),
    }
}

/// Emits one length/distance pair with the fixed codes.
fn put_match(bits: &mut BitWriter, length: usize, distance: usize) {
    let idx = LENGTH_BASE
        .iter()
        .rposition(|&base| base as usize <= length)
        .expect("length >= 3");
    let (code, len) = fixed_code(257 + idx as u16);
    bits.put_code(code, len);
    bits.put(
        (length - LENGTH_BASE[idx] as usize) as u32,
        LENGTH_EXTRA[idx] as u32,
    );
    let didx = DIST_BASE
        .iter()
        .rposition(|&base| base as usize <= distance)
        .expect("distance >= 1");
    bits.put_code(didx as u32, 5);
    bits.put(
        (distance - DIST_BASE[didx] as usize) as u32,
        DIST_EXTRA[didx] as u32,
    );
}

/// Deflates `data` as one final fixed-Huffman block with a greedy
/// hash-chained LZ77 matcher (min match 3, max 258, 32 KiB window).
fn deflate_fixed(data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 32 * 1024;
    const CHAIN: usize = 16;
    let mut bits = BitWriter::new();
    bits.put(1, 1); // BFINAL
    bits.put(1, 2); // BTYPE=01
    let mut heads: std::collections::HashMap<[u8; 3], Vec<usize>> =
        std::collections::HashMap::new();
    let mut pos = 0;
    while pos < data.len() {
        let mut best: Option<(usize, usize)> = None; // (length, distance)
        if pos + 3 <= data.len() {
            let key = [data[pos], data[pos + 1], data[pos + 2]];
            if let Some(starts) = heads.get(&key) {
                for &start in starts.iter().rev().take(CHAIN) {
                    if pos - start > WINDOW {
                        break;
                    }
                    let limit = (data.len() - pos).min(258);
                    let mut len = 0;
                    while len < limit && data[start + len] == data[pos + len] {
                        len += 1;
                    }
                    if len >= 3 && best.is_none_or(|(b, _)| len > b) {
                        best = Some((len, pos - start));
                    }
                }
            }
        }
        let advance = match best {
            Some((length, distance)) => {
                put_match(&mut bits, length, distance);
                length
            }
            None => {
                let (code, len) = fixed_code(data[pos] as u16);
                bits.put_code(code, len);
                1
            }
        };
        for p in pos..(pos + advance).min(data.len().saturating_sub(2)) {
            heads
                .entry([data[p], data[p + 1], data[p + 2]])
                .or_default()
                .push(p);
        }
        pos += advance;
    }
    let (eob, eob_len) = fixed_code(256);
    bits.put_code(eob, eob_len);
    bits.finish()
}

/// Deflates `data` as one final stored block (`data.len() <= 65535`).
fn deflate_stored(data: &[u8]) -> Vec<u8> {
    let len = data.len() as u16;
    let mut out = Vec::with_capacity(data.len() + 5);
    out.push(0x01); // BFINAL=1, BTYPE=00
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(!len).to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Encodes one complete BGZF member holding `chunk`
/// (`chunk.len() <= `[`BGZF_MAX_PLAIN`], panics otherwise — this is the
/// fixture factory, not a general-purpose encoder). Falls back to a
/// stored block if fixed-Huffman coding would overflow `BSIZE`'s u16.
pub fn bgzf_member(chunk: &[u8], mode: BgzfMode) -> Vec<u8> {
    assert!(
        chunk.len() <= BGZF_MAX_PLAIN,
        "BGZF member payload over {BGZF_MAX_PLAIN} bytes"
    );
    let mut cdata = match mode {
        BgzfMode::Stored => deflate_stored(chunk),
        BgzfMode::Fixed => deflate_fixed(chunk),
    };
    let framing = GZIP_HEADER + 6 + 8;
    if cdata.len() + framing > u16::MAX as usize {
        cdata = deflate_stored(chunk);
    }
    let total = framing + cdata.len();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&[0x1f, 0x8b, 0x08, 0x04, 0, 0, 0, 0, 0, 0xff]);
    out.extend_from_slice(&6u16.to_le_bytes()); // XLEN
    out.extend_from_slice(b"BC");
    out.extend_from_slice(&2u16.to_le_bytes()); // SLEN
    out.extend_from_slice(&((total - 1) as u16).to_le_bytes()); // BSIZE
    out.extend_from_slice(&cdata);
    out.extend_from_slice(&crc32(chunk).to_le_bytes());
    out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    out
}

/// Compresses `data` into a complete BGZF stream: members of at most
/// `block_size` plain bytes each (clamped to `1..=`[`BGZF_MAX_PLAIN`]),
/// terminated by the canonical EOF marker.
pub fn bgzf_compress(data: &[u8], block_size: usize, mode: BgzfMode) -> Vec<u8> {
    let block_size = block_size.clamp(1, BGZF_MAX_PLAIN);
    let mut out = Vec::new();
    for chunk in data.chunks(block_size) {
        out.extend_from_slice(&bgzf_member(chunk, mode));
    }
    out.extend_from_slice(&BGZF_EOF);
    out
}

/// A streaming BGZF compressor: a [`Write`] adapter that buffers plain
/// bytes into members of at most `block_size` bytes (`segram map
/// --compress-output` wraps its SAM/GAF sinks in one per writer thread).
///
/// [`finish`](Self::finish) emits the buffered tail and the canonical
/// 28-byte EOF marker — the htslib completeness signal — so a stream is
/// only well-terminated on a clean close. Dropping the writer without
/// `finish` leaves the output EOF-less, exactly how a truncated file
/// should look to downstream readers.
#[derive(Debug)]
pub struct BgzfWriter<W: Write> {
    sink: W,
    mode: BgzfMode,
    block_size: usize,
    buffer: Vec<u8>,
}

impl<W: Write> BgzfWriter<W> {
    /// Wraps `sink`, compressing with full-sized members.
    pub fn new(sink: W, mode: BgzfMode) -> Self {
        Self::with_block_size(sink, mode, BGZF_MAX_PLAIN)
    }

    /// Wraps `sink` with an explicit member payload size (clamped to
    /// `1..=`[`BGZF_MAX_PLAIN`]).
    pub fn with_block_size(sink: W, mode: BgzfMode, block_size: usize) -> Self {
        Self {
            sink,
            mode,
            block_size: block_size.clamp(1, BGZF_MAX_PLAIN),
            buffer: Vec::new(),
        }
    }

    /// Emits the buffered plain bytes as one member, if any.
    fn emit_buffer(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            let member = bgzf_member(&self.buffer, self.mode);
            self.buffer.clear();
            self.sink.write_all(&member)?;
        }
        Ok(())
    }

    /// Flushes the tail member, writes the EOF marker, flushes the sink,
    /// and returns it.
    pub fn finish(mut self) -> io::Result<W> {
        self.emit_buffer()?;
        self.sink.write_all(&BGZF_EOF)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

impl<W: Write> Write for BgzfWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Fill the current member to exactly `block_size` before emitting,
        // so the stream's member boundaries depend only on the byte
        // offsets, never on how the caller chunked its writes.
        let mut rest = buf;
        while !rest.is_empty() {
            let room = self.block_size - self.buffer.len();
            let take = room.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() == self.block_size {
                self.emit_buffer()?;
            }
        }
        Ok(buf.len())
    }

    /// Flushes the *sink* only: buffered plain bytes stay put so member
    /// boundaries remain deterministic (use [`finish`](Self::finish) to
    /// terminate the stream).
    fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8], block_size: usize, mode: BgzfMode) -> Vec<u8> {
        let compressed = bgzf_compress(data, block_size, mode);
        let mut out = Vec::new();
        let mut saw_last = false;
        for block in BgzfBlocks::new(&compressed[..]) {
            let block = block.expect("well-formed stream");
            saw_last = block.is_last();
            out.extend(block.inflate().expect("verified payload"));
        }
        assert!(saw_last, "EOF marker must be yielded as the last block");
        out
    }

    #[test]
    fn crc32_matches_the_check_value() {
        // The classic CRC32 check vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn stored_and_fixed_members_roundtrip_across_block_sizes() {
        let data: Vec<u8> = (0..2000u32)
            .flat_map(|i| format!("@r{i}\nACGTACGTTG\n+\nIIIIIIIIII\n").into_bytes())
            .collect();
        for mode in [BgzfMode::Stored, BgzfMode::Fixed] {
            for block_size in [1usize, 7, 100, 4096, BGZF_MAX_PLAIN] {
                assert_eq!(
                    roundtrip(&data, block_size, mode),
                    data,
                    "{mode:?}/{block_size}"
                );
            }
        }
    }

    #[test]
    fn empty_input_compresses_to_just_the_marker() {
        let compressed = bgzf_compress(b"", 100, BgzfMode::Fixed);
        assert_eq!(compressed, BGZF_EOF);
        let blocks: Vec<_> = BgzfBlocks::new(&compressed[..]).collect();
        assert_eq!(blocks.len(), 1);
        let marker = blocks[0].as_ref().expect("marker parses");
        assert!(marker.is_last());
        assert_eq!(marker.inflate().expect("empty payload"), b"");
    }

    #[test]
    fn incompressible_fixed_members_fall_back_to_stored() {
        // A de Bruijn-ish byte soup defeats the matcher; the member must
        // still respect the u16 BSIZE ceiling (via the stored fallback).
        let data: Vec<u8> = (0..BGZF_MAX_PLAIN as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let member = bgzf_member(&data, BgzfMode::Fixed);
        assert!(member.len() <= u16::MAX as usize);
        let blocks: Vec<_> = BgzfBlocks::new(&member[..])
            .take(1)
            .map(|b| b.expect("parses"))
            .collect();
        assert_eq!(blocks[0].inflate().expect("verifies"), data);
    }

    #[test]
    fn dynamic_huffman_blocks_inflate() {
        // Hand-assemble a dynamic block for "abaabbba". Literal alphabet:
        // 'a'(97) length 1, 'b'(98) length 2, EOB(256) length 2 — a
        // complete code (1×2⁻¹ + 2×2⁻² = 1). Code-length alphabet:
        // symbols {0, 1, 2, 18} all length 2 (canonical 00, 01, 10, 11).
        let mut bits = BitWriter::new();
        bits.put(1, 1);
        bits.put(2, 2);
        bits.put(0, 5); // HLIT=257
        bits.put(0, 5); // HDIST=1
        bits.put(15, 4); // HCLEN=19
                         // clen lengths: symbol 18 → 2 bits, 0 → 2, 1 → 2, 2 → 2.
                         // Canonical: 0=00, 1=01, 2=10, 18=11.
        let mut clen = [0u32; 19];
        clen[18] = 2;
        clen[0] = 2;
        clen[1] = 2;
        clen[2] = 2;
        for &pos in CLEN_ORDER.iter() {
            bits.put(clen[pos], 3);
        }
        let code_of = |sym: usize| -> (u32, u32) {
            match sym {
                0 => (0b00, 2),
                1 => (0b01, 2),
                2 => (0b10, 2),
                18 => (0b11, 2),
                _ => unreachable!(),
            }
        };
        let put_len = |bits: &mut BitWriter, sym: usize| {
            let (c, l) = code_of(sym);
            bits.put_code(c, l);
        };
        // Literal lengths (257 total): 97 zeros, 'a'→1, 'b'→2, then
        // 138 + 19 zeros, EOB→2. Code 18 repeats zero 11..=138 times
        // (7 extra bits).
        put_len(&mut bits, 18);
        bits.put(97 - 11, 7); // 97 zeros
        put_len(&mut bits, 1); // 'a' → length 1
        put_len(&mut bits, 2); // 'b' → length 2
        put_len(&mut bits, 18);
        bits.put(127, 7); // 138 zeros (99..=236)
        put_len(&mut bits, 18);
        bits.put(19 - 11, 7); // 19 zeros (237..=255)
        put_len(&mut bits, 2); // EOB → length 2
                               // Distance alphabet (HDIST=1): one symbol, length 1 (incomplete
                               // code — legal, never used).
        put_len(&mut bits, 1);
        // Body: canonical lit codes 'a'=0, 'b'=10, EOB=11.
        for byte in b"abaabbba" {
            match byte {
                b'a' => bits.put_code(0, 1),
                _ => bits.put_code(0b10, 2),
            }
        }
        bits.put_code(0b11, 2); // EOB
        let payload = bits.finish();
        assert_eq!(
            inflate(&payload, 8).expect("valid dynamic block"),
            b"abaabbba"
        );
    }

    #[test]
    fn lz_backreferences_compress_repetitive_payloads() {
        let data = b"ACGTACGTACGTACGTACGTACGTACGTACGT".repeat(64);
        let fixed = bgzf_member(&data, BgzfMode::Fixed);
        let stored = bgzf_member(&data, BgzfMode::Stored);
        assert!(
            fixed.len() < stored.len() / 4,
            "matcher must actually compress: fixed {} vs stored {}",
            fixed.len(),
            stored.len()
        );
    }

    // -- the corruption-class fixture factory -------------------------

    /// A two-block fixture (plus marker) every corruption test mutates.
    fn fixture() -> Vec<u8> {
        bgzf_compress(
            b"@r1\nACGT\n+\nIIII\n@r2\nTTAA\n+\nJJJJ\n",
            20,
            BgzfMode::Stored,
        )
    }

    /// First error from slicing + inflating every block of `bytes`.
    fn first_error(bytes: &[u8]) -> Option<BgzfError> {
        for block in BgzfBlocks::new(bytes) {
            match block {
                Ok(block) => {
                    if let Err(err) = block.inflate() {
                        return Some(err);
                    }
                }
                Err(err) => return Some(err),
            }
        }
        None
    }

    #[test]
    fn intact_fixture_has_no_error() {
        assert_eq!(first_error(&fixture()), None);
    }

    #[test]
    fn garbage_magic_is_bad_magic() {
        let mut bytes = fixture();
        bytes[0] = 0x2a;
        assert!(matches!(
            first_error(&bytes),
            Some(BgzfError::BadMagic { offset: 0 })
        ));
    }

    #[test]
    fn plain_gzip_header_is_bad_extra() {
        let mut bytes = fixture();
        bytes[3] = 0; // clear FEXTRA: valid gzip, not BGZF
        assert!(matches!(
            first_error(&bytes),
            Some(BgzfError::BadExtra { offset: 0, .. })
        ));
    }

    #[test]
    fn bitflipped_payload_is_crc_mismatch() {
        let mut bytes = fixture();
        // Flip a bit inside the first member's stored-block body: the
        // DEFLATE structure stays valid, so the corruption is caught by
        // CRC32 — exactly what the check exists for.
        let body_start = GZIP_HEADER + 6 + 5; // header + extra + stored hdr
        bytes[body_start] ^= 0x10;
        assert!(matches!(
            first_error(&bytes),
            Some(BgzfError::CrcMismatch {
                block: 0,
                check: "CRC32",
                ..
            })
        ));
    }

    #[test]
    fn lied_isize_is_caught() {
        let mut bytes = fixture();
        // The first member's ISIZE is its last 4 bytes; BSIZE is at a
        // fixed offset in the extra field.
        let total = u16::from_le_bytes([bytes[16], bytes[17]]) as usize + 1;
        bytes[total - 4] ^= 0x01;
        assert!(matches!(
            first_error(&bytes),
            Some(BgzfError::CrcMismatch {
                block: 0,
                check: "ISIZE",
                ..
            })
        ));
    }

    #[test]
    fn lied_bsize_is_bad_deflate_or_magic() {
        let mut bytes = fixture();
        // Shrink BSIZE by 4: the payload is cut short, so the stored
        // block overruns what the member now claims to contain.
        let total = u16::from_le_bytes([bytes[16], bytes[17]]) as usize + 1;
        bytes[16..18].copy_from_slice(&((total - 4 - 1) as u16).to_le_bytes());
        assert!(matches!(
            first_error(&bytes),
            Some(BgzfError::BadDeflate { block: 0, .. })
        ));
    }

    #[test]
    fn missing_eof_marker_is_reported() {
        let mut bytes = fixture();
        bytes.truncate(bytes.len() - BGZF_EOF.len());
        assert_eq!(first_error(&bytes), Some(BgzfError::MissingEof));
    }

    #[test]
    fn truncation_mid_block_is_reported() {
        let bytes = fixture();
        // Cut inside the second member's payload.
        let first = u16::from_le_bytes([bytes[16], bytes[17]]) as usize + 1;
        let cut = first + 20;
        assert!(matches!(
            first_error(&bytes[..cut]),
            Some(BgzfError::Truncated { .. })
        ));
    }

    #[test]
    fn truncation_at_every_byte_yields_a_named_error_without_panicking() {
        let bytes = bgzf_compress(b"@r1\nACGTACGT\n+\nIIIIIIII\n", 6, BgzfMode::Fixed);
        for cut in 0..bytes.len() - 1 {
            let err = first_error(&bytes[..cut]);
            assert!(
                matches!(
                    err,
                    Some(
                        BgzfError::Truncated { .. }
                            | BgzfError::MissingEof
                            | BgzfError::BadMagic { .. }
                    )
                ),
                "cut at {cut}: unexpected outcome {err:?}"
            );
        }
    }

    #[test]
    fn eof_marker_constant_is_itself_a_valid_empty_member() {
        let blocks: Vec<_> = BgzfBlocks::new(&BGZF_EOF[..]).collect();
        assert_eq!(blocks.len(), 1);
        let block = blocks[0].as_ref().expect("marker is well-formed");
        assert!(block.is_last());
        assert_eq!(block.inflate().expect("inflates"), Vec::<u8>::new());
    }

    #[test]
    fn writer_stream_matches_one_shot_compression_regardless_of_chunking() {
        let plain: Vec<u8> = (0u16..4000).map(|i| (i % 251) as u8).collect();
        let expected = bgzf_compress(&plain, 512, BgzfMode::Fixed);
        // Write in awkward chunk sizes: member boundaries must depend only
        // on byte offsets, so the stream is byte-identical.
        for step in [1usize, 7, 511, 512, 513, 4000] {
            let mut writer = BgzfWriter::with_block_size(Vec::new(), BgzfMode::Fixed, 512);
            for chunk in plain.chunks(step) {
                writer.write_all(chunk).expect("vec write");
            }
            let stream = writer.finish().expect("finish");
            assert_eq!(stream, expected, "chunk step {step}");
        }
    }

    #[test]
    fn writer_finish_terminates_with_the_eof_marker_but_drop_does_not() {
        let mut writer = BgzfWriter::new(Vec::new(), BgzfMode::Stored);
        writer.write_all(b"tail bytes").expect("vec write");
        let stream = writer.finish().expect("finish");
        assert_eq!(&stream[stream.len() - BGZF_EOF.len()..], &BGZF_EOF);
        let inflated = roundtrip(b"tail bytes", BGZF_MAX_PLAIN, BgzfMode::Stored);
        assert_eq!(inflated, b"tail bytes");

        // Without `finish`, the stream is EOF-less: readers classify it as
        // truncated rather than silently complete.
        let mut writer = BgzfWriter::new(Vec::new(), BgzfMode::Stored);
        writer.write_all(b"lost tail").expect("vec write");
        drop(writer);
    }

    #[test]
    fn errors_display_their_corruption_class() {
        let shown = format!(
            "{}",
            BgzfError::CrcMismatch {
                block: 3,
                check: "CRC32",
                stored: 1,
                computed: 2
            }
        );
        assert!(
            shown.contains("block 3") && shown.contains("CRC32"),
            "{shown}"
        );
        assert!(format!("{}", BgzfError::MissingEof).contains("EOF marker"));
    }
}
