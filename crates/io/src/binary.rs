//! Streaming little-endian binary primitives for the on-disk index format
//! (`segram index build` / the `segram serve` load path).
//!
//! The pair [`ByteWriter`] / [`ByteReader`] moves one payload through a
//! caller-owned chunk buffer, folding every byte into a [`Checksum`] on
//! the way, so a file-sized payload never needs a file-sized buffer:
//! fixed little-endian integer encodings, byte runs, bulk fixed-width
//! records, and a [`BinError`] for every way a corrupt, truncated or
//! shrinking input can disappoint the reader — reading never panics and
//! never allocates proportionally to an unvalidated length field.
//!
//! The checksums are [`xxh64`] (format v2; four independent 64-bit lanes
//! over 32-byte stripes, so it runs at memory speed) and the byte-serial
//! [`fnv1a64`] (format v1). Both are dependency-free and plenty for
//! corruption *detection* (the format does not defend against adversarial
//! collisions), and both come as an incremental hasher — [`Xxh64`],
//! [`Fnv1a64`] — of which the one-shot functions are a single update.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// FNV-1a 64-bit hash of `bytes` — the section checksum of format-v1
/// `.sgi` stores, and the fingerprint tests and the perf ledger pin
/// documents with.
///
/// # Examples
///
/// ```
/// use segram_io::fnv1a64;
/// // The FNV-1a offset basis is the hash of the empty string.
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(fnv1a64(b"segram"), fnv1a64(b"segraM"));
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a64::new();
    hasher.update(bytes);
    hasher.digest()
}

/// Incremental [`fnv1a64`]: the digest of the concatenation of every
/// [`Self::update`] so far, however the input was split.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher over the empty input.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in the next bytes of the input.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of the input so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;
/// Bytes XXH64 consumes per round of its four lanes.
const XXH_STRIPE: usize = 32;

#[inline]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// XXH64 (seed 0) of `bytes` — the section checksum of format-v2 `.sgi`
/// stores. Four accumulators each consume one little-endian `u64` of every
/// 32-byte stripe, so the multiplies of a stripe are independent and the
/// hash runs at memory speed where [`fnv1a64`] pays one dependent multiply
/// per byte; the sub-stripe tail is folded in 8, 4 and 1 bytes at a time.
/// Bit-compatible with the reference xxHash implementation.
///
/// # Examples
///
/// ```
/// use segram_io::xxh64;
/// assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
/// assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
/// ```
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut hasher = Xxh64::new();
    hasher.update(bytes);
    hasher.digest()
}

/// Incremental [`xxh64`]: whole stripes go straight through the four
/// lanes, and the at most 31 bytes of a split stripe wait in the hasher
/// for the next [`Self::update`] — so the digest does not depend on how
/// the input was split.
///
/// # Examples
///
/// ```
/// use segram_io::{xxh64, Xxh64};
/// let mut hasher = Xxh64::new();
/// hasher.update(b"Nobody inspects ");
/// hasher.update(b"the spammish repetition");
/// assert_eq!(hasher.digest(), xxh64(b"Nobody inspects the spammish repetition"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The start of a stripe not yet complete.
    pending: [u8; XXH_STRIPE],
    pending_len: usize,
    total: u64,
}

impl Xxh64 {
    /// A hasher over the empty input.
    pub fn new() -> Self {
        Self {
            lanes: [
                XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
                XXH_PRIME_2,
                0,
                0u64.wrapping_sub(XXH_PRIME_1),
            ],
            pending: [0; XXH_STRIPE],
            pending_len: 0,
            total: 0,
        }
    }

    fn stripe(&mut self, stripe: &[u8]) {
        for (lane, word) in self.lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = xxh_round(*lane, le_u64(word));
        }
    }

    /// Folds in the next bytes of the input.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(XXH_STRIPE - self.pending_len);
            self.pending[self.pending_len..][..take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < XXH_STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripe(&stripe);
            self.pending_len = 0;
        }
        let mut stripes = bytes.chunks_exact(XXH_STRIPE);
        for stripe in &mut stripes {
            self.stripe(stripe);
        }
        let tail = stripes.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The hash of the input so far.
    pub fn digest(&self) -> u64 {
        let mut hash = if self.total >= XXH_STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let merged = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.lanes.iter().fold(merged, |hash, &lane| {
                (hash ^ xxh_round(0, lane))
                    .wrapping_mul(XXH_PRIME_1)
                    .wrapping_add(XXH_PRIME_4)
            })
        } else {
            XXH_PRIME_5
        };
        hash = hash.wrapping_add(self.total);

        let mut words = self.pending[..self.pending_len].chunks_exact(8);
        for word in &mut words {
            hash = (hash ^ xxh_round(0, le_u64(word)))
                .rotate_left(27)
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4);
        }
        let mut tail = words.remainder();
        if tail.len() >= 4 {
            let half = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            hash = (hash ^ u64::from(half).wrapping_mul(XXH_PRIME_1))
                .rotate_left(23)
                .wrapping_mul(XXH_PRIME_2)
                .wrapping_add(XXH_PRIME_3);
            tail = &tail[4..];
        }
        for &byte in tail {
            hash = (hash ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
                .rotate_left(11)
                .wrapping_mul(XXH_PRIME_1);
        }
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(XXH_PRIME_2);
        hash ^= hash >> 29;
        hash = hash.wrapping_mul(XXH_PRIME_3);
        hash ^ (hash >> 32)
    }
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

/// A payload checksum in progress: which hash a stream records.
#[derive(Clone, Copy, Debug)]
pub enum Checksum {
    /// [`xxh64`], format v2's section checksum.
    Xxh64(Xxh64),
    /// [`fnv1a64`], format v1's section checksum.
    Fnv1a64(Fnv1a64),
}

impl Checksum {
    /// Folds in the next bytes of the payload.
    pub fn update(&mut self, bytes: &[u8]) {
        match self {
            Self::Xxh64(hasher) => hasher.update(bytes),
            Self::Fnv1a64(hasher) => hasher.update(bytes),
        }
    }

    /// The checksum of the payload so far.
    pub fn digest(&self) -> u64 {
        match self {
            Self::Xxh64(hasher) => hasher.digest(),
            Self::Fnv1a64(hasher) => hasher.digest(),
        }
    }
}

/// An error while decoding a payload: it ended early, a length field
/// claimed more bytes than exist, or the source itself failed.
#[derive(Debug)]
pub enum BinError {
    /// A read ran past the end of the payload.
    UnexpectedEnd {
        /// Payload offset the read started at.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually left in the payload.
        available: usize,
    },
    /// A length field implies more elements than the remaining bytes can
    /// possibly hold (guards allocations against corrupt counts).
    ImplausibleLength {
        /// The reader's name for its payload.
        name: &'static str,
        /// Payload offset of the length field.
        offset: usize,
        /// The claimed element count.
        claimed: u64,
    },
    /// The source ended before the payload's recorded length did — a file
    /// that shrank after its length was taken.
    SourceEnded {
        /// Source offset where it ran out.
        offset: u64,
    },
    /// The source failed.
    Io(io::Error),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEnd {
                offset,
                needed,
                available,
            } => write!(
                f,
                "unexpected end of input at byte {offset}: needed {needed} bytes, \
                 {available} available"
            ),
            Self::ImplausibleLength {
                name,
                offset,
                claimed,
            } => write!(
                f,
                "implausible length {claimed} at byte {offset} of {name}: larger than the \
                 remaining input"
            ),
            Self::SourceEnded { offset } => write!(f, "input ended early at byte {offset}"),
            Self::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

impl Error for BinError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

/// A little-endian encoder of one payload, through a caller-owned chunk
/// buffer: each full chunk is hashed with [`xxh64`] — the checksum a
/// store records — and handed to the output, so the payload is never held
/// whole. The `put_*` calls cannot fail: the first write error is kept,
/// nothing more is written, and [`Self::finish`] returns it.
///
/// # Examples
///
/// ```
/// use segram_io::{xxh64, ByteReader, ByteWriter, Checksum, Xxh64};
///
/// let mut out = Vec::new();
/// let mut chunk = Vec::with_capacity(16);
/// let mut w = ByteWriter::new(&mut out, &mut chunk);
/// w.put_u32(7);
/// w.put_bytes(b"acgtacgt");
/// let (len, checksum) = w.finish()?;
/// assert_eq!((len, checksum), (12, xxh64(&out)));
///
/// let mut src = &out[..];
/// let mut chunk = [0; 16];
/// let mut r = ByteReader::new(&mut src, &mut chunk, "demo", 0, out.len(), Checksum::Xxh64(Xxh64::new()));
/// assert_eq!(r.take_u32()?, 7);
/// let mut bases = Vec::new();
/// r.take_bytes(8, |piece| bases.extend_from_slice(piece))?;
/// assert_eq!(bases, b"acgtacgt");
/// assert_eq!(r.remaining(), 0);
/// assert_eq!(r.finish()?, checksum);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ByteWriter<'a> {
    out: &'a mut dyn Write,
    chunk: &'a mut Vec<u8>,
    /// Payload bytes handed to `out` so far.
    written: u64,
    checksum: Xxh64,
    error: Option<io::Error>,
}

impl fmt::Debug for ByteWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteWriter")
            .field("written", &self.written)
            .field("pending", &self.chunk.len())
            .finish_non_exhaustive()
    }
}

impl<'a> ByteWriter<'a> {
    /// A writer into `out` whose chunks are `chunk`'s capacity (which must
    /// be at least 16 bytes, the widest record).
    pub fn new(out: &'a mut dyn Write, chunk: &'a mut Vec<u8>) -> Self {
        chunk.clear();
        Self {
            out,
            chunk,
            written: 0,
            checksum: Xxh64::new(),
            error: None,
        }
    }

    fn flush(&mut self) {
        self.checksum.update(self.chunk);
        self.written += self.chunk.len() as u64;
        if self.error.is_none() {
            self.error = self.out.write_all(self.chunk).err();
        }
        self.chunk.clear();
    }

    /// The chunk, with room for `n` more bytes (at most its capacity) —
    /// for an encoder that appends a run of bytes itself (e.g.
    /// `segram_graph::pack_bases`).
    pub fn room(&mut self, n: usize) -> &mut Vec<u8> {
        if self.chunk.len() + n > self.chunk.capacity() {
            self.flush();
        }
        self.chunk
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.room(1).push(value);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.room(4).extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.room(8).extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        for piece in bytes.chunks(self.chunk.capacity()) {
            self.room(piece.len()).extend_from_slice(piece);
        }
    }

    /// Appends one fixed-width `N`-byte record per item, a chunk's worth
    /// at a time — the bulk counterpart of a `put_*` call per field, for
    /// the index format's million-element arrays.
    pub fn put_records<T, const N: usize>(
        &mut self,
        items: impl IntoIterator<Item = T, IntoIter: ExactSizeIterator>,
        encode: impl Fn(T) -> [u8; N],
    ) {
        let mut items = items.into_iter();
        while items.len() > 0 {
            let batch = items.len().min(self.chunk.capacity() / N);
            let chunk = self.room(batch * N);
            for item in items.by_ref().take(batch) {
                chunk.extend_from_slice(&encode(item));
            }
        }
    }

    /// Flushes the last chunk: the payload's length and checksum.
    ///
    /// # Errors
    ///
    /// The first error writing to the output.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.flush();
        match self.error {
            Some(err) => Err(err),
            None => Ok((self.written, self.checksum.digest())),
        }
    }
}

/// A bounds-checked little-endian decoder of one `len`-byte payload,
/// read front to back through a caller-owned chunk buffer: every byte is
/// folded into the [`Checksum`] as it arrives and decoded straight out of
/// the chunk. Reads never run past `len`, every `take_*` returns
/// [`BinError`] instead of panicking when the payload is shorter than the
/// format promised, and offsets in errors are relative to the payload's
/// start.
pub struct ByteReader<'a> {
    src: &'a mut dyn Read,
    chunk: &'a mut [u8],
    /// The unread bytes are `chunk[lo..hi]`.
    lo: usize,
    hi: usize,
    name: &'static str,
    /// Payload bytes decoded so far.
    pos: usize,
    /// Payload bytes read from `src` (and hashed) so far.
    fetched: usize,
    len: usize,
    /// Where the payload starts in the source.
    start: u64,
    checksum: Checksum,
}

impl fmt::Debug for ByteReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteReader")
            .field("name", &self.name)
            .field("pos", &self.pos)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<'a> ByteReader<'a> {
    /// A reader of the `len`-byte payload `name` that `src` is positioned
    /// at, `start` bytes into the source, through `chunk` (at least 16
    /// bytes, the widest record).
    pub fn new(
        src: &'a mut dyn Read,
        chunk: &'a mut [u8],
        name: &'static str,
        start: u64,
        len: usize,
        checksum: Checksum,
    ) -> Self {
        Self {
            src,
            chunk,
            lo: 0,
            hi: 0,
            name,
            pos: 0,
            fetched: 0,
            len,
            start,
            checksum,
        }
    }

    /// The name the reader was given for its payload.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current read offset from the start of the payload.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.len - self.pos
    }

    fn unexpected_end(&self, needed: usize) -> BinError {
        BinError::UnexpectedEnd {
            offset: self.pos,
            needed,
            available: self.remaining(),
        }
    }

    /// Reads the next run of the payload into the free end of the chunk
    /// and hashes it.
    fn fetch(&mut self) -> Result<(), BinError> {
        let want = (self.chunk.len() - self.hi).min(self.len - self.fetched);
        let fresh = &mut self.chunk[self.hi..][..want];
        let got = loop {
            match self.src.read(fresh) {
                Ok(0) => {
                    return Err(BinError::SourceEnded {
                        offset: self.start + self.fetched as u64,
                    })
                }
                Ok(got) => break got,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err) => return Err(BinError::Io(err)),
            }
        };
        self.checksum.update(&fresh[..got]);
        self.hi += got;
        self.fetched += got;
        Ok(())
    }

    /// Makes at least `n` unread bytes contiguous in the chunk.
    fn fill(&mut self, n: usize) -> Result<(), BinError> {
        if self.hi - self.lo >= n {
            return Ok(());
        }
        if self.remaining() < n {
            return Err(self.unexpected_end(n));
        }
        self.chunk.copy_within(self.lo..self.hi, 0);
        self.hi -= self.lo;
        self.lo = 0;
        while self.hi < n {
            self.fetch()?;
        }
        Ok(())
    }

    /// Takes the next `N` bytes.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] when fewer than `N` bytes remain, or
    /// the source's failure.
    pub fn take<const N: usize>(&mut self) -> Result<[u8; N], BinError> {
        self.fill(N)?;
        let bytes = self.chunk[self.lo..][..N].try_into().expect("N bytes");
        self.lo += N;
        self.pos += N;
        Ok(bytes)
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take::<1>()?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u32(&mut self) -> Result<u32, BinError> {
        self.take().map(u32::from_le_bytes)
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// As [`Self::take`].
    pub fn take_u64(&mut self) -> Result<u64, BinError> {
        self.take().map(u64::from_le_bytes)
    }

    /// Takes a `u64` element count and validates that `count × elem_bytes`
    /// elements could still fit in the rest of the payload — the guard
    /// that keeps a corrupt count from driving a proportional allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::take`], or [`BinError::ImplausibleLength`] when the
    /// count cannot fit.
    pub fn take_count(&mut self, elem_bytes: usize) -> Result<usize, BinError> {
        let offset = self.pos;
        let claimed = self.take_u64()?;
        let fits = u64::try_from(elem_bytes)
            .ok()
            .and_then(|eb| claimed.checked_mul(eb))
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(BinError::ImplausibleLength {
                name: self.name,
                offset,
                claimed,
            });
        }
        Ok(claimed as usize)
    }

    /// Hands the next `len` bytes to `sink`, in as many pieces as the
    /// chunk splits them into.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`], before `sink` sees a byte, when fewer
    /// than `len` bytes remain; or the source's failure.
    pub fn take_bytes(&mut self, len: usize, mut sink: impl FnMut(&[u8])) -> Result<(), BinError> {
        if self.remaining() < len {
            return Err(self.unexpected_end(len));
        }
        let mut left = len;
        while left > 0 {
            self.fill(1)?;
            let n = (self.hi - self.lo).min(left);
            sink(&self.chunk[self.lo..][..n]);
            self.lo += n;
            self.pos += n;
            left -= n;
        }
        Ok(())
    }

    /// Hands `count` fixed-width `N`-byte records to `visit`, in bulk:
    /// every whole record in the chunk per pass — the counterpart of
    /// [`ByteWriter::put_records`].
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`], before `visit` sees a record, when
    /// fewer than `count × N` bytes remain; or the source's failure.
    pub fn take_each<const N: usize>(
        &mut self,
        count: usize,
        mut visit: impl FnMut(&[u8; N]),
    ) -> Result<(), BinError> {
        self.take_blocks::<N>(count, |block| {
            for record in block.chunks_exact(N) {
                visit(record.try_into().expect("N-byte record"));
            }
        })
    }

    /// Hands `count` fixed-width `N`-byte records to `visit` as blocks of
    /// whole records, every whole record in the chunk per block — for a
    /// caller that also hashes the bytes it decodes.
    ///
    /// # Errors
    ///
    /// As [`Self::take_each`].
    pub fn take_blocks<const N: usize>(
        &mut self,
        count: usize,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<(), BinError> {
        let needed = count.saturating_mul(N);
        if needed > self.remaining() {
            return Err(self.unexpected_end(needed));
        }
        let mut left = count;
        while left > 0 {
            self.fill(N)?;
            let n = ((self.hi - self.lo) / N).min(left);
            visit(&self.chunk[self.lo..][..n * N]);
            self.lo += n * N;
            self.pos += n * N;
            left -= n;
        }
        Ok(())
    }

    /// Decodes `count` fixed-width `N`-byte records into an exactly-sized
    /// array ([`Self::take_each`]).
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`], before anything is allocated, when
    /// fewer than `count × N` bytes remain; or the source's failure.
    pub fn take_records<const N: usize, T>(
        &mut self,
        count: usize,
        decode: impl Fn(&[u8; N]) -> T,
    ) -> Result<Vec<T>, BinError> {
        let needed = count.saturating_mul(N);
        if needed > self.remaining() {
            return Err(self.unexpected_end(needed));
        }
        let mut records = Vec::with_capacity(count);
        self.take_each(count, |record| records.push(decode(record)))?;
        Ok(records)
    }

    /// Reads whatever of the payload is still unread, and returns the
    /// checksum of the whole.
    ///
    /// # Errors
    ///
    /// The source's failure, or [`BinError::SourceEnded`].
    pub fn finish(mut self) -> Result<u64, BinError> {
        while self.fetched < self.len {
            self.lo = 0;
            self.hi = 0;
            self.fetch()?;
        }
        Ok(self.checksum.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xxh() -> Checksum {
        Checksum::Xxh64(Xxh64::new())
    }

    /// Encodes with `encode` through a `chunk`-byte chunk.
    fn written(chunk: usize, encode: impl FnOnce(&mut ByteWriter<'_>)) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = Vec::with_capacity(chunk);
        let mut w = ByteWriter::new(&mut out, &mut buf);
        encode(&mut w);
        let (len, checksum) = w.finish().expect("writing to memory");
        assert_eq!((len, checksum), (out.len() as u64, xxh64(&out)));
        out
    }

    /// Decodes `len` bytes of `src` with `decode` through a `chunk`-byte
    /// chunk.
    fn read<T>(
        src: &[u8],
        len: usize,
        chunk: usize,
        decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, BinError>,
    ) -> Result<T, BinError> {
        let mut src = src;
        let mut buf = vec![0; chunk];
        let mut r = ByteReader::new(&mut src, &mut buf, "payload", 0, len, xxh());
        decode(&mut r)
    }

    #[test]
    fn round_trips_every_primitive() {
        for chunk in [16, 17, 64] {
            let bytes = written(chunk, |w| {
                w.put_u8(0xab);
                w.put_u32(0xdead_beef);
                w.put_u64(u64::MAX - 1);
                w.put_bytes(b"xyz, and a run longer than one chunk");
            });
            assert_eq!(bytes.len(), 1 + 4 + 8 + 36);
            let mut src = &bytes[..];
            let mut buf = vec![0; chunk];
            let mut r = ByteReader::new(&mut src, &mut buf, "payload", 0, bytes.len(), xxh());
            assert_eq!(r.take_u8().unwrap(), 0xab);
            assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
            assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
            let mut run = Vec::new();
            r.take_bytes(36, |piece| run.extend_from_slice(piece))
                .unwrap();
            assert_eq!(run, b"xyz, and a run longer than one chunk");
            assert_eq!((r.remaining(), r.position()), (0, bytes.len()));
            assert_eq!(r.finish().unwrap(), xxh64(&bytes), "chunk {chunk}");
        }
    }

    #[test]
    fn every_truncation_prefix_errors_instead_of_panicking() {
        let bytes = written(16, |w| {
            w.put_u32(3);
            w.put_u64(12);
        });
        for cut in 0..bytes.len() {
            // A payload recorded shorter than the format needs ...
            let short = read(&bytes, cut, 16, |r| r.take_u32().and_then(|_| r.take_u64()));
            assert!(
                matches!(short, Err(BinError::UnexpectedEnd { .. })),
                "prefix of {cut} bytes must fail"
            );
            // ... and a source that ends before the recorded length.
            let shrunk = read(&bytes[..cut], bytes.len(), 16, |r| {
                r.take_u32().and_then(|_| r.take_u64())
            });
            assert!(
                matches!(shrunk, Err(BinError::SourceEnded { offset }) if offset == cut as u64),
                "source of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn take_count_rejects_implausible_lengths() {
        let bytes = written(16, |w| w.put_u64(u64::MAX)); // claims 2^64-1 elements
        assert!(matches!(
            read(&bytes, bytes.len(), 16, |r| r.take_count(8)),
            Err(BinError::ImplausibleLength {
                name: "payload",
                offset: 0,
                claimed: u64::MAX,
            })
        ));
        // A plausible count passes and leaves the payload readable.
        let bytes = written(16, |w| {
            w.put_u64(2);
            w.put_u32(1);
            w.put_u32(2);
        });
        let first = read(&bytes, bytes.len(), 16, |r| {
            assert_eq!(r.take_count(4)?, 2);
            r.take_u32()
        });
        assert_eq!(first.unwrap(), 1);
    }

    /// Records straddle chunk boundaries at every chunk size from the
    /// widest record up, and still equal the per-field encoding.
    #[test]
    fn bulk_records_equal_the_per_field_calls() {
        let values: Vec<u32> = (0..40u32).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        for chunk in 16..=40 {
            let bulk = written(chunk, |w| {
                w.put_u8(1);
                w.put_records(&values, |v| v.to_le_bytes());
            });
            let serial = written(chunk, |w| {
                w.put_u8(1);
                values.iter().for_each(|&v| w.put_u32(v));
            });
            assert_eq!(bulk, serial, "chunk {chunk}");
            let back = read(&bulk, bulk.len(), chunk, |r| {
                r.take_u8()?;
                let back = r.take_records::<4, _>(values.len(), |b| u32::from_le_bytes(*b))?;
                assert_eq!(r.remaining(), 0);
                Ok(back)
            });
            assert_eq!(back.unwrap(), values, "chunk {chunk}");
        }
        let short = read(&[1, 0, 0, 0], 4, 16, |r| {
            r.take_u8()?;
            r.take_records::<4, u32>(1, |b| u32::from_le_bytes(*b))
        });
        assert!(matches!(
            short,
            Err(BinError::UnexpectedEnd { offset: 1, .. })
        ));
        assert!(read(&[], 0, 16, |r| r.take_records::<8, u8>(usize::MAX, |_| 0)).is_err());
    }

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        // Published XXH64 seed-0 digests: empty, sub-word, sub-stripe and
        // multi-stripe inputs cover every branch of the tail.
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(xxh64(b"xxhash"), 0x32dd_3895_2c4b_c720);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    /// Fed in two pieces split anywhere, or one byte at a time, both
    /// incremental hashers give the one-shot digest, at every length up to
    /// six stripes and a tail — every pending-stripe state on either side
    /// of the split.
    #[test]
    fn incremental_hashers_equal_one_shot_at_every_length_and_split() {
        let input: Vec<u8> = (0..=200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=200 {
            let bytes = &input[..len];
            let (xxh, fnv) = (xxh64(bytes), fnv1a64(bytes));
            for split in 0..=len {
                let mut x = Xxh64::new();
                let mut f = Fnv1a64::new();
                for piece in [&bytes[..split], &bytes[split..]] {
                    x.update(piece);
                    f.update(piece);
                }
                assert_eq!(x.digest(), xxh, "xxh64 length {len} split at {split}");
                assert_eq!(f.digest(), fnv, "fnv1a64 length {len} split at {split}");
            }
            let mut x = Xxh64::new();
            let mut f = Fnv1a64::new();
            for byte in bytes.chunks(1) {
                x.update(byte);
                f.update(byte);
            }
            assert_eq!(
                (x.digest(), f.digest()),
                (xxh, fnv),
                "byte-wise, length {len}"
            );
        }
    }

    #[test]
    fn fnv_checksum_detects_single_byte_flips() {
        let payload = b"the quick brown fox".to_vec();
        let reference = fnv1a64(&payload);
        for i in 0..payload.len() {
            let mut flipped = payload.clone();
            flipped[i] ^= 0x01;
            assert_ne!(fnv1a64(&flipped), reference, "flip at byte {i}");
        }
    }
}
