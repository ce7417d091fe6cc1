//! Bounds-checked little-endian binary primitives for the on-disk index
//! format (`segram index build` / the `segram serve` load path).
//!
//! The pair [`ByteWriter`] / [`ByteReader`] is deliberately minimal: fixed
//! little-endian integer encodings, length-prefixed byte runs, and a
//! [`BinError`] for every way a corrupt or truncated buffer can disappoint
//! the reader — reading never panics and never allocates proportionally to
//! an unvalidated length field. Section checksums use [`xxh64`] (format
//! v2; four independent 64-bit lanes over 32-byte stripes, so it runs at
//! memory speed) or the byte-serial [`fnv1a64`] (format v1): both are
//! dependency-free and plenty for corruption *detection* (the format does
//! not defend against adversarial collisions).

use std::error::Error;
use std::fmt;

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
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

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
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut acc = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            0u64.wrapping_sub(XXH_PRIME_1),
        ];
        for stripe in &mut stripes {
            for (lane, word) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let merged = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.iter().fold(merged, |hash, &lane| {
            (hash ^ xxh_round(0, lane))
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4)
        })
    } else {
        XXH_PRIME_5
    };
    hash = hash.wrapping_add(bytes.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
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

/// An error while decoding a binary buffer: the input ended early or a
/// length field claimed more bytes than exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// A read ran past the end of the buffer.
    UnexpectedEnd {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A length field implies more elements than the remaining bytes can
    /// possibly hold (guards allocations against corrupt counts).
    ImplausibleLength {
        /// Byte offset of the length field.
        offset: usize,
        /// The claimed element count.
        claimed: u64,
    },
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
            Self::ImplausibleLength { offset, claimed } => write!(
                f,
                "implausible length {claimed} at byte {offset}: larger than the \
                 remaining input"
            ),
        }
    }
}

impl Error for BinError {}

/// An append-only little-endian encoder over a growable byte buffer.
///
/// # Examples
///
/// ```
/// use segram_io::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.put_u32(7);
/// w.put_bytes(b"acgt");
/// let bytes = w.into_bytes();
///
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.take_u32()?, 7);
/// assert_eq!(r.take_bytes(4)?, b"acgt");
/// assert!(r.is_empty());
/// # Ok::<(), segram_io::BinError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one fixed-width `N`-byte record per item after a single
    /// growth step — the bulk counterpart of a `put_*` call per field, for
    /// the index format's million-element arrays.
    pub fn put_records<T, const N: usize>(&mut self, items: &[T], encode: impl Fn(&T) -> [u8; N]) {
        self.buf.reserve(items.len() * N);
        for item in items {
            self.buf.extend_from_slice(&encode(item));
        }
    }

    /// The underlying buffer, for an encoder that appends a whole run of
    /// bytes itself (e.g. `DnaSeq::pack_into`).
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian decoder over a byte slice. Every `take_*`
/// returns [`BinError`] instead of panicking when the buffer is shorter
/// than the format promised.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current read offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `len` bytes verbatim.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] when fewer than `len` bytes remain.
    pub fn take_bytes(&mut self, len: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < len {
            return Err(BinError::UnexpectedEnd {
                offset: self.pos,
                needed: len,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Takes `count` fixed-width records of `N` bytes each as one slice,
    /// yielded record by record — the bulk counterpart of a `take_*` call
    /// per field (the iterator knows its length, so collecting it
    /// allocates exactly once).
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] when fewer than `count × N` bytes remain.
    pub fn take_records<const N: usize>(
        &mut self,
        count: usize,
    ) -> Result<impl ExactSizeIterator<Item = &'a [u8; N]>, BinError> {
        let bytes = self.take_bytes(count.saturating_mul(N))?;
        Ok(bytes
            .chunks_exact(N)
            .map(|record| record.try_into().expect("N-byte chunk")))
    }

    /// Takes one byte.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] at end of input.
    pub fn take_u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] when fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, BinError> {
        let bytes = self.take_bytes(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Takes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] when fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, BinError> {
        let bytes = self.take_bytes(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Takes a `u64` element count and validates that `count × elem_bytes`
    /// elements could still fit in the remaining input — the guard that
    /// keeps a corrupt count from driving a proportional allocation.
    ///
    /// # Errors
    ///
    /// [`BinError::UnexpectedEnd`] at end of input,
    /// [`BinError::ImplausibleLength`] when the count cannot fit.
    pub fn take_count(&mut self, elem_bytes: usize) -> Result<usize, BinError> {
        let offset = self.pos;
        let claimed = self.take_u64()?;
        let fits = u64::try_from(elem_bytes)
            .ok()
            .and_then(|eb| claimed.checked_mul(eb))
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(BinError::ImplausibleLength { offset, claimed });
        }
        Ok(claimed as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = ByteWriter::new();
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_bytes(b"xyz");
        assert_eq!(w.len(), 1 + 4 + 8 + 3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xab);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_bytes(3).unwrap(), b"xyz");
        assert!(r.is_empty());
        assert_eq!(r.position(), bytes.len());
    }

    #[test]
    fn every_truncation_prefix_errors_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.put_u32(3);
        w.put_u64(12);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let short = r.take_u32().and_then(|_| r.take_u64());
            assert!(short.is_err(), "prefix of {cut} bytes must fail");
            assert!(matches!(short.unwrap_err(), BinError::UnexpectedEnd { .. }));
        }
    }

    #[test]
    fn take_count_rejects_implausible_lengths() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims 2^64-1 elements
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.take_count(8),
            Err(BinError::ImplausibleLength {
                claimed: u64::MAX,
                ..
            })
        ));
        // A plausible count passes and leaves the payload readable.
        let mut w = ByteWriter::new();
        w.put_u64(2);
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_count(4).unwrap(), 2);
        assert_eq!(r.take_u32().unwrap(), 1);
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

    #[test]
    fn bulk_records_equal_the_per_field_calls() {
        let values = [7u32, 0xdead_beef, 0, u32::MAX];
        let mut bulk = ByteWriter::new();
        bulk.put_u8(1);
        bulk.put_records(&values, |v| v.to_le_bytes());
        let mut serial = ByteWriter::new();
        serial.put_u8(1);
        values.iter().for_each(|&v| serial.put_u32(v));
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, serial.into_bytes());

        let mut r = ByteReader::new(&bytes);
        r.take_u8().unwrap();
        let back: Vec<u32> = r
            .take_records::<4>(values.len())
            .unwrap()
            .map(|b| u32::from_le_bytes(*b))
            .collect();
        assert_eq!(back, values);
        assert!(r.is_empty());
        let mut short = ByteReader::new(&bytes[..bytes.len() - 1]);
        short.take_u8().unwrap();
        assert!(matches!(
            short.take_records::<4>(values.len()).map(|_| ()),
            Err(BinError::UnexpectedEnd { offset: 1, .. })
        ));
        assert!(ByteReader::new(&bytes)
            .take_records::<8>(usize::MAX)
            .is_err());
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
