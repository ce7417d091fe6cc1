//! DNA sequences: an ergonomic unpacked form ([`DnaSeq`]) and the paper's
//! 2-bit packed storage form ([`PackedSeq`], four bases per byte: how the
//! `.sgi` store writes every sequence, and how a loaded store keeps the
//! reference it replays deltas against).

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use crate::{Base, GraphError};

/// An owned DNA sequence over the 2-bit alphabet.
///
/// This is the working representation used by the algorithms; the memory
/// layout the hardware sees is modelled by [`PackedSeq`].
///
/// # Examples
///
/// ```
/// use segram_graph::{Base, DnaSeq};
///
/// let seq: DnaSeq = "ACGT".parse()?;
/// assert_eq!(seq.len(), 4);
/// assert_eq!(seq.get(1), Some(Base::C));
/// assert_eq!(seq.to_string(), "ACGT");
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnaSeq {
    bases: Vec<Base>,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sequence with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Parses an ASCII byte string (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCharacter`] for any byte outside
    /// `ACGTacgt`, reporting its offset.
    pub fn from_ascii(ascii: &[u8]) -> Result<Self, GraphError> {
        let mut bases = Vec::with_capacity(ascii.len());
        for (offset, &ch) in ascii.iter().enumerate() {
            let base = Base::from_ascii(ch).ok_or(GraphError::InvalidCharacter { ch, offset })?;
            bases.push(base);
        }
        Ok(Self { bases })
    }

    /// Number of bases in the sequence.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Returns `true` when the sequence holds no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Returns the base at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<Base> {
        self.bases.get(index).copied()
    }

    /// Borrows the bases as a slice.
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// Appends a base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Appends every base of `other`.
    pub fn extend_from_seq(&mut self, other: &DnaSeq) {
        self.bases.extend_from_slice(&other.bases);
    }

    /// Returns the sub-sequence `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> DnaSeq {
        DnaSeq {
            bases: self.bases[start..end].to_vec(),
        }
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, Base>> {
        self.bases.iter().copied()
    }

    /// Returns the reverse complement of this sequence.
    ///
    /// # Examples
    ///
    /// ```
    /// use segram_graph::DnaSeq;
    /// let seq: DnaSeq = "AACG".parse()?;
    /// assert_eq!(seq.reverse_complement().to_string(), "CGTT");
    /// # Ok::<(), segram_graph::GraphError>(())
    /// ```
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Consumes the sequence and returns the underlying base vector.
    pub fn into_bases(self) -> Vec<Base> {
        self.bases
    }

    /// Appends the 2-bit packed form to `out` ([`pack_bases`]).
    pub fn pack_into(&self, out: &mut Vec<u8>) {
        pack_bases(&self.bases, out);
    }

    /// Unpacks the first `len` bases of a 2-bit packed buffer (the inverse
    /// of [`Self::pack_into`]) into an exactly-sized sequence.
    ///
    /// # Panics
    ///
    /// Panics when `packed` holds fewer than `len` bases.
    pub fn from_packed(packed: &[u8], len: usize) -> DnaSeq {
        let mut seq = Self::with_capacity(len);
        seq.extend_from_packed(packed, len);
        seq
    }

    /// Appends the first `len` bases of a 2-bit packed buffer, a byte —
    /// four bases — per table lookup. A sequence that arrives in packed
    /// pieces, each but the last a whole number of bytes, is rebuilt by
    /// one call per piece.
    ///
    /// # Panics
    ///
    /// Panics when `packed` holds fewer than `len` bases.
    pub fn extend_from_packed(&mut self, packed: &[u8], len: usize) {
        assert!(len <= packed.len() * 4, "packed buffer shorter than len");
        let (whole, tail) = (len / 4, len % 4);
        let start = self.bases.len();
        self.bases.resize(start + whole * 4, Base::A);
        for (quad, &byte) in self.bases[start..].chunks_exact_mut(4).zip(packed) {
            quad.copy_from_slice(&UNPACKED[byte as usize]);
        }
        if tail > 0 {
            self.bases
                .extend_from_slice(&UNPACKED[packed[whole] as usize][..tail]);
        }
    }
}

/// Appends the 2-bit packed form of `bases` to `out`: four bases per byte,
/// low bits first, the last byte zero-padded — the paper's reference
/// representation (Section 5), shared by [`PackedSeq`] and the `.sgi`
/// store. Runs whose lengths are multiples of four concatenate to the
/// packed form of their concatenation, so a long sequence can be packed a
/// piece at a time.
pub fn pack_bases(bases: &[Base], out: &mut Vec<u8>) {
    let quads = bases.chunks_exact(4);
    let tail = quads.remainder();
    out.reserve(bases.len().div_ceil(4));
    out.extend(quads.map(|q| q[0].code() | q[1].code() << 2 | q[2].code() << 4 | q[3].code() << 6));
    if !tail.is_empty() {
        out.push(
            tail.iter()
                .enumerate()
                .fold(0, |byte, (i, base)| byte | base.code() << (2 * i)),
        );
    }
}

/// The four bases each packed byte value holds, low bits first.
const UNPACKED: [[Base; 4]; 256] = {
    let mut table = [[Base::A; 4]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut i = 0;
        while i < 4 {
            table[byte][i] = Base::from_code_masked((byte >> (2 * i)) as u8);
            i += 1;
        }
        byte += 1;
    }
    table
};

impl From<Vec<Base>> for DnaSeq {
    fn from(bases: Vec<Base>) -> Self {
        Self { bases }
    }
}

impl<'a> From<&'a DnaSeq> for Cow<'a, DnaSeq> {
    fn from(seq: &'a DnaSeq) -> Self {
        Cow::Borrowed(seq)
    }
}

/// A packed sequence unpacks into an owned one.
impl<'a> From<&'a PackedSeq> for Cow<'a, DnaSeq> {
    fn from(packed: &'a PackedSeq) -> Self {
        Cow::Owned(packed.unpack())
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        Self {
            bases: iter.into_iter().collect(),
        }
    }
}

impl Extend<Base> for DnaSeq {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl IntoIterator for DnaSeq {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

impl<'a> IntoIterator for &'a DnaSeq {
    type Item = Base;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Base>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::ops::Index<usize> for DnaSeq {
    type Output = Base;

    fn index(&self, index: usize) -> &Base {
        &self.bases[index]
    }
}

impl AsRef<[Base]> for DnaSeq {
    fn as_ref(&self) -> &[Base] {
        &self.bases
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for base in &self.bases {
            write!(f, "{base}")?;
        }
        Ok(())
    }
}

impl FromStr for DnaSeq {
    type Err = GraphError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_ascii(s.as_bytes())
    }
}

/// A 2-bit packed DNA sequence, the paper's storage layout for reference
/// characters (Figure 5: "we can store characters in the character table
/// using a 2-bit representation"). Bits past the last base are always
/// zero, so equal sequences have equal bytes.
///
/// # Examples
///
/// ```
/// use segram_graph::{DnaSeq, PackedSeq};
///
/// let seq: DnaSeq = "ACGTACGT".parse()?;
/// let packed = PackedSeq::from_seq(&seq);
/// assert_eq!(packed.len(), 8);
/// assert_eq!(packed.byte_len(), 2); // 8 bases * 2 bits = 2 bytes
/// assert_eq!(packed.unpack(), seq);
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PackedSeq {
    words: Vec<u8>,
    len: usize,
}

impl PackedSeq {
    /// Creates an empty packed sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs an unpacked sequence.
    pub fn from_seq(seq: &DnaSeq) -> Self {
        let mut words = Vec::new();
        seq.pack_into(&mut words);
        Self {
            words,
            len: seq.len(),
        }
    }

    /// Takes `len` bases in the packed form [`pack_bases`] writes, zeroing
    /// whatever bits the last byte holds past them.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is exactly `len.div_ceil(4)` bytes long.
    pub fn from_packed(mut bytes: Vec<u8>, len: usize) -> Self {
        assert_eq!(bytes.len(), len.div_ceil(4), "packed length of {len} bases");
        if let Some(last) = bytes.last_mut() {
            let used = len - 4 * (len.div_ceil(4) - 1);
            *last &= ((1u16 << (2 * used)) - 1) as u8;
        }
        Self { words: bytes, len }
    }

    /// The packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.words
    }

    /// Number of bases stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no bases are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes occupied by the packed payload.
    pub fn byte_len(&self) -> usize {
        self.words.len()
    }

    /// Appends a base.
    pub fn push(&mut self, base: Base) {
        if self.len.is_multiple_of(4) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, base);
    }

    /// Returns the base at `index`, or `None` when out of bounds.
    pub fn get(&self, index: usize) -> Option<Base> {
        if index >= self.len {
            return None;
        }
        let byte = self.words[index / 4];
        let shift = (index % 4) * 2;
        Some(Base::from_code_masked(byte >> shift))
    }

    fn set(&mut self, index: usize, base: Base) {
        let shift = (index % 4) * 2;
        let slot = &mut self.words[index / 4];
        *slot = (*slot & !(0b11 << shift)) | (base.code() << shift);
    }

    /// Unpacks into a [`DnaSeq`].
    pub fn unpack(&self) -> DnaSeq {
        DnaSeq::from_packed(&self.words, self.len)
    }

    /// Iterates over the stored bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(|i| self.get(i).expect("index < len"))
    }
}

impl From<&DnaSeq> for PackedSeq {
    fn from(seq: &DnaSeq) -> Self {
        PackedSeq::from_seq(seq)
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        let mut packed = PackedSeq::new();
        for base in iter {
            packed.push(base);
        }
        packed
    }
}

impl fmt::Display for PackedSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for base in self.iter() {
            write!(f, "{base}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let seq: DnaSeq = "ACGTTGCA".parse().unwrap();
        assert_eq!(seq.to_string(), "ACGTTGCA");
        assert_eq!(seq.len(), 8);
    }

    #[test]
    fn parse_rejects_ambiguity_codes() {
        let err = DnaSeq::from_ascii(b"ACGNT").unwrap_err();
        match err {
            GraphError::InvalidCharacter { ch, offset } => {
                assert_eq!(ch, b'N');
                assert_eq!(offset, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lowercase_input_accepted() {
        let seq: DnaSeq = "acgt".parse().unwrap();
        assert_eq!(seq.to_string(), "ACGT");
    }

    #[test]
    fn slicing_and_indexing() {
        let seq: DnaSeq = "ACGTAC".parse().unwrap();
        assert_eq!(seq.slice(1, 4).to_string(), "CGT");
        assert_eq!(seq[5], Base::C);
        assert_eq!(seq.get(6), None);
    }

    #[test]
    fn reverse_complement_matches_manual() {
        let seq: DnaSeq = "AACGTT".parse().unwrap();
        assert_eq!(seq.reverse_complement().to_string(), "AACGTT");
        let seq: DnaSeq = "AAAC".parse().unwrap();
        assert_eq!(seq.reverse_complement().to_string(), "GTTT");
    }

    #[test]
    fn collect_from_iterator() {
        let seq: DnaSeq = [Base::A, Base::G].into_iter().collect();
        assert_eq!(seq.to_string(), "AG");
        let mut seq = seq;
        seq.extend([Base::T]);
        assert_eq!(seq.to_string(), "AGT");
    }

    #[test]
    fn packed_round_trips_all_lengths() {
        for len in 0..20 {
            let seq: DnaSeq = (0..len).map(|i| Base::from_code_masked(i as u8)).collect();
            let packed = PackedSeq::from_seq(&seq);
            assert_eq!(packed.unpack(), seq, "len {len}");
            assert_eq!(packed.len(), len);
            assert_eq!(packed.byte_len(), len.div_ceil(4));
        }
    }

    #[test]
    fn packed_push_matches_from_seq() {
        let seq: DnaSeq = "TGCATGCATG".parse().unwrap();
        let pushed: PackedSeq = seq.iter().collect();
        assert_eq!(pushed, PackedSeq::from_seq(&seq));
        assert_eq!(pushed.to_string(), "TGCATGCATG");
    }

    #[test]
    fn from_packed_zeroes_the_bits_past_the_last_base() {
        for len in 1..=12 {
            let seq: DnaSeq = (0..len)
                .map(|i| Base::from_code_masked(3 + i as u8))
                .collect();
            let mut bytes = PackedSeq::from_seq(&seq).as_bytes().to_vec();
            let used = (len - 1) % 4 + 1;
            if used < 4 {
                *bytes.last_mut().unwrap() |= 0xff << (2 * used);
            }
            let packed = PackedSeq::from_packed(bytes, len);
            assert_eq!(packed, PackedSeq::from_seq(&seq), "len {len}");
            assert_eq!(packed.unpack(), seq);
        }
    }

    #[test]
    fn packed_uses_two_bits_per_char() {
        // The paper's character-table accounting: total sequence length * 2 bits.
        let seq: DnaSeq = "A".repeat(1000).parse().unwrap();
        let packed = PackedSeq::from_seq(&seq);
        assert_eq!(packed.byte_len(), 250);
    }
}
