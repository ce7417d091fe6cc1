//! The versioned on-disk index format behind `segram index build` /
//! `segram serve` (`.sgi` files).
//!
//! A `.sgi` file bundles everything a mapping daemon needs to start
//! serving without re-running graph construction or
//! [`GraphIndex::build`]: the genome graph (2-bit packed node sequences +
//! edges, Section 5's representation), the three-level hash index written
//! field-for-field so loading is a straight reconstruction rather than a
//! re-sort, and the seeding metadata (the frequency-filter threshold and
//! the discard fraction it was derived from).
//!
//! Layout: an 8-byte magic, a format version, and a section table
//! (`id / offset / length / checksum` per section) followed by the section
//! payloads. The version names the section checksum and nothing else:
//! version 2 (what this build writes) records XXH64, version 1 recorded
//! FNV-1a, and every payload byte is the same under both — one decoder
//! reads either. Everything is little-endian.
//!
//! One streaming section codec moves a store in both directions, through
//! one 64 KiB chunk buffer. Writing, each section is encoded into the
//! chunk, hashed and written a chunk at a time, and the header's table is
//! filled in last. Loading reads the header and table, checks every
//! section's extent against the file's length, then streams the sections
//! in logical order — graph, index, meta, changelog — hashing each chunk
//! as it arrives and decoding it straight into exactly-sized arrays. So a
//! load peaks at the decoded store plus one chunk, and a write at the
//! store plus one chunk: never a file-sized buffer. [`encode_index`] and
//! [`decode_index`] run the same codec over memory.
//!
//! A load for a mapper of `N > 1` coordinate-range shards
//! ([`read_index_file_sharded`]) never builds the whole index either: the
//! graph section comes first, so every location's owner is known before
//! the index section is read, and two passes over that section — check
//! and count, then fill — file each location straight into its shard's
//! exactly-sized levels. Both passes run the same structural checks as
//! the whole load, so a store names the same error through either. A
//! streamed `segram index update`
//! ([`update_index_file`](crate::update_index_file)) walks its
//! parent's index section the same way, each seed filed into the child's
//! index instead of a shard, so the parent's index is never held.
//!
//! **Loading never panics** on truncated or corrupt input: every count is
//! checked against the bytes left in its section before anything is
//! allocated for it, every failure maps to a named [`PersistError`]
//! variant, and a loaded index additionally passes the same structural
//! invariants [`GraphIndex::build`] guarantees (validated here so a
//! tampered file cannot crash a later lookup). A checksum mismatch takes
//! precedence over any structural error: when a decode fails, the
//! sections not yet verified are hashed to their end first, and the first
//! one in table order whose checksum fails is what the load reports.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Cursor, Read, Seek, SeekFrom, Write};
use std::path::Path;

use segram_graph::{
    pack_bases, Base, DnaSeq, GenomeGraph, GraphError, GraphPos, NodeId, PackedSeq, Variant,
    VariantKind, VariantSet,
};
use segram_io::{fnv1a64, BinError, ByteReader, ByteWriter, Checksum, Fnv1a64, Xxh64};

use crate::index::{
    bucket_of, checked_shard_owner, shard_boundaries, GraphIndex, SeedFiling, ShardFiling,
};
use crate::minimizer::{KmerOrdering, MinimizerScheme};
use crate::update::Parent;

/// The 8-byte magic at the start of every `.sgi` file.
pub const INDEX_MAGIC: [u8; 8] = *b"SGRMIDX\0";
/// The format version this build writes; bumped on any incompatible
/// layout change. Version 1 stores (same payloads, FNV-1a section
/// checksums) still load.
pub const INDEX_FORMAT_VERSION: u32 = 2;
/// Version of the CHANGELOG section payload (independent of the file
/// format version: unknown *sections* are skipped by old readers, the
/// changelog's own layout is versioned here).
pub const CHANGELOG_VERSION: u32 = 1;
/// Version of the provenance tail appended to the META section.
pub const PROVENANCE_VERSION: u32 = 1;

const SECTION_GRAPH: u32 = 1;
const SECTION_INDEX: u32 = 2;
const SECTION_META: u32 = 3;
const SECTION_CHANGELOG: u32 = 4;
/// Bytes per section-table entry: id + offset + length + checksum.
const TABLE_ENTRY_BYTES: usize = 4 + 8 + 8 + 8;
/// Upper bound on the section count — far above the three we write, low
/// enough that a corrupt count cannot drive a large allocation.
const MAX_SECTIONS: u32 = 64;
/// The longest header a readable store can have: magic, version, count
/// and a full table.
const MAX_HEADER_BYTES: usize = 8 + 4 + 4 + MAX_SECTIONS as usize * TABLE_ENTRY_BYTES;
/// Bytes the codec reads or writes at a time, in its one chunk buffer.
/// Below glibc's 128 KiB mmap threshold, so the buffer comes from the
/// heap, and freeing it leaves the allocator's dynamic threshold alone.
const CHUNK: usize = 64 * 1024;

/// Everything `segram index build` persists and `segram serve` loads: the
/// graph, its index, and the seeding metadata needed to reconstruct a
/// mapper that is byte-identical to one built from scratch.
#[derive(Clone, Debug)]
pub struct PersistedIndex {
    /// The genome graph the index was built over.
    pub graph: GenomeGraph,
    /// The three-level hash index.
    pub index: GraphIndex,
    /// The discard fraction the frequency threshold was derived from
    /// (kept so reports can echo the build configuration).
    pub discard_frac: f64,
    /// The frequency-filter threshold (derived from *global* minimizer
    /// counts at build time, exactly as the in-memory path does).
    pub freq_threshold: u32,
    /// The versioned changelog: epoch, parent identity, the linear
    /// reference and embedded variant set (everything `segram index
    /// update` needs to evolve the store), and the per-epoch history
    /// chain. `None` for stores written before the changelog existed —
    /// those load fine but cannot be updated or delta-reloaded.
    pub changelog: Option<StoreChangelog>,
    /// Human-facing build provenance (input paths, preset, epoch),
    /// surfaced by `segram index inspect` and the serve exit report.
    pub provenance: Option<IndexProvenance>,
}

impl PersistedIndex {
    /// The store identity: a checksum over the graph and index payloads
    /// that names this exact store in the epoch chain. Taken from the
    /// verified changelog when it has been stamped; a store that has not
    /// been through [`encode_index`] yet (or predates the changelog) pays
    /// an encode of both payloads for it, streamed into a sink —
    /// [`write_index_file`] returns the identity it stamped so a caller
    /// about to write never has to.
    pub fn identity(&self) -> u64 {
        match &self.changelog {
            Some(log) if log.identity != 0 => log.identity,
            _ => {
                let mut sink = io::sink();
                let mut chunk = Vec::with_capacity(CHUNK);
                let mut checksum = |encode: &dyn Fn(&mut ByteWriter<'_>)| {
                    let mut w = ByteWriter::new(&mut sink, &mut chunk);
                    encode(&mut w);
                    w.finish().expect("the sink never fails").1
                };
                store_identity(
                    checksum(&|w| encode_graph(w, &self.graph)),
                    checksum(&|w| encode_hash_index(w, &self.index)),
                )
            }
        }
    }
}

/// Provenance recorded at build/update time (the META section extension).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexProvenance {
    /// Path of the FASTA reference the graph was built from.
    pub reference_path: String,
    /// Paths of every VCF applied so far, in application order.
    pub vcf_paths: Vec<String>,
    /// The parameter preset the build used (`short`/`long`/custom).
    pub preset: String,
    /// The store's epoch (0 = fresh build, +1 per applied delta).
    pub epoch: u64,
}

/// The versioned changelog section: the store's position in its epoch
/// chain plus the inputs needed to extend the chain.
///
/// The chain is verifiable like a commit history: every [`EpochEntry`]
/// records the identity of the store it produced and the identity of its
/// parent, and [`decode_index`] checks that the entries link up and that
/// the final identity matches the graph/index payloads the changelog
/// travels with. A spliced or edited chain fails with
/// [`PersistError::ParentMismatch`]; out-of-sequence epochs fail with
/// [`PersistError::EpochSkew`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreChangelog {
    /// The store's epoch (equals the last history entry's).
    pub epoch: u64,
    /// Identity of the parent store (0 for an epoch-0 build).
    pub parent: u64,
    /// Identity of **this** store (filled in by [`encode_index`] from the
    /// actual graph/index payloads; verified by [`decode_index`]).
    pub identity: u64,
    /// The linear reference the graph was constructed from, kept packed
    /// as the store holds it: only a replay unpacks it.
    pub reference: PackedSeq,
    /// The embedded variant set (sorted, overlap-dropped) — the parent
    /// set a future `apply_variants` call needs.
    pub applied: VariantSet,
    /// One entry per epoch, oldest first (entry `i` has epoch `i`).
    pub history: Vec<EpochEntry>,
}

/// One epoch in the store's history chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochEntry {
    /// The epoch this entry produced.
    pub epoch: u64,
    /// Identity of the store this epoch was derived from (0 at epoch 0).
    pub parent: u64,
    /// Identity of the store this epoch produced (the last entry's value
    /// is maintained by [`encode_index`]).
    pub identity: u64,
    /// What was applied: a VCF path, or `"build"` for epoch 0.
    pub source: String,
    /// Variants embedded by this epoch.
    pub added_variants: u64,
    /// Variants dropped by this epoch (overlaps).
    pub dropped_variants: u64,
    /// Merged reference-coordinate ranges this epoch touched.
    pub touched: Vec<(u64, u64)>,
}

/// The identity checksum binding a changelog to the graph/index payloads
/// it describes, from the two payloads' recorded section checksums (a
/// loader has just verified them, so it hashes no payload twice).
fn store_identity(graph_checksum: u64, index_checksum: u64) -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&graph_checksum.to_le_bytes());
    bytes[8..].copy_from_slice(&index_checksum.to_le_bytes());
    fnv1a64(&bytes)
}

/// A named reason an index file could not be loaded. Loading never
/// panics: every corrupt, truncated, or incompatible input maps here.
#[derive(Debug)]
pub enum PersistError {
    /// The file does not start with [`INDEX_MAGIC`] — not an index file.
    BadMagic,
    /// The file's format version is not [`INDEX_FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The file ends before the declared layout does.
    Truncated {
        /// Byte offset where the input ran out.
        offset: usize,
    },
    /// A section's checksum does not match its payload.
    ChecksumMismatch {
        /// The section that failed verification.
        section: &'static str,
    },
    /// A section decoded but violates a structural invariant.
    Corrupt {
        /// The section the violation was found in.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// The changelog's epoch chain is out of sequence (a history entry or
    /// the store epoch does not follow its predecessor).
    EpochSkew {
        /// The epoch the chain position requires.
        expected: u64,
        /// The epoch actually recorded.
        found: u64,
    },
    /// A parent/identity link in the changelog chain is broken: the
    /// changelog does not describe the graph/index it travels with, or an
    /// update was attempted against a store that is not the delta's
    /// recorded parent.
    ParentMismatch {
        /// The identity the chain requires.
        expected: u64,
        /// The identity actually recorded.
        found: u64,
    },
    /// The store predates the versioned changelog and cannot be updated
    /// incrementally (rebuild with `index build`).
    NoChangelog,
    /// The underlying file could not be read or written.
    Io(io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic: not a segram index file"),
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported index format version {found} (this build reads \
                 versions 1 to {INDEX_FORMAT_VERSION})"
            ),
            Self::Truncated { offset } => {
                write!(f, "index file truncated at byte {offset}")
            }
            Self::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            Self::Corrupt { section, detail } => {
                write!(f, "corrupt section {section:?}: {detail}")
            }
            Self::EpochSkew { expected, found } => write!(
                f,
                "epoch skew in the changelog chain: expected epoch {expected}, found {found}"
            ),
            Self::ParentMismatch { expected, found } => write!(
                f,
                "parent mismatch in the changelog chain: expected store identity \
                 {expected:#018x}, found {found:#018x}"
            ),
            Self::NoChangelog => write!(
                f,
                "store has no changelog section (built before versioning); \
                 rebuild with `segram index build` to enable incremental updates"
            ),
            Self::Io(err) => write!(f, "I/O error: {err}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

fn corrupt(section: &'static str, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        section,
        detail: detail.into(),
    }
}

impl From<BinError> for PersistError {
    /// The file-level name of a payload decode error; an implausible count
    /// is structural corruption of the section the reader was reading.
    fn from(err: BinError) -> Self {
        match err {
            BinError::UnexpectedEnd { offset, .. } => Self::Truncated { offset },
            BinError::ImplausibleLength {
                name,
                offset,
                claimed,
            } => corrupt(
                name,
                format!("implausible element count {claimed} at byte {offset}"),
            ),
            BinError::SourceEnded { offset } => Self::Truncated {
                offset: offset as usize,
            },
            BinError::Io(err) => Self::Io(err),
        }
    }
}

/// Fails on payload bytes the decoder did not consume.
fn expect_end(r: &ByteReader<'_>) -> Result<(), PersistError> {
    match r.remaining() {
        0 => Ok(()),
        trailing => Err(corrupt(r.name(), format!("{trailing} trailing bytes"))),
    }
}

/// Serializes a persisted index to `.sgi` bytes — [`write_index_file`]'s
/// codec, writing into memory.
///
/// # Examples
///
/// ```
/// use segram_graph::linear_graph;
/// use segram_index::{
///     decode_index, encode_index, GraphIndex, MinimizerScheme, PersistedIndex,
/// };
///
/// let text: segram_graph::DnaSeq = "ACGTTGCAGTCATGCA".repeat(40).parse()?;
/// let graph = linear_graph(&text, 64)?;
/// let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 10);
/// let persisted = PersistedIndex {
///     graph,
///     index,
///     discard_frac: 0.0002,
///     freq_threshold: u32::MAX,
///     changelog: None,
///     provenance: None,
/// };
/// let bytes = encode_index(&persisted);
/// let loaded = decode_index(&bytes).expect("round trip");
/// assert_eq!(loaded.graph.node_count(), persisted.graph.node_count());
/// assert_eq!(
///     loaded.index.distinct_minimizers(),
///     persisted.index.distinct_minimizers()
/// );
/// # Ok::<(), segram_graph::GraphError>(())
/// ```
pub fn encode_index(persisted: &PersistedIndex) -> Vec<u8> {
    let mut out = Cursor::new(Vec::new());
    encode_to(&mut out, persisted).expect("writing to memory never fails");
    out.into_inner()
}

/// Streams a store to `out`, which must be positioned at its start: a
/// zeroed header, then every section encoded through one chunk buffer and
/// hashed a chunk at a time, then the real header over the zeros. Returns
/// the store's size and the identity stamped into its changelog, derived
/// from the same two checksums the section table records.
fn encode_to<W: Write + Seek>(out: &mut W, persisted: &PersistedIndex) -> io::Result<(u64, u64)> {
    let section_count = 3 + usize::from(persisted.changelog.is_some());
    let header_len = 8 + 4 + 4 + section_count * TABLE_ENTRY_BYTES;
    out.write_all(&vec![0; header_len])?;
    let mut header = Vec::with_capacity(header_len);
    header.extend_from_slice(&INDEX_MAGIC);
    header.extend_from_slice(&INDEX_FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(section_count as u32).to_le_bytes());
    let mut chunk = Vec::with_capacity(CHUNK);
    let mut offset = header_len as u64;
    // Streams one section's payload, files its table row, and returns its
    // checksum.
    let mut section = |out: &mut W, id: u32, encode: &dyn Fn(&mut ByteWriter<'_>)| {
        let mut w = ByteWriter::new(out, &mut chunk);
        encode(&mut w);
        let (len, checksum) = w.finish()?;
        header.extend_from_slice(&id.to_le_bytes());
        for field in [offset, len, checksum] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        offset += len;
        io::Result::Ok(checksum)
    };
    let graph_checksum = section(out, SECTION_GRAPH, &|w| encode_graph(w, &persisted.graph))?;
    let index_checksum = section(out, SECTION_INDEX, &|w| {
        encode_hash_index(w, &persisted.index)
    })?;
    section(out, SECTION_META, &|w| encode_meta(w, persisted))?;
    // The identity names the payloads the changelog travels with, so it is
    // stamped here from the actual encoded bytes — callers leave
    // `identity` fields 0 on the entry they append.
    let identity = store_identity(graph_checksum, index_checksum);
    if let Some(log) = &persisted.changelog {
        section(out, SECTION_CHANGELOG, &|w| {
            encode_changelog(w, log, identity)
        })?;
    }
    out.seek(SeekFrom::Start(0))?;
    out.write_all(&header)?;
    Ok((offset, identity))
}

/// One row of a store's section table, as [`section_table`] reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section id on disk.
    pub id: u32,
    /// `graph`, `index`, `meta`, `changelog`, or `unknown` for an id this
    /// build does not read.
    pub name: &'static str,
    /// Byte offset of the payload within the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// The payload's recorded checksum ([`SectionTable::checksum_name`]).
    pub checksum: u64,
}

/// A store's header as [`section_table`] reads it.
#[derive(Clone, Debug)]
pub struct SectionTable {
    /// The format version the file declares.
    pub version: u32,
    /// Name of the section checksum that version records (`xxh64` for
    /// version 2, `fnv1a64` for version 1).
    pub checksum_name: &'static str,
    /// One row per section, in file order.
    pub sections: Vec<SectionEntry>,
}

/// A fresh hasher for the section checksum format `version` records.
fn checksum_of(version: u32) -> Checksum {
    match version {
        1 => Checksum::Fnv1a64(Fnv1a64::new()),
        _ => Checksum::Xxh64(Xxh64::new()),
    }
}

/// Reads the header of `.sgi` bytes — magic, format version, section
/// table — without touching a payload. `segram index inspect` prints the
/// same rows from a file through [`read_section_table`].
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Truncated`] when the header itself is cut short, or
/// [`PersistError::Corrupt`] for an implausible section count.
pub fn section_table(bytes: &[u8]) -> Result<SectionTable, PersistError> {
    let mut chunk = [0; MAX_HEADER_BYTES];
    read_table(&mut Cursor::new(bytes), bytes.len() as u64, &mut chunk)
}

/// [`section_table`] of the store at `path`, reading the header alone.
///
/// # Errors
///
/// As [`section_table`], plus [`PersistError::Io`] when the file cannot
/// be read.
pub fn read_section_table(path: impl AsRef<Path>) -> Result<SectionTable, PersistError> {
    let mut file = fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_table(&mut file, len, &mut [0; MAX_HEADER_BYTES])
}

/// Parses the header of a store of `file_len` bytes from `src`, which must
/// be positioned at its start — as a section of its own, so a short
/// header is `Truncated` at the byte it ran out, like any payload.
fn read_table(
    src: &mut dyn Read,
    file_len: u64,
    chunk: &mut [u8],
) -> Result<SectionTable, PersistError> {
    const SECTION: &str = "header";
    let len = file_len.min(MAX_HEADER_BYTES as u64) as usize;
    // The header is not checksummed: the hasher only keeps the reader whole.
    let mut r = ByteReader::new(
        src,
        chunk,
        SECTION,
        0,
        len,
        checksum_of(INDEX_FORMAT_VERSION),
    );
    if r.take::<8>()? != INDEX_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.take_u32()?;
    // The one place the two readable versions differ.
    let checksum_name = match version {
        1 => "fnv1a64",
        INDEX_FORMAT_VERSION => "xxh64",
        found => return Err(PersistError::UnsupportedVersion { found }),
    };
    let section_count = r.take_u32()?;
    if section_count > MAX_SECTIONS {
        return Err(corrupt(
            SECTION,
            format!("section count {section_count} exceeds the maximum {MAX_SECTIONS}"),
        ));
    }
    let mut sections = Vec::with_capacity(section_count as usize);
    for _ in 0..section_count {
        let id = r.take_u32()?;
        sections.push(SectionEntry {
            id,
            name: match id {
                SECTION_GRAPH => "graph",
                SECTION_INDEX => "index",
                SECTION_META => "meta",
                SECTION_CHANGELOG => "changelog",
                _ => "unknown",
            },
            offset: r.take_u64()?,
            len: r.take_u64()?,
            checksum: r.take_u64()?,
        });
    }
    Ok(SectionTable {
        version,
        checksum_name,
        sections,
    })
}

/// Deserializes `.sgi` bytes (see [`encode_index`] for an example) —
/// [`read_index_file`]'s codec, reading from memory.
///
/// # Errors
///
/// Never panics on bad input: returns [`PersistError::BadMagic`],
/// [`PersistError::UnsupportedVersion`], [`PersistError::Truncated`],
/// [`PersistError::ChecksumMismatch`], or [`PersistError::Corrupt`]
/// depending on what the bytes got wrong.
pub fn decode_index(bytes: &[u8]) -> Result<PersistedIndex, PersistError> {
    load(&mut Cursor::new(bytes), 1).map(ShardedStore::into_whole)
}

/// Loads a persisted index from `path`, streaming it: the peak is the
/// loaded store plus one 64 KiB chunk.
///
/// # Errors
///
/// Filesystem failures surface as [`PersistError::Io`]; malformed content
/// surfaces as the named [`decode_index`] errors, never a panic. A file
/// that shrinks while it is read is [`PersistError::Truncated`] at the
/// byte it ran out.
pub fn read_index_file(path: impl AsRef<Path>) -> Result<PersistedIndex, PersistError> {
    load(&mut fs::File::open(path)?, 1).map(ShardedStore::into_whole)
}

/// [`decode_index`] with the index split into `shards` coordinate ranges
/// as it is read ([`read_index_file_sharded`]).
///
/// # Errors
///
/// As [`decode_index`], and the same error for the same bytes.
///
/// # Panics
///
/// Panics when `shards` is zero.
pub fn decode_index_sharded(bytes: &[u8], shards: usize) -> Result<ShardedStore, PersistError> {
    load(&mut Cursor::new(bytes), shards)
}

/// Loads the store at `path` for a mapper of `shards` coordinate-range
/// shards, filing every location straight into the shard that owns it:
/// the whole index is never built, so the peak is the graph, the shards
/// and a few 64 KiB buffers. The shards equal
/// [`GraphIndex::split_by_ranges`] of the whole index at
/// [`shard_boundaries`] of the graph, level for level; one shard is
/// [`read_index_file`]'s single-pass decode.
///
/// # Errors
///
/// As [`read_index_file`], and the same error for the same file. A store
/// that changes between the two reads of its index section fails with
/// [`PersistError::ChecksumMismatch`] (or [`PersistError::Truncated`]
/// where it shrank).
///
/// # Panics
///
/// Panics when `shards` is zero.
pub fn read_index_file_sharded(
    path: impl AsRef<Path>,
    shards: usize,
) -> Result<ShardedStore, PersistError> {
    load(&mut fs::File::open(path)?, shards)
}

/// A store loaded for a mapper of coordinate-range shards: everything a
/// [`PersistedIndex`] holds, but the index arrives split at `boundaries`.
#[derive(Debug)]
pub struct ShardedStore {
    /// The genome graph the index was built over.
    pub graph: GenomeGraph,
    /// The `shards.len() + 1` linear-coordinate cut points,
    /// [`shard_boundaries`] of the graph.
    pub boundaries: Vec<u64>,
    /// One index per coordinate range, in coordinate order.
    pub shards: Vec<GraphIndex>,
    /// As [`PersistedIndex::discard_frac`].
    pub discard_frac: f64,
    /// As [`PersistedIndex::freq_threshold`]: the whole index's.
    pub freq_threshold: u32,
    /// As [`PersistedIndex::changelog`], its identity verified.
    pub changelog: Option<StoreChangelog>,
    /// As [`PersistedIndex::provenance`].
    pub provenance: Option<IndexProvenance>,
}

impl ShardedStore {
    /// A one-shard load as the whole store.
    fn into_whole(mut self) -> PersistedIndex {
        debug_assert_eq!(self.shards.len(), 1, "a whole load is one shard");
        PersistedIndex {
            index: self.shards.pop().expect("one shard"),
            graph: self.graph,
            discard_frac: self.discard_frac,
            freq_threshold: self.freq_threshold,
            changelog: self.changelog,
            provenance: self.provenance,
        }
    }
}

/// The one loader behind [`decode_index`], [`read_index_file`] and their
/// sharded forms: the index section decodes into the `shards` coordinate
/// ranges of the graph section, which is decoded first.
fn load<R: Read + Seek>(src: &mut R, shards: usize) -> Result<ShardedStore, PersistError> {
    assert!(shards > 0, "at least one shard");
    let (mut loader, rows) = Loader::new(src)?;
    let loaded = (|| {
        let graph = loader.decode(rows.graph, decode_graph)?;
        let boundaries = shard_boundaries(graph.total_chars(), shards);
        let shards = loader.decode_shards(rows.index, &graph, &boundaries)?;
        let (discard_frac, freq_threshold, provenance) = loader.decode(rows.meta, decode_meta)?;
        let changelog = loader.decode_changelog(&rows)?;
        Ok(ShardedStore {
            graph,
            boundaries,
            shards,
            discard_frac,
            freq_threshold,
            changelog,
            provenance,
        })
    })();
    loaded.map_err(|err| loader.fail(err))
}

/// Reads the parent store `src` holds for a streamed update: every section
/// but the index decoded and verified, as a load decodes them, then handed
/// to `update` beside the index section, which it walks when it is ready
/// to ([`ParentIndex::walk`]) — so the parent's index is never held. What
/// fails, `update` included, is reported as a load reports it: the first
/// section in table order whose checksum fails, else the error itself.
pub(crate) fn read_parent<R: Read + Seek, T>(
    src: &mut R,
    update: impl FnOnce(Parent, ParentIndex<'_, '_, R>) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let (mut loader, rows) = Loader::new(src)?;
    let updated = (|| {
        let graph = loader.decode(rows.graph, decode_graph)?;
        let (discard_frac, _, provenance) = loader.decode(rows.meta, decode_meta)?;
        let changelog = loader.decode_changelog(&rows)?;
        let parent = Parent {
            graph,
            changelog,
            identity: rows.identity,
            discard_frac,
            provenance,
        };
        let index = ParentIndex {
            loader: &mut loader,
            row: rows.index,
        };
        update(parent, index)
    })();
    updated.map_err(|err| loader.fail(err))
}

/// The index section of a parent store [`read_parent`] reads, not yet
/// walked.
pub(crate) struct ParentIndex<'l, 'a, R> {
    loader: &'l mut Loader<'a, R>,
    row: usize,
}

impl<R: Read + Seek> ParentIndex<'_, '_, R> {
    /// The checked walk of the section into `filing`, against a graph
    /// whose node lengths `node_len` gives.
    pub(crate) fn walk(
        self,
        node_len: impl Fn(NodeId) -> Option<usize>,
        filing: &mut impl SeedFiling,
    ) -> Result<(), PersistError> {
        self.loader.walk_index(self.row, node_len, filing)
    }
}

/// The table rows of the sections a load reads, and the identity their
/// recorded checksums give the store.
struct Rows {
    graph: usize,
    index: usize,
    meta: usize,
    changelog: Option<usize>,
    identity: u64,
}

/// A load in progress: the source, its one chunk buffer, and which table
/// rows have been verified against their checksums so far.
struct Loader<'a, R> {
    src: &'a mut R,
    chunk: Vec<u8>,
    table: SectionTable,
    verified: Vec<bool>,
}

impl<'a, R: Read + Seek> Loader<'a, R> {
    /// Reads the header and table of the store `src` holds, checks every
    /// section's extent against the file's length, and finds the rows of
    /// the sections this build reads.
    fn new(src: &'a mut R) -> Result<(Self, Rows), PersistError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        src.seek(SeekFrom::Start(0))?;
        let mut chunk = vec![0; CHUNK];
        let table = read_table(src, file_len, &mut chunk)?;
        let mut loader = Loader {
            src,
            chunk,
            verified: vec![false; table.sections.len()],
            table,
        };
        // Row of each section this build reads: graph, index, meta, changelog.
        let mut rows = [None; 4];
        for (row, entry) in loader.table.sections.iter().enumerate() {
            if entry
                .offset
                .checked_add(entry.len)
                .is_none_or(|end| end > file_len)
            {
                let err = PersistError::Truncated {
                    offset: file_len as usize,
                };
                return Err(loader.first_mismatch(0..row, err));
            }
            let slot = match entry.id {
                SECTION_GRAPH => 0,
                SECTION_INDEX => 1,
                SECTION_META => 2,
                SECTION_CHANGELOG => 3,
                // Unknown sections are skipped (bounds still verified), so a
                // future minor revision can append data old readers ignore.
                _ => continue,
            };
            if rows[slot].replace(row).is_some() {
                let err = corrupt("header", format!("duplicate section {:?}", entry.name));
                return Err(loader.first_mismatch(0..=row, err));
            }
        }
        let [Some(graph), Some(index), Some(meta), changelog] = rows else {
            let missing = ["graph", "index", "meta"][rows
                .iter()
                .position(Option::is_none)
                .expect("a missing section")];
            let err = corrupt("header", format!("missing {missing} section"));
            return Err(loader.fail(err));
        };
        let identity = store_identity(
            loader.table.sections[graph].checksum,
            loader.table.sections[index].checksum,
        );
        let rows = Rows {
            graph,
            index,
            meta,
            changelog,
            identity,
        };
        Ok((loader, rows))
    }

    /// Decodes the changelog section, if the store has one, verified
    /// against the store's identity.
    fn decode_changelog(&mut self, rows: &Rows) -> Result<Option<StoreChangelog>, PersistError> {
        match rows.changelog {
            Some(row) => Ok(Some(
                self.decode(row, |r| decode_changelog(r, rows.identity))?,
            )),
            None => Ok(None),
        }
    }

    /// What a load that failed with `err` reports, every section
    /// considered.
    fn fail(&mut self, err: PersistError) -> PersistError {
        self.first_mismatch(0..self.table.sections.len(), err)
    }

    fn open(&mut self, row: usize) -> Result<ByteReader<'_>, PersistError> {
        let entry = self.table.sections[row];
        self.src.seek(SeekFrom::Start(entry.offset))?;
        let checksum = checksum_of(self.table.version);
        Ok(ByteReader::new(
            self.src,
            &mut self.chunk,
            entry.name,
            entry.offset,
            entry.len as usize,
            checksum,
        ))
    }

    /// Decodes table row `row` with `decode`, then checks the checksum the
    /// read folded in on the way.
    fn decode<T>(
        &mut self,
        row: usize,
        decode: impl FnOnce(&mut ByteReader<'_>) -> Result<T, PersistError>,
    ) -> Result<T, PersistError> {
        let entry = self.table.sections[row];
        let mut r = self.open(row)?;
        let value = decode(&mut r)?;
        if r.finish()? != entry.checksum {
            return Err(PersistError::ChecksumMismatch {
                section: entry.name,
            });
        }
        self.verified[row] = true;
        Ok(value)
    }

    /// Decodes index row `row` into the shards `boundaries` cut `graph`
    /// into. One shard is the single-pass [`decode_hash_index`]; more are
    /// the checked walk ([`Self::walk_index`]), each location filed into
    /// its owner's exactly-sized levels, so no level of the whole index is
    /// ever held.
    fn decode_shards(
        &mut self,
        row: usize,
        graph: &GenomeGraph,
        boundaries: &[u64],
    ) -> Result<Vec<GraphIndex>, PersistError> {
        if boundaries.len() == 2 {
            return Ok(vec![self.decode(row, |r| decode_hash_index(r, graph))?]);
        }
        let owner = checked_shard_owner(graph, boundaries);
        let mut filing = ShardFiling::new(boundaries.len() - 1, owner);
        self.walk_index(row, node_lens(graph), &mut filing)?;
        Ok(filing.into_shards())
    }

    /// The one checked walk of index row `row` into `filing` — a sharded
    /// load's shards, or a streamed update's merge — in two passes, for a
    /// store whose graph has the node lengths `node_len` gives:
    ///
    /// 1. *Check and count.* The section streams through the checks the
    ///    single-pass decode runs and is verified against its checksum.
    ///    The second level marks where each run ends, a bit per location,
    ///    so the third level's walk hands `filing` every location with its
    ///    record; the two levels' bytes are also hashed apart.
    /// 2. *File.* The two levels are read again side by side, a block at a
    ///    time, every seed filed in order. Both are hashed again and must
    ///    equal pass 1, so a store that changed between the passes fails
    ///    instead of filing a location no check saw.
    fn walk_index(
        &mut self,
        row: usize,
        node_len: impl Fn(NodeId) -> Option<usize>,
        filing: &mut impl SeedFiling,
    ) -> Result<(), PersistError> {
        let entry = self.table.sections[row];

        // Pass 1: check and count. The records mark where each run ends
        // in a bit per location, so the walk of the third level, which
        // follows the second, knows each location's record.
        let mut r = self.open(row)?;
        let head = take_index_head(&mut r)?;
        let minimizers = head.minimizer_count;
        let records_at = entry.offset + r.position() as u64;
        // What follows the records is a count and the locations: room for
        // every run end of a store whose records add up.
        let location_bound = (r.remaining() - 16 * minimizers).saturating_sub(8) / 8;
        let mut run_ends = vec![0u64; location_bound.div_ceil(64)];
        // The two levels' own digests, whatever the section checksum, for
        // pass 2 to match.
        let mut records_hash = Checksum::Xxh64(Xxh64::new());
        let mut checks = RecordChecks::new(&head);
        r.take_blocks::<16>(minimizers, |block| {
            records_hash.update(block);
            for record in block.chunks_exact(16) {
                let (hash, loc_start, loc_count) =
                    record_fields(record.try_into().expect("16 bytes"));
                checks.hash(hash);
                let end = checks.run(loc_start, loc_count);
                if let Some(last) = (end as usize).checked_sub(1) {
                    if last < location_bound {
                        run_ends[last / 64] |= 1 << (last % 64);
                    }
                }
            }
        })?;
        let location_count = checks.finish(&mut r)?;
        let locations_at = entry.offset + r.position() as u64;
        let mut locations_hash = Checksum::Xxh64(Xxh64::new());
        let mut locations = LocationChecks::new(node_len);
        let (mut l, mut m) = (0, 0);
        r.take_blocks::<8>(location_count, |block| {
            locations_hash.update(block);
            for record in block.chunks_exact(8) {
                let pos = location_of(record.try_into().expect("8 bytes"));
                if locations.check(m, pos) {
                    filing.count(m, pos);
                }
                m += (run_ends[l / 64] >> (l % 64) & 1) as usize;
                l += 1;
            }
        })?;
        // Pass 1's own arrays go before the destination's are allocated.
        drop(run_ends);
        locations.finish()?;
        expect_end(&r)?;
        if r.finish()? != entry.checksum {
            return Err(PersistError::ChecksumMismatch {
                section: entry.name,
            });
        }
        self.verified[row] = true;
        let (scheme, bucket_bits) = (head.scheme, head.bucket_bits);
        drop(head);
        filing.begin(scheme, bucket_bits);

        // Pass 2: file, reading the records again beside the locations.
        let src = RefCell::new(&mut *self.src);
        let mut spare = vec![0; CHUNK];
        let mut runs_src = At::new(&src, records_at);
        let mut runs = Runs::new(ByteReader::new(
            &mut runs_src,
            &mut spare,
            entry.name,
            records_at,
            16 * minimizers,
            Checksum::Xxh64(Xxh64::new()),
        ));
        let mut locations_src = At::new(&src, locations_at);
        let mut r = ByteReader::new(
            &mut locations_src,
            &mut self.chunk,
            entry.name,
            locations_at,
            8 * location_count,
            Checksum::Xxh64(Xxh64::new()),
        );
        let filed = file_seeds(&mut r, location_count, &mut runs, bucket_bits, filing);
        let changed = PersistError::ChecksumMismatch {
            section: entry.name,
        };
        match filed {
            Ok(true) => {}
            // The store shrank, or the source failed.
            Err(err @ (BinError::SourceEnded { .. } | BinError::Io(_))) => return Err(err.into()),
            Ok(false) | Err(_) => return Err(changed),
        }
        if runs.finish()? != records_hash.digest() || r.finish()? != locations_hash.digest() {
            return Err(changed);
        }
        Ok(())
    }

    /// What a load that failed with `err` reports: checksums come first, as
    /// if every section had been verified before any was decoded. Each
    /// known section among `rows` not yet verified is hashed to its end,
    /// and the first in table order whose checksum fails is the error;
    /// `err` only when all of them hold.
    fn first_mismatch(
        &mut self,
        rows: impl Iterator<Item = usize>,
        err: PersistError,
    ) -> PersistError {
        for row in rows {
            let entry = self.table.sections[row];
            if self.verified[row] || entry.name == "unknown" {
                continue;
            }
            match self
                .open(row)
                .and_then(|r| r.finish().map_err(PersistError::from))
            {
                Ok(checksum) if checksum == entry.checksum => self.verified[row] = true,
                Ok(_) => {
                    return PersistError::ChecksumMismatch {
                        section: entry.name,
                    }
                }
                Err(read_err) => return read_err,
            }
        }
        err
    }
}

/// A reader of a store at a position of its own, so several can walk one
/// source side by side: each read seeks to where its last one stopped.
struct At<'a, S> {
    src: &'a RefCell<S>,
    pos: u64,
}

impl<'a, S> At<'a, S> {
    fn new(src: &'a RefCell<S>, pos: u64) -> Self {
        Self { src, pos }
    }
}

impl<S: Read + Seek> Read for At<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut src = self.src.borrow_mut();
        src.seek(SeekFrom::Start(self.pos))?;
        let got = src.read(buf)?;
        self.pos += got as u64;
        Ok(got)
    }
}

/// Writes a persisted index to `path`, returning the file size in bytes
/// and the store identity stamped into its changelog.
///
/// The store streams through the codec's one chunk buffer into a
/// same-directory temporary file, which is fsynced and then renamed over
/// `path`; the directory is fsynced after the rename, so a crash cannot
/// lose the rename either. A serve daemon re-reading the file mid-write
/// sees the old store or the new one, never a torn prefix. On failure the
/// temporary file is removed and `path` is left untouched.
///
/// # Errors
///
/// Propagates filesystem failures as [`PersistError::Io`].
pub fn write_index_file(
    persisted: &PersistedIndex,
    path: impl AsRef<Path>,
) -> Result<(u64, u64), PersistError> {
    let path = path.as_ref();
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "index.sgi".into());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let staged = (|| {
        let mut file = fs::File::create(&tmp)?;
        let stamped = encode_to(&mut file, persisted)?;
        file.sync_all()?;
        fs::rename(&tmp, path)?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(stamped)
    })();
    staged.map_err(|err: io::Error| {
        let _ = fs::remove_file(&tmp);
        err.into()
    })
}

fn encode_graph(w: &mut ByteWriter<'_>, graph: &GenomeGraph) {
    w.put_u64(graph.node_count() as u64);
    for node in graph.node_ids() {
        put_seq(w, graph.seq(node));
    }
    w.put_u64(graph.edge_count() as u64);
    for (from, to) in graph.edges() {
        w.put_u32(from.0);
        w.put_u32(to.0);
    }
}

/// Decodes the graph section straight into the graph's tables: node
/// sequences into one character table, edges — which the encoder writes in
/// source order — into its out-edge rows.
fn decode_graph(r: &mut ByteReader<'_>) -> Result<GenomeGraph, PersistError> {
    const SECTION: &str = "graph";
    // A node costs at least 9 bytes (length prefix + one packed byte).
    let node_count = r.take_count(9)?;
    if node_count > u32::MAX as usize {
        return Err(corrupt(SECTION, format!("{node_count} nodes")));
    }
    // What is left beyond the length prefixes and the edge count packs at
    // most four bases a byte: room for every base, given back at the end.
    let packed_bound = r.remaining().saturating_sub(8 * node_count + 8);
    let mut chars = DnaSeq::with_capacity(4 * packed_bound);
    let mut char_starts = Vec::with_capacity(node_count + 1);
    char_starts.push(0);
    for n in 0..node_count {
        let len = take_seq_len(r)?;
        if len == 0 {
            return Err(corrupt(
                SECTION,
                format!("node {n}: {}", GraphError::EmptyNode),
            ));
        }
        take_bases(r, len, &mut chars)?;
        char_starts.push(chars.len() as u64);
    }
    let mut chars = chars.into_bases();
    chars.shrink_to_fit();

    let edge_count = r.take_count(8)?;
    if edge_count > u32::MAX as usize {
        return Err(corrupt(SECTION, format!("{edge_count} edges")));
    }
    let mut out_starts = Vec::with_capacity(node_count + 1);
    out_starts.push(0);
    let mut out_targets = Vec::with_capacity(edge_count);
    for e in 0..edge_count {
        let from = r.take_u32()?;
        let to = NodeId(r.take_u32()?);
        let edge = |detail: &dyn fmt::Display| {
            corrupt(SECTION, format!("edge {e} (n{from} -> {to}): {detail}"))
        };
        if from as usize >= node_count {
            return Err(edge(&GraphError::NodeOutOfBounds {
                node: from,
                node_count,
            }));
        }
        // `out_starts` has a row for every source up to the current one.
        if (from as usize) + 1 < out_starts.len() {
            return Err(edge(&"edges out of source order"));
        }
        out_starts.resize(from as usize + 1, out_targets.len() as u32);
        out_targets.push(to);
    }
    out_starts.resize(node_count + 1, out_targets.len() as u32);
    expect_end(r)?;
    GenomeGraph::from_tables(chars, char_starts, out_starts, out_targets)
        .map_err(|e| corrupt(SECTION, e.to_string()))
}

fn encode_hash_index(w: &mut ByteWriter<'_>, index: &GraphIndex) {
    w.put_u64(index.scheme.w as u64);
    w.put_u64(index.scheme.k as u64);
    w.put_u8(match index.scheme.ordering {
        KmerOrdering::Hash => 0,
        KmerOrdering::Lexicographic => 1,
    });
    w.put_u32(index.bucket_bits);
    w.put_u64(index.bucket_starts.len() as u64);
    w.put_records(&index.bucket_starts, |start| start.to_le_bytes());
    // One 16-byte record per minimizer: hash, location start, count.
    w.put_u64(index.hashes.len() as u64);
    let runs = index.starts.windows(2);
    w.put_records(index.hashes.iter().zip(runs), |(hash, run)| {
        let mut record = [0u8; 16];
        record[..8].copy_from_slice(&hash.to_le_bytes());
        record[8..12].copy_from_slice(&run[0].to_le_bytes());
        record[12..].copy_from_slice(&(run[1] - run[0]).to_le_bytes());
        record
    });
    w.put_u64(index.locations.len() as u64);
    w.put_records(&index.locations, |loc| {
        let mut record = [0u8; 8];
        record[..4].copy_from_slice(&loc.node.0.to_le_bytes());
        record[4..].copy_from_slice(&loc.offset.to_le_bytes());
        record
    });
}

/// Decodes the hash-index section and re-validates every structural
/// invariant [`GraphIndex::build`] guarantees — bucket ranges, sorted
/// hashes, contiguous location runs each in location order, in-graph
/// positions — so a loaded index can never panic (or silently
/// mis-answer) a later lookup. Each level is decoded in bulk into an
/// exactly-sized array and checked — the second as it streams, the third
/// in one pass after — by the checks the sharded load runs.
fn decode_hash_index(
    r: &mut ByteReader<'_>,
    graph: &GenomeGraph,
) -> Result<GraphIndex, PersistError> {
    let head = take_index_head(r)?;
    let mut checks = RecordChecks::new(&head);
    let mut hashes = Vec::with_capacity(head.minimizer_count);
    let mut starts = Vec::with_capacity(head.minimizer_count + 1);
    starts.push(0u32);
    r.take_each(head.minimizer_count, |record| {
        let (hash, loc_start, loc_count) = record_fields(record);
        checks.hash(hash);
        hashes.push(hash);
        starts.push(checks.run(loc_start, loc_count));
    })?;
    let location_count = checks.finish(r)?;
    let locations: Vec<GraphPos> = r.take_records(location_count, location_of)?;
    // The runs were checked to tile the level, none of them empty.
    let mut checks = LocationChecks::new(node_lens(graph));
    let (mut m, mut run_end) = (0, starts.get(1).copied().unwrap_or(0));
    for (l, &pos) in locations.iter().enumerate() {
        if l as u32 == run_end {
            m += 1;
            run_end = starts[m + 1];
        }
        checks.check(m, pos);
    }
    checks.finish()?;
    expect_end(r)?;
    Ok(GraphIndex {
        scheme: head.scheme,
        bucket_bits: head.bucket_bits,
        bucket_starts: head.bucket_starts,
        hashes,
        starts,
        locations,
    })
}

const INDEX: &str = "index";

/// The hash-index section up to its second level: the scheme, the
/// bucket count, the first level and the minimizer count.
struct IndexHead {
    scheme: MinimizerScheme,
    bucket_bits: u32,
    bucket_starts: Vec<u32>,
    minimizer_count: usize,
}

/// Reads and checks the hash-index section's [`IndexHead`].
fn take_index_head(r: &mut ByteReader<'_>) -> Result<IndexHead, PersistError> {
    let w =
        usize::try_from(r.take_u64()?).map_err(|_| corrupt(INDEX, "scheme w overflows usize"))?;
    let k =
        usize::try_from(r.take_u64()?).map_err(|_| corrupt(INDEX, "scheme k overflows usize"))?;
    if w == 0 || k == 0 || k > 31 {
        return Err(corrupt(INDEX, format!("invalid scheme <w={w}, k={k}>")));
    }
    let ordering = match r.take_u8()? {
        0 => KmerOrdering::Hash,
        1 => KmerOrdering::Lexicographic,
        other => return Err(corrupt(INDEX, format!("unknown k-mer ordering {other}"))),
    };
    let scheme = MinimizerScheme { w, k, ordering };
    let bucket_bits = r.take_u32()?;
    if !(1..=32).contains(&bucket_bits) {
        return Err(corrupt(
            INDEX,
            format!("bucket_bits {bucket_bits} not in 1..=32"),
        ));
    }
    let bucket_count = 1u64 << bucket_bits;

    let starts_len = r.take_count(4)?;
    if starts_len as u64 != bucket_count + 1 {
        return Err(corrupt(
            INDEX,
            format!("{starts_len} bucket starts for 2^{bucket_bits} buckets"),
        ));
    }
    let bucket_starts: Vec<u32> =
        r.take_records(starts_len, |record| u32::from_le_bytes(*record))?;
    if bucket_starts[0] != 0 {
        return Err(corrupt(INDEX, "first bucket start is not 0"));
    }
    if bucket_starts.windows(2).any(|p| p[0] > p[1]) {
        return Err(corrupt(INDEX, "bucket starts are not non-decreasing"));
    }

    let minimizer_count = r.take_count(16)?;
    if *bucket_starts.last().expect("non-empty") as usize != minimizer_count {
        return Err(corrupt(
            INDEX,
            "last bucket start does not equal the minimizer count",
        ));
    }
    Ok(IndexHead {
        scheme,
        bucket_bits,
        bucket_starts,
        minimizer_count,
    })
}

/// A second-level record's hash, location start and location count.
fn record_fields(record: &[u8; 16]) -> (u64, u32, u32) {
    let word = |at: usize| u32::from_le_bytes(record[at..at + 4].try_into().expect("4 bytes"));
    let hash = u64::from_le_bytes(record[..8].try_into().expect("8 bytes"));
    (hash, word(8), word(12))
}

/// A third-level record's location.
fn location_of(record: &[u8; 8]) -> GraphPos {
    GraphPos {
        node: NodeId(u32::from_le_bytes(record[..4].try_into().expect("4 bytes"))),
        offset: u32::from_le_bytes(record[4..].try_into().expect("4 bytes")),
    }
}

/// How a first-level bucket's run of the second level is at fault.
enum BucketFault {
    Unordered,
    Misfiled(u64),
}

/// The second level's checks, a record at a time: each record's run
/// starts where the one before it ended and is not empty ([`Self::run`]),
/// and within each bucket's range of the first level the hashes belong to
/// the bucket and strictly increase ([`Self::hash`]). A fault waits until
/// the level is read, and faults are reported in one order — a broken run
/// first, then the first bucket at fault, its disorder before a misfiled
/// hash — so a store names the same fault whichever loader reads it, and
/// in whatever order the two checks see the records.
struct RecordChecks<'a> {
    /// Where the next run must start: the end of the runs so far.
    next_start: u32,
    /// Runs checked so far, and the first that broke.
    runs: usize,
    gap: Option<usize>,
    bucket_starts: &'a [u32],
    bucket_bits: u32,
    /// Hashes checked so far.
    hashes: usize,
    /// The bucket whose range holds the next hash, where the range after
    /// it starts, and the hash before in the same bucket.
    bucket: usize,
    next_bucket: usize,
    previous: Option<u64>,
    fault: Option<(usize, BucketFault)>,
}

impl<'a> RecordChecks<'a> {
    fn new(head: &'a IndexHead) -> Self {
        Self {
            next_start: 0,
            runs: 0,
            gap: None,
            bucket_starts: &head.bucket_starts,
            bucket_bits: head.bucket_bits,
            hashes: 0,
            bucket: 0,
            next_bucket: head.bucket_starts[1] as usize,
            previous: None,
            fault: None,
        }
    }

    /// Checks the next record's run; returns where it ends, the second
    /// level's next location start.
    fn run(&mut self, loc_start: u32, loc_count: u32) -> u32 {
        let end = loc_start.checked_add(loc_count);
        if self.gap.is_none() && (loc_start != self.next_start || loc_count == 0 || end.is_none()) {
            self.gap = Some(self.runs);
        }
        self.runs += 1;
        self.next_start = end.unwrap_or(loc_start);
        self.next_start
    }

    /// Checks the next record's hash.
    fn hash(&mut self, hash: u64) {
        // The head checked that the ranges tile the records, so a bucket
        // whose range holds this record exists.
        while self.next_bucket <= self.hashes {
            self.bucket += 1;
            self.next_bucket = self.bucket_starts[self.bucket + 1] as usize;
            self.previous = None;
        }
        self.hashes += 1;
        let unordered = self.previous.is_some_and(|previous| previous >= hash);
        self.previous = Some(hash);
        if unordered || bucket_of(hash, self.bucket_bits) != self.bucket {
            self.bucket_fault(hash, unordered);
        }
    }

    #[cold]
    fn bucket_fault(&mut self, hash: u64, unordered: bool) {
        let bucket = self.bucket;
        if unordered {
            // Disorder outranks a misfiled hash found earlier in the bucket.
            let outranks = match self.fault {
                None => true,
                Some((b, BucketFault::Misfiled(_))) => b == bucket,
                Some((_, BucketFault::Unordered)) => false,
            };
            if outranks {
                self.fault = Some((bucket, BucketFault::Unordered));
            }
        } else if self.fault.is_none() {
            self.fault = Some((bucket, BucketFault::Misfiled(hash)));
        }
    }

    /// Reports a held fault, else reads the third level's count, which
    /// must be where the runs end.
    fn finish(self, r: &mut ByteReader<'_>) -> Result<usize, PersistError> {
        if let Some(m) = self.gap {
            return Err(corrupt(
                INDEX,
                format!("minimizer {m}: non-contiguous location run"),
            ));
        }
        match self.fault {
            Some((bucket, BucketFault::Unordered)) => {
                return Err(corrupt(
                    INDEX,
                    format!("bucket {bucket}: hashes not strictly increasing"),
                ))
            }
            Some((bucket, BucketFault::Misfiled(hash))) => {
                return Err(corrupt(
                    INDEX,
                    format!("hash {hash:#x} filed under bucket {bucket}"),
                ))
            }
            None => {}
        }
        let location_count = r.take_count(8)?;
        if location_count != self.next_start as usize {
            return Err(corrupt(
                INDEX,
                "location count does not match the minimizer runs",
            ));
        }
        Ok(location_count)
    }
}

/// The third level's checks, a location at a time: each names a base of
/// the graph, and each run lists its locations in order. The first
/// location at fault is reported once the level is read.
struct LocationChecks<L> {
    node_len: L,
    seen: usize,
    /// The run of the location before, and that location packed in
    /// [`packed`] order.
    last_run: usize,
    last: u64,
    fault: Option<(usize, GraphPos, &'static str)>,
}

/// A location as one integer in `(node, offset)` order.
fn packed(pos: GraphPos) -> u64 {
    (u64::from(pos.node.0) << 32) | u64::from(pos.offset)
}

/// The length of each node of `graph`, `None` past its last node: what
/// [`LocationChecks`] reads of a graph.
fn node_lens(graph: &GenomeGraph) -> impl Fn(NodeId) -> Option<usize> + '_ {
    let nodes = graph.node_count();
    move |node| (node.index() < nodes).then(|| graph.node_len(node))
}

impl<L: Fn(NodeId) -> Option<usize>> LocationChecks<L> {
    /// Checks against the graph whose node lengths `node_len` gives.
    fn new(node_len: L) -> Self {
        Self {
            node_len,
            seen: 0,
            last_run: usize::MAX,
            last: 0,
            fault: None,
        }
    }

    /// Checks the next location, `pos` in the run of second-level record
    /// `run`; returns whether it is inside the graph and in order.
    fn check(&mut self, run: usize, pos: GraphPos) -> bool {
        let at = packed(pos);
        let ordered = run != self.last_run || at >= self.last;
        (self.last_run, self.last) = (run, at);
        self.seen += 1;
        let inside = (self.node_len)(pos.node).is_some_and(|len| (pos.offset as usize) < len);
        if !(inside && ordered) {
            self.fault(pos, inside);
        }
        inside && ordered
    }

    #[cold]
    fn fault(&mut self, pos: GraphPos, inside: bool) {
        let what = if inside {
            "is out of order in its run"
        } else {
            "is outside the graph"
        };
        self.fault.get_or_insert((self.seen - 1, pos, what));
    }

    fn finish(self) -> Result<(), PersistError> {
        match self.fault {
            Some((l, GraphPos { node, offset }, what)) => Err(corrupt(
                INDEX,
                format!("location {l} ({node}:{offset}) {what}"),
            )),
            None => Ok(()),
        }
    }
}

/// Second-level records a [`Runs`] block holds: one chunk's worth.
const RUN_BLOCK: usize = CHUNK / 16;

/// The second level read again, from a reader of its own, a block of
/// records at a time: each record's hash and location count.
struct Runs<'a> {
    r: ByteReader<'a>,
    block: Vec<(u64, u32)>,
    next: usize,
}

impl<'a> Runs<'a> {
    fn new(r: ByteReader<'a>) -> Self {
        Self {
            r,
            block: Vec::with_capacity(RUN_BLOCK),
            next: 0,
        }
    }

    /// The next record's hash and location count. Past the last record it
    /// takes one that is not there, which fails.
    fn next(&mut self) -> Result<(u64, u32), BinError> {
        if self.next == self.block.len() {
            self.block.clear();
            self.next = 0;
            let n = (self.r.remaining() / 16).clamp(1, RUN_BLOCK);
            let block = &mut self.block;
            self.r.take_each(n, |record| {
                let (hash, _, count) = record_fields(record);
                block.push((hash, count));
            })?;
        }
        self.next += 1;
        Ok(self.block[self.next - 1])
    }

    /// Reads the records not yet read, and returns the checksum of all.
    fn finish(self) -> Result<u64, BinError> {
        self.r.finish()
    }
}

/// Pass 2 of the checked walk: files each of the `count` locations
/// `locations` reads into `filing`, beside the hash of the second-level
/// record whose run it belongs to, which `runs` reads — the runs tile the
/// third level in order. The locations are decoded a chunk's worth at a
/// time. Stops with `false` at a seed only a store changed since pass 1
/// can hold: one `filing` has no place for, or one out of `(bucket, hash,
/// location)` order, which the level builder cannot take.
fn file_seeds(
    locations: &mut ByteReader<'_>,
    count: usize,
    runs: &mut Runs<'_>,
    bucket_bits: u32,
    filing: &mut impl SeedFiling,
) -> Result<bool, BinError> {
    let mut block = Vec::with_capacity(CHUNK / 8);
    // The run's hash, its locations not yet filed, its place in `(bucket,
    // hash)` order, and the last location filed.
    let (mut hash, mut left, mut key, mut last) = (0, 0, 0, 0);
    for first in (0..count).step_by(CHUNK / 8) {
        block.clear();
        let n = (count - first).min(CHUNK / 8);
        locations.take_each(n, |record| block.push(location_of(record)))?;
        for &pos in &block {
            while left == 0 {
                let (next, n) = runs.next()?;
                let next_key = next.rotate_right(bucket_bits);
                if next_key < key {
                    return Ok(false);
                }
                if next_key > key {
                    last = 0;
                }
                (hash, left, key) = (next, n, next_key);
            }
            left -= 1;
            if packed(pos) < last || !filing.file((hash, pos)) {
                return Ok(false);
            }
            last = packed(pos);
        }
    }
    Ok(true)
}

fn encode_meta(w: &mut ByteWriter<'_>, persisted: &PersistedIndex) {
    w.put_u64(persisted.discard_frac.to_bits());
    w.put_u32(persisted.freq_threshold);
    // Provenance rides as an optional tail: pre-provenance readers saw
    // exactly the two fields above, and presence is signalled purely by
    // there being more bytes.
    if let Some(p) = &persisted.provenance {
        w.put_u32(PROVENANCE_VERSION);
        put_string(w, &p.reference_path);
        w.put_u64(p.vcf_paths.len() as u64);
        for path in &p.vcf_paths {
            put_string(w, path);
        }
        put_string(w, &p.preset);
        w.put_u64(p.epoch);
    }
}

fn decode_meta(
    r: &mut ByteReader<'_>,
) -> Result<(f64, u32, Option<IndexProvenance>), PersistError> {
    const SECTION: &str = "meta";
    let discard_frac = f64::from_bits(r.take_u64()?);
    if !(0.0..=1.0).contains(&discard_frac) {
        return Err(corrupt(
            SECTION,
            format!("discard fraction {discard_frac} not in 0..=1"),
        ));
    }
    let freq_threshold = r.take_u32()?;
    let provenance = if r.remaining() == 0 {
        None
    } else {
        let version = r.take_u32()?;
        if version != PROVENANCE_VERSION {
            return Err(corrupt(
                SECTION,
                format!("unknown provenance version {version}"),
            ));
        }
        let reference_path = take_string(r)?;
        let vcf_count = r.take_count(8)?;
        let mut vcf_paths = Vec::with_capacity(vcf_count);
        for _ in 0..vcf_count {
            vcf_paths.push(take_string(r)?);
        }
        let preset = take_string(r)?;
        let epoch = r.take_u64()?;
        Some(IndexProvenance {
            reference_path,
            vcf_paths,
            preset,
            epoch,
        })
    };
    expect_end(r)?;
    Ok((discard_frac, freq_threshold, provenance))
}

fn put_string(w: &mut ByteWriter<'_>, s: &str) {
    w.put_u64(s.len() as u64);
    w.put_bytes(s.as_bytes());
}

fn take_string(r: &mut ByteReader<'_>) -> Result<String, PersistError> {
    let len = r.take_count(1)?;
    let mut bytes = Vec::with_capacity(len);
    r.take_bytes(len, |piece| bytes.extend_from_slice(piece))?;
    String::from_utf8(bytes).map_err(|_| corrupt(r.name(), "string is not UTF-8"))
}

/// 2-bit packed sequence (graph nodes, the changelog's reference and
/// alleles): length prefix, then low-bits-first packed bases — the
/// paper's reference representation (Section 5) — packed half a chunk at
/// a time.
fn put_seq(w: &mut ByteWriter<'_>, seq: &[Base]) {
    const PIECE_BASES: usize = 4 * (CHUNK / 2);
    w.put_u64(seq.len() as u64);
    for piece in seq.chunks(PIECE_BASES) {
        pack_bases(piece, w.room(piece.len().div_ceil(4)));
    }
}

/// A sequence that is already packed, in [`put_seq`]'s form.
fn put_packed(w: &mut ByteWriter<'_>, seq: &PackedSeq) {
    w.put_u64(seq.len() as u64);
    w.put_bytes(seq.as_bytes());
}

/// The length prefix of a [`put_seq`] sequence.
fn take_seq_len(r: &mut ByteReader<'_>) -> Result<usize, PersistError> {
    usize::try_from(r.take_u64()?).map_err(|_| corrupt(r.name(), "sequence length overflows usize"))
}

/// The inverse of [`put_seq`], unpacked piece by piece into an
/// exactly-sized sequence.
fn take_seq(r: &mut ByteReader<'_>) -> Result<DnaSeq, PersistError> {
    let len = take_seq_len(r)?;
    // Room only for a length the payload can hold: a longer one fails in
    // `take_bytes` before anything is unpacked.
    let mut seq = DnaSeq::with_capacity(if len.div_ceil(4) <= r.remaining() {
        len
    } else {
        0
    });
    take_bases(r, len, &mut seq)?;
    Ok(seq)
}

/// Appends the `len` packed bases that follow to `seq`.
fn take_bases(r: &mut ByteReader<'_>, len: usize, seq: &mut DnaSeq) -> Result<(), PersistError> {
    let mut left = len;
    r.take_bytes(len.div_ceil(4), |piece| {
        let bases = left.min(piece.len() * 4);
        seq.extend_from_packed(piece, bases);
        left -= bases;
    })?;
    Ok(())
}

/// The inverse of [`put_packed`]: a [`put_seq`] sequence kept packed.
fn take_packed(r: &mut ByteReader<'_>) -> Result<PackedSeq, PersistError> {
    let len = take_seq_len(r)?;
    let packed = len.div_ceil(4);
    let mut bytes = Vec::with_capacity(if packed <= r.remaining() { packed } else { 0 });
    r.take_bytes(packed, |piece| bytes.extend_from_slice(piece))?;
    Ok(PackedSeq::from_packed(bytes, len))
}

fn put_variant(w: &mut ByteWriter<'_>, v: &Variant) {
    match &v.kind {
        VariantKind::Snp { alt } => {
            w.put_u8(0);
            w.put_u64(v.pos);
            w.put_u8(alt.code());
        }
        VariantKind::Insertion { seq } => {
            w.put_u8(1);
            w.put_u64(v.pos);
            put_seq(w, seq.as_slice());
        }
        VariantKind::Deletion { len } => {
            w.put_u8(2);
            w.put_u64(v.pos);
            w.put_u64(*len);
        }
        VariantKind::Replacement { ref_len, alt } => {
            w.put_u8(3);
            w.put_u64(v.pos);
            w.put_u64(*ref_len);
            put_seq(w, alt.as_slice());
        }
    }
}

fn take_variant(r: &mut ByteReader<'_>) -> Result<Variant, PersistError> {
    let section = r.name();
    let tag = r.take_u8()?;
    let pos = r.take_u64()?;
    let kind = match tag {
        0 => VariantKind::Snp {
            alt: Base::from_code_masked(r.take_u8()?),
        },
        1 => {
            let seq = take_seq(r)?;
            if seq.is_empty() {
                return Err(corrupt(section, "empty insertion sequence"));
            }
            VariantKind::Insertion { seq }
        }
        2 => {
            let len = r.take_u64()?;
            if len == 0 {
                return Err(corrupt(section, "zero-length deletion"));
            }
            VariantKind::Deletion { len }
        }
        3 => {
            let ref_len = r.take_u64()?;
            let alt = take_seq(r)?;
            if ref_len == 0 || alt.is_empty() {
                return Err(corrupt(section, "degenerate replacement"));
            }
            VariantKind::Replacement { ref_len, alt }
        }
        other => return Err(corrupt(section, format!("unknown variant tag {other}"))),
    };
    Ok(Variant { pos, kind })
}

/// Encodes the changelog with `identity` — the store's, from the payload
/// bytes just written — in place of the recorded value on the changelog
/// itself and on its last history entry.
fn encode_changelog(w: &mut ByteWriter<'_>, log: &StoreChangelog, identity: u64) {
    w.put_u32(CHANGELOG_VERSION);
    w.put_u64(log.epoch);
    w.put_u64(log.parent);
    w.put_u64(identity);
    put_packed(w, &log.reference);
    w.put_u64(log.applied.len() as u64);
    for variant in log.applied.iter() {
        put_variant(w, variant);
    }
    w.put_u64(log.history.len() as u64);
    for (i, entry) in log.history.iter().enumerate() {
        let last = i + 1 == log.history.len();
        w.put_u64(entry.epoch);
        w.put_u64(entry.parent);
        w.put_u64(if last { identity } else { entry.identity });
        put_string(w, &entry.source);
        w.put_u64(entry.added_variants);
        w.put_u64(entry.dropped_variants);
        w.put_u64(entry.touched.len() as u64);
        for &(start, end) in &entry.touched {
            w.put_u64(start);
            w.put_u64(end);
        }
    }
}

/// Decodes and *verifies* the changelog chain: the recorded identity must
/// match `computed_identity` (the checksum of the graph/index payloads
/// the changelog arrived with), history entries must carry consecutive
/// epochs, and each entry's parent must be its predecessor's identity —
/// the same linkage a git history gives commits. A changelog that was
/// spliced onto the wrong store, re-ordered, or hand-edited fails with
/// [`PersistError::ParentMismatch`] / [`PersistError::EpochSkew`] instead
/// of silently seeding a bad delta chain.
fn decode_changelog(
    r: &mut ByteReader<'_>,
    computed_identity: u64,
) -> Result<StoreChangelog, PersistError> {
    const SECTION: &str = "changelog";
    let version = r.take_u32()?;
    if version != CHANGELOG_VERSION {
        return Err(corrupt(
            SECTION,
            format!("unknown changelog version {version}"),
        ));
    }
    let epoch = r.take_u64()?;
    let parent = r.take_u64()?;
    let identity = r.take_u64()?;
    let reference = take_packed(r)?;
    let applied_count = r.take_count(9)?;
    let mut applied = VariantSet::new();
    for _ in 0..applied_count {
        let variant = take_variant(r)?;
        let (_, end) = variant.ref_interval();
        if end > reference.len() as u64 {
            return Err(corrupt(
                SECTION,
                format!("variant at {} runs past the reference", variant.pos),
            ));
        }
        applied.push(variant);
    }
    let history_count = r.take_count(8 * 6)?;
    let mut history = Vec::with_capacity(history_count);
    for _ in 0..history_count {
        let entry_epoch = r.take_u64()?;
        let entry_parent = r.take_u64()?;
        let entry_identity = r.take_u64()?;
        let source = take_string(r)?;
        let added_variants = r.take_u64()?;
        let dropped_variants = r.take_u64()?;
        let touched_count = r.take_count(16)?;
        let mut touched = Vec::with_capacity(touched_count);
        for _ in 0..touched_count {
            let start = r.take_u64()?;
            let end = r.take_u64()?;
            touched.push((start, end));
        }
        history.push(EpochEntry {
            epoch: entry_epoch,
            parent: entry_parent,
            identity: entry_identity,
            source,
            added_variants,
            dropped_variants,
            touched,
        });
    }
    expect_end(r)?;

    if history.is_empty() {
        return Err(corrupt(SECTION, "empty epoch history"));
    }
    for (i, entry) in history.iter().enumerate() {
        if entry.epoch != i as u64 {
            return Err(PersistError::EpochSkew {
                expected: i as u64,
                found: entry.epoch,
            });
        }
        let expected_parent = if i == 0 { 0 } else { history[i - 1].identity };
        if entry.parent != expected_parent {
            return Err(PersistError::ParentMismatch {
                expected: expected_parent,
                found: entry.parent,
            });
        }
    }
    let last = history.last().expect("non-empty");
    if epoch != last.epoch {
        return Err(PersistError::EpochSkew {
            expected: last.epoch,
            found: epoch,
        });
    }
    if parent != last.parent {
        return Err(PersistError::ParentMismatch {
            expected: last.parent,
            found: parent,
        });
    }
    if identity != last.identity {
        return Err(PersistError::ParentMismatch {
            expected: last.identity,
            found: identity,
        });
    }
    // The chain must name the store it travels with: a changelog spliced
    // from another file fails here even though its internal links hold.
    if identity != computed_identity {
        return Err(PersistError::ParentMismatch {
            expected: computed_identity,
            found: identity,
        });
    }
    Ok(StoreChangelog {
        epoch,
        parent,
        identity,
        reference,
        applied,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{initial_changelog, update_from};
    use segram_graph::build_graph;

    /// A store whose file shrank to its first `len` bytes after the loader
    /// took its length: seeking still sees the whole store, reads stop at
    /// `len`.
    struct Shrunk<'a> {
        store: &'a [u8],
        len: usize,
        pos: u64,
    }

    impl Read for Shrunk<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let start = (self.pos as usize).min(self.len);
            let n = buf.len().min(self.len - start);
            buf[..n].copy_from_slice(&self.store[start..][..n]);
            self.pos += n as u64;
            Ok(n)
        }
    }

    impl Seek for Shrunk<'_> {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.pos = match to {
                SeekFrom::Start(pos) => pos,
                SeekFrom::End(delta) => self.store.len() as u64 + delta as u64,
                SeekFrom::Current(delta) => self.pos + delta as u64,
            };
            Ok(self.pos)
        }
    }

    /// A store with a changelog over a graph of a few nodes.
    fn store() -> Vec<u8> {
        let reference: DnaSeq = "ACGTTGCAGTCATGCAACGGTTAC".repeat(60).parse().unwrap();
        let variants = [Variant::snp(40, Base::C), Variant::deletion(700, 3)];
        let built = build_graph(&reference, variants.into_iter().collect()).unwrap();
        let index = GraphIndex::build(&built.graph, MinimizerScheme::new(5, 11), 6);
        encode_index(&PersistedIndex {
            changelog: Some(initial_changelog(reference, &built, "build")),
            graph: built.graph,
            index,
            discard_frac: 0.01,
            freq_threshold: 10,
            provenance: None,
        })
    }

    /// A delta that applies to [`store`].
    fn delta() -> VariantSet {
        [Variant::snp(1000, Base::G)].into_iter().collect()
    }

    /// A store whose byte `at` reads flipped from the `from`-th read that
    /// covers it on: a file rewritten while it is loaded.
    struct Changing<'a> {
        store: &'a [u8],
        at: usize,
        from: usize,
        reads: usize,
        pos: u64,
    }

    impl Read for Changing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let start = (self.pos as usize).min(self.store.len());
            let n = buf.len().min(self.store.len() - start);
            buf[..n].copy_from_slice(&self.store[start..][..n]);
            if (start..start + n).contains(&self.at) {
                self.reads += 1;
                if self.reads >= self.from {
                    buf[self.at - start] ^= 0x40;
                }
            }
            self.pos += n as u64;
            Ok(n)
        }
    }

    impl Seek for Changing<'_> {
        fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
            self.pos = match to {
                SeekFrom::Start(pos) => pos,
                SeekFrom::End(delta) => self.store.len() as u64 + delta as u64,
                SeekFrom::Current(delta) => self.pos + delta as u64,
            };
            Ok(self.pos)
        }
    }

    #[test]
    fn a_store_that_changes_between_the_passes_of_a_sharded_load_fails() {
        let store = store();
        let table = section_table(&store).unwrap();
        let index = table.sections.iter().find(|s| s.name == "index").unwrap();
        let end = (index.offset + index.len) as usize;
        // Scheme, bucket count, the 2^6 + 1 bucket starts, the minimizer
        // count: the first record's hash follows.
        let records = index.offset as usize + 8 + 8 + 1 + 4 + 8 + 4 * 65 + 8;
        // A hash byte of the first record, read by pass 1 twice and by pass
        // 2 once; the node of the last location, read once by each pass.
        for (at, from) in [
            (records + 3, 1),
            (records + 3, 2),
            (records + 3, 3),
            (end - 8, 2),
        ] {
            let mut changing = Changing {
                store: &store,
                at,
                from,
                reads: 0,
                pos: 0,
            };
            match load(&mut changing, 3) {
                Err(PersistError::ChecksumMismatch { section: "index" }) => {}
                Err(other) => panic!("byte {at} changed from read {from}: {other}"),
                Ok(_) => panic!("byte {at} changed from read {from}: the store loaded"),
            }
            assert!(
                changing.reads >= from,
                "byte {at} read {} times",
                changing.reads
            );
            // A streamed update walks the index section as the sharded
            // load does.
            let mut changing = Changing {
                store: &store,
                at,
                from,
                reads: 0,
                pos: 0,
            };
            match update_from(&mut changing, &delta(), "delta.vcf") {
                Err(PersistError::ChecksumMismatch { section: "index" }) => {}
                Err(other) => panic!("byte {at} changed from read {from}: {other}"),
                Ok(_) => panic!("byte {at} changed from read {from}: the store updated"),
            }
        }
        // The whole load reads each byte once.
        let mut changing = Changing {
            store: &store,
            at: end - 8,
            from: 2,
            reads: 0,
            pos: 0,
        };
        assert!(load(&mut changing, 1).is_ok());
    }

    /// `store` with byte `at` XORed by `mask` and, when it lies in a
    /// section, that section's recorded checksum made to match again:
    /// corruption only the structural checks can catch.
    fn tampered(store: &[u8], at: usize, mask: u8) -> Vec<u8> {
        let mut bytes = store.to_vec();
        bytes[at] ^= mask;
        let table = section_table(store).unwrap();
        for (row, entry) in table.sections.iter().enumerate() {
            let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
            if payload.contains(&at) {
                let checksum = segram_io::xxh64(&bytes[payload]);
                let field = 16 + row * TABLE_ENTRY_BYTES + 20;
                bytes[field..field + 8].copy_from_slice(&checksum.to_le_bytes());
            }
        }
        bytes
    }

    /// Every single-bit change of the index section that keeps its
    /// checksum fails the sharded load with the error the whole load
    /// names, or loads the whole load's split.
    #[test]
    fn structural_faults_name_the_same_error_through_both_loaders() {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let random: DnaSeq = (0..900)
            .map(|_| Base::from_code_masked(next() as u8))
            .collect();
        // Repeats give minimizers runs of several locations to disorder.
        let mut reference = random.clone();
        reference.extend_from_seq(&random.slice(0, 400));
        reference.extend_from_seq(&random.slice(200, 700));
        let variants = [Variant::snp(90, Base::C), Variant::deletion(1300, 3)];
        let built = build_graph(&reference, variants.into_iter().collect()).unwrap();
        let index = GraphIndex::build(&built.graph, MinimizerScheme::new(5, 11), 6);
        let store = encode_index(&PersistedIndex {
            changelog: None,
            graph: built.graph,
            index,
            discard_frac: 0.01,
            freq_threshold: 10,
            provenance: None,
        });
        let table = section_table(&store).unwrap();
        let index = table.sections.iter().find(|s| s.name == "index").unwrap();
        let (mut loaded, mut corrupt) = (0, Vec::new());
        for _ in 0..3000 {
            let at = index.offset as usize + next() % index.len as usize;
            let bytes = tampered(&store, at, 1 << (next() % 8));
            let whole = load(&mut Cursor::new(&bytes), 1);
            for shards in [2, 3] {
                match (&whole, load(&mut Cursor::new(&bytes), shards)) {
                    (Ok(whole), Ok(sharded)) => {
                        let split =
                            whole.shards[0].split_by_ranges(&whole.graph, &sharded.boundaries);
                        assert_eq!(sharded.shards, split, "byte {at}");
                        loaded += 1;
                    }
                    (Err(whole), Err(sharded)) => {
                        assert_eq!(sharded.to_string(), whole.to_string(), "byte {at}");
                        if let PersistError::Corrupt { detail, .. } = whole {
                            corrupt.push(detail.clone());
                        }
                    }
                    (whole, sharded) => panic!("byte {at}: {whole:?} against {sharded:?}"),
                }
            }
        }
        // Both outcomes, and the structural faults of both levels, occur.
        assert!(loaded > 0);
        for fault in [
            "non-contiguous location run",
            "hashes not strictly increasing",
            "is outside the graph",
            "is out of order in its run",
        ] {
            assert!(
                corrupt.iter().any(|kind| kind.contains(fault)),
                "{fault}: {corrupt:?}"
            );
        }
    }

    #[test]
    fn a_sharded_load_sizes_every_level_exactly() {
        let store = store();
        for shards in [2, 3, 5] {
            let loaded = load(&mut Cursor::new(&store), shards).unwrap();
            for shard in &loaded.shards {
                assert_eq!(shard.hashes.capacity(), shard.hashes.len());
                assert_eq!(shard.starts.capacity(), shard.starts.len());
                assert_eq!(shard.locations.capacity(), shard.locations.len());
            }
        }
    }

    #[test]
    fn a_store_that_shrinks_while_it_is_read_is_truncated_where_it_ran_out() {
        let store = store();
        assert_eq!(section_table(&store).unwrap().sections.len(), 4);
        // The whole load, and the sharded one that reads the index section
        // twice: either stops where the store ran out.
        for shards in [1, 3] {
            let whole = Shrunk {
                store: &store,
                len: store.len(),
                pos: 0,
            };
            assert!(load(&mut { whole }, shards).is_ok());
            for len in 0..store.len() {
                let mut shrunk = Shrunk {
                    store: &store,
                    len,
                    pos: 0,
                };
                match load(&mut shrunk, shards) {
                    Err(PersistError::Truncated { offset }) => assert_eq!(offset, len),
                    Err(other) => panic!("{shards} shards, shrunk to {len} bytes: {other}"),
                    Ok(_) => {
                        panic!("{shards} shards, shrunk to {len} bytes: a partial store loaded")
                    }
                }
            }
        }
        // And a streamed update, which reads the index section last.
        for len in 0..store.len() {
            let mut shrunk = Shrunk {
                store: &store,
                len,
                pos: 0,
            };
            match update_from(&mut shrunk, &delta(), "delta.vcf") {
                Err(PersistError::Truncated { offset }) => assert_eq!(offset, len),
                Err(other) => panic!("update, shrunk to {len} bytes: {other}"),
                Ok(_) => panic!("update, shrunk to {len} bytes: a partial store updated"),
            }
        }
    }
}
