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
//! reads either. Everything is little-endian via the bounds-checked
//! [`segram_io::ByteReader`] primitives, so **loading never panics** on
//! truncated or corrupt input — every failure mode maps to a named
//! [`PersistError`] variant, and a loaded index additionally passes the
//! same structural invariants [`GraphIndex::build`] guarantees (validated
//! here so a tampered file cannot crash a later lookup).

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use segram_graph::{
    Base, DnaSeq, GenomeGraph, GraphBuilder, GraphPos, NodeId, Variant, VariantKind, VariantSet,
};
use segram_io::{fnv1a64, xxh64, BinError, ByteReader, ByteWriter};

use crate::index::{bucket_of, GraphIndex, MinimizerEntry};
use crate::minimizer::{KmerOrdering, MinimizerScheme};

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
    /// an encode of both payloads for it — [`write_index_file`] returns
    /// the identity it stamped so a caller about to write never has to.
    pub fn identity(&self) -> u64 {
        match &self.changelog {
            Some(log) if log.identity != 0 => log.identity,
            _ => {
                let checksum = |encode: &dyn Fn(&mut ByteWriter)| {
                    let mut w = ByteWriter::new();
                    encode(&mut w);
                    xxh64(&w.into_bytes())
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
    /// The linear reference the graph was constructed from.
    pub reference: DnaSeq,
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
    let mut w = ByteWriter::new();
    w.put_u64(graph_checksum);
    w.put_u64(index_checksum);
    fnv1a64(&w.into_bytes())
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

/// Maps a primitive decode error into the file-level vocabulary, tagging
/// it with the section it happened in.
fn from_bin(section: &'static str, err: BinError) -> PersistError {
    match err {
        BinError::UnexpectedEnd { offset, .. } => PersistError::Truncated { offset },
        BinError::ImplausibleLength { offset, claimed } => PersistError::Corrupt {
            section,
            detail: format!("implausible element count {claimed} at byte {offset}"),
        },
    }
}

fn corrupt(section: &'static str, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        section,
        detail: detail.into(),
    }
}

/// Serializes a persisted index to `.sgi` bytes.
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
    encode_stamped(persisted).0
}

/// [`encode_index`] plus the store identity it stamped. Every payload is
/// encoded once, straight into the file's one buffer, and hashed once: the
/// identity is derived from the same two checksums the section table
/// records.
fn encode_stamped(persisted: &PersistedIndex) -> (Vec<u8>, u64) {
    let section_count = 3 + usize::from(persisted.changelog.is_some());
    let header_len = 8 + 4 + 4 + section_count * TABLE_ENTRY_BYTES;
    let mut w = ByteWriter::new();
    w.put_bytes(&vec![0; header_len]);
    let mut header = ByteWriter::new();
    header.put_bytes(&INDEX_MAGIC);
    header.put_u32(INDEX_FORMAT_VERSION);
    header.put_u32(section_count as u32);
    // Appends one section's payload, files its table row, and returns
    // its checksum.
    let mut section = |w: &mut ByteWriter, id: u32, encode: &dyn Fn(&mut ByteWriter)| {
        let offset = w.len();
        encode(w);
        let checksum = xxh64(&w.bytes_mut()[offset..]);
        header.put_u32(id);
        header.put_u64(offset as u64);
        header.put_u64((w.len() - offset) as u64);
        header.put_u64(checksum);
        checksum
    };
    let graph_checksum = section(&mut w, SECTION_GRAPH, &|w| {
        encode_graph(w, &persisted.graph)
    });
    let index_checksum = section(&mut w, SECTION_INDEX, &|w| {
        encode_hash_index(w, &persisted.index)
    });
    section(&mut w, SECTION_META, &|w| encode_meta(w, persisted));
    // The identity names the payloads the changelog travels with, so it is
    // stamped here from the actual encoded bytes — callers leave
    // `identity` fields 0 on the entry they append.
    let identity = store_identity(graph_checksum, index_checksum);
    if let Some(log) = &persisted.changelog {
        section(&mut w, SECTION_CHANGELOG, &|w| {
            encode_changelog(w, log, identity)
        });
    }
    let mut bytes = w.into_bytes();
    bytes[..header_len].copy_from_slice(&header.into_bytes());
    (bytes, identity)
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
    /// The payload's recorded checksum ([`SectionTable::checksum`]).
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
    /// The checksum itself.
    pub checksum: fn(&[u8]) -> u64,
    /// One row per section, in file order.
    pub sections: Vec<SectionEntry>,
}

/// Reads the header of `.sgi` bytes — magic, format version, section
/// table — without touching a payload. [`decode_index`] starts here, and
/// `segram index inspect` prints the same rows.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Truncated`] when the header itself is cut short, or
/// [`PersistError::Corrupt`] for an implausible section count.
pub fn section_table(bytes: &[u8]) -> Result<SectionTable, PersistError> {
    let header = |e| from_bin("header", e);
    let mut reader = ByteReader::new(bytes);
    if reader.take_bytes(8).map_err(header)? != INDEX_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = reader.take_u32().map_err(header)?;
    // The one place the two readable versions differ.
    let (checksum_name, checksum): (_, fn(&[u8]) -> u64) = match version {
        1 => ("fnv1a64", fnv1a64),
        INDEX_FORMAT_VERSION => ("xxh64", xxh64),
        found => return Err(PersistError::UnsupportedVersion { found }),
    };
    let section_count = reader.take_u32().map_err(header)?;
    if section_count > MAX_SECTIONS {
        return Err(corrupt(
            "header",
            format!("section count {section_count} exceeds the maximum {MAX_SECTIONS}"),
        ));
    }
    let mut sections = Vec::with_capacity(section_count as usize);
    for _ in 0..section_count {
        let id = reader.take_u32().map_err(header)?;
        sections.push(SectionEntry {
            id,
            name: match id {
                SECTION_GRAPH => "graph",
                SECTION_INDEX => "index",
                SECTION_META => "meta",
                SECTION_CHANGELOG => "changelog",
                _ => "unknown",
            },
            offset: reader.take_u64().map_err(header)?,
            len: reader.take_u64().map_err(header)?,
            checksum: reader.take_u64().map_err(header)?,
        });
    }
    Ok(SectionTable {
        version,
        checksum_name,
        checksum,
        sections,
    })
}

/// Deserializes `.sgi` bytes (see [`encode_index`] for an example).
///
/// # Errors
///
/// Never panics on bad input: returns [`PersistError::BadMagic`],
/// [`PersistError::UnsupportedVersion`], [`PersistError::Truncated`],
/// [`PersistError::ChecksumMismatch`], or [`PersistError::Corrupt`]
/// depending on what the bytes got wrong.
pub fn decode_index(bytes: &[u8]) -> Result<PersistedIndex, PersistError> {
    // Each slot: the payload and its checksum, once verified.
    let mut graph_payload: Option<(&[u8], u64)> = None;
    let mut index_payload: Option<(&[u8], u64)> = None;
    let mut meta_payload: Option<(&[u8], u64)> = None;
    let mut changelog_payload: Option<(&[u8], u64)> = None;
    let table = section_table(bytes)?;
    for entry in table.sections {
        let payload = section_slice(bytes, entry.offset as usize, entry.len as usize)?;
        let slot = match entry.id {
            SECTION_GRAPH => &mut graph_payload,
            SECTION_INDEX => &mut index_payload,
            SECTION_META => &mut meta_payload,
            SECTION_CHANGELOG => &mut changelog_payload,
            // Unknown sections are skipped (bounds still verified), so a
            // future minor revision can append data old readers ignore.
            _ => continue,
        };
        if (table.checksum)(payload) != entry.checksum {
            return Err(PersistError::ChecksumMismatch {
                section: entry.name,
            });
        }
        if slot.replace((payload, entry.checksum)).is_some() {
            return Err(corrupt(
                "header",
                format!("duplicate section {:?}", entry.name),
            ));
        }
    }
    let (graph_payload, graph_checksum) =
        graph_payload.ok_or_else(|| corrupt("header", "missing graph section"))?;
    let (index_payload, index_checksum) =
        index_payload.ok_or_else(|| corrupt("header", "missing index section"))?;
    let (meta_payload, _) =
        meta_payload.ok_or_else(|| corrupt("header", "missing meta section"))?;

    let graph = decode_graph(graph_payload)?;
    let index = decode_hash_index(index_payload, &graph)?;
    let (discard_frac, freq_threshold, provenance) = decode_meta(meta_payload)?;
    let changelog = match changelog_payload {
        Some((payload, _)) => {
            let identity = store_identity(graph_checksum, index_checksum);
            Some(decode_changelog(payload, identity)?)
        }
        None => None,
    };
    Ok(PersistedIndex {
        graph,
        index,
        discard_frac,
        freq_threshold,
        changelog,
        provenance,
    })
}

/// Writes a persisted index to `path`, returning the file size in bytes
/// and the store identity stamped into its changelog.
///
/// The write is atomic with respect to concurrent readers: the bytes go
/// to a same-directory temporary file that is fsynced and then renamed
/// over `path`, so a serve daemon re-reading the file mid-write sees
/// either the old store or the new one, never a torn prefix. On failure
/// the temporary file is removed and `path` is left untouched.
///
/// # Errors
///
/// Propagates filesystem failures as [`PersistError::Io`].
pub fn write_index_file(
    persisted: &PersistedIndex,
    path: impl AsRef<Path>,
) -> Result<(u64, u64), PersistError> {
    let path = path.as_ref();
    let (bytes, identity) = encode_stamped(persisted);
    let mut tmp_name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "index.sgi".into());
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let staged = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(err) = staged {
        let _ = fs::remove_file(&tmp);
        return Err(err.into());
    }
    Ok((bytes.len() as u64, identity))
}

/// Loads a persisted index from `path`.
///
/// # Errors
///
/// Filesystem failures surface as [`PersistError::Io`]; malformed content
/// surfaces as the named [`decode_index`] errors, never a panic.
pub fn read_index_file(path: impl AsRef<Path>) -> Result<PersistedIndex, PersistError> {
    let bytes = fs::read(path)?;
    decode_index(&bytes)
}

/// Bounds-checks one section's extent against the whole file.
fn section_slice(bytes: &[u8], offset: usize, len: usize) -> Result<&[u8], PersistError> {
    let end = offset
        .checked_add(len)
        .filter(|&end| end <= bytes.len())
        .ok_or(PersistError::Truncated {
            offset: bytes.len(),
        })?;
    Ok(&bytes[offset..end])
}

fn encode_graph(w: &mut ByteWriter, graph: &GenomeGraph) {
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

fn decode_graph(payload: &[u8]) -> Result<GenomeGraph, PersistError> {
    const SECTION: &str = "graph";
    let bin = |e| from_bin(SECTION, e);
    let mut r = ByteReader::new(payload);
    // A node costs at least 9 bytes (length prefix + one packed byte).
    let node_count = r.take_count(9).map_err(bin)?;
    let mut builder = GraphBuilder::new();
    for n in 0..node_count {
        builder
            .add_node(take_seq(SECTION, &mut r)?)
            .map_err(|e| corrupt(SECTION, format!("node {n}: {e}")))?;
    }
    let edge_count = r.take_count(8).map_err(bin)?;
    for e in 0..edge_count {
        let from = NodeId(r.take_u32().map_err(bin)?);
        let to = NodeId(r.take_u32().map_err(bin)?);
        builder
            .add_edge(from, to)
            .map_err(|err| corrupt(SECTION, format!("edge {e} ({from} -> {to}): {err}")))?;
    }
    if !r.is_empty() {
        return Err(corrupt(
            SECTION,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    builder
        .finish()
        .map_err(|e| corrupt(SECTION, e.to_string()))
}

fn encode_hash_index(w: &mut ByteWriter, index: &GraphIndex) {
    w.put_u64(index.scheme.w as u64);
    w.put_u64(index.scheme.k as u64);
    w.put_u8(match index.scheme.ordering {
        KmerOrdering::Hash => 0,
        KmerOrdering::Lexicographic => 1,
    });
    w.put_u32(index.bucket_bits);
    w.put_u64(index.bucket_starts.len() as u64);
    w.put_records(&index.bucket_starts, |start| start.to_le_bytes());
    w.put_u64(index.minimizers.len() as u64);
    w.put_records(&index.minimizers, |entry| {
        let mut record = [0u8; 16];
        record[..8].copy_from_slice(&entry.hash.to_le_bytes());
        record[8..12].copy_from_slice(&entry.loc_start.to_le_bytes());
        record[12..].copy_from_slice(&entry.loc_count.to_le_bytes());
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
/// hashes, contiguous location runs, in-graph positions — so a loaded
/// index can never panic (or silently mis-answer) a later lookup. Each
/// level is converted in bulk into an exactly-sized array, then checked in
/// one linear pass over it.
fn decode_hash_index(payload: &[u8], graph: &GenomeGraph) -> Result<GraphIndex, PersistError> {
    const SECTION: &str = "index";
    let bin = |e| from_bin(SECTION, e);
    let mut r = ByteReader::new(payload);
    let w = usize::try_from(r.take_u64().map_err(bin)?)
        .map_err(|_| corrupt(SECTION, "scheme w overflows usize"))?;
    let k = usize::try_from(r.take_u64().map_err(bin)?)
        .map_err(|_| corrupt(SECTION, "scheme k overflows usize"))?;
    if w == 0 || k == 0 || k > 31 {
        return Err(corrupt(SECTION, format!("invalid scheme <w={w}, k={k}>")));
    }
    let ordering = match r.take_u8().map_err(bin)? {
        0 => KmerOrdering::Hash,
        1 => KmerOrdering::Lexicographic,
        other => return Err(corrupt(SECTION, format!("unknown k-mer ordering {other}"))),
    };
    let scheme = MinimizerScheme { w, k, ordering };
    let bucket_bits = r.take_u32().map_err(bin)?;
    if !(1..=32).contains(&bucket_bits) {
        return Err(corrupt(
            SECTION,
            format!("bucket_bits {bucket_bits} not in 1..=32"),
        ));
    }
    let bucket_count = 1u64 << bucket_bits;

    let starts_len = r.take_count(4).map_err(bin)?;
    if starts_len as u64 != bucket_count + 1 {
        return Err(corrupt(
            SECTION,
            format!("{starts_len} bucket starts for 2^{bucket_bits} buckets"),
        ));
    }
    let bucket_starts: Vec<u32> = r
        .take_records(starts_len)
        .map_err(bin)?
        .map(|record| u32::from_le_bytes(*record))
        .collect();
    if bucket_starts[0] != 0 {
        return Err(corrupt(SECTION, "first bucket start is not 0"));
    }
    if bucket_starts.windows(2).any(|p| p[0] > p[1]) {
        return Err(corrupt(SECTION, "bucket starts are not non-decreasing"));
    }

    let minimizer_count = r.take_count(16).map_err(bin)?;
    if *bucket_starts.last().expect("non-empty") as usize != minimizer_count {
        return Err(corrupt(
            SECTION,
            "last bucket start does not equal the minimizer count",
        ));
    }
    let minimizers: Vec<MinimizerEntry> = r
        .take_records::<16>(minimizer_count)
        .map_err(bin)?
        .map(|record| MinimizerEntry {
            hash: u64::from_le_bytes(record[..8].try_into().expect("8 bytes")),
            loc_start: u32::from_le_bytes(record[8..12].try_into().expect("4 bytes")),
            loc_count: u32::from_le_bytes(record[12..].try_into().expect("4 bytes")),
        })
        .collect();
    // Location runs must tile the third level exactly, in order.
    let mut next_loc_start = 0u64;
    for (m, entry) in minimizers.iter().enumerate() {
        if u64::from(entry.loc_start) != next_loc_start || entry.loc_count == 0 {
            return Err(corrupt(
                SECTION,
                format!("minimizer {m}: non-contiguous location run"),
            ));
        }
        next_loc_start += u64::from(entry.loc_count);
    }
    // Per-bucket invariants: every entry hashes into its bucket and
    // hashes are strictly increasing within it (binary-search order).
    for bucket in 0..bucket_count as usize {
        let range = bucket_starts[bucket] as usize..bucket_starts[bucket + 1] as usize;
        let entries = &minimizers[range];
        for pair in entries.windows(2) {
            if pair[0].hash >= pair[1].hash {
                return Err(corrupt(
                    SECTION,
                    format!("bucket {bucket}: hashes not strictly increasing"),
                ));
            }
        }
        for entry in entries {
            if bucket_of(entry.hash, bucket_bits) != bucket {
                return Err(corrupt(
                    SECTION,
                    format!("hash {:#x} filed under bucket {bucket}", entry.hash),
                ));
            }
        }
    }

    let location_count = r.take_count(8).map_err(bin)?;
    if location_count as u64 != next_loc_start {
        return Err(corrupt(
            SECTION,
            "location count does not match the minimizer runs",
        ));
    }
    let locations: Vec<GraphPos> = r
        .take_records::<8>(location_count)
        .map_err(bin)?
        .map(|record| GraphPos {
            node: NodeId(u32::from_le_bytes(record[..4].try_into().expect("4 bytes"))),
            offset: u32::from_le_bytes(record[4..].try_into().expect("4 bytes")),
        })
        .collect();
    for (l, &GraphPos { node, offset }) in locations.iter().enumerate() {
        if node.index() >= graph.node_count() || offset as usize >= graph.node_len(node) {
            return Err(corrupt(
                SECTION,
                format!("location {l} ({node}:{offset}) is outside the graph"),
            ));
        }
    }
    if !r.is_empty() {
        return Err(corrupt(
            SECTION,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok(GraphIndex {
        scheme,
        bucket_bits,
        bucket_starts,
        minimizers,
        locations,
    })
}

fn encode_meta(w: &mut ByteWriter, persisted: &PersistedIndex) {
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

fn decode_meta(payload: &[u8]) -> Result<(f64, u32, Option<IndexProvenance>), PersistError> {
    const SECTION: &str = "meta";
    let bin = |e| from_bin(SECTION, e);
    let mut r = ByteReader::new(payload);
    let discard_frac = f64::from_bits(r.take_u64().map_err(bin)?);
    if !(0.0..=1.0).contains(&discard_frac) {
        return Err(corrupt(
            SECTION,
            format!("discard fraction {discard_frac} not in 0..=1"),
        ));
    }
    let freq_threshold = r.take_u32().map_err(bin)?;
    let provenance = if r.is_empty() {
        None
    } else {
        let version = r.take_u32().map_err(bin)?;
        if version != PROVENANCE_VERSION {
            return Err(corrupt(
                SECTION,
                format!("unknown provenance version {version}"),
            ));
        }
        let reference_path = take_string(SECTION, &mut r)?;
        let vcf_count = r.take_count(8).map_err(bin)?;
        let mut vcf_paths = Vec::with_capacity(vcf_count);
        for _ in 0..vcf_count {
            vcf_paths.push(take_string(SECTION, &mut r)?);
        }
        let preset = take_string(SECTION, &mut r)?;
        let epoch = r.take_u64().map_err(bin)?;
        Some(IndexProvenance {
            reference_path,
            vcf_paths,
            preset,
            epoch,
        })
    };
    if !r.is_empty() {
        return Err(corrupt(
            SECTION,
            format!("{} trailing bytes", r.remaining()),
        ));
    }
    Ok((discard_frac, freq_threshold, provenance))
}

fn put_string(w: &mut ByteWriter, s: &str) {
    w.put_u64(s.len() as u64);
    w.put_bytes(s.as_bytes());
}

fn take_string(section: &'static str, r: &mut ByteReader<'_>) -> Result<String, PersistError> {
    let len = r.take_count(1).map_err(|e| from_bin(section, e))?;
    let bytes = r.take_bytes(len).map_err(|e| from_bin(section, e))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt(section, "string is not UTF-8"))
}

/// 2-bit packed sequence (graph nodes, the changelog's reference and
/// alleles): length prefix, then low-bits-first packed bases — the
/// paper's reference representation (Section 5).
fn put_seq(w: &mut ByteWriter, seq: &DnaSeq) {
    w.put_u64(seq.len() as u64);
    seq.pack_into(w.bytes_mut());
}

fn take_seq(section: &'static str, r: &mut ByteReader<'_>) -> Result<DnaSeq, PersistError> {
    let len = usize::try_from(r.take_u64().map_err(|e| from_bin(section, e))?)
        .map_err(|_| corrupt(section, "sequence length overflows usize"))?;
    let packed = r
        .take_bytes(len.div_ceil(4))
        .map_err(|e| from_bin(section, e))?;
    Ok(DnaSeq::from_packed(packed, len))
}

fn put_variant(w: &mut ByteWriter, v: &Variant) {
    match &v.kind {
        VariantKind::Snp { alt } => {
            w.put_u8(0);
            w.put_u64(v.pos);
            w.put_u8(alt.code());
        }
        VariantKind::Insertion { seq } => {
            w.put_u8(1);
            w.put_u64(v.pos);
            put_seq(w, seq);
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
            put_seq(w, alt);
        }
    }
}

fn take_variant(section: &'static str, r: &mut ByteReader<'_>) -> Result<Variant, PersistError> {
    let bin = |e| from_bin(section, e);
    let tag = r.take_u8().map_err(bin)?;
    let pos = r.take_u64().map_err(bin)?;
    let kind = match tag {
        0 => VariantKind::Snp {
            alt: Base::from_code_masked(r.take_u8().map_err(bin)?),
        },
        1 => {
            let seq = take_seq(section, r)?;
            if seq.is_empty() {
                return Err(corrupt(section, "empty insertion sequence"));
            }
            VariantKind::Insertion { seq }
        }
        2 => {
            let len = r.take_u64().map_err(bin)?;
            if len == 0 {
                return Err(corrupt(section, "zero-length deletion"));
            }
            VariantKind::Deletion { len }
        }
        3 => {
            let ref_len = r.take_u64().map_err(bin)?;
            let alt = take_seq(section, r)?;
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
fn encode_changelog(w: &mut ByteWriter, log: &StoreChangelog, identity: u64) {
    w.put_u32(CHANGELOG_VERSION);
    w.put_u64(log.epoch);
    w.put_u64(log.parent);
    w.put_u64(identity);
    put_seq(w, &log.reference);
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
    payload: &[u8],
    computed_identity: u64,
) -> Result<StoreChangelog, PersistError> {
    const SECTION: &str = "changelog";
    let bin = |e| from_bin(SECTION, e);
    let mut r = ByteReader::new(payload);
    let version = r.take_u32().map_err(bin)?;
    if version != CHANGELOG_VERSION {
        return Err(corrupt(
            SECTION,
            format!("unknown changelog version {version}"),
        ));
    }
    let epoch = r.take_u64().map_err(bin)?;
    let parent = r.take_u64().map_err(bin)?;
    let identity = r.take_u64().map_err(bin)?;
    let reference = take_seq(SECTION, &mut r)?;
    let applied_count = r.take_count(9).map_err(bin)?;
    let mut applied = VariantSet::new();
    for _ in 0..applied_count {
        let variant = take_variant(SECTION, &mut r)?;
        let (_, end) = variant.ref_interval();
        if end > reference.len() as u64 {
            return Err(corrupt(
                SECTION,
                format!("variant at {} runs past the reference", variant.pos),
            ));
        }
        applied.push(variant);
    }
    let history_count = r.take_count(8 * 6).map_err(bin)?;
    let mut history = Vec::with_capacity(history_count);
    for _ in 0..history_count {
        let entry_epoch = r.take_u64().map_err(bin)?;
        let entry_parent = r.take_u64().map_err(bin)?;
        let entry_identity = r.take_u64().map_err(bin)?;
        let source = take_string(SECTION, &mut r)?;
        let added_variants = r.take_u64().map_err(bin)?;
        let dropped_variants = r.take_u64().map_err(bin)?;
        let touched_count = r.take_count(16).map_err(bin)?;
        let mut touched = Vec::with_capacity(touched_count);
        for _ in 0..touched_count {
            let start = r.take_u64().map_err(bin)?;
            let end = r.take_u64().map_err(bin)?;
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
    if !r.is_empty() {
        return Err(corrupt(
            SECTION,
            format!("{} trailing bytes", r.remaining()),
        ));
    }

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
