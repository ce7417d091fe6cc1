//! Property tests for the persistent on-disk index format (`.sgi`):
//! encode/decode round-trips over arbitrary graphs, and the guarantee
//! that corrupt, truncated, or incompatible files produce a named
//! [`PersistError`] — never a panic. The corruption matrix runs against
//! both readable format versions: a v2 store this build encodes and the
//! committed v1 store the parent of format v2 wrote; and through every
//! entry point of the one streaming codec, [`decode_index`] over memory,
//! [`read_index_file`] over a file, and both of their sharded forms, which
//! decode the index section in two passes — all of which must fail
//! identically. A sharded load that succeeds holds the in-memory split of
//! the whole index, level for level.

use segram_core::SegramConfig;
use segram_graph::{
    build_graph, graphs_identical, linear_graph, Base, DnaSeq, GenomeGraph, GraphBuilder, NodeId,
    PackedSeq,
};
use segram_index::{
    decode_index, decode_index_sharded, encode_index, frequency_threshold, read_index_file,
    read_index_file_sharded, section_table, shard_boundaries, write_index_file, GraphIndex,
    IndexProvenance, MinimizerScheme, PersistError, PersistedIndex, INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
};
use segram_io::{read_fasta, read_vcf, xxh64, Ambiguity, VcfOptions};
use segram_sim::DatasetConfig;
use segram_testkit::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// `index build` of `fixtures/sgi_v1/{ref.fa, base.vcf}` (`--buckets 8`)
/// by the last binary that wrote format v1.
const V1_STORE: &[u8] = include_bytes!("fixtures/sgi_v1/v1.sgi");

/// Bytes before the first section payload: magic + version + count + one
/// 28-byte table entry per section. Flips beyond this land in a
/// checksummed payload.
fn header_bytes(store: &[u8]) -> usize {
    8 + 4 + 4 + section_table(store).expect("valid header").sections.len() * 28
}

/// A store written to a file of its own (removed on drop), for the
/// [`read_index_file`] half of the corruption matrix.
struct StoreFile(PathBuf);

impl StoreFile {
    fn new(bytes: &[u8]) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let name = format!(
            "segram-persist-props-{}-{}.sgi",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let path = std::env::temp_dir().join(name);
        fs::write(&path, bytes).expect("write store file");
        Self(path)
    }

    /// Cuts the file to its first `len` bytes.
    fn truncate(&self, len: usize) {
        let file = fs::OpenOptions::new().write(true).open(&self.0);
        file.and_then(|f| f.set_len(len as u64))
            .expect("truncate store file");
    }

    fn load(&self) -> Result<PersistedIndex, PersistError> {
        read_index_file(&self.0)
    }

    /// Runs `segram index update` of the store with the committed delta
    /// VCF, which must fail with the load's error `err`, under the store's
    /// path as the CLI names it, and write nothing.
    fn update_disagrees(&self, err: &str) -> Option<String> {
        const DELTA: &str = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/sgi_v1/delta.vcf"
        );
        let path = self.0.to_string_lossy();
        let output = self.0.with_extension("child.sgi");
        let args = [
            "index", "update", "--index", &path, "--vcf", DELTA, "--output",
        ];
        let mut args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        args.push(output.to_string_lossy().into_owned());
        let updated = segram_cli::dispatch(&args);
        let staged = output.with_extension("sgi.tmp");
        if output.exists() || staged.exists() {
            let _ = fs::remove_file(&output);
            return Some(format!("the update left output behind: {updated:?}"));
        }
        match updated {
            Err(update) if update.to_string() == format!("{path}: {err}") => None,
            update => Some(format!("update gave {update:?}, memory load {err}")),
        }
    }
}

/// The shard count the corruption matrix loads at beside the whole load.
const SHARDS: usize = 3;

/// The error every other loader gives for `bytes`, which must be the one
/// [`decode_index`] gives: the file loader, the sharded load from memory
/// and from `file`, which holds `bytes`, and `segram index update` of
/// `file`, which must leave no output behind.
fn loaders_disagree(bytes: &[u8], file: &StoreFile) -> Option<String> {
    let err = decode_index(bytes).err()?.to_string();
    let others = [
        file.load().err(),
        decode_index_sharded(bytes, SHARDS).err(),
        read_index_file_sharded(&file.0, SHARDS).err(),
    ];
    let names = ["file", "sharded memory", "sharded file"];
    let disagree = names
        .into_iter()
        .zip(others)
        .find_map(|(name, other)| match other {
            Some(other) if other.to_string() == err => None,
            other => Some(format!("{name} load gave {other:?}, memory load {err}")),
        });
    disagree.or_else(|| file.update_disagrees(&err))
}

impl Drop for StoreFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// The stores the corruption matrix runs over: `(format version, bytes)`.
fn stores() -> [(u32, Vec<u8>); 2] {
    [
        (INDEX_FORMAT_VERSION, encode_index(&fixture())),
        (1, V1_STORE.to_vec()),
    ]
}

fn arb_graph() -> impl Strategy<Value = GenomeGraph> {
    (
        prop::collection::vec(prop::collection::vec(0u8..4, 1..=40), 1..=12),
        prop::collection::vec((0usize..12, 0usize..12), 0..=20),
    )
        .prop_map(|(seqs, raw_edges)| {
            let mut builder = GraphBuilder::new();
            let ids: Vec<NodeId> = seqs
                .iter()
                .map(|codes| {
                    let seq: DnaSeq = codes.iter().copied().map(Base::from_code_masked).collect();
                    builder.add_node(seq).expect("non-empty node")
                })
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (a, b) in raw_edges {
                let (a, b) = (a % ids.len(), b % ids.len());
                // Forward edges only keep the random graph acyclic.
                if a < b && seen.insert((a, b)) {
                    builder.add_edge(ids[a], ids[b]).expect("valid edge");
                }
            }
            builder.finish().expect("acyclic by construction")
        })
}

/// A small but non-trivial fixture file for the corruption tests.
fn fixture() -> PersistedIndex {
    let text: DnaSeq = "ACGTTGCAGTCATGCAACGGTTAC"
        .repeat(90)
        .parse()
        .expect("valid bases");
    let graph = linear_graph(&text, 64).expect("non-empty reference");
    let index = GraphIndex::build(&graph, MinimizerScheme::new(5, 11), 6);
    let freq_threshold = frequency_threshold(&index, 0.01);
    PersistedIndex {
        graph,
        index,
        discard_frac: 0.01,
        freq_threshold,
        changelog: None,
        provenance: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → encode is byte-identical for arbitrary graphs,
    /// schemes, and metadata (field-level equality via re-serialization,
    /// plus behavioral equality of the graph and index).
    #[test]
    fn round_trip_is_byte_identical(
        graph in arb_graph(),
        w in 1usize..8,
        k in 1usize..12,
        lexicographic in any::<bool>(),
        bucket_bits in 1u32..10,
        discard_frac in 0.0f64..1.0,
    ) {
        let scheme = if lexicographic {
            MinimizerScheme::lexicographic(w, k)
        } else {
            MinimizerScheme::new(w, k)
        };
        let index = GraphIndex::build(&graph, scheme, bucket_bits);
        let persisted = PersistedIndex {
            freq_threshold: frequency_threshold(&index, discard_frac),
            graph,
            index,
            discard_frac,
            changelog: None,
            provenance: None,
        };
        let bytes = encode_index(&persisted);
        let loaded = decode_index(&bytes).expect("own encoding must load");
        prop_assert_eq!(&encode_index(&loaded), &bytes);
        prop_assert_eq!(loaded.graph.node_count(), persisted.graph.node_count());
        prop_assert_eq!(loaded.graph.edge_count(), persisted.graph.edge_count());
        for node in persisted.graph.node_ids() {
            prop_assert_eq!(loaded.graph.seq(node), persisted.graph.seq(node));
        }
        prop_assert_eq!(
            loaded.index.distinct_minimizers(),
            persisted.index.distinct_minimizers()
        );
        prop_assert_eq!(loaded.freq_threshold, persisted.freq_threshold);
        prop_assert_eq!(loaded.discard_frac.to_bits(), persisted.discard_frac.to_bits());
        for shards in [2, 3, 4] {
            prop_assert_eq!(sharded_load_differs(&bytes, shards), None);
        }
    }

    /// Flipping any single byte outside the section-count field makes the
    /// file fail to load with a named error (payload flips are caught by
    /// the section checksums; header flips by the structural checks).
    #[test]
    fn single_byte_flips_yield_named_errors(
        seed_pos in 0usize..1_000_000,
        mask in 1u8..=255,
    ) {
        for (version, bytes) in stores() {
            let pos = seed_pos % bytes.len();
            // Bytes 12..16 hold the section count; some flips there only
            // add ignored trailing sections, which is compatibility, not
            // corruption — every other byte must be load-bearing.
            if (12..16).contains(&pos) {
                continue;
            }
            let mut flipped = bytes.clone();
            flipped[pos] ^= mask;
            let err = decode_index(&flipped).expect_err("flip must be detected");
            let disagree = loaders_disagree(&flipped, &StoreFile::new(&flipped));
            prop_assert!(disagree.is_none(), "v{} flip at {}: {:?}", version, pos, disagree);
            let declared = u32::from_le_bytes(flipped[8..12].try_into().unwrap());
            match pos {
                0..=7 => prop_assert!(matches!(err, PersistError::BadMagic)),
                // A flip from one readable version to the other picks the
                // wrong checksum: no section verifies.
                8..=11 if (1..=INDEX_FORMAT_VERSION).contains(&declared) => prop_assert!(
                    matches!(err, PersistError::ChecksumMismatch { section: "graph" }),
                    "v{version} read as v{declared} gave {err}"
                ),
                8..=11 => prop_assert!(
                    matches!(err, PersistError::UnsupportedVersion { found } if found == declared)
                ),
                _ if pos >= header_bytes(&bytes) => prop_assert!(
                    matches!(
                        err,
                        PersistError::ChecksumMismatch { .. } | PersistError::Truncated { .. }
                    ),
                    "v{version} payload flip at {pos} gave {err}"
                ),
                _ => {} // table flips: any named error is acceptable
            }
        }
    }

    /// The table pack/unpack equals the per-base codec at every length
    /// around the four-bases-per-byte boundary, directly and as the node
    /// sequences of a stored graph.
    #[test]
    fn packed_sequences_round_trip_at_every_boundary(
        codes in prop::collection::vec(0u8..4, 40),
        n in 1usize..9,
    ) {
        let bases: Vec<Base> = codes.iter().copied().map(Base::from_code_masked).collect();
        let mut builder = GraphBuilder::new();
        for len in (0..=9).chain([4 * n - 1, 4 * n + 1]) {
            let seq = DnaSeq::from(bases[..len].to_vec());
            let mut packed = Vec::new();
            seq.pack_into(&mut packed);
            prop_assert_eq!(packed.len(), len.div_ceil(4));
            let per_base: PackedSeq = seq.iter().collect();
            prop_assert_eq!(&PackedSeq::from_seq(&seq), &per_base, "len {}", len);
            prop_assert_eq!(&DnaSeq::from_packed(&packed, len), &seq, "len {}", len);
            prop_assert_eq!(&per_base.iter().collect::<DnaSeq>(), &seq);
            if len > 0 {
                builder.add_node(seq).expect("non-empty node");
            }
        }
        let graph = builder.finish().expect("no edges, no cycle");
        let index = GraphIndex::build(&graph, MinimizerScheme::new(2, 3), 4);
        let stored = PersistedIndex {
            freq_threshold: u32::MAX,
            graph,
            index,
            discard_frac: 0.0,
            changelog: None,
            provenance: None,
        };
        let loaded = decode_index(&encode_index(&stored)).expect("own encoding must load");
        for node in stored.graph.node_ids() {
            prop_assert_eq!(loaded.graph.seq(node), stored.graph.seq(node));
        }
    }
}

/// Where the sharded load of `bytes` at `shards` shards differs from the
/// whole load split in memory at the same cuts, if anywhere.
fn sharded_load_differs(bytes: &[u8], shards: usize) -> Option<String> {
    let whole = decode_index(bytes).expect("own encoding must load");
    let store = decode_index_sharded(bytes, shards).expect("own encoding must load");
    let boundaries = shard_boundaries(whole.graph.total_chars(), shards);
    if store.boundaries != boundaries {
        return Some(format!("cuts {:?}, not {boundaries:?}", store.boundaries));
    }
    let split = whole.index.split_by_ranges(&whole.graph, &boundaries);
    if let Some(s) = (0..split.len()).find(|&s| store.shards.get(s) != Some(&split[s])) {
        return Some(format!("shard {s} of {shards} differs from the split"));
    }
    let same_rest = graphs_identical(&store.graph, &whole.graph)
        && store.freq_threshold == whole.freq_threshold
        && store.discard_frac.to_bits() == whole.discard_frac.to_bits()
        && store.changelog == whole.changelog
        && store.provenance == whole.provenance;
    (!same_rest || store.shards.len() != split.len())
        .then(|| format!("{shards} shards: the rest of the store differs"))
}

/// The sharded load of both fixture stores equals the in-memory split of
/// the whole load at 2, 3 and 4 shards, with cuts inside nodes among
/// them.
#[test]
fn sharded_loads_equal_the_split_of_the_whole_load() {
    for (version, bytes) in stores() {
        let graph = decode_index(&bytes).expect("own store loads").graph;
        let mut inside_a_node = 0;
        for shards in [2, 3, 4] {
            assert_eq!(sharded_load_differs(&bytes, shards), None, "v{version}");
            let boundaries = shard_boundaries(graph.total_chars(), shards);
            inside_a_node += (boundaries[1..shards].iter())
                .filter(|&&cut| graph.graph_pos(cut).expect("a base").offset > 0)
                .count();
        }
        assert!(inside_a_node > 0, "v{version}: no cut inside a node");
    }
}

/// Every payload length modulo the checksum's 32-byte stripe verifies and
/// detects a flipped last byte — on raw buffers (which also cover the
/// sub-stripe lengths no section is short enough for) and on a stored
/// section, the META payload grown one byte at a time.
#[test]
fn every_tail_length_of_the_checksum_block_verifies_and_detects_a_flip() {
    let buffer: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
    for len in 1..=buffer.len() {
        let mut flipped = buffer[..len].to_vec();
        flipped[len - 1] ^= 0x80;
        assert_ne!(xxh64(&flipped), xxh64(&buffer[..len]), "length {len}");
        assert_ne!(xxh64(&buffer[..len]), xxh64(&buffer[..len - 1]));
    }

    let mut residues = std::collections::BTreeSet::new();
    for pad in 0..32 {
        let stored = PersistedIndex {
            provenance: Some(IndexProvenance {
                reference_path: "r".repeat(pad),
                vcf_paths: Vec::new(),
                preset: "short".to_owned(),
                epoch: 0,
            }),
            ..fixture()
        };
        let mut bytes = encode_index(&stored);
        let meta = *section_table(&bytes)
            .expect("own header")
            .sections
            .last()
            .expect("meta is the last section");
        assert_eq!(
            (meta.name, (meta.offset + meta.len) as usize),
            ("meta", bytes.len())
        );
        residues.insert(meta.len % 32);
        let loaded = decode_index(&bytes).expect("own encoding must load");
        assert_eq!(loaded.provenance, stored.provenance);
        *bytes.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            decode_index(&bytes),
            Err(PersistError::ChecksumMismatch { section: "meta" })
        ));
    }
    assert_eq!(residues.len(), 32, "every residue of the stripe covered");
}

#[test]
fn every_truncation_point_errors_instead_of_panicking() {
    for (version, bytes) in stores() {
        assert!(bytes.len() > header_bytes(&bytes));
        let file = StoreFile::new(&bytes);
        for cut in (0..bytes.len()).rev() {
            let err = decode_index(&bytes[..cut]).expect_err("truncated file must not load");
            file.truncate(cut);
            if let Some(disagree) = loaders_disagree(&bytes[..cut], &file) {
                panic!("v{version} cut at {cut}: {disagree}");
            }
            match err {
                PersistError::BadMagic
                | PersistError::Truncated { .. }
                | PersistError::ChecksumMismatch { .. }
                | PersistError::Corrupt { .. } => {}
                other => panic!("v{version} truncated at {cut} gave unexpected error {other}"),
            }
        }
    }
}

/// A store the last format-v1 binary wrote still loads, says which
/// version it is, and re-encodes — as format v2 — to the same payloads.
#[test]
fn a_v1_store_loads_and_re_encodes_as_v2_with_the_same_payloads() {
    let v1 = section_table(V1_STORE).expect("v1 header");
    assert_eq!((v1.version, v1.checksum_name), (1, "fnv1a64"));
    let loaded = decode_index(V1_STORE).expect("v1 store must load");
    let log = loaded
        .changelog
        .as_ref()
        .expect("v1 fixture has a changelog");
    assert_eq!(loaded.identity(), log.identity);

    let rewritten = encode_index(&loaded);
    assert_eq!(rewritten.len(), V1_STORE.len(), "same size to the byte");
    let v2 = section_table(&rewritten).expect("v2 header");
    assert_eq!(
        (v2.version, v2.checksum_name),
        (INDEX_FORMAT_VERSION, "xxh64")
    );
    for (old, new) in v1.sections.iter().zip(&v2.sections) {
        assert_eq!((old.id, old.offset, old.len), (new.id, new.offset, new.len));
        let range = old.offset as usize..(old.offset + old.len) as usize;
        // The changelog carries the identity, which is derived from the
        // recorded checksums and so differs between the versions.
        if old.name != "changelog" {
            assert_eq!(
                V1_STORE[range.clone()],
                rewritten[range],
                "{} payload",
                old.name
            );
        }
        assert_ne!(old.checksum, new.checksum);
    }
    assert!(decode_index(&rewritten).is_ok());
}

/// `write_index_file` streams exactly the bytes `encode_index` returns,
/// and reports their length and the identity it stamped — the identity
/// [`PersistedIndex::identity`] computes for a store not yet stamped, and
/// the one the reloaded changelog records.
#[test]
fn the_file_writer_streams_the_encoded_bytes_and_stamps_the_identity() {
    let stamped = decode_index(V1_STORE).expect("v1 store must load");
    for store in [fixture(), stamped] {
        let file = StoreFile::new(&[]);
        let (len, identity) = write_index_file(&store, &file.0).expect("write store");
        let written = fs::read(&file.0).expect("read store back");
        assert_eq!(written, encode_index(&store));
        assert_eq!(len, written.len() as u64);
        let reloaded = file.load().expect("own file must load");
        match &reloaded.changelog {
            Some(log) => assert_eq!(log.identity, identity),
            None => assert_eq!(store.identity(), identity),
        }
        assert_eq!(reloaded.identity(), identity);
    }
}

/// A write that fails at the rename — the target is a directory — removes
/// its temporary file and leaves the target as it was.
#[test]
fn a_failed_write_removes_its_temporary_file() {
    let target =
        std::env::temp_dir().join(format!("segram-persist-props-dir-{}", std::process::id()));
    fs::create_dir_all(&target).expect("create target directory");
    let err = write_index_file(&fixture(), &target).expect_err("a directory cannot be replaced");
    assert!(matches!(err, PersistError::Io(_)), "{err}");
    let mut tmp = target.clone().into_os_string();
    tmp.push(".tmp");
    assert!(!PathBuf::from(tmp).exists(), "temporary file left behind");
    assert!(target.is_dir());
    fs::remove_dir(&target).expect("remove target directory");
}

/// The store golden: what `index build --buckets 8` does in the library —
/// FASTA and VCF decode, graph construction, index build — over the
/// committed inputs must encode the GRAPH and INDEX payloads inside the
/// committed store, so build output is pinned across commits the way
/// `golden_bytes` pins SAM and GAF.
#[test]
fn building_the_fixture_inputs_reproduces_the_committed_payloads() {
    let records = read_fasta(include_str!("fixtures/sgi_v1/ref.fa"), Ambiguity::Reject)
        .expect("fixture FASTA parses");
    let (_, variants) = read_vcf(
        include_str!("fixtures/sgi_v1/base.vcf"),
        VcfOptions::default(),
    )
    .expect("fixture VCF parses")
    .into_single_chrom()
    .expect("one CHROM");
    let built = build_graph(&records[0].seq, variants.into_sorted()).expect("variants apply");
    let config = SegramConfig::short_reads();
    let index = GraphIndex::build(&built.graph, config.scheme, 8);
    let freq_threshold = frequency_threshold(&index, config.discard_frac);
    let rebuilt = encode_index(&PersistedIndex {
        graph: built.graph,
        index,
        discard_frac: config.discard_frac,
        freq_threshold,
        changelog: None,
        provenance: None,
    });
    let payload = |store: &[u8], name: &str| -> Vec<u8> {
        let table = section_table(store).expect("valid header");
        let section = table.sections.iter().find(|s| s.name == name);
        let section = section.unwrap_or_else(|| panic!("no {name} section"));
        store[section.offset as usize..][..section.len as usize].to_vec()
    };
    for (name, len) in [("graph", 684), ("index", 9137)] {
        let committed = payload(V1_STORE, name);
        assert_eq!(committed.len(), len, "{name} payload of the fixture");
        assert_eq!(payload(&rebuilt, name), committed, "{name} payload");
    }
}

#[test]
fn bad_magic_and_version_skew_are_named() {
    let bytes = encode_index(&fixture());

    let mut wrong_magic = bytes.clone();
    wrong_magic[..8].copy_from_slice(b"NOTSGRM\0");
    assert!(matches!(
        decode_index(&wrong_magic),
        Err(PersistError::BadMagic)
    ));

    let mut future = bytes.clone();
    future[8..12].copy_from_slice(&(INDEX_FORMAT_VERSION + 1).to_le_bytes());
    match decode_index(&future) {
        Err(PersistError::UnsupportedVersion { found }) => {
            assert_eq!(found, INDEX_FORMAT_VERSION + 1);
        }
        other => panic!("version skew gave {other:?}"),
    }
    let mut ancient = bytes.clone();
    ancient[8..12].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(
        decode_index(&ancient),
        Err(PersistError::UnsupportedVersion { found: 0 })
    ));

    // The happy path still works, and the magic is what the docs claim.
    assert_eq!(&bytes[..8], &INDEX_MAGIC);
    assert!(decode_index(&bytes).is_ok());
}

/// Re-labelling a table row (the id is outside every checksum) makes a
/// section a duplicate or leaves one missing: both are named header
/// corruption, under either format version.
#[test]
fn duplicated_and_missing_sections_are_named() {
    for (version, bytes) in stores() {
        let index_row_id = 8 + 4 + 4 + 28;
        assert_eq!(bytes[index_row_id..index_row_id + 4], 2u32.to_le_bytes());
        for (id, want) in [(1u32, "duplicate section"), (99, "missing index section")] {
            let mut relabelled = bytes.clone();
            relabelled[index_row_id..index_row_id + 4].copy_from_slice(&id.to_le_bytes());
            match decode_index(&relabelled) {
                Err(PersistError::Corrupt {
                    section: "header",
                    detail,
                }) => assert!(detail.contains(want), "v{version}: {detail}"),
                other => panic!("v{version} with row id {id} gave {other:?}"),
            }
        }
    }
}

#[test]
fn empty_and_tiny_inputs_error_cleanly() {
    for len in 0..INDEX_MAGIC.len() {
        assert!(matches!(
            decode_index(&vec![0u8; len]),
            Err(PersistError::BadMagic | PersistError::Truncated { .. })
        ));
    }
}

/// A mapper reconstructed from a loaded index maps every read exactly as
/// the mapper the index was built from — the contract `segram serve`
/// relies on for byte-identical output.
#[test]
fn built_and_loaded_mappers_agree_on_every_read() {
    let dataset = DatasetConfig::tiny(123).illumina(100);
    let config = SegramConfig::short_reads();
    let built = segram_core::SegramMapper::new(dataset.graph().clone(), config);

    let persisted = PersistedIndex {
        graph: built.graph().clone(),
        index: built.index().clone(),
        discard_frac: config.discard_frac,
        freq_threshold: built.freq_threshold(),
        changelog: None,
        provenance: None,
    };
    let loaded = decode_index(&encode_index(&persisted)).expect("round trip");
    let reloaded = segram_core::SegramMapper::from_parts(
        Arc::new(loaded.graph),
        loaded.index,
        config,
        loaded.freq_threshold,
    );

    for read in &dataset.reads {
        let (a, _) = built.map_read(&read.seq);
        let (b, _) = reloaded.map_read(&read.seq);
        assert_eq!(a, b, "mapping diverged for a read");
    }
}
