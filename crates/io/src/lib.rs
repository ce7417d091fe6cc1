//! # segram-io
//!
//! Bioinformatics file-format substrate for the SeGraM reproduction
//! (ISCA 2022). The paper's pre-processing consumes a FASTA reference and
//! VCF variation files (Section 5), query reads arrive as FASTQ, the graph
//! itself travels as GFA (implemented in [`segram_graph::gfa`]), and graph
//! mappings are interchanged as GAF. This crate supplies the missing four:
//!
//! * **FASTA** ([`read_fasta`] / [`write_fasta`]) — reference genomes;
//! * **FASTQ** ([`read_fastq`] / [`write_fastq`]) — query reads with
//!   Phred qualities; [`FastqFramer`] additionally splits reading into a
//!   cheap byte-framing half and a [`RawFastqRecord::decode`] half that
//!   can run on worker threads (the map engine's overlapped input path),
//!   and [`BgzfFastqFramer`] frames the same records out of a
//!   BGZF-compressed source;
//! * **VCF subset** ([`read_vcf`] / [`write_vcf`]) — variants, mapped to
//!   [`segram_graph::Variant`] for graph construction;
//! * **GAF** ([`read_gaf`] / [`write_gaf`]) — graph alignments with
//!   explicit node paths.
//!
//! The `segram index build` persistent-index format additionally builds on
//! the streaming binary primitives here ([`ByteWriter`] / [`ByteReader`],
//! checksummed chunk by chunk through [`xxh64`] or [`fnv1a64`]): a store
//! never needs a file-sized buffer, and reading never panics on
//! truncated or corrupt input.
//!
//! All parsers take `&str` input and report 1-based line numbers in
//! [`FormatError`]; callers own file handling (`std::fs::read_to_string`),
//! per C-RW-VALUE's spirit of keeping I/O at the edge.
//!
//! ## Example: from files to a genome graph
//!
//! ```
//! use segram_io::{read_fasta, read_vcf, Ambiguity, VcfOptions};
//! use segram_graph::build_graph;
//!
//! let fasta = ">chr1\nACGTACGTACGTACGT\n";
//! let vcf = "##fileformat=VCFv4.2\n\
//!            #CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\n\
//!            chr1\t4\t.\tT\tG\t.\tPASS\t.\n";
//!
//! let reference = &read_fasta(fasta, Ambiguity::Reject)?[0];
//! let variants = read_vcf(vcf, VcfOptions::default())?
//!     .chrom("chr1")
//!     .cloned()
//!     .unwrap_or_default();
//! let built = build_graph(&reference.seq, variants.into_sorted())?;
//! assert!(built.graph.node_count() > 1); // the SNP created a bubble
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bgzf;
mod binary;
mod error;
mod fasta;
mod fastq;
mod framer;
mod gaf;
mod stream;
mod vcf;

pub use bgzf::{
    bgzf_compress, bgzf_member, crc32, inflate, looks_like_gzip, BgzfBlock, BgzfBlocks, BgzfMode,
    BgzfWriter, BGZF_EOF, BGZF_MAX_PLAIN, GZIP_MAGIC,
};
pub use binary::{fnv1a64, xxh64, BinError, ByteReader, ByteWriter, Checksum, Fnv1a64, Xxh64};
pub use error::{BgzfError, FormatError};
pub use fasta::{read_fasta, write_fasta, Ambiguity, FastaRecord};
pub use fastq::{
    phred_from_error_rate, read_fastq, write_fastq, FastqReader, FastqRecord, MAX_PHRED,
    PHRED_OFFSET,
};
pub use framer::{
    BgzfFastqFramer, FastqFramer, FastqSplice, FrameScanner, RawFastqRecord, FRAMER_BLOCK,
};
pub use gaf::{read_gaf, write_gaf, GafRecord};
pub use stream::{GafWriter, SamWriter, StreamError};
pub use vcf::{read_vcf, write_vcf, VcfDocument, VcfOptions};
