//! # segram-cli
//!
//! The `segram` command-line tool: an end-to-end driver for the SeGraM
//! reproduction that a downstream user can run on real files. It strings
//! the workspace crates together along the paper's pipeline (Figure 2):
//!
//! ```text
//! segram construct    reference.fa + variants.vcf          -> graph.gfa   (step 0.1)
//! segram index        graph.gfa                            -> footprint   (step 0.2)
//! segram index build  reference.fa + variants.vcf          -> ref.sgi     (persistent index)
//! segram map          graph.gfa|ref.sgi + reads.fq         -> SAM / GAF   (steps 1-3)
//! segram serve        ref.sgi                              -> mapping daemon (TCP)
//! segram request      reads.fq -> daemon                   -> SAM / GAF
//! segram simulate     synthetic ref/VCF/graph/reads bundle (Section 10 stand-in)
//! ```
//!
//! [`commands`] holds the command table and the shared option parsers;
//! each subcommand is a plain function in a module of its own (`index`,
//! `map`, `eval`, `simulate`, and the daemon pair in `serve`), so
//! integration tests can call them through [`dispatch`] without spawning
//! processes; `main` is a thin dispatcher.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod args;
pub mod commands;
mod error;
mod eval;
mod index;
mod map;
mod serve;
mod simulate;

pub use args::Options;
pub use commands::{dispatch, USAGE};
pub use error::CliError;
pub use serve::serve_with_timeout;
