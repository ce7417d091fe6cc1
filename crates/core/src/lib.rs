//! # segram-core
//!
//! The paper's primary contribution as a library: the **SeGraM** universal
//! genomic mapping pipeline (ISCA 2022) — MinSeed seeding + BitAlign
//! alignment — supporting all three use cases of Section 9:
//!
//! 1. **End-to-end mapping** ([`SegramMapper::map_read`]), for
//!    sequence-to-graph and (via [`SegramMapper::new_linear`])
//!    sequence-to-sequence mapping, short and long reads;
//! 2. **Standalone alignment** ([`SegramMapper::align_region`]);
//! 3. **Standalone seeding** ([`SegramMapper::seed`]).
//!
//! The mapping flow itself lives in the [`pipeline`] module as explicit
//! stages ([`Seeder`] → [`Prefilter`] → [`Aligner`]) driven by a
//! [`MapPipeline`]; [`MapEngine`] batches read streams over worker
//! threads with order-preserving output.
//!
//! There is one native mapper at run time. [`SegramMapper`] is the
//! single-index reference implementation — the library entry point and
//! the oracle of the tests and the perf ledger. `segram map` and `segram
//! serve` run [`ShardedIndex`]: the same pipeline over the index in
//! `N ≥ 1` coordinate-range shards behind the seeding [`ShardRouter`] (the
//! paper's per-HBM-channel instances, Section 8.3; `N = 1` is the whole
//! index in one shard). Both seed through the one loop,
//! [`segram_index::visit_seed_hits`], byte-identically for every `N`.
//!
//! It also hosts the software baseline mappers used by the evaluation
//! ([`GraphAlignerLike`], [`VgLike`], [`HgaLike`]) and the workload
//! measurement that parameterizes the `segram-hw` performance model
//! ([`measure_workload`]). The baselines are measuring instruments, not
//! runtime modes: [`BaselineAdapter`] lifts each into a [`ReadMapper`] so
//! `segram eval compare` ([`run_backend_eval`]) drives it and the native
//! index through the same engine under one methodology.
//!
//! ## Example
//!
//! ```
//! use segram_core::{SegramConfig, SegramMapper};
//! use segram_sim::DatasetConfig;
//!
//! let dataset = DatasetConfig::tiny(3).illumina(100);
//! let mapper = SegramMapper::new(dataset.graph().clone(), SegramConfig::short_reads());
//! let (mapping, stats) = mapper.map_read(&dataset.reads[0].seq);
//! assert!(mapping.is_some());
//! assert!(stats.minimizers > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod baseline;
mod config;
mod eval;
mod mapper;
pub mod pipeline;
mod sam;
mod shard;
mod workload;

pub use backend::{
    run_backend_eval, BackendEval, BaselineAdapter, EvalRead, MODELED_BITALIGN_NS,
    MODELED_MINSEED_NS, MODELED_REGION_CHARS,
};
pub use baseline::{BaselineMapper, BaselineMapping, GraphAlignerLike, HgaLike, StepTimes, VgLike};
pub use config::SegramConfig;
pub use eval::{evaluate, seeding_sensitivity, Evaluation};
pub use mapper::{MapStats, Mapping, ReadMapper, SegramMapper};
pub use pipeline::{
    elastic_route, gaf_record_for, route_batch, sam_record_for, Aligner, BitAlignStage,
    CancelToken, EngineBusy, EngineOptions, EngineReport, MapEngine, MapPipeline, MinSeedStage,
    MultiEngine, PoolReport, Prefilter, Priority, QueueDelayStats, QueueStats, ReadOutcome,
    RequestHandle, RequestPanicked, RouteHook, Seeder, ShardPlacement, ShardRouter, SpecPrefilter,
};
pub use sam::{mapq_estimate, sam_document, SamRecord};
pub use shard::{
    balance_loads, load_imbalance, DeclinedDelta, DeltaSwapReport, IndexShard, ShardStats,
    ShardedIndex, StoreLineage,
};
pub use workload::{map_with_threads, measure_workload, WorkloadMeasurement};
