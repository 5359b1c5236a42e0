//! # prem-harness — the scenario-matrix engine
//!
//! The paper evaluates one TX1 in isolation vs. interference. This crate
//! generalizes that evaluation into a declarative *matrix*: a
//! [`MatrixSpec`] names the axes — kernels × platform presets
//! ([`MatrixPlatform`]) × LLC replacement policies ([`MatrixPolicy`]) ×
//! contention scenarios × seeds — and [`run_matrix`] expands the product
//! into independent simulation tasks executed on a deterministic
//! work-claiming thread pool ([`pool::parallel_map`]).
//!
//! Determinism is a design invariant, not an accident of scheduling:
//!
//! * per-cell seeds are derived from a **stable hash of the cell's
//!   coordinates** ([`seed::derive_seed`]) — never from enumeration order
//!   or worker identity;
//! * every cell owns its platform, RNG and interval stream;
//! * results are collected in expansion order.
//!
//! Consequently a matrix renders **byte-identical artifacts at any worker
//! count**, which `tests/determinism.rs` asserts.
//!
//! Since the run-plan refactor this crate also hosts the workspace's
//! **content-addressed execution pipeline** ([`plan`]): every consumer —
//! figure modules, matrix cells, benches — lowers its work to canonical
//! [`RunRequest`]s, and a [`PlanExecutor`] dedupes, executes and caches
//! them at run granularity on the same pool. [`run_matrix`] itself routes
//! every cell through it. The cache has a durable tier too: a
//! [`RunStore`] ([`store`]) persists executed outputs in fingerprint-
//! sharded segment files, and a [`PlanExecutor::with_store`] executor
//! resolves memory hit → disk hit → live execute, making warm artifact
//! regeneration near-instant (see `CACHING.md` at the repo root).
//!
//! ```
//! use prem_harness::{run_matrix, MatrixPlatform, MatrixPolicy, MatrixSpec};
//! use prem_kernels::Bicg;
//!
//! let mut spec = MatrixSpec::quick(vec![Box::new(Bicg::new(128, 128))]);
//! spec.platforms = vec![MatrixPlatform::tx1(), MatrixPlatform::tx2()];
//! spec.policies = vec![MatrixPolicy::VendorBiased];
//! let result = run_matrix(&spec, 2);
//! assert_eq!(result.cells().len(), spec.len());
//! assert!(result.to_csv().lines().count() > spec.len() / spec.seeds.len());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agg;
pub mod artifact;
pub mod flags;
pub mod plan;
pub mod pool;
mod run;
pub mod seed;
pub mod spec;
pub mod store;
pub mod wire;

pub use agg::MatrixResult;
pub use artifact::write_artifact;
pub use flags::{ExecFlags, EXEC_FLAGS_HELP};
pub use plan::{PlanExecutor, PlanSummary, PlatformSpec, RunRequest, RunSource};
pub use pool::{default_workers, parallel_map};
pub use run::{
    cell_requests, run_cell_with, run_matrix, run_matrix_metered, run_matrix_with, CellResult,
};
pub use spec::{
    scenario_name, CellSpec, CorunnerMix, MatrixPlatform, MatrixPolicy, MatrixScenario, MatrixSpec,
};
pub use store::{GcReport, RunStore, StoreStats};
pub use wire::{OwnedRunRequest, PlatformId, ResolvedRunRequest, WIRE_VERSION};
