//! **PROCLUS** — the projected clustering algorithm of *Fast Algorithms
//! for Projected Clustering* (Aggarwal, Procopiuc, Wolf, Yu, Park —
//! SIGMOD 1999).
//!
//! Given `N` points in `d` dimensions, a target cluster count `k` and an
//! average per-cluster dimensionality `l`, PROCLUS returns a `(k+1)`-way
//! partition `{C₁ … C_k, O}` (with `O` the outliers) *and* a dimension
//! set `Dᵢ` for every cluster such that the points of `Cᵢ` are tightly
//! correlated exactly on `Dᵢ`. Distances inside a cluster are measured
//! with the **Manhattan segmental distance** `d_D(x, y) =
//! (Σ_{j∈D} |x_j − y_j|)/|D|`, so clusters of different subspace
//! dimensionality remain comparable.
//!
//! The algorithm runs in three phases (Figure 2 of the paper):
//!
//! 1. **Initialization** ([`init`]) — a random sample of size `A·k`
//!    reduced by the Gonzalez greedy farthest-point heuristic
//!    ([`greedy`]) to `B·k` candidate medoids, a likely superset of a
//!    *piercing* set.
//! 2. **Iterative phase** ([`iterate`]) — hill climbing over medoid
//!    sets: localities ([`locality`]) → per-medoid dimension selection
//!    by standardized per-dimension average distances ([`dims`]) →
//!    point assignment ([`assign`]) → objective evaluation
//!    ([`evaluate`]) → replacement of *bad* medoids.
//! 3. **Refinement** ([`refine`]) — dimensions recomputed once from the
//!    final clusters instead of the localities, points reassigned, and
//!    outliers detected via each medoid's *sphere of influence*.
//!
//! # Example
//!
//! ```
//! use proclus_core::Proclus;
//! use proclus_data::SyntheticSpec;
//!
//! let data = SyntheticSpec::new(2_000, 12, 4, 4.0).seed(42).generate();
//! let model = Proclus::new(4, 4.0).seed(7).fit(&data.points).unwrap();
//! assert_eq!(model.clusters().len(), 4);
//! // Σ|Dᵢ| = k·l and every cluster has at least 2 dimensions.
//! let total: usize = model.clusters().iter().map(|c| c.dimensions.len()).sum();
//! assert_eq!(total, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod assign;
pub mod cache;
pub mod dims;
pub mod error;
pub mod evaluate;
pub mod greedy;
pub mod init;
pub mod iterate;
pub mod kernel;
pub mod layout;
pub mod locality;
pub mod model;
pub mod params;
pub mod pool;
pub mod refine;
pub mod registry;
pub mod rollover;
pub mod stream;

pub use error::ProclusError;
pub use model::{Degradation, FitDiagnostics, ProclusModel, ProjectedCluster};
pub use params::{InitStrategy, Proclus};
pub use registry::{
    decode_model, encode_model, ModelCodecError, ModelRegistry, RecoveryReport, RegistryError,
};
pub use rollover::{GateScores, RolloverOutcome, RolloverReport};
pub use stream::{
    BatchReport, DriftDetector, GateConfig, StreamConfig, StreamDiagnostics, StreamError,
    StreamServer, WindowSampler,
};
