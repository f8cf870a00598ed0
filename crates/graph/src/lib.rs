//! # dht-graph
//!
//! Graph substrate for the discounted-hitting-time (DHT) multi-way join
//! library.  The ICDE 2014 paper assumes a *directed, weighted* graph `G`
//! stored as adjacency lists so that out-neighbours and in-neighbours of a
//! node can be enumerated quickly, together with the random-walk transition
//! probabilities `p_uv = w_uv / Σ_{v'} w_uv'`.
//!
//! This crate provides:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) graph with both a
//!   forward and a reverse adjacency index and pre-computed transition
//!   probabilities, which is exactly what the forward and backward walk
//!   engines in `dht-walks` need.
//! * [`GraphBuilder`] — a mutable edge-list builder used by the generators,
//!   the I/O routines and by tests.
//! * [`NodeSet`] — the node-set abstraction used as the operands of 2-way and
//!   n-way joins (`R_1 … R_n` in the paper).
//! * [`generators`] — seeded synthetic graph generators, including analogues
//!   of the structural families of the paper's datasets.
//! * [`analysis`] — structural helpers (degrees, connected components,
//!   triangle / 3-clique enumeration) used by the evaluation harness.
//! * [`io`] — a plain-text edge-list format for persisting graphs.
//! * [`binfmt`] — a versioned little-endian binary container that stores
//!   both CSR indexes verbatim, so loading streams each array straight into
//!   its final vector (peak: the graph plus 64 KiB) with bounds validation
//!   instead of per-edge text parsing.
//! * [`subgraph`] — edge-removal helpers used to derive "test graphs" for the
//!   link-prediction experiments.
//!
//! The design follows the guidance of the Rust performance book: contiguous
//! storage, pre-computed per-edge transition probabilities, `u32` node
//! identifiers, and no per-query allocation on the hot walk paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod binfmt;
pub mod builder;
pub mod csr;
pub mod error;
pub mod generators;
pub mod graph;
mod hash;
pub mod io;
pub mod node;
pub mod nodeset;
pub mod subgraph;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use hash::{fnv1a, fnv1a_fold, MixBuildHasher, MixHasher};
pub use node::NodeId;
pub use nodeset::NodeSet;

/// Convenience result alias used throughout the graph crate.
pub type Result<T> = std::result::Result<T, GraphError>;
