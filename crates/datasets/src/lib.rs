//! # dht-datasets
//!
//! Synthetic analogues of the three real datasets used in the paper's
//! evaluation (Section VII-A), plus the train/test split procedures of the
//! effectiveness experiments (Section VII-B) and the seeded zipf-skewed
//! query mix ([`workloads`]) that `dht gen` writes for replay.
//!
//! | paper dataset | analogue | structure reproduced |
//! |---|---|---|
//! | DBLP 2012 (188k nodes, 1.14M edges, weighted, research areas) | [`dblp`] | community-structured weighted co-authorship graph; node sets are the top-`h` authors per area by weighted degree |
//! | Yeast PPI (2.4k nodes, 7.2k edges, 13 partitions) | [`yeast`] | small unweighted interaction graph with 13 non-overlapping partitions |
//! | YouTube (1.1M nodes, 3M edges, interest groups) | [`youtube`] | heavy-tailed social graph from an affiliation model; node sets are interest groups |
//!
//! The real datasets are not redistributable, so every generator is seeded
//! and parameterised by a [`Scale`]: `Tiny` for unit tests, `Bench` for the
//! benchmark harness (sized so that a full figure sweep finishes on a laptop
//! core), and `Full` approximating the paper's sizes.  The join algorithms
//! only depend on structural properties (density, degree skew, community
//! structure, weights), so relative algorithm behaviour is preserved; see
//! DESIGN.md for the substitution rationale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod dblp;
pub mod gen;
pub mod split;
pub mod workloads;
pub mod yeast;
pub mod youtube;

pub use dataset::{Dataset, Scale};
