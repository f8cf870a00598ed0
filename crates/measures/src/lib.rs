//! # dht-measures
//!
//! Alternative random-walk proximity measures, joined by `dht-core`'s own
//! top-k joins.
//!
//! The ICDE 2014 paper closes with: *"We plan to extend the study of n-way
//! join for other proximity measures on graphs, including Personalized
//! PageRank, SimRank, and PathSim."*  This crate carries out that extension:
//!
//! * [`measure`] — the [`ProximityMeasure`] trait (single-pair and bulk
//!   scoring, depth and tail bound), its partial scores
//!   ([`IterativeMeasure`]) and the [`MeasureSource`] the joins read;
//! * [`dht`] — an adapter presenting the paper's own DHT (from `dht-walks`)
//!   through the measure traits, so DHT competes on equal footing with the
//!   alternatives;
//! * [`ppr`] — truncated Personalized PageRank (Jeh & Widom, WWW 2003);
//! * [`hitting_time`] — the plain truncated hitting time (no discount),
//!   negated and normalised into a similarity;
//! * [`simrank`] — SimRank (Jeh & Widom, KDD 2002): a dense iterative solver
//!   for small graphs and a seeded Monte-Carlo estimator for larger ones;
//! * [`pathsim`] — a PathSim-style normalised walk-count similarity adapted
//!   to homogeneous graphs (Sun et al., VLDB 2011);
//! * [`katz`] — the truncated Katz index, the classical link-prediction
//!   baseline, in transition-normalised and raw-weighted variants.
//!
//! There is no join code here: a measure runs the very joins DHT runs.
//! Hand `MeasureSource::new(&measure, engine, threads)` to `dht-core`'s
//! `bbj::top_k`, `bidj::top_k_x` or `ap::run_over` together with a
//! `QueryCtx` — a session's, so its columns share the session cache, or
//! `QueryCtx::one_shot()`.
//!
//! The walk-based measures build their columns on `dht-walks`' kernel, as
//! DHT does.  Every solver is deterministic: Monte-Carlo estimators take
//! explicit seeds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dht;
pub mod error;
pub mod hitting_time;
pub mod katz;
pub mod measure;
pub mod pathsim;
pub mod ppr;
pub mod simrank;

pub use dht::DhtMeasure;
pub use error::MeasureError;
pub use hitting_time::TruncatedHittingTime;
pub use katz::{KatzIndex, KatzMode};
pub use measure::{IterativeMeasure, MeasureSource, ProximityMeasure};
pub use pathsim::PathSim;
pub use ppr::PersonalizedPageRank;
pub use simrank::{MonteCarloSimRank, SimRank, SimRankMatrix};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, MeasureError>;
