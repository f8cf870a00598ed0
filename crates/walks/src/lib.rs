//! # dht-walks
//!
//! Discounted hitting time (DHT) measures and the random-walk engines that
//! evaluate them.
//!
//! The paper (Section V) unifies the two published DHT variants into one
//! *general form* (Definition 5):
//!
//! ```text
//! h(u,v)   = α · Σ_{i≥1}   λ^i · P_i(u,v) + β
//! h_d(u,v) = α · Σ_{i=1..d} λ^i · P_i(u,v) + β
//! ```
//!
//! where `P_i(u,v)` is the probability that a random walker starting at `u`
//! *first* hits `v` at exactly step `i`, `λ ∈ (0,1)` is the decay factor and
//! `α ≠ 0`, `β` are real coefficients.  Lemma 1 picks the truncation depth
//! `d` so that `|h − h_d| ≤ ε`.
//!
//! This crate provides:
//!
//! * [`DhtParams`] — the general form plus the `DHT_e` and `DHT_λ`
//!   parameterisations and the Lemma-1 depth selection;
//! * [`forward`] — forward *absorbing* walks that compute `P_i(u,v)` for a
//!   fixed source `u` and target `v` (used by F-BJ / F-IDJ);
//! * [`backward`] — backward walks (`backWalk` in the paper) that compute
//!   `P_i(·,q)` for **all** sources at once for a fixed target `q` (used by
//!   B-BJ / B-IDJ);
//! * [`bounds`] — the `X_l⁺` tail bound and the tighter `Y_l⁺(P,q)` bound of
//!   Theorem 1, which drive the pruning of B-IDJ-X and B-IDJ-Y;
//! * [`exact`] — small-graph oracles (path enumeration, dense all-pairs
//!   tables) used to validate the walk engines in tests;
//! * [`frontier`] — the sparse-frontier propagation kernel all of the above
//!   run on: reusable [`WalkScratch`] buffers (pooled via [`ScratchPool`]),
//!   frontier tracking with a push/pull switch to dense sweeps once the
//!   frontier saturates, and the [`WalkEngine`] knob selecting between the
//!   dense reference engine, the sparse one, and the per-graph calibrated
//!   `Auto` mode;
//! * [`cache`] — graph-lifetime query state: the [`QueryCtx`] session
//!   context with its pooled scratches and one store of each kind — the
//!   lock-striped, byte-budgeted [`SharedColumnCache`] of backward DHT
//!   columns and the [`SharedYTableStore`] of lazily built Y-bound tables,
//!   held by one private session or shared by many — which the join
//!   layers of `dht-core` / `dht-measures` and the `dht-engine` sessions
//!   run through.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backward;
pub mod bounds;
pub mod cache;
pub mod exact;
pub mod forward;
pub mod frontier;
pub mod params;

pub use backward::BackwardWalk;
pub use bounds::{x_upper_bound, YBoundTable};
pub use cache::{
    column_bytes, CacheStats, QueryCtx, SharedColumnCache, SharedYTableStore,
    DEFAULT_Y_TABLE_CAPACITY,
};
pub use forward::AbsorbingWalk;
pub use frontier::{EdgeValues, ScratchPool, WalkEngine, WalkScratch};
pub use params::{DhtParams, ParamsError};
// Re-exported so the join layers can record trace phases without taking a
// direct `dht-obs` dependency.
pub use dht_obs::{Phase, SpanGuard, Trace};
