//! # dht-core
//!
//! The paper's primary contribution: top-k **2-way** and **multi-way (n-way)
//! joins** over discounted hitting time.
//!
//! ## 2-way joins (Sections V & VI)
//!
//! Given two node sets `P` and `Q`, a 2-way join returns the `k` node pairs
//! `(p, q)` with the highest truncated DHT scores `h_d(p, q)`.  Five
//! algorithms are implemented:
//!
//! | algorithm | strategy | complexity |
//! |---|---|---|
//! | [`twoway::fbj`] (F-BJ) | forward absorbing walk per pair | `O(|P||Q|·d|E|)` |
//! | [`twoway::fidj`] (F-IDJ) | iterative deepening over sources, `X⁺` pruning | `O(|P||Q|·d|E|)` worst case |
//! | [`twoway::bbj`] (B-BJ) | one backward walk per target | `O(|Q|·d|E|)` |
//! | [`twoway::bidj`] (B-IDJ-X) | backward + iterative deepening, `X_l⁺` bound | `O(|Q|·d|E|)` |
//! | [`twoway::bidj`] (B-IDJ-Y) | backward + iterative deepening, `Y_l⁺` bound (Theorem 1) | `O(|Q|·d|E|)` |
//!
//! ## n-way joins (Sections III, IV & VI-D)
//!
//! Given a query graph `Q` over `n` node sets, a monotone aggregate `f` and
//! `k`, the n-way join returns the `k` n-tuples with the highest aggregate of
//! per-edge DHT scores.  Four algorithms are implemented:
//!
//! * [`multiway::nl`] — Nested Loop (NL): enumerate every candidate tuple;
//! * [`multiway::ap`] — All Pairs (AP): full 2-way join per query edge, then
//!   a Pull/Bound Rank Join;
//! * [`multiway::pj`] — Partial Join (PJ, Algorithm 1): top-`m` 2-way joins
//!   per edge, rank join with candidate buffers, re-running a top-`(m+1)`
//!   join whenever a list is exhausted;
//! * [`multiway::pji`] — Incremental Partial Join (PJ-i): like PJ but
//!   `getNextNodePair` is answered from the mutable bound structure `F`
//!   produced by the modified B-IDJ run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod answer;
pub mod error;
pub mod multiway;
pub mod query;
pub mod queryline;
pub mod spec;
pub mod stats;
pub mod twoway;

pub use aggregate::Aggregate;
pub use answer::Answer;
pub use error::CoreError;
pub use query::QueryGraph;
pub use spec::{AlgorithmChoice, NWaySpec, QuerySpec, TwoWaySpec};
pub use stats::{NWayStats, TwoWayStats};
// The session context every join takes as its last argument (re-exported so
// callers need not depend on `dht-walks` directly; `QueryCtx::one_shot()`
// is the context of a caller with no session).
pub use dht_walks::QueryCtx;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
