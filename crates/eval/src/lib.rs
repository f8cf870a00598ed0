//! # dht-eval
//!
//! The paper's evaluation (Section VII): the effectiveness measures of
//! Section VII-B, and every table and figure as an experiment that reports
//! its rows and checks the paper's claims against the run's work counters.
//!
//! * [`roc`] — ROC curves and AUC computed from scored, labelled candidates
//!   (the paper's quality metrics, "robust to the skewness between possible
//!   and existing edges");
//! * [`linkpred`] — the link-prediction experiment: run a 2-way join on the
//!   test graph `T`, check predicted pairs against the true graph `G`
//!   (Figure 6, Table IV left column);
//! * [`cliquepred`] — the 3-clique-prediction experiment: run a triangle
//!   3-way join on `T`, check predicted triples against the 3-cliques of `G`
//!   (Table IV right column);
//! * [`experiments`] — Tables III–IV and Figures 6–10, each returning its
//!   report and its [`experiments::Claim`]s; `dht repro` runs them;
//! * [`workloads`] — the datasets and node-set selections the experiments
//!   use;
//! * [`report`] — plain-text table formatting shared by the experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cliquepred;
pub mod experiments;
pub mod linkpred;
pub mod report;
pub mod roc;
pub mod workloads;

pub use roc::{auc, roc_curve, RocCurve, RocPoint};
