//! Shared plumbing for the experiment harnesses.
//!
//! Every figure, table and ablation of the paper is an
//! [`experiments::Experiment`] registered in [`experiments::registry`] (see
//! DESIGN.md for the per-experiment index) and driven by the `optima` CLI
//! binary.  This library additionally provides the pieces they share: the
//! in-process model calibration and the three Table I corner configurations
//! of [`experiments::ExperimentContext`], structured [`report::Report`]s with
//! text/JSON renderers, and the serving load sweep behind
//! `BENCH_serving.json`.  Timing lives in the separate `perfbench` workspace.

pub mod experiments;
pub mod json;
pub mod report;
pub mod serving;
