//! Shared plumbing for the experiment harnesses.
//!
//! Every figure, table and ablation of the paper is an
//! [`experiments::Experiment`] registered in [`experiments::registry`] (see
//! DESIGN.md for the per-experiment index) and driven by the `optima` CLI
//! binary.  This library additionally provides the pieces they share: the
//! in-process model calibration of [`experiments::ExperimentContext`], the
//! three Table I corner configurations, structured [`report::Report`]s with
//! text/JSON renderers, and the serving load sweep behind
//! `BENCH_serving.json`.  Timing lives in the separate `perfbench` workspace.

use optima_imc::multiplier::MultiplierConfig;

pub mod experiments;
pub mod json;
pub mod report;
pub mod serving;

/// The three named corners of Table I with their paper configurations.
pub fn paper_corners() -> Vec<(&'static str, MultiplierConfig)> {
    vec![
        ("fom", MultiplierConfig::paper_fom_corner()),
        ("power", MultiplierConfig::paper_power_corner()),
        ("variation", MultiplierConfig::paper_variation_corner()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_corners_are_the_three_from_table_one() {
        let corners = paper_corners();
        assert_eq!(corners.len(), 3);
        assert_eq!(corners[0].0, "fom");
        assert_eq!(corners[1].0, "power");
        assert_eq!(corners[2].0, "variation");
    }
}
