//! Design-space exploration of the 4-bit in-SRAM multiplier (paper Fig. 7).
//!
//! The design space is spanned by three circuit parameters:
//!
//! * `τ0` — discharge time of the least-significant bit-line,
//! * `V_DAC,0` — DAC output voltage for input code 0,
//! * `V_DAC,FS` — DAC full-scale output voltage.
//!
//! The paper selects 48 design corners and simulates them with OPTIMA; this
//! module reproduces that sweep (and supports arbitrary grids).  Exploration
//! is embarrassingly parallel across corners, so the explorer fans the work
//! out over the error-strict sweep engine of [`optima_core::sweep`]: a
//! failing corner aborts the exploration with [`ImcError::CornerFailed`]
//! naming that corner (corners are never silently dropped), and results come
//! back in corner order — bit-identical for any thread count.

use crate::error::ImcError;
use crate::metrics::{evaluate_multiplier, MultiplierMetrics};
use crate::multiplier::{InSramMultiplier, MultiplierConfig};
use optima_circuit::array::ArrayConfig;
use optima_core::model::suite::ModelSuite;
use optima_core::sweep::par_map_sweep;
use optima_math::units::{Seconds, Volts};
use serde::{Deserialize, Serialize};

/// One corner of the design space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Discharge time of the least-significant bit-line.
    pub tau0: Seconds,
    /// DAC zero-code output voltage.
    pub vdac_zero: Volts,
    /// DAC full-scale output voltage.
    pub vdac_full_scale: Volts,
    /// Array geometry of the corner.
    pub array: ArrayConfig,
}

impl DesignPoint {
    /// Converts the point into a multiplier configuration (linear DAC).
    pub fn to_config(self) -> MultiplierConfig {
        MultiplierConfig::new(self.tau0, self.vdac_zero, self.vdac_full_scale)
            .with_array(self.array)
    }
}

/// One evaluated corner: the point plus its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignPointResult {
    /// The evaluated design point.
    pub point: DesignPoint,
    /// Its input-space metrics.
    pub metrics: MultiplierMetrics,
}

/// A rectangular design-space grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// τ0 grid values (seconds).
    pub tau0_values: Vec<f64>,
    /// V_DAC,0 grid values (volts).
    pub vdac_zero_values: Vec<f64>,
    /// V_DAC,FS grid values (volts).
    pub vdac_full_scale_values: Vec<f64>,
    /// Array geometries to co-explore (outermost grid axis).
    pub array_configs: Vec<ArrayConfig>,
}

impl DesignSpace {
    /// The paper's 48-corner grid: τ0 ∈ {0.16, 0.20, 0.24} ns,
    /// V_DAC,0 ∈ {0.3, 0.4, 0.5, 0.6} V, V_DAC,FS ∈ {0.7, 0.8, 0.9, 1.0} V
    /// (3 × 4 × 4 = 48 corners; every V_DAC,0 lies below every V_DAC,FS).
    pub fn paper_sweep() -> Self {
        DesignSpace {
            tau0_values: vec![0.16e-9, 0.20e-9, 0.24e-9],
            vdac_zero_values: vec![0.3, 0.4, 0.5, 0.6],
            vdac_full_scale_values: vec![0.7, 0.8, 0.9, 1.0],
            array_configs: vec![ArrayConfig::default()],
        }
    }

    /// A minimal grid for tests and examples (8 corners).
    pub fn small() -> Self {
        DesignSpace {
            tau0_values: vec![0.16e-9, 0.24e-9],
            vdac_zero_values: vec![0.3, 0.45],
            vdac_full_scale_values: vec![0.8, 1.0],
            array_configs: vec![ArrayConfig::default()],
        }
    }

    /// Replaces the geometry axis (builder style), so a sweep can co-explore
    /// array geometries with the electrical parameters.
    pub fn with_arrays(mut self, arrays: Vec<ArrayConfig>) -> Self {
        self.array_configs = arrays;
        self
    }

    /// All corners with `V_DAC,0 < V_DAC,FS` (invalid combinations are
    /// skipped), iterated in grid order: geometry outermost, then `τ0`, then
    /// `V_DAC,0`, then `V_DAC,FS` — with the default single-geometry axis
    /// this is exactly the paper's corner order.
    pub fn corners(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        self.array_configs.iter().flat_map(move |&array| {
            self.tau0_values.iter().flat_map(move |&tau0| {
                self.vdac_zero_values.iter().flat_map(move |&zero| {
                    self.vdac_full_scale_values
                        .iter()
                        .filter(move |&&full_scale| zero < full_scale)
                        .map(move |&full_scale| DesignPoint {
                            tau0: Seconds(tau0),
                            vdac_zero: Volts(zero),
                            vdac_full_scale: Volts(full_scale),
                            array,
                        })
                })
            })
        })
    }

    /// Number of valid corners, computed without materialising them.
    pub fn len(&self) -> usize {
        let valid_dac_pairs: usize = self
            .vdac_zero_values
            .iter()
            .map(|&zero| {
                self.vdac_full_scale_values
                    .iter()
                    .filter(|&&full_scale| zero < full_scale)
                    .count()
            })
            .sum();
        self.array_configs.len() * self.tau0_values.len() * valid_dac_pairs
    }

    /// Returns `true` when the grid produces no valid corners.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs the design-space exploration with the OPTIMA models.
#[derive(Debug, Clone)]
pub struct DesignSpaceExplorer {
    models: ModelSuite,
    threads: usize,
}

impl DesignSpaceExplorer {
    /// Creates an explorer using the given fitted models and the automatic
    /// thread count (see [`optima_core::sweep::default_threads`]).
    pub fn new(models: ModelSuite) -> Self {
        DesignSpaceExplorer { models, threads: 0 }
    }

    /// Sets the number of worker threads (builder style, `0` = automatic).
    /// The exploration result is bit-identical for any thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluates a single design point: the metrics read the nominal grid
    /// the multiplier built at construction.
    ///
    /// # Errors
    ///
    /// Propagates multiplier construction errors.
    pub fn evaluate_point(&self, point: DesignPoint) -> Result<DesignPointResult, ImcError> {
        let multiplier = InSramMultiplier::new(self.models.clone(), point.to_config())?;
        let metrics = evaluate_multiplier(&multiplier);
        Ok(DesignPointResult { point, metrics })
    }

    /// Explores every corner of the design space, in parallel.
    ///
    /// The sweep is **error-strict**: if any corner fails to evaluate, the
    /// exploration fails with [`ImcError::CornerFailed`] naming the first
    /// (lowest-index) failing corner — corners are never silently dropped,
    /// so the result always covers the complete design space.  Results come
    /// back in [`DesignSpace::corners`] order via index-ordered reassembly
    /// and are bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// * [`ImcError::EmptyDesignSpace`] if the grid has no valid corner.
    /// * [`ImcError::CornerFailed`] if a corner fails to evaluate.
    pub fn explore(&self, space: &DesignSpace) -> Result<Vec<DesignPointResult>, ImcError> {
        let corners: Vec<DesignPoint> = space.corners().collect();
        if corners.is_empty() {
            return Err(ImcError::EmptyDesignSpace);
        }

        par_map_sweep(&corners, self.threads, |_, &point| {
            self.evaluate_point(point)
        })
        .map_err(|err| {
            let point = corners[err.index];
            ImcError::from_sweep(
                err,
                format!(
                    "tau0 = {} ns, V_DAC,0 = {} V, V_DAC,FS = {} V, array {}",
                    point.tau0.0 * 1e9,
                    point.vdac_zero.0,
                    point.vdac_full_scale.0,
                    point.array.describe()
                ),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::linear_suite;

    #[test]
    fn paper_sweep_has_48_corners() {
        // 3 τ0 × (4 V_DAC,0 × 4 V_DAC,FS, all valid because 0.6 < 0.7) = 48.
        assert_eq!(DesignSpace::paper_sweep().len(), 48);
        assert!(!DesignSpace::paper_sweep().is_empty());
    }

    #[test]
    fn invalid_corner_combinations_are_skipped() {
        let space = DesignSpace {
            tau0_values: vec![0.2e-9],
            vdac_zero_values: vec![0.5, 0.9],
            vdac_full_scale_values: vec![0.7, 1.0],
            array_configs: vec![ArrayConfig::default()],
        };
        // (0.5, 0.7), (0.5, 1.0), (0.9, 1.0) are valid; (0.9, 0.7) is not.
        assert_eq!(space.len(), 3);
    }

    #[test]
    fn exploration_returns_metrics_for_every_valid_corner() {
        let explorer = DesignSpaceExplorer::new(linear_suite()).with_threads(2);
        let space = DesignSpace::small();
        let results = explorer.explore(&space).unwrap();
        assert_eq!(results.len(), space.len());
        for result in &results {
            assert!(result.metrics.energy_per_multiply.0 > 0.0);
            assert!(result.metrics.epsilon_mul.is_finite());
        }
    }

    #[test]
    fn exploration_results_are_bit_identical_at_any_thread_count() {
        let space = DesignSpace::small();
        let serial = DesignSpaceExplorer::new(linear_suite())
            .with_threads(1)
            .explore(&space)
            .unwrap();
        for threads in [2, 3, 8] {
            let parallel = DesignSpaceExplorer::new(linear_suite())
                .with_threads(threads)
                .explore(&space)
                .unwrap();
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Results follow the corners() grid order.
        let order: Vec<DesignPoint> = space.corners().collect();
        let got: Vec<DesignPoint> = serial.iter().map(|r| r.point).collect();
        assert_eq!(order, got);
    }

    #[test]
    fn corners_iterator_matches_len() {
        for space in [
            DesignSpace::paper_sweep(),
            DesignSpace::small(),
            DesignSpace {
                tau0_values: vec![0.2e-9],
                vdac_zero_values: vec![0.5, 0.9],
                vdac_full_scale_values: vec![0.7, 1.0],
                array_configs: vec![ArrayConfig::default()],
            },
        ] {
            assert_eq!(space.corners().count(), space.len());
        }
    }

    #[test]
    fn failing_corner_is_reported_not_dropped() {
        // τ0 = 0.5 ns makes the MSB column discharge for 4 ns, beyond the
        // 3 ns calibrated time range of the test suite — that corner cannot
        // be evaluated.  The old explorer silently dropped such corners and
        // returned a subset; the sweep must instead fail naming the corner.
        let space = DesignSpace {
            tau0_values: vec![0.16e-9, 0.5e-9],
            vdac_zero_values: vec![0.45],
            vdac_full_scale_values: vec![1.0],
            array_configs: vec![ArrayConfig::default()],
        };
        let first_bad_index = 1; // corners are ordered by tau0, then DAC values
        for threads in [1, 8] {
            let explorer = DesignSpaceExplorer::new(linear_suite()).with_threads(threads);
            match explorer.explore(&space) {
                Err(ImcError::CornerFailed {
                    index,
                    corner,
                    source,
                }) => {
                    assert_eq!(index, first_bad_index, "threads = {threads}");
                    assert!(corner.contains("0.5"), "corner description: {corner}");
                    assert!(matches!(*source, ImcError::Model(_)));
                }
                other => panic!("expected CornerFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn higher_full_scale_voltage_costs_more_energy() {
        // Fig. 7: a higher V_DAC,FS results in an increase in energy consumption.
        let explorer = DesignSpaceExplorer::new(linear_suite());
        let low = explorer
            .evaluate_point(DesignPoint {
                tau0: Seconds(0.16e-9),
                vdac_zero: Volts(0.45),
                vdac_full_scale: Volts(0.7),
                array: ArrayConfig::default(),
            })
            .unwrap();
        let high = explorer
            .evaluate_point(DesignPoint {
                tau0: Seconds(0.16e-9),
                vdac_zero: Volts(0.45),
                vdac_full_scale: Volts(1.0),
                array: ArrayConfig::default(),
            })
            .unwrap();
        assert!(high.metrics.energy_per_multiply.0 > low.metrics.energy_per_multiply.0);
    }

    #[test]
    fn longer_tau0_costs_more_energy() {
        // Fig. 7: increasing τ0 also leads to higher energy consumption.
        let explorer = DesignSpaceExplorer::new(linear_suite());
        let short = explorer
            .evaluate_point(DesignPoint {
                tau0: Seconds(0.16e-9),
                vdac_zero: Volts(0.45),
                vdac_full_scale: Volts(1.0),
                array: ArrayConfig::default(),
            })
            .unwrap();
        let long = explorer
            .evaluate_point(DesignPoint {
                tau0: Seconds(0.24e-9),
                vdac_zero: Volts(0.45),
                vdac_full_scale: Volts(1.0),
                array: ArrayConfig::default(),
            })
            .unwrap();
        assert!(long.metrics.energy_per_multiply.0 > short.metrics.energy_per_multiply.0);
    }

    #[test]
    fn geometry_axis_multiplies_the_corner_count() {
        let space =
            DesignSpace::small().with_arrays(vec![ArrayConfig::default(), ArrayConfig::int8()]);
        assert_eq!(space.len(), 2 * DesignSpace::small().len());
        assert_eq!(space.corners().count(), space.len());
        // First half explores the paper geometry, second half INT8.
        let corners: Vec<DesignPoint> = space.corners().collect();
        assert!(corners[..corners.len() / 2]
            .iter()
            .all(|c| c.array.is_paper()));
        assert!(corners[corners.len() / 2..]
            .iter()
            .all(|c| c.array == ArrayConfig::int8()));
    }

    #[test]
    fn co_explored_geometries_produce_distinct_metrics() {
        let explorer = DesignSpaceExplorer::new(linear_suite()).with_threads(2);
        let space = DesignSpace {
            tau0_values: vec![0.16e-9],
            vdac_zero_values: vec![0.45],
            vdac_full_scale_values: vec![1.0],
            array_configs: vec![ArrayConfig::default(), ArrayConfig::int8()],
        };
        let results = explorer.explore(&space).unwrap();
        assert_eq!(results.len(), 2);
        // The INT8 corner runs four analog passes per product, so it costs
        // more energy per multiplication than the single-pass INT4 corner.
        assert!(
            results[1].metrics.energy_per_multiply.0 > results[0].metrics.energy_per_multiply.0
        );
        assert!(results[1].metrics.epsilon_mul.is_finite());
    }

    #[test]
    fn empty_design_space_is_an_error() {
        let explorer = DesignSpaceExplorer::new(linear_suite());
        let space = DesignSpace {
            tau0_values: vec![0.2e-9],
            vdac_zero_values: vec![0.9],
            vdac_full_scale_values: vec![0.7],
            array_configs: vec![ArrayConfig::default()],
        };
        assert!(matches!(
            explorer.explore(&space),
            Err(ImcError::EmptyDesignSpace)
        ));
    }
}
