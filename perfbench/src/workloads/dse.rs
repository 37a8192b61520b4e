//! `dse`: the fitted-model-heavy path.
//!
//! One round explores a seed-jittered design-space grid of a few hundred
//! corners inside the validated model domain, selects the fom, power and
//! variation corners, runs the INT4 PVT analysis of all three and the INT8
//! 16×8 sign-off of the fom corner with a reduced Monte-Carlo count.  After
//! set-up no golden simulation runs.

use super::Workload;
use crate::checks;
use crate::digest::Digest;
use crate::setup::{calibrate_private, calibration_config};
use crate::trace::Tracer;
use crate::{BenchError, Config};
use optima_circuit::array::ArrayConfig;
use optima_core::sweep::stream_seed;
use optima_core::ModelSuite;
use optima_imc::dse::{DesignPointResult, DesignSpace, DesignSpaceExplorer};
use optima_imc::fom::{select_corners, CornerKind, SelectedCorners};
use optima_imc::multiplier::InSramMultiplier;
use optima_imc::pvt_analysis::{PvtAnalysis, PvtAnalysisConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// τ0 range of the grids, in ns.  The MSB column discharges for 8·τ0, and
/// the calibrated time range ends at 2 ns, so τ0 must stay at or below
/// 0.25 ns (τ0 = 0.28 ns fails with "time 2.24 ns outside calibrated
/// range").
pub const TAU0_NS: (f64, f64) = (0.14, 0.25);
/// V_DAC,0 range of the grids, in V.
pub const VDAC_ZERO_V: (f64, f64) = (0.3, 0.6);
/// V_DAC,FS range of the grids, in V.
pub const VDAC_FULL_SCALE_V: (f64, f64) = (0.7, 1.0);

/// Monte-Carlo instances of each INT4 corner analysis.  With them the INT4
/// part of a round outweighs the INT8 sign-off, whose single Monte-Carlo
/// instance alone covers 65 536 operand pairs.
const INT4_MISMATCH_SAMPLES: usize = 700;

/// `n` values, one drawn uniformly from each of `n` equal cells of
/// `[lo, hi)`, in ascending order.
fn jittered(range: (f64, f64), n: usize, rng: &mut ChaCha8Rng) -> Vec<f64> {
    let (lo, hi) = range;
    let step = (hi - lo) / n as f64;
    (0..n)
        .map(|i| (lo + (i as f64 + rng.gen::<f64>()) * step).min(hi))
        .collect()
}

/// The design-space grid of round `round`: τ0 × V_DAC,0 × V_DAC,FS
/// values jittered from `seed`.
pub fn design_space(seed: u64, round: u64, tiny: bool) -> DesignSpace {
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, round));
    let (tau, zero, full_scale) = if tiny { (2, 2, 2) } else { (10, 8, 8) };
    DesignSpace {
        tau0_values: jittered(TAU0_NS, tau, &mut rng)
            .into_iter()
            .map(|ns| ns * 1e-9)
            .collect(),
        vdac_zero_values: jittered(VDAC_ZERO_V, zero, &mut rng),
        vdac_full_scale_values: jittered(VDAC_FULL_SCALE_V, full_scale, &mut rng),
        array_configs: vec![ArrayConfig::paper()],
    }
}

/// Outputs of the last round.
#[derive(Debug, Default)]
struct Outputs {
    corners: usize,
    results: Vec<DesignPointResult>,
    selected: Option<SelectedCorners>,
    analyses: Vec<(PvtAnalysis, usize)>,
}

/// Workload state.
#[derive(Debug)]
pub struct Dse {
    config: Config,
    models: ModelSuite,
    last: Outputs,
}

impl Dse {
    fn int4_analysis(&self, seed: u64, threads: usize) -> PvtAnalysisConfig {
        let base = if self.config.tiny {
            PvtAnalysisConfig::fast()
        } else {
            PvtAnalysisConfig::default()
        };
        PvtAnalysisConfig {
            mismatch_samples: if self.config.tiny {
                4
            } else {
                INT4_MISMATCH_SAMPLES
            },
            seed,
            threads,
            ..base
        }
    }

    fn int8_analysis(seed: u64, threads: usize) -> PvtAnalysisConfig {
        PvtAnalysisConfig {
            supply_voltages: vec![0.9, 1.1],
            temperatures: vec![0.0, 60.0],
            mismatch_samples: 1,
            seed,
            threads,
        }
    }
}

impl Workload for Dse {
    const NAME: &'static str = "dse";
    const WORK: &'static str = "rounds";
    const THROUGHPUT: &'static str = "dse_rounds_per_s";
    const CYCLE: u64 = 4;
    const PARALLEL_SPAN: &'static str = "imc.dse.explore";

    fn setup(config: &Config, dir: &Path, tracer: &mut Tracer) -> Result<Self, BenchError> {
        let calibration = calibration_config(16, config.seed, config.threads, config.tiny);
        let calibrated = calibrate_private(dir, &calibration, tracer)?;
        tracer.count(
            "core.calibration.circuit_simulations",
            calibrated.outcome.report().circuit_simulations as f64,
        );
        if !calibrated.snapshot_hit {
            return Err(BenchError(
                "calibration snapshot did not reload".to_string(),
            ));
        }
        Ok(Dse {
            config: *config,
            models: calibrated.outcome.into_models(),
            last: Outputs::default(),
        })
    }

    fn run_unit(
        &mut self,
        id: u64,
        threads: usize,
        tracer: &mut Tracer,
    ) -> Result<u64, BenchError> {
        let round = id % Self::CYCLE;
        let seed = stream_seed(self.config.seed, round);
        let space = design_space(self.config.seed, round, self.config.tiny);
        let explorer = DesignSpaceExplorer::new(self.models.clone()).with_threads(threads);
        let results = tracer.span("imc.dse.explore", || explorer.explore(&space))?;
        let grid_points = space.tau0_values.len()
            * space.vdac_zero_values.len()
            * space.vdac_full_scale_values.len();
        tracer.count("imc.dse.corners", results.len() as f64);
        tracer.count("imc.dse.grid_points", grid_points as f64);
        let selected = tracer.span("imc.fom.select", || select_corners(&results))?;

        let mut analyses = Vec::with_capacity(4);
        let int4 = self.int4_analysis(seed, threads);
        for kind in [CornerKind::Fom, CornerKind::Power, CornerKind::Variation] {
            let config = selected.corner(kind).point.to_config();
            let multiplier = InSramMultiplier::new(self.models.clone(), config)?;
            let analysis = tracer.span("imc.pvt.int4", || PvtAnalysis::run(&multiplier, &int4))?;
            let multiplies = int4.mismatch_samples * multiplier.array().input_space();
            tracer.count("imc.pvt.mc_multiplies", multiplies as f64);
            analyses.push((analysis, int4.mismatch_samples));
        }
        let int8 = Self::int8_analysis(seed, threads);
        let config = selected
            .fom
            .point
            .to_config()
            .with_array(ArrayConfig::int8());
        let multiplier = InSramMultiplier::new(self.models.clone(), config)?;
        let analysis = tracer.span("imc.pvt.int8", || PvtAnalysis::run(&multiplier, &int8))?;
        let multiplies = int8.mismatch_samples * multiplier.array().input_space();
        tracer.count("imc.pvt.mc_multiplies", multiplies as f64);
        analyses.push((analysis, int8.mismatch_samples));

        self.last = Outputs {
            corners: space.len(),
            results,
            selected: Some(selected),
            analyses,
        };
        Ok(1)
    }

    fn check_unit(&mut self, _id: u64, _tracer: &mut Tracer) -> Result<u64, BenchError> {
        let out = &self.last;
        let selected = out
            .selected
            .as_ref()
            .ok_or_else(|| BenchError("no round ran".to_string()))?;
        checks::count("explored corners", out.results.len(), out.corners)?;
        let mut digest = Digest::new();
        for result in &out.results {
            let m = &result.metrics;
            let values = [
                result.point.tau0.0,
                result.point.vdac_zero.0,
                result.point.vdac_full_scale.0,
                m.epsilon_mul,
                m.rms_error_lsb,
                m.max_error_lsb,
                m.energy_per_multiply.0,
                m.energy_per_operation.0,
                m.sigma_at_max_discharge.0,
                m.worst_case_sigma.0,
            ];
            checks::all_finite("corner metrics", &values)?;
            digest.f64s(&values);
        }
        checks::selection_consistent(&out.results, selected)?;
        for kind in [CornerKind::Fom, CornerKind::Power, CornerKind::Variation] {
            let point = selected.corner(kind).point;
            digest
                .f64(point.tau0.0)
                .f64(point.vdac_zero.0)
                .f64(point.vdac_full_scale.0);
        }
        for (analysis, samples) in &out.analyses {
            let mc = &analysis.mismatch_monte_carlo;
            checks::count(
                "Monte-Carlo samples",
                mc.per_sample_error_lsb.len(),
                *samples,
            )?;
            checks::all_finite("Monte-Carlo errors", &mc.per_sample_error_lsb)?;
            let summary = [
                analysis.nominal_epsilon_mul,
                analysis.worst_case_sigma,
                mc.mean_error_lsb,
                mc.std_error_lsb,
                mc.worst_error_lsb,
            ];
            checks::all_finite("PVT summary", &summary)?;
            let profile = &analysis.result_profile;
            let expected: Vec<f64> = profile
                .expected_results
                .iter()
                .map(|&r| f64::from(r))
                .collect();
            digest
                .f64s(&summary)
                .f64s(&mc.per_sample_error_lsb)
                .f64s(&expected)
                .f64s(&profile.average_error_lsb)
                .f64s(&profile.analog_sigma)
                .f64s(&analysis.supply_sweep.average_error_lsb)
                .f64s(&analysis.temperature_sweep.average_error_lsb);
        }
        Ok(digest.finish())
    }

    fn statistics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}
