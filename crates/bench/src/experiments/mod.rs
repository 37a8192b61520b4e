//! The unified experiment API.
//!
//! Every paper figure, table and ablation is an [`Experiment`]: a named,
//! self-describing unit implementing
//! `run(&mut ExperimentContext) -> Result<Report, BenchError>`.  The static
//! [`registry`] enumerates all of them; the `optima` CLI binary lists and
//! runs them (text and/or JSON output), and the golden tests drive the
//! registry directly.
//!
//! [`ExperimentContext`] carries the resolved execution [`Profile`]
//! (fast/full), the base RNG seed, the sweep-engine thread knob, the array
//! geometry, the Table I corners, and a lazily-calibrated
//! `(Technology, CalibrationOutcome)` handle: calibration runs in-process
//! against the golden reference, at most once per context and geometry,
//! even when every experiment executes.

use crate::report::Report;
use optima_circuit::array::ArrayConfig;
use optima_circuit::error::CircuitError;
use optima_circuit::technology::Technology;
use optima_core::calibration::{CalibrationConfig, CalibrationOutcome, Calibrator};
use optima_core::model::suite::ModelSuite;
use optima_core::sweep::default_threads;
use optima_core::ModelError;
use optima_dnn::DnnError;
use optima_imc::multiplier::MultiplierConfig;
use optima_imc::ImcError;
use optima_serve::ServeError;

mod ablation_dac;
mod ablation_poly_degree;
mod ablation_tau0;
mod fault_sweep;
mod fig1_sota;
mod fig4_nonideality;
mod fig5_pvt;
mod fig6_model_eval;
mod fig7_dse;
mod fig8_corner_pvt;
mod geometry_sweep;
mod serving_load;
mod table1_corners;
mod table2_imagenet;
mod table3_cifar;

/// Execution profile of an experiment run.
///
/// `Fast` selects coarse sweep grids, fewer Monte-Carlo samples and fewer
/// training epochs (CI smoke runs); `Full` is the paper-fidelity
/// configuration and the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Fast,
    Full,
}

impl Profile {
    pub fn is_fast(self) -> bool {
        self == Profile::Fast
    }

    /// The lowercase name used by the CLI and the JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Fast => "fast",
            Profile::Full => "full",
        }
    }

    /// Parses a profile name (case-insensitive `fast`/`full`).
    pub fn parse(value: &str) -> Option<Profile> {
        match value.to_ascii_lowercase().as_str() {
            "fast" => Some(Profile::Fast),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }
}

/// Error of a failed experiment run.
#[derive(Debug)]
pub enum BenchError {
    Model(ModelError),
    Imc(ImcError),
    Dnn(DnnError),
    Circuit(CircuitError),
    Serve(ServeError),
    Io {
        path: String,
        source: std::io::Error,
    },
    /// A violated experiment invariant (the experiment ran but its result
    /// fails a self-check, e.g. a serving run that is not bit-identical to
    /// the single-request path).
    Failed(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Model(e) => write!(f, "model error: {e}"),
            BenchError::Imc(e) => write!(f, "in-memory-computing error: {e}"),
            BenchError::Dnn(e) => write!(f, "DNN error: {e}"),
            BenchError::Circuit(e) => write!(f, "circuit error: {e}"),
            BenchError::Serve(e) => write!(f, "serving error: {e}"),
            BenchError::Io { path, source } => write!(f, "I/O error on {path}: {source}"),
            BenchError::Failed(message) => write!(f, "experiment failed: {message}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Model(e) => Some(e),
            BenchError::Imc(e) => Some(e),
            BenchError::Dnn(e) => Some(e),
            BenchError::Circuit(e) => Some(e),
            BenchError::Serve(e) => Some(e),
            BenchError::Io { source, .. } => Some(source),
            BenchError::Failed(_) => None,
        }
    }
}

impl From<ModelError> for BenchError {
    fn from(e: ModelError) -> Self {
        BenchError::Model(e)
    }
}

impl From<ImcError> for BenchError {
    fn from(e: ImcError) -> Self {
        BenchError::Imc(e)
    }
}

impl From<DnnError> for BenchError {
    fn from(e: DnnError) -> Self {
        BenchError::Dnn(e)
    }
}

impl From<CircuitError> for BenchError {
    fn from(e: CircuitError) -> Self {
        BenchError::Circuit(e)
    }
}

impl From<ServeError> for BenchError {
    fn from(e: ServeError) -> Self {
        BenchError::Serve(e)
    }
}

/// Execution context handed to every experiment.
pub struct ExperimentContext {
    profile: Profile,
    seed: u64,
    threads: usize,
    array: ArrayConfig,
    calibration: Option<(Technology, CalibrationOutcome)>,
}

impl ExperimentContext {
    /// A context with the given profile, the default seed (42), the
    /// automatic thread count and the paper's default array geometry.
    pub fn new(profile: Profile) -> Self {
        ExperimentContext {
            profile,
            seed: 42,
            threads: 0,
            array: ArrayConfig::default(),
            calibration: None,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sweep-engine worker threads; `0` (the default) selects the machine's
    /// available parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Array geometry the experiments run at.  Resets any calibration
    /// already computed for a previous geometry, so the next
    /// [`Self::calibration`] re-fits against this array's bit-line load.
    pub fn with_array(mut self, array: ArrayConfig) -> Self {
        self.set_array(array);
        self
    }

    /// In-place variant of [`Self::with_array`] for experiments that
    /// evaluate several geometries within one run.
    pub fn set_array(&mut self, array: ArrayConfig) {
        if self.array != array {
            self.calibration = None;
        }
        self.array = array;
    }

    pub fn profile(&self) -> Profile {
        self.profile
    }

    pub fn is_fast(&self) -> bool {
        self.profile.is_fast()
    }

    /// Base RNG seed; experiments derive their internal streams from it.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw thread knob (`0` = automatic).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The array geometry of this run (the paper's 16×4 INT4 by default).
    pub fn array(&self) -> ArrayConfig {
        self.array
    }

    /// The three named corners of Table I, in the order fom, power,
    /// variation: the paper's configurations.
    pub fn corners(&self) -> [(&'static str, MultiplierConfig); 3] {
        [
            ("fom", MultiplierConfig::paper_fom_corner()),
            ("power", MultiplierConfig::paper_power_corner()),
            ("variation", MultiplierConfig::paper_variation_corner()),
        ]
    }

    /// The thread count actually used by the sweep engine.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        }
    }

    /// The calibrated technology and outcome for this profile and array
    /// geometry, computed on first use and shared by every later caller of
    /// this context.
    ///
    /// Calibration always runs in-process against the golden reference
    /// (the fast profile uses the coarse [`CalibrationConfig::fast`] grid),
    /// so the models can never be older than the simulator and fit code
    /// they were built from.  The array's row count sets the simulated
    /// bit-line load (`cells_on_bitline`); at the default geometry the
    /// paper's 16 rows equal the calibration default.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Model`] when calibration fails, e.g. for an
    /// array geometry the golden reference cannot simulate; nothing is
    /// memoised then, so the next call retries.
    pub fn calibration(&mut self) -> Result<&(Technology, CalibrationOutcome), BenchError> {
        let calibration = match self.calibration.take() {
            Some(calibration) => calibration,
            None => {
                let technology = Technology::tsmc65_like();
                let mut config = if self.is_fast() {
                    CalibrationConfig::fast()
                } else {
                    CalibrationConfig::default()
                };
                // The rows are the cells loading every bit-line discharge the
                // golden reference simulates; re-fitting against the actual
                // load is what makes a tall array's calibration differ from
                // the paper's 16-row macro.
                config.cells_on_bitline = self.array.rows as usize;
                let outcome = Calibrator::new(technology.clone(), config).run()?;
                (technology, outcome)
            }
        };
        Ok(self.calibration.insert(calibration))
    }

    /// A clone of the calibrated technology.
    ///
    /// # Errors
    ///
    /// See [`Self::calibration`].
    pub fn technology(&mut self) -> Result<Technology, BenchError> {
        Ok(self.calibration()?.0.clone())
    }

    /// A clone of the fitted model suite.
    ///
    /// # Errors
    ///
    /// See [`Self::calibration`].
    pub fn models(&mut self) -> Result<ModelSuite, BenchError> {
        Ok(self.calibration()?.1.models().clone())
    }
}

/// One paper figure/table/ablation reproduction.
///
/// Implementations are stateless unit structs registered in [`registry`];
/// all run-time configuration comes through the [`ExperimentContext`].
pub trait Experiment: Sync {
    /// Registry name, as passed to `optima run` (e.g. `fig5_pvt`).
    fn name(&self) -> &'static str;

    /// One-line description for `optima list` and DESIGN.md.
    fn description(&self) -> &'static str;

    /// The paper artifact this reproduces (e.g. `Fig. 5`, `Table I`,
    /// `ablation`).
    fn paper_ref(&self) -> &'static str;

    /// Runs the experiment and returns its structured report.
    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError>;
}

/// The static registry of every experiment, in presentation order
/// (figures, tables, extensions, then ablations).
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 15] = [
        &fig1_sota::Fig1Sota,
        &fig4_nonideality::Fig4Nonideality,
        &fig5_pvt::Fig5Pvt,
        &fig6_model_eval::Fig6ModelEval,
        &fig7_dse::Fig7Dse,
        &fig8_corner_pvt::Fig8CornerPvt,
        &table1_corners::Table1Corners,
        &table2_imagenet::Table2Imagenet,
        &table3_cifar::Table3Cifar,
        &geometry_sweep::GeometrySweep,
        &fault_sweep::FaultSweep,
        &serving_load::ServingLoad,
        &ablation_dac::AblationDac,
        &ablation_poly_degree::AblationPolyDegree,
        &ablation_tau0::AblationTau0,
    ];
    &REGISTRY
}

/// Looks an experiment up by its registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

/// The generated per-experiment index (the body of `DESIGN.md`), derived
/// from the registry so it cannot drift from the code.
pub fn design_md() -> String {
    let mut out = String::from(
        "# DESIGN — experiment index\n\
         \n\
         <!-- GENERATED from the experiment registry: run -->\n\
         <!--   cargo run -q -p optima_bench --bin optima -- design-md > DESIGN.md -->\n\
         <!-- A test (crates/bench/tests/experiment_api.rs) fails when this file drifts. -->\n\
         \n\
         Every figure, table and ablation of the paper is one implementation of\n\
         `optima_bench::experiments::Experiment`, registered in the static\n\
         registry and driven by the `optima` CLI (`optima list`, `optima run`).\n\
         \n\
         | experiment | paper artifact | description |\n\
         |---|---|---|\n",
    );
    for experiment in registry() {
        out.push_str(&format!(
            "| `{name}` | {paper} | {desc} |\n",
            name = experiment.name(),
            paper = experiment.paper_ref(),
            desc = experiment.description(),
        ));
    }
    out.push_str(
        "\nRun everything: `cargo run -p optima_bench --bin optima -- run --all \
         --profile fast --json reports/`.\n\
         Profiles: `fast` (CI smoke grids) and `full` (paper fidelity); see\n\
         the \"Experiment runner\" section of README.md.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert!(!names.is_empty());
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(len, names.len(), "registry names must be unique");
    }

    #[test]
    fn find_resolves_registered_names_only() {
        assert!(find("fig5_pvt").is_some());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn profile_parsing_is_case_insensitive_and_strict() {
        assert_eq!(Profile::parse("fast"), Some(Profile::Fast));
        assert_eq!(Profile::parse("FULL"), Some(Profile::Full));
        assert_eq!(Profile::parse("quick"), None);
    }

    #[test]
    fn design_md_lists_every_registered_experiment() {
        let index = design_md();
        for experiment in registry() {
            assert!(
                index.contains(&format!("`{}`", experiment.name())),
                "DESIGN.md index is missing {}",
                experiment.name()
            );
        }
    }

    #[test]
    fn context_defaults_and_knobs() {
        let ctx = ExperimentContext::new(Profile::Fast)
            .with_seed(7)
            .with_threads(3);
        assert!(ctx.is_fast());
        assert_eq!(ctx.seed(), 7);
        assert_eq!(ctx.threads(), 3);
        assert_eq!(ctx.effective_threads(), 3);
        assert!(ctx.array().is_paper());
        let auto = ExperimentContext::new(Profile::Full);
        assert_eq!(auto.effective_threads(), default_threads());
    }

    #[test]
    fn corners_are_the_three_from_table_one() {
        let names = ExperimentContext::new(Profile::Fast)
            .corners()
            .map(|(name, _)| name);
        assert_eq!(names, ["fom", "power", "variation"]);
    }

    #[test]
    fn fast_calibration_produces_usable_models() {
        let mut ctx = ExperimentContext::new(Profile::Fast);
        let (technology, outcome) = ctx.calibration().unwrap();
        assert_eq!(outcome.models().vdd_nominal(), technology.vdd_nominal);
    }

    #[test]
    fn context_geometry_rekeys_the_calibration() {
        let mut ctx = ExperimentContext::new(Profile::Fast).with_array(ArrayConfig::int8());
        assert_eq!(ctx.array(), ArrayConfig::int8());
        // Populate, then switch geometry: the cached calibration must drop.
        ctx.calibration().expect("INT8 calibration succeeds");
        assert!(ctx.calibration.is_some());
        ctx.set_array(ArrayConfig::default());
        assert!(ctx.calibration.is_none());
        // Same geometry again: the cache survives.
        ctx.calibration().expect("paper calibration succeeds");
        ctx.set_array(ArrayConfig::default());
        assert!(ctx.calibration.is_some());
    }

    #[test]
    fn a_failed_calibration_is_an_error_not_a_panic() {
        // A bit line with no cells cannot be simulated.
        let mut ctx = ExperimentContext::new(Profile::Fast).with_array(ArrayConfig {
            rows: 0,
            ..Default::default()
        });
        assert!(matches!(ctx.calibration(), Err(BenchError::Model(_))));
        assert!(ctx.calibration.is_none());
    }
}
