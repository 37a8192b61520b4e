//! Shared plumbing for the experiment harnesses.
//!
//! Every figure, table and ablation of the paper is an
//! [`experiments::Experiment`] registered in [`experiments::registry`] (see
//! DESIGN.md for the per-experiment index) and driven by the `optima` CLI
//! binary.  This library additionally provides the pieces they share: model
//! calibration (snapshot-cached), the three Table I corner configurations,
//! structured [`report::Report`]s with text/JSON renderers, and the serving
//! load sweep behind `BENCH_serving.json`.  Timing lives in the separate
//! `perfbench` workspace.

use optima_circuit::array::ArrayConfig;
use optima_circuit::technology::Technology;
use optima_core::calibration::{CalibrationConfig, CalibrationOutcome, Calibrator};
use optima_core::snapshot;
use optima_core::ModelError;
use optima_imc::multiplier::MultiplierConfig;
use std::path::{Path, PathBuf};

pub mod experiments;
pub mod json;
pub mod report;
pub mod serving;

/// Environment variable controlling the calibration-snapshot cache:
/// unset → cache under `target/optima/`, `0`/`off` → disabled,
/// anything else → cache directory.
pub const CALIBRATION_CACHE_ENV_VAR: &str = "OPTIMA_CALIBRATION_CACHE";

/// Directory of the calibration-snapshot cache, or `None` when disabled via
/// [`CALIBRATION_CACHE_ENV_VAR`].
///
/// The default lives under the workspace `target/` directory (resolved
/// relative to this crate's manifest, so binaries and tests agree on the
/// location regardless of their working directory) and is therefore swept
/// away by `cargo clean` like every other build artifact.
pub fn calibration_cache_dir() -> Option<PathBuf> {
    match std::env::var(CALIBRATION_CACHE_ENV_VAR) {
        // An empty value is treated like an unset variable, not as a cache
        // directory — `OPTIMA_CALIBRATION_CACHE= cmd` must never litter the
        // working directory with snapshots.
        Err(_) => Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/optima")),
        Ok(value) if value.trim().is_empty() => {
            Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/optima"))
        }
        Ok(value) if value == "0" || value.eq_ignore_ascii_case("off") => None,
        Ok(value) => Some(PathBuf::from(value)),
    }
}

/// Path of the calibration snapshot for the fast or full grid at an array
/// geometry, when caching is enabled.
///
/// The paper's default geometry keeps the historical file names
/// (`calibration-{fast,full}.v1.snap`); other geometries get a
/// geometry-tagged name so differently-shaped snapshots coexist in the same
/// cache directory.
pub fn calibration_snapshot_path(fast: bool, array: &ArrayConfig) -> Option<PathBuf> {
    let grid = if fast { "fast" } else { "full" };
    let name = if array.is_paper() {
        format!("calibration-{grid}.v1.snap")
    } else {
        format!(
            "calibration-{grid}.{}x{}-int{}-s{}-m{}.v1.snap",
            array.rows, array.columns, array.operand_bits, array.slice_bits, array.column_mux
        )
    };
    calibration_cache_dir().map(|dir| dir.join(name))
}

/// Calibrates the OPTIMA models against the golden-reference simulator,
/// starting from a persistent calibration snapshot when one is available.
///
/// With `fast = true` a coarser sweep is used (for tests and smoke runs);
/// otherwise the default calibration grids are used.  The first call saves a
/// versioned snapshot under `target/optima/` (see
/// [`calibration_snapshot_path`]); subsequent calls — including every
/// experiment run — load it in milliseconds instead of re-running the
/// circuit sweeps.  The snapshot is invalidated automatically when the
/// schema version, the technology parameters or the calibration grids
/// change (fingerprint checks in [`optima_core::snapshot`]); a rejected
/// snapshot is reported on stderr and falls back to recalibration, so the
/// cache can never change results: loads are bit-exact.
///
/// The array's row count sets the simulated bit-line load
/// (`cells_on_bitline`), and the snapshot is keyed by the full geometry
/// through both its file name and the config fingerprint inside it — a
/// stale 16×4 snapshot can never silently serve an INT8 run.  At the
/// default geometry the paper's 16 rows equal the calibration default.
///
/// # Panics
///
/// Panics if calibration fails, which would indicate a bug in the fitting
/// pipeline rather than a recoverable user error.
pub fn calibrate(fast: bool, array: &ArrayConfig) -> (Technology, CalibrationOutcome) {
    let technology = Technology::tsmc65_like();
    let mut config = if fast {
        CalibrationConfig::fast()
    } else {
        CalibrationConfig::default()
    };
    // The rows are the cells loading every bit-line discharge the golden
    // reference simulates; re-fitting against the actual load is what makes
    // a tall array's calibration differ from the paper's 16-row macro.
    config.cells_on_bitline = array.rows as usize;
    let path = calibration_snapshot_path(fast, array);
    if let Some(path) = &path {
        match load_snapshot(path, &technology, &config, array) {
            Ok(Some(outcome)) => return (technology, outcome),
            Ok(None) => {}
            Err(err) => eprintln!(
                "warning: calibration snapshot {} rejected: {err}; recalibrating",
                path.display()
            ),
        }
    }
    let outcome = Calibrator::new(technology.clone(), config.clone())
        .run()
        .expect("model calibration must succeed");
    if let Some(path) = &path {
        if let Err(err) = snapshot::save(path, &outcome, &technology, &config, array) {
            eprintln!("warning: could not save calibration snapshot: {err}");
        }
    }
    (technology, outcome)
}

/// Loads the calibration snapshot at `path`: `Ok(None)` only when no file
/// exists there, so a stale, tampered or unreadable snapshot surfaces as an
/// error instead of passing for a cache miss.
fn load_snapshot(
    path: &Path,
    technology: &Technology,
    config: &CalibrationConfig,
    array: &ArrayConfig,
) -> Result<Option<CalibrationOutcome>, ModelError> {
    if let Ok(false) = path.try_exists() {
        return Ok(None);
    }
    snapshot::load(path, technology, config, array).map(Some)
}

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
    fn fast_calibration_produces_usable_models() {
        let (technology, outcome) = calibrate(true, &ArrayConfig::default());
        assert_eq!(outcome.into_models().vdd_nominal(), technology.vdd_nominal);
    }

    #[test]
    fn calibration_snapshot_cache_round_trips_bit_exactly() {
        // First call may calibrate and save; the second must load the
        // snapshot and produce the identical outcome.
        let array = ArrayConfig::default();
        let (_, first) = calibrate(true, &array);
        let path = calibration_snapshot_path(true, &array).expect("cache enabled by default");
        assert!(path.exists(), "snapshot missing at {}", path.display());
        let (_, second) = calibrate(true, &array);
        assert_eq!(first, second);
    }

    #[test]
    fn cache_knob_parses_the_environment_contract() {
        // Can't mutate the process environment safely under the parallel
        // test runner; assert the default resolution instead.
        let dir = calibration_cache_dir().expect("default cache is enabled");
        assert!(dir.ends_with("target/optima"));
        let array = ArrayConfig::default();
        assert!(calibration_snapshot_path(true, &array)
            .unwrap()
            .to_string_lossy()
            .contains("calibration-fast"));
        assert!(calibration_snapshot_path(false, &array)
            .unwrap()
            .to_string_lossy()
            .contains("calibration-full"));
    }

    #[test]
    fn snapshot_paths_are_keyed_by_geometry() {
        let default_path = calibration_snapshot_path(true, &ArrayConfig::default()).unwrap();
        assert!(default_path.ends_with("calibration-fast.v1.snap"));
        let int8_path = calibration_snapshot_path(true, &ArrayConfig::int8()).unwrap();
        assert_ne!(default_path, int8_path);
        assert!(int8_path.to_string_lossy().contains("16x8-int8"));
    }

    #[test]
    fn snapshot_loading_tells_a_missing_file_from_a_rejected_one() {
        let dir =
            std::env::temp_dir().join(format!("optima-bench-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calibration.snap");
        let (technology, outcome) = calibrate(true, &ArrayConfig::default());
        let config = CalibrationConfig::fast();
        let missing = load_snapshot(&path, &technology, &config, &ArrayConfig::default());
        assert_eq!(missing, Ok(None));

        // A snapshot saved for the paper macro cannot serve an INT8 array.
        snapshot::save(
            &path,
            &outcome,
            &technology,
            &config,
            &ArrayConfig::default(),
        )
        .unwrap();
        let rejected = load_snapshot(&path, &technology, &config, &ArrayConfig::int8());
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            matches!(
                rejected,
                Err(ModelError::SnapshotFingerprintMismatch { .. })
            ),
            "{rejected:?}"
        );
    }

    #[test]
    fn paper_corners_are_the_three_from_table_one() {
        let corners = paper_corners();
        assert_eq!(corners.len(), 3);
        assert_eq!(corners[0].0, "fom");
        assert_eq!(corners[1].0, "power");
        assert_eq!(corners[2].0, "variation");
    }
}
