//! Calibration-snapshot smoke check: save → load must round-trip
//! bit-exactly, and the integrity gates (schema version, technology
//! fingerprint) must reject tampered files.
//!
//! Run by CI after the test suite; any violation is a [`BenchError`], so a
//! broken snapshot format can never silently ship.  Always uses the fast
//! calibration grid — the check exercises the snapshot format, not the
//! model fidelity.  Save and load times are measured by the `perfbench`
//! workspace (`core.snapshot.save_ms`, `core.snapshot.load_ms`).

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::Report;
use optima_circuit::array::ArrayConfig;
use optima_circuit::technology::Technology;
use optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_core::snapshot;
use optima_core::ModelError;
use optima_math::units::Volts;

pub struct SnapshotRoundtrip;

impl Experiment for SnapshotRoundtrip {
    fn name(&self) -> &'static str {
        "snapshot_roundtrip"
    }

    fn description(&self) -> &'static str {
        "Calibration-snapshot round-trip and integrity-gate smoke check"
    }

    fn paper_ref(&self) -> &'static str {
        "infrastructure"
    }

    fn run(&self, _ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let technology = Technology::tsmc65_like();
        let config = CalibrationConfig::fast();

        let outcome = Calibrator::new(technology.clone(), config.clone()).run()?;

        let dir =
            std::env::temp_dir().join(format!("optima-snapshot-smoke-{}", std::process::id()));
        // The gates below return early on violation; clean the scratch
        // directory up on every exit path, not just success.
        let result = Self::check_gates(&dir, &outcome, &technology, &config);
        std::fs::remove_dir_all(&dir).ok();
        result
    }
}

impl SnapshotRoundtrip {
    fn check_gates(
        dir: &std::path::Path,
        outcome: &optima_core::calibration::CalibrationOutcome,
        technology: &Technology,
        config: &CalibrationConfig,
    ) -> Result<Report, BenchError> {
        let path = dir.join("calibration-fast.v1.snap");
        let array = ArrayConfig::default();

        snapshot::save(&path, outcome, technology, config, &array)?;
        let loaded = snapshot::load(&path, technology, config, &array)?;
        if *outcome != loaded {
            return Err(BenchError::Failed(
                "snapshot round trip must be bit-exact".to_string(),
            ));
        }

        // Integrity gates: a different technology must be rejected...
        let mut other_tech = technology.clone();
        other_tech.nmos_vth = Volts(other_tech.nmos_vth.0 + 0.01);
        match snapshot::load(&path, &other_tech, config, &array) {
            Err(ModelError::SnapshotFingerprintMismatch { .. }) => {}
            other => {
                return Err(BenchError::Failed(format!(
                    "expected a technology-fingerprint rejection, got {other:?}"
                )))
            }
        }
        // ...and so must a different calibration grid...
        match snapshot::load(&path, technology, &CalibrationConfig::default(), &array) {
            Err(ModelError::SnapshotFingerprintMismatch { .. }) => {}
            other => {
                return Err(BenchError::Failed(format!(
                    "expected a config-fingerprint rejection, got {other:?}"
                )))
            }
        }
        // ...and so must a different array geometry: a stale 16×4 snapshot
        // must never silently serve an INT8 run.
        match snapshot::load(&path, technology, config, &ArrayConfig::int8()) {
            Err(ModelError::SnapshotFingerprintMismatch { .. }) => {}
            other => {
                return Err(BenchError::Failed(format!(
                    "expected a geometry-fingerprint rejection, got {other:?}"
                )))
            }
        }
        // A truncated file is corruption, not a mis-parse.
        let body = std::fs::read_to_string(&path).map_err(|source| BenchError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let truncated = dir.join("truncated.snap");
        std::fs::write(&truncated, &body[..body.len() / 2]).map_err(|source| BenchError::Io {
            path: truncated.display().to_string(),
            source,
        })?;
        match snapshot::load(&truncated, technology, config, &array) {
            Err(ModelError::SnapshotCorrupt { .. }) => {}
            other => {
                return Err(BenchError::Failed(format!(
                    "expected a corruption rejection, got {other:?}"
                )))
            }
        }

        let mut report = Report::new();
        report
            .note("calibration snapshot round trip OK (bit-exact)")
            .note(
                "  rejected: wrong technology, wrong config grid, wrong geometry, truncated file",
            );
        Ok(report)
    }
}
