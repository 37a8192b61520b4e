//! Cold calibration into a directory private to the run.
//!
//! Set-up never reads a shared snapshot cache: it calibrates from scratch,
//! saves the snapshot, loads it back and records whether the load hit
//! (returned the bit-identical outcome).  A parent commit and a change
//! therefore always start from the same cold state, and a rejected
//! snapshot shows up as a miss instead of a silent recalibration.

use crate::trace::Tracer;
use crate::BenchError;
use optima_circuit::array::ArrayConfig;
use optima_circuit::technology::Technology;
use optima_core::calibration::{CalibrationConfig, CalibrationOutcome, Calibrator};
use optima_core::snapshot;
use std::path::Path;

/// A freshly calibrated model suite and its snapshot round trip.
#[derive(Debug, Clone)]
pub struct Calibrated {
    /// The calibrated technology.
    pub technology: Technology,
    /// The cold calibration outcome.
    pub outcome: CalibrationOutcome,
    /// Whether the saved snapshot loaded back bit-identically.
    pub snapshot_hit: bool,
}

/// The calibration grid of a run: the default grid at `rows` cells per
/// bit-line, or the fast grid for smoke tests.
pub fn calibration_config(rows: u16, seed: u64, threads: usize, tiny: bool) -> CalibrationConfig {
    let base = if tiny {
        CalibrationConfig::fast()
    } else {
        CalibrationConfig::default()
    };
    CalibrationConfig {
        cells_on_bitline: usize::from(rows),
        seed,
        threads,
        ..base
    }
}

/// Calibrates cold at the paper's 16-row geometry, then saves the snapshot
/// into `dir` and loads it back.
///
/// # Errors
///
/// Propagates calibration and snapshot I/O errors.  A load that fails or
/// differs is not an error here; it is reported through
/// [`Calibrated::snapshot_hit`].
pub fn calibrate_private(
    dir: &Path,
    config: &CalibrationConfig,
    tracer: &mut Tracer,
) -> Result<Calibrated, BenchError> {
    let technology = Technology::tsmc65_like();
    let array = ArrayConfig::paper();
    let outcome = tracer.span("core.calibration.run", || {
        Calibrator::new(technology.clone(), config.clone()).run()
    })?;
    let path = dir.join("calibration.snap");
    tracer.span("core.snapshot.save", || {
        snapshot::save(&path, &outcome, &technology, config, &array)
    })?;
    let loaded = tracer.span("core.snapshot.load", || {
        snapshot::load(&path, &technology, config, &array)
    });
    let snapshot_hit = matches!(&loaded, Ok(reloaded) if *reloaded == outcome);
    tracer.count("core.snapshot.loads", 1.0);
    tracer.count("core.snapshot.hits", f64::from(u8::from(snapshot_hit)));
    Ok(Calibrated {
        technology,
        outcome,
        snapshot_hit,
    })
}
