//! Persistent calibration snapshots.
//!
//! Calibration is the deterministic front half of every experiment:
//! hundreds of golden-reference transients feeding six least-squares fits.
//! This module makes its result a portable artifact — a
//! [`crate::calibration::CalibrationOutcome`] can be saved to disk and
//! loaded back bit-exactly, so fitted models can be shipped or archived
//! without the circuit sweeps that produced them.  The fingerprints cover
//! the inputs of a calibration, not the simulator or fit code, so a
//! snapshot is only as current as the build that wrote it.
//!
//! The on-disk format is a small versioned text format (the workspace has no
//! serialization crates — the vendored `serde` is a marker-trait stub), with
//! three integrity gates checked by [`load`]:
//!
//! 1. a **schema tag** (`optima-calibration-snapshot v1`) so incompatible
//!    layouts are rejected instead of mis-parsed,
//! 2. a **technology fingerprint** — a hash over every parameter of the
//!    [`Technology`] the models were fitted against, and
//! 3. a **calibration-config fingerprint** — a hash over the sweep grids,
//!    polynomial degrees and the array geometry the models serve, so a
//!    fast-grid snapshot never satisfies a full-grid request and a stale
//!    16×4 snapshot never silently serves an INT8 run.
//!
//! Every `f64` is stored as its IEEE-754 bit pattern in hex (with the
//! decimal value alongside as a comment), so a save → load round trip is
//! bit-exact and the file still diffs meaningfully.  All load failures are
//! typed [`ModelError`] variants naming the offending path.

use crate::calibration::{CalibrationConfig, CalibrationOutcome, CalibrationReport};
use crate::error::ModelError;
use crate::model::discharge::DischargeModel;
use crate::model::energy::{DischargeEnergyModel, WriteEnergyModel};
use crate::model::mismatch::MismatchSigmaModel;
use crate::model::suite::ModelSuite;
use crate::model::supply::SupplyModel;
use crate::model::temperature::TemperatureModel;
use optima_circuit::array::ArrayConfig;
use optima_circuit::technology::Technology;
use optima_math::units::{Celsius, Volts};
use optima_math::Polynomial;
use std::fmt::Write as _;
use std::path::Path;

/// Schema tag of the current snapshot layout; bump on breaking changes.
pub const SCHEMA: &str = "optima-calibration-snapshot v1";

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a accumulator used for the fingerprints (stable across platforms —
/// no `DefaultHasher`, whose output is not guaranteed between releases).
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f64(&mut self, value: f64) -> &mut Self {
        self.bytes(&value.to_bits().to_le_bytes())
    }

    fn usize(&mut self, value: usize) -> &mut Self {
        self.bytes(&(value as u64).to_le_bytes())
    }

    fn f64s(&mut self, values: &[f64]) -> &mut Self {
        self.usize(values.len());
        for &v in values {
            self.f64(v);
        }
        self
    }
}

/// Stable fingerprint over every parameter of a [`Technology`].
pub fn technology_fingerprint(tech: &Technology) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(tech.name.as_bytes())
        .f64(tech.vdd_nominal.0)
        .f64(tech.nmos_vth.0)
        .f64(tech.pmos_vth.0)
        .f64(tech.nmos_beta)
        .f64(tech.pmos_beta)
        .f64(tech.channel_length_modulation)
        .f64(tech.subthreshold_swing)
        .f64(tech.bitline_cap_per_cell.0)
        .f64(tech.bitline_cap_fixed.0)
        .f64(tech.cell_node_cap.0)
        .f64(tech.temperature_nominal.0)
        .f64(tech.vth_temp_coefficient)
        .f64(tech.mobility_temp_exponent)
        .f64(tech.sigma_vth_mismatch.0)
        .f64(tech.sigma_beta_mismatch);
    fp.0
}

/// Stable fingerprint over the sweep grids and model degrees of a
/// [`CalibrationConfig`], plus the [`ArrayConfig`] geometry the models are
/// meant to serve.
///
/// The geometry is folded in because it feeds the calibration indirectly
/// (rows set the bit-line load, the slice width sets the DAC span the sweeps
/// must cover): a stale 16×4 snapshot must never silently satisfy an INT8
/// run.  The worker-thread knob is deliberately excluded: calibration is
/// bit-identical at any thread count, so the same snapshot serves all of
/// them.
pub fn config_fingerprint(config: &CalibrationConfig, array: &ArrayConfig) -> u64 {
    let mut fp = Fingerprint::new();
    fp.bytes(&[array.operand_bits, array.slice_bits, array.column_mux])
        .bytes(&array.rows.to_le_bytes())
        .bytes(&array.columns.to_le_bytes());
    fp.f64s(&config.wordline_voltages)
        .usize(config.time_samples)
        .f64(config.max_time.0)
        .f64s(&config.supply_voltages)
        .f64s(&config.temperatures)
        .f64s(&config.secondary_wordline_voltages)
        .usize(config.mismatch_samples)
        .usize(config.mismatch_time_points)
        .bytes(&config.seed.to_le_bytes())
        .usize(config.cells_on_bitline)
        .usize(config.reference_time_steps);
    let d = &config.degrees;
    for degree in [
        d.overdrive,
        d.time,
        d.supply,
        d.temperature,
        d.mismatch_time,
        d.mismatch_wordline,
        d.write_vdd,
        d.write_temperature,
        d.discharge_energy_vdd,
        d.discharge_energy_delta,
        d.discharge_energy_temperature,
    ] {
        fp.usize(degree);
    }
    fp.0
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

fn io_error(path: &Path, err: std::io::Error) -> ModelError {
    ModelError::SnapshotIo {
        path: path.display().to_string(),
        reason: err.to_string(),
    }
}

fn push_f64(out: &mut String, key: &str, value: f64) {
    let _ = writeln!(out, "{key} {:016x} # {value}", value.to_bits());
}

fn push_poly(out: &mut String, key: &str, poly: &Polynomial) {
    let _ = write!(out, "{key}");
    for &c in poly.coeffs() {
        let _ = write!(out, " {:016x}", c.to_bits());
    }
    let _ = writeln!(out, " # {poly}");
}

fn render(
    outcome: &CalibrationOutcome,
    technology: &Technology,
    config: &CalibrationConfig,
    array: &ArrayConfig,
) -> String {
    let models = outcome.models();
    let report = outcome.report();
    let mut out = String::new();
    let _ = writeln!(out, "{SCHEMA}");
    let _ = writeln!(
        out,
        "technology {:016x} # {}",
        technology_fingerprint(technology),
        technology.name
    );
    let _ = writeln!(
        out,
        "config {:016x} # {}",
        config_fingerprint(config, array),
        array.describe()
    );

    let discharge = models.discharge_model();
    push_f64(&mut out, "discharge.vdd_nominal", discharge.vdd_nominal().0);
    push_f64(&mut out, "discharge.threshold", discharge.threshold().0);
    push_poly(
        &mut out,
        "discharge.factor_overdrive",
        discharge.factor_overdrive(),
    );
    push_poly(&mut out, "discharge.factor_time", discharge.factor_time());
    push_f64(
        &mut out,
        "discharge.time_lo_ns",
        discharge.time_range_ns().0,
    );
    push_f64(
        &mut out,
        "discharge.time_hi_ns",
        discharge.time_range_ns().1,
    );
    push_f64(&mut out, "discharge.vwl_lo", discharge.vwl_range().0);
    push_f64(&mut out, "discharge.vwl_hi", discharge.vwl_range().1);

    let supply = models.supply_model();
    push_f64(&mut out, "supply.vdd_nominal", supply.vdd_nominal().0);
    push_poly(&mut out, "supply.correction", supply.correction());
    push_f64(&mut out, "supply.vdd_lo", supply.vdd_range().0);
    push_f64(&mut out, "supply.vdd_hi", supply.vdd_range().1);

    let temperature = models.temperature_model();
    push_f64(
        &mut out,
        "temperature.nominal",
        temperature.temperature_nominal().0,
    );
    push_poly(
        &mut out,
        "temperature.sensitivity",
        temperature.sensitivity(),
    );
    push_f64(
        &mut out,
        "temperature.lo",
        temperature.temperature_range().0,
    );
    push_f64(
        &mut out,
        "temperature.hi",
        temperature.temperature_range().1,
    );

    let mismatch = models.mismatch_model();
    push_poly(&mut out, "mismatch.factor_time", mismatch.factor_time());
    push_poly(
        &mut out,
        "mismatch.factor_wordline",
        mismatch.factor_wordline(),
    );

    let write = models.write_energy_model();
    push_poly(&mut out, "write_energy.factor_vdd", write.factor_vdd());
    push_poly(
        &mut out,
        "write_energy.factor_temperature",
        write.factor_temperature(),
    );

    let discharge_energy = models.discharge_energy_model();
    push_poly(
        &mut out,
        "discharge_energy.factor_vdd",
        discharge_energy.factor_vdd(),
    );
    push_poly(
        &mut out,
        "discharge_energy.factor_discharge",
        discharge_energy.factor_discharge(),
    );
    push_poly(
        &mut out,
        "discharge_energy.factor_temperature",
        discharge_energy.factor_temperature(),
    );

    push_f64(
        &mut out,
        "report.basic_discharge_rms_mv",
        report.basic_discharge_rms_mv,
    );
    push_f64(&mut out, "report.supply_rms_mv", report.supply_rms_mv);
    push_f64(
        &mut out,
        "report.temperature_rms_mv",
        report.temperature_rms_mv,
    );
    push_f64(
        &mut out,
        "report.mismatch_sigma_rms_mv",
        report.mismatch_sigma_rms_mv,
    );
    push_f64(
        &mut out,
        "report.write_energy_rms_fj",
        report.write_energy_rms_fj,
    );
    push_f64(
        &mut out,
        "report.discharge_energy_rms_fj",
        report.discharge_energy_rms_fj,
    );
    let _ = writeln!(
        out,
        "report.circuit_simulations {}",
        report.circuit_simulations
    );
    let _ = writeln!(out, "report.training_samples {}", report.training_samples);
    let _ = writeln!(out, "end");
    out
}

/// Saves a calibration outcome as a versioned snapshot at `path`.
///
/// The write is atomic (temp file + rename), so concurrent readers never see
/// a half-written snapshot.  Parent directories are created as needed.
///
/// # Errors
///
/// Returns [`ModelError::SnapshotIo`] naming the path on filesystem errors.
pub fn save(
    path: &Path,
    outcome: &CalibrationOutcome,
    technology: &Technology,
    config: &CalibrationConfig,
    array: &ArrayConfig,
) -> Result<(), ModelError> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| io_error(path, e))?;
        }
    }
    let body = render(outcome, technology, config, array);
    // Unique per process *and* per writer: concurrent saves of the same path
    // (e.g. parallel tests or processes writing one snapshot) must never
    // rename each other's half-written temp files into place.
    static WRITER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let writer = WRITER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), writer));
    std::fs::write(&tmp, body).map_err(|e| io_error(path, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_error(path, e))
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

struct Parser<'a> {
    path: &'a Path,
    lines: Vec<&'a str>,
    cursor: usize,
}

impl<'a> Parser<'a> {
    fn corrupt(&self, reason: impl Into<String>) -> ModelError {
        ModelError::SnapshotCorrupt {
            path: self.path.display().to_string(),
            line: self.cursor,
            reason: reason.into(),
        }
    }

    /// Next non-empty line with any `# comment` tail stripped.
    fn next_line(&mut self) -> Result<&'a str, ModelError> {
        while self.cursor < self.lines.len() {
            let raw = self.lines[self.cursor];
            self.cursor += 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if !line.is_empty() {
                return Ok(line);
            }
        }
        Err(ModelError::SnapshotCorrupt {
            path: self.path.display().to_string(),
            line: 0,
            reason: "file ended prematurely".to_string(),
        })
    }

    /// Consumes a line of the form `key <values...>` and returns the values.
    fn fields(&mut self, key: &str) -> Result<Vec<&'a str>, ModelError> {
        let line = self.next_line()?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some(found) if found == key => Ok(parts.collect()),
            Some(found) => Err(self.corrupt(format!("expected key '{key}', found '{found}'"))),
            None => Err(self.corrupt(format!("expected key '{key}' on an empty line"))),
        }
    }

    fn parse_bits(&self, field: &str) -> Result<f64, ModelError> {
        // `from_str_radix` alone would accept shortened or '+'-prefixed
        // tokens, silently loading a wildly wrong value from a corrupted
        // file; enforce the exact 16-hex-digit width the writer emits.
        if field.len() != 16 || !field.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.corrupt(format!("'{field}' is not a 16-digit hex bit pattern")));
        }
        u64::from_str_radix(field, 16)
            .map(f64::from_bits)
            .map_err(|_| self.corrupt(format!("'{field}' is not a 16-digit hex bit pattern")))
    }

    fn f64(&mut self, key: &str) -> Result<f64, ModelError> {
        let fields = self.fields(key)?;
        match fields.as_slice() {
            [field] => self.parse_bits(field),
            _ => Err(self.corrupt(format!("key '{key}' needs exactly one value"))),
        }
    }

    fn usize(&mut self, key: &str) -> Result<usize, ModelError> {
        let fields = self.fields(key)?;
        match fields.as_slice() {
            [field] => field
                .parse()
                .map_err(|_| self.corrupt(format!("'{field}' is not an unsigned integer"))),
            _ => Err(self.corrupt(format!("key '{key}' needs exactly one value"))),
        }
    }

    fn poly(&mut self, key: &str) -> Result<Polynomial, ModelError> {
        let fields = self.fields(key)?;
        if fields.is_empty() {
            return Err(self.corrupt(format!("polynomial '{key}' has no coefficients")));
        }
        let coeffs = fields
            .iter()
            .map(|f| self.parse_bits(f))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(Polynomial::new(coeffs))
    }

    fn fingerprint(
        &mut self,
        key: &str,
        expected: u64,
        what: &'static str,
    ) -> Result<(), ModelError> {
        let fields = self.fields(key)?;
        let [field] = fields.as_slice() else {
            return Err(self.corrupt(format!("key '{key}' needs exactly one fingerprint")));
        };
        let found = u64::from_str_radix(field, 16)
            .map_err(|_| self.corrupt(format!("'{field}' is not a hex fingerprint")))?;
        if found != expected {
            return Err(ModelError::SnapshotFingerprintMismatch {
                path: self.path.display().to_string(),
                what,
                found: format!("{found:016x}"),
                expected: format!("{expected:016x}"),
            });
        }
        Ok(())
    }
}

/// Loads a calibration snapshot from `path`, verifying the schema version
/// and the technology/configuration fingerprints.
///
/// A successful load is bit-exact: the returned outcome compares equal to
/// the one that was saved.
///
/// # Errors
///
/// * [`ModelError::SnapshotIo`] when the file cannot be read,
/// * [`ModelError::SnapshotSchemaMismatch`] for a foreign or future schema,
/// * [`ModelError::SnapshotFingerprintMismatch`] when the snapshot was
///   fitted for a different technology, calibration configuration or array
///   geometry,
/// * [`ModelError::SnapshotCorrupt`] for anything malformed — all naming
///   `path`.
pub fn load(
    path: &Path,
    technology: &Technology,
    config: &CalibrationConfig,
    array: &ArrayConfig,
) -> Result<CalibrationOutcome, ModelError> {
    let body = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    let mut parser = Parser {
        path,
        lines: body.lines().collect(),
        cursor: 0,
    };

    let schema = parser.next_line()?;
    if schema != SCHEMA {
        return Err(ModelError::SnapshotSchemaMismatch {
            path: path.display().to_string(),
            found: schema.to_string(),
            expected: SCHEMA.to_string(),
        });
    }
    parser.fingerprint(
        "technology",
        technology_fingerprint(technology),
        "technology",
    )?;
    parser.fingerprint(
        "config",
        config_fingerprint(config, array),
        "calibration config",
    )?;

    let discharge = DischargeModel::new(
        Volts(parser.f64("discharge.vdd_nominal")?),
        Volts(parser.f64("discharge.threshold")?),
        parser.poly("discharge.factor_overdrive")?,
        parser.poly("discharge.factor_time")?,
        (
            parser.f64("discharge.time_lo_ns")?,
            parser.f64("discharge.time_hi_ns")?,
        ),
        (
            parser.f64("discharge.vwl_lo")?,
            parser.f64("discharge.vwl_hi")?,
        ),
    );
    let supply = SupplyModel::new(
        Volts(parser.f64("supply.vdd_nominal")?),
        parser.poly("supply.correction")?,
        (parser.f64("supply.vdd_lo")?, parser.f64("supply.vdd_hi")?),
    );
    let temperature = TemperatureModel::new(
        Celsius(parser.f64("temperature.nominal")?),
        parser.poly("temperature.sensitivity")?,
        (parser.f64("temperature.lo")?, parser.f64("temperature.hi")?),
    );
    let mismatch = MismatchSigmaModel::new(
        parser.poly("mismatch.factor_time")?,
        parser.poly("mismatch.factor_wordline")?,
    );
    let write_energy = WriteEnergyModel::new(
        parser.poly("write_energy.factor_vdd")?,
        parser.poly("write_energy.factor_temperature")?,
    );
    let discharge_energy = DischargeEnergyModel::new(
        parser.poly("discharge_energy.factor_vdd")?,
        parser.poly("discharge_energy.factor_discharge")?,
        parser.poly("discharge_energy.factor_temperature")?,
    );

    let report = CalibrationReport {
        basic_discharge_rms_mv: parser.f64("report.basic_discharge_rms_mv")?,
        supply_rms_mv: parser.f64("report.supply_rms_mv")?,
        temperature_rms_mv: parser.f64("report.temperature_rms_mv")?,
        mismatch_sigma_rms_mv: parser.f64("report.mismatch_sigma_rms_mv")?,
        write_energy_rms_fj: parser.f64("report.write_energy_rms_fj")?,
        discharge_energy_rms_fj: parser.f64("report.discharge_energy_rms_fj")?,
        circuit_simulations: parser.usize("report.circuit_simulations")?,
        training_samples: parser.usize("report.training_samples")?,
    };
    let end = parser.next_line()?;
    if end != "end" {
        return Err(parser.corrupt(format!("expected trailing 'end', found '{end}'")));
    }

    let models = ModelSuite::new(
        discharge,
        supply,
        temperature,
        mismatch,
        write_energy,
        discharge_energy,
    );
    Ok(CalibrationOutcome::from_parts(models, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibrator;

    fn fixture() -> (Technology, CalibrationConfig, CalibrationOutcome) {
        static FIXTURE: std::sync::OnceLock<(Technology, CalibrationConfig, CalibrationOutcome)> =
            std::sync::OnceLock::new();
        FIXTURE
            .get_or_init(|| {
                let tech = Technology::tsmc65_like();
                let config = CalibrationConfig::fast();
                let outcome = Calibrator::new(tech.clone(), config.clone())
                    .run()
                    .expect("calibration succeeds");
                (tech, config, outcome)
            })
            .clone()
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "optima-snapshot-test-{}-{name}",
            std::process::id()
        ))
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let (tech, config, outcome) = fixture();
        let array = ArrayConfig::default();
        let path = temp_path("roundtrip.snap");
        save(&path, &outcome, &tech, &config, &array).unwrap();
        let loaded = load(&path, &tech, &config, &array).unwrap();
        assert_eq!(&outcome, &loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error_naming_the_path() {
        let (tech, config, _) = fixture();
        let path = temp_path("does-not-exist.snap");
        match load(&path, &tech, &config, &ArrayConfig::default()) {
            Err(ModelError::SnapshotIo { path: p, .. }) => {
                assert!(p.contains("does-not-exist.snap"));
            }
            other => panic!("expected SnapshotIo, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_file_is_rejected_naming_the_path_and_line() {
        let (tech, config, outcome) = fixture();
        let array = ArrayConfig::default();
        let path = temp_path("corrupt.snap");
        let mut body = render(&outcome, &tech, &config, &array);
        // Truncate mid-model: the parser must fail, not mis-parse.
        body.truncate(body.len() / 2);
        std::fs::write(&path, &body).unwrap();
        match load(&path, &tech, &config, &array) {
            Err(ModelError::SnapshotCorrupt { path: p, .. }) => {
                assert!(p.contains("corrupt.snap"));
            }
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
        // Garbage in a value position is also corruption, with a line number.
        let garbled = render(&outcome, &tech, &config, &array).replacen(
            "discharge.threshold ",
            "discharge.threshold zzzz ",
            1,
        );
        std::fs::write(&path, garbled).unwrap();
        match load(&path, &tech, &config, &array) {
            Err(ModelError::SnapshotCorrupt { line, .. }) => assert!(line > 0),
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let (tech, config, outcome) = fixture();
        let array = ArrayConfig::default();
        let path = temp_path("schema.snap");
        let body = render(&outcome, &tech, &config, &array).replacen(
            SCHEMA,
            "optima-calibration-snapshot v0",
            1,
        );
        std::fs::write(&path, body).unwrap();
        match load(&path, &tech, &config, &array) {
            Err(ModelError::SnapshotSchemaMismatch {
                path: p,
                found,
                expected,
            }) => {
                assert!(p.contains("schema.snap"));
                assert_eq!(found, "optima-calibration-snapshot v0");
                assert_eq!(expected, SCHEMA);
            }
            other => panic!("expected SnapshotSchemaMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_technology_fingerprint_is_rejected() {
        let (tech, config, outcome) = fixture();
        let array = ArrayConfig::default();
        let path = temp_path("tech-fp.snap");
        save(&path, &outcome, &tech, &config, &array).unwrap();
        let mut other_tech = tech.clone();
        other_tech.nmos_vth = Volts(0.5);
        match load(&path, &other_tech, &config, &array) {
            Err(ModelError::SnapshotFingerprintMismatch { path: p, what, .. }) => {
                assert!(p.contains("tech-fp.snap"));
                assert_eq!(what, "technology");
            }
            other => panic!("expected SnapshotFingerprintMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_config_fingerprint_is_rejected() {
        let (tech, config, outcome) = fixture();
        let array = ArrayConfig::default();
        let path = temp_path("config-fp.snap");
        save(&path, &outcome, &tech, &config, &array).unwrap();
        // A fast-grid snapshot must not satisfy a full-grid request.
        match load(&path, &tech, &CalibrationConfig::default(), &array) {
            Err(ModelError::SnapshotFingerprintMismatch { what, .. }) => {
                assert_eq!(what, "calibration config");
            }
            other => panic!("expected SnapshotFingerprintMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_default_geometry_snapshot_cannot_serve_an_int8_run() {
        let (tech, config, outcome) = fixture();
        let path = temp_path("geometry-fp.snap");
        save(&path, &outcome, &tech, &config, &ArrayConfig::default()).unwrap();
        // Same technology, same calibration grids — only the geometry moved.
        match load(&path, &tech, &config, &ArrayConfig::int8()) {
            Err(ModelError::SnapshotFingerprintMismatch {
                path: p,
                what,
                found,
                expected,
            }) => {
                assert!(p.contains("geometry-fp.snap"));
                assert_eq!(what, "calibration config");
                assert_ne!(found, expected);
            }
            other => panic!("expected SnapshotFingerprintMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprints_ignore_the_thread_knob() {
        let array = ArrayConfig::default();
        let config = CalibrationConfig::fast();
        let threaded = CalibrationConfig {
            threads: 7,
            ..config.clone()
        };
        assert_eq!(
            config_fingerprint(&config, &array),
            config_fingerprint(&threaded, &array)
        );
        assert_ne!(
            config_fingerprint(&config, &array),
            config_fingerprint(&CalibrationConfig::default(), &array)
        );
    }

    #[test]
    fn fingerprint_tracks_every_geometry_parameter() {
        let config = CalibrationConfig::fast();
        let base = ArrayConfig::default();
        let fp = |array: &ArrayConfig| config_fingerprint(&config, array);
        let variants = [
            ArrayConfig::int8(),
            ArrayConfig { rows: 32, ..base },
            ArrayConfig { columns: 8, ..base },
            ArrayConfig {
                columns: 8,
                column_mux: 2,
                ..base
            },
        ];
        for variant in variants {
            assert_ne!(
                fp(&base),
                fp(&variant),
                "{} vs {}",
                base.describe(),
                variant.describe()
            );
        }
    }

    #[test]
    fn technology_fingerprint_tracks_every_parameter_change() {
        let tech = Technology::tsmc65_like();
        let base = technology_fingerprint(&tech);
        let mut shifted = tech.clone();
        shifted.sigma_beta_mismatch += 1e-6;
        assert_ne!(base, technology_fingerprint(&shifted));
        let mut renamed = tech;
        renamed.name.push('x');
        assert_ne!(base, technology_fingerprint(&renamed));
    }
}
