//! Reliability fault sweep: DNN accuracy vs. manufacturing defect rate and
//! deployed lifetime, with and without mitigation.
//!
//! For every `(defect rate, lifetime step)` grid point the experiment
//! samples a deterministic [`DefectMap`], ages it along an NBTI-like
//! [`LifetimeTrajectory`], rebuilds the analog product table through the
//! faulted multiplier and measures a trained CNN probe's test accuracy in
//! three arms:
//!
//! 1. **unmitigated** — the defects apply as-is,
//! 2. **redundancy** — replica spare columns remap the hard-faulted data
//!    columns ([`FaultState::with_redundancy`]); an unrepairable map falls
//!    back to the unmitigated arm and is reported as such,
//! 3. **redundancy + fine-tune** — the classifier head is additionally
//!    retrained against the faulted product table
//!    ([`Trainer::fine_tune_quantized`]), the standard noise-aware recovery
//!    step for degraded in-memory-compute arrays.
//!
//! The grid is fanned out over [`par_map_sweep`]; every per-item random
//! stream derives from `stream_seed(ctx.seed, item index)`, so the result is
//! bit-identical at any thread count.  Alongside the text report the
//! experiment writes `BENCH_reliability.json` (schema
//! `optima-reliability.v1`) and gates itself on two invariants: the
//! zero-defect fresh grid point must match the pristine baseline exactly,
//! and the mean mitigated accuracy must not fall below the mean unmitigated
//! accuracy.

use super::{BenchError, Experiment, ExperimentContext, Profile};
use crate::json::Json;
use crate::report::{Column, Report, Scalar, Table};
use optima_circuit::array::ArrayConfig;
use optima_circuit::defects::{DefectMap, DefectModel, LifetimeTrajectory};
use optima_core::sweep::par_map_sweep;
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::evaluate_batched;
use optima_dnn::multiplier::{InMemoryProducts, ProductTable};
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::training::{Trainer, TrainingConfig};
use optima_imc::multiplier::{InSramMultiplier, MultiplierTable, OperatingPoint};
use optima_imc::reliability::FaultState;
use optima_imc::ImcError;
use optima_math::seed::stream_seed;
use optima_math::units::Celsius;
use std::sync::Arc;

/// Array row holding the stored operand in the reliability model.
const STORED_ROW: u16 = 0;

/// File the machine-readable sweep lands in (current working directory,
/// next to `BENCH_serving.json`).
const REPORT_PATH: &str = "BENCH_reliability.json";

pub struct FaultSweep;

/// One evaluated `(defect rate, lifetime step)` grid point.
struct SweepRow {
    rate: f64,
    step: usize,
    defects: usize,
    unmitigated: f64,
    redundancy: f64,
    repaired: bool,
    remapped: usize,
    fine_tuned: f64,
}

impl Experiment for FaultSweep {
    fn name(&self) -> &'static str {
        "fault_sweep"
    }

    fn description(&self) -> &'static str {
        "DNN accuracy vs. defect rate and lifetime aging, unmitigated vs. spare-column redundancy vs. noise-aware fine-tuning (writes BENCH_reliability.json)"
    }

    fn paper_ref(&self) -> &'static str {
        "robustness ext."
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let quick = ctx.is_fast();
        let array = mitigated_geometry(ctx.array())?;
        let models = ctx.models()?;
        let [(_, fom), ..] = ctx.corners();
        let pristine = InSramMultiplier::new(models, fom.with_array(array))?;
        let nominal = pristine.nominal_operating_point();

        let rates: Vec<f64> = if quick {
            vec![0.0, 0.05, 0.15]
        } else {
            vec![0.0, 0.02, 0.05, 0.1, 0.2]
        };
        // The aging horizon stays at <= 2 steps (8 mV of V_th shift): the
        // fom corner drives the word line from V_DAC,0 = 0.3 V and the full
        // calibration grid only validates down to 0.35 V - 10 % margin, so
        // deeper aging would leave the calibrated model domain.
        let steps: Vec<usize> = if quick { vec![0, 2] } else { vec![0, 1, 2] };
        let trajectory = LifetimeTrajectory::nbti_like();
        trajectory.validate()?;

        // One trained float probe shared by every grid point.
        let dataset = probe_dataset(quick, ctx.seed());
        let network = trained_probe(&dataset, quick, ctx.seed())?;
        let baseline = pristine_accuracy(&pristine, nominal, &network, &dataset, &array)?;

        let grid: Vec<(f64, usize)> = rates
            .iter()
            .flat_map(|&rate| steps.iter().map(move |&step| (rate, step)))
            .collect();
        let seed = ctx.seed();
        let threads = ctx.threads();
        let rows: Vec<SweepRow> = par_map_sweep(&grid, threads, |index, &(rate, step)| {
            evaluate_grid_point(
                &pristine,
                nominal,
                &array,
                &network,
                &dataset,
                &trajectory,
                rate,
                step,
                stream_seed(seed, index as u64),
                seed,
                quick,
            )
        })
        .map_err(|failure| {
            let (rate, step) = grid[failure.index];
            BenchError::Imc(ImcError::from_sweep(
                optima_core::sweep::SweepError {
                    index: failure.index,
                    source: match failure.source {
                        BenchError::Imc(err) => err,
                        other => ImcError::InvalidConfiguration {
                            context: other.to_string(),
                        },
                    },
                },
                format!("defect rate {rate}, lifetime step {step}"),
            ))
        })?;

        // Gate 1: the zero-defect fresh grid point is the pristine baseline,
        // exactly — fault injection must cost nothing when nothing is broken.
        for row in rows.iter().filter(|r| r.rate == 0.0 && r.step == 0) {
            if row.unmitigated != baseline {
                return Err(BenchError::Failed(format!(
                    "zero-defect accuracy {} differs from the pristine baseline {}",
                    row.unmitigated, baseline
                )));
            }
        }
        // Gate 2 (accuracy floor): mitigation must not lose accuracy on
        // average — redundancy plus fine-tuning has to hold the floor the
        // unmitigated arm sets.
        let mean =
            |f: fn(&SweepRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64;
        let mean_unmitigated = mean(|r| r.unmitigated);
        let mean_fine_tuned = mean(|r| r.fine_tuned);
        if mean_fine_tuned < mean_unmitigated {
            return Err(BenchError::Failed(format!(
                "mean mitigated accuracy {mean_fine_tuned:.4} fell below the \
                 unmitigated floor {mean_unmitigated:.4}"
            )));
        }

        write_json_report(
            &rows,
            baseline,
            mean_unmitigated,
            mean_fine_tuned,
            ctx.profile(),
        )?;

        let mut report = Report::new();
        report
            .heading(1, "Fault sweep — accuracy vs. defect rate and lifetime")
            .blank()
            .note(format!(
                "geometry {}; pristine INT{} baseline accuracy {:.1} % \
                 ({} test images)",
                array.describe(),
                array.operand_bits,
                100.0 * baseline,
                dataset.test_len()
            ))
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Defect rate"),
            Column::plain("Lifetime step"),
            Column::plain("Defects"),
            Column::unit("Unmitigated", "%"),
            Column::unit("Redundancy", "%"),
            Column::plain("Repaired"),
            Column::plain("Remapped"),
            Column::unit("Red.+fine-tune", "%"),
        ]);
        for row in &rows {
            table.push_row(vec![
                Scalar::Float(row.rate, 2),
                Scalar::Int(row.step as i64),
                Scalar::Int(row.defects as i64),
                Scalar::Float(100.0 * row.unmitigated, 1),
                Scalar::Float(100.0 * row.redundancy, 1),
                Scalar::text(if row.repaired { "yes" } else { "no" }),
                Scalar::Int(row.remapped as i64),
                Scalar::Float(100.0 * row.fine_tuned, 1),
            ]);
        }
        report.table(table);
        report.blank().note(format!(
            "mean accuracy: unmitigated {:.1} %, redundancy + fine-tune {:.1} %; \
             machine-readable sweep written to {}",
            100.0 * mean_unmitigated,
            100.0 * mean_fine_tuned,
            REPORT_PATH
        ));
        Ok(report)
    }
}

/// The geometry the sweep runs at: the context's array plus `2 · column_mux`
/// spare columns (at most one per data column).
fn mitigated_geometry(base: ArrayConfig) -> Result<ArrayConfig, BenchError> {
    let array = base.with_spares((2 * base.column_mux as u16).min(base.columns));
    array.validate()?;
    Ok(array)
}

/// The probe dataset: 4 classes of 1×8×8 images, matching the probe CNN.
fn probe_dataset(quick: bool, seed: u64) -> Dataset {
    Dataset::synthetic(SyntheticImageConfig {
        classes: 4,
        image_size: 8,
        channels: 1,
        train_per_class: if quick { 10 } else { 24 },
        test_per_class: if quick { 6 } else { 16 },
        noise_level: 0.1,
        seed: seed ^ 0x00fa_175e,
    })
}

/// Trains the float CNN probe the sweep quantizes at every grid point.
fn trained_probe(dataset: &Dataset, quick: bool, seed: u64) -> Result<Network, BenchError> {
    use optima_dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x0fa0_175e);
    let mut network = Network::new(vec![
        Box::new(Conv2d::new(1, 4, 3, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2d::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(4 * 4 * 4, 4, &mut rng)),
    ]);
    Trainer::new(TrainingConfig {
        epochs: if quick { 6 } else { 12 },
        learning_rate: 0.05,
        learning_rate_decay: 0.95,
    })
    .train(&mut network, dataset)?;
    Ok(network)
}

/// Test accuracy of the probe quantized through a multiplier's product
/// table.  Evaluation runs serially (`threads = 1`) because the callers fan
/// out at the grid level already.
fn table_accuracy(
    table: MultiplierTable,
    label: String,
    network: &Network,
    dataset: &Dataset,
) -> Result<f64, BenchError> {
    let products: Arc<dyn ProductTable> = Arc::new(InMemoryProducts::new(table, label));
    let quantized = QuantizedNetwork::from_network(network, products)?;
    Ok(evaluate_batched(&quantized, dataset, 1)?.top1)
}

/// The pristine (no fault state) baseline accuracy.
fn pristine_accuracy(
    pristine: &InSramMultiplier,
    at: OperatingPoint,
    network: &Network,
    dataset: &Dataset,
    array: &ArrayConfig,
) -> Result<f64, BenchError> {
    let table = MultiplierTable::from_multiplier(pristine, at)?;
    table_accuracy(table, array.describe(), network, dataset)
}

/// Evaluates all three arms of one `(rate, step)` grid point.
#[allow(clippy::too_many_arguments)]
fn evaluate_grid_point(
    pristine: &InSramMultiplier,
    nominal: OperatingPoint,
    array: &ArrayConfig,
    network: &Network,
    dataset: &Dataset,
    trajectory: &LifetimeTrajectory,
    rate: f64,
    step: usize,
    item_seed: u64,
    probe_seed: u64,
    quick: bool,
) -> Result<SweepRow, BenchError> {
    let map = DefectMap::sample(array, &DefectModel::uniform(rate, item_seed))?;
    let defects = map.counts().total();
    let point = trajectory.at(step);
    // Self-heating raises the junction temperature; V_th aging and
    // retention growth ride in through the fault state.
    let at = OperatingPoint {
        vdd: nominal.vdd,
        temperature: Celsius(nominal.temperature.0 + point.temperature_delta.0),
    };

    // Arm 1: the defects apply as-is.
    let unmitigated_state =
        FaultState::unmitigated(array, map.clone(), STORED_ROW)?.with_lifetime(&point);
    let unmitigated_table =
        MultiplierTable::from_multiplier(&pristine.clone().with_faults(unmitigated_state)?, at)?;
    let unmitigated = table_accuracy(
        unmitigated_table.clone(),
        format!("unmitigated r={rate}"),
        network,
        dataset,
    )?;

    // Arm 2: replica-column redundancy; an unrepairable map (spares
    // exhausted) degrades to the unmitigated arm and is reported as such.
    let (redundancy_table, repaired, remapped) =
        match FaultState::with_redundancy(array, map, STORED_ROW) {
            Ok(state) => {
                let remapped = state.remap().remapped();
                let state = state.with_lifetime(&point);
                let table =
                    MultiplierTable::from_multiplier(&pristine.clone().with_faults(state)?, at)?;
                (table, true, remapped)
            }
            Err(ImcError::UnrepairableDefect { .. }) => (unmitigated_table, false, 0),
            Err(other) => return Err(other.into()),
        };
    let redundancy = table_accuracy(
        redundancy_table.clone(),
        format!("redundancy r={rate}"),
        network,
        dataset,
    )?;

    // Arm 3: noise-aware fine-tuning of the head on top of arm 2.  The
    // probe training is deterministic in its seed, so retraining rebuilds
    // the shared float network's exact weights as a private mutable copy.
    let products: Arc<dyn ProductTable> = Arc::new(InMemoryProducts::new(
        redundancy_table,
        format!("redundancy+ft r={rate}"),
    ));
    let mut tuned = trained_probe(dataset, quick, probe_seed)?;
    Trainer::new(TrainingConfig {
        epochs: if quick { 3 } else { 6 },
        learning_rate: 0.03,
        learning_rate_decay: 0.9,
    })
    .fine_tune_quantized(&mut tuned, dataset, &products)?;
    let quantized = QuantizedNetwork::from_network(&tuned, products)?;
    let fine_tuned = evaluate_batched(&quantized, dataset, 1)?.top1;

    Ok(SweepRow {
        rate,
        step,
        defects,
        unmitigated,
        redundancy,
        repaired,
        remapped,
        fine_tuned,
    })
}

/// Writes the machine-readable sweep (`optima-reliability.v1`).
fn write_json_report(
    rows: &[SweepRow],
    baseline: f64,
    mean_unmitigated: f64,
    mean_fine_tuned: f64,
    profile: Profile,
) -> Result<(), BenchError> {
    let document = Json::object(vec![
        ("schema", Json::str("optima-reliability.v1")),
        ("report", Json::str("fault-sweep")),
        ("generated_by", Json::str("fault_sweep")),
        ("profile", Json::str(profile.name())),
        ("pristine_accuracy", Json::Fixed(baseline, 4)),
        (
            "gates",
            Json::object(vec![
                ("zero_defect_matches_pristine", Json::Bool(true)),
                ("accuracy_floor", Json::Fixed(mean_unmitigated, 4)),
                ("mean_mitigated_accuracy", Json::Fixed(mean_fine_tuned, 4)),
                (
                    "mitigation_holds_floor",
                    Json::Bool(mean_fine_tuned >= mean_unmitigated),
                ),
            ]),
        ),
        (
            "rows",
            Json::Array(
                rows.iter()
                    .map(|row| {
                        Json::object(vec![
                            ("defect_rate", Json::Fixed(row.rate, 3)),
                            ("lifetime_step", Json::Int(row.step as i64)),
                            ("defects", Json::Int(row.defects as i64)),
                            ("unmitigated_accuracy", Json::Fixed(row.unmitigated, 4)),
                            ("redundancy_accuracy", Json::Fixed(row.redundancy, 4)),
                            ("repaired", Json::Bool(row.repaired)),
                            ("remapped_columns", Json::Int(row.remapped as i64)),
                            ("fine_tuned_accuracy", Json::Fixed(row.fine_tuned, 4)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(REPORT_PATH, document.render()).map_err(|source| BenchError::Io {
        path: REPORT_PATH.to_string(),
        source,
    })?;
    Ok(())
}
