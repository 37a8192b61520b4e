//! `dnn_eval`: the Table II/III multiplier-substitution loop.
//!
//! Set-up trains the four model-zoo networks briefly on the synthetic
//! ImageNet stand-in.  One unit is one product-table column of the tables:
//! build the product table of the fom, power or variation corner (or exact
//! INT4), then quantize each network with it and evaluate the test split,
//! with the float network evaluated alongside.  A column costs the same for
//! every table, whereas single (network, table) pairs fall into two cost
//! clusters (the deeper networks take about 1.7 times as long), which puts
//! the median unit time on the boundary between them.

use super::Workload;
use crate::checks;
use crate::digest::Digest;
use crate::setup::{calibrate_private, calibration_config};
use crate::trace::Tracer;
use crate::{BenchError, Config};
use optima_core::sweep::stream_seed;
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::{evaluate_batched, EvaluationReport};
use optima_dnn::models::{build_model, ModelKind};
use optima_dnn::multiplier::InMemoryProducts;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::training::{Trainer, TrainingConfig};
use optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use std::path::Path;
use std::sync::Arc;

/// Product tables of a unit, in unit order; the first three are Table I
/// corners, the last is exact INT4.
const TABLES: [&str; 4] = ["fom", "power", "variation", "INT4"];

/// Outputs of the last unit: the table and, per network, the quantized and
/// float evaluation reports.
#[derive(Debug, Default)]
struct Outputs {
    table: Option<MultiplierTable>,
    reports: Vec<(EvaluationReport, EvaluationReport)>,
}

/// Workload state.
#[derive(Debug)]
pub struct DnnEval {
    dataset: Dataset,
    networks: Vec<(Network, u64)>,
    corners: Vec<InSramMultiplier>,
    last: Outputs,
    top1: [[Option<f64>; 4]; 4],
}

impl Workload for DnnEval {
    const NAME: &'static str = "dnn_eval";
    const WORK: &'static str = "images";
    const THROUGHPUT: &'static str = "images_per_s";
    const CYCLE: u64 = TABLES.len() as u64;
    const PARALLEL_SPAN: &'static str = "dnn.quantized.eval";

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
        let models = calibrated.outcome.into_models();
        let corners = [
            MultiplierConfig::paper_fom_corner(),
            MultiplierConfig::paper_power_corner(),
            MultiplierConfig::paper_variation_corner(),
        ]
        .into_iter()
        .map(|corner| InSramMultiplier::new(models.clone(), corner))
        .collect::<Result<Vec<_>, _>>()?;

        // A larger test split than the paper stand-in's 10 images per class,
        // so one unit evaluates enough images to outlast scheduler noise.
        let base = SyntheticImageConfig {
            test_per_class: 40,
            ..SyntheticImageConfig::imagenet_like()
        };
        let dataset = Dataset::synthetic(SyntheticImageConfig {
            seed: stream_seed(config.seed, 0xda7a),
            ..if config.tiny {
                SyntheticImageConfig {
                    classes: 4,
                    train_per_class: 4,
                    test_per_class: 3,
                    ..base
                }
            } else {
                base
            }
        });
        let epochs = if config.tiny { 1 } else { 2 };
        let trainer = Trainer::new(TrainingConfig {
            epochs,
            learning_rate: 0.02,
            learning_rate_decay: 0.9,
        });
        let shape = dataset.image_shape().to_vec();
        let mut networks = Vec::with_capacity(ModelKind::ALL.len());
        for (index, kind) in ModelKind::ALL.into_iter().enumerate() {
            let seed = stream_seed(config.seed, index as u64);
            let mut network = build_model(kind, shape[0], shape[1], dataset.classes(), seed);
            tracer.span("dnn.training.train", || {
                trainer.train(&mut network, &dataset)
            })?;
            tracer.count("dnn.training.epochs", f64::from(epochs as u32));
            let macs = network.multiplications(&shape)?;
            networks.push((network, macs));
        }
        Ok(DnnEval {
            dataset,
            networks,
            corners,
            last: Outputs::default(),
            top1: [[None; 4]; 4],
        })
    }

    fn run_unit(
        &mut self,
        id: u64,
        threads: usize,
        tracer: &mut Tracer,
    ) -> Result<u64, BenchError> {
        let table_index = (id % Self::CYCLE) as usize;
        let table = tracer.span("imc.multiplier.table", || {
            match self.corners.get(table_index) {
                Some(multiplier) => MultiplierTable::from_multiplier(
                    multiplier,
                    multiplier.nominal_operating_point(),
                ),
                None => Ok(MultiplierTable::exact()),
            }
        })?;
        let products = Arc::new(InMemoryProducts::new(table.clone(), TABLES[table_index]));
        let mut reports = Vec::with_capacity(self.networks.len());
        for (network, macs) in &self.networks {
            let quantized = tracer.span("dnn.quantized.build", || {
                QuantizedNetwork::from_network(network, products.clone())
            })?;
            let quantized_report = tracer.span("dnn.quantized.eval", || {
                evaluate_batched(&quantized, &self.dataset, threads)
            })?;
            let float_report = tracer.span("dnn.network.eval", || {
                evaluate_batched(network, &self.dataset, threads)
            })?;
            let images = self.dataset.test_len() as f64;
            tracer.count("dnn.quantized.images", images);
            tracer.count("dnn.quantized.macs", images * *macs as f64);
            tracer.count("dnn.network.images", images);
            tracer.count("dnn.network.macs", images * *macs as f64);
            reports.push((quantized_report, float_report));
        }
        self.last = Outputs {
            table: Some(table),
            reports,
        };
        Ok((2 * self.networks.len() * self.dataset.test_len()) as u64)
    }

    fn check_unit(&mut self, id: u64, _tracer: &mut Tracer) -> Result<u64, BenchError> {
        let out = &self.last;
        let table = out
            .table
            .as_ref()
            .ok_or_else(|| BenchError("no unit ran".to_string()))?;
        checks::count("evaluated networks", out.reports.len(), self.networks.len())?;
        let table_index = (id % Self::CYCLE) as usize;
        let test_len = self.dataset.test_len();
        let mut digest = Digest::new();
        for (network, (quantized, float)) in out.reports.iter().enumerate() {
            checks::count("quantized samples", quantized.samples, test_len)?;
            checks::count("float samples", float.samples, test_len)?;
            let accuracies = [quantized.top1, quantized.top5, float.top1, float.top5];
            for accuracy in accuracies {
                checks::within("accuracy", accuracy, 0.5, 0.5)?;
            }
            digest.f64s(&accuracies);
            self.top1[network][table_index] = Some(quantized.top1);
        }
        for a in 0..=table.operand_max() {
            for d in 0..=table.operand_max() {
                digest.u64(u64::from(table.lookup(a, d)));
            }
        }
        digest
            .f64(table.average_multiply_energy().0)
            .f64(table.average_total_energy().0);
        Ok(digest.finish())
    }

    fn statistics(&self) -> Vec<(&'static str, f64)> {
        let fom: Vec<f64> = self.top1.iter().filter_map(|tables| tables[0]).collect();
        let mean = fom.iter().sum::<f64>() / fom.len().max(1) as f64;
        vec![("top1_pct", 100.0 * mean)]
    }
}
