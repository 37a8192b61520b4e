//! Table III — DNN classification accuracies (CIFAR-10 experiment, scaled).
//!
//! Pre-trains its own backbones on the ImageNet stand-in (at the full
//! profile with the same dataset, trainer and seed as Table II, so the same
//! backbones; at the fast profile on a smaller 10/4-per-class set), replaces
//! the classifier head with a 10-neuron dense layer, retrains the head with
//! transfer learning on a 10-class synthetic dataset and evaluates the same
//! FLOAT32 / INT4 / fom / power / variation matrix (top-1 only, as in the
//! paper).

use super::table2_imagenet::corner_product_tables;
use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::evaluate_batched;
use optima_dnn::models::{build_model, ModelKind};
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::training::{Trainer, TrainingConfig};
use optima_dnn::transfer::transfer_to_new_head;

/// RNG seed of the fresh transfer head (kept distinct from the backbone
/// seed so head and backbone never share an initialisation stream).
const HEAD_SEED: u64 = 7;

pub struct Table3Cifar;

impl Experiment for Table3Cifar {
    fn name(&self) -> &'static str {
        "table3_cifar"
    }

    fn description(&self) -> &'static str {
        "Transfer-learning accuracies on the synthetic CIFAR-10 stand-in across the corners"
    }

    fn paper_ref(&self) -> &'static str {
        "Table III"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let quick = ctx.is_fast();
        let product_tables = corner_product_tables(ctx)?;

        // Pre-training dataset (ImageNet stand-in) and transfer target
        // (CIFAR stand-in).
        let pretrain_config = if quick {
            SyntheticImageConfig {
                classes: 8,
                train_per_class: 10,
                test_per_class: 4,
                ..SyntheticImageConfig::imagenet_like()
            }
        } else {
            SyntheticImageConfig::imagenet_like()
        };
        let target_config = if quick {
            SyntheticImageConfig {
                train_per_class: 12,
                test_per_class: 5,
                ..SyntheticImageConfig::cifar_like()
            }
        } else {
            SyntheticImageConfig::cifar_like()
        };
        let pretrain = Dataset::synthetic(pretrain_config);
        let target = Dataset::synthetic(target_config);

        let trainer = Trainer::new(TrainingConfig {
            epochs: if quick { 3 } else { 8 },
            learning_rate: 0.02,
            learning_rate_decay: 0.9,
        });

        let mut report = Report::new();
        report
            .heading(
                1,
                "Table III — classification accuracies (synthetic CIFAR-10 stand-in)",
            )
            .blank()
            .note(format!(
                "transfer target: {} classes, {} training / {} test samples",
                target.classes(),
                target.train_len(),
                target.test_len()
            ))
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Model"),
            Column::unit("FLOAT32 top-1", "%"),
            Column::unit("INT4 top-1", "%"),
            Column::unit("fom top-1", "%"),
            Column::unit("power top-1", "%"),
            Column::unit("variation top-1", "%"),
        ]);

        for kind in ModelKind::ALL {
            let shape = pretrain.image_shape().to_vec();
            let mut network = build_model(kind, shape[0], shape[1], pretrain.classes(), ctx.seed());
            trainer.train(&mut network, &pretrain)?;
            // Transfer learning: new 10-class head, retrain only the head.
            transfer_to_new_head(&mut network, target.classes(), HEAD_SEED)?;
            trainer.train_head_only(&mut network, &target)?;

            // Per-image parallel fan-out over the sweep engine.
            let float_report = evaluate_batched(&network, &target, ctx.threads())?;
            let mut cells = vec![
                Scalar::text(kind.to_string()),
                Scalar::Float(float_report.top1_percent(), 1),
            ];
            for (_, products) in &product_tables {
                let quantized = QuantizedNetwork::from_network(&network, products.clone())?;
                let eval = evaluate_batched(&quantized, &target, ctx.threads())?;
                cells.push(Scalar::Float(eval.top1_percent(), 1));
            }
            table.push_row(cells);
        }
        report.table(table);

        report
            .blank()
            .note("Paper (full-scale CIFAR-10) for comparison: FLOAT32 92.2-93.4 %, INT4 92.0-93.1 %,")
            .note("fom within 0.1 % of INT4, power 87.4-90.8 %, variation 66.9-73.8 %.");
        Ok(report)
    }
}
