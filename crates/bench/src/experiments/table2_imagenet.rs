//! Table II — DNN classification accuracies (ImageNet experiment, scaled).
//!
//! The paper evaluates INT4-quantized VGG16/19 and ResNet50/101 on ImageNet
//! with the three in-SRAM multiplier corners.  Pre-trained Keras models and
//! ImageNet itself are not reproducible here, so scaled-down style-faithful
//! analogues are trained on a synthetic many-class dataset and then evaluated
//! with exactly the same multiplier-substitution pipeline (see DESIGN.md).
//! The quantity to compare against the paper is the *ordering and relative
//! degradation*: FLOAT32 ≈ INT4 ≈ fom > power ≫ variation.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_dnn::eval::evaluate_batched;
use optima_dnn::models::{build_model, ModelKind};
use optima_dnn::multiplier::{ExactInt4Products, InMemoryProducts, ProductTable};
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::training::{Trainer, TrainingConfig};
use optima_imc::multiplier::{InSramMultiplier, MultiplierTable};
use std::sync::Arc;

/// The named product tables evaluated by Tables II/III.
pub(super) type NamedProductTables = Vec<(String, Arc<dyn ProductTable>)>;

/// Builds the FLOAT32-reference product-table matrix of Tables II/III:
/// exact INT4 plus one in-memory table per Table I corner.
pub(super) fn corner_product_tables(
    ctx: &mut ExperimentContext,
) -> Result<NamedProductTables, BenchError> {
    let models = ctx.models()?;
    let mut product_tables: NamedProductTables =
        vec![("INT4".to_string(), Arc::new(ExactInt4Products))];
    for (name, config) in crate::paper_corners() {
        let multiplier = InSramMultiplier::new(models.clone(), config)?;
        let table =
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())?;
        product_tables.push((
            name.to_string(),
            Arc::new(InMemoryProducts::new(table, name)),
        ));
    }
    Ok(product_tables)
}

pub struct Table2Imagenet;

impl Experiment for Table2Imagenet {
    fn name(&self) -> &'static str {
        "table2_imagenet"
    }

    fn description(&self) -> &'static str {
        "DNN accuracies on the synthetic ImageNet stand-in across the multiplier corners"
    }

    fn paper_ref(&self) -> &'static str {
        "Table II"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let quick = ctx.is_fast();
        let product_tables = corner_product_tables(ctx)?;

        // Synthetic stand-in for ImageNet.
        let dataset_config = if quick {
            SyntheticImageConfig {
                classes: 8,
                train_per_class: 12,
                test_per_class: 5,
                ..SyntheticImageConfig::imagenet_like()
            }
        } else {
            SyntheticImageConfig::imagenet_like()
        };
        let dataset = Dataset::synthetic(dataset_config);
        let trainer = Trainer::new(TrainingConfig {
            epochs: if quick { 3 } else { 8 },
            learning_rate: 0.02,
            learning_rate_decay: 0.9,
        });

        let mut report = Report::new();
        report
            .heading(
                1,
                "Table II — classification accuracies (synthetic ImageNet stand-in)",
            )
            .blank()
            .note(format!(
                "{} classes, {} training / {} test samples, {}x{} RGB-like images",
                dataset.classes(),
                dataset.train_len(),
                dataset.test_len(),
                dataset.image_shape()[1],
                dataset.image_shape()[2]
            ))
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Model"),
            Column::unit("Multiplications", "x10^6"),
            Column::unit("FLOAT32 top-1 / top-5", "%"),
            Column::unit("INT4 top-1 / top-5", "%"),
            Column::unit("fom top-1 / top-5", "%"),
            Column::unit("power top-1 / top-5", "%"),
            Column::unit("variation top-1 / top-5", "%"),
        ]);

        for kind in ModelKind::ALL {
            let shape = dataset.image_shape().to_vec();
            let mut network = build_model(kind, shape[0], shape[1], dataset.classes(), ctx.seed());
            trainer.train(&mut network, &dataset)?;

            let multiplications =
                network.multiplications(&shape)? as f64 * dataset.test_len() as f64 / 1.0e6;

            // Per-image parallel fan-out over the sweep engine.
            let float_report = evaluate_batched(&network, &dataset, ctx.threads())?;
            let mut cells = vec![
                Scalar::text(kind.to_string()),
                Scalar::Float(multiplications, 2),
                Scalar::text(format!(
                    "{:.1} / {:.1}",
                    float_report.top1_percent(),
                    float_report.top5_percent()
                )),
            ];
            for (_, products) in &product_tables {
                let quantized = QuantizedNetwork::from_network(&network, products.clone())?;
                let eval = evaluate_batched(&quantized, &dataset, ctx.threads())?;
                cells.push(Scalar::text(format!(
                    "{:.1} / {:.1}",
                    eval.top1_percent(),
                    eval.top5_percent()
                )));
            }
            table.push_row(cells);
        }
        report.table(table);

        report
            .blank()
            .note("Paper (full-scale ImageNet) for comparison: FLOAT32 top-1 70.3-76.4 %,")
            .note("INT4 69.3-75.1 %, fom within 0.2 % of INT4, power 59.8-64.5 %, variation 36.7-48.5 %.");
        Ok(report)
    }
}
