//! DNN application example: train a small VGG-style network on a synthetic
//! dataset, quantize it to INT4 and compare the exact INT4 baseline with the
//! in-SRAM multiplier corners (paper Tables II/III, scaled down).
//!
//! ```bash
//! cargo run --release --example dnn_inference
//! ```

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_suite::optima_dnn::eval::evaluate_batched;
use optima_suite::optima_dnn::models::{build_model, ModelKind};
use optima_suite::optima_dnn::multiplier::{ExactInt4Products, InMemoryProducts, ProductTable};
use optima_suite::optima_dnn::quantized::QuantizedNetwork;
use optima_suite::optima_dnn::training::{Trainer, TrainingConfig};
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Calibrate the multiplier models and derive the fom / variation tables.
    let technology = Technology::tsmc65_like();
    let models = Calibrator::new(technology, CalibrationConfig::fast())
        .run()?
        .into_models();
    let mut tables: Vec<(&str, Arc<dyn ProductTable>)> =
        vec![("exact INT4", Arc::new(ExactInt4Products))];
    for (name, config) in [
        ("fom", MultiplierConfig::paper_fom_corner()),
        ("variation", MultiplierConfig::paper_variation_corner()),
    ] {
        let multiplier = InSramMultiplier::new(models.clone(), config)?;
        let table =
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())?;
        tables.push((name, Arc::new(InMemoryProducts::new(table, name))));
    }

    // Train a small VGG-style network on a synthetic 10-class dataset.
    let dataset = Dataset::synthetic(SyntheticImageConfig {
        classes: 6,
        train_per_class: 20,
        test_per_class: 8,
        ..SyntheticImageConfig::cifar_like()
    });
    let shape = dataset.image_shape().to_vec();
    let mut network = build_model(
        ModelKind::Vgg16Style,
        shape[0],
        shape[1],
        dataset.classes(),
        1,
    );
    println!(
        "Training a {} ({} parameters) on {} samples ...",
        ModelKind::Vgg16Style,
        network.parameter_count(),
        dataset.train_len()
    );
    Trainer::new(TrainingConfig {
        epochs: 5,
        learning_rate: 0.02,
        learning_rate_decay: 0.9,
    })
    .train(&mut network, &dataset)?;

    let float_report = evaluate_batched(&network, &dataset, 1)?;
    println!(
        "FLOAT32      : top-1 {:.1} %, top-5 {:.1} %",
        float_report.top1_percent(),
        float_report.top5_percent()
    );

    // Quantize to INT4 and swap in the different product providers.
    for (name, products) in tables {
        let quantized = QuantizedNetwork::from_network(&network, products)?;
        let report = evaluate_batched(&quantized, &dataset, 1)?;
        println!(
            "{name:<13}: top-1 {:.1} %, top-5 {:.1} %",
            report.top1_percent(),
            report.top5_percent()
        );
    }
    Ok(())
}
