//! Integration test: the full application analysis pipeline of the paper's
//! Section VI — calibrate, derive multiplier corner tables, train a DNN,
//! quantize it and compare the accuracy ordering across multipliers.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_dnn::data::{Dataset, SyntheticImageConfig};
use optima_suite::optima_dnn::eval::evaluate_batched;
use optima_suite::optima_dnn::models::{build_model, ModelKind};
use optima_suite::optima_dnn::multiplier::{ExactInt4Products, InMemoryProducts};
use optima_suite::optima_dnn::quantized::QuantizedNetwork;
use optima_suite::optima_dnn::training::{Trainer, TrainingConfig};
use optima_suite::optima_dnn::transfer::transfer_to_new_head;
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use optima_suite::optima_math::units::Seconds;
use std::sync::Arc;

#[test]
fn accuracy_ordering_matches_the_paper_float_int4_fom_beat_variation() {
    // 1. Calibrate and derive the fom and variation multiplier tables.
    let models = Calibrator::new(Technology::tsmc65_like(), CalibrationConfig::fast())
        .run()
        .expect("calibration succeeds")
        .into_models();
    let fom_multiplier =
        InSramMultiplier::new(models.clone(), MultiplierConfig::paper_fom_corner()).unwrap();
    let fom_table =
        MultiplierTable::from_multiplier(&fom_multiplier, fom_multiplier.nominal_operating_point())
            .unwrap();
    // A deliberately bad corner plays the role of the paper's accuracy-losing
    // configuration: its DAC zero code sits far below the threshold voltage
    // and its full scale is low, so most small operands collapse to zero —
    // the failure mode the paper attributes to its variation corner.
    let bad_corner = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.25), Volts(0.6));
    let bad_multiplier = InSramMultiplier::new(models.clone(), bad_corner).unwrap();
    let bad_table =
        MultiplierTable::from_multiplier(&bad_multiplier, bad_multiplier.nominal_operating_point())
            .unwrap();

    // The fom table must be closer to exact multiplication than the bad corner.
    assert!(fom_table.mean_absolute_error() <= bad_table.mean_absolute_error());

    // 2. Train a small CNN on a synthetic dataset.
    let dataset = Dataset::synthetic(SyntheticImageConfig {
        classes: 4,
        image_size: 8,
        channels: 1,
        train_per_class: 30,
        test_per_class: 8,
        noise_level: 0.08,
        seed: 33,
    });
    let shape = dataset.image_shape().to_vec();
    let mut network = build_model(
        ModelKind::Vgg16Style,
        shape[0],
        shape[1],
        dataset.classes(),
        9,
    );
    Trainer::new(TrainingConfig {
        epochs: 14,
        learning_rate: 0.05,
        learning_rate_decay: 0.95,
    })
    .train(&mut network, &dataset)
    .expect("training succeeds");

    // 3. Evaluate FLOAT32, exact INT4, fom and variation.
    let float_top1 = evaluate_batched(&network, &dataset, 1).unwrap().top1;
    let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
    let int4_top1 = evaluate_batched(&int4, &dataset, 1).unwrap().top1;
    let fom =
        QuantizedNetwork::from_network(&network, Arc::new(InMemoryProducts::new(fom_table, "fom")))
            .unwrap();
    let fom_top1 = evaluate_batched(&fom, &dataset, 1).unwrap().top1;
    let degraded = QuantizedNetwork::from_network(
        &network,
        Arc::new(InMemoryProducts::new(bad_table, "degraded")),
    )
    .unwrap();
    let variation_top1 = evaluate_batched(&degraded, &dataset, 1).unwrap().top1;

    // The trained FLOAT32 network must clearly beat chance.
    // Chance level on the 4-class task is 0.25.
    assert!(float_top1 > 0.4, "float top-1 {float_top1} too low");
    // INT4 and fom stay close to FLOAT32 (within 25 percentage points on this
    // tiny task), and the variation corner must not outperform fom.
    assert!(
        int4_top1 > float_top1 - 0.25,
        "int4 {int4_top1} vs float {float_top1}"
    );
    assert!(
        fom_top1 > float_top1 - 0.3,
        "fom {fom_top1} vs float {float_top1}"
    );
    assert!(
        variation_top1 <= fom_top1 + 0.1,
        "the degraded corner ({variation_top1}) should not beat fom ({fom_top1})"
    );
}

#[test]
fn transfer_learning_pipeline_produces_a_working_ten_class_classifier() {
    let pretrain = Dataset::synthetic(SyntheticImageConfig {
        classes: 5,
        image_size: 8,
        channels: 1,
        train_per_class: 15,
        test_per_class: 5,
        noise_level: 0.12,
        seed: 3,
    });
    let target = Dataset::synthetic(SyntheticImageConfig {
        classes: 3,
        image_size: 8,
        channels: 1,
        train_per_class: 15,
        test_per_class: 6,
        noise_level: 0.12,
        seed: 44,
    });
    let shape = pretrain.image_shape().to_vec();
    let mut network = build_model(
        ModelKind::Vgg16Style,
        shape[0],
        shape[1],
        pretrain.classes(),
        5,
    );
    let trainer = Trainer::new(TrainingConfig {
        epochs: 8,
        learning_rate: 0.03,
        learning_rate_decay: 0.9,
    });
    trainer.train(&mut network, &pretrain).unwrap();
    transfer_to_new_head(&mut network, target.classes(), 11).unwrap();
    let head_trainer = Trainer::new(TrainingConfig {
        epochs: 12,
        learning_rate: 0.05,
        learning_rate_decay: 0.95,
    });
    head_trainer.train_head_only(&mut network, &target).unwrap();

    let report = evaluate_batched(&network, &target, 1).unwrap();
    assert!(
        report.top1 > 0.45,
        "transfer-learned top-1 {} is too low",
        report.top1
    );
    // Quantizing the transferred network must still work end to end.
    let quantized = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
    let quantized_report = evaluate_batched(&quantized, &target, 1).unwrap();
    assert!(quantized_report.top1 > 0.3);
}
