//! Parametric-geometry sweep: the same fom-corner multiplier evaluated at
//! the context's array geometry, end to end.
//!
//! The paper evaluates one fixed 16×4 INT4 macro; [`ArrayConfig`] lifts that
//! geometry into data.  This experiment demonstrates the whole stack at the
//! geometry selected on the CLI (`optima run geometry_sweep --operand-bits 8
//! ...`): geometry-keyed calibration, the (possibly multi-pass composed)
//! analog multiplier, its exhaustive input-space metrics, and a quantized
//! CNN forward pass whose product table comes from that multiplier.  When
//! the selected geometry is not the paper's default, the default is run too
//! so the report always shows the paper baseline next to the variant.

use super::{BenchError, Experiment, ExperimentContext};
use crate::report::{Column, Report, Scalar, Table};
use optima_circuit::array::ArrayConfig;
use optima_dnn::multiplier::InMemoryProducts;
use optima_dnn::network::Network;
use optima_dnn::quantized::QuantizedNetwork;
use optima_dnn::scratch::KernelScratch;
use optima_dnn::Tensor;
use optima_imc::metrics::evaluate_multiplier;
use optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

pub struct GeometrySweep;

impl Experiment for GeometrySweep {
    fn name(&self) -> &'static str {
        "geometry_sweep"
    }

    fn description(&self) -> &'static str {
        "Array-geometry sweep: fom-corner multiplier and quantized inference at the selected ArrayConfig (INT8 composition included)"
    }

    fn paper_ref(&self) -> &'static str {
        "Sec. III generalised"
    }

    fn run(&self, ctx: &mut ExperimentContext) -> Result<Report, BenchError> {
        let selected = ctx.array();
        let mut geometries = vec![ArrayConfig::default()];
        if !selected.is_paper() {
            geometries.push(selected);
        } else if ArrayConfig::int8().validate().is_ok() {
            // Default run: show the INT8 composition next to the paper macro
            // so the sweep always exercises a multi-pass geometry.
            geometries.push(ArrayConfig::int8());
        }

        let mut report = Report::new();
        report
            .heading(1, "Array-geometry sweep — fom corner across geometries")
            .blank();
        let mut table = Table::new(vec![
            Column::plain("Geometry"),
            Column::plain("Passes"),
            Column::unit("eps_mul", "LSB"),
            Column::unit("eps_rel", "%"),
            Column::unit("E_mul", "fJ"),
            Column::plain("LUT entries"),
            Column::plain("DNN argmax"),
        ]);

        for array in geometries {
            array.validate()?;
            let row = Self::run_geometry(ctx, array)?;
            table.push_row(row);
        }
        report.table(table);
        report.blank().note(
            "eps_rel normalises the absolute error by the geometry's product range; \
             DNN argmax is the predicted class of a fixed probe image.",
        );
        Ok(report)
    }
}

impl GeometrySweep {
    /// Evaluates one geometry end to end and returns its report row.
    fn run_geometry(
        ctx: &mut ExperimentContext,
        array: ArrayConfig,
    ) -> Result<Vec<Scalar>, BenchError> {
        // Re-key the context (and with it the calibration cache) to this
        // geometry for the duration of the evaluation.
        let previous = ctx.array();
        ctx.set_array(array);
        let models = ctx.models()?;

        let config = MultiplierConfig::paper_fom_corner().with_array(array);
        let multiplier = InSramMultiplier::new(models, config)?;
        let metrics = evaluate_multiplier(&multiplier)?;
        let table =
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())?;
        let products = Arc::new(InMemoryProducts::new(table, array.describe()));

        // A tiny deterministic CNN probe: the quantized forward pass must
        // run at the geometry's operand width and produce finite logits.
        let network = Self::probe_network(ctx.seed());
        let quantized = QuantizedNetwork::from_network(&network, products)?;
        if quantized.operand_bits() != array.operand_bits {
            return Err(BenchError::Failed(format!(
                "quantized network runs at {} bits, geometry is {} bits",
                quantized.operand_bits(),
                array.operand_bits
            )));
        }
        let probe = Self::probe_image(ctx.seed());
        let logits = quantized.forward(&probe)?;
        // The zero-allocation gather path must agree bit-for-bit with the
        // flat-LUT path at this geometry — including multi-pass composed
        // widths, where the slice-composed wide products feed the 8-pixel
        // gather kernels.
        let mut scratch = KernelScratch::new();
        if quantized.forward_with(&probe, &mut scratch)? != &logits {
            return Err(BenchError::Failed(format!(
                "scratch gather path diverges from the flat-LUT path at geometry {}",
                array.describe()
            )));
        }
        if logits.data().iter().any(|v| !v.is_finite()) {
            return Err(BenchError::Failed(format!(
                "non-finite logits at geometry {}",
                array.describe()
            )));
        }
        let argmax = logits.argmax().ok_or_else(|| {
            BenchError::Failed(format!("empty logits at geometry {}", array.describe()))
        })?;

        // Restore the context geometry for the caller.
        ctx.set_array(previous);

        let eps_rel = 100.0 * metrics.epsilon_mul / array.product_max() as f64;
        Ok(vec![
            Scalar::text(array.describe()),
            Scalar::Int(array.passes() as i64),
            Scalar::Float(metrics.epsilon_mul, 2),
            Scalar::Float(eps_rel, 3),
            Scalar::Float(metrics.energy_per_multiply.0, 1),
            Scalar::Int(array.lut_len() as i64),
            Scalar::Int(argmax as i64),
        ])
    }

    fn probe_network(seed: u64) -> Network {
        use optima_dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x09e0_6e7a);
        Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 4 * 4, 4, &mut rng)),
        ])
    }

    fn probe_image(seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0001_a49e);
        Tensor::from_vec(&[1, 8, 8], (0..64).map(|_| rng.gen::<f32>()).collect())
            .expect("probe image shape is static")
    }
}
