//! Property-based tests on cross-crate invariants (proptest).

use optima_suite::optima_circuit::defects::DefectMap;
use optima_suite::optima_circuit::montecarlo::MismatchSample;
use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_circuit::transient::{LaneBuffer, TransientQuery, LANES};
use optima_suite::optima_core::calibration::{
    CalibrationConfig, CalibrationOutcome, CalibrationReport,
};
use optima_suite::optima_core::model::discharge::DischargeModel;
use optima_suite::optima_core::model::energy::{DischargeEnergyModel, WriteEnergyModel};
use optima_suite::optima_core::model::mismatch::MismatchSigmaModel;
use optima_suite::optima_core::model::suite::ModelSuite;
use optima_suite::optima_core::model::supply::SupplyModel;
use optima_suite::optima_core::model::temperature::TemperatureModel;
use optima_suite::optima_core::snapshot;
use optima_suite::optima_core::sweep::par_map_sweep;
use optima_suite::optima_core::ModelError;
use optima_suite::optima_dnn::multiplier::{
    ComposedProducts, ExactInt4Products, ExactProducts, ProductTable,
};
use optima_suite::optima_imc::dse::{DesignSpace, DesignSpaceExplorer};
use optima_suite::optima_imc::metrics::evaluate_multiplier;
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig, MultiplierTable};
use optima_suite::optima_imc::reliability::FaultState;
use optima_suite::optima_math::lsq::polynomial_fit;
use optima_suite::optima_math::units::{Celsius, Seconds, Volts};
use optima_suite::optima_math::Polynomial;
use proptest::prelude::*;

/// A PVT-sensitive analytic suite: supply and temperature corrections are
/// non-trivial, so the batched fills exercise every Eq. 3–5 stage.
fn pvt_sensitive_suite() -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25, 0.02, -0.003]),
            Polynomial::new(vec![0.0, 1.0, -0.05]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::new(Volts(1.0), Polynomial::new(vec![1.0, 0.6]), (0.9, 1.1)),
        TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![1e-4]), (-40.0, 125.0)),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 1.5e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        WriteEnergyModel::new(
            Polynomial::new(vec![0.0, 0.0, 11.0]),
            Polynomial::new(vec![1.0, 4e-4]),
        ),
        DischargeEnergyModel::new(
            Polynomial::new(vec![0.0, 1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0, 3e-4]),
        ),
    )
}

/// A simple linear model suite used by the multiplier properties.
fn linear_suite() -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::identity(Volts(1.0)),
        TemperatureModel::identity(Celsius(25.0)),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 1e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        WriteEnergyModel::new(Polynomial::new(vec![11.0]), Polynomial::new(vec![1.0])),
        DischargeEnergyModel::new(
            Polynomial::new(vec![1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0]),
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Polynomial fitting through exact polynomial data recovers the values.
    #[test]
    fn polynomial_fit_interpolates_exact_data(
        c0 in -2.0f64..2.0,
        c1 in -2.0f64..2.0,
        c2 in -2.0f64..2.0,
        probe in -1.0f64..1.0,
    ) {
        let truth = Polynomial::new(vec![c0, c1, c2]);
        let xs: Vec<f64> = (0..12).map(|i| -1.0 + i as f64 * 0.2).collect();
        let ys = truth.eval_many(&xs);
        let fitted = polynomial_fit(&xs, &ys, 2).unwrap();
        prop_assert!((fitted.eval(probe) - truth.eval(probe)).abs() < 1e-6);
    }

    /// The golden-reference discharge is monotone: longer times and higher
    /// word-line voltages never reduce the discharge.
    #[test]
    fn circuit_discharge_is_monotone(
        v_wl in 0.5f64..1.0,
        duration_ns in 0.3f64..1.5,
    ) {
        let tech = Technology::tsmc65_like();
        let sim = TransientSimulator::new(tech.clone());
        let pvt = PvtConditions::nominal(&tech);
        let stimulus = |v: f64, t: f64| DischargeStimulus {
            word_line_voltage: Volts(v),
            duration: Seconds(t * 1e-9),
            time_steps: 120,
            ..DischargeStimulus::default()
        };
        let base = sim
            .discharge_delta(&stimulus(v_wl, duration_ns), &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        let longer = sim
            .discharge_delta(&stimulus(v_wl, duration_ns + 0.4), &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        let stronger = sim
            .discharge_delta(&stimulus((v_wl + 0.1).min(1.0), duration_ns), &pvt, &MismatchSample::none())
            .unwrap()
            .0;
        prop_assert!(longer >= base - 1e-12);
        prop_assert!(stronger >= base - 1e-12);
    }

    /// A lock-step batch of one query per mismatch instance returns, bit for
    /// bit, what one lone transient per instance sampled with
    /// `Waveform::sample_at` returns, and each `ΔV` what `discharge_delta`
    /// returns: for a single lane, part of a chunk, exactly one chunk, one
    /// chunk and a lone lane, and two chunks and a lone lane.  Queries land
    /// at 0, on a step node, between nodes and at the duration.
    #[test]
    fn mismatch_fill_is_bit_identical_to_lone_transients(
        v_wl in 0.2f64..1.2,
        duration_ns in 0.3f64..3.0,
        steps in 12usize..120,
        node in 1usize..12,
        between in 0.05f64..0.95,
        seed in 0u64..1_000_000,
        corner in 0usize..3,
    ) {
        let tech = Technology::tsmc65_like();
        let sim = TransientSimulator::new(tech.clone());
        let corners = [
            ProcessCorner::FastFast,
            ProcessCorner::TypicalTypical,
            ProcessCorner::SlowSlow,
        ];
        let pvt = PvtConditions::nominal(&tech).with_corner(corners[corner]);
        let stimulus = DischargeStimulus {
            word_line_voltage: Volts(v_wl),
            duration: Seconds(duration_ns * 1e-9),
            time_steps: steps,
            ..DischargeStimulus::default()
        };
        let axis = sim
            .discharge_waveform(&stimulus, &pvt, &MismatchSample::none())
            .unwrap()
            .times()
            .to_vec();
        let times: Vec<Seconds> = [
            0.0,
            axis[node],
            axis[node] + between * (axis[node + 1] - axis[node]),
            stimulus.duration.0,
        ]
        .into_iter()
        .map(Seconds)
        .collect();
        let mut buffer = LaneBuffer::default();
        for n in [1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1] {
            let queries: Vec<TransientQuery> = MismatchModel::from_technology(&tech)
                .sample_n(n, seed)
                .into_iter()
                .map(|mismatch| TransientQuery { stimulus, pvt, mismatch })
                .collect();
            let mut out = vec![f64::NAN; n * times.len()];
            let mut deltas = vec![f64::NAN; n];
            sim.fill_transients(&queries, &times, &mut buffer, &mut out, &mut deltas)
                .unwrap();
            for (k, query) in queries.iter().enumerate() {
                let waveform = sim.discharge_waveform(&stimulus, &pvt, &query.mismatch).unwrap();
                for (j, &t) in times.iter().enumerate() {
                    let expected = waveform.sample_at(t).unwrap().0;
                    prop_assert_eq!(
                        out[k * times.len() + j].to_bits(),
                        expected.to_bits(),
                        "n {} instance {} time {}", n, k, t.0
                    );
                }
                let delta = sim.discharge_delta(&stimulus, &pvt, &query.mismatch).unwrap().0;
                prop_assert_eq!(deltas[k].to_bits(), delta.to_bits(), "n {} instance {}", n, k);
            }
        }
    }

    /// In-SRAM multiplication by zero is always exactly zero, and results are
    /// monotone in the stored operand for a fixed DAC input.
    #[test]
    fn multiplier_zero_and_monotonicity(a in 0u16..=15, d in 1u16..=15) {
        let multiplier = InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0)),
        )
        .unwrap();
        let table =
            MultiplierTable::from_multiplier(&multiplier, multiplier.nominal_operating_point())
                .unwrap();
        prop_assert_eq!(table.lookup(a, 0), 0);
        prop_assert_eq!(table.lookup(0, d), 0);
        prop_assert!(table.lookup(a, d) >= table.lookup(a, d - 1));
    }

    /// The blocked batched Horner kernel is bit-identical to per-point
    /// scalar evaluation for arbitrary coefficients, grids and lengths
    /// (including lengths that exercise the remainder loop).
    #[test]
    fn batched_polynomial_eval_is_bit_identical(
        c0 in -3.0f64..3.0,
        c1 in -3.0f64..3.0,
        c2 in -3.0f64..3.0,
        c3 in -3.0f64..3.0,
        x0 in -5.0f64..5.0,
        dx in 0.01f64..0.7,
        len in 0usize..40,
    ) {
        let poly = Polynomial::new(vec![c0, c1, c2, c3]);
        let xs: Vec<f64> = (0..len).map(|i| x0 + dx * i as f64).collect();
        let batched = poly.eval_many(&xs);
        let mut in_place = xs.clone();
        poly.eval_many_in_place(&mut in_place);
        for (i, &x) in xs.iter().enumerate() {
            let scalar = poly.eval(x);
            prop_assert_eq!(scalar.to_bits(), batched[i].to_bits());
            prop_assert_eq!(scalar.to_bits(), in_place[i].to_bits());
        }
    }

    /// The batched `ModelSuite` time-grid and operand-grid fills are
    /// bit-identical to the scalar per-point Eqs. 3–5 path at arbitrary
    /// operating points.
    #[test]
    fn batched_model_suite_fills_are_bit_identical(
        v_wl in 0.05f64..1.05,
        vdd in 0.9f64..1.1,
        temp in -30.0f64..110.0,
        points in 1usize..24,
    ) {
        let suite = pvt_sensitive_suite();
        let times: Vec<Seconds> = (1..=points)
            .map(|i| Seconds(2.6e-9 * i as f64 / points as f64))
            .collect();
        let mut voltages = vec![0.0; times.len()];
        suite.fill_bitline_voltages_unchecked(
            &times, Volts(v_wl), Volts(vdd), Celsius(temp), &mut voltages,
        );
        let mut discharges = vec![0.0; times.len()];
        suite
            .fill_discharges(&times, Volts(v_wl), true, Volts(vdd), Celsius(temp), &mut discharges)
            .unwrap();
        for (i, &t) in times.iter().enumerate() {
            let scalar_v = suite.bitline_voltage_unchecked(t, Volts(v_wl), Volts(vdd), Celsius(temp));
            let scalar_d = suite
                .discharge(t, Volts(v_wl), true, Volts(vdd), Celsius(temp))
                .unwrap()
                .0;
            prop_assert_eq!(scalar_v.to_bits(), voltages[i].to_bits());
            prop_assert_eq!(scalar_d.to_bits(), discharges[i].to_bits());
        }
    }

    /// Composed INT8 multiplication — four 4-bit analog passes with digital
    /// shift-add accumulation — equals the widened scalar reference over the
    /// full 256×256 input space under ideal (exact-table) conditions, no
    /// matter how many worker threads fan the input space out.
    #[test]
    fn composed_int8_matches_the_widened_reference_at_any_thread_count(
        threads in 1usize..=8,
    ) {
        let composed = ComposedProducts::new(std::sync::Arc::new(ExactInt4Products), 2);
        let reference = ExactProducts::new(8);
        let pairs: Vec<(u8, u8)> = (0..=255u8)
            .flat_map(|a| (0..=255u8).map(move |b| (a, b)))
            .collect();
        let products = par_map_sweep(&pairs, threads, |_, &(a, b)| {
            Ok::<_, std::convert::Infallible>(composed.product(a, b))
        })
        .unwrap();
        for (&(a, b), &product) in pairs.iter().zip(&products) {
            prop_assert_eq!(product, reference.product(a, b), "{} x {}", a, b);
            prop_assert_eq!(product, a as u16 * b as u16, "{} x {}", a, b);
        }
    }

    /// A `DefectMap::none()` fault state — even routed through the
    /// redundancy planner over an array with spare columns — leaves the
    /// multiplier table and the quantized-DNN evaluation bit-identical to
    /// the fault-free path, at any worker-thread count.  This pins the
    /// tentpole invariant that fault injection costs nothing when nothing
    /// is broken.
    #[test]
    fn pristine_defect_map_is_bit_identical_at_any_thread_count(threads in 1usize..=8) {
        use optima_suite::optima_dnn::data::{Dataset, SyntheticImageConfig};
        use optima_suite::optima_dnn::eval::evaluate_batched;
        use optima_suite::optima_dnn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
        use optima_suite::optima_dnn::multiplier::InMemoryProducts;
        use optima_suite::optima_dnn::network::Network;
        use optima_suite::optima_dnn::quantized::QuantizedNetwork;
        use rand::SeedableRng;
        use std::sync::Arc;

        let array = optima_suite::optima_circuit::array::ArrayConfig::default().with_spares(2);
        let config = MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0))
            .with_array(array);
        let baseline = InSramMultiplier::new(pvt_sensitive_suite(), config).unwrap();
        let at = baseline.nominal_operating_point();
        let faults = FaultState::with_redundancy(&array, DefectMap::none(&array), 0).unwrap();
        prop_assert!(faults.is_pristine());
        let faulted = baseline.clone().with_faults(faults).unwrap();

        let base_table = MultiplierTable::from_multiplier(&baseline, at).unwrap();
        let fault_table = MultiplierTable::from_multiplier(&faulted, at).unwrap();
        prop_assert_eq!(&base_table, &fault_table);

        let dataset = Dataset::synthetic(SyntheticImageConfig {
            classes: 4,
            image_size: 8,
            channels: 1,
            train_per_class: 2,
            test_per_class: 3,
            noise_level: 0.1,
            seed: 0x5eed_caf3,
        });
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x0abc_1234);
        let network = Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 4 * 4, 4, &mut rng)),
        ]);
        let base_products: Arc<dyn ProductTable> =
            Arc::new(InMemoryProducts::new(base_table, "pristine"));
        let fault_products: Arc<dyn ProductTable> =
            Arc::new(InMemoryProducts::new(fault_table, "none-map"));
        let base_net = QuantizedNetwork::from_network(&network, base_products).unwrap();
        let fault_net = QuantizedNetwork::from_network(&network, fault_products).unwrap();
        for (image, _) in dataset.test_iter() {
            let base_logits = base_net.forward(image).unwrap();
            let fault_logits = fault_net.forward(image).unwrap();
            for (a, b) in base_logits.data().iter().zip(fault_logits.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let base_report = evaluate_batched(&base_net, &dataset, threads).unwrap();
        let fault_report = evaluate_batched(&fault_net, &dataset, 1).unwrap();
        prop_assert_eq!(base_report, fault_report);
    }

    /// The corner metrics stay bit-identical to a serial evaluation of each
    /// corner when fanned over the parallel sweep engine, for any
    /// worker-thread count (the explicit-knob equivalent of
    /// `OPTIMA_SWEEP_THREADS`).  The multiplier's unit tests pin the serial
    /// evaluation to the live per-pair reference.
    #[test]
    fn batched_corner_sweeps_are_thread_invariant(threads in 1usize..=8) {
        let space = DesignSpace::small();
        let explorer = DesignSpaceExplorer::new(pvt_sensitive_suite()).with_threads(threads);
        let results = explorer.explore(&space).unwrap();
        prop_assert_eq!(results.len(), space.len());
        for result in &results {
            let multiplier = InSramMultiplier::new(
                pvt_sensitive_suite(),
                result.point.to_config(),
            )
            .unwrap();
            prop_assert_eq!(result.metrics, evaluate_multiplier(&multiplier));
        }
    }

    /// A saved calibration snapshot that is damaged on disk fails through
    /// `snapshot::load`'s typed errors. Cut short at any line boundary it is
    /// `SnapshotCorrupt` naming the file; with any one byte flipped, `load`
    /// still returns instead of panicking.
    #[test]
    fn damaged_snapshots_are_typed_errors_never_panics(
        position in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let tech = Technology::tsmc65_like();
        let config = CalibrationConfig::fast();
        let array = ArrayConfig::default();
        let outcome =
            CalibrationOutcome::from_parts(pvt_sensitive_suite(), CalibrationReport::default());
        let path = std::env::temp_dir().join(format!(
            "optima-properties-{}-damaged.snapshot",
            std::process::id()
        ));
        let named = path.display().to_string();
        snapshot::save(&path, &outcome, &tech, &config, &array).unwrap();
        let body = std::fs::read(&path).unwrap();
        prop_assert_eq!(&snapshot::load(&path, &tech, &config, &array).unwrap(), &outcome);

        let line_starts = body
            .iter()
            .enumerate()
            .filter(|&(_, &byte)| byte == b'\n')
            .map(|(i, _)| i + 1);
        for cut in std::iter::once(0).chain(line_starts).filter(|&cut| cut < body.len()) {
            std::fs::write(&path, &body[..cut]).unwrap();
            let err = snapshot::load(&path, &tech, &config, &array).unwrap_err();
            prop_assert!(
                matches!(&err, ModelError::SnapshotCorrupt { path, .. } if *path == named),
                "cut at byte {cut}: {err:?}"
            );
        }

        let mut flipped = body.clone();
        let index = ((position * body.len() as f64) as usize).min(body.len() - 1);
        flipped[index] ^= flip;
        std::fs::write(&path, &flipped).unwrap();
        let _ = snapshot::load(&path, &tech, &config, &array);
        std::fs::remove_file(&path).unwrap();
    }
}
