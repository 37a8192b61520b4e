//! Targeted coverage for the numeric foundations the calibration pipeline
//! rests on: `polynomial`, `lsq::polynomial_fit`, `interp` and `stats`.
//!
//! These exercise the modules through the same shapes the OPTIMA calibration
//! uses them in — polynomial fits over voltage/time grids, interpolation of
//! sampled waveforms, RMS-style error metrics — but in isolation, so a
//! regression here points at the foundation rather than the pipeline.

use optima_math::interp;
use optima_math::lsq::polynomial_fit;
use optima_math::stats;
use optima_math::Polynomial;

// ---------------------------------------------------------------------------
// polynomial

#[test]
fn horner_evaluation_matches_naive_power_expansion() {
    let poly = Polynomial::new(vec![1.5, -2.0, 0.75, 0.1]);
    for i in 0..50 {
        let x = -2.0 + i as f64 * 0.08;
        let naive: f64 = poly
            .coeffs()
            .iter()
            .enumerate()
            .map(|(k, c)| c * x.powi(k as i32))
            .sum();
        assert!((poly.eval(x) - naive).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// lsq::polynomial_fit

#[test]
fn quadratic_fit_recovers_exact_coefficients() {
    let truth = Polynomial::new(vec![0.3, -1.2, 0.8]);
    let xs: Vec<f64> = (0..25).map(|i| i as f64 * 0.05).collect();
    let ys = truth.eval_many(&xs);
    let fitted = polynomial_fit(&xs, &ys, 2).unwrap();
    for (a, b) in fitted.coeffs().iter().zip(truth.coeffs()) {
        assert!((a - b).abs() < 1e-9, "fitted {a} vs truth {b}");
    }
}

#[test]
fn noisy_overdetermined_fit_stays_close_to_truth() {
    // Pseudo-noise from a fixed irrational stride keeps the test hermetic.
    let truth = Polynomial::new(vec![1.0, 2.0, -0.5]);
    let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.01).collect();
    let ys: Vec<f64> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| truth.eval(x) + 1e-3 * ((i as f64 * 0.754_877).sin()))
        .collect();
    let fitted = polynomial_fit(&xs, &ys, 2).unwrap();
    for i in 0..20 {
        let x = i as f64 * 0.1;
        assert!((fitted.eval(x) - truth.eval(x)).abs() < 5e-3);
    }
}

#[test]
fn fit_rejects_degenerate_inputs() {
    // Fewer samples than coefficients cannot determine the polynomial.
    assert!(polynomial_fit(&[0.0, 1.0], &[1.0, 2.0], 3).is_err());
    // Mismatched lengths are an error, not a panic.
    assert!(polynomial_fit(&[0.0, 1.0, 2.0], &[1.0, 2.0], 1).is_err());
}

// ---------------------------------------------------------------------------
// interp

#[test]
fn linear_interpolation_is_exact_on_linear_data() {
    let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
    for i in 0..89 {
        let x = i as f64 * 0.1;
        let y = interp::linear(&xs, &ys, x).unwrap();
        assert!((y - (3.0 * x - 1.0)).abs() < 1e-12);
    }
}

#[test]
fn linear_interpolation_hits_knots_exactly() {
    let xs = [0.0, 0.4, 1.0, 2.5];
    let ys = [1.0, -2.0, 0.5, 4.0];
    for (x, y) in xs.iter().zip(ys.iter()) {
        assert!((interp::linear(&xs, &ys, *x).unwrap() - y).abs() < 1e-12);
    }
}

// ---------------------------------------------------------------------------
// stats

#[test]
fn moments_match_hand_computed_values() {
    let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    assert!((stats::mean(&data) - 5.0).abs() < 1e-12);
    assert!((stats::variance(&data) - 4.0).abs() < 1e-12);
    assert!((stats::std_dev(&data) - 2.0).abs() < 1e-12);
}
