//! Golden tests pinning the text renderer byte-for-byte to the
//! **pre-refactor** binary output (fast mode), captured before the
//! experiment logic moved out of `src/bin/*.rs` into the `Experiment`
//! modules.
//!
//! The one machine-dependent token, the worker-thread count a preamble line
//! prints, is masked on both sides before comparison.  Every other byte —
//! headings, blank-line layout, table geometry and all numbers — must match
//! exactly.

use optima_bench::experiments::{find, ExperimentContext, Profile};
use std::path::PathBuf;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.fast.txt"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("golden file {} unreadable: {err}", path.display()))
}

fn run_fast(name: &str) -> String {
    let experiment = find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    let mut ctx = ExperimentContext::new(Profile::Fast);
    experiment
        .run(&mut ctx)
        .unwrap_or_else(|err| panic!("{name} failed: {err}"))
        .render_text()
}

/// Masks every digit run in the line containing `marker` with one `#`
/// (used for the thread-count preambles, which depend on the host's
/// parallelism and may have any number of digits).
fn mask_line_digits(text: &str, marker: &str) -> String {
    text.lines()
        .map(|line| {
            if line.contains(marker) {
                let mut masked = String::with_capacity(line.len());
                for c in line.chars() {
                    if !c.is_ascii_digit() {
                        masked.push(c);
                    } else if !masked.ends_with('#') {
                        masked.push('#');
                    }
                }
                masked
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn fig5_pvt_text_output_is_byte_identical_to_the_pre_refactor_binary() {
    // The preamble prints the worker-thread count; everything else is
    // deterministic at any thread count (sweep-engine guarantee).
    let expected = mask_line_digits(&golden("fig5_pvt"), "worker threads");
    let actual = mask_line_digits(&run_fast("fig5_pvt"), "worker threads");
    assert_eq!(actual, expected);
}

#[test]
fn table1_corners_text_output_is_byte_identical_to_the_pre_refactor_binary() {
    // Fully deterministic — not a single byte may differ.
    assert_eq!(run_fast("table1_corners"), golden("table1_corners"));
}

#[test]
fn fig8_corner_pvt_text_output_pins_one_chip_per_monte_carlo_instance() {
    // The result profile and the supply and temperature sweeps were
    // captured while every pair still ran through the live models.  The
    // Monte-Carlo rows were regenerated when an instance became one chip:
    // each cell keeps one mismatch draw for every operand pair, and the
    // per-pair oracle in optima_imc's unit tests walks the same chips.  The
    // report prints no thread count, so nothing is masked.
    assert_eq!(run_fast("fig8_corner_pvt"), golden("fig8_corner_pvt"));
}

#[test]
fn fig6_model_eval_text_output_is_byte_identical_to_the_allocating_rk4() {
    // Captured while every golden transient still ran through the generic
    // `Vec`-per-step RK4 integrator, one mismatch instance at a time; the
    // lock-step kernel must reproduce the calibration and the held-out
    // statistics to the last printed digit.  No thread count is printed.
    assert_eq!(run_fast("fig6_model_eval"), golden("fig6_model_eval"));
}
