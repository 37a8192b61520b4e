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

/// Masks every digit run in the line containing `marker` (used for the
/// thread-count preambles, which depend on the host's parallelism).
fn mask_line_digits(text: &str, marker: &str) -> String {
    text.lines()
        .map(|line| {
            if line.contains(marker) {
                line.chars()
                    .map(|c| if c.is_ascii_digit() { '#' } else { c })
                    .collect()
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
