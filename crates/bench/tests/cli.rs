//! Usage errors of the `optima` runner: each one exits with status 2 and
//! prints the usage text before any experiment runs.

use std::process::{Command, Output};

fn optima(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_optima"))
        .args(args)
        .output()
        .expect("the optima binary starts")
}

/// Asserts a usage error whose message contains `message`.
fn assert_usage_error(args: &[&str], message: &str) {
    let output = optima(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        stderr.contains("USAGE:"),
        "{args:?} prints no usage: {stderr}"
    );
    assert!(!stderr.contains("running"), "{args:?} ran an experiment");
    assert!(output.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn scenario_pin_options_are_unknown() {
    for flag in [
        "--defect-rate",
        "--lifetime-steps",
        "--spares",
        "--max-batch",
        "--max-delay-us",
        "--shards",
    ] {
        assert_usage_error(
            &["run", "fig1_sota", flag, "1"],
            &format!("unknown option {flag}"),
        );
    }
}

#[test]
fn usage_names_no_scenario_pins() {
    let output = optima(&["--help"]);
    assert_eq!(output.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&output.stdout);
    for block in ["RELIABILITY", "SERVING", "--spares"] {
        assert!(!usage.contains(block), "usage still lists {block}");
    }
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    assert_usage_error(&["run", "fig1_sota", "--seed"], "--seed expects a value");
}

#[test]
fn all_with_a_name_is_a_usage_error() {
    assert_usage_error(
        &["run", "--all", "fig1_sota"],
        "--all cannot be combined with explicit experiment names",
    );
}

#[test]
fn an_unknown_experiment_is_a_usage_error() {
    assert_usage_error(
        &["run", "no_such_experiment"],
        "unknown experiment \"no_such_experiment\"",
    );
}
