//! Structural invariants of the unified experiment API: the registry and
//! the generated DESIGN.md index must stay in lock-step.

use optima_bench::experiments::{design_md, find, registry};
use std::collections::BTreeSet;
use std::path::PathBuf;

#[test]
fn registry_names_are_unique() {
    let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(names.len(), unique.len(), "duplicate experiment names");
}

#[test]
fn registry_covers_all_paper_experiments_and_ablations() {
    let registered: BTreeSet<&str> = registry().iter().map(|e| e.name()).collect();
    for name in [
        "fig1_sota",
        "fig4_nonideality",
        "fig5_pvt",
        "fig6_model_eval",
        "fig7_dse",
        "fig8_corner_pvt",
        "table1_corners",
        "table2_imagenet",
        "table3_cifar",
    ] {
        assert!(registered.contains(name), "missing paper experiment {name}");
    }
    let ablations = registered
        .iter()
        .filter(|name| name.starts_with("ablation_"))
        .count();
    assert_eq!(ablations, 3, "expected exactly three ablations");
}

#[test]
fn every_experiment_is_self_describing() {
    for experiment in registry() {
        assert!(!experiment.name().is_empty());
        assert!(
            !experiment.description().is_empty(),
            "{} has no description",
            experiment.name()
        );
        assert!(
            !experiment.paper_ref().is_empty(),
            "{} has no paper reference",
            experiment.name()
        );
        assert!(
            find(experiment.name()).is_some_and(|found| std::ptr::eq(found, *experiment)),
            "find() must resolve {} to its registry entry",
            experiment.name()
        );
    }
}

#[test]
fn design_md_on_disk_matches_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "DESIGN.md is missing at {} ({err}); regenerate it with \
             `cargo run -q -p optima_bench --bin optima -- design-md > DESIGN.md`",
            path.display()
        )
    });
    assert_eq!(
        on_disk,
        design_md(),
        "DESIGN.md has drifted from the experiment registry; regenerate it with \
         `cargo run -q -p optima_bench --bin optima -- design-md > DESIGN.md`"
    );
}
