//! The experiment table: every entry runs at small size with its
//! built-in assertions live, and the table's result files are exactly
//! the committed ones.

use gvfs_bench::experiments::EXPERIMENTS;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn every_experiment_runs_small_and_names_itself() {
    for e in EXPERIMENTS {
        let doc = (e.run)(true);
        let serde_json::Value::Object(fields) = &doc else {
            panic!("{}: document is not a JSON object", e.name);
        };
        assert!(
            fields
                .iter()
                .any(|(k, v)| k == "experiment" && matches!(v, serde_json::Value::String(_))),
            "{}: no string `experiment` key",
            e.name
        );
    }
}

#[test]
fn result_files_are_unique_and_match_the_committed_results() {
    let files: Vec<&str> = EXPERIMENTS.iter().map(|e| e.file).collect();
    let table: BTreeSet<&str> = files.iter().copied().collect();
    assert_eq!(table.len(), files.len(), "duplicate result file in {files:?}");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed: BTreeSet<String> = std::fs::read_dir(&results)
        .expect("read results/")
        .map(|entry| entry.expect("results/ entry").file_name().into_string().expect("utf-8 name"))
        .filter(|name| name.ends_with(".json") && name != "chaos_violations.json")
        .collect();
    let table: BTreeSet<String> = table.into_iter().map(String::from).collect();
    assert_eq!(table, committed, "table result files vs results/*.json");
}
