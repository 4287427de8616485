//! Hash-identity of the committed figure baselines.
//!
//! The paper-scale figure grids are deterministic end to end: every
//! `(strategy, error rate, seed)` cell derives its RNG stream from a
//! stable seed, the pool's `of_kind`/`of_subject` indexes iterate in
//! `(stamp, id)` order, and the parallel fan-out reassembles results in
//! job order — so regenerating `figure9`/`figure10` must reproduce the
//! committed `results/*.json` **byte for byte**, at any thread count.
//!
//! The full grids take minutes in debug builds, so these tests run only
//! when `CTXRES_FIGURE_BASELINES=1` (CI sets it in a release-mode step);
//! otherwise they skip with a note.

use ctxres_apps::PervasiveApp;
use ctxres_experiments::figures::figure_for_parallel;
use ctxres_experiments::runner::default_threads;
use ctxres_experiments::{RUNS_PER_POINT, TRACE_LEN};
use std::path::Path;

fn baseline_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.json"))
}

fn assert_matches_baseline(name: &str, app: &(dyn PervasiveApp + Sync)) {
    if std::env::var("CTXRES_FIGURE_BASELINES").as_deref() != Ok("1") {
        eprintln!("{name}: skipped (set CTXRES_FIGURE_BASELINES=1 to run the paper-scale grid)");
        return;
    }
    let committed = std::fs::read_to_string(baseline_path(name))
        .unwrap_or_else(|e| panic!("committed baseline results/{name}.json unreadable: {e}"));
    let fig = figure_for_parallel(app, RUNS_PER_POINT, TRACE_LEN, default_threads(), None);
    let regenerated = serde_json::to_string_pretty(&fig).expect("figure serializes");
    assert_eq!(
        committed, regenerated,
        "results/{name}.json drifted from regeneration — if a behavior \
         change was intentional, regenerate the baseline with the {name} bin"
    );
}

#[test]
fn figure9_json_is_hash_identical_to_baseline() {
    assert_matches_baseline(
        "figure9",
        &ctxres_apps::call_forwarding::CallForwarding::new(),
    );
}

#[test]
fn figure10_json_is_hash_identical_to_baseline() {
    assert_matches_baseline(
        "figure10",
        &ctxres_apps::rfid_anomalies::RfidAnomalies::new(),
    );
}
