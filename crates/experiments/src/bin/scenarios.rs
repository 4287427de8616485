//! Replays the paper's **Figures 1–5** scenario traces against every
//! strategy, printing the per-context outcomes the figures illustrate.

use ctxres_apps::scenarios::{adjacent_constraint, refined_constraints};
use ctxres_experiments::outln;
use ctxres_experiments::scenario_replay::replay;

fn main() {
    outln!("Scenario traces of Figures 1-5 (d3 is the corrupted context)\n");
    for (label, constraints_of) in [
        ("adjacent constraint only (Figs. 2-4)", false),
        ("refined constraints with gap-2 (Fig. 5)", true),
    ] {
        outln!("== {label} ==");
        outln!(
            "{:<10}{:<12}{:<24}correct?",
            "scenario",
            "strategy",
            "discarded"
        );
        for scenario in ["A", "B"] {
            for strategy in ["opt-r", "d-bad", "d-lat", "d-all"] {
                let constraints = if constraints_of {
                    refined_constraints()
                } else {
                    vec![adjacent_constraint()]
                };
                let out = replay(scenario, constraints, strategy);
                let discarded = if out.discarded.is_empty() {
                    "-".to_owned()
                } else {
                    out.discarded
                        .iter()
                        .map(|d| format!("d{d}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                outln!(
                    "{:<10}{:<12}{:<24}{}",
                    scenario,
                    strategy,
                    discarded,
                    if out.is_correct() { "yes" } else { "NO" }
                );
            }
        }
        outln!();
    }
}
