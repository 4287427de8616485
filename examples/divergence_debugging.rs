//! Debugging strategies head to head: run the same context stream
//! through two observed middlewares, find the first context whose fate
//! they disagree on, then read drop-bad's causal chain for it to see
//! *why* it decided what it decided.
//!
//! Run with `cargo run --example divergence_debugging`.

use ctxres::apps::scenarios::{refined_constraints, scenario_b};
use ctxres::context::Ticks;
use ctxres::core::strategies::by_name;
use ctxres::experiments::explain::{first_divergence, render_chain};
use ctxres::middleware::{Middleware, MiddlewareConfig};
use ctxres::obs::{ObsConfig, ObsRegistry, ProvenanceGraph};

/// Runs the paper's Scenario B (Fig. 2: the corrupted d3 slips past the
/// adjacent check) under the Fig. 5 refined constraints with `strategy`
/// and folds the run's trace into a provenance graph.
fn provenance(strategy: &str) -> ProvenanceGraph {
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(refined_constraints())
        .strategy(by_name(strategy, 0).expect("a paper strategy"))
        .config(MiddlewareConfig {
            window: Ticks::new(10),
            track_ground_truth: true,
            retention: None,
        })
        .obs(registry.handle(0))
        .build();
    for ctx in scenario_b() {
        mw.submit(ctx);
    }
    mw.drain();
    ProvenanceGraph::from_records(&registry.drain())
}

/// The reception ticks of the contexts `graph` ended up discarding.
fn discarded_ticks(graph: &ProvenanceGraph) -> String {
    let ticks: Vec<String> = graph
        .discarded()
        .iter()
        .filter_map(|n| n.received_at)
        .map(|t| format!("t{t}"))
        .collect();
    ticks.join(", ")
}

fn main() {
    // Scenario B stamps d1 … d5 at t0 … t4; d3 is the corrupted one.
    let drop_bad = provenance("d-bad");
    let drop_latest = provenance("d-lat");
    println!("d-bad discards {}", discarded_ticks(&drop_bad));
    println!("d-lat discards {}", discarded_ticks(&drop_latest));
    let Some(d) = first_divergence("d-bad", &drop_bad, "d-lat", &drop_latest) else {
        println!("no divergence?!");
        return;
    };
    println!(
        "first divergence: {}/{} received t{} — d-bad says {}, d-lat says {}\n",
        d.kind, d.subject, d.received_at, d.a.fate, d.b.fate
    );
    println!("drop-bad's causal chain for it:");
    print!("{}", render_chain(&d.a.node));
}
