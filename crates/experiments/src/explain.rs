//! `explain` — end-to-end causal chains for resolution decisions.
//!
//! Folds a cell's event trace into a [`ProvenanceGraph`] and renders,
//! per context, the full story the paper's Fig. 7/8 life cycle implies
//! but aggregate counters hide: submission → violations (with the
//! constraint link and the bound partners) → count evolution → final
//! verdict. The cross-strategy diff joins two graphs on content
//! identity (`(kind, subject, received_at)` — independent of pool
//! numbering) and reports where two strategies running the *same*
//! seeded workload first disagree about a context's fate — e.g. the
//! first context D-LAT throws away that D-BAD's count evidence saves.

use ctxres_obs::{CauseEdge, NodeId, ProvNode, ProvStats, ProvenanceGraph};
use serde::Serialize;
use std::fmt::Write as _;

/// A context's one-word fate, judged from its provenance node.
pub fn fate(node: &ProvNode) -> &'static str {
    use ctxres_obs::TraceEvent;
    if node.discarded() {
        "discarded"
    } else if node
        .timeline
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Delivered { .. }))
    {
        "delivered"
    } else if node
        .timeline
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Expired { .. }))
    {
        "expired"
    } else {
        "pending"
    }
}

/// One edge as a human-readable line:
/// `t35.7 violated_by speed with [s0/ctx#9]`.
pub fn render_edge(edge: &CauseEdge) -> String {
    let mut out = format!("t{}.{} {}", edge.at, edge.seq, edge.cause);
    if let Some(c) = &edge.constraint {
        let _ = write!(out, " {c}");
    }
    if !edge.partners.is_empty() {
        let partners: Vec<String> = edge.partners.iter().map(ToString::to_string).collect();
        let _ = write!(out, " with [{}]", partners.join(", "));
    }
    if let Some(n) = edge.count {
        let _ = write!(out, " count={n}");
    }
    if let Some(v) = edge.verdict {
        let _ = write!(out, " => {v}");
    }
    out
}

/// Renders one context's full causal chain, one edge per line, with a
/// trailing completeness note (`chain complete` or the gaps).
pub fn render_chain(node: &ProvNode) -> String {
    let mut out = format!("{}", node.id);
    if let Some((kind, subject, at)) = node.identity() {
        let _ = write!(out, " {kind}/{subject} received t{at}");
    }
    let _ = writeln!(out, " — {}", fate(node));
    for edge in &node.chain {
        let _ = writeln!(out, "    {}", render_edge(edge));
    }
    let gaps = node.completeness_gaps();
    if gaps.is_empty() {
        let _ = writeln!(out, "    chain complete ({} edges)", node.chain_depth());
    } else {
        for gap in gaps {
            let _ = writeln!(out, "    ! {gap}");
        }
    }
    out
}

/// Every node whose shard-local context id is `raw`, across shards (a
/// bare `--context 12` does not know which shard pool numbered it).
pub fn nodes_for_raw_id(graph: &ProvenanceGraph, raw: u64) -> Vec<&ProvNode> {
    graph
        .nodes()
        .filter(|n| n.id.ctx == ctxres_context::ContextId::from_raw(raw))
        .collect()
}

/// The machine-readable `--json` document: the graph's summary counters
/// and the selected chains.
#[derive(Debug, Clone, Serialize)]
pub struct ExplainDoc {
    /// Cell or file label the chains came from.
    pub label: String,
    /// Graph summary counters.
    pub stats: ProvStats,
    /// Selected provenance nodes, full chains included.
    pub chains: Vec<ProvNode>,
}

impl ExplainDoc {
    /// Builds the document from a selection of nodes.
    pub fn new(label: &str, graph: &ProvenanceGraph, chains: Vec<&ProvNode>) -> Self {
        ExplainDoc {
            label: label.to_owned(),
            stats: graph.stats(),
            chains: chains.into_iter().cloned().collect(),
        }
    }
}

/// One side of a cross-strategy divergence.
#[derive(Debug, Clone, Serialize)]
pub struct DivergenceSide {
    /// Strategy label of this side.
    pub label: String,
    /// The node's id in this side's trace.
    pub id: NodeId,
    /// The context's fate under this strategy.
    pub fate: String,
    /// The full provenance node (chain + timeline).
    pub node: ProvNode,
}

/// The first context (by reception time) two strategies disagree on.
#[derive(Debug, Clone, Serialize)]
pub struct Divergence {
    /// Kind name of the diverging context.
    pub kind: String,
    /// Subject of the diverging context.
    pub subject: String,
    /// Tick the context entered both middlewares.
    pub received_at: u64,
    /// The first strategy's view.
    pub a: DivergenceSide,
    /// The second strategy's view.
    pub b: DivergenceSide,
}

/// Joins two graphs on content identity and returns the earliest
/// received context whose fate differs — `None` when the strategies
/// agree on every shared context.
pub fn first_divergence(
    label_a: &str,
    a: &ProvenanceGraph,
    label_b: &str,
    b: &ProvenanceGraph,
) -> Option<Divergence> {
    let index_a = a.by_identity();
    let index_b = b.by_identity();
    let mut shared: Vec<&(String, String, u64)> = index_a
        .keys()
        .filter(|k| index_b.contains_key(*k))
        .collect();
    shared.sort_by_key(|(kind, subject, at)| (*at, kind.clone(), subject.clone()));
    for key in shared {
        let node_a = a.node(index_a[key][0])?;
        let node_b = b.node(index_b[key][0])?;
        let (fate_a, fate_b) = (fate(node_a), fate(node_b));
        if fate_a != fate_b {
            return Some(Divergence {
                kind: key.0.clone(),
                subject: key.1.clone(),
                received_at: key.2,
                a: DivergenceSide {
                    label: label_a.to_owned(),
                    id: node_a.id,
                    fate: fate_a.to_owned(),
                    node: node_a.clone(),
                },
                b: DivergenceSide {
                    label: label_b.to_owned(),
                    id: node_b.id,
                    fate: fate_b.to_owned(),
                    node: node_b.clone(),
                },
            });
        }
    }
    None
}

/// The `--diff --json` document.
#[derive(Debug, Clone, Serialize)]
pub struct DiffDoc {
    /// First strategy label.
    pub a_label: String,
    /// Second strategy label.
    pub b_label: String,
    /// First-side graph summary.
    pub a_stats: ProvStats,
    /// Second-side graph summary.
    pub b_stats: ProvStats,
    /// Shared contexts compared.
    pub compared: usize,
    /// The earliest divergence, when one exists.
    pub divergence: Option<Divergence>,
}

/// Builds the diff document for two strategies' graphs over the same
/// seeded workload.
pub fn diff_doc(label_a: &str, a: &ProvenanceGraph, label_b: &str, b: &ProvenanceGraph) -> DiffDoc {
    let index_a = a.by_identity();
    let index_b = b.by_identity();
    let compared = index_a.keys().filter(|k| index_b.contains_key(*k)).count();
    DiffDoc {
        a_label: label_a.to_owned(),
        b_label: label_b.to_owned(),
        a_stats: a.stats(),
        b_stats: b.stats(),
        compared,
        divergence: first_divergence(label_a, a, label_b, b),
    }
}

/// Renders a divergence for humans: the join key, both fates, and both
/// full chains.
pub fn render_divergence(d: &Divergence) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "first divergence: {}/{} received t{} — {} says {}, {} says {}",
        d.kind, d.subject, d.received_at, d.a.label, d.a.fate, d.b.label, d.b.fate
    );
    let _ = writeln!(out, "--- {} ---", d.a.label);
    let _ = write!(out, "{}", render_chain(&d.a.node));
    let _ = writeln!(out, "--- {} ---", d.b.label);
    let _ = write!(out, "{}", render_chain(&d.b.node));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_named_observed;
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::PervasiveApp;
    use ctxres_obs::ObsConfig;

    fn graph_for(strategy: &str) -> ProvenanceGraph {
        let app = CallForwarding::new();
        let (_, telemetry) = run_named_observed(
            &app,
            strategy,
            0.3,
            3,
            150,
            app.recommended_window(),
            ObsConfig::enabled(),
        );
        assert_eq!(telemetry.dropped, 0, "trace must be complete");
        ProvenanceGraph::from_records(&telemetry.trace)
    }

    #[test]
    fn every_discarded_context_has_a_complete_rendered_chain() {
        let graph = graph_for("d-bad");
        let discarded = graph.discarded();
        assert!(!discarded.is_empty(), "err 0.3 must discard something");
        for node in discarded {
            let gaps = node.completeness_gaps();
            assert!(gaps.is_empty(), "{}: {gaps:?}", node.id);
            let text = render_chain(node);
            assert!(text.contains("submission_of"), "{text}");
            assert!(text.contains("resolved_because"), "{text}");
            assert!(text.contains("chain complete"), "{text}");
        }
    }

    #[test]
    fn drop_bad_chains_carry_count_evidence() {
        let graph = graph_for("d-bad");
        let with_counts = graph
            .discarded()
            .iter()
            .filter(|n| n.chain.iter().any(|e| e.count.is_some()))
            .count();
        assert!(with_counts > 0, "d-bad verdicts cite count values");
    }

    #[test]
    fn diff_finds_where_dbad_and_dlat_diverge() {
        let a = graph_for("d-bad");
        let b = graph_for("d-lat");
        let doc = diff_doc("d-bad", &a, "d-lat", &b);
        assert!(doc.compared > 0, "same seed ⇒ shared identities");
        // And it serializes as one machine-readable document.
        let json = serde_json::to_string(&doc).unwrap();
        assert!(json.contains("\"divergence\""), "{json}");
        let d = doc
            .divergence
            .expect("err 0.3: the strategies disagree somewhere");
        assert_ne!(d.a.fate, d.b.fate);
        let text = render_divergence(&d);
        assert!(text.contains("first divergence"), "{text}");
        assert!(text.contains("d-bad"), "{text}");
    }

    /// A discard's rendered chain names its evidence: the deciding
    /// constraint, the partners bound with it and the count value.
    #[test]
    fn explanations_render_their_evidence() {
        let graph = graph_for("d-bad");
        let node = graph
            .discarded()
            .into_iter()
            .find(|n| n.verdict_edge().is_some_and(|e| e.constraint.is_some()))
            .expect("a count-decided discard");
        let verdict = node.verdict_edge().unwrap();
        let text = render_chain(node);
        let line = text
            .lines()
            .find(|l| l.contains("resolved_because"))
            .unwrap_or_else(|| panic!("no verdict line: {text}"));
        assert!(
            line.contains(verdict.constraint.as_deref().unwrap()),
            "{line}"
        );
        assert!(line.contains(&verdict.partners[0].to_string()), "{line}");
        assert!(
            line.contains(&format!("count={}", verdict.count.unwrap())),
            "{line}"
        );
        assert!(line.ends_with("=> inconsistent"), "{line}");
        assert!(text.starts_with(&node.id.to_string()), "{text}");
    }

    /// The paper's Scenario B under the refined constraints: D-LAT
    /// discards the correct d4 and d5 on arrival, D-BAD waits and
    /// discards the corrupted d3 on its count of 2 — the first context
    /// by reception time their fates differ on.
    #[test]
    fn scenario_b_diverges_on_the_corrupted_context() {
        use ctxres_apps::scenarios::{refined_constraints, scenario_b};
        use ctxres_context::Ticks;
        use ctxres_middleware::{Middleware, MiddlewareConfig};
        use ctxres_obs::ObsRegistry;
        let run = |strategy: &str| {
            let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
            let mut mw = Middleware::builder()
                .constraints(refined_constraints())
                .strategy(ctxres_core::strategies::by_name(strategy, 0).unwrap())
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
        };
        let (bad, lat) = (run("d-bad"), run("d-lat"));
        let d = first_divergence("d-bad", &bad, "d-lat", &lat).expect("must diverge");
        assert_eq!(d.received_at, 2, "d3 is stamped t2");
        assert_eq!(
            (d.a.fate.as_str(), d.b.fate.as_str()),
            ("discarded", "delivered")
        );
        let verdict = d.a.node.verdict_edge().unwrap();
        assert_eq!(verdict.count, Some(2));
        assert!(d.a.node.completeness_gaps().is_empty());
        let discarded_at = |g: &ProvenanceGraph| -> Vec<u64> {
            g.discarded().iter().filter_map(|n| n.received_at).collect()
        };
        assert_eq!(discarded_at(&bad), vec![2]);
        assert_eq!(discarded_at(&lat), vec![3, 4]);
    }

    #[test]
    fn same_strategy_never_diverges_from_itself() {
        let a = graph_for("d-bad");
        let b = graph_for("d-bad");
        assert!(first_divergence("a", &a, "b", &b).is_none());
    }

    #[test]
    fn explain_doc_selects_by_raw_id() {
        let graph = graph_for("d-bad");
        let first = graph.nodes().next().unwrap();
        let raw = format!("{}", first.id.ctx)
            .trim_start_matches("ctx#")
            .parse::<u64>()
            .unwrap();
        let picked = nodes_for_raw_id(&graph, raw);
        assert!(picked.iter().any(|n| n.id == first.id));
        let doc = ExplainDoc::new("cell", &graph, picked);
        assert!(!doc.chains.is_empty());
        assert_eq!(doc.stats.nodes, graph.len());
    }
}
