//! Provenance graph: fold a trace into per-context causal chains.
//!
//! Drop-bad defers every discard: by the time a context is thrown away,
//! the violations that condemned it are long past. The trace states
//! each fact of a context's life once; this module reconstructs *why*
//! it ended as it did, by folding each [`TraceEvent::Received`] record
//! (the chain's root) and the typed [`TraceEvent::Caused`] edges into a
//! queryable DAG of [`ProvNode`]s — one per `(shard, ctx)` — each
//! carrying its ordered causal chain from submission to verdict.
//!
//! The ID scheme: context ids are shard-local, so a node is keyed by
//! the `(shard, ctx)` pair ([`NodeId`]) — globally unique within one
//! run's trace. Each edge's stable causal ID is the `(at, seq)` stamp
//! of its carrying [`TraceRecord`]: per-shard `seq` is assigned at
//! emission, so the pair totally orders a shard's edges even within one
//! logical tick. Cross-shard (and cross-run) stitching uses the
//! content-based [`ProvNode::identity`] — `(kind, subject,
//! received_at)` — which is independent of pool numbering: the same
//! workload replayed through a sequential engine, a sharded engine, or
//! a different strategy yields matching identities, which is what
//! `explain --diff` joins on.

use crate::event::{CauseKind, TraceEvent, TraceRecord};
use ctxres_context::{ContextId, ContextState};
use serde::Serialize;
use std::collections::BTreeMap;

/// Stable node ID: the shard that owns the context plus its pool-local
/// id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct NodeId {
    /// The shard whose pool assigned `ctx`.
    pub shard: u32,
    /// The shard-local context id.
    pub ctx: ContextId,
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}/{}", self.shard, self.ctx)
    }
}

/// One typed cause edge attached to a node's chain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CauseEdge {
    /// Logical tick of the carrying record (half of the causal ID).
    pub at: u64,
    /// Per-shard emission sequence (the other half of the causal ID).
    pub seq: u64,
    /// The typed relation.
    pub cause: CauseKind,
    /// The constraint implicated, when one is.
    pub constraint: Option<String>,
    /// The other contexts bound in the causing violation (same shard as
    /// the effect node).
    pub partners: Vec<NodeId>,
    /// The deciding count value, when counts are implicated.
    pub count: Option<u64>,
    /// For verdict edges: the state the decision put the context in.
    pub verdict: Option<ContextState>,
}

/// One context's provenance: identity, causal chain, and timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProvNode {
    /// The node's stable ID.
    pub id: NodeId,
    /// Kind name, from the submission event.
    pub kind: Option<String>,
    /// Subject, from the submission event.
    pub subject: Option<String>,
    /// Logical tick the context entered the middleware.
    pub received_at: Option<u64>,
    /// The state the context's last verdict edge put it in.
    pub final_state: Option<ContextState>,
    /// Typed cause edges in causal `(at, seq)` order, opening with the
    /// `submission_of` root the fold makes from the `Received` record.
    pub chain: Vec<CauseEdge>,
    /// Every other record involving this context (deliveries, expiries
    /// and Δ removals), in trace order.
    pub timeline: Vec<TraceRecord>,
}

impl ProvNode {
    /// Content-based identity for cross-shard / cross-run stitching:
    /// independent of pool numbering, equal for the same submission
    /// wherever it was routed. `None` until the `Received` record is
    /// seen.
    pub fn identity(&self) -> Option<(String, String, u64)> {
        match (&self.kind, &self.subject, self.received_at) {
            (Some(k), Some(s), Some(at)) => Some((k.clone(), s.clone(), at)),
            _ => None,
        }
    }

    /// Whether the trace ended with this context discarded.
    pub fn discarded(&self) -> bool {
        self.final_state == Some(ContextState::Inconsistent)
    }

    /// Chain depth: the number of typed cause edges behind the verdict.
    pub fn chain_depth(&self) -> usize {
        self.chain.len()
    }

    /// The verdict edge (`ResolvedBecause` or `SupersededBy`), when the
    /// chain reached one.
    pub fn verdict_edge(&self) -> Option<&CauseEdge> {
        self.chain.iter().rev().find(|e| {
            matches!(
                e.cause,
                CauseKind::ResolvedBecause | CauseKind::SupersededBy
            )
        })
    }

    /// Gaps that keep this node's chain from being a complete
    /// explanation: an empty vec means the chain opens with its
    /// submission root. Whether every detection, Δ membership and
    /// verdict reached the chain is checked against the engine itself,
    /// by the `provenance_completeness` tests.
    pub fn completeness_gaps(&self) -> Vec<String> {
        let mut gaps = Vec::new();
        if !self
            .chain
            .iter()
            .any(|e| e.cause == CauseKind::SubmissionOf)
        {
            gaps.push("no submission_of root".to_owned());
        }
        gaps
    }
}

/// Summary counters over a folded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ProvStats {
    /// Nodes in the graph (contexts seen).
    pub nodes: usize,
    /// Typed cause edges attached.
    pub edges: usize,
    /// Nodes whose chains have no completeness gaps.
    pub complete_chains: usize,
    /// Discarded nodes.
    pub discarded: usize,
}

/// A queryable provenance DAG folded from a trace (live ring drains or
/// JSONL dumps).
#[derive(Debug, Clone, Default)]
pub struct ProvenanceGraph {
    nodes: BTreeMap<NodeId, ProvNode>,
    edges: usize,
}

impl ProvenanceGraph {
    /// Folds a trace into a graph. Records are re-sorted by
    /// `(at, shard, seq)` first, so unordered dumps fold identically to
    /// live drains.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut sorted: Vec<&TraceRecord> = records.iter().collect();
        sorted.sort_by_key(|r| (r.at, r.shard, r.seq));
        let mut graph = ProvenanceGraph::default();
        for rec in sorted {
            graph.fold(rec);
        }
        graph
    }

    fn node_mut(&mut self, id: NodeId) -> &mut ProvNode {
        self.nodes.entry(id).or_insert_with(|| ProvNode {
            id,
            kind: None,
            subject: None,
            received_at: None,
            final_state: None,
            chain: Vec::new(),
            timeline: Vec::new(),
        })
    }

    fn fold(&mut self, rec: &TraceRecord) {
        let shard = rec.shard;
        let (ctx, edge) = match &rec.event {
            TraceEvent::Received { ctx, kind, subject } => {
                let node = self.node_mut(NodeId { shard, ctx: *ctx });
                node.kind = Some(kind.to_string());
                node.subject = Some(subject.to_string());
                node.received_at = Some(rec.at);
                let root = CauseEdge {
                    at: rec.at,
                    seq: rec.seq,
                    cause: CauseKind::SubmissionOf,
                    constraint: None,
                    partners: Vec::new(),
                    count: None,
                    verdict: None,
                };
                (*ctx, root)
            }
            TraceEvent::Caused {
                ctx,
                cause,
                constraint,
                partners,
                count,
                verdict,
            } => {
                let edge = CauseEdge {
                    at: rec.at,
                    seq: rec.seq,
                    cause: *cause,
                    constraint: constraint.clone(),
                    partners: partners.iter().map(|p| NodeId { shard, ctx: *p }).collect(),
                    count: *count,
                    verdict: *verdict,
                };
                (*ctx, edge)
            }
            other => {
                for ctx in other.contexts() {
                    self.node_mut(NodeId { shard, ctx })
                        .timeline
                        .push(rec.clone());
                }
                return;
            }
        };
        let node = self.node_mut(NodeId { shard, ctx });
        if edge.verdict.is_some() {
            node.final_state = edge.verdict;
        }
        node.chain.push(edge);
        self.edges += 1;
    }

    /// The node for `id`, when the trace mentioned it.
    pub fn node(&self, id: NodeId) -> Option<&ProvNode> {
        self.nodes.get(&id)
    }

    /// Every node, in `(shard, ctx)` order.
    pub fn nodes(&self) -> impl Iterator<Item = &ProvNode> {
        self.nodes.values()
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total typed cause edges folded in, submission roots included.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Every discarded node, in `(shard, ctx)` order.
    pub fn discarded(&self) -> Vec<&ProvNode> {
        self.nodes.values().filter(|n| n.discarded()).collect()
    }

    /// The cross-shard stitching index: nodes grouped by content
    /// identity. Nodes still missing a submission record are absent.
    pub fn by_identity(&self) -> BTreeMap<(String, String, u64), Vec<NodeId>> {
        let mut index: BTreeMap<(String, String, u64), Vec<NodeId>> = BTreeMap::new();
        for node in self.nodes.values() {
            if let Some(key) = node.identity() {
                index.entry(key).or_default().push(node.id);
            }
        }
        index
    }

    /// Summary counters.
    pub fn stats(&self) -> ProvStats {
        let mut complete = 0;
        let mut discarded = 0;
        for node in self.nodes.values() {
            if node.completeness_gaps().is_empty() {
                complete += 1;
            }
            if node.discarded() {
                discarded += 1;
            }
        }
        ProvStats {
            nodes: self.nodes.len(),
            edges: self.edges,
            complete_chains: complete,
            discarded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContextId {
        ContextId::from_raw(n)
    }

    fn rec(shard: u32, seq: u64, at: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            shard,
            seq,
            at,
            event,
        }
    }

    fn sample_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                0,
                0,
                1,
                TraceEvent::Received {
                    ctx: id(1),
                    kind: "location".into(),
                    subject: "alice".into(),
                },
            ),
            rec(
                0,
                1,
                2,
                TraceEvent::Caused {
                    ctx: id(1),
                    cause: CauseKind::ViolatedBy,
                    constraint: Some("speed".into()),
                    partners: vec![id(2)],
                    count: None,
                    verdict: None,
                },
            ),
            rec(
                0,
                2,
                3,
                TraceEvent::Caused {
                    ctx: id(1),
                    cause: CauseKind::JoinedDelta,
                    constraint: Some("speed".into()),
                    partners: vec![id(3)],
                    count: Some(2),
                    verdict: None,
                },
            ),
            rec(
                0,
                3,
                4,
                TraceEvent::Caused {
                    ctx: id(1),
                    cause: CauseKind::ResolvedBecause,
                    constraint: Some("speed".into()),
                    partners: vec![id(2)],
                    count: Some(2),
                    verdict: Some(ContextState::Inconsistent),
                },
            ),
            rec(
                0,
                4,
                4,
                TraceEvent::DeltaRemoved {
                    constraint: "speed".into(),
                    contexts: vec![id(1), id(2)],
                },
            ),
        ]
    }

    #[test]
    fn folding_builds_chains_and_counts_edges() {
        let graph = ProvenanceGraph::from_records(&sample_trace());
        assert_eq!(graph.edge_count(), 4, "the received root and three edges");
        let node = graph
            .node(NodeId {
                shard: 0,
                ctx: id(1),
            })
            .unwrap();
        assert_eq!(node.kind.as_deref(), Some("location"));
        assert_eq!(node.received_at, Some(1));
        assert_eq!(node.chain_depth(), 4);
        let root = &node.chain[0];
        assert_eq!(
            (root.cause, root.at, root.seq),
            (CauseKind::SubmissionOf, 1, 0)
        );
        assert_eq!(node.timeline.len(), 1, "the Δ removal");
        assert!(node.discarded());
        assert_eq!(
            node.verdict_edge().unwrap().verdict,
            Some(ContextState::Inconsistent)
        );
        assert!(
            node.completeness_gaps().is_empty(),
            "{:?}",
            node.completeness_gaps()
        );
        let stats = graph.stats();
        assert_eq!(stats.discarded, 1);
        assert!(stats.complete_chains >= 1);
    }

    #[test]
    fn unordered_dumps_fold_like_live_drains() {
        let mut shuffled = sample_trace();
        shuffled.reverse();
        let a = ProvenanceGraph::from_records(&sample_trace());
        let b = ProvenanceGraph::from_records(&shuffled);
        let na = a
            .node(NodeId {
                shard: 0,
                ctx: id(1),
            })
            .unwrap();
        let nb = b
            .node(NodeId {
                shard: 0,
                ctx: id(1),
            })
            .unwrap();
        assert_eq!(na, nb);
    }

    #[test]
    fn gaps_are_reported() {
        // A verdict edge for a context whose submission the trace never
        // saw leaves its chain without a root.
        let trace = vec![rec(
            0,
            0,
            3,
            TraceEvent::Caused {
                ctx: id(1),
                cause: CauseKind::ResolvedBecause,
                constraint: None,
                partners: vec![],
                count: None,
                verdict: Some(ContextState::Inconsistent),
            },
        )];
        let graph = ProvenanceGraph::from_records(&trace);
        let node = graph
            .node(NodeId {
                shard: 0,
                ctx: id(1),
            })
            .unwrap();
        assert!(node.discarded());
        assert_eq!(node.completeness_gaps(), ["no submission_of root"]);
        assert_eq!(graph.stats().complete_chains, 0);
    }

    #[test]
    fn identity_stitches_across_shards() {
        let mut trace = sample_trace();
        // The same submission processed by another shard under a
        // different local id.
        trace.push(rec(
            1,
            0,
            1,
            TraceEvent::Received {
                ctx: id(40),
                kind: "location".into(),
                subject: "alice".into(),
            },
        ));
        let graph = ProvenanceGraph::from_records(&trace);
        let index = graph.by_identity();
        let twins = &index[&("location".to_owned(), "alice".to_owned(), 1)];
        assert_eq!(twins.len(), 2);
        assert_eq!(twins[0].shard, 0);
        assert_eq!(twins[1].shard, 1);
    }
}
